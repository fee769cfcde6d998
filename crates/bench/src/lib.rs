//! Shared harness utilities for regenerating the paper's tables and figures.
//!
//! Each evaluation artifact has a binary (`fig7` … `fig12`, `table2`,
//! `table3`) that prints the same rows/series the paper reports, plus
//! Criterion benches for the wall-clock measurements. Absolute values are
//! machine-dependent; the binaries annotate the qualitative expectations so
//! shape regressions are visible at a glance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use aa_linalg::iterative::{cg, IterativeConfig, SolveReport, StoppingCriterion};
use aa_linalg::stencil::PoissonStencil;
use aa_linalg::LinearOperator;

/// Fits the slope of `log(y)` against `log(x)` by least squares — the
/// scaling exponent of a measured series.
///
/// # Panics
///
/// Panics if fewer than two points are given or any value is non-positive.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit a slope");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|(x, y)| {
            assert!(*x > 0.0 && *y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The digital baseline measurement: stencil CG on a 2D Poisson problem,
/// stopped at the paper's `bits`-bit equal-accuracy criterion. Returns the
/// report and the measured wall-clock seconds.
///
/// The forcing is scaled so the solution peaks near 1.0 — the "full scale"
/// the stopping rule's `1/2^bits` is a fraction of. (Uniform forcing on the
/// unit square gives a peak of ≈ 0.0737·‖f‖ at the center, independent of
/// resolution.)
pub fn measure_cg_2d(l: usize, bits: u32) -> (SolveReport, f64) {
    let op = PoissonStencil::new_2d(l).expect("l > 0");
    let b = vec![1.0 / 0.0737; op.dim()];
    let cfg = IterativeConfig::with_stopping(StoppingCriterion::adc_equivalent(bits));
    let start = Instant::now();
    let report = cg(&op, &b, &cfg).expect("poisson is SPD");
    let elapsed = start.elapsed().as_secs_f64();
    (report, elapsed)
}

/// Formats a duration with an appropriate SI prefix.
pub fn format_time(t: f64) -> String {
    if !t.is_finite() {
        return "—".to_string();
    }
    if t < 1e-6 {
        format!("{:.2} ns", t * 1e9)
    } else if t < 1e-3 {
        format!("{:.2} µs", t * 1e6)
    } else if t < 1.0 {
        format!("{:.3} ms", t * 1e3)
    } else {
        format!("{t:.3} s")
    }
}

/// Formats an energy with an appropriate SI prefix.
pub fn format_energy(e: f64) -> String {
    if e < 1e-6 {
        format!("{:.2} nJ", e * 1e9)
    } else if e < 1e-3 {
        format!("{:.2} µJ", e * 1e6)
    } else if e < 1.0 {
        format!("{:.3} mJ", e * 1e3)
    } else {
        format!("{e:.3} J")
    }
}

/// Prints a figure/table banner with the paper reference.
pub fn banner(id: &str, caption: &str) {
    println!("==================================================================");
    println!("{id} — {caption}");
    println!("==================================================================");
}

/// A deterministic pseudo-random right-hand side in `[-1, 1)` (no RNG
/// dependency; reproducible across runs).
pub fn deterministic_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

/// One `perf_report` measurement row, serialized into `BENCH_engine.json`
/// so successive PRs can track the performance trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark identifier, e.g. `engine_microbench`.
    pub bench: String,
    /// Human-readable configuration of this row.
    pub config: String,
    /// Measured wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Engine integration throughput, where applicable.
    pub steps_per_sec: Option<f64>,
    /// Fleet serving throughput (completed solve requests per wall-clock
    /// second), where applicable.
    pub requests_per_sec: Option<f64>,
    /// Wall-time ratio against the serial run of the same bench, where
    /// applicable.
    pub speedup_vs_serial: Option<f64>,
    /// Physical cores available on the measuring machine, for rows whose
    /// interpretation depends on it (thread-scaling benches).
    pub cores: Option<u64>,
    /// `true` when the row ran more threads than available cores, so its
    /// speedup measures overhead rather than parallelism.
    pub undersubscribed: Option<bool>,
    /// Requests completed by the chaos-soak resilience bench, where
    /// applicable.
    pub soak_requests_completed: Option<u64>,
    /// Wall time of one fleet checkpoint + restore cycle, milliseconds,
    /// where applicable.
    pub checkpoint_restore_ms: Option<f64>,
    /// Throughput ratio of the K-lane batched path against serving the same
    /// K right-hand sides sequentially, where applicable.
    pub batched_speedup: Option<f64>,
    /// Sequential steps/sec ratio of the `PassConfig::full()` tape against
    /// the `PassConfig::none()` tape on the same problem, where applicable.
    pub ir_speedup: Option<f64>,
    /// Fleet size of a `fleet_scaling` curve point (chips = shards =
    /// workers at that point), where applicable.
    pub fleet_chips: Option<u64>,
    /// Iteration ratio of plain CG against analog-preconditioned flexible
    /// CG on the same problem (`cg_iters / fcg_iters`), where applicable.
    pub krylov_speedup: Option<f64>,
    /// Final-residual ratio of the f64 refinement path against the
    /// compensated extended-precision path on the same ill-conditioned
    /// problem (`f64_residual / compensated_residual`), where applicable.
    pub refine_ulp_gain: Option<f64>,
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite float as a JSON number, anything else as `null` (JSON has no
/// NaN/infinity literals).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes measurement rows as a JSON array (hand-rolled — the workspace
/// takes no external dependencies).
pub fn records_to_json(records: &[BenchRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "  {{\"bench\": \"{}\", \"config\": \"{}\", \"wall_ms\": {}, \
                 \"steps_per_sec\": {}, \"requests_per_sec\": {}, \"speedup_vs_serial\": {}, \
                 \"cores\": {}, \"undersubscribed\": {}, \"soak_requests_completed\": {}, \
                 \"checkpoint_restore_ms\": {}, \"batched_speedup\": {}, \
                 \"ir_speedup\": {}, \"fleet_chips\": {}, \
                 \"krylov_speedup\": {}, \"refine_ulp_gain\": {}}}",
                json_escape(&r.bench),
                json_escape(&r.config),
                json_number(r.wall_ms),
                r.steps_per_sec.map_or("null".to_string(), json_number),
                r.requests_per_sec.map_or("null".to_string(), json_number),
                r.speedup_vs_serial.map_or("null".to_string(), json_number),
                r.cores.map_or("null".to_string(), |c| c.to_string()),
                r.undersubscribed
                    .map_or("null".to_string(), |u| u.to_string()),
                r.soak_requests_completed
                    .map_or("null".to_string(), |n| n.to_string()),
                r.checkpoint_restore_ms
                    .map_or("null".to_string(), json_number),
                r.batched_speedup.map_or("null".to_string(), json_number),
                r.ir_speedup.map_or("null".to_string(), json_number),
                r.fleet_chips.map_or("null".to_string(), |c| c.to_string()),
                r.krylov_speedup.map_or("null".to_string(), json_number),
                r.refine_ulp_gain.map_or("null".to_string(), json_number),
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The exact key set of a `BENCH_engine.json` record.
const BENCH_KEYS: [&str; 15] = [
    "bench",
    "config",
    "wall_ms",
    "steps_per_sec",
    "requests_per_sec",
    "speedup_vs_serial",
    "cores",
    "undersubscribed",
    "soak_requests_completed",
    "checkpoint_restore_ms",
    "batched_speedup",
    "ir_speedup",
    "fleet_chips",
    "krylov_speedup",
    "refine_ulp_gain",
];

/// Schema check for a `BENCH_engine.json` document, run before the file is
/// (over)written so a serialization bug can never clobber the previous
/// report with garbage: the document must parse, be a non-empty array of
/// records carrying exactly [`BENCH_KEYS`], with non-empty string `bench`,
/// string `config`, finite non-negative `wall_ms`, `steps_per_sec` /
/// `requests_per_sec` / `speedup_vs_serial` / `checkpoint_restore_ms` /
/// `batched_speedup` / `ir_speedup` / `krylov_speedup` /
/// `refine_ulp_gain` each `null` or a non-negative number,
/// `cores` and `fleet_chips` each `null` or a positive integer,
/// `soak_requests_completed` `null` or a non-negative integer, and
/// `undersubscribed` `null` or a boolean.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = aa_obs::json::Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = doc
        .as_array()
        .ok_or_else(|| "top level must be an array".to_string())?;
    if rows.is_empty() {
        return Err("no benchmark records".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let obj = row
            .as_object()
            .ok_or_else(|| format!("record {i} is not an object"))?;
        for key in BENCH_KEYS {
            if !obj.contains_key(key) {
                return Err(format!("record {i} is missing key {key:?}"));
            }
        }
        for key in obj.keys() {
            if !BENCH_KEYS.contains(&key.as_str()) {
                return Err(format!("record {i} has unexpected key {key:?}"));
            }
        }
        row.get("bench")
            .and_then(|v| v.as_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("record {i}: \"bench\" must be a non-empty string"))?;
        row.get("config")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("record {i}: \"config\" must be a string"))?;
        let wall = row
            .get("wall_ms")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("record {i}: \"wall_ms\" must be a number"))?;
        if !(wall >= 0.0 && wall.is_finite()) {
            return Err(format!(
                "record {i}: \"wall_ms\" must be finite and non-negative, got {wall}"
            ));
        }
        for key in [
            "steps_per_sec",
            "requests_per_sec",
            "speedup_vs_serial",
            "checkpoint_restore_ms",
            "batched_speedup",
            "ir_speedup",
            "krylov_speedup",
            "refine_ulp_gain",
        ] {
            let value = row.get(key).expect("presence checked above");
            if value.is_null() {
                continue;
            }
            let num = value
                .as_f64()
                .ok_or_else(|| format!("record {i}: {key:?} must be null or a number"))?;
            if num < 0.0 {
                return Err(format!(
                    "record {i}: {key:?} must be non-negative, got {num}"
                ));
            }
        }
        for key in ["cores", "fleet_chips"] {
            let value = row.get(key).expect("presence checked above");
            if value.is_null() {
                continue;
            }
            let num = value
                .as_f64()
                .ok_or_else(|| format!("record {i}: {key:?} must be null or a number"))?;
            if !(num.fract() == 0.0 && num >= 1.0) {
                return Err(format!(
                    "record {i}: {key:?} must be a positive integer, got {num}"
                ));
            }
        }
        let soak = row
            .get("soak_requests_completed")
            .expect("presence checked above");
        if !soak.is_null() {
            let num = soak.as_f64().ok_or_else(|| {
                format!("record {i}: \"soak_requests_completed\" must be null or a number")
            })?;
            if !(num.fract() == 0.0 && num >= 0.0) {
                return Err(format!(
                    "record {i}: \"soak_requests_completed\" must be a non-negative integer, \
                     got {num}"
                ));
            }
        }
        let under = row.get("undersubscribed").expect("presence checked above");
        if !under.is_null() && under.as_bool().is_none() {
            return Err(format!(
                "record {i}: \"undersubscribed\" must be null or a boolean"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_power_laws() {
        let quadratic: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quadratic) - 2.0).abs() < 1e-12);
        let linear: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cg_measurement_runs() {
        let (report, seconds) = measure_cg_2d(8, 8);
        assert!(report.converged);
        assert!(seconds > 0.0);
    }

    #[test]
    fn formatting() {
        assert!(format_time(2e-9).contains("ns"));
        assert!(format_time(2e-5).contains("µs"));
        assert!(format_time(2e-2).contains("ms"));
        assert!(format_time(2.0).contains('s'));
        assert!(format_energy(1e-7).contains("nJ"));
        assert!(format_energy(0.5).contains("mJ"));
    }

    #[test]
    fn bench_records_serialize_to_valid_json() {
        let records = vec![
            BenchRecord {
                bench: "engine_microbench".to_string(),
                config: "32 macroblocks, \"compiled\"".to_string(),
                wall_ms: 12.5,
                steps_per_sec: Some(48000.0),
                requests_per_sec: None,
                speedup_vs_serial: None,
                cores: None,
                undersubscribed: None,
                soak_requests_completed: None,
                checkpoint_restore_ms: None,
                batched_speedup: None,
                ir_speedup: None,
                fleet_chips: None,
                krylov_speedup: None,
                refine_ulp_gain: None,
            },
            BenchRecord {
                bench: "decomposed_scaling".to_string(),
                config: "threads=4".to_string(),
                wall_ms: 3.25,
                steps_per_sec: None,
                requests_per_sec: Some(120.0),
                speedup_vs_serial: Some(f64::NAN),
                cores: Some(2),
                undersubscribed: Some(true),
                soak_requests_completed: Some(512),
                checkpoint_restore_ms: Some(1.75),
                batched_speedup: Some(3.5),
                ir_speedup: Some(1.3),
                fleet_chips: Some(4),
                krylov_speedup: Some(2.5),
                refine_ulp_gain: Some(12.0),
            },
        ];
        let json = records_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"bench\": \"engine_microbench\""));
        assert!(json.contains("\\\"compiled\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"steps_per_sec\": 48000"));
        // Non-finite numbers become null, never bare NaN.
        assert!(json.contains("\"speedup_vs_serial\": null"));
        assert!(!json.contains("NaN"));
        // Machine context serializes as structured fields, not strings.
        assert!(json.contains("\"cores\": 2"));
        assert!(json.contains("\"cores\": null"));
        assert!(json.contains("\"undersubscribed\": true"));
        // Resilience fields serialize as numbers or null.
        assert!(json.contains("\"soak_requests_completed\": 512"));
        assert!(json.contains("\"soak_requests_completed\": null"));
        assert!(json.contains("\"checkpoint_restore_ms\": 1.75"));
        assert!(json.contains("\"checkpoint_restore_ms\": null"));
        assert!(json.contains("\"batched_speedup\": 3.5"));
        assert!(json.contains("\"batched_speedup\": null"));
        assert!(json.contains("\"ir_speedup\": 1.3"));
        assert!(json.contains("\"ir_speedup\": null"));
        assert!(json.contains("\"fleet_chips\": 4"));
        assert!(json.contains("\"fleet_chips\": null"));
        // Exactly one comma-separated row pair.
        assert_eq!(json.matches("{\"bench\"").count(), 2);
    }

    #[test]
    fn valid_bench_json_passes_validation() {
        let records = vec![BenchRecord {
            bench: "engine_microbench".to_string(),
            config: "32 macroblocks".to_string(),
            wall_ms: 12.5,
            steps_per_sec: Some(48000.0),
            requests_per_sec: None,
            speedup_vs_serial: None,
            cores: Some(1),
            undersubscribed: Some(false),
            soak_requests_completed: Some(0),
            checkpoint_restore_ms: Some(0.5),
            batched_speedup: Some(1.0),
            ir_speedup: Some(1.2),
            fleet_chips: Some(1),
            krylov_speedup: Some(1.4),
            refine_ulp_gain: None,
        }];
        validate_bench_json(&records_to_json(&records)).expect("valid document");
    }

    /// A full valid single-record document with one `"key": value` pair
    /// swapped in — `replace` must hit exactly once so each case tests what
    /// it says it tests.
    fn doc_with(key: &str, value: &str) -> String {
        let base = r#"[{"bench": "x", "config": "c", "wall_ms": 1.0, "steps_per_sec": null,
            "requests_per_sec": null, "speedup_vs_serial": null, "cores": null,
            "undersubscribed": null, "soak_requests_completed": null,
            "checkpoint_restore_ms": null, "batched_speedup": null,
            "ir_speedup": null, "fleet_chips": null,
            "krylov_speedup": null, "refine_ulp_gain": null}]"#;
        let needle = match key {
            "bench" => r#""bench": "x""#.to_string(),
            "config" => r#""config": "c""#.to_string(),
            "wall_ms" => r#""wall_ms": 1.0"#.to_string(),
            other => format!("\"{other}\": null"),
        };
        assert_eq!(base.matches(&needle).count(), 1, "{key}");
        base.replace(&needle, &format!("\"{key}\": {value}"))
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        // The base document itself is valid.
        validate_bench_json(&doc_with("cores", "null")).expect("base document");
        // Not JSON at all.
        assert!(validate_bench_json("not json").is_err());
        // Wrong shape.
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("[]").is_err());
        assert!(validate_bench_json("[1]").is_err());
        // Missing key.
        assert!(validate_bench_json(
            r#"[{"bench": "x", "config": "c", "wall_ms": 1.0, "steps_per_sec": null}]"#
        )
        .is_err());
        // Unexpected key.
        assert!(
            validate_bench_json(&doc_with("cores", r#"null, "extra": 1"#)).is_err(),
            "unexpected key"
        );
        // Negative timing.
        assert!(validate_bench_json(&doc_with("wall_ms", "-1.0")).is_err());
        // Null wall_ms (a non-finite measurement serialized away).
        assert!(validate_bench_json(&doc_with("wall_ms", "null")).is_err());
        // Empty bench name.
        assert!(validate_bench_json(&doc_with("bench", "\"\"")).is_err());
        // Negative speedup.
        assert!(validate_bench_json(&doc_with("speedup_vs_serial", "-2.0")).is_err());
        // Negative or non-numeric serving throughput.
        assert!(validate_bench_json(&doc_with("requests_per_sec", "-5.0")).is_err());
        assert!(validate_bench_json(&doc_with("requests_per_sec", "\"fast\"")).is_err());
        assert!(validate_bench_json(&doc_with("requests_per_sec", "120.5")).is_ok());
        // Cores must be a positive integer when present.
        assert!(validate_bench_json(&doc_with("cores", "0")).is_err());
        assert!(validate_bench_json(&doc_with("cores", "1.5")).is_err());
        assert!(validate_bench_json(&doc_with("cores", "\"two\"")).is_err());
        assert!(validate_bench_json(&doc_with("cores", "4")).is_ok());
        // Undersubscribed must be a boolean when present.
        assert!(validate_bench_json(&doc_with("undersubscribed", "1")).is_err());
        assert!(validate_bench_json(&doc_with("undersubscribed", "true")).is_ok());
        // Soak completions must be a non-negative integer when present.
        assert!(validate_bench_json(&doc_with("soak_requests_completed", "-3")).is_err());
        assert!(validate_bench_json(&doc_with("soak_requests_completed", "1.5")).is_err());
        assert!(validate_bench_json(&doc_with("soak_requests_completed", "\"many\"")).is_err());
        assert!(validate_bench_json(&doc_with("soak_requests_completed", "0")).is_ok());
        assert!(validate_bench_json(&doc_with("soak_requests_completed", "512")).is_ok());
        // Checkpoint+restore timing must be a non-negative number.
        assert!(validate_bench_json(&doc_with("checkpoint_restore_ms", "-1.0")).is_err());
        assert!(validate_bench_json(&doc_with("checkpoint_restore_ms", "\"fast\"")).is_err());
        assert!(validate_bench_json(&doc_with("checkpoint_restore_ms", "2.5")).is_ok());
        // Batched speedup must be a non-negative number when present.
        assert!(validate_bench_json(&doc_with("batched_speedup", "-1.0")).is_err());
        assert!(validate_bench_json(&doc_with("batched_speedup", "\"2x\"")).is_err());
        assert!(validate_bench_json(&doc_with("batched_speedup", "3.1")).is_ok());
        // IR speedup must be a non-negative number when present.
        assert!(validate_bench_json(&doc_with("ir_speedup", "-0.5")).is_err());
        assert!(validate_bench_json(&doc_with("ir_speedup", "\"fast\"")).is_err());
        assert!(validate_bench_json(&doc_with("ir_speedup", "1.15")).is_ok());
        // Fleet size must be a positive integer when present.
        assert!(validate_bench_json(&doc_with("fleet_chips", "0")).is_err());
        assert!(validate_bench_json(&doc_with("fleet_chips", "1.5")).is_err());
        assert!(validate_bench_json(&doc_with("fleet_chips", "\"four\"")).is_err());
        assert!(validate_bench_json(&doc_with("fleet_chips", "16")).is_ok());
        // Krylov speedup must be a non-negative number when present.
        assert!(validate_bench_json(&doc_with("krylov_speedup", "-1.0")).is_err());
        assert!(validate_bench_json(&doc_with("krylov_speedup", "\"3x\"")).is_err());
        assert!(validate_bench_json(&doc_with("krylov_speedup", "2.4")).is_ok());
        // Refinement precision gain must be a non-negative number when present.
        assert!(validate_bench_json(&doc_with("refine_ulp_gain", "-2.0")).is_err());
        assert!(validate_bench_json(&doc_with("refine_ulp_gain", "\"big\"")).is_err());
        assert!(validate_bench_json(&doc_with("refine_ulp_gain", "64.0")).is_ok());
    }

    #[test]
    fn deterministic_rhs_is_reproducible_and_bounded() {
        let a = deterministic_rhs(100, 42);
        let b = deterministic_rhs(100, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, deterministic_rhs(100, 43));
    }
}

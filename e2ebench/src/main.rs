//! `aa-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit and
//! clock, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics, a traced run the per-layer ones. Exits
//! 1 when any answer broke its contract or a ticket was lost, 2 on a usage
//! error. Fleets run one worker per available core.

use std::process::ExitCode;
use std::time::Duration;

use aa_e2ebench::{Metric, RunConfig, WORKLOADS};

const USAGE: &str = "usage: aa-e2ebench --workload <serve_mixed|serve_small|solve_ladder> \
--seed <n> --seconds <s> --trace <0|1>";

/// Which clock a metric is read from: the modelled chip, the host in
/// reference time, the host's memory, or neither (counts and ratios of
/// answers). Per-layer span times are on the wall clock.
fn clock(m: &Metric, trace: bool) -> &'static str {
    if m.name.starts_with("chip_") {
        "modelled"
    } else if m.unit == "MiB" {
        "host"
    } else if ["s", "ms", "us", "1/s"].contains(&m.unit) {
        if trace {
            "host wall"
        } else {
            "host reference"
        }
    } else {
        "-"
    }
}

fn parse(args: &[String]) -> Result<(usize, RunConfig), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    ))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (index, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = &WORKLOADS[index];
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        workload.name,
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace),
        cfg.workers,
    );
    println!("why: {}", workload.why);
    let out = (workload.run)(&cfg);
    for note in &out.notes {
        println!("note: {note}");
    }
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
    let metrics = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in metrics {
        println!(
            "{:<38} {:>16.6} {:<6} [{}]",
            m.name,
            m.value,
            m.unit,
            clock(m, cfg.trace)
        );
    }
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

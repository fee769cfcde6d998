//! Seeded end-to-end benchmark of the analog-accel stack.
//!
//! Three closed-loop workloads drive the stack only through its public
//! entry points (`FleetService`, `SupervisedSolver`, `fcg_solve`) and report
//! end-to-end metrics on two clocks: the host clock of the simulator,
//! calibrated against a reference kernel so the host's own speed drift
//! cancels ([`clock`]), and the modelled chip clock of `aa-hwmodel`. A
//! traced run installs the
//! benchmark's own aggregating recorder and reports per-layer metrics from
//! the spans and counters the program already emits. See `README.md`.

pub mod clock;
pub mod gen;
pub mod ladder;
pub mod layers;
pub mod oracle;
pub mod recorder;
pub mod serve;
pub mod stats;

use std::ops::Range;
use std::time::{Duration, Instant};

use clock::HostClock;
use layers::Observed;
use oracle::{ratio, Tally};
use recorder::{AggregatingRecorder, Totals};
use stats::LatencyBook;

/// One printed figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Minimum length of the timed phase. The phase also always covers the
    /// workload's deterministic window, so `0` runs the window alone.
    pub seconds: Duration,
    /// Install the aggregating recorder and report per-layer metrics.
    pub trace: bool,
    /// Threads the program runs on: fleet worker threads on the serving
    /// workloads, one on the library path. The command line sets it to the
    /// host's available parallelism; the host clock samples on as many.
    pub workers: usize,
}

/// An untraced run sets up in two blocks, one before and one after its
/// timed phase, and reports the median of every set-up, in reference
/// seconds, as `setup_s`. Each block sets up at least this many times...
pub const SETUP_REPS: usize = 11;

/// ...and for at least this long.
pub const SETUP_BLOCK: Duration = Duration::from_secs(2);

/// A timed phase stops taking new work at this age once its deterministic
/// window is done, keeping every run well inside its time limit.
pub const MAX_PHASE: Duration = Duration::from_secs(120);

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Requests submitted or library calls made in the timed phase.
    pub attempted: u64,
    /// Refused, errored or wrong among them.
    pub failed: u64,
    /// The first few correctness violations (setup included): wrong
    /// answers, errors and lost tickets. Refusals are not among them.
    pub violations: Vec<String>,
    /// End-to-end metrics. Host-clock ones are inflated on a traced run,
    /// which therefore prints only the per-layer set.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable notes printed beside the numbers.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Whether every answer met its contract and nothing errored or went
    /// missing. Refused submissions lower the answered share instead.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// A metric by name, from either set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A workload: name, why it was chosen, and how to run it.
pub struct Workload {
    /// Command-line name.
    pub name: &'static str,
    /// Why it is in the benchmark, printed beside its numbers.
    pub why: &'static str,
    /// Runs it.
    pub run: fn(&RunConfig) -> RunOutput,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_mixed",
        why: serve::MIXED_WHY,
        run: serve::run_mixed,
    },
    Workload {
        name: "serve_small",
        why: serve::SMALL_WHY,
        run: serve::run_small,
    },
    Workload {
        name: "solve_ladder",
        why: ladder::WHY,
        run: ladder::run,
    },
];

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed phase measured.
#[derive(Debug)]
pub struct Phase {
    /// When the phase started.
    pub started: Instant,
    /// Every answer of the phase.
    pub tally: Tally,
    /// The tally when the deterministic window closed.
    pub window: Tally,
    /// Wall time of the deterministic window.
    pub window_wall: Duration,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Per-answer latencies of the whole phase.
    pub latencies: LatencyBook,
    /// What the benchmark measured itself over the window.
    pub observed: Observed,
    /// The recorder's totals when the window closed (traced runs).
    pub totals: Option<Totals>,
    /// [`peak_rss_mb`] when the window closed. Read there rather than at
    /// the end, because the fleet keeps every completion, so the end-of-run
    /// peak grows with the number of requests served and a faster program
    /// would read as a larger one.
    pub peak_rss_mb: f64,
    /// Workload-specific lines printed beside the numbers.
    pub notes: Vec<String>,
}

impl Phase {
    /// An empty phase driving `workers` worker threads, starting now.
    pub fn new(workers: usize) -> Self {
        Phase {
            started: Instant::now(),
            tally: Tally::default(),
            window: Tally::default(),
            window_wall: Duration::ZERO,
            wall: Duration::ZERO,
            latencies: LatencyBook::default(),
            observed: Observed {
                workers,
                ..Observed::default()
            },
            totals: None,
            peak_rss_mb: 0.0,
            notes: Vec::new(),
        }
    }

    /// Closes the deterministic window into the phase.
    pub fn close_window(&mut self, recorder: Option<&AggregatingRecorder>) {
        self.window = self.tally.clone();
        self.window_wall = self.started.elapsed();
        self.observed.completions = self.window.answers();
        self.totals = recorder.map(AggregatingRecorder::totals);
        self.peak_rss_mb = peak_rss_mb();
    }

    /// Closes the phase.
    pub fn close(&mut self) {
        self.wall = self.started.elapsed();
    }

    /// The deterministic window's wall span.
    fn window_span(&self) -> Range<Instant> {
        self.started..self.started + self.window_wall
    }

    /// The whole phase's wall span.
    fn span(&self) -> Range<Instant> {
        self.started..self.started + self.wall
    }
}

/// Runs one workload. `set_up` builds a fresh instance and reports when
/// that started and ended plus the failures of its warm-up answers; `drive`
/// runs a timed phase of at least `seconds` on it, recording into the
/// recorder when one is given and sampling the host clock between calls.
///
/// An untraced run sets up in two blocks (see [`SETUP_REPS`]; `setup_s` is
/// the median of every set-up) and drives the last instance of the first.
/// A traced run drives the deterministic window untraced on one instance
/// and the whole phase traced on another; the ratio of the two windows'
/// reference times is the tracing overhead. Host-clock figures are turned
/// into reference time once the run is over, when the clock holds every
/// kernel sample around them.
pub fn measure<S>(
    cfg: &RunConfig,
    mut set_up: impl FnMut() -> (S, Range<Instant>, Tally),
    mut drive: impl FnMut(&mut S, Duration, Option<&AggregatingRecorder>, &mut HostClock) -> Phase,
) -> RunOutput {
    let mut clock = HostClock::new(cfg.workers);
    let mut setups = Vec::new();
    // Failures outside the reported phase still fail the run.
    let mut elsewhere = Tally::default();
    let mut build = |elsewhere: &mut Tally, clock: &mut HostClock| {
        clock.sample_if_due();
        let (instance, span, tally) = set_up();
        clock.sample_if_due();
        setups.push(span);
        elsewhere.absorb_failures(tally);
        instance
    };
    let (phase, untraced_window) = if cfg.trace {
        let mut plain = build(&mut elsewhere, &mut clock);
        let untraced = drive(&mut plain, Duration::ZERO, None, &mut clock);
        drop(plain);
        let untraced_window = untraced.window_span();
        elsewhere.absorb_failures(untraced.tally);
        let mut traced = build(&mut elsewhere, &mut clock);
        let recorder = AggregatingRecorder::root();
        let phase = aa_obs::with_recorder(recorder.clone(), || {
            drive(&mut traced, cfg.seconds, Some(&recorder), &mut clock)
        });
        (phase, untraced_window)
    } else {
        // Drops each instance before building the next so replicas never
        // coexist; returns the last.
        let mut block = |elsewhere: &mut Tally, clock: &mut HostClock| {
            let start = Instant::now();
            let mut kept = build(elsewhere, clock);
            for rep in 1.. {
                if rep >= SETUP_REPS && start.elapsed() >= SETUP_BLOCK {
                    break;
                }
                drop(kept);
                kept = build(elsewhere, clock);
            }
            kept
        };
        let mut instance = block(&mut elsewhere, &mut clock);
        let phase = drive(&mut instance, cfg.seconds, None, &mut clock);
        drop(instance);
        drop(block(&mut elsewhere, &mut clock));
        let window = phase.window_span();
        (phase, window)
    };

    let timeline = clock.timeline();
    let reference = |span: &Range<Instant>| timeline.seconds(span.start, span.end);
    let setup_s: Vec<f64> = setups.iter().map(reference).collect();
    let setup_wall: Vec<f64> = setups
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64())
        .collect();
    let phase_s = reference(&phase.span());
    let latencies = phase.latencies.samples_ms(&timeline);
    let wall_latencies = phase.latencies.wall_ms();
    let (all, window) = (&phase.tally, &phase.window);
    let answers = window.answers() as f64;
    let mut out = RunOutput {
        attempted: all.attempted,
        failed: all.failed() + elsewhere.failed(),
        violations: elsewhere.violations,
        ..RunOutput::default()
    };
    out.violations.extend(all.violations.iter().cloned());
    out.end_to_end = vec![
        metric("solves_per_s", "1/s", ratio(all.correct as f64, phase_s)),
        metric(
            "latency_p50_ms",
            "ms",
            stats::percentile(&latencies, 50.0).unwrap_or(0.0),
        ),
        metric(
            "latency_p95_ms",
            "ms",
            stats::percentile(&latencies, 95.0).unwrap_or(0.0),
        ),
        metric(
            "chip_us_per_solve",
            "us",
            ratio(window.chip_s * 1e6, answers),
        ),
        metric(
            "chip_uj_per_solve",
            "uJ",
            ratio(window.energy_j * 1e6, answers),
        ),
        metric("residual_max", "ratio", window.residual_max),
        metric(
            "analog_share",
            "ratio",
            ratio(window.analog as f64, answers),
        ),
        metric(
            "answered_share",
            "ratio",
            ratio(all.correct as f64, all.attempted as f64),
        ),
        metric("setup_s", "s", stats::median(&setup_s).unwrap_or(0.0)),
        metric("peak_rss_mb", "MiB", phase.peak_rss_mb),
    ];
    out.notes.push(format!(
        "timed phase: {:.3} s wall, {phase_s:.3} s reference, {} attempted, {} correct",
        phase.wall.as_secs_f64(),
        all.attempted,
        all.correct,
    ));
    let speeds = clock.speeds();
    let kernels: Vec<String> = clock::KERNELS
        .iter()
        .zip(clock.kernel_medians())
        .map(|(k, t)| format!("{} {:.1} us", k.name, t * 1e6))
        .collect();
    out.notes.push(format!(
        "host clock: {} samples; host speed vs reference min {:.3}, median {:.3}, max {:.3}; \
         kernel medians {}",
        clock.samples(),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&speeds).unwrap_or(0.0),
        speeds.iter().copied().fold(0.0, f64::max),
        kernels.join(", "),
    ));
    out.notes.push(format!(
        "wall clock: solves_per_s {:.6}, latency_p50_ms {:.6}, latency_p95_ms {:.6}, setup_s {:.6}",
        ratio(all.correct as f64, phase.wall.as_secs_f64()),
        stats::percentile(&wall_latencies, 50.0).unwrap_or(0.0),
        stats::percentile(&wall_latencies, 95.0).unwrap_or(0.0),
        stats::median(&setup_wall).unwrap_or(0.0),
    ));
    out.notes.push(format!(
        "latency: {} samples; p95 {}; highest percentile with >= {} samples beyond it: {}",
        latencies.len(),
        if stats::tail_supported(95.0, latencies.len()) {
            "resolved"
        } else {
            "UNRESOLVED, printed as the nearest-rank value"
        },
        stats::MIN_TAIL_SAMPLES,
        stats::highest_supported_percentile(latencies.len())
            .map_or("none".to_string(), |p| format!("p{p:.1}")),
    ));
    out.notes.push(format!(
        "set-up: {} time(s), reference min {:.6} s, max {:.6} s",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
    ));
    let overhead = ratio(reference(&phase.window_span()), reference(&untraced_window));
    out.notes.extend(phase.notes);
    if let Some(totals) = &phase.totals {
        out.per_layer = layers::metrics(totals, &phase.observed, phase.window_wall, overhead);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refusal_lowers_the_answered_share_and_keeps_the_run_correct() {
        let cfg = RunConfig {
            seed: 1,
            seconds: Duration::ZERO,
            // Traced: sets up once per drive instead of for two blocks.
            trace: true,
            workers: 1,
        };
        let out = measure(
            &cfg,
            || {
                let now = Instant::now();
                ((), now..now, Tally::default())
            },
            |_, _, _, _| {
                let mut phase = Phase::new(1);
                phase.tally.attempted = 4;
                phase.tally.correct = 3;
                phase.tally.refuse();
                phase
            },
        );
        assert!(out.correct(), "{:?}", out.violations);
        // The untraced replica's refusal counts as failed too.
        assert_eq!((out.attempted, out.failed), (4, 2));
        assert_eq!(out.get("answered_share"), Some(0.75));

        let wrong = measure(
            &cfg,
            || {
                let now = Instant::now();
                ((), now..now, Tally::default())
            },
            |_, _, _, _| {
                let mut phase = Phase::new(1);
                phase.tally.attempted = 1;
                phase.tally.error("lost".into());
                phase
            },
        );
        assert!(!wrong.correct());
    }
}

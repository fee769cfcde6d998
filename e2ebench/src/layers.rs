//! Per-layer metrics of a traced window, derived from the aggregating
//! recorder's totals plus what the benchmark times around its own calls.

use std::time::Duration;

use crate::oracle::ratio;
use crate::recorder::Totals;
use crate::{metric, stats, Metric};

/// What the benchmark measured itself over the traced window.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// `FleetService::submit` calls.
    pub submits: u64,
    /// Σ submit wall time, nanoseconds.
    pub submit_ns: u64,
    /// Requests that completed.
    pub completions: u64,
    /// `run_round` calls.
    pub rounds: u64,
    /// Per answer: `rounds()` once it became visible minus `rounds()` at
    /// submit.
    pub queue_waits: Vec<f64>,
    /// Queue-full refusals.
    pub queue_full: u64,
    /// Fair-share refusals.
    pub quota_exceeded: u64,
    /// Σ wall seconds of digital-fallback attempts
    /// (`AttemptRecord::wall_time_s`; library path only).
    pub fallback_s: f64,
    /// Fleet worker threads (1 on the library path).
    pub workers: usize,
}

/// The per-layer metrics of one traced window.
///
/// `traced` is the wall time of the traced window; `overhead` is its
/// reference time over that of the same window run without the recorder.
pub fn metrics(t: &Totals, o: &Observed, traced: Duration, overhead: f64) -> Vec<Metric> {
    let c = |name: &str| t.counter(name) as f64;
    let wall_s = traced.as_secs_f64();
    let execute_ns = t.span("engine.execute").inclusive_ns as f64;

    // Recovery ladder: answers it produced (supervised solves plus batch
    // columns accepted without one) and the analog attempts behind them.
    let fallbacks = t.cg_fallbacks as f64;
    let recovery_solves = c("solver.supervised_solves") + t.batch_accepted as f64;
    let rejected = c("solver.recovery.rejected_attempts");
    let accepted = recovery_solves - fallbacks;
    let attempts = accepted + rejected;

    // Engine sweeps: `engine.runs` counts lanes, a batched sweep runs many.
    let lanes = c("engine.runs");
    let sweeps = lanes - c("engine.batch_lanes") + c("engine.batch_runs");
    let fcg = t.span("solver.krylov.fcg").calls as f64;

    vec![
        metric(
            "sched.submit.us_per_call",
            "us",
            ratio(o.submit_ns as f64 / 1e3, o.submits as f64),
        ),
        metric(
            "sched.round.calls",
            "count",
            t.span("sched.round").calls as f64,
        ),
        metric("sched.round.busy_ms", "ms", t.self_ms(&["sched.round"])),
        metric(
            "sched.completions_per_round",
            "count",
            ratio(o.completions as f64, o.rounds as f64),
        ),
        metric(
            "sched.queue_wait_rounds_p50",
            "rounds",
            stats::percentile(&o.queue_waits, 50.0).unwrap_or(0.0),
        ),
        metric(
            "sched.queue_wait_rounds_p95",
            "rounds",
            stats::percentile(&o.queue_waits, 95.0).unwrap_or(0.0),
        ),
        metric("sched.spills", "count", c("sched.spills")),
        metric("sched.requeues", "count", c("sched.requeues")),
        metric("sched.rejected.queue_full", "count", o.queue_full as f64),
        metric(
            "sched.rejected.quota_exceeded",
            "count",
            o.quota_exceeded as f64,
        ),
        metric(
            "sched.worker_utilization",
            "ratio",
            ratio(execute_ns / 1e9, wall_s * o.workers.max(1) as f64),
        ),
        metric(
            "sched.coalesce_width",
            "lanes",
            ratio(c("engine.batch_lanes"), c("engine.batch_runs")),
        ),
        metric(
            "solver.recovery.busy_ms",
            "ms",
            t.self_ms(&["solver.recovery", "solver.recovery.batch"]),
        ),
        metric(
            "solver.recovery.attempts_per_solve",
            "ratio",
            ratio(attempts, recovery_solves),
        ),
        metric(
            "solver.recovery.useful_ratio",
            "ratio",
            ratio(accepted, attempts),
        ),
        metric("solver.recovery.rejected_attempts", "count", rejected),
        metric("solver.recovery.digital_fallbacks", "count", fallbacks),
        metric("solver.recovery.fallback_ms", "ms", o.fallback_s * 1e3),
        metric(
            "solver.solve.busy_ms",
            "ms",
            t.self_ms(&["solver.solve", "solver.solve_batch"]),
        ),
        metric(
            "solver.rescales_per_solve",
            "ratio",
            ratio(
                c("solver.rescales"),
                c("solver.solves") + c("solver.batch_lanes"),
            ),
        ),
        metric("engine.overflows", "count", c("engine.overflows")),
        metric(
            "solver.krylov.busy_ms",
            "ms",
            t.self_ms(&["solver.krylov.fcg"]),
        ),
        metric(
            "solver.krylov.iterations_per_solve",
            "ratio",
            ratio(c("solver.krylov.iterations"), fcg),
        ),
        metric(
            "solver.krylov.precond_demotions",
            "count",
            c("solver.krylov.precond_demotions"),
        ),
        metric(
            "engine.execute.busy_ms",
            "ms",
            t.self_ms(&["engine.execute"]),
        ),
        metric(
            "engine.compile.busy_ms",
            "ms",
            t.self_ms(&["engine.compile"]),
        ),
        metric("engine.steps", "count", c("engine.steps")),
        metric(
            "engine.steps_per_s",
            "1/s",
            ratio(c("engine.steps"), execute_ns / 1e9),
        ),
        metric("engine.lanes_per_run", "lanes", ratio(lanes, sweeps)),
        metric(
            "engine.plans_lowered",
            "count",
            c("engine.plans_lowered") + c("engine.plans_optimized"),
        ),
        metric(
            "engine.plan_cache_hit_ratio",
            "ratio",
            ratio(c("engine.plan_cache_hits"), sweeps),
        ),
        metric("obs.trace_overhead", "ratio", overhead),
        metric(
            "obs.span_coverage",
            "ratio",
            ratio(t.root_covered_ns as f64 / 1e9, wall_s),
        ),
    ]
}

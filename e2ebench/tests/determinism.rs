//! Same seed ⇒ bit-identical deterministic metrics, at any fleet worker
//! count; another seed ⇒ every answer still passes the oracle.
//!
//! Each run covers exactly the workload's own deterministic window — the
//! one whose figures the benchmark reports — with `seconds = 0`, traced so
//! the per-layer counts are produced too.

use std::time::Duration;

use aa_e2ebench::{RunConfig, RunOutput, WORKLOADS};

/// Metrics that must repeat bit-for-bit at one seed.
const DETERMINISTIC: [&str; 8] = [
    "chip_us_per_solve",
    "chip_uj_per_solve",
    "residual_max",
    "analog_share",
    "engine.steps",
    "solver.recovery.attempts_per_solve",
    "sched.queue_wait_rounds_p50",
    "sched.queue_wait_rounds_p95",
];

fn run(workload: &str, seed: u64, workers: usize) -> RunOutput {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .expect("known workload");
    let out = (w.run)(&RunConfig {
        seed,
        seconds: Duration::ZERO,
        trace: true,
        workers,
    });
    assert!(
        out.correct(),
        "{workload} seed {seed} workers {workers}: {:?}",
        out.violations
    );
    out
}

fn assert_same(workload: &str, a: &RunOutput, b: &RunOutput, what: &str) {
    for name in DETERMINISTIC {
        let (x, y) = (a.get(name), b.get(name));
        assert!(x.is_some(), "{workload}: {name} missing");
        assert_eq!(
            x.map(f64::to_bits),
            y.map(f64::to_bits),
            "{workload} {name} differs {what}: {x:?} vs {y:?}"
        );
    }
}

fn check(workload: &str, serving: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let first = run(workload, 11, nproc);
    assert!(first.get("engine.steps").unwrap_or(0.0) > 0.0);
    assert_same(workload, &first, &run(workload, 11, nproc), "across runs");
    if serving {
        assert_same(
            workload,
            &first,
            &run(workload, 11, 1),
            "across worker counts",
        );
    }
    run(workload, 12, nproc);
}

#[test]
fn serve_mixed_is_deterministic() {
    check("serve_mixed", true);
}

#[test]
fn serve_small_is_deterministic() {
    check("serve_small", true);
}

#[test]
fn solve_ladder_is_deterministic() {
    check("solve_ladder", false);
}

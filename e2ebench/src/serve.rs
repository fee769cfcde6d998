//! The serving workloads: closed-loop clients driving `FleetService`.
//!
//! Each client keeps exactly one request outstanding. Its answer becomes
//! visible when the `run_round` that served it returns; the client then
//! submits its next request before the following round. The whole loop is
//! a deterministic function of the seed up to wall-clock time, so every
//! modelled figure is taken over a fixed window of rounds and repeats
//! bit-for-bit, at any worker count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use aa_analog::{FaultEvent, FaultKind, FaultPlan};
use aa_linalg::rng::Rng64;
use aa_linalg::CsrMatrix;
use aa_sched::{
    Completion, CompletionPath, FleetConfig, FleetService, Priority, SolveRequest, SolveTicket,
};

use crate::clock::HostClock;
use crate::gen::{rhs, stream, Deck, Problem};
use crate::oracle::{Answer, Tally};
use crate::recorder::AggregatingRecorder;
use crate::{measure, Phase, RunConfig, RunOutput, MAX_PHASE};

/// Why `serve_mixed` is in the benchmark.
pub const MIXED_WHY: &str = "The ROADMAP serving stream: four 2D Poisson structures (n = 16..64) \
with skewed popularity, 1 in 16 requests Krylov-preconditioned, mixed priorities, two weighted \
tenants and a transient fault on one chip. K-lane batched RK4, coalescing and Krylov-in-fleet do \
most of the work.";

/// Why `serve_small` is in the benchmark.
pub const SMALL_WHY: &str = "The fleet_scaling shape: 24 small tridiagonal structures (dims 4..8) \
on 2 shards under 32 clients, so per-request engine work is about 1 ms and shard serialisation, \
spills, per-(chip, structure) plan lowering and calibration show; Krylov and the recovery ladder \
do almost no work.";

/// One serving workload's fixed shape. The seed varies only the inputs:
/// right-hand sides, the order requests are dealt in and small diagonal
/// perturbations, never the mix itself.
struct Spec {
    structures: Vec<Problem>,
    /// `(structure, cards per deck pass)`.
    popularity: Vec<(usize, usize)>,
    /// Krylov-mode cards in every pass of 16 mode cards.
    krylov_per_16: usize,
    clients: usize,
    /// `(tenant, clients)`; clients not listed use the default tenant.
    /// Weights live in `config.tenant_weights`.
    tenants: Vec<(u32, usize)>,
    config: FleetConfig,
    /// Rounds of the deterministic window at the start of the timed phase.
    window_rounds: u64,
}

fn mixed_spec() -> Spec {
    let burst = FaultPlan::new(0xB17).with_event(FaultEvent::transient(
        FaultKind::AdcBitFlip { adc: 0, bit: 10 },
        0.02,
        0.01,
    ));
    let config = FleetConfig::new(4)
        .with_seed(0x5EED_F1EE7)
        .with_max_batch_rhs(4)
        .with_fault_plan(0, burst)
        .with_tenant_weight(1, 3)
        .with_tenant_weight(2, 1);
    Spec {
        structures: [4, 5, 6, 8].into_iter().map(Problem::poisson_2d).collect(),
        popularity: vec![(0, 8), (1, 4), (2, 2), (3, 2)],
        krylov_per_16: 1,
        clients: 16,
        tenants: vec![(1, 12), (2, 4)],
        config,
        window_rounds: 100,
    }
}

/// The 24 `serve_small` structures: dims cycle through 4..=8 and the
/// diagonal steps through 2.0..2.75, each with a seeded perturbation in
/// `[0, 0.05)` — tridiagonal `[-1, d, -1]` with `d ≥ 2` is SPD for any
/// seed.
pub fn small_structures(seed: u64) -> Vec<Problem> {
    let mut rng = stream(seed, 0x57);
    (0..24)
        .map(|s| {
            let diag = 2.0 + 0.25 * ((s / 5) % 4) as f64 + 0.05 * rng.uniform();
            Problem::tridiagonal(4 + s % 5, diag)
        })
        .collect()
}

fn small_spec(seed: u64) -> Spec {
    let mut popularity = vec![(0, 8), (1, 4)];
    popularity.extend((2..24).map(|s| (s, 1)));
    let config = FleetConfig::new(4)
        .with_seed(0x5CA1E)
        .with_shards(2)
        .with_max_batch_rhs(4)
        .with_spill_watermark(8);
    Spec {
        structures: small_structures(seed),
        popularity,
        krylov_per_16: 0,
        clients: 32,
        tenants: Vec::new(),
        config,
        window_rounds: 1500,
    }
}

/// Runs `serve_mixed`.
pub fn run_mixed(cfg: &RunConfig) -> RunOutput {
    run(mixed_spec(), cfg)
}

/// Runs `serve_small`.
pub fn run_small(cfg: &RunConfig) -> RunOutput {
    run(small_spec(cfg.seed), cfg)
}

/// Deals the seeded request stream.
struct Requests {
    structures: Deck<usize>,
    krylov: Deck<bool>,
    priorities: Deck<Priority>,
    rhs: Rng64,
}

impl Requests {
    fn new(spec: &Spec, seed: u64) -> Self {
        Requests {
            structures: Deck::new(&spec.popularity, stream(seed, 1)),
            krylov: Deck::new(
                &[(true, spec.krylov_per_16), (false, 16 - spec.krylov_per_16)],
                stream(seed, 2),
            ),
            priorities: Deck::new(
                &[
                    (Priority::High, 2),
                    (Priority::Normal, 5),
                    (Priority::Low, 3),
                ],
                stream(seed, 3),
            ),
            rhs: stream(seed, 4),
        }
    }
}

/// A request the benchmark is waiting on, with its own copy of `b`.
struct Outstanding {
    client: usize,
    structure: usize,
    rhs: Vec<f64>,
    krylov: bool,
    start: Instant,
    submit_round: u64,
}

/// The tolerance each completion path promises.
fn contract(config: &FleetConfig, path: CompletionPath, krylov: bool) -> f64 {
    if krylov {
        // FCG runs to the digital lanes' tolerance; a loop that fails falls
        // back to the digital lane itself.
        return config.fallback_tolerance;
    }
    match path {
        CompletionPath::Analog | CompletionPath::AnalogAfterRecovery => {
            config.recovery.residual_tolerance
        }
        // The supervisor's CG fallback, or the chip-local digital lane.
        CompletionPath::DigitalFallback => config
            .recovery
            .fallback_tolerance
            .max(config.fallback_tolerance),
        CompletionPath::DeadlineFallback | CompletionPath::DigitalOnly => config.fallback_tolerance,
    }
}

fn judge(spec: &Spec, tally: &mut Tally, c: &Completion, b: &[f64], krylov: bool) -> bool {
    let what = format!(
        "ticket {} (structure {}, {}{})",
        c.ticket.0,
        c.structure,
        c.path.label(),
        if krylov { ", krylov" } else { "" }
    );
    tally.answer(
        &spec.structures[c.structure],
        b,
        Answer {
            solution: &c.solution,
            tolerance: contract(&spec.config, c.path, krylov),
            analog: c.path.is_analog(),
            chip_s: c.analog_time_s,
            energy_j: c.energy_j,
            what: &what,
        },
    )
}

/// Builds the fleet and serves one warm-up request per structure, which
/// lowers plans and runs γ-calibration on the chips they land on.
fn set_up(
    spec: &Spec,
    csr: &[CsrMatrix],
    workers: usize,
    seed: u64,
) -> (FleetService, Range<Instant>, Tally) {
    let config = spec.config.clone().with_workers(workers);
    let structures = csr.to_vec();
    let mut warm = stream(seed, 0x3A);
    let warmups: Vec<Vec<f64>> = spec
        .structures
        .iter()
        .map(|p| rhs(&mut warm, p.dim()))
        .collect();
    let start = Instant::now();
    let mut fleet = FleetService::new(config, structures).expect("benchmark fleet config is valid");
    let tickets: Vec<Result<SolveTicket, _>> = warmups
        .iter()
        .enumerate()
        .map(|(s, b)| fleet.submit(SolveRequest::new(s, b.clone())))
        .collect();
    fleet.run_until_idle();
    let span = start..Instant::now();
    let mut tally = Tally::default();
    for (b, ticket) in warmups.iter().zip(tickets) {
        match ticket.map(|t| fleet.completion(t)) {
            Ok(Some(c)) => {
                judge(spec, &mut tally, c, b, false);
            }
            Ok(None) => tally.error("warm-up ticket never completed".into()),
            // Set-up must serve every structure once; a refusal breaks it.
            Err(r) => tally.error(format!("warm-up refused: {r}")),
        }
    }
    (fleet, span, tally)
}

/// Runs the closed loop: at least the deterministic window, then until
/// `seconds` have passed; then drains what is still outstanding. Samples
/// the host clock between rounds, at its cadence.
fn drive(
    spec: &Spec,
    fleet: &mut FleetService,
    seed: u64,
    seconds: Duration,
    recorder: Option<&AggregatingRecorder>,
    clock: &mut HostClock,
) -> Phase {
    let mut requests = Requests::new(spec, seed);
    let tenant_of: Vec<u32> = spec
        .tenants
        .iter()
        .flat_map(|&(tenant, clients)| std::iter::repeat_n(tenant, clients))
        .chain(std::iter::repeat(0))
        .take(spec.clients)
        .collect();
    let mut idle: Vec<usize> = (0..spec.clients).collect();
    let mut outstanding: BTreeMap<u64, Outstanding> = BTreeMap::new();
    let settled_before = fleet.completions().count() as u64;
    let mut admitted = 0u64;
    let mut served = 0u64;
    let mut round = 0u64;
    clock.sample();
    let mut phase = Phase::new(fleet.config().effective_workers());
    loop {
        let in_window = round < spec.window_rounds;
        let elapsed = phase.started.elapsed();
        let taking = in_window || (elapsed < seconds && elapsed < MAX_PHASE);
        if taking {
            for client in std::mem::take(&mut idle) {
                let structure = requests.structures.deal();
                let krylov = requests.krylov.deal();
                let priority = requests.priorities.deal();
                let b = rhs(&mut requests.rhs, spec.structures[structure].dim());
                let mut request = SolveRequest::new(structure, b.clone())
                    .with_priority(priority)
                    .with_tenant(tenant_of[client]);
                if krylov {
                    request = request.with_krylov();
                }
                let submit_round = fleet.rounds();
                let t0 = Instant::now();
                let verdict = fleet.submit(request);
                let submit_ns = t0.elapsed().as_nanos() as u64;
                phase.tally.attempted += 1;
                if in_window {
                    phase.observed.submits += 1;
                    phase.observed.submit_ns += submit_ns;
                }
                match verdict {
                    Ok(ticket) => {
                        admitted += 1;
                        outstanding.insert(
                            ticket.0,
                            Outstanding {
                                client,
                                structure,
                                rhs: b,
                                krylov,
                                start: t0,
                                submit_round,
                            },
                        );
                    }
                    Err(rejection) => {
                        if in_window {
                            match rejection.label() {
                                "queue_full" => phase.observed.queue_full += 1,
                                "quota_exceeded" => phase.observed.quota_exceeded += 1,
                                _ => {}
                            }
                        }
                        phase.tally.refuse();
                        // A refused client retries after the next round.
                        idle.push(client);
                    }
                }
            }
        }
        // Refused clients wait for the next round while work is taken.
        if outstanding.is_empty() && !taking {
            break;
        }
        let completed = fleet.run_round() as u64;
        let visible_at = Instant::now();
        served += completed;
        round += 1;
        let mut starts = Vec::new();
        let done: Vec<u64> = outstanding
            .keys()
            .copied()
            .filter(|&t| fleet.completion(SolveTicket(t)).is_some())
            .collect();
        for ticket in done {
            let o = outstanding.remove(&ticket).expect("listed above");
            let c = fleet.completion(SolveTicket(ticket)).expect("listed above");
            if c.structure != o.structure {
                phase
                    .tally
                    .error(format!("ticket {ticket} answered the wrong structure"));
            } else {
                judge(spec, &mut phase.tally, c, &o.rhs, o.krylov);
            }
            if round <= spec.window_rounds {
                phase
                    .observed
                    .queue_waits
                    .push((fleet.rounds() - o.submit_round) as f64);
            }
            starts.push(o.start);
            idle.push(o.client);
        }
        idle.sort_unstable();
        phase.latencies.stamp(visible_at, starts);
        if completed == 0 && fleet.queue_depth() == 0 && !outstanding.is_empty() {
            for (ticket, _) in std::mem::take(&mut outstanding) {
                phase
                    .tally
                    .error(format!("ticket {ticket} was admitted but never served"));
            }
            break;
        }
        if round == spec.window_rounds {
            phase.observed.rounds = round;
            phase.close_window(recorder);
        }
        clock.sample_if_due();
    }
    phase.close();
    if round < spec.window_rounds {
        // Only reached when tickets went missing; the run already fails.
        phase.observed.rounds = round;
        phase.close_window(recorder);
    }
    // Every admitted ticket completes exactly once: the rounds' completion
    // counts, the settled set and the benchmark's own count must agree.
    let settled = fleet.completions().count() as u64 - settled_before;
    if settled != admitted || served != admitted {
        phase.tally.error(format!(
            "{admitted} admitted, {served} reported served, {settled} settled"
        ));
    }
    phase.notes.push(format!(
        "deterministic window: {} rounds, {} answers",
        phase.observed.rounds,
        phase.window.answers()
    ));
    phase
}

fn run(spec: Spec, cfg: &RunConfig) -> RunOutput {
    let csr: Vec<CsrMatrix> = spec.structures.iter().map(Problem::to_csr).collect();
    measure(
        cfg,
        || set_up(&spec, &csr, cfg.workers, cfg.seed),
        |fleet, seconds, recorder, clock| drive(&spec, fleet, cfg.seed, seconds, recorder, clock),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_answer_is_visible_only_once_its_round_returns() {
        let a = Problem::tridiagonal(4, 2.0).to_csr();
        let mut fleet = FleetService::new(FleetConfig::new(1), vec![a]).expect("valid fleet");
        let submitted_at = fleet.rounds();
        let ticket = fleet
            .submit(SolveRequest::new(0, vec![1.0; 4]))
            .expect("admitted");
        assert!(
            fleet.completion(ticket).is_none(),
            "nothing is served at submit"
        );
        assert_eq!(fleet.run_round(), 1);
        let c = fleet
            .completion(ticket)
            .expect("visible when the round returns");
        assert_eq!(c.round, fleet.rounds());
        assert_eq!(
            fleet.rounds() - submitted_at,
            1,
            "served in its first round"
        );
    }

    #[test]
    fn every_path_has_a_contract_no_looser_than_its_promise() {
        let config = mixed_spec().config;
        let analog = contract(&config, CompletionPath::Analog, false);
        assert_eq!(analog, config.recovery.residual_tolerance);
        for path in [
            CompletionPath::DigitalFallback,
            CompletionPath::DeadlineFallback,
            CompletionPath::DigitalOnly,
        ] {
            assert!(contract(&config, path, false) < analog);
            assert_eq!(contract(&config, path, true), config.fallback_tolerance);
        }
    }
}

//! The compiled engine's execution tape: typed plan IR, scheduling, and
//! the lane evaluator every [`EvalStrategy::Compiled`] run goes through.
//!
//! [`IrGraph::lower`] turns the engine's reference circuit into a typed op
//! graph with owned, mutable input-slot lists, so the passes in
//! [`crate::passes`] can rewrite it. [`IrGraph::schedule`] then regroups
//! the surviving ops by `(dependency level, op kind)` into per-kind op
//! arrays: the RK4 inner loop dispatches **once per segment** instead of
//! once per op, sweeping homogeneous runs of
//! multiplies, MACs, fanouts, LUTs, and sinks. [`TapeRun`] executes the
//! scheduled [`Tape`] for K lanes at once; a sequential run is the
//! one-lane case of the same sweep.
//!
//! Under `PassConfig::none()` the tape is pure restructuring: every
//! floating-point operation keeps the exact order and association of the
//! reference evaluator, and scheduling only reorders independent ops
//! within one dependency level, so runs are **bit-identical** to
//! [`EvalStrategy::Reference`] (the differential property tests in
//! `tests/properties.rs` assert this across random netlists, process
//! variation, and active fault plans). Runs with an armed fault plan always
//! lower under `none()`, and [`TapeRun`] applies the per-unit fault
//! adjustments exactly where the reference evaluator does. The
//! tolerance contract for enabled passes is documented in
//! [`crate::passes`]: `fold_constants`, `cse`, and `dce` preserve solution
//! values bit for bit (they only skip redundant stores), while
//! `fuse_gain_chains` reassociates the affine arithmetic and elides the
//! intermediate clip, so fused tapes match the reference within a relative
//! error bound rather than exactly. Ops eliminated by any pass report zero
//! range usage and never latch exceptions.
//!
//! [`EvalStrategy::Compiled`]: crate::engine::EvalStrategy::Compiled
//! [`EvalStrategy::Reference`]: crate::engine::EvalStrategy::Reference

use std::collections::BTreeMap;

use crate::chip::InputSignal;
use crate::engine::{Compiled, LaneEvaluator, Tracker};
use crate::fault::FaultPlan;
use crate::lut::LookupTable;
use crate::netlist::{InputPort, OutputPort};
use crate::nonideal::BlockImperfection;
use crate::passes::{run_pipeline, PassConfig, PassStat};
use crate::units::UnitId;

/// A block's transfer imperfection with the trim-DAC conversions done ahead
/// of time. `apply` reproduces [`BlockImperfection::apply`] bit for bit:
/// the reference computes `((x·f1)·f2 + o1) + o2` with these exact
/// sub-expressions, so precomputing them cannot change a single ulp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Imp {
    pub(crate) f1: f64,
    pub(crate) f2: f64,
    pub(crate) o1: f64,
    pub(crate) o2: f64,
}

impl Imp {
    pub(crate) fn lower(b: &BlockImperfection) -> Self {
        Imp {
            f1: 1.0 + b.gain_error,
            f2: 1.0 + b.gain_trim_value(),
            o1: b.offset,
            o2: b.offset_trim_value(),
        }
    }

    #[inline]
    pub(crate) fn apply(&self, ideal: f64) -> f64 {
        ((ideal * self.f1) * self.f2 + self.o1) + self.o2
    }

    /// The affine coefficient `f1·f2` — what `apply` multiplies by, up to
    /// reassociation. Used by gain-chain fusion, which accepts the
    /// documented reassociation tolerance.
    pub(crate) fn coefficient(&self) -> f64 {
        self.f1 * self.f2
    }

    /// The affine constant `o1 + o2` — what `apply` adds, up to
    /// reassociation.
    pub(crate) fn constant(&self) -> f64 {
        self.o1 + self.o2
    }

    /// Whether `apply` is exactly the identity (an ideal, untrimmed block).
    pub(crate) fn is_identity(&self) -> bool {
        self.f1 == 1.0 && self.f2 == 1.0 && self.o1 == 0.0 && self.o2 == 0.0
    }

    /// Bit-exact fingerprint, for structural value-numbering in CSE.
    pub(crate) fn bits(&self) -> [u64; 4] {
        [
            self.f1.to_bits(),
            self.f2.to_bits(),
            self.o1.to_bits(),
            self.o2.to_bits(),
        ]
    }
}

/// A consumer's driver list: a `(start, end)` range into
/// [`Tape::driver_slots`]. An unconnected port is the empty range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriverRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// One integrator output: state slot `i` feeds output slot `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntSource {
    pub(crate) unit: UnitId,
    pub(crate) imp: Imp,
    pub(crate) out: u32,
}

/// One DAC output. The programmed constant is **not** baked in — DACs are
/// reprogrammed on every solve without invalidating the plan cache, so
/// [`TapeRun`] fetches the value per lane at bind time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DacSource {
    pub(crate) unit: UnitId,
    /// DAC register index, for the per-run value fetch.
    pub(crate) dac: usize,
    pub(crate) imp: Imp,
    pub(crate) out: u32,
}

/// One external analog input. Whether the channel is enabled and which
/// stimulus is attached are per-run state (resolved by [`TapeRun`]); only
/// the channel index and output slot are structural.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputSource {
    pub(crate) unit: UnitId,
    /// Analog-input channel index, for the per-run signal lookup.
    pub(crate) channel: usize,
    pub(crate) out: u32,
}

/// One memoryless op's kind and kind-specific payload. Input/output slots
/// live on [`IrNode`] so the passes rewrite them uniformly.
pub(crate) enum IrKind {
    /// Multiplier in gain mode: `clip(imp(gain · Σin0))`.
    MulGain { unit: UnitId, gain: f64, imp: Imp },
    /// Fused multiply-accumulate: `clip(a · Σin0 + b)` — produced by
    /// `fuse_gain_chains`, never by lowering.
    Mac { unit: UnitId, a: f64, b: f64 },
    /// Multiplier in variable mode: `clip(imp(Σin0 · Σin1 / fs))`.
    MulVar { unit: UnitId, imp: Imp },
    /// Fanout: one imperfection application, one clipped store per branch.
    Fanout {
        unit: UnitId,
        imp: Imp,
        branches: u32,
    },
    /// Lookup table (owned contents: LUT writes bump the plan epoch, so a
    /// cached tape never sees stale entries).
    Lut { unit: UnitId, lut: LookupTable },
    /// ADC / analog-output sink: clip the summed input into the sink slot.
    Sink,
}

/// One op graph node, in the netlist's topological order.
pub(crate) struct IrNode {
    pub(crate) kind: IrKind,
    /// Primary input's driver slots (every kind).
    pub(crate) in0: Vec<u32>,
    /// Secondary input's driver slots (`MulVar` only, empty otherwise).
    pub(crate) in1: Vec<u32>,
    /// Output slot (`Fanout`: first branch slot, branches contiguous).
    pub(crate) out: u32,
    /// Cleared instead of removing the node, so slot numbering and topo
    /// order stay stable across passes.
    pub(crate) live: bool,
}

/// The typed op graph the pass pipeline rewrites. Lowered per committed
/// netlist, consumed by [`IrGraph::schedule`] into an [`Tape`].
pub(crate) struct IrGraph {
    full_scale: f64,
    omega: f64,
    /// Largest programmable multiplier gain magnitude
    /// ([`crate::ChipConfig::max_gain`]) — the limit `normalize_gains`
    /// rescales fused coefficients back inside.
    max_gain: f64,
    n_slots: usize,
    int_sources: Vec<IntSource>,
    /// DAC sources still fetched per run (before `fold_constants`).
    dac_sources: Vec<DacSource>,
    /// DAC sources folded to per-run constants: written once at bind, not
    /// once per RK4 stage.
    const_dacs: Vec<DacSource>,
    input_sources: Vec<InputSource>,
    nodes: Vec<IrNode>,
    derivs: Vec<Vec<u32>>,
}

impl IrGraph {
    /// Lowers the reference circuit into the typed op graph: one node per
    /// memoryless unit in the netlist's topological order, with every
    /// value the reference evaluator would fetch per eval resolved once
    /// (multiplier gains, lookup-table contents, imperfection factors).
    /// Only reads of committed registers that change behind a plan-epoch
    /// bump are resolved early; DAC constants and input signals stay
    /// per-run state, bound by [`TapeRun::bind`].
    pub(crate) fn lower(c: &Compiled<'_>) -> Self {
        let slots_of = |port: InputPort| -> Vec<u32> {
            c.structure
                .drivers
                .get(&port)
                .map(|s| s.iter().map(|&x| x as u32).collect())
                .unwrap_or_default()
        };

        let int_sources: Vec<IntSource> = c
            .structure
            .integrator_of_state
            .iter()
            .map(|&i| {
                let unit = UnitId::Integrator(i);
                IntSource {
                    unit,
                    imp: Imp::lower(c.variation.of(unit)),
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let dac_sources: Vec<DacSource> = c
            .structure
            .dacs
            .iter()
            .map(|&i| {
                let unit = UnitId::Dac(i);
                DacSource {
                    unit,
                    dac: i,
                    imp: Imp::lower(c.variation.of(unit)),
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let input_sources: Vec<InputSource> = c
            .structure
            .analog_inputs
            .iter()
            .map(|&i| {
                let unit = UnitId::AnalogInput(i);
                InputSource {
                    unit,
                    channel: i,
                    out: c.slot(OutputPort::of(unit)) as u32,
                }
            })
            .collect();

        let mut nodes: Vec<IrNode> = Vec::with_capacity(c.structure.topo.len());
        for &unit in &c.structure.topo {
            match unit {
                UnitId::Multiplier(i) => {
                    let imp = Imp::lower(c.variation.of(unit));
                    let in0 = slots_of(InputPort { unit, port: 0 });
                    let out = c.slot(OutputPort::of(unit)) as u32;
                    match c.registers.mul_gains.get(&i) {
                        Some(&gain) => nodes.push(IrNode {
                            kind: IrKind::MulGain { unit, gain, imp },
                            in0,
                            in1: Vec::new(),
                            out,
                            live: true,
                        }),
                        None => nodes.push(IrNode {
                            kind: IrKind::MulVar { unit, imp },
                            in0,
                            in1: slots_of(InputPort { unit, port: 1 }),
                            out,
                            live: true,
                        }),
                    }
                }
                UnitId::Fanout(_) => nodes.push(IrNode {
                    kind: IrKind::Fanout {
                        unit,
                        imp: Imp::lower(c.variation.of(unit)),
                        branches: c.config.inventory.fanout_branches as u32,
                    },
                    in0: slots_of(InputPort::of(unit)),
                    in1: Vec::new(),
                    out: c.slot(OutputPort { unit, port: 0 }) as u32,
                    live: true,
                }),
                UnitId::Lut(i) => nodes.push(IrNode {
                    kind: IrKind::Lut {
                        unit,
                        lut: c
                            .registers
                            .luts
                            .get(&i)
                            .unwrap_or(&c.structure.default_lut)
                            .clone(),
                    },
                    in0: slots_of(InputPort::of(unit)),
                    in1: Vec::new(),
                    out: c.slot(OutputPort::of(unit)) as u32,
                    live: true,
                }),
                UnitId::Adc(_) | UnitId::AnalogOutput(_) => nodes.push(IrNode {
                    kind: IrKind::Sink,
                    in0: slots_of(InputPort::of(unit)),
                    in1: Vec::new(),
                    out: c.sink_slot(unit) as u32,
                    live: true,
                }),
                UnitId::Integrator(_) | UnitId::Dac(_) | UnitId::AnalogInput(_) => {
                    unreachable!("stateful/source units are not in the memoryless order")
                }
            }
        }

        let derivs: Vec<Vec<u32>> = c
            .structure
            .integrator_of_state
            .iter()
            .map(|&i| slots_of(InputPort::of(UnitId::Integrator(i))))
            .collect();

        IrGraph {
            full_scale: c.config.full_scale,
            omega: c.config.omega(),
            max_gain: c.config.max_gain,
            n_slots: c.structure.slot_index.len(),
            int_sources,
            dac_sources,
            const_dacs: Vec::new(),
            input_sources,
            nodes,
            derivs,
        }
    }

    /// The pass-statistics metric: output stores per circuit evaluation —
    /// one per (non-folded) source, one per live op output slot, a fanout
    /// counting once per branch. Folded DAC constants are excluded: they
    /// are written once per run, not once per eval.
    pub(crate) fn ops_per_eval(&self) -> u64 {
        let ops: u64 = self
            .nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| match &n.kind {
                IrKind::Fanout { branches, .. } => *branches as u64,
                _ => 1,
            })
            .sum();
        (self.int_sources.len() + self.dac_sources.len() + self.input_sources.len()) as u64 + ops
    }

    /// `fold_constants`: DAC registers only change between runs (reprogram
    /// happens before `execStart`), so every DAC source becomes a per-run
    /// constant — its imperfection-applied value computed once at bind time.
    /// Bit-exact: the same `imp.apply(value)` arithmetic runs, just once.
    pub(crate) fn fold_constants(&mut self) {
        self.const_dacs.append(&mut self.dac_sources);
    }

    /// `cse`: value-numbers structurally identical multiplier ops into one,
    /// and collapses multi-branch fanouts (every branch carries the same
    /// clipped value) to a single branch, re-pointing consumers at the
    /// canonical slot. Bit-exact for solution values: deduped slots simply
    /// stop being written, and their owners report zero range usage.
    pub(crate) fn cse(&mut self) {
        let mut subst: Vec<u32> = (0..self.n_slots as u32).collect();
        let mut seen: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
        for node in &mut self.nodes {
            if !node.live {
                continue;
            }
            // Producers precede consumers in topo order, so applying the
            // substitution at read time resolves every chain in one walk.
            for s in node.in0.iter_mut() {
                *s = subst[*s as usize];
            }
            for s in node.in1.iter_mut() {
                *s = subst[*s as usize];
            }
            let mut dead = false;
            match &mut node.kind {
                IrKind::Fanout { branches, .. } if *branches > 1 => {
                    for p in 1..*branches {
                        subst[(node.out + p) as usize] = node.out;
                    }
                    *branches = 1;
                }
                IrKind::MulGain { gain, imp, .. } => {
                    let mut key = vec![0u64, gain.to_bits()];
                    key.extend(imp.bits());
                    key.extend(node.in0.iter().map(|&s| s as u64));
                    match seen.get(&key) {
                        Some(&canon) => {
                            subst[node.out as usize] = canon;
                            dead = true;
                        }
                        None => {
                            seen.insert(key, node.out);
                        }
                    }
                }
                IrKind::MulVar { imp, .. } => {
                    let mut key = vec![1u64];
                    key.extend(imp.bits());
                    key.extend(node.in0.iter().map(|&s| s as u64));
                    key.push(u64::MAX);
                    key.extend(node.in1.iter().map(|&s| s as u64));
                    match seen.get(&key) {
                        Some(&canon) => {
                            subst[node.out as usize] = canon;
                            dead = true;
                        }
                        None => {
                            seen.insert(key, node.out);
                        }
                    }
                }
                _ => {}
            }
            if dead {
                node.live = false;
            }
        }
        for d in self.derivs.iter_mut() {
            for s in d.iter_mut() {
                *s = subst[*s as usize];
            }
        }
    }

    /// `fuse_gain_chains`: a gain multiplier whose single input is the sole
    /// consumption of another gain multiplier (or an already-fused MAC)
    /// fuses into one `Mac`, multiplying the affine coefficients through
    /// and eliding the intermediate clip. This is the one pass that
    /// reassociates floats — the source of the documented tolerance.
    pub(crate) fn fuse_gain_chains(&mut self) {
        // Static consumer counts are sound here: fusion only ever drops a
        // slot's count from one to zero, never from two to one.
        let mut consumers = vec![0u32; self.n_slots];
        for node in self.nodes.iter().filter(|n| n.live) {
            for &s in node.in0.iter().chain(&node.in1) {
                consumers[s as usize] += 1;
            }
        }
        for d in &self.derivs {
            for &s in d {
                consumers[s as usize] += 1;
            }
        }
        let mut producer: Vec<Option<usize>> = vec![None; self.n_slots];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.live && matches!(node.kind, IrKind::MulGain { .. }) {
                producer[node.out as usize] = Some(idx);
            }
        }
        // Forward topo walk: once a consumer fuses and becomes a Mac, its
        // own producer-map entry stays valid, so chains of three or more
        // collapse link by link.
        for j in 0..self.nodes.len() {
            let (s, k_j, c_j, unit_j) = match &self.nodes[j] {
                IrNode {
                    live: true,
                    kind: IrKind::MulGain { unit, gain, imp },
                    in0,
                    ..
                } if in0.len() == 1 => (
                    in0[0] as usize,
                    gain * imp.coefficient(),
                    imp.constant(),
                    *unit,
                ),
                _ => continue,
            };
            if consumers[s] != 1 {
                continue;
            }
            let Some(i) = producer[s] else { continue };
            if !self.nodes[i].live {
                continue;
            }
            let (k_i, c_i) = match &self.nodes[i].kind {
                IrKind::MulGain { gain, imp, .. } => (gain * imp.coefficient(), imp.constant()),
                IrKind::Mac { a, b, .. } => (*a, *b),
                _ => continue,
            };
            // j(i(x)) = k_j·(k_i·x + c_i) + c_j, standalone gains stay exact.
            let a = k_j * k_i;
            let b = k_j * c_i + c_j;
            let inherited = std::mem::take(&mut self.nodes[i].in0);
            self.nodes[i].live = false;
            producer[s] = None;
            consumers[s] = 0;
            let node_j = &mut self.nodes[j];
            node_j.kind = IrKind::Mac { unit: unit_j, a, b };
            node_j.in0 = inherited;
        }
    }

    /// `normalize_gains`: peels any fused multiply-accumulate whose
    /// coefficient magnitude exceeds the hardware gain limit
    /// ([`crate::ChipConfig::max_gain`]) into a chain of stages each
    /// within the limit. Fusion multiplies affine coefficients through, so
    /// a chain of individually programmable multipliers can fuse into a
    /// coefficient no real multiplier could be set to; this pass restores
    /// hardware realizability at the cost of one store per extra stage
    /// (the only pass that can *raise* the op count). Each peeled prefix
    /// stage is a pure `±max_gain` multiply into a fresh scratch slot; the
    /// surviving node keeps the affine constant, so
    /// `residual·(g·…·(g·x)) + b` recomposes `a·x + b` exactly when
    /// `max_gain` is a power of two and within one rounding per stage
    /// otherwise — inside the documented pass tolerance. Stage gains all
    /// exceed unity (the residual lands in `(1, max_gain]`), so partial
    /// products grow monotonically and a peeled chain never saturates at
    /// an intermediate stage unless its fused output would have clipped
    /// too. Skipped when `max_gain ≤ 1`: no chain of within-limit stages
    /// can then reach a product above the limit.
    pub(crate) fn normalize_gains(&mut self) {
        let mg = self.max_gain;
        if mg <= 1.0 {
            return;
        }
        let mut rewritten: Vec<IrNode> = Vec::with_capacity(self.nodes.len());
        for mut node in std::mem::take(&mut self.nodes) {
            let split = match &node.kind {
                IrKind::Mac { a, .. } => node.live && a.is_finite() && a.abs() > mg,
                _ => false,
            };
            if !split {
                rewritten.push(node);
                continue;
            }
            let IrKind::Mac { unit, a, b } = node.kind else {
                unreachable!("matched above");
            };
            // Peel `max_gain` prefix stages until the residual coefficient
            // is programmable; each prefix writes a fresh slot the next
            // stage reads, so topo order holds by construction.
            let mut residual = a;
            let mut in0 = std::mem::take(&mut node.in0);
            while residual.abs() > mg {
                residual /= mg;
                let out = self.n_slots as u32;
                self.n_slots += 1;
                rewritten.push(IrNode {
                    kind: IrKind::Mac {
                        unit,
                        a: mg,
                        b: 0.0,
                    },
                    in0,
                    in1: Vec::new(),
                    out,
                    live: true,
                });
                in0 = vec![out];
            }
            node.kind = IrKind::Mac {
                unit,
                a: residual,
                b,
            };
            node.in0 = in0;
            rewritten.push(node);
        }
        self.nodes = rewritten;
    }

    /// `dce`: removes ops whose outputs reach neither an integrator input
    /// nor a sink (ADC / analog output). Sinks are the observables, so they
    /// always survive; sources always survive (integrator outputs carry the
    /// state, DACs/inputs are cheap and may feed eliminated consumers whose
    /// range records the report still omits either way).
    pub(crate) fn dce(&mut self) {
        let mut needed = vec![false; self.n_slots];
        for d in &self.derivs {
            for &s in d {
                needed[s as usize] = true;
            }
        }
        for idx in (0..self.nodes.len()).rev() {
            let keep = {
                let node = &self.nodes[idx];
                if !node.live {
                    continue;
                }
                match &node.kind {
                    IrKind::Sink => true,
                    IrKind::Fanout { branches, .. } => {
                        (0..*branches).any(|p| needed[(node.out + p) as usize])
                    }
                    _ => needed[node.out as usize],
                }
            };
            if keep {
                let node = &self.nodes[idx];
                for &s in node.in0.iter().chain(&node.in1) {
                    needed[s as usize] = true;
                }
            } else {
                self.nodes[idx].live = false;
            }
        }
    }

    /// Groups the surviving ops into the op-kind tape: nodes are stably
    /// sorted by `(dependency level, kind rank)` — level ordering preserves
    /// every producer-before-consumer constraint, kind ranking within a
    /// level maximizes homogeneous run length — then packed into per-kind
    /// op arrays with maximal same-kind segments.
    pub(crate) fn schedule(self, pass_log: Vec<PassStat>, ops_before: u64) -> Tape {
        let ops_after = self.ops_per_eval();
        let mut level = vec![0u32; self.n_slots];
        let mut order: Vec<(u32, u8, usize)> = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if !node.live {
                continue;
            }
            let lv = 1 + node
                .in0
                .iter()
                .chain(&node.in1)
                .map(|&s| level[s as usize])
                .max()
                .unwrap_or(0);
            let (rank, outs) = match &node.kind {
                IrKind::MulGain { .. } => (0u8, 1),
                IrKind::Mac { .. } => (1, 1),
                IrKind::MulVar { .. } => (2, 1),
                IrKind::Fanout { branches, .. } => (3, *branches),
                IrKind::Lut { .. } => (4, 1),
                IrKind::Sink => (5, 1),
            };
            for p in 0..outs {
                level[(node.out + p) as usize] = lv;
            }
            order.push((lv, rank, idx));
        }
        order.sort_by_key(|&(lv, rank, _)| (lv, rank));

        fn push_range(driver_slots: &mut Vec<u32>, slots: &[u32]) -> DriverRange {
            let start = driver_slots.len() as u32;
            driver_slots.extend_from_slice(slots);
            DriverRange {
                start,
                end: driver_slots.len() as u32,
            }
        }

        let mut driver_slots: Vec<u32> = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut mulgain = Vec::new();
        let mut mac = Vec::new();
        let mut mulvar = Vec::new();
        let mut fanout = Vec::new();
        let mut lut_ops = Vec::new();
        let mut sink = Vec::new();

        for &(_, _, idx) in &order {
            let node = &self.nodes[idx];
            let in0 = push_range(&mut driver_slots, &node.in0);
            let out = node.out;
            let (kind, pos) = match &node.kind {
                &IrKind::MulGain { unit, gain, imp } => {
                    mulgain.push(MulGainOp {
                        unit,
                        gain,
                        imp,
                        in0,
                        out,
                    });
                    (SegKind::MulGain, mulgain.len())
                }
                &IrKind::Mac { unit, a, b } => {
                    mac.push(MacOp {
                        unit,
                        a,
                        b,
                        in0,
                        out,
                    });
                    (SegKind::Mac, mac.len())
                }
                &IrKind::MulVar { unit, imp } => {
                    let in1 = push_range(&mut driver_slots, &node.in1);
                    mulvar.push(MulVarOp {
                        unit,
                        imp,
                        in0,
                        in1,
                        out,
                    });
                    (SegKind::MulVar, mulvar.len())
                }
                &IrKind::Fanout {
                    unit,
                    imp,
                    branches,
                } => {
                    fanout.push(FanoutOp {
                        unit,
                        imp,
                        in0,
                        out0: out,
                        branches,
                    });
                    (SegKind::Fanout, fanout.len())
                }
                IrKind::Lut { unit, lut } => {
                    lut_ops.push(LutOp {
                        unit: *unit,
                        lut: lut.clone(),
                        in0,
                        out,
                    });
                    (SegKind::Lut, lut_ops.len())
                }
                IrKind::Sink => {
                    sink.push(SinkOp { in0, out });
                    (SegKind::Sink, sink.len())
                }
            };
            let pos = pos as u32;
            match segments.last_mut() {
                Some(seg) if seg.kind == kind => seg.end = pos,
                _ => segments.push(Segment {
                    kind,
                    start: pos - 1,
                    end: pos,
                }),
            }
        }

        let derivs: Vec<DriverRange> = self
            .derivs
            .iter()
            .map(|d| push_range(&mut driver_slots, d))
            .collect();

        Tape {
            full_scale: self.full_scale,
            omega: self.omega,
            n_slots: self.n_slots,
            driver_slots,
            int_sources: self.int_sources,
            dac_sources: self.dac_sources,
            const_dacs: self.const_dacs,
            input_sources: self.input_sources,
            segments,
            mulgain,
            mac,
            mulvar,
            fanout,
            lut: lut_ops,
            sink,
            derivs,
            pass_log,
            ops_before,
            ops_after,
        }
    }
}

/// Lowers the reference circuit through the IR and the pass pipeline into
/// the scheduled tape. Under [`PassConfig::none`] no pass runs and the
/// tape is the bit-exact compiled form of the reference circuit.
pub(crate) fn lower_tape(c: &Compiled<'_>, cfg: &PassConfig) -> Tape {
    let mut graph = IrGraph::lower(c);
    let ops_before = graph.ops_per_eval();
    let pass_log = run_pipeline(&mut graph, cfg);
    graph.schedule(pass_log, ops_before)
}

/// Which lane-array family a [`Segment`] indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegKind {
    MulGain,
    Mac,
    MulVar,
    Fanout,
    Lut,
    Sink,
}

impl SegKind {
    fn name(self) -> &'static str {
        match self {
            SegKind::MulGain => "mul.gain",
            SegKind::Mac => "mac",
            SegKind::MulVar => "mul.var",
            SegKind::Fanout => "fanout",
            SegKind::Lut => "lut",
            SegKind::Sink => "sink",
        }
    }
}

/// A maximal run of same-kind ops: `start..end` indexes into that kind's
/// op array.
pub(crate) struct Segment {
    kind: SegKind,
    start: u32,
    end: u32,
}

/// A gain-mode multiplier on the tape: `clip(imp(gain · Σin0))`.
struct MulGainOp {
    unit: UnitId,
    gain: f64,
    imp: Imp,
    in0: DriverRange,
    out: u32,
}

/// A fused multiply-accumulate: `clip(a · Σin0 + b)` (unit label: the
/// surviving downstream multiplier of the fused chain).
struct MacOp {
    unit: UnitId,
    a: f64,
    b: f64,
    in0: DriverRange,
    out: u32,
}

/// A variable-mode multiplier: `clip(imp(Σin0 · Σin1 / fs))`.
struct MulVarOp {
    unit: UnitId,
    imp: Imp,
    in0: DriverRange,
    in1: DriverRange,
    out: u32,
}

/// A fanout: one imperfection application, one clipped store per branch
/// (contiguous branch slots from `out0`).
struct FanoutOp {
    unit: UnitId,
    imp: Imp,
    in0: DriverRange,
    out0: u32,
    branches: u32,
}

/// A lookup table.
struct LutOp {
    unit: UnitId,
    lut: LookupTable,
    in0: DriverRange,
    out: u32,
}

/// An ADC / analog-output sink.
struct SinkOp {
    in0: DriverRange,
    out: u32,
}

/// The segment-scheduled execution tape for one committed netlist under
/// one [`PassConfig`]. Cached in the chip's
/// [`PlanCache`](crate::engine::PlanCache) keyed by `(plan epoch,
/// PassConfig)`; executed through [`TapeRun`].
pub(crate) struct Tape {
    full_scale: f64,
    omega: f64,
    /// Slot-buffer length the tape writes — the structure's slot count
    /// plus any scratch slots `normalize_gains` appended for peeled
    /// stages. The run loops size their trackers to at least this.
    pub(crate) n_slots: usize,
    driver_slots: Vec<u32>,
    int_sources: Vec<IntSource>,
    dac_sources: Vec<DacSource>,
    const_dacs: Vec<DacSource>,
    input_sources: Vec<InputSource>,
    segments: Vec<Segment>,
    mulgain: Vec<MulGainOp>,
    mac: Vec<MacOp>,
    mulvar: Vec<MulVarOp>,
    fanout: Vec<FanoutOp>,
    lut: Vec<LutOp>,
    sink: Vec<SinkOp>,
    derivs: Vec<DriverRange>,
    /// Per-pass before/after op counts, in pipeline order.
    pub(crate) pass_log: Vec<PassStat>,
    /// Stores per eval before any pass ran.
    pub(crate) ops_before: u64,
    /// Stores per eval after the pipeline.
    pub(crate) ops_after: u64,
}

impl Tape {
    /// Renders the tape in the deterministic textual snapshot format pinned
    /// by `tests/ir_passes.rs` (documented in DESIGN.md §13): one header
    /// line, one line per source (`src dac.const` for folded constants),
    /// `seg` markers delimiting the homogeneous dispatch runs, one line per
    /// op in tape order (`op mac` for fused chains), one per state
    /// derivative, and trailing per-pass statistics lines. Floats print via
    /// `Display` (shortest round-trip), block imperfections only when
    /// non-identity — an ideal config dumps tidy. The header's store count
    /// is the per-eval output-store metric the pass statistics use.
    pub(crate) fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan fs={} states={} stores={}\n",
            self.full_scale,
            self.derivs.len(),
            self.ops_after
        ));
        for src in &self.int_sources {
            out.push_str(&format!(
                "src int u={}{} -> s{}\n",
                dump_unit(src.unit),
                dump_imp(&src.imp),
                src.out
            ));
        }
        for src in &self.dac_sources {
            out.push_str(&format!(
                "src dac u={}{} -> s{}\n",
                dump_unit(src.unit),
                dump_imp(&src.imp),
                src.out
            ));
        }
        for src in &self.const_dacs {
            out.push_str(&format!(
                "src dac.const u={}{} -> s{}\n",
                dump_unit(src.unit),
                dump_imp(&src.imp),
                src.out
            ));
        }
        for src in &self.input_sources {
            out.push_str(&format!(
                "src in u={} ch={} -> s{}\n",
                dump_unit(src.unit),
                src.channel,
                src.out
            ));
        }
        for seg in &self.segments {
            out.push_str(&format!(
                "seg {} ({})\n",
                seg.kind.name(),
                seg.end - seg.start
            ));
            for i in seg.start as usize..seg.end as usize {
                match seg.kind {
                    SegKind::MulGain => out.push_str(&format!(
                        "op mul.gain u={} g={}{} in={} -> s{}\n",
                        dump_unit(self.mulgain[i].unit),
                        self.mulgain[i].gain,
                        dump_imp(&self.mulgain[i].imp),
                        dump_slots(&self.driver_slots, self.mulgain[i].in0),
                        self.mulgain[i].out
                    )),
                    SegKind::Mac => out.push_str(&format!(
                        "op mac u={} a={} b={} in={} -> s{}\n",
                        dump_unit(self.mac[i].unit),
                        self.mac[i].a,
                        self.mac[i].b,
                        dump_slots(&self.driver_slots, self.mac[i].in0),
                        self.mac[i].out
                    )),
                    SegKind::MulVar => out.push_str(&format!(
                        "op mul.var u={}{} in0={} in1={} -> s{}\n",
                        dump_unit(self.mulvar[i].unit),
                        dump_imp(&self.mulvar[i].imp),
                        dump_slots(&self.driver_slots, self.mulvar[i].in0),
                        dump_slots(&self.driver_slots, self.mulvar[i].in1),
                        self.mulvar[i].out
                    )),
                    SegKind::Fanout => out.push_str(&format!(
                        "op fanout u={}{} in={} -> s{}..s{} ({})\n",
                        dump_unit(self.fanout[i].unit),
                        dump_imp(&self.fanout[i].imp),
                        dump_slots(&self.driver_slots, self.fanout[i].in0),
                        self.fanout[i].out0,
                        self.fanout[i].out0 + self.fanout[i].branches - 1,
                        self.fanout[i].branches
                    )),
                    SegKind::Lut => out.push_str(&format!(
                        "op lut u={} in={} -> s{}\n",
                        dump_unit(self.lut[i].unit),
                        dump_slots(&self.driver_slots, self.lut[i].in0),
                        self.lut[i].out
                    )),
                    SegKind::Sink => out.push_str(&format!(
                        "op sink in={} -> s{}\n",
                        dump_slots(&self.driver_slots, self.sink[i].in0),
                        self.sink[i].out
                    )),
                }
            }
        }
        for (state, range) in self.derivs.iter().enumerate() {
            out.push_str(&format!(
                "deriv state{} in={}\n",
                state,
                dump_slots(&self.driver_slots, *range)
            ));
        }
        for stat in &self.pass_log {
            out.push_str(&format!(
                "pass {}: {} -> {}\n",
                stat.pass, stat.ops_before, stat.ops_after
            ));
        }
        out
    }
}

/// Short deterministic unit label for tape dumps (`int0`, `mul3`, …).
fn dump_unit(unit: UnitId) -> String {
    match unit {
        UnitId::Integrator(i) => format!("int{i}"),
        UnitId::Multiplier(i) => format!("mul{i}"),
        UnitId::Fanout(i) => format!("fan{i}"),
        UnitId::Adc(i) => format!("adc{i}"),
        UnitId::Dac(i) => format!("dac{i}"),
        UnitId::Lut(i) => format!("lut{i}"),
        UnitId::AnalogInput(i) => format!("ain{i}"),
        UnitId::AnalogOutput(i) => format!("aout{i}"),
    }
}

/// Imperfection suffix for tape dumps: empty for an ideal block, the four
/// affine terms otherwise.
fn dump_imp(imp: &Imp) -> String {
    if imp.is_identity() {
        String::new()
    } else {
        format!(" imp=({},{},{},{})", imp.f1, imp.f2, imp.o1, imp.o2)
    }
}

/// A driver-slot list for tape dumps: `[s1 s4]`, `[]` when unconnected.
fn dump_slots(driver_slots: &[u32], range: DriverRange) -> String {
    let slots: Vec<String> = driver_slots[range.start as usize..range.end as usize]
        .iter()
        .map(|s| format!("s{s}"))
        .collect();
    format!("[{}]", slots.join(" "))
}

/// Sums each lane's driver currents over a CSR range into `acc[..k]` — the
/// same per-lane fold order as [`TapeRun::sum`] (`0.0 + v₀ + v₁ + …` over
/// the connection order, as the reference `input_sum`), restructured so the
/// lane dimension is the innermost (contiguous, vectorizable) loop.
#[inline]
fn sum_into(plan: &Tape, k: usize, range: DriverRange, values: &[f64], acc: &mut [f64]) {
    let acc = &mut acc[..k];
    acc.fill(0.0);
    for &s in &plan.driver_slots[range.start as usize..range.end as usize] {
        let col = &values[s as usize * k..][..k];
        for (a, &v) in acc.iter_mut().zip(col) {
            *a += v;
        }
    }
}

/// One run's K-lane view of a (shared, possibly cached) [`Tape`]: one RK4
/// sweep advances K right-hand sides in lockstep, and a sequential run is
/// the one-lane case.
///
/// All per-lane arrays are column-major SoA — `values[slot * k + lane]` — so
/// the inner loop of every tape op is a tight sweep over the K lanes of one
/// slot. Each lane performs **exactly** the floating-point sequence a
/// one-lane run would perform for it alone: the tape, process variation,
/// and fault schedule are shared (loaded once per op, applied per lane),
/// and fault adjustments are pure functions of `(unit, t, value)`, so a
/// lane's trajectory is bit-identical to a sequential run started from the
/// same chip instant. Lanes differ only in their DAC constants (dynamic and
/// folded alike) — the K RHS snapshots the batch carries.
pub(crate) struct TapeRun<'a> {
    plan: &'a Tape,
    /// Scheduled runtime faults, applied by both sweep bodies. Fault-armed
    /// runs lower under `PassConfig::none()`, so these only ever meet
    /// unit-preserving tapes.
    faults: Option<&'a FaultPlan>,
    /// Chip-lifetime second at which this run starts.
    t_offset: f64,
    k: usize,
    /// Per-lane non-folded DAC constants: `dac_values[src_idx * k + lane]`.
    dac_values: Vec<f64>,
    /// Folded DAC constants, per lane (lane bindings override DAC
    /// registers, so the folded value is lane-specific too).
    const_slots: Vec<u32>,
    const_vals: Vec<f64>,
    signals: Vec<Option<&'a InputSignal>>,
    scratch0: Vec<f64>,
    scratch1: Vec<f64>,
    primed: bool,
}

impl<'a> TapeRun<'a> {
    /// Binds the tape to K lanes' DAC register maps plus the shared run
    /// state (faults, lifetime offset, input signals) from `c`.
    pub(crate) fn bind(
        plan: &'a Tape,
        c: &Compiled<'a>,
        lane_dacs: &[&BTreeMap<usize, f64>],
    ) -> Self {
        let k = lane_dacs.len();
        let mut dac_values = Vec::with_capacity(plan.dac_sources.len() * k);
        for src in &plan.dac_sources {
            for dacs in lane_dacs {
                dac_values.push(dacs.get(&src.dac).copied().unwrap_or(0.0));
            }
        }
        let mut const_slots = Vec::with_capacity(plan.const_dacs.len());
        let mut const_vals = Vec::with_capacity(plan.const_dacs.len() * k);
        for src in &plan.const_dacs {
            const_slots.push(src.out);
            for dacs in lane_dacs {
                const_vals.push(src.imp.apply(dacs.get(&src.dac).copied().unwrap_or(0.0)));
            }
        }
        let signals = plan
            .input_sources
            .iter()
            .map(|src| {
                let enabled = c
                    .registers
                    .inputs_enabled
                    .get(&src.channel)
                    .copied()
                    .unwrap_or(false);
                if enabled {
                    c.signals.get(&src.channel)
                } else {
                    None
                }
            })
            .collect();
        TapeRun {
            plan,
            faults: c.faults,
            t_offset: c.t_offset,
            k,
            dac_values,
            const_slots,
            const_vals,
            signals,
            scratch0: vec![0.0; k],
            scratch1: vec![0.0; k],
            primed: false,
        }
    }

    /// Lane `lane`'s sum of driver currents over a CSR range — the same
    /// fold order as the reference `input_sum`.
    #[inline]
    fn sum(&self, range: DriverRange, values: &[f64], lane: usize) -> f64 {
        let k = self.k;
        let mut acc = 0.0;
        for &s in &self.plan.driver_slots[range.start as usize..range.end as usize] {
            acc += values[s as usize * k + lane];
        }
        acc
    }

    /// Applies any active analog-path faults, identically to the reference
    /// `distort` — the draw is shared per `(unit, t)` across lanes because
    /// the adjustment is a pure counter-based function.
    #[inline]
    fn distort(&self, unit: UnitId, t: f64, value: f64) -> f64 {
        match self.faults {
            Some(plan) => plan.analog_adjust(unit, self.t_offset + t, value),
            None => value,
        }
    }

    /// The branch-free all-lanes-live evaluation over the scheduled tape:
    /// per op, the operand sums are swept into a lane-wide accumulator
    /// first ([`sum_into`]), then one contiguous lane loop applies the op's
    /// arithmetic — the same ops in the same order as
    /// [`Self::eval_masked`] with the `active` mask peeled away, so the
    /// results match bit for bit while the inner loops vectorize.
    /// `FAULTS` compiles the per-unit fault hooks in for fault-armed runs
    /// and out of fault-free ones.
    ///
    /// `KC` is the compile-time lane count for the monomorphized widths, or
    /// 0 for the runtime-width instantiation.
    fn eval_unmasked<const KC: usize, const FAULTS: bool>(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
    ) {
        let plan = self.plan;
        let k = if KC == 0 { self.k } else { KC };
        let fs = plan.full_scale;
        let mut scratch0 = std::mem::take(&mut self.scratch0);
        let mut scratch1 = std::mem::take(&mut self.scratch1);
        // The lane-wide accumulators: stack arrays at the monomorphized
        // widths, which the optimizer keeps in registers (a one-lane sweep
        // then sums like a scalar loop), the heap scratch at runtime width.
        let (mut lanes0, mut lanes1) = ([0.0; KC], [0.0; KC]);
        let (acc0, acc1): (&mut [f64], &mut [f64]) = if KC == 0 {
            (&mut scratch0, &mut scratch1)
        } else {
            (&mut lanes0, &mut lanes1)
        };
        let dac_values: &[f64] = &self.dac_values;
        // The per-unit fault hooks, compiled out of fault-free sweeps.
        let distort = |unit: UnitId, value: f64| {
            if FAULTS {
                self.distort(unit, t, value)
            } else {
                value
            }
        };
        let signals = &self.signals;
        let Tracker {
            values,
            max_abs,
            clipped,
            any_clipped,
        } = tracker;

        // Maps `$src` (a lane-wide slice) through `$v` into the output
        // column at `$col`, tracking range usage when asked. The `track`
        // branch is hoisted out of the lane loop, and both bodies walk
        // exact-length subslices so the bounds checks lift out and the
        // untracked loop vectorizes.
        macro_rules! store_map {
            ($col:expr, $src:expr, |$x:ident| $v:expr) => {{
                let col = $col;
                let src = &$src[..k];
                let out = &mut values[col..col + k];
                if track {
                    let mab = &mut max_abs[col..col + k];
                    let clp = &mut clipped[col..col + k];
                    let any = &mut any_clipped[..k];
                    for lane in 0..k {
                        let $x = src[lane];
                        let v: f64 = $v;
                        let mag = v.abs();
                        if mag > mab[lane] {
                            mab[lane] = mag;
                        }
                        if mag > fs {
                            clp[lane] = true;
                            any[lane] = true;
                        }
                        out[lane] = v.clamp(-fs, fs);
                    }
                } else {
                    for (o, &$x) in out.iter_mut().zip(src) {
                        let v: f64 = $v;
                        *o = v.clamp(-fs, fs);
                    }
                }
            }};
        }

        // Sources: integrator outputs (their state, through imperfection).
        for (slot_state, src) in plan.int_sources.iter().enumerate() {
            let (unit, imp) = (src.unit, src.imp);
            store_map!(src.out as usize * k, state[slot_state * k..], |x| distort(
                unit,
                imp.apply(x)
            ));
        }
        // Sources: non-folded DAC constants.
        for (src_idx, src) in plan.dac_sources.iter().enumerate() {
            let (unit, imp) = (src.unit, src.imp);
            store_map!(
                src.out as usize * k,
                dac_values[src_idx * k..],
                |x| distort(unit, imp.apply(x))
            );
        }
        // Sources: external analog inputs, evaluated once and broadcast.
        for (src, signal) in plan.input_sources.iter().zip(signals) {
            let raw = signal.map(|f| f(t)).unwrap_or(0.0);
            acc0[..k].fill(raw);
            store_map!(src.out as usize * k, acc0, |x| distort(src.unit, x));
        }

        // The scheduled tape: one dispatch per segment, lane sweeps inside.
        for seg in &plan.segments {
            let r = seg.start as usize..seg.end as usize;
            match seg.kind {
                SegKind::MulGain => {
                    for op in &plan.mulgain[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        let (unit, gain, imp) = (op.unit, op.gain, op.imp);
                        store_map!(op.out as usize * k, acc0, |x| distort(
                            unit,
                            imp.apply(gain * x)
                        ));
                    }
                }
                SegKind::Mac => {
                    for op in &plan.mac[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        let (a, b) = (op.a, op.b);
                        store_map!(op.out as usize * k, acc0, |x| a.mul_add(x, b));
                    }
                }
                SegKind::MulVar => {
                    for op in &plan.mulvar[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        sum_into(plan, k, op.in1, values, acc1);
                        let (unit, imp) = (op.unit, op.imp);
                        for (a, &b) in acc0[..k].iter_mut().zip(&acc1[..k]) {
                            *a = *a * b / fs;
                        }
                        store_map!(op.out as usize * k, acc0, |x| distort(unit, imp.apply(x)));
                    }
                }
                SegKind::Fanout => {
                    for op in &plan.fanout[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        let (unit, imp) = (op.unit, op.imp);
                        for a in acc0[..k].iter_mut() {
                            *a = distort(unit, imp.apply(*a));
                        }
                        for port in 0..op.branches {
                            store_map!((op.out0 + port) as usize * k, acc0, |x| x);
                        }
                    }
                }
                SegKind::Lut => {
                    for op in &plan.lut[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        let (unit, lut) = (op.unit, &op.lut);
                        store_map!(op.out as usize * k, acc0, |x| distort(
                            unit,
                            lut.evaluate(x)
                        ));
                    }
                }
                // Sink slots feed no op and are read only after a tracked
                // eval (waveform samples, final ADC inputs), so the
                // untracked k2–k4 stages skip them.
                SegKind::Sink if !track => {}
                SegKind::Sink => {
                    for op in &plan.sink[r] {
                        sum_into(plan, k, op.in0, values, acc0);
                        store_map!(op.out as usize * k, acc0, |x| x);
                    }
                }
            }
        }

        // Integrator derivatives: ω_u times the summed input current.
        for (slot_state, &range) in plan.derivs.iter().enumerate() {
            sum_into(plan, k, range, values, acc0);
            let out = &mut du[slot_state * k..][..k];
            for (o, &a) in out.iter_mut().zip(&acc0[..k]) {
                *o = plan.omega * a;
            }
        }

        self.scratch0 = scratch0;
        self.scratch1 = scratch1;
    }

    /// The general evaluation: per-lane `active` masking and per-`(unit, t)`
    /// fault adjustments where the reference evaluator applies them —
    /// sources, gain and variable multipliers, fanouts (once, before the
    /// branch clips), and LUTs. Sinks are never distorted, and fused MACs
    /// only exist on pass-enabled tapes, which never run fault-armed.
    // The lane loops index `active` plus several SoA columns in lockstep; a
    // range loop is the clear form, not a needless one.
    #[allow(clippy::needless_range_loop)]
    fn eval_masked(
        &self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        active: &[bool],
    ) {
        let plan = self.plan;
        let k = self.k;
        let fs = plan.full_scale;
        // Sources: integrator outputs (their state, through imperfection).
        for (slot_state, src) in plan.int_sources.iter().enumerate() {
            let s = src.out as usize;
            for lane in 0..k {
                if !active[lane] {
                    continue;
                }
                let out = self.distort(src.unit, t, src.imp.apply(state[slot_state * k + lane]));
                let idx = s * k + lane;
                tracker.values[idx] = tracker.clip(out, idx, lane, fs, track);
            }
        }
        // Sources: non-folded DAC constants.
        for (src_idx, src) in plan.dac_sources.iter().enumerate() {
            let s = src.out as usize;
            for lane in 0..k {
                if !active[lane] {
                    continue;
                }
                let out = self.distort(
                    src.unit,
                    t,
                    src.imp.apply(self.dac_values[src_idx * k + lane]),
                );
                let idx = s * k + lane;
                tracker.values[idx] = tracker.clip(out, idx, lane, fs, track);
            }
        }
        // Sources: external analog inputs (shared pure functions of time,
        // evaluated once per eval; no imperfection applied).
        for (src, signal) in plan.input_sources.iter().zip(&self.signals) {
            let raw = signal.map(|f| f(t)).unwrap_or(0.0);
            let s = src.out as usize;
            for lane in 0..k {
                if !active[lane] {
                    continue;
                }
                let out = self.distort(src.unit, t, raw);
                let idx = s * k + lane;
                tracker.values[idx] = tracker.clip(out, idx, lane, fs, track);
            }
        }

        // The scheduled tape.
        for seg in &plan.segments {
            let r = seg.start as usize..seg.end as usize;
            match seg.kind {
                SegKind::MulGain => {
                    for op in &plan.mulgain[r] {
                        let s = op.out as usize;
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let ideal = op.gain * self.sum(op.in0, &tracker.values, lane);
                            let v = self.distort(op.unit, t, op.imp.apply(ideal));
                            let idx = s * k + lane;
                            tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                        }
                    }
                }
                SegKind::Mac => {
                    for op in &plan.mac[r] {
                        let s = op.out as usize;
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let v = op.a.mul_add(self.sum(op.in0, &tracker.values, lane), op.b);
                            let idx = s * k + lane;
                            tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                        }
                    }
                }
                SegKind::MulVar => {
                    for op in &plan.mulvar[r] {
                        let s = op.out as usize;
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let ideal = self.sum(op.in0, &tracker.values, lane)
                                * self.sum(op.in1, &tracker.values, lane)
                                / fs;
                            let v = self.distort(op.unit, t, op.imp.apply(ideal));
                            let idx = s * k + lane;
                            tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                        }
                    }
                }
                SegKind::Fanout => {
                    for op in &plan.fanout[r] {
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let ideal = op.imp.apply(self.sum(op.in0, &tracker.values, lane));
                            let v = self.distort(op.unit, t, ideal);
                            for port in 0..op.branches {
                                let idx = (op.out0 + port) as usize * k + lane;
                                tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                            }
                        }
                    }
                }
                SegKind::Lut => {
                    for op in &plan.lut[r] {
                        let s = op.out as usize;
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let raw = op.lut.evaluate(self.sum(op.in0, &tracker.values, lane));
                            let v = self.distort(op.unit, t, raw);
                            let idx = s * k + lane;
                            tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                        }
                    }
                }
                // Skipped on untracked stages, as in the unmasked body.
                SegKind::Sink if !track => {}
                SegKind::Sink => {
                    for op in &plan.sink[r] {
                        let s = op.out as usize;
                        for lane in 0..k {
                            if !active[lane] {
                                continue;
                            }
                            let v = self.sum(op.in0, &tracker.values, lane);
                            let idx = s * k + lane;
                            tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                        }
                    }
                }
            }
        }

        // Integrator derivatives: ω_u times the summed input current.
        for (slot_state, &range) in plan.derivs.iter().enumerate() {
            for lane in 0..k {
                if !active[lane] {
                    continue;
                }
                du[slot_state * k + lane] = plan.omega * self.sum(range, &tracker.values, lane);
            }
        }
    }
}

impl LaneEvaluator for TapeRun<'_> {
    fn lanes(&self) -> usize {
        self.k
    }

    fn min_slots(&self) -> usize {
        self.plan.n_slots
    }

    /// Evaluates the circuit at time `t` for all **active** lanes at once.
    /// `state`/`du` are `n_states * k`, the tracker arrays `n_slots * k`,
    /// all column-major (`[index * k + lane]`).
    ///
    /// Dispatches between two bodies performing the identical per-lane
    /// floating-point sequence: an unmasked fast path while every lane is
    /// live, and the masked path once some lane has retired.
    fn eval_lanes(
        &mut self,
        t: f64,
        state: &[f64],
        du: &mut [f64],
        tracker: &mut Tracker,
        track: bool,
        active: &[bool],
    ) {
        // Folded DAC constants: every lane's column written once per run
        // (first eval is a tracked k1 stage; retired lanes freeze on their
        // own afterwards because nothing else writes these slots).
        if !self.primed {
            self.primed = true;
            let k = self.k;
            let fs = self.plan.full_scale;
            for (cidx, &slot) in self.const_slots.iter().enumerate() {
                for lane in 0..k {
                    let v = self.const_vals[cidx * k + lane];
                    let idx = slot as usize * k + lane;
                    tracker.values[idx] = tracker.clip(v, idx, lane, fs, track);
                }
            }
        }
        if active.iter().all(|&a| a) {
            // Monomorphize the hot widths: with the lane count a compile-
            // time constant, every lane loop unrolls and vectorizes and the
            // accumulator fills stop being runtime-length memsets. The
            // one-lane arms are what keep a sequential run as fast as a
            // dedicated scalar evaluator would be.
            match (self.k, self.faults.is_some()) {
                (1, false) => self.eval_unmasked::<1, false>(t, state, du, tracker, track),
                (2, false) => self.eval_unmasked::<2, false>(t, state, du, tracker, track),
                (4, false) => self.eval_unmasked::<4, false>(t, state, du, tracker, track),
                (8, false) => self.eval_unmasked::<8, false>(t, state, du, tracker, track),
                (16, false) => self.eval_unmasked::<16, false>(t, state, du, tracker, track),
                (_, false) => self.eval_unmasked::<0, false>(t, state, du, tracker, track),
                (1, true) => self.eval_unmasked::<1, true>(t, state, du, tracker, track),
                (_, true) => self.eval_unmasked::<0, true>(t, state, du, tracker, track),
            }
        } else {
            self.eval_masked(t, state, du, tracker, track, active);
        }
    }
}

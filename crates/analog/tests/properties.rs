//! Property-style tests on the chip model's invariants.
//!
//! Each test draws many cases from a seeded [`Rng64`] stream, so the whole
//! suite is deterministic and every failure reproduces from the fixed seed.

use aa_analog::exceptions::ExceptionVector;
use aa_analog::netlist::{InputPort, Netlist, OutputPort};
use aa_analog::units::{ResourceInventory, UnitId};
use aa_analog::{decode_program, encode_program, ChipConfig, Instruction, LookupTable};
use aa_linalg::rng::Rng64;

fn arbitrary_unit(rng: &mut Rng64, max_index: usize) -> UnitId {
    let i = rng.below(max_index);
    match rng.below(8) {
        0 => UnitId::Integrator(i),
        1 => UnitId::Multiplier(i),
        2 => UnitId::Fanout(i),
        3 => UnitId::Adc(i),
        4 => UnitId::Dac(i),
        5 => UnitId::Lut(i),
        6 => UnitId::AnalogInput(i),
        _ => UnitId::AnalogOutput(i),
    }
}

/// Arbitrary connection attempts never panic — every outcome is either a
/// successful connection or a structured error.
#[test]
fn arbitrary_connections_never_panic() {
    let mut rng = Rng64::seed_from_u64(0xc0_11ec7);
    for _ in 0..64 {
        let inv = ResourceInventory::from_macroblocks(4);
        let mut net = Netlist::new(inv);
        let pairs = rng.below(31);
        for _ in 0..pairs {
            let from = OutputPort {
                unit: arbitrary_unit(&mut rng, 6),
                port: rng.below(3),
            };
            let to = InputPort {
                unit: arbitrary_unit(&mut rng, 6),
                port: rng.below(3),
            };
            let _ = net.connect(from, to);
        }
        // Validation either succeeds or reports an algebraic loop; the
        // netlist structure stays consistent either way.
        let _ = net.validate();
        assert!(net.len() <= 30);
        for (from, to) in net.iter() {
            assert!(net.drivers_of(to).contains(&from));
        }
    }
}

/// One driver, one sink: after any sequence of connects, every output port
/// drives at most one input (the current-copying rule).
#[test]
fn single_driver_invariant() {
    let mut rng = Rng64::seed_from_u64(0xd41e);
    for _ in 0..64 {
        let inv = ResourceInventory::from_macroblocks(4);
        let mut net = Netlist::new(inv);
        for _ in 0..rng.below(41) {
            let from = OutputPort {
                unit: arbitrary_unit(&mut rng, 4),
                port: rng.below(2),
            };
            let to = InputPort {
                unit: arbitrary_unit(&mut rng, 4),
                port: rng.below(2),
            };
            let _ = net.connect(from, to);
        }
        let mut drivers: Vec<OutputPort> = net.iter().map(|(f, _)| f).collect();
        let before = drivers.len();
        drivers.sort();
        drivers.dedup();
        assert_eq!(before, drivers.len(), "an output drove two inputs");
    }
}

/// LUT evaluation is idempotent under re-quantization: evaluating the stored
/// value returns a representable value whose own code round-trips.
#[test]
fn lut_outputs_are_representable() {
    let mut rng = Rng64::seed_from_u64(7);
    for _ in 0..200 {
        let x = rng.range(-2.0, 2.0);
        let bits = 3 + rng.below(7) as u32;
        let lut = LookupTable::sine(64, bits, 1.0);
        let y = lut.evaluate(x);
        let lsb = 2.0 / f64::from(2u32).powi(bits as i32);
        assert!(y.abs() <= 1.0);
        assert!((y / lsb - (y / lsb).round()).abs() < 1e-9, "y = {y}");
    }
}

/// Exception vectors round-trip through the readExp byte format for any
/// latch subset.
#[test]
fn exception_bytes_round_trip() {
    let mut rng = Rng64::seed_from_u64(36);
    for _ in 0..64 {
        let inv = ResourceInventory::from_macroblocks(4);
        let mut v = ExceptionVector::new();
        for unit in inv.iter() {
            if rng.flip() {
                v.latch(unit);
            }
        }
        let bytes = v.to_bytes(&inv);
        let parsed = ExceptionVector::from_bytes(&inv, &bytes).unwrap();
        assert_eq!(parsed, v);
    }
}

/// SPI encoding round-trips arbitrary gain/value instructions, including
/// extreme floats.
#[test]
fn spi_round_trips_arbitrary_floats() {
    let mut rng = Rng64::seed_from_u64(0x5b1);
    for _ in 0..64 {
        let gain = f64::from_bits(rng.next_u64());
        if !gain.is_finite() {
            continue;
        }
        let idx = rng.below(1000);
        let cycles = rng.next_u64();
        let program = vec![
            Instruction::SetMulGain {
                multiplier: idx,
                gain,
            },
            Instruction::SetDacConstant {
                dac: idx,
                value: gain / 2.0,
            },
            Instruction::SetIntInitial {
                integrator: idx % 65536,
                value: -gain,
            },
            Instruction::SetTimeout { cycles },
        ];
        let decoded = decode_program(&encode_program(&program)).unwrap();
        assert_eq!(decoded, program);
    }
}

/// ADC code/value conversion stays in range for every resolution.
#[test]
fn adc_codes_round_trip() {
    let mut rng = Rng64::seed_from_u64(0xadc);
    for _ in 0..64 {
        let bits = 2 + rng.below(14) as u32;
        let frac = rng.uniform();
        let chip = aa_analog::AnalogChip::new(ChipConfig::ideal().with_adc_bits(bits));
        let levels = 1u32 << bits;
        let code = ((frac * levels as f64) as u32).min(levels - 1);
        let value = chip.value_of(code);
        assert!(value.abs() <= 1.0 + 1e-12);
    }
}

/// The paper's Figure 1 feedback circuit: du/dt = −u + 0.5.
fn figure1_chip() -> aa_analog::AnalogChip {
    use aa_analog::AnalogChip;
    let mut chip = AnalogChip::new(ChipConfig::ideal());
    let (int0, fan0, mul0, adc0, dac0) = (
        UnitId::Integrator(0),
        UnitId::Fanout(0),
        UnitId::Multiplier(0),
        UnitId::Adc(0),
        UnitId::Dac(0),
    );
    chip.set_conn(OutputPort::of(int0), InputPort::of(fan0))
        .unwrap();
    chip.set_conn(
        OutputPort {
            unit: fan0,
            port: 0,
        },
        InputPort::of(adc0),
    )
    .unwrap();
    chip.set_conn(
        OutputPort {
            unit: fan0,
            port: 1,
        },
        InputPort::of(mul0),
    )
    .unwrap();
    chip.set_conn(OutputPort::of(mul0), InputPort::of(int0))
        .unwrap();
    chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))
        .unwrap();
    chip.set_mul_gain(0, -1.0).unwrap();
    chip.set_dac_constant(0, 0.5).unwrap();
    chip.set_int_initial(0, 0.0).unwrap();
    chip.cfg_commit().unwrap();
    chip
}

/// Draws a small schedule of mixed transient fault events.
fn arbitrary_plan(rng: &mut Rng64) -> aa_analog::FaultPlan {
    use aa_analog::{FaultEvent, FaultKind, FaultPlan};
    let mut plan = FaultPlan::new(rng.next_u64());
    for _ in 0..(1 + rng.below(3)) {
        let start = rng.range(0.0, 1e-3);
        let duration = rng.range(1e-5, 1e-3);
        let kind = match rng.below(5) {
            0 => FaultKind::NoiseBurst {
                unit: UnitId::Integrator(0),
                amplitude: rng.range(0.0, 0.02),
            },
            1 => FaultKind::OffsetDrift {
                unit: UnitId::Integrator(0),
                magnitude: rng.range(-0.02, 0.02),
                ramp_s: 5e-4,
            },
            2 => FaultKind::GainDrift {
                unit: UnitId::Multiplier(0),
                magnitude: rng.range(-0.05, 0.05),
                ramp_s: 5e-4,
            },
            3 => FaultKind::AdcBitFlip {
                adc: 0,
                bit: rng.below(12) as u32,
            },
            _ => FaultKind::LutCorruption {
                lut: 0,
                entry: rng.below(64),
                value: rng.range(-1.0, 1.0),
            },
        };
        plan.push(FaultEvent::transient(kind, start, duration));
    }
    plan
}

/// Fault injection is fully reproducible: the same plan on two fresh chips
/// produces bit-identical run reports (noise is a pure function of seed,
/// unit, and time — never of host execution order).
#[test]
fn identical_fault_plans_reproduce_bit_identical_runs() {
    let mut rng = Rng64::seed_from_u64(0xfa017);
    let options = aa_analog::EngineOptions {
        max_tau: 300.0,
        ..Default::default()
    };
    for _ in 0..6 {
        let plan = arbitrary_plan(&mut rng);
        let mut first = figure1_chip();
        first.inject_fault_plan(plan.clone());
        let r1 = first.exec(&options).unwrap();
        let mut second = figure1_chip();
        second.inject_fault_plan(plan);
        let r2 = second.exec(&options).unwrap();
        assert_eq!(r1, r2, "same fault plan must replay bit-identically");
    }
}

/// Configures an arbitrary committed chip from a seeded stream: random
/// topology (invalid connections skipped), gains, DAC constants, initial
/// conditions, LUT programs, input stimuli, and optionally a drawn process
/// variation. Returns `None` when the random netlist fails commit (e.g. an
/// algebraic loop).
fn arbitrary_chip(rng: &mut Rng64) -> Option<aa_analog::AnalogChip> {
    use aa_analog::{AnalogChip, NonIdealityConfig};
    let nonideal = if rng.flip() {
        NonIdealityConfig::default().with_seed(rng.next_u64())
    } else {
        NonIdealityConfig::none()
    };
    let mut chip = AnalogChip::new(ChipConfig::ideal().with_nonideal(nonideal));
    for _ in 0..(8 + rng.below(25)) {
        let from = OutputPort {
            unit: arbitrary_unit(rng, 4),
            port: rng.below(3),
        };
        let to = InputPort {
            unit: arbitrary_unit(rng, 4),
            port: rng.below(3),
        };
        let _ = chip.set_conn(from, to);
    }
    for i in 0..4 {
        if rng.flip() {
            let _ = chip.set_mul_gain(i, rng.range(-1.0, 1.0));
        } else {
            let _ = chip.set_mul_variable(i);
        }
        let _ = chip.set_dac_constant(i, rng.range(-0.5, 0.5));
        let _ = chip.set_int_initial(i, rng.range(-0.5, 0.5));
    }
    if rng.flip() {
        let steepness = rng.range(2.0, 10.0);
        let _ = chip.set_function(0, move |x| (steepness * x).tanh());
    }
    if rng.flip() {
        let amplitude = rng.range(0.0, 0.4);
        let _ = chip.set_ana_input_en(0, true);
        let _ = chip.attach_input_signal(0, Box::new(move |t| (3.0e4 * t).sin() * amplitude));
    }
    chip.set_timeout(20 + rng.below(480) as u64);
    chip.cfg_commit().ok()?;
    Some(chip)
}

/// The tentpole's differential guarantee: the compiled IR tape
/// ([`EvalStrategy::Compiled`], lowered under `PassConfig::none()`)
/// produces **bit-identical** run reports to the tree-walking reference
/// evaluator — same states, waveforms, exceptions, and range usage —
/// across random netlists, process variation draws, and active fault
/// plans.
///
/// [`EvalStrategy::Compiled`]: aa_analog::EvalStrategy::Compiled
#[test]
fn compiled_plan_is_bit_identical_to_reference_evaluator() {
    use aa_analog::{EngineOptions, EvalStrategy, PassConfig};
    let mut rng = Rng64::seed_from_u64(0xd1ff);
    let mut compared = 0;
    let mut attempts = 0;
    while compared < 16 {
        attempts += 1;
        assert!(attempts < 200, "too few valid random netlists");
        let case_seed = rng.next_u64();
        let with_faults = rng.flip();
        let steady_tol = if rng.flip() { Some(1e-6) } else { None };
        let run = |strategy: EvalStrategy| {
            // Replaying the same case seed configures two identical chips,
            // so the only difference between the runs is the evaluator.
            let mut case_rng = Rng64::seed_from_u64(case_seed);
            let mut chip = arbitrary_chip(&mut case_rng)?;
            if with_faults {
                chip.inject_fault_plan(arbitrary_plan(&mut case_rng));
            }
            let options = EngineOptions {
                steady_tol,
                max_tau: 100.0,
                eval_strategy: strategy,
                passes: PassConfig::none(),
                ..EngineOptions::default()
            };
            Some(chip.exec(&options).map_err(|e| e.to_string()))
        };
        let compiled = run(EvalStrategy::Compiled);
        let reference = run(EvalStrategy::Reference);
        let (Some(compiled), Some(reference)) = (compiled, reference) else {
            continue; // random netlist failed commit — not a comparison case
        };
        assert_eq!(
            compiled, reference,
            "compiled plan diverged from reference (case seed {case_seed:#x})"
        );
        compared += 1;
    }
}

/// A plan whose window covers the whole run is visibly active; clearing the
/// plan restores the baseline (faults leave no residue in the chip).
#[test]
fn cleared_fault_plan_restores_baseline() {
    use aa_analog::{FaultEvent, FaultKind, FaultPlan};
    let options = aa_analog::EngineOptions {
        max_tau: 300.0,
        ..Default::default()
    };
    let mut clean = figure1_chip();
    let baseline = clean.exec(&options).unwrap();
    assert_eq!(baseline.faults_active_steps, 0);

    let mut chip = figure1_chip();
    chip.inject_fault_plan(FaultPlan::new(3).with_event(FaultEvent::persistent(
        FaultKind::OffsetDrift {
            unit: UnitId::Integrator(0),
            magnitude: 0.01,
            ramp_s: 0.0,
        },
        0.0,
    )));
    let faulted = chip.exec(&options).unwrap();
    assert!(faulted.faults_active_steps > 0);
    assert!((faulted.integrator_values[&0] - baseline.integrator_values[&0]).abs() > 1e-3);

    chip.clear_fault_plan();
    let mut fresh = figure1_chip();
    let restored = fresh.exec(&options).unwrap();
    assert_eq!(
        restored.integrator_values[&0],
        baseline.integrator_values[&0]
    );
}

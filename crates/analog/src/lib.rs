//! Behavioural model of the Columbia continuous-time analog accelerator.
//!
//! This crate reproduces, in software, the 65 nm prototype chip evaluated in
//! *Evaluation of an Analog Accelerator for Linear Algebra* (ISCA 2016):
//! four macroblocks of integrators, multipliers, and current-mirror fanouts
//! joined by a crossbar, with shared 8-bit ADCs/DACs and continuous-time
//! SRAM lookup tables for nonlinear functions. The model covers the paper's
//! full architecture story:
//!
//! * **Microarchitecture** (§III-A): [`units`], [`netlist`], [`LookupTable`] —
//!   current-mode signal representation with free summation (joined
//!   branches), explicit fanout blocks for copying, and crossbar routing.
//! * **Architecture / ISA** (§III-B, Table I): [`Instruction`], [`Host`] —
//!   calibration, configuration, computation control, data readout, and
//!   exception reads.
//! * **Non-ideal behaviour**: [`nonideal`] — per-instance offset bias, gain
//!   error, and clipping nonlinearity, with trim-DAC compensation found by
//!   host-driven binary search ([`calibrate`]).
//! * **Exceptions**: [`ExceptionVector`] — overflow latches that tell the
//!   host to rescale and re-run, plus dynamic-range-underuse reporting.
//! * **Continuous-time execution**: [`engine`] — the committed netlist is
//!   compiled into an ODE and integrated at a fine fraction of the
//!   integrator time constant; solution time scales as `1/bandwidth`,
//!   which is the pivotal trade-off the paper's evaluation explores.
//! * **Runtime faults**: [`fault`] — a seeded, fully reproducible schedule
//!   of transient and persistent fault events (drift ramps, noise bursts,
//!   stuck integrators, ADC/SPI bit flips, LUT upsets) that the engine and
//!   digital interface apply, so host-side recovery policies can be tested
//!   deterministically.
//!
//! # Example: the paper's Figure 1 circuit
//!
//! ```
//! use aa_analog::{AnalogChip, ChipConfig};
//! use aa_analog::units::UnitId;
//! use aa_analog::netlist::{OutputPort, InputPort};
//!
//! # fn main() -> Result<(), aa_analog::AnalogError> {
//! // du/dt = a·u + b with a = -1, b = 0.5: settles at u = 0.5.
//! let mut chip = AnalogChip::new(ChipConfig::ideal());
//! let (int0, fan0, mul0, adc0, dac0) = (
//!     UnitId::Integrator(0), UnitId::Fanout(0), UnitId::Multiplier(0),
//!     UnitId::Adc(0), UnitId::Dac(0),
//! );
//! chip.set_conn(OutputPort::of(int0), InputPort::of(fan0))?;
//! chip.set_conn(OutputPort { unit: fan0, port: 0 }, InputPort::of(adc0))?;
//! chip.set_conn(OutputPort { unit: fan0, port: 1 }, InputPort::of(mul0))?;
//! chip.set_conn(OutputPort::of(mul0), InputPort::of(int0))?;
//! chip.set_conn(OutputPort::of(dac0), InputPort::of(int0))?;
//! chip.set_mul_gain(0, -1.0)?;
//! chip.set_dac_constant(0, 0.5)?;
//! chip.set_int_initial(0, 0.0)?;
//! chip.cfg_commit()?;
//! let report = chip.exec(&Default::default())?;
//! assert!((report.integrator_values[&0] - 0.5).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod error;
mod ir;

pub mod calibrate;
/// Chip configuration: bandwidth, resolution, and non-ideality magnitudes.
pub mod config;
pub mod engine;
pub mod exceptions;
pub mod fault;
pub mod host;
pub mod isa;
pub mod lut;
pub mod netlist;
pub mod nonideal;
pub mod passes;
pub mod spi;
pub mod units;

pub use calibrate::{calibrate, CalibrationReport};
pub use chip::{AnalogChip, BatchExec, ChipCheckpoint, InputSignal, CONTROL_CLOCK_HZ};
pub use config::{ChipConfig, NonIdealityConfig, PROTOTYPE_BANDWIDTH_HZ};
pub use engine::{EngineOptions, EvalStrategy, LaneBindings, PlanStats, RunReport};
pub use error::AnalogError;
pub use exceptions::ExceptionVector;
pub use fault::{FaultEvent, FaultKind, FaultPlan, Rail};
pub use host::{Host, ParallelTarget, Response};
pub use isa::{Instruction, InstructionKind, NonlinearFunction};
pub use lut::LookupTable;
pub use passes::{PassConfig, PassStat};
pub use spi::{
    decode_program, decode_program_checked, encode, encode_program, encode_program_checked,
};

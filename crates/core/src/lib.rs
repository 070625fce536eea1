//! Microarchitectural control of voltage emergencies — the contribution of
//! Joseph, Brooks & Martonosi (HPCA 2003).
//!
//! The paper's proposal is a **threshold controller**: a cheap voltage
//! sensor classifies the supply as Low / Normal / High; when it leaves the
//! safe band, a microarchitectural **actuator** clock-gates (to arrest an
//! undershoot) or "phantom-fires" (to arrest an overshoot) a configurable
//! slice of the pipeline until the supply recovers. Because the controller
//! is designed inside linear-systems theory, its thresholds can be solved
//! offline against the analytic worst case, yielding *guaranteed* bounds
//! rather than heuristics.
//!
//! Module map (paper section in parentheses):
//!
//! * [`sensor`] — Low/Normal/High quantization with configurable delay and
//!   white-noise error (§4.2, §4.4, §4.5).
//! * [`controller`] — the threshold control FSM (§4.1).
//! * [`actuator`] — actuation scopes: ideal, FU, FU/DL1, FU/DL1/IL1
//!   mapped onto the CPU's gating domains (§5.1).
//! * [`thresholds`] — the worst-case threshold solver replicating the
//!   MATLAB/Simulink design flow (§4.3, Table 3), including detection of
//!   scopes whose leverage cannot stabilize the supply (FU-only at high
//!   delay, §5.2).
//! * [`loopsim`] — the closed loop: CPU → power → current → PDN → voltage
//!   → sensor → controller → actuator → CPU (Figure 7 + Figure 12).
//! * [`analysis`] — controlled-vs-baseline evaluation: performance loss,
//!   energy increase, emergency elimination (§4.4–§5.3).
//! * [`calibrate`] — target-impedance calibration tying the power model's
//!   current envelope to the PDN model (§3.3).
//! * [`pid`] — the textbook PID alternative the paper discusses and
//!   rejects (§6), kept as an ablation.
//!
//! # Example: close the loop around a workload
//!
//! ```
//! use voltctl_core::prelude::*;
//! use voltctl_cpu::CpuConfig;
//! use voltctl_power::{PowerModel, PowerParams};
//! use voltctl_pdn::PdnModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let power = PowerModel::new(PowerParams::paper_3ghz());
//! let pdn = calibrated_pdn(&PdnModel::paper_default()?, &power, 2.0)?;
//! let thresholds = Thresholds { v_low: 0.96, v_high: 1.04 };
//!
//! let mut b = voltctl_isa::ProgramBuilder::new("spin");
//! b.label("top");
//! b.addq_imm(voltctl_isa::IntReg::R1, voltctl_isa::IntReg::R1, 1);
//! b.br("top");
//! let program = b.build()?;
//!
//! let mut sim = ControlLoop::builder(program)
//!     .cpu_config(CpuConfig::table1())
//!     .power(power)
//!     .pdn(pdn)
//!     .thresholds(thresholds)
//!     .scope(ActuationScope::FuDl1)
//!     .sensor(SensorConfig { delay_cycles: 2, noise_mv: 0.0, seed: 1 })
//!     .build()?;
//! sim.step_n(10_000);
//! assert_eq!(sim.report().emergencies.events(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod actuator;
pub mod analysis;
pub mod calibrate;
pub mod controller;
pub mod lane;
pub mod loopsim;
pub mod pid;
pub mod replay;
pub mod sensor;
pub mod thresholds;

pub use actuator::{ActuationScope, AsymmetricActuator};
pub use analysis::{
    build_eval_loops, evaluate_program, evaluate_program_recorded, evaluate_program_traced,
    replay_current_trace, replay_current_trace_traced, EvalSetup, Evaluation, TraceReplay,
};
pub use calibrate::calibrated_pdn;
pub use controller::{ControlAction, ThresholdController};
pub use lane::{LaneLoop, LaneOutcome};
pub use loopsim::{ControlLoop, LoopReport};
pub use replay::{replay, ReplayConfig, ReplayOutcome};
pub use sensor::{SensorConfig, SensorReading, ThresholdSensor};
pub use thresholds::{solve_thresholds, ControlError, SolveSetup, Thresholds};

/// Convenient re-exports for closed-loop experiments.
pub mod prelude {
    pub use crate::actuator::{ActuationScope, AsymmetricActuator};
    pub use crate::calibrate::calibrated_pdn;
    pub use crate::controller::{ControlAction, ThresholdController};
    pub use crate::lane::{LaneLoop, LaneOutcome};
    pub use crate::loopsim::{ControlLoop, LoopReport};
    pub use crate::replay::{replay, ReplayConfig, ReplayOutcome};
    pub use crate::sensor::{SensorConfig, SensorReading, ThresholdSensor};
    pub use crate::thresholds::{solve_thresholds, ControlError, SolveSetup, Thresholds};
}

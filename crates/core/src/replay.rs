//! Replay a current-demand trace through any supply network under
//! threshold control — without a CPU in the loop.
//!
//! This is the analytic harness the worst-case threshold solver is built
//! on, exposed as a public API: given a per-cycle *demand* trace (what the
//! program wants to draw), a [`Supply`] implementation (the second-order
//! model, the detailed ladder, a measured convolution kernel, …), and an
//! actuation [`Leverage`], [`replay`] simulates the sensed-threshold
//! control law and reports the voltage envelope and actuation effort.
//!
//! Uses:
//!
//! * fast design-space exploration over recorded workload traces (no
//!   cycle-level simulation needed once a trace exists);
//! * validating thresholds solved on an abstraction against a more
//!   detailed network (`ablation_ladder`);
//! * the solver's worst-case adversary itself
//!   ([`crate::thresholds::solve_thresholds`]).

use crate::actuator::Leverage;
use crate::thresholds::Thresholds;
use std::collections::VecDeque;
use voltctl_pdn::{PdnModel, PdnState, Supply};
use voltctl_trace::EmergencyCapture;

/// Configuration of a replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Controller thresholds; `None` replays uncontrolled.
    pub thresholds: Option<Thresholds>,
    /// Actuation strength (ignored when uncontrolled).
    pub leverage: Leverage,
    /// Sensor delay in cycles.
    pub delay_cycles: u32,
    /// Optional per-cycle slew limit (amps/cycle) applied to the demand —
    /// models the pipeline's fill/drain ramp. `None` = unlimited.
    pub slew_limit: Option<f64>,
    /// The demand's sustained maximum (amps): where the actuation ceiling
    /// decays *from* when Reduce engages.
    pub i_max: f64,
    /// The demand's sustained minimum (amps): where the actuation floor
    /// decays *from* when Increase engages, and the regulation point.
    pub i_min: f64,
}

/// Result envelope of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Lowest die voltage seen (volts).
    pub min_v: f64,
    /// Highest die voltage seen (volts).
    pub max_v: f64,
    /// Cycles with the Reduce clamp engaged.
    pub reduce_cycles: u64,
    /// Cycles with the Increase clamp engaged.
    pub increase_cycles: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Replays `demand` (amps per cycle) through `supply` under the configured
/// control law. The supply should already be regulated (reference current
/// set); `config.i_min` is used only for the actuation-decay envelope.
pub fn replay<S: Supply>(
    supply: &mut S,
    demand: impl IntoIterator<Item = f64>,
    config: &ReplayConfig,
) -> ReplayOutcome {
    let v_nom = supply.nominal();
    let mut sensed: VecDeque<f64> =
        std::iter::repeat_n(v_nom, config.delay_cycles as usize).collect();
    let mut v = v_nom;
    let mut min_v = v_nom;
    let mut max_v = v_nom;
    let mut reduce_time = 0u64;
    let mut increase_time = 0u64;
    let mut reduce_cycles = 0u64;
    let mut increase_cycles = 0u64;
    let mut cycles = 0u64;
    let mut prev_i = config.i_min;

    for want in demand {
        sensed.push_back(v);
        let seen = sensed.pop_front().unwrap_or(v);

        if let Some(t) = config.thresholds {
            if seen < t.v_low {
                reduce_time += 1;
                increase_time = 0;
            } else if seen > t.v_high {
                increase_time += 1;
                reduce_time = 0;
            } else {
                reduce_time = 0;
                increase_time = 0;
            }
        }

        let mut i = match config.slew_limit {
            Some(slew) => prev_i + (want - prev_i).clamp(-slew, slew),
            None => want,
        };

        if reduce_time > 0 {
            reduce_cycles += 1;
            let ceiling = decay(
                config.i_max,
                config.leverage.reduce_floor_amps,
                reduce_time,
                config.leverage.settle_cycles,
            );
            i = i.min(ceiling);
        } else if increase_time > 0 {
            increase_cycles += 1;
            let floor = decay(
                config.i_min,
                config.leverage.increase_ceiling_amps,
                increase_time,
                1,
            );
            i = i.max(floor);
        }

        prev_i = i;
        v = supply.step_supply(i);
        min_v = min_v.min(v);
        max_v = max_v.max(v);
        cycles += 1;
    }
    ReplayOutcome {
        min_v,
        max_v,
        reduce_cycles,
        increase_cycles,
        cycles,
    }
}

/// Turns a flight-recorder [`EmergencyCapture`] back into a live supply
/// stepper positioned at the capture's second record — a time-travel
/// checkpoint for debugging an emergency after the fact.
///
/// The capture logs only observables (per-cycle current and voltage); the
/// supply's hidden inductor state is recovered from the first two records
/// via [`PdnState::reconstruct`]. Feeding the remaining recorded currents
/// to the returned stepper reproduces the remaining recorded voltages to
/// numerical conditioning (~1e-9 V, not bitwise — reconstruction divides
/// through the discretized dynamics), and from there the investigator can
/// diverge: replay the same window against different thresholds, inject a
/// different actuation response, or hand the state to
/// [`replay`] for what-if control sweeps.
///
/// `model` and `i_ref` must be the supply model and regulation point the
/// capturing run used. Returns `None` when the capture holds fewer than
/// two records (no pre-window to reconstruct from) or the model's
/// discretization makes the hidden state unobservable (degenerate for
/// physical RLC parameters).
pub fn capture_checkpoint(
    model: &PdnModel,
    capture: &EmergencyCapture,
    i_ref: f64,
) -> Option<PdnState> {
    let prev = capture.records.first()?;
    let now = capture.records.get(1)?;
    let v_nom = model.v_nominal();
    PdnState::reconstruct(
        model,
        prev.voltage - v_nom,
        now.voltage - v_nom,
        now.current,
        i_ref,
    )
}

/// Exponential approach from `from` toward `to` after `t` engaged cycles
/// with time constant `settle` (instant when `settle == 0`).
pub(crate) fn decay(from: f64, to: f64, t: u64, settle: u64) -> f64 {
    if settle == 0 {
        return to;
    }
    let frac = (-(t as f64) / settle as f64).exp();
    to + (from - to) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ActuationScope;
    use voltctl_pdn::{waveform, PdnModel};
    use voltctl_power::{PowerModel, PowerParams};

    fn harness() -> (PdnModel, PowerModel) {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        let delta = power.achievable_peak_current() - power.min_current();
        (
            base.calibrated_target(delta).unwrap().scaled(3.0).unwrap(),
            power,
        )
    }

    fn config(power: &PowerModel, thresholds: Option<Thresholds>) -> ReplayConfig {
        ReplayConfig {
            thresholds,
            leverage: ActuationScope::FuDl1Il1.leverage(power),
            delay_cycles: 1,
            slew_limit: None,
            i_max: power.achievable_peak_current(),
            i_min: power.min_current(),
        }
    }

    #[test]
    fn uncontrolled_replay_reports_the_envelope() {
        let (pdn, power) = harness();
        let mut supply = pdn.discretize();
        supply.set_reference_current(power.min_current());
        let demand = waveform::square_wave(
            power.min_current(),
            power.achievable_peak_current(),
            pdn.resonant_period_cycles(),
            3000,
        );
        let out = replay(&mut supply, demand, &config(&power, None));
        assert_eq!(out.cycles, 3000);
        assert_eq!(out.reduce_cycles + out.increase_cycles, 0);
        assert!(out.min_v < 0.95, "300% impedance must violate uncontrolled");
        assert!(out.max_v > pdn.v_nominal());
    }

    #[test]
    fn control_clamps_the_same_demand() {
        let (pdn, power) = harness();
        let thresholds = Thresholds {
            v_low: 0.975,
            v_high: 1.025,
        };
        let demand = waveform::square_wave(
            power.min_current(),
            power.achievable_peak_current(),
            pdn.resonant_period_cycles(),
            3000,
        );
        let mut supply = pdn.discretize();
        supply.set_reference_current(power.min_current());
        let out = replay(&mut supply, demand, &config(&power, Some(thresholds)));
        assert!(out.reduce_cycles > 0, "the clamp must engage");
        assert!(
            out.min_v >= 0.95,
            "control must hold the spec: min {}",
            out.min_v
        );
    }

    #[test]
    fn slew_limit_softens_the_transient() {
        let (pdn, power) = harness();
        let demand = || {
            waveform::square_wave(
                power.min_current(),
                power.achievable_peak_current(),
                pdn.resonant_period_cycles(),
                2000,
            )
        };
        let mut cfg = config(&power, None);
        let mut supply = pdn.discretize();
        supply.set_reference_current(power.min_current());
        let hard = replay(&mut supply, demand(), &cfg);

        cfg.slew_limit = Some((cfg.i_max - cfg.i_min) / 8.0);
        let mut supply = pdn.discretize();
        supply.set_reference_current(power.min_current());
        let soft = replay(&mut supply, demand(), &cfg);
        assert!(
            soft.min_v > hard.min_v,
            "slew limiting must reduce the swing"
        );
    }

    #[test]
    fn capture_checkpoint_replays_the_recorded_emergency() {
        use crate::calibrate::calibrated_pdn;
        use crate::loopsim::ControlLoop;
        use voltctl_isa::builder::ProgramBuilder;
        use voltctl_isa::reg::IntReg;
        use voltctl_trace::FlightRecorder;

        // A divide/burst oscillator at high impedance: emergencies occur
        // uncontrolled, so the flight recorder freezes captures.
        let mut b = ProgramBuilder::new("osc");
        b.data_f64(0x40000, &[1.0, 1.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x40000);
        b.ldt(voltctl_isa::FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 1);
        b.label("top");
        b.ldt(voltctl_isa::FpReg::F1, 0, IntReg::R4);
        b.divt(
            voltctl_isa::FpReg::F3,
            voltctl_isa::FpReg::F1,
            voltctl_isa::FpReg::F2,
        );
        for k in 0..120 {
            if k % 2 == 0 {
                b.xor(IntReg::R8, IntReg::R3, IntReg::R3);
            } else {
                b.stq(IntReg::R3, 64 + ((k as i64 * 8) % 56), IntReg::R4);
            }
        }
        b.bne(IntReg::R1, "top");
        let program = b.build().unwrap();

        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 4.0).unwrap();
        let mut flight = FlightRecorder::new(16);
        let mut sim = ControlLoop::builder(program)
            .power(power.clone())
            .pdn(pdn.clone())
            .tracer(&mut flight)
            .build()
            .unwrap();
        sim.step_n(30_000);
        drop(sim);
        let cell = flight.to_cell("osc");
        assert!(
            !cell.captures.is_empty(),
            "the run must capture emergencies"
        );

        // Every capture with a pre-window converts back into a stepper
        // that reproduces the rest of the recorded voltage trajectory.
        let mut verified = 0;
        for cap in cell.captures.iter().filter(|c| c.records.len() > 2) {
            let mut state = capture_checkpoint(&pdn, cap, power.min_current())
                .expect("physical RLC parameters are observable");
            for (k, rec) in cap.records.iter().enumerate().skip(2) {
                let v = state.step(rec.current);
                assert!(
                    (v - rec.voltage).abs() < 1e-9,
                    "capture @{} record {k}: replayed {v} vs recorded {}",
                    cap.crossing_cycle,
                    rec.voltage
                );
            }
            verified += 1;
        }
        assert!(verified > 0, "at least one capture must have a window");

        // A capture with fewer than two records cannot be reconstructed.
        let stub = EmergencyCapture {
            records: cap_first_record(&cell.captures[0]),
            ..cell.captures[0].clone()
        };
        assert!(capture_checkpoint(&pdn, &stub, power.min_current()).is_none());
    }

    fn cap_first_record(cap: &EmergencyCapture) -> Vec<voltctl_trace::CycleRecord> {
        vec![cap.records[0]]
    }

    #[test]
    fn works_on_the_ladder_supply() {
        let (_, power) = harness();
        let ladder = voltctl_pdn::ladder::LadderModel::typical_three_stage();
        let mut supply = ladder.discretize();
        supply.set_reference_current(power.min_current());
        let demand = waveform::square_wave(power.min_current(), 50.0, 60, 1200);
        let out = replay(&mut supply, demand, &config(&power, None));
        assert!(out.min_v < ladder.v_nominal());
        assert_eq!(out.cycles, 1200);
    }
}

//! The control-theoretic threshold solver (§4.3, Table 3).
//!
//! The paper's design flow: model the supply network, construct the true
//! worst-case current waveform (a full-swing square train at the package
//! resonance), then solve — in MATLAB/Simulink — for the highest/lowest
//! sensor thresholds that *guarantee* the supply never leaves its ±5%
//! specification given the sensor delay and the actuator's strength. We
//! reproduce that flow with direct worst-case closed-loop simulation plus
//! bisection.
//!
//! The worst-case plant is adversarial: an attacker program drives the
//! largest possible current square wave at the resonant frequency. The
//! controller senses with `delay` cycles of lag; when it engages, the
//! actuator clamps the current the machine can draw toward the scope's
//! [`Leverage`]: units inside the scope clamp immediately, units outside
//! it quiesce only as the pipeline backs up (the scope's settle time).
//! Weak scopes (FU-only) leave the adversary enough residual swing, for
//! long enough, that **no** threshold keeps the supply in specification —
//! the solver reports [`ControlError::Unstable`], reproducing the paper's
//! finding that FU-only control fails at higher sensor delays.

use crate::actuator::Leverage;
use crate::replay::{replay, ReplayConfig};
use std::fmt;
use voltctl_pdn::PdnModel;

/// A solved threshold pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Undershoot trigger (volts).
    pub v_low: f64,
    /// Overshoot trigger (volts).
    pub v_high: f64,
}

impl Thresholds {
    /// The safe operating window in millivolts (Table 3's last column).
    pub fn window_mv(&self) -> f64 {
        (self.v_high - self.v_low) * 1000.0
    }

    /// Compensates for sensor error as the paper prescribes (§4.5): raise
    /// the low threshold and lower the high threshold by the error bound.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Infeasible`] when the error consumes the
    /// whole window.
    pub fn tightened(&self, error_mv: f64) -> Result<Thresholds, ControlError> {
        let e = error_mv / 1000.0;
        let t = Thresholds {
            v_low: self.v_low + e,
            v_high: self.v_high - e,
        };
        if t.v_low >= t.v_high {
            return Err(ControlError::Infeasible(format!(
                "sensor error {error_mv} mV consumes the entire {:.0} mV window",
                self.window_mv()
            )));
        }
        Ok(t)
    }
}

/// Errors from the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// No threshold exists: the actuation scope cannot arrest the
    /// worst-case swing at this impedance and delay.
    Unstable {
        /// Sensor delay at which stability was lost (cycles).
        delay_cycles: u32,
    },
    /// The requested configuration is self-contradictory.
    Infeasible(String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Unstable { delay_cycles } => write!(
                f,
                "no safe threshold exists at sensor delay {delay_cycles}: actuation leverage insufficient"
            ),
            ControlError::Infeasible(why) => write!(f, "infeasible configuration: {why}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// Inputs to the solver.
#[derive(Debug, Clone)]
pub struct SolveSetup<'a> {
    /// The supply network under design.
    pub pdn: &'a PdnModel,
    /// The machine's minimum sustained current (amps).
    pub i_min: f64,
    /// The machine's maximum sustained current (amps).
    pub i_max: f64,
    /// The actuation scope's current leverage.
    pub leverage: Leverage,
    /// Sensor delay in cycles.
    pub delay_cycles: u32,
    /// Worst-case simulation length in cycles.
    pub sim_cycles: u64,
    /// Maximum per-cycle current change the plant can produce, amps/cycle.
    /// Real pipelines ramp over a few cycles as stages fill and drain —
    /// the same observation behind the paper's multi-cycle energy
    /// spreading fix to Wattch ("avoids the overestimation of current
    /// swings"). Defaults to a third of the full swing per cycle.
    pub slew_limit: f64,
}

impl<'a> SolveSetup<'a> {
    /// A setup with the default simulation length.
    pub fn new(
        pdn: &'a PdnModel,
        i_min: f64,
        i_max: f64,
        leverage: Leverage,
        delay_cycles: u32,
    ) -> SolveSetup<'a> {
        SolveSetup {
            pdn,
            i_min,
            i_max,
            leverage,
            delay_cycles,
            sim_cycles: 6_000,
            slew_limit: (i_max - i_min) / 3.0,
        }
    }
}

/// The worst-case closed-loop plant used for both solves.
struct WorstCase<'a> {
    setup: &'a SolveSetup<'a>,
    period: usize,
}

/// Extremes of the supply voltage over a worst-case run.
#[derive(Debug, Clone, Copy)]
struct Extremes {
    min_v: f64,
    max_v: f64,
}

impl<'a> WorstCase<'a> {
    fn new(setup: &'a SolveSetup<'a>) -> WorstCase<'a> {
        WorstCase {
            setup,
            period: setup.pdn.resonant_period_cycles().max(2),
        }
    }

    /// Runs the adversary against the controller with the given
    /// (possibly infinite) thresholds and returns the voltage extremes.
    fn run(&self, v_low: f64, v_high: f64) -> Extremes {
        let s = self.setup;
        let mut supply = s.pdn.discretize();
        supply.set_reference_current(s.i_min);
        let half = self.period / 2;
        let period = self.period;
        let demand = (0..s.sim_cycles).map(move |t| {
            if (t as usize) % period < half {
                s.i_max
            } else {
                s.i_min
            }
        });
        let out = replay(
            &mut supply,
            demand,
            &ReplayConfig {
                thresholds: Some(Thresholds { v_low, v_high }),
                leverage: s.leverage,
                delay_cycles: s.delay_cycles,
                slew_limit: Some(s.slew_limit),
                i_max: s.i_max,
                i_min: s.i_min,
            },
        );
        Extremes {
            min_v: out.min_v,
            max_v: out.max_v,
        }
    }
}

/// Solves for the widest guaranteed-safe threshold window (Table 3).
///
/// The low threshold is solved first against the undershoot worst case
/// (with the high side disabled — conservative), then the high threshold
/// against the overshoot worst case with the solved low side active.
///
/// # Errors
///
/// [`ControlError::Unstable`] when no low threshold keeps the supply above
/// specification (the scope's leverage is insufficient at this delay and
/// impedance); [`ControlError::Infeasible`] for contradictory inputs.
pub fn solve_thresholds(setup: &SolveSetup<'_>) -> Result<Thresholds, ControlError> {
    if !(setup.i_min.is_finite() && setup.i_max.is_finite() && setup.i_min < setup.i_max) {
        return Err(ControlError::Infeasible(
            "need i_min < i_max, both finite".into(),
        ));
    }
    let v_nom = setup.pdn.v_nominal();
    let v_min_spec = v_nom * (1.0 - setup.pdn.tolerance());
    let v_max_spec = v_nom * (1.0 + setup.pdn.tolerance());
    let plant = WorstCase::new(setup);

    // --- low side: find the lowest v_low that still guarantees spec ----
    let feasible_low = |v_low: f64| plant.run(v_low, f64::INFINITY).min_v >= v_min_spec;

    // The most conservative choice is just under nominal. If even that
    // fails, no threshold works: the scope is unstable here.
    let top = v_nom - 1e-4;
    if !feasible_low(top) {
        return Err(ControlError::Unstable {
            delay_cycles: setup.delay_cycles,
        });
    }
    let mut lo = v_min_spec;
    let mut hi = top;
    if feasible_low(lo) {
        hi = lo;
    } else {
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if feasible_low(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }
    let v_low = hi;

    // --- high side: highest v_high that still guarantees spec ----------
    let feasible_high = |v_high: f64| plant.run(v_low, v_high).max_v <= v_max_spec;
    let bottom = v_nom + 1e-4;
    if !feasible_high(bottom) {
        return Err(ControlError::Unstable {
            delay_cycles: setup.delay_cycles,
        });
    }
    let mut lo = bottom;
    let mut hi = v_max_spec;
    if feasible_high(hi) {
        lo = hi;
    } else {
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if feasible_high(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let v_high = lo;

    Ok(Thresholds { v_low, v_high })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ActuationScope;
    use crate::calibrate::calibrated_pdn;
    use voltctl_pdn::PdnModel;
    use voltctl_power::{PowerModel, PowerParams};

    fn harness(percent: f64) -> (PdnModel, PowerModel) {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        (calibrated_pdn(&base, &power, percent).unwrap(), power)
    }

    fn setup_for<'a>(
        pdn: &'a PdnModel,
        power: &PowerModel,
        scope: ActuationScope,
        delay: u32,
    ) -> SolveSetup<'a> {
        SolveSetup::new(
            pdn,
            power.min_current(),
            power.achievable_peak_current(),
            scope.leverage(power),
            delay,
        )
    }

    #[test]
    fn ideal_scope_solves_at_all_paper_delays() {
        let (pdn, power) = harness(2.0);
        for delay in 0..=6 {
            let t = solve_thresholds(&setup_for(&pdn, &power, ActuationScope::Ideal, delay))
                .unwrap_or_else(|e| panic!("delay {delay}: {e}"));
            assert!(t.v_low >= 0.95 && t.v_low < 1.0, "delay {delay}: {t:?}");
            assert!(t.v_high > 1.0 && t.v_high <= 1.05, "delay {delay}: {t:?}");
        }
    }

    #[test]
    fn window_shrinks_with_delay() {
        let (pdn, power) = harness(2.0);
        let mut prev = f64::INFINITY;
        for delay in 0..=6 {
            let t =
                solve_thresholds(&setup_for(&pdn, &power, ActuationScope::Ideal, delay)).unwrap();
            assert!(
                t.window_mv() <= prev + 1e-6,
                "window must shrink: delay {delay} window {} prev {prev}",
                t.window_mv()
            );
            prev = t.window_mv();
        }
    }

    #[test]
    fn low_threshold_rises_with_delay() {
        let (pdn, power) = harness(2.0);
        let t0 = solve_thresholds(&setup_for(&pdn, &power, ActuationScope::Ideal, 0)).unwrap();
        let t6 = solve_thresholds(&setup_for(&pdn, &power, ActuationScope::Ideal, 6)).unwrap();
        assert!(t6.v_low > t0.v_low);
    }

    #[test]
    fn fu_only_goes_unstable_at_high_delay() {
        let (pdn, power) = harness(2.0);
        let mut first_unstable = None;
        for delay in 0..=6 {
            let r = solve_thresholds(&setup_for(&pdn, &power, ActuationScope::Fu, delay));
            if r.is_err() && first_unstable.is_none() {
                first_unstable = Some(delay);
            }
            if let Some(d) = first_unstable {
                assert!(
                    r.is_err(),
                    "once unstable at {d}, larger delay {delay} must stay unstable"
                );
            }
        }
        assert!(
            first_unstable.is_some(),
            "FU-only control must lose stability within the paper's delay range"
        );
    }

    #[test]
    fn coarse_scopes_stay_stable_through_delay_five() {
        let (pdn, power) = harness(2.0);
        for scope in [ActuationScope::FuDl1, ActuationScope::FuDl1Il1] {
            for delay in 0..=5 {
                solve_thresholds(&setup_for(&pdn, &power, scope, delay))
                    .unwrap_or_else(|e| panic!("{} delay {delay}: {e}", scope.name()));
            }
        }
    }

    #[test]
    fn tightened_compensates_error() {
        let t = Thresholds {
            v_low: 0.96,
            v_high: 1.02,
        };
        let tt = t.tightened(15.0).unwrap();
        assert!((tt.v_low - 0.975).abs() < 1e-12);
        assert!((tt.v_high - 1.005).abs() < 1e-12);
        assert!(t.tightened(40.0).is_err());
    }

    #[test]
    fn window_mv_reports_millivolts() {
        let t = Thresholds {
            v_low: 0.956,
            v_high: 1.017,
        };
        assert!((t.window_mv() - 61.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_inputs_rejected() {
        let (pdn, power) = harness(2.0);
        let mut s = setup_for(&pdn, &power, ActuationScope::Ideal, 0);
        s.i_min = s.i_max + 1.0;
        assert!(matches!(
            solve_thresholds(&s),
            Err(ControlError::Infeasible(_))
        ));
    }

    #[test]
    fn higher_impedance_narrows_the_window() {
        let (pdn2, power) = harness(2.0);
        let (pdn3, _) = harness(3.0);
        let t2 = solve_thresholds(&setup_for(&pdn2, &power, ActuationScope::Ideal, 2)).unwrap();
        let t3 = solve_thresholds(&setup_for(&pdn3, &power, ActuationScope::Ideal, 2)).unwrap();
        assert!(t3.window_mv() < t2.window_mv());
    }

    #[test]
    fn error_display_mentions_delay() {
        let e = ControlError::Unstable { delay_cycles: 4 };
        assert!(e.to_string().contains('4'));
    }
}

//! Target-impedance calibration (§3.3).
//!
//! The paper defines the **target impedance** as the peak impedance at
//! which the worst-case current swing produces exactly the allowed ±5%
//! deviation — emergencies are impossible at or below it *by definition*.
//! This module ties the power model's current envelope to the PDN fit:
//! [`calibrated_pdn`] produces the network at any "percent of target
//! impedance" (Table 2's sweep axis: 100%–400%).

use voltctl_pdn::{PdnError, PdnModel};
use voltctl_power::PowerModel;

/// Builds the supply network at `percent_of_target` (1.0 = exactly the
/// target impedance; 2.0 = the paper's cheaper 200% design point) for the
/// machine described by `power`, preserving `base`'s DC resistance,
/// resonant frequency, clock, and voltage parameters.
///
/// # Errors
///
/// Propagates fit errors from the underlying model (e.g. a current
/// envelope whose IR drop alone exceeds the voltage budget).
pub fn calibrated_pdn(
    base: &PdnModel,
    power: &PowerModel,
    percent_of_target: f64,
) -> Result<PdnModel, PdnError> {
    let target = base.calibrated_target(current_swing(power))?;
    target.scaled(percent_of_target)
}

/// The machine's worst-case *achievable* current swing (amps): saturated
/// pipeline minus the clock-gated floor. This is the envelope the paper
/// extracts "from the processor power model" for its worst-case analysis —
/// the structural sum-of-peaks is unreachable through a finite issue
/// width.
pub fn current_swing(power: &PowerModel) -> f64 {
    power.achievable_peak_current() - power.min_current()
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_power::PowerParams;

    #[test]
    fn target_impedance_admits_no_worst_case_emergency() {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        let at_target = calibrated_pdn(&base, &power, 1.0).unwrap();
        let dev = at_target.worst_case_deviation(current_swing(&power));
        assert!(dev <= at_target.tolerance_volts() * (1.0 + 1e-3));
    }

    #[test]
    fn double_impedance_doubles_worst_case() {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        let delta = current_swing(&power);
        let p100 = calibrated_pdn(&base, &power, 1.0).unwrap();
        let p200 = calibrated_pdn(&base, &power, 2.0).unwrap();
        let d100 = p100.worst_case_deviation(delta);
        let d200 = p200.worst_case_deviation(delta);
        // Deviation scales near-linearly with peak impedance (the DC-R
        // contribution is fixed, so slightly sub-linear).
        assert!(d200 > 1.6 * d100 && d200 < 2.2 * d100, "{d100} vs {d200}");
    }

    /// The standard machine's calibrated r/L/C, pinned bit for bit: any
    /// change to either bisection or to the fit shows up here.
    #[test]
    fn calibrated_rlc_bits_are_pinned() {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        // The swing `voltctl-pdn`'s fixpoint oracle calibrates at.
        assert_eq!(current_swing(&power), 44.718_75);
        let pins = [
            (1.0, 0x3d85d3c4988a6150, 0x3ed1203641efafdb),
            (1.5, 0x3d8b8e6243981746, 0x3ecb2174ee8d5040),
            (2.0, 0x3d902553842e4c53, 0x3ec726ef8cba98a1),
            (3.0, 0x3d94107a2f666019, 0x3ec2a1689ab76475),
            (4.0, 0x3d97561c7e61e622, 0x3ec004afce16ae9a),
        ];
        for (percent, l, c) in pins {
            let m = calibrated_pdn(&base, &power, percent).unwrap();
            let bits = [m.r_dc(), m.inductance(), m.capacitance()].map(f64::to_bits);
            assert_eq!(bits, [0x3f40624dd2f1a9fc, l, c], "{percent}");
        }
    }

    #[test]
    fn preserves_base_parameters() {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let base = PdnModel::paper_default().unwrap();
        let cal = calibrated_pdn(&base, &power, 2.0).unwrap();
        assert!((cal.r_dc() - base.r_dc()).abs() < 1e-15);
        assert!(
            (cal.resonant_freq_hz() - base.resonant_freq_hz()).abs() / base.resonant_freq_hz()
                < 1e-6
        );
        assert_eq!(cal.v_nominal(), base.v_nominal());
    }
}

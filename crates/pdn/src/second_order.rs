//! The second-order linear model of a processor power supply network.
//!
//! The model follows the early-design-stage methodology the paper adopts
//! from Herrell & Beker: the network seen by the die is a series R-L supply
//! path (regulator to die) decoupled by a lumped on-die/package capacitance.
//! The load (the processor) draws a time-varying current `i(t)`; the die
//! voltage `v(t)` rings according to the underdamped second-order dynamics
//!
//! ```text
//!   Z(s) = (R + sL) / (s^2 LC + s RC + 1)
//! ```
//!
//! Three externally meaningful parameters pin the model down:
//!
//! * **DC resistance** `R` — the IR-drop slope (0.5 mOhm in the paper),
//! * **resonant frequency** `f0 = 1/(2 pi sqrt(LC))` — the mid-frequency
//!   package resonance (50 MHz in the paper),
//! * **peak impedance** `Z_pk = max_w |Z(jw)|` — the quantity the "target
//!   impedance" design rule constrains.
//!
//! [`PdnModel`] fits `L` and `C` from those three numbers, exposes the
//! analytic frequency-domain quantities, and produces the exact
//! zero-order-hold discretization used for per-cycle simulation.

use crate::state_space::PdnState;
use crate::{CLOCK_HZ, RESONANT_HZ, R_DC, TOLERANCE, V_NOMINAL};
use std::fmt;

/// Errors produced when constructing or calibrating a [`PdnModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum PdnError {
    /// A physical parameter was non-positive, NaN, or otherwise outside its
    /// meaningful domain. The payload names the parameter.
    InvalidParameter(&'static str),
    /// The requested peak impedance is not achievable: it must strictly
    /// exceed the DC resistance for an underdamped fit to exist.
    PeakBelowDc {
        /// Requested peak impedance (ohms).
        peak: f64,
        /// DC resistance (ohms).
        r_dc: f64,
    },
    /// The numeric fit failed to converge (pathological parameters).
    FitFailed,
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::InvalidParameter(name) => {
                write!(f, "invalid model parameter: {name}")
            }
            PdnError::PeakBelowDc { peak, r_dc } => write!(
                f,
                "peak impedance {peak:.3e} ohm must exceed DC resistance {r_dc:.3e} ohm"
            ),
            PdnError::FitFailed => write!(f, "model fit failed to converge"),
        }
    }
}

impl std::error::Error for PdnError {}

/// A calibrated second-order model of a power delivery network.
///
/// Construct with [`PdnModel::builder`] (fit from R/f0/Z_pk) or
/// [`PdnModel::from_rlc`] (explicit element values). All getters are cheap;
/// the discretization is computed once per call to
/// [`discretize`](PdnModel::discretize).
///
/// # Example
///
/// ```
/// use voltctl_pdn::PdnModel;
///
/// # fn main() -> Result<(), voltctl_pdn::PdnError> {
/// let m = PdnModel::paper_default()?;
/// assert!((m.resonant_freq_hz() - 50.0e6).abs() / 50.0e6 < 1e-6);
/// assert!(m.q_factor() > 1.0); // underdamped: ringing is real
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PdnModel {
    r: f64,
    l: f64,
    c: f64,
    clock_hz: f64,
    v_nominal: f64,
    tolerance: f64,
}

/// Builder for [`PdnModel`]. See [`PdnModel::builder`].
#[derive(Debug, Clone)]
pub struct PdnModelBuilder {
    r_dc: f64,
    resonant_freq_hz: f64,
    peak_impedance: f64,
    clock_hz: f64,
    v_nominal: f64,
    tolerance: f64,
}

impl Default for PdnModelBuilder {
    fn default() -> Self {
        PdnModelBuilder {
            r_dc: R_DC,
            resonant_freq_hz: RESONANT_HZ,
            peak_impedance: 2.0e-3,
            clock_hz: CLOCK_HZ,
            v_nominal: V_NOMINAL,
            tolerance: TOLERANCE,
        }
    }
}

impl PdnModelBuilder {
    /// Sets the DC (series) resistance in ohms.
    pub fn r_dc(&mut self, ohms: f64) -> &mut Self {
        self.r_dc = ohms;
        self
    }

    /// Sets the package resonant frequency in hertz.
    pub fn resonant_freq_hz(&mut self, hz: f64) -> &mut Self {
        self.resonant_freq_hz = hz;
        self
    }

    /// Sets the peak impedance `max |Z(jw)|` in ohms.
    pub fn peak_impedance(&mut self, ohms: f64) -> &mut Self {
        self.peak_impedance = ohms;
        self
    }

    /// Sets the CPU clock in hertz (the discretization step is one cycle).
    pub fn clock_hz(&mut self, hz: f64) -> &mut Self {
        self.clock_hz = hz;
        self
    }

    /// Sets the nominal supply voltage in volts.
    pub fn v_nominal(&mut self, volts: f64) -> &mut Self {
        self.v_nominal = volts;
        self
    }

    /// Sets the allowed relative supply deviation (0.05 = +/-5%).
    pub fn tolerance(&mut self, fraction: f64) -> &mut Self {
        self.tolerance = fraction;
        self
    }

    /// Fits element values and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for non-positive inputs and
    /// [`PdnError::PeakBelowDc`] when the requested peak impedance does not
    /// exceed the DC resistance.
    pub fn build(&self) -> Result<PdnModel, PdnError> {
        if !(self.r_dc.is_finite() && self.r_dc > 0.0) {
            return Err(PdnError::InvalidParameter("r_dc"));
        }
        if !(self.resonant_freq_hz.is_finite() && self.resonant_freq_hz > 0.0) {
            return Err(PdnError::InvalidParameter("resonant_freq_hz"));
        }
        if !(self.peak_impedance.is_finite() && self.peak_impedance > 0.0) {
            return Err(PdnError::InvalidParameter("peak_impedance"));
        }
        if !(self.clock_hz.is_finite() && self.clock_hz > 2.0 * self.resonant_freq_hz) {
            return Err(PdnError::InvalidParameter("clock_hz"));
        }
        if !(self.v_nominal.is_finite() && self.v_nominal > 0.0) {
            return Err(PdnError::InvalidParameter("v_nominal"));
        }
        if !(self.tolerance.is_finite() && self.tolerance > 0.0 && self.tolerance < 1.0) {
            return Err(PdnError::InvalidParameter("tolerance"));
        }
        if self.peak_impedance <= self.r_dc {
            return Err(PdnError::PeakBelowDc {
                peak: self.peak_impedance,
                r_dc: self.r_dc,
            });
        }

        let omega0 = 2.0 * std::f64::consts::PI * self.resonant_freq_hz;
        // Parameterize by the characteristic impedance X = sqrt(L/C), which
        // fixes L = X / w0 and C = 1 / (X w0). Peak impedance is strictly
        // increasing in X, so bisection converges.
        let peak_for = |x: f64| -> f64 {
            let l = x / omega0;
            let c = 1.0 / (x * omega0);
            peak_impedance_numeric(self.r_dc, l, c, omega0)
        };

        let lo = self.r_dc * 1e-3;
        let mut hi = self.r_dc;
        // Grow hi until it brackets the requested peak.
        let mut guard = 0;
        while peak_for(hi) < self.peak_impedance {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                return Err(PdnError::FitFailed);
            }
        }
        // At most 200 halvings; the interval reaches adjacent floats after
        // ~53, and `bisect` stops at that exact fixpoint.
        let x = bisect(lo, hi, 200, |mid| {
            Ok::<_, PdnError>(peak_for(mid) < self.peak_impedance)
        })?;
        let l = x / omega0;
        let c = 1.0 / (x * omega0);

        let fitted = peak_for(x);
        if !fitted.is_finite() || (fitted - self.peak_impedance).abs() / self.peak_impedance > 1e-6
        {
            return Err(PdnError::FitFailed);
        }

        Ok(PdnModel {
            r: self.r_dc,
            l,
            c,
            clock_hz: self.clock_hz,
            v_nominal: self.v_nominal,
            tolerance: self.tolerance,
        })
    }
}

/// Bisects `[lo, hi]` with at most `steps` halvings and returns the final
/// midpoint. `below(mid)` is true when the root lies above `mid`.
///
/// Stops after a halving that leaves both ends bitwise unchanged. `mid`
/// then equals one end, so as long as `below` is pure, every later
/// halving computes the same `mid`, gets the same answer and changes
/// nothing: the result is bit-identical to running all `steps`.
fn bisect<E>(
    mut lo: f64,
    mut hi: f64,
    steps: usize,
    mut below: impl FnMut(f64) -> Result<bool, E>,
) -> Result<f64, E> {
    for _ in 0..steps {
        let (prev_lo, prev_hi) = (lo, hi);
        let mid = 0.5 * (lo + hi);
        if below(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
        if lo.to_bits() == prev_lo.to_bits() && hi.to_bits() == prev_hi.to_bits() {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Numerically locates `max_w |Z(jw)|` by dense log scan plus parabolic
/// refinement around the best sample.
fn peak_impedance_numeric(r: f64, l: f64, c: f64, omega_hint: f64) -> f64 {
    let mag = |w: f64| impedance_magnitude(r, l, c, w);
    let lo = omega_hint * 0.05;
    let hi = omega_hint * 5.0;
    let n = 4000;
    let log_lo = lo.ln();
    let step = (hi.ln() - log_lo) / n as f64;
    let mut best_w = lo;
    let mut best = mag(lo);
    for i in 0..=n {
        let w = (log_lo + step * i as f64).exp();
        let m = mag(w);
        if m > best {
            best = m;
            best_w = w;
        }
    }
    // Golden-section refinement around the best grid point.
    let mut a = best_w * (-2.0 * step).exp();
    let mut b = best_w * (2.0 * step).exp();
    let phi = 0.618_033_988_749_894_8;
    let mut c1 = b - phi * (b - a);
    let mut c2 = a + phi * (b - a);
    let mut f1 = mag(c1);
    let mut f2 = mag(c2);
    for _ in 0..120 {
        if f1 < f2 {
            a = c1;
            c1 = c2;
            f1 = f2;
            c2 = a + phi * (b - a);
            f2 = mag(c2);
        } else {
            b = c2;
            c2 = c1;
            f2 = f1;
            c1 = b - phi * (b - a);
            f1 = mag(c1);
        }
    }
    mag(0.5 * (a + b)).max(best)
}

/// `|Z(jw)|` for the series-RL / shunt-C network.
fn impedance_magnitude(r: f64, l: f64, c: f64, w: f64) -> f64 {
    // Z = (R + jwL) / ((1 - w^2 LC) + jwRC)
    let num_re = r;
    let num_im = w * l;
    let den_re = 1.0 - w * w * l * c;
    let den_im = w * r * c;
    ((num_re * num_re + num_im * num_im) / (den_re * den_re + den_im * den_im)).sqrt()
}

impl PdnModel {
    /// Starts building a model from (R, f0, Z_pk) design parameters.
    pub fn builder() -> PdnModelBuilder {
        PdnModelBuilder::default()
    }

    /// Constructs a model directly from element values.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when any element value or the
    /// clock is non-positive, or the clock undersamples the resonance.
    pub fn from_rlc(r: f64, l: f64, c: f64, clock_hz: f64) -> Result<PdnModel, PdnError> {
        if !(r.is_finite() && r > 0.0) {
            return Err(PdnError::InvalidParameter("r"));
        }
        if !(l.is_finite() && l > 0.0) {
            return Err(PdnError::InvalidParameter("l"));
        }
        if !(c.is_finite() && c > 0.0) {
            return Err(PdnError::InvalidParameter("c"));
        }
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        if !(clock_hz.is_finite() && clock_hz > 2.0 * f0) {
            return Err(PdnError::InvalidParameter("clock_hz"));
        }
        Ok(PdnModel {
            r,
            l,
            c,
            clock_hz,
            v_nominal: V_NOMINAL,
            tolerance: TOLERANCE,
        })
    }

    /// The paper's reference package: 0.5 mOhm DC resistance, 50 MHz
    /// resonance, 2 mOhm peak impedance, 3 GHz clock, 1.0 V nominal, 5%
    /// tolerance.
    ///
    /// # Errors
    ///
    /// Propagates fit errors (none for these constants in practice).
    pub fn paper_default() -> Result<PdnModel, PdnError> {
        PdnModel::builder().build()
    }

    /// DC (series) resistance in ohms.
    pub fn r_dc(&self) -> f64 {
        self.r
    }

    /// Fitted inductance in henries.
    pub fn inductance(&self) -> f64 {
        self.l
    }

    /// Fitted capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.c
    }

    /// CPU clock in hertz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Nominal supply voltage in volts.
    pub fn v_nominal(&self) -> f64 {
        self.v_nominal
    }

    /// Allowed relative deviation from nominal (e.g. 0.05 for +/-5%).
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Allowed absolute deviation from nominal in volts.
    pub fn tolerance_volts(&self) -> f64 {
        self.tolerance * self.v_nominal
    }

    /// Resonant frequency `1 / (2 pi sqrt(LC))` in hertz.
    pub fn resonant_freq_hz(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.l * self.c).sqrt())
    }

    /// Resonant period expressed in CPU clock cycles (60 cycles for the
    /// paper's 50 MHz resonance at 3 GHz).
    pub fn resonant_period_cycles(&self) -> usize {
        (self.clock_hz / self.resonant_freq_hz()).round() as usize
    }

    /// Characteristic impedance `sqrt(L/C)` in ohms.
    pub fn char_impedance(&self) -> f64 {
        (self.l / self.c).sqrt()
    }

    /// Quality factor `Q = sqrt(L/C) / R`.
    pub fn q_factor(&self) -> f64 {
        self.char_impedance() / self.r
    }

    /// Damping ratio `zeta = 1 / (2 Q)`; underdamped when < 1.
    pub fn damping_ratio(&self) -> f64 {
        1.0 / (2.0 * self.q_factor())
    }

    /// `|Z(j 2 pi f)|` in ohms at frequency `f_hz`.
    pub fn impedance_at(&self, f_hz: f64) -> f64 {
        impedance_magnitude(self.r, self.l, self.c, 2.0 * std::f64::consts::PI * f_hz)
    }

    /// Numerically computed peak impedance `max_f |Z|` in ohms.
    pub fn peak_impedance(&self) -> f64 {
        peak_impedance_numeric(
            self.r,
            self.l,
            self.c,
            2.0 * std::f64::consts::PI * self.resonant_freq_hz(),
        )
    }

    /// Returns a copy with the peak impedance scaled by `factor`,
    /// re-fitting L and C while preserving R, f0, clock, and voltage
    /// parameters. This is how the paper's "percent of target impedance"
    /// sweep (Table 2) is realized.
    ///
    /// # Errors
    ///
    /// Returns the underlying fit error when the scaled peak is infeasible
    /// (e.g. `factor` so small the peak falls below the DC resistance).
    pub fn scaled(&self, factor: f64) -> Result<PdnModel, PdnError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(PdnError::InvalidParameter("factor"));
        }
        PdnModel::builder()
            .r_dc(self.r)
            .resonant_freq_hz(self.resonant_freq_hz())
            .peak_impedance(self.peak_impedance() * factor)
            .clock_hz(self.clock_hz)
            .v_nominal(self.v_nominal)
            .tolerance(self.tolerance)
            .build()
    }

    /// Exact zero-order-hold discretization at one CPU cycle per step.
    ///
    /// The returned [`PdnState`] reports voltage relative to the regulation
    /// point: stepping it with a constant reference current yields exactly
    /// `v_nominal` in steady state.
    pub fn discretize(&self) -> PdnState {
        PdnState::new(self)
    }

    /// Steady-state worst-case voltage deviation (volts, absolute) under a
    /// full-swing square-wave current train of amplitude `delta_i` amps at
    /// the resonant frequency — the analytic worst case of Section 2.3.
    ///
    /// The train alternates between 0 and `delta_i` with 50% duty at the
    /// resonant period and is simulated until the per-period deviation
    /// envelope converges (or 400 periods).
    pub fn worst_case_deviation(&self, delta_i: f64) -> f64 {
        let period = self.resonant_period_cycles().max(2);
        let half = period / 2;
        let mut state = self.discretize();
        let mut worst = 0.0f64;
        let mut prev_period_worst = -1.0f64;
        for _period_idx in 0..400 {
            let mut this_period = 0.0f64;
            for k in 0..period {
                let i = if k < half { delta_i } else { 0.0 };
                let v = state.step(i);
                let dev = (v - self.v_nominal).abs();
                this_period = this_period.max(dev);
            }
            worst = worst.max(this_period);
            if (this_period - prev_period_worst).abs() < 1e-9 * self.v_nominal {
                break;
            }
            prev_period_worst = this_period;
        }
        worst
    }

    /// Calibrates a model to the paper's definition of **target impedance**:
    /// the peak impedance at which the analytic worst-case current swing of
    /// `delta_i` amps produces exactly the allowed deviation
    /// (`tolerance * v_nominal`). Emergencies are impossible at or below
    /// this impedance *by construction* (Table 2, leftmost column).
    ///
    /// # Errors
    ///
    /// Propagates construction errors; returns [`PdnError::FitFailed`] when
    /// no feasible peak exists for the given swing.
    pub fn calibrated_target(&self, delta_i: f64) -> Result<PdnModel, PdnError> {
        if !(delta_i.is_finite() && delta_i > 0.0) {
            return Err(PdnError::InvalidParameter("delta_i"));
        }
        let allowed = self.tolerance_volts();
        // The DC-only deviation already consumes R * delta_i; if that alone
        // exceeds the allowance no peak impedance works.
        if self.r * delta_i >= allowed {
            return Err(PdnError::FitFailed);
        }
        let dev_for = |z_pk: f64| -> Result<f64, PdnError> {
            let m = PdnModel::builder()
                .r_dc(self.r)
                .resonant_freq_hz(self.resonant_freq_hz())
                .peak_impedance(z_pk)
                .clock_hz(self.clock_hz)
                .v_nominal(self.v_nominal)
                .tolerance(self.tolerance)
                .build()?;
            Ok(m.worst_case_deviation(delta_i))
        };
        let lo = self.r * 1.001;
        let mut hi = self.r * 2.0;
        let mut guard = 0;
        while dev_for(hi)? < allowed {
            hi *= 2.0;
            guard += 1;
            if guard > 60 {
                return Err(PdnError::FitFailed);
            }
        }
        // At most 60 halvings, each a full model fit plus a steady-state
        // simulation; `bisect` stops at the exact fixpoint, which the
        // interval reaches after ~53.
        let z = bisect(lo, hi, 60, |mid| Ok(dev_for(mid)? < allowed))?;
        PdnModel::builder()
            .r_dc(self.r)
            .resonant_freq_hz(self.resonant_freq_hz())
            .peak_impedance(z)
            .clock_hz(self.clock_hz)
            .v_nominal(self.v_nominal)
            .tolerance(self.tolerance)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_spec() {
        let m = PdnModel::paper_default().unwrap();
        assert!((m.r_dc() - 0.5e-3).abs() < 1e-12);
        assert!((m.resonant_freq_hz() - 50.0e6).abs() / 50.0e6 < 1e-9);
        assert!((m.peak_impedance() - 2.0e-3).abs() / 2.0e-3 < 1e-5);
        assert_eq!(m.resonant_period_cycles(), 60);
    }

    #[test]
    fn dc_impedance_equals_r() {
        let m = PdnModel::paper_default().unwrap();
        assert!((m.impedance_at(1.0) - m.r_dc()).abs() / m.r_dc() < 1e-6);
    }

    #[test]
    fn impedance_peaks_near_resonance() {
        let m = PdnModel::paper_default().unwrap();
        let at_res = m.impedance_at(m.resonant_freq_hz());
        let peak = m.peak_impedance();
        // The peak of this transfer function sits close to (slightly off) f0.
        assert!(at_res > 0.8 * peak);
        assert!(m.impedance_at(m.resonant_freq_hz() * 10.0) < 0.5 * peak);
        assert!(m.impedance_at(m.resonant_freq_hz() * 0.1) < 0.5 * peak);
    }

    #[test]
    fn underdamped_for_paper_parameters() {
        let m = PdnModel::paper_default().unwrap();
        assert!(m.damping_ratio() < 1.0);
        assert!(m.q_factor() > 1.0);
    }

    #[test]
    fn scaled_doubles_peak() {
        let m = PdnModel::paper_default().unwrap();
        let m2 = m.scaled(2.0).unwrap();
        assert!((m2.peak_impedance() - 2.0 * m.peak_impedance()).abs() / m.peak_impedance() < 1e-4);
        // R and f0 preserved.
        assert!((m2.r_dc() - m.r_dc()).abs() < 1e-15);
        assert!((m2.resonant_freq_hz() - m.resonant_freq_hz()).abs() / m.resonant_freq_hz() < 1e-6);
    }

    #[test]
    fn rejects_peak_below_dc() {
        let err = PdnModel::builder()
            .r_dc(1e-3)
            .peak_impedance(0.5e-3)
            .build()
            .unwrap_err();
        assert!(matches!(err, PdnError::PeakBelowDc { .. }));
    }

    #[test]
    fn rejects_nonpositive_parameters() {
        assert!(PdnModel::builder().r_dc(0.0).build().is_err());
        assert!(PdnModel::builder().resonant_freq_hz(-1.0).build().is_err());
        assert!(PdnModel::builder().clock_hz(1.0).build().is_err());
        assert!(PdnModel::from_rlc(0.0, 1e-9, 1e-6, 3e9).is_err());
    }

    #[test]
    fn worst_case_deviation_scales_linearly() {
        let m = PdnModel::paper_default().unwrap();
        let d1 = m.worst_case_deviation(10.0);
        let d2 = m.worst_case_deviation(20.0);
        assert!(
            (d2 - 2.0 * d1).abs() / d1 < 1e-6,
            "LTI system must be linear"
        );
    }

    #[test]
    fn worst_case_exceeds_single_step() {
        // Resonance build-up: the sustained train must be worse than the
        // response to one isolated step of the same height.
        let m = PdnModel::paper_default().unwrap();
        let delta_i = 30.0;
        let mut state = m.discretize();
        let mut single_worst = 0.0f64;
        for k in 0..2000 {
            let i = if k < 30 { delta_i } else { 0.0 };
            let v = state.step(i);
            single_worst = single_worst.max((v - m.v_nominal()).abs());
        }
        assert!(m.worst_case_deviation(delta_i) > single_worst * 1.05);
    }

    #[test]
    fn calibrated_target_hits_tolerance() {
        let m = PdnModel::paper_default().unwrap();
        let delta_i = 45.0;
        let cal = m.calibrated_target(delta_i).unwrap();
        let dev = cal.worst_case_deviation(delta_i);
        let allowed = cal.tolerance_volts();
        assert!(
            (dev - allowed).abs() / allowed < 1e-3,
            "worst case {dev} vs allowed {allowed}"
        );
    }

    /// `build`'s fit with all 200 halvings and no early exit: the oracle
    /// for `bisect`'s fixpoint stop. Returns the fitted (L, C), or `None`
    /// where the fit misses the requested peak.
    fn fixed_step_fit(r_dc: f64, f0: f64, peak: f64) -> Option<(f64, f64)> {
        let omega0 = 2.0 * std::f64::consts::PI * f0;
        let peak_for =
            |x: f64| peak_impedance_numeric(r_dc, x / omega0, 1.0 / (x * omega0), omega0);
        let mut lo = r_dc * 1e-3;
        let mut hi = r_dc;
        while peak_for(hi) < peak {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if peak_for(mid) < peak {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let x = 0.5 * (lo + hi);
        ((peak_for(x) - peak).abs() / peak <= 1e-6).then(|| (x / omega0, 1.0 / (x * omega0)))
    }

    #[test]
    fn fixpoint_exit_fits_bit_identical_models() {
        for (r_dc, f0) in [(R_DC, RESONANT_HZ), (0.3e-3, 80.0e6)] {
            for k in 0..40 {
                // 0.6 to 20 mOhm, log-spaced.
                let peak = 0.6e-3 * (20.0f64 / 0.6).powf(k as f64 / 39.0);
                let built = PdnModel::builder()
                    .r_dc(r_dc)
                    .resonant_freq_hz(f0)
                    .peak_impedance(peak)
                    .build()
                    .map(|m| (m.inductance().to_bits(), m.capacitance().to_bits()))
                    .ok();
                let fixed = fixed_step_fit(r_dc, f0, peak).map(|(l, c)| (l.to_bits(), c.to_bits()));
                assert!(built.is_some(), "r_dc {r_dc}, peak {peak}: fit failed");
                assert_eq!(built, fixed, "r_dc {r_dc}, f0 {f0}, peak {peak}");
            }
        }
    }

    /// `calibrated_target` with all 60 outer halvings and no early exit.
    fn fixed_step_target(base: &PdnModel, delta_i: f64) -> PdnModel {
        let fit = |z_pk: f64| {
            PdnModel::builder()
                .r_dc(base.r_dc())
                .resonant_freq_hz(base.resonant_freq_hz())
                .peak_impedance(z_pk)
                .clock_hz(base.clock_hz())
                .v_nominal(base.v_nominal())
                .tolerance(base.tolerance())
                .build()
                .unwrap()
        };
        let allowed = base.tolerance_volts();
        let mut lo = base.r_dc() * 1.001;
        let mut hi = base.r_dc() * 2.0;
        while fit(hi).worst_case_deviation(delta_i) < allowed {
            hi *= 2.0;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if fit(mid).worst_case_deviation(delta_i) < allowed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        fit(0.5 * (lo + hi))
    }

    #[test]
    fn fixpoint_exit_calibrates_bit_identical_targets() {
        let base = PdnModel::paper_default().unwrap();
        // 44.71875 A is the standard machine's swing
        // (`voltctl_core::calibrate::current_swing`, pinned there).
        for delta_i in [45.0, 44.718_75] {
            let bits = |m: &PdnModel| [m.r_dc(), m.inductance(), m.capacitance()].map(f64::to_bits);
            let early = base.calibrated_target(delta_i).unwrap();
            let fixed = fixed_step_target(&base, delta_i);
            assert_eq!(bits(&early), bits(&fixed), "delta_i {delta_i}");
        }
    }

    #[test]
    fn calibration_fails_when_ir_drop_alone_exceeds_budget() {
        let m = PdnModel::builder()
            .r_dc(2.0e-3)
            .peak_impedance(4.0e-3)
            .build()
            .unwrap();
        // 2 mOhm * 40 A = 80 mV > 50 mV allowance.
        assert_eq!(m.calibrated_target(40.0).unwrap_err(), PdnError::FitFailed);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = PdnError::PeakBelowDc {
            peak: 1e-4,
            r_dc: 5e-4,
        };
        let msg = format!("{e}");
        assert!(msg.contains("peak impedance"));
        assert!(!format!("{:?}", PdnError::FitFailed).is_empty());
    }
}

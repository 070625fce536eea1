//! The [`Supply`] abstraction: anything that turns a per-cycle load
//! current into a per-cycle die voltage.
//!
//! The second-order stepper ([`crate::PdnState`]) and the detailed ladder
//! network ([`crate::ladder::LadderState`]) both implement it, so
//! controllers and replay harnesses can be written once and validated
//! against either level of supply-network detail.

use crate::ladder::LadderState;
use crate::state_space::PdnState;

/// A per-cycle current → voltage supply network.
pub trait Supply {
    /// Advances one CPU cycle with `i_load` amps; returns the die voltage.
    fn step_supply(&mut self, i_load: f64) -> f64;
    /// The nominal supply voltage in volts.
    fn nominal(&self) -> f64;
}

impl Supply for PdnState {
    fn step_supply(&mut self, i_load: f64) -> f64 {
        self.step(i_load)
    }

    fn nominal(&self) -> f64 {
        self.voltage_nominal()
    }
}

impl Supply for LadderState {
    fn step_supply(&mut self, i_load: f64) -> f64 {
        self.step(i_load)
    }

    fn nominal(&self) -> f64 {
        self.voltage_nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::{convolve_full, kernel_for};
    use crate::ladder::LadderModel;
    use crate::PdnModel;

    fn load(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| if k % 60 < 30 { 40.0 } else { 0.0 })
            .collect()
    }

    fn drive<S: Supply>(mut s: S, n: usize) -> f64 {
        load(n)
            .into_iter()
            .map(|i| s.step_supply(i))
            .fold(f64::MAX, f64::min)
    }

    #[test]
    fn all_supplies_are_drivable_through_the_trait() {
        let m = PdnModel::paper_default().unwrap();
        let ss = drive(m.discretize(), 600);
        let conv = convolve_full(&kernel_for(&m, 1e-9), &load(600), m.v_nominal())
            .into_iter()
            .fold(f64::MAX, f64::min);
        assert!(
            (ss - conv).abs() < 1e-6,
            "state-space {ss} vs convolution {conv}"
        );

        let ladder = LadderModel::typical_three_stage();
        let lv = drive(ladder.discretize(), 600);
        assert!(lv < ladder.v_nominal(), "ladder must droop under load");
    }

    #[test]
    fn nominal_is_exposed() {
        let m = PdnModel::paper_default().unwrap();
        assert_eq!(m.discretize().nominal(), m.v_nominal());
        let l = LadderModel::typical_three_stage();
        assert_eq!(l.discretize().nominal(), l.v_nominal());
    }
}

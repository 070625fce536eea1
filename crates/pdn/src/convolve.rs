//! Convolution-based voltage computation (the paper's reference method).
//!
//! The paper (following Grochowski et al.) computes the supply voltage by
//! convolving the per-cycle current trace with the network's impulse
//! response. This module provides that reference path:
//!
//! * [`convolve_full`] — direct batch convolution of a whole trace,
//!   O(N·K) for N samples and K taps,
//! * [`kernel_for`] — extraction of a truncated convolution kernel from a
//!   [`PdnModel`].
//!
//! Because the kernel is the model's exact zero-order-hold pulse response,
//! the convolution output matches [`crate::state_space::PdnState`] to within
//! truncation error — a property-tested invariant. The state-space stepper
//! is O(1) per cycle and is what every simulation path runs; convolution
//! is kept as the independent cross-check the oracle suites compare it
//! against.

use crate::second_order::PdnModel;
use crate::state_space::PdnState;

/// Extracts a truncated convolution kernel (volts per amp per cycle) from
/// `model`, long enough that the discarded tail is below `rel_tol` of the
/// kernel's peak magnitude. A `rel_tol` of `1e-6` is a good default.
///
/// The pulse response is grown *incrementally*: the stepper that produced
/// the first `n` samples keeps running when the tail test demands a longer
/// kernel, so each doubling costs only the new samples (the zero-order-hold
/// stepper is deterministic, making the result identical to recomputing the
/// whole prefix from scratch — a regression-tested property).
///
/// # Panics
///
/// Panics if `rel_tol` is not a positive finite number.
pub fn kernel_for(model: &PdnModel, rel_tol: f64) -> Vec<f64> {
    assert!(
        rel_tol.is_finite() && rel_tol > 0.0,
        "rel_tol must be positive and finite"
    );
    // Grow in blocks of one resonant period until the tail is negligible.
    let period = model.resonant_period_cycles().max(2);
    let mut state = model.discretize();
    let mut h = Vec::new();
    let mut n = period * 8;
    loop {
        extend_pulse_response(&mut state, &mut h, n);
        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail = h[n - period..].iter().map(|x| x.abs()).fold(0.0, f64::max);
        if tail <= rel_tol * peak || n > period * 4096 {
            return h;
        }
        n *= 2;
    }
}

/// Appends pulse-response samples to `h` until it holds `n`, continuing
/// from wherever `state` left off. The 1 A probe is applied only on the
/// very first sample; every later cycle steps with zero load.
fn extend_pulse_response(state: &mut PdnState, h: &mut Vec<f64>, n: usize) {
    let v_nom = state.voltage_nominal();
    h.reserve(n.saturating_sub(h.len()));
    while h.len() < n {
        let i = if h.is_empty() { 1.0 } else { 0.0 };
        h.push(state.step(i) - v_nom);
    }
}

/// Batch convolution: `v[n] = v_nominal + sum_k h[k] * i[n-k]`.
///
/// Returns one voltage sample per current sample (the "same-length" leading
/// part of the full convolution, matching what a streaming simulator sees).
pub fn convolve_full(kernel: &[f64], currents: &[f64], v_nominal: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(currents.len());
    for n in 0..currents.len() {
        let mut acc = 0.0;
        let kmax = kernel.len().min(n + 1);
        for k in 0..kmax {
            acc += kernel[k] * currents[n - k];
        }
        out.push(v_nominal + acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::second_order::PdnModel;
    use crate::state_space::pulse_response;

    fn model() -> PdnModel {
        PdnModel::paper_default().unwrap()
    }

    #[test]
    fn kernel_tail_is_negligible() {
        let m = model();
        let h = kernel_for(&m, 1e-6);
        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
        let tail = h[h.len() - 10..]
            .iter()
            .map(|x| x.abs())
            .fold(0.0, f64::max);
        assert!(tail <= 1e-5 * peak);
    }

    /// The incremental growth must reproduce the old recompute-from-scratch
    /// algorithm bit for bit (same stepper, same operation sequence).
    #[test]
    fn incremental_kernel_matches_recompute_from_scratch() {
        let models = [
            model(),
            model().scaled(3.0).unwrap(),
            PdnModel::from_rlc(0.8e-3, 8.0e-12, 1.2e-6, 3.0e9).unwrap(),
        ];
        for m in &models {
            for rel_tol in [1e-3, 1e-6, 1e-9] {
                // Reference: the pre-incremental algorithm.
                let reference = {
                    let period = m.resonant_period_cycles().max(2);
                    let mut n = period * 8;
                    loop {
                        let h = pulse_response(m, n);
                        let peak = h.iter().map(|x| x.abs()).fold(0.0, f64::max);
                        let tail = h[n - period..].iter().map(|x| x.abs()).fold(0.0, f64::max);
                        if tail <= rel_tol * peak || n > period * 4096 {
                            break h;
                        }
                        n *= 2;
                    }
                };
                assert_eq!(kernel_for(m, rel_tol), reference, "rel_tol {rel_tol}");
            }
        }
    }

    #[test]
    fn convolution_matches_state_space() {
        let m = model();
        let kernel = kernel_for(&m, 1e-10);
        let trace: Vec<f64> = (0..2000)
            .map(|k| match k % 97 {
                0..=20 => 45.0,
                21..=50 => 10.0,
                _ => 25.0,
            })
            .collect();
        let conv = convolve_full(&kernel, &trace, m.v_nominal());
        let mut ss = m.discretize();
        for (n, &i) in trace.iter().enumerate() {
            let v_ss = ss.step(i);
            assert!(
                (conv[n] - v_ss).abs() < 1e-7,
                "cycle {n}: convolution {} vs state-space {v_ss}",
                conv[n]
            );
        }
    }

    #[test]
    fn superposition_holds() {
        // LTI sanity: conv(a + b) == conv(a) + conv(b) - v_nominal.
        let m = model();
        let kernel = kernel_for(&m, 1e-8);
        let a: Vec<f64> = (0..300).map(|k| (k % 13) as f64).collect();
        let b: Vec<f64> = (0..300).map(|k| ((k * 7) % 11) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let va = convolve_full(&kernel, &a, 0.0);
        let vb = convolve_full(&kernel, &b, 0.0);
        let vs = convolve_full(&kernel, &sum, 0.0);
        for n in 0..300 {
            assert!((vs[n] - (va[n] + vb[n])).abs() < 1e-12);
        }
    }
}

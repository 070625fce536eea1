//! Spectrum analysis for current traces.
//!
//! The dI/dt stressmark auto-tuner needs to know *where in the frequency
//! domain* a candidate loop concentrates its current energy, so it can steer
//! the loop period onto the package resonance. This module provides:
//!
//! * [`goertzel`] — single-bin spectral magnitude (cheap, exact frequency),
//! * [`fft`] / [`power_spectrum`] — radix-2 FFT for full-spectrum views,
//! * [`dominant_frequency`] — the non-DC bin with the most energy.
//!
//! Frequencies are expressed as *cycles per sample* (multiply by the CPU
//! clock to get hertz).

use std::f64::consts::PI;

/// A complex number in rectangular form (internal to this module's API
/// surface only through [`fft`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude `sqrt(re^2 + im^2)`.
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

/// Complex product (used by the FFT butterflies).
impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// In-place iterative radix-2 FFT.
///
/// # Panics
///
/// Panics unless the input length is a power of two (and at least 1).
pub fn fft(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length must be a power of two"
    );
    if n == 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u.add(v);
                data[i + j + len / 2] = u.sub(v);
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Power spectrum of a real signal: returns `n/2` magnitudes for bins
/// `0..n/2`, where bin `k` corresponds to frequency `k / n` cycles/sample.
/// The input is zero-padded to the next power of two. The mean (DC) is
/// removed before transforming so bin energies reflect *variation* only.
pub fn power_spectrum(signal: &[f64]) -> Vec<f64> {
    if signal.is_empty() {
        return Vec::new();
    }
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let n = signal.len().next_power_of_two();
    let mut buf: Vec<Complex> = signal
        .iter()
        .map(|&x| Complex::new(x - mean, 0.0))
        .chain(std::iter::repeat(Complex::default()))
        .take(n)
        .collect();
    fft(&mut buf);
    buf[..n / 2].iter().map(|c| c.norm()).collect()
}

/// Goertzel single-bin DFT magnitude at `freq` cycles/sample (0 < freq < 0.5).
/// The mean is removed first. Cheaper than a full FFT when only one
/// frequency matters — exactly the stressmark tuner's case.
///
/// # Panics
///
/// Panics if `freq` is outside `(0, 0.5)`.
pub fn goertzel(signal: &[f64], freq: f64) -> f64 {
    assert!(
        freq > 0.0 && freq < 0.5,
        "freq must be in (0, 0.5) cycles/sample"
    );
    if signal.is_empty() {
        return 0.0;
    }
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let w = 2.0 * PI * freq;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in signal {
        let s = (x - mean) + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2;
    power.max(0.0).sqrt()
}

/// The frequency (cycles/sample) of the strongest non-DC spectral bin, or
/// `None` for signals too short to analyze (< 4 samples) or with no
/// variation.
pub fn dominant_frequency(signal: &[f64]) -> Option<f64> {
    if signal.len() < 4 {
        return None;
    }
    let spec = power_spectrum(signal);
    let n = signal.len().next_power_of_two();
    let (best_bin, best_mag) =
        spec.iter()
            .enumerate()
            .skip(1)
            .fold(
                (0usize, 0.0f64),
                |acc, (k, &m)| if m > acc.1 { (k, m) } else { acc },
            );
    if best_mag <= 1e-12 {
        return None;
    }
    Some(best_bin as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data);
        for c in &data {
            assert!((c.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_sinusoid_peaks_at_its_bin() {
        let n = 256;
        let k = 16;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * PI * k as f64 * t as f64 / n as f64).sin())
            .collect();
        let spec = power_spectrum(&signal);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::default(); 6];
        fft(&mut data);
    }

    #[test]
    fn goertzel_matches_fft_bin() {
        let n = 128;
        let k = 10;
        let signal: Vec<f64> = (0..n)
            .map(|t| 3.0 * (2.0 * PI * k as f64 * t as f64 / n as f64).cos() + 5.0)
            .collect();
        let g = goertzel(&signal, k as f64 / n as f64);
        let spec = power_spectrum(&signal);
        assert!((g - spec[k]).abs() / spec[k] < 1e-9);
    }

    #[test]
    fn goertzel_ignores_dc() {
        let signal = vec![42.0; 64];
        assert!(goertzel(&signal, 0.25) < 1e-9);
    }

    #[test]
    fn dominant_frequency_finds_square_wave_fundamental() {
        // 60-sample period square wave = 1/60 cycles/sample fundamental.
        let signal: Vec<f64> = (0..1024)
            .map(|t| if t % 60 < 30 { 40.0 } else { 5.0 })
            .collect();
        let f = dominant_frequency(&signal).unwrap();
        assert!(
            (f - 1.0 / 60.0).abs() < 0.002,
            "dominant {f} vs expected {}",
            1.0 / 60.0
        );
    }

    #[test]
    fn dominant_frequency_of_constant_is_none() {
        assert_eq!(dominant_frequency(&vec![3.0; 64]), None);
        assert_eq!(dominant_frequency(&[1.0, 2.0]), None);
    }

    #[test]
    fn power_spectrum_of_empty_is_empty() {
        assert!(power_spectrum(&[]).is_empty());
    }

    #[test]
    fn parseval_energy_agreement() {
        // Sum of squared magnitudes over all bins equals n * signal energy
        // (mean removed). Check with the full complex FFT.
        let signal: Vec<f64> = (0..64).map(|t| ((t * 7) % 13) as f64).collect();
        let mean = signal.iter().sum::<f64>() / 64.0;
        let time_energy: f64 = signal.iter().map(|x| (x - mean).powi(2)).sum();
        let mut buf: Vec<Complex> = signal
            .iter()
            .map(|&x| Complex::new(x - mean, 0.0))
            .collect();
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm().powi(2)).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-9);
    }
}

//! Randomized tests of the PDN model's analytic guarantees, driven by the
//! workspace's deterministic RNG (seeded generation replaces proptest —
//! the build environment has no registry access).

use voltctl_pdn::{figure10_histogram, waveform, PdnModel, VoltageMonitor};
use voltctl_telemetry::Rng;

/// Valid design-parameter triples: R in [0.1, 2] mΩ, f0 in [20, 200] MHz,
/// Z_pk a multiple (1.2x–12x) of R.
fn random_spec(rng: &mut Rng) -> (f64, f64, f64) {
    let r = rng.range_f64(0.1e-3, 2.0e-3);
    let f0 = rng.range_f64(20.0e6, 200.0e6);
    let ratio = rng.range_f64(1.2, 12.0);
    (r, f0, r * ratio)
}

fn random_trace(rng: &mut Rng, min_len: usize, max_len: usize, amp: f64) -> Vec<f64> {
    let len = rng.range_i64(min_len as i64, max_len as i64) as usize;
    (0..len).map(|_| rng.range_f64(0.0, amp)).collect()
}

/// The fit is faithful: a model built from (R, f0, Z_pk) measures back
/// those same quantities.
#[test]
fn fit_roundtrip() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0xF17 + seed);
        let (r, f0, z_pk) = random_spec(&mut rng);
        let m = PdnModel::builder()
            .r_dc(r)
            .resonant_freq_hz(f0)
            .peak_impedance(z_pk)
            .clock_hz(3.0e9)
            .build()
            .expect("valid spec fits");
        assert!((m.r_dc() - r).abs() / r < 1e-12, "seed {seed}");
        assert!((m.resonant_freq_hz() - f0).abs() / f0 < 1e-9, "seed {seed}");
        assert!(
            (m.peak_impedance() - z_pk).abs() / z_pk < 1e-4,
            "seed {seed}"
        );
        // DC impedance equals R and every |Z| is at most the peak.
        assert!((m.impedance_at(1.0) - r).abs() / r < 1e-6, "seed {seed}");
        for mult in [0.3, 0.7, 1.0, 1.5, 4.0] {
            assert!(
                m.impedance_at(f0 * mult) <= z_pk * (1.0 + 1e-6),
                "seed {seed}"
            );
        }
    }
}

/// Stability: any bounded current trace produces a bounded voltage —
/// the deviation never exceeds what a worst-case resonant train of the
/// same amplitude achieves (plus slack for transient alignment).
#[test]
fn bounded_input_bounded_output() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0xB1B0 + seed);
        let (r, f0, z_pk) = random_spec(&mut rng);
        let trace = random_trace(&mut rng, 50, 400, 50.0);
        let m = PdnModel::builder()
            .r_dc(r)
            .resonant_freq_hz(f0)
            .peak_impedance(z_pk)
            .clock_hz(3.0e9)
            .build()
            .expect("valid spec fits");
        let bound = m.worst_case_deviation(50.0) * 1.05;
        let mut state = m.discretize();
        for &i in &trace {
            let v = state.step(i);
            assert!(
                (v - m.v_nominal()).abs() <= bound,
                "seed {seed}: deviation {} exceeded worst-case bound {}",
                (v - m.v_nominal()).abs(),
                bound
            );
        }
    }
}

/// Time-invariance: delaying the input delays the output identically.
#[test]
fn time_invariance() {
    let m = PdnModel::paper_default().unwrap();
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x71AE + seed);
        let trace = random_trace(&mut rng, 10, 120, 40.0);
        let delay = rng.range_i64(1, 50) as usize;
        let mut s1 = m.discretize();
        let direct: Vec<f64> = trace.iter().map(|&i| s1.step(i)).collect();

        let mut s2 = m.discretize();
        for _ in 0..delay {
            s2.step(0.0);
        }
        let delayed: Vec<f64> = trace.iter().map(|&i| s2.step(i)).collect();
        for (a, b) in direct.iter().zip(&delayed) {
            assert!((a - b).abs() < 1e-12, "seed {seed}");
        }
    }
}

/// Monitor counters are consistent: cycles partition into bands,
/// events never exceed cycles, min/max bracket every sample.
#[test]
fn monitor_invariants() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x303 + seed);
        let len = rng.range_i64(1, 300) as usize;
        let volts: Vec<f64> = (0..len).map(|_| rng.range_f64(0.85, 1.15)).collect();
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe_all(&volts);
        let r = mon.report();
        assert_eq!(r.total_cycles, volts.len() as u64, "seed {seed}");
        assert_eq!(
            r.emergency_cycles,
            r.under_cycles + r.over_cycles,
            "seed {seed}"
        );
        assert!(r.under_events <= r.under_cycles, "seed {seed}");
        assert!(r.over_events <= r.over_cycles, "seed {seed}");
        let min = volts.iter().cloned().fold(f64::MAX, f64::min);
        let max = volts.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(r.min_v, min, "seed {seed}");
        assert_eq!(r.max_v, max, "seed {seed}");
        assert!(r.frequency() <= 1.0, "seed {seed}");
    }
}

/// Histogram conservation: every sample lands in exactly one place.
#[test]
fn histogram_conserves_samples() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x415 + seed);
        let len = rng.range_i64(1, 500) as usize;
        let volts: Vec<f64> = (0..len).map(|_| rng.range_f64(0.80, 1.20)).collect();
        let mut h = figure10_histogram();
        for &v in &volts {
            h.record(v);
        }
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(
            binned + h.under() + h.over(),
            volts.len() as u64,
            "seed {seed}"
        );
        assert_eq!(h.total(), volts.len() as u64, "seed {seed}");
    }
}

/// Waveform stats are exact for pulse trains built by the library.
#[test]
fn pulse_train_stats() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x9A15 + seed);
        let base = rng.range_f64(0.0, 20.0);
        let amp = rng.range_f64(1.0, 50.0);
        let width = rng.range_i64(1, 30) as usize;
        let pulses = rng.range_i64(1, 6) as usize;
        let period = width * 2;
        let len = 10 + pulses * period + 10;
        let t = waveform::pulse_train(base, amp, 10, width, period, pulses, len);
        let s = waveform::stats(&t).unwrap();
        assert_eq!(s.min, base, "seed {seed}");
        assert_eq!(s.max, base + amp, "seed {seed}");
        // (base + amp) - base need not equal amp exactly in floating point.
        assert!((s.max_step - amp).abs() < 1e-9, "seed {seed}");
        let high = t.iter().filter(|&&x| x > base).count();
        assert_eq!(high, width * pulses, "seed {seed}");
    }
}

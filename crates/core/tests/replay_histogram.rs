//! Coverage for [`replay_current_trace`] with `with_histogram: true` —
//! the Table 2 / Figure 10 replay helper. The histogram and emergency
//! report must match a hand-rolled state-space loop exactly, and the
//! histogram must only exist when requested.

use voltctl_core::replay_current_trace;
use voltctl_pdn::{figure10_histogram, waveform, PdnModel, VoltageMonitor};
use voltctl_telemetry::Rng;

/// A resonant square train with seeded jitter — enough dI/dt activity at
/// the paper-default network to produce both under- and overshoots.
fn emergency_trace(model: &PdnModel, len: usize) -> Vec<f64> {
    let period = model.resonant_period_cycles();
    let mut rng = Rng::new(0xABCD);
    waveform::square_wave(5.0, 45.0, period, len)
        .into_iter()
        .map(|i| i + rng.range_f64(0.0, 2.0))
        .collect()
}

#[test]
fn histogram_is_none_unless_requested() {
    let model = PdnModel::paper_default().unwrap();
    let trace = emergency_trace(&model, 2000);
    assert!(replay_current_trace(&model, &trace, false)
        .histogram
        .is_none());
    assert!(replay_current_trace(&model, &trace, true)
        .histogram
        .is_some());
}

#[test]
fn histogram_accounts_for_every_cycle() {
    let model = PdnModel::paper_default().unwrap();
    let trace = emergency_trace(&model, 5000);
    let replay = replay_current_trace(&model, &trace, true);
    let hist = replay.histogram.expect("requested histogram");
    let binned: u64 = hist.counts().iter().sum();
    assert_eq!(
        binned + hist.under() + hist.over(),
        trace.len() as u64,
        "every replayed cycle lands in a bin or an out-of-range tally"
    );
    assert_eq!(replay.report.total_cycles, trace.len() as u64);
}

#[test]
fn replay_matches_manual_state_space_loop() {
    let model = PdnModel::paper_default().unwrap();
    let trace = emergency_trace(&model, 5000);
    let replay = replay_current_trace(&model, &trace, true);

    // The documented methodology, by hand: reference current = trace
    // minimum, every voltage through monitor + histogram.
    let mut state = model.discretize();
    state.set_reference_current(trace.iter().cloned().fold(f64::MAX, f64::min));
    let mut monitor = VoltageMonitor::new(model.v_nominal(), model.tolerance());
    let mut hist = figure10_histogram();
    for &i in &trace {
        let v = state.step(i);
        monitor.observe(v);
        hist.record(v);
    }

    let manual = monitor.report();
    assert_eq!(replay.report.total_cycles, manual.total_cycles);
    assert_eq!(replay.report.emergency_cycles, manual.emergency_cycles);
    assert_eq!(replay.report.under_cycles, manual.under_cycles);
    assert_eq!(replay.report.over_cycles, manual.over_cycles);
    assert_eq!(replay.report.under_events, manual.under_events);
    assert_eq!(replay.report.over_events, manual.over_events);
    assert_eq!(replay.report.min_v.to_bits(), manual.min_v.to_bits());
    assert_eq!(replay.report.max_v.to_bits(), manual.max_v.to_bits());
    assert_eq!(replay.histogram.unwrap(), hist);

    // The stress trace actually exercises the monitor.
    assert!(manual.any(), "trace must trigger at least one emergency");
}

#[test]
fn replay_is_deterministic_and_network_scales_sanely() {
    let model = PdnModel::paper_default().unwrap();
    let trace = emergency_trace(&model, 4000);
    let a = replay_current_trace(&model, &trace, true);
    let b = replay_current_trace(&model, &trace, true);
    assert_eq!(a.report.emergency_cycles, b.report.emergency_cycles);
    assert_eq!(a.histogram, b.histogram);

    // A stiffer network (higher impedance) can only widen the excursion.
    let stiff = model.scaled(3.0).unwrap();
    let worse = replay_current_trace(&stiff, &trace, false);
    assert!(worse.report.min_v <= a.report.min_v);
    assert!(worse.report.emergency_cycles >= a.report.emergency_cycles);
}

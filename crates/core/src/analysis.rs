//! Controlled-vs-baseline evaluation (§4.4–§5.3).
//!
//! The paper's controller results are always reported *relative to an
//! uncontrolled run*: performance degradation, energy increase, and the
//! emergencies eliminated. [`Evaluation`] packages one such comparison;
//! [`evaluate_program`] runs both loops over the same cycle budget with
//! identical inputs.

use crate::actuator::ActuationScope;
use crate::loopsim::{ControlLoop, LoopReport};
use crate::sensor::SensorConfig;
use crate::thresholds::{ControlError, Thresholds};
use voltctl_cpu::CpuConfig;
use voltctl_isa::Program;
use voltctl_pdn::{figure10_histogram, EmergencyReport, PdnModel, VoltageMonitor};
use voltctl_power::PowerModel;
use voltctl_telemetry::LinearHistogram;

/// A controlled run compared against its uncontrolled baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The uncontrolled run.
    pub baseline: LoopReport,
    /// The controlled run.
    pub controlled: LoopReport,
}

impl Evaluation {
    /// Fractional performance loss: `1 - IPC_controlled / IPC_baseline`.
    /// Near zero (or slightly negative, from measurement noise) when the
    /// controller rarely intervenes.
    pub fn perf_loss(&self) -> f64 {
        if self.baseline.ipc <= 0.0 {
            return 0.0;
        }
        1.0 - self.controlled.ipc / self.baseline.ipc
    }

    /// Fractional energy increase **per committed instruction** (total
    /// energy is not comparable across equal-cycle runs that commit
    /// different instruction counts).
    pub fn energy_increase(&self) -> f64 {
        let base = self.baseline.energy_joules / self.baseline.committed.max(1) as f64;
        let ctrl = self.controlled.energy_joules / self.controlled.committed.max(1) as f64;
        if base <= 0.0 {
            return 0.0;
        }
        ctrl / base - 1.0
    }

    /// Emergencies eliminated by control (cycle count).
    pub fn emergencies_eliminated(&self) -> i64 {
        self.baseline.emergencies.emergency_cycles as i64
            - self.controlled.emergencies.emergency_cycles as i64
    }
}

/// Everything needed to evaluate one configuration.
#[derive(Debug, Clone)]
pub struct EvalSetup {
    /// Machine configuration.
    pub cpu_config: CpuConfig,
    /// Power model.
    pub power: PowerModel,
    /// Supply network.
    pub pdn: PdnModel,
    /// Solved thresholds for the controlled run.
    pub thresholds: Thresholds,
    /// Sensor non-idealities.
    pub sensor: SensorConfig,
    /// Actuation scope.
    pub scope: ActuationScope,
}

/// Runs `program` for `warmup + cycles` cycles twice — controlled and
/// uncontrolled — and reports the comparison. Warm-up cycles are included
/// in both runs identically; reports cover the whole run (the transient
/// affects both sides equally).
///
/// # Errors
///
/// Propagates loop-construction errors.
pub fn evaluate_program(
    program: &Program,
    setup: &EvalSetup,
    warmup: u64,
    cycles: u64,
) -> Result<Evaluation, ControlError> {
    let (evaluation, _) = evaluate_program_recorded(
        program,
        setup,
        warmup,
        cycles,
        voltctl_telemetry::NullRecorder,
    )?;
    Ok(evaluation)
}

/// Like [`evaluate_program`], but streams the **controlled** run's
/// telemetry (per-cycle samples, sub-step timers, run-level aggregates)
/// into `recorder` and hands it back alongside the comparison.
///
/// # Errors
///
/// Propagates loop-construction errors.
pub fn evaluate_program_recorded<R: voltctl_telemetry::Recorder>(
    program: &Program,
    setup: &EvalSetup,
    warmup: u64,
    cycles: u64,
    recorder: R,
) -> Result<(Evaluation, R), ControlError> {
    let (evaluation, recorder, _) = evaluate_program_traced(
        program,
        setup,
        warmup,
        cycles,
        recorder,
        voltctl_trace::NullTracer,
    )?;
    Ok((evaluation, recorder))
}

/// Like [`evaluate_program_recorded`], but additionally attaches `tracer`
/// to the **controlled** run (matching the telemetry policy: the
/// controlled loop is the one under forensic scrutiny) and hands it back
/// for capture extraction.
///
/// # Errors
///
/// Propagates loop-construction errors.
pub fn evaluate_program_traced<R: voltctl_telemetry::Recorder, T: voltctl_trace::Tracer>(
    program: &Program,
    setup: &EvalSetup,
    warmup: u64,
    cycles: u64,
    recorder: R,
    tracer: T,
) -> Result<(Evaluation, R, T), ControlError> {
    let mut baseline = ControlLoop::builder(program.clone())
        .cpu_config(setup.cpu_config.clone())
        .power(setup.power.clone())
        .pdn(setup.pdn.clone())
        .build()?;
    baseline.step_n(warmup + cycles);

    let mut controlled = ControlLoop::builder(program.clone())
        .cpu_config(setup.cpu_config.clone())
        .power(setup.power.clone())
        .pdn(setup.pdn.clone())
        .thresholds(setup.thresholds)
        .sensor(setup.sensor)
        .scope(setup.scope)
        .recorder(recorder)
        .tracer(tracer)
        .build()?;
    controlled.step_n(warmup + cycles);
    controlled.finish_telemetry();

    let evaluation = Evaluation {
        baseline: baseline.report(),
        controlled: controlled.report(),
    };
    let (recorder, tracer) = controlled.into_parts();
    Ok((evaluation, recorder, tracer))
}

/// Builds the `(baseline, controlled)` loop pair [`evaluate_program`]
/// would run, without running them — the entry point for batch
/// executors ([`crate::lane::LaneLoop`]) that step many evaluations in
/// lockstep. The loops are constructed exactly as on the scalar path
/// (same builder calls, no recorder or tracer), so running each for
/// `warmup + cycles` cycles reproduces [`evaluate_program`]'s reports
/// bitwise.
///
/// # Errors
///
/// Propagates loop-construction errors.
pub fn build_eval_loops(
    program: &Program,
    setup: &EvalSetup,
) -> Result<(ControlLoop, ControlLoop), ControlError> {
    let baseline = ControlLoop::builder(program.clone())
        .cpu_config(setup.cpu_config.clone())
        .power(setup.power.clone())
        .pdn(setup.pdn.clone())
        .build()?;
    let controlled = ControlLoop::builder(program.clone())
        .cpu_config(setup.cpu_config.clone())
        .power(setup.power.clone())
        .pdn(setup.pdn.clone())
        .thresholds(setup.thresholds)
        .sensor(setup.sensor)
        .scope(setup.scope)
        .build()?;
    Ok((baseline, controlled))
}

/// The result of replaying a recorded current trace through a supply
/// network: the emergency report and (optionally) the voltage
/// distribution.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    /// Out-of-band statistics over the replay.
    pub report: EmergencyReport,
    /// The voltage distribution, when requested.
    pub histogram: Option<LinearHistogram>,
}

/// Replays an uncontrolled current trace through `pdn`, following the
/// methodology used for Table 2 / Figure 10: the supply's reference
/// current is the trace minimum (the network is assumed settled at the
/// program's quiescent draw), every cycle's voltage feeds the emergency
/// monitor, and — with `with_histogram` — the 0.90–1.10 V distribution.
///
/// Traces do not depend on the network, so one recorded trace can be
/// replayed at many impedance points; this helper is the shared
/// replacement for the replay loops the experiment binaries used to
/// hand-roll.
pub fn replay_current_trace(pdn: &PdnModel, trace: &[f64], with_histogram: bool) -> TraceReplay {
    let (replay, _) =
        replay_current_trace_traced(pdn, trace, with_histogram, voltctl_trace::NullTracer);
    replay
}

/// Like [`replay_current_trace`], but streams every replayed cycle into
/// `tracer` as a [`CycleRecord`](voltctl_trace::CycleRecord) — replays
/// have no CPU behind them, so the sensed band is `Normal` and the event
/// bits are empty; only current/voltage/supply-band carry signal.
pub fn replay_current_trace_traced<T: voltctl_trace::Tracer>(
    pdn: &PdnModel,
    trace: &[f64],
    with_histogram: bool,
    mut tracer: T,
) -> (TraceReplay, T) {
    let mut state = pdn.discretize();
    state.set_reference_current(trace.iter().cloned().fold(f64::MAX, f64::min));
    let mut monitor = VoltageMonitor::new(pdn.v_nominal(), pdn.tolerance());
    let mut histogram = with_histogram.then(figure10_histogram);
    for (k, &i) in trace.iter().enumerate() {
        let v = state.step(i);
        let band = monitor.observe(v);
        if T::ENABLED {
            tracer.cycle(voltctl_trace::CycleRecord {
                cycle: k as u64,
                current: i,
                voltage: v,
                supply: match band {
                    voltctl_pdn::emergency::VoltageBand::UnderEmergency => {
                        voltctl_trace::SupplyBand::Under
                    }
                    voltctl_pdn::emergency::VoltageBand::Safe => voltctl_trace::SupplyBand::Safe,
                    voltctl_pdn::emergency::VoltageBand::OverEmergency => {
                        voltctl_trace::SupplyBand::Over
                    }
                },
                sensor: voltctl_trace::SensorBand::Normal,
                events: 0,
            });
        }
        if let Some(h) = histogram.as_mut() {
            h.record(v);
        }
    }
    (
        TraceReplay {
            report: monitor.report(),
            histogram,
        },
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrated_pdn;
    use voltctl_isa::builder::ProgramBuilder;
    use voltctl_isa::reg::IntReg;
    use voltctl_power::PowerParams;

    fn setup(percent: f64, thresholds: Thresholds) -> EvalSetup {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, percent).unwrap();
        EvalSetup {
            cpu_config: CpuConfig::table1(),
            power,
            pdn,
            thresholds,
            sensor: SensorConfig::default(),
            scope: ActuationScope::FuDl1,
        }
    }

    fn spin() -> Program {
        let mut b = ProgramBuilder::new("spin");
        b.label("top");
        b.addq_imm(IntReg::R1, IntReg::R1, 1);
        b.br("top");
        b.build().unwrap()
    }

    #[test]
    fn quiet_program_sees_no_degradation() {
        let s = setup(
            2.0,
            Thresholds {
                v_low: 0.955,
                v_high: 1.045,
            },
        );
        let e = evaluate_program(&spin(), &s, 1_000, 10_000).unwrap();
        assert!(e.perf_loss().abs() < 0.01, "loss {}", e.perf_loss());
        assert!(e.energy_increase().abs() < 0.01);
        assert_eq!(e.controlled.interventions, 0);
    }

    #[test]
    fn aggressive_thresholds_cost_performance() {
        let s = setup(
            2.0,
            Thresholds {
                v_low: 0.9995,
                v_high: 1.0005,
            },
        );
        let e = evaluate_program(&spin(), &s, 1_000, 10_000).unwrap();
        assert!(e.controlled.interventions > 0);
        assert!(e.perf_loss() > 0.02, "loss {}", e.perf_loss());
    }

    #[test]
    fn trace_replay_flags_emergencies_and_buckets_volts() {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 3.0).unwrap();
        let swing = power.achievable_peak_current() - power.min_current();
        // A resonant square train at 300% impedance must cross the band;
        // a flat trace must not.
        let period = pdn.resonant_period_cycles();
        let train = voltctl_pdn::waveform::square_wave(0.0, swing, period, 20 * period);
        let hot = replay_current_trace(&pdn, &train, true);
        assert!(hot.report.any(), "resonant train must cause emergencies");
        let hist = hot.histogram.expect("requested");
        assert_eq!(hist.total(), train.len() as u64);

        let calm = replay_current_trace(&pdn, &vec![1.0; 500], false);
        assert!(!calm.report.any());
        assert!(calm.histogram.is_none());
    }

    #[test]
    fn metrics_handle_degenerate_reports() {
        let zeroed = LoopReport {
            cycles: 0,
            committed: 0,
            ipc: 0.0,
            emergencies: voltctl_pdn::VoltageMonitor::new(1.0, 0.05).report(),
            energy_joules: 0.0,
            avg_power: 0.0,
            reduce_cycles: 0,
            increase_cycles: 0,
            interventions: 0,
            cycles_in_low: 0,
            cycles_in_normal: 0,
            cycles_in_high: 0,
        };
        let e = Evaluation {
            baseline: zeroed.clone(),
            controlled: zeroed,
        };
        assert_eq!(e.perf_loss(), 0.0);
        assert_eq!(e.energy_increase(), 0.0);
        assert_eq!(e.emergencies_eliminated(), 0);
    }
}

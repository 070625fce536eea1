//! §6 ablations: PID vs threshold control, the 2x2-quadrant PDN grid,
//! asymmetric actuation, and the ladder-network cross-validation.

use std::collections::VecDeque;
use std::fmt::Write as _;
use voltctl_core::pid::PidController;
use voltctl_core::prelude::*;
use voltctl_cpu::Cpu;
use voltctl_pdn::grid::GridPdn;
use voltctl_pdn::ladder::LadderModel;
use voltctl_pdn::{waveform, VoltageMonitor};
use voltctl_power::EnergyAccumulator;

use crate::engine::{CellResult, Ctx, Runtime, Scenario};
use crate::harness::{
    cpu_config, delta_i, evaluate, pdn_at, power_model, solve_for, tuned_stressmark,
};
use crate::report::{pct, TextTable};

/// Ablation (paper §6): PID control vs threshold control.
///
/// The paper considered and rejected PID controllers for dI/dt: they
/// need magnitude voltage readings and a multiply-accumulate pipeline,
/// adding latency exactly where none is affordable. This ablation runs
/// a PID-actuated loop against the threshold controller on the
/// stressmark and reports emergencies and performance as the PID's
/// compute latency grows.
pub struct AblationPid;

const PID_DELAYS: [u32; 5] = [0, 1, 2, 3, 4];

/// A hand-rolled PID closed loop (the threshold loop lives in
/// `voltctl_core::loopsim`; PID needs magnitude readings, so it gets its
/// own wiring here).
fn run_pid(ctx: &Ctx, compute_delay: u32, cycles: u64) -> (f64, u64, f64) {
    let stress = tuned_stressmark();
    let power = power_model();
    let pdn = pdn_at(2.0);
    let scope = ActuationScope::FuDl1Il1;
    let mut cpu = Cpu::new(cpu_config(), &stress.program).expect("valid config");
    let mut state = pdn.discretize();
    state.set_reference_current(power.min_current());
    let mut pid = PidController::default_tuning(pdn.v_nominal(), compute_delay);
    let mut monitor = VoltageMonitor::new(pdn.v_nominal(), pdn.tolerance());
    let mut energy = EnergyAccumulator::new(pdn.clock_hz());
    // Sensor transport delay of 1 cycle on top of the PID compute delay.
    let mut transport: VecDeque<f64> = VecDeque::from(vec![pdn.v_nominal()]);

    for _ in 0..ctx.warmup(stress.warmup_cycles) + cycles {
        let gating = cpu.gating();
        let act = cpu.step();
        let watts = power.cycle_power(&act, &gating).total();
        let v = state.step(watts / power.params().vdd);
        monitor.observe(v);
        energy.add_cycle(watts);
        transport.push_back(v);
        let seen = transport.pop_front().expect("transport primed");
        let action = pid.decide(seen);
        scope.apply(action, cpu.gating_mut());
    }
    let ipc = cpu.stats().ipc();
    (ipc, monitor.report().emergency_cycles, energy.joules())
}

impl Scenario for AblationPid {
    fn id(&self) -> &'static str {
        "ablation_pid"
    }
    fn title(&self) -> &'static str {
        "PID vs threshold control on the stressmark"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Seconds
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        let mut labels = vec!["threshold (delay 1)".to_string()];
        labels.extend(PID_DELAYS.iter().map(|d| format!("PID (+{d} MAC cycles)")));
        labels
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let cycles = ctx.budget(120_000);
        if cell == 0 {
            // Threshold baseline at sensor delay 1 (comparable transport).
            let thresholds = solve_for(ActuationScope::FuDl1Il1, 1, 2.0).expect("stable");
            let stress = tuned_stressmark();
            let mut out = CellResult::new("threshold (delay 1)");
            let mut telem = ctx.telemetry.then(voltctl_telemetry::MemoryRecorder::new);
            let eval = evaluate(
                &stress,
                ActuationScope::FuDl1Il1,
                thresholds,
                SensorConfig {
                    delay_cycles: 1,
                    noise_mv: 0.0,
                    seed: 1,
                },
                2.0,
                ctx.warmup(stress.warmup_cycles),
                cycles,
                telem.as_mut(),
            )
            .expect("threshold eval runs");
            out.recorder = telem.unwrap_or_default();
            out.value("base_ipc", eval.baseline.ipc);
            out.row = vec![
                "threshold (delay 1)".to_string(),
                eval.controlled.emergencies.emergency_cycles.to_string(),
                pct(eval.perf_loss()),
            ];
            out
        } else {
            let compute_delay = PID_DELAYS[cell - 1];
            let (ipc, emergencies, _) = run_pid(ctx, compute_delay, cycles);
            let mut out = CellResult::new(format!("PID (+{compute_delay} MAC cycles)"));
            out.value("ipc", ipc);
            out.value("emergencies", emergencies as f64);
            out
        }
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "== Ablation: PID vs threshold control (stressmark, 200% impedance) ==\n"
        )
        .unwrap();
        let mut t = TextTable::new([
            "controller",
            "emergency cycles",
            "perf loss vs uncontrolled",
        ]);
        t.row(cells[0].row.clone());
        let base_ipc = cells[0].require("base_ipc");
        for c in &cells[1..] {
            t.row([
                c.label.clone(),
                (c.require("emergencies") as u64).to_string(),
                pct(1.0 - c.require("ipc") / base_ipc),
            ]);
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(the paper's §6 argument: a PID needs magnitude voltage readings and a"
        )
        .unwrap();
        writeln!(
            s,
            " multiply-accumulate pipeline, and its output still has to be quantized"
        )
        .unwrap();
        writeln!(
            s,
            " into gate/none/fire — here it protects only at several times the"
        )
        .unwrap();
        writeln!(
            s,
            " threshold controller's performance cost, at every compute latency)"
        )
        .unwrap();
        s
    }
}

/// Ablation (paper §6 future work): localized, per-quadrant dI/dt.
///
/// A global (lumped) PDN model averages the chip's current over the
/// die; a quadrant whose local units burst can droop its own supply
/// harder than the chip-wide model predicts. This experiment drives the
/// 2x2 grid extension with a burst concentrated in one quadrant and
/// compares worst-quadrant droop against the global model.
pub struct AblationGrid;

const GRID_SHARES: [(&str, f64); 3] = [
    ("uniform across quadrants", 0.25),
    ("60% in one quadrant", 0.6),
    ("90% in one quadrant", 0.9),
];

impl Scenario for AblationGrid {
    fn id(&self) -> &'static str {
        "ablation_grid"
    }
    fn title(&self) -> &'static str {
        "localized 2x2-quadrant vs global PDN model"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Instant
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        let mut labels = vec!["global lumped model".to_string()];
        labels.extend(GRID_SHARES.iter().map(|(l, _)| l.to_string()));
        labels
    }
    fn run_cell(&self, _ctx: &Ctx, cell: usize) -> CellResult {
        let pdn = pdn_at(2.0);
        let period = pdn.resonant_period_cycles();
        let train = waveform::square_wave(0.0, delta_i(), period, 20 * period);
        if cell == 0 {
            // Global model: the whole swing spread over the lumped network.
            let mut global = pdn.discretize();
            let mut min_v = f64::MAX;
            for &i in &train {
                min_v = min_v.min(global.step(i));
            }
            let mut out = CellResult::new("global lumped model");
            out.value("min_v", min_v);
            out
        } else {
            let (label, share) = GRID_SHARES[cell - 1];
            let mut grid = GridPdn::new(&pdn, 2.0e-3);
            let mut min_v = f64::MAX;
            for &i in &train {
                let rest = i * (1.0 - share) / 3.0;
                let v = grid.step([i * share, rest, rest, rest]);
                min_v = min_v.min(v.iter().cloned().fold(f64::MAX, f64::min));
            }
            let mut out = CellResult::new(label);
            out.value("min_v", min_v);
            out
        }
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        let pdn = pdn_at(2.0);
        let global_min = cells[0].require("min_v");
        let mut s = String::new();
        writeln!(
            s,
            "== Ablation: localized (2x2-quadrant) vs global PDN model =="
        )
        .unwrap();
        writeln!(
            s,
            "   (resonant square train, total swing {:.1} A, 200% impedance)\n",
            delta_i()
        )
        .unwrap();
        let mut t = TextTable::new(["scenario", "worst local droop (mV)", "vs global (mV)"]);
        t.row([
            "global lumped model".to_string(),
            format!("{:.1}", (pdn.v_nominal() - global_min) * 1e3),
            "-".to_string(),
        ]);
        for c in &cells[1..] {
            let min_v = c.require("min_v");
            t.row([
                c.label.clone(),
                format!("{:.1}", (pdn.v_nominal() - min_v) * 1e3),
                format!("{:+.1}", (global_min - min_v) * 1e3),
            ]);
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(localized bursts droop the afflicted quadrant harder than any global"
        )
        .unwrap();
        writeln!(
            s,
            " model can see — the paper's motivation for future per-quadrant control)"
        )
        .unwrap();
        s
    }
}

/// Ablation (paper §6): asymmetric actuation.
///
/// The paper suggests exploiting the asymmetry between the two
/// responses: clock-gating is cheap on any unit, but phantom-firing a
/// cache burns real array energy for no work. This experiment compares
/// symmetric FU/DL1/IL1 actuation against an asymmetric actuator that
/// gates FU/DL1/IL1 on undershoot but fires only the functional units
/// on overshoot, on a workload with genuine overshoot events (the
/// stressmark at elevated impedance, where gating rebounds cross the
/// high threshold).
pub struct AblationAsymmetric;

fn asymmetric_candidates() -> [(&'static str, AsymmetricActuator); 3] {
    [
        (
            "symmetric FU/DL1/IL1",
            AsymmetricActuator::symmetric(ActuationScope::FuDl1Il1),
        ),
        (
            "gate FU/DL1/IL1, fire FU",
            AsymmetricActuator {
                reduce: ActuationScope::FuDl1Il1,
                increase: ActuationScope::Fu,
            },
        ),
        (
            "gate FU/DL1/IL1, fire FU/DL1",
            AsymmetricActuator {
                reduce: ActuationScope::FuDl1Il1,
                increase: ActuationScope::FuDl1,
            },
        ),
    ]
}

fn run_asymmetric(
    ctx: &Ctx,
    actuator: AsymmetricActuator,
    thresholds: Thresholds,
    cycles: u64,
) -> (LoopReport, LoopReport) {
    let stress = tuned_stressmark();
    let power = power_model();
    let pdn = pdn_at(3.0);
    let warmup = ctx.warmup(stress.warmup_cycles);
    let mut baseline = ControlLoop::builder(stress.program.clone())
        .power(power.clone())
        .pdn(pdn.clone())
        .build()
        .expect("baseline builds");
    baseline.step_n(warmup + cycles);

    let mut controlled = ControlLoop::builder(stress.program.clone())
        .power(power)
        .pdn(pdn)
        .thresholds(thresholds)
        .actuator(actuator)
        .sensor(SensorConfig {
            delay_cycles: 1,
            noise_mv: 0.0,
            seed: 5,
        })
        .build()
        .expect("controlled builds");
    controlled.step_n(warmup + cycles);
    (baseline.report(), controlled.report())
}

impl Scenario for AblationAsymmetric {
    fn id(&self) -> &'static str {
        "ablation_asymmetric"
    }
    fn title(&self) -> &'static str {
        "asymmetric gate/fire actuation scopes"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Seconds
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        asymmetric_candidates()
            .iter()
            .map(|(l, _)| l.to_string())
            .collect()
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let cycles = ctx.budget(120_000);
        let (label, actuator) = asymmetric_candidates()[cell];
        let power = power_model();
        let pdn = pdn_at(3.0);
        let mut out = CellResult::new(label);
        // Solve thresholds against the weakest side of the candidate.
        let setup = SolveSetup::new(
            &pdn,
            power.min_current(),
            power.achievable_peak_current(),
            actuator.leverage(&power),
            1,
        );
        let Ok(solved) = solve_thresholds(&setup) else {
            out.row = vec![
                label.into(),
                "UNSTABLE".to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ];
            return out;
        };
        // The solved high threshold is unconstrained (1.05 V) in this
        // plant; deploy a symmetric window instead, as a designer guarding
        // high-side margins (oxide stress, aging) would — this is what
        // makes the overshoot response fire at all.
        let thresholds = Thresholds {
            v_low: solved.v_low,
            v_high: 2.0 - solved.v_low,
        };
        let (base, ctrl) = run_asymmetric(ctx, actuator, thresholds, cycles);
        if ctx.telemetry {
            ctrl.emergencies.record_telemetry(&mut out.recorder);
        }
        let perf = 1.0 - ctrl.ipc / base.ipc;
        let energy = (ctrl.energy_joules / ctrl.committed.max(1) as f64)
            / (base.energy_joules / base.committed.max(1) as f64)
            - 1.0;
        out.row = vec![
            label.to_string(),
            ctrl.emergencies.emergency_cycles.to_string(),
            pct(perf),
            pct(energy),
            ctrl.increase_cycles.to_string(),
        ];
        out
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "== Ablation: asymmetric actuation (stressmark, 300% impedance) ==\n"
        )
        .unwrap();
        let mut t = TextTable::new([
            "actuator",
            "emergencies",
            "perf loss",
            "energy increase",
            "fired cycles",
        ]);
        for c in cells {
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(firing a smaller scope on overshoot spends less phantom energy while"
        )
        .unwrap();
        writeln!(
            s,
            " the coarse gating scope still guarantees the undershoot response)"
        )
        .unwrap();
        s
    }
}

/// Ablation (paper §6): validating the second-order abstraction against
/// a detailed multi-stage ladder network.
///
/// The paper models the supply with a second-order system and
/// acknowledges that packaging engineers use far more detailed circuit
/// models, calling cross-level validation "important long-term". This
/// experiment runs the paper's characteristic current inputs through
/// both a three-stage ladder (board bulk caps → package → die) and the
/// second-order model fitted to the ladder's mid-frequency peak, then
/// checks that thresholds solved on the *abstraction* still protect the
/// *detailed* plant.
pub struct AblationLadder;

impl Scenario for AblationLadder {
    fn id(&self) -> &'static str {
        "ablation_ladder"
    }
    fn title(&self) -> &'static str {
        "second-order abstraction vs 3-stage ladder"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Instant
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        vec!["ladder".into()]
    }
    fn run_cell(&self, _ctx: &Ctx, _cell: usize) -> CellResult {
        let mut out = CellResult::new("ladder");
        let ladder = LadderModel::typical_three_stage();
        let fit = ladder
            .fit_second_order(10.0e6, 300.0e6)
            .expect("ladder peak exceeds DC resistance");
        let period = fit.resonant_period_cycles();

        let s = &mut out.text;
        writeln!(
            s,
            "== Ablation: second-order abstraction vs 3-stage ladder network ==\n"
        )
        .unwrap();
        writeln!(
            s,
            "ladder: R_dc {:.2} mOhm, die peak {:.2} mOhm at {:.0} MHz",
            ladder.r_dc() * 1e3,
            fit.peak_impedance() * 1e3,
            fit.resonant_freq_hz() / 1e6
        )
        .unwrap();
        writeln!(
            s,
            "fitted 2nd-order: Q {:.2}, resonant period {period} cycles\n",
            fit.q_factor()
        )
        .unwrap();

        // Characteristic inputs (Figs. 3-6 shapes) at a 40 A swing.
        let amp = 40.0;
        let len = 30 * period;
        let inputs: [(&str, Vec<f64>); 4] = [
            ("narrow spike (5 cy)", waveform::spike(0.0, amp, 20, 5, len)),
            ("wide spike (10 cy)", waveform::spike(0.0, amp, 20, 10, len)),
            (
                "notched spike",
                waveform::notched_spike(0.0, amp, 20, 20, 7, 7, len),
            ),
            (
                "resonant train",
                waveform::pulse_train(0.0, amp, 10, period / 2, period, 8, len),
            ),
        ];

        let mut t = TextTable::new([
            "input",
            "ladder max |dV| (mV)",
            "2nd-order max |dV| (mV)",
            "abstraction error",
        ]);
        for (label, trace) in &inputs {
            let mut ls = ladder.discretize();
            let mut fs = fit.discretize();
            let mut dl = 0.0f64;
            let mut df = 0.0f64;
            for &i in trace {
                dl = dl.max((ls.step(i) - ladder.v_nominal()).abs());
                df = df.max((fs.step(i) - fit.v_nominal()).abs());
            }
            t.row([
                label.to_string(),
                format!("{:.1}", dl * 1e3),
                format!("{:.1}", df * 1e3),
                format!("{:+.0}%", (df / dl - 1.0) * 100.0),
            ]);
        }
        writeln!(s, "{}", t.render()).unwrap();

        // The real test: thresholds designed on the abstraction must
        // protect the detailed plant. Solve on the fit, then run the
        // worst-case train against the LADDER with the solved controller
        // emulated.
        let power = power_model();
        let scope = ActuationScope::FuDl1Il1;
        let setup = SolveSetup::new(
            &fit,
            power.min_current(),
            power.achievable_peak_current(),
            scope.leverage(&power),
            2,
        );
        match solve_thresholds(&setup) {
            Err(e) => writeln!(s, "(solve failed on the fitted model: {e})").unwrap(),
            Ok(th) => {
                let i_min = power.min_current();
                let i_max = power.achievable_peak_current();
                let mut supply = ladder.discretize();
                supply.set_reference_current(i_min);
                let demand = waveform::square_wave(i_min, i_max, period, 20 * period);
                let result = voltctl_core::replay(
                    &mut supply,
                    demand,
                    &voltctl_core::ReplayConfig {
                        thresholds: Some(th),
                        leverage: scope.leverage(&power),
                        delay_cycles: 2,
                        slew_limit: None,
                        i_max,
                        i_min,
                    },
                );
                writeln!(
                    s,
                    "worst-case train on the LADDER with thresholds [{:.3}, {:.3}] solved on the fit:",
                    th.v_low, th.v_high
                )
                .unwrap();
                writeln!(
                    s,
                    "  min die voltage {:.4} V — {} the 0.95 V specification ({} clamped cycles)",
                    result.min_v,
                    if result.min_v >= 0.95 {
                        "WITHIN"
                    } else {
                        "VIOLATES"
                    },
                    result.reduce_cycles
                )
                .unwrap();
            }
        }
        writeln!(
            s,
            "\n(the paper's early-design-stage claim: the second-order model is a"
        )
        .unwrap();
        writeln!(
            s,
            " faithful stand-in for the detailed network at the frequencies that"
        )
        .unwrap();
        writeln!(s, " matter for microarchitectural dI/dt control)").unwrap();
        out
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        cells[0].text.clone()
    }
}

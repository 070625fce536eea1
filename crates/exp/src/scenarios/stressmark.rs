//! §4 stressmark figures: the auto-tuned dI/dt loop (Figure 8), its
//! swing against the analytic worst case (Figure 9), and the threshold
//! controller acting on it (Figure 11).

use std::fmt::Write as _;
use voltctl_core::prelude::*;
use voltctl_pdn::waveform;
use voltctl_telemetry::{export, MemoryRecorder};
use voltctl_trace::FlightRecorder;
use voltctl_workloads::stressmark;

use crate::engine::{CellResult, Ctx, Runtime, Scenario};
use crate::harness::{
    cpu_config, current_trace, delta_i, pdn_at, power_model, solve_for, tuned_stressmark,
};
use crate::report::ascii_chart;

/// Figure 8: the generated dI/dt stressmark loop body.
///
/// Trace-aware: under `--trace` the grid gains two extra cells that run
/// the tuned stressmark closed-loop — uncontrolled and under the
/// FU/DL1/IL1 threshold controller — with the flight recorder attached.
/// The report only uses the listing cell, so the rendered output (and
/// its golden snapshot) is identical with or without tracing.
pub struct Fig08Stressmark;

impl Fig08Stressmark {
    /// Runs the tuned stressmark with a flight recorder attached;
    /// `controlled` adds the paper's FU/DL1/IL1 threshold controller.
    fn traced_cell(&self, ctx: &Ctx, controlled: bool) -> CellResult {
        let label = if controlled {
            "controlled"
        } else {
            "uncontrolled"
        };
        let mut out = CellResult::new(label);
        let window = ctx
            .trace
            .map(|t| t.window)
            .unwrap_or(voltctl_trace::DEFAULT_WINDOW);
        out.tracer = FlightRecorder::new(window);

        let stress = tuned_stressmark();
        // The stressmark's resonance needs ~7k cycles from cold start
        // before the supply first leaves the band; smoke budgets would
        // stop short of any capture, so trace cells keep a floor that
        // guarantees the uncontrolled run records at least one.
        let cycles = (ctx.warmup(stress.warmup_cycles) + ctx.budget(6_000)).max(9_000);
        let builder = ControlLoop::builder(stress.program.clone())
            .power(power_model())
            .pdn(pdn_at(2.0))
            .tracer(&mut out.tracer);
        let builder = if controlled {
            let scope = ActuationScope::FuDl1Il1;
            let delay = 2;
            builder
                .thresholds(solve_for(scope, delay, 2.0).expect("stable configuration"))
                .scope(scope)
                .sensor(SensorConfig {
                    delay_cycles: delay,
                    noise_mv: 0.0,
                    seed: 1,
                })
        } else {
            builder
        };
        let mut sim = builder.build().expect("loop builds");
        sim.step_n(cycles);
        out
    }
}

impl Scenario for Fig08Stressmark {
    fn id(&self) -> &'static str {
        "fig08_stressmark"
    }
    fn title(&self) -> &'static str {
        "auto-tuned dI/dt stressmark listing"
    }
    fn trace_aware(&self) -> bool {
        true
    }
    fn cells(&self, ctx: &Ctx) -> Vec<String> {
        let mut cells = vec!["listing".to_string()];
        if ctx.trace.is_some() {
            cells.push("uncontrolled".into());
            cells.push("controlled".into());
        }
        cells
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        if cell > 0 {
            return self.traced_cell(ctx, cell == 2);
        }
        let mut out = CellResult::new("listing");
        let config = cpu_config();
        let power = power_model();
        let period = pdn_at(2.0).resonant_period_cycles();
        let (params, wl) = stressmark::tune(period, &config, &power);

        let s = &mut out.text;
        writeln!(s, "== Figure 8: dI/dt stressmark (auto-tuned) ==\n").unwrap();
        writeln!(
            s,
            "target period: {period} cycles ({:.0} MHz at 3 GHz)",
            3.0e9 / period as f64 / 1e6
        )
        .unwrap();
        writeln!(
            s,
            "tuned parameters: divide chain {}, burst ops {}\n",
            params.divide_chain, params.burst_ops
        )
        .unwrap();

        let listing = voltctl_isa::asm::disassemble(&wl.program);
        let lines: Vec<&str> = listing.lines().collect();
        // Head of the loop (through the cmov handoff) plus the closing ops.
        for line in lines.iter().take(14) {
            writeln!(s, "{line}").unwrap();
        }
        writeln!(
            s,
            "    ; ... {} burst instructions elided ...",
            params.burst_ops.saturating_sub(12)
        )
        .unwrap();
        for line in lines.iter().rev().take(4).collect::<Vec<_>>().iter().rev() {
            writeln!(s, "{line}").unwrap();
        }
        writeln!(s, "\ntotal loop body: {} instructions", wl.program.len()).unwrap();
        out
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        cells[0].text.clone()
    }
}

/// Figure 9: the software stressmark vs the analytic worst case.
pub struct Fig09StressmarkVsWorst;

impl Scenario for Fig09StressmarkVsWorst {
    fn id(&self) -> &'static str {
        "fig09_stressmark_vs_worst"
    }
    fn title(&self) -> &'static str {
        "stressmark swing vs analytic worst case"
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        vec!["analytic worst case".into(), "stressmark".into()]
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let pdn = pdn_at(2.0);
        let cycles = ctx.budget(60_000) as usize;
        let max_dev = |volts: &[f64]| {
            volts
                .iter()
                .map(|v| (v - pdn.v_nominal()).abs())
                .fold(0.0f64, f64::max)
        };
        if cell == 0 {
            // Analytic worst case: full-swing square train at resonance.
            let period = pdn.resonant_period_cycles();
            let train = waveform::square_wave(0.0, delta_i(), period, cycles);
            let mut state = pdn.discretize();
            let volts = state.run(&train);
            let mut out = CellResult::new("analytic worst case");
            out.value("dev_v", max_dev(&volts));
            out
        } else {
            // The stressmark, measured on the real pipeline.
            let stress = tuned_stressmark();
            let trace = current_trace(&stress, cycles);
            let swing = waveform::stats(&trace).expect("nonempty trace");
            let mut state = pdn.discretize();
            state.set_reference_current(trace.iter().cloned().fold(f64::MAX, f64::min));
            let volts = state.run(&trace);
            let mut out = CellResult::new("stressmark");
            out.value("dev_v", max_dev(&volts));
            out.value("i_min", swing.min);
            out.value("i_max", swing.max);
            out
        }
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        let pdn = pdn_at(2.0);
        let cycles = ctx.budget(60_000) as usize;
        let ideal_dev = cells[0].require("dev_v");
        let stress_dev = cells[1].require("dev_v");
        let (i_min, i_max) = (cells[1].require("i_min"), cells[1].require("i_max"));

        let mut s = String::new();
        writeln!(
            s,
            "== Figure 9: stressmark vs maximum-height resonant pulse train =="
        )
        .unwrap();
        writeln!(
            s,
            "   (200% of target impedance, {cycles} measured cycles)\n"
        )
        .unwrap();
        writeln!(
            s,
            "analytic worst case: swing {:.1} A, max |dV| {:.1} mV",
            delta_i(),
            ideal_dev * 1e3
        )
        .unwrap();
        writeln!(
            s,
            "stressmark:          swing {:.1} A (min {:.1} / max {:.1}), max |dV| {:.1} mV",
            i_max - i_min,
            i_min,
            i_max,
            stress_dev * 1e3
        )
        .unwrap();
        writeln!(
            s,
            "\nstressmark achieves {:.0}% of the theoretical worst-case swing",
            100.0 * stress_dev / ideal_dev
        )
        .unwrap();
        ctx.check(
            stress_dev < ideal_dev,
            "software cannot beat the analytic bound",
        );
        ctx.check(
            stress_dev > 0.4 * ideal_dev,
            "but it must be severe enough to stress the controller",
        );
        let tol = pdn.tolerance_volts();
        writeln!(
            s,
            "emergency threshold is {:.0} mV: stressmark {} it at this impedance",
            tol * 1e3,
            if stress_dev > tol {
                "CROSSES"
            } else {
                "stays within"
            }
        )
        .unwrap();
        s
    }
}

/// Figure 11: a threshold controller in action on the stressmark.
pub struct Fig11ControllerTrace;

impl Scenario for Fig11ControllerTrace {
    fn id(&self) -> &'static str {
        "fig11_controller_trace"
    }
    fn title(&self) -> &'static str {
        "threshold controller trace on the stressmark"
    }
    fn trace_aware(&self) -> bool {
        true
    }
    fn runtime(&self) -> Runtime {
        Runtime::Seconds
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        vec!["trace".into()]
    }
    fn run_cell(&self, ctx: &Ctx, _cell: usize) -> CellResult {
        let mut out = CellResult::new("trace");
        let scope = ActuationScope::FuDl1Il1;
        let delay = 2;
        let thresholds = solve_for(scope, delay, 2.0).expect("stable configuration");
        let stress = tuned_stressmark();
        if let Some(spec) = ctx.trace {
            out.tracer = FlightRecorder::new(spec.window);
        }

        let mut sim = ControlLoop::builder(stress.program.clone())
            .power(power_model())
            .pdn(pdn_at(2.0))
            .thresholds(thresholds)
            .scope(scope)
            .sensor(SensorConfig {
                delay_cycles: delay,
                noise_mv: 0.0,
                seed: 1,
            })
            .record_trace(true)
            .recorder(MemoryRecorder::new())
            .tracer(&mut out.tracer)
            .build()
            .expect("loop builds");
        sim.step_n(ctx.warmup(stress.warmup_cycles) + ctx.budget(6_000));
        sim.finish_telemetry();
        let trace = sim.take_trace();
        let report = sim.report();
        if ctx.telemetry {
            out.recorder.merge(sim.recorder());
            // This figure is about the per-cycle trace, so export it whole.
            let rows = trace.iter().enumerate().map(|(k, s)| {
                vec![
                    k as f64,
                    s.voltage,
                    s.current,
                    if s.reducing { 1.0 } else { 0.0 },
                    if s.increasing { 1.0 } else { 0.0 },
                ]
            });
            match export::write_trace_csv(
                &ctx.telemetry_out,
                "fig11_controller_trace",
                "trace",
                &["cycle", "voltage_v", "current_a", "reducing", "increasing"],
                rows,
            ) {
                Ok(path) => eprintln!("telemetry trace: {}", path.display()),
                Err(e) => eprintln!("voltctl[warn] telemetry.export: trace write failed: {e}"),
            }
        }

        let s = &mut out.text;
        writeln!(s, "== Figure 11: threshold controller in action ==").unwrap();
        writeln!(
            s,
            "   (stressmark, 200% impedance, {} actuator, sensor delay {delay}, thresholds [{:.3}, {:.3}])\n",
            scope.name(),
            thresholds.v_low,
            thresholds.v_high
        )
        .unwrap();

        // Show a 300-cycle window that contains actuation.
        let start = trace
            .iter()
            .position(|st| st.reducing)
            .map(|p| p.saturating_sub(60))
            .unwrap_or(0);
        let window: Vec<_> = trace[start..(start + 300).min(trace.len())].to_vec();
        let volts: Vec<f64> = window.iter().map(|st| st.voltage).collect();
        let amps: Vec<f64> = window.iter().map(|st| st.current).collect();
        writeln!(s, "-- supply voltage (V), 300 cycles --").unwrap();
        writeln!(s, "{}", ascii_chart(&volts, 10, 75)).unwrap();
        writeln!(s, "-- load current (A), same window --").unwrap();
        writeln!(s, "{}", ascii_chart(&amps, 8, 75)).unwrap();
        let gate_marks: String = window
            .iter()
            .step_by(4)
            .map(|st| {
                if st.reducing {
                    'G'
                } else if st.increasing {
                    'F'
                } else {
                    '.'
                }
            })
            .collect();
        writeln!(
            s,
            "actuation (per 4 cycles, G=gated F=fired): {gate_marks}\n"
        )
        .unwrap();

        writeln!(
            s,
            "run summary: {} interventions, {} gated cycles, {} fired cycles, {} emergency cycles",
            report.interventions,
            report.reduce_cycles,
            report.increase_cycles,
            report.emergencies.emergency_cycles
        )
        .unwrap();
        ctx.check(
            report.interventions > 0,
            "controller must act on the stressmark",
        );
        out
    }
    fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
        cells[0].text.clone()
    }
}

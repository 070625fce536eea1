//! Suite-wide uncontrolled characterizations (Table 2 and Figure 10):
//! one grid cell per SPEC2000 benchmark plus the stressmark, so the
//! expensive per-workload current traces fan out across workers.
//!
//! Benchmarks appear in the canonical suite order documented on
//! [`spec::names`] — the grid is built from [`spec::by_index`], so the
//! report order is stable by construction regardless of worker count.

use std::fmt::Write as _;
use voltctl_core::{replay_current_trace, replay_current_trace_traced};
use voltctl_telemetry::{LinearHistogram, Recorder};
use voltctl_trace::FlightRecorder;
use voltctl_workloads::{spec, Workload};

use crate::engine::{CellResult, Ctx, Runtime, Scenario};
use crate::harness::{current_trace, pdn_at, tuned_stressmark};
use crate::report::TextTable;

/// The grid shared by both suite scenarios: the 26 benchmarks in suite
/// order, then the stressmark.
fn suite_cells() -> Vec<String> {
    let mut labels: Vec<String> = spec::names().iter().map(|n| n.to_string()).collect();
    labels.push(tuned_stressmark().name);
    labels
}

/// The workload for a grid index (suite order, stressmark last).
fn suite_workload(cell: usize) -> Workload {
    if cell < spec::SUITE_LEN {
        spec::by_index(cell)
    } else {
        tuned_stressmark()
    }
}

/// Table 2: voltage emergencies across SPEC2000 at 100%–400% of target
/// impedance.
///
/// Each benchmark's uncontrolled current trace is recorded once on the
/// cycle-level simulator, then replayed through the supply network at
/// each impedance (the trace does not depend on the network). Shape
/// targets: zero emergencies at 100% (by calibration) and at 200%; a
/// marginal benchmark count at 300%; many benchmarks with rare
/// emergencies at 400%. The stressmark, by contrast, crosses already at
/// 200%.
pub struct Table2Emergencies;

const PERCENTS: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

impl Scenario for Table2Emergencies {
    fn id(&self) -> &'static str {
        "table2_emergencies"
    }
    fn title(&self) -> &'static str {
        "SPEC2000 emergencies at 100%-400% impedance"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Minutes
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        suite_cells()
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let wl = suite_workload(cell);
        let full = ctx.budget(300_000) as usize;
        // The stressmark's severity saturates quickly; the paper's prose
        // line needs far fewer cycles than the suite table.
        let cycles = if cell < spec::SUITE_LEN {
            full
        } else {
            full.min(ctx.budget(120_000) as usize)
        };
        let trace = current_trace(&wl, cycles);
        let mut out = CellResult::new(wl.name.clone());
        out.row.push(wl.name.clone());
        for (k, &percent) in PERCENTS.iter().enumerate() {
            let replay = replay_current_trace(&pdn_at(percent), &trace, false);
            let r = &replay.report;
            if ctx.telemetry {
                r.record_telemetry(&mut out.recorder);
            }
            out.value(FREQ_KEYS[k], r.frequency());
            out.row.push(format!("{:.5}%", r.frequency() * 100.0));
        }
        out
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        let cycles = ctx.budget(300_000) as usize;
        let suite = &cells[..spec::SUITE_LEN];
        let stress = &cells[spec::SUITE_LEN];

        let mut s = String::new();
        writeln!(s, "== Table 2: voltage emergencies on SPEC2000 ==").unwrap();
        writeln!(
            s,
            "   ({cycles} cycles per benchmark; emergencies = cycles beyond +/-5%)\n"
        )
        .unwrap();

        let mut with_emergencies = [0usize; 4];
        let mut freq_sum = [0.0f64; 4];
        let mut freq_max = [0.0f64; 4];
        let mut per_bench = TextTable::new(["benchmark", "100%", "200%", "300%", "400%"]);
        for c in suite {
            for (k, key) in FREQ_KEYS.iter().enumerate() {
                let freq = c.require(key);
                if freq > 0.0 {
                    with_emergencies[k] += 1;
                }
                freq_sum[k] += freq;
                freq_max[k] = freq_max[k].max(freq);
            }
            per_bench.row(c.row.clone());
        }

        let mut t = TextTable::new(["", "100%", "200%", "300%", "400%"]);
        t.row(
            std::iter::once("benchmarks w/ emergencies".to_string())
                .chain(with_emergencies.iter().map(|c| c.to_string())),
        );
        t.row(
            std::iter::once("emergency freq (average)".to_string()).chain(
                freq_sum
                    .iter()
                    .map(|x| format!("{:.5}%", x / suite.len() as f64 * 100.0)),
            ),
        );
        t.row(
            std::iter::once("emergency freq (maximum)".to_string())
                .chain(freq_max.iter().map(|m| format!("{:.5}%", m * 100.0))),
        );
        writeln!(s, "{}", t.render()).unwrap();

        // The stressmark row the paper notes in prose.
        s.push_str("stressmark emergency frequency:");
        for (k, key) in FREQ_KEYS.iter().enumerate() {
            write!(
                s,
                "  {}%: {:.3}%",
                (PERCENTS[k] * 100.0) as u32,
                stress.require(key) * 100.0
            )
            .unwrap();
        }
        writeln!(s, "\n\nper-benchmark emergency frequencies:").unwrap();
        writeln!(s, "{}", per_bench.render()).unwrap();
        s
    }
}

const FREQ_KEYS: [&str; 4] = ["freq_100", "freq_200", "freq_300", "freq_400"];

/// Figure 10: voltage distributions across SPEC2000 (plus the
/// stressmark) at 100% of target impedance.
///
/// At the target impedance no benchmark leaves specification (Table 2's
/// leftmost column), but the *width* of each distribution varies wildly:
/// ammp is famously stable, galgel and swim spread across the band.
pub struct Fig10VoltageDistributions;

impl Scenario for Fig10VoltageDistributions {
    fn id(&self) -> &'static str {
        "fig10_voltage_distributions"
    }
    fn title(&self) -> &'static str {
        "SPEC2000 voltage distributions at 100% impedance"
    }
    fn trace_aware(&self) -> bool {
        true
    }
    fn runtime(&self) -> Runtime {
        Runtime::Minutes
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        suite_cells()
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let wl = suite_workload(cell);
        let cycles = ctx.budget(200_000) as usize;
        let trace = current_trace(&wl, cycles);
        let mut out = CellResult::new(wl.name.clone());
        let replay = if let Some(spec) = ctx.trace {
            // Replays are trace-aware: at 100% impedance crossings are
            // rare (that's Table 2's point), so most cells contribute
            // cycle counts but no captures.
            let (replay, tracer) = replay_current_trace_traced(
                &pdn_at(1.0),
                &trace,
                true,
                FlightRecorder::new(spec.window),
            );
            out.tracer = tracer;
            replay
        } else {
            replay_current_trace(&pdn_at(1.0), &trace, true)
        };
        let r = &replay.report;
        let hist = replay.histogram.as_ref().expect("histogram requested");
        if ctx.telemetry {
            // Suite-wide aggregate: histograms merge bin-wise, reports sum.
            r.record_telemetry(&mut out.recorder);
            out.recorder.histogram("pdn.voltage_hist", hist);
        }
        out.row = vec![
            wl.name.clone(),
            format!("{:.4}", r.min_v),
            format!("{:.4}", r.max_v),
            format!("{:.2}", hist.spread() * 1e3),
            r.emergency_cycles.to_string(),
            format!("[{}]", sparkline(hist)),
        ];
        out
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        let cycles = ctx.budget(200_000) as usize;
        let mut s = String::new();
        writeln!(
            s,
            "== Figure 10: voltage distributions at 100% of target impedance =="
        )
        .unwrap();
        writeln!(
            s,
            "   ({cycles} cycles per benchmark; sparkline spans 0.90 V .. 1.10 V)\n"
        )
        .unwrap();
        let mut t = TextTable::new([
            "benchmark",
            "min (V)",
            "max (V)",
            "spread (mV)",
            "emerg",
            "0.90V [distribution] 1.10V",
        ]);
        for c in cells {
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(spread = standard deviation of the distribution; paper highlights"
        )
        .unwrap();
        writeln!(s, " ammp as exceptionally stable and galgel/swim as wide)").unwrap();
        s
    }
}

/// Collapses a 100-bin voltage histogram into a 25-character density
/// sparkline.
fn sparkline(hist: &LinearHistogram) -> String {
    let counts = hist.counts();
    let glyphs = [' ', '.', ':', '+', '*', '#'];
    let bucket = counts.len() / 25;
    let maxc = counts.iter().copied().max().unwrap_or(1).max(1);
    (0..25)
        .map(|b| {
            let sum: u64 = counts[b * bucket..(b + 1) * bucket].iter().sum();
            let mean = sum / bucket as u64;
            let idx = ((mean as f64 / maxc as f64) * (glyphs.len() - 1) as f64).ceil() as usize;
            glyphs[idx.min(glyphs.len() - 1)]
        })
        .collect()
}

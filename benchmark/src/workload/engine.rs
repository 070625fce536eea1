//! `sweep` and `suite`: full-scale scenarios on the experiment engine at
//! two worker threads, one request per scenario run.
//!
//! * `sweep` (fig14 + fig17) is the one workload where the lane executor
//!   does nearly all the work.
//! * `suite` (table2 + fig10) records 26 SPEC kernels' current traces
//!   uncontrolled and replays them through the PDN: no controller and no
//!   lanes, kernels from memory-bound to compute-bound.
//!
//! Traced passes run `run_scenario_profiled` with a fresh `SelfProfiler`
//! per scenario and read the engine's own spans; `suite` adds outside
//! timers around the trace-record and replay functions its cells call.

use super::{shuffled, Bench, Kind, Opts, Tally, THREADS};
use crate::host;
use crate::metrics::Values;
use crate::reference::References;
use crate::stats::{median, percentile, sorted};
use std::time::Instant;
use voltctl_core::replay_current_trace;
use voltctl_exp::{
    find, harness, run_scenario, run_scenario_profiled, Ctx, Scenario, SelfProfiler,
};

/// Scenarios per workload, in reference order.
pub fn scenarios(kind: Kind) -> [&'static str; 2] {
    match kind {
        Kind::Sweep => ["fig14_sensor_delay_perf", "fig17_actuator_perf"],
        _ => ["table2_emergencies", "fig10_voltage_distributions"],
    }
}

/// Kernels timed by the `suite` outside timers, and their trace length.
const RECORD_KERNELS: [&str; 3] = ["gcc", "mcf", "swim"];
const RECORD_CYCLES: usize = 100_000;

/// Engine spans of one traced pass, summed over its scenarios.
#[derive(Debug, Default, Clone, Copy)]
struct PassSpans {
    grid_s: f64,
    merge_ms: f64,
    render_ms: f64,
    lane_step_s: f64,
    lane_gather_s: f64,
    lane_scatter_s: f64,
}

pub struct EngineBench {
    kind: Kind,
    scenarios: Vec<&'static dyn Scenario>,
    ctx: Ctx,
    smoke: bool,
    refs: &'static References,
    spans: Vec<PassSpans>,
    /// Per-cell (or per lane chunk) milliseconds across traced passes.
    cells_ms: Vec<f64>,
}

impl EngineBench {
    pub fn setup(kind: Kind, opts: &Opts, refs: &'static References) -> EngineBench {
        let scenarios: Vec<&'static dyn Scenario> = scenarios(kind)
            .iter()
            .map(|id| find(id).expect("workload scenarios are registry ids"))
            .collect();
        let smoke_ctx = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        for s in &scenarios {
            run_scenario(*s, &smoke_ctx, THREADS);
        }
        EngineBench {
            kind,
            scenarios: shuffled(scenarios, opts.seed),
            ctx: if opts.smoke { smoke_ctx } else { Ctx::new(1.0) },
            smoke: opts.smoke,
            refs,
            spans: Vec::new(),
            cells_ms: Vec::new(),
        }
    }

    /// Folds one profiled scenario run into `pass`, and its cells into
    /// `cells_ms`. A cell is what a worker runs at once: a grid cell on
    /// the scalar path, a lane chunk (gather + step + scatter) on the lane
    /// path.
    fn fold_profile(&mut self, p: &SelfProfiler, elapsed_s: f64, pass: &mut PassSpans) {
        let mut chunks: Vec<(String, f64)> = Vec::new();
        let (mut merge, mut render) = (0.0, 0.0);
        // Stacks are `exp;<id>;<stage>;…` (see `voltctl_exp::profile`).
        for (stack, stat) in p.stacks() {
            let ms = stat.total_ns as f64 / 1e6;
            let frames: Vec<&str> = stack.split(';').collect();
            match frames.get(2..).unwrap_or(&[]) {
                ["merge"] => merge += ms,
                ["render"] => render += ms,
                ["grid", ..] => self.cells_ms.push(ms / stat.count.max(1) as f64),
                ["lanes", stage, chunk, ..] => {
                    match *stage {
                        "step" => pass.lane_step_s += ms / 1e3,
                        "gather" => pass.lane_gather_s += ms / 1e3,
                        _ => pass.lane_scatter_s += ms / 1e3,
                    }
                    match chunks.iter_mut().find(|(c, _)| c == chunk) {
                        Some((_, total)) => *total += ms,
                        None => chunks.push((chunk.to_string(), ms)),
                    }
                }
                _ => {}
            }
        }
        self.cells_ms.extend(chunks.into_iter().map(|(_, ms)| ms));
        pass.merge_ms += merge;
        pass.render_ms += render;
        pass.grid_s += elapsed_s - (merge + render) / 1e3;
    }

    /// Per-cycle host cost of recording a current trace and of replaying
    /// it (without and with the voltage histogram), by outside timers.
    fn record_and_replay(&self) -> Values {
        let cycles = if self.smoke { 1_500 } else { RECORD_CYCLES };
        let pdn = harness::pdn_at(1.0);
        let (mut record_ns, mut recorded) = (0.0, 0.0);
        let (mut replay_ns, mut hist_ns, mut replayed) = (0.0, 0.0, 0.0);
        for name in RECORD_KERNELS {
            let w = voltctl_workloads::spec::by_name(name).expect("suite kernel");
            let t = Instant::now();
            let trace = harness::current_trace(&w, cycles);
            record_ns += host::secs(t) * 1e9;
            recorded += (w.warmup_cycles + cycles as u64) as f64;
            let t = Instant::now();
            std::hint::black_box(replay_current_trace(&pdn, &trace, false));
            replay_ns += host::secs(t) * 1e9;
            let t = Instant::now();
            std::hint::black_box(replay_current_trace(&pdn, &trace, true));
            hist_ns += host::secs(t) * 1e9;
            replayed += trace.len() as f64;
        }
        Values::from([
            ("cpu.trace_record_ns".to_string(), record_ns / recorded),
            ("pdn.replay_ns".to_string(), replay_ns / replayed),
            ("pdn.replay_hist_ns".to_string(), hist_ns / replayed),
        ])
    }
}

impl Bench for EngineBench {
    fn pass(&mut self, traced: bool, tally: &mut Tally) {
        let mut spans = PassSpans::default();
        for s in self.scenarios.clone() {
            let started = Instant::now();
            let report = if traced {
                let p = SelfProfiler::new();
                let out = run_scenario_profiled(s, &self.ctx, THREADS, &p);
                self.fold_profile(&p, out.elapsed.as_secs_f64(), &mut spans);
                out.report
            } else {
                run_scenario(s, &self.ctx, THREADS).report
            };
            tally.record(started, self.refs.scenario_ok(self.smoke, s.id(), &report));
        }
        if traced {
            self.spans.push(spans);
        }
    }

    fn values(&mut self, traced: bool) -> Values {
        if !traced {
            return Values::new();
        }
        let med = |f: fn(&PassSpans) -> f64| median(&self.spans.iter().map(f).collect::<Vec<_>>());
        let cells = sorted(&self.cells_ms);
        let mut v = Values::from([
            ("exp.grid_s".to_string(), med(|p| p.grid_s)),
            ("exp.merge_ms".to_string(), med(|p| p.merge_ms)),
            ("exp.render_ms".to_string(), med(|p| p.render_ms)),
            ("core.lane_step_s".to_string(), med(|p| p.lane_step_s)),
            ("core.lane_gather_s".to_string(), med(|p| p.lane_gather_s)),
            ("core.lane_scatter_s".to_string(), med(|p| p.lane_scatter_s)),
            ("exp.cell_ms_p50".to_string(), percentile(&cells, 0.5)),
            ("exp.cell_ms_max".to_string(), percentile(&cells, 1.0)),
        ]);
        if self.kind == Kind::Suite {
            v.extend(self.record_and_replay());
        }
        v
    }
}

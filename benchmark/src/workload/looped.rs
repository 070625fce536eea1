//! `loop`: the per-cycle simulator alone. One scalar `ControlLoop` per
//! program at 200% of target impedance with FU/DL1 thresholds solved for
//! sensor delay 2; each request builds the loop (caches start empty) and
//! steps it for a fixed cycle budget. The programs span IPC 0.004 to 4,
//! so both stall-dominated and busy-pipeline cycles are timed.
//!
//! Traced passes run the same `ControlLoop` with a `MemoryRecorder`
//! attached, which times its CPU, power, PDN and control sub-steps on one
//! cycle in `TIMER_SAMPLE_STRIDE`. Every traced run is checked against
//! the same references as the untraced one.

use super::{shuffled, Bench, Opts, Tally};
use crate::host;
use crate::metrics::{Values, LOOP_PROGRAMS, LOOP_SPANS};
use crate::reference::References;
use crate::stats::median;
use std::time::Instant;
use voltctl_core::loopsim::ControlLoopBuilder;
use voltctl_core::{ActuationScope, ControlError, ControlLoop, SensorConfig, Thresholds};
use voltctl_cpu::CpuConfig;
use voltctl_exp::harness;
use voltctl_isa::Program;
use voltctl_pdn::PdnModel;
use voltctl_power::PowerModel;
use voltctl_telemetry::{MemoryRecorder, Recorder, Stopwatch};
use voltctl_workloads::{spec, Workload};

/// Cycles per program request: a pass of the four programs takes about
/// 1.3 s on the reference host, so a run holds a dozen passes to take
/// the median of.
pub const CYCLES: u64 = 500_000;
/// Cycles per program in smoke runs, and in the set-up warm-up.
pub const SMOKE_CYCLES: u64 = 20_000;

/// The `ControlLoop` sub-step timers, in [`LOOP_SPANS`] order.
const TIMERS: [&str; 4] = [
    "loop.step.cpu_ns",
    "loop.step.power_ns",
    "loop.step.pdn_ns",
    "loop.step.control_ns",
];

/// Everything a `loop` request's closed loop is built from.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Machine configuration.
    pub cpu: CpuConfig,
    /// Power model.
    pub power: PowerModel,
    /// Supply network.
    pub pdn: PdnModel,
    /// Control thresholds.
    pub thresholds: Thresholds,
    /// Sensor delay, noise and seed.
    pub sensor: SensorConfig,
    /// Actuation scope for both responses.
    pub scope: ActuationScope,
}

impl LoopConfig {
    /// A builder for the loop that runs `program`.
    pub fn builder(&self, program: &Program) -> ControlLoopBuilder {
        ControlLoop::builder(program.clone())
            .cpu_config(self.cpu.clone())
            .power(self.power.clone())
            .pdn(self.pdn.clone())
            .sensor(self.sensor)
            .scope(self.scope)
            .thresholds(self.thresholds)
    }

    /// The untraced loop that runs `program`.
    ///
    /// # Errors
    ///
    /// Propagates `ControlLoopBuilder::build` errors.
    pub fn control_loop(&self, program: &Program) -> Result<ControlLoop, ControlError> {
        self.builder(program).build()
    }
}

/// The `loop` configuration.
pub fn config() -> Result<LoopConfig, String> {
    let scope = ActuationScope::FuDl1;
    Ok(LoopConfig {
        cpu: harness::cpu_config(),
        power: harness::power_model(),
        pdn: harness::pdn_at(2.0),
        thresholds: harness::solve_for(scope, 2, 2.0).map_err(|e| e.to_string())?,
        sensor: SensorConfig {
            delay_cycles: 2,
            ..SensorConfig::default()
        },
        scope,
    })
}

/// A `loop` program by name.
pub fn program(name: &str) -> Workload {
    if name == "stressmark" {
        harness::tuned_stressmark()
    } else {
        spec::by_name(name).expect("loop programs are suite kernels")
    }
}

/// Nanoseconds one `Stopwatch` span adds to what it times: the median,
/// over nine batches, of the mean recorded length of an empty span.
fn stopwatch_cost_ns() -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut rec = MemoryRecorder::new();
            let id = rec.metric_id("empty");
            for _ in 0..10_000 {
                Stopwatch::started_if(true).stop_id(&mut rec, id);
            }
            rec.snapshot().timer("empty").map_or(0.0, |t| t.mean_ns())
        })
        .collect();
    median(&batches)
}

/// Per-program accumulators of one phase.
#[derive(Debug, Default, Clone)]
struct ProgramStats {
    /// ns per cycle of each untraced request.
    ns_per_cycle: Vec<f64>,
    /// Summed recorded nanoseconds per [`TIMERS`] entry, and timed cycles.
    spans: [u64; 4],
    samples: u64,
    committed: u64,
    ipc: f64,
    interventions: u64,
    emergency_cycles: u64,
}

pub struct LoopBench {
    config: LoopConfig,
    /// (reference index, workload), in the seed's order.
    programs: Vec<(usize, Workload)>,
    cycles: u64,
    smoke: bool,
    refs: &'static References,
    timed: Vec<ProgramStats>,
    traced: Vec<ProgramStats>,
    /// ns of untraced stepping per pass, and cycles per pass.
    pass_ns: Vec<(f64, u64)>,
}

impl LoopBench {
    pub fn setup(opts: &Opts, refs: &'static References) -> Result<LoopBench, String> {
        let config = config()?;
        let programs: Vec<(usize, Workload)> = LOOP_PROGRAMS
            .iter()
            .enumerate()
            .map(|(i, name)| (i, program(name)))
            .collect();
        for (_, w) in &programs {
            let mut sim = config.control_loop(&w.program).map_err(|e| e.to_string())?;
            sim.step_n(SMOKE_CYCLES);
        }
        Ok(LoopBench {
            config,
            programs: shuffled(programs, opts.seed),
            cycles: if opts.smoke { SMOKE_CYCLES } else { CYCLES },
            smoke: opts.smoke,
            refs,
            timed: vec![ProgramStats::default(); LOOP_PROGRAMS.len()],
            traced: vec![ProgramStats::default(); LOOP_PROGRAMS.len()],
            pass_ns: Vec::new(),
        })
    }
}

impl Bench for LoopBench {
    fn pass(&mut self, traced: bool, tally: &mut Tally) {
        let (mut pass_ns, mut pass_cycles) = (0.0, 0);
        for (idx, w) in &self.programs {
            let name = LOOP_PROGRAMS[*idx];
            let started = Instant::now();
            let ok = if traced {
                let mut sim = self
                    .config
                    .builder(&w.program)
                    .recorder(MemoryRecorder::new())
                    .build()
                    .expect("the configuration built in set-up");
                sim.step_n(self.cycles);
                let report = sim.report();
                let timers = sim.recorder().snapshot();
                let stats = &mut self.traced[*idx];
                for (acc, timer) in stats.spans.iter_mut().zip(TIMERS) {
                    let t = timers.timer(timer).expect("ControlLoop sub-step timer");
                    *acc += t.total_ns;
                    stats.samples += t.count;
                }
                stats.committed = report.committed;
                stats.ipc = report.ipc;
                stats.interventions = report.interventions;
                stats.emergency_cycles = report.emergencies.emergency_cycles;
                self.refs
                    .loop_ok(self.smoke, name, &report, sim.arch_digest())
            } else {
                let mut sim = self
                    .config
                    .control_loop(&w.program)
                    .expect("the configuration built in set-up");
                let t = Instant::now();
                let ran = sim.step_n(self.cycles);
                let ns = host::secs(t) * 1e9;
                pass_ns += ns;
                pass_cycles += ran;
                self.timed[*idx].ns_per_cycle.push(ns / ran.max(1) as f64);
                self.refs
                    .loop_ok(self.smoke, name, &sim.report(), sim.arch_digest())
            };
            tally.record(started, ok);
        }
        if !traced {
            self.pass_ns.push((pass_ns, pass_cycles));
        }
    }

    fn values(&mut self, traced: bool) -> Values {
        let mut v = Values::new();
        if !traced {
            let per_pass: Vec<f64> = self
                .pass_ns
                .iter()
                .map(|&(ns, cycles)| ns / cycles.max(1) as f64)
                .collect();
            v.insert("core.ns_per_cycle".into(), median(&per_pass));
            for (name, stats) in LOOP_PROGRAMS.iter().zip(&self.timed) {
                v.insert(
                    format!("core.ns_per_cycle.{name}"),
                    median(&stats.ns_per_cycle),
                );
            }
            return v;
        }
        // Mean ns per timed cycle and sub-step, less what the span itself
        // adds. `samples` counts all four timers, one span each per cycle.
        let clock_ns = stopwatch_cost_ns();
        let mean = |s: &ProgramStats| -> [f64; 4] {
            let n = (s.samples / 4).max(1) as f64;
            s.spans.map(|ns| ns as f64 / n - clock_ns)
        };
        let mut total = ProgramStats::default();
        for (name, stats) in LOOP_PROGRAMS.iter().zip(&self.traced) {
            for (layer, ns) in LOOP_SPANS.iter().zip(mean(stats)) {
                v.insert(format!("{layer}.{name}"), ns);
            }
            for (acc, ns) in total.spans.iter_mut().zip(stats.spans) {
                *acc += ns;
            }
            total.samples += stats.samples;
            v.insert(format!("cpu.ipc.{name}"), stats.ipc);
        }
        for (layer, ns) in LOOP_SPANS.iter().zip(mean(&total)) {
            v.insert(layer.to_string(), ns);
        }
        let sum = |f: fn(&ProgramStats) -> u64| self.traced.iter().map(f).sum::<u64>() as f64;
        v.insert("cpu.committed".into(), sum(|s| s.committed));
        v.insert("core.interventions".into(), sum(|s| s.interventions));
        v.insert("pdn.emergency_cycles".into(), sum(|s| s.emergency_cycles));
        v
    }
}

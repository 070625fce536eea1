//! The experiment engine: a [`Scenario`] declares a parameter grid and a
//! per-cell run function; [`run_scenario`] fans the grid out across
//! worker threads and reassembles a deterministic report.
//!
//! # Determinism contract
//!
//! Cells are independent and each cell's computation is fully seeded, so
//! the engine guarantees that **the report and the merged telemetry
//! structure are identical for any `--jobs` value**:
//!
//! * cells are identified by their grid index, and results are stored by
//!   index — workers race only for *which* cell to run next, never for
//!   where a result lands;
//! * per-cell [`MemoryRecorder`]s are merged in grid order after the
//!   join, not in completion order (wall-clock timer *values* still vary
//!   run to run — they are wall clock — but every counter, value
//!   statistic, histogram bin, and the event sequence are reproducible);
//! * rendering happens once, on the caller's thread, over the
//!   index-ordered results.
//!
//! This is verified by `tests/determinism.rs` (byte-identical reports at
//! `--jobs 1` vs `--jobs 8`).

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use voltctl_core::{ControlLoop, LaneLoop, LaneOutcome};
use voltctl_cpu::Cpu;
use voltctl_telemetry::{MemoryRecorder, Recorder, Stopwatch};
use voltctl_trace::{Cause, FlightRecorder, MergedTrace, NullTracer, Tracer};

use crate::profile::SelfProfiler;
use crate::scale::scaled_budget;

/// Trace configuration for a run: when present in [`Ctx`], scenarios
/// that support tracing attach a [`FlightRecorder`] with this window to
/// their controlled loops and hand it back on the [`CellResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Flight-recorder window: cycles kept before and after each
    /// emergency crossing.
    pub window: usize,
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec {
            window: voltctl_trace::DEFAULT_WINDOW,
        }
    }
}

/// Cycle budget used for every cell in `--smoke` mode: just enough for
/// the plumbing to be exercised end to end.
pub const SMOKE_CYCLES: u64 = 1_500;
/// Warm-up cap in `--smoke` mode (full warm-ups run to 40k cycles and
/// would dominate a smoke pass).
pub const SMOKE_WARMUP: u64 = 2_000;

/// Per-run context handed to every cell: budget scaling, smoke mode,
/// and whether telemetry should be collected.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Cycle-budget scale factor (1.0 = the documented defaults).
    pub scale: f64,
    /// Smoke mode: tiny budgets, capped warm-ups, narrative shape
    /// assertions disabled. For CI plumbing checks, not for numbers.
    pub smoke: bool,
    /// Whether cells should collect telemetry into their recorders.
    pub telemetry: bool,
    /// Directory for telemetry artifacts cells export directly (per-cycle
    /// trace CSVs and the like). Unused when `telemetry` is off.
    pub telemetry_out: PathBuf,
    /// Event tracing: `Some` makes trace-aware scenarios attach a
    /// flight recorder per cell; `None` (the default) costs nothing —
    /// untraced loops run with `NullTracer`, which compiles away.
    pub trace: Option<TraceSpec>,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            scale: 1.0,
            smoke: false,
            telemetry: false,
            telemetry_out: crate::telemetry::default_out_dir(),
            trace: None,
        }
    }
}

impl Ctx {
    /// A context at a given scale, telemetry off.
    pub fn new(scale: f64) -> Ctx {
        Ctx {
            scale,
            ..Ctx::default()
        }
    }

    /// Scales a default cycle budget (smoke mode overrides to
    /// [`SMOKE_CYCLES`]).
    pub fn budget(&self, default_cycles: u64) -> u64 {
        if self.smoke {
            SMOKE_CYCLES
        } else {
            scaled_budget(default_cycles, self.scale)
        }
    }

    /// The warm-up cycles to use for a workload (smoke mode caps at
    /// [`SMOKE_WARMUP`]).
    pub fn warmup(&self, workload_warmup: u64) -> u64 {
        if self.smoke {
            workload_warmup.min(SMOKE_WARMUP)
        } else {
            workload_warmup
        }
    }

    /// A narrative shape check: panics with `msg` when `cond` fails —
    /// except in smoke mode, where budgets are far too small for the
    /// paper's shape claims to hold.
    ///
    /// # Panics
    ///
    /// Panics when `cond` is false outside smoke mode.
    pub fn check(&self, cond: bool, msg: &str) {
        if !self.smoke {
            assert!(cond, "narrative check failed: {msg}");
        }
    }
}

/// The structured result of one grid cell.
#[derive(Debug, Default)]
pub struct CellResult {
    /// The cell's label (usually echoes the grid label).
    pub label: String,
    /// Pre-formatted table cells, consumed by table-building renderers.
    pub row: Vec<String>,
    /// Free-form report text (charts, narratives); renderers that use
    /// `row` typically leave this empty.
    pub text: String,
    /// Named metrics for cross-cell aggregation in `render` (means,
    /// baselines, comparisons) and structured inspection.
    pub values: Vec<(&'static str, f64)>,
    /// Telemetry collected while running the cell; merged into the
    /// run-wide aggregate in grid order.
    pub recorder: MemoryRecorder,
    /// Flight recorder for trace-aware scenarios (left at its default,
    /// empty state otherwise); snapshotted into the run-wide
    /// [`MergedTrace`] in grid order.
    pub tracer: FlightRecorder,
}

impl CellResult {
    /// An empty result with a label.
    pub fn new(label: impl Into<String>) -> CellResult {
        CellResult {
            label: label.into(),
            ..CellResult::default()
        }
    }

    /// Records a named metric.
    pub fn value(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.values.push((name, value));
        self
    }

    /// Looks up a named metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a named metric, panicking with a clear message when the
    /// cell didn't record it (a scenario bug, not an input condition).
    ///
    /// # Panics
    ///
    /// Panics when the metric is absent.
    pub fn require(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("cell {:?} recorded no metric {name:?}", self.label))
    }
}

/// One lane of a lane-described cell: a fully built closed loop plus the
/// cycle budget it runs for (warm-up included). The lane executor steps
/// it in lockstep with the other distinct lanes of its program; the default
/// [`Scenario::run_cell`] steps it on its own with `sim.step_n(budget)`.
#[derive(Debug)]
pub struct BatchLane {
    /// The closed loop to step.
    pub sim: ControlLoop,
    /// Total cycles to run (the lane exits earlier if its program
    /// terminates, matching `ControlLoop::step_n`).
    pub budget: u64,
}

/// Rough wall-clock class, shown by `voltctl-exp list`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Analytic; finishes in well under a second.
    Instant,
    /// A few seconds of simulation.
    Seconds,
    /// A minute-class full-stack sweep — the parallel payoff lives here.
    Minutes,
}

impl Runtime {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Runtime::Instant => "instant",
            Runtime::Seconds => "seconds",
            Runtime::Minutes => "minutes",
        }
    }
}

/// One reproducible experiment: a named parameter grid plus a per-cell
/// run function and a renderer that turns ordered cell results into the
/// report text.
///
/// Implementations must be `Sync`: `run_cell` is called from worker
/// threads with only `&self`. All mutable state belongs in the
/// [`CellResult`].
pub trait Scenario: Sync {
    /// Stable identifier (`table2_emergencies`, `fig14_sensor_delay_perf`, …).
    fn id(&self) -> &'static str;
    /// One-line description for `voltctl-exp list`.
    fn title(&self) -> &'static str;
    /// Rough runtime class at scale 1.0.
    fn runtime(&self) -> Runtime {
        Runtime::Seconds
    }
    /// The parameter grid: one label per cell, in **report order**. The
    /// engine may run cells in any order on any thread, but results are
    /// always handed to [`render`](Scenario::render) in this order.
    fn cells(&self, ctx: &Ctx) -> Vec<String>;
    /// Runs one cell of the grid. Must be deterministic given
    /// `(ctx, cell)` and free of global mutable state.
    ///
    /// The default body serves lane-described scenarios whenever the
    /// engine does not use the lane executor (telemetry or tracing on):
    /// it steps each of [`batch_cell`](Scenario::batch_cell)'s loops on
    /// its own and hands the outcomes to
    /// [`finish_batch_cell`](Scenario::finish_batch_cell) — the same
    /// lanes, one at a time. With `ctx.telemetry`, every controlled loop
    /// streams into its own recorder, and those are merged into the
    /// cell's recorder in lane order. Scenarios that are not described
    /// by lanes override this.
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        let mut recorder = MemoryRecorder::new();
        let outcomes = self
            .batch_cell(ctx, cell)
            .into_iter()
            .map(|BatchLane { mut sim, budget }| {
                if ctx.telemetry && sim.is_controlled() {
                    let rec = MemoryRecorder::new().echo_warnings(true);
                    let mut sim = sim.with_observers(rec, NullTracer);
                    let outcome = step_lane(&mut sim, budget);
                    sim.finish_telemetry();
                    recorder.merge(sim.recorder());
                    outcome
                } else {
                    step_lane(&mut sim, budget)
                }
            })
            .collect();
        let mut out = self.finish_batch_cell(ctx, cell, outcomes);
        out.recorder = recorder;
        out
    }
    /// Assembles the report from index-ordered cell results.
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String;
    /// Whether cells attach a flight recorder when `ctx.trace` is set.
    /// `voltctl-exp list` marks these; on anything else `--trace` writes
    /// no trace artifacts.
    fn trace_aware(&self) -> bool {
        false
    }
    /// Whether the scenario is described by lanes
    /// ([`batch_cell`](Scenario::batch_cell) +
    /// [`finish_batch_cell`](Scenario::finish_batch_cell)). With
    /// telemetry and tracing off, the engine then plans the grid's lanes,
    /// steps each distinct lane once, and steps a program's lanes in
    /// lockstep in a shared [`LaneLoop`], amortizing CPU and power work
    /// across lanes that share identical state; otherwise
    /// the default [`run_cell`](Scenario::run_cell) steps the same lanes
    /// one at a time. Lane outcomes are bitwise identical either way, so
    /// the choice never shows in a report.
    fn batchable(&self) -> bool {
        false
    }
    /// The cell's lanes, in the order
    /// [`finish_batch_cell`](Scenario::finish_batch_cell) expects their
    /// outcomes. A cell with nothing to simulate (e.g. a configuration
    /// the threshold solver rejects) has zero lanes.
    fn batch_cell(&self, _ctx: &Ctx, _cell: usize) -> Vec<BatchLane> {
        Vec::new()
    }
    /// Assembles the cell's [`CellResult`] from the finished lanes'
    /// outcomes, in the order [`batch_cell`](Scenario::batch_cell)
    /// produced them — a pure reshaping, whichever path stepped them.
    fn finish_batch_cell(
        &self,
        _ctx: &Ctx,
        _cell: usize,
        _outcomes: Vec<LaneOutcome>,
    ) -> CellResult {
        unreachable!("a scenario must override run_cell or implement finish_batch_cell")
    }
}

/// Steps one lane's loop on its own for its budget and materializes the
/// outcome the lane executor would report for it.
fn step_lane<R: Recorder, T: Tracer>(sim: &mut ControlLoop<R, T>, budget: u64) -> LaneOutcome {
    sim.step_n(budget);
    LaneOutcome {
        report: sim.report(),
        arch_digest: sim.arch_digest(),
    }
}

/// The output of one engine run.
#[derive(Debug)]
pub struct RunOutput {
    /// The rendered report.
    pub report: String,
    /// All cells' telemetry, merged in grid order.
    pub telemetry: MemoryRecorder,
    /// All cells' trace captures, merged in grid order. Empty unless
    /// `ctx.trace` was set and the scenario is trace-aware.
    pub trace: MergedTrace,
    /// Number of grid cells executed.
    pub cells: usize,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall-clock for grid execution + merge + render.
    pub elapsed: Duration,
}

/// Runs a scenario's grid on up to `jobs` worker threads and renders
/// its report. `jobs` is clamped to `[1, #cells]`; the cell order of
/// the output is the grid order regardless of scheduling.
pub fn run_scenario(scenario: &dyn Scenario, ctx: &Ctx, jobs: usize) -> RunOutput {
    run_unsharded(scenario, ctx, jobs, None)
}

/// [`run_scenario`] with self-profiling: each grid cell (or lane phase
/// and unit), the merge, and the render record wall-clock spans into
/// `profiler` under folded stacks (`exp;<id>;grid;job<j>;<cell>`,
/// `exp;<id>;lanes;{gather,scatter};grid`,
/// `exp;<id>;lanes;step;chunk<u>`, `exp;<id>;merge`, `exp;<id>;render`).
pub fn run_scenario_profiled(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    profiler: &SelfProfiler,
) -> RunOutput {
    run_unsharded(scenario, ctx, jobs, Some(profiler))
}

/// The scenario driver ([`run_sharded`](crate::shard::run_sharded)) run
/// without a checkpoint store.
fn run_unsharded(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    profiler: Option<&SelfProfiler>,
) -> RunOutput {
    let opts = crate::shard::ShardOpts::default();
    crate::shard::run_sharded(scenario, ctx, jobs, &opts, profiler, |_| {
        ControlFlow::Continue(())
    })
    .expect("a run that never breaks cannot fail")
    .output
}

/// Runs a contiguous sub-range of a scenario's grid on up to `jobs`
/// worker threads and returns the cell results **in grid order**, one
/// `exp;<id>;grid;job<j>;<cell>` span per cell (lane-batched scenarios
/// record [`run_cells_batched`]'s spans instead).
///
/// This is the resumable primitive under the scenario driver: it runs
/// once per shard, and the concatenated shards go to
/// [`assemble_run_profiled`], which merges and renders them the same way
/// at any shard count — so shard-then-merge output is byte-identical to
/// single-shot at any `jobs` value.
///
/// # Panics
///
/// Panics when `range` exceeds the scenario's grid.
pub(crate) fn run_cells_profiled(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
    profiler: Option<&SelfProfiler>,
) -> Vec<CellResult> {
    let id = scenario.id();
    let labels = scenario.cells(ctx);
    assert!(
        range.start <= range.end && range.end <= labels.len(),
        "cell range {range:?} exceeds the {}-cell grid of {id}",
        labels.len()
    );
    let n = range.len();
    let jobs = jobs.max(1).min(n.max(1));

    // Lane-batched execution unless an observer is on: recorders and
    // tracers fire from the per-loop step, so those runs step each lane
    // on its own through the default `run_cell`. Lane outcomes are
    // bitwise identical either way, so the choice is invisible in every
    // report.
    if scenario.batchable() && !ctx.telemetry && ctx.trace.is_none() {
        return run_cells_batched(scenario, ctx, jobs, range, profiler);
    }

    let slots: Vec<Mutex<Option<CellResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let base = range.start;
    run_pool(jobs, n, |k, j| {
        let sw = Stopwatch::started_if(profiler.is_some());
        let result = scenario.run_cell(ctx, base + k);
        if let Some(p) = profiler {
            let job = format!("job{j}");
            p.record(
                &["exp", id, "grid", &job, &labels[base + k]],
                sw.elapsed_ns(),
            );
        }
        *slots[k].lock().expect("cell slot poisoned") = Some(result);
    });
    collect_slots(slots, base, &labels)
}

/// The lane-batched back end of [`run_cells_profiled`], in three phases:
///
/// 1. **Plan** ([`plan_lanes`], span `exp;<id>;lanes;gather;grid`):
///    workers build every cell's lanes, and the lanes go, in grid order,
///    to one work unit per program and machine.
/// 2. **Step** (span `exp;<id>;lanes;step;chunk<u>` per unit): each unit
///    is gathered into one [`LaneLoop`] and run to completion. Sweep
///    grids re-run the same uncontrolled baseline in every cell;
///    [`LaneLoop::gather`] makes each repeat an alias of the first, so
///    the baseline is stepped once for the whole range, and every
///    controlled lane shares its CPU until its first intervention.
/// 3. **Scatter** (span `exp;<id>;lanes;scatter;grid`): each cell's
///    outcomes, looked up through the plan's `origin`, go to
///    [`Scenario::finish_batch_cell`] in grid order. Zero-lane cells
///    (nothing to simulate) are finished here too.
///
/// Units only decide scheduling, never results: every lane's arithmetic
/// is independent of its neighbours, and `gather` shares a CPU or a
/// whole lane only between byte-identical states.
fn run_cells_batched(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
    profiler: Option<&SelfProfiler>,
) -> Vec<CellResult> {
    let id = scenario.id();
    let base = range.start;
    let record_phase = |sw: Stopwatch, phase: &str, unit: &str| {
        if let Some(p) = profiler {
            p.record(&["exp", id, "lanes", phase, unit], sw.elapsed_ns());
        }
    };

    let sw = Stopwatch::started_if(profiler.is_some());
    let plan = plan_lanes(scenario, ctx, jobs, range);
    record_phase(sw, "gather", "grid");

    let units: Vec<Mutex<Vec<BatchLane>>> = plan.units.into_iter().map(Mutex::new).collect();
    let done: Vec<Mutex<Vec<LaneOutcome>>> = units.iter().map(|_| Mutex::default()).collect();
    run_pool(jobs, units.len(), |u, _| {
        let sw = Stopwatch::started_if(profiler.is_some());
        let mut unit = gather(std::mem::take(
            &mut *units[u].lock().expect("unit poisoned"),
        ));
        unit.run();
        *done[u].lock().expect("unit poisoned") = (0..unit.width())
            .map(|l| {
                unit.outcome(l)
                    .expect("every lane has exited after run()")
                    .clone()
            })
            .collect();
        record_phase(sw, "step", &format!("chunk{u}"));
    });

    let sw = Stopwatch::started_if(profiler.is_some());
    let done: Vec<Vec<LaneOutcome>> = done
        .into_iter()
        .map(|d| d.into_inner().expect("unit poisoned"))
        .collect();
    let results = plan
        .origin
        .iter()
        .enumerate()
        .map(|(k, origin)| {
            let outcomes = origin.iter().map(|&(u, l)| done[u][l].clone()).collect();
            scenario.finish_batch_cell(ctx, base + k, outcomes)
        })
        .collect();
    record_phase(sw, "scatter", "grid");
    results
}

/// Gathers a work unit's lanes into one [`LaneLoop`].
fn gather(lanes: Vec<BatchLane>) -> LaneLoop {
    let (sims, budgets): (Vec<ControlLoop>, Vec<u64>) =
        lanes.into_iter().map(|l| (l.sim, l.budget)).unzip();
    LaneLoop::gather(sims, &budgets)
}

/// The lanes of a grid range, grouped into work units.
#[derive(Debug)]
struct LanePlan {
    /// Work units: the lanes of one program and machine, in grid order;
    /// the largest unit first.
    units: Vec<Vec<BatchLane>>,
    /// `origin[k][i] = (u, l)`: lane `i` of the range's `k`-th cell is
    /// lane `l` of unit `u`.
    origin: Vec<Vec<(usize, usize)>>,
}

/// Builds the [`LanePlan`] of `range`: up to `jobs` workers call
/// [`Scenario::batch_cell`] for the cells they claim, then the lanes go,
/// in grid order, to one unit per (program digest, CPU configuration
/// fingerprint), the key every lane [`LaneLoop::gather`] could place in
/// one group shares. Units are sorted largest first, ties in the grid
/// order of first use. Pure: nothing is stepped or recorded, so tests
/// can call it.
fn plan_lanes(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    jobs: usize,
    range: std::ops::Range<usize>,
) -> LanePlan {
    let base = range.start;
    let cells: Vec<Mutex<Vec<BatchLane>>> = range.map(|_| Mutex::default()).collect();
    run_pool(jobs, cells.len(), |k, _| {
        *cells[k].lock().expect("lane plan poisoned") = scenario.batch_cell(ctx, base + k);
    });
    let cells: Vec<Vec<BatchLane>> = cells
        .into_iter()
        .map(|c| c.into_inner().expect("lane plan poisoned"))
        .collect();

    let unit_key = |lane: &BatchLane| {
        let cpu = lane.sim.cpu();
        (cpu.program_digest(), Cpu::config_fingerprint(cpu.config()))
    };
    // (key, lanes) per unit in first-use order, then largest first.
    let mut keys: Vec<((u64, u64), usize)> = Vec::new();
    for key in cells.iter().flatten().map(unit_key) {
        match keys.iter_mut().find(|(k, _)| *k == key) {
            Some((_, size)) => *size += 1,
            None => keys.push((key, 1)),
        }
    }
    keys.sort_by_key(|&(_, size)| std::cmp::Reverse(size));

    let mut units: Vec<Vec<BatchLane>> = keys.iter().map(|_| Vec::new()).collect();
    let origin = cells
        .into_iter()
        .map(|cell| {
            cell.into_iter()
                .map(|lane| {
                    let key = unit_key(&lane);
                    let u = keys
                        .iter()
                        .position(|&(k, _)| k == key)
                        .expect("every key has a unit");
                    units[u].push(lane);
                    (u, units[u].len() - 1)
                })
                .collect()
        })
        .collect();
    LanePlan { units, origin }
}

/// The engine's one worker pool: runs work units `0..units` on up to
/// `jobs` workers, calling `run(u, j)` for unit `u` on worker `j`. A
/// unit is a grid cell on the per-cell path; the lane executor uses the
/// pool twice, once with a cell per unit to plan and once with a lane
/// unit per unit to step.
///
/// Workers claim units in index order from a shared counter (so callers
/// put their largest units first); a unit writes its results wherever
/// its index says, so scheduling never shows in the output. One job
/// runs inline on the caller's thread: no thread overhead, and
/// backtraces from narrative checks keep the caller's stack.
fn run_pool(jobs: usize, units: usize, run: impl Fn(usize, usize) + Sync) {
    if jobs <= 1 {
        (0..units).for_each(|u| run(u, 0));
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for j in 0..jobs {
            let (next, run) = (&next, &run);
            s.spawn(move || loop {
                let u = next.fetch_add(1, Ordering::Relaxed);
                if u >= units {
                    break;
                }
                run(u, j);
            });
        }
    });
}

/// Unwraps a run's result slots in grid order.
///
/// # Panics
///
/// Panics when a cell produced no result.
fn collect_slots(
    slots: Vec<Mutex<Option<CellResult>>>,
    base: usize,
    labels: &[String],
) -> Vec<CellResult> {
    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.into_inner()
                .expect("cell slot poisoned")
                .unwrap_or_else(|| {
                    panic!(
                        "cell {} ({:?}) produced no result",
                        base + k,
                        labels[base + k]
                    )
                })
        })
        .collect()
}

/// Merges grid-ordered cell results and renders the report (with
/// `exp;<id>;merge` and `exp;<id>;render` spans) — the back half of
/// every run, whether its results were computed or restored from shard
/// checkpoints.
///
/// `results` must cover the whole grid in grid order. `elapsed` on the
/// returned output covers only merge+render; the driver overwrites it
/// with the whole run's wall clock.
pub(crate) fn assemble_run_profiled(
    scenario: &dyn Scenario,
    ctx: &Ctx,
    results: Vec<CellResult>,
    jobs: usize,
    profiler: Option<&SelfProfiler>,
) -> RunOutput {
    let started = Instant::now();
    let id = scenario.id();
    let n = results.len();

    // Grid-order merge: deterministic regardless of completion order.
    let sw = Stopwatch::started_if(profiler.is_some());
    let mut telemetry = MemoryRecorder::new();
    let mut trace = MergedTrace::new();
    for r in &results {
        telemetry.merge(&r.recorder);
        if ctx.trace.is_some() && r.tracer.cycles() > 0 {
            trace.push(r.tracer.to_cell(r.label.clone()));
        }
    }
    // Traced runs fold their root-cause attribution into the telemetry
    // aggregate as `trace.cause.*` counters (all classes, so the counter
    // set is stable run to run). Attribution is deterministic over the
    // grid-order merge, so these are jobs-invariant like everything else.
    if !trace.is_empty() {
        let counts = crate::trace::forensics(&trace).counts;
        for cause in Cause::ALL {
            telemetry.counter(cause.counter_name(), counts.get(cause));
        }
        telemetry.counter("trace.captures", trace.total_captures() as u64);
    }
    if let Some(p) = profiler {
        p.record(&["exp", id, "merge"], sw.elapsed_ns());
    }

    let sw = Stopwatch::started_if(profiler.is_some());
    let report = scenario.render(ctx, &results);
    if let Some(p) = profiler {
        p.record(&["exp", id, "render"], sw.elapsed_ns());
    }
    RunOutput {
        report,
        telemetry,
        trace,
        cells: n,
        jobs,
        elapsed: started.elapsed(),
    }
}

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_telemetry::Recorder;

    struct Counting;

    impl Scenario for Counting {
        fn id(&self) -> &'static str {
            "counting"
        }
        fn title(&self) -> &'static str {
            "test scenario"
        }
        fn cells(&self, _ctx: &Ctx) -> Vec<String> {
            (0..17).map(|k| format!("cell{k}")).collect()
        }
        fn run_cell(&self, _ctx: &Ctx, cell: usize) -> CellResult {
            let mut r = CellResult::new(format!("cell{cell}"));
            r.value("square", (cell * cell) as f64);
            r.recorder.counter("cells.run", 1);
            r.row = vec![cell.to_string(), (cell * cell).to_string()];
            r
        }
        fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
            cells
                .iter()
                .map(|c| format!("{}={}", c.label, c.require("square")))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    #[test]
    fn results_are_ordered_and_merged() {
        for jobs in [1, 3, 8, 64] {
            let out = run_scenario(&Counting, &Ctx::default(), jobs);
            assert_eq!(out.cells, 17);
            assert!(out.jobs <= 17);
            assert_eq!(out.telemetry.snapshot().counter("cells.run"), Some(17));
            assert!(out.report.starts_with("cell0=0"));
            assert!(out.report.ends_with("cell16=256"));
        }
    }

    #[test]
    fn profiled_run_records_stage_spans() {
        let p = crate::profile::SelfProfiler::new();
        let out = run_scenario_profiled(&Counting, &Ctx::default(), 3, &p);
        assert_eq!(out.cells, 17);
        let stacks = p.stacks();
        let has = |frag: &str| stacks.iter().any(|(s, _)| s.starts_with(frag));
        assert!(has("exp;counting;grid;job"), "cell spans: {stacks:?}");
        assert!(has("exp;counting;merge"), "merge span: {stacks:?}");
        assert!(has("exp;counting;render"), "render span: {stacks:?}");
        let cell_spans: u64 = stacks
            .iter()
            .filter(|(s, _)| s.starts_with("exp;counting;grid;"))
            .map(|(_, st)| st.count)
            .sum();
        assert_eq!(cell_spans, 17, "one span per grid cell");
        assert!(!Counting.trace_aware(), "trace-awareness defaults off");
    }

    fn smoke() -> Ctx {
        Ctx {
            smoke: true,
            ..Ctx::default()
        }
    }

    #[test]
    fn profiled_lane_run_records_one_span_per_phase_and_unit() {
        let id = "fig14_sensor_delay_perf";
        let scenario = crate::scenarios::find(id).expect("registered scenario");
        assert!(scenario.batchable(), "{id} runs on the lane executor");
        let p = crate::profile::SelfProfiler::new();
        run_scenario_profiled(scenario, &smoke(), 2, &p);

        // One plan, one step span per unit (one unit per program: the
        // SPEC-8 subset plus the stressmark), one scatter.
        let stacks = p.stacks();
        let prefix = format!("exp;{id};lanes;");
        let mut spans: Vec<(String, u64)> = stacks
            .iter()
            .filter_map(|(s, st)| Some((s.strip_prefix(&prefix)?.to_string(), st.count)))
            .collect();
        spans.sort();
        let mut expected: Vec<(String, u64)> = (0..9)
            .map(|u| format!("step;chunk{u}"))
            .chain(["gather;grid".to_string(), "scatter;grid".to_string()])
            .map(|s| (s, 1))
            .collect();
        expected.sort();
        assert_eq!(spans, expected, "lane spans: {stacks:?}");
        assert!(
            !stacks
                .iter()
                .any(|(s, _)| s.starts_with(&format!("exp;{id};grid;"))),
            "no per-cell spans on the lane path: {stacks:?}"
        );
        let count = |stack: &str| {
            stacks
                .iter()
                .find(|(s, _)| s == stack)
                .map(|(_, st)| st.count)
        };
        assert_eq!(count(&format!("exp;{id};merge")), Some(1));
        assert_eq!(count(&format!("exp;{id};render")), Some(1));
    }

    /// The smoke plans of Figures 14 and 17: every cell pairs the nine
    /// programs' baselines (identical in every cell) with nine
    /// controlled loops (distinct per cell). Figure 17's three FU-only
    /// cells at delay >= 3 are unstable and have no lanes.
    #[test]
    fn plan_steps_each_distinct_lane_once_in_one_unit_per_program() {
        for (id, built, simulated) in [
            ("fig14_sensor_delay_perf", 126, 72),
            ("fig17_actuator_perf", 270, 144),
        ] {
            let scenario = crate::scenarios::find(id).expect("registered scenario");
            let cells = scenario.cells(&smoke()).len();
            let plan = plan_lanes(scenario, &smoke(), 2, 0..cells);
            let serial = plan_lanes(scenario, &smoke(), 1, 0..cells);
            assert_eq!(serial.origin, plan.origin, "{id}: plan is jobs-invariant");
            assert_eq!(
                plan.origin.iter().map(Vec::len).sum::<usize>(),
                built,
                "{id}"
            );
            assert_eq!(plan.units.len(), 9, "{id}: one unit per program");
            let mut stepped = 0;
            for unit in plan.units {
                // A unit is one program's baseline and controlled lanes,
                // one of each per cell with lanes; the baseline is
                // stepped once, every controlled lane on its own.
                let controlled = unit.iter().filter(|l| l.sim.is_controlled()).count();
                assert_eq!(2 * controlled, unit.len(), "{id}");
                let lanes = gather(unit);
                assert_eq!(lanes.active_lane_count(), 1 + controlled, "{id}");
                stepped += lanes.active_lane_count();
            }
            assert_eq!(stepped, simulated, "{id}");
        }
    }

    #[test]
    fn smoke_overrides_budgets() {
        let full = Ctx::new(1.0);
        assert_eq!(full.budget(100_000), 100_000);
        assert_eq!(full.warmup(40_000), 40_000);
        let smoke = smoke();
        assert_eq!(smoke.budget(100_000), SMOKE_CYCLES);
        assert_eq!(smoke.warmup(40_000), SMOKE_WARMUP);
        smoke.check(false, "shape claims are off in smoke mode");
    }

    #[test]
    #[should_panic(expected = "narrative check")]
    fn checks_fire_outside_smoke() {
        Ctx::default().check(false, "must fire");
    }

    #[test]
    fn scale_reaches_budgets() {
        let ctx = Ctx::new(0.5);
        assert_eq!(ctx.budget(100_000), 50_000);
    }
}

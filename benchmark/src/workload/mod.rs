//! The four workloads and the measurement loop they share.
//!
//! A workload is set up once (that is `setup_s`: memo warm-up with the
//! same programs or scenarios at smoke or reduced size), then runs whole
//! *passes* over its fixed request list until the measured seconds are
//! spent: a further pass starts only if the previous pass would still
//! fit. Every request's output is checked against the committed
//! references; a mismatch or an error counts as failed.

mod engine;
mod looped;
mod serve;

use crate::host;
use crate::metrics::Values;
use crate::reference::References;
use crate::stats::{median, percentile, sorted};
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads (engine jobs, daemon workers, client connections).
/// The reference host has two cores; load is sized to that.
pub const THREADS: usize = 2;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-thread scalar closed loop over four programs.
    Loop,
    /// Two controller sweeps on the lane executor.
    Sweep,
    /// Two uncontrolled SPEC-suite characterizations (trace replay).
    Suite,
    /// Many ms-class jobs through the in-process HTTP daemon.
    Serve,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Loop, Kind::Sweep, Kind::Suite, Kind::Serve];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Loop => "loop",
            Kind::Sweep => "sweep",
            Kind::Suite => "suite",
            Kind::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Inputs every workload receives.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds the request order (and the `serve` mix).
    pub seed: u64,
    /// Seconds each measured phase runs for.
    pub seconds: f64,
    /// Tiny inputs for plumbing checks.
    pub smoke: bool,
    /// Directory for scratch state (the daemon's root).
    pub out: PathBuf,
}

/// Request outcomes of one measured phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-request latency in milliseconds, one list per pass.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored or whose output differed from the reference.
    pub failed: u64,
}

impl Tally {
    /// Records one request that started at `started` and ends now.
    pub fn record(&mut self, started: Instant, ok: bool) {
        self.record_ms(host::secs(started) * 1e3, ok);
    }

    /// Records one request of `latency_ms` in the current pass.
    pub fn record_ms(&mut self, latency_ms: f64, ok: bool) {
        match self.latencies_ms.last_mut() {
            Some(pass) => pass.push(latency_ms),
            None => self.latencies_ms.push(vec![latency_ms]),
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A set-up workload.
pub trait Bench {
    /// Runs one pass over the request list, recording each request.
    /// `traced` passes also collect the per-layer data [`Bench::values`]
    /// reports.
    fn pass(&mut self, traced: bool, tally: &mut Tally);
    /// Workload-specific values of the untraced (`traced == false`) or
    /// traced passes so far.
    fn values(&mut self, traced: bool) -> Values;
    /// Requests made and failed during set-up (reference renders, warm-up).
    fn setup_tally(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Stops everything the workload started.
    fn finish(self: Box<Self>) {}
}

/// Sets a workload up. Errors are set-up failures (a daemon that cannot
/// bind, a solver that rejects the configuration).
pub fn setup(kind: Kind, opts: &Opts) -> Result<Box<dyn Bench>, String> {
    let refs = References::committed();
    Ok(match kind {
        Kind::Loop => Box::new(looped::LoopBench::setup(opts, refs)?),
        Kind::Sweep | Kind::Suite => Box::new(engine::EngineBench::setup(kind, opts, refs)),
        Kind::Serve => Box::new(serve::ServeBench::setup(opts, refs)?),
    })
}

/// Which phases a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only (for the `setup_s` median).
    Setup,
    /// Set-up, then untraced passes.
    Timed,
    /// Set-up, then traced passes.
    Traced,
    /// Set-up, untraced passes, then traced passes (smoke runs).
    Both,
}

impl Mode {
    /// The `--mode` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Both => "both",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Setup, Mode::Timed, Mode::Traced, Mode::Both]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// What one child measured for one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Requests attempted, set-up included.
    pub attempted: u64,
    /// Requests failed, set-up included.
    pub failed: u64,
    /// Values of the untraced passes.
    pub timed: Option<Values>,
    /// Values of the traced passes.
    pub traced: Option<Values>,
}

/// Runs passes for `seconds` (at least one), opening a latency list in
/// `tally` for each, and returns each pass's wall.
fn passes(seconds: f64, tally: &mut Tally, mut pass: impl FnMut(&mut Tally)) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        tally.latencies_ms.push(Vec::new());
        let t = Instant::now();
        pass(tally);
        let wall = host::secs(t);
        walls.push(wall);
        if host::secs(start) + wall > seconds {
            return walls;
        }
    }
}

/// The untraced measurements common to every workload. Each pass yields
/// its wall time, its throughput and its own latency percentiles; the
/// run reports the median of each over its passes, so one pass caught by
/// a burst of host interference does not move the result.
fn common_timed(walls: &[f64], tally: &Tally, cpu_s: f64, misses: (u64, u64)) -> Values {
    let total: f64 = walls.iter().sum();
    let per_pass = |q: f64| {
        let each: Vec<f64> = tally
            .latencies_ms
            .iter()
            .map(|pass| percentile(&sorted(pass), q))
            .collect();
        median(&each)
    };
    let rates: Vec<f64> = tally
        .latencies_ms
        .iter()
        .zip(walls)
        .map(|(pass, wall)| pass.len() as f64 / wall)
        .collect();
    let mut v = Values::new();
    v.insert("wall_s".into(), median(walls));
    v.insert("requests_per_s".into(), median(&rates));
    v.insert("latency_p50_ms".into(), per_pass(0.50));
    v.insert("latency_p98_ms".into(), per_pass(0.98));
    v.insert("peak_rss_mb".into(), host::peak_rss_mib());
    v.insert("host.cpu_s".into(), cpu_s);
    v.insert(
        "host.utilization".into(),
        cpu_s / (host::nproc() as f64 * total),
    );
    v.insert("exp.solve_cache_misses_timed".into(), misses.0 as f64);
    v.insert("pdn.kernel_cache_misses_timed".into(), misses.1 as f64);
    v
}

fn cache_misses() -> (u64, u64) {
    (
        voltctl_exp::solve_cache_stats().misses,
        voltctl_pdn::kernel_cache_stats().misses,
    )
}

/// Seconds credited to the global profiler's `harness;<stage>` spans
/// (recorded on memo misses, i.e. during set-up).
fn harness_seconds(stage: &str) -> f64 {
    let prefix = format!("harness;{stage};");
    voltctl_exp::profile::global().map_or(0.0, |p| {
        p.stacks()
            .iter()
            .filter(|(s, _)| s.starts_with(&prefix))
            .map(|(_, st)| st.total_ns as f64 / 1e9)
            .sum()
    })
}

/// Runs the phases of `mode` for one workload in this process.
///
/// # Errors
///
/// Set-up failures.
pub fn run_child(kind: Kind, opts: &Opts, mode: Mode) -> Result<Outcome, String> {
    if matches!(mode, Mode::Traced | Mode::Both) {
        voltctl_exp::profile::install_global();
    }
    let t = Instant::now();
    let mut bench = setup(kind, opts)?;
    let mut out = Outcome {
        setup_s: host::secs(t),
        ..Outcome::default()
    };
    (out.attempted, out.failed) = bench.setup_tally();

    if matches!(mode, Mode::Timed | Mode::Both) {
        let mut tally = Tally::default();
        let (cpu0, misses0) = (host::cpu_seconds(), cache_misses());
        let walls = passes(opts.seconds, &mut tally, |t| bench.pass(false, t));
        let misses1 = cache_misses();
        let mut values = common_timed(
            &walls,
            &tally,
            host::cpu_seconds() - cpu0,
            (misses1.0 - misses0.0, misses1.1 - misses0.1),
        );
        values.extend(bench.values(false));
        out.attempted += tally.attempted;
        out.failed += tally.failed;
        out.timed = Some(values);
    }
    if matches!(mode, Mode::Traced | Mode::Both) {
        let mut tally = Tally::default();
        let walls = passes(opts.seconds, &mut tally, |t| bench.pass(true, t));
        let mut values = bench.values(true);
        values.insert("trace.wall_s".into(), median(&walls));
        for stage in ["calibrate", "tune", "solve"] {
            values.insert(format!("exp.harness.{stage}_s"), harness_seconds(stage));
        }
        out.attempted += tally.attempted;
        out.failed += tally.failed;
        out.traced = Some(values);
    }
    bench.finish();
    Ok(out)
}

/// Renders `benchmark/reference.json` from this build's outputs, full
/// size and smoke size.
///
/// # Errors
///
/// A `loop` configuration the solver rejects.
pub fn reference_json() -> Result<String, String> {
    let mut sections = Vec::new();
    for smoke in [false, true] {
        let cfg = looped::config()?;
        let cycles = if smoke {
            looped::SMOKE_CYCLES
        } else {
            looped::CYCLES
        };
        let mut loops = Vec::new();
        for name in crate::metrics::LOOP_PROGRAMS {
            let mut sim = cfg
                .control_loop(&looped::program(name).program)
                .map_err(|e| e.to_string())?;
            sim.step_n(cycles);
            let entry = crate::reference::loop_entry(&sim.report(), sim.arch_digest());
            loops.push(format!("      \"{name}\": {entry}"));
        }
        let ctx = voltctl_exp::Ctx {
            smoke,
            ..voltctl_exp::Ctx::default()
        };
        let ids = engine::scenarios(Kind::Sweep)
            .into_iter()
            .chain(engine::scenarios(Kind::Suite))
            .chain(serve::MIX);
        let mut digests = Vec::new();
        for id in ids {
            let scenario = voltctl_exp::find(id).expect("workload scenarios are registry ids");
            let report = voltctl_exp::run_scenario(scenario, &ctx, THREADS).report;
            let digest = crate::reference::report_digest(&report);
            digests.push(format!("      \"{id}\": \"{digest}\""));
        }
        sections.push(format!(
            "  \"{}\": {{\n    \"loop\": {{\n{}\n    }},\n    \"scenarios\": {{\n{}\n    }}\n  }}",
            if smoke { "smoke" } else { "full" },
            loops.join(",\n"),
            digests.join(",\n")
        ));
    }
    Ok(format!("{{\n{}\n}}\n", sections.join(",\n")))
}

/// SplitMix64: the seed expander for request orders and the `serve` mix.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `items` in a seed-determined order (Fisher–Yates over SplitMix64).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(seed.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

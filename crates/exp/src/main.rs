//! The `voltctl-exp` CLI: list and run the reproduction's experiments.
//!
//! ```text
//! voltctl-exp list
//! voltctl-exp run <id>... [--jobs N] [--scale X] [--smoke] [--trace]
//!                         [--window W] [--trace-out DIR] [--min-captures N]
//!                         [--telemetry MODE] [--telemetry-out DIR]
//!                         [--shards K] [--resume DIR] [--checkpoint-dir DIR]
//! voltctl-exp run --all [same flags]
//! voltctl-exp bench [--smoke] [--out DIR]
//! voltctl-exp golden [--bless] [--jobs N] [--dir DIR] [id...]
//! voltctl-exp snapshot inspect <file>...
//! ```

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::slice::Iter;
use std::time::Instant;
use voltctl_exp::engine::{default_jobs, Ctx, Scenario, TraceSpec};
use voltctl_exp::profile::{self, SelfProfiler};
use voltctl_exp::scenarios::{find, registry};
use voltctl_exp::telemetry::{export_run, parse_mode, Mode};
use voltctl_exp::{parse_scale, run_sharded, Manifest, ShardDone, ShardOpts, TextTable};

const USAGE: &str = "\
voltctl-exp — unified experiment runner

USAGE:
    voltctl-exp list
    voltctl-exp run <id>... [OPTIONS]
    voltctl-exp run --all [OPTIONS]
    voltctl-exp bench [--smoke] [--out <DIR>]
    voltctl-exp golden [--bless] [--jobs <N>] [--dir <DIR>] [<id>...]
    voltctl-exp snapshot inspect <file>...

OPTIONS:
    --jobs <N>            worker threads per scenario grid
                          (default: all hardware threads)
    --scale <X>           cycle-budget scale factor (default: 1.0)
    --smoke               tiny budgets, narrative checks off (CI plumbing)
    --trace               attach the emergency flight recorder to
                          trace-aware scenarios and write
                          <id>.trace.json (Perfetto-loadable) and
                          <id>.forensics.txt, never overwriting
    --window <W>          flight-recorder window in cycles kept either
                          side of each emergency crossing (default: 96);
                          implies --trace
    --trace-out <DIR>     trace artifact directory (default: results/trace)
    --min-captures <N>    fail unless at least N emergencies were captured
    --telemetry <MODE>    off | summary | jsonl | csv (default: off)
    --telemetry-out <DIR> snapshot directory (default: results/telemetry)
    --profile             self-profile the engine: per-stage summary on
                          stderr + a speedscope/inferno-loadable
                          folded-stacks file
    --profile-out <DIR>   folded-stacks directory (default: results/profile)
    --shards <K>          split each scenario's grid into K resumable
                          shards, checkpointing each as a .snap file;
                          the merged output is byte-identical to an
                          unsharded run
    --resume <DIR>        load valid shard checkpoints from DIR instead
                          of recomputing them (invalid or missing shards
                          rerun and are re-checkpointed)
    --checkpoint-dir <DIR> where new checkpoints land (default: the
                          --resume directory, else results/checkpoints)

BENCH OPTIONS:
    --smoke               tiny iteration budgets (CI plumbing check)
    --out <DIR>           artifact directory (default: results/perf);
                          writes BENCH_loop.json

GOLDEN OPTIONS:
    --bless               rewrite the snapshots instead of comparing
    --jobs <N>            worker threads per scenario grid
    --dir <DIR>           snapshot directory (default: results/golden)
    <id>...               scenarios to check (default: all)

SNAPSHOT COMMANDS:
    inspect <file>...     validate a .snap container (loop save, shard
                          checkpoint, replay capture) and describe its
                          sections; exits nonzero on any invalid file

Run `voltctl-exp list` for the available scenario ids.
";

struct RunArgs {
    ids: Vec<String>,
    all: bool,
    jobs: usize,
    ctx: Ctx,
    mode: Mode,
    trace_out: PathBuf,
    min_captures: usize,
    profile: bool,
    profile_out: PathBuf,
    shards: Option<usize>,
    resume: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
}

impl RunArgs {
    /// Whether this run keeps shard checkpoints at all.
    fn sharded(&self) -> bool {
        self.shards.is_some() || self.resume.is_some()
    }

    /// Where new checkpoints land: explicit `--checkpoint-dir`, else the
    /// resume directory (so a healed shard is found next time), else the
    /// default under the workspace root.
    fn checkpoint_dir(&self) -> PathBuf {
        self.checkpoint_dir
            .clone()
            .or_else(|| self.resume.clone())
            .unwrap_or_else(|| voltctl_check::persist::results_dir("checkpoints"))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("voltctl-exp: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// The value of the flag `arg`: the text after `=` in `--flag=value`,
/// else the next argument.
fn flag_value(arg: &str, rest: &mut Iter<'_, String>) -> String {
    match arg.split_once('=') {
        Some((_, value)) => value.to_string(),
        None => rest
            .next()
            .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
            .clone(),
    }
}

/// The value of the flag `arg` (see [`flag_value`]), which must be a
/// positive integer.
fn positive_value(arg: &str, rest: &mut Iter<'_, String>) -> usize {
    let raw = flag_value(arg, rest);
    let name = arg.split('=').next().unwrap_or(arg);
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| fail(&format!("{name} {raw:?} is not a positive integer")))
}

fn parse_run_args(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        ids: Vec::new(),
        all: false,
        jobs: default_jobs(),
        ctx: Ctx::new(1.0),
        mode: Mode::Off,
        trace_out: voltctl_exp::trace::default_out_dir(),
        min_captures: 0,
        profile: false,
        profile_out: voltctl_check::persist::results_dir("profile"),
        shards: None,
        resume: None,
        checkpoint_dir: None,
    };

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--all" => out.all = true,
            "--smoke" => out.ctx.smoke = true,
            "--trace" => {
                out.ctx.trace.get_or_insert_with(TraceSpec::default);
            }
            "--window" => {
                out.ctx.trace = Some(TraceSpec {
                    window: positive_value(arg, &mut it),
                })
            }
            "--trace-out" => out.trace_out = PathBuf::from(flag_value(arg, &mut it)),
            "--min-captures" => {
                let raw = flag_value(arg, &mut it);
                out.min_captures = raw
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail(&format!("--min-captures {raw:?} is not an integer")));
            }
            "--jobs" => out.jobs = positive_value(arg, &mut it),
            "--scale" => {
                let raw = flag_value(arg, &mut it);
                out.ctx.scale =
                    parse_scale(&raw).unwrap_or_else(|e| fail(&format!("--scale {raw:?}: {e}")));
            }
            "--telemetry" => out.mode = parse_mode(&flag_value(arg, &mut it)),
            "--telemetry-out" => out.ctx.telemetry_out = PathBuf::from(flag_value(arg, &mut it)),
            "--profile" => out.profile = true,
            "--profile-out" => out.profile_out = PathBuf::from(flag_value(arg, &mut it)),
            "--shards" => out.shards = Some(positive_value(arg, &mut it)),
            "--resume" => out.resume = Some(PathBuf::from(flag_value(arg, &mut it))),
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(PathBuf::from(flag_value(arg, &mut it)))
            }
            _ if arg.starts_with("--") => fail(&format!("unknown flag {arg:?}")),
            _ => out.ids.push(arg.clone()),
        }
    }
    out.ctx.telemetry = out.mode != Mode::Off;

    if out.all && !out.ids.is_empty() {
        fail("--all cannot be combined with explicit scenario ids");
    }
    if !out.all && out.ids.is_empty() {
        fail("run needs at least one scenario id (or --all)");
    }
    out
}

fn cmd_list() {
    let mut t = TextTable::new(["id", "runtime", "cells", "trace", "description"]);
    for row in voltctl_exp::listing(&Ctx::default()) {
        t.row(row);
    }
    print!("{}", t.render());
    println!("\nrun one with: voltctl-exp run <id> [--jobs N] [--scale X]");
    println!("trace-aware scenarios (trace=yes) also accept: voltctl-exp run <id> --trace");
}

fn cmd_golden(args: &[String]) {
    let mut opts = voltctl_exp::GoldenOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--bless" => opts.bless = true,
            "--jobs" => opts.jobs = positive_value(arg, &mut it),
            "--dir" => opts.dir = PathBuf::from(flag_value(arg, &mut it)),
            _ if arg.starts_with("--") => fail(&format!("unknown golden flag {arg:?}")),
            _ => opts.ids.push(arg.clone()),
        }
    }
    match voltctl_exp::golden::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if !outcome.is_clean() {
                std::process::exit(1);
            }
        }
        Err(msg) => fail(&msg),
    }
}

fn cmd_run(args: &[String]) {
    let run = parse_run_args(args);
    let scenarios: Vec<&'static dyn Scenario> = if run.all {
        registry().to_vec()
    } else {
        run.ids
            .iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    fail(&format!("unknown scenario {id:?} (see `voltctl-exp list`)"))
                })
            })
            .collect()
    };

    // --profile installs the process-global profiler so the harness's
    // memoized solve/calibrate slow paths record into the same place as
    // the engine's stage spans.
    let profiler: Option<&'static SelfProfiler> = run.profile.then(profile::install_global);

    let started = Instant::now();
    let mut telemetry_manifest = Manifest::new(format!("run --telemetry {:?}", run.mode));
    telemetry_manifest.ctx(&run.ctx, run.jobs);
    let mut trace_manifest = Manifest::new("run --trace");
    trace_manifest.ctx(&run.ctx, run.jobs);

    let shard_opts = ShardOpts {
        shards: run.shards,
        resume: run.resume.clone(),
        dir: run.sharded().then(|| run.checkpoint_dir()),
    };
    let mut checkpoint_manifest = Manifest::new(match (run.shards, &run.resume) {
        (Some(k), _) => format!("run --shards {k}"),
        (None, Some(dir)) => format!("run --resume {}", dir.display()),
        (None, None) => "run".to_string(),
    });
    checkpoint_manifest.ctx(&run.ctx, run.jobs);
    let mut max_shards = 0usize;
    let mut captures = 0usize;
    // A checkpoint that cannot be written would silently lose resume
    // safety, so the CLI stops there.
    let stop_on_write_error = |done: &ShardDone| match &done.write_error {
        Some(e) => ControlFlow::Break(e.clone()),
        None => ControlFlow::Continue(()),
    };

    for (k, scenario) in scenarios.iter().enumerate() {
        if k > 0 {
            println!();
        }
        let sharded = run_sharded(
            *scenario,
            &run.ctx,
            run.jobs,
            &shard_opts,
            profiler,
            stop_on_write_error,
        )
        .unwrap_or_else(|msg| fail(&msg));
        if let Some(dir) = &shard_opts.dir {
            eprintln!(
                "[voltctl-exp] {}: {} shard(s) — {} loaded from checkpoints, {} checkpoint(s) written under {}",
                scenario.id(),
                sharded.shards,
                sharded.loaded,
                sharded.written.len(),
                dir.display()
            );
            max_shards = max_shards.max(sharded.shards);
            checkpoint_manifest.scenario(scenario.id());
            for path in &sharded.written {
                checkpoint_manifest.artifact(path);
            }
        }
        let out = sharded.output;
        print!("{}", out.report);
        eprintln!(
            "[voltctl-exp] {}: {} cells on {} worker(s) in {:.2?}",
            scenario.id(),
            out.cells,
            out.jobs,
            out.elapsed
        );
        let export_t0 = Instant::now();
        for path in export_run(
            scenario.id(),
            &out.telemetry,
            run.mode,
            &run.ctx.telemetry_out,
        ) {
            telemetry_manifest.scenario(scenario.id());
            telemetry_manifest.artifact(&path);
        }
        if run.ctx.trace.is_some() && !out.trace.is_empty() {
            captures += out.trace.total_captures();
            match voltctl_exp::trace::export(&run.trace_out, scenario.id(), &out.trace) {
                Ok(a) => {
                    eprintln!(
                        "[voltctl-exp] trace {}: {} capture(s); wrote {} and {}",
                        scenario.id(),
                        out.trace.total_captures(),
                        a.json.display(),
                        a.forensics.display()
                    );
                    trace_manifest.scenario(scenario.id());
                    trace_manifest.artifact(&a.json).artifact(&a.forensics);
                }
                Err(msg) => {
                    eprintln!("voltctl-exp: trace export failed: {msg}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(p) = profiler {
            p.record(
                &["exp", scenario.id(), "export"],
                export_t0.elapsed().as_nanos() as u64,
            );
        }
    }

    // Every directory that received artifacts gets a provenance
    // manifest describing this invocation. Sharded runs stamp their
    // lineage (shard count, resume source) on every manifest they
    // write, so artifacts remain traceable to the checkpoints that
    // fed them.
    telemetry_manifest.wall(started.elapsed());
    trace_manifest.wall(started.elapsed());
    checkpoint_manifest.wall(started.elapsed());
    if run.sharded() {
        for manifest in [
            &mut telemetry_manifest,
            &mut trace_manifest,
            &mut checkpoint_manifest,
        ] {
            manifest.shard_lineage(max_shards, run.resume.as_deref());
        }
    }
    let mut manifests = vec![
        (&telemetry_manifest, &run.ctx.telemetry_out),
        (&trace_manifest, &run.trace_out),
    ];
    if let Some(dir) = &shard_opts.dir {
        manifests.push((&checkpoint_manifest, dir));
    }
    for (manifest, dir) in manifests {
        if manifest.artifact_count() == 0 {
            continue;
        }
        match manifest.write(dir) {
            Ok(path) => eprintln!("[voltctl-exp] wrote {}", path.display()),
            Err(e) => eprintln!("voltctl-exp: manifest write failed: {e}"),
        }
    }

    if let Some(p) = profiler {
        write_profile(p, &run, &scenarios);
    }

    if scenarios.len() > 1 {
        eprintln!(
            "[voltctl-exp] {} scenario(s) in {:.2?}",
            scenarios.len(),
            started.elapsed()
        );
    }
    if captures < run.min_captures {
        eprintln!(
            "voltctl-exp: captured {captures} emergenc{} across {} scenario(s), below --min-captures {}",
            if captures == 1 { "y" } else { "ies" },
            scenarios.len(),
            run.min_captures
        );
        std::process::exit(1);
    }
}

/// Emits the self-profiler's two deliverables: the per-stage summary
/// table on stderr and the folded-stacks file (plus its manifest, which
/// names every scenario that ran) under `--profile-out`.
fn write_profile(p: &SelfProfiler, run: &RunArgs, scenarios: &[&'static dyn Scenario]) {
    eprint!(
        "\n[voltctl-exp] self-profile (stages nest; totals overlap):\n{}",
        p.summary()
    );
    let stem = if run.all {
        "all".to_string()
    } else {
        run.ids.join("+")
    };
    match voltctl_telemetry::export::write_file_fresh(
        &run.profile_out,
        &format!("{stem}.folded"),
        &p.folded(),
    ) {
        Ok(path) => {
            eprintln!(
                "[voltctl-exp] wrote {} (speedscope/inferno-loadable)",
                path.display()
            );
            let mut manifest = Manifest::new("run --profile");
            manifest.ctx(&run.ctx, run.jobs);
            for scenario in scenarios {
                manifest.scenario(scenario.id());
            }
            manifest.artifact(&path);
            match manifest.write(&run.profile_out) {
                Ok(m) => eprintln!("[voltctl-exp] wrote {}", m.display()),
                Err(e) => eprintln!("voltctl-exp: manifest write failed: {e}"),
            }
        }
        Err(e) => eprintln!("voltctl-exp: profile write failed: {e}"),
    }
}

fn cmd_bench(args: &[String]) {
    let mut opts = voltctl_exp::BenchOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.split('=').next().unwrap_or(arg.as_str()) {
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(flag_value(arg, &mut it)),
            _ => fail(&format!("unknown bench argument {arg:?}")),
        }
    }
    if let Err(msg) = voltctl_exp::bench::run(&opts) {
        eprintln!("voltctl-exp: bench failed: {msg}");
        std::process::exit(1);
    }
}

fn cmd_snapshot(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("inspect") if args.len() > 1 => {}
        Some("inspect") => fail("snapshot inspect needs at least one file"),
        Some(other) => fail(&format!("unknown snapshot command {other:?} (inspect)")),
        None => fail("snapshot needs a command (inspect <file>...)"),
    }
    let mut failed = false;
    for file in &args[1..] {
        match voltctl_exp::snapshot::inspect_file(std::path::Path::new(file)) {
            Ok(report) => print!("{report}"),
            Err(msg) => {
                eprintln!("voltctl-exp: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                fail("list takes no arguments");
            }
            cmd_list();
        }
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("golden") => cmd_golden(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => print!("{USAGE}"),
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => fail("missing command"),
    }
}

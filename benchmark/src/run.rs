//! `run`: measures each workload in fresh child processes (this binary
//! re-executed as `child`), so memos start cold as they do for a CLI
//! user, then combines what the children measured into one record per
//! workload.
//!
//! * untraced run: one child sets up and times the workload; two more
//!   only set up, and `setup_s` is the median of the three set-ups. One
//!   timed child is enough: the reference host's slow phases outlast a
//!   run, so timing in three children did not narrow the ten-run spread,
//!   and it would triple `sweep`, whose one pass outlasts `--seconds`;
//! * traced run (`--trace 1`): one untraced child and one traced child;
//!   the layer residual and the tracing overhead compare the two;
//! * smoke run: a single child sets up and runs every requested
//!   workload both untraced and traced, at smoke size.

use crate::metrics::{
    check_finite, end_to_end, json_number, metrics_json, per_layer, Metric, Record, Values,
};
use crate::stats::median;
use crate::workload::{run_child, Kind, Mode, Opts, Outcome};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use voltctl_check::Json;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workloads, in order.
    pub kinds: Vec<Kind>,
    /// Shared workload inputs.
    pub opts: Opts,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

fn values_json(values: &Option<Values>) -> String {
    let Some(values) = values else {
        return "null".to_string();
    };
    let mut s = String::from("{");
    for (i, (k, v)) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{}", json_number(*v));
    }
    s.push('}');
    s
}

/// One child result line.
pub fn outcome_line(kind: Kind, o: &Outcome) -> String {
    format!(
        "{{\"workload\":\"{}\",\"setup_s\":{},\"attempted\":{},\"failed\":{},\"timed\":{},\"traced\":{}}}",
        kind.name(),
        json_number(o.setup_s),
        o.attempted,
        o.failed,
        values_json(&o.timed),
        values_json(&o.traced)
    )
}

fn parse_values(json: Option<&Json>) -> Option<Values> {
    match json? {
        Json::Obj(fields) => Some(
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        ),
        _ => None,
    }
}

fn parse_outcome(line: &str) -> Option<(Kind, Outcome)> {
    let json = Json::parse(line).ok()?;
    let num = |k: &str| json.get(k).and_then(Json::as_f64);
    Some((
        Kind::parse(json.get("workload")?.as_str()?)?,
        Outcome {
            setup_s: num("setup_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            timed: parse_values(json.get("timed")),
            traced: parse_values(json.get("traced")),
        },
    ))
}

/// Runs `child` in a fresh process of this binary and parses its lines.
fn spawn_child(kinds: &[Kind], opts: &Opts, mode: Mode) -> Result<Vec<(Kind, Outcome)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", &names.join(",")])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--mode", mode.name()])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} child ({:?}) failed: {}",
            mode.name(),
            names,
            out.status
        ));
    }
    let outcomes: Vec<(Kind, Outcome)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(parse_outcome)
        .collect();
    if outcomes.len() != kinds.len() {
        return Err(format!(
            "{} child ({names:?}) printed no result",
            mode.name()
        ));
    }
    Ok(outcomes)
}

fn one(kind: Kind, opts: &Opts, mode: Mode) -> Result<Outcome, String> {
    Ok(spawn_child(&[kind], opts, mode)?.remove(0).1)
}

/// The per-layer values, with the two cross-run derivations: the `loop`
/// residual (untraced ns per cycle minus the traced layer sum) and the
/// tracing overhead (traced over untraced pass wall, minus 1).
fn layer_values(timed: &Values, traced: &Values) -> Values {
    let mut all = timed.clone();
    all.extend(traced.iter().map(|(k, v)| (k.clone(), *v)));
    let suffixes = std::iter::once(String::new()).chain(
        crate::metrics::LOOP_PROGRAMS
            .iter()
            .map(|p| format!(".{p}")),
    );
    for suffix in suffixes {
        let Some(total) = timed.get(&format!("core.ns_per_cycle{suffix}")) else {
            continue;
        };
        let layers: f64 = crate::metrics::LOOP_SPANS
            .iter()
            .filter_map(|l| traced.get(&format!("{l}{suffix}")))
            .sum();
        all.insert(format!("core.residual_ns{suffix}"), total - layers);
    }
    if let (Some(t), Some(u)) = (traced.get("trace.wall_s"), timed.get("wall_s")) {
        all.insert("trace.overhead_frac".into(), t / u - 1.0);
    }
    all
}

/// End-to-end metrics must all be measured; a per-layer metric a
/// workload does not exercise reads 0.
fn pick(metrics: Vec<Metric>, values: &Values) -> Result<Vec<(Metric, f64)>, String> {
    metrics
        .into_iter()
        .map(|m| match values.get(&m.name) {
            Some(&v) => Ok((m, v)),
            None if m.bound.is_none() => Ok((m, 0.0)),
            None => Err(format!("{} was not measured", m.name)),
        })
        .collect()
}

fn record(kind: Kind, args: &RunArgs, outcomes: &[Outcome]) -> Result<Record, String> {
    let timed = outcomes
        .iter()
        .find_map(|o| o.timed.clone())
        .unwrap_or_default();
    let traced = outcomes
        .iter()
        .find_map(|o| o.traced.clone())
        .unwrap_or_default();
    let setups: Vec<f64> = outcomes.iter().map(|o| o.setup_s).collect();
    let mut e2e = timed.clone();
    e2e.insert("setup_s".into(), median(&setups));
    let layers = layer_values(&timed, &traced);
    let metrics = match (args.opts.smoke, args.trace) {
        (true, _) => [pick(end_to_end(), &e2e)?, pick(per_layer(), &layers)?].concat(),
        (false, false) => pick(end_to_end(), &e2e)?,
        (false, true) => pick(per_layer(), &layers)?,
    };
    check_finite(metrics.iter().map(|(m, v)| (m.name.as_str(), *v)))
        .map_err(|e| format!("{}: {e}", kind.name()))?;
    Ok(Record {
        workload: kind.name().to_string(),
        seed: args.opts.seed,
        seconds: args.opts.seconds,
        trace: args.trace,
        smoke: args.opts.smoke,
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        metrics,
    })
}

/// Runs the workloads, prints their metric lines, writes
/// `<out>/<workload>.json` (`.trace.json` for traced runs) and returns
/// the final summary line.
///
/// # Errors
///
/// A child that fails or prints no result, or an unwritable output
/// directory.
pub fn run(args: &RunArgs) -> Result<String, String> {
    let opts = &args.opts;
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let mut records = Vec::new();
    if opts.smoke {
        for (kind, o) in spawn_child(&args.kinds, opts, Mode::Both)? {
            records.push(record(kind, args, &[o])?);
        }
    } else {
        for &kind in &args.kinds {
            let outcomes = if args.trace {
                vec![
                    one(kind, opts, Mode::Timed)?,
                    one(kind, opts, Mode::Traced)?,
                ]
            } else {
                vec![
                    one(kind, opts, Mode::Timed)?,
                    one(kind, opts, Mode::Setup)?,
                    one(kind, opts, Mode::Setup)?,
                ]
            };
            records.push(record(kind, args, &outcomes)?);
        }
    }
    let suffix = if args.trace { ".trace.json" } else { ".json" };
    for r in &records {
        print!("{}", r.lines());
        let path = opts.out.join(format!("{}{suffix}", r.workload));
        std::fs::write(&path, r.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    // Several workloads share one summary, so their names get a prefix.
    let metrics: Vec<(Metric, f64)> = match records.as_slice() {
        [single] => single.metrics.clone(),
        _ => records
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(move |(m, v)| {
                    let name = format!("{}.{}", r.workload, m.name);
                    (Metric { name, ..m.clone() }, *v)
                })
            })
            .collect(),
    };
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && attempted > 0,
        metrics_json(&metrics)
    ))
}

/// The `child` command: runs `mode` for each workload in this process and
/// prints one result line per workload.
///
/// # Errors
///
/// Set-up failures, and non-finite measurements.
pub fn child(kinds: &[Kind], opts: &Opts, mode: Mode) -> Result<(), String> {
    for &kind in kinds {
        let o = run_child(kind, opts, mode)?;
        let values = [&o.timed, &o.traced].into_iter().flatten().flatten();
        check_finite(
            std::iter::once(("setup_s", o.setup_s)).chain(values.map(|(k, v)| (k.as_str(), *v))),
        )
        .map_err(|e| format!("{}: {e}", kind.name()))?;
        println!("{}", outcome_line(kind, &o));
    }
    Ok(())
}

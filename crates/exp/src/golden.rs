//! The golden-snapshot harness: `voltctl-exp golden [--bless]`.
//!
//! Every registered scenario renders a deterministic report (the
//! engine's byte-identical-for-any-`--jobs` contract), which makes the
//! full registry snapshot-testable: render each scenario in smoke mode,
//! compare byte-for-byte against the committed snapshot under
//! `results/golden/<id>.txt`, and print a minimal line-level diff on any
//! mismatch. `--bless` rewrites the snapshots instead — the explicit,
//! reviewable act of accepting a report change.
//!
//! Smoke mode is deliberate: snapshot runs must be fast enough for CI
//! and for a pre-commit reflex, and smoke budgets exercise every
//! scenario's full rendering path without the minutes-class sweeps.

use crate::engine::{run_scenario, Ctx, Scenario, TraceSpec};
use crate::scenarios::{find, registry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use voltctl_check::line_diff;

/// The id of the forensics-report snapshot: not a registry scenario but
/// the trace pipeline run over `fig08_stressmark` in smoke mode, pinning
/// the flight recorder, attribution, and report rendering byte-for-byte.
pub const TRACE_GOLDEN_ID: &str = "trace_fig08_stressmark";

/// Configuration for one golden run.
#[derive(Debug, Clone)]
pub struct GoldenOpts {
    /// Rewrite snapshots instead of comparing against them.
    pub bless: bool,
    /// Worker threads per scenario grid.
    pub jobs: usize,
    /// Snapshot directory.
    pub dir: PathBuf,
    /// Scenario ids to cover; empty means the whole registry.
    pub ids: Vec<String>,
}

impl Default for GoldenOpts {
    fn default() -> GoldenOpts {
        GoldenOpts {
            bless: false,
            jobs: crate::engine::default_jobs(),
            dir: default_dir(),
            ids: Vec::new(),
        }
    }
}

/// The default snapshot directory: `<workspace root>/results/golden`.
pub fn default_dir() -> PathBuf {
    voltctl_check::persist::results_dir("golden")
}

/// One scenario's snapshot verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Snapshot matched byte-for-byte.
    Match,
    /// Snapshot rewritten by `--bless`.
    Blessed,
    /// No committed snapshot exists yet.
    Missing,
    /// Report and snapshot differ; the diff is included.
    Differs(String),
}

/// The outcome of a golden run: per-scenario verdicts in registry order.
#[derive(Debug)]
pub struct GoldenOutcome {
    /// `(scenario id, verdict)` pairs.
    pub verdicts: Vec<(&'static str, Verdict)>,
}

impl GoldenOutcome {
    /// Whether every scenario matched (or was blessed).
    pub fn is_clean(&self) -> bool {
        self.verdicts
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Match | Verdict::Blessed))
    }

    /// A human-readable summary; mismatch diffs included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, verdict) in &self.verdicts {
            match verdict {
                Verdict::Match => writeln!(out, "golden: {id}: ok").unwrap(),
                Verdict::Blessed => writeln!(out, "golden: {id}: blessed").unwrap(),
                Verdict::Missing => writeln!(
                    out,
                    "golden: {id}: MISSING snapshot (run `voltctl-exp golden --bless`)"
                )
                .unwrap(),
                Verdict::Differs(diff) => {
                    writeln!(out, "golden: {id}: MISMATCH").unwrap();
                    for line in diff.lines() {
                        writeln!(out, "  {line}").unwrap();
                    }
                }
            }
        }
        let bad = self
            .verdicts
            .iter()
            .filter(|(_, v)| !matches!(v, Verdict::Match | Verdict::Blessed))
            .count();
        writeln!(
            out,
            "golden: {} scenario(s), {} clean, {} failing",
            self.verdicts.len(),
            self.verdicts.len() - bad,
            bad
        )
        .unwrap();
        out
    }
}

fn snapshot_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.txt"))
}

/// Renders each requested scenario in smoke mode and compares (or, with
/// `--bless`, rewrites) its snapshot.
///
/// # Errors
///
/// Returns `Err` for an unknown scenario id or an unwritable snapshot
/// directory; mismatches are reported through the outcome, not as errors.
pub fn run(opts: &GoldenOpts) -> Result<GoldenOutcome, String> {
    // Registry scenarios plus the forensics-report entry, which has no
    // Scenario of its own: it reruns fig08_stressmark with tracing on
    // and snapshots the rendered forensics instead of the report.
    enum Entry {
        Scenario(&'static dyn Scenario),
        TraceForensics,
    }
    let entries: Vec<Entry> = if opts.ids.is_empty() {
        let mut all: Vec<Entry> = registry().iter().map(|s| Entry::Scenario(*s)).collect();
        all.push(Entry::TraceForensics);
        all
    } else {
        opts.ids
            .iter()
            .map(|id| {
                if id == TRACE_GOLDEN_ID {
                    return Ok(Entry::TraceForensics);
                }
                find(id)
                    .map(Entry::Scenario)
                    .ok_or_else(|| format!("unknown scenario {id:?} (see `voltctl-exp list`)"))
            })
            .collect::<Result<_, _>>()?
    };

    let ctx = Ctx {
        smoke: true,
        ..Ctx::default()
    };
    let mut verdicts = Vec::with_capacity(entries.len());
    for entry in entries {
        let (id, report) = match entry {
            Entry::Scenario(scenario) => (
                scenario.id(),
                run_scenario(scenario, &ctx, opts.jobs).report,
            ),
            Entry::TraceForensics => {
                let traced = Ctx {
                    trace: Some(TraceSpec::default()),
                    ..ctx.clone()
                };
                let scenario = find("fig08_stressmark").expect("fig08_stressmark is registered");
                let out = run_scenario(scenario, &traced, opts.jobs);
                (
                    TRACE_GOLDEN_ID,
                    crate::trace::forensics(&out.trace).render(scenario.id()),
                )
            }
        };
        let path = snapshot_path(&opts.dir, id);
        let verdict = if opts.bless {
            std::fs::create_dir_all(&opts.dir)
                .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
            std::fs::write(&path, &report)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Verdict::Blessed
        } else {
            match std::fs::read_to_string(&path) {
                Err(_) => Verdict::Missing,
                Ok(committed) if committed == report => Verdict::Match,
                Ok(committed) => Verdict::Differs(line_diff(&committed, &report)),
            }
        };
        verdicts.push((id, verdict));
    }
    Ok(GoldenOutcome { verdicts })
}

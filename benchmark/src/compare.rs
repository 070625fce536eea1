//! `compare A B`: every (workload, end-to-end metric) of two sets of run
//! records, judged by the pair rule (see [`crate::stats::verdict`]).
//! `A` is the parent, `B` the change. Runs pair up in path order, so
//! name the run directories of both sets alike (`seed-1`, `seed-2`, …).

use crate::metrics::end_to_end;
use crate::stats::{median, quartiles, spread, verdict, Verdict};
use crate::workload::Kind;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use voltctl_check::Json;

/// Untraced, full-size run records under a directory: workload →
/// (failed requests, metric values) per run, in path order.
type Runs = BTreeMap<String, Vec<(u64, BTreeMap<String, f64>)>>;

fn json_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            json_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}

fn load(dir: &Path) -> Result<Runs, String> {
    let mut files = Vec::new();
    json_files(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let Ok(json) = Json::parse(&text) else {
            continue;
        };
        let (Some(workload), Some(Json::Obj(metrics))) = (
            json.get("workload").and_then(Json::as_str),
            json.get("metrics"),
        ) else {
            continue;
        };
        let untraced = json.get("trace").and_then(Json::as_f64) == Some(0.0);
        if !untraced || json.get("smoke").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let failed = json.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        runs.entry(workload.to_string())
            .or_default()
            .push((failed, values));
    }
    Ok(runs)
}

fn side(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.6} [{:.6}, {:.6}]", median(values), q1, q3)
}

/// How a comparison came out, worst first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// A regression past its bound, or failed requests in the change.
    Regression,
    /// No regression, but some metric's spread is too wide to tell.
    Unresolved,
    /// Every metric resolved as within its bound or improved.
    Pass,
}

impl Outcome {
    /// The `compare` exit status: 0 pass, 1 regression, 3 unresolved
    /// (2 is the command line's usage and I/O error status).
    pub fn exit_code(self) -> u8 {
        match self {
            Outcome::Pass => 0,
            Outcome::Regression => 1,
            Outcome::Unresolved => 3,
        }
    }
}

/// Compares two record directories and returns the report plus its
/// outcome: only a change whose every end-to-end metric resolves as
/// within or improved, with no failed request, passes.
///
/// # Errors
///
/// Unreadable directories, or directories holding no run records.
pub fn compare(parent: &Path, change: &Path) -> Result<(String, Outcome), String> {
    let (a, b) = (load(parent)?, load(change)?);
    if a.is_empty() || b.is_empty() {
        return Err("no untraced full-size run records found".to_string());
    }
    Ok(judge(&a, &b))
}

fn judge(a: &Runs, b: &Runs) -> (String, Outcome) {
    let mut outcome = Outcome::Pass;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<16} {:>4} {:<40} {:>4} {:<40} {:>8} {:>7} {:>7} {:>5}  verdict",
        "workload",
        "metric",
        "n(A)",
        "A median [q1, q3]",
        "n(B)",
        "B median [q1, q3]",
        "delta",
        "sprd A",
        "sprd B",
        "bound"
    );
    for kind in Kind::ALL {
        let (Some(ra), Some(rb)) = (a.get(kind.name()), b.get(kind.name())) else {
            continue;
        };
        let failed: u64 = rb.iter().map(|(f, _)| f).sum();
        if failed > 0 {
            outcome = Outcome::Regression;
            let _ = writeln!(out, "{:<8} {failed} failed request(s) in B", kind.name());
        }
        for m in end_to_end() {
            let pick = |runs: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, v)| v.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (pick(ra), pick(rb));
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, m.better, bound);
            outcome = outcome.min(match v {
                Verdict::Regression => Outcome::Regression,
                Verdict::Unresolved => Outcome::Unresolved,
                Verdict::Improved | Verdict::Within => Outcome::Pass,
            });
            let delta = (median(&vb) - median(&va)) / median(&va).abs();
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:>4} {:<40} {:>4} {:<40} {:>+7.2}% {:>6.2}% {:>6.2}% {:>5.2}  {}",
                kind.name(),
                m.name,
                va.len(),
                side(&va),
                vb.len(),
                side(&vb),
                delta * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound,
                v.name()
            );
        }
    }
    (out, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten `serve` runs whose every end-to-end metric is `scale` times a
    /// base value, jittered by ±`jitter` (a share) across runs.
    fn runs(scale: f64, jitter: f64, failed: u64) -> Runs {
        let set = (0..10)
            .map(|i| {
                let wobble = 1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0;
                let values = end_to_end()
                    .iter()
                    .map(|m| (m.name.clone(), 100.0 * scale * wobble))
                    .collect();
                (failed, values)
            })
            .collect();
        Runs::from([("serve".to_string(), set)])
    }

    #[test]
    fn same_runs_pass() {
        let (report, outcome) = judge(&runs(1.0, 0.01, 0), &runs(1.0, 0.01, 0));
        assert_eq!(outcome, Outcome::Pass, "{report}");
    }

    #[test]
    fn much_worse_with_a_wide_spread_fails() {
        // ±40% jitter puts every spread far past every bound; half again
        // as slow (and half the throughput, read the other way) cannot
        // pass as unchanged.
        let (report, outcome) = judge(&runs(1.0, 0.4, 0), &runs(1.5, 0.4, 0));
        assert_ne!(outcome, Outcome::Pass, "{report}");
        assert!(!report.contains(" within"), "{report}");
    }

    #[test]
    fn failed_requests_are_a_regression() {
        let (_, outcome) = judge(&runs(1.0, 0.01, 0), &runs(1.0, 0.01, 1));
        assert_eq!(outcome, Outcome::Regression);
        assert_eq!(outcome.exit_code(), 1);
        assert_eq!(Outcome::Unresolved.exit_code(), 3);
    }
}

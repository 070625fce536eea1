//! Trace export for `voltctl-exp run --trace` and the daemon's traced
//! jobs: attribute every emergency a flight recorder captured to a root
//! cause, and write the evidence.
//!
//! Two artifacts per traced scenario land under the output directory
//! (`run --trace-out`, default `results/trace/`), both through the
//! never-overwrite writer
//! ([`write_file_fresh`](voltctl_telemetry::export::write_file_fresh)):
//!
//! * `<id>.trace.json` — Chrome trace-event JSON, loadable in Perfetto
//!   (`ui.perfetto.dev`) or `chrome://tracing`; one process per grid
//!   cell with counter tracks for voltage/current/sensor band/actuator
//!   duty and instant events for emergencies and interventions.
//! * `<id>.forensics.txt` — the human-readable root-cause report:
//!   cause ranking plus one line per capture.
//!
//! The per-cell flight recorders are merged in grid order by the engine,
//! so both artifacts are byte-identical for any `--jobs` value.

use std::path::{Path, PathBuf};

use crate::harness::pdn_at;
use voltctl_trace::{AttributionConfig, Forensics, MergedTrace};

/// The default trace-artifact directory: `<workspace root>/results/trace`.
pub fn default_out_dir() -> PathBuf {
    voltctl_check::persist::results_dir("trace")
}

/// The attribution configuration used by every exported report: the
/// resonant period comes from the 200%-impedance supply network — the
/// operating point the paper's stressmark narrative (and our traced
/// scenarios) are built around.
pub fn attribution_config() -> AttributionConfig {
    AttributionConfig::new(pdn_at(2.0).resonant_period_cycles())
}

/// Analyzes a merged trace with the standard [`attribution_config`].
pub fn forensics(merged: &MergedTrace) -> Forensics {
    Forensics::analyze(merged, &attribution_config())
}

/// Paths of one exported trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifacts {
    /// The Perfetto-loadable trace-event JSON.
    pub json: PathBuf,
    /// The plain-text forensics report.
    pub forensics: PathBuf,
}

/// Exports a merged trace as `<id>.trace.json` + `<id>.forensics.txt`
/// under `out_dir`, validating the JSON through the workspace's own
/// parser before anything touches disk.
///
/// # Errors
///
/// Returns `Err` when the generated JSON fails to parse (a bug in the
/// exporter, caught here rather than in the Perfetto UI) or when a file
/// cannot be written.
pub fn export(out_dir: &Path, id: &str, merged: &MergedTrace) -> Result<TraceArtifacts, String> {
    let json = voltctl_trace::to_chrome_trace(id, merged);
    voltctl_check::Json::parse(&json)
        .map_err(|e| format!("generated trace JSON for {id} does not parse: {e}"))?;
    let report = forensics(merged).render(id);

    let export = |file: String, contents: &str| {
        voltctl_telemetry::export::write_file_fresh(out_dir, &file, contents)
            .map_err(|e| format!("cannot write {file} under {}: {e}", out_dir.display()))
    };
    Ok(TraceArtifacts {
        json: export(format!("{id}.trace.json"), &json)?,
        forensics: export(format!("{id}.forensics.txt"), &report)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_config_targets_the_resonance() {
        let cfg = attribution_config();
        assert_eq!(cfg.resonant_period, pdn_at(2.0).resonant_period_cycles());
        assert!(cfg.resonant_period >= 2);
    }
}

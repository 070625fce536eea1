//! Telemetry configuration and end-of-run export for the engine.
//!
//! Collection itself is per-cell: each grid cell records into a private
//! [`MemoryRecorder`](voltctl_telemetry::MemoryRecorder) that rides back
//! on its `CellResult`, and the engine merges them in grid order (so the
//! aggregate is deterministic regardless of worker count). This module
//! owns what happens *around* that: which export mode is active (the
//! `--telemetry` flag), where files go (`--telemetry-out`, default
//! `<workspace root>/results/telemetry/`), and the export itself.

use std::path::{Path, PathBuf};
use voltctl_telemetry::{export, MemoryRecorder};

/// Export format selected by `--telemetry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry disabled (the default).
    Off,
    /// Human-readable digest on stderr + `<run>.summary.txt` file.
    Summary,
    /// JSONL snapshot file + stderr digest.
    Jsonl,
    /// CSV snapshot file + stderr digest.
    Csv,
}

impl Mode {
    /// The mode's canonical name, as `--telemetry` and the daemon's job
    /// spec spell it.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary",
            Mode::Jsonl => "jsonl",
            Mode::Csv => "csv",
        }
    }

    /// Looks a mode up by name, case-insensitively and ignoring
    /// surrounding whitespace. Besides the canonical names, `""`, `0`
    /// and `none` mean off and `json` means jsonl.
    pub fn from_name(raw: &str) -> Option<Mode> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "none" => Some(Mode::Off),
            "summary" => Some(Mode::Summary),
            "jsonl" | "json" => Some(Mode::Jsonl),
            "csv" => Some(Mode::Csv),
            _ => None,
        }
    }
}

/// Parses a telemetry mode value. Unknown values warn and disable
/// telemetry rather than abort an expensive run.
pub fn parse_mode(raw: &str) -> Mode {
    Mode::from_name(raw).unwrap_or_else(|| {
        voltctl_telemetry::warn(
            "telemetry.mode",
            &format!(
                "unknown telemetry mode {:?} \
                 (expected off|summary|jsonl|csv); telemetry disabled",
                raw.trim().to_ascii_lowercase()
            ),
        );
        Mode::Off
    })
}

/// The default export directory: `<workspace root>/results/telemetry`.
pub fn default_out_dir() -> PathBuf {
    voltctl_check::persist::results_dir("telemetry")
}

/// Exports a run's merged telemetry according to `mode`: a stderr
/// digest always, plus one snapshot file under `out_dir` per the mode
/// (summary text, JSONL, or CSV). Returns the paths written, so the
/// caller can fold them into the run's provenance manifest.
pub fn export_run(run: &str, rec: &MemoryRecorder, mode: Mode, out_dir: &Path) -> Vec<PathBuf> {
    if mode == Mode::Off {
        return Vec::new();
    }
    let snap = rec.snapshot();
    eprint!("{}", export::to_summary(run, &snap));
    let written = match mode {
        Mode::Off => unreachable!("handled above"),
        Mode::Summary => export::write_summary(out_dir, run, &snap),
        Mode::Jsonl => export::write_snapshot(out_dir, run, &snap, false),
        Mode::Csv => export::write_snapshot(out_dir, run, &snap, true),
    };
    match written {
        Ok(path) => {
            eprintln!("telemetry snapshot: {}", path.display());
            vec![path]
        }
        Err(e) => {
            voltctl_telemetry::warn("telemetry.export", &format!("write failed: {e}"));
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses() {
        assert_eq!(parse_mode(""), Mode::Off);
        assert_eq!(parse_mode("off"), Mode::Off);
        assert_eq!(parse_mode("SUMMARY"), Mode::Summary);
        assert_eq!(parse_mode(" jsonl "), Mode::Jsonl);
        assert_eq!(parse_mode("json"), Mode::Jsonl);
        assert_eq!(parse_mode("csv"), Mode::Csv);
        assert_eq!(parse_mode("bogus"), Mode::Off, "unknown values disable");
        for mode in [Mode::Off, Mode::Summary, Mode::Jsonl, Mode::Csv] {
            assert_eq!(Mode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(Mode::from_name("bogus"), None);
    }

    #[test]
    fn default_artifact_dirs_resolve_under_the_workspace_root() {
        let results = voltctl_check::persist::workspace_root().join("results");
        assert_eq!(default_out_dir(), results.join("telemetry"));
        assert_eq!(crate::bench::default_out_dir(), results.join("perf"));
    }
}

//! Telemetry configuration and end-of-run export for the engine.
//!
//! Collection itself is per-cell: each grid cell records into a private
//! [`MemoryRecorder`](voltctl_telemetry::MemoryRecorder) that rides back
//! on its `CellResult`, and the engine merges them in grid order (so the
//! aggregate is deterministic regardless of worker count). This module
//! owns what happens *around* that: which export mode is active
//! (`--telemetry` flag or the `VOLTCTL_TELEMETRY` environment variable),
//! where files go (`--telemetry-out`, default `results/telemetry/`), and
//! the export itself.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use voltctl_telemetry::{export, MemoryRecorder};

/// Export format selected by `--telemetry` / `VOLTCTL_TELEMETRY`.
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

/// Parses a telemetry mode value. Unknown values warn and disable
/// telemetry rather than abort an expensive run.
pub fn parse_mode(raw: &str) -> Mode {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "off" | "0" | "none" => Mode::Off,
        "summary" => Mode::Summary,
        "jsonl" | "json" => Mode::Jsonl,
        "csv" => Mode::Csv,
        other => {
            voltctl_telemetry::warn(
                "telemetry.mode",
                &format!(
                    "unknown telemetry mode {other:?} \
                     (expected off|summary|jsonl|csv); telemetry disabled"
                ),
            );
            Mode::Off
        }
    }
}

/// The mode from `VOLTCTL_TELEMETRY`, read once per process.
pub fn env_mode() -> Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("VOLTCTL_TELEMETRY")
            .map(|raw| parse_mode(&raw))
            .unwrap_or(Mode::Off)
    })
}

/// The default export directory.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(export::DEFAULT_OUT_DIR)
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
    }
}

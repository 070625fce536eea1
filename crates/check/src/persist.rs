//! Failure-seed persistence: `results/check/failures.jsonl`.
//!
//! When a property fails, the runner appends one JSONL record with the
//! property name, the failing case seed, and the shrunk counterexample.
//! On the next run of the *same* property, those seeds are replayed
//! **before** any fresh generation — a red CI run or a local repro goes
//! straight back to the regression instead of waiting for the generator
//! to stumble onto it again. When every replayed seed and every fresh
//! case passes, the property's stale records are cleared.
//!
//! The file lives under `<workspace root>/results/check/` by default
//! (resolved by walking up from this crate's source directory, fixed at
//! build time, so every crate's test binary agrees on one file);
//! `VOLTCTL_CHECK_DIR` overrides it.
//! Access within a process is serialized by a global mutex; concurrent
//! *processes* (parallel `cargo test` binaries) only ever append or
//! rewrite whole files, so the worst cross-process race loses a
//! convenience record, never corrupts a test verdict.

use crate::json::{escape, Json};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One persisted failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// The property name passed to [`check`](crate::check).
    pub prop: String,
    /// The case seed that reproduces the failure (`Rng::new(seed)`).
    pub seed: u64,
    /// Case index within its original run (replays use `u64::MAX`).
    pub case: u64,
    /// Shrink evaluations spent reaching the minimal counterexample.
    pub shrinks: u64,
    /// `Debug` rendering of the shrunk counterexample (truncated).
    pub value: String,
    /// The failure message.
    pub msg: String,
}

impl FailureRecord {
    fn to_jsonl(&self) -> String {
        format!(
            "{{\"prop\": {}, \"seed\": {}, \"case\": {}, \"shrinks\": {}, \"value\": {}, \"msg\": {}}}",
            escape(&self.prop),
            self.seed,
            self.case,
            self.shrinks,
            escape(&self.value),
            escape(&self.msg),
        )
    }

    fn from_json(v: &Json) -> Option<FailureRecord> {
        Some(FailureRecord {
            prop: v.get("prop")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            case: v.get("case")?.as_f64()? as u64,
            shrinks: v.get("shrinks")?.as_f64()? as u64,
            value: v.get("value")?.as_str()?.to_string(),
            msg: v.get("msg")?.as_str()?.to_string(),
        })
    }
}

/// Serializes file access within the process (test threads share one
/// failures file).
static FILE_LOCK: Mutex<()> = Mutex::new(());

/// The default persistence directory: `VOLTCTL_CHECK_DIR`, else
/// `<workspace root>/results/check` (see [`workspace_root`]).
pub fn default_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("VOLTCTL_CHECK_DIR") {
        return PathBuf::from(dir);
    }
    results_dir("check")
}

/// The default directory for one kind of artifact:
/// `<workspace root>/results/<name>`. Every `results/…` default — check,
/// golden, trace, telemetry, profile, checkpoints and perf — resolves
/// here, so one run's artifacts always land in one tree.
pub fn results_dir(name: &str) -> PathBuf {
    workspace_root().join("results").join(name)
}

/// The workspace root: the outermost ancestor of this crate's source
/// directory (fixed when the crate is compiled) whose `Cargo.toml`
/// declares `[workspace]`. A binary therefore writes under the source
/// tree it was built from, whatever its current directory; when that
/// tree is gone, the current directory stands in. Shared by every
/// results-directory default so each crate's test binary agrees on one
/// location.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .filter(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .last()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn failures_path(dir: &Path) -> PathBuf {
    dir.join("failures.jsonl")
}

/// Appends one failure record (best-effort: I/O errors are reported to
/// stderr, never panic — the property failure itself is the signal).
pub fn append(dir: &Path, record: &FailureRecord) {
    let _guard = FILE_LOCK.lock().expect("failures-file lock poisoned");
    let path = failures_path(dir);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(f, "{}", record.to_jsonl())
    };
    if let Err(e) = write() {
        eprintln!(
            "voltctl-check: could not persist failure to {}: {e}",
            path.display()
        );
    }
}

/// All persisted records (skipping unparseable lines).
pub fn load(dir: &Path) -> Vec<FailureRecord> {
    let _guard = FILE_LOCK.lock().expect("failures-file lock poisoned");
    load_unlocked(dir)
}

fn load_unlocked(dir: &Path) -> Vec<FailureRecord> {
    let Ok(text) = std::fs::read_to_string(failures_path(dir)) else {
        return Vec::new();
    };
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| Json::parse(line).ok())
        .filter_map(|v| FailureRecord::from_json(&v))
        .collect()
}

/// The distinct seeds previously recorded as failing for `prop`, most
/// recent first — the runner replays these before generating anything.
pub fn red_seeds(dir: &Path, prop: &str) -> Vec<u64> {
    let mut seeds: Vec<u64> = load(dir)
        .into_iter()
        .rev()
        .filter(|r| r.prop == prop)
        .map(|r| r.seed)
        .collect();
    seeds.dedup();
    let mut seen = std::collections::HashSet::new();
    seeds.retain(|s| seen.insert(*s));
    seeds
}

/// Removes every record for `prop` (called after a fully green run).
pub fn clear(dir: &Path, prop: &str) {
    let _guard = FILE_LOCK.lock().expect("failures-file lock poisoned");
    let records = load_unlocked(dir);
    if !records.iter().any(|r| r.prop == prop) {
        return;
    }
    let kept: Vec<String> = records
        .iter()
        .filter(|r| r.prop != prop)
        .map(FailureRecord::to_jsonl)
        .collect();
    let path = failures_path(dir);
    let result = if kept.is_empty() {
        std::fs::remove_file(&path)
    } else {
        std::fs::write(&path, kept.join("\n") + "\n")
    };
    if let Err(e) = result {
        eprintln!(
            "voltctl-check: could not clear records in {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "voltctl-check-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(prop: &str, seed: u64) -> FailureRecord {
        FailureRecord {
            prop: prop.to_string(),
            seed,
            case: 3,
            shrinks: 17,
            value: "[1.0, \"two\"]".to_string(),
            msg: "left \u{2260} right\nsecond line".to_string(),
        }
    }

    #[test]
    fn round_trips_records() {
        let dir = temp_dir("roundtrip");
        append(&dir, &record("prop.a", 11));
        append(&dir, &record("prop.b", 22));
        let loaded = load(&dir);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], record("prop.a", 11));
        assert_eq!(loaded[1], record("prop.b", 22));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn red_seeds_are_recent_first_and_distinct() {
        let dir = temp_dir("seeds");
        append(&dir, &record("p", 1));
        append(&dir, &record("p", 2));
        append(&dir, &record("p", 1));
        append(&dir, &record("other", 9));
        assert_eq!(red_seeds(&dir, "p"), vec![1, 2]);
        assert_eq!(red_seeds(&dir, "other"), vec![9]);
        assert!(red_seeds(&dir, "missing").is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_removes_only_the_named_prop() {
        let dir = temp_dir("clear");
        append(&dir, &record("keep", 1));
        append(&dir, &record("drop", 2));
        clear(&dir, "drop");
        let loaded = load(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].prop, "keep");
        clear(&dir, "keep");
        assert!(load(&dir).is_empty());
        assert!(!failures_path(&dir).exists(), "empty file is removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_empty_not_error() {
        let dir = temp_dir("missing");
        assert!(load(&dir).is_empty());
        clear(&dir, "anything");
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            failures_path(&dir),
            "not json\n{\"prop\": \"p\"}\n{} \n".to_string() + &record("p", 5).to_jsonl() + "\n",
        )
        .unwrap();
        let loaded = load(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].seed, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

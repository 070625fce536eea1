//! Run provenance manifests: every artifact directory a command writes
//! into gains a `manifest.json` describing *how* the artifacts were
//! produced — command, scenario ids, seeds, scale, jobs, schema
//! versions, `git describe`, host, wall clock, and the artifact list
//! with sizes.
//!
//! The goal is that a `results/` directory found on a CI runner (or a
//! laptop three months from now) is self-describing: the manifest names
//! the exact inputs needed to regenerate its neighbors.
//!
//! Manifests go through the same never-overwrite writer as the
//! artifacts they describe
//! ([`write_file_fresh`](voltctl_telemetry::export::write_file_fresh)),
//! so a rerun into the same directory leaves `manifest.json` for the
//! first run intact and writes `manifest-1.json` next to it. The one
//! exception is the perf-baseline directory, whose artifacts are
//! regenerate-in-place; [`Manifest::write_over`] matches that.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use voltctl_telemetry::export::{self, json_escape};

/// Schema version of the manifest format itself. Version 2 added the
/// shard lineage fields: `shards` (0 = single-shot) and `resume_from`
/// (the checkpoint directory a resumed run loaded from, else `null`).
pub const MANIFEST_SCHEMA: u64 = 2;

/// The schema versions of every machine-readable artifact format this
/// workspace writes, recorded in each manifest so a reader knows which
/// parser vintage applies without opening the artifacts.
pub fn schema_versions() -> Vec<(&'static str, u64)> {
    vec![
        ("manifest", MANIFEST_SCHEMA),
        ("bench", crate::bench::BENCH_SCHEMA),
        ("telemetry_snapshot", 1),
        ("trace_event_json", 1),
        ("snapshot", voltctl_snap::CONTAINER_VERSION as u64),
    ]
}

/// The process-fixed seeds a run depends on: reproducing an artifact
/// needs these (plus the command line) and nothing else.
pub fn default_seeds() -> Vec<(&'static str, u64)> {
    vec![(
        "sensor.noise",
        voltctl_core::sensor::SensorConfig::default().seed,
    )]
}

/// A provenance record under construction. Build with the setters, add
/// artifacts as they land on disk, then [`write`](Manifest::write) it
/// into the directory it describes.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The subcommand (plus salient flags) that produced the artifacts.
    pub command: String,
    /// Scenario ids involved, in execution order.
    pub scenarios: Vec<String>,
    /// Cycle-budget scale factor.
    pub scale: f64,
    /// Worker threads requested.
    pub jobs: usize,
    /// Whether smoke budgets were used.
    pub smoke: bool,
    /// Shard count of a sharded run; 0 means single-shot (no shard
    /// checkpoints were involved).
    pub shards: usize,
    /// Checkpoint directory a resumed run loaded shards from, if any.
    pub resume_from: Option<String>,
    /// Named RNG seeds the run depended on.
    pub seeds: Vec<(&'static str, u64)>,
    /// Artifact-format schema versions (see [`schema_versions`]).
    pub versions: Vec<(&'static str, u64)>,
    /// Wall clock spent producing the artifacts, in milliseconds.
    pub wall_ms: u64,
    artifacts: Vec<(String, u64)>,
}

impl Manifest {
    /// A manifest for `command` with the default seeds and schema
    /// versions, scale 1.0, one job, full budgets, and no artifacts.
    pub fn new(command: impl Into<String>) -> Manifest {
        Manifest {
            command: command.into(),
            scenarios: Vec::new(),
            scale: 1.0,
            jobs: 1,
            smoke: false,
            shards: 0,
            resume_from: None,
            seeds: default_seeds(),
            versions: schema_versions(),
            wall_ms: 0,
            artifacts: Vec::new(),
        }
    }

    /// Copies the run shape out of an engine [`Ctx`](crate::engine::Ctx).
    pub fn ctx(&mut self, ctx: &crate::engine::Ctx, jobs: usize) -> &mut Self {
        self.scale = ctx.scale;
        self.smoke = ctx.smoke;
        self.jobs = jobs;
        self
    }

    /// Appends a scenario id.
    pub fn scenario(&mut self, id: &str) -> &mut Self {
        self.scenarios.push(id.to_string());
        self
    }

    /// Records the elapsed wall clock.
    pub fn wall(&mut self, elapsed: Duration) -> &mut Self {
        self.wall_ms = elapsed.as_millis() as u64;
        self
    }

    /// Records shard lineage: the shard count and, for resumed runs,
    /// the checkpoint directory that supplied prior results.
    pub fn shard_lineage(&mut self, shards: usize, resume_from: Option<&Path>) -> &mut Self {
        self.shards = shards;
        self.resume_from = resume_from.map(|p| p.display().to_string());
        self
    }

    /// Registers an artifact, capturing its on-disk size now. Paths are
    /// stored relative to the manifest's directory when possible (the
    /// manifest travels with its directory).
    pub fn artifact(&mut self, path: &Path) -> &mut Self {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.artifacts.push((path.display().to_string(), bytes));
        self
    }

    /// Number of registered artifacts.
    pub fn artifact_count(&self) -> usize {
        self.artifacts.len()
    }

    /// Renders the manifest as a JSON object (hand-rolled like every
    /// other exporter in this workspace; validated by
    /// `voltctl_check::Json` in tests).
    pub fn to_json(&self, dir: &Path) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {MANIFEST_SCHEMA},");
        let _ = writeln!(s, "  \"command\": \"{}\",", json_escape(&self.command));
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|id| format!("\"{}\"", json_escape(id)))
            .collect();
        let _ = writeln!(s, "  \"scenarios\": [{}],", scenarios.join(", "));
        let _ = writeln!(s, "  \"scale\": {},", self.scale);
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"shards\": {},", self.shards);
        match &self.resume_from {
            Some(dir) => {
                let _ = writeln!(s, "  \"resume_from\": \"{}\",", json_escape(dir));
            }
            None => {
                let _ = writeln!(s, "  \"resume_from\": null,");
            }
        }
        let _ = writeln!(s, "  \"seeds\": {{");
        for (k, (name, seed)) in self.seeds.iter().enumerate() {
            let comma = if k + 1 < self.seeds.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {seed}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"schema_versions\": {{");
        for (k, (name, v)) in self.versions.iter().enumerate() {
            let comma = if k + 1 < self.versions.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {v}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"git\": \"{}\",", json_escape(&git_describe()));
        let _ = writeln!(s, "  \"host\": \"{}\",", json_escape(&hostname()));
        let _ = writeln!(s, "  \"unix_time_ms\": {},", unix_time_ms());
        let _ = writeln!(s, "  \"wall_ms\": {},", self.wall_ms);
        let _ = writeln!(s, "  \"artifacts\": [");
        for (k, (path, bytes)) in self.artifacts.iter().enumerate() {
            let shown = Path::new(path)
                .strip_prefix(dir)
                .map(|p| p.display().to_string())
                .unwrap_or_else(|_| path.clone());
            let comma = if k + 1 < self.artifacts.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"path\": \"{}\", \"bytes\": {bytes}}}{comma}",
                json_escape(&shown)
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }

    /// Writes `manifest.json` under `dir` through the never-overwrite
    /// writer (a rerun yields `manifest-1.json` and so on).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created or
    /// the file cannot be written.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        export::write_file_fresh(dir, "manifest.json", &self.to_json(dir))
    }

    /// Writes `manifest.json` under `dir`, overwriting any previous one
    /// — for regenerate-in-place directories (the perf baselines).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created or
    /// the file cannot be written.
    pub fn write_over(&self, dir: &Path) -> std::io::Result<PathBuf> {
        export::write_file(dir, "manifest.json", &self.to_json(dir))
    }
}

/// `git describe --always --dirty` in the workspace root, or
/// `"unknown"` when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    let root = voltctl_check::persist::workspace_root();
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Best-effort host identification: `$HOSTNAME`, then `/etc/hostname`,
/// then `"unknown"`.
pub fn hostname() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/etc/hostname").ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("voltctl-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_json_parses_and_carries_provenance() {
        let dir = temp_dir("parse");
        let artifact = dir.join("fig.trace.json");
        std::fs::write(&artifact, "{}").unwrap();

        let mut m = Manifest::new("run --trace");
        m.scenario("fig08_stressmark")
            .wall(Duration::from_millis(1234))
            .artifact(&artifact);
        m.scale = 0.5;
        m.jobs = 8;

        let json = m.to_json(&dir);
        let parsed = voltctl_check::Json::parse(&json).expect("manifest JSON parses");
        for key in [
            "schema",
            "git",
            "host",
            "seeds",
            "schema_versions",
            "artifacts",
            "shards",
            "resume_from",
        ] {
            assert!(parsed.get(key).is_some(), "manifest carries {key:?}");
        }
        assert!(json.contains("\"scenarios\": [\"fig08_stressmark\"]"));
        assert!(json.contains("\"wall_ms\": 1234"));
        // Single-shot lineage defaults: no shards, no resume source.
        assert!(json.contains("\"shards\": 0"));
        assert!(json.contains("\"resume_from\": null"));
        // Snapshot container version travels with every manifest.
        assert!(json.contains("\"snapshot\": 1"));
        // The artifact path is relativized and carries its true size.
        assert!(json.contains("\"path\": \"fig.trace.json\", \"bytes\": 2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_never_overwrites_but_write_over_does() {
        let dir = temp_dir("fresh");
        let m = Manifest::new("bench");
        let first = m.write(&dir).unwrap();
        assert_eq!(first.file_name().unwrap(), "manifest.json");
        let second = m.write(&dir).unwrap();
        assert_eq!(second.file_name().unwrap(), "manifest-1.json");
        let over = m.write_over(&dir).unwrap();
        assert_eq!(over, first, "write_over targets the canonical name");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn describe_and_host_never_panic() {
        assert!(!git_describe().is_empty());
        assert!(!hostname().is_empty());
    }

    #[test]
    fn shard_lineage_is_rendered() {
        let dir = temp_dir("lineage");
        let mut m = Manifest::new("run --shards 3");
        m.shard_lineage(3, Some(Path::new("results/checkpoints/a")));
        let json = m.to_json(&dir);
        voltctl_check::Json::parse(&json).expect("manifest JSON parses");
        assert!(json.contains("\"shards\": 3"));
        assert!(json.contains("\"resume_from\": \"results/checkpoints/a\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeds_cover_the_sensor() {
        let seeds = default_seeds();
        assert!(seeds
            .iter()
            .any(|(n, s)| *n == "sensor.noise" && *s == 0x5eed));
    }
}

//! Default artifact directories are fixed when the binary is built: a
//! `voltctl-exp` started from any directory, outside cargo, writes under
//! the workspace it was built from.

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn telemetry_lands_under_the_build_workspace_from_any_directory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let cwd = std::env::temp_dir().join(format!("voltctl-artifact-root-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp dir");

    let out = Command::new(env!("CARGO_BIN_EXE_voltctl-exp"))
        .args(["run", "fig01_itrs", "--smoke", "--telemetry", "jsonl"])
        .env_remove("CARGO_MANIFEST_DIR")
        .current_dir(&cwd)
        .output()
        .expect("voltctl-exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed: {stderr}");
    let written: PathBuf = stderr
        .lines()
        .find_map(|l| l.strip_prefix("telemetry snapshot: "))
        .unwrap_or_else(|| panic!("no telemetry snapshot line in: {stderr}"))
        .into();
    let landed = cwd.join(written).canonicalize();
    let no_stray = !cwd.join("results").exists();
    std::fs::remove_dir_all(&cwd).expect("remove temp dir");
    let landed = landed.expect("telemetry file exists");
    std::fs::remove_file(&landed).expect("remove telemetry file");
    if let Some(manifest) = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[voltctl-exp] wrote "))
    {
        std::fs::remove_file(manifest).expect("remove telemetry manifest");
    }

    assert_eq!(
        landed.parent(),
        Some(root.join("results").join("telemetry").as_path()),
        "telemetry file: {}",
        landed.display()
    );
    assert!(
        no_stray,
        "a results/ directory appeared under the current directory"
    );
}

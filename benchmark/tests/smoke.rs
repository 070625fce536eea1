//! A smoke-size run of every workload through the real command line:
//! it must pass its output checks and report every declared metric,
//! finite and with its declared unit.

use std::process::Command;
use voltctl_benchmark::metrics::{end_to_end, per_layer};
use voltctl_benchmark::workload::Kind;
use voltctl_check::Json;

#[test]
fn smoke_run_reports_every_declared_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run");
    let _ = std::fs::remove_dir_all(&out);
    let started = std::time::Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_voltctl-benchmark"))
        .args(["run", "--smoke", "--seconds", "0.1", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        started.elapsed().as_secs_f64() < 15.0,
        "smoke run took {:?}",
        started.elapsed()
    );

    let stdout = String::from_utf8(run.stdout).unwrap();
    let summary = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(summary.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(summary.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

    let declared: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    for kind in Kind::ALL {
        let path = out.join(format!("{}.json", kind.name()));
        let text = std::fs::read_to_string(&path).expect("a record per workload");
        let record = Json::parse(&text).expect("the record is JSON");
        let metrics = record.get("metrics").expect("metrics");
        for m in &declared {
            let entry = metrics
                .get(&m.name)
                .unwrap_or_else(|| panic!("{}: {} missing", kind.name(), m.name));
            let value = entry.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite(), "{}: {} = {value}", kind.name(), m.name);
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}: {}",
                kind.name(),
                m.name
            );
        }
        for m in end_to_end() {
            let value = metrics.get(&m.name).unwrap().get("value").unwrap();
            assert!(
                value.as_f64().unwrap() > 0.0,
                "{}: end-to-end {} must be positive",
                kind.name(),
                m.name
            );
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("serve-root-"))
        .collect();
    assert!(leftovers.is_empty(), "the daemon's scratch root is removed");
}

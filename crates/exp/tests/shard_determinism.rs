//! The sharding determinism contract (the acceptance bar for
//! `run --shards`): for K ∈ {1, 3, 8} shards and J ∈ {1, 8} workers,
//! shard-then-merge output is **byte-identical** to a single-shot run —
//! the rendered report, the telemetry exports (wall-clock timer values
//! excluded, as everywhere else in the suite), and the trace artifacts
//! (Perfetto JSON + forensics report). A checkpoint resume must land on
//! the same bytes as well.

use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use voltctl_exp::engine::{run_scenario, Ctx, RunOutput, TraceSpec};
use voltctl_exp::scenarios::find;
use voltctl_exp::shard::{checkpoint_file, run_sharded, ShardOpts};
use voltctl_telemetry::export;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voltctl-shard-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The telemetry export bytes of a run, timers cleared (their values
/// are wall clock; everything else must be byte-stable).
fn telemetry_bytes(out: &RunOutput, id: &str) -> (String, String, String) {
    let mut snap = out.telemetry.snapshot();
    snap.timers.clear();
    (
        export::to_jsonl(&snap),
        export::to_csv(&snap),
        export::to_summary(id, &snap),
    )
}

fn sharded(id: &str, ctx: &Ctx, shards: usize, jobs: usize, dir: &Path) -> RunOutput {
    let scenario = find(id).expect("registered scenario");
    let opts = ShardOpts {
        shards: Some(shards),
        resume: None,
        dir: Some(dir.to_path_buf()),
    };
    run_sharded(scenario, ctx, jobs, &opts, None, |_| {
        ControlFlow::Continue(())
    })
    .expect("sharded run succeeds")
    .output
}

#[test]
fn report_and_telemetry_are_byte_identical_across_k_and_jobs() {
    let id = "fig16_sensor_error";
    let ctx = Ctx {
        smoke: true,
        telemetry: true,
        ..Ctx::default()
    };
    let scenario = find(id).expect("registered scenario");
    let single = run_scenario(scenario, &ctx, 1);
    let reference = telemetry_bytes(&single, id);
    assert!(!reference.0.is_empty(), "smoke run records telemetry");

    for k in [1usize, 3, 8] {
        for jobs in [1usize, 8] {
            let dir = temp_dir(&format!("k{k}j{jobs}"));
            let out = sharded(id, &ctx, k, jobs, &dir);
            assert_eq!(
                out.report, single.report,
                "report differs at --shards {k} --jobs {jobs}"
            );
            let (jsonl, csv, summary) = telemetry_bytes(&out, id);
            assert_eq!(jsonl, reference.0, "JSONL @ --shards {k} --jobs {jobs}");
            assert_eq!(csv, reference.1, "CSV @ --shards {k} --jobs {jobs}");
            assert_eq!(summary, reference.2, "summary @ --shards {k} --jobs {jobs}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn trace_artifacts_are_byte_identical_when_sharded() {
    let id = "fig08_stressmark";
    let ctx = Ctx {
        smoke: true,
        trace: Some(TraceSpec::default()),
        ..Ctx::default()
    };
    let scenario = find(id).expect("registered scenario");
    let single = run_scenario(scenario, &ctx, 2);
    let ref_json = voltctl_trace::to_chrome_trace(id, &single.trace);
    let ref_forensics = voltctl_exp::trace::forensics(&single.trace).render(id);

    for (k, jobs) in [(3usize, 8usize), (8, 1)] {
        let dir = temp_dir(&format!("trace-k{k}j{jobs}"));
        let out = sharded(id, &ctx, k, jobs, &dir);
        assert_eq!(
            voltctl_trace::to_chrome_trace(id, &out.trace),
            ref_json,
            "trace JSON @ --shards {k} --jobs {jobs}"
        );
        assert_eq!(
            voltctl_exp::trace::forensics(&out.trace).render(id),
            ref_forensics,
            "forensics @ --shards {k} --jobs {jobs}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_reaches_the_same_bytes_without_recomputing() {
    let id = "fig16_sensor_error";
    let ctx = Ctx {
        smoke: true,
        telemetry: true,
        ..Ctx::default()
    };
    let scenario = find(id).expect("registered scenario");
    let dir = temp_dir("resume");

    let first = run_sharded(
        scenario,
        &ctx,
        8,
        &ShardOpts {
            shards: Some(3),
            resume: None,
            dir: Some(dir.clone()),
        },
        None,
        |_| ControlFlow::Continue(()),
    )
    .unwrap();
    assert_eq!(first.written.len(), 3);
    for i in 0..3 {
        assert!(
            dir.join(checkpoint_file(id, i, 3)).is_file(),
            "canonical checkpoint {i} exists"
        );
    }

    // Resume on a different worker count: everything loads, nothing is
    // recomputed, and the merged bytes are identical.
    let resumed = run_sharded(
        scenario,
        &ctx,
        1,
        &ShardOpts {
            shards: Some(3),
            resume: Some(dir.clone()),
            dir: Some(dir.clone()),
        },
        None,
        |_| ControlFlow::Continue(()),
    )
    .unwrap();
    assert_eq!(resumed.loaded, 3);
    assert!(resumed.written.is_empty());
    assert_eq!(resumed.output.report, first.output.report);
    assert_eq!(
        telemetry_bytes(&resumed.output, id),
        telemetry_bytes(&first.output, id)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

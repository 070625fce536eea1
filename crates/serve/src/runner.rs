//! Worker-pool job execution over the `voltctl-exp` engine.
//!
//! Each worker thread loops on [`JobTable::claim`] and runs each job
//! through the scenario driver the CLI uses, [`run_sharded`], so a
//! job's rendered report is byte-identical to the equivalent
//! `voltctl-exp run` invocation (the engine's merge is grid-ordered and
//! jobs/shards-invariant).
//!
//! # Crash safety and cancellation
//!
//! After each shard the driver hands the runner a progress record: the
//! runner streams it as a job event, logs a failed checkpoint write
//! (`runner.checkpoint_write_failed`; checkpoints are an optimization,
//! so the job carries on), and stops the job if its cooperative cancel
//! flag is up. With checkpointing on, each completed shard is written
//! under its canonical name through a temporary file and a rename. A
//! daemon that crashes — or a job that is cancelled — leaves valid
//! shard checkpoints behind; a resubmitted identical job revalidates
//! them (geometry + context fingerprint) and resumes where the work
//! stopped.
//!
//! # Panic isolation
//!
//! Scenario code asserts paper-shape claims and can panic on
//! pathological inputs. Workers run each job under `catch_unwind`: a
//! panicking job lands in `Failed` with the panic message; the worker
//! thread and the daemon live on.

use crate::event::{EventLevel, F};
use crate::job::{Claimed, JobOutcome, JobSpec, JobTable};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use voltctl_exp::telemetry::Mode;
use voltctl_exp::{
    ctx_fingerprint, find, plan_shards, run_sharded, Scenario, ShardDone, ShardOpts,
};
use voltctl_telemetry::export::{create_dir_fresh, write_file_fresh};

/// Runner-relevant daemon configuration (a subset of the server's).
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// State root: `<root>/jobs/` holds per-job artifact directories,
    /// `<root>/checkpoints/` the shared checkpoint store.
    pub root: PathBuf,
    /// Shard count used when a spec leaves `shards` at 0. Also the
    /// cancellation granularity.
    pub default_shards: usize,
}

/// The stable key for a job's checkpoint directory: scenario id plus
/// the context fingerprint and shard count that determine checkpoint
/// compatibility. Identical requests — across daemon restarts — map to
/// the same directory and can resume each other's shards.
pub fn work_key(spec: &JobSpec, ctx: &voltctl_exp::Ctx, shards: usize) -> String {
    format!(
        "{}-{:016x}-s{}",
        spec.scenario,
        ctx_fingerprint(ctx),
        shards
    )
}

/// Runs the worker loop until the table shuts down. Spawn one thread
/// per worker. The busy-worker gauge brackets each job so `/metrics`
/// shows live occupancy.
pub fn worker_loop(table: Arc<JobTable>, cfg: Arc<RunnerConfig>) {
    while let Some(claimed) = table.claim() {
        let busy = crate::metrics::global();
        busy.workers_busy.add(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&table, &cfg, &claimed)))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                JobOutcome::Failed(format!("panic: {msg}"))
            });
        table.finish(claimed.id, outcome);
        busy.workers_busy.add(-1);
    }
}

fn execute(table: &JobTable, cfg: &RunnerConfig, claimed: &Claimed) -> JobOutcome {
    let Claimed {
        id, spec, cancel, ..
    } = claimed;
    let id = *id;
    let cancel: &AtomicBool = cancel;
    let Some(scenario) = find(&spec.scenario) else {
        // The server validates at submit; this covers direct table use.
        return JobOutcome::Failed(format!("unknown scenario {:?}", spec.scenario));
    };

    let jobs_dir = cfg.root.join("jobs");
    let artifact_dir = match create_dir_fresh(&jobs_dir, &format!("job{id}")) {
        Ok(dir) => dir,
        Err(e) => return JobOutcome::Failed(format!("cannot create artifact dir: {e}")),
    };
    table.set_artifact_dir(id, artifact_dir.clone());

    let ctx = spec.ctx(artifact_dir.clone());
    let shards = if spec.shards == 0 {
        cfg.default_shards
    } else {
        spec.shards
    };
    let shard_count = plan_shards(scenario.cells(&ctx).len(), shards).len();
    let store = spec.checkpoints.then(|| {
        cfg.root
            .join("checkpoints")
            .join(work_key(spec, &ctx, shard_count))
    });
    let opts = ShardOpts {
        shards: Some(shard_count),
        resume: store.clone(),
        dir: store,
    };
    if cancel.load(Ordering::Relaxed) {
        return JobOutcome::Cancelled(0);
    }
    let mut cells_done = 0;
    let on_shard = |done: &ShardDone| {
        cells_done = done.cells_done;
        if let Some(error) = &done.write_error {
            table.log().emit(
                EventLevel::Warn,
                "runner.checkpoint_write_failed",
                &[("shard", F::U(done.shard as u64)), ("error", F::s(error))],
            );
        }
        report_shard(table, claimed, done);
        if cancel.load(Ordering::Relaxed) {
            ControlFlow::Break("cancelled".to_string())
        } else {
            ControlFlow::Continue(())
        }
    };
    match run_sharded(scenario, &ctx, 1, &opts, None, on_shard) {
        Ok(run) => {
            write_artifacts(table, &artifact_dir, scenario, spec, &run.output);
            JobOutcome::Done(run.output.report.into_bytes(), run.output.cells)
        }
        // The callback breaks only on cancellation.
        Err(_) => JobOutcome::Cancelled(cells_done),
    }
}

/// Streams one finished shard as a job progress event and a debug log
/// line.
fn report_shard(table: &JobTable, claimed: &Claimed, done: &ShardDone) {
    let id = claimed.id;
    let ShardDone {
        shard,
        shards,
        cells_done,
        cells_total,
        resumed,
        ..
    } = *done;
    table.progress(
        id,
        format!(
            "{{\"job\":{id},\"event\":\"shard\",\"shard\":{shard},\"shards\":{shards},\
             \"cells_done\":{cells_done},\"cells_total\":{cells_total},\"resumed\":{resumed},\"req\":{}}}",
            voltctl_check::json::escape(&claimed.request_id)
        ),
        cells_done,
    );
    table.log().emit(
        EventLevel::Debug,
        "job.shard",
        &[
            ("req", F::s(&claimed.request_id)),
            ("job", F::U(id)),
            ("shard", F::U(shard as u64)),
            ("shards", F::U(shards as u64)),
            ("cells_done", F::U(cells_done as u64)),
            ("cells_total", F::U(cells_total as u64)),
            ("resumed", F::B(resumed)),
        ],
    );
}

fn write_artifacts(
    table: &JobTable,
    dir: &Path,
    scenario: &dyn Scenario,
    spec: &JobSpec,
    out: &voltctl_exp::RunOutput,
) {
    if let Err(e) = write_file_fresh(dir, "report.txt", &out.report) {
        table.log().emit(
            EventLevel::Warn,
            "runner.report_write_failed",
            &[("error", F::s(e.to_string()))],
        );
    }
    if spec.telemetry != Mode::Off {
        voltctl_exp::telemetry::export_run(scenario.id(), &out.telemetry, spec.telemetry, dir);
    }
    if spec.trace {
        if let Err(e) = voltctl_exp::trace::export(dir, scenario.id(), &out.trace) {
            table.log().emit(
                EventLevel::Warn,
                "runner.trace_export_failed",
                &[("error", F::s(e.to_string()))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_exp::{run_scenario, Ctx};

    fn smoke_spec(scenario: &str) -> JobSpec {
        JobSpec {
            scenario: scenario.to_string(),
            smoke: true,
            ..JobSpec::default()
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("voltctl-serve-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_one(table: &Arc<JobTable>, cfg: &Arc<RunnerConfig>) {
        let claimed = table.claim().unwrap();
        let outcome = execute(table, cfg, &claimed);
        table.finish(claimed.id, outcome);
    }

    #[test]
    fn report_bytes_match_cli_render() {
        let root = temp_root("render");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let id = table.submit(smoke_spec("fig01_itrs")).unwrap();
        run_one(&table, &cfg);
        let served = table.report(id).expect("job must complete with a report");

        let scenario = find("fig01_itrs").unwrap();
        let ctx = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        let cli = run_scenario(scenario, &ctx, 1).report;
        assert_eq!(
            served,
            cli.into_bytes(),
            "served report must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_resubmission_resumes_from_checkpoints() {
        let root = temp_root("resume");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let first = table.submit(smoke_spec("fig02_response")).unwrap();
        run_one(&table, &cfg);
        let second = table.submit(smoke_spec("fig02_response")).unwrap();
        run_one(&table, &cfg);
        assert_eq!(table.report(first), table.report(second));
        // The second run must have loaded every shard from checkpoint.
        let snap = table.snapshot(second).unwrap();
        let (events, _) = table
            .wait_events(second, 0, std::time::Duration::from_millis(10))
            .unwrap();
        let shards = events
            .iter()
            .filter(|e| e.contains("\"event\":\"shard\""))
            .count();
        let resumed = events
            .iter()
            .filter(|e| e.contains("\"resumed\":true"))
            .count();
        assert!(shards >= 1);
        assert_eq!(resumed, shards, "every shard should resume: {events:?}");
        assert_eq!(snap.state, crate::job::JobState::Done);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_checkpoint_write_is_logged_and_the_job_completes() {
        let root = temp_root("obstructed");
        let log = Arc::new(crate::event::EventLog::open(&root));
        let table = Arc::new(JobTable::with_log(4, log.clone()));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let spec = smoke_spec("fig02_response");
        // A directory squatting on shard 0's canonical checkpoint path
        // makes that one write fail.
        let scenario = find(&spec.scenario).unwrap();
        let ctx = spec.ctx(root.clone());
        let shards = plan_shards(scenario.cells(&ctx).len(), 2).len();
        let store = root.join("checkpoints").join(work_key(&spec, &ctx, shards));
        let file = voltctl_exp::checkpoint_file(scenario.id(), 0, shards);
        std::fs::create_dir_all(store.join(file)).unwrap();

        let id = table.submit(spec).unwrap();
        run_one(&table, &cfg);
        assert_eq!(
            table.snapshot(id).unwrap().state,
            crate::job::JobState::Done
        );
        let cli = run_scenario(scenario, &ctx, 1).report;
        assert_eq!(table.report(id), Some(cli.into_bytes()));
        let events = std::fs::read_to_string(log.path().unwrap()).unwrap();
        let failed = events
            .lines()
            .filter(|l| l.contains("\"event\":\"runner.checkpoint_write_failed\""))
            .count();
        assert_eq!(failed, 1, "{events}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pre_raised_cancel_flag_cancels_before_any_shard() {
        let root = temp_root("cancel");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        let id = table.submit(smoke_spec("fig03_narrow_spike")).unwrap();
        let claimed = table.claim().unwrap();
        assert_eq!(claimed.id, id);
        claimed.cancel.store(true, Ordering::Relaxed);
        let outcome = execute(&table, &cfg, &claimed);
        assert!(matches!(outcome, JobOutcome::Cancelled(0)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_scenario_fails_cleanly() {
        let root = temp_root("unknown");
        let table = Arc::new(JobTable::new(4));
        let cfg = Arc::new(RunnerConfig {
            root: root.clone(),
            default_shards: 2,
        });
        table.submit(smoke_spec("no_such_scenario")).unwrap();
        run_one(&table, &cfg);
        let snap = table.snapshot(1).unwrap();
        assert_eq!(snap.state, crate::job::JobState::Failed);
        assert!(snap.error.unwrap().contains("no_such_scenario"));
        let _ = std::fs::remove_dir_all(&root);
    }
}

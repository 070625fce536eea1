//! Job specifications, states, and the bounded job table.
//!
//! The [`JobTable`] is the daemon's single source of truth: a job lives
//! in it from `POST /jobs` until it is evicted, at most
//! [`RETAINED_JOBS`] terminal jobs later. Accounting is
//! conservation-checked: at every observation point, `submitted` equals
//! queued + running + done + failed + cancelled + evicted, i.e. no job
//! is ever lost or duplicated, and the soak test asserts it.
//!
//! # Retention
//!
//! Terminal jobs are kept in finishing order, and once more than
//! [`RETAINED_JOBS`] of them are resident the oldest-finished one is
//! removed with its events and report. `Queued` and `Running` jobs are
//! never evicted, so the table holds at most `RETAINED_JOBS` plus the
//! queue bound plus the worker count. Ids are issued in order and never
//! reused, so an id below the next one to be issued that is no longer
//! resident is known to be evicted (the server answers `410 Gone`)
//! without any per-id record.
//!
//! # Poisoning
//!
//! Every lock and condvar wait recovers the guard from a poisoned
//! mutex, so a thread that panics under the lock cannot wedge the
//! daemon. Recovery is sound because the lock is held only across
//! plain bookkeeping that cannot panic halfway: no update leaves the
//! table inconsistent.
//!
//! # Queueing and backpressure
//!
//! Admission is bounded: at most `bound` jobs may sit in `Queued` at
//! once. A submit against a full queue is rejected immediately (the
//! server turns that into `429` + `Retry-After`) rather than blocking
//! a connection handler — a closed-loop client retries, an open-loop
//! client sheds load. Workers block on a [`Condvar`] and drain the
//! queue in FIFO order.
//!
//! # Cancellation
//!
//! Every job carries an `Arc<AtomicBool>` cancel flag. Cancelling a
//! `Queued` job removes it from the queue synchronously; cancelling a
//! `Running` job raises the flag, which the runner checks at shard
//! boundaries — the job winds down cooperatively, keeping the
//! checkpoints it already wrote (a resubmitted identical job resumes
//! from them).

use crate::event::{EventLevel, EventLog, F};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use voltctl_check::json::escape;
use voltctl_check::Json;
use voltctl_exp::telemetry::Mode;
use voltctl_exp::{Ctx, TraceSpec};

/// Terminal jobs kept resident. Past this many, the oldest-finished
/// terminal job is evicted, with its events and report.
pub const RETAINED_JOBS: usize = 256;

/// Everything a client can ask for on one job: the scenario plus the
/// options the `voltctl-exp run` CLI exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario id (must exist in the registry; validated at submit).
    pub scenario: String,
    /// Cycle-budget scale factor (`--scale`).
    pub scale: f64,
    /// Smoke mode (`--smoke`): tiny budgets, shape assertions off.
    pub smoke: bool,
    /// Event tracing (`--trace`): flight recorders + trace artifacts.
    pub trace: bool,
    /// Telemetry export mode (`--telemetry off|summary|jsonl|csv`).
    pub telemetry: Mode,
    /// Checkpoint shard count (`--shards`); `0` means the server
    /// default. Also the cancellation granularity.
    pub shards: usize,
    /// Whether to load/write checkpoints. The bench client disables
    /// this so repeated identical requests measure real work.
    pub checkpoints: bool,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            scenario: String::new(),
            scale: 1.0,
            smoke: false,
            trace: false,
            telemetry: Mode::Off,
            shards: 0,
            checkpoints: true,
        }
    }
}

impl JobSpec {
    /// Parses a spec from a `POST /jobs` JSON body.
    ///
    /// # Errors
    ///
    /// Human-readable reasons for malformed JSON, missing/unknown
    /// fields, or out-of-range values. (Scenario *existence* is checked
    /// by the server against the registry, keeping this module free of
    /// a registry dependency.)
    pub fn from_json_body(body: &[u8]) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
        let mut spec = JobSpec {
            scenario: json
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("missing required string field \"scenario\"")?
                .to_string(),
            ..JobSpec::default()
        };
        if let Some(v) = json.get("scale") {
            let s = v.as_f64().ok_or("\"scale\" must be a number")?;
            if !(s.is_finite() && s > 0.0) {
                return Err(format!("\"scale\" {s} is not a positive number"));
            }
            spec.scale = s;
        }
        if let Some(v) = json.get("smoke") {
            spec.smoke = v.as_bool().ok_or("\"smoke\" must be a boolean")?;
        }
        if let Some(v) = json.get("trace") {
            spec.trace = v.as_bool().ok_or("\"trace\" must be a boolean")?;
        }
        if let Some(v) = json.get("telemetry") {
            let raw = v.as_str().ok_or("\"telemetry\" must be a string")?;
            spec.telemetry = Mode::from_name(raw).ok_or_else(|| {
                format!(
                    "unknown telemetry mode {:?}",
                    raw.trim().to_ascii_lowercase()
                )
            })?;
        }
        if let Some(v) = json.get("shards") {
            let n = v.as_f64().ok_or("\"shards\" must be a number")?;
            if n.fract() != 0.0 || !(0.0..=4096.0).contains(&n) {
                return Err(format!("\"shards\" {n} is not an integer in 0..=4096"));
            }
            spec.shards = n as usize;
        }
        if let Some(v) = json.get("checkpoints") {
            spec.checkpoints = v.as_bool().ok_or("\"checkpoints\" must be a boolean")?;
        }
        Ok(spec)
    }

    /// The engine context this spec denotes — exactly what the CLI
    /// builds for the equivalent `voltctl-exp run` invocation, so the
    /// rendered report is byte-identical. `telemetry_out` points at the
    /// job's artifact directory.
    pub fn ctx(&self, artifact_dir: PathBuf) -> Ctx {
        Ctx {
            scale: self.scale,
            smoke: self.smoke,
            telemetry: self.telemetry != Mode::Off,
            telemetry_out: artifact_dir,
            trace: self.trace.then(TraceSpec::default),
        }
    }

    /// Serializes the options back out (for `GET /jobs/<id>` echoes).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":{},\"scale\":{},\"smoke\":{},\"trace\":{},\
             \"telemetry\":\"{}\",\"shards\":{},\"checkpoints\":{}}}",
            escape(&self.scenario),
            self.scale,
            self.smoke,
            self.trace,
            self.telemetry.name(),
            self.shards,
            self.checkpoints
        )
    }
}

/// Lifecycle of one job. `Done`, `Failed`, and `Cancelled` are
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    /// The wire name of this state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job's record: spec, state, progress events, and outputs.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// The request id assigned where the job entered the system (the
    /// connection handler, or synthesized for direct table use). Threaded
    /// into every event line the job emits.
    request_id: String,
    /// When the job entered the queue (for the queue-wait histogram).
    queued_at: Instant,
    /// When a worker claimed it (for the run-duration histogram).
    running_since: Option<Instant>,
    /// JSONL progress events, one line each, in emission order.
    events: Vec<String>,
    /// The rendered report (byte-identical to the CLI), once `Done`.
    report: Option<Vec<u8>>,
    /// Failure reason, once `Failed`.
    error: Option<String>,
    /// Artifact directory (allocated when the job starts running).
    artifact_dir: Option<PathBuf>,
    /// Grid cells completed (== total on `Done`).
    cells_done: usize,
}

/// Aggregate counters for `GET /stats` and the soak oracle. The state
/// counts are of resident jobs; `evicted` is cumulative, so
/// `submitted` equals their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    pub submitted: u64,
    pub queued: usize,
    pub running: usize,
    pub done: usize,
    pub failed: usize,
    pub cancelled: usize,
    pub queue_bound: usize,
    /// High-water mark of queue depth since startup.
    pub queue_depth_max: usize,
    /// Terminal jobs removed by the retention bound since startup.
    pub evicted: u64,
}

impl Stats {
    /// Renders the stats JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"queued\":{},\"running\":{},\"done\":{},\
             \"failed\":{},\"cancelled\":{},\"queue_bound\":{},\"queue_depth_max\":{},\
             \"evicted\":{}}}",
            self.submitted,
            self.queued,
            self.running,
            self.done,
            self.failed,
            self.cancelled,
            self.queue_bound,
            self.queue_depth_max,
            self.evicted
        )
    }

    /// Jobs currently held by the table, in any state.
    pub fn resident(&self) -> usize {
        self.queued + self.running + self.done + self.failed + self.cancelled
    }
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    pub id: u64,
    pub spec: JobSpec,
    pub state: JobState,
    pub request_id: String,
    pub error: Option<String>,
    pub cells_done: usize,
    pub has_report: bool,
    pub artifact_dir: Option<PathBuf>,
}

impl JobSnapshot {
    /// Renders the `GET /jobs/<id>` JSON object.
    pub fn to_json(&self) -> String {
        let error = match &self.error {
            Some(e) => escape(e),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"state\":\"{}\",\"request_id\":{},\"spec\":{},\"cells_done\":{},\
             \"has_report\":{},\"error\":{}}}",
            self.id,
            self.state.name(),
            escape(&self.request_id),
            self.spec.to_json(),
            self.cells_done,
            self.has_report,
            error
        )
    }
}

/// What a worker receives from [`JobTable::claim`]: the job plus the
/// request id to thread into shard events and the measured queue wait.
#[derive(Debug)]
pub struct Claimed {
    pub id: u64,
    pub spec: JobSpec,
    pub cancel: Arc<AtomicBool>,
    /// Request id assigned at HTTP accept (or synthesized for direct
    /// table use).
    pub request_id: String,
    /// Submit-to-claim wait (already observed into the queue-wait
    /// histogram by `claim`).
    pub queue_wait: Duration,
}

/// Outcome the runner reports when a job leaves `Running`.
#[derive(Debug)]
pub enum JobOutcome {
    /// Report bytes + cells completed.
    Done(Vec<u8>, usize),
    /// Failure reason.
    Failed(String),
    /// Cooperative cancellation observed (cells completed so far).
    Cancelled(usize),
}

#[derive(Debug)]
struct TableInner {
    jobs: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    /// Resident terminal jobs, oldest-finished first.
    finished: VecDeque<u64>,
    next_id: u64,
    submitted: u64,
    evicted: u64,
    queue_depth_max: usize,
    shutdown: bool,
}

impl TableInner {
    /// Records that `id` just became terminal and evicts the
    /// oldest-finished terminal jobs past [`RETAINED_JOBS`].
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
                self.evicted += 1;
            }
        }
    }
}

/// The bounded, condvar-signalled job table shared by the connection
/// handlers and the workers.
#[derive(Debug)]
pub struct JobTable {
    inner: Mutex<TableInner>,
    changed: Condvar,
    bound: usize,
    /// Structured event sink; every state transition mirrors there at
    /// `Debug` with the job's request id.
    log: Arc<EventLog>,
}

/// Why a submit was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue is at its bound; retry later (the server sends 429).
    QueueFull,
    /// The daemon is shutting down.
    ShuttingDown,
}

impl JobTable {
    /// A table admitting at most `queue_bound` queued jobs at once,
    /// with no event-log sink (tests, embedded use).
    pub fn new(queue_bound: usize) -> JobTable {
        JobTable::with_log(queue_bound, Arc::new(EventLog::disabled()))
    }

    /// A table that mirrors every job state transition to `log`.
    pub fn with_log(queue_bound: usize, log: Arc<EventLog>) -> JobTable {
        JobTable {
            inner: Mutex::new(TableInner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                next_id: 1,
                submitted: 0,
                evicted: 0,
                queue_depth_max: 0,
                shutdown: false,
            }),
            changed: Condvar::new(),
            bound: queue_bound.max(1),
            log,
        }
    }

    /// The event sink shared with this table (the runner threads shard
    /// events through it).
    pub fn log(&self) -> &Arc<EventLog> {
        &self.log
    }

    fn lock(&self) -> MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True when `id` was handed out by [`submit`](JobTable::submit):
    /// such an id that is no longer resident was evicted.
    pub fn was_issued(&self, id: u64) -> bool {
        id >= 1 && id < self.lock().next_id
    }

    /// Admits a job, returning its id, or refuses with backpressure.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at the bound, [`SubmitError::ShuttingDown`]
    /// after [`shutdown`](JobTable::shutdown).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.submit_with_request(spec, None)
    }

    /// [`submit`](JobTable::submit) with the HTTP request id that
    /// carried the job in. `None` synthesizes a `local-<id>` id so
    /// direct table users still get traceable event lines.
    pub fn submit_with_request(
        &self,
        spec: JobSpec,
        request_id: Option<&str>,
    ) -> Result<u64, SubmitError> {
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.bound {
            return Err(SubmitError::QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.submitted += 1;
        let request_id = match request_id {
            Some(r) => r.to_string(),
            None => format!("local-{id}"),
        };
        let scenario = spec.scenario.clone();
        let mut record = JobRecord {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            request_id: request_id.clone(),
            queued_at: Instant::now(),
            running_since: None,
            events: Vec::new(),
            report: None,
            error: None,
            artifact_dir: None,
            cells_done: 0,
        };
        record.events.push(format!(
            "{{\"job\":{id},\"event\":\"queued\",\"req\":{}}}",
            escape(&request_id)
        ));
        inner.jobs.insert(id, record);
        inner.queue.push_back(id);
        let depth = inner.queue.len();
        inner.queue_depth_max = inner.queue_depth_max.max(depth);
        drop(inner);
        self.log.emit(
            EventLevel::Debug,
            "job.queued",
            &[
                ("req", F::s(&request_id)),
                ("job", F::U(id)),
                ("scenario", F::s(scenario)),
                ("queue_depth", F::U(depth as u64)),
            ],
        );
        self.changed.notify_all();
        Ok(id)
    }

    /// Blocks until a job is available (returning it moved to
    /// `Running`) or the table shuts down (returning `None`). Observes
    /// the job's queue wait into the metrics plane.
    pub fn claim(&self) -> Option<Claimed> {
        let mut inner = self.lock();
        loop {
            if let Some(id) = inner.queue.pop_front() {
                let record = inner.jobs.get_mut(&id).expect("queued job must exist");
                record.state = JobState::Running;
                let now = Instant::now();
                let queue_wait = now.duration_since(record.queued_at);
                record.running_since = Some(now);
                record.events.push(format!(
                    "{{\"job\":{id},\"event\":\"running\",\"req\":{}}}",
                    escape(&record.request_id)
                ));
                let out = Claimed {
                    id,
                    spec: record.spec.clone(),
                    cancel: Arc::clone(&record.cancel),
                    request_id: record.request_id.clone(),
                    queue_wait,
                };
                drop(inner);
                crate::metrics::global()
                    .queue_wait_ns
                    .observe(queue_wait.as_nanos() as u64);
                self.log.emit(
                    EventLevel::Debug,
                    "job.running",
                    &[
                        ("req", F::s(&out.request_id)),
                        ("job", F::U(id)),
                        ("queue_wait_ns", F::U(queue_wait.as_nanos() as u64)),
                    ],
                );
                self.changed.notify_all();
                return Some(out);
            }
            if inner.shutdown {
                return None;
            }
            inner = self
                .changed
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Appends a JSONL progress event to a running job and updates its
    /// completed-cell count.
    pub fn progress(&self, id: u64, event: String, cells_done: usize) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.events.push(event);
            record.cells_done = record.cells_done.max(cells_done);
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Records the artifact directory allocated for a job.
    pub fn set_artifact_dir(&self, id: u64, dir: PathBuf) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&id) {
            record.artifact_dir = Some(dir);
        }
    }

    /// Moves a running job to its terminal state, recording the
    /// outcome counter and run-duration histogram.
    pub fn finish(&self, id: u64, outcome: JobOutcome) {
        let mut inner = self.lock();
        let mut finished: Option<(JobState, Duration, String, Option<String>)> = None;
        if let Some(record) = inner.jobs.get_mut(&id).filter(|r| !r.state.is_terminal()) {
            let req = escape(&record.request_id);
            match outcome {
                JobOutcome::Done(report, cells) => {
                    record.state = JobState::Done;
                    record.report = Some(report);
                    record.cells_done = cells;
                    record.events.push(format!(
                        "{{\"job\":{id},\"event\":\"done\",\"cells\":{cells},\"req\":{req}}}"
                    ));
                }
                JobOutcome::Failed(reason) => {
                    record.state = JobState::Failed;
                    record.events.push(format!(
                        "{{\"job\":{id},\"event\":\"failed\",\"error\":{},\"req\":{req}}}",
                        escape(&reason)
                    ));
                    record.error = Some(reason);
                }
                JobOutcome::Cancelled(cells) => {
                    record.state = JobState::Cancelled;
                    record.cells_done = cells;
                    record.events.push(format!(
                        "{{\"job\":{id},\"event\":\"cancelled\",\"req\":{req}}}"
                    ));
                }
            }
            let ran_for = record
                .running_since
                .map(|t| t.elapsed())
                .unwrap_or(Duration::ZERO);
            finished = Some((
                record.state,
                ran_for,
                record.request_id.clone(),
                record.error.clone(),
            ));
            inner.retire(id);
        }
        drop(inner);
        if let Some((state, ran_for, request_id, error)) = finished {
            crate::metrics::global().record_job_finished(state.name(), ran_for);
            let mut fields = vec![
                ("req", F::s(&request_id)),
                ("job", F::U(id)),
                ("run_ns", F::U(ran_for.as_nanos() as u64)),
            ];
            if let Some(e) = &error {
                fields.push(("error", F::s(e)));
            }
            let level = if error.is_some() {
                EventLevel::Warn
            } else {
                EventLevel::Debug
            };
            self.log
                .emit(level, &format!("job.{}", state.name()), &fields);
        }
        self.changed.notify_all();
    }

    /// Cancels a job. Queued jobs terminate synchronously; running jobs
    /// get their flag raised and wind down at the next shard boundary.
    /// Returns the state observed *before* cancellation, or `None` for
    /// an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut inner = self.lock();
        let record = inner.jobs.get(&id)?;
        let before = record.state;
        let request_id = record.request_id.clone();
        match before {
            JobState::Queued => {
                inner.queue.retain(|&q| q != id);
                let record = inner.jobs.get_mut(&id).expect("checked above");
                record.state = JobState::Cancelled;
                record.cancel.store(true, Ordering::Relaxed);
                record.events.push(format!(
                    "{{\"job\":{id},\"event\":\"cancelled\",\"req\":{}}}",
                    escape(&request_id)
                ));
                inner.retire(id);
            }
            JobState::Running => {
                record.cancel.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        drop(inner);
        if before == JobState::Queued {
            // Never ran: count the outcome with a zero run duration.
            crate::metrics::global().record_job_finished("cancelled", Duration::ZERO);
        }
        self.log.emit(
            EventLevel::Debug,
            "job.cancel_requested",
            &[
                ("req", F::s(&request_id)),
                ("job", F::U(id)),
                ("was", F::s(before.name())),
            ],
        );
        self.changed.notify_all();
        Some(before)
    }

    /// A copy of one job's externally visible state.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.lock();
        let record = inner.jobs.get(&id)?;
        Some(JobSnapshot {
            id,
            spec: record.spec.clone(),
            state: record.state,
            request_id: record.request_id.clone(),
            error: record.error.clone(),
            cells_done: record.cells_done,
            has_report: record.report.is_some(),
            artifact_dir: record.artifact_dir.clone(),
        })
    }

    /// The rendered report bytes for a `Done` job.
    pub fn report(&self, id: u64) -> Option<Vec<u8>> {
        self.lock().jobs.get(&id)?.report.clone()
    }

    /// Copies progress events from index `from` on, waiting up to
    /// `timeout` for news when none are pending. Returns the events and
    /// whether the job has reached a terminal state. `None` for an id
    /// that is not resident, including one evicted during the wait.
    pub fn wait_events(
        &self,
        id: u64,
        from: usize,
        timeout: Duration,
    ) -> Option<(Vec<String>, bool)> {
        let mut inner = self.lock();
        let mut timed_out = false;
        loop {
            let record = inner.jobs.get(&id)?;
            let terminal = record.state.is_terminal();
            if record.events.len() > from || terminal || timed_out {
                return Some((
                    record.events[from.min(record.events.len())..].to_vec(),
                    terminal,
                ));
            }
            let (guard, wait) = self
                .changed
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            timed_out = wait.timed_out();
        }
    }

    /// Aggregate counters (the soak oracle's conservation check reads
    /// these).
    pub fn stats(&self) -> Stats {
        let inner = self.lock();
        let mut stats = Stats {
            submitted: inner.submitted,
            queued: 0,
            running: 0,
            done: 0,
            failed: 0,
            cancelled: 0,
            queue_bound: self.bound,
            queue_depth_max: inner.queue_depth_max,
            evicted: inner.evicted,
        };
        for record in inner.jobs.values() {
            match record.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running => stats.running += 1,
                JobState::Done => stats.done += 1,
                JobState::Failed => stats.failed += 1,
                JobState::Cancelled => stats.cancelled += 1,
            }
        }
        stats
    }

    /// Stops admission and wakes every blocked worker so they can exit.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.changed.notify_all();
    }
}

#[cfg(test)]
impl JobTable {
    /// Poisons the table lock: a thread panics while it holds it.
    pub(crate) fn poison(&self) {
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = self.lock();
                panic!("injected panic under the job-table lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(self.inner.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(scenario: &str) -> JobSpec {
        JobSpec {
            scenario: scenario.to_string(),
            smoke: true,
            ..JobSpec::default()
        }
    }

    #[test]
    fn submit_claim_finish_roundtrip() {
        let table = JobTable::new(4);
        let id = table.submit(spec("fig01_itrs")).unwrap();
        let claimed = table.claim().unwrap();
        assert_eq!(claimed.id, id);
        assert_eq!(claimed.spec.scenario, "fig01_itrs");
        assert_eq!(claimed.request_id, format!("local-{id}"));
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Running);
        table.finish(id, JobOutcome::Done(b"report".to_vec(), 3));
        let snap = table.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.cells_done, 3);
        assert_eq!(table.report(id).unwrap(), b"report");
    }

    #[test]
    fn queue_bound_rejects_with_queue_full() {
        let table = JobTable::new(2);
        table.submit(spec("a")).unwrap();
        table.submit(spec("b")).unwrap();
        assert_eq!(table.submit(spec("c")), Err(SubmitError::QueueFull));
        assert_eq!(table.stats().queue_depth_max, 2);
        // Draining one admits one more.
        table.claim().unwrap();
        table.submit(spec("c")).unwrap();
    }

    #[test]
    fn cancel_queued_job_never_reaches_a_worker() {
        let table = JobTable::new(4);
        let a = table.submit(spec("a")).unwrap();
        let b = table.submit(spec("b")).unwrap();
        assert_eq!(table.cancel(a), Some(JobState::Queued));
        assert_eq!(table.snapshot(a).unwrap().state, JobState::Cancelled);
        assert_eq!(
            table.claim().unwrap().id,
            b,
            "cancelled job must be skipped"
        );
    }

    #[test]
    fn cancel_running_job_raises_flag_only() {
        let table = JobTable::new(4);
        let id = table.submit(spec("a")).unwrap();
        let cancel = table.claim().unwrap().cancel;
        assert!(!cancel.load(Ordering::Relaxed));
        assert_eq!(table.cancel(id), Some(JobState::Running));
        assert!(cancel.load(Ordering::Relaxed));
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Running);
        table.finish(id, JobOutcome::Cancelled(1));
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn shutdown_unblocks_claim() {
        let table = Arc::new(JobTable::new(1));
        let t2 = Arc::clone(&table);
        let waiter = std::thread::spawn(move || t2.claim());
        std::thread::sleep(Duration::from_millis(20));
        table.shutdown();
        assert!(waiter.join().unwrap().is_none());
        assert_eq!(table.submit(spec("a")), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn events_stream_in_order_and_terminate() {
        let table = JobTable::new(4);
        let id = table.submit(spec("a")).unwrap();
        table.claim().unwrap();
        table.progress(id, format!("{{\"job\":{id},\"event\":\"shard\"}}"), 2);
        table.finish(id, JobOutcome::Done(Vec::new(), 4));
        let (events, terminal) = table.wait_events(id, 0, Duration::from_millis(10)).unwrap();
        assert!(terminal);
        assert_eq!(events.len(), 4);
        assert!(events[0].contains("queued"));
        assert!(events[1].contains("running"));
        assert!(events[2].contains("shard"));
        assert!(events[3].contains("done"));
        // Every table-emitted event carries the request id.
        for event in [&events[0], &events[1], &events[3]] {
            assert!(
                event.contains(&format!("\"req\":\"local-{id}\"")),
                "missing request id: {event}"
            );
        }
        // Streaming from an offset returns only the tail.
        let (tail, _) = table.wait_events(id, 3, Duration::from_millis(10)).unwrap();
        assert_eq!(tail.len(), 1);
    }

    #[test]
    fn spec_json_roundtrip_and_validation() {
        let spec = JobSpec::from_json_body(
            br#"{"scenario":"fig01_itrs","scale":2.5,"smoke":true,"telemetry":"jsonl","shards":3}"#,
        )
        .unwrap();
        assert_eq!(spec.scenario, "fig01_itrs");
        assert_eq!(spec.scale, 2.5);
        assert!(spec.smoke);
        assert_eq!(spec.telemetry, Mode::Jsonl);
        assert_eq!(spec.shards, 3);
        assert!(spec.checkpoints);
        let echoed = JobSpec::from_json_body(spec.to_json().as_bytes()).unwrap();
        assert_eq!(echoed.telemetry, Mode::Jsonl);
        let alias = JobSpec::from_json_body(br#"{"scenario":"x","telemetry":"json"}"#).unwrap();
        assert_eq!(
            alias.telemetry,
            Mode::Jsonl,
            "the CLI's aliases are accepted"
        );

        assert!(JobSpec::from_json_body(b"not json").is_err());
        assert!(JobSpec::from_json_body(b"{}").is_err());
        assert!(JobSpec::from_json_body(br#"{"scenario":"x","scale":-1}"#).is_err());
        assert!(JobSpec::from_json_body(br#"{"scenario":"x","telemetry":"bogus"}"#).is_err());
        assert!(JobSpec::from_json_body(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn stats_conserve_jobs() {
        let table = JobTable::new(8);
        let a = table.submit(spec("a")).unwrap();
        let _b = table.submit(spec("b")).unwrap();
        let c = table.submit(spec("c")).unwrap();
        table.cancel(c);
        assert_eq!(table.claim().unwrap().id, a);
        table.finish(a, JobOutcome::Failed("boom".into()));
        let stats = table.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(
            stats.queued + stats.running + stats.done + stats.failed + stats.cancelled,
            3
        );
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.queued, 1);
    }

    /// The books balance: every issued job is resident in exactly one
    /// state or counted as evicted.
    fn assert_balanced(table: &JobTable) -> Stats {
        let stats = table.stats();
        assert_eq!(
            stats.submitted,
            stats.resident() as u64 + stats.evicted,
            "{stats:?}"
        );
        stats
    }

    #[test]
    fn retention_evicts_oldest_terminal_job_and_never_a_live_one() {
        const QUEUE: usize = 4;
        let table = JobTable::new(QUEUE);
        // One job held Running for the whole run: it must survive every
        // eviction around it.
        let pinned = table.submit(spec("pinned")).unwrap();
        assert_eq!(table.claim().unwrap().id, pinned);
        for cycle in 0..10_000u64 {
            // Keep the queue full, then run its head to a terminal
            // state: done, failed, or (queued) cancelled in turn.
            while table.submit(spec("x")).is_ok() {}
            let claimed = table.claim().unwrap();
            let outcome = match cycle % 3 {
                0 => JobOutcome::Done(b"r".to_vec(), 1),
                1 => JobOutcome::Failed("boom".into()),
                _ => JobOutcome::Cancelled(0),
            };
            table.finish(claimed.id, outcome);
            let stats = assert_balanced(&table);
            assert!(
                stats.resident() <= RETAINED_JOBS + QUEUE + stats.running,
                "cycle {cycle}: {stats:?}"
            );
            assert!(stats.done + stats.failed + stats.cancelled <= RETAINED_JOBS);
            assert_eq!(table.snapshot(pinned).unwrap().state, JobState::Running);
        }
        let stats = assert_balanced(&table);
        assert!(stats.evicted > 9_000, "{stats:?}");
        // Cancelling a queued job retires it too.
        let queued = table.submit(spec("x")).unwrap();
        assert_eq!(table.cancel(queued), Some(JobState::Queued));
        let after = assert_balanced(&table);
        assert_eq!(after.evicted, stats.evicted + 1);
        table.finish(pinned, JobOutcome::Done(Vec::new(), 0));
        assert_eq!(assert_balanced(&table).evicted, stats.evicted + 2);
    }

    #[test]
    fn eviction_order_is_finishing_order() {
        let table = JobTable::new(2 * RETAINED_JOBS);
        let ids: Vec<u64> = (0..RETAINED_JOBS + 2)
            .map(|_| table.submit(spec("x")).unwrap())
            .collect();
        for _ in &ids {
            table.claim().unwrap();
        }
        // Finish the first id last: it is then the newest terminal job.
        for &id in ids[1..].iter().chain(&ids[..1]) {
            table.finish(id, JobOutcome::Done(Vec::new(), 0));
        }
        let stats = assert_balanced(&table);
        assert_eq!(stats.evicted, 2);
        assert!(table.snapshot(ids[0]).is_some(), "finished last, kept");
        assert!(table.snapshot(ids[1]).is_none(), "finished first, evicted");
        assert!(table.snapshot(ids[2]).is_none(), "finished second, evicted");
        assert!(table.snapshot(ids[3]).is_some());
        // An evicted id was issued; one past the last issued never was.
        assert!(table.was_issued(ids[1]));
        assert!(!table.was_issued(0));
        assert!(!table.was_issued(ids[ids.len() - 1] + 1));
        assert!(table.report(ids[1]).is_none());
        assert!(table.cancel(ids[1]).is_none());
        // A stream that comes back for more events after its job was
        // evicted gets `None` and ends.
        assert!(table
            .wait_events(ids[1], 0, Duration::from_millis(1))
            .is_none());
    }

    #[test]
    fn a_panic_under_the_table_lock_does_not_wedge_the_table() {
        let table = Arc::new(JobTable::new(4));
        let before = table.submit(spec("a")).unwrap();
        table.poison();

        let after = table.submit(spec("b")).unwrap();
        assert_eq!(table.claim().unwrap().id, before);
        table.finish(before, JobOutcome::Done(b"ok".to_vec(), 1));
        let (events, terminal) = table
            .wait_events(before, 0, Duration::from_millis(10))
            .unwrap();
        assert!(terminal);
        assert!(events.last().unwrap().contains("\"done\""));
        // A condvar wait on the poisoned mutex recovers its guard too.
        // (The sleep makes it likely that the waiter is waiting when the
        // claim lands; the result is the same either way.)
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.wait_events(after, 1, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(table.claim().unwrap().id, after);
        let (events, _) = waiter.join().unwrap().unwrap();
        assert!(events[0].contains("running"));
        let stats = assert_balanced(&table);
        assert_eq!((stats.done, stats.running), (1, 1));
        assert_eq!(table.report(before).unwrap(), b"ok");
    }
}

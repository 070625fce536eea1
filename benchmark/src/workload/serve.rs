//! `serve`: an in-process daemon (two workers) driven closed-loop by two
//! connections over a seeded mix of eleven ms-class scenarios. Most jobs
//! carry microseconds of engine work, so HTTP, the job queue, streaming
//! and checkpoint reads dominate: the same engine as `sweep`, used as many
//! tiny jobs instead of a few big ones.
//!
//! Every block of 22 consecutive requests holds each scenario twice, in
//! a seeded order: once with the daemon defaults (sharded and
//! checkpointed, so repeats resume from checkpoint reads) and once asking
//! for one shard and no checkpoints, a fresh compute. Fixing the block's
//! make-up keeps the share of slow jobs, and with it the latency tail,
//! the same for every seed. A request's latency runs from submit until
//! its report body is received, and the body must equal the in-process
//! `run_scenario` render made during set-up.

use super::{shuffled, splitmix64, Bench, Opts, Tally, THREADS};
use crate::host;
use crate::metrics::Values;
use crate::reference::References;
use crate::stats::{percentile, sorted};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use voltctl_check::Json;
use voltctl_exp::{find, run_scenario, Ctx, Runtime};
use voltctl_pdn::CacheStats;
use voltctl_serve::{request, spawn, ServeConfig, ServerHandle};
use voltctl_telemetry::registry::{HistSnapshot, Registry};

/// The request mix.
pub const MIX: [&str; 11] = [
    "fig01_itrs",
    "fig02_response",
    "fig03_narrow_spike",
    "fig04_wide_spike",
    "fig05_notched_spike",
    "fig06_resonant_train",
    "table3_thresholds",
    "ablation_grid",
    "ablation_ladder",
    "fig09_stressmark_vs_worst",
    "fig11_controller_trace",
];

/// Requests per block: every scenario, checkpointed and fresh.
const BLOCK: usize = 2 * MIX.len();
/// Requests per pass (split over the connections as they free up).
const PASS_REQUESTS: usize = 10 * BLOCK;

/// Request `i` under `seed`: its mix index and whether it is checkpointed.
pub fn nth_request(seed: u64, i: usize) -> (usize, bool) {
    let block = (i / BLOCK) as u64;
    let order = shuffled(
        (0..BLOCK).collect(),
        splitmix64(seed ^ block.rotate_left(32)),
    );
    let slot = order[i % BLOCK];
    (slot / 2, slot % 2 == 1)
}

/// Client-side phase times of one request, in ms.
#[derive(Debug, Clone, Copy)]
struct Phases {
    total: f64,
    submit: f64,
    stream: f64,
    report: f64,
    /// Every shard was loaded from a checkpoint.
    resumed: bool,
}

/// A finished traced request.
#[derive(Debug, Clone, Copy)]
struct Done {
    scenario: usize,
    checkpointed: bool,
    phases: Phases,
}

/// Daemon-side counters at the start of the traced passes.
struct Before {
    queue_wait: HistSnapshot,
    job_run: HistSnapshot,
    solve: CacheStats,
    kernel: CacheStats,
}

impl Before {
    fn now() -> Before {
        Before {
            queue_wait: queue_wait_histogram(),
            job_run: job_run_histogram(),
            solve: voltctl_exp::solve_cache_stats(),
            kernel: voltctl_pdn::kernel_cache_stats(),
        }
    }
}

pub struct ServeBench {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    root: PathBuf,
    seed: u64,
    smoke: bool,
    /// In-process renders, by mix index.
    expected: Vec<Vec<u8>>,
    next: usize,
    per_pass: usize,
    setup_tally: (u64, u64),
    retries: AtomicU64,
    traced: Vec<Done>,
    threads_max: f64,
    before: Option<Before>,
}

fn job_run_histogram() -> HistSnapshot {
    Registry::global()
        .histogram(
            "voltctl_serve_job_run_ns",
            "Nanoseconds from claim to terminal state, by outcome",
            &[("state", "done")],
        )
        .snapshot()
}

fn queue_wait_histogram() -> HistSnapshot {
    voltctl_serve::metrics::global().queue_wait_ns.snapshot()
}

/// The 99th percentile (bucket upper bound, ms) of what `now` recorded
/// after `then`.
fn p99_since(now: &HistSnapshot, then: &HistSnapshot) -> f64 {
    let delta = HistSnapshot {
        counts: now
            .counts
            .iter()
            .zip(&then.counts)
            .map(|(a, b)| a - b)
            .collect(),
        sum: now.sum - then.sum,
    };
    delta.quantile(0.99).unwrap_or(0) as f64 / 1e6
}

fn hit_ratio(now: &CacheStats, then: &CacheStats) -> f64 {
    let hits = (now.hits - then.hits) as f64;
    let lookups = hits + (now.misses - then.misses) as f64;
    if lookups == 0.0 {
        0.0
    } else {
        hits / lookups
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn job_body(scenario: &str, smoke: bool, fresh: bool) -> Vec<u8> {
    let extra = if fresh {
        ",\"checkpoints\":false,\"shards\":1"
    } else {
        ""
    };
    format!("{{\"scenario\":\"{scenario}\",\"smoke\":{smoke}{extra}}}").into_bytes()
}

/// One closed-loop request: submit (absorbing 429s), stream to the
/// terminal event, fetch the report. Returns the phase times and whether
/// the report equals `expected`.
fn drive(
    addr: SocketAddr,
    body: &[u8],
    expected: &[u8],
    retries: &AtomicU64,
) -> Result<(Phases, bool), String> {
    let t0 = Instant::now();
    let id = loop {
        let resp = request(addr, "POST", "/jobs", Some(body)).map_err(|e| e.to_string())?;
        match resp.status {
            202 => {
                break Json::parse(&resp.text())
                    .ok()
                    .and_then(|j| j.get("id").and_then(Json::as_f64))
                    .ok_or("submit response carries no id")? as u64
            }
            429 => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return Err(format!("submit got {other}: {}", resp.text())),
        }
    };
    let t1 = Instant::now();
    let stream = request(addr, "GET", &format!("/jobs/{id}/stream"), None)
        .map_err(|e| e.to_string())?
        .text();
    if !stream.contains("\"event\":\"done\"") {
        return Err(format!("job {id} did not finish: {stream}"));
    }
    let shards = stream.matches("\"event\":\"shard\"").count();
    let resumed = stream.matches("\"resumed\":true").count();
    let t2 = Instant::now();
    let report =
        request(addr, "GET", &format!("/jobs/{id}/report"), None).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let phases = Phases {
        total: ms(t3 - t0),
        submit: ms(t1 - t0),
        stream: ms(t2 - t1),
        report: ms(t3 - t2),
        resumed: shards > 0 && resumed == shards,
    };
    Ok((phases, report.status == 200 && report.body == expected))
}

impl ServeBench {
    pub fn setup(opts: &Opts, refs: &'static References) -> Result<ServeBench, String> {
        let root = opts.out.join(format!("serve-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let handle = spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: THREADS,
            queue_bound: 2 * THREADS,
            root: root.clone(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let addr = handle.addr;

        // Reference renders, which also warm every memo the mix touches.
        let ctx = Ctx {
            smoke: opts.smoke,
            ..Ctx::default()
        };
        let mut setup_tally = (0, 0);
        let mut expected = Vec::new();
        for id in MIX {
            let scenario = find(id).expect("mix ids are registry ids");
            let report = run_scenario(scenario, &ctx, 1).report;
            setup_tally.0 += 1;
            setup_tally.1 += u64::from(!refs.scenario_ok(opts.smoke, id, &report));
            expected.push(report.into_bytes());
        }
        // Warm the daemon's request path with one smoke job per scenario.
        let retries = AtomicU64::new(0);
        let smoke_ctx = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        for id in MIX {
            let want = run_scenario(find(id).expect("mix id"), &smoke_ctx, 1).report;
            let ok = drive(addr, &job_body(id, true, true), want.as_bytes(), &retries)
                .is_ok_and(|(_, ok)| ok);
            setup_tally.0 += 1;
            setup_tally.1 += u64::from(!ok);
        }
        Ok(ServeBench {
            handle: Some(handle),
            addr,
            root,
            seed: opts.seed,
            smoke: opts.smoke,
            expected,
            next: 0,
            per_pass: if opts.smoke { BLOCK } else { PASS_REQUESTS },
            setup_tally,
            retries: AtomicU64::new(0),
            traced: Vec::new(),
            threads_max: 0.0,
            before: None,
        })
    }

    /// Runs request `i` and returns its latency, outcome and, when it
    /// completed, its phases.
    fn one(&self, i: usize) -> (f64, Option<Done>, bool) {
        let (scenario, checkpointed) = nth_request(self.seed, i);
        let started = Instant::now();
        let body = job_body(MIX[scenario], self.smoke, !checkpointed);
        match drive(self.addr, &body, &self.expected[scenario], &self.retries) {
            Ok((phases, ok)) => {
                let done = Done {
                    scenario,
                    checkpointed,
                    phases,
                };
                (phases.total, Some(done), ok)
            }
            Err(e) => {
                eprintln!("serve request {i} ({}): {e}", MIX[scenario]);
                (host::secs(started) * 1e3, None, false)
            }
        }
    }
}

impl Bench for ServeBench {
    fn pass(&mut self, traced: bool, tally: &mut Tally) {
        if traced && self.before.is_none() {
            self.before = Some(Before::now());
        }
        let end = self.next + self.per_pass;
        let next = AtomicUsize::new(self.next);
        let finished = Mutex::new(Vec::new());
        let threads_max = Mutex::new(self.threads_max);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        return;
                    }
                    let outcome = self.one(i);
                    if traced {
                        let mut max = threads_max.lock().expect("thread sampler lock");
                        *max = max.max(host::threads());
                    }
                    finished.lock().expect("request log lock").push(outcome);
                });
            }
        });
        self.next = end;
        self.threads_max = threads_max.into_inner().expect("thread sampler lock");
        for (latency_ms, done, ok) in finished.into_inner().expect("request log lock") {
            tally.record_ms(latency_ms, ok);
            if let (true, Some(done)) = (traced, done) {
                self.traced.push(done);
            }
        }
    }

    fn values(&mut self, traced: bool) -> Values {
        let Some(before) = self.before.as_ref().filter(|_| traced) else {
            return Values::new();
        };
        let instant: Vec<bool> = MIX
            .iter()
            .map(|id| find(id).is_some_and(|s| s.runtime() == Runtime::Instant))
            .collect();
        let p = |q: f64, pick: &dyn Fn(&Done) -> Option<f64>| {
            let picked: Vec<f64> = self.traced.iter().filter_map(pick).collect();
            percentile(&sorted(&picked), q)
        };
        let checkpointed = self.traced.iter().filter(|d| d.checkpointed);
        let resumed = checkpointed.clone().filter(|d| d.phases.resumed).count();
        let stats = self
            .handle
            .as_ref()
            .expect("the daemon runs until finish")
            .table()
            .stats();
        let resident = stats.queued + stats.running + stats.done + stats.failed + stats.cancelled;
        [
            ("serve.submit_ms_p50", p(0.5, &|d| Some(d.phases.submit))),
            ("serve.stream_ms_p50", p(0.5, &|d| Some(d.phases.stream))),
            ("serve.stream_ms_p99", p(0.99, &|d| Some(d.phases.stream))),
            ("serve.report_ms_p50", p(0.5, &|d| Some(d.phases.report))),
            (
                "serve.overhead_ms_p50",
                p(0.5, &|d| instant[d.scenario].then_some(d.phases.total)),
            ),
            (
                "serve.fresh_ms_p50",
                p(0.5, &|d| (!d.checkpointed).then_some(d.phases.total)),
            ),
            (
                "serve.checkpointed_ms_p50",
                p(0.5, &|d| d.checkpointed.then_some(d.phases.total)),
            ),
            (
                "serve.resumed_frac",
                resumed as f64 / checkpointed.count().max(1) as f64,
            ),
            (
                "serve.retries_429",
                self.retries.load(Ordering::Relaxed) as f64,
            ),
            (
                "serve.queue_wait_ms_p99",
                p99_since(&queue_wait_histogram(), &before.queue_wait),
            ),
            (
                "serve.job_run_ms_p99",
                p99_since(&job_run_histogram(), &before.job_run),
            ),
            (
                "exp.solve_cache_hit_ratio",
                hit_ratio(&voltctl_exp::solve_cache_stats(), &before.solve),
            ),
            (
                "pdn.kernel_cache_hit_ratio",
                hit_ratio(&voltctl_pdn::kernel_cache_stats(), &before.kernel),
            ),
            ("host.threads_max", self.threads_max),
            ("serve.jobs_resident", resident as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    fn setup_tally(&self) -> (u64, u64) {
        self.setup_tally
    }

    fn finish(mut self: Box<Self>) {
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

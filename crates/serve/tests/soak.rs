//! Soak test: the daemon under sustained mixed load with random
//! cancellations.
//!
//! A fixed request budget is driven through a live (in-process) daemon
//! by concurrent closed-loop clients over a mixed scenario set, with a
//! fraction of jobs cancelled at random points in their lifecycle. The
//! oracles:
//!
//! - **No job lost or duplicated** — every submitted job id is unique,
//!   every accepted job reaches exactly one terminal state, and the
//!   daemon's accounting conserves: done + failed + cancelled equals
//!   the number of accepted submissions once the queue drains.
//! - **Queue depth bounded** — the high-water mark never exceeds the
//!   configured bound; overload surfaces as 429 + `Retry-After`, which
//!   clients absorb by retrying.
//! - **Byte-identity across the wire** — every completed job's report
//!   equals the byte-exact output of a fresh single-threaded
//!   `run_scenario` render (what the CLI prints), regardless of
//!   concurrency, queueing, cancel pressure, or checkpoint reuse.
//! - **Zero failures** — nothing in the mix may land in `Failed`.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use voltctl_check::Json;
use voltctl_serve::{request, spawn, ServeConfig};
use voltctl_telemetry::Rng;

/// Cheap, instant-runtime scenarios: the soak is about service
/// behaviour, not simulation depth, so each job should take
/// milliseconds in smoke mode.
const MIX: &[&str] = &[
    "fig01_itrs",
    "fig02_response",
    "fig03_narrow_spike",
    "fig04_wide_spike",
    "fig05_notched_spike",
    "fig06_resonant_train",
    "table3_thresholds",
    "ablation_grid",
    "ablation_ladder",
];

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 10;
const QUEUE_BOUND: usize = 4;

#[test]
fn soak_mixed_load_with_random_cancellations() {
    let root = std::env::temp_dir().join(format!("voltctl-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_bound: QUEUE_BOUND,
        root: root.clone(),
        read_timeout: std::time::Duration::from_secs(10),
        default_shards: 2,
    })
    .expect("daemon must start");
    let addr = handle.addr;

    // The single-threaded CLI renders every response will be compared
    // against, computed up front (also warms the process caches the
    // daemon's workers share).
    let ctx = voltctl_exp::Ctx {
        smoke: true,
        ..voltctl_exp::Ctx::default()
    };
    let expected: BTreeMap<&str, Vec<u8>> = MIX
        .iter()
        .map(|&id| {
            let scenario = voltctl_exp::find(id).expect("mix ids are registry ids");
            (
                id,
                voltctl_exp::run_scenario(scenario, &ctx, 1)
                    .report
                    .into_bytes(),
            )
        })
        .collect();

    let accepted_ids: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let retries_429 = AtomicU64::new(0);
    let cancels_sent = AtomicU64::new(0);
    let mismatches: Mutex<Vec<String>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for client in 0..CLIENTS as u64 {
            let accepted_ids = &accepted_ids;
            let retries_429 = &retries_429;
            let cancels_sent = &cancels_sent;
            let mismatches = &mismatches;
            let expected = &expected;
            scope.spawn(move || {
                for req in 0..REQUESTS_PER_CLIENT as u64 {
                    let roll = Rng::new(client * 1_000 + req).next_u64();
                    let scenario = MIX[(roll % MIX.len() as u64) as usize];
                    let body = format!("{{\"scenario\":\"{scenario}\",\"smoke\":true}}");

                    // Submit, absorbing backpressure by retrying.
                    let id = loop {
                        let resp = request(addr, "POST", "/jobs", Some(body.as_bytes()))
                            .expect("submit must not error at the socket level");
                        match resp.status {
                            202 => {
                                let json = Json::parse(&resp.text()).expect("submit body parses");
                                break json.get("id").and_then(Json::as_f64).unwrap() as u64;
                            }
                            429 => {
                                assert!(
                                    resp.header("retry-after").is_some(),
                                    "429 must carry Retry-After"
                                );
                                retries_429.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                            other => panic!("submit got {other}: {}", resp.text()),
                        }
                    };
                    accepted_ids.lock().unwrap().push(id);

                    // ~25% of jobs get a cancel at a random point.
                    let cancel = roll.is_multiple_of(4);
                    if cancel {
                        std::thread::sleep(std::time::Duration::from_millis(
                            Rng::new(roll).next_u64() % 4,
                        ));
                        let resp = request(addr, "DELETE", &format!("/jobs/{id}"), None)
                            .expect("cancel must not error");
                        assert_eq!(resp.status, 200, "cancel of a live id: {}", resp.text());
                        cancels_sent.fetch_add(1, Ordering::Relaxed);
                    }

                    // Stream to the terminal state.
                    let stream = request(addr, "GET", &format!("/jobs/{id}/stream"), None)
                        .expect("stream must not error");
                    assert_eq!(stream.status, 200);
                    let events = stream.text();
                    let terminal_events = [
                        "\"event\":\"done\"",
                        "\"event\":\"failed\"",
                        "\"event\":\"cancelled\"",
                    ]
                    .iter()
                    .filter(|marker| events.contains(*marker))
                    .count();
                    assert_eq!(terminal_events, 1, "exactly one terminal event: {events}");

                    // Completed jobs must render byte-identically to the CLI.
                    if events.contains("\"event\":\"done\"") {
                        let report = request(addr, "GET", &format!("/jobs/{id}/report"), None)
                            .expect("report fetch must not error");
                        assert_eq!(report.status, 200);
                        if report.body != expected[scenario] {
                            mismatches.lock().unwrap().push(format!(
                                "job {id} ({scenario}): {} served vs {} expected bytes",
                                report.body.len(),
                                expected[scenario].len()
                            ));
                        }
                    } else {
                        assert!(
                            !events.contains("\"event\":\"failed\""),
                            "no job in the mix may fail: {events}"
                        );
                    }
                }
            });
        }
    });

    // No duplicated ids: every 202 handed out a distinct job.
    let ids = accepted_ids.into_inner().unwrap();
    let distinct: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(distinct.len(), ids.len(), "job ids must be unique");
    assert_eq!(ids.len(), CLIENTS * REQUESTS_PER_CLIENT);

    assert_eq!(
        mismatches.into_inner().unwrap(),
        Vec::<String>::new(),
        "every served report must be byte-identical to the CLI render"
    );

    // Conservation + bounds, after the queue has fully drained (each
    // client blocked on its own jobs, so it already has).
    let stats_resp = request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(stats_resp.status, 200);
    let stats = Json::parse(&stats_resp.text()).unwrap();
    let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(get("submitted"), ids.len() as u64);
    assert_eq!(get("failed"), 0, "no failed jobs allowed");
    assert_eq!(get("queued") + get("running"), 0, "queue must drain");
    assert_eq!(
        get("done") + get("cancelled"),
        ids.len() as u64,
        "every accepted job reaches exactly one terminal state"
    );
    assert!(
        get("queue_depth_max") <= QUEUE_BOUND as u64,
        "queue depth {} exceeded bound {QUEUE_BOUND}",
        get("queue_depth_max")
    );
    // A job only lands in Cancelled because some client asked for it.
    let cancels = cancels_sent.load(Ordering::Relaxed);
    assert!(
        get("cancelled") <= cancels,
        "{} cancelled jobs from {cancels} cancel requests",
        get("cancelled")
    );
    println!(
        "soak: {} accepted, {} done, {} cancelled ({cancels} cancels sent), {} 429 retries, queue depth max {}",
        ids.len(),
        get("done"),
        get("cancelled"),
        retries_429.load(Ordering::Relaxed),
        get("queue_depth_max")
    );

    // Every job the table knows is individually consistent too.
    for &id in &ids {
        let snap = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(snap.status, 200, "job {id} must still be addressable");
        let json = Json::parse(&snap.text()).unwrap();
        let state = json
            .get("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert!(
            state == "done" || state == "cancelled",
            "job {id} ended as {state}"
        );
    }

    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

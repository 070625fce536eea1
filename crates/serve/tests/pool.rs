//! The connection handler pool and the job table's retention bound,
//! against a live daemon.
//!
//! - **Shedding**: with `HANDLERS - 1` slow connections held open, the
//!   next connection gets `503` + `Retry-After`; once the slow ones time
//!   out with 408, the daemon serves again.
//! - **Shutdown**: `join` returns promptly while every handler is
//!   blocked in `accept`, whether the stop comes from the handle or from
//!   `POST /shutdown`.
//! - **410 vs 404**: an id the retention bound evicted answers `410
//!   Gone` on every `/jobs/<id>` route; an id never issued answers 404.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use voltctl_check::Json;
use voltctl_serve::job::RETAINED_JOBS;
use voltctl_serve::server::HANDLERS;
use voltctl_serve::{request, spawn, JobSpec, ServeConfig, ServerHandle};

fn daemon(name: &str, workers: usize, queue_bound: usize, read_timeout: Duration) -> ServerHandle {
    let root = std::env::temp_dir().join(format!("voltctl-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_bound,
        root,
        read_timeout,
        default_shards: 1,
    })
    .expect("daemon must start")
}

#[test]
fn a_busy_pool_sheds_with_503_and_recovers() {
    let handle = daemon("shed", 1, 4, Duration::from_secs(3));
    let addr = handle.addr;
    let mut slow: Vec<TcpStream> = (0..HANDLERS - 1)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            s
        })
        .collect();

    // Until every slow connection has been accepted a probe is served;
    // after that it is shed.
    let deadline = Instant::now() + Duration::from_secs(2);
    let shed = loop {
        let probe = request(addr, "GET", "/healthz", None).unwrap();
        if probe.status == 503 || Instant::now() > deadline {
            break probe;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(shed.status, 503, "{}", shed.text());
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(handle.handlers_live(), HANDLERS);

    for s in &mut slow {
        let mut out = String::new();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.read_to_string(&mut out)
            .expect("the slow connection closes");
        assert!(out.starts_with("HTTP/1.1 408 "), "got: {out}");
    }
    assert_eq!(request(addr, "GET", "/healthz", None).unwrap().status, 200);
    let metrics = request(addr, "GET", "/metrics", None).unwrap().text();
    assert!(metrics.contains(&format!("voltctl_serve_handlers {HANDLERS}\n")));
    assert!(metrics.contains("voltctl_serve_connections_shed_total "));
    handle.join();
}

#[test]
fn join_returns_promptly_while_every_handler_waits_in_accept() {
    let handle = daemon("join", 2, 4, Duration::from_secs(5));
    let addr = handle.addr;
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "join took {:?}",
        started.elapsed()
    );
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener closes with the last handler"
    );

    let handle = daemon("shutdown", 2, 4, Duration::from_secs(5));
    let resp = request(handle.addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(handle.is_stopping());
    let started = Instant::now();
    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "join after POST /shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn evicted_ids_answer_410_and_unissued_ids_404() {
    const EXTRA: usize = 8;
    let handle = daemon("gone", 2, 64, Duration::from_secs(5));
    let addr = handle.addr;
    let table = handle.table();
    // Jobs for an unregistered scenario fail as soon as a worker claims
    // them: a fast way to fill the table with terminal jobs.
    let spec = JobSpec {
        scenario: "no_such_scenario".to_string(),
        ..JobSpec::default()
    };
    for _ in 0..RETAINED_JOBS + EXTRA {
        while table.submit(spec.clone()).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while table.stats().failed + (table.stats().evicted as usize) < RETAINED_JOBS + EXTRA {
        assert!(Instant::now() < deadline, "jobs did not drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = table.stats();
    assert_eq!(stats.evicted, EXTRA as u64);
    assert_eq!(stats.resident(), RETAINED_JOBS);

    let last = (RETAINED_JOBS + EXTRA) as u64;
    let status = |method: &str, path: String| request(addr, method, &path, None).unwrap().status;
    let gone: Vec<u64> = (1..=last)
        .filter(|id| match status("GET", format!("/jobs/{id}")) {
            410 => true,
            200 => false,
            other => panic!("job {id} answered {other}"),
        })
        .collect();
    assert_eq!(gone.len(), EXTRA, "evicted ids: {gone:?}");

    let never = last + 1;
    for (id, want) in [(gone[0], 410), (never, 404)] {
        for path in [
            "",
            "/report",
            "/stream",
            "/artifacts",
            "/artifacts/report.txt",
        ] {
            assert_eq!(status("GET", format!("/jobs/{id}{path}")), want, "{path}");
        }
        assert_eq!(status("DELETE", format!("/jobs/{id}")), want);
    }

    let body = request(addr, "GET", "/stats", None).unwrap().text();
    assert!(
        body.ends_with(&format!(",\"evicted\":{EXTRA}}}")),
        "evicted is appended last: {body}"
    );
    let json = Json::parse(&body).unwrap();
    let get = |k: &str| json.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(
        get("submitted"),
        get("queued")
            + get("running")
            + get("done")
            + get("failed")
            + get("cancelled")
            + get("evicted")
    );
    let metrics = request(addr, "GET", "/metrics", None).unwrap().text();
    assert!(metrics.contains(&format!("voltctl_serve_jobs_resident {RETAINED_JOBS}\n")));
    assert!(metrics.contains(&format!("voltctl_serve_jobs_evicted_total {EXTRA}\n")));
    handle.join();
}

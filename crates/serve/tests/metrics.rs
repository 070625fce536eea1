//! The observability plane, end to end against a live daemon.
//!
//! Three contracts:
//!
//! * `GET /metrics` is valid Prometheus text exposition — it parses
//!   with the same parser `voltctl-serve top` uses, and every family in
//!   [`voltctl_serve::DECLARED_FAMILIES`] appears with a `# TYPE` line.
//! * `GET /stats?verbose=1` is a byte-compatible superset of the plain
//!   `/stats` body: same leading fields, plus worker/cache/event-log
//!   extras.
//! * The request id minted at HTTP accept threads through the event
//!   log: the submit's `r{N}` id shows up on the `http.request` line
//!   and on every `job.*` line for that job, from `queued` through the
//!   terminal `done`.

use voltctl_check::Json;
use voltctl_serve::top::parse_exposition;
use voltctl_serve::{request, spawn, ServeConfig, DECLARED_FAMILIES};

#[test]
fn metrics_exposition_and_event_log_cover_a_job_lifecycle() {
    let root = std::env::temp_dir().join(format!("voltctl-serve-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle = spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_bound: 4,
        root: root.clone(),
        read_timeout: std::time::Duration::from_secs(5),
        default_shards: 1,
    })
    .expect("daemon must start");
    let addr = handle.addr;

    // Drive one job to completion so every metric family has data.
    let submit = request(
        addr,
        "POST",
        "/jobs",
        Some(br#"{"scenario":"fig01_itrs","smoke":true,"telemetry":"summary"}"#),
    )
    .unwrap();
    assert_eq!(submit.status, 202);
    let id = Json::parse(&submit.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_f64)
        .unwrap() as u64;
    let stream = request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
    assert_eq!(stream.status, 200);
    assert!(
        stream.text().lines().last().unwrap().contains("\"done\""),
        "stream must end in a terminal event"
    );

    // -- /metrics: parses, and every declared family is present. ------
    let scrape = request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(scrape.status, 200);
    assert!(
        scrape
            .headers
            .iter()
            .any(|(k, v)| k.eq_ignore_ascii_case("content-type") && v.starts_with("text/plain")),
        "metrics content type must be text exposition: {:?}",
        scrape.headers
    );
    let body = scrape.text();
    let exp = parse_exposition(&body).expect("exposition must parse");
    for family in DECLARED_FAMILIES {
        assert!(
            exp.families.contains_key(*family),
            "family {family} must carry a # TYPE line"
        );
        let present = exp.samples.iter().any(|s| {
            s.name == *family
                || s.name == format!("{family}_bucket")
                || s.name == format!("{family}_sum")
                || s.name == format!("{family}_count")
        });
        assert!(present, "family {family} has no samples:\n{body}");
    }
    // The one finished job is visible in the accumulated counters.
    assert!(exp.sum("voltctl_serve_jobs_submitted_total", |_| true) >= 1.0);
    assert!(exp.sum("voltctl_http_requests_total", |_| true) >= 2.0);
    assert!(
        exp.sum("voltctl_http_request_duration_ns_count", |s| s
            .label("route")
            == Some("/jobs"))
            >= 1.0,
        "submit latency must be attributed to the /jobs route"
    );

    // -- /stats?verbose=1 is a superset of /stats. --------------------
    let base = request(addr, "GET", "/stats", None).unwrap().text();
    let verbose = request(addr, "GET", "/stats?verbose=1", None)
        .unwrap()
        .text();
    let prefix = base.trim_end().trim_end_matches('}');
    assert!(
        verbose.starts_with(prefix),
        "verbose stats must extend the plain body byte-for-byte:\n{base}\n{verbose}"
    );
    let verbose = Json::parse(&verbose).expect("verbose stats parse");
    for key in ["workers", "workers_busy", "caches", "event_log"] {
        assert!(verbose.get(key).is_some(), "verbose stats must carry {key}");
    }
    let caches = verbose
        .get("caches")
        .expect("verbose stats must carry caches");
    let solve = caches.get("solve").expect("caches must report solve");
    for key in ["hits", "misses", "evictions", "len", "capacity"] {
        assert!(
            solve.get(key).and_then(Json::as_f64).is_some(),
            "cache solve must report numeric {key}"
        );
    }
    // No PDN kernel cache exists, so neither plane reports one.
    assert!(
        caches.get("kernel").is_none(),
        "verbose stats must not carry caches.kernel"
    );
    assert!(
        !exp.samples
            .iter()
            .any(|s| s.label("cache") == Some("kernel")),
        "/metrics must not carry a cache=\"kernel\" series:\n{body}"
    );

    // -- Request id threads from accept to terminal state. ------------
    let snap = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
    let req_id = Json::parse(&snap.text())
        .unwrap()
        .get("request_id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("snapshot must echo the originating request id");
    assert!(
        req_id.starts_with('r'),
        "HTTP-minted ids look like r1: {req_id}"
    );
    handle.join();

    let log = std::fs::read_to_string(root.join("events.jsonl")).expect("event log must exist");
    let mut seen = Vec::new();
    for line in log.lines() {
        let event = Json::parse(line)
            .unwrap_or_else(|e| panic!("event log line is not JSON ({e}): {line}"));
        if event.get("req").and_then(Json::as_str) == Some(&req_id) {
            seen.push(
                event
                    .get("event")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            );
        }
    }
    for expected in [
        "http.request",
        "job.queued",
        "job.running",
        "job.shard",
        "job.done",
    ] {
        assert!(
            seen.iter().any(|e| e == expected),
            "event log must carry {expected} for {req_id}; saw {seen:?}"
        );
    }
    // Daemon lifecycle lines land in the same log.
    for expected in ["daemon.listening", "daemon.stopped"] {
        assert!(
            log.lines().any(|l| l.contains(expected)),
            "event log must record {expected}"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

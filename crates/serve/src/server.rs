//! Connection handler pool, request routing, and the daemon's HTTP API.
//!
//! A fixed pool of [`HANDLERS`] threads serves connections (one request
//! per connection, `connection: close`). Each handler blocks in
//! `accept` on its own clone of the listener and serves what it accepts
//! inline, so there is no accept thread, no polling and no thread per
//! connection. Workers run jobs from the shared [`JobTable`]. The API:
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | GET | `/healthz` | liveness probe |
//! | GET | `/scenarios` | registry listing (id, runtime, cells, trace, title) |
//! | GET | `/stats` | queue/state counters |
//! | POST | `/jobs` | submit (JSON spec body) — 202, or 429 + `Retry-After` |
//! | GET | `/jobs/<id>` | job status |
//! | GET | `/jobs/<id>/report` | rendered report, byte-identical to the CLI |
//! | GET | `/jobs/<id>/stream` | JSONL progress events until terminal |
//! | GET | `/jobs/<id>/artifacts` | artifact file listing |
//! | GET | `/jobs/<id>/artifacts/<name>` | one artifact's bytes |
//! | DELETE | `/jobs/<id>` | cooperative cancel |
//! | POST | `/shutdown` | stop accepting, drain workers, exit |
//!
//! Every `/jobs/<id>` route answers `410 Gone` for an id the job
//! table's retention bound has evicted, and `404` for an id that was
//! never issued.
//!
//! # Bounds
//!
//! Read timeouts bound slowloris-style clients: a connection that goes
//! quiet mid-request gets a 408 and is dropped; it can never wedge the
//! daemon (the protocol fuzz suite pins this). The pool keeps its last
//! idle handler for accepting: a handler that accepts while every other
//! handler is busy answers `503` + `Retry-After` and closes, so at most
//! `HANDLERS - 1` connections are served at once and the thread count
//! is fixed at spawn. Each connection is served under `catch_unwind`,
//! so a panicking request cannot shrink the pool.
//!
//! Shutdown (`POST /shutdown` or [`ServerHandle::stop`]) sets the stop
//! flag, closes admission, and then makes one loopback connect per
//! handler. Each connect wakes a handler blocked in `accept`, and a
//! handler that accepts after the flag is set exits.
//!
//! # Observability
//!
//! Every connection is assigned a request id (`r1`, `r2`, …) at accept.
//! The id is threaded through the job table into every event a job
//! emits, recorded per-request into the metrics plane (latency by
//! normalized route, counts by route and status), and logged to the
//! structured event log at `<root>/events.jsonl`. `GET /metrics`
//! exposes the whole plane in Prometheus text format; `GET
//! /stats?verbose=1` is a JSON superset of the original `/stats` body.

use crate::event::{EventLevel, EventLog, F};
use crate::http::{parse_request, Parse, Request, Response};
use crate::job::{JobSpec, JobState, JobTable, SubmitError};
use crate::runner::{worker_loop, RunnerConfig};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use voltctl_check::json::escape;
use voltctl_exp::{find, listing, Ctx};

/// Process-wide request id counter: ids stay unique even when tests run
/// several daemons in one process.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> String {
    format!("r{}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// Connection handler threads per daemon, fixed at spawn. One is always
/// kept free to accept, so at most `HANDLERS - 1` connections are
/// served at once and the rest are shed with `503`.
pub const HANDLERS: usize = 16;

/// How long a shed connection is drained after its 503, so that closing
/// it does not reset a client that is still sending its request.
const SHED_DRAIN: Duration = Duration::from_millis(100);

/// Back-off after a failed `accept` (a connection reset before it was
/// accepted, descriptor exhaustion), so a persistent error cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7643`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queued-job bound; submissions beyond it get 429.
    pub queue_bound: usize,
    /// State root for artifacts and checkpoints.
    pub root: PathBuf,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Default checkpoint shard count for specs that leave it unset.
    pub default_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7643".to_string(),
            workers: 2,
            queue_bound: 64,
            root: std::env::temp_dir().join("voltctl-serve"),
            read_timeout: Duration::from_secs(5),
            default_shards: 4,
        }
    }
}

/// What every connection handler shares.
#[derive(Debug)]
struct Shared {
    table: Arc<JobTable>,
    stop: AtomicBool,
    /// Handlers holding a connection, serving or shedding it.
    busy: AtomicUsize,
    read_timeout: Duration,
    /// Where a loopback connect reaches the listener.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Sets the stop flag and closes admission, then wakes every handler
    /// blocked in `accept` with one loopback connect each. Only the
    /// first call does anything.
    fn request_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.table.shutdown();
        for _ in 0..HANDLERS {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running daemon: its bound address plus the handles needed to stop
/// it and join its threads.
#[derive(Debug)]
pub struct ServerHandle {
    /// The actual bound address (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    handlers: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared job table (tests observe stats through it).
    pub fn table(&self) -> &Arc<JobTable> {
        &self.shared.table
    }

    /// The daemon's structured event log (file sink at
    /// `<root>/events.jsonl` when it could be opened).
    pub fn log(&self) -> &Arc<EventLog> {
        self.shared.table.log()
    }

    /// True once `POST /shutdown` (or [`stop`](ServerHandle::stop)) has
    /// been seen.
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Connection handler threads still running: [`HANDLERS`] until
    /// shutdown.
    pub fn handlers_live(&self) -> usize {
        self.handlers.iter().filter(|h| !h.is_finished()).count()
    }

    /// Requests shutdown without waiting: no new connections are
    /// served and no new jobs admitted.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Stops the daemon and joins every thread. Connections being
    /// served finish (a stream ends when its job does). Workers claim
    /// what is still queued until the queue is empty, run it, then exit.
    pub fn join(mut self) {
        self.stop();
        for thread in self.handlers.drain(..).chain(self.workers.drain(..)) {
            let _ = thread.join();
        }
        self.log().emit(EventLevel::Info, "daemon.stopped", &[]);
    }
}

/// Binds, spawns [`HANDLERS`] connection handlers and `workers` worker
/// threads, and returns immediately.
///
/// # Errors
///
/// Propagates bind and listener-clone failures.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let listeners = (0..HANDLERS)
        .map(|_| listener.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    drop(listener);
    std::fs::create_dir_all(&cfg.root)?;

    let log = Arc::new(EventLog::open(&cfg.root));
    let table = Arc::new(JobTable::with_log(cfg.queue_bound, Arc::clone(&log)));
    let metrics = crate::metrics::global();
    metrics.workers.set(cfg.workers.max(1) as i64);
    metrics.handlers.set(HANDLERS as i64);
    log.emit(
        EventLevel::Info,
        "daemon.listening",
        &[
            ("addr", F::s(addr.to_string())),
            ("workers", F::U(cfg.workers.max(1) as u64)),
            ("handlers", F::U(HANDLERS as u64)),
            ("queue_bound", F::U(cfg.queue_bound as u64)),
            ("root", F::s(cfg.root.display().to_string())),
        ],
    );
    let runner_cfg = Arc::new(RunnerConfig {
        root: cfg.root.clone(),
        default_shards: cfg.default_shards.max(1),
    });

    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let table = Arc::clone(&table);
            let runner_cfg = Arc::clone(&runner_cfg);
            std::thread::spawn(move || worker_loop(table, runner_cfg))
        })
        .collect();

    // A wildcard bind is reachable on loopback.
    let wake_ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let shared = Arc::new(Shared {
        table,
        stop: AtomicBool::new(false),
        busy: AtomicUsize::new(0),
        read_timeout: cfg.read_timeout,
        wake_addr: SocketAddr::new(wake_ip, addr.port()),
    });
    let handlers = listeners
        .into_iter()
        .map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || handler_loop(&listener, &shared))
        })
        .collect();

    Ok(ServerHandle {
        addr,
        shared,
        handlers,
        workers,
    })
}

/// One pool thread: accept, then serve (or shed) that connection
/// inline, until the stop flag is seen.
fn handler_loop(listener: &TcpListener, shared: &Shared) {
    let metrics = crate::metrics::global();
    while !shared.stopping() {
        let accepted = listener.accept();
        if shared.stopping() {
            return;
        }
        let Ok((stream, _peer)) = accepted else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let busy = shared.busy.fetch_add(1, Ordering::SeqCst) + 1;
        metrics.handlers_busy.add(1);
        if busy >= HANDLERS {
            shed(stream, shared);
        } else if catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared))).is_err() {
            shared
                .table
                .log()
                .emit(EventLevel::Error, "http.handler_panicked", &[]);
        }
        metrics.handlers_busy.add(-1);
        shared.busy.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `503` + `Retry-After` for a connection that arrived while every other
/// handler was busy. The request is not read; what the client sent is
/// drained for at most [`SHED_DRAIN`] after the response.
fn shed(mut stream: TcpStream, shared: &Shared) {
    crate::metrics::global().connections_shed.inc();
    let _ = stream.set_write_timeout(Some(SHED_DRAIN));
    let _ = retry_later(503, "every connection handler is busy; retry later").write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(SHED_DRAIN));
    let deadline = Instant::now() + SHED_DRAIN;
    let mut sink = [0u8; 4096];
    while Instant::now() < deadline && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    shared.table.log().emit(EventLevel::Debug, "http.shed", &[]);
}

/// An error response asking the client to come back in a second.
fn retry_later(status: u16, detail: &str) -> Response {
    let mut resp = Response::error(status, detail);
    resp.headers.push(("retry-after".into(), "1".into()));
    resp
}

/// Reads one request (incrementally, bounded, with timeout), routes it,
/// writes one response, closes. Every outcome — including parse errors
/// and timeouts — lands in the request metrics and the event log.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let table = &shared.table;
    let started = Instant::now();
    let request_id = next_request_id();
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let request = loop {
        match parse_request(&buf) {
            Ok(Parse::Complete(req, _consumed)) => break req,
            Ok(Parse::Incomplete) => {}
            Err(e) => {
                let _ = Response::error(e.status(), &e.detail()).write_to(&mut stream);
                return record_request(table, &request_id, "-", "other", e.status(), started);
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    let _ =
                        Response::error(400, "connection closed mid-request").write_to(&mut stream);
                    record_request(table, &request_id, "-", "other", 400, started);
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let _ = Response::error(408, "request not completed in time").write_to(&mut stream);
                return record_request(table, &request_id, "-", "other", 408, started);
            }
            Err(_) => return,
        }
    };
    let route_name = crate::metrics::route_label(&request.target);
    let status = route(&request, &mut stream, shared, &request_id);
    record_request(
        table,
        &request_id,
        &request.method,
        route_name,
        status,
        started,
    );
}

/// One stop for the per-request boundary instrumentation: the
/// (route, status) counter, the latency histogram, and the `Debug`
/// event-log line carrying the request id.
fn record_request(
    table: &Arc<JobTable>,
    request_id: &str,
    method: &str,
    route: &'static str,
    status: u16,
    started: Instant,
) {
    let elapsed = started.elapsed();
    crate::metrics::global().record_request(route, status, elapsed);
    table.log().emit(
        EventLevel::Debug,
        "http.request",
        &[
            ("req", F::s(request_id)),
            ("method", F::s(method)),
            ("route", F::s(route)),
            ("status", F::U(status as u64)),
            ("duration_ns", F::U(elapsed.as_nanos() as u64)),
        ],
    );
}

/// Splits `/jobs/<id>[/rest]` into the id and the remaining path.
fn job_path(target: &str) -> Option<(u64, &str)> {
    let rest = target.strip_prefix("/jobs/")?;
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, tail),
        None => (rest, ""),
    };
    id.parse().ok().map(|id| (id, tail))
}

/// The answer for a job id that is not resident: `410 Gone` once the
/// retention bound has evicted it, `404` for an id never issued.
fn absent(table: &JobTable, id: u64) -> Response {
    if table.was_issued(id) {
        Response::error(410, "job was evicted by the retention bound")
    } else {
        Response::error(404, "no such job")
    }
}

/// Routes one parsed request, writes the response, and returns the
/// status code that went over the wire.
fn route(req: &Request, stream: &mut TcpStream, shared: &Shared, request_id: &str) -> u16 {
    let table = &shared.table;
    let (path, query) = match req.target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (req.target.as_str(), ""),
    };
    let response = match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/scenarios") => scenarios_response(),
        ("GET", "/stats") => stats_response(table, query),
        ("GET", "/metrics") => metrics_response(table),
        ("POST", "/jobs") => submit(req, table, request_id),
        ("POST", "/shutdown") => {
            shared.request_stop();
            table.log().emit(
                EventLevel::Info,
                "daemon.shutdown_requested",
                &[("req", F::s(request_id))],
            );
            Response::json(200, "{\"shutdown\":true}".into())
        }
        (method, target) if target.starts_with("/jobs/") => {
            let Some((id, tail)) = job_path(target) else {
                return finish(stream, Response::error(400, "job id is not an integer"));
            };
            match (method, tail) {
                ("GET", "") => match table.snapshot(id) {
                    Some(snap) => Response::json(200, snap.to_json()),
                    None => absent(table, id),
                },
                ("DELETE", "") => match table.cancel(id) {
                    Some(before) => Response::json(
                        200,
                        format!("{{\"id\":{id},\"was\":\"{}\"}}", before.name()),
                    ),
                    None => absent(table, id),
                },
                ("GET", "report") => match table.snapshot(id) {
                    None => absent(table, id),
                    Some(snap) => match table.report(id) {
                        Some(report) => Response {
                            status: 200,
                            content_type: "text/plain; charset=utf-8",
                            headers: Vec::new(),
                            body: report,
                        },
                        // Evicted between the two lookups.
                        None if snap.state == JobState::Done => absent(table, id),
                        None => Response::error(
                            409,
                            &format!("job is {}, report not available", snap.state.name()),
                        ),
                    },
                },
                ("GET", "stream") => return stream_events(stream, table, id),
                ("GET", "artifacts") => artifact_listing(table, id),
                ("GET", name) if name.starts_with("artifacts/") => {
                    artifact_body(table, id, &name["artifacts/".len()..])
                }
                ("GET" | "DELETE", _) => Response::error(404, "no such endpoint"),
                _ => Response::error(405, "method not allowed"),
            }
        }
        // Drives the pool's panic isolation in the unit tests.
        #[cfg(test)]
        ("GET", "/test/panic") => panic!("injected connection handler panic"),
        ("GET" | "POST" | "DELETE" | "HEAD" | "PUT" | "PATCH" | "OPTIONS", _) => {
            Response::error(404, "no such endpoint")
        }
        _ => Response::error(405, "method not allowed"),
    };
    finish(stream, response)
}

fn finish(stream: &mut TcpStream, response: Response) -> u16 {
    let status = response.status;
    let _ = response.write_to(stream);
    status
}

fn scenarios_response() -> Response {
    let rows = listing(&Ctx::default());
    let mut body = String::from("{\"scenarios\":[");
    for (i, [id, runtime, cells, trace, title]) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"runtime\":{},\"cells\":{},\"trace\":{},\"title\":{}}}",
            escape(id),
            escape(runtime),
            cells,
            trace == "yes",
            escape(title)
        ));
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// `GET /stats`: the original compact body, or — with `verbose=1` in
/// the query — a superset that starts with the same fields byte-for-
/// byte and appends worker, cache, and event-log detail.
fn stats_response(table: &Arc<JobTable>, query: &str) -> Response {
    let base = table.stats().to_json();
    let verbose = query.split('&').any(|kv| kv == "verbose=1");
    if !verbose {
        return Response::json(200, base);
    }
    let metrics = crate::metrics::global();
    let solve = voltctl_exp::solve_cache_stats();
    let log_path = match table.log().path() {
        Some(p) => escape(&p.display().to_string()),
        None => "null".to_string(),
    };
    let mut body = base;
    body.pop(); // replace the closing brace with the verbose tail
    body.push_str(&format!(
        ",\"workers\":{},\"workers_busy\":{},\"caches\":{{\"solve\":\
         {{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{},\"capacity\":{}}}}},\
         \"event_log\":{}}}",
        metrics.workers.get(),
        metrics.workers_busy.get(),
        solve.hits,
        solve.misses,
        solve.evictions,
        solve.len,
        solve.capacity,
        log_path
    ));
    Response::json(200, body)
}

/// `GET /metrics`: the full plane in Prometheus text exposition format.
fn metrics_response(table: &Arc<JobTable>) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        headers: Vec::new(),
        body: crate::metrics::render_metrics(&table.stats()).into_bytes(),
    }
}

fn submit(req: &Request, table: &Arc<JobTable>, request_id: &str) -> Response {
    let spec = match JobSpec::from_json_body(&req.body) {
        Ok(spec) => spec,
        Err(reason) => return Response::error(400, &reason),
    };
    if find(&spec.scenario).is_none() {
        return Response::error(
            400,
            &format!(
                "unknown scenario {:?}; GET /scenarios lists valid ids",
                spec.scenario
            ),
        );
    }
    match table.submit_with_request(spec, Some(request_id)) {
        Ok(id) => Response::json(202, format!("{{\"id\":{id},\"state\":\"queued\"}}")),
        Err(SubmitError::QueueFull) => retry_later(429, "job queue is full; retry later"),
        Err(SubmitError::ShuttingDown) => Response::error(409, "daemon is shutting down"),
    }
}

/// Streams JSONL progress events until the job is terminal and all
/// events are flushed. The response has no `content-length`; the
/// connection close delimits the stream (`connection: close` is already
/// the daemon-wide contract).
fn stream_events(stream: &mut TcpStream, table: &Arc<JobTable>, id: u64) -> u16 {
    if table.snapshot(id).is_none() {
        return finish(stream, absent(table, id));
    }
    let head = "HTTP/1.1 200 OK\r\ncontent-type: application/jsonl\r\nconnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return 200;
    }
    let mut from = 0;
    loop {
        // `None`: the job was evicted mid-stream; the close ends it.
        let Some((events, terminal)) = table.wait_events(id, from, Duration::from_millis(250))
        else {
            return 200;
        };
        for event in &events {
            if stream
                .write_all(event.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                return 200; // Client went away; the job keeps running.
            }
        }
        let _ = stream.flush();
        from += events.len();
        if terminal {
            return 200;
        }
    }
}

fn artifact_listing(table: &Arc<JobTable>, id: u64) -> Response {
    let Some(snap) = table.snapshot(id) else {
        return absent(table, id);
    };
    let mut names: Vec<String> = Vec::new();
    if let Some(dir) = snap.artifact_dir {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                    names.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
    }
    names.sort();
    let listed: Vec<String> = names.iter().map(|n| escape(n)).collect();
    Response::json(
        200,
        format!("{{\"id\":{id},\"artifacts\":[{}]}}", listed.join(",")),
    )
}

fn artifact_body(table: &Arc<JobTable>, id: u64, name: &str) -> Response {
    if name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..") {
        return Response::error(400, "artifact name must be a plain file name");
    }
    let Some(snap) = table.snapshot(id) else {
        return absent(table, id);
    };
    let Some(dir) = snap.artifact_dir else {
        return Response::error(404, "job has no artifacts yet");
    };
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => Response {
            status: 200,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body: bytes,
        },
        Err(_) => Response::error(404, "no such artifact"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request;

    #[test]
    fn handler_panics_and_a_poisoned_table_leave_the_pool_whole() {
        let root = std::env::temp_dir().join(format!("voltctl-serve-panic-{}", std::process::id()));
        let handle = spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_bound: 4,
            root: root.clone(),
            read_timeout: Duration::from_secs(5),
            default_shards: 1,
        })
        .expect("daemon must start");
        let addr = handle.addr;
        handle.table().poison();

        // One more panic than there are handlers: were a panic to end
        // its thread, nothing would be left to accept.
        for _ in 0..=HANDLERS {
            assert!(
                request(addr, "GET", "/test/panic", None).is_err(),
                "a panicking handler closes without a response"
            );
        }
        assert_eq!(request(addr, "GET", "/healthz", None).unwrap().status, 200);
        assert_eq!(handle.handlers_live(), HANDLERS);

        // The poisoned table still admits, runs and streams a job.
        let submit = request(
            addr,
            "POST",
            "/jobs",
            Some(br#"{"scenario":"fig01_itrs","smoke":true}"#),
        )
        .unwrap();
        assert_eq!(submit.status, 202, "{}", submit.text());
        let stream = request(addr, "GET", "/jobs/1/stream", None).unwrap();
        assert!(stream.text().contains("\"event\":\"done\""));
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }
}

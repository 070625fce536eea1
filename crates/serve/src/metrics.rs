//! The daemon's live metrics plane: registry handles, route
//! normalization, and the `GET /metrics` exposition assembly.
//!
//! Two kinds of series end up in the exposition:
//!
//! * **Accumulated** — counters and histograms updated as requests and
//!   jobs flow (`voltctl_http_*`, queue-wait / run-duration histograms,
//!   worker and connection-handler gauges, shed connections). These live in the process-wide
//!   [`Registry`](voltctl_telemetry::registry::Registry); handles are
//!   resolved at request/shard boundaries, never inside the simulation
//!   hot path — the bench ratio gate (`serve_vs_batch_ratio ≥ 0.9`)
//!   pins that the instrumentation stays out of the measured loops.
//! * **Scrape-derived** — values that already have a single source of
//!   truth and are merely *read* at scrape time: queue depth, job
//!   state counts, resident and evicted jobs from the
//!   [`JobTable`](crate::job::JobTable), and
//!   hit/miss/eviction stats from the process-wide `voltctl-exp`
//!   threshold-solve memo. Deriving them at scrape keeps the job table
//!   the sole owner of queue accounting (no drift between `/stats` and
//!   `/metrics`).
//!
//! Label cardinality is bounded by construction: routes are normalized
//! to the fixed template set in [`route_label`] before labeling, status
//! codes come from the daemon's finite status vocabulary, and cache /
//! state labels are compile-time constants. CI gates on the total
//! series count staying small.

use crate::job::Stats;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Duration;
use voltctl_telemetry::registry::{Counter, Gauge, Histogram, Registry};

/// Every metric family `GET /metrics` declares, in exposition order.
/// The integration test and the CI smoke gate assert each is present.
pub const DECLARED_FAMILIES: &[&str] = &[
    "voltctl_cache_capacity",
    "voltctl_cache_entries",
    "voltctl_cache_evictions_total",
    "voltctl_cache_hits_total",
    "voltctl_cache_misses_total",
    "voltctl_http_request_duration_ns",
    "voltctl_http_requests_total",
    "voltctl_serve_connections_shed_total",
    "voltctl_serve_handlers",
    "voltctl_serve_handlers_busy",
    "voltctl_serve_job_run_ns",
    "voltctl_serve_jobs",
    "voltctl_serve_jobs_evicted_total",
    "voltctl_serve_jobs_finished_total",
    "voltctl_serve_jobs_resident",
    "voltctl_serve_jobs_submitted_total",
    "voltctl_serve_queue_bound",
    "voltctl_serve_queue_depth",
    "voltctl_serve_queue_depth_max",
    "voltctl_serve_queue_wait_ns",
    "voltctl_serve_workers",
    "voltctl_serve_workers_busy",
];

/// Normalizes a request target to one of a fixed set of route
/// templates, so route labels cannot grow with client-chosen ids or
/// artifact names.
pub fn route_label(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/healthz" => "/healthz",
        "/scenarios" => "/scenarios",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        "/jobs" => "/jobs",
        "/shutdown" => "/shutdown",
        _ if path.starts_with("/jobs/") => {
            let tail = &path["/jobs/".len()..];
            match tail.split_once('/').map(|(_, rest)| rest) {
                None => "/jobs/{id}",
                Some("report") => "/jobs/{id}/report",
                Some("stream") => "/jobs/{id}/stream",
                Some("artifacts") => "/jobs/{id}/artifacts",
                Some(rest) if rest.starts_with("artifacts/") => "/jobs/{id}/artifacts/{name}",
                Some(_) => "other",
            }
        }
        _ => "other",
    }
}

/// Pre-resolved handles for the accumulated series. One instance per
/// process ([`global`]); the registry behind it is
/// [`Registry::global`], so tests scraping a private daemon still see
/// the same families.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: &'static Registry,
    /// Submit-to-claim wait per job.
    pub queue_wait_ns: Arc<Histogram>,
    /// Configured worker threads (set at spawn).
    pub workers: Arc<Gauge>,
    /// Workers currently executing a job.
    pub workers_busy: Arc<Gauge>,
    /// Connection handler threads (set at spawn).
    pub handlers: Arc<Gauge>,
    /// Handlers currently holding a connection.
    pub handlers_busy: Arc<Gauge>,
    /// Connections answered `503` because every other handler was busy.
    pub connections_shed: Arc<Counter>,
}

/// The process-wide serve metrics handles.
pub fn global() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ServeMetrics {
            registry,
            queue_wait_ns: registry.histogram(
                "voltctl_serve_queue_wait_ns",
                "Nanoseconds jobs spent queued before a worker claimed them",
                &[],
            ),
            workers: registry.gauge(
                "voltctl_serve_workers",
                "Configured job worker threads",
                &[],
            ),
            workers_busy: registry.gauge(
                "voltctl_serve_workers_busy",
                "Worker threads currently executing a job",
                &[],
            ),
            handlers: registry.gauge(
                "voltctl_serve_handlers",
                "Connection handler threads, fixed at spawn",
                &[],
            ),
            handlers_busy: registry.gauge(
                "voltctl_serve_handlers_busy",
                "Connection handler threads currently holding a connection",
                &[],
            ),
            connections_shed: registry.counter(
                "voltctl_serve_connections_shed_total",
                "Connections answered 503 because every other handler was busy",
                &[],
            ),
        }
    })
}

impl ServeMetrics {
    /// Records one served HTTP request: count by (route, status) and
    /// latency by route. Called once per connection, after the response
    /// is written.
    pub fn record_request(&self, route: &'static str, status: u16, elapsed: Duration) {
        let status = format!("{status}");
        self.registry
            .counter(
                "voltctl_http_requests_total",
                "HTTP requests served, by normalized route and status",
                &[("route", route), ("status", &status)],
            )
            .inc();
        self.registry
            .histogram(
                "voltctl_http_request_duration_ns",
                "HTTP request service time in nanoseconds, by normalized route",
                &[("route", route)],
            )
            .observe(elapsed.as_nanos() as u64);
    }

    /// Records a job reaching a terminal state: outcome counter plus
    /// run-duration histogram (claim to terminal).
    pub fn record_job_finished(&self, state: &'static str, ran_for: Duration) {
        self.registry
            .counter(
                "voltctl_serve_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome",
                &[("state", state)],
            )
            .inc();
        self.registry
            .histogram(
                "voltctl_serve_job_run_ns",
                "Nanoseconds from claim to terminal state, by outcome",
                &[("state", state)],
            )
            .observe(ran_for.as_nanos() as u64);
    }
}

/// Renders the scrape-derived families: queue/job-state gauges from the
/// job table's [`Stats`] and hit/miss/eviction counters for the
/// threshold-solve memo, labelled `cache="solve"`.
pub fn render_scrape_derived(stats: &Stats) -> String {
    let mut out = String::new();
    out.push_str("# HELP voltctl_serve_queue_depth Jobs currently queued\n");
    out.push_str("# TYPE voltctl_serve_queue_depth gauge\n");
    out.push_str(&format!("voltctl_serve_queue_depth {}\n", stats.queued));
    out.push_str("# HELP voltctl_serve_queue_depth_max High-water mark of queue depth\n");
    out.push_str("# TYPE voltctl_serve_queue_depth_max gauge\n");
    out.push_str(&format!(
        "voltctl_serve_queue_depth_max {}\n",
        stats.queue_depth_max
    ));
    out.push_str("# HELP voltctl_serve_queue_bound Queued-job admission bound\n");
    out.push_str("# TYPE voltctl_serve_queue_bound gauge\n");
    out.push_str(&format!(
        "voltctl_serve_queue_bound {}\n",
        stats.queue_bound
    ));
    out.push_str("# HELP voltctl_serve_jobs_submitted_total Jobs admitted since startup\n");
    out.push_str("# TYPE voltctl_serve_jobs_submitted_total counter\n");
    out.push_str(&format!(
        "voltctl_serve_jobs_submitted_total {}\n",
        stats.submitted
    ));
    out.push_str("# HELP voltctl_serve_jobs_resident Jobs the table holds, in any state\n");
    out.push_str("# TYPE voltctl_serve_jobs_resident gauge\n");
    out.push_str(&format!(
        "voltctl_serve_jobs_resident {}\n",
        stats.resident()
    ));
    out.push_str(
        "# HELP voltctl_serve_jobs_evicted_total Terminal jobs removed by the retention bound\n",
    );
    out.push_str("# TYPE voltctl_serve_jobs_evicted_total counter\n");
    out.push_str(&format!(
        "voltctl_serve_jobs_evicted_total {}\n",
        stats.evicted
    ));
    out.push_str("# HELP voltctl_serve_jobs Jobs currently in each lifecycle state\n");
    out.push_str("# TYPE voltctl_serve_jobs gauge\n");
    for (state, count) in [
        ("queued", stats.queued),
        ("running", stats.running),
        ("done", stats.done),
        ("failed", stats.failed),
        ("cancelled", stats.cancelled),
    ] {
        out.push_str(&format!(
            "voltctl_serve_jobs{{state=\"{state}\"}} {count}\n"
        ));
    }

    let solve = voltctl_exp::solve_cache_stats();
    for (family, kind, help, value) in [
        (
            "voltctl_cache_hits_total",
            "counter",
            "Cache lookups that found a resident entry",
            solve.hits,
        ),
        (
            "voltctl_cache_misses_total",
            "counter",
            "Cache lookups that had to derive",
            solve.misses,
        ),
        (
            "voltctl_cache_evictions_total",
            "counter",
            "Entries dropped at the shard bound",
            solve.evictions,
        ),
        (
            "voltctl_cache_entries",
            "gauge",
            "Resident entries",
            solve.len as u64,
        ),
        (
            "voltctl_cache_capacity",
            "gauge",
            "Maximum resident entries",
            solve.capacity as u64,
        ),
    ] {
        out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
        out.push_str(&format!("{family}{{cache=\"solve\"}} {value}\n"));
    }
    out
}

/// Assembles the full `GET /metrics` body: registry families first
/// (sorted by name), then the scrape-derived block.
pub fn render_metrics(stats: &Stats) -> String {
    // Touch the pre-registered handles so every declared accumulated
    // family exists even before the first request/job lands on it.
    let _ = global();
    let mut body = Registry::global().render_prometheus();
    body.push_str(&render_scrape_derived(stats));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobTable;

    #[test]
    fn route_labels_are_a_fixed_set() {
        assert_eq!(route_label("/healthz"), "/healthz");
        assert_eq!(route_label("/stats?verbose=1"), "/stats");
        assert_eq!(route_label("/jobs"), "/jobs");
        assert_eq!(route_label("/jobs/17"), "/jobs/{id}");
        assert_eq!(route_label("/jobs/17/report"), "/jobs/{id}/report");
        assert_eq!(route_label("/jobs/17/stream"), "/jobs/{id}/stream");
        assert_eq!(route_label("/jobs/17/artifacts"), "/jobs/{id}/artifacts");
        assert_eq!(
            route_label("/jobs/17/artifacts/report.txt"),
            "/jobs/{id}/artifacts/{name}"
        );
        assert_eq!(route_label("/jobs/17/bogus"), "other");
        assert_eq!(route_label("/anything-else"), "other");
        assert_eq!(route_label("/shutdown"), "/shutdown");
    }

    #[test]
    fn metrics_body_declares_every_family() {
        global().record_request("/healthz", 200, Duration::from_micros(5));
        global().record_job_finished("done", Duration::from_millis(1));
        global().queue_wait_ns.observe(100);
        let table = JobTable::new(4);
        let body = render_metrics(&table.stats());
        for family in DECLARED_FAMILIES {
            assert!(
                body.contains(&format!("# TYPE {family} ")),
                "family {family} missing from exposition:\n{body}"
            );
        }
    }
}

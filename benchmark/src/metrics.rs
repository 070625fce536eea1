//! The benchmark's metric declarations — the single source that
//! `BENCHMARK.json` mirrors (a test keeps the two in step) — and the
//! run-record format every `run` writes and `compare` reads.

use crate::stats::Better;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named measurements of one workload.
pub type Values = BTreeMap<String, f64>;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique across both lists.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees, reported by every workload. A
/// workload's requests are the units its user waits on: one program run
/// (`loop`), one scenario run (`sweep`, `suite`), one HTTP job (`serve`).
///
/// The time bounds are the widest the benchmark format allows (0.25).
/// On the shared 2-vCPU reference host, phases of a minute or more slow
/// every workload together. Ten-run spreads of unchanged code were
/// 0.5–5% in quiet windows but 10–64% in slow ones, where a 0.10 bound
/// would fail unchanged code (see the README).
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("wall_s", "s", Lower, Some(0.25)),
        metric("requests_per_s", "1/s", Higher, Some(0.25)),
        metric("latency_p50_ms", "ms", Lower, Some(0.25)),
        metric("latency_p98_ms", "ms", Lower, Some(0.25)),
        metric("peak_rss_mb", "MiB", Lower, Some(0.20)),
    ]
}

/// The `loop` programs, in reference order.
pub const LOOP_PROGRAMS: [&str; 4] = ["stressmark", "gcc", "mcf", "swim"];

/// Per-cycle host time of the `ControlLoop` sub-steps a traced `loop`
/// run times, in step order. With the residual (monitor, histogram,
/// energy and the loop itself) they sum to the untraced total,
/// `core.ns_per_cycle`.
pub const LOOP_SPANS: [&str; 4] = [
    "cpu.step_ns",
    "power.cycle_power_ns",
    "pdn.step_ns",
    "core.control_ns",
];

/// Single-layer metrics, from the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for layer in LOOP_SPANS
        .into_iter()
        .chain(["core.residual_ns", "core.ns_per_cycle"])
    {
        out.push(metric(layer, "ns", Lower, None));
        for program in LOOP_PROGRAMS {
            out.push(metric(&format!("{layer}.{program}"), "ns", Lower, None));
        }
    }
    out.push(metric("cpu.committed", "count", Higher, None));
    for program in LOOP_PROGRAMS {
        out.push(metric(
            &format!("cpu.ipc.{program}"),
            "inst/cycle",
            Higher,
            None,
        ));
    }
    for (name, unit, better) in [
        ("core.interventions", "count", Lower),
        ("pdn.emergency_cycles", "count", Lower),
        ("core.lane_step_s", "s", Lower),
        ("core.lane_gather_s", "s", Lower),
        ("core.lane_scatter_s", "s", Lower),
        ("exp.grid_s", "s", Lower),
        ("exp.cell_ms_p50", "ms", Lower),
        ("exp.cell_ms_max", "ms", Lower),
        ("exp.merge_ms", "ms", Lower),
        ("exp.render_ms", "ms", Lower),
        ("exp.harness.calibrate_s", "s", Lower),
        ("exp.harness.tune_s", "s", Lower),
        ("exp.harness.solve_s", "s", Lower),
        ("cpu.trace_record_ns", "ns", Lower),
        ("pdn.replay_ns", "ns", Lower),
        ("pdn.replay_hist_ns", "ns", Lower),
        ("exp.solve_cache_misses_timed", "count", Lower),
        ("pdn.kernel_cache_misses_timed", "count", Lower),
        ("host.cpu_s", "s", Lower),
        ("host.utilization", "fraction", Higher),
        ("serve.submit_ms_p50", "ms", Lower),
        ("serve.stream_ms_p50", "ms", Lower),
        ("serve.stream_ms_p99", "ms", Lower),
        ("serve.report_ms_p50", "ms", Lower),
        ("serve.overhead_ms_p50", "ms", Lower),
        ("serve.queue_wait_ms_p99", "ms", Lower),
        ("serve.job_run_ms_p99", "ms", Lower),
        ("serve.fresh_ms_p50", "ms", Lower),
        ("serve.checkpointed_ms_p50", "ms", Lower),
        ("serve.resumed_frac", "fraction", Higher),
        ("serve.retries_429", "count", Lower),
        ("exp.solve_cache_hit_ratio", "fraction", Higher),
        ("pdn.kernel_cache_hit_ratio", "fraction", Higher),
        ("host.threads_max", "count", Lower),
        ("serve.jobs_resident", "count", Lower),
        ("trace.overhead_frac", "fraction", Lower),
    ] {
        out.push(metric(name, unit, better, None));
    }
    out
}

/// A finished workload measurement, as printed and written to
/// `<out>/<workload>.json`.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested per timed phase.
    pub seconds: f64,
    /// Whether this is a traced (per-layer) record.
    pub trace: bool,
    /// Whether this is a smoke-size record.
    pub smoke: bool,
    /// Requests attempted across the run.
    pub attempted: u64,
    /// Requests whose output differed from the reference, or that failed.
    pub failed: u64,
    /// Reported metrics, in declaration order.
    pub metrics: Vec<(Metric, f64)>,
}

/// Formats a finite number for JSON with every digit Rust's shortest
/// round-trip formatting gives. Values pass [`check_finite`] first.
pub fn json_number(v: f64) -> String {
    debug_assert!(v.is_finite(), "{v} has no JSON spelling");
    format!("{v}")
}

/// Fails on the first NaN or infinity among `values`. Neither has a JSON
/// spelling, and either means a bug upstream (a 0/0 ratio, an empty
/// timer), so a run that measures one fails instead of reporting it.
pub fn check_finite<'a>(values: impl IntoIterator<Item = (&'a str, f64)>) -> Result<(), String> {
    match values.into_iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(format!("{name} measured {v}")),
        None => Ok(()),
    }
}

/// `{"name":{"value":v,"unit":"u"},…}` for a metric list.
pub fn metrics_json(metrics: &[(Metric, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (m, v)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(*v),
            m.unit
        );
    }
    s.push('}');
    s
}

impl Record {
    /// The record as one JSON object (the file format `compare` reads).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
             \"attempted\":{},\"failed\":{},\"host\":{{\"nproc\":{},\"cpu\":{}}},\"metrics\":{}}}\n",
            self.workload,
            self.seed,
            json_number(self.seconds),
            u8::from(self.trace),
            self.smoke,
            self.attempted,
            self.failed,
            crate::host::nproc(),
            voltctl_check::json::escape(&crate::host::cpu_model()),
            metrics_json(&self.metrics)
        )
    }

    /// `workload metric value unit` lines for the terminal.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for (m, v) in &self.metrics {
            let _ = writeln!(
                s,
                "{} {} {} {}",
                self.workload,
                m.name,
                json_number(*v),
                m.unit
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_check::Json;

    type Row = (String, String, String, Option<f64>);

    fn declared(spec: &Json, key: &str) -> Vec<Row> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn rows(metrics: Vec<Metric>) -> Vec<Row> {
        metrics
            .into_iter()
            .map(|m| {
                (
                    m.name,
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&spec, "end_to_end"), rows(end_to_end()));
        assert_eq!(declared(&spec, "per_layer"), rows(per_layer()));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn non_finite_values_are_refused() {
        assert!(check_finite([("a", 1.0), ("b", 0.0)]).is_ok());
        let err = check_finite([("a", 1.0), ("ratio", f64::NAN)]).unwrap_err();
        assert!(err.starts_with("ratio"), "{err}");
        assert!(check_finite([("t", f64::INFINITY)]).is_err());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(all.len() <= 16 + 128);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
        for m in &all {
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(end_to_end().iter().all(|m| m.bound.unwrap() <= 0.25));
        let setup = &end_to_end()[0];
        assert_eq!(setup.name, "setup_s");
        assert!(end_to_end().iter().all(|m| m.bound <= setup.bound));
    }
}

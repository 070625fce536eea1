//! Zero-dependency observability for the voltctl simulator.
//!
//! Every experiment binary re-runs the closed loop of
//! `voltctl_core::loopsim` millions of cycles at a time; this crate is the
//! shared instrumentation substrate that makes those runs inspectable
//! without perturbing them:
//!
//! * [`Recorder`] — the event/metric sink trait threaded through the
//!   simulation layers. The hot path is written against a generic
//!   `R: Recorder`; the default [`NullRecorder`] has `ENABLED == false`
//!   and empty inlineable methods, so instrumented code monomorphizes to
//!   nothing when telemetry is off.
//! * [`MemoryRecorder`] — the in-memory aggregator: typed counters,
//!   value statistics, wall-clock timers, and fixed-bin histograms keyed
//!   by static metric names.
//! * [`LinearHistogram`] — the fixed-range histogram of simulation
//!   samples (Figure 10's voltage distributions).
//! * [`Snapshot`] + [`export`] — a plain-data view of a recorder and
//!   structured writers for it: JSONL, CSV, and a human-readable
//!   end-of-run summary.
//! * [`registry`] — the *live* metrics plane: striped atomic counters,
//!   gauges, and log-linear histograms behind a labeled registry with
//!   Prometheus text exposition. Per-run simulation metrics belong in
//!   [`MemoryRecorder`]; continuously-scraped service health (request
//!   latencies, queue depth, cache hit rates) belongs here.
//! * [`rng`] — a deterministic SplitMix64 generator. The build
//!   environment has no registry access, so this replaces the `rand`
//!   crate everywhere (sensor noise, workload shuffling, property-style
//!   tests).
//! * [`stopwatch`] — wall-clock spans and a tiny micro-benchmark harness
//!   used by `voltctl-exp bench`.
//!
//! # Example
//!
//! ```
//! use voltctl_telemetry::{MemoryRecorder, Recorder};
//!
//! let mut rec = MemoryRecorder::new();
//! rec.counter("loop.cycles", 100);
//! rec.counter("loop.cycles", 20);
//! rec.value("loop.voltage", 0.98);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("loop.cycles"), Some(120));
//! let jsonl = voltctl_telemetry::export::to_jsonl(&snap);
//! assert!(jsonl.lines().count() >= 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collector;
pub mod export;
pub mod intern;
pub mod linear;
pub mod memory;
pub mod recorder;
pub mod registry;
pub mod rng;
pub mod snapshot;
pub mod stopwatch;

pub use collector::Collector;
pub use linear::LinearHistogram;
pub use memory::MemoryRecorder;
pub use recorder::{Level, MetricId, NullRecorder, Recorder};
pub use rng::Rng;
pub use snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot, TimerSnapshot, ValueSnapshot};
pub use stopwatch::Stopwatch;

/// Emits a warning on stderr in the telemetry event format.
///
/// This is the crate's diagnostic channel of last resort: layers that hold
/// no [`Recorder`] (e.g. environment parsing before any loop exists) still
/// get a uniform, grep-able `voltctl[warn] topic: message` line.
pub fn warn(topic: &str, message: &str) {
    eprintln!("voltctl[warn] {topic}: {message}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn warn_does_not_panic() {
        super::warn("test", "message");
    }
}

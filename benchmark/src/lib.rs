//! `voltctl-benchmark`: the repository's benchmark. Four workloads
//! (`loop`, `sweep`, `suite`, `serve`) exercise the per-cycle simulator,
//! the lane executor, trace replay and the HTTP daemon; each run reports
//! end-to-end metrics (or, traced, per-layer ones) and checks every
//! output against committed references. See `benchmark/README.md`.

pub mod compare;
pub mod host;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod stats;
pub mod workload;

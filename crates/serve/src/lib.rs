//! `voltctl-serve`: the simulation engine as a long-running service.
//!
//! The paper's control loops are meant to run continuously on live
//! processors; this crate is the repo's step from "batch CLI" to
//! "serves traffic". It wraps the `voltctl-exp` engine in a hand-rolled
//! HTTP/1.1 + JSONL daemon (std only — `std::net::TcpListener`, no
//! framework) with:
//!
//! - a bounded job queue with backpressure (`429` + `Retry-After`),
//! - cooperative cancellation at checkpoint-shard boundaries,
//! - crash-safe jobs through the shard checkpoint container (a killed
//!   daemon resumes a resubmitted job from its surviving shards),
//! - JSONL progress streaming and artifact retrieval per job, and
//! - a closed-loop load-generator client (`voltctl-serve bench`) that
//!   measures service overhead against the in-process batch engine and
//!   emits `BENCH_serve.json`.
//!
//! The determinism contract extends across the wire: a job's report
//! bytes are identical to the equivalent `voltctl-exp run` invocation,
//! because the daemon executes jobs through the very same scenario
//! driver, `voltctl_exp::run_sharded`.

pub mod bench;
pub mod client;
pub mod event;
pub mod http;
pub mod job;
pub mod metrics;
pub mod runner;
pub mod server;
pub mod top;

pub use bench::{run_bench, BenchOpts, BenchReport};
pub use client::{request, HttpResponse};
pub use event::{EventLevel, EventLog, F};
pub use http::{parse_request, HttpError, Parse, Request, Response};
pub use job::{Claimed, JobSpec, JobState, JobTable, Stats, SubmitError};
pub use metrics::{route_label, ServeMetrics, DECLARED_FAMILIES};
pub use server::{spawn, ServeConfig, ServerHandle};
pub use top::{run_top, TopOpts};

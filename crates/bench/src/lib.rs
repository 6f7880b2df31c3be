//! # grs-bench — experiment harness
//!
//! Library backing the `repro` binary and the Criterion benches: the sweep
//! service ([`service`]) — a process-wide job queue with content-hash
//! memoization, in-flight dedup, and a worker pool — its batch client
//! ([`runner`]), plus one function per paper table/figure
//! ([`experiments`]). Each experiment prints the same rows/series the paper
//! reports so that EXPERIMENTS.md can record paper-vs-measured side by side.

pub mod experiments;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod sweep;
pub mod trace;

pub use runner::{run_all, run_all_report, Job, JobResult};
pub use service::{
    job_key, ConfigHash, JobHandle, JobOutcome, JobSource, ServiceConfig, SweepService,
};

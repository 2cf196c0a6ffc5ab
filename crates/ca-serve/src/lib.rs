//! `ca-serve` — a persistent multi-tenant factorization service.
//!
//! The one-shot entry points in `ca-core` spawn a worker pool, run a single
//! CALU/CAQR task graph, and tear the pool down. That is the right shape for
//! a benchmark, and the wrong one for a long-lived process answering many
//! factorization requests: pool churn and per-request setup dominate small
//! problems, and unrelated requests serialize.
//!
//! [`Service`] owns one worker pool for the process lifetime and executes
//! many factorization/solve jobs *concurrently* by merging their task graphs
//! into a shared ready-queue (`ca_sched::MultiFrontier`):
//!
//! - each job keeps its own DAG edges and the paper's lookahead priority
//!   order internally, while across jobs the one with the earliest virtual
//!   finish goes first (its admission clock plus its flops over its weight,
//!   weighted fair queueing at job granularity): a short job overtakes a
//!   long one it would finish before under exact weighted sharing;
//! - admission is bounded ([`ServiceConfig::queue_capacity`]) with a choice
//!   of [`AdmissionPolicy`]: reject, block, or shed the oldest queued job;
//! - per-job deadlines cancel expired jobs at dispatch points, reusing the
//!   scheduler's transitive-successor cancellation;
//! - a tiny factorization (≤ [`BatchConfig::max_dim`]) is submitted at once
//!   like any other job, but as a single task on the sequential kernels:
//!   it skips the DAG's per-task scheduling cost, not the queue, so it
//!   keeps its id, weight, deadline, tenant and `cancel()`;
//! - every job outcome, latency sample, rejection and recovery count is
//!   stored once, in the service's metric registry;
//!   [`Service::stats`] (per-job latency, throughput, occupancy,
//!   shed/reject/deadline counters) and [`Service::metrics_snapshot`] (the
//!   Prometheus/JSON exposition) are views computed from it when read, and
//!   [`Service::chrome_trace`] reuses the existing chrome-trace pipeline;
//! - an optional recovery ladder ([`Retry`], `ca-core`'s served jobs), run
//!   inside each job: task-level replay from write-set snapshots, then a
//!   random-vector integrity probe of the factors and whole-plan replays
//!   from the job's input, which give the same bits; factors still corrupt
//!   after the last replay are [`ServeError::Corrupted`]. The service adds
//!   only admission, weights and deadlines around it. A seeded
//!   [`ChaosConfig`] drill injects failures/panics/corruption for testing.
//!
//! ```
//! use ca_serve::{Service, ServiceConfig, SubmitOptions};
//!
//! let svc = Service::new(ServiceConfig::new(2));
//! let a = ca_matrix::random_uniform(64, 64, &mut ca_matrix::seeded_rng(1));
//! let handle = svc.submit_lu(a, SubmitOptions::default()).unwrap();
//! let factors = handle.wait().unwrap();
//! assert_eq!(factors.lu.nrows(), 64);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod config;
mod metrics;
mod service;
mod stats;

pub use config::{
    AdmissionPolicy, BatchConfig, ChaosConfig, ServiceConfig, SubmitOptions, TelemetryConfig,
};
pub use service::{JobHandle, Service};
pub use stats::{LatencySummary, ServeError, ServiceStats};

// Frontier types that surface through the service API.
pub use ca_sched::{CancelReason, ChaosProfile, JobId, RecoveryStats, Retry, RetryPolicy};
// Telemetry types that surface through [`Service::metrics_snapshot`].
pub use ca_telemetry::{RegistrySnapshot, SeriesValue};

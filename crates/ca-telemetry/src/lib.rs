//! Always-on telemetry primitives for the ca-factor workspace.
//!
//! The serve tier (and the schedulers underneath it) need live numbers, not
//! only post-mortem profiles: counters and latency histograms that are cheap
//! enough to update on every task dispatch, plus bounded event buffers that
//! retain the last moments before a failure. This crate provides the
//! domain-neutral pieces:
//!
//! - [`Counter`] / [`Gauge`] — single atomic cells updated with `Relaxed`
//!   ordering; an increment is one `fetch_add` with no locks.
//! - [`Histogram`] — a fixed-bucket log-scale histogram (the same shape as
//!   the PR-2 `LatencyStats` dispatch histogram) whose buckets are atomics,
//!   so concurrent `observe` calls never contend on a lock. Quantiles are
//!   estimated from the bucket counts at snapshot time.
//! - [`Registry`] — a named collection of metric families with label
//!   dimensions (tenant, job class, …). Registration takes a lock once;
//!   the returned `Arc` handles are then updated lock-free on hot paths.
//!   Snapshots render as Prometheus text format or JSON. A registry is
//!   meant to be the *only* store of what it counts: instruments that must
//!   live elsewhere (process globals, per-run counter sets) are shared
//!   `Arc` handles the registry *adopts* ([`Registry::adopt_counter`]) and
//!   reads live, and aggregate views ([`HistogramSnapshot::merge`]) are
//!   computed from snapshots — nothing is copied between counters.
//! - [`Ring`] — a bounded FIFO used for per-worker flight recorders; when
//!   full, the oldest entry is dropped and counted.
//! - [`write_atomic`] — write-to-temp + atomic rename so snapshot readers
//!   never observe a partially written file.
//!
//! Domain-specific instrumentation (scheduler counters, the flight-recorder
//! event vocabulary, per-tenant serve metrics) lives in `ca-sched::telemetry`
//! and `ca-serve::metrics`; this crate knows nothing about task graphs.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod expose;
mod metrics;
mod registry;
mod ring;

pub use expose::write_atomic;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, LATENCY_BOUNDS};
pub use registry::{
    FamilySnapshot, MetricKind, Registry, RegistrySnapshot, SeriesSnapshot, SeriesValue,
};
pub use ring::Ring;

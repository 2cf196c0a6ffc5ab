//! Service configuration: worker pool size, admission control, the tiny-job route.

use ca_core::{CaParams, Retry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// What happens when a submission arrives while the service is already at
/// [`ServiceConfig::queue_capacity`] active jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail the submission immediately with [`crate::ServeError::Rejected`].
    Reject,
    /// Block the submitting thread until capacity frees up (or the service
    /// shuts down).
    Block,
    /// Evict the oldest job that has not started running yet (it finalizes
    /// as cancelled-shed) to make room; if every active job is already
    /// running, fall back to rejecting the new submission.
    ShedOldest,
}

/// The tiny-job route: a factorization whose larger dimension is at most
/// [`BatchConfig::max_dim`] is built as a one-task graph running the
/// sequential kernels (`calu_seq_factor` / `caqr_seq`) instead of the full
/// DAG, whose per-task scheduling cost would dominate it. It is submitted
/// at once, as an ordinary job: same admission, weight, deadline, tenant
/// series, cancellation and profile as any other, and bitwise the same
/// factors. Nothing is coalesced: the `batch` names are kept because the
/// benchmark harness compiles against them.
///
/// [`crate::SubmitOptions::unbatched`] opts a request out, and a service
/// with retry or chaos configured keeps every job on the DAG route.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Run factorizations whose larger dimension is ≤ this as one
    /// sequential task (the paper-scale heuristic is the panel width `b`).
    pub max_dim: usize,
}

impl BatchConfig {
    /// The tiny-job route at the given size threshold.
    pub fn up_to(max_dim: usize) -> Self {
        Self { max_dim }
    }
}

/// Chaos-drill configuration: every submitted graph is built under a seeded
/// [`ca_sched::ChaosPlan`] injecting failures, panics, delays, and silent
/// corruption at the profile's per-task rates. Each job draws a distinct
/// seed derived from [`ChaosConfig::seed`], so a drill is reproducible per
/// submission order.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Base seed for per-job plan derivation.
    pub seed: u64,
    /// Injection rates (defaults to [`ca_sched::ChaosProfile::default`]:
    /// 1% fail, 0.5% panic, 0.1% corrupt).
    pub profile: ca_sched::ChaosProfile,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { seed: 0xC0FFEE, profile: ca_sched::ChaosProfile::default() }
    }
}

impl ChaosConfig {
    /// Default profile under an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Overrides the injection profile.
    pub fn with_profile(mut self, profile: ca_sched::ChaosProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// What a [`crate::Service`] does with its telemetry beyond keeping it: an
/// optional periodic exposition thread that writes Prometheus-text and JSON
/// snapshots to a file via atomic rename, an optional per-worker flight
/// recorder, and where its failure dumps go.
///
/// The metric registry itself is not configurable: every service owns one
/// (it is where job outcomes and latencies are stored;
/// [`crate::Service::stats`] and [`crate::Service::metrics_snapshot`] read
/// it), and its hot-path updates are single relaxed atomic operations (the
/// benchmark reports the cost of everything this config adds as
/// `ca-telemetry.overhead_frac`).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Write periodic snapshots to this file (Prometheus text format; a
    /// sibling `<file>.json` carries the same snapshot as JSON). `None`
    /// keeps the registry in-memory only ([`crate::Service::metrics_snapshot`]).
    pub metrics_file: Option<PathBuf>,
    /// Snapshot-thread period when `metrics_file` is set.
    pub interval: Duration,
    /// Per-worker flight recorder depth (events retained per lane);
    /// `None` disables the recorder and failure dumps.
    pub flight_recorder: Option<usize>,
    /// Directory for flight-recorder failure dumps; defaults to the
    /// `metrics_file` parent (or the current directory).
    pub dump_dir: Option<PathBuf>,
    /// Cap on flight-dump files written over the service lifetime; further
    /// triggers only increment the `ca_serve_flight_dumps_suppressed_total`
    /// counter. Keeps a shed-storm from filling the disk.
    pub max_dumps: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            metrics_file: None,
            interval: Duration::from_millis(500),
            flight_recorder: Some(256),
            dump_dir: None,
            max_dumps: 8,
        }
    }
}

impl TelemetryConfig {
    /// Periodic Prometheus/JSON exposition to `path`.
    pub fn with_metrics_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_file = Some(path.into());
        self
    }

    /// Sets the exposition period.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the per-worker flight-recorder depth (`0` disables).
    pub fn with_flight_recorder(mut self, depth: usize) -> Self {
        self.flight_recorder = (depth > 0).then_some(depth);
        self
    }

    /// Sets the flight-dump directory.
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dump_dir = Some(dir.into());
        self
    }

    /// Caps the number of flight-dump files written.
    pub fn with_max_dumps(mut self, n: usize) -> Self {
        self.max_dumps = n;
        self
    }
}

/// Configuration for a [`crate::Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads owned by the service for its whole lifetime.
    pub workers: usize,
    /// Maximum admitted-but-unfinished jobs (the bounded queue; `0` admits
    /// one at a time, like `1`).
    pub queue_capacity: usize,
    /// Behavior at capacity.
    pub admission: AdmissionPolicy,
    /// The one-task route for tiny factorizations; `None` sends every job
    /// down the DAG route.
    pub batch: Option<BatchConfig>,
    /// Default factorization parameters (per-submission override via
    /// [`crate::SubmitOptions::params`]). The `threads` field is ignored —
    /// parallelism comes from the service's worker pool.
    pub params: CaParams,
    /// Deadline applied to submissions that don't set their own.
    pub default_deadline: Option<Duration>,
    /// The recovery ladder of every job ([`ca_sched::Retry`]): task replay
    /// from write-set snapshots, then an integrity probe of the factors and
    /// up to [`Retry::replays`] whole-plan replays, all inside the job.
    /// `None` replays and probes nothing. A one-task job has no write sets to
    /// replay from, so the tiny-job route is not taken while this is set.
    pub retry: Option<Retry>,
    /// Chaos drill; `None` (production) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Periodic metrics exposition, flight recorder and failure dumps.
    /// `None` runs none of them; the metrics registry exists either way.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_capacity: 64,
            admission: AdmissionPolicy::Block,
            batch: None,
            params: CaParams::new(64, 4, 1),
            default_deadline: None,
            retry: None,
            chaos: None,
            telemetry: None,
        }
    }
}

impl ServiceConfig {
    /// Config with an explicit worker count.
    pub fn new(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }

    /// Sets the bounded-queue capacity.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_capacity = cap;
        self
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Enables the tiny-job route (see [`BatchConfig`]).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Sets the default factorization parameters.
    pub fn with_params(mut self, params: CaParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the default per-job deadline.
    pub fn with_default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    /// Enables the recovery ladder.
    pub fn with_retry(mut self, retry: Retry) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Enables the chaos drill.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enables the exposition file, flight recorder and failure dumps.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Per-submission options.
#[derive(Clone, Debug)]
pub struct SubmitOptions {
    /// Weight (> 0): divides the job's virtual length, its summed flops,
    /// so that among concurrent jobs it counts as finishing sooner and is
    /// served earlier.
    pub weight: f64,
    /// Deadline for this job (queue + execution); overrides
    /// [`ServiceConfig::default_deadline`].
    pub deadline: Option<std::time::Duration>,
    /// Factorization parameters override.
    pub params: Option<CaParams>,
    /// Allow this request to take the tiny-job route when eligible.
    pub batchable: bool,
    /// Tenant attribution: this job's submit/outcome counters and latency
    /// histograms are labeled `tenant="…"` in the exposed metrics
    /// (unlabeled submissions aggregate under `tenant=""`).
    pub tenant: Option<Arc<str>>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self { weight: 1.0, deadline: None, params: None, batchable: true, tenant: None }
    }
}

impl SubmitOptions {
    /// Sets the weight (see [`SubmitOptions::weight`]).
    pub fn with_weight(mut self, w: f64) -> Self {
        assert!(w > 0.0 && w.is_finite(), "weight must be positive");
        self.weight = w;
        self
    }

    /// Sets the deadline.
    pub fn with_deadline(mut self, d: std::time::Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Overrides the factorization parameters.
    pub fn with_params(mut self, p: CaParams) -> Self {
        self.params = Some(p);
        self
    }

    /// Keeps this request on the DAG route whatever its size.
    pub fn unbatched(mut self) -> Self {
        self.batchable = false;
        self
    }

    /// Attributes this job to a tenant in the exposed metrics.
    pub fn with_tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

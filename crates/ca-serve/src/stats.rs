//! Service-level observability: the statistics view, latency summaries, errors.

use ca_core::FactorError;
use ca_sched::CancelReason;

/// Why a service request did not produce a result.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control refused the job (queue full under `Reject`, or
    /// nothing sheddable under `ShedOldest`).
    Rejected,
    /// The service is shutting down.
    ShuttingDown,
    /// The job's deadline expired — while queued or mid-execution (a
    /// replay included: it runs inside the job).
    DeadlineExceeded,
    /// The job was evicted by the shed-oldest admission policy to make
    /// room for a newer submission.
    Shed,
    /// The job was cancelled before completing (user cancel or shutdown;
    /// deadline and shed have their own variants).
    Cancelled(CancelReason),
    /// The integrity probe found the job's factors silently corrupted, and
    /// no whole-plan replay left gave clean ones.
    Corrupted {
        /// The scaled probe residual.
        residual: f64,
        /// The threshold it was compared against.
        threshold: f64,
    },
    /// A task of the job failed (numerical breakdown, panic, …).
    Failed {
        /// Label of the failing task.
        label: String,
        /// Failure description.
        message: String,
    },
    /// The request was invalid before any work was scheduled.
    Invalid(FactorError),
    /// [`crate::SubmitOptions::weight`] is not a positive finite number
    /// (carries the offending value). Refused before admission: nothing is
    /// counted and no queue slot is claimed. `cafactor serve` never sets a
    /// weight; like every unlisted variant it would exit 1.
    InvalidWeight(f64),
    /// The matrices of a solve or least-squares request do not fit together
    /// (carries what is wrong); refused before admission like a bad weight.
    InvalidShape(&'static str),
    /// Internal error: the job completed but its output slot is empty.
    Lost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected => write!(f, "rejected: service at capacity"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
            ServeError::DeadlineExceeded => write!(f, "job missed its deadline"),
            ServeError::Shed => write!(f, "job shed: evicted at capacity"),
            ServeError::Cancelled(r) => write!(f, "job cancelled: {r}"),
            ServeError::Corrupted { residual, threshold } => write!(
                f,
                "job result corrupted: probe residual {residual:.2e} exceeds {threshold:.2e}"
            ),
            ServeError::Failed { label, message } => {
                write!(f, "job failed at task {label}: {message}")
            }
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::InvalidWeight(w) => {
                write!(f, "invalid options: weight must be positive and finite, got {w}")
            }
            ServeError::InvalidShape(why) => write!(f, "invalid request: {why}"),
            ServeError::Lost => write!(f, "internal: job output missing"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Summary of one latency distribution (seconds): the telemetry
/// histogram's own summary, under the name the serve tier knows it by.
pub use ca_telemetry::HistogramSummary as LatencySummary;

/// Point-in-time snapshot of the service ([`crate::Service::stats`]): a
/// read-time view computed from the service's registry series (label-summed
/// per-`(tenant, class)` counters and histograms), never stored itself.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Worker threads.
    pub workers: usize,
    /// Bounded-queue capacity (max admitted-but-unfinished jobs).
    pub queue_capacity: usize,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs that failed: a task failure or numerical breakdown, or factors
    /// still corrupted when the replays ran out.
    pub failed: u64,
    /// Jobs cancelled for any reason (user, deadline, shed, shutdown).
    pub cancelled: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs evicted by the shed-oldest policy.
    pub shed: u64,
    /// Jobs cancelled because their deadline expired.
    pub deadline_missed: u64,
    /// Jobs that took the tiny-job route (one sequential task, no DAG).
    pub batched_jobs: u64,
    /// Jobs that completed after at least one whole-plan replay.
    pub jobs_recovered: u64,
    /// Every finished job's recovery counts, summed (attempts, task
    /// replays, restores, chaos injections, probes and their hits, and
    /// whole-plan replays — a probe hit, or a task out of replays, factors
    /// the input again).
    pub task_recovery: ca_sched::RecoveryStats,
    /// Jobs admitted and not yet finished at snapshot time.
    pub active_jobs: usize,
    /// Seconds since the service started.
    pub elapsed_s: f64,
    /// Cumulative seconds workers spent executing task bodies.
    pub busy_s: f64,
    /// `busy_s / (elapsed_s · workers)` — pool utilization in `[0, 1]`.
    pub occupancy: f64,
    /// Completed jobs per second of service lifetime.
    pub jobs_per_s: f64,
    /// Time from admission to first task dispatch.
    pub queue_latency: LatencySummary,
    /// Time from first dispatch to finalization.
    pub exec_latency: LatencySummary,
    /// Time from admission to finalization.
    pub total_latency: LatencySummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        // Samples in milliseconds: count/mean/max are exact; percentiles
        // are histogram-bucket estimates, so assert they land in the right
        // bucket neighborhoods and stay ordered.
        let h = ca_telemetry::Histogram::new(ca_telemetry::LATENCY_BOUNDS);
        for i in 1..=100 {
            h.observe(i as f64 * 1e-3);
        }
        let s: LatencySummary = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 50.5e-3).abs() < 1e-12, "mean is exact: {}", s.mean_s);
        assert_eq!(s.max_s, 0.1, "max is exact");
        assert!(s.p50_s >= 0.025 && s.p50_s <= 0.1, "p50 estimate {} off", s.p50_s);
        assert!(s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.max_s);
        let empty = ca_telemetry::Histogram::new(ca_telemetry::LATENCY_BOUNDS).summary();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max_s, 0.0);
    }

    #[test]
    fn serve_error_display() {
        assert!(ServeError::Rejected.to_string().contains("capacity"));
        assert!(ServeError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ServeError::Shed.to_string().contains("shed"));
        assert!(ServeError::Cancelled(CancelReason::Shutdown).to_string().contains("cancelled"));
        let e = ServeError::Corrupted { residual: 1.0, threshold: 1e-10 };
        assert!(e.to_string().contains("corrupted"));
        let e = ServeError::Failed { label: "P[0]".into(), message: "boom".into() };
        assert!(e.to_string().contains("P[0]") && e.to_string().contains("boom"));
    }
}

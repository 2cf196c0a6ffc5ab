//! The factorization service: one persistent worker pool, many tenants.

use crate::config::{AdmissionPolicy, ServiceConfig, SubmitOptions};
use crate::metrics::ServeMetrics;
use crate::stats::{ServeError, ServiceStats};
use ca_core::{
    calu_serve_graph, calu_solve_serve_graph, caqr_lstsq_serve_graph, caqr_serve_graph, Built,
    CaParams, FactorError, FactorOptions, LuFactors, QrFactors,
};
use ca_matrix::Matrix;
use ca_sched::{
    CancelReason, ChaosPlan, JobId, JobOptions, JobOutcome, JobReport, JobWatch, MultiFrontier,
    PanicHookGuard, Profile,
};
use ca_telemetry::Ring;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Cap on retained recovery-mark events (chrome-trace annotations).
const MAX_MARKS: usize = 4096;

/// Handle to a submitted job: poll, wait (with or without timeout), cancel.
///
/// Dropping a handle detaches it — the job keeps running, recovers and is
/// counted all the same (use [`JobHandle::cancel`] first to abort it).
pub struct JobHandle<T> {
    core: Arc<ServiceCore>,
    id: JobId,
    watch: JobWatch,
    output: Arc<OnceLock<Result<T, FactorError>>>,
}

impl<T> JobHandle<T> {
    /// The frontier job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// `true` once the job reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.watch.is_done()
    }

    /// Requests cancellation: undispatched tasks are dropped, in-flight
    /// tasks finish, the job finalizes as cancelled. Returns `false` if the
    /// job already finished or was cancelled, or if every task it has left
    /// is already running: a cancel that would drop nothing comes too late,
    /// and the job completes.
    pub fn cancel(&self) -> bool {
        self.core.frontier.cancel(self.id)
    }

    /// Where the time went for this job: blocks until it finishes, then
    /// returns the scheduler's [`Profile`] of it (job → panel step → task →
    /// kernel class, times counted from submission) — the same answer a
    /// one-shot `try_calu_profiled` gives, plus the sink task, which is
    /// where the integrity probe and any whole-plan replay ran. Every job has
    /// one, however it ended and without having been asked in advance. What
    /// the profile needs is held by this handle, so ask before
    /// [`JobHandle::wait`] consumes it.
    pub fn profile(&self) -> Option<Profile> {
        self.watch.wait();
        self.core.frontier.job_profile(&self.watch)
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(self) -> Result<T, ServeError> {
        let report = self.watch.wait();
        self.settle(report)
    }

    /// Waits up to `timeout`; returns the handle back if the job is still
    /// running.
    pub fn wait_for(self, timeout: Duration) -> Result<Result<T, ServeError>, Self> {
        match self.watch.wait_timeout(timeout) {
            Some(report) => Ok(self.settle(report)),
            None => Err(self),
        }
    }

    /// Maps a terminal report to the job's result. The job settled itself —
    /// probed and, if need be, replayed its factors — in its last task, and
    /// the completion hook already counted how it ended.
    fn settle(self, report: JobReport) -> Result<T, ServeError> {
        let output = Arc::try_unwrap(self.output).ok().and_then(OnceLock::into_inner);
        match (report.outcome, output) {
            (JobOutcome::Completed, Some(Ok(value))) => Ok(value),
            (JobOutcome::Completed, _) => Err(ServeError::Lost),
            (JobOutcome::Failed(_), Some(Err(FactorError::Corrupted { residual, threshold }))) => {
                Err(ServeError::Corrupted { residual, threshold })
            }
            (JobOutcome::Failed(e), _) => {
                Err(ServeError::Failed { label: e.label.to_string(), message: e.message })
            }
            (JobOutcome::Cancelled(reason), _) => Err(match reason {
                CancelReason::Deadline => ServeError::DeadlineExceeded,
                CancelReason::Shed => ServeError::Shed,
                other => ServeError::Cancelled(other),
            }),
        }
    }
}

/// Shared service state; the frontier's completion hook holds a `Weak` to
/// it (broken cycle), every handle an `Arc`.
pub(crate) struct ServiceCore {
    cfg: ServiceConfig,
    pub(crate) frontier: MultiFrontier,
    /// Admitted-but-unfinished jobs (the bounded queue).
    admission: Mutex<usize>,
    admission_cv: Condvar,
    /// The one store of every job-level fact; [`ServiceStats`] and the
    /// exposition are views of it.
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    /// Monotone counter deriving a distinct chaos seed per built graph.
    chaos_jobs: AtomicU64,
    /// Recent recovery events `(seconds since the frontier started,
    /// description)`: the instant marks of [`Service::chrome_trace`].
    marks: Ring<(f64, String)>,
    /// Exposition-thread gate: set true (and notified) on shutdown.
    metrics_gate: Mutex<bool>,
    metrics_cv: Condvar,
}

impl ServiceCore {
    /// Completion hook: runs on a worker (or shedding/submitting) thread
    /// for every finalized job, with no frontier lock held. Each fact —
    /// the outcome, the latencies, the recovery the job's log folds to — is
    /// written once, to the series the job's tag names
    /// ([`crate::metrics::TenantSeries::index`], echoed verbatim in the
    /// report, so attribution needs no side table that submitter and hook
    /// would race on), and the job's admission slot is released.
    fn on_job_done(&self, r: &JobReport) {
        let series = self.metrics.series_at(r.tag as u32);
        let recovery = &r.recovery;
        let mut trigger = match &r.outcome {
            JobOutcome::Completed => {
                series.completed.inc();
                if recovery.replays > 0 {
                    self.metrics.jobs_recovered.inc();
                }
                None
            }
            JobOutcome::Failed(_) => {
                series.failed.inc();
                Some("job-fail")
            }
            JobOutcome::Cancelled(reason) => {
                series.cancelled.inc();
                match reason {
                    CancelReason::Deadline => {
                        series.deadline_missed.inc();
                        Some("deadline")
                    }
                    CancelReason::Shed => {
                        series.shed.inc();
                        Some("shed")
                    }
                    _ => None,
                }
            }
        };
        series.queue_s.observe(r.queue_seconds());
        series.exec_s.observe(r.exec_seconds());
        series.total_s.observe(r.total_seconds());
        if r.flops > 0.0 {
            series.flops.add(r.flops);
        }
        series.corruption_detected.add(recovery.probe_failures);
        series.retries.add(recovery.replays);
        self.metrics.add_recovery(recovery);
        if recovery.probe_failures + recovery.replays > 0 {
            let (hits, replays) = (recovery.probe_failures, recovery.replays);
            self.marks.push((
                r.finished,
                format!("job {}: {hits} probe hit(s), {replays} replay(s)", r.job),
            ));
        }
        if recovery.probe_failures > 0 {
            trigger = Some("probe-corrupt");
        }
        if let Some(trigger) = trigger {
            if let Some(rec) = self.frontier.flight_recorder() {
                self.metrics.dump_flight(&rec, trigger);
            }
        }
        self.release_one();
    }

    /// Claims one admission slot, applying the configured policy at
    /// capacity. On success the slot is released by the completion hook
    /// when the job finalizes.
    fn admit(&self) -> Result<(), ServeError> {
        let mut active = self.admission.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            if *active < self.cfg.queue_capacity.max(1) {
                *active += 1;
                return Ok(());
            }
            match self.cfg.admission {
                AdmissionPolicy::Reject => {
                    self.metrics.rejected.inc();
                    return Err(ServeError::Rejected);
                }
                AdmissionPolicy::Block => self.admission_cv.wait(&mut active),
                AdmissionPolicy::ShedOldest => {
                    // Shed without the admission lock: the shed job
                    // finalizes synchronously, re-entering the hook (which
                    // takes this lock to free the victim's slot).
                    drop(active);
                    if self.frontier.shed_oldest_queued().is_none() {
                        self.metrics.rejected.inc();
                        return Err(ServeError::Rejected);
                    }
                    active = self.admission.lock();
                }
            }
        }
    }

    /// How the tasks of one graph build run: the configured recovery ladder,
    /// and a chaos plan under a fresh seed per job.
    fn options(&self) -> FactorOptions {
        let chaos = self.cfg.chaos.map(|c| {
            let k = self.chaos_jobs.fetch_add(1, Ordering::Relaxed);
            let seed = c.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Arc::new(ChaosPlan::with_profile(seed, c.profile))
        });
        FactorOptions { chaos, retry: self.cfg.retry, checked: false }
    }

    /// Returns one admission slot: its job finalized, or its submission
    /// failed after `admit`.
    fn release_one(&self) {
        {
            let mut active = self.admission.lock();
            *active = active.saturating_sub(1);
        }
        self.admission_cv.notify_all();
    }

    /// Point-in-time service statistics (see [`Service::stats`]): computed
    /// from the registry series and the frontier's task log, nothing is
    /// stored for it.
    fn stats_snapshot(&self) -> ServiceStats {
        let elapsed = self.frontier.elapsed_seconds();
        let busy = self.frontier.busy_seconds();
        let workers = self.cfg.workers;
        let mut s = ServiceStats {
            workers,
            queue_capacity: self.cfg.queue_capacity,
            active_jobs: *self.admission.lock(),
            elapsed_s: elapsed,
            busy_s: busy,
            occupancy: if elapsed > 0.0 { busy / (elapsed * workers as f64) } else { 0.0 },
            ..ServiceStats::default()
        };
        self.metrics.fill(&mut s);
        s.jobs_per_s = if elapsed > 0.0 { s.completed as f64 / elapsed } else { 0.0 };
        s
    }

    /// The exposition view (see [`Service::metrics_snapshot`]).
    fn exposition(&self) -> ca_telemetry::RegistrySnapshot {
        self.metrics.snapshot(&self.stats_snapshot())
    }

    /// Exposition-thread body: write the snapshot files every `interval`
    /// until shutdown, then once more on the way out, so short-lived runs
    /// still leave a complete file behind.
    fn exposition_loop(&self, path: &std::path::Path, interval: Duration) {
        let mut stopping = false;
        loop {
            if let Err(e) = crate::metrics::write_snapshot(path, &self.exposition()) {
                eprintln!("ca-serve: cannot write metrics snapshot {}: {e}", path.display());
            }
            if stopping {
                return;
            }
            let mut stop = self.metrics_gate.lock();
            if !*stop {
                self.metrics_cv.wait_for(&mut stop, interval);
            }
            stopping = *stop;
        }
    }
}

/// A persistent multi-tenant factorization service.
///
/// One worker pool lives for the service's lifetime; every submission
/// becomes a job on the shared [`MultiFrontier`], which preserves each
/// job's DAG dependencies and the paper's lookahead priorities *within* a
/// job and serves the job with the earliest virtual finish *across* jobs
/// (see [`SubmitOptions::weight`]). Admission is
/// bounded ([`ServiceConfig::queue_capacity`]); a factorization too small
/// to split runs as a one-task job ([`ServiceConfig::batch`]).
pub struct Service {
    core: Arc<ServiceCore>,
    /// Periodic metrics-exposition thread, when telemetry writes to a file.
    exposer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Keeps the guarded-panic-hook filter installed for the service
    /// lifetime when recovery/chaos is configured, instead of churning the
    /// process hook on every task replay.
    _hook_guard: Option<PanicHookGuard>,
}

impl Service {
    /// Starts the service: spawns the worker pool (and the
    /// metrics-exposition thread when telemetry writes to a file).
    ///
    /// # Panics
    /// If `cfg.workers == 0`, or the exposition thread cannot be spawned.
    pub fn new(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers;
        let hook_guard = (cfg.retry.is_some() || cfg.chaos.is_some()).then(PanicHookGuard::new);
        let core = Arc::new_cyclic(|weak: &std::sync::Weak<ServiceCore>| {
            let weak = weak.clone();
            let hook: Box<dyn Fn(&JobReport) + Send + Sync> = Box::new(move |report| {
                if let Some(core) = weak.upgrade() {
                    core.on_job_done(report);
                }
            });
            ServiceCore {
                frontier: MultiFrontier::with_hook(workers, hook),
                metrics: ServeMetrics::new(cfg.telemetry.as_ref()),
                cfg,
                admission: Mutex::new(0),
                admission_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                chaos_jobs: AtomicU64::new(0),
                marks: Ring::new(MAX_MARKS),
                metrics_gate: Mutex::new(false),
                metrics_cv: Condvar::new(),
            }
        });
        if let Some(depth) = core.cfg.telemetry.as_ref().and_then(|t| t.flight_recorder) {
            let _ = core.frontier.set_flight_recorder(depth);
        }
        let exposer = core.cfg.telemetry.as_ref().and_then(|t| {
            t.metrics_file.clone().map(|path| {
                let interval = t.interval;
                let core = Arc::clone(&core);
                // A thread the OS refuses at startup is a service that
                // cannot keep its promise to write the file: fail loudly.
                std::thread::Builder::new()
                    .name("ca-serve-metrics".into())
                    .spawn(move || core.exposition_loop(&path, interval))
                    .expect("spawn metrics exposer")
            })
        });
        Self { core, exposer: Mutex::new(exposer), _hook_guard: hook_guard }
    }

    fn params_for(&self, opts: &SubmitOptions) -> CaParams {
        opts.params.unwrap_or(self.core.cfg.params)
    }

    /// Whether a factorization of shape `m × n` under `opts` takes the
    /// tiny-job route: one task running the sequential kernels instead of
    /// the DAG. Such a task has no write-set wrappers to replay from and no
    /// ladder, so recovery (and chaos) keeps every job on the DAG route.
    fn batchable(&self, m: usize, n: usize, opts: &SubmitOptions) -> bool {
        let cfg = &self.core.cfg;
        opts.batchable
            && cfg.retry.is_none()
            && cfg.chaos.is_none()
            && cfg.batch.is_some_and(|b| m.max(n) <= b.max_dim)
    }

    /// The one way from a request to a frontier job: claim an admission
    /// slot, build the graph under the service's [`FactorOptions`] (a build
    /// error or unwind releases the slot), and submit it under the job's
    /// weight, deadline and `(tenant, class)` series; the completion hook
    /// releases the slot.
    fn submit_job<T: Send + Sync + 'static>(
        &self,
        opts: SubmitOptions,
        class: &'static str,
        build: impl FnOnce(&FactorOptions) -> Built<T>,
    ) -> Result<JobHandle<T>, ServeError> {
        // `weight` is a public field: a value `JobOptions::with_weight`
        // would panic on is refused while no slot is held.
        if !(opts.weight > 0.0 && opts.weight.is_finite()) {
            return Err(ServeError::InvalidWeight(opts.weight));
        }
        let core = &self.core;
        core.admit()?;
        // Until the frontier owns the job (whose completion hook frees the
        // slot), leaving this function — `?`, or `build` unwinding — does.
        struct Slot<'a>(&'a ServiceCore);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.release_one();
            }
        }
        let slot = Slot(core);
        let sg = build(&core.options()).map_err(ServeError::Invalid)?;
        let mut jopts = JobOptions::default().with_weight(opts.weight);
        if let Some(d) = opts.deadline.or(core.cfg.default_deadline) {
            jopts = jopts.with_deadline(d);
        }
        let series = core.metrics.series(opts.tenant.as_deref().unwrap_or(""), class);
        series.submitted.inc();
        let tag = u64::from(series.index);
        let (id, watch) = core.frontier.submit(sg.graph, jopts.with_tag(tag));
        std::mem::forget(slot);
        Ok(JobHandle { core: Arc::clone(core), id, watch, output: sg.output })
    }

    /// Submits the job `build` makes of a factorization of `a`: as one
    /// sequential task when it is [`Self::batchable`], else as the full DAG.
    fn submit_factor<T: Send + Sync + 'static>(
        &self,
        a: Matrix,
        opts: SubmitOptions,
        class: &'static str,
        build: impl FnOnce(Matrix, &CaParams, &FactorOptions, bool) -> Built<T>,
    ) -> Result<JobHandle<T>, ServeError> {
        let p = self.params_for(&opts);
        let tiny = self.batchable(a.nrows(), a.ncols(), &opts);
        let handle = self.submit_job(opts, class, |fopts| build(a, &p, fopts, tiny))?;
        if tiny {
            self.core.metrics.batched_jobs.inc();
        }
        Ok(handle)
    }

    /// Submits an LU (CALU) factorization of `a` under the contract of
    /// [`ca_core::try_calu`] ([`calu_serve_graph`]): non-finite input is
    /// refused here ([`ServeError::Invalid`]), growth is always monitored, and
    /// a zero pivot or a growth explosion fails the job — [`ServeError::Failed`]
    /// carrying the [`FactorError`] text, as [`Service::submit_solve`] reports
    /// a singular `A` — instead of returning factors with `breakdown` set.
    ///
    /// A matrix no larger than [`crate::BatchConfig::max_dim`] runs as one
    /// task on the sequential kernels (bitwise-identical factors — see
    /// DESIGN.md §11); everything else runs the full CALU DAG. Both are
    /// ordinary jobs under the same cross-job order and contract.
    pub fn submit_lu(
        &self,
        a: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<LuFactors>, ServeError> {
        self.submit_factor(a, opts, "lu", calu_serve_graph)
    }

    /// Submits a QR (CAQR) factorization of `a`; small matrices as in
    /// [`Service::submit_lu`].
    pub fn submit_qr(
        &self,
        a: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<QrFactors>, ServeError> {
        self.submit_factor(a, opts, "qr", caqr_serve_graph)
    }

    /// Submits the factor-and-solve job `build` makes of `a` and `rhs`: the
    /// job's last task solves with the factors it settled — the sink of the
    /// DAG route, probed and replayed like any other, or the one task of the
    /// tiny-job route ([`Self::batchable`]). A shape the solve cannot take
    /// is refused here and in the two callers — before a slot is claimed,
    /// like a bad weight.
    fn submit_with_rhs(
        &self,
        a: Matrix,
        rhs: Matrix,
        opts: SubmitOptions,
        class: &'static str,
        build: fn(Matrix, Matrix, &CaParams, &FactorOptions, bool) -> Built<Matrix>,
    ) -> Result<JobHandle<Matrix>, ServeError> {
        if rhs.nrows() != a.nrows() {
            return Err(ServeError::InvalidShape("rhs and A differ in row count"));
        }
        self.submit_factor(a, opts, class, |a, p, fopts, tiny| build(a, rhs, p, fopts, tiny))
    }

    /// Submits a factor-and-solve job for square `A·X = rhs` (CALU followed
    /// by the pivoted triangular solves; a small `A` as one task, as in
    /// [`Service::submit_lu`]). A singular `A` fails the job; a non-square
    /// `A` or an `rhs` of another row count is refused with
    /// [`ServeError::InvalidShape`].
    pub fn submit_solve(
        &self,
        a: Matrix,
        rhs: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<Matrix>, ServeError> {
        if a.nrows() != a.ncols() {
            return Err(ServeError::InvalidShape("solve needs a square A"));
        }
        self.submit_with_rhs(a, rhs, opts, "solve", calu_solve_serve_graph)
    }

    /// Submits a factor-and-least-squares job for tall `A` (CAQR followed
    /// by `R⁻¹·Qᵀ·rhs`; a small `A` as one task). A rank-deficient `A` fails
    /// the job; `m < n` or an `rhs` of another row count is refused with
    /// [`ServeError::InvalidShape`].
    pub fn submit_lstsq(
        &self,
        a: Matrix,
        rhs: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<Matrix>, ServeError> {
        if a.nrows() < a.ncols() {
            return Err(ServeError::InvalidShape("least squares needs m >= n"));
        }
        self.submit_with_rhs(a, rhs, opts, "lstsq", caqr_lstsq_serve_graph)
    }

    /// Jobs admitted and not yet finished.
    pub fn active_jobs(&self) -> usize {
        *self.core.admission.lock()
    }

    /// Enables or disables keeping finished jobs' execution spans for the
    /// service-wide [`Service::chrome_trace`]. Off by default because a
    /// service runs for days; [`JobHandle::profile`] does not depend on it.
    pub fn set_tracing(&self, on: bool) {
        self.core.frontier.set_tracing(on);
    }

    /// Chrome-trace JSON of the worker timeline of the jobs that finished
    /// while tracing was enabled (`chrome://tracing` / Perfetto format, same
    /// pipeline as the one-shot `--profile` path). A job's probe hits and
    /// whole-plan replays appear as a global instant marker when it ends.
    pub fn chrome_trace(&self) -> String {
        let marks = self.core.marks.snapshot();
        ca_sched::chrome_trace_json_with_marks(&self.core.frontier.timeline(), &marks)
    }

    /// Point-in-time service statistics.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats_snapshot()
    }

    /// Point-in-time snapshot of the service's metric registry — every
    /// service owns one; a [`crate::TelemetryConfig`] only adds the periodic
    /// file, the flight recorder and its dumps. Render with
    /// [`ca_telemetry::RegistrySnapshot::render_prometheus`] or serialize
    /// to JSON.
    pub fn metrics_snapshot(&self) -> ca_telemetry::RegistrySnapshot {
        self.core.exposition()
    }

    /// Shuts the service down: every still-active job is cancelled with
    /// [`ca_sched::CancelReason::Shutdown`] (in-flight tasks finish), and
    /// the worker pool is joined (as is the metrics-exposition thread,
    /// which writes one final snapshot first). Idempotent.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.admission_cv.notify_all();
        self.core.frontier.shutdown();
        *self.core.metrics_gate.lock() = true;
        self.core.metrics_cv.notify_all();
        if let Some(h) = self.exposer.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdmissionPolicy, BatchConfig, ServiceConfig, SubmitOptions};
    use ca_core::{one_task_serve_graph, CaluPlan, CaqrPlan};
    use ca_matrix::seeded_rng;
    use ca_sched::{CancelReason, Retry, RetryPolicy, TaskKind};

    fn cfg(workers: usize) -> ServiceConfig {
        ServiceConfig::new(workers).with_params(CaParams::new(16, 4, 1))
    }

    #[test]
    fn lu_and_qr_jobs_match_sequential_references() {
        let svc = Service::new(cfg(2));
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(40));
        let q = ca_matrix::random_uniform(64, 48, &mut seeded_rng(41));
        let p = CaParams::new(16, 4, 1);
        let lu_ref = ca_core::calu_seq_factor(a.clone(), &p);
        let qr_ref = ca_core::caqr_seq(q.clone(), &p);

        let h1 = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        let h2 = svc.submit_qr(q, SubmitOptions::default()).expect("admit");
        let lu = h1.wait().expect("lu completes");
        let qr = h2.wait().expect("qr completes");
        assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        assert_eq!(lu.pivots.ipiv, lu_ref.pivots.ipiv);
        assert_eq!(qr.a.as_slice(), qr_ref.a.as_slice());
        let s = svc.stats();
        assert_eq!(s.completed, 2);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.active_jobs, 0);
        svc.shutdown();
    }

    #[test]
    fn solve_and_lstsq_round_trip() {
        let svc = Service::new(cfg(2));
        let n = 40;
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(42));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(43));
        let b = a.matmul(&x_true);
        let h = svc.submit_solve(a, b, SubmitOptions::default()).expect("admit");
        let x = h.wait().expect("solve completes");
        assert!(ca_matrix::norm_max(x.sub_matrix(&x_true).view()) < 1e-8);

        let t = ca_matrix::random_uniform(60, 20, &mut seeded_rng(44));
        let rhs = ca_matrix::random_uniform(60, 1, &mut seeded_rng(45));
        let p = CaParams::new(16, 4, 1);
        let want = ca_core::caqr_seq(t.clone(), &p).solve_ls(&rhs);
        let h = svc.submit_lstsq(t, rhs, SubmitOptions::default()).expect("admit");
        let got = h.wait().expect("lstsq completes");
        assert!(ca_matrix::norm_max(got.sub_matrix(&want).view()) < 1e-10);
        svc.shutdown();
    }

    #[test]
    fn reject_policy_surfaces_at_capacity() {
        let svc = Service::new(cfg(1).with_capacity(1).with_admission(AdmissionPolicy::Reject));
        // Occupy the only slot with a solve of a biggish matrix.
        let a = ca_matrix::random_uniform(128, 128, &mut seeded_rng(46));
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("first admits");
        let tiny = ca_matrix::random_uniform(8, 8, &mut seeded_rng(47));
        // The first job may finish quickly; retry until we observe either a
        // rejection or completion of the occupant.
        let r = svc.submit_lu(tiny, SubmitOptions::default());
        if h.is_done() {
            // Raced: occupant finished before second submit; nothing to assert.
        } else {
            assert!(matches!(r, Err(ServeError::Rejected)), "expected rejection");
            assert!(svc.stats().rejected >= 1);
        }
        drop(r);
        let _ = h.wait();
        svc.shutdown();
    }

    #[test]
    fn bad_weight_is_refused_before_admission() {
        // `weight` is a public field: zero, negative, NaN and infinite
        // values must come back as a typed error from every entry point,
        // leaving the counters and the one queue slot untouched.
        let svc = Service::new(cfg(1).with_capacity(1).with_admission(AdmissionPolicy::Reject));
        let a = || ca_matrix::random_uniform(16, 16, &mut seeded_rng(60));
        let b = || ca_matrix::random_uniform(16, 2, &mut seeded_rng(61));
        for weight in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = || SubmitOptions { weight, ..Default::default() };
            let results = [
                svc.submit_lu(a(), opts()).map(drop),
                svc.submit_qr(a(), opts()).map(drop),
                svc.submit_solve(a(), b(), opts()).map(drop),
                svc.submit_lstsq(a(), b(), opts()).map(drop),
            ];
            for r in results {
                assert!(matches!(r, Err(ServeError::InvalidWeight(_))), "weight {weight}: {r:?}");
            }
            assert_eq!(svc.stats().submitted, 0, "weight {weight}");
            assert_eq!(svc.active_jobs(), 0, "weight {weight} leaked a slot");
        }
        // The only slot is still free.
        let h = svc.submit_lu(a(), SubmitOptions::default()).expect("admit");
        h.wait().expect("completes");
        svc.shutdown();
    }

    #[test]
    fn invalid_input_is_rejected_synchronously_and_frees_the_slot() {
        let svc = Service::new(cfg(1).with_capacity(1));
        let mut a = ca_matrix::random_uniform(16, 16, &mut seeded_rng(48));
        a[(1, 2)] = f64::NAN;
        match svc.submit_lu(a, SubmitOptions::default()) {
            Err(ServeError::Invalid(FactorError::NonFiniteInput { row: 1, col: 2 })) => {}
            Err(other) => panic!("expected invalid-input error, got {other:?}"),
            Ok(_) => panic!("expected invalid-input error, got a handle"),
        }
        assert_eq!(svc.active_jobs(), 0, "failed submit must not leak a slot");
        // The slot is free: a valid job still admits under capacity 1.
        let good = ca_matrix::random_uniform(16, 16, &mut seeded_rng(49));
        let h = svc.submit_lu(good, SubmitOptions::default()).expect("admit");
        h.wait().expect("completes");
        svc.shutdown();
    }

    #[test]
    fn empty_matrix_and_unwinding_build_free_the_slot() {
        // Nothing to factor is not an error: every route returns empty
        // factors, and the one slot comes back each time.
        let svc = Service::new(cfg(1).with_capacity(1).with_admission(AdmissionPolicy::Reject));
        for (m, n) in [(0usize, 0usize), (0, 5), (5, 0)] {
            for opts in [SubmitOptions::default(), SubmitOptions::default().unbatched()] {
                let lu = svc.submit_lu(Matrix::zeros(m, n), opts.clone()).expect("admit");
                assert!(lu.wait().expect("completes").pivots.ipiv.is_empty(), "lu {m}x{n}");
                let qr = svc.submit_qr(Matrix::zeros(m, n), opts).expect("admit");
                assert!(qr.wait().expect("completes").panels.is_empty(), "qr {m}x{n}");
                assert_eq!(svc.active_jobs(), 0, "{m}x{n} leaked a slot");
            }
        }
        // Nor does a graph build that unwinds keep its slot.
        let boom = |_: &FactorOptions| -> Built<()> { panic!("build unwound") };
        let submit = || svc.submit_job(SubmitOptions::default(), "lu", boom).map(drop);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(submit)).is_err());
        assert_eq!(svc.active_jobs(), 0, "an unwinding build leaked a slot");
        svc.shutdown();
    }

    #[test]
    fn batched_tiny_jobs_match_unbatched_results() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let p = CaParams::new(16, 4, 1);
        let mats: Vec<Matrix> =
            (0..6).map(|i| ca_matrix::random_uniform(24, 24, &mut seeded_rng(50 + i))).collect();
        let submit = |opts: &SubmitOptions| -> Vec<_> {
            mats.iter().map(|m| svc.submit_lu(m.clone(), opts.clone()).expect("admit")).collect()
        };
        let tiny = submit(&SubmitOptions::default());
        let dag = submit(&SubmitOptions::default().unbatched());
        for ((m, h), d) in mats.iter().zip(tiny).zip(dag) {
            let got = h.wait().expect("tiny job completes");
            let via_dag = d.wait().expect("dag job completes");
            let want = ca_core::calu_seq_factor(m.clone(), &p);
            assert_eq!(got.lu.as_slice(), want.lu.as_slice());
            assert_eq!(got.pivots.ipiv, want.pivots.ipiv);
            assert_eq!(got.lu.as_slice(), via_dag.lu.as_slice());
            assert_eq!(got.pivots.ipiv, via_dag.pivots.ipiv);
        }
        let s = svc.stats();
        assert_eq!(s.batched_jobs, 6);
        assert_eq!(s.completed, 12);
        svc.shutdown();
    }

    #[test]
    fn a_tiny_solve_is_one_task_with_the_bits_of_the_dag_route() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let a = ca_matrix::random_uniform(32, 32, &mut seeded_rng(64));
        let rhs = ca_matrix::random_uniform(32, 3, &mut seeded_rng(65));
        let solve = |opts: SubmitOptions| {
            let h = svc.submit_solve(a.clone(), rhs.clone(), opts).expect("admit");
            let tasks = h.profile().expect("a finished job has a profile").records.len();
            (tasks, h.wait().expect("solves"))
        };
        let (tiny_tasks, tiny) = solve(SubmitOptions::default());
        let (dag_tasks, dag) = solve(SubmitOptions::default().unbatched());
        assert_eq!(tiny_tasks, 1, "the tiny-job route is one task");
        assert!(dag_tasks > 2, "the DAG route: the plan's tasks and the sink that solves");
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tiny), bits(&dag));
        // Least squares takes the same route.
        let ls = svc.submit_lstsq(a.clone(), rhs.clone(), SubmitOptions::default()).expect("admit");
        assert_eq!(ls.profile().expect("profile").records.len(), 1);
        ls.wait().expect("least squares");
        assert_eq!(svc.stats().batched_jobs, 2);
        svc.shutdown();
    }

    #[test]
    fn a_served_solve_is_the_plan_and_one_sink() {
        // The sink settles the factors and solves with them: no task after it.
        let svc = Service::new(cfg(2));
        let p = CaParams::new(16, 4, 1);
        let m = |r, c, seed| ca_matrix::random_uniform(r, c, &mut seeded_rng(seed));
        let unbatched = || SubmitOptions::default().unbatched();
        let h = svc.submit_solve(m(48, 48, 66), m(48, 2, 67), unbatched()).expect("admit");
        let plan = CaluPlan::build::<f64>(48, 48, &p).graph().len();
        assert_eq!(h.profile().expect("profile").records.len(), plan + 1);
        h.wait().expect("solves");
        let h = svc.submit_lstsq(m(64, 48, 68), m(64, 2, 69), unbatched()).expect("admit");
        let plan = CaqrPlan::build::<f64>(64, 48, &p).graph().len();
        assert_eq!(h.profile().expect("profile").records.len(), plan + 1);
        h.wait().expect("least squares");
        svc.shutdown();
    }

    /// Holds the only worker of `svc` inside a task until the returned
    /// sender is dropped, so that whatever is submitted next stays queued.
    fn occupy_the_worker(svc: &Service) -> std::sync::mpsc::Sender<()> {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let build = move |_: &FactorOptions| {
            Ok(one_task_serve_graph(0.0, move || {
                let _ = started_tx.send(());
                let _ = release_rx.lock().recv();
                Ok(())
            }))
        };
        drop(svc.submit_job(SubmitOptions::default(), "blocker", build).expect("admit"));
        started_rx.recv().expect("blocker started");
        release_tx
    }

    #[test]
    fn tiny_job_is_an_ordinary_job_from_the_moment_it_is_submitted() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let release = occupy_the_worker(&svc);
        let a = ca_matrix::random_uniform(16, 16, &mut seeded_rng(60));
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        // Alone, behind a busy worker: already a frontier job, no flush or
        // second submission needed for it to exist or to run.
        assert_eq!(svc.core.frontier.queued_jobs(), 1, "job {} is in the frontier", h.id());
        assert_eq!(svc.active_jobs(), 2);
        assert!(!h.is_done());
        drop(release);
        h.wait().expect("completes on its own");
        assert_eq!(svc.stats().batched_jobs, 1);
        svc.shutdown();
    }

    #[test]
    fn queued_tiny_job_can_be_cancelled() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let release = occupy_the_worker(&svc);
        let a = ca_matrix::random_uniform(16, 16, &mut seeded_rng(62));
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        assert!(h.cancel(), "a queued tiny job is cancellable");
        drop(release);
        match h.wait() {
            Err(ServeError::Cancelled(CancelReason::User)) => {}
            other => panic!("expected user cancellation, got {other:?}"),
        }
        let s = svc.stats();
        assert_eq!((s.cancelled, s.batched_jobs), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn tiny_job_deadline_weight_and_tenant_are_honoured() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let a = || ca_matrix::random_uniform(16, 16, &mut seeded_rng(63));
        let late = SubmitOptions::default().with_tenant("acme").with_deadline(Duration::ZERO);
        match svc.submit_lu(a(), late).expect("admit").wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
        let heavy = SubmitOptions::default().with_tenant("zeta").with_weight(3.0);
        svc.submit_qr(a(), heavy).expect("admit").wait().expect("completes");
        let s = svc.stats();
        assert_eq!((s.deadline_missed, s.completed, s.batched_jobs), (1, 1, 2));
        // Each outcome sits in its own tenant's series; nothing is
        // attributed to an anonymous batch class.
        let prom = svc.metrics_snapshot().render_prometheus();
        for line in [
            "ca_serve_deadline_missed_total{tenant=\"acme\",class=\"lu\"} 1",
            "ca_serve_jobs_completed_total{tenant=\"zeta\",class=\"qr\"} 1",
        ] {
            assert!(prom.contains(line), "missing {line:?} in {prom}");
        }
        assert!(!prom.contains("class=\"batch\""), "{prom}");
        svc.shutdown();
    }

    #[test]
    fn batching_service_owns_no_thread_beyond_its_workers() {
        let svc = Service::new(cfg(2).with_batching(BatchConfig::up_to(32)));
        // Exhaustive pattern: a new field — a second `JoinHandle`, say —
        // stops this test compiling.
        let Service { core, exposer, _hook_guard: _ } = &svc;
        assert!(exposer.lock().is_none(), "no metrics file configured");
        assert_eq!(core.frontier.nworkers(), 2);
        // Of the threads named `ca-serve-*`, the numbered ones are pool
        // workers; the only other the service may own is the metrics
        // exposer (`comm` truncates names to 15 bytes).
        #[cfg(target_os = "linux")]
        for task in std::fs::read_dir("/proc/self/task").expect("thread list").flatten() {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if let Some(role) = name.trim().strip_prefix("ca-serve-") {
                let worker = role.bytes().all(|b| b.is_ascii_digit());
                assert!(worker || "metrics".starts_with(role), "unexpected thread {name}");
            }
        }
        svc.shutdown();
    }

    #[test]
    fn deadline_zero_misses_and_counts() {
        let svc = Service::new(cfg(1));
        let a = ca_matrix::random_uniform(48, 48, &mut seeded_rng(61));
        let h = svc
            .submit_lu(a, SubmitOptions::default().with_deadline(Duration::ZERO))
            .expect("admit");
        match h.wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
        let s = svc.stats();
        assert_eq!(s.deadline_missed, 1);
        assert_eq!(s.cancelled, 1);
        svc.shutdown();
    }

    #[test]
    fn shutdown_resolves_everything_and_rejects_new_work() {
        let svc = Service::new(cfg(1));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(70 + i));
                svc.submit_lu(a, SubmitOptions::default()).expect("admit")
            })
            .collect();
        svc.shutdown();
        for h in handles {
            // Every handle resolves: either the job finished before
            // shutdown or it was cancelled by it — never a hang.
            match h.wait() {
                Ok(_) | Err(ServeError::Cancelled(CancelReason::Shutdown)) => {}
                other => panic!("unexpected terminal state: {other:?}"),
            }
        }
        let a = ca_matrix::random_uniform(8, 8, &mut seeded_rng(80));
        assert!(matches!(
            svc.submit_lu(a, SubmitOptions::default()),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn stats_snapshot_serializes() {
        let svc = Service::new(cfg(1));
        let a = ca_matrix::random_uniform(32, 32, &mut seeded_rng(81));
        svc.submit_lu(a, SubmitOptions::default()).expect("admit").wait().expect("ok");
        let s = svc.stats();
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("\"completed\":1"));
        assert!(json.contains("total_latency"));
        assert!(json.contains("task_recovery"));
        svc.shutdown();
    }

    /// `o` with the first `Update` of the plan silently corrupted.
    fn corrupt_first_update(o: &FactorOptions) -> FactorOptions {
        let chaos = ChaosPlan::quiet(0).corrupt_nth(1, |l| l.kind == TaskKind::Update);
        FactorOptions { chaos: Some(Arc::new(chaos)), ..o.clone() }
    }

    fn corrupted_lu(
        a: Matrix,
        p: &CaParams,
        o: &FactorOptions,
        one_task: bool,
    ) -> Built<LuFactors> {
        calu_serve_graph(a, p, &corrupt_first_update(o), one_task)
    }

    fn corrupted_solve(
        a: Matrix,
        rhs: Matrix,
        p: &CaParams,
        o: &FactorOptions,
        one_task: bool,
    ) -> Built<Matrix> {
        calu_solve_serve_graph(a, rhs, p, &corrupt_first_update(o), one_task)
    }

    fn corrupted_lstsq(
        a: Matrix,
        rhs: Matrix,
        p: &CaParams,
        o: &FactorOptions,
        one_task: bool,
    ) -> Built<Matrix> {
        caqr_lstsq_serve_graph(a, rhs, p, &corrupt_first_update(o), one_task)
    }

    /// Waits until every admitted job finalized.
    fn drain(svc: &Service) {
        while svc.active_jobs() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn retry_path_matches_sequential_reference_without_faults() {
        // Recovery plumbing engaged (wrapped bodies, probes) but no chaos:
        // results must be bitwise-identical to the sequential reference.
        let svc = Service::new(cfg(2).with_retry(Retry::default()));
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(90));
        let p = CaParams::new(16, 4, 1);
        let lu_ref = ca_core::calu_seq_factor(a.clone(), &p);
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        let lu = h.wait().expect("completes");
        assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        assert_eq!(lu.pivots.ipiv, lu_ref.pivots.ipiv);
        let s = svc.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.task_recovery.probes, 1);
        assert_eq!((s.task_recovery.probe_failures, s.task_recovery.replays), (0, 0));
        svc.shutdown();
    }

    #[test]
    fn chaos_drill_jobs_all_complete_correctly() {
        // Aggressive per-task fault rates + task retry: every job must still
        // complete, and completed results must equal the fault-free
        // reference (replay determinism end to end through the service).
        let profile = ca_sched::ChaosProfile {
            fail_rate: 0.05,
            panic_rate: 0.02,
            ..ca_sched::ChaosProfile::quiet()
        };
        let svc = Service::new(
            cfg(2)
                .with_retry(Retry::default())
                .with_chaos(crate::config::ChaosConfig::seeded(7).with_profile(profile)),
        );
        let p = CaParams::new(16, 4, 1);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(100 + i));
                svc.submit_lu(a, SubmitOptions::default()).expect("admit")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(100 + i as u64));
            let lu_ref = ca_core::calu_seq_factor(a, &p);
            let lu = h.wait().expect("job survives chaos");
            assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        }
        let s = svc.stats();
        assert_eq!(s.completed, 4);
        assert_eq!(s.failed, 0);
        // At these rates over 4 × 64×64 graphs some injection must fire.
        let inj = s.task_recovery.injected_failures + s.task_recovery.injected_panics;
        assert!(inj > 0, "chaos drill injected nothing: {:?}", s.task_recovery);
        assert_eq!(s.task_recovery.exhausted_tasks, 0);
        svc.shutdown();
    }

    #[test]
    fn chaos_task_out_of_budget_is_answered_by_one_whole_plan_replay() {
        // No task replay: the first injected fault spends a task's budget,
        // the rest of the plan falls through to the sink, and one replay of
        // the whole plan from the input gives the reference bits.
        let profile = ca_sched::ChaosProfile { fail_rate: 0.05, ..ca_sched::ChaosProfile::quiet() };
        let no_task_replay =
            Retry { policy: RetryPolicy::default().with_max_retries(0), replays: 1 };
        let svc = Service::new(
            cfg(2)
                .with_retry(no_task_replay)
                .with_chaos(crate::config::ChaosConfig::seeded(11).with_profile(profile)),
        );
        let p = CaParams::new(16, 4, 1);
        let mats: Vec<Matrix> =
            (0..4).map(|i| ca_matrix::random_uniform(64, 64, &mut seeded_rng(120 + i))).collect();
        let handles: Vec<_> = mats
            .iter()
            .map(|a| svc.submit_lu(a.clone(), SubmitOptions::default()).expect("admit"))
            .collect();
        for (a, h) in mats.into_iter().zip(handles) {
            let lu = h.wait().expect("a whole-plan replay recovers");
            assert_eq!(lu.lu.as_slice(), ca_core::calu_seq_factor(a, &p).lu.as_slice());
        }
        let s = svc.stats();
        assert_eq!((s.completed, s.failed), (4, 0));
        let t = &s.task_recovery;
        assert!(t.replays > 0, "5% over ~60 tasks must exhaust some job: {t:?}");
        assert_eq!(s.jobs_recovered, t.replays, "one replay per recovered job");
        assert!(t.exhausted_tasks >= t.replays, "{t:?}");
        assert_eq!(t.probe_failures, 0);
        svc.shutdown();
    }

    #[test]
    fn chaos_corruption_is_caught_by_the_probe_and_replayed() {
        // Every task corrupts an element it wrote: the DAG's factors fail
        // the probe, and one replay from the input gives the reference bits
        // (the sequential reference runs no chaos).
        let profile =
            ca_sched::ChaosProfile { corrupt_rate: 1.0, ..ca_sched::ChaosProfile::quiet() };
        let svc = Service::new(
            cfg(2)
                .with_retry(Retry::default())
                .with_chaos(crate::config::ChaosConfig::seeded(3).with_profile(profile)),
        );
        let p = CaParams::new(16, 4, 1);
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(130));
        let lu_ref = ca_core::calu_seq_factor(a.clone(), &p);
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        let lu = h.wait().expect("the replay recovers");
        assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        let s = svc.stats();
        assert_eq!(
            (s.completed, s.task_recovery.probes, s.task_recovery.probe_failures),
            (1, 2, 1)
        );
        assert_eq!((s.task_recovery.replays, s.jobs_recovered), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn chaos_corruption_without_replays_surfaces_corrupted_error() {
        // Certain corruption and no replay: the probe flags the factors and
        // the job fails with the typed error, never returning them.
        let profile =
            ca_sched::ChaosProfile { corrupt_rate: 1.0, ..ca_sched::ChaosProfile::quiet() };
        let svc = Service::new(
            cfg(2)
                .with_retry(Retry { replays: 0, ..Retry::default() })
                .with_chaos(crate::config::ChaosConfig::seeded(13).with_profile(profile)),
        );
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(131));
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        match h.wait() {
            Err(ServeError::Corrupted { residual, threshold }) => {
                assert!(residual > threshold);
            }
            other => panic!("expected corrupted, got {other:?}"),
        }
        let s = svc.stats();
        let t = &s.task_recovery;
        assert_eq!((t.probes, t.probe_failures, t.replays), (1, 1, 0));
        assert_eq!((s.completed, s.failed), (0, 1));
        assert!(s.task_recovery.injected_corruptions > 0);
        svc.shutdown();
    }

    #[test]
    fn chaos_dropped_handle_is_still_probed_and_replayed() {
        // Nobody waits on this job: the ladder runs inside it all the same,
        // and the service counts the probe hit and the replay.
        let svc = Service::new(cfg(2).with_retry(Retry::default()));
        let (a, p) =
            (ca_matrix::random_uniform(96, 96, &mut seeded_rng(132)), CaParams::new(16, 4, 1));
        drop(
            svc.submit_job(SubmitOptions::default(), "lu", |o| corrupted_lu(a, &p, o, false))
                .expect("admit"),
        );
        drain(&svc);
        let s = svc.stats();
        assert_eq!((s.completed, s.failed), (1, 0));
        let t = &s.task_recovery;
        assert_eq!((t.probe_failures, t.replays, s.jobs_recovered), (1, 1, 1));
        assert_eq!(s.task_recovery.injected_corruptions, 1);
        svc.shutdown();
    }

    #[test]
    fn chaos_solve_and_lstsq_under_targeted_corruption_return_the_reference_solution() {
        // The sink solves with the factors it settled: probed, found
        // corrupted, replayed.
        let svc = Service::new(cfg(2).with_retry(Retry::default()));
        let p = CaParams::new(16, 4, 1);
        let opts = || SubmitOptions::default().with_params(p);
        let a = ca_matrix::random_uniform(96, 96, &mut seeded_rng(133));
        let b = ca_matrix::random_uniform(96, 2, &mut seeded_rng(134));
        let want = ca_core::calu_seq_factor(a.clone(), &p).try_solve(&b).expect("regular");
        let h = svc.submit_with_rhs(a, b, opts(), "solve", corrupted_solve);
        assert_eq!(h.expect("admit").wait().expect("solves").as_slice(), want.as_slice());

        let t = ca_matrix::random_uniform(120, 40, &mut seeded_rng(135));
        let c = ca_matrix::random_uniform(120, 1, &mut seeded_rng(136));
        let want = ca_core::caqr_seq(t.clone(), &p).try_solve_ls(&c).expect("full rank");
        let h = svc.submit_with_rhs(t, c, opts(), "lstsq", corrupted_lstsq);
        assert_eq!(h.expect("admit").wait().expect("solves").as_slice(), want.as_slice());
        let s = svc.stats();
        let t = &s.task_recovery;
        assert_eq!((t.probe_failures, t.replays, s.completed), (2, 2, 2));
        svc.shutdown();
    }

    #[test]
    fn chaos_solve_without_replays_surfaces_corrupted_error() {
        // The sink's typed error, not a bare task failure, reaches the
        // handle of a factor-and-solve job.
        let svc = Service::new(cfg(2).with_retry(Retry { replays: 0, ..Retry::default() }));
        let opts = SubmitOptions::default().with_params(CaParams::new(16, 4, 1));
        let a = ca_matrix::random_uniform(96, 96, &mut seeded_rng(138));
        let b = ca_matrix::random_uniform(96, 1, &mut seeded_rng(139));
        let h = svc.submit_with_rhs(a, b, opts, "solve", corrupted_solve);
        match h.expect("admit").wait() {
            Err(ServeError::Corrupted { residual, threshold }) => assert!(residual > threshold),
            other => panic!("expected corrupted, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn chaos_job_past_its_deadline_never_starts_a_replay() {
        // One worker; the first Update is corrupted and the first LBlock
        // outlives the job's deadline. Finishing it is a dispatch point: the
        // job ends there, so the sink — the probe and the replay it would
        // run — is never dispatched.
        let svc = Service::new(cfg(1).with_retry(Retry::default()));
        let (a, p) =
            (ca_matrix::random_uniform(96, 96, &mut seeded_rng(137)), CaParams::new(16, 4, 1));
        let late = |o: &FactorOptions| {
            let chaos = ChaosPlan::quiet(0)
                .corrupt_nth(1, |l| l.kind == TaskKind::Update)
                .delay_nth(1, Duration::from_millis(80), |l| l.kind == TaskKind::LBlock);
            calu_serve_graph(
                a,
                &p,
                &FactorOptions { chaos: Some(Arc::new(chaos)), ..o.clone() },
                false,
            )
        };
        let opts = SubmitOptions::default().with_deadline(Duration::from_millis(20));
        match svc.submit_job(opts, "lu", late).expect("admit").wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected a deadline miss, got {:?}", other.map(|f| f.breakdown)),
        }
        let s = svc.stats();
        assert_eq!((s.deadline_missed, s.task_recovery.probes, s.task_recovery.replays), (1, 0, 0));
        svc.shutdown();
    }
}

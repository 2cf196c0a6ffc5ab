//! The factorization service: one persistent worker pool, many tenants.

use crate::batch::{BatchTicket, PendingBatch, PendingMember};
use crate::config::{AdmissionPolicy, ServiceConfig, SubmitOptions};
use crate::metrics::{ServeMetrics, TenantSeries};
use crate::stats::{ServeError, ServiceStats};
use ca_core::{
    calu_serve_graph, caqr_serve_graph, lu_solve_serve_graph, qr_lstsq_serve_graph, CaParams,
    FactorError, JobRecovery, LuFactors, QrFactors, ServeGraph,
};
use ca_matrix::Matrix;
use ca_sched::{
    CancelReason, ChaosPlan, DynJob, JobId, JobOptions, JobOutcome, JobReport, JobWatch,
    MultiFrontier, PanicHookGuard, Profile, RecoveryCounters, TaskGraph, TaskKind, TaskLabel,
    TaskMeta,
};
use ca_telemetry::Ring;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cap on retained recovery-mark events (chrome-trace annotations).
const MAX_MARKS: usize = 4096;

/// First non-finite entry of `a` in column-major order, if any.
fn find_non_finite(a: &Matrix) -> Option<(usize, usize)> {
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            if !a[(i, j)].is_finite() {
                return Some((i, j));
            }
        }
    }
    None
}

/// How a handle learns its job finished.
enum Waiter {
    /// A job submitted directly to the frontier.
    Direct {
        id: JobId,
        watch: JobWatch,
    },
    /// A batched member: the watch materializes when the batch flushes.
    Batched(Arc<BatchTicket>),
}

/// Job-level recovery state carried by a handle when the service runs with
/// a [`crate::RetryConfig`]: the retained request payload (inside
/// `rebuild`), the backoff schedule, and the absolute deadline the retry
/// loop must never run past.
struct RetryState<T> {
    opts: SubmitOptions,
    /// Absolute deadline: admission time + the job's deadline, if any.
    deadline_at: Option<Instant>,
    /// Job-level backoff schedule (`max_retries` is the resubmission budget).
    backoff: ca_sched::RetryPolicy,
    /// Resubmissions performed so far.
    used: usize,
    /// Rebuilds a fresh graph from the retained owning payload; `None`
    /// when `job_retries` is 0 (probe-only recovery).
    #[allow(clippy::type_complexity)]
    rebuild: Option<Box<dyn Fn(&JobRecovery) -> Result<ServeGraph<T>, FactorError> + Send>>,
    /// Integrity probe over the completed result, if configured.
    #[allow(clippy::type_complexity)]
    probe: Option<Box<dyn Fn(&T) -> Result<(), FactorError> + Send>>,
    /// When the first failed/corrupted attempt was observed (MTTR anchor).
    first_failure: Option<Instant>,
}

/// Handle to a submitted job: poll, wait (with or without timeout), cancel.
///
/// Dropping a handle detaches it — the job keeps running and its outcome is
/// still counted, but nothing probes or resubmits it (use
/// [`JobHandle::cancel`] first to abort it).
pub struct JobHandle<T> {
    core: Arc<ServiceCore>,
    waiter: Waiter,
    output: Arc<OnceLock<T>>,
    /// The `(tenant, class)` series this job is attributed to.
    series: Arc<TenantSeries>,
    /// Boxed: the retry state is cold and would otherwise dominate the
    /// handle's (and its `Result`'s) size.
    retry: Option<Box<RetryState<T>>>,
}

impl<T> JobHandle<T> {
    /// The frontier job id — `None` for a batched member whose batch has
    /// not flushed yet (batched members share their fused job's id after).
    pub fn id(&self) -> Option<JobId> {
        match &self.waiter {
            Waiter::Direct { id, .. } => Some(*id),
            Waiter::Batched(t) => t.try_get().and_then(|w| w.try_get()).map(|r| r.job),
        }
    }

    /// `true` once the job reached a terminal state.
    pub fn is_done(&self) -> bool {
        match &self.waiter {
            Waiter::Direct { watch, .. } => watch.is_done(),
            Waiter::Batched(t) => t.try_get().is_some_and(|w| w.is_done()),
        }
    }

    /// Requests cancellation: undispatched tasks are dropped, in-flight
    /// tasks finish, the job finalizes as cancelled. Returns `false` if the
    /// job already finished — or for a batched member (members cannot be
    /// cancelled individually without killing their batch-mates).
    pub fn cancel(&self) -> bool {
        match &self.waiter {
            Waiter::Direct { id, .. } => self.core.frontier.cancel(*id),
            Waiter::Batched(_) => false,
        }
    }

    /// Where the time went for this job: blocks until its current attempt
    /// finishes, then returns the scheduler's [`Profile`] of it (job → panel
    /// step → task → kernel class, times counted from submission) — the
    /// same answer a one-shot `try_calu_profiled` gives, plus the sink task.
    /// `None` unless the job was submitted while [`Service::set_tracing`]
    /// was on, and for a batched member, which has no job of its own. What
    /// the profile needs is held by this handle, so ask before
    /// [`JobHandle::wait`] consumes it.
    pub fn profile(&self) -> Option<Profile> {
        let Waiter::Direct { watch, .. } = &self.waiter else { return None };
        watch.wait();
        self.core.frontier.job_profile(watch)
    }

    /// Blocks until the job finishes — retrying it under the service's
    /// [`crate::RetryConfig`], if any — and returns its result.
    pub fn wait(mut self) -> Result<T, ServeError> {
        loop {
            let watch = match &self.waiter {
                Waiter::Direct { watch, .. } => watch.clone(),
                Waiter::Batched(t) => t.wait(),
            };
            let report = watch.wait();
            match self.settle(report) {
                Ok(result) => return result,
                Err(retried) => self = retried,
            }
        }
    }

    /// Waits up to `timeout`; returns the handle back if the job is still
    /// running (batched members count flush-waiting time against the
    /// timeout too, as do retry backoffs and resubmitted attempts).
    pub fn wait_for(mut self, timeout: Duration) -> Result<Result<T, ServeError>, Self> {
        let until = Instant::now() + timeout;
        loop {
            let watch = match &self.waiter {
                Waiter::Direct { watch, .. } => watch.clone(),
                Waiter::Batched(t) => match t.try_get() {
                    Some(w) => w,
                    None => {
                        // Poll for the flush within the timeout budget;
                        // flushes are bounded by the batch max-delay, so
                        // this resolves fast in practice.
                        loop {
                            if let Some(w) = {
                                let Waiter::Batched(t) = &self.waiter else { unreachable!() };
                                t.try_get()
                            } {
                                break w;
                            }
                            if Instant::now() >= until {
                                return Err(self);
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                },
            };
            let remaining = until.saturating_duration_since(Instant::now());
            match watch.wait_timeout(remaining) {
                None => return Err(self),
                Some(report) => match self.settle(report) {
                    Ok(result) => return Ok(result),
                    Err(retried) => self = retried,
                },
            }
        }
    }

    /// Maps a terminal report to a result, or resubmits the job (returning
    /// the updated handle in `Err`) when the outcome is retryable under the
    /// handle's [`RetryState`]: a task failure, or a completed run whose
    /// factors fail the integrity probe. Deadline and shed cancellations
    /// are never retried. The completion hook already counted how the
    /// attempt ended; this adds only what the handle alone learns — probe
    /// detections and resubmissions — from which the terminal view follows.
    fn settle(mut self, report: JobReport) -> Result<Result<T, ServeError>, Self> {
        match report.outcome {
            JobOutcome::Completed => {
                let output = std::mem::replace(&mut self.output, Arc::new(OnceLock::new()));
                let Some(value) = Arc::try_unwrap(output).ok().and_then(OnceLock::into_inner)
                else {
                    return Ok(Err(ServeError::Lost));
                };
                if let Some(probe) = self.retry.as_ref().and_then(|r| r.probe.as_ref()) {
                    self.core.metrics.probes_run.inc();
                    if let Err(FactorError::Corrupted { residual, threshold }) = probe(&value)
                    {
                        // This attempt completed, but its result is
                        // unusable: the detection voids the completion.
                        self.series.corruption_detected.inc();
                        self.core.mark_recovery(format!(
                            "probe: corrupted factors (residual {residual:.2e})"
                        ));
                        self.core.dump_flight("probe-corrupt");
                        drop(value);
                        return match self.try_resubmit() {
                            Ok(()) => Err(self),
                            Err(e) => Ok(Err(
                                e.unwrap_or(ServeError::Corrupted { residual, threshold })
                            )),
                        };
                    }
                }
                if let Some(t0) = self.retry.as_ref().and_then(|r| r.first_failure) {
                    self.core.metrics.jobs_recovered.inc();
                    self.core.metrics.mttr_s.observe(t0.elapsed().as_secs_f64());
                    self.core.mark_recovery("job recovered".into());
                }
                Ok(Ok(value))
            }
            JobOutcome::Failed(e) => match self.try_resubmit() {
                Ok(()) => Err(self),
                Err(err) => Ok(Err(err.unwrap_or(ServeError::Failed {
                    label: e.label.to_string(),
                    message: e.message,
                }))),
            },
            JobOutcome::Cancelled(reason) => Ok(Err(match reason {
                CancelReason::Deadline => ServeError::DeadlineExceeded,
                CancelReason::Shed => ServeError::Shed,
                other => ServeError::Cancelled(other),
            })),
        }
    }

    /// Attempts one job-level resubmission: sleep the backoff (unless that
    /// would cross the job's deadline), re-admit, rebuild the graph from
    /// the retained payload under a fresh chaos seed, and submit it with
    /// the *remaining* deadline budget; on success the handle waits on the
    /// new attempt. `Err(None)` means no retry is available (the caller
    /// returns the original error); `Err(Some(e))` means the retry itself
    /// failed.
    fn try_resubmit(&mut self) -> Result<(), Option<ServeError>> {
        let Some(st) = self.retry.as_mut() else { return Err(None) };
        let Some(rebuild) = st.rebuild.as_ref().filter(|_| st.used < st.backoff.max_retries)
        else {
            return Err(None);
        };
        st.first_failure.get_or_insert_with(Instant::now);
        let delay = st.backoff.delay_for(st.used);
        if let Some(at) = st.deadline_at {
            // Deadline-aware: never retry past the job's deadline.
            if Instant::now() + delay >= at {
                return Err(Some(ServeError::DeadlineExceeded));
            }
        }
        st.used += 1;
        std::thread::sleep(delay);
        self.core.admit().map_err(Some)?;
        let rec = self.core.recovery_for_attempt().expect("retry implies recovery");
        let sg = match rebuild(&rec) {
            Ok(sg) => sg,
            Err(e) => {
                self.core.release_one();
                return Err(Some(ServeError::Invalid(e)));
            }
        };
        let mut jopts = JobOptions::default().with_weight(st.opts.weight);
        if let Some(at) = st.deadline_at {
            jopts = jopts.with_deadline(at.saturating_duration_since(Instant::now()));
        }
        self.series.retries.inc();
        self.core.mark_recovery(format!("job retry {}", st.used));
        let tag = JobTag { series: self.series.index, members: 1 };
        let (id, watch) = self.core.frontier.submit(sg.graph, jopts.with_tag(tag.encode()));
        self.output = sg.output;
        self.waiter = Waiter::Direct { id, watch };
        Ok(())
    }
}

/// What a frontier job's [`JobOptions::tag`] carries to the completion hook
/// (the frontier echoes it verbatim in the [`JobReport`]), so attribution
/// needs no side table that submitter and hook would race on.
#[derive(Clone, Copy)]
struct JobTag {
    /// [`TenantSeries::index`] of the job's series.
    series: u32,
    /// Member jobs the frontier job stands for (`> 1` for a fused batch).
    members: u32,
}

impl JobTag {
    fn encode(self) -> u64 {
        u64::from(self.members) << 32 | u64::from(self.series)
    }

    fn decode(tag: u64) -> Self {
        Self { series: tag as u32, members: (tag >> 32) as u32 }
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
    /// The accumulating batch, if batching is enabled and members pending.
    pending: Mutex<Option<PendingBatch>>,
    flush_cv: Condvar,
    shutdown: AtomicBool,
    /// Task-level recovery counters, shared by every job's retry wrappers
    /// and adopted by the registry.
    recovery: Arc<RecoveryCounters>,
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
    /// for every finalized frontier job (= one attempt of each member job),
    /// with no frontier lock held. Each fact is written once, per member,
    /// to the job's series.
    fn on_job_done(&self, r: &JobReport) {
        let tag = JobTag::decode(r.tag);
        let n = u64::from(tag.members);
        let series = self.metrics.series_at(tag.series);
        let trigger = match &r.outcome {
            JobOutcome::Completed => {
                series.attempts_completed.add(n);
                None
            }
            JobOutcome::Failed(_) => {
                series.attempts_failed.add(n);
                Some("job-fail")
            }
            JobOutcome::Cancelled(reason) => {
                series.cancelled.add(n);
                match reason {
                    CancelReason::Deadline => {
                        series.deadline_missed.add(n);
                        Some("deadline")
                    }
                    CancelReason::Shed => {
                        series.shed.add(n);
                        Some("shed")
                    }
                    _ => None,
                }
            }
        };
        for _ in 0..n {
            series.queue_s.observe(r.queue_seconds());
            series.exec_s.observe(r.exec_seconds());
            series.total_s.observe(r.total_seconds());
        }
        if r.flops > 0.0 {
            series.flops.add(r.flops);
        }
        if let Some(trigger) = trigger {
            self.dump_flight(trigger);
        }
        {
            let mut active = self.admission.lock().expect("admission lock");
            *active = active.saturating_sub(n as usize);
        }
        self.admission_cv.notify_all();
    }

    /// Dumps the flight recorder, if one is attached (a dump does file I/O
    /// but is capped by [`crate::TelemetryConfig::max_dumps`]).
    fn dump_flight(&self, trigger: &str) {
        if let Some(rec) = self.frontier.flight_recorder() {
            self.metrics.dump_flight(&rec, trigger);
        }
    }

    /// Claims one admission slot, applying the configured policy at
    /// capacity. On success the slot is released by the completion hook
    /// when the job (or its fused batch) finalizes.
    fn admit(&self) -> Result<(), ServeError> {
        let mut active = self.admission.lock().expect("admission lock");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            if *active < self.cfg.queue_capacity {
                *active += 1;
                return Ok(());
            }
            match self.cfg.admission {
                AdmissionPolicy::Reject => {
                    self.metrics.rejected.inc();
                    return Err(ServeError::Rejected);
                }
                AdmissionPolicy::Block => {
                    active = self.admission_cv.wait(active).expect("admission lock");
                }
                AdmissionPolicy::ShedOldest => {
                    // Shed without the admission lock: the shed job
                    // finalizes synchronously, re-entering the hook (which
                    // takes this lock to free the victim's slot).
                    drop(active);
                    if self.frontier.shed_oldest_queued().is_none() {
                        self.metrics.rejected.inc();
                        return Err(ServeError::Rejected);
                    }
                    active = self.admission.lock().expect("admission lock");
                }
            }
        }
    }

    /// The recovery context for one graph build, or `None` when neither
    /// retry nor chaos is configured. Every call under chaos derives a
    /// fresh plan seed, so a resubmitted job is not pinned into the exact
    /// injection pattern that killed its previous attempt.
    fn recovery_for_attempt(&self) -> Option<JobRecovery> {
        let retry = self.cfg.retry;
        let chaos = self.cfg.chaos;
        if retry.is_none() && chaos.is_none() {
            return None;
        }
        let policy = retry.map_or_else(ca_sched::RetryPolicy::none, |r| r.task_policy());
        let plan = match chaos {
            Some(c) => {
                let k = self.chaos_jobs.fetch_add(1, Ordering::Relaxed);
                let seed = c.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Arc::new(ChaosPlan::with_profile(seed, c.profile))
            }
            None => Arc::new(ChaosPlan::quiet(0)),
        };
        Some(JobRecovery { policy, chaos: plan, counters: Arc::clone(&self.recovery) })
    }

    /// Records a recovery event for the chrome trace (bounded: the ring
    /// keeps the most recent [`MAX_MARKS`]).
    fn mark_recovery(&self, msg: String) {
        self.marks.push((self.frontier.elapsed_seconds(), msg));
    }

    /// Returns an admission slot unused (submission failed after admit).
    fn release_one(&self) {
        {
            let mut active = self.admission.lock().expect("admission lock");
            *active = active.saturating_sub(1);
        }
        self.admission_cv.notify_all();
    }

    /// Appends a member to the pending batch, flushing if it fills up.
    fn enqueue_member(&self, member: PendingMember, max_batch: usize) {
        let full = {
            let mut pending = self.pending.lock().expect("pending lock");
            let batch = pending.get_or_insert_with(PendingBatch::new);
            batch.members.push(member);
            batch.members.len() >= max_batch
        };
        if full {
            self.flush_pending();
        } else {
            self.flush_cv.notify_all();
        }
    }

    /// Submits the pending batch (if any) as one fused frontier job and
    /// hands every member its watch.
    pub(crate) fn flush_pending(&self) {
        let Some(batch) = self.pending.lock().expect("pending lock").take() else {
            return;
        };
        let n = batch.members.len();
        let mut graph: TaskGraph<DynJob> = TaskGraph::new();
        let mut tickets = Vec::with_capacity(n);
        for m in batch.members {
            graph.add_task(m.meta, m.body);
            tickets.push(m.ticket);
        }
        self.metrics.batches_flushed.inc();
        self.metrics.batched_jobs.add(n as u64);
        let tag = JobTag { series: self.batch_series().index, members: n as u32 };
        let (_, watch) = self.frontier.submit(graph, JobOptions::default().with_tag(tag.encode()));
        for t in tickets {
            t.fulfill(watch.clone());
        }
    }

    /// Batched members carry no tenant attribution (they were admitted
    /// individually); they and their fused jobs aggregate under
    /// `class="batch"`.
    fn batch_series(&self) -> Arc<TenantSeries> {
        self.metrics.series("", "batch")
    }

    /// Flusher-thread body: wake on enqueue/shutdown, flush once the
    /// pending batch is older than `max_delay`.
    fn flusher_loop(&self, max_delay: Duration) {
        loop {
            let mut pending = self.pending.lock().expect("pending lock");
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let wait_for = match pending.as_ref() {
                None => Duration::from_millis(50),
                Some(b) => {
                    let age = b.opened.elapsed();
                    if age >= max_delay {
                        drop(pending);
                        self.flush_pending();
                        continue;
                    }
                    max_delay - age
                }
            };
            let (guard, _) =
                self.flush_cv.wait_timeout(pending, wait_for).expect("pending lock");
            pending = guard;
            drop(pending);
        }
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
            task_recovery: self.recovery.snapshot(),
            active_jobs: *self.admission.lock().expect("admission lock"),
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
            let gate = self.metrics_gate.lock().expect("metrics gate");
            let (gate, _) = self
                .metrics_cv
                .wait_timeout_while(gate, interval, |stop| !*stop)
                .expect("metrics gate");
            stopping = *gate;
        }
    }
}

/// A persistent multi-tenant factorization service.
///
/// One worker pool lives for the service's lifetime; every submission
/// becomes a job on the shared [`MultiFrontier`], which preserves each
/// job's DAG dependencies and the paper's lookahead priorities *within* a
/// job while weighted-fair-sharing worker time *across* jobs. Admission is
/// bounded ([`ServiceConfig::queue_capacity`]); tiny factorizations can be
/// coalesced into fused batch jobs ([`ServiceConfig::batch`]).
pub struct Service {
    core: Arc<ServiceCore>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Periodic metrics-exposition thread, when telemetry writes to a file.
    exposer: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Keeps the guarded-panic-hook filter installed for the service
    /// lifetime when recovery/chaos is configured, instead of churning the
    /// process hook on every task replay.
    _hook_guard: Option<PanicHookGuard>,
}

impl Service {
    /// Starts the service: spawns the worker pool (and the batch flusher
    /// when batching is enabled, and the metrics-exposition thread when
    /// telemetry writes to a file).
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let workers = cfg.workers;
        let batch = cfg.batch;
        let hook_guard =
            (cfg.retry.is_some() || cfg.chaos.is_some()).then(PanicHookGuard::new);
        let recovery = Arc::new(RecoveryCounters::new());
        let core = Arc::new_cyclic(|weak: &std::sync::Weak<ServiceCore>| {
            let weak = weak.clone();
            let hook: Box<dyn Fn(&JobReport) + Send + Sync> = Box::new(move |report| {
                if let Some(core) = weak.upgrade() {
                    core.on_job_done(report);
                }
            });
            ServiceCore {
                frontier: MultiFrontier::with_hook(workers, hook),
                metrics: ServeMetrics::new(cfg.telemetry.as_ref(), &recovery),
                cfg,
                admission: Mutex::new(0),
                admission_cv: Condvar::new(),
                pending: Mutex::new(None),
                flush_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                recovery,
                chaos_jobs: AtomicU64::new(0),
                marks: Ring::new(MAX_MARKS),
                metrics_gate: Mutex::new(false),
                metrics_cv: Condvar::new(),
            }
        });
        if let Some(depth) = core.cfg.telemetry.as_ref().and_then(|t| t.flight_recorder) {
            let _ = core.frontier.set_flight_recorder(depth);
        }
        let flusher = batch.map(|b| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("ca-serve-flush".into())
                .spawn(move || core.flusher_loop(b.max_delay))
                .expect("spawn batch flusher")
        });
        let exposer = core.cfg.telemetry.as_ref().and_then(|t| {
            t.metrics_file.clone().map(|path| {
                let interval = t.interval;
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name("ca-serve-metrics".into())
                    .spawn(move || core.exposition_loop(&path, interval))
                    .expect("spawn metrics exposer")
            })
        });
        Self {
            core,
            flusher: Mutex::new(flusher),
            exposer: Mutex::new(exposer),
            _hook_guard: hook_guard,
        }
    }

    /// Claims an admission slot for a job submitted under `opts` — after
    /// checking them: `weight` is a public field, and a value
    /// [`JobOptions::with_weight`] would panic on must be refused while no
    /// slot is held.
    fn admit(&self, opts: &SubmitOptions) -> Result<(), ServeError> {
        if !(opts.weight > 0.0 && opts.weight.is_finite()) {
            return Err(ServeError::InvalidWeight(opts.weight));
        }
        self.core.admit()
    }

    fn params_for(&self, opts: &SubmitOptions) -> CaParams {
        opts.params.unwrap_or(self.core.cfg.params)
    }

    fn deadline_for(&self, opts: &SubmitOptions) -> Option<Duration> {
        opts.deadline.or(self.core.cfg.default_deadline)
    }

    /// Whether a factorization of shape `m × n` under `opts` may join the
    /// pending batch. Batched members run as single fused tasks without
    /// write-set wrappers or resubmission payloads, so recovery (and chaos)
    /// suppresses batching entirely.
    fn batchable(&self, m: usize, n: usize, opts: &SubmitOptions) -> bool {
        let Some(b) = self.core.cfg.batch else { return false };
        opts.batchable
            && opts.weight == 1.0
            && self.deadline_for(opts).is_none()
            && self.core.cfg.retry.is_none()
            && self.core.cfg.chaos.is_none()
            && b.max_dim > 0
            && m.max(n) <= b.max_dim
    }

    fn submit_direct<T>(
        &self,
        sg: ServeGraph<T>,
        opts: &SubmitOptions,
        retry: Option<Box<RetryState<T>>>,
        class: &'static str,
    ) -> JobHandle<T> {
        let mut jopts = JobOptions::default().with_weight(opts.weight);
        if let Some(d) = self.deadline_for(opts) {
            jopts = jopts.with_deadline(d);
        }
        let series = self.core.metrics.series(opts.tenant.as_deref().unwrap_or(""), class);
        series.submitted.inc();
        let tag = JobTag { series: series.index, members: 1 };
        let (id, watch) = self.core.frontier.submit(sg.graph, jopts.with_tag(tag.encode()));
        JobHandle {
            core: Arc::clone(&self.core),
            waiter: Waiter::Direct { id, watch },
            output: sg.output,
            series,
            retry,
        }
    }

    /// The probe seed when integrity probing is configured.
    fn probe_seed(&self) -> Option<u64> {
        self.core.cfg.retry.and_then(|r| r.probe.then_some(r.probe_seed))
    }

    /// Builds and submits a graph under the given recovery context, wiring
    /// up the handle's [`RetryState`] (rebuild closure retained only when
    /// `job_retries > 0`). The caller has already claimed an admission
    /// slot; a build error releases it.
    #[allow(clippy::type_complexity)]
    fn submit_recovering<T: Send + Sync + 'static>(
        &self,
        opts: &SubmitOptions,
        rec: JobRecovery,
        build: impl Fn(&JobRecovery) -> Result<ServeGraph<T>, FactorError> + Send + 'static,
        probe: Option<Box<dyn Fn(&T) -> Result<(), FactorError> + Send>>,
        class: &'static str,
    ) -> Result<JobHandle<T>, ServeError> {
        match build(&rec) {
            Ok(sg) => {
                let retry = self.core.cfg.retry.map(|r| Box::new(RetryState {
                    opts: opts.clone(),
                    deadline_at: self.deadline_for(opts).map(|d| Instant::now() + d),
                    backoff: r.job_policy(),
                    used: 0,
                    rebuild: (r.job_retries > 0).then(|| {
                        Box::new(build)
                            as Box<
                                dyn Fn(&JobRecovery) -> Result<ServeGraph<T>, FactorError>
                                    + Send,
                            >
                    }),
                    probe,
                    first_failure: None,
                }));
                Ok(self.submit_direct(sg, opts, retry, class))
            }
            Err(e) => {
                self.core.release_one();
                Err(ServeError::Invalid(e))
            }
        }
    }

    fn submit_batched<T, F>(
        &self,
        flops: f64,
        factor: F,
    ) -> JobHandle<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let max_batch = self.core.cfg.batch.expect("batching enabled").max_batch;
        let output: Arc<OnceLock<T>> = Arc::new(OnceLock::new());
        let out = Arc::clone(&output);
        let ticket = Arc::new(BatchTicket::new());
        let member = PendingMember {
            meta: TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops),
            body: ca_sched::dyn_job(move || {
                let _ = out.set(factor());
            }),
            ticket: Arc::clone(&ticket),
        };
        let series = self.core.batch_series();
        series.submitted.inc();
        self.core.enqueue_member(member, max_batch);
        JobHandle {
            core: Arc::clone(&self.core),
            waiter: Waiter::Batched(ticket),
            output,
            series,
            retry: None,
        }
    }

    /// Submits an LU (CALU) factorization of `a`.
    ///
    /// Small matrices may be coalesced into a fused batch job (sequential
    /// kernels, bitwise-identical factors — see DESIGN.md §11); everything
    /// else runs the full CALU DAG under fair-share scheduling.
    pub fn submit_lu(
        &self,
        a: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<LuFactors>, ServeError> {
        let p = self.params_for(&opts);
        if self.batchable(a.nrows(), a.ncols(), &opts) {
            if let Some((row, col)) = find_non_finite(&a) {
                return Err(ServeError::Invalid(FactorError::NonFiniteInput { row, col }));
            }
            self.admit(&opts)?;
            let (m, n) = (a.nrows() as f64, a.ncols() as f64);
            let k = m.min(n);
            let flops = m * n * k - (m + n) * k * k / 2.0 + k * k * k / 3.0;
            return Ok(self.submit_batched(flops, move || {
                ca_core::calu_seq_factor(a, &p)
            }));
        }
        self.admit(&opts)?;
        match self.core.recovery_for_attempt() {
            None => match calu_serve_graph(a, &p, None) {
                Ok(sg) => Ok(self.submit_direct(sg, &opts, None, "lu")),
                Err(e) => {
                    self.core.release_one();
                    Err(ServeError::Invalid(e))
                }
            },
            Some(rec) => {
                let a0 = Arc::new(a);
                let probe = self.probe_seed().map(|seed| {
                    let a0 = Arc::clone(&a0);
                    Box::new(move |f: &LuFactors| f.verify_integrity(&a0, seed))
                        as Box<dyn Fn(&LuFactors) -> Result<(), FactorError> + Send>
                });
                let build = move |r: &JobRecovery| calu_serve_graph((*a0).clone(), &p, Some(r));
                self.submit_recovering(&opts, rec, build, probe, "lu")
            }
        }
    }

    /// Submits a QR (CAQR) factorization of `a`.
    pub fn submit_qr(
        &self,
        a: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<QrFactors>, ServeError> {
        let p = self.params_for(&opts);
        if self.batchable(a.nrows(), a.ncols(), &opts) {
            if let Some((row, col)) = find_non_finite(&a) {
                return Err(ServeError::Invalid(FactorError::NonFiniteInput { row, col }));
            }
            self.admit(&opts)?;
            let (m, n) = (a.nrows() as f64, a.ncols() as f64);
            let flops = 2.0 * m * n * n - 2.0 * n * n * n / 3.0;
            return Ok(self.submit_batched(flops, move || ca_core::caqr_seq(a, &p)));
        }
        self.admit(&opts)?;
        match self.core.recovery_for_attempt() {
            None => match caqr_serve_graph(a, &p, None) {
                Ok(sg) => Ok(self.submit_direct(sg, &opts, None, "qr")),
                Err(e) => {
                    self.core.release_one();
                    Err(ServeError::Invalid(e))
                }
            },
            Some(rec) => {
                let a0 = Arc::new(a);
                let probe = self.probe_seed().map(|seed| {
                    let a0 = Arc::clone(&a0);
                    Box::new(move |f: &QrFactors| f.verify_integrity(&a0, seed))
                        as Box<dyn Fn(&QrFactors) -> Result<(), FactorError> + Send>
                });
                let build = move |r: &JobRecovery| caqr_serve_graph((*a0).clone(), &p, Some(r));
                self.submit_recovering(&opts, rec, build, probe, "qr")
            }
        }
    }

    /// Submits an out-of-core LU (left-looking CALU) factorization of the
    /// matrix resident in `store`, running under `budget_bytes` of resident
    /// memory (see [`ca_ooc::ooc_calu`]).
    ///
    /// The factorization is sequential by design — the disk, not the cores,
    /// is the bottleneck, and only the trailing `par_gemm` update fans out
    /// (within the job, governed by the effective [`CaParams::threads`]) —
    /// so the job occupies exactly one pool task. Admission control,
    /// fair-share weighting, and deadlines apply as usual under telemetry
    /// class `"lu_ooc"`. On success the store holds the packed `L\U`
    /// factors in place and the handle yields the pivots, plan, and I/O
    /// accounting; on failure ([`FactorError`] rendered into the task
    /// failure) the output slot stays empty and the store's contents are
    /// unspecified.
    pub fn submit_lu_ooc(
        &self,
        store: Arc<ca_ooc::TileStore<f64>>,
        budget_bytes: usize,
        opts: SubmitOptions,
    ) -> Result<JobHandle<ca_ooc::OocLu>, ServeError> {
        let p = self.params_for(&opts);
        self.admit(&opts)?;
        let (m, n) = (store.nrows() as f64, store.ncols() as f64);
        let k = m.min(n);
        let flops = m * n * k - (m + n) * k * k / 2.0 + k * k * k / 3.0;
        let output: Arc<OnceLock<ca_ooc::OocLu>> = Arc::new(OnceLock::new());
        let out = Arc::clone(&output);
        let mut graph: TaskGraph<DynJob> = TaskGraph::new();
        let body: DynJob = Box::new(move || {
            let f = ca_ooc::ooc_calu(&store, &p, budget_bytes)
                .map_err(|e| ca_sched::TaskFailure::new(e.to_string()))?;
            let _ = out.set(f);
            Ok(())
        });
        graph.add_task(TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops), body);
        Ok(self.submit_direct(ServeGraph { graph, output }, &opts, None, "lu_ooc"))
    }

    /// Submits a factor-and-solve job for square `A·X = rhs` (CALU followed
    /// by the pivoted triangular solves). A singular `A` fails the job.
    ///
    /// # Panics
    /// Panics if `A` is not square or `rhs` has the wrong row count.
    pub fn submit_solve(
        &self,
        a: Matrix,
        rhs: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<Matrix>, ServeError> {
        let p = self.params_for(&opts);
        self.admit(&opts)?;
        match self.core.recovery_for_attempt() {
            None => match lu_solve_serve_graph(a, rhs, &p, None) {
                Ok(sg) => Ok(self.submit_direct(sg, &opts, None, "solve")),
                Err(e) => {
                    self.core.release_one();
                    Err(ServeError::Invalid(e))
                }
            },
            Some(rec) => {
                let a0 = Arc::new(a);
                let r0 = Arc::new(rhs);
                // No probe on solve jobs: the factors are consumed inside
                // the graph; task retry + job retry still apply.
                let build = move |r: &JobRecovery| {
                    lu_solve_serve_graph((*a0).clone(), (*r0).clone(), &p, Some(r))
                };
                self.submit_recovering(&opts, rec, build, None, "solve")
            }
        }
    }

    /// Submits a factor-and-least-squares job for tall `A` (CAQR followed
    /// by `R⁻¹·Qᵀ·rhs`). A rank-deficient `A` fails the job.
    ///
    /// # Panics
    /// Panics if `m < n` or `rhs` has the wrong row count.
    pub fn submit_lstsq(
        &self,
        a: Matrix,
        rhs: Matrix,
        opts: SubmitOptions,
    ) -> Result<JobHandle<Matrix>, ServeError> {
        let p = self.params_for(&opts);
        self.admit(&opts)?;
        match self.core.recovery_for_attempt() {
            None => match qr_lstsq_serve_graph(a, rhs, &p, None) {
                Ok(sg) => Ok(self.submit_direct(sg, &opts, None, "lstsq")),
                Err(e) => {
                    self.core.release_one();
                    Err(ServeError::Invalid(e))
                }
            },
            Some(rec) => {
                let a0 = Arc::new(a);
                let r0 = Arc::new(rhs);
                let build = move |r: &JobRecovery| {
                    qr_lstsq_serve_graph((*a0).clone(), (*r0).clone(), &p, Some(r))
                };
                self.submit_recovering(&opts, rec, build, None, "lstsq")
            }
        }
    }

    /// Forces the pending batch out immediately (normally the flusher
    /// handles this after the configured max delay).
    pub fn flush(&self) {
        self.core.flush_pending();
    }

    /// Jobs admitted and not yet finished.
    pub fn active_jobs(&self) -> usize {
        *self.core.admission.lock().expect("admission lock")
    }

    /// Enables or disables execution-span tracing for
    /// [`Service::chrome_trace`]; a job submitted while it is on can also be
    /// asked for its [`JobHandle::profile`].
    pub fn set_tracing(&self, on: bool) {
        self.core.frontier.set_tracing(on);
    }

    /// Chrome-trace JSON of the worker timeline recorded while tracing was
    /// enabled (`chrome://tracing` / Perfetto format, same pipeline as the
    /// one-shot `--profile` path). Recovery events — job retries, probe
    /// hits, recoveries — appear as global instant markers.
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

    /// Shuts the service down: pending batch members are flushed (and run
    /// or finalize as cancelled), every still-active job is cancelled with
    /// [`ca_sched::CancelReason::Shutdown`] (in-flight tasks finish), and
    /// the worker pool is joined (as are the flusher and metrics-exposition
    /// threads; the exposer writes one final snapshot first). Idempotent.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.admission_cv.notify_all();
        self.core.flush_cv.notify_all();
        if let Some(h) = self.flusher.lock().expect("flusher lock").take() {
            let _ = h.join();
        }
        self.core.flush_pending();
        self.core.frontier.shutdown();
        *self.core.metrics_gate.lock().expect("metrics gate") = true;
        self.core.metrics_cv.notify_all();
        if let Some(h) = self.exposer.lock().expect("exposer lock").take() {
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
    use ca_matrix::seeded_rng;
    use ca_sched::CancelReason;

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
        let svc = Service::new(
            cfg(1).with_capacity(1).with_admission(AdmissionPolicy::Reject),
        );
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
        let svc = Service::new(
            cfg(1).with_capacity(1).with_admission(AdmissionPolicy::Reject),
        );
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
    fn batched_tiny_jobs_match_unbatched_results() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig::up_to(32)));
        let p = CaParams::new(16, 4, 1);
        let mats: Vec<Matrix> = (0..6)
            .map(|i| ca_matrix::random_uniform(24, 24, &mut seeded_rng(50 + i)))
            .collect();
        let handles: Vec<_> = mats
            .iter()
            .map(|m| svc.submit_lu(m.clone(), SubmitOptions::default()).expect("admit"))
            .collect();
        svc.flush();
        for (m, h) in mats.iter().zip(handles) {
            let got = h.wait().expect("batched job completes");
            let want = ca_core::calu_seq_factor(m.clone(), &p);
            assert_eq!(got.lu.as_slice(), want.lu.as_slice());
            assert_eq!(got.pivots.ipiv, want.pivots.ipiv);
        }
        let s = svc.stats();
        assert!(s.batches_flushed >= 1, "batching must have fused jobs");
        assert_eq!(s.batched_jobs, 6);
        assert_eq!(s.completed, 6);
        svc.shutdown();
    }

    #[test]
    fn batch_flushes_by_max_delay_without_manual_flush() {
        let svc = Service::new(cfg(1).with_batching(BatchConfig {
            max_dim: 32,
            max_batch: 1000,
            max_delay: Duration::from_millis(5),
        }));
        let a = ca_matrix::random_uniform(16, 16, &mut seeded_rng(60));
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        // No manual flush: the flusher thread must fire within max_delay.
        let out = h.wait_for(Duration::from_secs(10)).map_err(|_| "timed out");
        assert!(out.expect("flusher fired").is_ok());
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

    #[test]
    fn retry_path_matches_sequential_reference_without_faults() {
        // Recovery plumbing engaged (wrapped bodies, probes) but no chaos:
        // results must be bitwise-identical to the sequential reference.
        let svc = Service::new(cfg(2).with_retry(crate::config::RetryConfig::default()));
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(90));
        let p = CaParams::new(16, 4, 1);
        let lu_ref = ca_core::calu_seq_factor(a.clone(), &p);
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        let lu = h.wait().expect("completes");
        assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        assert_eq!(lu.pivots.ipiv, lu_ref.pivots.ipiv);
        let s = svc.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.probes_run, 1);
        assert_eq!(s.corruption_detected, 0);
        svc.shutdown();
    }

    #[test]
    fn chaos_drill_jobs_all_complete_correctly() {
        // Aggressive per-task fault rates + task retry: every job must still
        // complete, and completed results must equal the fault-free
        // reference (replay determinism end to end through the service).
        let profile = ca_sched::ChaosProfile { fail_rate: 0.05, panic_rate: 0.02, ..ca_sched::ChaosProfile::quiet() };
        let svc = Service::new(
            cfg(2)
                .with_retry(crate::config::RetryConfig::default())
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
    fn job_level_retry_recovers_from_exhausted_task_budget() {
        // Task retries disabled: any injected fault fails the whole job, so
        // recovery must come from job-level resubmission. Resubmitted jobs
        // draw fresh chaos seeds, so with a modest fault rate the retried
        // run eventually completes.
        // ~60 wrapped tasks per graph → a 1% per-task rate fails roughly
        // half the attempts; 20 fresh-seeded resubmissions make exhausting
        // the budget (~0.5^21) vanishingly unlikely.
        let profile = ca_sched::ChaosProfile { fail_rate: 0.01, ..ca_sched::ChaosProfile::quiet() };
        let retry = crate::config::RetryConfig::default()
            .with_task_retries(0)
            .with_job_retries(20)
            .without_probe();
        let svc = Service::new(
            cfg(2)
                .with_retry(retry)
                .with_chaos(crate::config::ChaosConfig::seeded(11).with_profile(profile)),
        );
        let p = CaParams::new(16, 4, 1);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(120 + i));
                svc.submit_lu(a, SubmitOptions::default()).expect("admit")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(120 + i as u64));
            let lu_ref = ca_core::calu_seq_factor(a, &p);
            let lu = h.wait().expect("job-level retry recovers");
            assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        }
        let s = svc.stats();
        assert_eq!(s.completed, 4);
        if s.job_retries > 0 {
            assert!(s.jobs_recovered > 0, "retried jobs should be counted recovered");
            assert!(s.mttr.count as u64 == s.jobs_recovered);
        }
        svc.shutdown();
    }

    #[test]
    fn corruption_injection_is_caught_by_probe_and_retried() {
        // Only silent corruption injected: corrupted runs "succeed"
        // numerically wrong, the probe must catch each one, and the
        // job-level retry must eventually produce a clean
        // (reference-identical) result. At a 2% per-task rate roughly 70%
        // of attempts carry an injection; 30 retries make exhaustion
        // vanishingly unlikely.
        let profile =
            ca_sched::ChaosProfile { corrupt_rate: 0.02, ..ca_sched::ChaosProfile::quiet() };
        let retry = crate::config::RetryConfig::default().with_job_retries(30);
        let svc = Service::new(
            cfg(2)
                .with_retry(retry)
                .with_chaos(crate::config::ChaosConfig::seeded(3).with_profile(profile)),
        );
        let p = CaParams::new(16, 4, 1);
        let a = ca_matrix::random_uniform(64, 64, &mut seeded_rng(130));
        let lu_ref = ca_core::calu_seq_factor(a.clone(), &p);
        let h = svc.submit_lu(a, SubmitOptions::default()).expect("admit");
        let lu = h.wait().expect("probe-triggered retry recovers");
        assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice());
        let s = svc.stats();
        assert_eq!(s.completed, 1);
        // The probe ran on every completed attempt, and every resubmission
        // was triggered by a detection.
        assert_eq!(s.probes_run, 1 + s.job_retries);
        assert_eq!(s.corruption_detected, s.job_retries);
        if s.job_retries > 0 {
            assert_eq!(s.jobs_recovered, 1);
        }
        svc.shutdown();
    }

    #[test]
    fn exhausted_corruption_budget_surfaces_corrupted_error() {
        // Certain corruption on every task: every attempt completes with
        // poisoned factors, the probe flags each, and once the job-retry
        // budget is spent the handle resolves with `Corrupted`.
        let profile =
            ca_sched::ChaosProfile { corrupt_rate: 1.0, ..ca_sched::ChaosProfile::quiet() };
        let retry = crate::config::RetryConfig::default().with_job_retries(2);
        let svc = Service::new(
            cfg(2)
                .with_retry(retry)
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
        assert_eq!(s.job_retries, 2);
        assert_eq!(s.probes_run, 3);
        assert_eq!(s.corruption_detected, 3);
        // A probe-voided attempt is a detection, never a completion; the
        // job's terminal outcome is a failure.
        assert_eq!(s.completed, 0);
        assert_eq!(s.failed, 1);
        assert!(s.task_recovery.injected_corruptions > 0);
        svc.shutdown();
    }

    #[test]
    fn deadline_aware_backoff_refuses_to_retry_past_deadline() {
        // Job fails every run (certain injection, no task retries) and the
        // backoff exceeds the deadline: the handle must resolve with
        // DeadlineExceeded instead of sleeping past it.
        let profile = ca_sched::ChaosProfile { fail_rate: 1.0, ..ca_sched::ChaosProfile::quiet() };
        let retry = crate::config::RetryConfig {
            task_retries: 0,
            job_retries: 50,
            backoff: Duration::from_millis(250),
            multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            probe: false,
            probe_seed: 0,
        };
        let svc = Service::new(
            cfg(1)
                .with_retry(retry)
                .with_chaos(crate::config::ChaosConfig::seeded(5).with_profile(profile)),
        );
        let a = ca_matrix::random_uniform(48, 48, &mut seeded_rng(140));
        let h = svc
            .submit_lu(a, SubmitOptions::default().with_deadline(Duration::from_millis(300)))
            .expect("admit");
        match h.wait() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected deadline-bounded retry, got {other:?}"),
        }
        svc.shutdown();
    }
}

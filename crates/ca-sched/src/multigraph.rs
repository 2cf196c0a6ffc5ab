//! Multi-graph frontier: one persistent worker pool executing many task
//! graphs ("jobs") concurrently.
//!
//! The one-shot executor ([`crate::execute`]) runs exactly one DAG to
//! quiescence. A serving workload instead has many
//! DAGs in flight at once; the paper's dynamic-scheduling insight — tasks
//! from *different panel steps* interleave on a shared pool via priorities —
//! generalizes directly to tasks from *different requests*:
//!
//! * **Within a job** the paper's lookahead priorities are preserved: each
//!   job keeps its own ready heap ordered by [`TaskMeta::priority`] (then
//!   insertion order), exactly like the one-shot priority-queue pool.
//! * **Across jobs** dispatch uses stride scheduling (weighted fair
//!   queueing): every job carries a *pass* value advanced by
//!   `flops / weight` per dispatched task, and workers always serve the
//!   runnable job with the smallest pass. A weight-2 job therefore receives
//!   twice the flops of a weight-1 job while both are runnable, and a newly
//!   admitted job starts at the current minimum pass so it can neither
//!   starve nor monopolize.
//!
//! Failure semantics match the one-shot pools, scoped per job: a failed or
//! panicking task cancels its transitive successors *within its own job*
//! and never affects other jobs. Jobs can also be cancelled as a whole
//! (user cancel, deadline, load shedding, shutdown): undispatched tasks are
//! dropped, in-flight tasks run to completion, and the job finalizes with a
//! [`JobOutcome::Cancelled`]. Deadlines are enforced at dispatch points, so
//! a deadline never preempts a running kernel.

use crate::fault::{panic_message, ExecError, TaskResult};
use crate::graph::TaskGraph;
use crate::log::{LaneLog, TaskRec};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::telemetry::{self, FlightEventKind, FlightRecorder};
use crate::trace::Timeline;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Identifies a job (a submitted task graph) for its whole lifetime.
pub type JobId = u64;

/// A task body owned by the frontier: unlike the scoped [`crate::Job`],
/// jobs outlive the submitting call, so bodies must be `'static` (capture
/// `Arc`s, not references).
pub type DynJob = Box<dyn FnOnce() -> TaskResult + Send + 'static>;

/// Wraps an infallible closure as a [`DynJob`].
pub fn dyn_job(f: impl FnOnce() + Send + 'static) -> DynJob {
    Box::new(move || {
        f();
        Ok(())
    })
}

/// Per-job submission options.
#[derive(Clone, Copy, Debug)]
pub struct JobOptions {
    /// Fair-share weight (> 0): relative flop share while runnable.
    pub weight: f64,
    /// Deadline relative to submission; the job is cancelled with
    /// [`CancelReason::Deadline`] at the first dispatch point past it.
    pub deadline: Option<Duration>,
    /// Opaque caller tag echoed verbatim in the [`JobReport`] (e.g. a
    /// member count for fused batch jobs). The frontier never reads it.
    pub tag: u64,
}

impl Default for JobOptions {
    fn default() -> Self {
        Self { weight: 1.0, deadline: None, tag: 0 }
    }
}

impl JobOptions {
    /// Sets the fair-share weight.
    pub fn with_weight(mut self, w: f64) -> Self {
        assert!(w > 0.0 && w.is_finite(), "weight must be positive");
        self.weight = w;
        self
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the opaque caller tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// Why a job was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// Explicit [`MultiFrontier::cancel`].
    User,
    /// The job's deadline expired before it finished.
    Deadline,
    /// Load shedding evicted the job from the queue.
    Shed,
    /// The frontier was shut down with the job still pending.
    Shutdown,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::User => write!(f, "cancelled by caller"),
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::Shed => write!(f, "shed under load"),
            CancelReason::Shutdown => write!(f, "service shutting down"),
        }
    }
}

/// Terminal state of a job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Every task ran successfully.
    Completed,
    /// A task failed or panicked; its transitive successors within the job
    /// were cancelled. Carries the first failure.
    Failed(ExecError),
    /// The job was cancelled as a whole before completing.
    Cancelled(CancelReason),
}

impl JobOutcome {
    /// `true` iff every task of the job ran successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }
}

/// Lifecycle report delivered when a job reaches a terminal state. All
/// times are seconds since the frontier's epoch.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Caller tag from [`JobOptions::tag`], echoed verbatim.
    pub tag: u64,
    /// Terminal state.
    pub outcome: JobOutcome,
    /// Submission time.
    pub submitted: f64,
    /// First task dispatch, if any task ever ran.
    pub first_dispatch: Option<f64>,
    /// Finalization time.
    pub finished: f64,
    /// Tasks that executed.
    pub tasks_run: usize,
    /// Tasks dropped without running (failure closure or job cancel).
    pub tasks_cancelled: usize,
    /// Flops of the executed tasks (per their [`TaskMeta`] estimates).
    pub flops: f64,
}

impl JobReport {
    /// Seconds spent queued before the first task dispatched (the whole
    /// lifetime if nothing ever ran).
    pub fn queue_seconds(&self) -> f64 {
        self.first_dispatch.unwrap_or(self.finished) - self.submitted
    }

    /// Seconds from first dispatch to finalization (0 if nothing ran).
    pub fn exec_seconds(&self) -> f64 {
        self.first_dispatch.map_or(0.0, |d| self.finished - d)
    }

    /// Seconds from submission to finalization.
    pub fn total_seconds(&self) -> f64 {
        self.finished - self.submitted
    }
}

/// Completion watch for one job: cloneable, fulfilled exactly once.
#[derive(Clone)]
pub struct JobWatch {
    inner: Arc<WatchInner>,
}

struct WatchInner {
    slot: Mutex<Option<JobReport>>,
    cv: Condvar,
}

impl JobWatch {
    fn new() -> Self {
        Self { inner: Arc::new(WatchInner { slot: Mutex::new(None), cv: Condvar::new() }) }
    }

    fn fulfill(&self, report: JobReport) {
        let mut slot = self.inner.slot.lock().expect("watch lock");
        debug_assert!(slot.is_none(), "job finalized twice");
        *slot = Some(report);
        self.inner.cv.notify_all();
    }

    /// The report, if the job already finished.
    pub fn try_get(&self) -> Option<JobReport> {
        self.inner.slot.lock().expect("watch lock").clone()
    }

    /// `true` once the job reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.inner.slot.lock().expect("watch lock").is_some()
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobReport {
        let mut slot = self.inner.slot.lock().expect("watch lock");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.inner.cv.wait(slot).expect("watch lock");
        }
    }

    /// Blocks up to `timeout`; `None` if the job is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobReport> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.inner.slot.lock().expect("watch lock");
        loop {
            if let Some(r) = slot.as_ref() {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) =
                self.inner.cv.wait_timeout(slot, deadline - now).expect("watch lock");
            slot = guard;
        }
    }
}

/// Ready-heap entry: max-heap on priority, then insertion order (lower task
/// id first) — identical to the one-shot priority pool.
#[derive(PartialEq, Eq)]
struct Ready {
    priority: i64,
    task: TaskId,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority.cmp(&other.priority).then(other.task.cmp(&self.task))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

struct JobState {
    metas: Vec<TaskMeta>,
    slots: Vec<Option<DynJob>>,
    succs: Vec<Vec<TaskId>>,
    preds: Vec<usize>,
    ready: BinaryHeap<Ready>,
    cancelled: Vec<bool>,
    /// Tasks not yet accounted (neither run nor dropped). In-flight tasks
    /// still count until their completion is recorded.
    remaining: usize,
    in_flight: usize,
    /// Stride-scheduling pass value (advanced by flops/weight at dispatch).
    pass: f64,
    weight: f64,
    tag: u64,
    /// Absolute deadline (seconds since epoch).
    deadline: Option<f64>,
    submitted: f64,
    first_dispatch: Option<f64>,
    tasks_run: usize,
    tasks_cancelled: usize,
    flops_done: f64,
    failure: Option<ExecError>,
    cancel_reason: Option<CancelReason>,
    watch: JobWatch,
}

impl JobState {
    /// Whether a worker can dispatch a task of this job right now.
    fn runnable(&self) -> bool {
        !self.ready.is_empty()
    }
}

struct State {
    jobs: HashMap<JobId, JobState>,
    shutdown: bool,
}

/// Hook invoked (off-lock) with every finalized job's report.
type CompletionHook = Box<dyn Fn(&JobReport) + Send + Sync>;

/// What one frontier worker logged.
#[derive(Default)]
struct Lane {
    /// The task log [`MultiFrontier::timeline`] is a view of; records are
    /// pushed only while `tracing` is on (a service runs for days).
    log: LaneLog,
    /// Seconds spent in task bodies, traced or not
    /// ([`MultiFrontier::busy_seconds`]).
    busy: f64,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    epoch: Instant,
    next_job: AtomicU64,
    nworkers: usize,
    /// One lane per worker, written by that worker only.
    lanes: Vec<Mutex<Lane>>,
    tracing: AtomicBool,
    on_complete: Option<CompletionHook>,
    /// Optional flight recorder (attached once via
    /// [`MultiFrontier::set_flight_recorder`]).
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl Inner {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Counts the job's terminal outcome and records it on the flight
    /// recorder's external lane.
    fn note_job_end(&self, report: &JobReport) {
        let c = telemetry::sched_counters();
        let kind = match &report.outcome {
            JobOutcome::Completed => {
                c.jobs_completed.inc();
                FlightEventKind::JobDone
            }
            JobOutcome::Failed(_) => {
                c.jobs_failed.inc();
                FlightEventKind::JobFail
            }
            JobOutcome::Cancelled(reason) => {
                c.jobs_cancelled.inc();
                match reason {
                    CancelReason::Shed => {
                        c.jobs_shed.inc();
                        FlightEventKind::JobShed
                    }
                    CancelReason::Deadline => {
                        c.jobs_deadline_missed.inc();
                        FlightEventKind::JobDeadline
                    }
                    CancelReason::User | CancelReason::Shutdown => FlightEventKind::JobCancel,
                }
            }
        };
        if let Some(rec) = self.recorder.get() {
            rec.record(rec.nworkers(), kind, report.job, None);
        }
    }

    /// Delivers finalized reports: hook first (so aggregated stats are
    /// current before waiters wake), then the watch. Never called with the
    /// state lock held.
    fn deliver(&self, done: Vec<(JobReport, JobWatch)>) {
        for (report, watch) in done {
            self.note_job_end(&report);
            if let Some(hook) = &self.on_complete {
                hook(&report);
            }
            watch.fulfill(report);
        }
    }
}

/// A persistent pool of workers multiplexing many task graphs (see the
/// module docs for the scheduling policy).
pub struct MultiFrontier {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// How long an idle worker sleeps between deadline sweeps.
const IDLE_SWEEP: Duration = Duration::from_millis(25);

impl MultiFrontier {
    /// Starts `nworkers` dedicated worker threads.
    ///
    /// # Panics
    /// Panics if `nworkers == 0`.
    pub fn new(nworkers: usize) -> Self {
        Self::build(nworkers, None)
    }

    /// [`MultiFrontier::new`] with a completion hook, invoked once per
    /// finalized job (from a worker thread, before the job's
    /// [`JobWatch`] is fulfilled, with no internal lock held).
    pub fn with_hook(nworkers: usize, hook: CompletionHook) -> Self {
        Self::build(nworkers, Some(hook))
    }

    fn build(nworkers: usize, on_complete: Option<CompletionHook>) -> Self {
        assert!(nworkers > 0, "need at least one worker");
        let inner = Arc::new(Inner {
            state: Mutex::new(State { jobs: HashMap::new(), shutdown: false }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            next_job: AtomicU64::new(0),
            nworkers,
            lanes: (0..nworkers).map(|_| Mutex::default()).collect(),
            tracing: AtomicBool::new(false),
            on_complete,
            recorder: OnceLock::new(),
        });
        let workers = (0..nworkers)
            .map(|lane| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ca-serve-{lane}"))
                    .spawn(move || worker_loop(&inner, lane))
                    .expect("spawn frontier worker")
            })
            .collect();
        Self { inner, workers: Mutex::new(workers) }
    }

    /// Number of worker threads.
    pub fn nworkers(&self) -> usize {
        self.inner.nworkers
    }

    /// Attaches a flight recorder retaining the last `depth` events per
    /// worker (plus one external lane for submit/finalize events) and
    /// returns it. Only the first attach creates a recorder; later calls
    /// return the existing one regardless of `depth`.
    pub fn set_flight_recorder(&self, depth: usize) -> Arc<FlightRecorder> {
        self.inner
            .recorder
            .get_or_init(|| Arc::new(FlightRecorder::new(self.inner.nworkers, depth)))
            .clone()
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.inner.recorder.get().cloned()
    }

    /// Submits a job. Tasks become eligible immediately; the returned
    /// [`JobWatch`] resolves when the job reaches a terminal state. If the
    /// frontier is already shut down, the job finalizes immediately with
    /// [`CancelReason::Shutdown`].
    pub fn submit(&self, graph: TaskGraph<DynJob>, opts: JobOptions) -> (JobId, JobWatch) {
        assert!(opts.weight > 0.0 && opts.weight.is_finite(), "weight must be positive");
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        telemetry::sched_counters().jobs_submitted.inc();
        if let Some(rec) = self.inner.recorder.get() {
            rec.record(rec.nworkers(), FlightEventKind::JobSubmit, id, None);
        }
        let TaskGraph { metas, payloads, succs, npreds } = graph;
        let n = metas.len();
        let now = self.inner.now();
        let watch = JobWatch::new();

        let mut ready = BinaryHeap::new();
        for (t, &np) in npreds.iter().enumerate() {
            if np == 0 {
                ready.push(Ready { priority: metas[t].priority, task: t });
            }
        }
        let mut job = JobState {
            metas,
            slots: payloads.into_iter().map(Some).collect(),
            succs,
            preds: npreds,
            ready,
            cancelled: vec![false; n],
            remaining: n,
            in_flight: 0,
            pass: 0.0,
            weight: opts.weight,
            tag: opts.tag,
            deadline: opts.deadline.map(|d| now + d.as_secs_f64()),
            submitted: now,
            first_dispatch: None,
            tasks_run: 0,
            tasks_cancelled: 0,
            flops_done: 0.0,
            failure: None,
            cancel_reason: None,
            watch: watch.clone(),
        };

        let roots = job.ready.len();
        let mut done = Vec::new();
        {
            let mut st = self.inner.state.lock().expect("frontier lock");
            if st.shutdown {
                job.cancel_reason = Some(CancelReason::Shutdown);
                job.tasks_cancelled = n;
                job.slots.clear();
                job.remaining = 0;
                done.push((build_report(id, job, now), watch.clone()));
            } else {
                // Stride scheduling: start at the current minimum pass so
                // the new job neither starves nor sweeps the pool.
                let base =
                    st.jobs.values().map(|j| j.pass).fold(f64::INFINITY, f64::min);
                job.pass = if base.is_finite() { base } else { 0.0 };
                if n == 0 {
                    done.push((build_report(id, job, now), watch.clone()));
                } else {
                    st.jobs.insert(id, job);
                }
            }
        }
        if done.is_empty() {
            // Wake one worker per root task (capped at the pool size); the
            // workers' chained wakeups take it from there.
            for _ in 0..roots.min(self.inner.nworkers) {
                self.inner.cv.notify_one();
            }
        } else {
            self.inner.deliver(done);
        }
        (id, watch)
    }

    /// Cancels a job: undispatched tasks are dropped, in-flight tasks run
    /// to completion, the job finalizes with
    /// [`JobOutcome::Cancelled`]`(`[`CancelReason::User`]`)`. Returns
    /// `false` if the job already finished or was already cancelled.
    pub fn cancel(&self, id: JobId) -> bool {
        self.cancel_with(id, CancelReason::User)
    }

    fn cancel_with(&self, id: JobId, reason: CancelReason) -> bool {
        let mut done = Vec::new();
        let hit = {
            let mut st = self.inner.state.lock().expect("frontier lock");
            let now = self.inner.now();
            cancel_job_locked(&mut st, id, reason, now, &mut done)
        };
        self.inner.deliver(done);
        hit
    }

    /// Sheds the oldest job that has not yet dispatched any task,
    /// finalizing it with [`CancelReason::Shed`]. Returns its id, or `None`
    /// if every active job already started running.
    pub fn shed_oldest_queued(&self) -> Option<JobId> {
        let mut done = Vec::new();
        let victim = {
            let mut st = self.inner.state.lock().expect("frontier lock");
            let victim = st
                .jobs
                .iter()
                .filter(|(_, j)| j.first_dispatch.is_none() && j.cancel_reason.is_none())
                .min_by(|(ai, a), (bi, b)| {
                    a.submitted.total_cmp(&b.submitted).then(ai.cmp(bi))
                })
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                let now = self.inner.now();
                cancel_job_locked(&mut st, id, CancelReason::Shed, now, &mut done);
            }
            victim
        };
        self.inner.deliver(done);
        victim
    }

    /// Jobs admitted and not yet finalized.
    pub fn active_jobs(&self) -> usize {
        self.inner.state.lock().expect("frontier lock").jobs.len()
    }

    /// Active jobs that have not dispatched any task yet.
    pub fn queued_jobs(&self) -> usize {
        let st = self.inner.state.lock().expect("frontier lock");
        st.jobs.values().filter(|j| j.first_dispatch.is_none()).count()
    }

    /// Enables or disables span recording for [`MultiFrontier::timeline`].
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracing.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the recorded execution timeline (spans accumulate while
    /// tracing is enabled; times are seconds since the frontier epoch).
    pub fn timeline(&self) -> Timeline {
        let lanes: Vec<LaneLog> =
            self.inner.lanes.iter().map(|l| l.lock().expect("lane lock").log.clone()).collect();
        Timeline::from_log(&lanes, self.inner.now())
    }

    /// Total seconds workers spent executing task bodies since start.
    pub fn busy_seconds(&self) -> f64 {
        self.inner.lanes.iter().map(|l| l.lock().expect("lane lock").busy).sum()
    }

    /// Seconds since the frontier started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.inner.now()
    }

    /// Shuts down: cancels every active job with [`CancelReason::Shutdown`]
    /// (in-flight tasks finish), then joins the workers. Idempotent;
    /// submissions after shutdown finalize immediately as cancelled.
    pub fn shutdown(&self) {
        let mut done = Vec::new();
        {
            let mut st = self.inner.state.lock().expect("frontier lock");
            st.shutdown = true;
            let ids: Vec<JobId> = st.jobs.keys().copied().collect();
            let now = self.inner.now();
            for id in ids {
                cancel_job_locked(&mut st, id, CancelReason::Shutdown, now, &mut done);
            }
        }
        self.inner.cv.notify_all();
        self.inner.deliver(done);
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for MultiFrontier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the terminal report for a job (consuming its state).
fn build_report(id: JobId, job: JobState, now: f64) -> JobReport {
    let outcome = if let Some(e) = job.failure {
        JobOutcome::Failed(e)
    } else if let Some(r) = job.cancel_reason {
        JobOutcome::Cancelled(r)
    } else {
        JobOutcome::Completed
    };
    JobReport {
        job: id,
        tag: job.tag,
        outcome,
        submitted: job.submitted,
        first_dispatch: job.first_dispatch,
        finished: now,
        tasks_run: job.tasks_run,
        tasks_cancelled: job.tasks_cancelled,
        flops: job.flops_done,
    }
}

/// Marks a job cancelled: drops every undispatched task, finalizes
/// immediately if nothing is in flight. Returns `false` if the job is
/// unknown or already cancelled/failed-and-draining.
fn cancel_job_locked(
    st: &mut State,
    id: JobId,
    reason: CancelReason,
    now: f64,
    done: &mut Vec<(JobReport, JobWatch)>,
) -> bool {
    let Some(job) = st.jobs.get_mut(&id) else { return false };
    if job.cancel_reason.is_some() {
        return false;
    }
    job.cancel_reason = Some(reason);
    job.ready.clear();
    for t in 0..job.slots.len() {
        if let Some(body) = job.slots[t].take() {
            drop(body);
            job.cancelled[t] = true;
            job.tasks_cancelled += 1;
            job.remaining -= 1;
        }
    }
    debug_assert_eq!(job.remaining, job.in_flight);
    if job.remaining == 0 {
        let job = st.jobs.remove(&id).expect("job present");
        let watch = job.watch.clone();
        done.push((build_report(id, job, now), watch));
    }
    true
}

/// Cancels jobs whose deadline passed. Called at dispatch points.
fn expire_deadlines(inner: &Inner, st: &mut State, done: &mut Vec<(JobReport, JobWatch)>) {
    let now = inner.now();
    let expired: Vec<JobId> = st
        .jobs
        .iter()
        .filter(|(_, j)| j.cancel_reason.is_none() && j.deadline.is_some_and(|d| now >= d))
        .map(|(&id, _)| id)
        .collect();
    for id in expired {
        cancel_job_locked(st, id, CancelReason::Deadline, now, done);
    }
}

/// A dispatched task, ready to run outside the lock.
struct Dispatch {
    job: JobId,
    task: TaskId,
    label: TaskLabel,
    flops: f64,
    body: DynJob,
}

/// Picks the highest-priority ready task of the min-pass runnable job.
fn try_dispatch(inner: &Inner, st: &mut State) -> Option<Dispatch> {
    let jid = st
        .jobs
        .iter()
        .filter(|(_, j)| j.runnable())
        .min_by(|(ai, a), (bi, b)| a.pass.total_cmp(&b.pass).then(ai.cmp(bi)))
        .map(|(&id, _)| id)?;
    let job = st.jobs.get_mut(&jid).expect("job present");
    let Ready { task, .. } = job.ready.pop().expect("runnable job has a ready task");
    let body = job.slots[task].take().expect("task dispatched twice");
    let meta = &job.metas[task];
    let flops = meta.flops;
    let label = meta.label;
    job.in_flight += 1;
    job.pass += flops.max(1.0) / job.weight;
    if job.first_dispatch.is_none() {
        job.first_dispatch = Some(inner.now());
    }
    Some(Dispatch { job: jid, task, label, flops, body })
}

/// Records a finished task: releases successors (or cancels the failure
/// closure), finalizes the job when its last task is accounted. Returns
/// how many new tasks became ready.
#[allow(clippy::too_many_arguments)]
fn complete_task(
    st: &mut State,
    jid: JobId,
    task: TaskId,
    label: TaskLabel,
    flops: f64,
    lane: usize,
    failure: Option<(String, bool)>,
    now: f64,
    done: &mut Vec<(JobReport, JobWatch)>,
) -> usize {
    let job = st.jobs.get_mut(&jid).expect("in-flight job present");
    job.in_flight -= 1;
    job.remaining -= 1;
    job.tasks_run += 1;
    job.flops_done += flops;
    let mut released = 0usize;
    match failure {
        Some((message, panicked)) => {
            // Cancel the transitive successors inside this job. Every
            // member of the closure is undispatched (its path to the failed
            // task goes through a predecessor that never completed), unless
            // a whole-job cancel already dropped it.
            let mut newly = Vec::new();
            let mut stack: Vec<TaskId> = job.succs[task].clone();
            while let Some(s) = stack.pop() {
                if !job.cancelled[s] {
                    job.cancelled[s] = true;
                    if job.slots[s].take().is_some() {
                        job.tasks_cancelled += 1;
                        job.remaining -= 1;
                        newly.push(s);
                    }
                    stack.extend(job.succs[s].iter().copied());
                }
            }
            match job.failure.as_mut() {
                None => {
                    newly.sort_unstable();
                    job.failure = Some(ExecError {
                        task,
                        label,
                        lane,
                        message,
                        panicked,
                        cancelled: newly,
                    });
                }
                Some(f) => {
                    f.cancelled.extend(newly);
                    f.cancelled.sort_unstable();
                    f.cancelled.dedup();
                }
            }
        }
        None => {
            if job.cancel_reason.is_none() {
                for s in job.succs[task].clone() {
                    job.preds[s] -= 1;
                    if job.preds[s] == 0 && !job.cancelled[s] {
                        job.ready.push(Ready { priority: job.metas[s].priority, task: s });
                        released += 1;
                    }
                }
            }
        }
    }
    if job.remaining == 0 {
        let job = st.jobs.remove(&jid).expect("job present");
        let watch = job.watch.clone();
        done.push((build_report(jid, job, now), watch));
    }
    released
}

fn worker_loop(inner: &Inner, lane: usize) {
    // Whether this thread has published the flight recorder as its context.
    let mut published = false;
    loop {
        // --- Acquire work (or exit on shutdown).
        let mut more_ready = false;
        let dispatch = {
            let mut st = inner.state.lock().expect("frontier lock");
            loop {
                let mut done = Vec::new();
                expire_deadlines(inner, &mut st, &mut done);
                if !done.is_empty() {
                    drop(st);
                    inner.deliver(done);
                    st = inner.state.lock().expect("frontier lock");
                    continue;
                }
                if let Some(d) = try_dispatch(inner, &mut st) {
                    more_ready = st.jobs.values().any(JobState::runnable);
                    break Some(d);
                }
                if st.shutdown {
                    break None;
                }
                let (guard, _) =
                    inner.cv.wait_timeout(st, IDLE_SWEEP).expect("frontier lock");
                st = guard;
            }
        };
        // Chained wakeup: if ready tasks remain beyond the one this worker
        // took, wake exactly one peer (which wakes the next, and so on)
        // instead of thundering the whole pool on every transition.
        if more_ready {
            inner.cv.notify_one();
        }
        let Some(Dispatch { job: jid, task, label, flops, body }) = dispatch else {
            return;
        };

        // --- Run the task outside the lock.
        let counters = telemetry::sched_counters();
        counters.tasks_dispatched.inc();
        if let Some(rec) = inner.recorder.get() {
            // Publish the recorder as this thread's context — once, the
            // first time it is seen attached — so recovery-layer events
            // (retry/restore/inject) land on this worker's lane, then note
            // the dispatch itself.
            if !published {
                telemetry::set_thread_recorder(Arc::downgrade(rec), lane);
                published = true;
            }
            rec.record(lane, FlightEventKind::Dispatch, jid, Some(label));
        }
        let start = inner.now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        let end = inner.now();
        {
            let mut l = inner.lanes[lane].lock().expect("lane lock");
            l.busy += end - start;
            if inner.tracing.load(Ordering::Relaxed) {
                // The claim happened under the state lock just above; the
                // frontier takes no separate dispatch stamp.
                l.log.tasks.push(TaskRec { task, label, dispatch: start, start, end });
            }
        }
        let failure = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(f)) => Some((f.message, false)),
            Err(p) => Some((panic_message(p.as_ref()), true)),
        };
        if failure.is_none() {
            counters.tasks_completed.inc();
        } else {
            counters.tasks_failed.inc();
        }
        if let Some(rec) = inner.recorder.get() {
            let kind =
                if failure.is_none() { FlightEventKind::TaskOk } else { FlightEventKind::TaskFail };
            rec.record(lane, kind, jid, Some(label));
        }

        // --- Account under the lock, deliver reports off it.
        let mut done = Vec::new();
        let released = {
            let mut st = inner.state.lock().expect("frontier lock");
            complete_task(&mut st, jid, task, label, flops, lane, failure, end, &mut done)
        };
        // This worker loops straight back into dispatch, so it needs no
        // wakeup itself; wake one peer per additional released task (the
        // chained wakeup above keeps the pool saturated from there).
        for _ in 0..released.saturating_sub(1).min(inner.nworkers) {
            inner.cv.notify_one();
        }
        inner.deliver(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TaskFailure;
    use crate::task::{TaskKind, TaskMeta};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    fn meta(priority: i64, flops: f64) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops).with_priority(priority)
    }

    fn chain(
        g: &mut TaskGraph<DynJob>,
        n: usize,
        tag: usize,
        order: &Arc<Mutex<Vec<(usize, usize)>>>,
    ) {
        let mut prev = None;
        for i in 0..n {
            let order = Arc::clone(order);
            let id = g.add_task(meta(0, 1.0), dyn_job(move || {
                order.lock().unwrap().push((tag, i));
            }));
            if let Some(p) = prev {
                g.add_dep(p, id);
            }
            prev = Some(id);
        }
    }

    #[test]
    fn jobs_complete_with_reports() {
        let f = MultiFrontier::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g1: TaskGraph<DynJob> = TaskGraph::new();
        chain(&mut g1, 5, 1, &order);
        let mut g2: TaskGraph<DynJob> = TaskGraph::new();
        chain(&mut g2, 3, 2, &order);
        let (_, w1) = f.submit(g1, JobOptions::default());
        let (_, w2) = f.submit(g2, JobOptions::default());
        let r1 = w1.wait();
        let r2 = w2.wait();
        assert!(r1.outcome.is_completed());
        assert!(r2.outcome.is_completed());
        assert_eq!(r1.tasks_run, 5);
        assert_eq!(r2.tasks_run, 3);
        assert!(r1.total_seconds() >= 0.0);
        let o = order.lock().unwrap();
        for tag in [1usize, 2] {
            let steps: Vec<usize> =
                o.iter().filter(|(t, _)| *t == tag).map(|&(_, i)| i).collect();
            let sorted: Vec<usize> = (0..steps.len()).collect();
            assert_eq!(steps, sorted, "intra-job order violated for job {tag}");
        }
        f.shutdown();
    }

    #[test]
    fn weighted_fair_sharing_biases_dispatch() {
        // One worker, two jobs of independent equal-flops tasks: the
        // weight-3 job must receive about 3× the dispatches of the
        // weight-1 job over any prefix.
        let f = MultiFrontier::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mk = |tag: usize| {
            let mut g: TaskGraph<DynJob> = TaskGraph::new();
            for i in 0..40 {
                let order = Arc::clone(&order);
                g.add_task(meta(0, 100.0), dyn_job(move || {
                    order.lock().unwrap().push((tag, i));
                }));
            }
            g
        };
        // Stall the worker so both jobs are admitted before dispatch.
        let (tx, rx) = mpsc::channel::<()>();
        let mut gate: TaskGraph<DynJob> = TaskGraph::new();
        gate.add_task(meta(0, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        let (_, wg) = f.submit(gate, JobOptions::default());
        let (_, w1) = f.submit(mk(1), JobOptions::default().with_weight(1.0));
        let (_, w3) = f.submit(mk(3), JobOptions::default().with_weight(3.0));
        tx.send(()).unwrap();
        wg.wait();
        w1.wait();
        w3.wait();
        let o = order.lock().unwrap();
        let heavy_in_prefix =
            o.iter().take(40).filter(|(t, _)| *t == 3).count();
        assert!(
            (27..=33).contains(&heavy_in_prefix),
            "weight-3 job got {heavy_in_prefix}/40 of the first dispatches"
        );
        drop(o);
        f.shutdown();
    }

    #[test]
    fn intra_job_priority_is_preserved() {
        // Single worker: within one job, ready tasks dispatch in priority
        // order exactly like the one-shot pool.
        let f = MultiFrontier::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<()>();
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(meta(100, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        for (i, p) in [(0usize, 1i64), (1, 5), (2, 3)] {
            let order = Arc::clone(&order);
            g.add_task(meta(p, 1.0), dyn_job(move || {
                order.lock().unwrap().push(i);
            }));
        }
        let (_, w) = f.submit(g, JobOptions::default());
        tx.send(()).unwrap();
        w.wait();
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 0]);
        f.shutdown();
    }

    #[test]
    fn failure_is_isolated_to_its_job() {
        let f = MultiFrontier::new(2);
        let ok_runs = Arc::new(AtomicUsize::new(0));

        let mut bad: TaskGraph<DynJob> = TaskGraph::new();
        let a = bad.add_task(
            meta(0, 1.0),
            Box::new(|| Err(TaskFailure::new("numerical breakdown"))),
        );
        let b = bad.add_task(meta(0, 1.0), dyn_job(|| {}));
        let c = bad.add_task(meta(0, 1.0), dyn_job(|| {}));
        bad.add_dep(a, b);
        bad.add_dep(b, c);

        let mut good: TaskGraph<DynJob> = TaskGraph::new();
        for _ in 0..20 {
            let ok = Arc::clone(&ok_runs);
            good.add_task(meta(0, 1.0), dyn_job(move || {
                ok.fetch_add(1, Ordering::SeqCst);
            }));
        }

        let (_, wb) = f.submit(bad, JobOptions::default());
        let (_, wg) = f.submit(good, JobOptions::default());
        let rb = wb.wait();
        let rg = wg.wait();
        match rb.outcome {
            JobOutcome::Failed(e) => {
                assert_eq!(e.task, a);
                assert!(e.message.contains("numerical breakdown"));
                assert_eq!(e.cancelled, vec![b, c]);
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(rb.tasks_run, 1);
        assert_eq!(rb.tasks_cancelled, 2);
        assert!(rg.outcome.is_completed());
        assert_eq!(ok_runs.load(Ordering::SeqCst), 20);
        f.shutdown();
    }

    #[test]
    fn cancelling_one_job_leaves_others_untouched() {
        // Single worker blocked on a gate: cancel job B before it can
        // start; job A must still complete fully.
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let b_ran = Arc::new(AtomicUsize::new(0));

        let mut ga: TaskGraph<DynJob> = TaskGraph::new();
        let gate = ga.add_task(meta(0, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        let after = ga.add_task(meta(0, 1.0), dyn_job(|| {}));
        ga.add_dep(gate, after);

        let mut gb: TaskGraph<DynJob> = TaskGraph::new();
        for _ in 0..4 {
            let b = Arc::clone(&b_ran);
            gb.add_task(meta(0, 1.0), dyn_job(move || {
                b.fetch_add(1, Ordering::SeqCst);
            }));
        }

        let (_, wa) = f.submit(ga, JobOptions::default());
        let (idb, wb) = f.submit(gb, JobOptions::default());
        assert!(f.cancel(idb));
        assert!(!f.cancel(idb), "double cancel must be a no-op");
        tx.send(()).unwrap();
        let ra = wa.wait();
        let rb = wb.wait();
        assert!(ra.outcome.is_completed());
        assert_eq!(ra.tasks_run, 2);
        assert!(matches!(rb.outcome, JobOutcome::Cancelled(CancelReason::User)));
        assert_eq!(rb.tasks_run, 0);
        assert_eq!(rb.tasks_cancelled, 4);
        assert_eq!(b_ran.load(Ordering::SeqCst), 0, "cancelled job body ran");
        f.shutdown();
    }

    #[test]
    fn expired_deadline_cancels_before_dispatch() {
        let f = MultiFrontier::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        let r = Arc::clone(&ran);
        g.add_task(meta(0, 1.0), dyn_job(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        let (_, w) =
            f.submit(g, JobOptions::default().with_deadline(Duration::ZERO));
        let report = w.wait();
        assert!(matches!(
            report.outcome,
            JobOutcome::Cancelled(CancelReason::Deadline)
        ));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        f.shutdown();
    }

    #[test]
    fn shed_oldest_picks_first_queued_job() {
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let mut gate: TaskGraph<DynJob> = TaskGraph::new();
        gate.add_task(meta(0, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        let (_, wg) = f.submit(gate, JobOptions::default());
        // Give the worker time to pick up the gate so it is "running".
        while f.queued_jobs() > 0 {
            std::thread::yield_now();
        }
        let mk = || {
            let mut g: TaskGraph<DynJob> = TaskGraph::new();
            g.add_task(meta(0, 1.0), dyn_job(|| {}));
            g
        };
        let (id1, w1) = f.submit(mk(), JobOptions::default());
        let (_id2, w2) = f.submit(mk(), JobOptions::default());
        assert_eq!(f.shed_oldest_queued(), Some(id1));
        let r1 = w1.wait();
        assert!(matches!(r1.outcome, JobOutcome::Cancelled(CancelReason::Shed)));
        tx.send(()).unwrap();
        assert!(wg.wait().outcome.is_completed());
        assert!(w2.wait().outcome.is_completed());
        f.shutdown();
    }

    #[test]
    fn shutdown_cancels_pending_and_is_idempotent() {
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let mut gate: TaskGraph<DynJob> = TaskGraph::new();
        gate.add_task(meta(0, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        let (_, wg) = f.submit(gate, JobOptions::default());
        while f.queued_jobs() > 0 {
            std::thread::yield_now();
        }
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(meta(0, 1.0), dyn_job(|| {}));
        let (_, wq) = f.submit(g, JobOptions::default());
        tx.send(()).unwrap();
        f.shutdown();
        f.shutdown();
        // The gate job ran its only task; the queued job may have been
        // cancelled or may have slipped in before shutdown — either way
        // both watches must resolve.
        assert!(wg.try_get().is_some());
        assert!(wq.try_get().is_some());
        // Submissions after shutdown resolve immediately as cancelled.
        let mut g2: TaskGraph<DynJob> = TaskGraph::new();
        g2.add_task(meta(0, 1.0), dyn_job(|| {}));
        let (_, w2) = f.submit(g2, JobOptions::default());
        assert!(matches!(
            w2.wait().outcome,
            JobOutcome::Cancelled(CancelReason::Shutdown)
        ));
    }

    #[test]
    fn watch_timeout_reports_running_job() {
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(meta(0, 1.0), dyn_job(move || {
            rx.recv().unwrap();
        }));
        let (_, w) = f.submit(g, JobOptions::default());
        assert!(w.wait_timeout(Duration::from_millis(10)).is_none());
        assert!(!w.is_done());
        tx.send(()).unwrap();
        assert!(w.wait_timeout(Duration::from_secs(10)).is_some());
        f.shutdown();
    }
}

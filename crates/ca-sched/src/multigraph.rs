//! The worker loop of `ca-sched`: the frontier's policy on the wall clock,
//! behind two front doors.
//!
//! A [`Core`] holds a [`Frontier`] of admitted task graphs ("jobs") and `n`
//! worker lanes. Every lane runs [`Core::worker`]: pick a ready task under
//! the state lock, run it under `catch_unwind` with the lock released, then
//! under the lock again complete it in the frontier and pick the next one.
//! Which task runs next is the frontier's policy, the one [`crate::simulate`]
//! replays; the core adds what needs a clock or threads. The two doors
//! differ only in who owns the core and its threads:
//!
//! * [`crate::execute`] puts a core on the caller's stack, admits one job
//!   and closes the core; lane 0 runs on the calling thread and the others
//!   on scoped threads, so the job may borrow.
//! * [`MultiFrontier`] keeps a core behind an `Arc` with `n` spawned
//!   threads that serve `'static` jobs until [`MultiFrontier::shutdown`].
//!
//! A job can be cancelled as a whole (user cancel, deadline, load shedding,
//! shutdown): undispatched tasks are dropped, in-flight tasks run to
//! completion, and the job finalizes with a [`JobOutcome::Cancelled`].
//! Deadlines are enforced at dispatch points — a worker picking a task or
//! finishing one — so a deadline never preempts a running kernel, and a job
//! whose last task ends past its deadline ends cancelled, not completed. An
//! idle worker has nothing to enforce: it would have dispatched any ready
//! task, and work in flight ends on its own.

use crate::exec::{DynJob, Job};
use crate::fault::{panic_message, ExecError};
use crate::frontier::{Entry, Frontier, Pick};
use crate::graph::TaskGraph;
use crate::log::{JobLog, TaskRec};
use crate::profile::Profile;
use crate::retry::{take_note, RecoveryStats};
use crate::telemetry::{self, FlightEventKind, FlightRecorder};
use crate::trace::Timeline;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies a job (an admitted task graph) for its whole lifetime.
pub type JobId = u64;

/// What [`Profile::scheduler`] says of a job the worker loop ran.
const SCHEDULER: &str = "priority-queue";

/// Per-job submission options.
#[derive(Clone, Copy, Debug)]
pub struct JobOptions {
    /// Weight (> 0): divides the job's virtual length, its summed flops,
    /// so that it is tagged as finishing sooner and is served earlier.
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
    /// Sets the weight.
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
    /// Flops of the executed tasks (per their [`crate::TaskMeta`] estimates).
    pub flops: f64,
    /// What recovery did inside the job: a fold over its log.
    pub recovery: RecoveryStats,
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

/// What a finalized job leaves in its watch.
pub(crate) struct Finished {
    pub(crate) report: JobReport,
    /// Payload of the job's first task panic, for [`crate::run_graph`] to
    /// re-raise.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
    /// What the job ran: what its [`Profile`] and timeline are views of.
    /// Freed with the last clone of the watch.
    pub(crate) log: JobLog,
}

/// Completion watch for one job: cloneable, fulfilled exactly once.
#[derive(Clone)]
pub struct JobWatch {
    inner: Arc<WatchInner>,
}

struct WatchInner {
    slot: Mutex<Option<Finished>>,
    cv: Condvar,
}

impl JobWatch {
    fn new() -> Self {
        Self { inner: Arc::new(WatchInner { slot: Mutex::new(None), cv: Condvar::new() }) }
    }

    fn fulfill(&self, finished: Finished) {
        let mut slot = self.inner.slot.lock();
        debug_assert!(slot.is_none(), "job finalized twice");
        *slot = Some(finished);
        self.inner.cv.notify_all();
    }

    /// Takes everything the finalized job left, emptying the watch.
    pub(crate) fn take(&self) -> Option<Finished> {
        self.inner.slot.lock().take()
    }

    /// The report, if the job already finished.
    pub fn try_get(&self) -> Option<JobReport> {
        self.inner.slot.lock().as_ref().map(|f| f.report.clone())
    }

    /// `true` once the job reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.inner.slot.lock().is_some()
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobReport {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(f) = slot.as_ref() {
                return f.report.clone();
            }
            self.inner.cv.wait(&mut slot);
        }
    }

    /// Blocks up to `timeout`; `None` if the job is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobReport> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(f) = slot.as_ref() {
                return Some(f.report.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.inner.cv.wait_for(&mut slot, left);
        }
    }
}

/// What the worker loop keeps per job beside the frontier's entry.
struct JobState {
    /// Absolute deadline (seconds since epoch).
    deadline: Option<f64>,
    /// The report as it stands: stamps and the outcome accumulate here,
    /// [`Core::finalize`] adds counts, flops and the finish time. The first
    /// failure wins over a whole-job cancel and over later failures, which
    /// only extend its cancelled set.
    report: JobReport,
    panic: Option<Box<dyn Any + Send>>,
    watch: JobWatch,
}

struct State<'s> {
    /// Active jobs, each with the loop's [`JobState`] on its entry.
    frontier: Frontier<Job<'s>, JobState>,
    /// Active jobs that carry a deadline; dispatch points sweep only then.
    deadlines: usize,
    /// No further admissions; workers return once no job is active.
    closed: bool,
}

/// Hook invoked (off-lock) with every finalized job's report.
type CompletionHook = Box<dyn Fn(&JobReport) + Send + Sync>;

/// Finalized jobs on their way to [`Core::deliver`].
type Done = Vec<(Finished, JobWatch)>;

/// How a task body failed.
struct Failure {
    message: String,
    /// The panic payload, if it panicked rather than returned `Err`.
    payload: Option<Box<dyn Any + Send>>,
}

/// Admitted jobs plus the worker lanes that run them (see the module docs).
pub(crate) struct Core<'s> {
    state: Mutex<State<'s>>,
    /// Signalled after a state change that gives a waiting worker something
    /// to do: tasks became ready, or the closed core ran out of jobs.
    cv: Condvar,
    epoch: Instant,
    next_job: AtomicU64,
    /// Per worker lane, the seconds it spent in task bodies
    /// ([`MultiFrontier::busy_seconds`]); written by that worker only.
    lanes: Vec<Mutex<f64>>,
    /// Whether finalized jobs' records are kept for the core-wide
    /// [`MultiFrontier::timeline`]. Off by default because a service runs
    /// for days; every job has its own log either way.
    tracing: AtomicBool,
    retained: Mutex<Vec<TaskRec>>,
    on_complete: Option<CompletionHook>,
    /// Optional flight recorder (attached once via
    /// [`MultiFrontier::set_flight_recorder`]).
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl<'s> Core<'s> {
    /// A core with `nworkers` lanes and no thread: the caller decides where
    /// [`Core::worker`] runs.
    ///
    /// # Panics
    /// If `nworkers == 0`.
    pub(crate) fn new(nworkers: usize, on_complete: Option<CompletionHook>) -> Self {
        assert!(nworkers > 0, "need at least one worker");
        Self {
            state: Mutex::new(State { frontier: Frontier::new(), deadlines: 0, closed: false }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            next_job: AtomicU64::new(0),
            lanes: (0..nworkers).map(|_| Mutex::default()).collect(),
            tracing: AtomicBool::new(false),
            retained: Mutex::default(),
            on_complete,
            recorder: OnceLock::new(),
        }
    }

    /// Seconds since the core was created.
    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Admits a job at instant `now`. Its tasks become eligible at once and
    /// the returned watch resolves when it reaches a terminal state —
    /// immediately, as [`CancelReason::Shutdown`], if the core is closed.
    pub(crate) fn admit(
        &self,
        graph: TaskGraph<Job<'s>>,
        opts: JobOptions,
        now: f64,
    ) -> (JobId, JobWatch) {
        assert!(opts.weight > 0.0 && opts.weight.is_finite(), "weight must be positive");
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        telemetry::sched_counters().jobs_submitted.inc();
        if let Some(rec) = self.recorder.get() {
            rec.record(rec.nworkers(), FlightEventKind::JobSubmit, id, None);
        }
        let n = graph.len();
        let watch = JobWatch::new();
        let job = JobState {
            deadline: opts.deadline.map(|d| now + d.as_secs_f64()),
            report: JobReport {
                job: id,
                tag: opts.tag,
                outcome: JobOutcome::Completed,
                submitted: now,
                first_dispatch: None,
                finished: now,
                tasks_run: 0,
                tasks_cancelled: 0,
                flops: 0.0,
                recovery: RecoveryStats::default(),
            },
            panic: None,
            watch: watch.clone(),
        };
        let entry = Entry::new(graph, opts.weight, now, job);

        let mut done = Done::new();
        let roots = {
            let mut st = self.state.lock();
            st.deadlines += usize::from(opts.deadline.is_some());
            let roots = st.frontier.admit(id, entry);
            if st.closed {
                self.cancel_locked(&mut st, id, CancelReason::Shutdown, now, &mut done);
            } else if n == 0 {
                self.finalize(&mut st, id, now, &mut done);
            }
            roots
        };
        if done.is_empty() {
            // Wake one worker per root task (capped at the pool size); the
            // workers' chained wakeups take it from there.
            for _ in 0..roots.min(self.lanes.len()) {
                self.cv.notify_one();
            }
        } else {
            self.deliver(done);
        }
        (id, watch)
    }

    /// Stops admission; every [`Core::worker`] returns once no job is
    /// active.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }

    /// Folds a finished job into the process-wide counters — its tasks by
    /// outcome, the job by outcome, the probes recovery ran — and records
    /// its end on the flight recorder's external lane.
    fn note_job_end(&self, report: &JobReport, log: &JobLog) {
        use {CancelReason::*, FlightEventKind as Ev, JobOutcome::*};
        let c = telemetry::sched_counters();
        let (ran, failed) = (log.recs.len(), log.recs.iter().filter(|r| r.failed).count());
        c.tasks_dispatched.add(ran as u64);
        c.tasks_completed.add((ran - failed) as u64);
        c.tasks_failed.add(failed as u64);
        c.probes_run.add(report.recovery.probes);
        c.probe_failures.add(report.recovery.probe_failures);
        c.jobs_cancelled.add(u64::from(matches!(report.outcome, Cancelled(_))));
        let (kind, by_outcome) = match &report.outcome {
            Completed => (Ev::JobDone, Some(&c.jobs_completed)),
            Failed(_) => (Ev::JobFail, Some(&c.jobs_failed)),
            Cancelled(Shed) => (Ev::JobShed, Some(&c.jobs_shed)),
            Cancelled(Deadline) => (Ev::JobDeadline, Some(&c.jobs_deadline_missed)),
            Cancelled(User | Shutdown) => (Ev::JobCancel, None),
        };
        if let Some(n) = by_outcome {
            n.inc();
        }
        if let Some(rec) = self.recorder.get() {
            rec.record(rec.nworkers(), kind, report.job, None);
        }
    }

    /// Delivers finalized jobs, of both front doors: counters and hook first
    /// (so aggregated stats are current before waiters wake), then the
    /// watch. Never called with the state lock held.
    fn deliver(&self, done: Done) {
        for (mut finished, watch) in done {
            finished.report.recovery = finished.log.recovery();
            self.note_job_end(&finished.report, &finished.log);
            if self.tracing.load(Ordering::Relaxed) {
                self.retained.lock().extend_from_slice(&finished.log.recs);
            }
            if let Some(hook) = &self.on_complete {
                hook(&finished.report);
            }
            watch.fulfill(finished);
        }
    }

    /// Removes a job whose last task is accounted and queues its report.
    fn finalize(&self, st: &mut State<'s>, id: JobId, now: f64, done: &mut Done) {
        let Some((log, job)) = st.frontier.finish(id, SCHEDULER, self.lanes.len()) else { return };
        st.deadlines -= usize::from(job.deadline.is_some());
        let mut report = job.report;
        report.finished = now;
        report.tasks_run = log.recs.len();
        report.tasks_cancelled = log.cancelled.len();
        report.flops = log.recs.iter().fold(0.0, |f, r| f + log.metas[r.task].flops);
        done.push((Finished { report, panic: job.panic, log }, job.watch));
        if st.closed && st.frontier.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Marks a job cancelled: drops every undispatched task and its
    /// deadline, finalizes immediately if nothing is in flight. Returns
    /// `false` if the job is unknown or already cancelled, or if a
    /// [`CancelReason::User`] cancel would drop nothing: every task left is
    /// in flight, so the job completes with what they compute.
    fn cancel_locked(
        &self,
        st: &mut State<'s>,
        id: JobId,
        reason: CancelReason,
        now: f64,
        done: &mut Done,
    ) -> bool {
        if reason == CancelReason::User && st.frontier.undispatched(id) == Some(0) {
            return false;
        }
        let Some((job, job_done)) = st.frontier.drop_undispatched(id) else { return false };
        if job.report.outcome.is_completed() {
            job.report.outcome = JobOutcome::Cancelled(reason);
        }
        st.deadlines -= usize::from(job.deadline.take().is_some());
        if job_done {
            self.finalize(st, id, now, done);
        }
        true
    }

    fn cancel(&self, id: JobId, reason: CancelReason) -> bool {
        let mut done = Done::new();
        let hit = {
            let mut st = self.state.lock();
            self.cancel_locked(&mut st, id, reason, self.now(), &mut done)
        };
        self.deliver(done);
        hit
    }

    /// Cancels jobs whose deadline passed. Called at dispatch points.
    fn expire_deadlines(&self, st: &mut State<'s>, done: &mut Done) {
        if st.deadlines == 0 {
            return;
        }
        let now = self.now();
        let expired: Vec<JobId> = st
            .frontier
            .jobs()
            .filter(|(_, j)| j.deadline.is_some_and(|d| now >= d))
            .map(|(id, _)| id)
            .collect();
        for id in expired {
            self.cancel_locked(st, id, CancelReason::Deadline, now, done);
        }
    }

    /// Accounts a finished task of job `jid`: completes it in the frontier
    /// (which logs it and releases its successors or cancels its failure
    /// closure), records a failure in the job's report, and finalizes the job
    /// when its last task is accounted.
    fn complete(
        &self,
        st: &mut State<'s>,
        jid: JobId,
        rec: TaskRec,
        failure: Option<Failure>,
        done: &mut Done,
    ) {
        let TaskRec { task, label, lane, end, .. } = rec;
        let Some((job, mut cancelled, job_done)) = st.frontier.complete(jid, rec) else { return };
        if let Some(Failure { message, payload }) = failure {
            if let JobOutcome::Failed(first) = &mut job.report.outcome {
                first.cancelled.extend(cancelled);
                first.cancelled.sort_unstable();
            } else {
                cancelled.sort_unstable();
                let panicked = payload.is_some();
                let first = ExecError { task, label, lane, message, panicked, cancelled };
                job.report.outcome = JobOutcome::Failed(first);
                job.panic = payload;
            }
        }
        if job_done {
            self.finalize(st, jid, end, done);
        }
    }

    /// The worker loop of lane `lane`: pick a task, run it, account it,
    /// until the core is closed and out of jobs. Accounting one task and
    /// claiming the next share one hold of the state lock, which is given up
    /// only to run a body, to deliver finalized jobs, or to wait — untimed:
    /// whoever makes a task ready or empties the closed core does so under
    /// the lock and signals `cv`.
    pub(crate) fn worker(&self, lane: usize) {
        // Whether this thread has published the flight recorder as its context.
        let mut published = false;
        let mut st = self.state.lock();
        let mut done = Done::new();
        loop {
            self.expire_deadlines(&mut st, &mut done);
            if !done.is_empty() {
                drop(st);
                self.deliver(std::mem::take(&mut done));
                st = self.state.lock();
                continue;
            }
            let Some(Pick { job: jid, task, meta, payload: body, x: job }) = st.frontier.pick()
            else {
                if st.closed && st.frontier.is_empty() {
                    return;
                }
                self.cv.wait(&mut st);
                continue;
            };
            let (label, deadline) = (meta.label, job.deadline);
            if job.report.first_dispatch.is_none() {
                job.report.first_dispatch = Some(self.now());
            }
            // Whatever is still ready wants a peer each; a signal nobody
            // waits for costs nothing.
            let ready = st.frontier.ready_len();
            drop(st);
            for _ in 0..ready.min(self.lanes.len() - 1) {
                self.cv.notify_one();
            }

            if let Some(rec) = self.recorder.get() {
                // Publish the recorder as this thread's context — once, the
                // first time it is seen attached — and the claimed task's
                // job beside it, so recovery-layer events
                // (retry/restore/inject) land on this worker's lane under
                // the right job, then note the dispatch itself.
                if !published {
                    telemetry::set_thread_recorder(Arc::downgrade(rec), lane);
                    published = true;
                }
                telemetry::set_thread_job(jid);
                rec.record(lane, FlightEventKind::Dispatch, jid, Some(label));
            }
            let start = self.now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            let end = self.now();
            let note = take_note();
            *self.lanes[lane].lock() += end - start;
            let failure = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(f)) => Some(Failure { message: f.message, payload: None }),
                Err(p) => Some(Failure { message: panic_message(p.as_ref()), payload: Some(p) }),
            };
            let failed = failure.is_some();
            if let Some(rec) = self.recorder.get() {
                let kind = if failed { FlightEventKind::TaskFail } else { FlightEventKind::TaskOk };
                rec.record(lane, kind, jid, Some(label));
            }

            st = self.state.lock();
            // Finishing a task is a dispatch point too: a deadline that
            // passed while it ran ends its job before anything is released.
            if deadline.is_some_and(|d| end >= d) {
                self.cancel_locked(&mut st, jid, CancelReason::Deadline, end, &mut done);
            }
            let rec = TaskRec { task, label, lane, start, end, note, failed };
            self.complete(&mut st, jid, rec, failure, &mut done);
        }
    }
}

/// A persistent pool of workers multiplexing many task graphs: the core
/// [`crate::execute`] runs for one job, here behind an `Arc` with the
/// threads that run its lanes. Within a job tasks dispatch by priority (the
/// paper's lookahead rule), across jobs by the earliest virtual finish
/// under weighted sharing of flops; a failure cancels only its own job's
/// transitive successors.
pub struct MultiFrontier {
    core: Arc<Core<'static>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

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
        let core = Arc::new(Core::new(nworkers, on_complete));
        let workers = (0..nworkers)
            .map(|lane| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("ca-serve-{lane}"))
                    .spawn(move || core.worker(lane))
                    .expect("spawn frontier worker")
            })
            .collect();
        Self { core, workers: Mutex::new(workers) }
    }

    /// Number of worker threads.
    pub fn nworkers(&self) -> usize {
        self.core.lanes.len()
    }

    /// Attaches a flight recorder retaining the last `depth` events per
    /// worker (plus one external lane for submit/finalize events) and
    /// returns it. Only the first attach creates a recorder; later calls
    /// return the existing one regardless of `depth`.
    pub fn set_flight_recorder(&self, depth: usize) -> Arc<FlightRecorder> {
        self.core
            .recorder
            .get_or_init(|| Arc::new(FlightRecorder::new(self.nworkers(), depth)))
            .clone()
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.core.recorder.get().cloned()
    }

    /// Submits a job. Tasks become eligible immediately; the returned
    /// [`JobWatch`] resolves when the job reaches a terminal state. If the
    /// frontier is already shut down, the job finalizes immediately with
    /// [`CancelReason::Shutdown`]. Once finished, the job can be asked for
    /// its [`MultiFrontier::job_profile`].
    ///
    /// # Panics
    /// If `opts.weight` is not positive and finite.
    pub fn submit(&self, graph: TaskGraph<DynJob>, opts: JobOptions) -> (JobId, JobWatch) {
        self.core.admit(graph, opts, self.core.now())
    }

    /// Cancels a job: undispatched tasks are dropped, in-flight tasks run
    /// to completion, the job finalizes with
    /// [`JobOutcome::Cancelled`]`(`[`CancelReason::User`]`)`. Returns
    /// `false` if the job already finished or was already cancelled, or if
    /// it has no undispatched task left: a cancel that would drop nothing
    /// comes too late, and the job completes.
    pub fn cancel(&self, id: JobId) -> bool {
        self.core.cancel(id, CancelReason::User)
    }

    /// Sheds the oldest job that has not yet dispatched any task,
    /// finalizing it with [`CancelReason::Shed`]. Returns its id, or `None`
    /// if every active job already started running.
    pub fn shed_oldest_queued(&self) -> Option<JobId> {
        let mut st = self.core.state.lock();
        let victim = st
            .frontier
            .jobs()
            .filter(|(_, j)| j.report.first_dispatch.is_none())
            .min_by(|(_, a), (_, b)| a.report.submitted.total_cmp(&b.report.submitted))
            .map(|(id, _)| id)?;
        let mut done = Done::new();
        let now = self.core.now();
        self.core.cancel_locked(&mut st, victim, CancelReason::Shed, now, &mut done);
        drop(st);
        self.core.deliver(done);
        Some(victim)
    }

    /// Jobs admitted and not yet finalized.
    pub fn active_jobs(&self) -> usize {
        self.core.state.lock().frontier.jobs().count()
    }

    /// Active jobs that have not dispatched any task yet.
    pub fn queued_jobs(&self) -> usize {
        let st = self.core.state.lock();
        st.frontier.jobs().filter(|(_, j)| j.report.first_dispatch.is_none()).count()
    }

    /// Enables or disables retention for the frontier-wide
    /// [`MultiFrontier::timeline`]: while on, the records of every job that
    /// finalizes are kept after the job is gone. It does not decide whether
    /// a job has a profile — every job does — and is off by default because
    /// what it keeps grows for as long as the frontier runs.
    pub fn set_tracing(&self, on: bool) {
        self.core.tracing.store(on, Ordering::Relaxed);
    }

    /// Snapshot of the frontier-wide execution timeline: the spans of the
    /// jobs that finalized while tracing was enabled (times are seconds
    /// since the frontier epoch).
    pub fn timeline(&self) -> Timeline {
        Timeline::from_log(&self.core.retained.lock(), self.nworkers(), self.core.now())
    }

    /// The full-lifecycle [`Profile`] of a finished job, built from the log
    /// the job left in its watch (freed with the last clone of the watch).
    /// Times count from the job's submission. `None` while the job runs.
    pub fn job_profile(&self, watch: &JobWatch) -> Option<Profile> {
        let slot = watch.inner.slot.lock();
        let Finished { report, log, .. } = slot.as_ref()?;
        Some(Profile::from_log(log, report.finished - report.submitted))
    }

    /// Total seconds workers spent executing task bodies since start.
    pub fn busy_seconds(&self) -> f64 {
        self.core.lanes.iter().map(|l| *l.lock()).sum()
    }

    /// Seconds since the frontier started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.core.now()
    }

    /// Shuts down: cancels every active job with [`CancelReason::Shutdown`]
    /// (in-flight tasks finish), then joins the workers. Idempotent;
    /// submissions after shutdown finalize immediately as cancelled.
    pub fn shutdown(&self) {
        self.core.close();
        let active: Vec<JobId> = self.core.state.lock().frontier.jobs().map(|(id, _)| id).collect();
        for id in active {
            self.core.cancel(id, CancelReason::Shutdown);
        }
        let workers = std::mem::take(&mut *self.workers.lock());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyn_job;
    use crate::fault::TaskFailure;
    use crate::task::{TaskKind, TaskLabel, TaskMeta};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Mutex};

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
            let id = g.add_task(
                meta(0, 1.0),
                dyn_job(move || {
                    order.lock().unwrap().push((tag, i));
                }),
            );
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
            let steps: Vec<usize> = o.iter().filter(|(t, _)| *t == tag).map(|&(_, i)| i).collect();
            let sorted: Vec<usize> = (0..steps.len()).collect();
            assert_eq!(steps, sorted, "intra-job order violated for job {tag}");
        }
        f.shutdown();
    }

    #[test]
    fn failure_is_isolated_to_its_job() {
        let f = MultiFrontier::new(2);
        let ok_runs = Arc::new(AtomicUsize::new(0));

        let mut bad: TaskGraph<DynJob> = TaskGraph::new();
        let a =
            bad.add_task(meta(0, 1.0), Box::new(|| Err(TaskFailure::new("numerical breakdown"))));
        let b = bad.add_task(meta(0, 1.0), dyn_job(|| {}));
        let c = bad.add_task(meta(0, 1.0), dyn_job(|| {}));
        bad.add_dep(a, b);
        bad.add_dep(b, c);

        let mut good: TaskGraph<DynJob> = TaskGraph::new();
        for _ in 0..20 {
            let ok = Arc::clone(&ok_runs);
            good.add_task(
                meta(0, 1.0),
                dyn_job(move || {
                    ok.fetch_add(1, Ordering::SeqCst);
                }),
            );
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
        let gate = ga.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                rx.recv().unwrap();
            }),
        );
        let after = ga.add_task(meta(0, 1.0), dyn_job(|| {}));
        ga.add_dep(gate, after);

        let mut gb: TaskGraph<DynJob> = TaskGraph::new();
        for _ in 0..4 {
            let b = Arc::clone(&b_ran);
            gb.add_task(
                meta(0, 1.0),
                dyn_job(move || {
                    b.fetch_add(1, Ordering::SeqCst);
                }),
            );
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
    fn a_cancel_that_would_drop_nothing_lets_the_job_complete() {
        // The job's only task has started: nothing is left to drop, so the
        // cancel is refused and the job reports what the task computed.
        let f = MultiFrontier::new(1);
        let (started_tx, started) = mpsc::channel::<()>();
        let (release, rx) = mpsc::channel::<()>();
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                started_tx.send(()).unwrap();
                rx.recv().unwrap();
            }),
        );
        let (id, w) = f.submit(g, JobOptions::default());
        started.recv().unwrap();
        assert!(!f.cancel(id), "a cancel that drops nothing is too late");
        release.send(()).unwrap();
        let report = w.wait();
        assert!(report.outcome.is_completed(), "{:?}", report.outcome);
        assert_eq!((report.tasks_run, report.tasks_cancelled), (1, 0));
        f.shutdown();
    }

    #[test]
    fn a_small_job_overtakes_a_big_one_it_would_finish_before() {
        // One lane, held by the first of the big job's four 100-flop tasks
        // (tag 400). A one-task job submitted meanwhile is tagged
        // V + 1 = 101: it runs as soon as the lane frees, before the big
        // job's second task.
        let f = MultiFrontier::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = |who: &'static str, i: usize| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push((who, i))
        };
        let (started_tx, started) = mpsc::channel::<()>();
        let (release, rx) = mpsc::channel::<()>();
        let mut big: TaskGraph<DynJob> = TaskGraph::new();
        let first = log("big", 0);
        let mut prev = big.add_task(
            meta(0, 100.0),
            dyn_job(move || {
                started_tx.send(()).unwrap();
                rx.recv().unwrap();
                first();
            }),
        );
        for i in 1..4 {
            let t = big.add_task(meta(0, 100.0), dyn_job(log("big", i)));
            big.add_dep(prev, t);
            prev = t;
        }
        let (_, wbig) = f.submit(big, JobOptions::default());
        started.recv().unwrap();
        let mut small: TaskGraph<DynJob> = TaskGraph::new();
        small.add_task(meta(0, 1.0), dyn_job(log("small", 0)));
        let (_, wsmall) = f.submit(small, JobOptions::default());
        release.send(()).unwrap();
        assert!(wsmall.wait().outcome.is_completed());
        assert!(wbig.wait().outcome.is_completed());
        let want = [("big", 0), ("small", 0), ("big", 1), ("big", 2), ("big", 3)];
        assert_eq!(*order.lock().unwrap(), want);
        f.shutdown();
    }

    #[test]
    fn expired_deadline_cancels_before_dispatch() {
        let f = MultiFrontier::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        let r = Arc::clone(&ran);
        g.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                r.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let (_, w) = f.submit(g, JobOptions::default().with_deadline(Duration::ZERO));
        let report = w.wait();
        assert!(matches!(report.outcome, JobOutcome::Cancelled(CancelReason::Deadline)));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        f.shutdown();
    }

    #[test]
    fn deadline_passing_mid_job_cancels_at_the_next_dispatch_point() {
        // A -> B with a 5 ms deadline; A holds one worker on a channel for
        // 50 ms while the other idles with nothing to dispatch. Nobody needs
        // to notice the deadline until A ends: B is then dropped at the
        // dispatch point instead of running.
        let f = MultiFrontier::new(2);
        let (tx, rx) = mpsc::channel::<()>();
        let b_ran = Arc::new(AtomicUsize::new(0));
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        let a = g.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                rx.recv().unwrap();
            }),
        );
        let ran = Arc::clone(&b_ran);
        let b = g.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }),
        );
        g.add_dep(a, b);
        let (_, w) = f.submit(g, JobOptions::default().with_deadline(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(50));
        tx.send(()).unwrap();
        let report = w.wait();
        assert!(matches!(report.outcome, JobOutcome::Cancelled(CancelReason::Deadline)));
        assert_eq!(report.tasks_run, 1);
        assert_eq!(report.tasks_cancelled, 1);
        assert_eq!(b_ran.load(Ordering::SeqCst), 0, "B ran past the deadline");
        f.shutdown();
    }

    #[test]
    fn a_job_whose_last_task_ends_past_its_deadline_is_not_completed() {
        // The job's only task outlives its 5 ms deadline: it runs to the
        // end, but finishing it is a dispatch point, so the job ends
        // cancelled — whatever the task computed comes too late.
        let f = MultiFrontier::new(1);
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(meta(0, 1.0), dyn_job(|| std::thread::sleep(Duration::from_millis(50))));
        let (_, w) = f.submit(g, JobOptions::default().with_deadline(Duration::from_millis(5)));
        let report = w.wait();
        assert!(matches!(report.outcome, JobOutcome::Cancelled(CancelReason::Deadline)));
        assert_eq!((report.tasks_run, report.tasks_cancelled), (1, 0));
        f.shutdown();
    }

    #[test]
    fn shed_oldest_picks_first_queued_job() {
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let mut gate: TaskGraph<DynJob> = TaskGraph::new();
        gate.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                rx.recv().unwrap();
            }),
        );
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
        gate.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                rx.recv().unwrap();
            }),
        );
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
        assert!(matches!(w2.wait().outcome, JobOutcome::Cancelled(CancelReason::Shutdown)));
    }

    #[test]
    fn watch_timeout_reports_running_job() {
        let f = MultiFrontier::new(1);
        let (tx, rx) = mpsc::channel::<()>();
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(
            meta(0, 1.0),
            dyn_job(move || {
                rx.recv().unwrap();
            }),
        );
        let (_, w) = f.submit(g, JobOptions::default());
        assert!(w.wait_timeout(Duration::from_millis(10)).is_none());
        assert!(!w.is_done());
        tx.send(()).unwrap();
        assert!(w.wait_timeout(Duration::from_secs(10)).is_some());
        f.shutdown();
    }
}

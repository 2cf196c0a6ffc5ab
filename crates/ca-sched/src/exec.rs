//! The one-shot executor: one worker loop, two ready-queue disciplines.
//!
//! [`execute`] runs a [`TaskGraph`] of [`Job`]s to quiescence on `nthreads`
//! workers (lane 0 on the calling thread, the rest on scoped threads). Every
//! worker runs the same loop — claim a ready task, run it under
//! `catch_unwind`, then either release its successors or, on failure,
//! cancel its **transitive successors** — and differs only in the
//! [`ReadyQueue`] it claims from:
//!
//! * [`QueueKind::Central`] — one shared max-heap plus a condvar. Priorities
//!   implement the paper's lookahead-of-1 policy (the DAG builders assign
//!   them); among equal priorities, lower task id wins, which follows
//!   submission order.
//! * [`QueueKind::Stealing`] — per-worker LIFO deques plus an injector
//!   (Cilk-style). Global priorities are **not** honored, only depth-first
//!   locality — the trade-off this variant exists to expose.
//!
//! Failure semantics are the same for both: a failed or panicking task never
//! releases its successors, every task that does not depend on the failure
//! still runs, and the first failure is reported in
//! [`RunReport::failure`] with the cancelled set. Fault injection, profiling
//! and race detection are [`RunOptions`] fields; [`run_graph`] is the
//! panicking convenience over the defaults.

use crate::checked::{first_violation, CheckedError};
use crate::fault::{panic_message, ExecError, TaskResult};
use crate::graph::TaskGraph;
use crate::log::{LaneLog, Stamps, TaskRec};
use crate::profile::{Profile, StealStats};
use crate::retry::ChaosPlan;
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::trace::Timeline;
use crate::verify::SoundnessError;
use ca_matrix::ShadowRegistry;
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A unit of executable work. Borrows from the caller's scope (`'s`), so
/// tasks can capture references to a shared matrix. Returns `Ok(())` on
/// success; an `Err` (or a panic) cancels all transitive successors.
pub type Job<'s> = Box<dyn FnOnce() -> TaskResult + Send + 's>;

/// Wraps an infallible closure as a [`Job`]. This is the common case: most
/// kernels signal trouble by panicking (caught by the executor), not by
/// returning `Err`.
pub fn job<'s>(f: impl FnOnce() + Send + 's) -> Job<'s> {
    Box::new(move || {
        f();
        Ok(())
    })
}

/// Which ready-queue discipline the workers claim tasks from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Shared priority heap (the paper's dynamic scheduler).
    #[default]
    Central,
    /// Per-worker LIFO deques with stealing; ignores priorities.
    Stealing,
}

/// How [`execute`] runs a graph. `Default` is a plain run on the central
/// priority queue.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Ready-queue discipline.
    pub queue: QueueKind,
    /// Inject this plan's faults as each task starts. There is no replay at
    /// this level: an injected failure or panic fails the task like a real
    /// one (wrap bodies with [`crate::retrying_job`] to recover instead).
    pub chaos: Option<&'a ChaosPlan>,
    /// Record the full task lifecycle into [`RunReport::profile`].
    pub profile: bool,
    /// Run every job inside a [`ShadowRegistry::enter_task`] scope and report
    /// the first audited violation in [`RunReport::violation`]. The
    /// `SharedMatrix` the jobs touch must have been built with
    /// `SharedMatrix::with_shadow(_, registry)`.
    pub shadow: Option<&'a Arc<ShadowRegistry>>,
}

/// Statistics of one execution.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock execution time in seconds.
    pub wall_seconds: f64,
    /// Wall-clock timeline (always recorded; spans use `Instant` deltas):
    /// the lane-per-worker view of the run's task log.
    pub timeline: Timeline,
}

/// Everything a run (threaded or simulated) produced. A failing run still
/// carries the statistics and profile of what did execute.
pub struct RunReport {
    /// Task count, wall time and timeline of the executed tasks.
    pub stats: ExecStats,
    /// The full-lifecycle view of the same task log, present iff profiling
    /// was requested (ready stamps, queue-depth samples). Cancelled tasks
    /// appear in [`Profile::cancelled`], never as records.
    pub profile: Option<Profile>,
    /// The first task failure, with every cancelled task.
    pub failure: Option<ExecError>,
    /// The first violation the race detector (or, for the simulator, the
    /// static verifier) found.
    pub violation: Option<SoundnessError>,
    /// Payload of the first panic, for [`run_graph`] to re-raise.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
}

impl RunReport {
    /// `Err` with the task failure if there was one, else with the
    /// soundness violation if there was one.
    pub fn into_result(self) -> Result<Self, CheckedError> {
        if let Some(e) = self.failure {
            return Err(CheckedError::Exec(e));
        }
        if let Some(v) = self.violation {
            return Err(CheckedError::Soundness(v));
        }
        Ok(self)
    }
}

/// Executes the graph on `nthreads` workers, consuming it, and returns after
/// every task has either run or been cancelled because a (transitive)
/// predecessor failed.
///
/// # Panics
/// If `nthreads == 0`.
pub fn execute<'s>(
    graph: TaskGraph<Job<'s>>,
    nthreads: usize,
    opts: &RunOptions<'s>,
) -> RunReport {
    let TaskGraph { metas, mut payloads, succs, npreds } = graph;
    if let Some(plan) = opts.chaos {
        payloads = payloads
            .into_iter()
            .zip(&metas)
            .map(|(job, meta)| crate::retry::faulted_job(plan, meta.label, job))
            .collect();
    }
    if let Some(registry) = opts.shadow {
        payloads = payloads
            .into_iter()
            .enumerate()
            .map(|(id, job)| {
                let registry = Arc::clone(registry);
                Box::new(move || {
                    let _scope = registry.enter_task(id);
                    job()
                }) as Job<'s>
            })
            .collect();
    }
    let graph = TaskGraph { metas, payloads, succs, npreds };
    let mut report = match opts.queue {
        QueueKind::Central => run_workers::<CentralQueue>(graph, nthreads, opts.profile),
        QueueKind::Stealing => run_workers::<StealingQueue>(graph, nthreads, opts.profile),
    };
    report.violation = opts.shadow.and_then(|registry| first_violation(registry));
    report
}

/// [`execute`] with default options that panics on task failure: after the
/// graph has drained, the first task panic is re-raised (a non-panic
/// `TaskFailure` becomes a panic naming the task).
///
/// # Panics
/// Propagates the first task panic; panics if `nthreads == 0`.
pub fn run_graph(graph: TaskGraph<Job<'_>>, nthreads: usize) -> ExecStats {
    let report = execute(graph, nthreads, &RunOptions::default());
    if let Some(payload) = report.panic {
        std::panic::resume_unwind(payload);
    }
    if let Some(e) = report.failure {
        panic!("task {} ({}) failed: {}", e.task, e.label, e.message);
    }
    report.stats
}

/// The run's clock and, when profiling, its off-lane stamps.
struct Probe {
    t0: Instant,
    stamps: Option<Stamps>,
}

impl Probe {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

/// Where ready tasks wait. The worker loop is generic over this.
trait ReadyQueue: Sync + Sized {
    /// The part of the queue a single worker thread owns.
    type Local: Send;
    /// Scheduler name recorded in [`Profile::scheduler`].
    const NAME: &'static str;
    /// Whether workers steal from each other (the profile then keeps
    /// per-worker steal counters).
    const STEALS: bool;

    fn new(nthreads: usize) -> (Self, Vec<Self::Local>);

    /// Enqueues the graph's roots before any worker starts.
    fn seed(&self, roots: &[TaskId], metas: &[TaskMeta], probe: &Probe);

    /// Claims a ready task, waiting while none is ready; `None` once
    /// `remaining` (tasks neither executed nor cancelled) reaches zero.
    /// Steal rounds are counted into the calling lane's `steals`.
    fn pop(
        &self,
        local: &Self::Local,
        remaining: &AtomicUsize,
        probe: &Probe,
        steals: &mut StealStats,
    ) -> Option<TaskId>;

    /// Enqueues tasks the calling worker just made ready.
    fn push(&self, local: &Self::Local, ready: &[TaskId], metas: &[TaskMeta], probe: &Probe);

    /// Called once, by the worker that drove `remaining` to zero.
    fn finished(&self);
}

#[derive(PartialEq, Eq)]
struct ReadyEntry {
    priority: i64,
    id: TaskId,
}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then lower id first.
        self.priority.cmp(&other.priority).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct CentralQueue {
    ready: Mutex<BinaryHeap<ReadyEntry>>,
    cv: Condvar,
}

impl ReadyQueue for CentralQueue {
    type Local = ();
    const NAME: &'static str = "priority-queue";
    const STEALS: bool = false;

    fn new(nthreads: usize) -> (Self, Vec<()>) {
        (Self { ready: Mutex::new(BinaryHeap::new()), cv: Condvar::new() }, vec![(); nthreads])
    }

    fn seed(&self, roots: &[TaskId], metas: &[TaskMeta], probe: &Probe) {
        self.push(&(), roots, metas, probe);
    }

    fn pop(
        &self,
        _: &(),
        remaining: &AtomicUsize,
        probe: &Probe,
        _: &mut StealStats,
    ) -> Option<TaskId> {
        let mut q = self.ready.lock();
        loop {
            if let Some(e) = q.pop() {
                if let Some(s) = &probe.stamps {
                    s.sample_queue(probe.now(), q.len());
                }
                return Some(e.id);
            }
            if remaining.load(AtomicOrd::Acquire) == 0 {
                return None;
            }
            self.cv.wait(&mut q);
        }
    }

    fn push(&self, _: &(), ready: &[TaskId], metas: &[TaskMeta], probe: &Probe) {
        let mut q = self.ready.lock();
        q.extend(ready.iter().map(|&id| ReadyEntry { priority: metas[id].priority, id }));
        if let Some(s) = &probe.stamps {
            s.sample_queue(probe.now(), q.len());
        }
        drop(q);
        self.cv.notify_all();
    }

    fn finished(&self) {
        // Taking the lock orders this after any waiter's `remaining` check,
        // so no worker can miss the wake-up and sleep forever.
        drop(self.ready.lock());
        self.cv.notify_all();
    }
}

struct StealingQueue {
    injector: Injector<TaskId>,
    stealers: Vec<Stealer<TaskId>>,
}

impl ReadyQueue for StealingQueue {
    type Local = Deque<TaskId>;
    const NAME: &'static str = "work-stealing";
    const STEALS: bool = true;

    fn new(nthreads: usize) -> (Self, Vec<Deque<TaskId>>) {
        let deques: Vec<Deque<TaskId>> = (0..nthreads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        (Self { injector: Injector::new(), stealers }, deques)
    }

    fn seed(&self, roots: &[TaskId], _: &[TaskMeta], _: &Probe) {
        for &id in roots {
            self.injector.push(id);
        }
    }

    fn pop(
        &self,
        local: &Deque<TaskId>,
        remaining: &AtomicUsize,
        _: &Probe,
        steals: &mut StealStats,
    ) -> Option<TaskId> {
        let mut idle_spins = 0u32;
        loop {
            // Local first, then the injector, then steal from peers.
            let found = local.pop().or_else(|| {
                let stolen = std::iter::repeat_with(|| {
                    self.injector
                        .steal_batch_and_pop(local)
                        .or_else(|| self.stealers.iter().map(|s| s.steal()).collect())
                })
                .find(|s| !s.is_retry())
                .and_then(|s| s.success());
                let counters = crate::telemetry::sched_counters();
                counters.steal_attempts.inc();
                steals.attempts += 1;
                if stolen.is_some() {
                    counters.steal_hits.inc();
                    steals.hits += 1;
                }
                stolen
            });
            if found.is_some() {
                return found;
            }
            if remaining.load(AtomicOrd::Acquire) == 0 {
                return None;
            }
            idle_spins += 1;
            if idle_spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn push(&self, local: &Deque<TaskId>, ready: &[TaskId], _: &[TaskMeta], _: &Probe) {
        for &id in ready {
            local.push(id);
        }
    }

    fn finished(&self) {}
}

/// First failure wins; later failures only contribute their cancelled sets.
struct FailureRecord {
    task: TaskId,
    label: TaskLabel,
    lane: usize,
    message: String,
    panicked: bool,
    payload: Option<Box<dyn Any + Send>>,
    cancelled: Vec<TaskId>,
}

/// State shared by the workers of one run.
struct Run<'s, Q> {
    metas: Vec<TaskMeta>,
    succs: Vec<Vec<TaskId>>,
    /// Payload slots, claimed exactly once each.
    slots: Vec<Mutex<Option<Job<'s>>>>,
    preds: Vec<AtomicUsize>,
    /// Set exactly once per cancelled task; whoever wins the swap accounts
    /// for the task in `remaining`.
    cancelled: Vec<AtomicBool>,
    /// Tasks not yet accounted for (executed or cancelled).
    remaining: AtomicUsize,
    queue: Q,
    probe: Probe,
    failure: Mutex<Option<FailureRecord>>,
}

impl<Q: ReadyQueue> Run<'_, Q> {
    /// Runs lane `w` to quiescence and returns what it logged: each
    /// finished task is pushed to exactly this one collection.
    fn worker(&self, w: usize, local: Q::Local) -> LaneLog {
        let counters = crate::telemetry::sched_counters();
        let mut lane = LaneLog::default();
        let mut steals = StealStats::default();
        while let Some(id) = self.queue.pop(&local, &self.remaining, &self.probe, &mut steals) {
            let dispatch = self.probe.now();
            counters.tasks_dispatched.inc();

            let job = self.slots[id].lock().take().expect("task executed twice");
            let label = self.metas[id].label;
            let start = self.probe.now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let end = self.probe.now();
            lane.tasks.push(TaskRec { task: id, label, dispatch, start, end });

            let failure = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(f)) => Some((f.message, false, None)),
                Err(p) => Some((panic_message(p.as_ref()), true, Some(p))),
            };
            let drained = match failure {
                None => {
                    counters.tasks_completed.inc();
                    self.release_successors(id, &local);
                    1
                }
                Some((message, panicked, payload)) => {
                    counters.tasks_failed.inc();
                    let newly = self.cancel_successors(id);
                    let drained = 1 + newly.len();
                    let mut rec = self.failure.lock();
                    match rec.as_mut() {
                        None => {
                            *rec = Some(FailureRecord {
                                task: id,
                                label,
                                lane: w,
                                message,
                                panicked,
                                payload,
                                cancelled: newly,
                            });
                        }
                        Some(r) => r.cancelled.extend(newly),
                    }
                    drained
                }
            };
            if self.remaining.fetch_sub(drained, AtomicOrd::AcqRel) == drained {
                self.queue.finished();
                break;
            }
        }
        lane.steals = Q::STEALS.then_some(steals);
        lane
    }

    /// Marks the transitive successors of failed task `id` cancelled and
    /// returns those this call newly cancelled. Nothing in the closure can
    /// have started: each node's path back to the failed task goes through a
    /// predecessor that never completed, so its predecessor count never
    /// reached zero. The swap makes each task count once even when two
    /// failures race over a shared successor.
    fn cancel_successors(&self, id: TaskId) -> Vec<TaskId> {
        let mut newly = Vec::new();
        let mut stack: Vec<TaskId> = self.succs[id].clone();
        while let Some(s) = stack.pop() {
            if !self.cancelled[s].swap(true, AtomicOrd::AcqRel) {
                newly.push(s);
                stack.extend(self.succs[s].iter().copied());
            }
        }
        newly
    }

    /// Enqueues the successors whose last predecessor was `id`. The
    /// cancelled check is defensive: a task whose predecessors all
    /// completed cannot be in a cancelled closure, but the load is cheap.
    fn release_successors(&self, id: TaskId, local: &Q::Local) {
        let ready: Vec<TaskId> = self.succs[id]
            .iter()
            .copied()
            .filter(|&s| {
                self.preds[s].fetch_sub(1, AtomicOrd::AcqRel) == 1
                    && !self.cancelled[s].load(AtomicOrd::Acquire)
            })
            .collect();
        if ready.is_empty() {
            return;
        }
        if let Some(stamps) = &self.probe.stamps {
            let t = self.probe.now();
            for &s in &ready {
                stamps.mark_ready(s, t);
            }
        }
        self.queue.push(local, &ready, &self.metas, &self.probe);
    }
}

fn run_workers<'s, Q: ReadyQueue>(
    graph: TaskGraph<Job<'s>>,
    nthreads: usize,
    profile: bool,
) -> RunReport {
    assert!(nthreads > 0, "need at least one worker");
    let n = graph.len();
    let TaskGraph { metas, payloads, succs, npreds } = graph;
    let (queue, locals) = Q::new(nthreads);
    let run = Run {
        slots: payloads.into_iter().map(|p| Mutex::new(Some(p))).collect(),
        preds: npreds.iter().map(|&c| AtomicUsize::new(c)).collect(),
        cancelled: (0..n).map(|_| AtomicBool::new(false)).collect(),
        remaining: AtomicUsize::new(n),
        queue,
        probe: Probe { t0: Instant::now(), stamps: profile.then(|| Stamps::new(n)) },
        failure: Mutex::new(None),
        metas,
        succs,
    };
    let roots: Vec<TaskId> = (0..n).filter(|&id| npreds[id] == 0).collect();
    run.queue.seed(&roots, &run.metas, &run.probe);

    // Lane 0 runs on the calling thread, so a single-worker run spawns
    // nothing.
    let mut locals = locals.into_iter().enumerate();
    let (_, first) = locals.next().expect("nthreads > 0");
    // Each worker leaves its log in its own slot as it drains; the scope
    // joins them (and propagates a worker's own panic, which is a bug here:
    // workers catch their tasks' panics).
    let logs: Vec<OnceLock<LaneLog>> = (0..nthreads).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        let (run, logs) = (&run, &logs);
        for (w, local) in locals {
            scope.spawn(move || logs[w].set(run.worker(w, local)));
        }
        let _ = logs[0].set(run.worker(0, first));
    });
    let lanes: Vec<LaneLog> =
        logs.into_iter().map(|l| l.into_inner().expect("every lane ran")).collect();

    // Both reports are views of the one log the workers just returned.
    let Run { metas, succs, cancelled, probe, failure, .. } = run;
    let makespan = probe.now();
    let timeline = Timeline::from_log(&lanes, makespan);
    let executed = lanes.iter().map(|l| l.tasks.len()).sum();
    let profile = probe.stamps.map(|stamps| {
        let cancelled: Vec<TaskId> =
            (0..n).filter(|&id| cancelled[id].load(AtomicOrd::Acquire)).collect();
        Profile::from_log(Q::NAME, &lanes, stamps, makespan, &metas, &succs, cancelled)
    });
    let (failure, panic) = match failure.into_inner() {
        None => (None, None),
        Some(rec) => {
            let mut cancelled = rec.cancelled;
            cancelled.sort_unstable();
            cancelled.dedup();
            let error = ExecError {
                task: rec.task,
                label: rec.label,
                lane: rec.lane,
                message: rec.message,
                panicked: rec.panicked,
                cancelled,
            };
            (Some(error), rec.payload)
        }
    };
    let stats = ExecStats { tasks: executed, wall_seconds: makespan, timeline };
    RunReport { stats, profile, failure, violation: None, panic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    #[test]
    fn empty_graph_returns_immediately() {
        for queue in [QueueKind::Central, QueueKind::Stealing] {
            let g: TaskGraph<Job<'_>> = TaskGraph::new();
            let report = execute(g, 3, &RunOptions { queue, ..Default::default() });
            assert_eq!(report.stats.tasks, 0);
            assert!(report.failure.is_none());
        }
    }

    #[test]
    fn scoped_borrow_of_external_data() {
        // Tasks mutate disjoint slots of a borrowed buffer.
        let mut data = vec![0u64; 8];
        {
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            for (i, slot) in data.iter_mut().enumerate() {
                let meta = TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0);
                g.add_task(meta, job(move || *slot = i as u64 + 1));
            }
            run_graph(g, 4);
        }
        assert_eq!(data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }
}

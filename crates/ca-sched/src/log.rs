//! The task log: the one place an executor stores what it ran.
//!
//! [`crate::execute`], [`crate::simulate_with`] and the
//! [`crate::MultiFrontier`] workers push one [`TaskRec`] per finished task
//! into the [`LaneLog`] of the lane that ran it, and nothing else.
//! [`Timeline`] and [`Profile`] are views built from the log after the fact
//! ([`Timeline::from_log`], [`Profile::from_log`]); a profiled run adds the
//! [`Stamps`] that cannot live on a lane.

use crate::profile::{Profile, QueueSample, StealStats, TaskRecord};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::trace::{Span, Timeline};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One finished task exactly as its executor measured it. Class, flops
/// and bytes are looked up in the graph's [`TaskMeta`] when a [`Profile`]
/// is built, not copied here; the label does ride along, because a frontier
/// job's metadata is gone once the job finalizes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaskRec {
    pub(crate) task: TaskId,
    pub(crate) label: TaskLabel,
    /// When a worker claimed the task from the ready set.
    pub(crate) dispatch: f64,
    pub(crate) start: f64,
    pub(crate) end: f64,
}

/// What one worker lane logged. Written by that lane's worker only.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneLog {
    /// Finished tasks, in completion order.
    pub(crate) tasks: Vec<TaskRec>,
    /// Steal rounds of this lane; `None` under an executor whose ready set
    /// has nothing to steal from (central queue, simulator, frontier).
    pub(crate) steals: Option<StealStats>,
}

impl Timeline {
    /// The lane-per-worker view of a task log.
    pub(crate) fn from_log(lanes: &[LaneLog], makespan: f64) -> Timeline {
        let lanes = lanes
            .iter()
            .map(|lane| {
                let mut spans: Vec<Span> = lane
                    .tasks
                    .iter()
                    .map(|r| Span { task: r.task, label: r.label, start: r.start, end: r.end })
                    .collect();
                spans.sort_by(|a, b| a.start.total_cmp(&b.start));
                spans
            })
            .collect();
        Timeline { lanes, makespan }
    }
}

/// The stamps only a profiled run takes, and that cannot live on a lane:
/// ready instants cross threads (the releaser of a task is not its
/// executor) and the central queue is sampled under its own lock.
pub(crate) struct Stamps {
    ready_at: Vec<AtomicU64>,
    queue: Mutex<Vec<QueueSample>>,
}

impl Stamps {
    /// Roots are ready at t = 0, which is what fresh stamps record.
    pub(crate) fn new(ntasks: usize) -> Self {
        Self {
            ready_at: (0..ntasks).map(|_| AtomicU64::new(0)).collect(),
            queue: Mutex::new(Vec::new()),
        }
    }

    /// Stamps the instant `id` became ready.
    pub(crate) fn mark_ready(&self, id: TaskId, t: f64) {
        self.ready_at[id].store(t.to_bits(), Ordering::Relaxed);
    }

    /// Samples the ready-set depth.
    pub(crate) fn sample_queue(&self, t: f64, depth: usize) {
        self.queue.lock().push(QueueSample { t, depth });
    }
}

impl Profile {
    /// The full-lifecycle view of a profiled run's task log.
    pub(crate) fn from_log(
        scheduler: &str,
        lanes: &[LaneLog],
        stamps: Stamps,
        makespan: f64,
        metas: &[TaskMeta],
        succs: &[Vec<TaskId>],
        cancelled: Vec<TaskId>,
    ) -> Profile {
        let mut records: Vec<TaskRecord> = lanes
            .iter()
            .enumerate()
            .flat_map(|(worker, lane)| lane.tasks.iter().map(move |r| (worker, r)))
            .map(|(worker, r)| {
                let meta = &metas[r.task];
                TaskRecord {
                    task: r.task,
                    label: r.label,
                    class: meta.class,
                    flops: meta.flops,
                    bytes: meta.bytes,
                    worker,
                    ready: f64::from_bits(stamps.ready_at[r.task].load(Ordering::Relaxed)),
                    dispatch: r.dispatch,
                    start: r.start,
                    end: r.end,
                }
            })
            .collect();
        records.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        let edges = succs
            .iter()
            .enumerate()
            .flat_map(|(a, ss)| ss.iter().map(move |&b| (a, b)))
            .collect();
        let mut queue_samples = stamps.queue.into_inner();
        queue_samples.sort_by(|a, b| a.t.total_cmp(&b.t));
        Profile {
            scheduler: scheduler.to_string(),
            nworkers: lanes.len(),
            makespan,
            records,
            edges,
            queue_samples,
            steals: lanes.iter().filter_map(|l| l.steals).collect(),
            cancelled,
        }
    }
}


//! The task log: the one place an executor stores what it ran.
//!
//! The worker loop behind [`crate::execute`] and [`crate::MultiFrontier`],
//! and [`crate::simulate_with`], push one [`TaskRec`] per finished task
//! into the [`LaneLog`] of the lane that ran it, and nothing else.
//! [`Timeline`] and [`Profile`] are views built from the log after the fact
//! ([`Timeline::from_log`], [`Profile::from_log`]); a profiled job adds the
//! [`Stamps`] that cannot live on a lane.

use crate::multigraph::JobId;
use crate::profile::{Profile, QueueSample, TaskRecord};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::trace::{Span, Timeline};

/// One finished task exactly as its executor measured it. Class, flops
/// and bytes are looked up in the job's [`TaskMeta`] when a [`Profile`]
/// is built, not copied here; the label does ride along, because an
/// untraced job's metadata is gone once the job finalizes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaskRec {
    /// The job the task belongs to (0 outside a [`crate::MultiFrontier`]).
    pub(crate) job: JobId,
    pub(crate) task: TaskId,
    pub(crate) label: TaskLabel,
    /// When the claiming worker entered the body; every executor claims a
    /// task and starts it in one step, so this is also its dispatch instant.
    pub(crate) start: f64,
    pub(crate) end: f64,
}

/// What one worker lane logged. Written by that lane's worker only.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneLog {
    /// Finished tasks, in completion order.
    pub(crate) tasks: Vec<TaskRec>,
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

/// The stamps only a profiled job takes, and that cannot live on a lane:
/// a task's ready instant is set by whoever released it, and the ready set
/// is sampled where it changes. Both happen under the lock that guards the
/// job's state (the simulator is single-threaded), so these are plain data.
pub(crate) struct Stamps {
    /// The job's clock origin: [`Profile`] times are relative to it.
    t0: f64,
    ready_at: Vec<f64>,
    queue: Vec<QueueSample>,
}

impl Stamps {
    /// Stamps for a job admitted at `t0`, which is when its roots are ready.
    pub(crate) fn new(ntasks: usize, t0: f64) -> Self {
        Self { t0, ready_at: vec![t0; ntasks], queue: Vec::new() }
    }

    /// Stamps the instant `id` became ready.
    pub(crate) fn mark_ready(&mut self, id: TaskId, t: f64) {
        self.ready_at[id] = t;
    }

    /// Samples the ready-set depth.
    pub(crate) fn sample_queue(&mut self, t: f64, depth: usize) {
        self.queue.push(QueueSample { t, depth });
    }
}

impl Profile {
    /// The full-lifecycle view of one profiled job: `lanes` holds that
    /// job's records, `makespan` and every reported time count from the
    /// job's admission.
    pub(crate) fn from_log(
        scheduler: &str,
        lanes: &[LaneLog],
        stamps: &Stamps,
        makespan: f64,
        metas: &[TaskMeta],
        succs: &[Vec<TaskId>],
        cancelled: Vec<TaskId>,
    ) -> Profile {
        let Stamps { t0, ready_at, queue } = stamps;
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
                    ready: ready_at[r.task] - t0,
                    dispatch: r.start - t0,
                    start: r.start - t0,
                    end: r.end - t0,
                }
            })
            .collect();
        records.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        let edges = succs
            .iter()
            .enumerate()
            .flat_map(|(a, ss)| ss.iter().map(move |&b| (a, b)))
            .collect();
        let mut queue_samples: Vec<QueueSample> =
            queue.iter().map(|s| QueueSample { t: s.t - t0, depth: s.depth }).collect();
        queue_samples.sort_by(|a, b| a.t.total_cmp(&b.t));
        Profile {
            scheduler: scheduler.to_string(),
            nworkers: lanes.len(),
            makespan,
            records,
            edges,
            queue_samples,
            cancelled,
        }
    }
}

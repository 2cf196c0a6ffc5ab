//! The job log: the one place an executor stores what it ran.
//!
//! The dispatch policy both executors share — the worker loop behind
//! [`crate::execute`] and [`crate::MultiFrontier`], and [`crate::simulate`]
//! — pushes one [`TaskRec`] per completed task into the log of the job the
//! task belongs to, next to the instant each task became ready, and nothing
//! else. When the job ends its [`JobLog`] —
//! records, ready stamps, metadata, edges, cancelled set — leaves with it,
//! and [`Timeline`] and [`Profile`] are views built from that log when
//! somebody reads them ([`Timeline::from_log`], [`Profile::from_log`]):
//! recording is not an option, looking is. Failures and recovery facts
//! ride on the records too: [`RecoveryStats`] and the process counters are
//! folds over the log.

use crate::profile::{Profile, QueueSample, TaskRecord};
use crate::retry::{RecoveryStats, TaskNote};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::trace::{Span, Timeline};

/// One finished task exactly as its executor measured it. Class, flops
/// and bytes are looked up in the job's [`TaskMeta`] when a [`Profile`]
/// is built, not copied here; the label does ride along, because the
/// service-wide timeline of a traced [`crate::MultiFrontier`] keeps the
/// records of finalized jobs without their metadata.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaskRec {
    pub(crate) task: TaskId,
    pub(crate) label: TaskLabel,
    /// The worker lane that ran the task.
    pub(crate) lane: usize,
    /// When the claiming worker entered the body; every executor claims a
    /// task and starts it in one step, so this is also its dispatch instant.
    pub(crate) start: f64,
    pub(crate) end: f64,
    /// What the recovery layer did inside the body (zero outside it).
    pub(crate) note: TaskNote,
    /// Whether the body returned an error or panicked.
    pub(crate) failed: bool,
}

/// Everything one job leaves behind, self-contained: what ran where and
/// when, when each task became ready, and the graph it ran. Times are on
/// the executor's clock; [`Profile`] times count from `t0`.
pub(crate) struct JobLog {
    /// What [`Profile::scheduler`] says of the executor.
    pub(crate) scheduler: &'static str,
    pub(crate) nworkers: usize,
    /// The job's admission instant, which is when its roots became ready.
    pub(crate) t0: f64,
    /// Finished tasks, in completion order.
    pub(crate) recs: Vec<TaskRec>,
    /// Per task, the end of its last predecessor (`t0` for a root). Only
    /// meaningful for a task that was released, so for every record.
    pub(crate) ready_at: Vec<f64>,
    pub(crate) metas: Vec<TaskMeta>,
    pub(crate) succs: Vec<Vec<TaskId>>,
    pub(crate) cancelled: Vec<TaskId>,
}

impl JobLog {
    /// What recovery did over the job: the sum of its records' notes.
    pub(crate) fn recovery(&self) -> RecoveryStats {
        let mut stats = RecoveryStats::default();
        self.recs.iter().for_each(|r| stats.add(&r.note));
        stats
    }
}

impl Timeline {
    /// The lane-per-worker view of `(lane, span)` pairs: each span into its
    /// worker's lane, each lane sorted by start. The one lane builder, so
    /// the timeline of a log and of its [`Profile`] cannot disagree: spans
    /// starting together (zero-length ones) are ordered by end, then task,
    /// not by the order they arrived in.
    pub(crate) fn from_spans(
        spans: impl IntoIterator<Item = (usize, Span)>,
        nworkers: usize,
        makespan: f64,
    ) -> Timeline {
        let mut lanes = vec![Vec::new(); nworkers];
        for (lane, span) in spans {
            lanes[lane].push(span);
        }
        for spans in &mut lanes {
            spans.sort_by(|a, b| {
                a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)).then(a.task.cmp(&b.task))
            });
        }
        Timeline { lanes, makespan }
    }

    /// The lane-per-worker view of task records, on the records' clock.
    pub(crate) fn from_log(recs: &[TaskRec], nworkers: usize, makespan: f64) -> Timeline {
        let span = |r: &TaskRec| Span { task: r.task, label: r.label, start: r.start, end: r.end };
        Timeline::from_spans(recs.iter().map(|r| (r.lane, span(r))), nworkers, makespan)
    }
}

/// The ready-set depth as the step function the stamps determine: +1 when
/// a task becomes ready, −1 when it is dispatched, one sample per instant
/// at which anything changed, holding the depth once everything stamped
/// with that instant has happened.
fn queue_depth(records: &[TaskRecord]) -> Vec<QueueSample> {
    let mut steps: Vec<(f64, isize)> =
        records.iter().flat_map(|r| [(r.ready, 1), (r.start, -1)]).collect();
    steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut samples: Vec<QueueSample> = Vec::new();
    let mut depth = 0usize;
    for (t, step) in steps {
        // A task is ready no later than it starts and the sort is stable,
        // so every −1 follows its own +1: the depth never saturates.
        depth = depth.saturating_add_signed(step);
        match samples.last_mut() {
            Some(last) if last.t == t => last.depth = depth,
            _ => samples.push(QueueSample { t, depth }),
        }
    }
    samples
}

impl Profile {
    /// The full-lifecycle view of one job: `makespan` and every reported
    /// time count from the job's admission.
    pub(crate) fn from_log(log: &JobLog, makespan: f64) -> Profile {
        let JobLog { scheduler, nworkers, t0, recs, ready_at, metas, succs, cancelled } = log;
        let mut records: Vec<TaskRecord> = recs
            .iter()
            .map(|r| {
                let meta = &metas[r.task];
                TaskRecord {
                    task: r.task,
                    label: r.label,
                    class: meta.class,
                    flops: meta.flops,
                    bytes: meta.bytes,
                    worker: r.lane,
                    ready: ready_at[r.task] - t0,
                    dispatch: r.start - t0,
                    start: r.start - t0,
                    end: r.end - t0,
                }
            })
            .collect();
        records.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        let edges =
            succs.iter().enumerate().flat_map(|(a, ss)| ss.iter().map(move |&b| (a, b))).collect();
        let queue_samples = queue_depth(&records);
        Profile {
            scheduler: scheduler.to_string(),
            nworkers: *nworkers,
            makespan,
            records,
            edges,
            queue_samples,
            cancelled: cancelled.clone(),
        }
    }
}

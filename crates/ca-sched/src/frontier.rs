//! The dispatch policy, with no clock and no threads: which ready task runs
//! next.
//!
//! A [`Frontier`] is an executor's one job table: per admitted task graph
//! ("job") the graph, its unfinished-predecessor counts, its ready heap, the
//! payloads not yet picked and the job's log. The worker loop behind
//! [`crate::execute`] and [`crate::MultiFrontier`] calls it under its state
//! lock on the wall clock, [`crate::simulate`] on a virtual one, so a
//! simulated run replays the order a threaded one runs:
//!
//! * **Within a job** the paper's lookahead priorities decide: the highest
//!   [`TaskMeta::priority`] first, then the lowest task id (insertion order).
//! * **Across jobs** dispatch uses stride scheduling (weighted fair
//!   queueing): a job's *pass* advances by `max(flops, 1) / weight` per
//!   picked task, and a pick serves the job with a ready task and the
//!   smallest pass, the older job on a tie. So a weight-2 job receives twice
//!   the flops of a weight-1 job while both are runnable, and a new job
//!   starts at the current minimum pass: it neither starves nor monopolizes.
//!
//! A failed task cancels its transitive successors within its job, and
//! nothing else; a job dropped whole releases nothing more.

use crate::graph::TaskGraph;
use crate::log::{JobLog, TaskRec};
use crate::multigraph::JobId;
use crate::task::{TaskId, TaskMeta};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A ready task as a job's heap orders it: higher priority first (the DAG
/// builders encode the paper's lookahead-of-1 rule there), then lower task
/// id, which follows submission order.
type ReadyEntry = (i64, Reverse<TaskId>);

/// One job. `X` is what the executor keeps per job beside it (the worker
/// loop's deadline, report and watch), so there is one table, not two.
pub(crate) struct Entry<P, X> {
    metas: Vec<TaskMeta>,
    succs: Vec<Vec<TaskId>>,
    /// Unfinished predecessors per task.
    preds: Vec<usize>,
    ready: BinaryHeap<ReadyEntry>,
    /// Task payloads, each picked (or dropped) exactly once.
    slots: Vec<Option<P>>,
    cancelled: Vec<bool>,
    /// Whole job dropped: completions release nothing.
    dropped: bool,
    /// Tasks neither completed nor dropped (in-flight ones included).
    remaining: usize,
    in_flight: usize,
    /// Stride-scheduling pass value (advanced by flops/weight per pick).
    pass: f64,
    weight: f64,
    /// The admission instant, when the roots became ready.
    t0: f64,
    recs: Vec<TaskRec>,
    ready_at: Vec<f64>,
    x: X,
}

impl<P, X> Entry<P, X> {
    /// The job `graph` with fair-share `weight`, admitted at `now`. Built
    /// apart from [`Frontier::admit`] so an executor can do this O(tasks)
    /// setup outside its lock.
    pub(crate) fn new(graph: TaskGraph<P>, weight: f64, now: f64, x: X) -> Self {
        let TaskGraph { metas, payloads, succs, npreds } = graph;
        let n = metas.len();
        let ready = (0..n).filter(|&t| npreds[t] == 0).map(|t| (metas[t].priority, Reverse(t)));
        Self {
            ready: ready.collect(),
            metas,
            succs,
            preds: npreds,
            slots: payloads.into_iter().map(Some).collect(),
            cancelled: vec![false; n],
            dropped: false,
            remaining: n,
            in_flight: 0,
            pass: 0.0,
            weight,
            t0: now,
            recs: Vec::with_capacity(n),
            ready_at: vec![now; n],
            x,
        }
    }
}

/// A picked task, with the executor's state for its job.
pub(crate) struct Pick<'f, P, X> {
    pub(crate) job: JobId,
    pub(crate) task: TaskId,
    pub(crate) meta: &'f TaskMeta,
    pub(crate) payload: P,
    pub(crate) x: &'f mut X,
}

/// Admitted jobs and the policy that picks among their ready tasks.
pub(crate) struct Frontier<P, X> {
    /// Active jobs in admission order (ids count up).
    jobs: BTreeMap<JobId, Entry<P, X>>,
}

impl<P, X> Frontier<P, X> {
    pub(crate) fn new() -> Self {
        Self { jobs: BTreeMap::new() }
    }

    /// Admits `entry` as job `id` at the current minimum pass; returns how
    /// many of its tasks are ready.
    pub(crate) fn admit(&mut self, id: JobId, mut entry: Entry<P, X>) -> usize {
        entry.pass = self.jobs.values().map(|e| e.pass).reduce(f64::min).unwrap_or(0.0);
        let roots = entry.ready.len();
        self.jobs.insert(id, entry);
        roots
    }

    /// Picks the next task (see the module docs), charges its flops to its
    /// job's pass and hands over its payload.
    pub(crate) fn pick(&mut self) -> Option<Pick<'_, P, X>> {
        let (&job, e) = self
            .jobs
            .iter_mut()
            .filter(|(_, e)| !e.ready.is_empty())
            .min_by(|(_, a), (_, b)| a.pass.total_cmp(&b.pass))?;
        let (_, Reverse(task)) = e.ready.pop()?;
        // A task enters the heap once, and only a pick takes a ready task's
        // payload: a drop clears the heap, and a failure closure holds no
        // task whose predecessors all completed.
        let payload = e.slots[task].take().expect("a ready task is picked once");
        let meta = &e.metas[task];
        e.in_flight += 1;
        e.pass += meta.flops.max(1.0) / e.weight;
        Some(Pick { job, task, meta, payload, x: &mut e.x })
    }

    /// Logs a picked task that ran as `rec`, then releases its successors,
    /// ready at `rec.end`, or, if it `failed`, cancels its transitive
    /// successors. `None` if the job is unknown, else the executor's state
    /// for it, the tasks the failure newly cancelled (none on success), and
    /// whether every task of the job is now accounted, to [`Self::finish`].
    pub(crate) fn complete(
        &mut self,
        job: JobId,
        rec: TaskRec,
        failed: bool,
    ) -> Option<(&mut X, Vec<TaskId>, bool)> {
        let e = self.jobs.get_mut(&job)?;
        let (task, end) = (rec.task, rec.end);
        e.recs.push(rec);
        e.in_flight -= 1;
        e.remaining -= 1;
        let mut cancelled = Vec::new();
        if failed {
            // None of these can have started: each one's path back to `task`
            // runs through a predecessor that never completed. A drop that
            // took one already marked it, so it is not returned again.
            let mut stack = e.succs[task].clone();
            while let Some(s) = stack.pop() {
                if !e.cancelled[s] {
                    e.cancelled[s] = true;
                    e.slots[s] = None;
                    cancelled.push(s);
                    stack.extend_from_slice(&e.succs[s]);
                }
            }
            e.remaining -= cancelled.len();
        } else if !e.dropped {
            for &s in &e.succs[task] {
                e.preds[s] -= 1;
                // Defensive: a task whose predecessors all completed is in
                // no failure closure.
                if e.preds[s] == 0 && !e.cancelled[s] {
                    e.ready.push((e.metas[s].priority, Reverse(s)));
                    e.ready_at[s] = end;
                }
            }
        }
        Some((&mut e.x, cancelled, e.remaining == 0))
    }

    /// Drops every undispatched task of `job` (a whole-job cancel). `None`
    /// if the job is unknown or already dropped, else the executor's state
    /// for it and whether the job is done (nothing was in flight).
    pub(crate) fn drop_undispatched(&mut self, job: JobId) -> Option<(&mut X, bool)> {
        let e = self.jobs.get_mut(&job).filter(|e| !e.dropped)?;
        e.dropped = true;
        e.ready.clear();
        for (t, slot) in e.slots.iter_mut().enumerate() {
            if slot.take().is_some() {
                e.cancelled[t] = true;
                e.remaining -= 1;
            }
        }
        debug_assert_eq!(e.remaining, e.in_flight);
        Some((&mut e.x, e.remaining == 0))
    }

    /// Removes a job whose every task is accounted: the log it leaves
    /// (`nworkers` lanes ran it, [`crate::Profile::scheduler`] says
    /// `scheduler`) and the executor's state. `None` if the job is unknown.
    pub(crate) fn finish(
        &mut self,
        job: JobId,
        scheduler: &'static str,
        nworkers: usize,
    ) -> Option<(JobLog, X)> {
        let Entry { metas, succs, cancelled, t0, recs, ready_at, x, .. } = self.jobs.remove(&job)?;
        let cancelled = (0..cancelled.len()).filter(|&t| cancelled[t]).collect();
        Some((JobLog { scheduler, nworkers, t0, recs, ready_at, metas, succs, cancelled }, x))
    }

    /// Ready tasks across all jobs.
    pub(crate) fn ready_len(&self) -> usize {
        self.jobs.values().map(|e| e.ready.len()).sum()
    }

    /// Active jobs, oldest first, with the executor's state for each.
    pub(crate) fn jobs(&self) -> impl Iterator<Item = (JobId, &X)> + '_ {
        self.jobs.iter().map(|(&id, e)| (id, &e.x))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel};

    /// `n` independent tasks of 3 flops each.
    fn independent(n: usize) -> TaskGraph<()> {
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 3.0), ());
        }
        g
    }

    /// The next `n` picks as `(job, task)`.
    fn picks(f: &mut Frontier<(), ()>, n: usize) -> Vec<(JobId, TaskId)> {
        (0..n).map_while(|_| f.pick().map(|p| (p.job, p.task))).collect()
    }

    /// The `(job, task)` sequence of `jobs` served in `rounds` rounds of
    /// `pattern`, each job's tasks in id order starting at `first[job]`.
    fn stride_order(pattern: &[JobId], rounds: usize, first: &mut [TaskId]) -> Vec<(JobId, TaskId)> {
        let mut out = Vec::new();
        for _ in 0..rounds {
            for &j in pattern {
                out.push((j, first[j as usize]));
                first[j as usize] += 1;
            }
        }
        out
    }

    #[test]
    fn weighted_fair_share_is_exact_stride_order() {
        // Weight 1 against weight 3 on equal 3-flop tasks: strides 3 and 1,
        // so every round is one pick of job 0 (the older, first on the
        // tie) and three of job 1, which ends the round tied again.
        let mut f = Frontier::new();
        f.admit(0, Entry::new(independent(40), 1.0, 0.0, ()));
        f.admit(1, Entry::new(independent(40), 3.0, 0.0, ()));
        assert_eq!(picks(&mut f, 40), stride_order(&[0, 1, 1, 1], 10, &mut [0, 0]));
    }

    #[test]
    fn late_job_starts_at_the_minimum_pass() {
        // After five rounds jobs 0 and 1 both stand at pass 15. Job 2 joins
        // there: it neither waits for them to catch up with it from pass 0
        // nor takes every pick until it does, but takes its weight's share
        // of a round at once.
        let mut f = Frontier::new();
        f.admit(0, Entry::new(independent(40), 1.0, 0.0, ()));
        f.admit(1, Entry::new(independent(40), 3.0, 0.0, ()));
        let mut next = [0, 0, 0];
        assert_eq!(picks(&mut f, 20), stride_order(&[0, 1, 1, 1], 5, &mut next));
        f.admit(2, Entry::new(independent(40), 1.0, 1.0, ()));
        assert_eq!(picks(&mut f, 20), stride_order(&[0, 1, 2, 1, 1], 4, &mut next));
    }
}

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
//! * **Across jobs** the earliest virtual finish goes first (weighted fair
//!   queueing at job granularity). The frontier keeps a virtual clock `V`:
//!   each pick advances it by the task's `max(flops, 1)` over the summed
//!   weight of the jobs in the frontier, and it returns to 0 when the
//!   frontier empties. A job admitted at `V` with `W` flops in all (each
//!   task counted as `max(flops, 1)`) is tagged `F = V + W / weight`, the
//!   instant it would finish under exact weighted sharing, and a pick
//!   serves the job with a ready task and the smallest `F`, the older job on
//!   a tie. So jobs admitted together run shortest first, a later job
//!   overtakes an earlier one only if it would have finished first, and no
//!   job waits forever: later arrivals get later tags as `V` grows. A
//!   weight divides the job's virtual length.
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
    weight: f64,
    /// Virtual finish tag: the job's flops (each task at least 1) over its
    /// weight, plus `V` once admitted.
    finish: f64,
    /// The admission instant, when the roots became ready.
    t0: f64,
    recs: Vec<TaskRec>,
    ready_at: Vec<f64>,
    x: X,
}

impl<P, X> Entry<P, X> {
    /// The job `graph` with `weight`, admitted at `now`. Built apart from
    /// [`Frontier::admit`] so an executor can do this O(tasks) setup, its
    /// virtual length included, outside its lock.
    pub(crate) fn new(graph: TaskGraph<P>, weight: f64, now: f64, x: X) -> Self {
        let TaskGraph { metas, payloads, succs, npreds } = graph;
        let n = metas.len();
        let ready = (0..n).filter(|&t| npreds[t] == 0).map(|t| (metas[t].priority, Reverse(t)));
        let flops: f64 = metas.iter().map(|m| m.flops.max(1.0)).sum();
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
            weight,
            finish: flops / weight,
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
    /// The virtual clock `V`.
    clock: f64,
    /// Summed weight of the jobs in `jobs`.
    weight: f64,
}

impl<P, X> Frontier<P, X> {
    pub(crate) fn new() -> Self {
        Self { jobs: BTreeMap::new(), clock: 0.0, weight: 0.0 }
    }

    /// Admits `entry` as job `id`, tagged with its virtual finish; returns
    /// how many of its tasks are ready.
    pub(crate) fn admit(&mut self, id: JobId, mut entry: Entry<P, X>) -> usize {
        entry.finish += self.clock;
        self.weight += entry.weight;
        let roots = entry.ready.len();
        self.jobs.insert(id, entry);
        roots
    }

    /// Picks the next task (see the module docs), advances the virtual
    /// clock by its flops and hands over its payload.
    pub(crate) fn pick(&mut self) -> Option<Pick<'_, P, X>> {
        let (&job, e) = self
            .jobs
            .iter_mut()
            .filter(|(_, e)| !e.ready.is_empty())
            .min_by(|(_, a), (_, b)| a.finish.total_cmp(&b.finish))?;
        let (_, Reverse(task)) = e.ready.pop()?;
        // A task enters the heap once, and only a pick takes a ready task's
        // payload: a drop clears the heap, and a failure closure holds no
        // task whose predecessors all completed.
        let payload = e.slots[task].take().expect("a ready task is picked once");
        let meta = &e.metas[task];
        e.in_flight += 1;
        self.clock += meta.flops.max(1.0) / self.weight;
        Some(Pick { job, task, meta, payload, x: &mut e.x })
    }

    /// Logs a picked task that ran as `rec`, then releases its successors,
    /// ready at `rec.end`, or, if it failed, cancels its transitive
    /// successors. `None` if the job is unknown, else the executor's state
    /// for it, the tasks the failure newly cancelled (none on success), and
    /// whether every task of the job is now accounted, to [`Self::finish`].
    pub(crate) fn complete(
        &mut self,
        job: JobId,
        rec: TaskRec,
    ) -> Option<(&mut X, Vec<TaskId>, bool)> {
        let e = self.jobs.get_mut(&job)?;
        let TaskRec { task, end, failed, .. } = rec;
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

    /// Tasks of `job` neither picked nor dropped; `None` if it is unknown.
    pub(crate) fn undispatched(&self, job: JobId) -> Option<usize> {
        self.jobs.get(&job).map(|e| e.remaining - e.in_flight)
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
        let Entry { metas, succs, cancelled, weight, t0, recs, ready_at, x, .. } =
            self.jobs.remove(&job)?;
        self.weight -= weight;
        if self.jobs.is_empty() {
            (self.clock, self.weight) = (0.0, 0.0);
        }
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
    use crate::retry::TaskNote;
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

    /// Job `job`'s tasks `tasks` in id order.
    fn run(job: JobId, tasks: std::ops::Range<TaskId>) -> Vec<(JobId, TaskId)> {
        tasks.map(|t| (job, t)).collect()
    }

    #[test]
    fn of_two_jobs_admitted_together_the_smaller_runs_first() {
        // Tags 30 and 12 at V = 0: job 1 takes every pick until it is out
        // of ready tasks, although it is the younger.
        let mut f = Frontier::new();
        f.admit(0, Entry::new(independent(10), 1.0, 0.0, ()));
        f.admit(1, Entry::new(independent(4), 1.0, 0.0, ()));
        assert_eq!(picks(&mut f, 14), [run(1, 0..4), run(0, 0..10)].concat());
    }

    #[test]
    fn a_weight_divides_the_virtual_length_and_the_older_job_wins_a_tie() {
        // 90 flops at weight 3 and 30 at weight 1 both tag 30: whichever was
        // admitted first is served first, the heavier or the lighter.
        for (first, second) in [((30, 3.0), (10, 1.0)), ((10, 1.0), (30, 3.0))] {
            let mut f = Frontier::new();
            f.admit(0, Entry::new(independent(first.0), first.1, 0.0, ()));
            f.admit(1, Entry::new(independent(second.0), second.1, 0.0, ()));
            assert_eq!(picks(&mut f, 40), [run(0, 0..first.0), run(1, 0..second.0)].concat());
        }
    }

    #[test]
    fn a_later_job_overtakes_only_if_it_would_finish_first() {
        // Job 0 alone is tagged 30 and moves V by 3 a pick. A 6-flop job
        // admitted after 4 picks is tagged 12 + 6 = 18 and overtakes; after
        // 9 picks it is tagged 27 + 6 = 33, and job 0 finishes first.
        for (picked, overtakes) in [(4, true), (9, false)] {
            let mut f = Frontier::new();
            f.admit(0, Entry::new(independent(10), 1.0, 0.0, ()));
            assert_eq!(picks(&mut f, picked), run(0, 0..picked));
            f.admit(1, Entry::new(independent(2), 1.0, 1.0, ()));
            let (late, rest) = (run(1, 0..2), run(0, picked..10));
            let want = if overtakes { [late, rest] } else { [rest, late] };
            assert_eq!(picks(&mut f, 20), want.concat(), "admitted after {picked} picks");
        }
    }

    #[test]
    fn the_virtual_clock_returns_to_zero_when_the_frontier_empties() {
        // Otherwise a long-lived service's clock grows without bound, and
        // small tasks' increments vanish in its rounding.
        let mut f = Frontier::new();
        f.admit(0, Entry::new(independent(3), 2.0, 0.0, ()));
        for (_, task) in picks(&mut f, 3) {
            let label = TaskLabel::new(TaskKind::Other, 0, 0, 0);
            let note = TaskNote::default();
            let rec = TaskRec { task, label, lane: 0, start: 0.0, end: 1.0, note, failed: false };
            f.complete(0, rec);
        }
        assert_eq!(f.clock, 4.5);
        f.finish(0, "test", 1).expect("admitted");
        assert_eq!((f.clock, f.weight), (0.0, 0.0));
        f.admit(1, Entry::new(independent(2), 1.0, 1.0, ()));
        assert_eq!(f.jobs[&1].finish, 6.0);
    }
}

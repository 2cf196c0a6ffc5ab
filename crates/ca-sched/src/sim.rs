//! Deterministic multicore simulator.
//!
//! Replays a task graph on `P` virtual cores with list scheduling: whenever a
//! core is idle and tasks are ready, the highest-priority ready task starts
//! on the lowest-numbered idle core. Task durations come from a caller-
//! supplied cost model (seconds per task, typically `flops / throughput`
//! with throughputs measured by `ca-bench`'s calibration on the host).
//!
//! This is the hardware-substitution layer documented in DESIGN.md: the
//! paper's 8-core Xeon and 16-core Opteron are replaced by simulated
//! machines executing the *same task DAGs* the threaded runtime executes,
//! so schedule-level effects (panel on the critical path, idle-time gaps of
//! Figure 3, lookahead) are reproduced faithfully.

use crate::exec::{ExecStats, RunReport};
use crate::fault::ExecError;
use crate::footprint::AccessMap;
use crate::graph::{cancel_closure, ReadyEntry, TaskGraph};
use crate::log::{JobLog, TaskRec};
use crate::retry::{injection_message, ChaosAction, ChaosPlan};
use crate::task::{TaskId, TaskMeta};
use crate::trace::{Timeline, TimelineError};
use crate::verify::SoundnessError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct Completion {
    time: f64,
    worker: usize,
    task: TaskId,
    /// `Some(panicked)` when an injected fault fails this task on
    /// completion.
    failed: Option<bool>,
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, worker): earliest completion first. total_cmp
        // keeps the order total even if a cost model produces NaN.
        other.time.total_cmp(&self.time).then(other.worker.cmp(&self.worker))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates executing `graph` on `nworkers` cores; `cost` maps a task id
/// and its metadata to a duration in seconds.
///
/// Returns the full [`Timeline`]. Deterministic: same inputs, same schedule.
///
/// # Panics
/// If `nworkers == 0`.
pub fn simulate<T>(
    graph: &TaskGraph<T>,
    nworkers: usize,
    cost: impl FnMut(TaskId, &TaskMeta) -> f64,
) -> Timeline {
    let run = sim_core(graph, nworkers, cost, None);
    Timeline::from_log(&run.recs, nworkers, run.makespan)
}

/// How [`simulate_with`] runs. `Default` is a plain [`simulate`].
#[derive(Clone, Copy, Default)]
pub struct SimOptions<'a> {
    /// Inject this plan's faults: tasks it fails (or "panics") still occupy
    /// their core for their full cost, but on completion cancel their
    /// transitive successors instead of releasing them, exactly like the
    /// threaded executor; a delay extends the task. The rest of the graph
    /// drains, and the failure's `lane` is the simulated core index.
    pub chaos: Option<&'a ChaosPlan>,
    /// Checked mode. The simulator executes no matrix code, so "checked"
    /// means the static verifier must accept the graph with these
    /// footprints before anything is simulated, and the produced timeline
    /// must pass the write-exclusion check (no two tasks with overlapping
    /// declared write rects scheduled concurrently on different cores).
    pub access: Option<&'a AccessMap>,
}

/// [`simulate`] with fault injection and/or checking, reported like a
/// threaded run, [`RunReport::profile`] (exact ready/start/end in simulated
/// seconds) included. Fully deterministic: tests can assert exact metric
/// values.
///
/// # Panics
/// If `nworkers == 0`.
pub fn simulate_with<T>(
    graph: &TaskGraph<T>,
    nworkers: usize,
    cost: impl FnMut(TaskId, &TaskMeta) -> f64,
    opts: &SimOptions<'_>,
) -> RunReport {
    let mut violation =
        opts.access.and_then(|access| crate::verify::verify_graph(graph, access).err());
    let run = if violation.is_none() {
        sim_core(graph, nworkers, cost, opts.chaos)
    } else {
        SimRun::default()
    };
    let timeline = Timeline::from_log(&run.recs, nworkers, run.makespan);
    if let Some(Err(e)) = opts.access.map(|access| timeline.check_write_exclusion(access)) {
        let TimelineError::ConcurrentWrites { first, second, rect } = e else {
            unreachable!("check_write_exclusion only reports ConcurrentWrites")
        };
        violation = Some(SoundnessError::Race {
            first: graph.meta(first).label.to_string(),
            second: graph.meta(second).label.to_string(),
            rows: (rect.row0, rect.row1),
            cols: (rect.col0, rect.col1),
        });
    }
    let stats = ExecStats { tasks: run.recs.len(), wall_seconds: run.makespan, timeline };
    // The graph is borrowed, so the log takes copies of what a threaded
    // job's log takes by move.
    let log = JobLog {
        scheduler: "simulator",
        nworkers,
        t0: 0.0,
        recs: run.recs,
        ready_at: run.ready_at,
        metas: graph.metas.clone(),
        succs: graph.succs.clone(),
        cancelled: run.cancelled,
    };
    RunReport { stats, failure: run.failure, violation, panic: None, log }
}

/// What one simulated run measured.
#[derive(Default)]
struct SimRun {
    /// One record per simulated task, in start order.
    recs: Vec<TaskRec>,
    /// Per task, the simulated instant it became ready (0 for a root).
    ready_at: Vec<f64>,
    cancelled: Vec<TaskId>,
    failure: Option<ExecError>,
    makespan: f64,
}

fn sim_core<T>(
    graph: &TaskGraph<T>,
    nworkers: usize,
    mut cost: impl FnMut(TaskId, &TaskMeta) -> f64,
    chaos: Option<&ChaosPlan>,
) -> SimRun {
    assert!(nworkers > 0, "need at least one simulated core");
    let n = graph.len();
    let mut preds: Vec<usize> = graph.npreds.clone();
    let mut ready: BinaryHeap<ReadyEntry> = BinaryHeap::new();
    for (id, &np) in preds.iter().enumerate() {
        if np == 0 {
            ready.push(ReadyEntry { priority: graph.metas[id].priority, id });
        }
    }

    let mut idle: Vec<usize> = (0..nworkers).rev().collect(); // pop() gives lowest index
    let mut events: BinaryHeap<Completion> = BinaryHeap::new();
    // The run's log; the timeline and the profile are views of it.
    let mut recs = Vec::with_capacity(n);
    let mut ready_at = vec![0.0f64; n];
    let mut t = 0.0f64;
    // Tasks accounted for: executed or cancelled.
    let mut accounted = 0usize;
    let mut cancelled = vec![false; n];
    let mut failure: Option<ExecError> = None;

    while accounted < n {
        // Start as many ready tasks as there are idle cores, at time t.
        while !idle.is_empty() && !ready.is_empty() {
            let entry = ready.pop().expect("nonempty");
            let worker = idle.pop().expect("nonempty");
            let meta = &graph.metas[entry.id];
            let mut d = cost(entry.id, meta).max(0.0);
            // `failed` is Some(panicked) when a fault fires for this task.
            let failed = match chaos.and_then(|plan| plan.decide(&meta.label)) {
                Some(ChaosAction::Fail) => Some(false),
                Some(ChaosAction::Panic) => Some(true),
                Some(ChaosAction::Delay(extra)) => {
                    d += extra.as_secs_f64();
                    None
                }
                // No data is simulated, so there is nothing to corrupt.
                Some(ChaosAction::Corrupt) | None => None,
            };
            let (task, label) = (entry.id, meta.label);
            recs.push(TaskRec { task, label, lane: worker, start: t, end: t + d });
            events.push(Completion { time: t + d, worker, task, failed });
        }

        // Advance to the next completion, draining any other completions at
        // the same instant so their cores are all available before the next
        // assignment round.
        let c = events.pop().expect("deadlock: no running task but graph unfinished");
        t = c.time;
        let mut batch = vec![c];
        while events.peek().map(|e| e.time <= t).unwrap_or(false) {
            batch.push(events.pop().expect("nonempty"));
        }
        for c in batch {
            idle.push(c.worker);
            accounted += 1;
            if let Some(panicked) = c.failed {
                // Cancelled tasks are accounted without running.
                accounted += cancel_closure(&graph.succs, &mut cancelled, c.task).len();
                if failure.is_none() {
                    failure = Some(ExecError {
                        task: c.task,
                        label: graph.metas[c.task].label,
                        lane: c.worker,
                        message: injection_message(panicked, &graph.metas[c.task].label),
                        panicked,
                        cancelled: Vec::new(),
                    });
                }
            } else {
                for &s in &graph.succs[c.task] {
                    preds[s] -= 1;
                    if preds[s] == 0 && !cancelled[s] {
                        ready_at[s] = t;
                        ready.push(ReadyEntry { priority: graph.metas[s].priority, id: s });
                    }
                }
            }
        }
        idle.sort_unstable_by(|a, b| b.cmp(a)); // keep lowest-index-on-top
    }

    let cancelled: Vec<TaskId> = (0..n).filter(|&id| cancelled[id]).collect();
    if let Some(err) = &mut failure {
        err.cancelled.clone_from(&cancelled);
    }
    SimRun { recs, ready_at, cancelled, failure, makespan: t }
}

/// Convenience: simulate with durations equal to each task's `flops` field
/// divided by `flops_per_second`.
pub fn simulate_uniform<T>(graph: &TaskGraph<T>, nworkers: usize, flops_per_second: f64) -> Timeline {
    simulate(graph, nworkers, |_, m| m.flops / flops_per_second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel, TaskMeta};

    fn meta(flops: f64, priority: i64) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops).with_priority(priority)
    }

    fn faulted(g: &TaskGraph<()>, nworkers: usize, plan: &ChaosPlan) -> ExecError {
        let opts = SimOptions { chaos: Some(plan), ..Default::default() };
        simulate_with(g, nworkers, |_, m| m.flops, &opts).failure.expect("injected fault")
    }

    fn chain(n: usize, flops: f64) -> TaskGraph<()> {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for _ in 0..n {
            let id = g.add_task(meta(flops, 0), ());
            if let Some(p) = prev {
                g.add_dep(p, id);
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn chain_is_serial_regardless_of_cores() {
        let g = chain(10, 2.0);
        let tl = simulate_uniform(&g, 8, 1.0);
        assert!((tl.makespan - 20.0).abs() < 1e-12);
        tl.validate();
    }

    #[test]
    fn independent_tasks_scale_perfectly() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        for _ in 0..8 {
            g.add_task(meta(3.0, 0), ());
        }
        let tl1 = simulate_uniform(&g, 1, 1.0);
        let tl4 = simulate_uniform(&g, 4, 1.0);
        let tl8 = simulate_uniform(&g, 8, 1.0);
        assert!((tl1.makespan - 24.0).abs() < 1e-12);
        assert!((tl4.makespan - 6.0).abs() < 1e-12);
        assert!((tl8.makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_bounds_hold() {
        // Random-ish DAG: layered.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut prev_layer: Vec<usize> = Vec::new();
        for layer in 0..5 {
            let mut this = Vec::new();
            for i in 0..(3 + layer) {
                let id = g.add_task(meta((i + 1) as f64, 0), ());
                for &p in &prev_layer {
                    g.add_dep(p, id);
                }
                this.push(id);
            }
            prev_layer = this;
        }
        let p = 4;
        let tl = simulate_uniform(&g, p, 1.0);
        tl.validate();
        let total = g.total_flops();
        let cp = g.critical_path_flops();
        assert!(tl.makespan >= cp - 1e-9, "makespan below critical path");
        assert!(tl.makespan >= total / p as f64 - 1e-9, "makespan below work bound");
        assert!(tl.makespan <= total + 1e-9, "makespan above serial time");
    }

    #[test]
    fn priorities_break_ties() {
        // Two ready tasks, one core: higher priority runs first.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let lo = g.add_task(meta(1.0, 0), ());
        let hi = g.add_task(meta(1.0, 10), ());
        let tl = simulate_uniform(&g, 1, 1.0);
        let lane = &tl.lanes[0];
        assert_eq!(lane[0].task, hi);
        assert_eq!(lane[1].task, lo);
    }

    #[test]
    fn lookahead_priority_shortens_makespan() {
        // Classic case: a long task L and a short chain s1 -> s2 -> s3, two
        // cores. If the chain head starts first, makespan = max(L, 3s); if
        // the long task hogs the only... with 2 cores both run; make chain
        // long enough that starting order matters with 1 core + 1 chain.
        // Use 1 core: priority decides order but not makespan. Use a DAG
        // where wrong order creates idle: root releases {chain-head(hi), leaf},
        // chain: 3 x 1.0, leaf 1.0, 2 cores after root.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let root = g.add_task(meta(1.0, 0), ());
        let c1 = g.add_task(meta(1.0, 5), ());
        let leaf1 = g.add_task(meta(1.0, 0), ());
        let leaf2 = g.add_task(meta(1.0, 0), ());
        let c2 = g.add_task(meta(1.0, 5), ());
        let c3 = g.add_task(meta(1.0, 5), ());
        g.add_dep(root, c1);
        g.add_dep(root, leaf1);
        g.add_dep(root, leaf2);
        g.add_dep(c1, c2);
        g.add_dep(c2, c3);
        let tl = simulate_uniform(&g, 2, 1.0);
        // With chain prioritized: t=1 start c1+leaf1; t=2 c2+leaf2; t=3 c3.
        assert!((tl.makespan - 4.0).abs() < 1e-12, "makespan {}", tl.makespan);
    }

    #[test]
    fn zero_cost_tasks_do_not_hang() {
        let g = chain(100, 0.0);
        let tl = simulate_uniform(&g, 2, 1.0);
        assert_eq!(tl.makespan, 0.0);
        let spans: usize = tl.lanes.iter().map(|l| l.len()).sum();
        assert_eq!(spans, 100);
    }

    #[test]
    fn injected_fault_cancels_downstream_in_simulation() {
        // Chain of 10; fail the 4th started task: 6 tasks cancel, the
        // simulation still terminates, and the error names the task.
        let g = chain(10, 1.0);
        let plan = ChaosPlan::quiet(0).fail_nth(4, |_| true);
        let err = faulted(&g, 4, &plan);
        assert_eq!(err.task, 3);
        assert!(!err.panicked);
        assert_eq!(err.cancelled, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn independent_work_survives_simulated_fault() {
        // Two disjoint chains; panic in one must not touch the other.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut chains = Vec::new();
        for c in 0..2usize {
            let mut prev = None;
            for s in 0..5 {
                let m = TaskMeta::new(TaskLabel::new(TaskKind::Update, s, c, 0), 1.0);
                let id = g.add_task(m, ());
                if let Some(p) = prev {
                    g.add_dep(p, id);
                }
                prev = Some(id);
                chains.push(id);
            }
        }
        let plan = ChaosPlan::quiet(0).panic_nth(1, |l| l.i == 0 && l.step == 1);
        let err = faulted(&g, 2, &plan);
        assert!(err.panicked);
        assert_eq!(err.cancelled.len(), 3, "only the faulty chain's tail cancels");
        // All of chain 1 plus chain 0's steps 0..=1 executed.
        let tl_err = err;
        assert!(tl_err.cancelled.iter().all(|&id| (2..=4).contains(&id)));
    }

    #[test]
    fn quiet_plan_matches_simulate() {
        let g = chain(10, 2.0);
        let a = simulate_uniform(&g, 3, 1.0);
        let opts = SimOptions { chaos: Some(&ChaosPlan::quiet(0)), ..Default::default() };
        let b = simulate_with(&g, 3, |_, m| m.flops, &opts);
        assert!(b.failure.is_none());
        assert_eq!(a.makespan, b.stats.timeline.makespan);
    }

    #[test]
    fn checked_simulation_rejects_unordered_graph() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = g.add_task(meta(1.0, 0), ());
        let b = g.add_task(meta(1.0, 0), ());
        let mut access = AccessMap::new(1, 1);
        access.record_write(a, ca_matrix::ElemRect::new(0..1, 0..1));
        access.record_write(b, ca_matrix::ElemRect::new(0..1, 0..1));
        let opts = SimOptions { access: Some(&access), ..Default::default() };
        match simulate_with(&g, 2, |_, m| m.flops, &opts).violation {
            Some(SoundnessError::UnorderedConflict { .. }) => {}
            other => panic!("expected UnorderedConflict, got {other:?}"),
        }
        // With the ordering edge the same graph simulates fine.
        g.add_dep(a, b);
        let report = simulate_with(&g, 2, |_, m| m.flops, &opts);
        assert!(report.violation.is_none());
        assert_eq!(report.stats.tasks, 2);
    }
}

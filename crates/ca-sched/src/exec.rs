//! The one-shot front door: [`execute`] runs one [`TaskGraph`] of [`Job`]s
//! to quiescence as a single-job run of the frontier core.
//!
//! There is no worker loop here, and no options: [`execute`] puts a
//! [`Core`] on its own stack, admits the graph as that core's only job and
//! closes it, runs lane 0 on the calling thread and lanes `1..nthreads` on
//! scoped threads (so a single-worker run spawns nothing and jobs may
//! borrow from the caller), and reports what the finalized job left, as
//! [`crate::simulate`] does. The jobs run as given: fault injection and the
//! leases are put around a plan's task bodies by [`crate::plan_jobs`], the
//! one place they enter a run. A failed or
//! panicking task cancels its transitive successors, and the first failure
//! is reported in [`RunReport::failure`]; [`run_graph`] is the panicking
//! convenience.

use crate::fault::{ExecError, TaskResult};
use crate::graph::TaskGraph;
use crate::log::JobLog;
use crate::multigraph::{Core, Finished, JobOptions, JobOutcome};
use crate::profile::Profile;
use crate::trace::Timeline;
use std::any::Any;

/// A unit of executable work. Borrows from the caller's scope (`'s`), so
/// tasks can capture references to a shared matrix. Returns `Ok(())` on
/// success; an `Err` (or a panic) cancels all transitive successors.
pub type Job<'s> = Box<dyn FnOnce() -> TaskResult + Send + 's>;

/// A [`Job`] that borrows nothing: what a [`crate::MultiFrontier`] takes,
/// since its jobs outlive the submitting call (capture `Arc`s, not
/// references).
pub type DynJob = Job<'static>;

/// Wraps an infallible closure as a [`Job`]. This is the common case: most
/// kernels signal trouble by panicking (caught by the executor), not by
/// returning `Err`.
pub fn job<'s>(f: impl FnOnce() + Send + 's) -> Job<'s> {
    Box::new(move || {
        f();
        Ok(())
    })
}

/// Statistics of one execution.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock execution time in seconds.
    pub wall_seconds: f64,
    /// Wall-clock timeline (spans use `Instant` deltas): the
    /// lane-per-worker view of the run's job log.
    pub timeline: Timeline,
}

/// Everything a run (threaded or simulated) produced. A failing run still
/// carries the statistics and profile of what did execute.
pub struct RunReport {
    /// Task count, wall time and timeline of the executed tasks.
    pub stats: ExecStats,
    /// The first task failure, with every cancelled task.
    pub failure: Option<ExecError>,
    /// Payload of the first panic, for [`run_graph`] to re-raise.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
    /// What the run's one job left: [`RunReport::profile`] is a view of it.
    pub(crate) log: JobLog,
}

impl RunReport {
    /// The failure-free report of a run whose one job left `log` and ended
    /// `makespan` seconds after it started: what [`execute`] and
    /// [`crate::simulate`] build their reports from.
    pub(crate) fn new(log: JobLog, makespan: f64) -> Self {
        let timeline = Timeline::from_log(&log.recs, log.nworkers, makespan);
        let stats = ExecStats { tasks: log.recs.len(), wall_seconds: makespan, timeline };
        RunReport { stats, failure: None, panic: None, log }
    }

    /// The full-lifecycle view of the run's job log (ready stamps, derived
    /// queue depth, edges), built when asked for. Cancelled tasks appear in
    /// [`Profile::cancelled`], never as records.
    pub fn profile(&self) -> Profile {
        Profile::from_log(&self.log, self.stats.wall_seconds)
    }

    /// What recovery did over the run: a fold over its job log (all zero
    /// unless the plan ran under [`crate::FactorOptions::retry`] or
    /// [`crate::FactorOptions::chaos`]).
    pub fn recovery(&self) -> crate::RecoveryStats {
        self.log.recovery()
    }
}

/// Executes the graph on `nthreads` workers, consuming it, and returns after
/// every task has either run or been cancelled because a (transitive)
/// predecessor failed.
///
/// # Panics
/// If `nthreads == 0`.
pub fn execute(graph: TaskGraph<Job<'_>>, nthreads: usize) -> RunReport {
    // The run's clock starts with its core, and so does its one job.
    let core = Core::new(nthreads, None);
    let (_, watch) = core.admit(graph, JobOptions::default(), 0.0);
    core.close();
    // The scope joins the workers (and propagates a worker's own panic,
    // which is a bug here: workers catch their tasks' panics).
    std::thread::scope(|scope| {
        for lane in 1..nthreads {
            let core = &core;
            scope.spawn(move || core.worker(lane));
        }
        core.worker(0);
    });
    let makespan = core.now();
    // The workers of a closed core return only once it has no job left, and
    // a job leaves only by being finalized, which fulfills its watch.
    let Finished { report, panic, log } =
        watch.take().expect("workers of a closed core return once its job is finalized");
    let failure = if let JobOutcome::Failed(e) = report.outcome { Some(e) } else { None };
    RunReport { failure, panic, ..RunReport::new(log, makespan) }
}

/// [`execute`] that panics on task failure: after the graph has drained,
/// the first task panic is re-raised (a non-panic `TaskFailure` becomes a
/// panic naming the task).
///
/// # Panics
/// Propagates the first task panic; panics if `nthreads == 0`.
pub fn run_graph(graph: TaskGraph<Job<'_>>, nthreads: usize) -> ExecStats {
    let report = execute(graph, nthreads);
    if let Some(payload) = report.panic {
        std::panic::resume_unwind(payload);
    }
    if let Some(e) = report.failure {
        panic!("task {} ({}) failed: {}", e.task, e.label, e.message);
    }
    report.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel, TaskMeta};

    #[test]
    fn empty_graph_returns_immediately() {
        let g: TaskGraph<Job<'_>> = TaskGraph::new();
        let report = execute(g, 3);
        assert_eq!(report.stats.tasks, 0);
        assert!(report.failure.is_none());
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

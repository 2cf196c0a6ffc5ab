//! The one path every DAG factorization takes from a matrix to factors, and
//! the one way to write what travels it.
//!
//! A [`Plan`] is a task graph in which every task was added once — its
//! [`TaskMeta`], the element rects it declares and the closure that touches
//! them, built from the same variables ([`PlanBuilder::task`]) — plus the
//! run-time slots the closures fill and a function gathering the factors
//! from them. [`run_plan`] optionally proves the graph sound and attaches the
//! race detector, optionally wraps every task for snapshot/replay recovery,
//! hands the jobs to [`crate::execute`], and gathers. CALU, CAQR and the
//! four baselines are values of this one type.

use crate::blockdeps::BlockTracker;
use crate::checked::{build_shadow_registry, CheckedError};
use crate::exec::{execute, job, Job, RunOptions, RunReport};
use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::retry::{retrying_job, write_set, ChaosPlan, RecoveryCounters, RetryPolicy};
use crate::task::{TaskId, TaskMeta};
use crate::verify::verify_graph;
use ca_matrix::shadow::ElemRect;
use ca_matrix::{Matrix, Scalar, SharedMatrix};
use std::ops::Range;

/// One task: touches the shared matrix inside the footprint declared beside
/// it, and the plan's run-time slots `S`.
type Body<T, S> = Box<dyn Fn(&SharedMatrix<T>, &S) + Send + Sync>;

/// A built factorization DAG over element type `T`. The graph and the
/// declared footprints depend on neither `T` nor the slots; `S` is what the
/// tasks leave for each other and for the result (pivots, `T` factors, pack
/// images — typically `OnceLock`s), `F` the factors gathered from it.
pub struct Plan<T: Scalar, S, F> {
    graph: TaskGraph<()>,
    access: AccessMap,
    /// `bodies[id]` runs task `id`.
    bodies: Vec<Body<T, S>>,
    slots: S,
    gather: fn(Matrix<T>, S) -> F,
}

impl<T: Scalar, S, F> Plan<T, S, F> {
    /// The task graph — what runs, and what the simulator costs.
    pub fn graph(&self) -> &TaskGraph<()> {
        &self.graph
    }

    /// Declared element-rect footprints of every task.
    pub fn access(&self) -> &AccessMap {
        &self.access
    }

    /// The graph and the footprints alone, for the simulator and the
    /// verifier.
    pub fn into_parts(self) -> (TaskGraph<()>, AccessMap) {
        (self.graph, self.access)
    }

    /// Executes task `id` against the shared matrix (called from workers).
    pub fn run_task(&self, id: TaskId, a: &SharedMatrix<T>) {
        (self.bodies[id])(a, &self.slots)
    }

    /// Gathers the factors once every task completed successfully.
    pub fn collect(self, a: SharedMatrix<T>) -> F {
        (self.gather)(a.into_inner(), self.slots)
    }
}

/// A [`Plan`] under construction: the graph, the [`BlockTracker`] that
/// infers its conflict edges from the declared footprints, and the task
/// bodies.
pub struct PlanBuilder<T: Scalar, S> {
    /// The graph so far — for the explicit edges side storage needs
    /// ([`TaskGraph::add_dep`]) and [`crate::reduce_transitive_edges`]. Tasks
    /// are added through [`PlanBuilder::task`] only.
    pub graph: TaskGraph<()>,
    tracker: BlockTracker,
    bodies: Vec<Body<T, S>>,
}

impl<T: Scalar, S> PlanBuilder<T, S> {
    /// A builder for an `m × n` matrix whose block coordinates
    /// ([`PlanBuilder::reads`], [`PlanBuilder::writes`]) are `b`-sized.
    pub fn new(b: usize, m: usize, n: usize) -> Self {
        Self { graph: TaskGraph::new(), tracker: BlockTracker::with_geometry(b, m, n), bodies: Vec::new() }
    }

    /// Adds a task running `body`. Declare its footprint right after, from
    /// the variables `body` captured.
    pub fn task(
        &mut self,
        meta: TaskMeta,
        body: impl Fn(&SharedMatrix<T>, &S) + Send + Sync + 'static,
    ) -> TaskId {
        self.bodies.push(Box::new(body));
        self.graph.add_task(meta, ())
    }

    /// Declares that `task` reads blocks `rows × cols`.
    pub fn reads(&mut self, task: TaskId, rows: Range<usize>, cols: Range<usize>) {
        self.tracker.read(&mut self.graph, task, rows, cols);
    }

    /// Declares that `task` writes blocks `rows × cols`.
    pub fn writes(&mut self, task: TaskId, rows: Range<usize>, cols: Range<usize>) {
        self.tracker.write(&mut self.graph, task, rows, cols);
    }

    /// Declares that `task` reads the element rectangle `rect`.
    pub fn reads_rect(&mut self, task: TaskId, rect: ElemRect) {
        self.tracker.read_rect(&mut self.graph, task, rect);
    }

    /// Declares that `task` writes the element rectangle `rect`.
    pub fn writes_rect(&mut self, task: TaskId, rect: ElemRect) {
        self.tracker.write_rect(&mut self.graph, task, rect);
    }

    /// The finished plan: `slots` start empty, `gather` turns the factored
    /// matrix and the filled slots into the factors.
    pub fn finish<F>(self, slots: S, gather: fn(Matrix<T>, S) -> F) -> Plan<T, S, F> {
        assert_eq!(self.bodies.len(), self.graph.len(), "a task was added past PlanBuilder::task");
        Plan {
            graph: self.graph,
            access: self.tracker.into_access_map(),
            bodies: self.bodies,
            slots,
            gather,
        }
    }
}

/// Task-level recovery for a one-shot factorization: every task body is
/// wrapped by [`retrying_job`], so a failure or panic restores the task's
/// declared write-set from a pre-attempt snapshot and replays it under
/// `policy`; successors are cancelled only once retries are exhausted.
/// Fault-free replays are bitwise-identical, so a recovered run produces
/// exactly the factors of an undisturbed one.
#[derive(Clone, Copy)]
pub struct Retry<'a> {
    /// How often and how patiently a failed task is replayed.
    pub policy: RetryPolicy,
    /// Where recovery activity (attempts, restores, injections) accumulates.
    pub counters: &'a RecoveryCounters,
}

/// How [`run_plan`] runs. `Default` is a plain run.
#[derive(Clone, Copy, Default)]
pub struct FactorOptions<'a> {
    /// Inject seeded failures/panics/delays (and, under `retry`, silent
    /// corruption) for testing. Without `retry` an injected failure fails
    /// the factorization with [`CheckedError::Exec`].
    pub chaos: Option<&'a ChaosPlan>,
    /// Snapshot/replay recovery of failed tasks.
    pub retry: Option<Retry<'a>>,
    /// Checked execution: the task graph is first proven sound by the
    /// static verifier ([`verify_graph`]), then executed with every
    /// [`SharedMatrix`] block access — the retry wrapper's snapshots and
    /// restores included — audited against the builder's declared
    /// footprints through a [`ca_matrix::ShadowRegistry`]. Any unordered
    /// conflict, runtime lease overlap, or out-of-footprint access is
    /// reported as [`CheckedError::Soundness`] naming the offending task
    /// labels.
    pub checked: bool,
}

/// Factors `a` through `plan` on `threads` workers. A worker failure maps
/// to [`CheckedError::Exec`] without ever touching the plan's
/// not-yet-filled result slots.
pub fn run_plan<T: Scalar, S: Sync, F>(
    plan: Plan<T, S, F>,
    a: Matrix<T>,
    threads: usize,
    opts: &FactorOptions<'_>,
) -> Result<(F, RunReport), CheckedError> {
    let registry = if opts.checked {
        verify_graph(&plan.graph, &plan.access).map_err(CheckedError::Soundness)?;
        Some(build_shadow_registry(&plan.graph, &plan.access))
    } else {
        None
    };
    let shared = match &registry {
        Some(registry) => SharedMatrix::with_shadow(a, registry.clone()),
        None => SharedMatrix::new(a),
    };

    let quiet = ChaosPlan::quiet(0);
    let jobs: TaskGraph<Job<'_>> = plan.graph.map_ref(|id, _| {
        let (plan, shared) = (&plan, &shared);
        let body = move || plan.run_task(id, shared);
        match opts.retry {
            None => job(body),
            Some(retry) => retrying_job(
                plan.graph.meta(id).label,
                write_set(&plan.access, id),
                shared,
                retry.policy,
                opts.chaos.unwrap_or(&quiet),
                retry.counters,
                body,
            ),
        }
    });
    let run = RunOptions {
        // Under `retry` the wrappers above consult the plan, once per attempt.
        chaos: if opts.retry.is_none() { opts.chaos } else { None },
        shadow: registry.as_ref(),
    };
    let report = execute(jobs, threads, &run).into_result()?;
    Ok((plan.collect(shared), report))
}

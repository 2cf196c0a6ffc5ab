//! The one path every DAG factorization takes from a matrix to factors.
//!
//! [`run_plan`] takes a built plan, optionally proves its graph sound and
//! attaches the race detector, optionally wraps every task for
//! snapshot/replay recovery, hands the jobs to [`crate::execute`], and
//! collects the factors. CALU, CAQR and the four baselines differ only in
//! their [`DagPlan`].

use crate::checked::{build_shadow_registry, CheckedError};
use crate::exec::{execute, job, Job, RunOptions, RunReport};
use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::retry::{retrying_job, write_set, ChaosPlan, RecoveryCounters, RetryPolicy};
use crate::verify::verify_graph;
use ca_matrix::{Matrix, Scalar, SharedMatrix};

/// A built factorization DAG over element type `T`: the graph, the
/// footprints its builder declared (neither depends on `T`), and how to run
/// one task and gather the result. Each plan type has its own constructor,
/// taking whatever parameters its algorithm has.
pub trait DagPlan<T: Scalar>: Send + Sync + Sized + 'static {
    /// Payload of the task graph.
    type Task: Copy + Send + Sync + 'static;
    /// What the factorization returns.
    type Factors: Send + Sync + 'static;

    /// The task graph — what runs, and what the simulator costs.
    fn graph(&self) -> &TaskGraph<Self::Task>;
    /// Declared element-rect footprints of every task.
    fn access(&self) -> &AccessMap;
    /// Executes one task against the shared matrix (called from workers).
    fn exec(&self, a: &SharedMatrix<T>, t: Self::Task);
    /// Gathers the result once every task completed successfully.
    fn collect(self, shared: SharedMatrix<T>) -> Self::Factors;
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
pub fn run_plan<T: Scalar, P: DagPlan<T>>(
    plan: P,
    a: Matrix<T>,
    threads: usize,
    opts: &FactorOptions<'_>,
) -> Result<(P::Factors, RunReport), CheckedError> {
    let registry = if opts.checked {
        verify_graph(plan.graph(), plan.access()).map_err(CheckedError::Soundness)?;
        Some(build_shadow_registry(plan.graph(), plan.access()))
    } else {
        None
    };
    let shared = match &registry {
        Some(registry) => SharedMatrix::with_shadow(a, registry.clone()),
        None => SharedMatrix::new(a),
    };

    let quiet = ChaosPlan::quiet(0);
    let jobs: TaskGraph<Job<'_>> = plan.graph().map_ref(|id, &spec| {
        let (plan, shared) = (&plan, &shared);
        let body = move || plan.exec(shared, spec);
        match opts.retry {
            None => job(body),
            Some(retry) => retrying_job(
                plan.graph().meta(id).label,
                write_set(plan.access(), id),
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

//! The one path every DAG factorization takes from a matrix to factors.
//!
//! [`run_plan`] builds the task graph, optionally proves it sound and
//! attaches the race detector, optionally wraps every task for
//! snapshot/replay recovery, hands the jobs to [`ca_sched::execute`], and
//! collects the factors. CALU and CAQR differ only in their [`DagPlan`].

use crate::error::FactorError;
use crate::params::CaParams;
use ca_kernels::Kernel;
use ca_matrix::{Matrix, SharedMatrix};
use ca_sched::{
    AccessMap, ChaosPlan, Job, RecoveryCounters, RetryPolicy, RunOptions, RunReport, TaskGraph,
};

/// A built factorization DAG over element type `T`: the graph, the
/// footprints its builder declared (neither depends on `T`), and how to run
/// one task and gather the result.
pub(crate) trait DagPlan<T: Kernel>: Send + Sync + Sized + 'static {
    /// Payload of the task graph.
    type Task: Copy + Send + Sync + 'static;
    /// What the factorization returns.
    type Factors: Send + Sync + 'static;

    fn build(m: usize, n: usize, p: &CaParams) -> Self;
    fn graph(&self) -> &TaskGraph<Self::Task>;
    /// Declared element-rect footprints of every task.
    fn access(&self) -> &AccessMap;
    /// Executes one task against the shared matrix (called from workers).
    fn exec(&self, a: &SharedMatrix<T>, t: Self::Task);
    /// Gathers the result once every task completed successfully.
    fn collect(self, shared: SharedMatrix<T>) -> Self::Factors;
}

/// Task-level recovery for a one-shot factorization: every task body is
/// wrapped by [`ca_sched::retrying_job`], so a failure or panic restores the
/// task's declared write-set from a pre-attempt snapshot and replays it
/// under `policy`; successors are cancelled only once retries are exhausted.
/// Fault-free replays are bitwise-identical, so a recovered run produces
/// exactly the factors of an undisturbed one.
#[derive(Clone, Copy)]
pub struct Retry<'a> {
    /// How often and how patiently a failed task is replayed.
    pub policy: RetryPolicy,
    /// Where recovery activity (attempts, restores, injections) accumulates.
    pub counters: &'a RecoveryCounters,
}

/// How [`crate::try_calu_with`] / [`crate::try_caqr_with`] run. `Default` is
/// a plain run.
#[derive(Clone, Copy, Default)]
pub struct FactorOptions<'a> {
    /// Inject seeded failures/panics/delays (and, under `retry`, silent
    /// corruption) for testing. Without `retry` an injected failure fails
    /// the factorization with [`FactorError::TaskFailed`].
    pub chaos: Option<&'a ChaosPlan>,
    /// Snapshot/replay recovery of failed tasks.
    pub retry: Option<Retry<'a>>,
    /// Checked execution: the task graph is first proven sound by the
    /// static verifier ([`ca_sched::verify_graph`]), then executed with every
    /// [`ca_matrix::SharedMatrix`] block access — the retry wrapper's
    /// snapshots and restores included — audited against the builder's
    /// declared footprints through a [`ca_matrix::ShadowRegistry`]. Any
    /// unordered conflict, runtime lease overlap, or out-of-footprint access
    /// is reported as [`FactorError::Soundness`] naming the offending task
    /// labels.
    pub checked: bool,
}

/// Factors `a` through plan type `P`. A worker failure maps to
/// [`FactorError::TaskFailed`] without ever touching the plan's
/// not-yet-filled result slots.
pub(crate) fn run_plan<T: Kernel, P: DagPlan<T>>(
    a: Matrix<T>,
    p: &CaParams,
    opts: &FactorOptions<'_>,
) -> Result<(P::Factors, RunReport), FactorError> {
    let plan = P::build(a.nrows(), a.ncols(), p);
    let registry = if opts.checked {
        ca_sched::verify_graph(plan.graph(), plan.access())?;
        Some(ca_sched::build_shadow_registry(plan.graph(), plan.access()))
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
            None => ca_sched::job(body),
            Some(retry) => ca_sched::retrying_job(
                plan.graph().meta(id).label,
                ca_sched::write_set(plan.access(), id),
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
    let report = ca_sched::execute(jobs, p.threads, &run).into_result()?;
    Ok((plan.collect(shared), report))
}

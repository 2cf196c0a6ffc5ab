//! The one path every DAG factorization takes from a matrix to factors, and
//! the one way to write what travels it.
//!
//! A [`Plan`] is a task graph in which every task was added once — its
//! [`TaskMeta`], the element rects it declares and the closure that touches
//! them, built from the same variables ([`PlanBuilder::task`]) — plus the
//! run-time slots the closures fill and a function gathering the factors
//! from them. [`plan_jobs`] is the one way from a plan to runnable jobs,
//! verified and wrapped as its [`FactorOptions`] ask; whoever owns the
//! workers runs them: [`run_plan`] on the caller's stack
//! ([`crate::execute`]), a serving tier on a [`crate::MultiFrontier`]. CALU,
//! CAQR and the four baselines are values of this one type.

use crate::blockdeps::BlockTracker;
use crate::checked::{build_shadow_registry, first_violation, CheckedError};
use crate::exec::{execute, job, DynJob, RunReport};
use crate::footprint::{AccessMap, Slot};
use crate::graph::TaskGraph;
use crate::fault::TaskFailure;
use crate::retry::{guarded_job, run_recovering, ChaosPlan, RetryPolicy};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::verify::{verify_graph, SoundnessError};
use ca_matrix::shadow::ElemRect;
use ca_matrix::{Matrix, Scalar, ShadowRegistry, SharedMatrix};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
}

/// A [`Plan`] under construction: the graph, the [`BlockTracker`] that
/// infers every edge of it from the declared footprints, and the task
/// bodies. A footprint is matrix blocks or element rects, plus the side
/// storage slots ([`PlanBuilder::slot`]) the task fills and reads: no edge
/// is added by hand, so [`verify_graph`] proves each one and the
/// minimality lint justifies each one.
pub struct PlanBuilder<T: Scalar, S> {
    graph: TaskGraph<()>,
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

    /// A fresh slot of side storage: what one task leaves in `S` for
    /// others (pivots, `T` factors, candidates, pack images). The task
    /// filling it declares [`PlanBuilder::writes_slot`], each task reading
    /// it [`PlanBuilder::reads_slot`].
    pub fn slot(&mut self) -> Slot {
        self.tracker.slot()
    }

    /// Declares that `task` reads slot `s`.
    pub fn reads_slot(&mut self, task: TaskId, s: Slot) {
        self.tracker.read_rect(&mut self.graph, task, s.0);
    }

    /// Declares that `task` fills slot `s`.
    pub fn writes_slot(&mut self, task: TaskId, s: Slot) {
        self.tracker.write_rect(&mut self.graph, task, s.0);
    }

    /// The finished plan, its graph reduced to the minimal equivalent DAG
    /// ([`crate::reduce_transitive_edges`]): the tracker reasons one
    /// footprint at a time and over-wires edges a path already implies.
    /// `slots` start empty, `gather` turns the factored matrix and the
    /// filled slots into the factors.
    pub fn finish<F>(mut self, slots: S, gather: fn(Matrix<T>, S) -> F) -> Plan<T, S, F> {
        crate::reduce_transitive_edges(&mut self.graph);
        Plan {
            graph: self.graph,
            access: self.tracker.into_access_map(),
            bodies: self.bodies,
            slots,
            gather,
        }
    }
}

/// The recovery ladder: every task body runs under the retry protocol, so
/// a failure or panic restores the task's declared write-set from a
/// pre-attempt snapshot and replays it under `policy`; and the job's last
/// step probes the factors against its input and, if they are corrupted or
/// a task used up its budget, factors the input again with the sequential
/// reference, up to `replays` times. Both replays give the bits of an
/// undisturbed run: a task's writes are restored exactly, and the reduction
/// tree fixes the arithmetic, so every schedule gives the sequential bits.
///
/// The whole-plan half is the factorization's: `ca-core`'s served jobs and
/// `try_*_with` run it in the sink task they append. [`run_plan`] has no
/// reference to replay with and runs with none left: a task out of budget
/// fails the run. Any other [`plan_jobs`] caller with replays left must
/// replay itself: [`PlanRun::exhausted`] names the task out of budget, and
/// [`PlanRun::collect`] gives nothing.
#[derive(Clone, Copy, Debug)]
pub struct Retry {
    /// How often and how patiently a failed task is replayed.
    pub policy: RetryPolicy,
    /// How often the whole plan is factored again from its input.
    pub replays: usize,
}

impl Default for Retry {
    fn default() -> Self {
        Self { policy: RetryPolicy::default(), replays: 2 }
    }
}

/// How a plan's tasks run, whoever owns the workers. `Default` is a plain
/// run. Owned, so the jobs made under it may outlive their maker.
#[derive(Clone, Default)]
pub struct FactorOptions {
    /// Inject seeded failures, panics and delays for testing. Without `retry`
    /// nothing is snapshotted, so nothing is damaged either: an injected
    /// failure or panic fires before the body and fails the run
    /// ([`CheckedError::Exec`]), a corruption draw injects nothing. Under
    /// `retry` an injected failure first scribbles over the task's write-set
    /// (the replay restores it), and a corruption draw silently perturbs one
    /// element a successful task wrote.
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Snapshot/replay recovery of failed tasks, and of the whole plan.
    pub retry: Option<Retry>,
    /// Checked execution: the task graph is first proven sound by the
    /// static verifier ([`verify_graph`]), then executed with every
    /// [`SharedMatrix`] block access — the retry protocol's snapshots and
    /// restores included — audited against the builder's declared
    /// footprints through a [`ca_matrix::ShadowRegistry`]. Any unordered
    /// conflict, runtime lease overlap, or out-of-footprint access is
    /// reported as a [`SoundnessError`] naming the offending task labels.
    pub checked: bool,
}

/// What the jobs of one plan share — the task bodies and slots, the matrix
/// they factor in place, the race detector's registry when checked — and
/// the gathering end of [`plan_jobs`] for whoever runs them.
pub struct PlanRun<T: Scalar, S, F> {
    plan: Plan<T, S, F>,
    matrix: SharedMatrix<T>,
    registry: Option<Arc<ShadowRegistry>>,
    /// The first task that used up its replay budget while whole-plan
    /// replays remained: every body after it is skipped, and so is the
    /// gather.
    exhausted: OnceLock<(TaskLabel, TaskFailure)>,
}

/// What [`plan_jobs`] yields: one owning job per task, and their gatherer.
pub type PlanJobs<T, S, F> = (TaskGraph<DynJob>, Arc<PlanRun<T, S, F>>);

impl<T: Scalar, S, F> PlanRun<T, S, F> {
    fn run_task(&self, id: TaskId) {
        (self.plan.bodies[id])(&self.matrix, &self.plan.slots)
    }

    /// The task that used up its replay budget, and its last failure, if
    /// one did while whole-plan replays remained ([`Retry::replays`]): the
    /// run's slots are then incomplete, so gather nothing.
    pub fn exhausted(&self) -> Option<&(TaskLabel, TaskFailure)> {
        self.exhausted.get()
    }

    /// The first violation the race detector recorded so far (always `None`
    /// unless the jobs were made `checked`).
    pub fn violation(&self) -> Option<SoundnessError> {
        self.registry.as_deref().and_then(first_violation)
    }

    /// Gathers the factors. A job holds the matrix until it has run or been
    /// dropped, so this is `None` while any job of the graph is alive; ask
    /// after the graph drained, or from a task ordered after every other.
    /// `None` too once a task used up its budget ([`Self::exhausted`]): the
    /// slots it and its successors fill are empty.
    pub fn collect(self: Arc<Self>) -> Option<F> {
        let Self { plan, matrix, exhausted, .. } = Arc::into_inner(self)?;
        exhausted.get().is_none().then(|| (plan.gather)(matrix.into_inner(), plan.slots))
    }
}

/// The one way from a plan to runnable jobs: `plan`'s graph with an owning
/// job per task (same ids, same edges), over `a`, wrapped as `opts` ask.
/// `checked` proves the graph sound first (an `Err` here) and attaches the
/// race detector; then each task body runs inside its shadow scope, after
/// `chaos` was consulted, under `retry`'s snapshot/replay of the write-set
/// the plan declared for it. A task out of replays fails its job, unless
/// whole-plan replays remain: then it notes itself as
/// [`PlanRun::exhausted`] and succeeds, and every task after it skips its
/// body, so the job reaches whoever settles it. Run every job (or drop it),
/// then ask the [`PlanRun`].
pub fn plan_jobs<T: Scalar, S: Send + Sync + 'static, F: 'static>(
    plan: Plan<T, S, F>,
    a: Matrix<T>,
    opts: &FactorOptions,
) -> Result<PlanJobs<T, S, F>, SoundnessError> {
    let registry = if opts.checked {
        verify_graph(&plan.graph, &plan.access)?;
        Some(build_shadow_registry(&plan.graph, &plan.access))
    } else {
        None
    };
    let matrix = match &registry {
        Some(registry) => SharedMatrix::with_shadow(a, registry.clone()),
        None => SharedMatrix::new(a),
    };
    let run = Arc::new(PlanRun { plan, matrix, registry, exhausted: OnceLock::new() });

    let jobs = run.plan.graph.map_ref(|id, _| {
        let (run, chaos, scope) = (Arc::clone(&run), opts.chaos.clone(), run.registry.clone());
        let label = run.plan.graph.meta(id).label;
        // Under `retry` the protocol consults the chaos plan itself, once per
        // attempt; either way snapshots and restores happen inside the scope.
        let (chaos, task): (_, DynJob) = match opts.retry {
            None => (chaos, job(move || run.run_task(id))),
            Some(Retry { policy, replays }) => {
                let recovering = move || {
                    if run.exhausted.get().is_some() {
                        return Ok(());
                    }
                    let (writes, chaos) = (run.plan.access.matrix_writes(id), chaos.as_deref());
                    let body = || run.run_task(id);
                    match run_recovering(&label, writes, &run.matrix, &policy, chaos, &body) {
                        Err(failure) if replays > 0 => {
                            let _ = run.exhausted.set((label, failure));
                            Ok(())
                        }
                        outcome => outcome,
                    }
                };
                (None, Box::new(recovering))
            }
        };
        guarded_job(id, label, scope, chaos, task)
    });
    Ok((jobs, run))
}

/// Factors `a` through `plan` on `threads` workers of the caller's own
/// ([`execute`]). A worker failure — a task out of replays included: there
/// are no whole-plan replays here — maps to [`CheckedError::Exec`] without
/// ever touching the plan's not-yet-filled result slots.
pub fn run_plan<T: Scalar, S: Send + Sync + 'static, F: 'static>(
    plan: Plan<T, S, F>,
    a: Matrix<T>,
    threads: usize,
    opts: &FactorOptions,
) -> Result<(F, RunReport), CheckedError> {
    let retry = opts.retry.map(|r| Retry { replays: 0, ..r });
    let opts = FactorOptions { retry, ..opts.clone() };
    let (jobs, run) = plan_jobs(plan, a, &opts).map_err(CheckedError::Soundness)?;
    let mut report = execute(jobs, threads);
    if let Some(e) = report.failure.take() {
        return Err(CheckedError::Exec(e));
    }
    if let Some(v) = run.violation() {
        return Err(CheckedError::Soundness(v));
    }
    let factors = run.collect().expect("execute ran or dropped every job, so the run is the last owner");
    Ok((factors, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    #[test]
    fn a_run_whose_task_used_up_its_budget_gathers_nothing() {
        // Task 0 fills the slot the gather reads and fails once, with no
        // task replay to spare: under the default whole-plan replays it
        // notes itself and succeeds, and the gather must not read the slot.
        let mut pb = PlanBuilder::<f64, OnceLock<f64>>::new(1, 2, 1);
        let fill = TaskLabel::new(TaskKind::Panel, 0, 0, 0);
        let t = pb.task(TaskMeta::new(fill, 1.0), |_, slot| {
            let _ = slot.set(1.0);
        });
        pb.writes(t, 0..1, 0..1);
        let t = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Update, 0, 1, 0), 1.0), |_, slot| {
            assert!(slot.get().is_some(), "a skipped body is never reached");
        });
        pb.reads(t, 0..1, 0..1);
        pb.writes(t, 1..2, 0..1);
        let plan = pb.finish(OnceLock::new(), |_, slot| slot.into_inner().expect("slot filled"));
        let opts = FactorOptions {
            chaos: Some(Arc::new(ChaosPlan::quiet(0).fail_nth(1, move |l| *l == fill))),
            retry: Some(Retry { policy: RetryPolicy::default().with_max_retries(0), ..Retry::default() }),
            checked: false,
        };
        let (jobs, run) = plan_jobs(plan, Matrix::zeros(2, 1), &opts).expect("nothing to verify");
        let report = execute(jobs, 1);
        assert!(report.failure.is_none(), "the exhausted task hands the run on");
        assert_eq!(run.exhausted().map(|(label, _)| *label), Some(fill));
        assert_eq!(run.collect(), None);
    }
}

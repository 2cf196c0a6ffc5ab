//! The one path every DAG factorization takes from a matrix to factors, and
//! the one way to write what travels it.
//!
//! A [`Plan`] is a task graph in which every task was added once — its
//! [`TaskMeta`], the element rects and slots it declares, and the closure
//! that touches them through the handles those declarations returned
//! ([`PlanBuilder::task`], [`crate::TaskCx`]) — plus the run-time slots the
//! closures fill and a function gathering the factors from them.
//! [`plan_jobs`] is the one way from a plan to runnable jobs, verified and
//! wrapped as its [`FactorOptions`] ask; whoever owns the workers runs them:
//! [`run_plan`] on the caller's stack ([`crate::execute`]), a serving tier on
//! a [`crate::MultiFrontier`]. CALU, CAQR and the four baselines are values
//! of this one type.

use crate::blockdeps::BlockTracker;
use crate::checked::CheckedError;
use crate::exec::{execute, job, DynJob, RunReport};
use crate::fault::TaskFailure;
use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::lease::{Read, Slot, Slots, TaskCx, Write};
use crate::retry::{guarded_job, run_recovering, ChaosPlan, RetryPolicy};
use crate::task::{TaskId, TaskLabel, TaskMeta};
use crate::verify::{verify_graph, SoundnessError};
use ca_matrix::{ElemRect, Matrix, Scalar, SharedMatrix};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One task: touches the plan's matrix and slots through the leases of its
/// [`TaskCx`].
type Body<T> = Box<dyn Fn(&TaskCx<'_, T>) + Send + Sync>;

/// Turns the factored matrix and the filled slots into the factors: `None`
/// if a slot it takes was never filled.
type Gather<T, F> = Box<dyn FnOnce(Matrix<T>, &mut Slots) -> Option<F> + Send + Sync>;

/// A built factorization DAG over element type `T`, gathering `F`. The
/// graph and the declared footprints depend on neither; the slots hold what
/// the tasks leave for each other and for the result (pivots, `T` factors,
/// pack images).
pub struct Plan<T: Scalar, F> {
    graph: TaskGraph<()>,
    access: AccessMap,
    /// `bodies[id]` runs task `id`.
    bodies: Vec<Body<T>>,
    slots: Slots,
    gather: Gather<T, F>,
}

impl<T: Scalar, F> Plan<T, F> {
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
pub struct PlanBuilder<T: Scalar> {
    graph: TaskGraph<()>,
    tracker: BlockTracker,
    bodies: Vec<Body<T>>,
}

impl<T: Scalar> PlanBuilder<T> {
    /// A builder for an `m × n` matrix whose block coordinates
    /// ([`TaskDecl::reads`], [`TaskDecl::writes`]) are `b`-sized.
    pub fn new(b: usize, m: usize, n: usize) -> Self {
        Self {
            graph: TaskGraph::new(),
            tracker: BlockTracker::with_geometry(b, m, n),
            bodies: Vec::new(),
        }
    }

    /// Adds a task: declare its footprint on the [`TaskDecl`], which hands
    /// out the handles its body opens, then attach the body
    /// ([`TaskDecl::run`]).
    pub fn task(&mut self, meta: TaskMeta) -> TaskDecl<'_, T> {
        let id = self.graph.add_task(meta, ());
        self.bodies.push(Box::new(|_| {}));
        TaskDecl { pb: self, id }
    }

    /// A fresh slot of side storage holding a `V`: what one task leaves for
    /// others (pivots, `T` factors, candidates, pack images). The task
    /// filling it declares [`TaskDecl::writes_slot`], each task reading it
    /// [`TaskDecl::reads_slot`].
    pub fn slot<V: Send + Sync + 'static>(&mut self) -> Slot<V> {
        Slot::new(self.tracker.slot())
    }

    /// The finished plan, its graph reduced to the minimal equivalent DAG
    /// ([`crate::reduce_transitive_edges`]): the tracker reasons one
    /// footprint at a time and over-wires edges a path already implies.
    /// `gather` turns the factored matrix and the filled slots into the
    /// factors.
    pub fn finish<F>(
        mut self,
        gather: impl FnOnce(Matrix<T>, &mut Slots) -> Option<F> + Send + Sync + 'static,
    ) -> Plan<T, F> {
        crate::reduce_transitive_edges(&mut self.graph);
        let access = self.tracker.into_access_map();
        let slots = Slots::new(access.slots());
        Plan { graph: self.graph, access, bodies: self.bodies, slots, gather: Box::new(gather) }
    }
}

/// One task's declarations ([`PlanBuilder::task`]): each returns the handle
/// the body opens, and [`TaskDecl::run`] attaches the body last.
#[must_use = "a task runs the body attached with `run`"]
pub struct TaskDecl<'b, T: Scalar> {
    pb: &'b mut PlanBuilder<T>,
    id: TaskId,
}

impl<T: Scalar> TaskDecl<'_, T> {
    /// Declares that the task reads blocks `rows × cols`.
    pub fn reads(&mut self, rows: Range<usize>, cols: Range<usize>) -> Read {
        Read::new(self.id, self.pb.tracker.read(&mut self.pb.graph, self.id, rows, cols))
    }

    /// Declares that the task writes blocks `rows × cols`.
    pub fn writes(&mut self, rows: Range<usize>, cols: Range<usize>) -> Write {
        Write::new(self.id, self.pb.tracker.write(&mut self.pb.graph, self.id, rows, cols))
    }

    /// Declares that the task reads the element rectangle `rect`.
    pub fn reads_rect(&mut self, rect: ElemRect) -> Read {
        self.pb.tracker.read_rect(&mut self.pb.graph, self.id, rect);
        Read::new(self.id, rect)
    }

    /// Declares that the task writes the element rectangle `rect`.
    pub fn writes_rect(&mut self, rect: ElemRect) -> Write {
        self.pb.tracker.write_rect(&mut self.pb.graph, self.id, rect);
        Write::new(self.id, rect)
    }

    /// Declares that the task reads slot `s` ([`TaskCx::get`]).
    pub fn reads_slot<V>(&mut self, s: Slot<V>) {
        let rect = self.pb.tracker.access().slot_rect(s.index());
        self.pb.tracker.read_rect(&mut self.pb.graph, self.id, rect);
    }

    /// Declares that the task fills slot `s` ([`TaskCx::put`]).
    pub fn writes_slot<V>(&mut self, s: Slot<V>) {
        let rect = self.pb.tracker.access().slot_rect(s.index());
        self.pb.tracker.write_rect(&mut self.pb.graph, self.id, rect);
    }

    /// Attaches the task's body, which opens only the handles declared
    /// above; the task's id.
    pub fn run(self, body: impl Fn(&TaskCx<'_, T>) + Send + Sync + 'static) -> TaskId {
        self.pb.bodies[self.id] = Box::new(body);
        self.id
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
    /// static verifier ([`verify_graph`]) — every pair of tasks whose
    /// declared footprints conflict is ordered — and an unordered conflict
    /// is reported as a [`SoundnessError`] naming the two tasks. That a
    /// body touches only what it declared is checked in every run
    /// ([`TaskCx`]).
    pub checked: bool,
}

/// What the jobs of one plan share — the task bodies and slots, the matrix
/// they factor in place, the first lease a body broke — and the gathering
/// end of [`plan_jobs`] for whoever runs them.
pub struct PlanRun<T: Scalar, F> {
    plan: Plan<T, F>,
    matrix: SharedMatrix<T>,
    violation: OnceLock<SoundnessError>,
    /// The first task that used up its replay budget while whole-plan
    /// replays remained: every body after it is skipped, and so is the
    /// gather.
    exhausted: OnceLock<(TaskLabel, TaskFailure)>,
}

/// What [`plan_jobs`] yields: one owning job per task, and their gatherer.
pub type PlanJobs<T, F> = (TaskGraph<DynJob>, Arc<PlanRun<T, F>>);

impl<T: Scalar, F> PlanRun<T, F> {
    fn run_task(&self, id: TaskId) {
        let Plan { graph, access, slots, .. } = &self.plan;
        let cx =
            TaskCx::new(id, graph.meta(id).label, &self.matrix, access, slots, &self.violation);
        (self.plan.bodies[id])(&cx)
    }

    /// The task that used up its replay budget, and its last failure, if
    /// one did while whole-plan replays remained ([`Retry::replays`]): the
    /// run's slots are then incomplete, so gather nothing.
    pub fn exhausted(&self) -> Option<&(TaskLabel, TaskFailure)> {
        self.exhausted.get()
    }

    /// The first lease a task body broke so far ([`TaskCx`]): the body
    /// ended there and its task failed.
    pub fn violation(&self) -> Option<SoundnessError> {
        self.violation.get().cloned()
    }

    /// Gathers the factors. A job holds the matrix until it has run or been
    /// dropped, so this is `None` while any job of the graph is alive; ask
    /// after the graph drained, or from a task ordered after every other.
    /// `None` too once a task used up its budget ([`Self::exhausted`]): the
    /// slots it and its successors fill are empty.
    pub fn collect(self: Arc<Self>) -> Option<F> {
        let Self { plan: Plan { gather, mut slots, .. }, matrix, exhausted, .. } =
            Arc::into_inner(self)?;
        exhausted.get().is_none().then(|| gather(matrix.into_inner(), &mut slots))?
    }
}

/// The one way from a plan to runnable jobs: `plan`'s graph with an owning
/// job per task (same ids, same edges), over `a`, wrapped as `opts` ask.
/// `checked` proves the graph sound first (an `Err` here); then each task
/// body runs with its leases, after `chaos` was consulted, under `retry`'s
/// snapshot/replay of the write-set the plan declared for it. A task out of
/// replays fails its job, unless whole-plan replays remain: then it notes
/// itself as [`PlanRun::exhausted`] and succeeds, and every task after it
/// skips its body, so the job reaches whoever settles it. Run every job (or
/// drop it), then ask the [`PlanRun`].
pub fn plan_jobs<T: Scalar, F: 'static>(
    plan: Plan<T, F>,
    a: Matrix<T>,
    opts: &FactorOptions,
) -> Result<PlanJobs<T, F>, SoundnessError> {
    if opts.checked {
        verify_graph(&plan.graph, &plan.access)?;
    }
    let matrix = SharedMatrix::new(a);
    let run =
        Arc::new(PlanRun { plan, matrix, violation: OnceLock::new(), exhausted: OnceLock::new() });

    let jobs = run.plan.graph.map_ref(|id, _| {
        let (run, chaos) = (Arc::clone(&run), opts.chaos.clone());
        let label = run.plan.graph.meta(id).label;
        // Under `retry` the protocol consults the chaos plan itself, once per
        // attempt.
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
        guarded_job(label, chaos, task)
    });
    Ok((jobs, run))
}

/// Factors `a` through `plan` on `threads` workers of the caller's own
/// ([`execute`]). A broken lease maps to [`CheckedError::Soundness`], any
/// other worker failure — a task out of replays included: there are no
/// whole-plan replays here — to [`CheckedError::Exec`], without ever
/// touching the plan's not-yet-filled result slots.
pub fn run_plan<T: Scalar, F: 'static>(
    plan: Plan<T, F>,
    a: Matrix<T>,
    threads: usize,
    opts: &FactorOptions,
) -> Result<(F, RunReport), CheckedError> {
    let retry = opts.retry.map(|r| Retry { replays: 0, ..r });
    let opts = FactorOptions { retry, ..opts.clone() };
    let (jobs, run) = plan_jobs(plan, a, &opts).map_err(CheckedError::Soundness)?;
    let mut report = execute(jobs, threads);
    if let Some(v) = run.violation() {
        return Err(CheckedError::Soundness(v));
    }
    if let Some(e) = report.failure.take() {
        return Err(CheckedError::Exec(e));
    }
    let factors = run
        .collect()
        .expect("every job ran, so the run is the last owner and every slot is filled");
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
        let mut pb = PlanBuilder::<f64>::new(1, 2, 1);
        let slot = pb.slot::<f64>();
        let fill = TaskLabel::new(TaskKind::Panel, 0, 0, 0);
        let mut t = pb.task(TaskMeta::new(fill, 1.0));
        t.writes(0..1, 0..1);
        t.writes_slot(slot);
        t.run(move |cx| cx.put(slot, 1.0));
        let mut t = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Update, 0, 1, 0), 1.0));
        t.reads(0..1, 0..1);
        t.writes(1..2, 0..1);
        t.reads_slot(slot);
        t.run(move |cx| assert_eq!(*cx.get(slot), 1.0, "a skipped body is never reached"));
        let plan = pb.finish(move |_, slots| slots.take(slot));
        let opts = FactorOptions {
            chaos: Some(Arc::new(ChaosPlan::quiet(0).fail_nth(1, move |l| *l == fill))),
            retry: Some(Retry {
                policy: RetryPolicy::default().with_max_retries(0),
                ..Retry::default()
            }),
            checked: false,
        };
        let (jobs, run) = plan_jobs(plan, Matrix::zeros(2, 1), &opts).expect("nothing to verify");
        let report = execute(jobs, 1);
        assert!(report.failure.is_none(), "the exhausted task hands the run on");
        assert_eq!(run.exhausted().map(|(label, _)| *label), Some(fill));
        assert_eq!(run.collect(), None);
    }

    /// A one-task plan over an `8 × 4` matrix in `4 × 4` blocks whose task
    /// declares writing rows `0..4` and runs `body` with that handle and
    /// the handle of a second task that declares rows `4..8`.
    fn lease_plan(
        body: impl Fn(&TaskCx<'_, f64>, Write, Write) + Send + Sync + 'static,
    ) -> Plan<f64, Matrix> {
        let mut pb = PlanBuilder::<f64>::new(4, 8, 4);
        let mut other = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 1, 0), 1.0));
        let theirs = other.writes(1..2, 0..1);
        other.run(|_| {});
        let mut t = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), 1.0));
        let mine = t.writes(0..1, 0..1);
        t.run(move |cx| body(cx, mine, theirs));
        pb.finish(|a, _| Some(a))
    }

    /// The error an unchecked run of `plan` fails with.
    fn lease_error(plan: Plan<f64, Matrix>) -> SoundnessError {
        match run_plan(plan, Matrix::zeros(8, 4), 1, &FactorOptions::default()) {
            Err(CheckedError::Soundness(e)) => e,
            Err(e) => panic!("expected a soundness error, got {e}"),
            Ok(_) => panic!("the run succeeded"),
        }
    }

    #[test]
    fn lease_refuses_another_tasks_handle_in_an_unchecked_run_naming_the_label() {
        let e = lease_error(lease_plan(|cx, _, theirs| cx.view_mut(theirs).fill(9.0)));
        let want = SoundnessError::UndeclaredAccess {
            task: "P[0,0,0]".into(),
            write: true,
            rows: (4, 8),
            cols: (0, 4),
        };
        assert_eq!(e, want);
    }

    #[test]
    fn lease_refuses_rows_past_the_handle_in_an_unchecked_run_naming_the_label() {
        let e = lease_error(lease_plan(|cx, mine, _| {
            cx.view(mine.block(1, 0, 4, 4));
        }));
        let want = SoundnessError::UndeclaredAccess {
            task: "P[0,0,0]".into(),
            write: false,
            rows: (1, 5),
            cols: (0, 4),
        };
        assert_eq!(e, want);
    }

    #[test]
    fn lease_refuses_a_mutable_view_over_another_view_of_the_body() {
        let e = lease_error(lease_plan(|cx, mine, _| {
            let _read = cx.view(mine.block(0, 0, 2, 4));
            cx.view_mut(mine.block(1, 0, 3, 4));
        }));
        let want = SoundnessError::Race {
            first: "P[0,0,0]".into(),
            second: "P[0,0,0]".into(),
            rows: (1, 2),
            cols: (0, 4),
        };
        assert_eq!(e, want);
        // Disjoint views of one write are fine.
        let plan = lease_plan(|cx, mine, _| {
            let top = cx.view(mine.block(0, 0, 2, 4));
            cx.view_mut(mine.block(2, 0, 2, 4)).copy_from(top);
        });
        assert!(run_plan(plan, Matrix::zeros(8, 4), 1, &FactorOptions::default()).is_ok());
    }

    #[test]
    fn lease_refuses_a_slot_the_task_did_not_declare() {
        let mut pb = PlanBuilder::<f64>::new(1, 1, 1);
        let slot = pb.slot::<u8>();
        let mut t = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), 1.0));
        t.writes_slot(slot);
        t.run(move |cx| cx.put(slot, 7));
        let reader = TaskLabel::new(TaskKind::Update, 0, 0, 0);
        let mut t = pb.task(TaskMeta::new(reader, 1.0));
        t.writes(0..1, 0..1);
        t.run(move |cx| assert_eq!(*cx.get(slot), 7));
        let e = lease_error(pb.finish(|a, _| Some(a)));
        assert!(
            matches!(&e, SoundnessError::UndeclaredAccess { task, write: false, .. } if task == "S[0,0,0]"),
            "{e}"
        );
    }
}

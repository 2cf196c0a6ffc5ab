//! Served jobs — the DAGs of [`crate::calu`] / [`crate::caqr`] on somebody
//! else's workers — and the recovery ladder both routes climb.
//!
//! A one-shot entry point and a served job make their jobs the same way —
//! [`ca_sched::plan_jobs`] over the plan, the matrix and one
//! [`FactorOptions`] value, inside the same numerical contract — and differ
//! in who runs them. A service job outlives its submission call, so the
//! builders here append one *sink task* that settles the run instead of the
//! caller: it gathers the factors, refuses where the one-shot path returns
//! `Err`, and under [`FactorOptions::retry`] probes them against the input
//! and replays the whole plan when they are corrupted or a task used up its
//! budget; a factor-and-solve request then solves with them in the same
//! task. `try_*_with` runs that same graph, sink included, on the caller's
//! workers. If a task fails or the job is cancelled, no sink runs and the
//! output slot stays empty, or holds the lease a task broke.

use crate::calu::{calu_seq_factor, check_factors, monitored, LuFactors};
use crate::caqr::{caqr_seq, QrFactors};
use crate::error::{require_finite, FactorError};
use crate::params::CaParams;
use crate::probe::probe_flops;
use crate::{CaluPlan, CaqrPlan};
use ca_kernels::{flops, Kernel};
use ca_matrix::{Matrix, Scalar};
use ca_sched::{
    execute, plan_jobs, record_recovery, DynJob, FactorOptions, Plan, PlanRun, RecoveryEvent,
    RunReport, TaskFailure, TaskGraph, TaskId, TaskKind, TaskLabel, TaskMeta,
};
use std::sync::{Arc, OnceLock};

/// The seed of the ladder's probe vector.
const PROBE_SEED: u64 = 0x5eed;

/// A `'static` job graph plus the slot its last task deposits the result
/// into.
pub struct ServeGraph<R> {
    /// The job graph, ready for [`ca_sched::MultiFrontier::submit`].
    pub graph: TaskGraph<DynJob>,
    /// What the last task returned: the job failed iff it is an `Err`, and
    /// the slot stays empty if the job ended before that task ran.
    pub output: Arc<OnceLock<Result<R, FactorError>>>,
}

/// What a serve-graph builder yields: an `Err` refuses the request, nothing is scheduled.
pub type Built<R> = Result<ServeGraph<R>, FactorError>;

/// Where a job's last task leaves its result.
type Output<R> = Arc<OnceLock<Result<R, FactorError>>>;

/// Appends `body` to `graph` as task `Other[0,0,0]` of cost `flops`, ordered
/// after every current leaf (and thus after every task): its result fills
/// `output`, and an `Err` also fails the job with the error's text.
fn last_task<R: Send + Sync + 'static>(
    mut graph: TaskGraph<DynJob>,
    flops: f64,
    output: Output<R>,
    body: impl FnOnce() -> Result<R, FactorError> + Send + 'static,
) -> ServeGraph<R> {
    let leaves: Vec<TaskId> =
        (0..graph.len()).filter(|&t| graph.successors(t).is_empty()).collect();
    let out = Arc::clone(&output);
    let last = graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops),
        Box::new(move || {
            let result = body();
            let failure = result.as_ref().err().map(|e| TaskFailure::new(e.to_string()));
            let _ = out.set(result);
            failure.map_or(Ok(()), Err)
        }),
    );
    graph.add_deps(leaves, last);
    ServeGraph { graph, output }
}

/// A serve graph whose only task is `body` (declared cost `flops`): the
/// route for a factorization too small to gain from a DAG, so that it is
/// still an ordinary frontier job: it has an id, a weight and a deadline,
/// and can be cancelled and profiled.
pub fn one_task_serve_graph<R: Send + Sync + 'static>(
    flops: f64,
    body: impl FnOnce() -> Result<R, FactorError> + Send + 'static,
) -> ServeGraph<R> {
    last_task(TaskGraph::new(), flops, Arc::default(), body)
}

/// What a task ordered after every holder of `value` takes over from them;
/// a holder still alive is a failed job, not a panic on a worker.
fn sole_owner<V>(value: Option<V>) -> Result<V, FactorError> {
    let message = "a value handed between tasks of the job is still held elsewhere".into();
    value.ok_or(FactorError::TaskFailed { label: "sink".into(), message })
}

/// What the recovery ladder needs of a factorization's result.
pub(crate) trait Factored<T: Kernel>: Sized + Send + Sync + 'static {
    /// The sequential reference, whose bits every route gives.
    fn reference(a: Matrix<T>, p: &CaParams) -> Self;
    /// The contract of the fallible entry points, after the run (only LU's
    /// asks more of its factors than that the run ended).
    fn check(self, _: &CaParams) -> Result<Self, FactorError> {
        Ok(self)
    }
    /// The integrity probe against the input.
    fn probe(&self, a0: &Matrix<T>) -> Result<(), FactorError>;
}

impl<T: Kernel> Factored<T> for LuFactors<T> {
    fn reference(a: Matrix<T>, p: &CaParams) -> Self {
        calu_seq_factor(a, p)
    }

    fn check(self, p: &CaParams) -> Result<Self, FactorError> {
        check_factors(self, p)
    }

    fn probe(&self, a0: &Matrix<T>) -> Result<(), FactorError> {
        self.verify_integrity(a0, PROBE_SEED)
    }
}

impl<T: Kernel> Factored<T> for QrFactors<T> {
    fn reference(a: Matrix<T>, p: &CaParams) -> Self {
        caqr_seq(a, p)
    }

    fn probe(&self, a0: &Matrix<T>) -> Result<(), FactorError> {
        self.verify_integrity(a0, PROBE_SEED)
    }
}

/// One probe of the ladder, noted on the task running it.
fn probe<T: Kernel, F: Factored<T>>(f: &F, a0: &Matrix<T>) -> Result<(), FactorError> {
    record_recovery(RecoveryEvent::Probe);
    f.probe(a0).inspect_err(|_| record_recovery(RecoveryEvent::ProbeFailure))
}

/// The second half of the recovery ladder, run by the sink once every task
/// of `run` ran or skipped its body: refuse a run a body broke its lease in
/// (even one a whole-plan replay could mend), gather the factors and hold
/// them to the `try_*` contract; under `retry`,
/// probe them against `a0`, the input as it was before the run. Factors
/// that break the contract or fail the probe — either may be corruption —
/// or a task that used up its replay budget send a copy of `a0` through the
/// sequential reference, whose bits the plan's are, as the reduction tree
/// fixes the arithmetic. The reference's own contract check has the last
/// word (a singular input fails there), then the probe runs again, up to
/// `replays` times; then the last fault is the error.
fn settle<T: Kernel, F: Factored<T>>(
    run: Arc<PlanRun<T, F>>,
    p: &CaParams,
    retry: Option<(Matrix<T>, usize)>,
) -> Result<F, FactorError> {
    if let Some(violation) = run.violation() {
        return Err(violation.into());
    }
    let exhausted = run.exhausted().map(|(label, failure)| FactorError::TaskFailed {
        label: label.to_string(),
        message: failure.message.clone(),
    });
    let mut fault = if let Some(fault) = exhausted {
        drop(run);
        fault
    } else {
        let f = sole_owner(run.collect())?;
        let Some((a0, _)) = &retry else { return f.check(p) };
        match f.check(p).and_then(|f| probe(&f, a0).map(|()| f)) {
            Ok(f) => return Ok(f),
            Err(fault) => fault,
        }
    };
    let Some((a0, replays)) = retry else { return Err(fault) };
    for _ in 0..replays {
        record_recovery(RecoveryEvent::Replay);
        let f = F::reference(a0.clone(), p).check(p)?;
        match probe(&f, &a0) {
            Ok(()) => return Ok(f),
            Err(corrupted) => fault = corrupted,
        }
    }
    Err(fault)
}

/// The sink's hold on the run it settles. A failed task cancels the sink,
/// dropping it unrun; if that task broke its lease, the violation goes to
/// the job's slot, the error [`settle`] gives when the job reaches it.
struct Unsettled<T: Scalar, F, R> {
    run: Option<Arc<PlanRun<T, F>>>,
    output: Output<R>,
}

impl<T: Scalar, F, R> Drop for Unsettled<T, F, R> {
    fn drop(&mut self) {
        if let Some(violation) = self.run.take().and_then(|run| run.violation()) {
            let _ = self.output.set(Err(violation.into()));
        }
    }
}

/// `plan`'s jobs over `a` under `opts` ([`plan_jobs`] — what
/// [`ca_sched::run_plan`] executes) plus the one sink that settles them
/// ([`settle`]) and hands the factors to `then`, which costs `flops`. Every
/// job gave up its hold on the matrix when it ran, so the sink is the last
/// owner. Under `retry` the input is copied once, before the run, for the
/// probe and the replays, and the probe's flops are part of the sink's cost.
fn plan_serve_graph<T: Kernel, F: Factored<T>, R: Send + Sync + 'static>(
    plan: Plan<T, F>,
    a: Matrix<T>,
    p: CaParams,
    opts: &FactorOptions,
    flops: f64,
    then: impl FnOnce(F) -> Result<R, FactorError> + Send + 'static,
) -> Built<R> {
    let probe = if opts.retry.is_some() { probe_flops(a.nrows(), a.ncols()) } else { 0.0 };
    let retry = opts.retry.map(|r| (a.clone(), r.replays));
    let (graph, run) = plan_jobs(plan, a, opts)?;
    let output = Arc::default();
    let mut sink = Unsettled { run: Some(run), output: Arc::clone(&output) };
    Ok(last_task(graph, probe + flops, output, move || {
        settle(sole_owner(sink.run.take())?, &p, retry).and_then(then)
    }))
}

/// `plan` over `a` under `opts` on `p.threads` workers of the caller's own:
/// the served graph — the plan's jobs and the sink that settles them — run
/// by [`execute`], so a one-shot run is a served one, ladder, contract and
/// profile included.
pub(crate) fn try_plan_with<T: Kernel, F: Factored<T>>(
    plan: Plan<T, F>,
    a: Matrix<T>,
    p: &CaParams,
    opts: &FactorOptions,
) -> Result<(F, RunReport), FactorError> {
    let ServeGraph { graph, output } = plan_serve_graph(plan, a, *p, opts, 0.0, Ok)?;
    let mut report = execute(graph, p.threads);
    match Arc::into_inner(output).and_then(OnceLock::into_inner) {
        Some(settled) => settled.map(|f| (f, report)),
        // No sink ran: a task failed, and cancelled it.
        None => Err(sole_owner(report.failure.take())?.into()),
    }
}

/// The flops of solving with the factors of `a` for the columns of `rhs`.
fn solve_flops(a: &Matrix, rhs: &Matrix) -> f64 {
    2.0 * (a.nrows() as f64) * (a.ncols() as f64) * (rhs.ncols() as f64)
}

/// [`calu_serve_graph`]'s job, whose last task hands the factors to `then`
/// — `Ok`, or a solve — and declares its `flops` too.
fn calu_job<R: Send + Sync + 'static>(
    a: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
    flops: f64,
    then: impl FnOnce(LuFactors) -> Result<R, FactorError> + Send + 'static,
) -> Built<R> {
    let p = monitored(&a, p)?;
    let (m, n) = (a.nrows(), a.ncols());
    if one_task {
        // The LAPACK count of the long × short shape (symmetric in `m`,
        // `n`): the unit the plan's task costs add up in.
        let count = flops::getrf(m.max(n), m.min(n)) + flops;
        return Ok(one_task_serve_graph(count, move || {
            then(check_factors(calu_seq_factor(a, &p), &p)?)
        }));
    }
    plan_serve_graph(CaluPlan::build(m, n, &p), a, p, opts, flops, then)
}

/// [`caqr_serve_graph`]'s job, its factors handed to `then` as in
/// [`calu_job`].
fn caqr_job<R: Send + Sync + 'static>(
    a: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
    flops: f64,
    then: impl FnOnce(QrFactors) -> Result<R, FactorError> + Send + 'static,
) -> Built<R> {
    require_finite(&a)?;
    let (m, n, p) = (a.nrows(), a.ncols(), *p);
    if one_task {
        let count = flops::geqrf(m.max(n), m.min(n)) + flops;
        return Ok(one_task_serve_graph(count, move || then(caqr_seq(a, &p))));
    }
    plan_serve_graph(CaqrPlan::build(m, n, &p), a, p, opts, flops, then)
}

/// CALU as a served job under the [`crate::try_calu`] contract: non-finite
/// input is refused here (synchronously, instead of poisoning a running
/// job), growth is always monitored, and a zero pivot or growth explosion
/// fails the job at its last task. With `one_task` that is its only task
/// ([`calu_seq_factor`]: the same bits without the DAG's per-task scheduling
/// cost, for matrices too small to split; `opts` do not apply to it);
/// otherwise the full DAG of [`crate::calu`] under `opts`, plus one sink.
/// f64 like all serving: a builder generic over the element type would have
/// its kernels compiled again in the calling crate (−4 % `serve` throughput).
pub fn calu_serve_graph(
    a: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
) -> Built<LuFactors> {
    calu_job(a, p, opts, one_task, 0.0, Ok)
}

/// CAQR as a served job under the [`crate::try_caqr`] contract (the
/// pre-scan; QR has no breakdown to check); routes as in
/// [`calu_serve_graph`].
pub fn caqr_serve_graph(
    a: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
) -> Built<QrFactors> {
    caqr_job(a, p, opts, one_task, 0.0, Ok)
}

/// Square `A·X = rhs` as one served job: [`calu_serve_graph`]'s job whose
/// last task — the sink, or the one task — solves with the factors it
/// settled ([`LuFactors::try_solve`]) and declares the solve's flops too. A
/// singular `A` fails the job there like any served LU. Shapes are the
/// caller's to check; a mismatch fails the job in the solve.
pub fn calu_solve_serve_graph(
    a: Matrix,
    rhs: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
) -> Built<Matrix> {
    require_finite(&rhs)?;
    let flops = solve_flops(&a, &rhs);
    calu_job(a, p, opts, one_task, flops, move |f: LuFactors| f.try_solve(&rhs))
}

/// Least squares `min ‖A·X − rhs‖` (`m ≥ n`) as one served job, as
/// [`calu_solve_serve_graph`] over [`caqr_serve_graph`]'s job and
/// [`QrFactors::try_solve_ls`]; a rank-deficient `A` fails the job.
pub fn caqr_lstsq_serve_graph(
    a: Matrix,
    rhs: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    one_task: bool,
) -> Built<Matrix> {
    require_finite(&rhs)?;
    let flops = solve_flops(&a, &rhs);
    caqr_job(a, p, opts, one_task, flops, move |f: QrFactors| f.try_solve_ls(&rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, seeded_rng};
    use ca_sched::{
        CancelReason, JobOptions, JobOutcome, MultiFrontier, PlanBuilder, Retry, RetryPolicy,
    };
    use std::time::Duration;

    /// A plan that gathers the matrix alone settles as it is.
    impl Factored<f64> for Matrix {
        fn reference(a: Matrix, _: &CaParams) -> Self {
            a
        }

        fn probe(&self, _: &Matrix) -> Result<(), FactorError> {
            Ok(())
        }
    }

    /// How long [`Replayed`]'s replay takes.
    const SLOW_REPLAY: Duration = Duration::from_millis(100);

    /// A result that breaks the contract unless the replay made it.
    #[derive(Debug)]
    struct Replayed(bool);

    impl Factored<f64> for Replayed {
        fn reference(_: Matrix, _: &CaParams) -> Self {
            std::thread::sleep(SLOW_REPLAY);
            Replayed(true)
        }

        fn check(self, _: &CaParams) -> Result<Self, FactorError> {
            if self.0 {
                Ok(self)
            } else {
                Err(FactorError::ZeroPivot { col: 0 })
            }
        }

        fn probe(&self, _: &Matrix) -> Result<(), FactorError> {
            Ok(())
        }
    }

    /// A one-task plan gathering a [`Replayed`], served under `retry`.
    fn replayed_graph() -> ServeGraph<Replayed> {
        let mut pb = PlanBuilder::<f64>::new(4, 4, 4);
        let mut t = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), 1.0));
        t.writes(0..1, 0..1);
        t.run(|_| {});
        let plan = pb.finish(|_, _| Some(Replayed(false)));
        let retry = FactorOptions { retry: Some(Retry::default()), ..Default::default() };
        let p = CaParams::new(4, 1, 1);
        plan_serve_graph(plan, Matrix::zeros(4, 4), p, &retry, 0.0, Ok).expect("sound")
    }

    #[test]
    fn under_retry_factors_that_break_the_contract_are_replayed() {
        // Corruption can show as a breakdown of the DAG's factors rather
        // than as a probe failure: the replay decides, and its own check
        // has the last word.
        let f = MultiFrontier::new(1);
        let sg = replayed_graph();
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        let report = watch.wait();
        assert!(report.outcome.is_completed());
        assert_eq!((report.recovery.replays, report.recovery.probes), (1, 1));
        assert!(matches!(sg.output.get(), Some(Ok(Replayed(true)))));
        f.shutdown();
    }

    #[test]
    fn a_deadline_passing_during_the_replay_ends_the_job() {
        // The replay runs inside the sink, in flight: it runs to the end,
        // but the job ends past its deadline and is not completed.
        let f = MultiFrontier::new(1);
        let sg = replayed_graph();
        let (_, watch) = f.submit(sg.graph, JobOptions::default().with_deadline(SLOW_REPLAY / 2));
        let report = watch.wait();
        assert!(matches!(report.outcome, JobOutcome::Cancelled(CancelReason::Deadline)));
        assert_eq!(report.recovery.replays, 1, "the replay started before the deadline");
        f.shutdown();
    }

    #[test]
    fn solve_graph_solves_and_reports_breakdown() {
        let n = 48;
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(22));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(23));
        let b = a.matmul(&x_true);
        let (p, plain) = (CaParams::new(8, 4, 2), FactorOptions::default());

        let f = MultiFrontier::new(2);
        let sg = calu_solve_serve_graph(a, b, &p, &plain, false).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set").as_ref().expect("solved");
        assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-8);

        // Singular system: the sink fails the job with ZeroPivot, like any
        // served LU, before it would solve, and leaves that typed error in
        // the job's slot.
        let mut s = ca_matrix::random_uniform(n, n, &mut seeded_rng(24));
        for i in 0..n {
            let v = s[(i, 0)];
            for j in 1..n {
                s[(i, j)] = v; // rank 1
            }
        }
        let rhs = ca_matrix::random_uniform(n, 1, &mut seeded_rng(25));
        let sg = calu_solve_serve_graph(s, rhs, &p, &plain, false).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        match watch.wait().outcome {
            JobOutcome::Failed(e) => {
                assert!(e.message.contains("zero pivot"), "message: {}", e.message)
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(matches!(sg.output.get(), Some(Err(FactorError::ZeroPivot { .. }))));
        f.shutdown();
    }

    #[test]
    fn lstsq_graph_matches_direct_solve() {
        let (m, n) = (80, 24);
        let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(26));
        let b = ca_matrix::random_uniform(m, 1, &mut seeded_rng(27));
        let (p, plain) = (CaParams::new(8, 4, 2), FactorOptions::default());
        let reference = caqr_seq(a.clone(), &p).solve_ls(&b);

        let f = MultiFrontier::new(2);
        let sg = caqr_lstsq_serve_graph(a, b, &p, &plain, false).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set").as_ref().expect("solved");
        assert!(norm_max(x.sub_matrix(&reference).view()) < 1e-10);
        f.shutdown();
    }

    #[test]
    fn one_task_graphs_count_flops_like_the_dag() {
        let plain = FactorOptions::default();
        // (m, n, b): a single-panel shape, a multi-panel one, a wide one.
        for (m, n, b) in [(32, 32, 32), (40, 24, 8), (24, 40, 8)] {
            let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(29));
            let p = CaParams::new(b, 2, 1);
            let lu = calu_serve_graph(a.clone(), &p, &plain, true).expect("finite input");
            let qr = caqr_serve_graph(a.clone(), &p, &plain, true).expect("finite input");
            // (tests/equivalence_table holds both routes to the sequential bits.)
            assert_eq!((lu.graph.len(), qr.graph.len()), (1, 1));
            // Same unit as the DAG route: the LAPACK count, which is what a
            // single-panel DAG adds up to exactly; a multi-panel DAG adds the
            // tournament's redundant flops on top.
            let (lu_flops, qr_flops) = (lu.graph.total_flops(), qr.graph.total_flops());
            assert_eq!(lu_flops, flops::getrf(m.max(n), m.min(n)));
            assert_eq!(qr_flops, flops::geqrf(m.max(n), m.min(n)));
            let lu_dag =
                calu_serve_graph(a.clone(), &p, &plain, false).expect("finite").graph.total_flops();
            let qr_dag =
                caqr_serve_graph(a.clone(), &p, &plain, false).expect("finite").graph.total_flops();
            if n <= b {
                assert_eq!((lu_flops, qr_flops), (lu_dag, qr_dag), "{m}x{n} b={b}");
            } else {
                assert!(lu_flops <= lu_dag && lu_dag < 2.0 * lu_flops, "{m}x{n}: {lu_dag}");
                assert!(qr_flops <= qr_dag && qr_dag < 2.0 * qr_flops, "{m}x{n}: {qr_dag}");
            }
        }
    }

    #[test]
    fn a_one_task_solve_declares_the_solve_flops_as_the_dag_route_does() {
        let (n, nrhs, plain) = (32, 3, FactorOptions::default());
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(30));
        let b = ca_matrix::random_uniform(n, nrhs, &mut seeded_rng(31));
        // One panel, so the DAG's plan adds up to the LAPACK count too.
        let p = CaParams::new(n, 2, 1);
        let graph = |one_task| {
            calu_solve_serve_graph(a.clone(), b.clone(), &p, &plain, one_task)
                .expect("finite input")
                .graph
        };
        let (tiny, dag) = (graph(true), graph(false));
        assert_eq!(tiny.len(), 1);
        let solve = 2.0 * (n * n * nrhs) as f64;
        assert_eq!(tiny.total_flops(), flops::getrf(n, n) + solve);
        assert_eq!(tiny.total_flops(), dag.total_flops());
        let sg = calu_solve_serve_graph(a, b, &p, &plain, true).expect("finite");
        assert!(execute(sg.graph, 1).failure.is_none());
        assert!(sg.output.get().expect("solution set").is_ok());
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_build_time() {
        let mut a = ca_matrix::random_uniform(8, 8, &mut seeded_rng(28));
        a[(2, 3)] = f64::INFINITY;
        let p = CaParams::new(4, 2, 1);
        let plain = FactorOptions::default();
        for one_task in [false, true] {
            assert!(matches!(
                calu_serve_graph(a.clone(), &p, &plain, one_task),
                Err(FactorError::NonFiniteInput { row: 2, col: 3 })
            ));
            assert!(matches!(
                caqr_serve_graph(a.clone(), &p, &plain, one_task),
                Err(FactorError::NonFiniteInput { row: 2, col: 3 })
            ));
        }
    }

    #[test]
    fn served_checked_plan_with_an_under_declared_footprint_fails_naming_the_task() {
        // The served mirror of ca-sched's
        // `checked::out_of_footprint_write_is_reported_with_label_checked_or_not`:
        // the task declares rows 0..4 and opens rows 4..8. Its lease refuses
        // the open, so the task fails naming itself and the rows; under
        // `retry` the failure is not replayed (the same body would break
        // its lease again), and the sink refuses the run rather than
        // replay the whole plan.
        let label = TaskLabel::new(TaskKind::Panel, 0, 0, 0);
        let sink = TaskLabel::new(TaskKind::Other, 0, 0, 0);
        let retry = Retry { policy: RetryPolicy::default().with_max_retries(1), replays: 1 };
        for (retry, failed_at) in [(None, label), (Some(retry), sink)] {
            let mut pb = PlanBuilder::<f64>::new(4, 8, 4);
            let mut w = pb.task(TaskMeta::new(label, 1.0));
            let top = w.writes(0..1, 0..1);
            w.run(move |cx| cx.view_mut(top.block(4, 0, 4, 4)).fill(9.0));
            let plan = pb.finish(|a, _| Some(a));
            let checked = FactorOptions { checked: true, retry, ..Default::default() };
            let p = CaParams::new(4, 1, 1);
            let sg = plan_serve_graph(plan, Matrix::zeros(8, 4), p, &checked, 0.0, Ok)
                .expect("statically sound");

            let f = MultiFrontier::new(1);
            let (_, watch) = f.submit(sg.graph, JobOptions::default());
            let report = watch.wait();
            if retry.is_some() {
                // One attempt of the task; no restore, replay or backoff.
                let r = report.recovery;
                let counts = (r.attempts, r.retries, r.restores, r.exhausted_tasks, r.replays);
                assert_eq!(counts, (1, 0, 0, 0, 0), "{r:?}");
            }
            match report.outcome {
                JobOutcome::Failed(e) => {
                    assert_eq!(e.label, failed_at);
                    assert!(e.message.contains(&label.to_string()), "message: {}", e.message);
                    assert!(e.message.contains("4..8"), "message: {}", e.message);
                }
                other => panic!("expected a failed job, got {other:?}"),
            }
            // Settled or cancelled, the sink leaves the violation in the slot.
            assert!(matches!(sg.output.get(), Some(Err(FactorError::Soundness { .. }))));
            f.shutdown();
        }
    }
}

//! Served jobs: the DAGs of [`crate::calu`] / [`crate::caqr`] on somebody
//! else's workers.
//!
//! A one-shot entry point and a served job make their jobs the same way —
//! [`ca_sched::plan_jobs`] over the plan, the matrix and one
//! [`FactorOptions`] value, inside the same numerical contract — and differ
//! in who runs them. [`ca_sched::run_plan`] blocks until the graph drains,
//! then gathers; a service job outlives its submission call, so the builders
//! here append one *sink task* that gathers instead, and refuses where the
//! one-shot path returns `Err`. If a task fails or the job is cancelled, no
//! sink runs and the output slot stays empty.

use crate::calu::{calu_seq_factor, check_factors, monitored, LuFactors};
use crate::caqr::{caqr_seq, QrFactors};
use crate::error::{require_finite, FactorError};
use crate::params::CaParams;
use crate::{CaluPlan, CaqrPlan};
use ca_kernels::{flops, Kernel};
use ca_matrix::Matrix;
use ca_sched::{
    plan_jobs, DynJob, FactorOptions, Plan, TaskFailure, TaskGraph, TaskId, TaskKind, TaskLabel,
    TaskMeta,
};
use std::sync::{Arc, OnceLock};

/// A `'static` job graph plus the slot its last task deposits the result
/// into: filled iff the job completes (every task succeeded).
pub struct ServeGraph<R> {
    /// The job graph, ready for [`ca_sched::MultiFrontier::submit`].
    pub graph: TaskGraph<DynJob>,
    /// Written by the last task on successful completion.
    pub output: Arc<OnceLock<R>>,
}

/// What a serve-graph builder yields: an `Err` refuses the request, nothing is scheduled.
pub type Built<R> = Result<ServeGraph<R>, FactorError>;

/// Appends `body` to `graph` as task `Other[0,0,j]` of cost `flops`, ordered
/// after every current leaf (and thus after every task): its `Ok` value
/// fills the output slot, an `Err` fails the job with the error's text.
fn last_task<R: Send + Sync + 'static>(
    mut graph: TaskGraph<DynJob>,
    j: usize,
    flops: f64,
    body: impl FnOnce() -> Result<R, FactorError> + Send + 'static,
) -> ServeGraph<R> {
    let leaves: Vec<TaskId> =
        (0..graph.len()).filter(|&t| graph.successors(t).is_empty()).collect();
    let output = Arc::new(OnceLock::new());
    let out = Arc::clone(&output);
    let last = graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, j), flops),
        Box::new(move || {
            let _ = out.set(body().map_err(|e| TaskFailure::new(e.to_string()))?);
            Ok(())
        }),
    );
    graph.add_deps(leaves, last);
    ServeGraph { graph, output }
}

/// A serve graph whose only task is `body` (declared cost `flops`): the
/// route for work that gains nothing from a DAG — a factorization too small
/// to split, or one whose bottleneck is the disk (`ca-ooc`) — so that it is
/// still an ordinary frontier job: it has an id, a weight and a deadline,
/// and can be cancelled and profiled.
pub fn one_task_serve_graph<R: Send + Sync + 'static>(
    flops: f64,
    body: impl FnOnce() -> Result<R, FactorError> + Send + 'static,
) -> ServeGraph<R> {
    last_task(TaskGraph::new(), 0, flops, body)
}

/// What a task ordered after every holder of `value` takes over from them;
/// a holder still alive is a failed job, not a panic on a worker.
fn sole_owner<V>(value: Option<V>) -> Result<V, FactorError> {
    let message = "a value handed between tasks of the job is still held elsewhere".into();
    value.ok_or(FactorError::TaskFailed { label: "sink".into(), message })
}

/// `plan`'s jobs over `a` under `opts` ([`plan_jobs`] — what
/// [`ca_sched::run_plan`] executes) plus the one sink that gathers. Every
/// job gave up its hold on the matrix when it ran, so the sink is the last
/// owner; a race-detector finding fails the job naming the task, and `check`
/// has the last word on the factors.
fn plan_serve_graph<T: Kernel, S: Send + Sync + 'static, F: Send + Sync + 'static>(
    plan: Plan<T, S, F>,
    a: Matrix<T>,
    opts: &FactorOptions,
    check: impl FnOnce(F) -> Result<F, FactorError> + Send + 'static,
) -> Built<F> {
    let (graph, run) = plan_jobs(plan, a, opts)?;
    Ok(last_task(graph, 0, 0.0, move || {
        if let Some(violation) = run.violation() {
            return Err(violation.into());
        }
        check(sole_owner(run.collect())?)
    }))
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
    let p = monitored(&a, p)?;
    let (m, n) = (a.nrows(), a.ncols());
    let check = move |f| check_factors(f, &p);
    if one_task {
        // The LAPACK count of the long × short shape (symmetric in `m`,
        // `n`): the unit the plan's task costs add up in.
        let count = flops::getrf(m.max(n), m.min(n));
        return Ok(one_task_serve_graph(count, move || check(calu_seq_factor(a, &p))));
    }
    plan_serve_graph(CaluPlan::build(m, n, &p), a, opts, check)
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
    require_finite(&a)?;
    let (m, n, p) = (a.nrows(), a.ncols(), *p);
    if one_task {
        let count = flops::geqrf(m.max(n), m.min(n));
        return Ok(one_task_serve_graph(count, move || Ok(caqr_seq(a, &p))));
    }
    plan_serve_graph(CaqrPlan::build(m, n, &p), a, opts, Ok)
}

/// Factor-and-solve serve graph: `factors`' served DAG of `a`
/// ([`calu_serve_graph`] for square `A·X = rhs`, [`caqr_serve_graph`] for
/// least squares with `m ≥ n`), then `solve` ([`LuFactors::try_solve`],
/// [`QrFactors::try_solve_ls`]) as an epilogue task — never retried: it
/// reads only completed factors and owns its right-hand side. A singular
/// `A` fails the job at the sink like any served LU, a rank-deficient one in
/// the epilogue. Shapes are the caller's to check; a mismatch fails the job
/// in the epilogue.
pub fn solve_serve_graph<F: Send + Sync + 'static>(
    a: Matrix,
    rhs: Matrix,
    p: &CaParams,
    opts: &FactorOptions,
    factors: fn(Matrix, &CaParams, &FactorOptions, bool) -> Built<F>,
    solve: fn(&F, &Matrix) -> Result<Matrix, FactorError>,
) -> Built<Matrix> {
    require_finite(&rhs)?;
    let flops = 2.0 * (a.nrows() as f64) * (a.ncols() as f64) * (rhs.ncols() as f64);
    let ServeGraph { graph, output } = factors(a, p, opts, false)?;
    // The sink dropped its handle on the slot when it filled it.
    Ok(last_task(graph, 1, flops, move || {
        solve(&sole_owner(Arc::into_inner(output).and_then(OnceLock::into_inner))?, &rhs)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, seeded_rng};
    use ca_sched::{JobOptions, JobOutcome, MultiFrontier};

    #[test]
    fn solve_graph_solves_and_reports_breakdown() {
        let n = 48;
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(22));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(23));
        let b = a.matmul(&x_true);
        let (p, plain) = (CaParams::new(8, 4, 2), FactorOptions::default());

        let f = MultiFrontier::new(2);
        let sg = solve_serve_graph(a, b, &p, &plain, calu_serve_graph, LuFactors::try_solve).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set");
        assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-8);

        // Singular system: the sink fails the job with ZeroPivot, like any
        // served LU; the solve epilogue is cancelled.
        let mut s = ca_matrix::random_uniform(n, n, &mut seeded_rng(24));
        for i in 0..n {
            let v = s[(i, 0)];
            for j in 1..n {
                s[(i, j)] = v; // rank 1
            }
        }
        let rhs = ca_matrix::random_uniform(n, 1, &mut seeded_rng(25));
        let sg = solve_serve_graph(s, rhs, &p, &plain, calu_serve_graph, LuFactors::try_solve).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        match watch.wait().outcome {
            JobOutcome::Failed(e) => {
                assert!(e.message.contains("zero pivot"), "message: {}", e.message)
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(sg.output.get().is_none());
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
        let sg = solve_serve_graph(a, b, &p, &plain, caqr_serve_graph, QrFactors::try_solve_ls).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set");
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
            let lu_dag = calu_serve_graph(a.clone(), &p, &plain, false).expect("finite").graph.total_flops();
            let qr_dag = caqr_serve_graph(a.clone(), &p, &plain, false).expect("finite").graph.total_flops();
            if n <= b {
                assert_eq!((lu_flops, qr_flops), (lu_dag, qr_dag), "{m}x{n} b={b}");
            } else {
                assert!(lu_flops <= lu_dag && lu_dag < 2.0 * lu_flops, "{m}x{n}: {lu_dag}");
                assert!(qr_flops <= qr_dag && qr_dag < 2.0 * qr_flops, "{m}x{n}: {qr_dag}");
            }
        }
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
    #[allow(clippy::disallowed_methods)] // the raw out-of-footprint write is the point
    fn served_checked_plan_with_an_under_declared_footprint_fails_naming_the_task() {
        // The served mirror of ca-sched's
        // `checked::out_of_footprint_write_is_reported_with_label`: the task
        // declares rows 0..4 and writes rows 4..8, the sink refuses to gather.
        use ca_sched::PlanBuilder;
        let mut pb = PlanBuilder::<f64, ()>::new(4, 8, 4);
        let label = TaskLabel::new(TaskKind::Panel, 0, 0, 0);
        let w = pb.task(TaskMeta::new(label, 1.0), |a, _| {
            // SAFETY: the only task of the graph.
            unsafe { a.block_mut(4, 0, 4, 4).fill(9.0) }
        });
        pb.writes(w, 0..1, 0..1);
        let plan = pb.finish((), |a, ()| a);
        let checked = FactorOptions { checked: true, ..Default::default() };
        let sg = plan_serve_graph(plan, Matrix::zeros(8, 4), &checked, Ok).expect("statically sound");

        let f = MultiFrontier::new(1);
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        match watch.wait().outcome {
            JobOutcome::Failed(e) => {
                assert_eq!(e.label, TaskLabel::new(TaskKind::Other, 0, 0, 0), "refused at the sink");
                assert!(e.message.contains(&label.to_string()), "message: {}", e.message);
                assert!(e.message.contains("4..8"), "message: {}", e.message);
            }
            other => panic!("expected a failed job, got {other:?}"),
        }
        assert!(sg.output.get().is_none());
        f.shutdown();
    }
}

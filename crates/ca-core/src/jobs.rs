//! `'static` task graphs for the serving runtime (`ca-serve`).
//!
//! The one-shot entry points ([`crate::calu`], [`crate::caqr`]) build jobs
//! that borrow the plan and matrix from the submitting stack frame — fine
//! when the caller blocks until the graph drains. A service job outlives
//! its submission call, so the builders here produce graphs of owning
//! [`DynJob`] closures (`Arc`-shared plan and matrix) plus a *sink task*
//! that assembles the result once every compute task has finished:
//!
//! * Every compute task holds an `Arc` to the plan and the shared matrix
//!   and is consumed when it runs (the executor calls the `FnOnce` by
//!   value), dropping its clones.
//! * The sink depends on every task without successors — and therefore,
//!   transitively, on every task of the graph — so when it runs it holds
//!   the *last* `Arc` and can unwrap the shared matrix to collect factors
//!   exactly like the one-shot paths do.
//! * If any task fails or the job is cancelled, the sink never runs and
//!   the output slot stays empty; the dropped closures release the `Arc`s.

use crate::calu::{calu_seq_factor, LuFactors};
use crate::caqr::{caqr_seq, QrFactors};
use crate::error::{find_non_finite, FactorError};
use crate::params::CaParams;
use crate::{CaluPlan, CaqrPlan};
use ca_kernels::{flops, Kernel};
use ca_matrix::{Matrix, SharedMatrix};
use ca_sched::{
    ChaosPlan, DynJob, Plan, RecoveryCounters, RetryPolicy, TaskFailure, TaskGraph, TaskId, TaskKind,
    TaskLabel, TaskMeta,
};
use std::sync::{Arc, OnceLock};

/// Recovery context for a serve graph: wraps every *compute* task with
/// [`ca_sched::retrying_dyn_job`] (sinks and solve epilogues — `FnOnce`
/// closures that consume `Arc`s — are never wrapped; they only run after
/// every compute task already succeeded).
#[derive(Clone)]
pub struct JobRecovery {
    /// Per-task retry policy (snapshot/restore + bounded replay).
    pub policy: RetryPolicy,
    /// Fault-injection plan; [`ChaosPlan::quiet`] for production graphs.
    pub chaos: Arc<ChaosPlan>,
    /// Shared recovery counters, typically service-wide.
    pub counters: Arc<RecoveryCounters>,
}

impl JobRecovery {
    /// Recovery with no fault injection: `policy` plus a quiet chaos plan.
    pub fn new(policy: RetryPolicy) -> Self {
        Self { policy, chaos: Arc::new(ChaosPlan::quiet(0)), counters: Arc::default() }
    }

    /// Recovery under a chaos plan (testing / chaos drills).
    pub fn with_chaos(policy: RetryPolicy, chaos: Arc<ChaosPlan>) -> Self {
        Self { policy, chaos, counters: Arc::default() }
    }
}

/// Graph, sink task id, and output slot — the pieces a serve-graph builder
/// assembles before the sink id is discarded or reused by a fused builder.
type GraphParts<T> = (TaskGraph<DynJob>, TaskId, Arc<OnceLock<T>>);

/// A `'static` job graph plus the handle its sink task deposits the result
/// into. Submit `graph` to a [`ca_sched::MultiFrontier`]; `output` is
/// filled iff the job completes (every task succeeded).
pub struct ServeGraph<T> {
    /// The job graph, ready for [`ca_sched::MultiFrontier::submit`].
    pub graph: TaskGraph<DynJob>,
    /// Written by the sink task on successful completion.
    pub output: Arc<OnceLock<T>>,
}

/// A one-task serve graph: `body` is the job's only task (declared cost
/// `flops`); its `Ok` value fills the output slot, an `Err` fails the job.
/// This is the route for work that gains nothing from a DAG — a
/// factorization too small to split, or one whose bottleneck is the disk
/// (`ca-ooc`) — so that it is still an ordinary frontier job: it has an id,
/// a weight and a deadline, and can be cancelled and profiled.
pub fn one_task_serve_graph<T: Send + Sync + 'static>(
    flops: f64,
    body: impl FnOnce() -> Result<T, TaskFailure> + Send + 'static,
) -> ServeGraph<T> {
    let output = Arc::new(OnceLock::new());
    let out = Arc::clone(&output);
    let mut graph: TaskGraph<DynJob> = TaskGraph::new();
    graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops),
        Box::new(move || {
            let _ = out.set(body()?);
            Ok(())
        }),
    );
    ServeGraph { graph, output }
}

/// `a` factored by `factor` as a [`one_task_serve_graph`], after the same
/// non-finite pre-scan the DAG builders run. `count` is the LAPACK
/// operation count of the long × short shape (LU and QR counts are
/// symmetric in `m`, `n`) — the unit the DAG builders' task costs use.
fn seq_serve_graph<F: Send + Sync + 'static>(
    a: Matrix,
    p: &CaParams,
    count: fn(usize, usize) -> f64,
    factor: fn(Matrix, &CaParams) -> F,
) -> Result<ServeGraph<F>, FactorError> {
    if let Some((row, col)) = find_non_finite(&a) {
        return Err(FactorError::NonFiniteInput { row, col });
    }
    let (m, n, p) = (a.nrows(), a.ncols(), *p);
    Ok(one_task_serve_graph(count(m.max(n), m.min(n)), move || Ok(factor(a, &p))))
}

/// CALU as one sequential task ([`calu_seq_factor`]): factors bitwise
/// identical to [`calu_serve_graph`]'s, without the DAG's per-task
/// scheduling cost — the route for matrices too small to split.
pub fn calu_seq_serve_graph(
    a: Matrix,
    p: &CaParams,
) -> Result<ServeGraph<LuFactors>, FactorError> {
    seq_serve_graph(a, p, flops::getrf, calu_seq_factor)
}

/// CAQR as one sequential task ([`caqr_seq`]); see [`calu_seq_serve_graph`].
pub fn caqr_seq_serve_graph(
    a: Matrix,
    p: &CaParams,
) -> Result<ServeGraph<QrFactors>, FactorError> {
    seq_serve_graph(a, p, flops::geqrf, caqr_seq)
}

/// Appends `body` as a sink task depending on every current leaf (and thus
/// transitively on every task). Returns the sink's id.
fn add_sink(
    graph: &mut TaskGraph<DynJob>,
    flops: f64,
    body: impl FnOnce() + Send + 'static,
) -> TaskId {
    let leaves: Vec<TaskId> =
        (0..graph.len()).filter(|&t| graph.successors(t).is_empty()).collect();
    let sink = graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), flops),
        ca_sched::dyn_job(body),
    );
    graph.add_deps(leaves, sink);
    sink
}

/// The full DAG of the plan `build` makes for `a`'s shape, with an owning
/// payload per task — wrapped for write-set snapshot/restore retry when
/// `rec` is given — and a factor-collecting sink.
fn graph_parts<T: Kernel, S: Send + Sync + 'static, F: Send + Sync + 'static>(
    a: Matrix<T>,
    rec: Option<&JobRecovery>,
    build: impl FnOnce(usize, usize) -> Plan<T, S, F>,
) -> Result<GraphParts<F>, FactorError> {
    if let Some((row, col)) = find_non_finite(&a) {
        return Err(FactorError::NonFiniteInput { row, col });
    }
    let plan = Arc::new(build(a.nrows(), a.ncols()));
    let shared = Arc::new(SharedMatrix::new(a));
    let output = Arc::new(OnceLock::new());

    let mut graph: TaskGraph<DynJob> = plan.graph().map_ref(|id, _| {
        let plan = Arc::clone(&plan);
        let shared = Arc::clone(&shared);
        match rec {
            None => ca_sched::dyn_job(move || plan.run_task(id, &shared)),
            Some(r) => {
                let label = plan.graph().meta(id).label;
                let writes = ca_sched::write_set(plan.access(), id);
                ca_sched::retrying_dyn_job(
                    label,
                    writes,
                    Arc::clone(&shared),
                    r.policy,
                    Arc::clone(&r.chaos),
                    Arc::clone(&r.counters),
                    move || plan.run_task(id, &shared),
                )
            }
        }
    });
    let sink = {
        let output = Arc::clone(&output);
        add_sink(&mut graph, 0.0, move || {
            // Last holders standing: every compute task's clone was
            // consumed before this sink became ready.
            let plan = Arc::try_unwrap(plan)
                .unwrap_or_else(|_| panic!("plan still referenced at sink"));
            let shared = Arc::try_unwrap(shared)
                .unwrap_or_else(|_| panic!("matrix still referenced at sink"));
            let _ = output.set(plan.collect(shared));
        })
    };
    Ok((graph, sink, output))
}

/// CALU serve graph: the full multithreaded DAG of [`crate::calu`] with an
/// owning payload per task and a factor-collecting sink. With `rec`, every
/// compute task is wrapped for write-set snapshot/restore retry (see
/// [`JobRecovery`]).
///
/// Rejects matrices with non-finite entries up front (the service returns
/// the error synchronously instead of poisoning a running job).
pub fn calu_serve_graph(
    a: Matrix,
    p: &CaParams,
    rec: Option<&JobRecovery>,
) -> Result<ServeGraph<LuFactors>, FactorError> {
    let (graph, _, output) = graph_parts(a, rec, |m, n| CaluPlan::build(m, n, p))?;
    Ok(ServeGraph { graph, output })
}

/// CAQR serve graph: the full multithreaded DAG of [`crate::caqr`] with an
/// owning payload per task and a factor-collecting sink; `rec` as in
/// [`calu_serve_graph`].
pub fn caqr_serve_graph(
    a: Matrix,
    p: &CaParams,
    rec: Option<&JobRecovery>,
) -> Result<ServeGraph<QrFactors>, FactorError> {
    let (graph, _, output) = graph_parts(a, rec, |m, n| CaqrPlan::build(m, n, p))?;
    Ok(ServeGraph { graph, output })
}

/// Factor-and-solve serve graph for square `A·X = rhs`: the CALU DAG plus a
/// solve sink running [`LuFactors::try_solve`]. A pivot breakdown surfaces
/// as a failed job (the [`FactorError`] message travels in the
/// [`ca_sched::ExecError`]); the factors themselves are discarded.
///
/// With `rec`, every compute task is wrapped for write-set snapshot/restore
/// retry. The solve epilogue itself is not wrapped — it reads only
/// completed factors and owns its right-hand side.
///
/// # Panics
/// Panics if `A` is not square or `rhs` has the wrong row count (the
/// service layer validates shapes before building).
pub fn lu_solve_serve_graph(
    a: Matrix,
    rhs: Matrix,
    p: &CaParams,
    rec: Option<&JobRecovery>,
) -> Result<ServeGraph<Matrix>, FactorError> {
    assert_eq!(a.nrows(), a.ncols(), "solve requires square A");
    assert_eq!(rhs.nrows(), a.nrows(), "rhs row mismatch");
    if let Some((row, col)) = find_non_finite(&rhs) {
        return Err(FactorError::NonFiniteInput { row, col });
    }
    let flops = 2.0 * (a.nrows() as f64) * (a.nrows() as f64) * (rhs.ncols() as f64);
    let (mut graph, fsink, factors) = graph_parts(a, rec, |m, n| CaluPlan::build(m, n, p))?;
    let output = Arc::new(OnceLock::new());
    let out = Arc::clone(&output);
    let solve = graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 1), flops),
        Box::new(move || {
            let f = factors.get().expect("factor sink must precede solve");
            match f.try_solve(&rhs) {
                Ok(x) => {
                    let _ = out.set(x);
                    Ok(())
                }
                Err(e) => Err(TaskFailure::new(e.to_string())),
            }
        }),
    );
    graph.add_dep(fsink, solve);
    Ok(ServeGraph { graph, output })
}

/// Factor-and-least-squares serve graph for tall `A` (`m ≥ n`): the CAQR
/// DAG plus a sink running [`QrFactors::try_solve_ls`]. Rank deficiency
/// surfaces as a failed job.
///
/// With `rec`, every compute task is wrapped for write-set snapshot/restore
/// retry; the least-squares epilogue is not — it reads only completed
/// factors.
///
/// # Panics
/// Panics if `m < n` or `rhs` has the wrong row count.
pub fn qr_lstsq_serve_graph(
    a: Matrix,
    rhs: Matrix,
    p: &CaParams,
    rec: Option<&JobRecovery>,
) -> Result<ServeGraph<Matrix>, FactorError> {
    assert!(a.nrows() >= a.ncols(), "least squares needs a tall matrix");
    assert_eq!(rhs.nrows(), a.nrows(), "rhs row mismatch");
    if let Some((row, col)) = find_non_finite(&rhs) {
        return Err(FactorError::NonFiniteInput { row, col });
    }
    let flops = 2.0 * (a.ncols() as f64) * (a.nrows() as f64) * (rhs.ncols() as f64);
    let (mut graph, fsink, factors) = graph_parts(a, rec, |m, n| CaqrPlan::build(m, n, p))?;
    let output = Arc::new(OnceLock::new());
    let out = Arc::clone(&output);
    let solve = graph.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 1), flops),
        Box::new(move || {
            let f = factors.get().expect("factor sink must precede solve");
            match f.try_solve_ls(&rhs) {
                Ok(x) => {
                    let _ = out.set(x);
                    Ok(())
                }
                Err(e) => Err(TaskFailure::new(e.to_string())),
            }
        }),
    );
    graph.add_dep(fsink, solve);
    Ok(ServeGraph { graph, output })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, seeded_rng};
    use ca_sched::{JobOptions, JobOutcome, MultiFrontier};

    #[test]
    fn calu_serve_graph_matches_sequential_bitwise() {
        let a = ca_matrix::random_uniform(96, 96, &mut seeded_rng(20));
        let p = CaParams::new(16, 4, 2);
        let reference = calu_seq_factor(a.clone(), &p);

        let f = MultiFrontier::new(2);
        let sg = calu_serve_graph(a, &p, None).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let lu = sg.output.get().expect("output set");
        assert_eq!(lu.pivots.ipiv, reference.pivots.ipiv);
        assert_eq!(lu.lu.as_slice(), reference.lu.as_slice());
        f.shutdown();
    }

    #[test]
    fn caqr_serve_graph_matches_sequential_bitwise() {
        let a = ca_matrix::random_uniform(96, 64, &mut seeded_rng(21));
        let p = CaParams::new(16, 4, 2);
        let reference = caqr_seq(a.clone(), &p);

        let f = MultiFrontier::new(2);
        let sg = caqr_serve_graph(a, &p, None).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let qr = sg.output.get().expect("output set");
        assert_eq!(qr.a.as_slice(), reference.a.as_slice());
        f.shutdown();
    }

    #[test]
    fn solve_graph_solves_and_reports_breakdown() {
        let n = 48;
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(22));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(23));
        let b = a.matmul(&x_true);
        let p = CaParams::new(8, 4, 2);

        let f = MultiFrontier::new(2);
        let sg = lu_solve_serve_graph(a, b, &p, None).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set");
        assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-8);

        // Singular system: the solve sink fails the job with ZeroPivot.
        let mut s = ca_matrix::random_uniform(n, n, &mut seeded_rng(24));
        for i in 0..n {
            let v = s[(i, 0)];
            for j in 1..n {
                s[(i, j)] = v; // rank 1
            }
        }
        let rhs = ca_matrix::random_uniform(n, 1, &mut seeded_rng(25));
        let sg = lu_solve_serve_graph(s, rhs, &p, None).expect("finite input");
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
        let p = CaParams::new(8, 4, 2);
        let reference = caqr_seq(a.clone(), &p).solve_ls(&b);

        let f = MultiFrontier::new(2);
        let sg = qr_lstsq_serve_graph(a, b, &p, None).expect("finite input");
        let (_, watch) = f.submit(sg.graph, JobOptions::default());
        assert!(watch.wait().outcome.is_completed());
        let x = sg.output.get().expect("solution set");
        assert!(norm_max(x.sub_matrix(&reference).view()) < 1e-10);
        f.shutdown();
    }

    #[test]
    fn one_task_graphs_match_sequential_bitwise_and_count_flops_like_the_dag() {
        let f = MultiFrontier::new(1);
        // (m, n, b): a single-panel shape, a multi-panel one, a wide one.
        for (m, n, b) in [(32, 32, 32), (40, 24, 8), (24, 40, 8)] {
            let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(29));
            let p = CaParams::new(b, 2, 1);
            let lu = calu_seq_serve_graph(a.clone(), &p).expect("finite input");
            let qr = caqr_seq_serve_graph(a.clone(), &p).expect("finite input");
            assert_eq!((lu.graph.len(), qr.graph.len()), (1, 1));
            // Same unit as the DAG route: the LAPACK count, which is what a
            // single-panel DAG adds up to exactly; a multi-panel DAG adds the
            // tournament's redundant flops on top.
            let (lu_flops, qr_flops) = (lu.graph.total_flops(), qr.graph.total_flops());
            assert_eq!(lu_flops, flops::getrf(m.max(n), m.min(n)));
            assert_eq!(qr_flops, flops::geqrf(m.max(n), m.min(n)));
            let lu_dag = calu_serve_graph(a.clone(), &p, None).expect("finite").graph.total_flops();
            let qr_dag = caqr_serve_graph(a.clone(), &p, None).expect("finite").graph.total_flops();
            if n <= b {
                assert_eq!((lu_flops, qr_flops), (lu_dag, qr_dag), "{m}x{n} b={b}");
            } else {
                assert!(lu_flops <= lu_dag && lu_dag < 2.0 * lu_flops, "{m}x{n}: {lu_dag}");
                assert!(qr_flops <= qr_dag && qr_dag < 2.0 * qr_flops, "{m}x{n}: {qr_dag}");
            }

            let (_, watch) = f.submit(lu.graph, JobOptions::default());
            assert!(watch.wait().outcome.is_completed());
            let want = calu_seq_factor(a.clone(), &p);
            let got = lu.output.get().expect("output set");
            assert_eq!(got.lu.as_slice(), want.lu.as_slice());
            assert_eq!(got.pivots.ipiv, want.pivots.ipiv);
            let (_, watch) = f.submit(qr.graph, JobOptions::default());
            assert!(watch.wait().outcome.is_completed());
            let got = qr.output.get().expect("output set");
            assert_eq!(got.a.as_slice(), caqr_seq(a, &p).a.as_slice());
        }
        f.shutdown();
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_build_time() {
        let mut a = ca_matrix::random_uniform(8, 8, &mut seeded_rng(28));
        a[(2, 3)] = f64::INFINITY;
        let p = CaParams::new(4, 2, 1);
        assert!(matches!(
            calu_serve_graph(a.clone(), &p, None),
            Err(FactorError::NonFiniteInput { row: 2, col: 3 })
        ));
        assert!(matches!(
            caqr_serve_graph(a.clone(), &p, None),
            Err(FactorError::NonFiniteInput { row: 2, col: 3 })
        ));
        assert!(matches!(
            calu_seq_serve_graph(a.clone(), &p),
            Err(FactorError::NonFiniteInput { row: 2, col: 3 })
        ));
        assert!(matches!(
            caqr_seq_serve_graph(a, &p),
            Err(FactorError::NonFiniteInput { row: 2, col: 3 })
        ));
    }
}

//! Cross-crate integration tests: the public API exercised end-to-end, and
//! agreement between independent implementations of the same mathematics.

use ca_factor::baselines::{geqrf_blocked, getrf_blocked, tiled_lu, tiled_qr, TiledLu};
use ca_factor::matrix::{
    norm_max, orthogonality, random_uniform, seeded_rng, Matrix,
};
use ca_factor::prelude::*;

#[test]
fn calu_blocked_and_tiled_solve_the_same_system() {
    let n = 300;
    let mut rng = seeded_rng(1);
    let a = random_uniform(n, n, &mut rng);
    let x_true = random_uniform(n, 3, &mut rng);
    let b = a.matmul(&x_true);

    let x1 = calu(a.clone(), &CaParams::new(48, 4, 3)).solve(&b);
    let x3 = tiled_lu(a.clone(), 48, 3).solve(&b);
    let mut lu = a.clone();
    let r = getrf_blocked(&mut lu, 48, 3);
    let mut x2 = b.clone();
    r.pivots.apply(x2.view_mut());
    ca_factor::kernels::trsm_left_lower_unit(lu.view(), x2.view_mut());
    ca_factor::kernels::trsm_left_upper_notrans(lu.view(), x2.view_mut());

    for x in [&x1, &x2, &x3] {
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-8, "solution error {err}");
    }
    let _ = TiledLu::solve_residual(&a, &x3, &b);
}

#[test]
fn calu_tr1_pivots_agree_with_blocked_lapack() {
    // With Tr = 1 tournament pivoting degenerates to partial pivoting, so
    // the pivot sequence must agree with the blocked LAPACK baseline (which
    // itself agrees with dgetf2) — three independent code paths, one answer.
    let m = 200;
    let n = 120;
    let a = random_uniform(m, n, &mut seeded_rng(2));
    let f = calu(a.clone(), &CaParams::new(30, 1, 2));
    let mut lu = a.clone();
    let r = getrf_blocked(&mut lu, 30, 1);
    assert_eq!(f.pivots.ipiv, r.pivots.ipiv);
    // The factors agree to roundoff (different update orders).
    let diff = f.lu.sub_matrix(&lu);
    assert!(norm_max(diff.view()) < 1e-10);
}

#[test]
fn three_qr_engines_agree_on_abs_r() {
    let m = 250;
    let n = 60;
    let a = random_uniform(m, n, &mut seeded_rng(3));

    let f_caqr = caqr(a.clone(), &CaParams::new(20, 4, 3));
    let r1 = f_caqr.r();

    let mut w = a.clone();
    let bq = geqrf_blocked(&mut w, 20, 3);
    let r2 = w.upper();
    let _ = bq;

    let tq = tiled_qr(a.clone(), 20, 3);
    let r3 = tq.r();

    for i in 0..n {
        for j in i..n {
            let x1 = r1[(i, j)].abs();
            let x2 = r2[(i, j)].abs();
            let x3 = r3[(i, j)].abs();
            assert!((x1 - x2).abs() < 1e-9 * (1.0 + x2), "CAQR vs blocked at ({i},{j})");
            assert!((x3 - x2).abs() < 1e-9 * (1.0 + x2), "tiled vs blocked at ({i},{j})");
        }
    }
}

#[test]
fn qr_q_factors_are_orthogonal_across_engines() {
    let m = 180;
    let n = 40;
    let a = random_uniform(m, n, &mut seeded_rng(4));
    let scale = 1e-11;

    let q1 = caqr(a.clone(), &CaParams::new(16, 4, 2)).q_thin();
    assert!(orthogonality(&q1) < scale);

    let mut w = a.clone();
    let bq = geqrf_blocked(&mut w, 16, 2);
    assert!(orthogonality(&bq.q_thin(&w)) < scale);

    let q3 = tiled_qr(a, 16, 2).q_thin();
    assert!(orthogonality(&q3) < scale);
}

#[test]
fn facade_prelude_covers_the_basics() {
    let a = random_uniform(64, 64, &mut seeded_rng(5));
    let f: LuFactors = calu(a.clone(), &CaParams::new(16, 2, 2));
    assert!(f.residual(&a) < 1e-12);
    let q: QrFactors = caqr(a.clone(), &CaParams::new(16, 2, 2));
    assert!(q.residual(&a) < 1e-11);
    let t = tslu_factor(a.clone(), 4, &CaParams::new(64, 4, 1));
    assert!(t.residual(&a) < 1e-12);
    let s = tsqr_factor(a.clone(), 4, &CaParams::new(64, 4, 1));
    assert!(s.residual(&a) < 1e-11);
    let _: Matrix = f.l();
    let _: TreeShape = TreeShape::Flat;
}

#[test]
fn rectangular_tiled_lu_graph_and_tall_factorization() {
    // Tall-skinny tiled LU (rectangular grid) — the Figure 5/6/7 PLASMA
    // configuration.
    let plan = ca_factor::baselines::TiledLuPlan::build(5000, 200, 100);
    plan.graph().validate();
    assert!(plan.graph().total_flops() > 0.0);
    // The real factorization on a tall matrix runs and leaves finite values.
    let a = random_uniform(500, 100, &mut seeded_rng(6));
    let f = tiled_lu(a, 50, 2);
    assert!(f.a.as_slice().iter().all(|x| x.is_finite()));
}

#[test]
fn factors_are_bitwise_identical_across_every_option_and_thread_count() {
    equivalence_class_of_the_dag_path::<f64>();
    equivalence_class_of_the_dag_path::<f32>();
}

/// The declared equivalence class of the DAG path: whatever the element
/// type, the `FactorOptions`, the worker count and *whose* workers they are
/// — `try_*_with` running the plan's jobs itself, or the same plan under the
/// same options served (`*_serve_graph` on a `MultiFrontier`; f64, as all
/// serving is) — CALU and CAQR produce the bits of the sequential references
/// and account the same recovery activity. Faults that fail a task are only
/// injected under
/// `retry` (without it they fail the run — see tests/breakdown.rs and
/// tests/recovery.rs); a delay-only plan exercises the no-retry injection
/// path.
fn equivalence_class_of_the_dag_path<T: ca_factor::kernels::Kernel>() {
    use ca_factor::core::{
        calu_serve_graph, calu_task_graph, caqr_serve_graph, caqr_task_graph, try_calu,
        try_calu_profiled, try_calu_with, try_caqr, try_caqr_profiled, try_caqr_with,
        FactorOptions, Retry,
    };
    use ca_factor::sched::{
        ChaosPlan, JobOptions, MultiFrontier, RecoveryCounters, RetryPolicy, TaskKind,
    };
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Chaos {
        None,
        Delay,
        Faults,
    }
    let plan = |chaos| match chaos {
        Chaos::None => None,
        Chaos::Delay => Some(
            ChaosPlan::quiet(1).delay_nth(1, Duration::from_micros(50), |l| l.kind == TaskKind::Update),
        ),
        Chaos::Faults => Some(
            ChaosPlan::quiet(2)
                .fail_nth(1, |l| l.kind == TaskKind::Update)
                .panic_nth(2, |l| l.kind == TaskKind::Panel),
        ),
    };

    // Square multi-panel, tall single-panel, ragged wide.
    for &(m, n, b, tr) in &[(96usize, 96usize, 16usize, 4usize), (200, 16, 16, 4), (50, 90, 16, 3)] {
        let a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng(0xE0 + m as u64)));
        let base = CaParams::new(b, tr, 1).with_par_update_rows(32);
        let lu_ref = calu_seq_factor(a.clone(), &base);
        let qr_ref = caqr_seq(a.clone(), &base);
        // The served half of the table: (input, LU bits, QR bits) in f64.
        let served_ref =
            (T::NAME == "f64").then(|| (a.to_f64(), lu_ref.lu.to_f64(), qr_ref.a.to_f64()));
        for threads in [1usize, 2, 4] {
            let p = CaParams { threads, ..base };
            let lu = calu(a.clone(), &p);
            assert_eq!(lu.lu.as_slice(), lu_ref.lu.as_slice(), "calu {m}x{n} {p:?}");
            assert_eq!(lu.pivots.ipiv, lu_ref.pivots.ipiv, "calu {m}x{n} {p:?}");
            assert_eq!(caqr(a.clone(), &p).a.as_slice(), qr_ref.a.as_slice(), "caqr {m}x{n} {p:?}");

            // The `*_profiled` entry points are the plain calls plus the
            // view: same factors, one record per task the run counted.
            let (f, profile) = try_calu_profiled(a.clone(), &p).expect("calu");
            assert_eq!(f.lu.as_slice(), try_calu(a.clone(), &p).expect("calu").lu.as_slice());
            assert_eq!(f.lu.as_slice(), lu_ref.lu.as_slice(), "profiled calu {m}x{n} {p:?}");
            assert_eq!(profile.records.len(), calu_task_graph(m, n, &p).len());
            let (f, profile) = try_caqr_profiled(a.clone(), &p).expect("caqr");
            assert_eq!(f.a.as_slice(), try_caqr(a.clone(), &p).expect("caqr").a.as_slice());
            assert_eq!(f.a.as_slice(), qr_ref.a.as_slice(), "profiled caqr {m}x{n} {p:?}");
            assert_eq!(profile.records.len(), caqr_task_graph(m, n, &p).len());

            let frontier = MultiFrontier::new(threads);
            for retry in [false, true] {
                for checked in [false, true] {
                    for chaos in [Chaos::None, Chaos::Delay, Chaos::Faults] {
                        if chaos == Chaos::Faults && !retry {
                            continue;
                        }
                        let case = format!(
                            "{} {m}x{n} threads={threads} retry={retry} \
                             checked={checked} chaos={chaos:?}",
                            T::NAME
                        );
                        // A chaos plan is single-use: every run gets a fresh
                        // one; each route counts into its own counters.
                        let counters = [(); 2].map(|()| Arc::new(RecoveryCounters::new()));
                        let options = |route: usize| FactorOptions {
                            chaos: plan(chaos).map(Arc::new),
                            retry: retry.then(|| Retry {
                                policy: RetryPolicy::default(),
                                counters: Arc::clone(&counters[route]),
                            }),
                            checked,
                        };
                        // What a served job of `tasks` plan tasks must have
                        // run: those plus exactly one sink.
                        let serve = |graph, tasks: usize| {
                            let (_, watch) = frontier.submit(graph, JobOptions::default());
                            let job = watch.wait();
                            assert!(job.outcome.is_completed(), "served {case}: {:?}", job.outcome);
                            assert_eq!(job.tasks_run, tasks + 1, "served {case}");
                        };

                        let (f, lu_report) = try_calu_with(a.clone(), &p, &options(0))
                            .unwrap_or_else(|e| panic!("calu {case}: {e}"));
                        assert_eq!(f.lu.as_slice(), lu_ref.lu.as_slice(), "calu {case}");
                        assert_eq!(f.pivots.ipiv, lu_ref.pivots.ipiv, "calu {case}");
                        let tasks = lu_report.stats.tasks;
                        assert_eq!(lu_report.profile().records.len(), tasks, "calu {case}");

                        let (f, qr_report) = try_caqr_with(a.clone(), &p, &options(0))
                            .unwrap_or_else(|e| panic!("caqr {case}: {e}"));
                        assert_eq!(f.a.as_slice(), qr_ref.a.as_slice(), "caqr {case}");
                        let tasks = qr_report.stats.tasks;
                        assert_eq!(qr_report.profile().records.len(), tasks, "caqr {case}");
                        if chaos == Chaos::Faults {
                            let s = counters[0].snapshot();
                            assert!(s.recovered_tasks >= 2, "{case}: {s:?}");
                            assert_eq!(s.exhausted_tasks, 0, "{case}: {s:?}");
                        }

                        let Some((a, lu_bits, qr_bits)) = &served_ref else { continue };
                        let sg = calu_serve_graph(a.clone(), &p, &options(1), false)
                            .unwrap_or_else(|e| panic!("served calu {case}: {e}"));
                        serve(sg.graph, lu_report.stats.tasks);
                        let f = sg.output.get().expect("a completed job filled its output");
                        assert_eq!(f.lu.as_slice(), lu_bits.as_slice(), "served calu {case}");
                        assert_eq!(f.pivots.ipiv, lu_ref.pivots.ipiv, "served calu {case}");
                        let sg = caqr_serve_graph(a.clone(), &p, &options(1), false)
                            .unwrap_or_else(|e| panic!("served caqr {case}: {e}"));
                        serve(sg.graph, qr_report.stats.tasks);
                        let f = sg.output.get().expect("a completed job filled its output");
                        assert_eq!(f.a.as_slice(), qr_bits.as_slice(), "served caqr {case}");

                        let [mut one_shot, mut served] = counters.map(|c| c.snapshot());
                        if threads > 1 {
                            // Which Panel task the N-th-match rule hits, and
                            // so whether it has a write-set to restore,
                            // depends on the interleaving.
                            (one_shot.restores, served.restores) = (0, 0);
                        }
                        assert_eq!(one_shot, served, "{case}");
                    }
                }
            }
            frontier.shutdown();
        }
    }
}

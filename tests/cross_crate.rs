//! Cross-crate integration tests: the public API exercised end-to-end, and
//! agreement between independent implementations of the same mathematics.

mod equivalence_table;

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

/// Whatever the element type, the `FactorOptions` (plain, checked, retry, a
/// delay) and the worker count, and *whose* workers they are — `try_*_with`
/// running the plan's jobs itself, or the same plan under the same options
/// served on a `MultiFrontier` — CALU and CAQR give the sequential bits, one
/// profile record per task, and count the same recovery activity; so does
/// `try_*_profiled`.
#[test]
fn factors_are_bitwise_identical_across_every_option_and_thread_count() {
    equivalence_table::lu_and_qr(equivalence_table::Part::Options);
}

//! Numerical-breakdown recovery tests of the fallible factorization APIs:
//! NaN/Inf pre-scan, exact-singularity reporting, the GEPP fallback on
//! tournament instability, and worker-failure surfacing via fault injection.

use ca_factor::core::{try_calu_with, FactorOptions, DEFAULT_GROWTH_LIMIT};
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::prelude::*;
use ca_factor::sched::ChaosPlan;

#[test]
fn nan_input_is_rejected_before_factoring() {
    let mut a = random_uniform(40, 40, &mut seeded_rng(1));
    a[(3, 5)] = f64::NAN;
    let p = CaParams::new(10, 4, 2);
    let err = try_calu(a.clone(), &p).expect_err("NaN must be rejected");
    assert_eq!(err, FactorError::NonFiniteInput { row: 3, col: 5 });

    a[(3, 5)] = f64::INFINITY;
    assert!(matches!(
        try_caqr(a.clone(), &p),
        Err(FactorError::NonFiniteInput { row: 3, col: 5 })
    ));
    assert!(matches!(
        try_tslu_factor(a.clone(), 4, &p),
        Err(FactorError::NonFiniteInput { .. })
    ));
    assert!(matches!(
        try_tsqr_factor(a, 4, &p),
        Err(FactorError::NonFiniteInput { .. })
    ));
}

#[test]
fn exactly_singular_matrix_returns_zero_pivot() {
    let n = 24;
    let mut a = random_uniform(n, n, &mut seeded_rng(2));
    for i in 0..n {
        a[(i, 7)] = 0.0;
    }
    let p = CaParams::new(6, 2, 2);
    let err = try_calu(a.clone(), &p).expect_err("singular matrix must error");
    assert!(matches!(err, FactorError::ZeroPivot { .. }), "{err:?}");
    // Sequential path agrees on the column.
    let col = calu_seq_factor(a.clone(), &p).breakdown.expect("singular matrix must break down");
    assert_eq!(err, FactorError::ZeroPivot { col });
    // The infallible API still returns factors with the breakdown recorded
    // (LAPACK `info` semantics are preserved).
    let f = calu(a, &p);
    assert!(f.breakdown.is_some());
}

#[test]
fn rank_deficient_tall_panel_zero_pivot_in_tslu() {
    // Rank-1 tall-and-skinny matrix: the tournament winner block is
    // exactly singular.
    let a = Matrix::from_fn(64, 4, |i, j| ((i % 2) * (j + 1)) as f64);
    let err = try_tslu_factor(a, 4, &CaParams::new(4, 4, 1)).expect_err("rank-1 must error");
    assert!(matches!(err, FactorError::ZeroPivot { .. }), "{err:?}");
}

#[test]
fn gepp_fallback_keeps_factorization_correct() {
    // A zero growth limit forces the fallback on every panel: each panel is
    // then refactored with plain partial pivoting over all active rows,
    // which must reproduce GEPP's pivots exactly and keep PA = LU accurate.
    let n = 48;
    let a0 = random_uniform(n, n, &mut seeded_rng(3));
    let p = CaParams::new(12, 4, 2).with_growth_limit(0.0);

    let f = calu(a0.clone(), &p);
    let npanels = ca_factor::core::num_panels(n, n, p.b);
    assert_eq!(f.stats.fallback_panels.len(), npanels, "every panel must fall back");
    assert!(f.stats.max_growth() > 0.0);
    let res = f.residual(&a0);
    assert!(res < 1e-13, "fallback residual {res}");

    // Fallback selection == partial pivoting: pivots match plain GEPP.
    let mut r = a0.clone();
    let info = ca_factor::kernels::getf2(r.view_mut());
    assert_eq!(f.pivots.ipiv, info.pivots.ipiv, "fallback must equal GEPP pivots");

    // Parallel and sequential fallback paths agree bitwise.
    let fs = calu_seq_factor(a0, &p);
    assert_eq!(f.lu.as_slice(), fs.lu.as_slice());
    assert_eq!(fs.stats.fallback_panels, f.stats.fallback_panels);
}

#[test]
fn moderate_growth_never_triggers_fallback_or_error() {
    // Random matrices sit far below the default ceiling: the try_ API must
    // return clean factors with no fallback recorded.
    let a0 = random_uniform(60, 60, &mut seeded_rng(4));
    let f = try_calu(a0.clone(), &CaParams::new(15, 4, 2)).expect("well-conditioned input");
    assert!(f.stats.fallback_panels.is_empty());
    assert!(f.stats.max_growth() < DEFAULT_GROWTH_LIMIT);
    assert!(f.residual(&a0) < 1e-13);
}

#[test]
fn growth_explosion_is_reported_when_even_gepp_exceeds_the_limit() {
    // With an impossible limit the GEPP refactorization still "exceeds" it,
    // so the try_ API must refuse with the panel's column and growth.
    let a0 = random_uniform(30, 30, &mut seeded_rng(5));
    let p = CaParams::new(10, 2, 1).with_growth_limit(0.0);
    let err = try_calu(a0, &p).expect_err("zero limit must be unreachable");
    match err {
        FactorError::GrowthExplosion { col, growth } => {
            assert_eq!(col, 0);
            assert!(growth > 0.0);
        }
        other => panic!("expected GrowthExplosion, got {other:?}"),
    }
}

#[test]
fn injected_task_failure_surfaces_as_task_failed() {
    // Panic the second panel-kind task mid-factorization: the scheduler
    // cancels the transitive successors and the try_ API reports which
    // task died instead of hanging or panicking.
    let a = random_uniform(96, 96, &mut seeded_rng(6));
    let p = CaParams::new(16, 4, 4);
    let faults = ChaosPlan::quiet(0).panic_nth(2, |l| l.kind == ca_factor::sched::TaskKind::Panel);
    let opts = FactorOptions { chaos: Some(faults.into()), ..Default::default() };
    let err = try_calu_with(a, &p, &opts).err().expect("injected panic must surface");
    match err {
        FactorError::TaskFailed { label, message } => {
            assert!(label.starts_with('P'), "label {label}");
            assert!(message.contains("injected panic"), "message {message}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn try_solve_refuses_singular_factors_and_bad_rhs() {
    let n = 16;
    let mut a = random_uniform(n, n, &mut seeded_rng(7));
    for i in 0..n {
        a[(i, 4)] = 0.0;
    }
    let f = calu_seq_factor(a, &CaParams::new(4, 2, 1));
    let rhs = Matrix::from_fn(n, 1, |_, _| 1.0);
    assert!(matches!(f.try_solve(&rhs), Err(FactorError::ZeroPivot { .. })));

    let good = random_uniform(n, n, &mut seeded_rng(8));
    let f = calu_seq_factor(good.clone(), &CaParams::new(4, 2, 1));
    let mut bad_rhs = rhs.clone();
    bad_rhs[(2, 0)] = f64::NAN;
    assert!(matches!(
        f.try_solve(&bad_rhs),
        Err(FactorError::NonFiniteInput { row: 2, col: 0 })
    ));
    let x = f.try_solve(&good.matmul(&rhs)).expect("clean solve");
    let err = ca_factor::matrix::norm_max(x.sub_matrix(&rhs).view());
    assert!(err < 1e-9, "solve error {err}");
}

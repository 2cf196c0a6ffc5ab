//! Backward-error accuracy suite: every factorization path in the workspace
//! against LAPACK-style `c · max(m,n) · eps` acceptance thresholds.
//!
//! These bounds are the contract the new packed GEMM path must preserve:
//! CALU/CAQR trailing updates, compact-WY applications, and the tiled
//! baselines all route their BLAS3 work through `ca_kernels::gemm`, so a
//! rounding regression in the microkernel (or a packing indexing bug that
//! survives the conformance oracle's shapes) surfaces here as a residual
//! blow-up. Measured: `‖PA − LU‖/‖A‖` for the LU family, `‖A − QR‖/‖A‖`
//! and `‖QᵀQ − I‖` for the QR family, across both reduction trees and the
//! tiled/blocked baselines.

use ca_factor::baselines::{geqrf_blocked, getrf_blocked, tiled_lu, tiled_qr, TiledLu};
use ca_factor::matrix::{
    lu_residual, orthogonality, qr_residual, random_uniform, residual_threshold, seeded_rng,
};
use ca_factor::prelude::*;

/// `c` in the `c · max(m,n) · eps` acceptance threshold. LAPACK's own tests
/// use single digits on the normalized statistic; the plain relative
/// residual here carries the growth factor, so allow a generous constant —
/// it still fails loudly on any real defect (which shows up orders of
/// magnitude above eps-scale).
const C: f64 = 100.0;

/// Shapes exercised for every path: square, tall (the CA sweet spot), and a
/// width that leaves partial panels/tiles everywhere.
const SHAPES: [(usize, usize); 3] = [(96, 96), (240, 64), (150, 90)];

fn trees() -> [TreeShape; 2] {
    [TreeShape::Binary, TreeShape::Flat]
}

#[test]
fn calu_residual_both_trees() {
    for (m, n) in SHAPES {
        let a = random_uniform(m, n, &mut seeded_rng((m * 3 + n) as u64));
        for tree in trees() {
            let mut p = CaParams::new(16, 4, 2);
            p.tree = tree;
            let f = calu(a.clone(), &p);
            let res = f.residual(&a);
            let bound = residual_threshold(m, n, C);
            assert!(res < bound, "CALU {m}x{n} {tree:?}: residual {res} vs {bound}");
        }
    }
}

#[test]
fn caqr_residual_and_orthogonality_both_trees() {
    for (m, n) in SHAPES {
        let a = random_uniform(m, n, &mut seeded_rng((m * 5 + n) as u64));
        for tree in trees() {
            let mut p = CaParams::new(16, 4, 2);
            p.tree = tree;
            let f = caqr(a.clone(), &p);
            let res = f.residual(&a);
            let orth = f.orthogonality();
            let bound = residual_threshold(m, n, C);
            assert!(res < bound, "CAQR {m}x{n} {tree:?}: residual {res} vs {bound}");
            assert!(orth < bound, "CAQR {m}x{n} {tree:?}: orthogonality {orth} vs {bound}");
        }
    }
}

#[test]
fn blocked_lu_baseline_residual() {
    for (m, n) in SHAPES {
        let a0 = random_uniform(m, n, &mut seeded_rng((m * 7 + n) as u64));
        let mut a = a0.clone();
        let f = getrf_blocked(&mut a, 24, 2);
        assert!(f.breakdown.is_none(), "unexpected breakdown on random {m}x{n}");
        let res = lu_residual(&a0, &f.pivots.to_permutation(m), &a.unit_lower(), &a.upper());
        let bound = residual_threshold(m, n, C);
        assert!(res < bound, "blocked LU {m}x{n}: residual {res} vs {bound}");
    }
}

#[test]
fn blocked_qr_baseline_residual_and_orthogonality() {
    for (m, n) in SHAPES {
        let a0 = random_uniform(m, n, &mut seeded_rng((m * 11 + n) as u64));
        let mut a = a0.clone();
        let f = geqrf_blocked(&mut a, 24, 2);
        let q = f.q_thin(&a);
        let res = qr_residual(&a0, &q, &a.upper());
        let orth = orthogonality(&q);
        let bound = residual_threshold(m, n, C);
        assert!(res < bound, "blocked QR {m}x{n}: residual {res} vs {bound}");
        assert!(orth < bound, "blocked QR {m}x{n}: orthogonality {orth} vs {bound}");
    }
}

#[test]
fn tiled_lu_baseline_solve_residual() {
    // The tiled LU keeps tile-local transforms rather than global factors;
    // its accuracy statement is the solve residual ‖A·x − b‖/(‖A‖·‖x‖).
    for n in [96, 150] {
        let a0 = random_uniform(n, n, &mut seeded_rng(n as u64));
        let rhs = random_uniform(n, 3, &mut seeded_rng((n + 1) as u64));
        let f = tiled_lu(a0.clone(), 32, 2);
        let x = f.solve(&rhs);
        let res = TiledLu::solve_residual(&a0, &x, &rhs);
        let bound = residual_threshold(n, n, C);
        assert!(res < bound, "tiled LU n={n}: solve residual {res} vs {bound}");
    }
}

#[test]
fn tiled_qr_baseline_residual_and_orthogonality() {
    // Every shape at b = 32, then wide and square with a ragged b.
    let cases = SHAPES.map(|s| (s, 32)).into_iter().chain([((60, 130), 28), ((130, 130), 28)]);
    for ((m, n), b) in cases {
        let a0 = random_uniform(m, n, &mut seeded_rng((m * 13 + n) as u64));
        let f = tiled_qr(a0.clone(), b, 2);
        let res = f.residual(&a0);
        let orth = orthogonality(&f.q_thin());
        let bound = residual_threshold(m, n, C);
        assert!(res < bound, "tiled QR {m}x{n} b={b}: residual {res} vs {bound}");
        assert!(orth < bound, "tiled QR {m}x{n} b={b}: orthogonality {orth} vs {bound}");
    }
}

#[test]
fn accuracy_is_backend_independent() {
    // The same factorization under the scalar kernel must meet the same
    // bounds (CALU/CAQR call `gemm`, whose backend is dispatch-cached per
    // process — so here we assert the *bound*, not bitwise equality, under
    // whichever backend the process selected; CI runs the whole suite again
    // under `CA_KERNELS_BACKEND=scalar` to pin the other path).
    let (m, n) = (200, 56);
    let a = random_uniform(m, n, &mut seeded_rng(77));
    let mut p = CaParams::new(8, 4, 3);
    p.tree = TreeShape::Binary;
    let lu = calu(a.clone(), &p);
    let qr = caqr(a.clone(), &p);
    let bound = residual_threshold(m, n, C);
    assert!(lu.residual(&a) < bound, "backend {}", ca_factor::kernels::gemm_backend());
    assert!(qr.residual(&a) < bound && qr.orthogonality() < bound);
}

/// `c · max(m,n) · eps_f32` acceptance threshold for single precision
/// (`try_calu::<f32>` / `try_caqr::<f32>` at 1 and 4 workers). The
/// diagnostics themselves (residual, orthogonality) are f64-bridged, so the
/// statistic measures true f32 backward error against f64 reference
/// arithmetic.
fn bound_f32(m: usize, n: usize) -> f64 {
    C * m.max(n) as f64 * f32::EPSILON as f64
}

#[test]
fn calu_f32_backward_error_both_trees() {
    for (m, n) in SHAPES {
        let a = ca_factor::matrix::Matrix::<f32>::from_f64(&random_uniform(
            m,
            n,
            &mut seeded_rng((m * 17 + n) as u64),
        ));
        for tree in trees() {
            for threads in [1, 4] {
                let mut p = CaParams::new(16, 4, threads);
                p.tree = tree;
                let f = try_calu(a.clone(), &p).expect("random f32 input must factor");
                let res = f.residual(&a);
                let b = bound_f32(m, n);
                assert!(res < b, "CALU f32 {m}x{n} {tree:?} x{threads}: residual {res} vs {b}");
            }
        }
    }
}

#[test]
fn caqr_f32_backward_error_and_orthogonality_both_trees() {
    for (m, n) in SHAPES {
        let a = ca_factor::matrix::Matrix::<f32>::from_f64(&random_uniform(
            m,
            n,
            &mut seeded_rng((m * 19 + n) as u64),
        ));
        for tree in trees() {
            for threads in [1, 4] {
                let mut p = CaParams::new(16, 4, threads);
                p.tree = tree;
                let f = try_caqr(a.clone(), &p).expect("random f32 input must factor");
                let res = f.residual(&a);
                let orth = f.orthogonality();
                let b = bound_f32(m, n);
                assert!(res < b, "CAQR f32 {m}x{n} {tree:?} x{threads}: residual {res} vs {b}");
                assert!(orth < b, "CAQR f32 {m}x{n} {tree:?} x{threads}: orthogonality {orth} vs {b}");
            }
        }
    }
}

#[test]
fn tiled_qr_f32_backward_error_and_orthogonality() {
    for (m, n) in SHAPES {
        let a64 = random_uniform(m, n, &mut seeded_rng((m * 29 + n) as u64));
        let a = ca_factor::matrix::Matrix::<f32>::from_f64(&a64);
        let f = tiled_qr(a.clone(), 32, 2);
        let (res, orth, b) = (f.residual(&a), f.orthogonality(), bound_f32(m, n));
        assert!(res < b, "tiled QR f32 {m}x{n}: residual {res} vs {b}");
        assert!(orth < b, "tiled QR f32 {m}x{n}: orthogonality {orth} vs {b}");
    }
}

/// `R` of `2^e·A`, divided by `2^e` in f64, against `R` of `A`: scaling by
/// a power of two is exact, so a scale-safe QR returns the same `R` up to
/// rounding at any exponent whose products stay in range — here `geqr2`,
/// `geqr3` and `try_caqr`, far past where squaring the entries over- or
/// underflows (`2^±520` in f64, `2^±64` in f32).
fn scale_invariant_r<T: ca_factor::kernels::Kernel>(exps: &[i32]) {
    use ca_factor::kernels::{geqr2, geqr3};
    let (m, n) = (200, 40);
    let a = ca_factor::matrix::Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng(2026)));
    let p = CaParams::new(16, 4, 2);
    type Qr<T> = fn(&ca_factor::matrix::Matrix<T>, &CaParams) -> ca_factor::matrix::Matrix<T>;
    let kernels: [(&str, Qr<T>); 3] = [
        ("geqr2", |a, _| {
            let mut a = a.clone();
            geqr2(a.view_mut(), &mut Vec::new());
            a.upper()
        }),
        ("geqr3", |a, _| {
            let mut a = a.clone();
            let mut t = ca_factor::matrix::Matrix::zeros(a.ncols(), a.ncols());
            geqr3(a.view_mut(), t.view_mut());
            a.upper()
        }),
        ("try_caqr", |a, p| try_caqr(a.clone(), p).expect("finite input must factor").r()),
    ];
    for (name, qr) in kernels {
        let r0 = qr(&a, &p).to_f64();
        let bound = C * m.max(n) as f64 * T::EPSILON.to_f64() * ca_factor::matrix::norm_max(r0.view());
        for &e in exps {
            let s = T::from_f64(2f64.powi(e));
            let mut sa = a.clone();
            sa.as_mut_slice().iter_mut().for_each(|x| *x *= s);
            assert!(sa.as_slice().iter().zip(a.as_slice()).all(|(&x, &y)| x / s == y), "2^{e} must scale A exactly");
            let r = qr(&sa, &p).to_f64();
            assert!(r.as_slice().iter().all(|x| x.is_finite()), "{} {name} at 2^{e}: R not finite", T::NAME);
            let err = r.as_slice().iter().zip(r0.as_slice()).map(|(x, y)| (x / 2f64.powi(e) - y).abs()).fold(0.0, f64::max);
            assert!(err <= bound, "{} {name} at 2^{e}: |R(sA)/s - R(A)| = {err:e} vs {bound:e}", T::NAME);
        }
    }
}

#[test]
fn qr_is_scale_safe_across_the_exponent_range() {
    scale_invariant_r::<f64>(&[500, -500, 520, -520, 540, -540, 1000, -1000]);
    scale_invariant_r::<f32>(&[40, -40, 64, -64, 70, -70, 100, -100]);
}

#[test]
fn f32_fallible_path_accepts_clean_and_rejects_non_finite() {
    let a = ca_factor::matrix::Matrix::<f32>::from_f64(&random_uniform(64, 48, &mut seeded_rng(5)));
    let p = CaParams::new(16, 2, 2);
    let f = try_calu(a.clone(), &p).expect("clean f32 input must factor");
    assert!(f.residual(&a) < bound_f32(64, 48));
    let q = try_caqr(a.clone(), &p).expect("clean f32 input must factor");
    assert!(q.residual(&a) < bound_f32(64, 48));

    let mut bad = a;
    bad[(3, 2)] = f32::NAN;
    assert!(matches!(
        try_calu(bad.clone(), &p),
        Err(ca_factor::core::FactorError::NonFiniteInput { row: 3, col: 2 })
    ));
    assert!(matches!(
        try_caqr(bad, &p),
        Err(ca_factor::core::FactorError::NonFiniteInput { row: 3, col: 2 })
    ));
}

//! Edge-case and failure-injection tests across the public API: degenerate
//! shapes, rank-deficient and pathological inputs, extreme parameters.

use ca_factor::matrix::{norm_max, random_uniform, seeded_rng, Matrix};
use ca_factor::prelude::*;

#[test]
fn one_by_one_matrices() {
    let a: Matrix = Matrix::from_rows(1, 1, &[3.0]);
    let f = calu(a.clone(), &CaParams::new(1, 1, 1));
    assert_eq!(f.lu[(0, 0)], 3.0);
    assert!(f.residual(&a) < 1e-15);
    let q = caqr(a.clone(), &CaParams::new(1, 1, 1));
    assert!((q.r()[(0, 0)].abs() - 3.0).abs() < 1e-15);
}

#[test]
fn empty_matrices_factor_to_empty_factors() {
    // Nothing to factor is not an error, on the DAG path (plain and checked),
    // the sequential one, or in either precision.
    use ca_factor::core::{try_calu_with, try_caqr_with, FactorOptions};
    let p = CaParams::new(4, 2, 2);
    let checked = FactorOptions { checked: true, ..Default::default() };
    for (m, n) in [(0usize, 0usize), (0, 7), (7, 0)] {
        let a: Matrix = Matrix::zeros(m, n);
        let lu = try_calu(a.clone(), &p).unwrap_or_else(|e| panic!("calu {m}x{n}: {e}"));
        assert_eq!((lu.lu.nrows(), lu.lu.ncols(), lu.pivots.len()), (m, n, 0));
        assert_eq!(lu.pivots.ipiv, calu_seq_factor(a.clone(), &p).pivots.ipiv);
        try_calu_with(a.clone(), &p, &checked).unwrap_or_else(|e| panic!("calu {m}x{n}: {e}"));
        let qr = try_caqr(a.clone(), &p).unwrap_or_else(|e| panic!("caqr {m}x{n}: {e}"));
        assert_eq!((qr.a.nrows(), qr.a.ncols(), qr.panels.len()), (m, n, 0));
        assert!(caqr_seq(a.clone(), &p).panels.is_empty());
        try_caqr_with(a, &p, &checked).unwrap_or_else(|e| panic!("caqr {m}x{n}: {e}"));
        let a32 = Matrix::<f32>::zeros(m, n);
        assert!(try_calu(a32.clone(), &p).expect("calu f32").pivots.ipiv.is_empty());
        assert!(try_caqr(a32, &p).expect("caqr f32").panels.is_empty());
    }
}

#[test]
fn single_column_and_single_row() {
    let col = random_uniform(50, 1, &mut seeded_rng(1));
    let f = calu(col.clone(), &CaParams::new(1, 4, 2));
    assert!(f.residual(&col) < 1e-13);
    let qr = caqr(col.clone(), &CaParams::new(1, 4, 2));
    assert!(qr.residual(&col) < 1e-13);

    let row = random_uniform(1, 50, &mut seeded_rng(2));
    let f = calu(row.clone(), &CaParams::new(8, 4, 2));
    assert!(f.residual(&row) < 1e-13);
}

#[test]
fn zero_matrix_lu_flags_breakdown_qr_gives_zero_r() {
    let z = Matrix::zeros(20, 8);
    let f = calu(z.clone(), &CaParams::new(4, 2, 2));
    assert_eq!(f.breakdown, Some(0));
    let qr = caqr(z, &CaParams::new(4, 2, 2));
    assert_eq!(norm_max(qr.r().view()), 0.0);
    // Q of a zero matrix is still orthonormal (identity-embedded).
    assert!(qr.orthogonality() < 1e-12);
}

#[test]
fn rank_deficient_tall_matrix_qr_has_tiny_trailing_r() {
    // rank 3 matrix, 6 columns: R[3.., 3..] must vanish.
    let m = 80;
    let mut rng = seeded_rng(3);
    let u = random_uniform(m, 3, &mut rng);
    let v = random_uniform(6, 3, &mut rng);
    let a = u.matmul(&v.transpose());
    let qr = caqr(a.clone(), &CaParams::new(3, 4, 2));
    let r = qr.r();
    for i in 3..6 {
        for j in i..6 {
            assert!(r[(i, j)].abs() < 1e-10, "R[{i},{j}] = {}", r[(i, j)]);
        }
    }
    assert!(qr.residual(&a) < 1e-12);
}

#[test]
fn duplicate_rows_tournament_still_factors() {
    // Every leaf sees duplicated rows: candidates collide but the winner
    // must still be a valid pivot set.
    let m = 64;
    let n = 8;
    let mut a = random_uniform(m, n, &mut seeded_rng(4));
    for i in (1..m).step_by(2) {
        for j in 0..n {
            let v = a[(i - 1, j)];
            a[(i, j)] = v;
        }
    }
    let f = calu(a.clone(), &CaParams::new(4, 8, 2));
    assert!(f.residual(&a) < 1e-12);
}

#[test]
fn huge_tr_and_tiny_matrix() {
    // Tr far larger than the number of blocks: groups collapse gracefully.
    let a = random_uniform(12, 5, &mut seeded_rng(5));
    let f = calu(a.clone(), &CaParams::new(3, 64, 8));
    assert!(f.residual(&a) < 1e-13);
    let qr = caqr(a.clone(), &CaParams::new(3, 64, 8));
    assert!(qr.residual(&a) < 1e-12);
}

#[test]
fn extreme_value_scales_survive() {
    // Entries spanning ~1e±150: pivoting must keep everything finite.
    let n = 24;
    let mut a = random_uniform(n, n, &mut seeded_rng(6));
    for i in 0..n {
        let s = if i % 2 == 0 { 1e150 } else { 1e-150 };
        for j in 0..n {
            a[(i, j)] *= s;
        }
    }
    let f = calu(a.clone(), &CaParams::new(6, 4, 2));
    assert!(f.lu.as_slice().iter().all(|x| x.is_finite()));
    // Residual relative to the (huge) norm of A stays at roundoff.
    assert!(f.residual(&a) < 1e-12);
}

#[test]
fn kahan_matrix_factors_with_small_residual() {
    let a = ca_factor::matrix::kahan(60, 1.2);
    let f = calu(a.clone(), &CaParams::new(10, 4, 2));
    assert!(f.residual(&a) < 1e-12);
    let qr = caqr(a.clone(), &CaParams::new(10, 4, 2));
    assert!(qr.residual(&a) < 1e-11);
}

#[test]
fn b_larger_than_matrix() {
    let a = random_uniform(30, 30, &mut seeded_rng(7));
    let f = calu(a.clone(), &CaParams::new(1000, 4, 2));
    assert!(f.residual(&a) < 1e-13);
}

#[test]
fn more_threads_than_tasks() {
    let a = random_uniform(16, 16, &mut seeded_rng(8));
    let f = calu(a.clone(), &CaParams::new(16, 1, 32));
    assert!(f.residual(&a) < 1e-13);
}

// --- Register-blocking residue classes ------------------------------------
//
// The packed GEMM path tiles C into MR × NR register blocks; partial tiles
// on the right/bottom rim go through a separate zero-padded edge kernel.
// Walk every (m mod MR, n mod NR) residue class so each rim shape is hit
// both directly and through a full factorization's trailing updates.

#[test]
fn gemm_every_register_residue_class() {
    use ca_factor::kernels::{gemm, Trans, MR, NR};
    for mr in 0..MR {
        for nr in 0..NR {
            let (m, n, k) = (MR + mr, NR + nr, 7);
            let mut rng = seeded_rng((mr * NR + nr) as u64);
            let a = random_uniform(m, k, &mut rng);
            let b = random_uniform(k, n, &mut rng);
            let c0 = random_uniform(m, n, &mut rng);
            let mut c = c0.clone();
            gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view_mut());
            for j in 0..n {
                for i in 0..m {
                    let mut want = c0[(i, j)];
                    for p in 0..k {
                        want += a[(i, p)] * b[(p, j)];
                    }
                    assert!(
                        (c[(i, j)] - want).abs() < 1e-13,
                        "residue ({mr},{nr}) at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn factorizations_across_register_residue_classes() {
    // CALU/CAQR with trailing-update widths sweeping the MR/NR residues:
    // n = 3b + r keeps the last panel and every update rim partial.
    use ca_factor::kernels::{MR, NR};
    for r in 0..MR.max(NR) {
        let (m, n) = (3 * MR + r, 2 * MR + r);
        let a = random_uniform(m, n, &mut seeded_rng(100 + r as u64));
        let p = CaParams::new(MR - 1, 2, 2);
        let f = calu(a.clone(), &p);
        assert!(f.residual(&a) < 1e-12, "CALU residue {r}");
        let qr = caqr(a.clone(), &p);
        assert!(qr.residual(&a) < 1e-12, "CAQR residue {r}");
    }
}

#[test]
fn residue_classes_under_checked_executor() {
    // The PR-3 checked executor (static DAG verification + shadow lease
    // registry) must accept the same rim shapes: an out-of-footprint write
    // by an edge kernel would surface here as a lease violation.
    use ca_factor::core::{try_calu_with, try_caqr_with, FactorOptions};
    use ca_factor::kernels::{MR, NR};
    for r in [0, 1, MR - 1, NR - 1] {
        let (m, n) = (3 * MR + r, 2 * MR + r);
        let a = random_uniform(m, n, &mut seeded_rng(200 + r as u64));
        let p = CaParams::new(MR - 1, 2, 2);
        let checked = FactorOptions { checked: true, ..Default::default() };
        let (f, _) = try_calu_with(a.clone(), &p, &checked).expect("checked CALU");
        assert!(f.residual(&a) < 1e-12, "checked CALU residue {r}");
        let (qr, _) = try_caqr_with(a.clone(), &p, &checked).expect("checked CAQR");
        assert!(qr.residual(&a) < 1e-12, "checked CAQR residue {r}");
    }
}

//! Property-based tests of the kernel layer against naive references:
//! `gemm` in all transpose combinations on strided views, triangular-solve
//! round-trips, Householder QR invariants, and LU reconstruction.

use ca_kernels::{gemm, geqr2, geqr3, getf2, larft, rgetf2, Trans};
use ca_matrix::{norm_max, seeded_rng, Matrix};
use proptest::prelude::*;

fn reference_gemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &Matrix,
) -> Matrix {
    let oa = match ta {
        Trans::No => a.clone(),
        Trans::Yes => a.transpose(),
    };
    let ob = match tb {
        Trans::No => b.clone(),
        Trans::Yes => b.transpose(),
    };
    let ab = oa.matmul(&ob);
    Matrix::from_fn(c.nrows(), c.ncols(), |i, j| beta * c[(i, j)] + alpha * ab[(i, j)])
}

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::No), Just(Trans::Yes)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_matches_reference(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in trans_strategy(),
        tb in trans_strategy(),
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed);
        let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = ca_matrix::random_uniform(ar, ac, &mut rng);
        let b = ca_matrix::random_uniform(br, bc, &mut rng);
        let c0 = ca_matrix::random_uniform(m, n, &mut rng);
        let expect = reference_gemm(ta, tb, alpha, &a, &b, beta, &c0);
        let mut c = c0.clone();
        gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view_mut());
        let err = norm_max(c.sub_matrix(&expect).view());
        prop_assert!(err < 1e-11 * (k as f64 + 1.0), "err {}", err);
    }

    #[test]
    fn gemm_on_interior_strided_views(
        mo in 1usize..6,
        no in 1usize..6,
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..16,
        seed in 0u64..500,
    ) {
        // Multiply interior blocks of larger matrices (ld != rows) and check
        // surrounding data is untouched.
        let mut rng = seeded_rng(seed);
        let big_a = ca_matrix::random_uniform(mo + m + 2, k + 3, &mut rng);
        let big_b = ca_matrix::random_uniform(k + 1, no + n + 2, &mut rng);
        let mut big_c = ca_matrix::random_uniform(mo + m + 3, no + n + 1, &mut rng);
        let sentinel = big_c.clone();

        let a_own = Matrix::from_fn(m, k, |i, j| big_a[(mo + i, 1 + j)]);
        let b_own = Matrix::from_fn(k, n, |i, j| big_b[(1 + i, no + j)]);
        let c_own = Matrix::from_fn(m, n, |i, j| big_c[(mo + i, no + j)]);
        let expect = reference_gemm(Trans::No, Trans::No, 1.0, &a_own, &b_own, 1.0, &c_own);

        gemm(
            Trans::No,
            Trans::No,
            1.0,
            big_a.block(mo, 1, m, k),
            big_b.block(1, no, k, n),
            1.0,
            big_c.block_mut(mo, no, m, n),
        );
        for i in 0..m {
            for j in 0..n {
                prop_assert!((big_c[(mo + i, no + j)] - expect[(i, j)]).abs() < 1e-11);
            }
        }
        // Border untouched.
        for j in 0..big_c.ncols() {
            prop_assert_eq!(big_c[(0, j)], sentinel[(0, j)]);
            prop_assert_eq!(big_c[(big_c.nrows() - 1, j)], sentinel[(big_c.nrows() - 1, j)]);
        }
    }

    #[test]
    fn lu_kernels_agree_and_reconstruct(
        m in 1usize..48,
        n in 1usize..32,
        seed in 0u64..500,
    ) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let i1 = getf2(a1.view_mut());
        let i2 = rgetf2(a2.view_mut());
        prop_assert_eq!(&i1.pivots.ipiv, &i2.pivots.ipiv);
        let err = norm_max(a1.sub_matrix(&a2).view());
        prop_assert!(err < 1e-11, "blas2 vs recursive differ by {}", err);
        let perm = i1.pivots.to_permutation(m);
        let res = ca_matrix::lu_residual(&a0, &perm, &a1.unit_lower(), &a1.upper());
        prop_assert!(res < 1e-11, "residual {}", res);
    }

    #[test]
    fn qr_kernels_agree_on_abs_r(
        m in 1usize..48,
        nf in 0.05f64..1.0,
        seed in 0u64..500,
    ) {
        let n = ((m as f64 * nf) as usize).max(1);
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut a2 = a0.clone();
        let mut tau = Vec::new();
        geqr2(a2.view_mut(), &mut tau);
        if m >= n {
            let mut a3 = a0.clone();
            let mut t = Matrix::zeros(n, n);
            geqr3(a3.view_mut(), t.view_mut());
            for i in 0..n {
                for j in i..n {
                    let d = (a3[(i, j)].abs() - a2[(i, j)].abs()).abs();
                    prop_assert!(d < 1e-10 * (1.0 + a2[(i, j)].abs()), "R mismatch at ({},{})", i, j);
                }
            }
        }
        // |R| diagonal equals column norms of a Gram–Schmidt-like process:
        // first diagonal entry is the first column's norm.
        let col0: f64 = (0..m).map(|i| a0[(i, 0)] * a0[(i, 0)]).sum::<f64>().sqrt();
        prop_assert!((a2[(0, 0)].abs() - col0).abs() < 1e-10 * (1.0 + col0));
    }

    #[test]
    fn larft_t_is_consistent_with_reflector_product(
        m in 2usize..24,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let k = k.min(m);
        let a0 = ca_matrix::random_uniform(m, k, &mut seeded_rng(seed));
        let mut a = a0.clone();
        let mut tau = Vec::new();
        geqr2(a.view_mut(), &mut tau);
        let mut t = Matrix::zeros(k, k);
        larft(a.block(0, 0, m, k), &tau, t.view_mut());
        // Q from (V, T) must be orthogonal and reproduce A = Q R.
        let q = ca_kernels::form_q_thin(a.block(0, 0, m, k), t.view());
        prop_assert!(ca_matrix::orthogonality(&q) < 1e-11 * m as f64);
        let r = Matrix::from_fn(k, k, |i, j| if i <= j { a[(i, j)] } else { 0.0 });
        let a_k = Matrix::from_fn(m, k, |i, j| a0[(i, j)]);
        let res = ca_matrix::qr_residual(&a_k, &q, &r);
        prop_assert!(res < 1e-11 * m as f64, "residual {}", res);
    }
}

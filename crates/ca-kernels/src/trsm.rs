//! Triangular solves with multiple right-hand sides (`dtrsm` equivalents).
//!
//! Only the variants the factorizations need are implemented, as standalone
//! functions with self-describing names rather than a flag-driven monolith.
//!
//! The two hot variants (`trsm_right_upper_notrans` — Task L of CALU — and
//! `trsm_left_lower_unit` — the `U₁₂` block row) are blocked: the triangle
//! is carved into `TRSM_NB`-wide diagonal blocks solved by the scalar base
//! case, and everything off-diagonal becomes a rank-`TRSM_NB` [`gemm`]
//! update, so the bulk of the arithmetic runs on the packed BLIS-style
//! GEMM path.

use crate::gemm::{gemm, Kernel, Trans};
use ca_matrix::{MatView, MatViewMut, Scalar};

/// Diagonal-block order below which the scalar base-case solver runs.
const TRSM_NB: usize = 64;

/// `B := B * U⁻¹` with `U` upper triangular, non-unit diagonal
/// (`dtrsm('R','U','N','N')`).
///
/// This is Task L of multithreaded CALU: `L₂₁ = A₂₁ U₁₁⁻¹`.
///
/// Follows BLAS semantics on singular triangles: a zero diagonal entry
/// produces `inf`/`NaN` in the output rather than a panic (factorizations
/// report breakdown separately, like LAPACK `info`).
///
/// # Panics
/// If `U` is not square or its order differs from `B`'s column count.
pub fn trsm_right_upper_notrans<T: Kernel>(u: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n, "U must be square");
    assert_eq!(b.ncols(), n, "B column count must equal order of U");
    let mut j0 = 0;
    while j0 < n {
        let w = TRSM_NB.min(n - j0);
        if j0 > 0 {
            // B[:, j0..j0+w] -= B[:, 0..j0] · U[0..j0, j0..j0+w]
            let m = b.nrows();
            let (solved, rest) = b.rb().split_at_col(j0);
            gemm(
                Trans::No,
                Trans::No,
                -T::ONE,
                solved.as_ref(),
                u.sub(0, j0, j0, w),
                T::ONE,
                rest.into_sub(0, 0, m, w),
            );
        }
        trsm_right_upper_notrans_base(u.sub(j0, j0, w, w), b.sub(0, j0, b.nrows(), w));
        j0 += w;
    }
}

/// Scalar base case of [`trsm_right_upper_notrans`] (one diagonal block).
fn trsm_right_upper_notrans_base<T: Scalar>(u: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let n = u.nrows();
    let m = b.nrows();
    for j in 0..n {
        // B[:, j] -= sum_{k<j} B[:, k] * U[k, j]
        let u_col = u.col(j);
        for (k, &x) in u_col.iter().enumerate().take(j) {
            if x != T::ZERO {
                // Split borrow: copy the already-solved column k scale into j.
                let (bk_ptr, bj) = {
                    let bk = b.col(k).as_ptr();
                    (bk, b.col_mut(j))
                };
                // SAFETY: columns k and j are disjoint (k < j).
                let bk = unsafe { core::slice::from_raw_parts(bk_ptr, m) };
                for i in 0..m {
                    bj[i] -= x * bk[i];
                }
            }
        }
        let inv = T::ONE / u_col[j];
        for x in b.col_mut(j) {
            *x *= inv;
        }
    }
}

/// `B := L⁻¹ * B` with `L` lower triangular, unit diagonal
/// (`dtrsm('L','L','N','U')`).
///
/// This computes the `U` block row in LU: `U₁₂ = L₁₁⁻¹ A₁₂`.
pub fn trsm_left_lower_unit<T: Kernel>(l: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = l.nrows();
    assert_eq!(l.ncols(), m, "L must be square");
    assert_eq!(b.nrows(), m, "B row count must equal order of L");
    let n = b.ncols();
    let mut k0 = 0;
    while k0 < m {
        let w = TRSM_NB.min(m - k0);
        trsm_left_lower_unit_base(l.sub(k0, k0, w, w), b.sub(k0, 0, w, n));
        if k0 + w < m {
            // B[k0+w.., :] -= L[k0+w.., k0..k0+w] · B[k0..k0+w, :]
            let (top, below) = b.rb().split_at_row(k0 + w);
            gemm(
                Trans::No,
                Trans::No,
                -T::ONE,
                l.sub(k0 + w, k0, m - k0 - w, w),
                top.as_ref().sub(k0, 0, w, n),
                T::ONE,
                below,
            );
        }
        k0 += w;
    }
}

/// Scalar base case of [`trsm_left_lower_unit`] (one diagonal block).
fn trsm_left_lower_unit_base<T: Scalar>(l: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = l.nrows();
    let n = b.ncols();
    for j in 0..n {
        let bj = b.col_mut(j);
        for k in 0..m {
            let x = bj[k];
            if x != T::ZERO {
                let l_col = l.col(k);
                for i in k + 1..m {
                    bj[i] -= x * l_col[i];
                }
            }
        }
    }
}

/// `B := U⁻¹ * B` with `U` upper triangular, non-unit diagonal
/// (`dtrsm('L','U','N','N')`) — back substitution for solvers. BLAS
/// semantics on singular triangles (zero diagonal yields `inf`/`NaN`).
pub fn trsm_left_upper_notrans<T: Scalar>(u: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = u.nrows();
    assert_eq!(u.ncols(), m, "U must be square");
    assert_eq!(b.nrows(), m, "B row count must equal order of U");
    let n = b.ncols();
    for j in 0..n {
        let bj = b.col_mut(j);
        for k in (0..m).rev() {
            let x = bj[k] / u.at(k, k);
            bj[k] = x;
            if x != T::ZERO {
                let u_col = u.col(k);
                for i in 0..k {
                    bj[i] -= x * u_col[i];
                }
            }
        }
    }
}

/// `B := U⁻ᵀ * B` with `U` upper triangular, non-unit diagonal
/// (`dtrsm('L','U','T','N')`) — forward substitution with `Uᵀ`, used for
/// transpose solves `AᵀX = B` from an LU factorization. BLAS semantics on
/// singular triangles.
pub fn trsm_left_upper_trans<T: Scalar>(u: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = u.nrows();
    assert_eq!(u.ncols(), m, "U must be square");
    assert_eq!(b.nrows(), m, "B row count must equal order of U");
    let n = b.ncols();
    for j in 0..n {
        let bj = b.col_mut(j);
        // Uᵀ is lower triangular: forward substitution; (Uᵀ)[i][k] = U[k][i].
        for k in 0..m {
            let u_col = u.col(k);
            let mut s = bj[k];
            for i in 0..k {
                s -= u_col[i] * bj[i];
            }
            bj[k] = s / u_col[k];
        }
    }
}

/// `B := L⁻ᵀ * B` with `L` lower triangular, unit diagonal
/// (`dtrsm('L','L','T','U')`) — used when solving `AᵀX = B` from an LU
/// factorization.
pub fn trsm_left_lower_trans_unit<T: Scalar>(l: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = l.nrows();
    assert_eq!(l.ncols(), m, "L must be square");
    assert_eq!(b.nrows(), m, "B row count must equal order of L");
    let n = b.ncols();
    for j in 0..n {
        let bj = b.col_mut(j);
        // Lᵀ is upper triangular with unit diagonal: back substitution.
        for k in (0..m).rev() {
            let l_col = l.col(k);
            let mut s = bj[k];
            for i in k + 1..m {
                s -= l_col[i] * bj[i];
            }
            bj[k] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, Matrix};

    fn random_upper(n: usize, seed: u64) -> Matrix {
        let mut rng = ca_matrix::seeded_rng(seed);
        let mut u = ca_matrix::random_uniform(n, n, &mut rng);
        for i in 0..n {
            for j in 0..i {
                u[(i, j)] = 0.0;
            }
            u[(i, i)] = 2.0 + u[(i, i)].abs(); // well away from zero
        }
        u
    }

    fn random_unit_lower(n: usize, seed: u64) -> Matrix {
        let mut rng = ca_matrix::seeded_rng(seed);
        let mut l = ca_matrix::random_uniform(n, n, &mut rng);
        for i in 0..n {
            for j in i..n {
                l[(i, j)] = if i == j { 1.0 } else { 0.0 };
            }
        }
        l
    }

    #[test]
    fn right_upper_solves_xu_eq_b() {
        let n = 7;
        let m = 11;
        let u = random_upper(n, 1);
        let x_true = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(2));
        let b = x_true.matmul(&u);
        let mut x = b.clone();
        trsm_right_upper_notrans(u.view(), x.view_mut());
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn left_lower_unit_solves_lx_eq_b() {
        let m = 9;
        let n = 4;
        let l = random_unit_lower(m, 3);
        let x_true = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(4));
        let b = l.matmul(&x_true);
        let mut x = b.clone();
        trsm_left_lower_unit(l.view(), x.view_mut());
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn left_upper_solves_ux_eq_b() {
        let m = 8;
        let n = 3;
        let u = random_upper(m, 5);
        let x_true = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(6));
        let b = u.matmul(&x_true);
        let mut x = b.clone();
        trsm_left_upper_notrans(u.view(), x.view_mut());
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn left_upper_trans_solves_ut_x_eq_b() {
        let m = 7;
        let u = random_upper(m, 12);
        let x_true = ca_matrix::random_uniform(m, 3, &mut ca_matrix::seeded_rng(13));
        let b = u.transpose().matmul(&x_true);
        let mut x = b.clone();
        trsm_left_upper_trans(u.view(), x.view_mut());
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn left_lower_trans_solves_lt_x_eq_b() {
        let m = 6;
        let l = random_unit_lower(m, 7);
        let x_true = ca_matrix::random_uniform(m, 2, &mut ca_matrix::seeded_rng(8));
        let b = l.transpose().matmul(&x_true);
        let mut x = b.clone();
        trsm_left_lower_trans_unit(l.view(), x.view_mut());
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn one_by_one_and_empty() {
        let u = Matrix::from_rows(1, 1, &[4.0]);
        let mut b = Matrix::from_rows(3, 1, &[4.0, 8.0, 12.0]);
        trsm_right_upper_notrans(u.view(), b.view_mut());
        assert_eq!(b, Matrix::from_rows(3, 1, &[1.0, 2.0, 3.0]));

        let u0: Matrix = Matrix::zeros(0, 0);
        let mut b0: Matrix = Matrix::zeros(5, 0);
        trsm_right_upper_notrans(u0.view(), b0.view_mut());
        let mut b1 = Matrix::zeros(0, 3);
        trsm_left_lower_unit(u0.view(), b1.view_mut());
    }

    #[test]
    fn zero_diagonal_yields_non_finite_blas_style() {
        let mut u = random_upper(3, 9);
        u[(1, 1)] = 0.0;
        let mut b = Matrix::zeros(2, 3);
        b.view_mut().fill(1.0);
        trsm_right_upper_notrans(u.view(), b.view_mut());
        assert!(b.as_slice().iter().any(|x| !x.is_finite()));
    }

    #[test]
    fn right_upper_blocked_crosses_nb_boundary() {
        // Orders straddling TRSM_NB exercise the gemm off-diagonal update.
        for &n in &[TRSM_NB - 1, TRSM_NB, TRSM_NB + 1, 2 * TRSM_NB + 5] {
            let u = random_upper(n, 21);
            let x_true = ca_matrix::random_uniform(33, n, &mut ca_matrix::seeded_rng(22));
            let b = x_true.matmul(&u);
            let mut x = b.clone();
            trsm_right_upper_notrans(u.view(), x.view_mut());
            let err = norm_max(x.sub_matrix(&x_true).view());
            assert!(err < 1e-10 * n as f64, "n={n} err {err}");
        }
    }

    #[test]
    fn left_lower_blocked_crosses_nb_boundary() {
        for &m in &[TRSM_NB - 1, TRSM_NB, TRSM_NB + 1, 2 * TRSM_NB + 5] {
            let l = random_unit_lower(m, 23);
            let x_true = ca_matrix::random_uniform(m, 7, &mut ca_matrix::seeded_rng(24));
            let b = l.matmul(&x_true);
            let mut x = b.clone();
            trsm_left_lower_unit(l.view(), x.view_mut());
            let err = norm_max(x.sub_matrix(&x_true).view());
            assert!(err < 1e-10 * m as f64, "m={m} err {err}");
        }
    }

    #[test]
    fn f32_right_upper_solves_xu_eq_b() {
        let n = TRSM_NB + 3; // cross the blocked/gemm boundary in f32 too
        let u64m = random_upper(n, 31);
        let x64 = ca_matrix::random_uniform(9, n, &mut ca_matrix::seeded_rng(32));
        let u: Matrix<f32> = Matrix::from_f64(&u64m);
        let x_true: Matrix<f32> = Matrix::from_f64(&x64);
        let b = x_true.to_f64().matmul(&u.to_f64());
        let mut x: Matrix<f32> = Matrix::from_f64(&b);
        trsm_right_upper_notrans(u.view(), x.view_mut());
        let err = norm_max(x.to_f64().sub_matrix(&x_true.to_f64()).view());
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn works_on_strided_views() {
        let n = 4;
        let u = random_upper(n, 10);
        let x_true = ca_matrix::random_uniform(5, n, &mut ca_matrix::seeded_rng(11));
        let b = x_true.matmul(&u);
        let mut big = Matrix::zeros(9, 8);
        big.block_mut(2, 3, 5, n).copy_from(b.view());
        trsm_right_upper_notrans(u.view(), big.block_mut(2, 3, 5, n));
        for i in 0..5 {
            for j in 0..n {
                assert!((big[(2 + i, 3 + j)] - x_true[(i, j)]).abs() < 1e-12);
            }
        }
    }
}

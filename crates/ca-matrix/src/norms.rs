//! Matrix norms and the residual measures used to validate factorizations.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatView;

/// Frobenius norm `sqrt(sum a_ij^2)`.
pub fn norm_fro(a: MatView<'_>) -> f64 {
    let mut s = 0.0;
    for j in 0..a.ncols() {
        for &x in a.col(j) {
            s += x * x;
        }
    }
    s.sqrt()
}

/// One-norm: maximum absolute column sum.
pub fn norm_one(a: MatView<'_>) -> f64 {
    let mut m = 0.0f64;
    for j in 0..a.ncols() {
        let s: f64 = a.col(j).iter().map(|x| x.abs()).sum();
        m = m.max(s);
    }
    m
}

/// Infinity-norm: maximum absolute row sum, accumulated in `f64`.
pub fn norm_inf<T: Scalar>(a: MatView<'_, T>) -> f64 {
    let mut sums = vec![0.0f64; a.nrows()];
    for j in 0..a.ncols() {
        for (i, &x) in a.col(j).iter().enumerate() {
            sums[i] += x.to_f64().abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// Max-norm: largest absolute entry.
pub fn norm_max(a: MatView<'_>) -> f64 {
    a.max_abs()
}

/// Relative LU residual `‖P·A − L·U‖_F / ‖A‖_F`.
///
/// `perm[i]` gives the original row of `A` that the factorization moved to
/// position `i`; `l` is `m × k` unit-lower, `u` is `k × n` upper.
pub fn lu_residual(a: &Matrix, perm: &[usize], l: &Matrix, u: &Matrix) -> f64 {
    assert_eq!(perm.len(), a.nrows());
    let lu = l.matmul(u);
    let mut pa = Matrix::zeros(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            pa[(i, j)] = a[(perm[i], j)];
        }
    }
    let diff = pa.sub_matrix(&lu);
    let na = norm_fro(a.view());
    if na == 0.0 {
        norm_fro(diff.view())
    } else {
        norm_fro(diff.view()) / na
    }
}

/// Relative QR residual `‖A − Q·R‖_F / ‖A‖_F`.
pub fn qr_residual(a: &Matrix, q: &Matrix, r: &Matrix) -> f64 {
    let qr = q.matmul(r);
    let diff = a.sub_matrix(&qr);
    let na = norm_fro(a.view());
    if na == 0.0 {
        norm_fro(diff.view())
    } else {
        norm_fro(diff.view()) / na
    }
}

/// Orthogonality measure `‖I − QᵀQ‖_F`.
pub fn orthogonality(q: &Matrix) -> f64 {
    let qtq = q.transpose().matmul(q);
    let n = qtq.nrows();
    let diff = qtq.sub_matrix(&Matrix::identity(n));
    norm_fro(diff.view())
}

/// Element growth factor `max_ij |U_ij| / max_ij |A_ij|` — the classic
/// stability diagnostic for Gaussian elimination (Trefethen & Schreiber).
pub fn growth_factor(a: &Matrix, u: &Matrix) -> f64 {
    let ma = norm_max(a.view());
    if ma == 0.0 {
        return 0.0;
    }
    norm_max(u.view()) / ma
}

/// A residual threshold of `tol * eps * max(m, n)` — the usual LAPACK-style
/// acceptance test scale for an `m × n` problem — at `f64`'s `eps`.
pub fn residual_threshold(m: usize, n: usize, tol: f64) -> f64 {
    residual_threshold_in::<f64>(m, n, tol)
}

/// [`residual_threshold`] at the `eps` of `T`, the working precision.
pub fn residual_threshold_in<T: Scalar>(m: usize, n: usize, tol: f64) -> f64 {
    tol * T::EPSILON.to_f64() * (m.max(n) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_matrix() {
        // [[1, -2], [3, 4]]
        let a = Matrix::from_rows(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert!((norm_fro(a.view()) - (30.0f64).sqrt()).abs() < 1e-15);
        assert_eq!(norm_one(a.view()), 6.0); // col sums: 4, 6
        assert_eq!(norm_inf(a.view()), 7.0); // row sums: 3, 7
        assert_eq!(norm_max(a.view()), 4.0);
    }

    #[test]
    fn norms_of_empty_matrix_are_zero() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(norm_fro(a.view()), 0.0);
        assert_eq!(norm_one(a.view()), 0.0);
        assert_eq!(norm_inf(a.view()), 0.0);
    }

    #[test]
    fn exact_lu_has_zero_residual() {
        // A = L*U with trivial permutation.
        let l = Matrix::from_rows(2, 2, &[1.0, 0.0, 0.5, 1.0]);
        let u = Matrix::from_rows(2, 2, &[4.0, 2.0, 0.0, 3.0]);
        let a = l.matmul(&u);
        let perm = vec![0, 1];
        assert!(lu_residual(&a, &perm, &l, &u) < 1e-15);
    }

    #[test]
    fn permuted_lu_residual_uses_perm() {
        let l = Matrix::from_rows(2, 2, &[1.0, 0.0, 0.5, 1.0]);
        let u = Matrix::from_rows(2, 2, &[4.0, 2.0, 0.0, 3.0]);
        let pa = l.matmul(&u);
        // A is pa with rows swapped; perm = [1, 0] maps back.
        let a = Matrix::from_rows(2, 2, &[pa[(1, 0)], pa[(1, 1)], pa[(0, 0)], pa[(0, 1)]]);
        assert!(lu_residual(&a, &[1, 0], &l, &u) < 1e-15);
        assert!(lu_residual(&a, &[0, 1], &l, &u) > 0.1);
    }

    #[test]
    fn identity_is_orthogonal() {
        let q = Matrix::identity(5);
        assert!(orthogonality(&q) < 1e-15);
        let mut q2 = Matrix::identity(5);
        q2[(0, 0)] = 2.0;
        assert!(orthogonality(&q2) > 1.0);
    }

    #[test]
    fn growth_factor_of_no_growth_is_at_most_one() {
        let a = Matrix::from_rows(2, 2, &[4.0, 2.0, 0.0, 3.0]);
        // U == A here.
        assert_eq!(growth_factor(&a, &a), 1.0);
    }
}

//! Solver companions to the factorizations: transpose solves, iterative
//! refinement, 1-norm condition estimation (the classic LAPACK
//! `dgetrs`/`dgerfs`/`dgecon` trio, built on [`LuFactors`]), and the
//! fallible least-squares solve on [`QrFactors`].

use crate::calu::LuFactors;
use crate::caqr::QrFactors;
use crate::error::{require_finite, FactorError};
use ca_kernels::{
    trsm_left_lower_trans_unit, trsm_left_lower_unit, trsm_left_upper_notrans,
    trsm_left_upper_trans,
};
use ca_matrix::{norm_inf, norm_one, Matrix};

/// Outcome of iterative refinement.
#[derive(Clone, Debug)]
pub struct RefineInfo {
    /// Refinement steps actually taken.
    pub iterations: usize,
    /// Relative ∞-norm residual `‖b − A·x‖ / (‖A‖·‖x‖ + ‖b‖)` after the
    /// final step, per RHS column (max over columns).
    pub final_backward_error: f64,
    /// Whether refinement converged (error stopped improving or reached
    /// roundoff level).
    pub converged: bool,
}

impl LuFactors {
    /// Fallible solve: refuses factors with a recorded pivot breakdown
    /// (their `U` contains an exact zero on the diagonal, so the triangular
    /// solves would produce Inf/NaN) and right-hand sides with non-finite
    /// entries, instead of silently returning a poisoned solution.
    pub fn try_solve(&self, rhs: &Matrix) -> Result<Matrix, FactorError> {
        if let Some(col) = self.breakdown {
            return Err(FactorError::ZeroPivot { col });
        }
        require_finite(rhs)?;
        Ok(self.solve(rhs))
    }

    /// Solves `Aᵀ·X = rhs` in place (square `A`): from `ΠA = LU`,
    /// `Aᵀ = Uᵀ Lᵀ Π`, so `x = Πᵀ L⁻ᵀ U⁻ᵀ rhs`.
    pub fn solve_transposed_in_place(&self, rhs: &mut Matrix) {
        let n = self.lu.nrows();
        assert_eq!(self.lu.ncols(), n, "transpose solve requires square A");
        assert_eq!(rhs.nrows(), n, "rhs row count mismatch");
        trsm_left_upper_trans(self.lu.view(), rhs.view_mut());
        trsm_left_lower_trans_unit(self.lu.view(), rhs.view_mut());
        self.pivots.apply_inverse(rhs.view_mut());
    }

    /// Convenience wrapper returning the transpose-solve solution.
    pub fn solve_transposed(&self, rhs: &Matrix) -> Matrix {
        let mut x = rhs.clone();
        self.solve_transposed_in_place(&mut x);
        x
    }

    /// Solves `A·X = rhs` with fixed-precision iterative refinement
    /// (`dgerfs`-style): after the direct solve, repeatedly computes the
    /// true residual against the *original* matrix `a0` and solves a
    /// correction, until the componentwise backward error stops improving
    /// or `max_iter` is reached.
    pub fn solve_refined(
        &self,
        a0: &Matrix,
        rhs: &Matrix,
        max_iter: usize,
    ) -> (Matrix, RefineInfo) {
        let n = self.lu.nrows();
        assert_eq!(a0.nrows(), n, "a0 shape mismatch");
        assert_eq!(a0.ncols(), n, "a0 shape mismatch");
        let mut x = self.solve(rhs);
        let anorm = norm_inf(a0.view());
        let bnorm = norm_inf(rhs.view());

        let backward = |x: &Matrix| -> (Matrix, f64) {
            // r = rhs − A·x
            let ax = a0.matmul(x);
            let r = rhs.sub_matrix(&ax);
            let scale = anorm * norm_inf(x.view()) + bnorm;
            let be = if scale == 0.0 { 0.0 } else { norm_inf(r.view()) / scale };
            (r, be)
        };

        let (mut r, mut be) = backward(&x);
        let mut iterations = 0;
        let mut converged = be <= f64::EPSILON * (n as f64);
        while iterations < max_iter && !converged {
            let dx = self.solve(&r);
            let x_new = Matrix::from_fn(n, x.ncols(), |i, j| x[(i, j)] + dx[(i, j)]);
            let (r_new, be_new) = backward(&x_new);
            iterations += 1;
            if be_new < be * 0.5 {
                x = x_new;
                r = r_new;
                be = be_new;
            } else {
                // No meaningful progress: accept the better iterate and stop.
                if be_new < be {
                    x = x_new;
                    be = be_new;
                }
                converged = true;
                break;
            }
            if be <= f64::EPSILON * (n as f64) {
                converged = true;
            }
        }
        let _ = r;
        (x, RefineInfo { iterations, final_backward_error: be, converged })
    }

    /// Estimates the reciprocal 1-norm condition number
    /// `rcond = 1 / (‖A‖₁ · ‖A⁻¹‖₁)` using Hager's method (as LAPACK
    /// `dgecon` does), with `anorm1 = ‖A‖₁` of the original matrix.
    ///
    /// Returns a value in `[0, 1]`; `0` signals a singular factorization.
    pub fn rcond_estimate(&self, anorm1: f64) -> f64 {
        let n = self.lu.nrows();
        assert_eq!(self.lu.ncols(), n, "rcond requires square A");
        if self.breakdown.is_some() || anorm1 == 0.0 {
            return 0.0;
        }
        // Hager / Higham 1-norm estimator for ‖A⁻¹‖₁.
        let mut x = Matrix::from_fn(n, 1, |_, _| 1.0 / n as f64);
        let mut est = 0.0f64;
        let mut last_j = usize::MAX;
        for _ in 0..5 {
            // y = A⁻¹ x
            let y = self.solve(&x);
            est = norm_one(y.view());
            // ξ = sign(y); z = A⁻ᵀ ξ
            let xi = Matrix::from_fn(n, 1, |i, _| if y[(i, 0)] >= 0.0 { 1.0 } else { -1.0 });
            let z = self.solve_transposed(&xi);
            // Pick the most sensitive unit vector.
            let mut j = 0usize;
            for i in 1..n {
                if z[(i, 0)].abs() > z[(j, 0)].abs() {
                    j = i;
                }
            }
            let ztx: f64 = (0..n).map(|i| z[(i, 0)] * x[(i, 0)]).sum();
            if z[(j, 0)].abs() <= ztx.abs() || j == last_j {
                break;
            }
            last_j = j;
            x = Matrix::from_fn(n, 1, |i, _| if i == j { 1.0 } else { 0.0 });
        }
        if !est.is_finite() || est == 0.0 {
            return 0.0;
        }
        (1.0 / (anorm1 * est)).min(1.0)
    }
}

impl QrFactors {
    /// Fallible least-squares solve `x = argmin ‖A·x − rhs‖₂` via the
    /// implicit product `Qᵀ·rhs` followed by the triangular solve with `R`
    /// (`dgels`-style, full-column-rank `A`, `m ≥ n`).
    ///
    /// Unlike [`QrFactors::solve_ls`] this refuses right-hand sides with
    /// non-finite entries ([`FactorError::NonFiniteInput`]) and factors
    /// whose `R` has a zero (or non-finite) diagonal entry — i.e. a
    /// (numerically) rank-deficient `A` — as [`FactorError::ZeroPivot`],
    /// instead of silently returning a poisoned solution.
    pub fn try_solve_ls(&self, rhs: &Matrix) -> Result<Matrix, FactorError> {
        let m = self.a.nrows();
        let n = self.a.ncols();
        assert!(m >= n, "least squares needs a tall matrix");
        assert_eq!(rhs.nrows(), m, "rhs row mismatch");
        require_finite(rhs)?;
        for col in 0..n {
            let d = self.a[(col, col)];
            if d == 0.0 || !d.is_finite() {
                return Err(FactorError::ZeroPivot { col });
            }
        }
        Ok(self.solve_ls(rhs))
    }
}

/// Forward/backward substitution pair for a packed square LU without
/// pivoting (helper for callers holding raw packed factors).
pub fn lu_packed_solve_in_place(lu: &Matrix, rhs: &mut Matrix) {
    trsm_left_lower_unit(lu.view(), rhs.view_mut());
    trsm_left_upper_notrans(lu.view(), rhs.view_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu::calu_seq_factor;
    use crate::params::CaParams;
    use ca_matrix::{norm_max, seeded_rng};

    fn factor(n: usize, seed: u64) -> (Matrix, LuFactors) {
        let a = ca_matrix::random_uniform(n, n, &mut seeded_rng(seed));
        let f = calu_seq_factor(a.clone(), &CaParams::new(16, 4, 1));
        (a, f)
    }

    #[test]
    fn transpose_solve_recovers_solution() {
        let (a, f) = factor(40, 1);
        let x_true = ca_matrix::random_uniform(40, 2, &mut seeded_rng(2));
        let b = a.transpose().matmul(&x_true);
        let x = f.solve_transposed(&b);
        let err = norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn refinement_never_worsens_and_reports_small_backward_error() {
        let n = 60;
        // Ill-scaled system: graded rows stress the solve.
        let a = ca_matrix::graded_rows(n, n, 1.3, &mut seeded_rng(3));
        let f = calu_seq_factor(a.clone(), &CaParams::new(12, 4, 1));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(4));
        let b = a.matmul(&x_true);
        let x0 = f.solve(&b);
        let (x1, info) = f.solve_refined(&a, &b, 5);
        let be = |x: &Matrix| {
            let r = b.sub_matrix(&a.matmul(x));
            norm_inf(r.view()) / (norm_inf(a.view()) * norm_inf(x.view()) + norm_inf(b.view()))
        };
        assert!(be(&x1) <= be(&x0) * 1.01, "refinement worsened: {} vs {}", be(&x1), be(&x0));
        assert!(info.final_backward_error < 1e-13, "be {}", info.final_backward_error);
    }

    #[test]
    fn rcond_of_identity_is_near_one() {
        let n = 30;
        let a = Matrix::identity(n);
        let f = calu_seq_factor(a.clone(), &CaParams::new(8, 2, 1));
        let rc = f.rcond_estimate(norm_one(a.view()));
        assert!(rc > 0.9, "rcond {rc}");
    }

    #[test]
    fn rcond_detects_ill_conditioning() {
        let n = 40;
        // Hilbert-like matrix: severely ill-conditioned.
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64));
        let f = calu_seq_factor(a.clone(), &CaParams::new(8, 2, 1));
        let rc = f.rcond_estimate(norm_one(a.view()));
        assert!(rc < 1e-8, "Hilbert rcond {rc} should be tiny");

        let (aw, fw) = factor(40, 5);
        let rcw = fw.rcond_estimate(norm_one(aw.view()));
        assert!(rcw > 1e-6, "random matrix rcond {rcw} should be moderate");
        assert!(rcw > rc * 1e3);
    }

    #[test]
    fn rcond_zero_for_singular() {
        let n = 10;
        let mut a = ca_matrix::random_uniform(n, n, &mut seeded_rng(6));
        for i in 0..n {
            a[(i, 4)] = 0.0;
        }
        let anorm = norm_one(a.view());
        let f = calu_seq_factor(a, &CaParams::new(4, 2, 1));
        assert_eq!(f.rcond_estimate(anorm), 0.0);
    }

    #[test]
    fn rcond_tracks_true_inverse_norm_on_small_matrix() {
        // For a small well-understood matrix, the estimate must be within
        // a small factor of the true value (Hager is exact surprisingly
        // often; LAPACK documents it as "almost always within a factor 3").
        let n = 12;
        let (a, f) = factor(n, 7);
        // True ‖A⁻¹‖₁ via explicit inverse columns.
        let inv = f.solve(&Matrix::identity(n));
        let true_rcond = 1.0 / (norm_one(a.view()) * norm_one(inv.view()));
        let est = f.rcond_estimate(norm_one(a.view()));
        assert!(
            est <= true_rcond * 3.0 + 1e-12 && est >= true_rcond / 10.0,
            "est {est} vs true {true_rcond}"
        );
    }

    #[test]
    fn try_solve_ls_residual_is_orthogonal_to_range() {
        // The LS residual r = b − A·x must satisfy Aᵀr ≈ 0 (it is the
        // projection of b onto the orthogonal complement of range(A)).
        let (m, n) = (60, 20);
        let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(10));
        let b = ca_matrix::random_uniform(m, 2, &mut seeded_rng(11));
        let f = crate::caqr::caqr_seq(a.clone(), &CaParams::new(8, 4, 1));
        let x = f.try_solve_ls(&b).expect("full-rank LS solve");
        let r = b.sub_matrix(&a.matmul(&x));
        let atr = a.transpose().matmul(&r);
        let scale = norm_inf(a.view()) * norm_inf(b.view());
        assert!(
            norm_max(atr.view()) < 1e-12 * scale,
            "residual not orthogonal: ‖Aᵀr‖ = {}",
            norm_max(atr.view())
        );
    }

    #[test]
    fn try_solve_ls_matches_known_solution_on_consistent_system() {
        let (m, n) = (50, 15);
        let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(12));
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(13));
        let b = a.matmul(&x_true);
        let f = crate::caqr::caqr_seq(a, &CaParams::new(8, 4, 1));
        let x = f.try_solve_ls(&b).expect("consistent system");
        assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-9);
    }

    #[test]
    fn try_solve_ls_rejects_bad_inputs() {
        let (m, n) = (24, 8);
        // Rank-deficient: column 3 is zero, so R[3,3] == 0.
        let mut a = ca_matrix::random_uniform(m, n, &mut seeded_rng(14));
        for i in 0..m {
            a[(i, 3)] = 0.0;
        }
        let f = crate::caqr::caqr_seq(a.clone(), &CaParams::new(4, 2, 1));
        let b = ca_matrix::random_uniform(m, 1, &mut seeded_rng(15));
        assert!(matches!(f.try_solve_ls(&b), Err(FactorError::ZeroPivot { col: 3 })));

        let good = ca_matrix::random_uniform(m, n, &mut seeded_rng(16));
        let f = crate::caqr::caqr_seq(good, &CaParams::new(4, 2, 1));
        let mut bad_rhs = b.clone();
        bad_rhs[(5, 0)] = f64::NAN;
        assert!(matches!(
            f.try_solve_ls(&bad_rhs),
            Err(FactorError::NonFiniteInput { row: 5, col: 0 })
        ));
    }

    #[test]
    fn packed_solve_helper() {
        let n = 15;
        let a = ca_matrix::random_diag_dominant(n, &mut seeded_rng(8));
        let mut lu = a.clone();
        assert!(ca_kernels::lu_nopiv(lu.view_mut()).is_none());
        let x_true = ca_matrix::random_uniform(n, 1, &mut seeded_rng(9));
        let mut x = a.matmul(&x_true);
        lu_packed_solve_in_place(&lu, &mut x);
        assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-10);
    }
}

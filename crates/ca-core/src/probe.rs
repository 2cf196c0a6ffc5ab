//! Post-factorization integrity probes: O(n²) silent-corruption detection.
//!
//! A task-level fault that slips past the scheduler (a bit flip, a torn
//! write, injected chaos corruption) leaves factors that *look* healthy —
//! every task reported success — but are numerically wrong. Recomputing the
//! full residual `‖PA − LU‖` would cost O(n³), as much as the factorization
//! itself. The probes here use the classic random-vector identity check
//! instead: for a random `x`,
//!
//! * LU: `‖P(A·x) − L·(U·x)‖`,
//! * QR: `‖A·x − Q·(R·x)‖`,
//!
//! each computable with matrix-vector products only — O(n²) work, a
//! vanishing fraction of the O(n³) factorization (about `4/n` of its flops;
//! under 2% for n ≥ 200). A corruption of even one factor entry perturbs
//! the product by an amount far above the backward-error bound unless the
//! random vector happens to annihilate it (probability ~0 for a continuous
//! distribution), so a single probe vector suffices.
//!
//! The threshold is the same LAPACK-style `c · max(m,n) · eps` shape the
//! accuracy suite gates on, with a generous constant: honest factors sit
//! orders of magnitude below it, corrupted ones orders of magnitude above.

use crate::calu::LuFactors;
use crate::caqr::QrFactors;
use crate::error::{require_finite, FactorError};
use ca_kernels::Kernel;
use ca_matrix::{norm_inf, random_uniform, residual_threshold_in, seeded_rng, Matrix, Scalar};

/// Constant `c` in the probe acceptance threshold `c · max(m,n) · eps`.
/// Larger than the accuracy suite's constant because the probe statistic
/// carries the growth factor and the norm looseness of a single random
/// vector; real corruption overshoots by many orders of magnitude.
pub const PROBE_TOL: f64 = 1e4;

/// Scaled probe residual `‖lhs − rhs‖_∞ / (‖A‖_∞ · ‖x‖_∞)`.
fn scaled_residual<T: Scalar>(
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    a0: &Matrix<T>,
    x: &Matrix<T>,
) -> f64 {
    let d = lhs.sub_matrix(rhs);
    // max_abs skips NaN operands — a NaN-poisoned factor must register as
    // corrupt, not vanish from the norm.
    if require_finite(&d).is_err() {
        return f64::INFINITY;
    }
    let diff = d.view().max_abs().to_f64();
    let scale = norm_inf(a0.view()) * x.view().max_abs().to_f64();
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

fn verdict<T: Scalar>(residual: f64, m: usize, n: usize) -> Result<(), FactorError> {
    let threshold = residual_threshold_in::<T>(m, n, PROBE_TOL);
    if residual.is_finite() && residual < threshold {
        Ok(())
    } else {
        Err(FactorError::Corrupted { residual, threshold })
    }
}

/// The probe vector of `seed`, in the working precision.
fn probe_vector<T: Scalar>(n: usize, seed: u64) -> Matrix<T> {
    Matrix::from_f64(&random_uniform(n, 1, &mut seeded_rng(seed)))
}

impl<T: Kernel> LuFactors<T> {
    /// Probes `P·A₀ = L·U` with one random vector drawn from `seed`
    /// (O(n²)); returns [`FactorError::Corrupted`] when the scaled residual
    /// exceeds the `c · max(m,n) · eps` threshold of the working precision.
    pub fn verify_integrity(&self, a0: &Matrix<T>, seed: u64) -> Result<(), FactorError> {
        let m = a0.nrows();
        let n = a0.ncols();
        let x = probe_vector(n, seed);
        let y = a0.matmul(&x);
        let perm = self.permutation();
        let py = Matrix::from_fn(m, 1, |i, _| y[(perm[i], 0)]);
        let w = self.l().matmul(&self.u().matmul(&x));
        verdict::<T>(scaled_residual(&py, &w, a0, &x), m, n)
    }
}

impl<T: Kernel> QrFactors<T> {
    /// Probes `A₀ = Q·R` with one random vector drawn from `seed` (O(n²));
    /// returns [`FactorError::Corrupted`] when the scaled residual exceeds
    /// the `c · max(m,n) · eps` threshold of the working precision.
    pub fn verify_integrity(&self, a0: &Matrix<T>, seed: u64) -> Result<(), FactorError> {
        let m = a0.nrows();
        let n = a0.ncols();
        let k = m.min(n);
        let x = probe_vector(n, seed);
        let rx = self.r().matmul(&x);
        let mut z = Matrix::zeros(m, 1);
        for i in 0..k {
            z[(i, 0)] = rx[(i, 0)];
        }
        self.apply_q(&mut z);
        let y = a0.matmul(&x);
        verdict::<T>(scaled_residual(&y, &z, a0, &x), m, n)
    }
}

/// Flops of one probe of an `m × n` factorization: the products with `A₀`,
/// with the triangular factor and with `L` or `Q`, each about `2·m·n`.
pub(crate) fn probe_flops(m: usize, n: usize) -> f64 {
    6.0 * m as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CaParams;
    use crate::{calu, caqr};

    #[test]
    fn honest_factors_pass_the_probe() {
        for (m, n) in [(96, 96), (150, 90)] {
            let a = random_uniform(m, n, &mut seeded_rng((m + n) as u64));
            let p = CaParams::new(16, 4, 2);
            calu(a.clone(), &p).verify_integrity(&a, 1).expect("honest LU");
            caqr(a.clone(), &p).verify_integrity(&a, 1).expect("honest QR");
        }
    }

    #[test]
    fn single_element_corruption_is_detected() {
        let a = random_uniform(96, 96, &mut seeded_rng(5));
        let p = CaParams::new(16, 4, 2);
        let mut lu = calu(a.clone(), &p);
        lu.verify_integrity(&a, 2).expect("clean before corruption");
        let v = lu.lu[(40, 40)];
        lu.lu[(40, 40)] = v + v.abs().max(1.0) * 1e-3;
        let err = lu.verify_integrity(&a, 2).expect_err("probe must catch corruption");
        assert!(matches!(err, FactorError::Corrupted { .. }), "got {err:?}");

        let mut qr = caqr(a.clone(), &p);
        qr.verify_integrity(&a, 3).expect("clean before corruption");
        let v = qr.a[(10, 30)];
        qr.a[(10, 30)] = v + v.abs().max(1.0) * 1e-3;
        assert!(qr.verify_integrity(&a, 3).is_err(), "QR probe must catch corruption");
    }

    #[test]
    fn f32_factors_probe_in_their_own_precision() {
        let a = Matrix::<f32>::from_f64(&random_uniform(64, 48, &mut seeded_rng(7)));
        let p = CaParams::new(16, 4, 1);
        let mut lu = calu(a.clone(), &p);
        lu.verify_integrity(&a, 5).expect("honest f32 LU");
        caqr(a.clone(), &p).verify_integrity(&a, 5).expect("honest f32 QR");
        lu.lu[(30, 30)] *= 1e3;
        assert!(matches!(lu.verify_integrity(&a, 5), Err(FactorError::Corrupted { .. })));
    }

    #[test]
    fn probe_rejects_nan_poisoned_factors() {
        let a = random_uniform(64, 64, &mut seeded_rng(6));
        let p = CaParams::new(16, 4, 1);
        let mut lu = calu(a.clone(), &p);
        lu.lu[(8, 8)] = f64::NAN;
        assert!(lu.verify_integrity(&a, 4).is_err());
    }
}

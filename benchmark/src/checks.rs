//! Correctness gates and failure accounting.
//!
//! An *operation* is one factorization, served job or out-of-core run. It
//! fails on `Err`, on a panic, or on a missed gate. The warm-up result
//! passes an accuracy gate (the dense residual, and for QR the
//! orthogonality of `Q`, on a seeded sample of columns — the full dense
//! forms cost more than the factorization) and the library's `O(n²)`
//! integrity probe; every later result of the same input must equal it
//! bitwise, which is cheaper than either and implies both.

use ca_factor::kernels::{flops, par_gemm, Trans};
use ca_factor::matrix::{norm_fro, random_uniform, residual_threshold, seeded_rng};
use ca_factor::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Constant `c` of the `c · eps · max(m, n)` accuracy gate, as in the
/// repository's accuracy tests.
pub const ACCURACY_TOL: f64 = 100.0;
/// Columns the accuracy gate samples.
const SAMPLE_COLS: usize = 32;

#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            // Enough to diagnose, bounded so a broken build cannot flood the report.
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }
}

/// Runs `f`, turning a panic into an `Err` so it counts as a failed operation.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p.downcast_ref::<&str>().map(|s| s.to_string()).or_else(|| p.downcast_ref::<String>().cloned());
        format!("panicked: {}", msg.unwrap_or_else(|| "non-string payload".into()))
    })
}

/// FNV-style fold of `f64` bit patterns: equal hashes stand for bitwise
/// equal results without keeping a second copy of the factors.
pub fn hash_f64s(seed: u64, data: &[f64]) -> u64 {
    data.iter().fold(seed, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

pub const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

pub fn hash_matrix(a: &Matrix) -> u64 {
    hash_f64s(HASH_SEED, a.as_slice())
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Lu,
    Qr,
}

impl Kind {
    pub const BOTH: [Kind; 2] = [Kind::Lu, Kind::Qr];

    /// Metric-name prefix.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Lu => "lu",
            Kind::Qr => "qr",
        }
    }

    /// The library's one-shot entry point for this factorization.
    pub fn entry(self) -> &'static str {
        match self {
            Kind::Lu => "calu",
            Kind::Qr => "caqr",
        }
    }

    /// Useful LAPACK flops, as the paper counts them.
    pub fn flops(self, m: usize, n: usize) -> f64 {
        match self {
            Kind::Lu => flops::getrf(m, n),
            Kind::Qr => flops::geqrf(m, n),
        }
    }
}

pub enum Factors {
    Lu(LuFactors),
    Qr(QrFactors),
}

impl Factors {
    pub fn hash(&self) -> u64 {
        match self {
            Factors::Lu(f) => f.pivots.ipiv.iter().fold(hash_matrix(&f.lu), |h, &p| (h ^ p as u64).wrapping_mul(31)),
            Factors::Qr(f) => f.panels.iter().fold(hash_matrix(&f.a), |h, panel| {
                let h = panel.leaves.iter().fold(h, |h, leaf| hash_f64s(h, leaf.t.as_slice()));
                panel.nodes.iter().fold(h, |h, node| hash_f64s(hash_f64s(h, node.v.as_slice()), node.t.as_slice()))
            }),
        }
    }

    /// The library's random-vector integrity probe.
    pub fn probe(&self, a0: &Matrix, seed: u64) -> Result<(), String> {
        match self {
            Factors::Lu(f) => f.verify_integrity(a0, seed),
            Factors::Qr(f) => f.verify_integrity(a0, seed),
        }
        .map_err(|e| e.to_string())
    }

    /// Bitwise equality with the reference result of the same input.
    pub fn matches(&self, reference: u64) -> Result<(), String> {
        let got = self.hash();
        if got == reference {
            Ok(())
        } else {
            Err(format!("factors differ bitwise from the first result ({got:016x} vs {reference:016x})"))
        }
    }

    /// The factored matrix, for its storage.
    pub fn into_matrix(self) -> Matrix {
        match self {
            Factors::Lu(f) => f.lu,
            Factors::Qr(f) => f.a,
        }
    }

    /// The accuracy gate: `‖(ΠA − LU)[:, J]‖_F / ‖A[:, J]‖_F` (LU) or
    /// `‖(A − QR)[:, J]‖_F / ‖A[:, J]‖_F` and `‖Q[:, J]ᵀ Q[:, J] − I‖_F`
    /// (QR) for a seeded column sample `J`, each within
    /// `residual_threshold(m, n, 100)`.
    pub fn accuracy(&self, a0: &Matrix, workers: usize, seed: u64) -> Result<(), String> {
        let (m, n) = (a0.nrows(), a0.ncols());
        let kmax = m.min(n);
        let threshold = residual_threshold(m, n, ACCURACY_TOL);
        let gate = |what: &str, value: f64| {
            if value.is_finite() && value <= threshold {
                Ok(())
            } else {
                Err(format!("{what} {value:.3e} exceeds {threshold:.3e}"))
            }
        };
        let cols = sample_indices(n, SAMPLE_COLS, seed);
        let k = cols.len();
        match self {
            Factors::Lu(f) => {
                let perm = f.permutation();
                let mut r = Matrix::from_fn(m, k, |i, c| a0[(perm[i], cols[c])]);
                let scale = norm_fro(r.view());
                let l = f.lu.unit_lower();
                let u = Matrix::from_fn(kmax, k, |i, c| if i <= cols[c] { f.lu[(i, cols[c])] } else { 0.0 });
                par_gemm(workers, Trans::No, Trans::No, -1.0, l.view(), u.view(), 1.0, r.view_mut());
                gate("LU residual", norm_fro(r.view()) / scale)
            }
            Factors::Qr(f) => {
                let a_j = Matrix::from_fn(m, k, |i, c| a0[(i, cols[c])]);
                let mut qr =
                    Matrix::from_fn(m, k, |i, c| if i <= cols[c] && i < kmax { f.a[(i, cols[c])] } else { 0.0 });
                f.apply_q(&mut qr);
                gate("QR residual", norm_fro(a_j.sub_matrix(&qr).view()) / norm_fro(a_j.view()))?;

                let picks = sample_indices(kmax, SAMPLE_COLS, seed);
                let mut q = Matrix::from_fn(m, picks.len(), |i, c| if i == picks[c] { 1.0 } else { 0.0 });
                f.apply_q(&mut q);
                let mut g = Matrix::identity(picks.len());
                par_gemm(workers, Trans::Yes, Trans::No, 1.0, q.view(), q.view(), -1.0, g.view_mut());
                gate("Q orthogonality", norm_fro(g.view()))
            }
        }
    }
}

/// `calu` or `caqr` at `p`, through the library's one-shot entry points.
pub fn factor(kind: Kind, a: Matrix, p: &CaParams) -> Factors {
    match kind {
        Kind::Lu => Factors::Lu(calu(a, p)),
        Kind::Qr => Factors::Qr(caqr(a, p)),
    }
}

/// `min(k, n)` distinct indices below `n`, ascending, drawn from `seed`.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let keys = random_uniform(n, 1, &mut seeded_rng(seed ^ 0x5a17));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| keys[(i, 0)].total_cmp(&keys[(j, 0)]));
    order.truncate(k.min(n));
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_pass_honest_factors_and_catch_a_corrupted_entry() {
        let a = random_uniform(96, 64, &mut seeded_rng(3));
        let p = CaParams::new(16, 4, 2);
        for kind in Kind::BOTH {
            let f = factor(kind, a.clone(), &p);
            let reference = f.hash();
            assert_eq!(f.accuracy(&a, 2, 1), Ok(()));
            assert_eq!(f.probe(&a, 1).and_then(|()| f.matches(reference)), Ok(()));
            let bad = match f {
                Factors::Lu(mut f) => {
                    f.lu[(40, 5)] += 1e-3;
                    Factors::Lu(f)
                }
                Factors::Qr(mut f) => {
                    // An entry of R shows only in its own column: take a sampled one.
                    f.a[(0, sample_indices(64, SAMPLE_COLS, 1)[3])] += 1e-3;
                    Factors::Qr(f)
                }
            };
            assert!(bad.accuracy(&a, 2, 1).is_err(), "{kind:?} accuracy gate");
            assert!(bad.probe(&a, 1).is_err(), "{kind:?} probe");
            assert!(bad.matches(reference).is_err(), "{kind:?} bitwise gate");
        }
    }

    #[test]
    fn ops_count_panics_and_errors_as_failures() {
        let mut ops = Ops::default();
        ops.record("fine", guarded(|| ()));
        ops.record("panics", guarded(|| panic!("boom")));
        ops.record("errs", Err("bad".into()));
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.failures, ["panics: panicked: boom", "errs: bad"]);
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_seeded() {
        let s = sample_indices(1000, 128, 7);
        assert_eq!(s.len(), 128);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[127] < 1000);
        assert_eq!(s, sample_indices(1000, 128, 7));
        assert_ne!(s, sample_indices(1000, 128, 8));
        assert_eq!(sample_indices(5, 128, 7), vec![0, 1, 2, 3, 4]);
    }
}

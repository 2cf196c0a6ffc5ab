//! Error types for the fallible factorization entry points.
//!
//! The infallible APIs ([`crate::calu`], [`crate::caqr`], …) keep their
//! LAPACK-style contract: always return factors, reporting exact breakdown
//! via [`crate::LuFactors::breakdown`] like `info` from `dgetrf`. The
//! `try_*` entry points instead surface numerical trouble as a
//! [`FactorError`], after pre-scanning inputs and monitoring the per-panel
//! element growth during factorization.

use ca_matrix::Matrix;
use std::fmt;

/// Growth-factor ceiling the `try_*` entry points use when the caller left
/// [`crate::CaParams::growth_limit`] at its infinite default. Element growth
/// beyond this is far outside anything tournament pivoting produces on
/// non-adversarial inputs and signals a numerically meaningless
/// factorization.
pub const DEFAULT_GROWTH_LIMIT: f64 = 1e8;

/// Why a fallible factorization or solve refused to produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum FactorError {
    /// The input matrix (or right-hand side) contains a NaN or infinity at
    /// the given position.
    NonFiniteInput {
        /// Row of the first non-finite entry (column-major scan order).
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
    /// Elimination hit an exactly-zero pivot: the matrix is singular to
    /// working precision at this global column.
    ZeroPivot {
        /// Global column index of the first zero pivot.
        col: usize,
    },
    /// The per-panel element-growth estimate exceeded the configured limit
    /// even after refactoring the panel with plain partial pivoting.
    GrowthExplosion {
        /// Global column index where the offending panel starts.
        col: usize,
        /// The growth estimate that broke the limit.
        growth: f64,
    },
    /// A worker task failed or panicked during parallel execution; its
    /// transitive successors were cancelled by the scheduler.
    TaskFailed {
        /// Display form of the failed task's label (e.g. `P[2,0,2]`).
        label: String,
        /// The scheduler's error message.
        message: String,
    },
    /// The static DAG verifier or checked execution mode found a soundness
    /// violation (unordered conflicting block accesses, a runtime lease
    /// overlap, or an access outside a task's declared footprint).
    Soundness {
        /// The violation, naming the conflicting task labels.
        violation: ca_sched::SoundnessError,
    },
    /// The post-factorization integrity probe found a residual far above
    /// the backward-stability bound: the factors are silently corrupted
    /// (bit flip, torn write, injected chaos) even though every task
    /// reported success.
    Corrupted {
        /// The scaled probe residual that exceeded the threshold.
        residual: f64,
        /// The threshold it was compared against.
        threshold: f64,
    },
    /// An out-of-core tile-store operation failed at the filesystem level
    /// (open, seek, read, write, sync). Carries the operation name and the
    /// OS error rendered to a string — `std::io::Error` itself is neither
    /// `Clone` nor `PartialEq`, which this enum promises.
    Io {
        /// The store operation that failed (e.g. `"read_panel"`).
        op: String,
        /// Display form of the underlying I/O error.
        message: String,
    },
}

impl FactorError {
    /// Wraps a `std::io::Error` from store operation `op`.
    pub fn io(op: impl Into<String>, e: std::io::Error) -> Self {
        Self::Io { op: op.into(), message: e.to_string() }
    }
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteInput { row, col } => {
                write!(f, "non-finite input entry at ({row}, {col})")
            }
            Self::ZeroPivot { col } => {
                write!(f, "exact zero pivot at column {col} (singular matrix)")
            }
            Self::GrowthExplosion { col, growth } => {
                write!(
                    f,
                    "element growth {growth:.2e} exceeds the limit in the panel at column {col}"
                )
            }
            Self::TaskFailed { label, message } => {
                write!(f, "task {label} failed: {message}")
            }
            Self::Soundness { violation } => {
                write!(f, "soundness violation: {violation}")
            }
            Self::Corrupted { residual, threshold } => {
                write!(
                    f,
                    "silent corruption: probe residual {residual:.2e} exceeds threshold {threshold:.2e}"
                )
            }
            Self::Io { op, message } => {
                write!(f, "out-of-core I/O error during {op}: {message}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

impl From<ca_sched::ExecError> for FactorError {
    fn from(e: ca_sched::ExecError) -> Self {
        Self::TaskFailed { label: e.label.to_string(), message: e.to_string() }
    }
}

impl From<ca_sched::SoundnessError> for FactorError {
    fn from(violation: ca_sched::SoundnessError) -> Self {
        Self::Soundness { violation }
    }
}

impl From<ca_sched::CheckedError> for FactorError {
    fn from(e: ca_sched::CheckedError) -> Self {
        match e {
            ca_sched::CheckedError::Exec(e) => e.into(),
            ca_sched::CheckedError::Soundness(v) => v.into(),
        }
    }
}

/// The pre-scan every fallible entry point runs on what it is given:
/// [`FactorError::NonFiniteInput`] at the first NaN or infinity of `a`,
/// scanning in column-major order.
pub(crate) fn require_finite<T: ca_matrix::Scalar>(a: &Matrix<T>) -> Result<(), FactorError> {
    for col in 0..a.ncols() {
        for row in 0..a.nrows() {
            if !a[(row, col)].is_finite() {
                return Err(FactorError::NonFiniteInput { row, col });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_site() {
        let e = FactorError::ZeroPivot { col: 7 };
        assert!(e.to_string().contains("column 7"));
        let e = FactorError::NonFiniteInput { row: 3, col: 5 };
        assert!(e.to_string().contains("(3, 5)"));
        let e = FactorError::GrowthExplosion { col: 16, growth: 1e12 };
        assert!(e.to_string().contains("column 16"));
        let e = FactorError::TaskFailed { label: "P[1,0,1]".into(), message: "boom".into() };
        assert!(e.to_string().contains("P[1,0,1]") && e.to_string().contains("boom"));
        let e = FactorError::io(
            "read_panel",
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read"),
        );
        assert!(e.to_string().contains("read_panel") && e.to_string().contains("short read"));
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn non_finite_scan_finds_first_column_major_entry() {
        let mut a = Matrix::zeros(4, 4);
        a[(2, 1)] = f64::NAN;
        a[(0, 3)] = f64::INFINITY;
        assert_eq!(require_finite(&a), Err(FactorError::NonFiniteInput { row: 2, col: 1 }));
        assert_eq!(require_finite(&Matrix::<f64>::zeros(3, 3)), Ok(()));
    }
}

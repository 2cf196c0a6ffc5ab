//! Shared-mutable matrix handle for task-parallel runtimes.
//!
//! A dynamic task scheduler hands blocks of one matrix to tasks running on
//! different threads. The borrow checker cannot express "these tasks touch
//! disjoint blocks because the dependency graph says so", so the runtime uses
//! [`SharedMatrix`]: an unsafe cell over the matrix buffer whose block
//! accessors are `unsafe fn`s with the disjointness obligation spelled out.
//!
//! This mirrors what every task-based dense linear algebra runtime
//! (PLASMA/QUARK, StarPU, OpenMP tasks with `depend`) does: correctness of
//! concurrent block access is a property of the task graph, not of the type
//! system. All uses in this workspace are confined to `ca-sched` executors
//! running graphs built by `ca-core`/`ca-baselines` DAG builders. That
//! contract is machine-checked: `ca-sched`'s static verifier proves every
//! conflicting block pair is ordered by a happens-before path, and checked
//! execution mode (a [`crate::shadow::ShadowRegistry`] attached via
//! [`SharedMatrix::with_shadow`]) audits the actual element ranges at run
//! time.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::shadow::ShadowRegistry;
use crate::view::{MatView, MatViewMut};
use core::cell::UnsafeCell;
use std::sync::Arc;

/// A matrix owned by a task-parallel computation.
///
/// Construct with [`SharedMatrix::new`], run the task graph, then reclaim the
/// result with [`SharedMatrix::into_inner`]. Checked execution mode attaches
/// a [`ShadowRegistry`] with [`SharedMatrix::with_shadow`], which makes every
/// block accessor record its element range for race/footprint checking.
pub struct SharedMatrix<T: Scalar = f64> {
    cell: UnsafeCell<Matrix<T>>,
    rows: usize,
    cols: usize,
    shadow: Option<Arc<ShadowRegistry>>,
}

// SAFETY: concurrent access is only possible through the `unsafe` block
// accessors, whose contracts require callers (the task runtime) to guarantee
// non-overlapping access; under that contract data races cannot occur.
unsafe impl<T: Scalar> Send for SharedMatrix<T> {}
unsafe impl<T: Scalar> Sync for SharedMatrix<T> {}

impl<T: Scalar> SharedMatrix<T> {
    /// Wraps a matrix for shared task access.
    pub fn new(m: Matrix<T>) -> Self {
        let rows = m.nrows();
        let cols = m.ncols();
        Self { cell: UnsafeCell::new(m), rows, cols, shadow: None }
    }

    /// Wraps a matrix for *checked* shared task access: every block accessor
    /// reports its element range to `registry` (see [`crate::shadow`]).
    pub fn with_shadow(m: Matrix<T>, registry: Arc<ShadowRegistry>) -> Self {
        let mut s = Self::new(m);
        s.shadow = Some(registry);
        s
    }

    /// The attached shadow registry, if running in checked mode.
    pub fn shadow(&self) -> Option<&Arc<ShadowRegistry>> {
        self.shadow.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Reclaims the matrix after all tasks have completed.
    pub fn into_inner(self) -> Matrix<T> {
        self.cell.into_inner()
    }

    /// Immutable view of the block at `(i, j)` with shape `r × c`.
    ///
    /// # Safety
    /// For the lifetime of the returned view no concurrently running task may
    /// mutate any element of the block. The scheduler's dependency edges must
    /// enforce this.
    #[inline]
    pub unsafe fn block(&self, i: usize, j: usize, r: usize, c: usize) -> MatView<'_, T> {
        assert!(i + r <= self.rows && j + c <= self.cols, "block out of bounds");
        if let Some(reg) = &self.shadow {
            reg.on_access(false, i..i + r, j..j + c);
        }
        // SAFETY: bounds hold per the assert; disjointness from concurrent
        // writers is the caller's obligation (see function contract).
        unsafe {
            let m = &*self.cell.get();
            let ptr = m.as_slice().as_ptr().add(i + j * self.rows);
            MatView::from_raw_parts(ptr, r, c, self.rows)
        }
    }

    /// Mutable view of the block at `(i, j)` with shape `r × c`.
    ///
    /// # Safety
    /// For the lifetime of the returned view no concurrently running task may
    /// read or mutate any element of the block. The scheduler's dependency
    /// edges must enforce this.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn block_mut(&self, i: usize, j: usize, r: usize, c: usize) -> MatViewMut<'_, T> {
        assert!(i + r <= self.rows && j + c <= self.cols, "block out of bounds");
        if let Some(reg) = &self.shadow {
            reg.on_access(true, i..i + r, j..j + c);
        }
        // SAFETY: bounds hold per the assert; exclusivity is the caller's
        // obligation (see function contract).
        unsafe {
            let m = &mut *self.cell.get();
            let rows = self.rows;
            let ptr = m.as_mut_slice().as_mut_ptr().add(i + j * rows);
            MatViewMut::from_raw_parts(ptr, r, c, rows)
        }
    }

    /// Whole-matrix mutable view.
    ///
    /// # Safety
    /// Same contract as [`SharedMatrix::block_mut`] over the whole matrix —
    /// i.e. the caller must be the only task touching the matrix.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    // Forwarding wrapper: carries block_mut's own contract verbatim.
    #[allow(clippy::disallowed_methods)]
    pub unsafe fn whole_mut(&self) -> MatViewMut<'_, T> {
        // SAFETY: the caller's contract is exactly `block_mut`'s over the
        // whole matrix.
        unsafe { self.block_mut(0, 0, self.rows, self.cols) }
    }
}

#[cfg(test)]
// Tests exercise the raw accessors directly, single-threaded.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_data() {
        let m = Matrix::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        let orig = m.clone();
        let s = SharedMatrix::new(m);
        assert_eq!(s.nrows(), 3);
        assert_eq!(s.ncols(), 3);
        assert_eq!(s.into_inner(), orig);
    }

    #[test]
    fn disjoint_blocks_see_their_own_data() {
        let s = SharedMatrix::new(Matrix::zeros(4, 4));
        // SAFETY: single-threaded test; blocks are disjoint.
        unsafe {
            s.block_mut(0, 0, 2, 2).fill(1.0);
            s.block_mut(2, 2, 2, 2).fill(2.0);
            assert_eq!(s.block(0, 0, 2, 2).at(1, 1), 1.0);
            assert_eq!(s.block(2, 2, 2, 2).at(0, 0), 2.0);
            assert_eq!(s.block(0, 2, 2, 2).at(0, 0), 0.0);
        }
        let m = s.into_inner();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(3, 3)], 2.0);
        assert_eq!(m[(0, 3)], 0.0);
    }

    #[test]
    fn parallel_disjoint_writes_are_sound() {
        let s = SharedMatrix::new(Matrix::zeros(64, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    // SAFETY: each thread writes a disjoint 16-row stripe.
                    let mut b = unsafe { s.block_mut(t * 16, 0, 16, 8) };
                    b.fill(t as f64 + 1.0);
                });
            }
        });
        let m = s.into_inner();
        for t in 0..4 {
            assert_eq!(m[(t * 16, 0)], t as f64 + 1.0);
            assert_eq!(m[(t * 16 + 15, 7)], t as f64 + 1.0);
        }
    }
}

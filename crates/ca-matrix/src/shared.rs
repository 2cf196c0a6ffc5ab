//! Shared-mutable matrix handle for task-parallel runtimes.
//!
//! A dynamic task scheduler hands blocks of one matrix to tasks running on
//! different threads. The borrow checker cannot express "these tasks touch
//! disjoint blocks because the dependency graph says so", so the runtime
//! keeps the matrix in a [`SharedMatrix`]: an unsafe cell over the buffer
//! whose block accessors are `unsafe fn`s with the disjointness obligation
//! spelled out.
//!
//! This mirrors what every task-based dense linear algebra runtime
//! (PLASMA/QUARK, StarPU, OpenMP tasks with `depend`) does: correctness of
//! concurrent block access is a property of the task graph, not of the type
//! system. In this workspace one caller discharges the obligation: a task
//! body opens the matrix only through `ca_sched::TaskCx`, which hands out a
//! view only inside a rect the task declared — the same declarations the
//! graph's edges are inferred from and `ca_sched::verify_graph` proves
//! ordered. Outside a task graph, [`SharedMatrix::exclusive`] lends the
//! whole matrix to one caller at a time, checked at run time.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use core::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// A matrix owned by a task-parallel computation.
///
/// Construct with [`SharedMatrix::new`], run the task graph, then reclaim the
/// result with [`SharedMatrix::into_inner`].
pub struct SharedMatrix<T: Scalar = f64> {
    cell: UnsafeCell<Matrix<T>>,
    rows: usize,
    cols: usize,
    /// Set while [`SharedMatrix::exclusive`] lends the matrix out.
    lent: AtomicBool,
}

// SAFETY: concurrent access is only possible through the `unsafe` block
// accessors, whose contracts require callers (the task runtime) to guarantee
// non-overlapping access, and through `exclusive`, which lends the matrix to
// one caller at a time; under those contracts data races cannot occur.
unsafe impl<T: Scalar> Send for SharedMatrix<T> {}
unsafe impl<T: Scalar> Sync for SharedMatrix<T> {}

impl<T: Scalar> SharedMatrix<T> {
    /// Wraps a matrix for shared task access.
    pub fn new(m: Matrix<T>) -> Self {
        let rows = m.nrows();
        let cols = m.ncols();
        Self { cell: UnsafeCell::new(m), rows, cols, lent: AtomicBool::new(false) }
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

    /// Runs `f` on a mutable view of the whole matrix.
    ///
    /// # Panics
    /// If the matrix is already lent out (a nested or concurrent call).
    // The loan flag is the exclusivity `whole_mut` asks for.
    #[allow(clippy::disallowed_methods)]
    pub fn exclusive<R>(&self, f: impl FnOnce(MatViewMut<'_, T>) -> R) -> R {
        assert!(!self.lent.swap(true, Ordering::Acquire), "SharedMatrix lent out twice");
        struct Return<'a>(&'a AtomicBool);
        impl Drop for Return<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _return = Return(&self.lent);
        // SAFETY: the flag admits one borrower at a time, and the block
        // accessors' callers must not run concurrently with a writer.
        f(unsafe { self.whole_mut() })
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

    #[test]
    fn exclusive_lends_the_matrix_once_at_a_time() {
        let s = SharedMatrix::new(Matrix::zeros(2, 2));
        s.exclusive(|mut a| a.set(1, 1, 3.0));
        s.exclusive(|a| assert_eq!(a.at(1, 1), 3.0));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.exclusive(|_| s.exclusive(|_| ()));
        }));
        assert!(nested.is_err(), "a nested loan is refused");
        s.exclusive(|a| assert_eq!(a.at(1, 1), 3.0));
    }
}

//! Borrowed, stride-aware matrix views.
//!
//! A view is a window `(rows × cols)` into a column-major buffer with leading
//! dimension `ld` (the stride between consecutive columns). Views are the
//! currency of every kernel in this workspace: they make it possible to hand
//! disjoint panels and trailing blocks of one allocation to different tasks
//! without copying, exactly as LAPACK routines do with `(A, LDA)` pairs.
//! Generic over [`Scalar`] with an `f64` default, like [`crate::Matrix`].

use crate::scalar::Scalar;
use core::fmt;
use core::marker::PhantomData;

/// Immutable view of a column-major matrix block.
#[derive(Clone, Copy)]
pub struct MatView<'a, T: Scalar = f64> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a T>,
}

/// Mutable view of a column-major matrix block.
///
/// Not `Copy`: like `&mut`, a mutable view is an exclusive capability.
/// Use [`MatViewMut::rb`] (reborrow) to lend it out temporarily and
/// [`MatViewMut::split_at_row`] / [`MatViewMut::split_at_col`] to divide it
/// into disjoint sub-blocks.
pub struct MatViewMut<'a, T: Scalar = f64> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: a view is just a reference-like handle to scalar data; T: Send+Sync
// and the borrow rules are enforced by the lifetimes exactly as for &[T].
unsafe impl<'a, T: Scalar> Send for MatView<'a, T> {}
unsafe impl<'a, T: Scalar> Sync for MatView<'a, T> {}
unsafe impl<'a, T: Scalar> Send for MatViewMut<'a, T> {}
unsafe impl<'a, T: Scalar> Sync for MatViewMut<'a, T> {}

impl<'a, T: Scalar> MatView<'a, T> {
    /// Builds a view from raw parts.
    ///
    /// # Safety
    /// `ptr` must point to an allocation that holds at least
    /// `ld * (cols - 1) + rows` elements (when `cols > 0`), which stays alive
    /// and un-mutated for `'a`, and `ld >= rows` must hold.
    #[inline]
    pub unsafe fn from_raw_parts(ptr: *const T, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(ld >= rows || cols <= 1);
        Self { ptr, rows, cols, ld, _marker: PhantomData }
    }

    /// Creates a view over a full column-major slice (`ld == rows`).
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    #[inline]
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "slice length must equal rows*cols");
        unsafe { Self::from_raw_parts(data.as_ptr(), rows, cols, rows.max(1)) }
    }

    /// Number of rows in the view.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the view.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride) of the underlying buffer.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Raw pointer to element `(0, 0)`.
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// `true` if the view contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Reads element `(i, j)` with bounds checking.
    #[inline]
    #[track_caller]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Reads element `(i, j)` without bounds checking.
    ///
    /// # Safety
    /// `i < nrows()` and `j < ncols()` must hold.
    #[inline]
    pub unsafe fn at_unchecked(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in bounds per the caller's contract.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    #[track_caller]
    pub fn col(&self, j: usize) -> &'a [T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        unsafe { core::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Sub-view of `r × c` elements starting at `(i, j)`.
    #[inline]
    #[track_caller]
    pub fn sub(&self, i: usize, j: usize, r: usize, c: usize) -> MatView<'a, T> {
        assert!(
            i + r <= self.rows && j + c <= self.cols,
            "subview ({i},{j})+({r}x{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { MatView::from_raw_parts(self.ptr.add(i + j * self.ld), r, c, self.ld) }
    }

    /// Copies the view into a fresh `rows * cols` column-major `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for j in 0..self.cols {
            out.extend_from_slice(self.col(j));
        }
        out
    }

    /// Maximum absolute value of the elements, NaN entries skipped (`0.0`
    /// for an empty or all-NaN view).
    pub fn max_abs(&self) -> T {
        (0..self.cols).fold(T::ZERO, |m, j| m.max(max_abs(self.col(j))))
    }
}

/// Largest `|x|` over a slice, NaN entries skipped (`0.0` when empty or all
/// NaN) — [`MatView::max_abs`] for one column.
#[inline(always)]
pub fn max_abs<T: Scalar>(x: &[T]) -> T {
    max_abs_lanes(x).into_iter().fold(T::ZERO, |m, lane| if lane > m { lane } else { m })
}

/// [`max_abs`] before its final reduction: eight independent running maxima
/// (element `i` feeds lane `i % 8`), so the scan vectorises instead of
/// waiting on one compare chain. The chunks are arrays and the update a
/// select, which is what lets the compiler use one vector maximum per chunk.
#[inline(always)]
pub fn max_abs_lanes<T: Scalar>(x: &[T]) -> [T; 8] {
    let mut lanes = [T::ZERO; 8];
    let (chunks, rest) = x.as_chunks::<8>();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let a = v.abs();
            *lane = if a > *lane { a } else { *lane };
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(rest) {
        let a = v.abs();
        *lane = if a > *lane { a } else { *lane };
    }
    lanes
}

impl<'a, T: Scalar> MatViewMut<'a, T> {
    /// Builds a mutable view from raw parts.
    ///
    /// # Safety
    /// Same requirements as [`MatView::from_raw_parts`], plus exclusivity:
    /// no other live view may alias the window for `'a`.
    #[inline]
    pub unsafe fn from_raw_parts(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(ld >= rows || cols <= 1);
        Self { ptr, rows, cols, ld, _marker: PhantomData }
    }

    /// Creates a mutable view over a full column-major slice (`ld == rows`).
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    #[inline]
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "slice length must equal rows*cols");
        unsafe { Self::from_raw_parts(data.as_mut_ptr(), rows, cols, rows.max(1)) }
    }

    /// Number of rows in the view.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the view.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride) of the underlying buffer.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Raw pointer to element `(0, 0)`.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// `true` if the view contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Reborrows as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatView<'_, T> {
        unsafe { MatView::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Reborrows mutably with a shorter lifetime (like `&mut *x`).
    #[inline]
    pub fn rb(&mut self) -> MatViewMut<'_, T> {
        unsafe { MatViewMut::from_raw_parts(self.ptr, self.rows, self.cols, self.ld) }
    }

    /// Reads element `(i, j)` with bounds checking.
    #[inline]
    #[track_caller]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Writes element `(i, j)` with bounds checking.
    #[inline]
    #[track_caller]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(i + j * self.ld) = v }
    }

    /// Mutable reference to element `(i, j)` with bounds checking.
    #[inline]
    #[track_caller]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { &mut *self.ptr.add(i + j * self.ld) }
    }

    /// Reads element `(i, j)` without bounds checking.
    ///
    /// # Safety
    /// `i < nrows()` and `j < ncols()` must hold.
    #[inline]
    pub unsafe fn at_unchecked(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in bounds per the caller's contract.
        unsafe { *self.ptr.add(i + j * self.ld) }
    }

    /// Writes element `(i, j)` without bounds checking.
    ///
    /// # Safety
    /// `i < nrows()` and `j < ncols()` must hold.
    #[inline]
    pub unsafe fn set_unchecked(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: in bounds per the caller's contract.
        unsafe { *self.ptr.add(i + j * self.ld) = v };
    }

    /// Column `j` as a contiguous immutable slice.
    #[inline]
    #[track_caller]
    pub fn col(&self, j: usize) -> &[T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        unsafe { core::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    #[track_caller]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        unsafe { core::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Mutable sub-view of `r × c` elements starting at `(i, j)`.
    #[inline]
    #[track_caller]
    pub fn sub(&mut self, i: usize, j: usize, r: usize, c: usize) -> MatViewMut<'_, T> {
        assert!(
            i + r <= self.rows && j + c <= self.cols,
            "subview ({i},{j})+({r}x{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(i + j * self.ld), r, c, self.ld) }
    }

    /// Consumes the view, producing a sub-view with the full lifetime `'a`.
    #[inline]
    #[track_caller]
    pub fn into_sub(self, i: usize, j: usize, r: usize, c: usize) -> MatViewMut<'a, T> {
        assert!(
            i + r <= self.rows && j + c <= self.cols,
            "subview ({i},{j})+({r}x{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(i + j * self.ld), r, c, self.ld) }
    }

    /// Splits into `(top, bottom)` at row `i` (`top` gets rows `0..i`).
    #[inline]
    #[track_caller]
    pub fn split_at_row(self, i: usize) -> (MatViewMut<'a, T>, MatViewMut<'a, T>) {
        assert!(i <= self.rows, "split row {i} out of bounds ({})", self.rows);
        unsafe {
            (
                MatViewMut::from_raw_parts(self.ptr, i, self.cols, self.ld),
                MatViewMut::from_raw_parts(self.ptr.add(i), self.rows - i, self.cols, self.ld),
            )
        }
    }

    /// Splits into `(left, right)` at column `j` (`left` gets columns `0..j`).
    #[inline]
    #[track_caller]
    pub fn split_at_col(self, j: usize) -> (MatViewMut<'a, T>, MatViewMut<'a, T>) {
        assert!(j <= self.cols, "split col {j} out of bounds ({})", self.cols);
        unsafe {
            (
                MatViewMut::from_raw_parts(self.ptr, self.rows, j, self.ld),
                MatViewMut::from_raw_parts(
                    self.ptr.add(j * self.ld),
                    self.rows,
                    self.cols - j,
                    self.ld,
                ),
            )
        }
    }

    /// The row blocks `ranges` (pairwise disjoint, in any order), each over
    /// every column, in the order given: a multi-row view of scattered rows,
    /// such as the participants a TSQR tree node stacks — like a
    /// row-permuted matrix, it reaches only the rows it names.
    ///
    /// # Panics
    /// If a range leaves the view or two ranges overlap.
    #[track_caller]
    pub fn split_rows(self, ranges: &[core::ops::Range<usize>]) -> Vec<MatViewMut<'a, T>> {
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                r.start <= r.end && r.end <= self.rows,
                "rows {r:?} out of bounds ({})",
                self.rows
            );
            let clash = ranges[..i]
                .iter()
                .find(|o| !r.is_empty() && !o.is_empty() && r.start < o.end && o.start < r.end);
            assert!(clash.is_none(), "rows {r:?} overlap rows {clash:?}");
        }
        // SAFETY: each block lies inside the view and no two share a row.
        let block = |r: &core::ops::Range<usize>| unsafe {
            MatViewMut::from_raw_parts(self.ptr.add(r.start), r.len(), self.cols, self.ld)
        };
        ranges.iter().map(block).collect()
    }

    /// Splits into four quadrants at `(i, j)`:
    /// `(top-left, top-right, bottom-left, bottom-right)`.
    #[inline]
    #[track_caller]
    pub fn split_quad(
        self,
        i: usize,
        j: usize,
    ) -> (MatViewMut<'a, T>, MatViewMut<'a, T>, MatViewMut<'a, T>, MatViewMut<'a, T>) {
        let (top, bottom) = self.split_at_row(i);
        let (tl, tr) = top.split_at_col(j);
        let (bl, br) = bottom.split_at_col(j);
        (tl, tr, bl, br)
    }

    /// Fills every element with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Copies `src` into this view. Shapes must match.
    #[track_caller]
    pub fn copy_from(&mut self, src: MatView<'_, T>) {
        assert_eq!(self.rows, src.nrows(), "row count mismatch in copy_from");
        assert_eq!(self.cols, src.ncols(), "column count mismatch in copy_from");
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// Swaps rows `i1` and `i2` over all columns.
    #[track_caller]
    pub fn swap_rows(&mut self, i1: usize, i2: usize) {
        assert!(i1 < self.rows && i2 < self.rows, "swap_rows out of bounds");
        if i1 == i2 {
            return;
        }
        for j in 0..self.cols {
            unsafe {
                let p1 = self.ptr.add(i1 + j * self.ld);
                let p2 = self.ptr.add(i2 + j * self.ld);
                core::ptr::swap(p1, p2);
            }
        }
    }
}

impl<T: Scalar> fmt::Debug for MatView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatView({}x{}, ld={})", self.rows, self.cols, self.ld)
    }
}

impl<T: Scalar> fmt::Debug for MatViewMut<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatViewMut({}x{}, ld={})", self.rows, self.cols, self.ld)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols).map(|x| x as f64).collect()
    }

    #[test]
    fn view_indexing_is_column_major() {
        let data = buf(3, 2);
        let v = MatView::from_slice(&data, 3, 2);
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(2, 0), 2.0);
        assert_eq!(v.at(0, 1), 3.0);
        assert_eq!(v.at(2, 1), 5.0);
    }

    #[test]
    fn split_rows_gives_disjoint_blocks_in_the_order_named() {
        let mut data = buf(6, 2);
        let mut v = MatViewMut::from_slice(&mut data, 6, 2);
        let blocks = v.rb().split_rows(&[4..6, 0..1, 2..2]);
        assert_eq!(blocks.iter().map(|b| b.nrows()).collect::<Vec<_>>(), [2, 1, 0]);
        assert_eq!((blocks[0].at(0, 1), blocks[1].at(0, 0)), (10.0, 0.0));
        let overlap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.rb().split_rows(&[0..3, 2..4]);
        }));
        assert!(overlap.is_err(), "overlapping row blocks are refused");
    }

    #[test]
    fn subview_respects_leading_dimension() {
        let data = buf(4, 4);
        let v = MatView::from_slice(&data, 4, 4);
        let s = v.sub(1, 2, 2, 2);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 2);
        assert_eq!(s.ld(), 4);
        assert_eq!(s.at(0, 0), v.at(1, 2));
        assert_eq!(s.at(1, 1), v.at(2, 3));
    }

    #[test]
    fn mutable_split_row_and_col_are_disjoint() {
        let mut data = vec![0.0; 16];
        let v = MatViewMut::from_slice(&mut data, 4, 4);
        let (mut top, mut bottom) = v.split_at_row(2);
        top.fill(1.0);
        bottom.fill(2.0);
        assert_eq!(data[0], 1.0);
        assert_eq!(data[2], 2.0);

        let v = MatViewMut::from_slice(&mut data, 4, 4);
        let (mut l, mut r) = v.split_at_col(1);
        l.fill(3.0);
        r.fill(4.0);
        assert_eq!(data[3], 3.0);
        assert_eq!(data[4], 4.0);
    }

    #[test]
    fn split_quad_covers_everything() {
        let mut data = vec![0.0; 12];
        let v = MatViewMut::from_slice(&mut data, 3, 4);
        let (mut a, mut b, mut c, mut d) = v.split_quad(1, 2);
        a.fill(1.0);
        b.fill(2.0);
        c.fill(3.0);
        d.fill(4.0);
        let m = MatView::from_slice(&data, 3, 4);
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(0, 3), 2.0);
        assert_eq!(m.at(2, 1), 3.0);
        assert_eq!(m.at(2, 2), 4.0);
    }

    #[test]
    fn swap_rows_touches_all_columns() {
        let mut data = buf(3, 3);
        let mut v = MatViewMut::from_slice(&mut data, 3, 3);
        v.swap_rows(0, 2);
        assert_eq!(v.at(0, 0), 2.0);
        assert_eq!(v.at(2, 0), 0.0);
        assert_eq!(v.at(0, 2), 8.0);
        assert_eq!(v.at(2, 2), 6.0);
    }

    #[test]
    fn copy_from_round_trips() {
        let src_data = buf(3, 2);
        let src = MatView::from_slice(&src_data, 3, 2);
        let mut dst_data = vec![0.0; 6];
        let mut dst = MatViewMut::from_slice(&mut dst_data, 3, 2);
        dst.copy_from(src);
        assert_eq!(src_data, dst_data);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let data = buf(2, 2);
        let v = MatView::from_slice(&data, 2, 2);
        let _ = v.at(2, 0);
    }

    #[test]
    fn empty_views_are_harmless() {
        let data: Vec<f64> = vec![];
        let v = MatView::from_slice(&data, 0, 0);
        assert!(v.is_empty());
        assert_eq!(v.max_abs(), 0.0);
        assert_eq!(v.to_vec(), Vec::<f64>::new());
    }

    #[test]
    fn max_abs_skips_nan_at_every_length_and_lane() {
        // Lengths around the 8-lane body, the maximum (negative) and a NaN
        // visiting every position; an all-NaN slice reads 0.
        for len in 1..20 {
            for at in 0..len {
                let mut x = vec![0.5f64; len];
                x[at] = -3.0;
                x[(at + 1) % len] = if len > 1 { f64::NAN } else { -3.0 };
                assert_eq!(max_abs(&x), 3.0, "len {len} at {at}");
            }
            assert_eq!(max_abs(&vec![f32::NAN; len]), 0.0);
        }
        assert_eq!(max_abs::<f64>(&[]), 0.0);
    }

    #[test]
    fn to_vec_is_column_major() {
        let data = buf(4, 3);
        let v = MatView::from_slice(&data, 4, 3);
        let s = v.sub(1, 1, 2, 2);
        assert_eq!(s.to_vec(), vec![5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn f32_views_share_the_same_api() {
        let mut data: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let mut v = MatViewMut::from_slice(&mut data, 3, 2);
        v.set(0, 1, 9.5);
        assert_eq!(v.at(0, 1), 9.5f32);
        assert_eq!(v.as_ref().max_abs(), 9.5f32);
    }
}

//! Owned column-major dense matrix, generic over [`Scalar`] (default `f64`).

use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use core::fmt;
use core::ops::{Index, IndexMut};

/// Owned dense matrix stored column-major with leading dimension equal to the
/// row count (a "packed" LAPACK matrix). Generic over the element type; the
/// `f64` default keeps every pre-existing call site source-compatible.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Matrix<T> {
    /// Allocates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![T::ZERO; rows * cols], rows, cols }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, column)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { data, rows, cols }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { data, rows, cols }
    }

    /// Builds from row-major data (convenient for literals in tests).
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self::from_fn(rows, cols, |i, j| data[i * cols + j])
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

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying column-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatView<'_, T> {
        MatView::from_slice(&self.data, self.rows, self.cols)
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatViewMut<'_, T> {
        MatViewMut::from_slice(&mut self.data, self.rows, self.cols)
    }

    /// Immutable view of the `r × c` block starting at `(i, j)`.
    #[inline]
    pub fn block(&self, i: usize, j: usize, r: usize, c: usize) -> MatView<'_, T> {
        self.view().sub(i, j, r, c)
    }

    /// Mutable view of the `r × c` block starting at `(i, j)`.
    #[inline]
    pub fn block_mut(&mut self, i: usize, j: usize, r: usize, c: usize) -> MatViewMut<'_, T> {
        self.view_mut().into_sub(i, j, r, c)
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * rhs` (naive reference product; kernels live in
    /// `ca-kernels`, this is for tests and small examples only).
    ///
    /// # Panics
    /// If inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for j in 0..rhs.cols {
            for k in 0..self.cols {
                let r = rhs[(k, j)];
                if r == T::ZERO {
                    continue;
                }
                for i in 0..self.rows {
                    out[(i, j)] += self[(i, k)] * r;
                }
            }
        }
        out
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    /// If shapes disagree.
    pub fn sub_matrix(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b).collect();
        Matrix::from_vec(data, self.rows, self.cols)
    }

    /// Swaps rows `i1` and `i2`.
    pub fn swap_rows(&mut self, i1: usize, i2: usize) {
        self.view_mut().swap_rows(i1, i2);
    }

    /// Extracts the lower-triangular factor with unit diagonal from a packed
    /// LU factorization result (the strictly-lower part of `self`, with ones
    /// on the diagonal), as an `m × min(m, n)` matrix.
    pub fn unit_lower(&self) -> Matrix<T> {
        let k = self.rows.min(self.cols);
        Matrix::from_fn(self.rows, k, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                self[(i, j)]
            } else {
                T::ZERO
            }
        })
    }

    /// Extracts the upper-triangular factor from a packed LU/QR result, as a
    /// `min(m, n) × n` matrix.
    pub fn upper(&self) -> Matrix<T> {
        let k = self.rows.min(self.cols);
        Matrix::from_fn(k, self.cols, |i, j| if i <= j { self[(i, j)] } else { T::ZERO })
    }

    /// Stacks `blocks` vertically. All blocks must share a column count.
    ///
    /// # Panics
    /// If `blocks` is empty or column counts disagree.
    pub fn vstack(blocks: &[MatView<'_, T>]) -> Matrix<T> {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].ncols();
        let rows: usize = blocks.iter().map(|b| b.nrows()).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for b in blocks {
            assert_eq!(b.ncols(), cols, "vstack column mismatch");
            out.block_mut(r0, 0, b.nrows(), cols).copy_from(*b);
            r0 += b.nrows();
        }
        out
    }

    /// Lossless-to-`f64` copy, for precision-independent norms/residuals
    /// (the accuracy suite measures f32 factorizations in f64 arithmetic).
    pub fn to_f64(&self) -> Matrix<f64> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].to_f64())
    }

    /// Rounding conversion from an `f64` matrix (test-input generation for
    /// the f32 tier: generate in f64, round once).
    pub fn from_f64(src: &Matrix<f64>) -> Matrix<T> {
        Matrix::from_fn(src.nrows(), src.ncols(), |i, j| T::from_f64(src[(i, j)]))
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    #[inline]
    #[track_caller]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    #[track_caller]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &mut self.data[i + j * self.rows]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let rmax = self.rows.min(8);
        let cmax = self.cols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if cmax < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if rmax < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

// The vendored serde_derive stand-in cannot handle type parameters, so the
// value-tree impls are written out for the one element type that is ever
// persisted (job snapshots and the service wire format are f64-only).
#[cfg(feature = "serde")]
impl serde::Serialize for Matrix<f64> {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            (String::from("data"), serde::Serialize::to_value(&self.data)),
            (String::from("rows"), serde::Serialize::to_value(&self.rows)),
            (String::from("cols"), serde::Serialize::to_value(&self.cols)),
        ])
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Matrix<f64> {
    fn deserialize(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        let data: Vec<f64> = serde::Deserialize::deserialize(v.field("data")?)?;
        let rows: usize = serde::Deserialize::deserialize(v.field("rows")?)?;
        let cols: usize = serde::Deserialize::deserialize(v.field("cols")?)?;
        if data.len() != rows * cols {
            return Err(serde::value::Error::new(format!(
                "matrix buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { data, rows, cols })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn from_rows_matches_index() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(0, 2)], 3.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(1, 2)], 6.0);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(4, 2, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(2, 2, &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn lu_factor_extraction() {
        // Packed LU-like content: diag+upper is U, strict lower is L.
        let a = Matrix::from_rows(3, 3, &[2.0, 1.0, 1.0, 0.5, 2.0, 1.0, 0.5, 0.5, 2.0]);
        let l = a.unit_lower();
        let u = a.upper();
        assert_eq!(l[(0, 0)], 1.0);
        assert_eq!(l[(1, 0)], 0.5);
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(u[(0, 0)], 2.0);
        assert_eq!(u[(1, 0)], 0.0);
        assert_eq!(u[(1, 2)], 1.0);
    }

    #[test]
    fn rectangular_factor_shapes() {
        let tall: Matrix = Matrix::zeros(5, 3);
        assert_eq!(tall.unit_lower().nrows(), 5);
        assert_eq!(tall.unit_lower().ncols(), 3);
        assert_eq!(tall.upper().nrows(), 3);
        assert_eq!(tall.upper().ncols(), 3);
        let wide: Matrix = Matrix::zeros(3, 5);
        assert_eq!(wide.unit_lower().ncols(), 3);
        assert_eq!(wide.upper().nrows(), 3);
        assert_eq!(wide.upper().ncols(), 5);
    }

    #[test]
    fn vstack_stacks_in_order() {
        let a = Matrix::from_rows(1, 2, &[1.0, 2.0]);
        let b = Matrix::from_rows(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let s = Matrix::vstack(&[a.view(), b.view()]);
        assert_eq!(s, Matrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
    }

    #[test]
    fn block_views_alias_owned_storage() {
        let mut a: Matrix = Matrix::zeros(4, 4);
        a.block_mut(1, 1, 2, 2).fill(7.0);
        assert_eq!(a[(1, 1)], 7.0);
        assert_eq!(a[(2, 2)], 7.0);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(3, 3)], 0.0);
    }

    #[test]
    fn f32_matrix_and_conversions() {
        let a64 = Matrix::from_rows(2, 2, &[1.0, 2.5, -3.0, 0.125]);
        let a32: Matrix<f32> = Matrix::from_f64(&a64);
        assert_eq!(a32[(0, 1)], 2.5f32);
        assert_eq!(a32.to_f64(), a64);
        let id: Matrix<f32> = Matrix::identity(3);
        assert_eq!(id.matmul(&id), id);
    }
}

//! Triangular matrix products (`dtrmm` equivalents) on the packed GEMM path.
//!
//! Every O(k²n) triangular product of the QR stack — `V₁ᵀ·C`, `op(T)·W` and
//! `V₁·W` in [`crate::larfb_left`], the `T₃` assembly of [`crate::geqr3`],
//! the triangle-on-triangle products of a TSQR tree node — runs here. Like
//! [`crate::trsm_left_lower_unit`], the triangle is carved on its own
//! dimension `k` into `TRMM_NB`-wide blocks and each block row (column, on
//! the right side) of `op(A)` becomes one [`gemm`](crate::gemm) over just
//! its nonzero extent, so the arithmetic runs on the microkernel and the
//! blocks wholly inside the zero half are skipped. The product is out of
//! place, `C := α·op(A)·B + β·C`, because the packed path may not alias its
//! output with an operand.
//!
//! The split is on `k` only and never on the columns of `B`: an element of
//! `C` sees the same operations in the same order however the trailing
//! columns are partitioned among callers, which is what keeps the DAG, the
//! sequential and the out-of-core factorizations bitwise identical.

use crate::gemm::{gemm_on, spec_named, Kernel, KernelSpec, Trans};
use ca_matrix::{MatView, MatViewMut, Scalar};

/// Diagonal-block order: a multiple of every backend's tile height, and
/// deep enough that each block's `gemm` amortizes packing its `B` rows.
pub(crate) const TRMM_NB: usize = 32;

/// Which side of `B` the triangle multiplies from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `C := α·op(A)·B + β·C`.
    Left,
    /// `C := α·B·op(A) + β·C`.
    Right,
}

/// Which half of the stored `k × k` block is the triangle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangle {
    /// Upper triangular with its stored diagonal; the strictly-lower part
    /// is ignored (a compact-WY `T`, an `R` factor).
    Upper,
    /// Unit lower triangular: the strictly-lower part is read, the diagonal
    /// is an implicit 1 and the upper part is ignored (the top block of a
    /// reflector set stored under its `R`).
    UnitLower,
}

/// Which half of the stored square block is the triangle of a
/// [`trsm`](crate::trsm) (the other half is never read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uplo {
    /// Upper triangular.
    Upper,
    /// Lower triangular.
    Lower,
}

/// Whether the diagonal of a [`trsm`](crate::trsm) triangle is stored, or an
/// implicit 1 (the stored one is then never read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Stored diagonal.
    NonUnit,
    /// Implicit unit diagonal.
    Unit,
}

/// `C := α·op(A)·B + β·C` (`Side::Left`) or `C := α·B·op(A) + β·C`
/// (`Side::Right`) with `A` a `k × k` triangle of kind `tri`. `beta == 0`
/// overwrites `C` without reading it, like [`gemm`](crate::gemm).
///
/// # Panics
/// If `A` is not square or the shapes of `B` and `C` do not match it.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub fn trmm<T: Kernel>(
    side: Side,
    tri: Triangle,
    trans: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    trmm_on(T::spec(), side, tri, trans, alpha, a, b, beta, c);
}

/// [`trmm`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends) — the
/// in-process hook behind the backend × precision conformance matrix.
///
/// # Panics
/// If `name` is not a backend this host supports.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub fn trmm_with_backend<T: Kernel>(
    name: &str,
    side: Side,
    tri: Triangle,
    trans: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    trmm_on(spec_named(name), side, tri, trans, alpha, a, b, beta, c);
}

#[allow(clippy::too_many_arguments)] // BLAS-style call convention
fn trmm_on<T: Kernel>(
    spec: &KernelSpec<T>,
    side: Side,
    tri: Triangle,
    trans: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    let k = a.nrows();
    T::with_work_buf(|work| {
        let dense = densify(tri, a, work.scratch(k * k));
        tri_gemm(spec, side, tri, trans, alpha, dense, b, beta, c);
    });
}

/// Copies the triangle `tri` of the square block `a` into `out` as an
/// explicit dense matrix: the other half zeroed inside the diagonal
/// `TRMM_NB` blocks (all [`tri_gemm`] reads of it), the unit diagonal
/// written.
///
/// # Panics
/// If `a` is not square or `out` does not hold exactly `k * k` elements.
pub(crate) fn densify<'a, T: Scalar>(
    tri: Triangle,
    a: MatView<'_, T>,
    out: &'a mut [T],
) -> MatView<'a, T> {
    let k = a.nrows();
    assert_eq!(a.ncols(), k, "triangle must be square");
    assert_eq!(out.len(), k * k, "dense triangle scratch must be k x k");
    for (j, dst) in out.chunks_exact_mut(k.max(1)).enumerate() {
        let src = a.col(j);
        let block = j - j % TRMM_NB;
        match tri {
            Triangle::Upper => {
                dst[..=j].copy_from_slice(&src[..=j]);
                dst[j + 1..(block + TRMM_NB).min(k)].fill(T::ZERO);
            }
            Triangle::UnitLower => {
                dst[block..j].fill(T::ZERO);
                dst[j] = T::ONE;
                dst[j + 1..].copy_from_slice(&src[j + 1..]);
            }
        }
    }
    MatView::from_slice(out, k, k)
}

/// The blocked product behind [`trmm`] for an `A` whose other half (and
/// unit diagonal) is *stored*: `tri` only says which half of `A` holds the
/// entries. `A` may be trapezoidal (`r × c`, `A[i, j] = 0` for `i > j` when
/// upper), which is the shape of a TSQR tree node's stacked reflector
/// blocks. Each `TRMM_NB` block row (`Left`) or block column (`Right`) of
/// `op(A)` is one `gemm` over the block's nonzero extent.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub(crate) fn tri_gemm<T: Kernel>(
    spec: &KernelSpec<T>,
    side: Side,
    tri: Triangle,
    trans: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    // op(A) is `split × inner` on the left and `inner × split` on the right.
    let (ar, ac) = match trans {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    };
    let (split, inner) = match side {
        Side::Left => (ar, ac),
        Side::Right => (ac, ar),
    };
    let (m, n) = (c.nrows(), c.ncols());
    match side {
        Side::Left => {
            assert_eq!((b.nrows(), b.ncols()), (inner, n), "trmm: B must be {inner} x {n}");
            assert_eq!(m, split, "trmm: C must have {split} rows");
        }
        Side::Right => {
            assert_eq!((b.nrows(), b.ncols()), (m, inner), "trmm: B must be {m} x {inner}");
            assert_eq!(n, split, "trmm: C must have {split} columns");
        }
    }
    // Block `s0..s1` of the split dimension meets entries of op(A) at inner
    // indices `s0..` when op(A) holds its entries where inner >= split, and
    // at `..s1` otherwise.
    let op_upper = (tri == Triangle::Upper) == (trans == Trans::No);
    let inner_from_split = op_upper == (side == Side::Left);
    let mut s0 = 0;
    while s0 < split {
        let s1 = (s0 + TRMM_NB).min(split);
        let (i0, i1) = if inner_from_split { (s0.min(inner), inner) } else { (0, s1.min(inner)) };
        // The block of op(A), as stored.
        let a_blk = match (side, trans) {
            (Side::Left, Trans::No) | (Side::Right, Trans::Yes) => a.sub(s0, i0, s1 - s0, i1 - i0),
            (Side::Left, Trans::Yes) | (Side::Right, Trans::No) => a.sub(i0, s0, i1 - i0, s1 - s0),
        };
        match side {
            Side::Left => {
                let c_blk = c.sub(s0, 0, s1 - s0, n);
                gemm_on(
                    spec,
                    trans,
                    Trans::No,
                    alpha,
                    a_blk,
                    b.sub(i0, 0, i1 - i0, n),
                    beta,
                    c_blk,
                );
            }
            Side::Right => {
                let c_blk = c.sub(0, s0, m, s1 - s0);
                gemm_on(
                    spec,
                    Trans::No,
                    trans,
                    alpha,
                    b.sub(0, i0, m, i1 - i0),
                    a_blk,
                    beta,
                    c_blk,
                );
            }
        }
        s0 = s1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, Matrix};

    /// The triangle as an explicit dense matrix (junk half dropped).
    fn explicit(tri: Triangle, a: &Matrix) -> Matrix {
        match tri {
            Triangle::Upper => a.upper(),
            Triangle::UnitLower => a.unit_lower(),
        }
    }

    #[test]
    fn every_variant_matches_dense_product_across_block_boundaries() {
        let mut rng = ca_matrix::seeded_rng(5);
        for &k in &[1, TRMM_NB - 1, TRMM_NB, TRMM_NB + 1, 2 * TRMM_NB + 5] {
            let a = ca_matrix::random_uniform(k, k, &mut rng);
            for tri in [Triangle::Upper, Triangle::UnitLower] {
                for trans in [Trans::No, Trans::Yes] {
                    let mut op = explicit(tri, &a);
                    if trans == Trans::Yes {
                        op = op.transpose();
                    }
                    let n = 7;
                    let c0 = ca_matrix::random_uniform(k, n, &mut rng);
                    let b = ca_matrix::random_uniform(k, n, &mut rng);
                    let want =
                        Matrix::from_fn(k, n, |i, j| 0.5 * c0[(i, j)] - op.matmul(&b)[(i, j)]);
                    let mut c = c0.clone();
                    trmm(Side::Left, tri, trans, -1.0, a.view(), b.view(), 0.5, c.view_mut());
                    let err = norm_max(c.sub_matrix(&want).view());
                    assert!(err < 1e-13 * k as f64, "left {tri:?} {trans:?} k={k}: {err}");

                    let (bt, c0t) = (b.transpose(), c0.transpose());
                    let want =
                        Matrix::from_fn(n, k, |i, j| 0.5 * c0t[(i, j)] - bt.matmul(&op)[(i, j)]);
                    let mut c = c0t.clone();
                    trmm(Side::Right, tri, trans, -1.0, a.view(), bt.view(), 0.5, c.view_mut());
                    let err = norm_max(c.sub_matrix(&want).view());
                    assert!(err < 1e-13 * k as f64, "right {tri:?} {trans:?} k={k}: {err}");
                }
            }
        }
    }

    #[test]
    fn junk_half_and_stale_output_are_ignored() {
        let k = TRMM_NB + 3;
        let mut rng = ca_matrix::seeded_rng(6);
        let a = ca_matrix::random_uniform(k, k, &mut rng);
        let b = ca_matrix::random_uniform(k, 4, &mut rng);
        for tri in [Triangle::Upper, Triangle::UnitLower] {
            let clean = explicit(tri, &a);
            // NaN in the ignored half (and, for unit-lower, on the diagonal).
            let dirty = Matrix::from_fn(k, k, |i, j| match tri {
                Triangle::Upper if i <= j => a[(i, j)],
                Triangle::UnitLower if i > j => a[(i, j)],
                _ => f64::NAN,
            });
            let mut c = Matrix::from_fn(k, 4, |_, _| f64::NAN);
            trmm(Side::Left, tri, Trans::No, 1.0, dirty.view(), b.view(), 0.0, c.view_mut());
            let err = norm_max(c.sub_matrix(&clean.matmul(&b)).view());
            assert!(err < 1e-13 * k as f64, "{tri:?}: {err}");
        }
    }

    #[test]
    fn trapezoid_with_stored_zeros_skips_its_zero_blocks() {
        // The tree-node shape: `r x c` upper trapezoid, r < c, both ops.
        let (r, c, n) = (TRMM_NB + 7, 2 * TRMM_NB + 9, 5);
        let mut rng = ca_matrix::seeded_rng(7);
        let full = ca_matrix::random_uniform(r, c, &mut rng);
        let v = Matrix::from_fn(r, c, |i, j| if i <= j { full[(i, j)] } else { 0.0 });
        let spec = <f64 as Kernel>::spec();

        let x = ca_matrix::random_uniform(c, n, &mut rng);
        let mut got = Matrix::zeros(r, n);
        tri_gemm(
            spec,
            Side::Left,
            Triangle::Upper,
            Trans::No,
            1.0,
            v.view(),
            x.view(),
            0.0,
            got.view_mut(),
        );
        assert!(norm_max(got.sub_matrix(&v.matmul(&x)).view()) < 1e-12);

        let y = ca_matrix::random_uniform(r, n, &mut rng);
        let mut got = Matrix::zeros(c, n);
        tri_gemm(
            spec,
            Side::Left,
            Triangle::Upper,
            Trans::Yes,
            1.0,
            v.view(),
            y.view(),
            0.0,
            got.view_mut(),
        );
        assert!(norm_max(got.sub_matrix(&v.transpose().matmul(&y)).view()) < 1e-12);
    }

    #[test]
    fn empty_shapes_are_noops() {
        let a: Matrix = Matrix::zeros(0, 0);
        let b: Matrix = Matrix::zeros(0, 3);
        let mut c: Matrix = Matrix::zeros(0, 3);
        trmm(Side::Left, Triangle::Upper, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view_mut());
        let a = Matrix::identity(4);
        let b: Matrix = Matrix::zeros(4, 0);
        let mut c: Matrix = Matrix::zeros(4, 0);
        trmm(
            Side::Left,
            Triangle::UnitLower,
            Trans::Yes,
            1.0,
            a.view(),
            b.view(),
            0.0,
            c.view_mut(),
        );
    }
}

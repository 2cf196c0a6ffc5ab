//! Triangular solves with multiple right-hand sides (`dtrsm` equivalents).
//!
//! One routine, [`trsm`], solves `op(A)·X = B` ([`Side::Left`]) or
//! `X·op(A) = B` ([`Side::Right`]) in place for every `(side, uplo, trans,
//! diag)`; the five named functions the factorizations call are instances of
//! it. Like [`crate::trmm`] (DESIGN.md §10, "Triangular solves"): the *free*
//! dimension of `B` (rows on the right, columns on the left) is walked in
//! [`TRSM_SLAB`]-wide slabs that stay in L1/L2 through the whole solve; in a
//! slab the triangle is halved recursively, every off-diagonal block one
//! [`gemm_on`]; at order ≤ [`TRSM_BASE`] a register-blocked substitution
//! compiled for the dispatched backend ([`on_backend`]) runs.
//!
//! The base case solves the free dimension in register blocks sized to it,
//! a left-side block through a transposed stack copy (the crate's
//! small-shape toolkit, `small.rs`, DESIGN.md §10 "Small shapes"); which
//! block an element lands in decides nothing about its operations.
//!
//! Only the triangle's dimension is split, at points that depend on its order
//! alone, and every element of the free dimension sees the same operations in
//! the same order with the same rounding: a solve equals, bit for bit, the
//! same solve on any partition of its free dimension (CALU's `L`-block row
//! groups, its `U`-row column chunks). No data-dependent skips — `0·∞` is
//! NaN wherever the entry sits — and a zero diagonal yields `inf`/`NaN` as in
//! BLAS, never a panic. No thread-local scratch is held.

use crate::gemm::{gemm_on, on_backend, spec_named, Kernel, KernelSpec, Trans};
use crate::small::{chunk, update, walk, Block, Rows, HEIGHTS};
use crate::trmm::{Diag, Side, Uplo};
use ca_matrix::{MatView, MatViewMut, Scalar};

/// Order at which the recursion stops in one register-blocked substitution:
/// a multiple of every backend's `mr` and `nr`.
pub const TRSM_BASE: usize = 16;
/// Slab width along the free dimension: two `MC` row blocks of the packed
/// path, about 200 KiB of `B` at order 100 in f64.
pub const TRSM_SLAB: usize = 2 * crate::gemm::MC;

/// One solve's flags.
pub(crate) type Variant = (Side, Uplo, Trans, Diag);
/// The base case's copy of its triangle: `[j][k]` is what solved column `k`
/// contributes to column `j` of the right-side form `X·M = B`.
type Table<T> = [[T; TRSM_BASE]; TRSM_BASE];

/// Whether column `j` of that `M` is column `j` of `A` as stored (else row
/// `j`): `M` is `op(A)` on the right, `op(A)ᵀ` on the left.
fn direct((side, _, trans, _): Variant) -> bool {
    (side == Side::Right) == (trans == Trans::No)
}

/// Whether `M` is upper triangular: substitution runs from index 0 up, and
/// the head of a split triangle is solved before its tail.
fn forward(v: Variant) -> bool {
    (v.1 == Uplo::Upper) == direct(v)
}

/// Solves `op(A)·X = B` (`Side::Left`) or `X·op(A) = B` (`Side::Right`) in
/// place, `A` a square triangle of kind `(uplo, diag)`.
///
/// # Panics
/// If `A` is not square or its order differs from `B`'s rows (left) or
/// columns (right).
pub fn trsm<T: Kernel>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm_on(T::spec(), (side, uplo, trans, diag), a, b);
}

/// [`trsm`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends) — the hook
/// behind the backend × precision conformance matrix.
///
/// # Panics
/// Like [`trsm`], or if `name` is not a backend this host supports.
pub fn trsm_with_backend<T: Kernel>(
    name: &str,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm_on(spec_named(name), (side, uplo, trans, diag), a, b);
}

/// [`trsm`] on `spec`'s backend.
pub(crate) fn trsm_on<T: Kernel>(
    spec: &KernelSpec<T>,
    v: Variant,
    a: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
) {
    let (n, left) = (a.nrows(), v.0 == Side::Left);
    assert_eq!(a.ncols(), n, "trsm: triangle must be square");
    let (free, fixed) = if left { (b.ncols(), b.nrows()) } else { (b.nrows(), b.ncols()) };
    assert_eq!(
        fixed, n,
        "trsm: B must have the triangle's order in rows (left) or columns (right)"
    );
    for f0 in (0..free).step_by(TRSM_SLAB) {
        let f = TRSM_SLAB.min(free - f0);
        solve(spec, v, a, if left { b.sub(0, f0, n, f) } else { b.sub(f0, 0, f, n) });
    }
}

/// One slab: halve the triangle, solve the half the substitution reaches
/// first, fold it into the other half with one `gemm`, solve that.
fn solve<T: Kernel>(spec: &KernelSpec<T>, v: Variant, a: MatView<'_, T>, b: MatViewMut<'_, T>) {
    let n = a.nrows();
    if n <= TRSM_BASE {
        // SAFETY: `spec` came from `Kernel::spec` or `spec_named`, which
        // both checked that this CPU runs its backend.
        return unsafe { (spec.trsm_base)(v, a, b) };
    }
    let (side, uplo, trans, _) = v;
    let n1 = (n / 2).next_multiple_of(TRSM_BASE);
    let (a_head, a_tail) = (a.sub(0, 0, n1, n1), a.sub(n1, n1, n - n1, n - n1));
    let off = if uplo == Uplo::Upper { a.sub(0, n1, n1, n - n1) } else { a.sub(n1, 0, n - n1, n1) };
    let (head, tail) = if side == Side::Left { b.split_at_row(n1) } else { b.split_at_col(n1) };
    let (a_src, mut src, a_dst, mut dst) =
        if forward(v) { (a_head, head, a_tail, tail) } else { (a_tail, tail, a_head, head) };
    solve(spec, v, a_src, src.rb());
    match side {
        Side::Left => gemm_on(spec, trans, Trans::No, -T::ONE, off, src.as_ref(), T::ONE, dst.rb()),
        Side::Right => {
            gemm_on(spec, Trans::No, trans, -T::ONE, src.as_ref(), off, T::ONE, dst.rb())
        }
    }
    solve(spec, v, a_dst, dst);
}

on_backend! {
    /// Substitution with a triangle of order ≤ [`TRSM_BASE`] over a whole slab.
    mod base = base_body(v: Variant, a: MatView<'_, T>, b: MatViewMut<'_, T>)
}

#[inline(always)]
fn base_body<T: Scalar, const FMA: bool>(v: Variant, a: MatView<'_, T>, b: MatViewMut<'_, T>) {
    let (w, fwd) = (a.nrows(), forward(v));
    // `m[j][k]`: what solved column `k` contributes to column `j` of the
    // right-side form `X·M = B`.
    let at = |j: usize, k: usize| if direct(v) { a.at(k, j) } else { a.at(j, k) };
    let mut inv = [T::ONE; TRSM_BASE];
    if v.3 == Diag::NonUnit {
        (0..w).for_each(|j| inv[j] = T::ONE / a.at(j, j));
    }
    let mut m: Table<T> = [[T::ZERO; TRSM_BASE]; TRSM_BASE];
    for (j, row) in m.iter_mut().enumerate().take(w) {
        for k in if fwd { 0..j } else { j + 1..w } {
            row[k] = at(j, k);
        }
    }
    let right = v.0 == Side::Right;
    let free = if right { b.nrows() } else { b.ncols() };
    walk(0..free, HEIGHTS, false, &mut Solve::<T, FMA> { right, fwd, w, m: &m, inv: &inv, b });
}

/// The free dimension in register blocks: rows of `B` on the right, in
/// place; columns on the left, through a transposed stack copy that puts
/// them in the lanes.
struct Solve<'a, T: Scalar, const FMA: bool> {
    right: bool,
    fwd: bool,
    w: usize,
    m: &'a Table<T>,
    inv: &'a [T; TRSM_BASE],
    b: MatViewMut<'a, T>,
}

impl<T: Scalar, const FMA: bool> Rows for Solve<'_, T, FMA> {
    /// Solves `X·M = B` for `R` rows: each column is loaded once, takes the
    /// solved columns' contributions in registers, is scaled, stored.
    #[inline(always)]
    fn rows<const R: usize>(&mut self, f0: usize) {
        let (w, m, inv) = (self.w, self.m, self.inv);
        let mut blk = Block::<T, R, TRSM_BASE>::new();
        let mut x = if self.right {
            self.b.sub(f0, 0, R, w)
        } else {
            blk.load_t(self.b.as_ref().sub(0, f0, w, R));
            MatViewMut::from_slice(blk.cols_mut().as_flattened_mut(), R, w)
        };
        let col = |s: usize| if self.fwd { s } else { w - 1 - s };
        for j in (0..w).map(col) {
            let mut acc = *chunk::<T, R>(x.col(j), 0);
            let solved = (0..w).map(col).take_while(|&k| k != j);
            update::<T, FMA, R>(&mut acc, solved.map(|k| (chunk(x.col(k), 0), m[j][k])));
            acc.iter_mut().for_each(|v| *v *= inv[j]);
            x.col_mut(j).copy_from_slice(&acc);
        }
        if !self.right {
            blk.store_t(self.b.sub(0, f0, w, R));
        }
    }
}

/// `B := B·U⁻¹`, `U` upper (`dtrsm('R','U','N','N')`) — Task L of CALU: `L₂₁ = A₂₁ U₁₁⁻¹`.
pub fn trsm_right_upper_notrans<T: Kernel>(u: MatView<'_, T>, b: MatViewMut<'_, T>) {
    trsm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, u, b);
}

/// `B := L⁻¹·B`, `L` unit lower (`dtrsm('L','L','N','U')`) — the `U` block row `U₁₂ = L₁₁⁻¹ A₁₂`.
pub fn trsm_left_lower_unit<T: Kernel>(l: MatView<'_, T>, b: MatViewMut<'_, T>) {
    trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, l, b);
}

/// `B := U⁻¹·B`, `U` upper (`dtrsm('L','U','N','N')`) — back substitution for solvers.
pub fn trsm_left_upper_notrans<T: Kernel>(u: MatView<'_, T>, b: MatViewMut<'_, T>) {
    trsm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, u, b);
}

/// `B := U⁻ᵀ·B`, `U` upper (`dtrsm('L','U','T','N')`) — first half of a transpose solve `AᵀX = B`.
pub fn trsm_left_upper_trans<T: Kernel>(u: MatView<'_, T>, b: MatViewMut<'_, T>) {
    trsm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, u, b);
}

/// `B := L⁻ᵀ·B`, `L` unit lower (`dtrsm('L','L','T','U')`) — second half of a transpose solve.
pub fn trsm_left_lower_trans_unit<T: Kernel>(l: MatView<'_, T>, b: MatViewMut<'_, T>) {
    trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::Unit, l, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::LANES;
    use ca_matrix::{norm_max, Matrix};

    /// A well-conditioned stored triangle of order `n`: off-diagonal entries
    /// of size `1/n`, diagonal in `[2, 3)`; NaN wherever `trsm` must not look
    /// (the other half, and the diagonal when it is implicit).
    fn stored(n: usize, uplo: Uplo, diag: Diag, seed: u64) -> Matrix {
        let r = ca_matrix::random_uniform(n, n, &mut ca_matrix::seeded_rng(seed));
        Matrix::from_fn(n, n, |i, j| match (i == j, (i < j) == (uplo == Uplo::Upper)) {
            (true, _) if diag == Diag::Unit => f64::NAN,
            (true, _) => 2.0 + r[(i, j)].abs(),
            (false, true) => r[(i, j)] / n as f64,
            (false, false) => f64::NAN,
        })
    }

    /// `op(A)` as an explicit dense matrix (zeros and the unit diagonal
    /// written out).
    fn dense(a: &Matrix, uplo: Uplo, trans: Trans, diag: Diag) -> Matrix {
        let n = a.nrows();
        let t = Matrix::from_fn(n, n, |i, j| match (i == j, (i < j) == (uplo == Uplo::Upper)) {
            (true, _) if diag == Diag::Unit => 1.0,
            (true, _) | (false, true) => a[(i, j)],
            (false, false) => 0.0,
        });
        if trans == Trans::Yes {
            t.transpose()
        } else {
            t
        }
    }

    /// Plain substitution, no skips: solves `T·X = B` for a dense triangular `T`.
    fn reference_left(t: &Matrix, b: &Matrix) -> Matrix {
        let n = t.nrows();
        let lower = (0..n).all(|i| (i + 1..n).all(|j| t[(i, j)] == 0.0));
        let mut x = b.clone();
        for c in 0..b.ncols() {
            for s in 0..n {
                let i = if lower { s } else { n - 1 - s };
                let mut v = x[(i, c)];
                for k in if lower { 0..i } else { i + 1..n } {
                    v -= t[(i, k)] * x[(k, c)];
                }
                x[(i, c)] = v / t[(i, i)];
            }
        }
        x
    }

    fn reference(side: Side, t: &Matrix, b: &Matrix) -> Matrix {
        match side {
            Side::Left => reference_left(t, b),
            Side::Right => reference_left(&t.transpose(), &b.transpose()).transpose(),
        }
    }

    fn rhs(side: Side, n: usize, free: usize, seed: u64) -> Matrix {
        let (r, c) = if side == Side::Left { (n, free) } else { (free, n) };
        ca_matrix::random_uniform(r, c, &mut ca_matrix::seeded_rng(seed))
    }

    #[test]
    fn trsm_every_variant_matches_plain_substitution_across_base_and_slab_boundaries() {
        for &(n, free) in &[
            (1, 3),
            (TRSM_BASE - 1, LANES + 1),
            (TRSM_BASE + 1, 5),
            (2 * TRSM_BASE + 3, TRSM_SLAB + 1),
        ] {
            for (side, uplo, trans, diag) in variants() {
                let a = stored(n, uplo, diag, 7);
                let b = rhs(side, n, free, 8);
                let want = reference(side, &dense(&a, uplo, trans, diag), &b);
                let mut x = b.clone();
                trsm(side, uplo, trans, diag, a.view(), x.view_mut());
                let err = norm_max(x.sub_matrix(&want).view());
                assert!(
                    err < 1e-13 * n as f64,
                    "{side:?} {uplo:?} {trans:?} {diag:?} n={n} free={free}: {err}"
                );
            }
        }
    }

    /// Every `(side, uplo, trans, diag)`.
    fn variants() -> impl Iterator<Item = (Side, Uplo, Trans, Diag)> {
        let flags = [false, true];
        flags.into_iter().flat_map(move |s| {
            flags.into_iter().flat_map(move |u| {
                flags.into_iter().flat_map(move |t| {
                    flags.into_iter().map(move |d| {
                        (
                            if s { Side::Right } else { Side::Left },
                            if u { Uplo::Lower } else { Uplo::Upper },
                            if t { Trans::Yes } else { Trans::No },
                            if d { Diag::Unit } else { Diag::NonUnit },
                        )
                    })
                })
            })
        })
    }

    #[test]
    fn trsm_zero_times_infinity_is_nan_wherever_the_entry_sits() {
        // One infinite off-diagonal entry against an all-zero right-hand
        // side: the NaNs must be exactly plain substitution's, whether the
        // entry falls in a base-case block or in a gemm block.
        for &n in &[TRSM_BASE - 1, TRSM_BASE + 1, 2 * TRSM_BASE + 3] {
            for (side, uplo, trans, diag) in variants() {
                for &(lo, hi) in &[(0, 1), (1, n - 1), (n / 2, n - 1)] {
                    let mut a = stored(n, uplo, diag, 9);
                    let at = if uplo == Uplo::Upper { (lo, hi) } else { (hi, lo) };
                    a[at] = f64::INFINITY;
                    let b = Matrix::zeros(
                        if side == Side::Left { n } else { 3 },
                        if side == Side::Left { 3 } else { n },
                    );
                    let want = reference(side, &dense(&a, uplo, trans, diag), &b);
                    let mut x = b.clone();
                    trsm(side, uplo, trans, diag, a.view(), x.view_mut());
                    for (g, w) in x.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(
                            g.is_nan(),
                            w.is_nan(),
                            "{side:?} {uplo:?} {trans:?} {diag:?} n={n} inf at {at:?}"
                        );
                    }
                    assert!(
                        want.as_slice().iter().any(|w| w.is_nan()),
                        "the case must produce a NaN"
                    );
                }
            }
        }
    }

    #[test]
    fn trsm_zero_diagonal_yields_non_finite_blas_style() {
        for &n in &[3, TRSM_BASE + 2] {
            for (side, uplo, trans, _) in variants() {
                let mut a = stored(n, uplo, Diag::NonUnit, 10);
                a[(1, 1)] = 0.0;
                let mut b = rhs(side, n, 2, 11);
                trsm(side, uplo, trans, Diag::NonUnit, a.view(), b.view_mut());
                assert!(
                    b.as_slice().iter().any(|x| !x.is_finite()),
                    "{side:?} {uplo:?} {trans:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn trsm_does_not_depend_on_how_the_free_dimension_is_partitioned() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (n, free) = (TRSM_BASE + 5, TRSM_SLAB + LANES + 7);
        for (side, uplo, trans, diag) in variants() {
            let a = stored(n, uplo, diag, 12);
            let b = rhs(side, n, free, 13);
            let mut whole = b.clone();
            trsm(side, uplo, trans, diag, a.view(), whole.view_mut());
            let mut parts = b.clone();
            for w in [0, 1, 38, LANES + 38, TRSM_SLAB + 3, free].windows(2) {
                let part = match side {
                    Side::Left => parts.block_mut(0, w[0], n, w[1] - w[0]),
                    Side::Right => parts.block_mut(w[0], 0, w[1] - w[0], n),
                };
                trsm(side, uplo, trans, diag, a.view(), part);
            }
            assert_eq!(bits(&whole), bits(&parts), "{side:?} {uplo:?} {trans:?} {diag:?}");
        }
        // Free dimensions below `LANES` (every register-block size of the
        // base case, and the remainders between them): each right-hand side
        // solved alone gives the bits of the whole solve.
        for free in [1, 7, 8, 9, 15, 16, 17, 31, 33, LANES - 1] {
            for (side, uplo, trans, diag) in variants() {
                let a = stored(n, uplo, diag, 14);
                let b = rhs(side, n, free, 15);
                let mut whole = b.clone();
                trsm(side, uplo, trans, diag, a.view(), whole.view_mut());
                let mut alone = b.clone();
                for f in 0..free {
                    let one = match side {
                        Side::Left => alone.block_mut(0, f, n, 1),
                        Side::Right => alone.block_mut(f, 0, 1, n),
                    };
                    trsm(side, uplo, trans, diag, a.view(), one);
                }
                assert_eq!(
                    bits(&whole),
                    bits(&alone),
                    "{side:?} {uplo:?} {trans:?} {diag:?} free={free}"
                );
            }
        }
    }

    #[test]
    fn trsm_named_instances_empty_shapes_strided_views_and_f32() {
        // 1x1 and empty.
        let u = Matrix::from_rows(1, 1, &[4.0]);
        let mut b = Matrix::from_rows(3, 1, &[4.0, 8.0, 12.0]);
        trsm_right_upper_notrans(u.view(), b.view_mut());
        assert_eq!(b, Matrix::from_rows(3, 1, &[1.0, 2.0, 3.0]));
        let u0: Matrix = Matrix::zeros(0, 0);
        trsm_right_upper_notrans(u0.view(), Matrix::zeros(5, 0).view_mut());
        trsm_left_lower_unit(u0.view(), Matrix::zeros(0, 3).view_mut());

        // An interior block of a larger matrix (ld != rows).
        let (n, m) = (4, 5);
        let u = stored(n, Uplo::Upper, Diag::NonUnit, 14);
        let x_true = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(15));
        let mut big = Matrix::zeros(9, 8);
        big.block_mut(2, 3, m, n).copy_from(x_true.matmul(&u.upper()).view());
        trsm_right_upper_notrans(u.view(), big.block_mut(2, 3, m, n));
        let got = Matrix::from_fn(m, n, |i, j| big[(2 + i, 3 + j)]);
        assert!(norm_max(got.sub_matrix(&x_true).view()) < 1e-13);
        assert_eq!(big[(1, 3)], 0.0);

        // Each named instance is the `trsm` it documents.
        let n = TRSM_BASE + 3;
        type Named = fn(MatView<'_, f64>, MatViewMut<'_, f64>);
        let named: [(Named, Side, Uplo, Trans, Diag); 5] = [
            (trsm_right_upper_notrans, Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit),
            (trsm_left_lower_unit, Side::Left, Uplo::Lower, Trans::No, Diag::Unit),
            (trsm_left_upper_notrans, Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit),
            (trsm_left_upper_trans, Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit),
            (trsm_left_lower_trans_unit, Side::Left, Uplo::Lower, Trans::Yes, Diag::Unit),
        ];
        for (f, side, uplo, trans, diag) in named {
            let a = stored(n, uplo, diag, 16);
            let b = rhs(side, n, 6, 17);
            let (mut x, mut y) = (b.clone(), b.clone());
            f(a.view(), x.view_mut());
            trsm(side, uplo, trans, diag, a.view(), y.view_mut());
            assert_eq!(x, y, "{side:?} {uplo:?} {trans:?} {diag:?}");
        }

        // f32 across the recursion boundary.
        let u = stored(n, Uplo::Upper, Diag::NonUnit, 18);
        let x_true = ca_matrix::random_uniform(9, n, &mut ca_matrix::seeded_rng(19));
        let u32m: Matrix<f32> = Matrix::from_f64(&u.upper());
        let mut x: Matrix<f32> = Matrix::from_f64(&x_true.matmul(&u.upper()));
        trsm_right_upper_notrans(u32m.view(), x.view_mut());
        assert!(norm_max(x.to_f64().sub_matrix(&x_true).view()) < 1e-4);
    }
}

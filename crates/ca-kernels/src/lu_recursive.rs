//! Recursive LU with partial pivoting (`rgetf2`), after Toledo (1997) and
//! Gustavson (1997). Recursion on the column count turns almost all of the
//! elimination into BLAS3 (`trsm` + `gemm`) calls, which is why the paper
//! uses it as the sequential kernel inside TSLU leaves: "the best available
//! sequential algorithm can be used".
//!
//! The recursion stops at [`BASE_COLS`] columns in a left-looking
//! elimination compiled for the dispatched backend: step `k` makes one
//! pass over the rows that scales column `k`, brings column `k + 1` — and
//! only it — up to date with a register-held accumulator, and finds its
//! pivot on the way. A leaf's 12500-long columns are read about half as
//! often as by `getf2` (scale, rank-1 update and `iamax` sweeps) and
//! written `BASE_COLS` times less. Every element sees `getf2`'s updates in
//! `getf2`'s order and the pivot rule is [`iamax`](crate::iamax)'s (first
//! maximum, NaN skipped), so the pivot sequence is `getf2`'s.
//!
//! The row of `U` right of each pivot is built as one vector chain over the
//! rows above it ([`u_row`]) and kept on the stack until the base case
//! ends. The rows below the pivot run in register blocks ([`eliminate`]),
//! bottom-up with a separate pivot pass on a short view, top-down with the
//! search folded in on a tall one: the crate's small-shape toolkit and its
//! bounds table (`small.rs`, DESIGN.md §10 "Small shapes"). Every element
//! sees the same operations in the same order on either path.
//!
//! `rgetf2` holds no thread-local scratch; the `gemm` it and its `trsm`
//! calls run borrows the pack buffers only for the duration of each call.

use crate::gemm::{gemm_on, on_backend, spec_named, Kernel, KernelSpec, Trans};
use crate::ger::{first_max, fold_first_max};
use crate::lu_unblocked::LuInfo;
use crate::small::{chunk, chunk_mut, update, walk, Line, Rows, HEIGHTS};
use crate::trmm::{Diag, Side, Uplo};
use crate::trsm::trsm_on;
use ca_matrix::{laswp, MatView, MatViewMut, PivotSeq, Scalar};

/// Column count at which the recursion stops in the left-looking base case.
const BASE_COLS: usize = 16;

/// Recursive Gaussian elimination with partial pivoting of an `m × n` view
/// (`m ≥ n` expected but not required), in place. Pivot indices are
/// view-local, exactly as [`getf2`](crate::getf2) reports them.
pub fn rgetf2<T: Kernel>(a: MatViewMut<'_, T>) -> LuInfo {
    factor(T::spec(), a)
}

/// [`rgetf2`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends), its `trsm`
/// and `gemm` calls included — the hook behind the backend × precision
/// conformance matrix.
///
/// # Panics
/// If `name` is not a backend this host supports.
pub fn rgetf2_with_backend<T: Kernel>(name: &str, a: MatViewMut<'_, T>) -> LuInfo {
    factor(spec_named(name), a)
}

fn factor<T: Kernel>(spec: &KernelSpec<T>, a: MatViewMut<'_, T>) -> LuInfo {
    let mut info = LuInfo {
        pivots: PivotSeq { ipiv: Vec::with_capacity(a.nrows().min(a.ncols())), offset: 0 },
        first_zero_pivot: None,
    };
    recurse(spec, a, 0, &mut info);
    info
}

/// Factors `a`, whose first row and column are row and column `at` of the
/// view `info` describes: appends its pivots to `info` in that numbering.
fn recurse<T: Kernel>(
    spec: &KernelSpec<T>,
    mut a: MatViewMut<'_, T>,
    at: usize,
    info: &mut LuInfo,
) {
    let m = a.nrows();
    let n = a.ncols();
    if n <= BASE_COLS || m <= 1 {
        // SAFETY: `spec` came from `Kernel::spec`, which checked that this
        // CPU runs its backend.
        return unsafe { (spec.lu_base)(a, at, info, m <= spec.bounds.lu_short_rows) };
    }
    // Never split past the row count: for wide views the factorization only
    // involves the first min(m, n) columns, the rest are updated in place.
    let n1 = (n / 2).next_multiple_of(BASE_COLS).min(m);

    // Factor the left half A[:, 0..n1] and apply its pivots to the right.
    let done = info.pivots.len();
    recurse(spec, a.sub(0, 0, m, n1), at, info);
    laswp(
        a.sub(0, n1, m, n - n1),
        info.pivots.ipiv[done..].iter().enumerate().map(|(k, &p)| (k, p - at)),
    );

    // U12 := L11⁻¹ A12 ; A22 -= L21 * U12.
    {
        let (left_cols, right_cols) = a.rb().split_at_col(n1);
        let (mut u12, a22) = right_cols.split_at_row(n1);
        let l11 = left_cols.as_ref().sub(0, 0, n1, n1);
        trsm_on(spec, (Side::Left, Uplo::Lower, Trans::No, Diag::Unit), l11, u12.rb());
        let l21 = left_cols.as_ref().sub(n1, 0, m - n1, n1);
        gemm_on(spec, Trans::No, Trans::No, -T::ONE, l21, u12.as_ref(), T::ONE, a22);
    }

    // Factor the trailing block A[n1.., n1..] and apply its pivots to the
    // left-bottom block.
    let done = info.pivots.len();
    recurse(spec, a.sub(n1, n1, m - n1, n - n1), at + n1, info);
    laswp(
        a.sub(0, 0, m, n1),
        info.pivots.ipiv[done..].iter().enumerate().map(|(k, &p)| (n1 + k, p - at)),
    );
}

on_backend! {
    /// GEPP of at most [`BASE_COLS`] columns, left-looking.
    mod base = base_body(a: MatViewMut<'_, T>, at: usize, info: &mut LuInfo, short: bool)
}

#[inline(always)]
fn base_body<T: Scalar, const FMA: bool>(
    mut a: MatViewMut<'_, T>,
    at: usize,
    info: &mut LuInfo,
    short: bool,
) {
    let (m, n) = (a.nrows(), a.ncols());
    let kmax = m.min(n);
    if kmax == 0 {
        return;
    }
    // Row `i` of `U` (lanes `i..n`) from its step on: rows above the pivot
    // never move again and no step reads them from `a`, so they are written
    // back once, at the end, over whatever a step left there.
    let mut urows = Line([[T::ZERO; BASE_COLS]; BASE_COLS]);
    let urows = &mut urows.0;
    // The steps with a nonzero pivot, the only ones that update anything.
    let (mut live, mut nlive) = ([0; BASE_COLS], 0);
    let mut next = first_max(a.col(0));
    for k in 0..kmax {
        info.pivots.push(at + next);
        a.swap_rows(k, next);
        let piv = a.at(k, k);
        // The reciprocal pivot; a zero pivot's column eliminates nothing
        // (as in `getf2`).
        let s = if piv == T::ZERO {
            info.first_zero_pivot.get_or_insert(at + k);
            None
        } else {
            Some(T::ONE / piv)
        };
        let live_k = &live[..nlive];
        urows[k] = u_row::<T, FMA>(a.as_ref(), k, live_k, urows);
        urows[k][k] = piv;
        let mut u = [T::ZERO; BASE_COLS];
        if k + 1 < n {
            (0..=k).for_each(|p| u[p] = urows[p][k + 1]);
        }
        next = eliminate::<T, FMA>(a.rb(), k, live_k, s, &u, short);
        if s.is_some() {
            live[nlive] = k;
            nlive += 1;
        }
    }
    // With one row the view may be wider than `urows`; its columns past
    // them are row 0 as interchanged, which is `U`, and no step wrote them.
    for (i, row) in urows.iter().enumerate().take(kmax) {
        for (j, &u) in row.iter().enumerate().take(n.min(BASE_COLS)).skip(i) {
            a.set(i, j, u);
        }
    }
}

/// Row `k` of `U` after the interchange of step `k`: each entry right of the
/// pivot takes steps `0..k`, in order, from the `U` rows above (the garbage
/// lanes left of the pivot are never read). Each row is one vector chain
/// with no trip through memory, where a column-by-column forward
/// substitution waits on a store and a load per step.
#[inline(always)]
fn u_row<T: Scalar, const FMA: bool>(
    a: MatView<'_, T>,
    k: usize,
    live: &[usize],
    urows: &[[T; BASE_COLS]; BASE_COLS],
) -> [T; BASE_COLS] {
    let mut r = [T::ZERO; BASE_COLS];
    for (j, r) in r.iter_mut().enumerate().take(a.ncols().min(BASE_COLS)).skip(k + 1) {
        *r = a.at(k, j);
    }
    update::<T, FMA, BASE_COLS>(&mut r, live.iter().map(|&p| (&urows[p], a.at(k, p))));
    r
}

/// Step `k` after its row interchange: scales column `k` below the pivot,
/// applies steps `0..=k` to column `k + 1` (whose rows `0..=k` are `u`) and
/// returns that column's pivot row (`k + 1` when there is no such column or
/// no choice). A short view walks the rows bottom-up, the top block reaching
/// above row `k + 1` where it must — those rows hold `U`, which
/// [`base_body`] writes back at the end — and finds the pivot afterwards in
/// one pass; a tall one walks top-down and folds the pivot search in.
#[inline(always)]
fn eliminate<T: Scalar, const FMA: bool>(
    a: MatViewMut<'_, T>,
    k: usize,
    live: &[usize],
    s: Option<T>,
    u: &[T; BASE_COLS],
    short: bool,
) -> usize {
    let (m, j) = (a.nrows(), k + 1);
    let (done, rest) = a.split_at_col(k);
    let (mut col_k, mut right) = rest.split_at_col(1);
    let cj = (right.ncols() > 0).then(|| right.col_mut(0));
    let (done, lk, mut best) = (done.as_ref(), col_k.col_mut(0), (-T::ONE, j));
    let fold = (!short).then_some(&mut best);
    let mut step = Step::<T, FMA> { done, lk, cj, k, u, live, s, best: fold };
    walk(j..m, HEIGHTS, short, &mut step);
    match step.cj {
        Some(cj) if short => j + first_max(&cj[j..]),
        _ => best.1,
    }
}

/// One step's state: the new column `cj` lives in registers a block at a
/// time while the finished ones stream past it; with `best`, its pivot
/// candidates are folded in on the way.
struct Step<'a, T: Scalar, const FMA: bool> {
    done: MatView<'a, T>,
    lk: &'a mut [T],
    cj: Option<&'a mut [T]>,
    k: usize,
    u: &'a [T; BASE_COLS],
    live: &'a [usize],
    s: Option<T>,
    best: Option<&'a mut (T, usize)>,
}

impl<T: Scalar, const FMA: bool> Rows for Step<'_, T, FMA> {
    #[inline(always)]
    fn rows<const R: usize>(&mut self, r0: usize) {
        let lk = chunk_mut::<T, R>(self.lk, r0);
        if let Some(s) = self.s {
            lk.iter_mut().for_each(|v| *v *= s);
        }
        let Some(cj) = self.cj.as_deref_mut() else { return };
        let mut acc = *chunk::<T, R>(cj, r0);
        let (done, u) = (self.done, self.u);
        update::<T, FMA, R>(&mut acc, self.live.iter().map(|&p| (chunk(done.col(p), r0), u[p])));
        if self.s.is_some() {
            update::<T, FMA, R>(&mut acc, [(&*lk, u[self.k])]);
        }
        let cj = chunk_mut(cj, r0);
        *cj = acc;
        if let Some(best) = self.best.as_deref_mut() {
            fold_first_max(best, r0, cj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::LANES;
    use crate::lu_unblocked::getf2;
    use ca_matrix::{lu_residual, Matrix};

    fn check(m: usize, n: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(seed));
        let mut a = a0.clone();
        let info = rgetf2(a.view_mut());
        assert!(info.first_zero_pivot.is_none(), "unexpected breakdown for {m}x{n}");
        assert_eq!(info.pivots.len(), m.min(n));
        let perm = info.pivots.to_permutation(m);
        let res = lu_residual(&a0, &perm, &a.unit_lower(), &a.upper());
        assert!(res < 1e-12, "residual {res} for {m}x{n}");
    }

    #[test]
    fn rgetf2_various_shapes() {
        check(16, 16, 1);
        check(100, 40, 2);
        check(33, 17, 3);
        check(BASE_COLS + 1, BASE_COLS + 1, 4); // just above base case
        check(BASE_COLS, BASE_COLS, 5); // exactly base case
        check(LANES + BASE_COLS + 9, BASE_COLS, 11); // every row tier of the base case
        check(200, 64, 6);
        check(13, 29, 7); // wide
        check(20, 29, 8); // wide base case: a 6 x 13 trailing block
        check(1, 40, 9); // one row
        check(70, 33, 10); // base case of one column
    }

    #[test]
    fn rgetf2_matches_getf2_on_a_generic_matrix() {
        // Same pivot choices and identical arithmetic order is not
        // guaranteed, but for generic matrices the pivot *sequence* is the
        // same because both pick the max-magnitude entry of the updated
        // column. Verify pivots and factors agree to roundoff.
        let m = 24;
        let n = 16;
        let a0 = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(8));
        let mut a_rec = a0.clone();
        let mut a_b2 = a0.clone();
        let i_rec = rgetf2(a_rec.view_mut());
        let i_b2 = getf2(a_b2.view_mut());
        assert_eq!(i_rec.pivots.ipiv, i_b2.pivots.ipiv);
        let diff = a_rec.sub_matrix(&a_b2);
        assert!(ca_matrix::norm_max(diff.view()) < 1e-12);
    }

    #[test]
    fn rgetf2_handles_singular_input() {
        let a0 = Matrix::from_fn(12, 12, |i, j| ((i + 1) * (j + 1)) as f64);
        let mut a = a0.clone();
        let info = rgetf2(a.view_mut());
        assert!(info.first_zero_pivot.is_some());
    }

    #[test]
    fn rgetf2_single_column() {
        let a0 = Matrix::from_rows(4, 1, &[1.0, -4.0, 2.0, 3.0]);
        let mut a = a0.clone();
        let info = rgetf2(a.view_mut());
        assert_eq!(info.pivots.ipiv, vec![1]);
        assert_eq!(a[(0, 0)], -4.0);
    }

    /// Pivots and zero-pivot report of `rgetf2` against `getf2` on the same input.
    fn same_pivots(a0: &Matrix, what: &str) {
        let (mut rec, mut b2) = (a0.clone(), a0.clone());
        let (i_rec, i_b2) = (rgetf2(rec.view_mut()), getf2(b2.view_mut()));
        assert_eq!(i_rec.pivots.ipiv, i_b2.pivots.ipiv, "{what}: pivot sequences differ");
        assert_eq!(
            i_rec.first_zero_pivot, i_b2.first_zero_pivot,
            "{what}: breakdown reports differ"
        );
    }

    #[test]
    fn rgetf2_pivots_equal_getf2_on_random_tied_and_nan_columns() {
        let (m, n) = (LANES + 40, BASE_COLS + 8);
        let mut rng = ca_matrix::seeded_rng(21);
        same_pivots(&ca_matrix::random_uniform(m, n, &mut rng), "random");

        // Entries in {-1, 0, 1}: the arithmetic is exact in both routines for
        // this few columns, so every column is full of exact ties and only
        // the first-maximum rule decides.
        let r = ca_matrix::random_uniform(m, 10, &mut rng);
        same_pivots(&Matrix::from_fn(m, 10, |i, j| (r[(i, j)] * 1.5).round()), "tied");

        // NaNs are never pivots while a number is left; an all-NaN column
        // pivots on its first row; a zero column reports breakdown.
        let mut a = ca_matrix::random_uniform(m, n, &mut rng);
        for &(i, j) in &[(0, 0), (5, 0), (m - 1, 3), (17, BASE_COLS), (70, n - 1)] {
            a[(i, j)] = f64::NAN;
        }
        same_pivots(&a, "scattered NaN");
        let mut a = ca_matrix::random_uniform(m, n, &mut rng);
        (0..m).for_each(|i| a[(i, 2)] = f64::NAN);
        same_pivots(&a, "NaN column");
        let mut a = ca_matrix::random_uniform(m, n, &mut rng);
        (0..m).for_each(|i| a[(i, BASE_COLS + 1)] = 0.0);
        same_pivots(&a, "zero column");
    }
}

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
//! ends. A view of at most [`SHORT_ROWS`] rows — a served 256² job's 64-row
//! leaf or 128-row tournament node — takes [`eliminate_short`]: register
//! blocks of 64, 32, 16 or 8 rows laid from the bottom, the top one
//! reaching above the pivot, so no row runs alone, and a separate pivot
//! pass. Taller views keep [`eliminate`], which folds the pivot search into
//! its top-down sweep: from 192 rows on that is as fast or faster (timed in
//! one process, EXPERIMENTS.md PR 38: the short path is 9 % faster at 64
//! rows, even at 192, 3–8 % slower at 256–512 and 17 % slower on a
//! 12500-row leaf). These paths change how the operations are scheduled,
//! not which: every element sees the same operations in the same order as
//! before, bit for bit (the pinned hashes of `tests/kernel_conformance.rs`),
//! and the switch is a function of the row count alone.
//!
//! `rgetf2` holds no thread-local scratch; the `gemm` it and its `trsm`
//! calls run borrows the pack buffers only for the duration of each call.

use crate::gemm::{gemm_on, nmul_add, on_backend, spec_named, Kernel, KernelSpec, Trans, LANES};
use crate::ger::fold_first_max;
use crate::lu_unblocked::LuInfo;
use crate::trmm::{Diag, Side, Uplo};
use crate::trsm::trsm_on;
use ca_matrix::{laswp, max_abs_lanes, MatView, MatViewMut, PivotSeq, Scalar};

/// Column count at which the recursion stops in the left-looking base case.
const BASE_COLS: usize = 16;

/// Row count up to which the base case takes the short-column path
/// ([`eliminate_short`]), the measured crossover; taller views keep
/// [`eliminate`]. Both give the same bits.
const SHORT_ROWS: usize = 128;

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
        return unsafe { (spec.lu_base)(a, at, info) };
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
    mod base = base_body(a: MatViewMut<'_, T>, at: usize, info: &mut LuInfo)
}

#[inline(always)]
fn base_body<T: Scalar, const FMA: bool>(mut a: MatViewMut<'_, T>, at: usize, info: &mut LuInfo) {
    let (m, n) = (a.nrows(), a.ncols());
    let kmax = m.min(n);
    if kmax == 0 {
        return;
    }
    // Row `i` of `U` (lanes `i..n`) from its step on: rows above the pivot
    // never move again and no step reads them from `a`, so they are written
    // back once, at the end, over whatever a step left there.
    let mut urows = [[T::ZERO; BASE_COLS]; BASE_COLS];
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
        urows[k] = u_row::<T, FMA>(a.as_ref(), k, live_k, &urows);
        urows[k][k] = piv;
        let mut u = [T::ZERO; BASE_COLS];
        if k + 1 < n {
            (0..=k).for_each(|p| u[p] = urows[p][k + 1]);
        }
        next = if m <= SHORT_ROWS {
            eliminate_short::<T, FMA>(a.rb(), k, live_k, s, &u)
        } else {
            eliminate::<T, FMA>(a.rb(), k, live_k, s, &u)
        };
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
    for &p in live {
        let l = a.at(k, p);
        for (r, &up) in r.iter_mut().zip(&urows[p]) {
            *r = nmul_add::<T, FMA>(l, up, *r);
        }
    }
    r
}

/// [`eliminate`] for a view of at most [`SHORT_ROWS`] rows: the rows below
/// the pivot are covered from the bottom by register blocks of 64, 32, 16 or
/// 8 rows, the top one reaching up past row `k` where it must, so no row
/// runs one at a time unless the view has fewer than 8. A block stores all
/// its rows; those above row `k + 1` hold `U`, which [`base_body`] writes
/// back at the end. The pivot is found afterwards, in one pass.
#[inline(always)]
fn eliminate_short<T: Scalar, const FMA: bool>(
    a: MatViewMut<'_, T>,
    k: usize,
    live: &[usize],
    s: Option<T>,
    u: &[T; BASE_COLS],
) -> usize {
    let (m, j) = (a.nrows(), k + 1);
    let (done, rest) = a.split_at_col(k);
    let (mut col_k, mut right) = rest.split_at_col(1);
    let (done, lk) = (done.as_ref(), col_k.col_mut(0));
    let mut cj = (right.ncols() > 0).then(|| right.col_mut(0));
    let mut end = m;
    while end > j {
        let need = end - j;
        let r = [8, 16, 32, LANES].into_iter().find(|&r| r >= need).unwrap_or(LANES);
        let r = if r <= end { r } else { [32, 16, 8].into_iter().find(|&r| r <= end).unwrap_or(1) };
        let (cj, r0) = (cj.as_deref_mut(), end - r);
        match r {
            LANES => rows::<T, FMA, LANES>(done, lk, cj, r0, k, u, live, s, None),
            32 => rows::<T, FMA, 32>(done, lk, cj, r0, k, u, live, s, None),
            16 => rows::<T, FMA, 16>(done, lk, cj, r0, k, u, live, s, None),
            8 => rows::<T, FMA, 8>(done, lk, cj, r0, k, u, live, s, None),
            _ => rows::<T, FMA, 1>(done, lk, cj, r0, k, u, live, s, None),
        }
        end -= r.min(need);
    }
    cj.map_or(j, |cj| j + first_max(&cj[j..]))
}

/// [`iamax`](crate::iamax) of a slice (`0` for an empty one), inlined into
/// the backend body: a vectorised maximum of `|x|` over eight lanes, then
/// the first position holding it. A NaN never equals the maximum, which
/// floors at zero, so an all-NaN slice gives 0 as in `iamax`.
#[inline(always)]
fn first_max<T: Scalar>(x: &[T]) -> usize {
    let m = max_abs_lanes(x).into_iter().fold(T::ZERO, |m, lane| if lane > m { lane } else { m });
    let hit = |v: &T| v.abs() == m;
    let (chunks, _) = x.as_chunks::<8>();
    let c = chunks.iter().position(|c| c.iter().any(hit)).unwrap_or(chunks.len());
    x[8 * c..].iter().position(hit).map_or(0, |i| 8 * c + i)
}

/// Step `k` after its row interchange: scales column `k` below the pivot,
/// applies steps `0..=k` to column `k + 1` (whose rows `0..=k` are `u`) and
/// returns that column's pivot row (`k + 1` when there is no such column or
/// no choice).
#[inline(always)]
fn eliminate<T: Scalar, const FMA: bool>(
    a: MatViewMut<'_, T>,
    k: usize,
    live: &[usize],
    s: Option<T>,
    u: &[T; BASE_COLS],
) -> usize {
    let (m, j) = (a.nrows(), k + 1);
    let (done, rest) = a.split_at_col(k);
    let (mut col_k, mut right) = rest.split_at_col(1);
    let (done, lk) = (done.as_ref(), col_k.col_mut(0));
    let mut cj = (right.ncols() > 0).then(|| right.col_mut(0));
    let mut best = (-T::ONE, j);
    let mut r0 = j;
    while r0 + LANES <= m {
        rows::<T, FMA, LANES>(done, lk, cj.as_deref_mut(), r0, k, u, live, s, Some(&mut best));
        r0 += LANES;
    }
    while r0 + 8 <= m {
        rows::<T, FMA, 8>(done, lk, cj.as_deref_mut(), r0, k, u, live, s, Some(&mut best));
        r0 += 8;
    }
    while r0 < m {
        rows::<T, FMA, 1>(done, lk, cj.as_deref_mut(), r0, k, u, live, s, Some(&mut best));
        r0 += 1;
    }
    best.1
}

/// One step on rows `r0..r0 + R`: the new column lives in registers while
/// the finished ones stream past it; with `best`, its pivot candidates are
/// folded in on the way.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one step's whole state, inlined away
fn rows<T: Scalar, const FMA: bool, const R: usize>(
    done: MatView<'_, T>,
    lk: &mut [T],
    cj: Option<&mut [T]>,
    r0: usize,
    k: usize,
    u: &[T; BASE_COLS],
    live: &[usize],
    s: Option<T>,
    best: Option<&mut (T, usize)>,
) {
    let lk: &mut [T; R] = (&mut lk[r0..r0 + R]).try_into().expect("R rows");
    if let Some(s) = s {
        lk.iter_mut().for_each(|v| *v *= s);
    }
    let Some(cj) = cj else { return };
    let mut acc: [T; R] = cj[r0..r0 + R].try_into().expect("R rows");
    let mut apply = |l: &[T; R], u: T| {
        for (acc, &l) in acc.iter_mut().zip(l) {
            *acc = nmul_add::<T, FMA>(l, u, *acc);
        }
    };
    for &p in live {
        apply(done.col(p)[r0..r0 + R].try_into().expect("R rows"), u[p]);
    }
    if s.is_some() {
        apply(lk, u[k]);
    }
    cj[r0..r0 + R].copy_from_slice(&acc);
    if let Some(best) = best {
        fold_first_max(best, r0, &cj[r0..r0 + R]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

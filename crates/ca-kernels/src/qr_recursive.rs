//! Recursive Householder QR (`dgeqr3`), after Elmroth & Gustavson (1998).
//!
//! Recursing on the column count turns the bulk of the work into BLAS3
//! (`larfb` block applications); the compact-WY `T` factor of the whole
//! panel is assembled on the way up. This is the sequential kernel the paper
//! runs inside TSQR leaves and tree nodes ("the efficient recursive QR
//! factorization [10]").
//!
//! The recursion splits at multiples of [`BASE_COLS`] and stops there in a
//! left-looking QR compiled for the dispatched backend that builds `T` as it
//! goes. Step `k` makes two passes over the rows: the first scales
//! reflector `k` and forms `Vᵀ·a_{k+1}` and `Vᵀ·v_k` (the latter gives
//! column `k` of `T`) in blocks that stay in L1; the second applies
//! `(I − V·T·Vᵀ)ᵀ` to column `k + 1` and adds up its sum of squares, the
//! norm of reflector `k + 1`. No dot product is a serial reduction, and
//! `larfb` and the `T₃` assembly only ever see a multiple of 16 reflectors.
//!
//! `geqr3` holds the thread's kernel workspace only while it assembles `T₃`
//! (and `larfb` while it applies a half); the base case works in registers,
//! on the stack and in place.

use crate::gemm::{
    gemm_on, mul_add, nmul_add, on_backend, spec_named, Kernel, KernelSpec, Trans, LANES,
};
use crate::householder::{larfb_left_on, reflector};
use crate::trmm::{densify, tri_gemm, Side, Triangle};
use ca_matrix::{MatView, MatViewMut, Scalar};
use core::ops::Range;

/// Column count at which the recursion stops in the left-looking base case.
const BASE_COLS: usize = 16;

/// Rows per block of the base case's first pass: `BASE_COLS + 1` columns of
/// it take 34 KiB of L1 at f64.
const ROW_BLOCK: usize = 256;

/// Lane partial sums per dot product of the base case: one AVX-512 vector at
/// f64.
const W: usize = 8;

/// Recursive QR of an `m × n` view (`m ≥ n` required), in place.
///
/// On return `a` holds `R` in its upper triangle and the Householder vectors
/// below the diagonal; `t` (an `n × n` view) receives the upper-triangular
/// compact-WY factor of the whole panel, so `Q = I − V·T·Vᵀ`.
///
/// # Panics
/// If `m < n` or `t` is smaller than `n × n`.
pub fn geqr3<T: Kernel>(a: MatViewMut<'_, T>, t: MatViewMut<'_, T>) {
    recurse(T::spec(), a, t);
}

/// [`geqr3`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends) — the hook
/// behind the backend × precision conformance matrix.
///
/// # Panics
/// Like [`geqr3`], or if `name` is not a backend this host supports.
pub fn geqr3_with_backend<T: Kernel>(name: &str, a: MatViewMut<'_, T>, t: MatViewMut<'_, T>) {
    recurse(spec_named(name), a, t);
}

fn recurse<T: Kernel>(spec: &KernelSpec<T>, mut a: MatViewMut<'_, T>, mut t: MatViewMut<'_, T>) {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "geqr3 requires a tall or square panel (m >= n), got {m}x{n}");
    assert!(t.nrows() >= n && t.ncols() >= n, "T workspace must be at least n x n");
    if n == 0 {
        return;
    }
    if n <= BASE_COLS {
        // SAFETY: `spec` came from `Kernel::spec` or `spec_named`, which
        // both checked that this CPU runs its backend.
        return unsafe { (spec.qr_base)(a, t.sub(0, 0, n, n)) };
    }

    let n1 = (n / 2).next_multiple_of(BASE_COLS);
    let n2 = n - n1;

    // Factor the left half: V1, R1, T1.
    recurse(spec, a.sub(0, 0, m, n1), t.sub(0, 0, n1, n1));

    // A[:, n1..] := Q1ᵀ A[:, n1..]
    {
        let (left, right) = a.rb().split_at_col(n1);
        larfb_left_on(spec, Trans::Yes, left.as_ref(), t.as_ref().sub(0, 0, n1, n1), right);
    }

    // Factor the trailing block: V2, R2, T2 (rows n1.., cols n1..).
    recurse(spec, a.sub(n1, n1, m - n1, n2), t.sub(n1, n1, n2, n2));

    // T3 = T[0..n1, n1..n] = −T1 · (V1ᵀ V2) · T2, where V2 is embedded in
    // rows n1..m: its unit-lower top block L2 meets rows n1..n of V1 as a
    // triangular product, the rest is a plain gemm (the `dgeqrt3` order).
    {
        let (va, vb) = (a.as_ref().sub(n1, 0, n2, n1), a.as_ref().sub(n, 0, m - n, n1));
        let (l2, v2b) = (a.as_ref().sub(n1, n1, n2, n2), a.as_ref().sub(n, n1, m - n, n2));
        let (t1, t3, _, t2) = t.into_sub(0, 0, n, n).split_quad(n1, n1);
        let (t1, t2) = (t1.as_ref(), t2.as_ref());
        T::with_work_buf(|work| {
            // A square block of the larger half holds any densified triangle.
            let big = n1.max(n2);
            let (x, scratch) = work.scratch(2 * n1 * n2 + big * big).split_at_mut(n1 * n2);
            let (y, tri) = scratch.split_at_mut(n1 * n2);
            let mut x = MatViewMut::from_slice(x, n1, n2);
            let mut y = MatViewMut::from_slice(y, n1, n2);
            // x := V1[n1..n, :]ᵀ
            for j in 0..n2 {
                for (i, xi) in x.col_mut(j).iter_mut().enumerate() {
                    *xi = va.at(j, i);
                }
            }
            // y := x·L2 + V1[n.., :]ᵀ·V2[n.., :]
            let l2 = densify(Triangle::UnitLower, l2, &mut tri[..n2 * n2]);
            tri_gemm(
                spec,
                Side::Right,
                Triangle::UnitLower,
                Trans::No,
                T::ONE,
                l2,
                x.as_ref(),
                T::ZERO,
                y.rb(),
            );
            gemm_on(spec, Trans::Yes, Trans::No, T::ONE, vb, v2b, T::ONE, y.rb());
            // x := −T1·y
            let t1 = densify(Triangle::Upper, t1, &mut tri[..n1 * n1]);
            tri_gemm(
                spec,
                Side::Left,
                Triangle::Upper,
                Trans::No,
                -T::ONE,
                t1,
                y.as_ref(),
                T::ZERO,
                x.rb(),
            );
            // T3 := x·T2
            let t2 = densify(Triangle::Upper, t2, &mut tri[..n2 * n2]);
            tri_gemm(
                spec,
                Side::Right,
                Triangle::Upper,
                Trans::No,
                T::ONE,
                t2,
                x.as_ref(),
                T::ZERO,
                t3,
            );
        });
    }
}

on_backend! {
    /// QR of at most [`BASE_COLS`] columns (`m ≥ n`), left-looking, with its
    /// `n × n` compact-WY factor.
    mod base = base_body(a: MatViewMut<'_, T>, t: MatViewMut<'_, T>)
}

/// Up to [`BASE_COLS`] columns as slices, so the row loops index plain
/// slices.
type Cols<'a, T> = [&'a [T]; BASE_COLS];

/// Dot products of the reflectors with `v` (`[0][j]`) and with `c`
/// (`[1][j]`), as `W` lane partial sums added up once all rows are in.
type Lanes<T> = [[[T; W]; BASE_COLS]; 2];

#[inline(always)]
fn columns<T: Scalar>(a: MatView<'_, T>) -> Cols<'_, T> {
    let mut cols: Cols<'_, T> = [&[]; BASE_COLS];
    for (j, col) in cols.iter_mut().enumerate().take(a.ncols()) {
        *col = a.col(j);
    }
    cols
}

#[inline(always)]
fn base_body<T: Scalar, const FMA: bool>(mut a: MatViewMut<'_, T>, mut t: MatViewMut<'_, T>) {
    let n = a.ncols();
    // `tf[j][i]` is T[i, j].
    let mut tf = [[T::ZERO; BASE_COLS]; BASE_COLS];
    let mut ss = sum_squares::<T, FMA>(&a.col(0)[1..]);
    for k in 0..n {
        let r = {
            let (head, x) = a.col_mut(k).split_at_mut(k + 1);
            let r = reflector(head[k], x, ss);
            head[k] = r.beta;
            r
        };
        let (y, s) = {
            let (done, rest) = a.rb().split_at_col(k);
            let (mut vk, next) = rest.split_at_col(1);
            let c = (n > k + 1).then(|| next.as_ref().col(0));
            project::<T, FMA>(&columns(done.as_ref()), k, vk.col_mut(0), c, r.scale)
        };
        // T[0..k, k] = −τ·T[0..k, 0..k]·y, T[k, k] = τ (`dlarft`).
        let mut col = [T::ZERO; BASE_COLS];
        for (i, ti) in col.iter_mut().enumerate().take(k) {
            *ti = -r.tau * (i..k).fold(T::ZERO, |acc, l| acc + tf[l][i] * y[l]);
        }
        col[k] = r.tau;
        tf[k] = col;
        if k + 1 == n {
            break;
        }
        // Column k + 1 gets Qᵀ = I − V·Tᵀ·Vᵀ of all k + 1 reflectors.
        let mut w = [T::ZERO; BASE_COLS];
        for (j, wj) in w.iter_mut().enumerate().take(k + 1) {
            *wj = (0..=j).fold(T::ZERO, |acc, i| acc + tf[j][i] * s[i]);
        }
        let (v, mut next) = a.rb().split_at_col(k + 1);
        ss = update::<T, FMA>(&columns(v.as_ref())[..k + 1], &w, next.col_mut(0));
    }
    for (j, tj) in tf.iter().enumerate().take(n) {
        for (i, &x) in tj.iter().enumerate().take(n) {
            t.set(i, j, if i <= j { x } else { T::ZERO });
        }
    }
}

/// Pass 1 of step `k`: scales `v[k+1..]` by `scale`, which makes `v`
/// reflector `k`, and returns `y = V[:, 0..k]ᵀ·v` and `s = Vᵀ·c` over
/// `V = [done[0..k], v]` (unit lower trapezoidal), each up to index `k`.
#[inline(always)]
fn project<T: Scalar, const FMA: bool>(
    done: &Cols<'_, T>,
    k: usize,
    v: &mut [T],
    c: Option<&[T]>,
    scale: T,
) -> ([T; BASE_COLS], [T; BASE_COLS]) {
    let m = v.len();
    let mut lanes: Lanes<T> = [[[T::ZERO; W]; BASE_COLS]; 2];
    for r0 in (k + 1..m).step_by(ROW_BLOCK) {
        let r1 = (r0 + ROW_BLOCK).min(m);
        v[r0..r1].iter_mut().for_each(|x| *x *= scale);
        // Column k is v itself: its sum with c is s[k].
        let mut cols = *done;
        cols[k] = v;
        let rhs = [&*v, c.unwrap_or(v)];
        cross::<T, FMA>(&cols[..k + 1], &rhs[..1 + usize::from(c.is_some())], r0..r1, &mut lanes);
    }
    // Rows 0..=k: `v` is 1 at row k and zero above; column j of V is 1 at
    // row j and stored below.
    let (mut y, mut s) = ([T::ZERO; BASE_COLS], [T::ZERO; BASE_COLS]);
    for (j, yj) in y.iter_mut().enumerate().take(k) {
        *yj = done[j][k] + hsum(lanes[0][j]);
    }
    if let Some(c) = c {
        for (j, sj) in s.iter_mut().enumerate().take(k + 1) {
            *sj = (j + 1..=k).fold(c[j], |acc, i| acc + done[j][i] * c[i]) + hsum(lanes[1][j]);
        }
    }
    (y, s)
}

/// `acc[r][j] += Σ_{i ∈ rows} a[j][i]·b[r][i]`, as lane partial sums, for
/// every column `a[j]` and each of the one or two `b[r]`: four columns by
/// two right-hand sides per pass, so the eight partial sums stay in
/// registers while the rows stream from L1. A short last group repeats its
/// first column or right-hand side and drops the repeat's sums: the compiler
/// vectorises this one shape along the rows, and smaller ones across the
/// sums. Rows past the last whole `W` go in lane by lane, after the passes.
#[inline(always)]
fn cross<T: Scalar, const FMA: bool>(
    a: &[&[T]],
    b: &[&[T]],
    rows: Range<usize>,
    acc: &mut Lanes<T>,
) {
    let body = rows.start..rows.end - rows.len() % W;
    let rhs = [&b[0][body.clone()], &b[b.len() - 1][body.clone()]];
    for j0 in (0..a.len()).step_by(4) {
        let col = |q: usize| &a[if j0 + q < a.len() { j0 + q } else { j0 }][body.clone()];
        let sums = dots::<T, FMA>([col(0), col(1), col(2), col(3)], rhs);
        for (q, sums) in sums.into_iter().enumerate().take(a.len() - j0) {
            for (acc, lanes) in acc.iter_mut().zip(sums).take(b.len()) {
                add(&mut acc[j0 + q], lanes);
            }
        }
    }
    for (l, i) in (body.end..rows.end).enumerate() {
        for (j, a) in a.iter().enumerate() {
            for (acc, b) in acc.iter_mut().zip(b) {
                acc[j][l] = mul_add::<T, FMA>(a[i], b[i], acc[j][l]);
            }
        }
    }
}

/// `out[q][r]` = lane partial sums of `cols[q] · rhs[r]` over operands of a
/// whole number of `W` rows; element `i` lands in lane `i % W`.
#[inline(always)]
fn dots<T: Scalar, const FMA: bool>(cols: [&[T]; 4], rhs: [&[T]; 2]) -> [[[T; W]; 2]; 4] {
    let len = rhs[0].len();
    assert!(
        len.is_multiple_of(W) && cols.iter().chain(&rhs).all(|x| x.len() == len),
        "dot operands of whole W rows"
    );
    let mut acc = [[[T::ZERO; W]; 2]; 4];
    for i0 in (0..len).step_by(W) {
        let mut b = [[T::ZERO; W]; 2];
        for (b, rhs) in b.iter_mut().zip(&rhs) {
            b.copy_from_slice(&rhs[i0..i0 + W]);
        }
        for q in 0..4 {
            let a: [T; W] = cols[q][i0..i0 + W].try_into().expect("W rows");
            for r in 0..2 {
                for l in 0..W {
                    acc[q][r][l] = mul_add::<T, FMA>(a[l], b[r][l], acc[q][r][l]);
                }
            }
        }
    }
    acc
}

/// Pass 2 of step `k = v.len() − 1`: `c := c − V·w` with `V = v` unit lower
/// trapezoidal; returns the sum of squares of the new `c[k+2..]`, the next
/// reflector's tail.
#[inline(always)]
fn update<T: Scalar, const FMA: bool>(v: &[&[T]], w: &[T; BASE_COLS], c: &mut [T]) -> T {
    let (m, k) = (c.len(), v.len() - 1);
    // Rows 0..=k meet V's unit-lower head: row i holds V[i, 0..i] and a 1.
    for i in 0..=k {
        c[i] = (0..i).fold(c[i], |x, j| nmul_add::<T, FMA>(v[j][i], w[j], x)) - w[i];
    }
    // Row k + 1 is the next diagonal: updated, but not part of the tail.
    if k + 1 < m {
        rows::<T, FMA, 1>(v, w, c, k + 1);
    }
    let (mut r0, mut ss) = (k + 2, [T::ZERO; LANES]);
    while r0 + LANES <= m {
        fold_squares::<T, FMA>(&mut ss, &rows::<T, FMA, LANES>(v, w, c, r0));
        r0 += LANES;
    }
    while r0 + 8 <= m {
        fold_squares::<T, FMA>(&mut ss, &rows::<T, FMA, 8>(v, w, c, r0));
        r0 += 8;
    }
    while r0 < m {
        fold_squares::<T, FMA>(&mut ss, &rows::<T, FMA, 1>(v, w, c, r0));
        r0 += 1;
    }
    hsum(ss)
}

/// [`update`] on rows `r0..r0 + R`: the column lives in registers while the
/// reflectors stream past it. Returns the updated rows.
#[inline(always)]
fn rows<T: Scalar, const FMA: bool, const R: usize>(
    v: &[&[T]],
    w: &[T; BASE_COLS],
    c: &mut [T],
    r0: usize,
) -> [T; R] {
    let col: &mut [T; R] = (&mut c[r0..r0 + R]).try_into().expect("R rows");
    let mut acc = *col;
    for (v, &wj) in v.iter().zip(w) {
        let a: &[T; R] = v[r0..r0 + R].try_into().expect("R rows");
        for (acc, &a) in acc.iter_mut().zip(a) {
            *acc = nmul_add::<T, FMA>(a, wj, *acc);
        }
    }
    *col = acc;
    acc
}

/// `ss[l] += x[l]²` for the first `x.len()` lanes.
#[inline(always)]
fn fold_squares<T: Scalar, const FMA: bool>(ss: &mut [T; LANES], x: &[T]) {
    for (s, &x) in ss.iter_mut().zip(x) {
        *s = mul_add::<T, FMA>(x, x, *s);
    }
}

/// `Σ x²` in [`LANES`] lane partial sums, as [`update`] forms it.
#[inline(always)]
fn sum_squares<T: Scalar, const FMA: bool>(x: &[T]) -> T {
    let mut ss = [T::ZERO; LANES];
    x.chunks(LANES).for_each(|chunk| fold_squares::<T, FMA>(&mut ss, chunk));
    hsum(ss)
}

/// `acc += x`, lane by lane.
#[inline(always)]
fn add<T: Scalar>(acc: &mut [T; W], x: [T; W]) {
    acc.iter_mut().zip(x).for_each(|(a, x)| *a += x);
}

/// Sum of `N` (a power of two) lane partials by pairwise halving.
#[inline(always)]
fn hsum<T: Scalar, const N: usize>(mut x: [T; N]) -> T {
    let mut half = N / 2;
    while half > 0 {
        for l in 0..half {
            x[l] += x[l + half];
        }
        half /= 2;
    }
    x[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::form_q_thin;
    use ca_matrix::{norm_max, orthogonality, qr_residual, Matrix};

    fn check(m: usize, n: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(seed));
        let mut a = a0.clone();
        let mut t = Matrix::zeros(n, n);
        geqr3(a.view_mut(), t.view_mut());
        let q = form_q_thin(a.view(), t.view());
        let r = a.upper();
        assert!(orthogonality(&q) < 1e-12 * (m as f64), "Q not orthogonal for {m}x{n}");
        let res = qr_residual(&a0, &q, &r);
        assert!(res < 1e-12 * (m as f64), "residual {res} for {m}x{n}");
    }

    #[test]
    fn geqr3_various_shapes() {
        check(4, 4, 1);
        check(5, 5, 2);
        check(BASE_COLS, BASE_COLS, 3); // base case exactly, square
        check(BASE_COLS + 1, BASE_COLS + 1, 4); // first split
        check(40, 12, 5);
        check(100, 32, 6);
        check(65, 33, 7); // odd sizes
        check(7, 1, 8);
        // Every row tier of both passes: a whole block, the LANES, 8 and 1
        // row tails.
        check(ROW_BLOCK + LANES + 8 + 3 + BASE_COLS, BASE_COLS, 9);
        check(70, 50, 10); // split 32 + 18, then 16 + 2
    }

    #[test]
    fn geqr3_matches_unblocked_r_up_to_sign() {
        let m = 30;
        let n = 20;
        let a0 = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(9));
        let mut a3 = a0.clone();
        let mut t = Matrix::zeros(n, n);
        geqr3(a3.view_mut(), t.view_mut());
        let mut a2 = a0.clone();
        let mut tau = Vec::new();
        crate::qr_unblocked::geqr2(a2.view_mut(), &mut tau);
        // R is unique up to row signs.
        for i in 0..n {
            for j in i..n {
                let x = a3[(i, j)].abs();
                let y = a2[(i, j)].abs();
                assert!((x - y).abs() < 1e-11, "R mismatch at ({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn geqr3_t_matches_larft_of_its_reflectors() {
        // The base case builds T as it goes; `larft` rebuilds it from the
        // reflectors and their τ = T[j, j].
        let (m, n) = (50, BASE_COLS);
        let mut a = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(11));
        let mut t = Matrix::zeros(n, n);
        geqr3(a.view_mut(), t.view_mut());
        let tau: Vec<f64> = (0..n).map(|j| t[(j, j)]).collect();
        let mut t2 = Matrix::zeros(n, n);
        crate::householder::larft(a.view(), &tau, t2.view_mut());
        assert!(norm_max(t.sub_matrix(&t2).view()) < 1e-13);
    }

    #[test]
    fn geqr3_t_factor_is_upper_triangular() {
        let m = 20;
        let n = 10;
        let mut a = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(10));
        let mut t = Matrix::from_fn(n, n, |_, _| f64::NAN);
        geqr3(a.view_mut(), t.view_mut());
        for j in 0..n {
            for i in j + 1..n {
                assert_eq!(t[(i, j)], 0.0, "T not upper triangular at ({i},{j})");
            }
        }
        assert!(norm_max(t.view()) > 0.0);
    }

    #[test]
    #[should_panic(expected = "m >= n")]
    fn geqr3_rejects_a_wide_panel() {
        let mut a: Matrix = Matrix::zeros(3, 5);
        let mut t: Matrix = Matrix::zeros(5, 5);
        geqr3(a.view_mut(), t.view_mut());
    }
}

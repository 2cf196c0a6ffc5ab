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
//! The folds over the head rows and `T` run as masked sweeps over all 16
//! lanes ([`Head`]). A short view runs on a zero-padded stack copy of the
//! panel ([`short_body`]); the switch, the stack block and the register
//! blocks are the crate's small-shape toolkit (`small.rs`, DESIGN.md §10
//! "Small shapes"). Both give the bits of the plain folds and passes.
//!
//! `geqr3` holds the thread's kernel workspace only while it assembles `T₃`
//! (and `larfb` while it applies a half); the base case works in registers,
//! on the stack and in place. Each split zeroes `T`'s lower-left block, so
//! the `T` it returns is upper triangular as stored.

use crate::gemm::{
    gemm_on, mul_add, nmul_add, on_backend, spec_named, Kernel, KernelSpec, Trans, LANES,
};
use crate::householder::{larfb_left_on, reflector};
use crate::small::{self, chunk, chunk_mut, walk, Block, Rows};
use crate::trmm::{densify, tri_gemm, Side, Triangle, TRMM_NB};
use ca_matrix::{MatView, MatViewMut, Scalar};
use core::cmp::Ordering;
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
        let base = if m <= spec.bounds.qr_short_rows { spec.qr_short } else { spec.qr_base };
        // SAFETY: `spec` came from `Kernel::spec` or `spec_named`, which
        // both checked that this CPU runs its backend.
        return unsafe { base(a, t.sub(0, 0, n, n)) };
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
    // T is upper triangular: with its lower-left block zero, the diagonal
    // blocks T1 and T2 hold zeros below their diagonals, which the products
    // with them read.
    let (va, vb) = (a.as_ref().sub(n1, 0, n2, n1), a.as_ref().sub(n, 0, m - n, n1));
    let (l2, v2b) = (a.as_ref().sub(n1, n1, n2, n2), a.as_ref().sub(n, n1, m - n, n2));
    let (t1, t3, mut t21, t2) = t.into_sub(0, 0, n, n).split_quad(n1, n1);
    t21.fill(T::ZERO);
    let (t1, t2) = (t1.as_ref(), t2.as_ref());
    T::with_work_buf(|work| {
        let (x, scratch) = work.scratch(2 * n1 * n2 + n2 * n2).split_at_mut(n1 * n2);
        let (y, l2d) = scratch.split_at_mut(n1 * n2);
        let mut x = MatViewMut::from_slice(x, n1, n2);
        let mut y = MatViewMut::from_slice(y, n1, n2);
        // y := V1[n1..n, :]ᵀ·L2 + V1[n.., :]ᵀ·V2[n.., :]. The first term is
        // `tri_gemm`'s right-side product x·L2 with x = V1[n1..n, :]ᵀ read in
        // place: column block s0..s1 of L2 holds entries from row s0 on.
        let l2 = densify(Triangle::UnitLower, l2, l2d);
        for s0 in (0..n2).step_by(TRMM_NB) {
            let s1 = (s0 + TRMM_NB).min(n2);
            gemm_on(
                spec,
                Trans::Yes,
                Trans::No,
                T::ONE,
                va.sub(s0, 0, n2 - s0, n1),
                l2.sub(s0, s0, n2 - s0, s1 - s0),
                T::ZERO,
                y.sub(0, s0, n1, s1 - s0),
            );
        }
        gemm_on(spec, Trans::Yes, Trans::No, T::ONE, vb, v2b, T::ONE, y.rb());
        // x := −T1·y
        let (upper, no) = (Triangle::Upper, Trans::No);
        tri_gemm(spec, Side::Left, upper, no, -T::ONE, t1, y.as_ref(), T::ZERO, x.rb());
        // T3 := x·T2
        tri_gemm(spec, Side::Right, upper, no, T::ONE, t2, x.as_ref(), T::ZERO, t3);
    });
}

on_backend! {
    /// QR of at most [`BASE_COLS`] columns (`m ≥ n`), left-looking, with its
    /// `n × n` compact-WY factor.
    mod base = base_body(a: MatViewMut<'_, T>, t: MatViewMut<'_, T>)
}

on_backend! {
    /// [`base`] for views of at most `ROWS − W` rows, in a buffer of `ROWS`
    /// rows ([`short_buffer_rows`]).
    mod short<const ROWS> = short_body(a: MatViewMut<'_, T>, t: MatViewMut<'_, T>)
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
fn base_body<T: Scalar, const FMA: bool>(mut a: MatViewMut<'_, T>, t: MatViewMut<'_, T>) {
    let (m, n) = (a.nrows(), a.ncols());
    let mut tri = Head::<T>::new();
    let mut ss = sum_squares::<T, FMA>(&a.col(0)[1..]);
    for k in 0..n {
        let r = {
            let (head, x) = a.col_mut(k).split_at_mut(k + 1);
            let r = reflector(head[k], x, ss);
            head[k] = r.beta;
            r
        };
        let (y, d) = {
            let (done, rest) = a.rb().split_at_col(k);
            let (mut vk, next) = rest.split_at_col(1);
            let c = (n > k + 1).then(|| next.as_ref().col(0));
            project::<T, FMA>(&columns(done.as_ref()), k, vk.col_mut(0), c, r.scale, m)
        };
        tri.reflector(k, n, a.col(k));
        tri.t_column(k, &y, r.tau);
        if k + 1 == n {
            break;
        }
        let w = tri.w(k, head(a.col(k + 1)), &d);
        let (v, mut next) = a.rb().split_at_col(k + 1);
        let v = columns(v.as_ref());
        let c = next.col_mut(0);
        // Rows 0..=k here, the rest in `pass2`.
        let mut h = head(c);
        head_update::<T, FMA>(|j| head(v[j]), &w, k, &mut h);
        blend(chunk_mut(c, 0), &h, &BELOW[k + 1]);
        ss = pass2::<T, FMA, _>(&v[..k + 1], &w, c, m);
    }
    tri.store(n, t);
}

/// The first [`BASE_COLS`] entries of a column of at least that many rows.
#[inline(always)]
fn head<T: Scalar>(col: &[T]) -> [T; BASE_COLS] {
    *chunk(col, 0)
}

/// What both base cases keep of the panel's head: `T` as it is built and
/// `V`'s rows `0..n`. Its folds over `k` or fewer terms run every row (or
/// column) at once, as masked sweeps that give each element the
/// operations of the plain fold in the same order. Aligned to a cache line
/// like [`Block`].
#[repr(C, align(64))]
struct Head<T> {
    /// `tf[j][i]` is T[i, j].
    tf: [[T; BASE_COLS]; BASE_COLS],
    /// `tr[i][j]` is T[i, j].
    tr: [[T; BASE_COLS]; BASE_COLS],
    /// `vr[i][j]` is V[i, j], for `j < i < n`.
    vr: [[T; BASE_COLS]; BASE_COLS],
}

impl<T: Scalar> Head<T> {
    #[inline(always)]
    fn new() -> Self {
        let zero = [[T::ZERO; BASE_COLS]; BASE_COLS];
        Head { tf: zero, tr: zero, vr: zero }
    }

    /// Records reflector `k`, `v` (its column, scaled), in [`Head::vr`].
    #[inline(always)]
    fn reflector(&mut self, k: usize, n: usize, v: &[T]) {
        for (i, &x) in v.iter().enumerate().take(n).skip(k + 1) {
            self.vr[i][k] = x;
        }
    }

    /// T[0..k, k] = −τ·T[0..k, 0..k]·y, T[k, k] = τ (`dlarft`): row i sums
    /// T[i, l]·y[l] over l = i..k in order.
    #[inline(always)]
    fn t_column(&mut self, k: usize, y: &[T; BASE_COLS], tau: T) {
        let mut col = [T::ZERO; BASE_COLS];
        for (l, (tl, &yl)) in self.tf.iter().zip(y).enumerate().take(k) {
            let mut sum = [T::ZERO; BASE_COLS];
            for ((x, &c), &til) in sum.iter_mut().zip(&col).zip(tl) {
                *x = c + til * yl;
            }
            blend(&mut col, &sum, &BELOW[l + 1]);
        }
        let mut scaled = [T::ZERO; BASE_COLS];
        for (x, &c) in scaled.iter_mut().zip(&col) {
            *x = -tau * c;
        }
        blend(&mut col, &scaled, &BELOW[k]);
        col[k] = tau;
        for (tri, &x) in self.tr.iter_mut().zip(&col).take(k + 1) {
            tri[k] = x;
        }
        self.tf[k] = col;
    }

    /// `w = Tᵀ·s` for the update of column `k + 1`, whose head rows are
    /// `c`, with `s = Vᵀ·c`: c[j], then V[i, j]·c[i] over the head rows
    /// i = j+1..=k in order, then `d`, the rows below. Column j of `w` sums
    /// T[i, j]·s[i] over i = 0..=j in order.
    #[inline(always)]
    fn w(&self, k: usize, c: [T; BASE_COLS], d: &[T; BASE_COLS]) -> [T; BASE_COLS] {
        let mut s = [T::ZERO; BASE_COLS];
        blend(&mut s, &c, &BELOW[k + 1]);
        for (i, (vi, &ci)) in self.vr.iter().zip(&c).enumerate().take(k + 1) {
            let mut sum = [T::ZERO; BASE_COLS];
            for ((x, &sj), &vij) in sum.iter_mut().zip(&s).zip(vi) {
                *x = sj + vij * ci;
            }
            blend(&mut s, &sum, &BELOW[i]);
        }
        for (x, &dj) in s.iter_mut().zip(d) {
            *x += dj;
        }
        let mut w = [T::ZERO; BASE_COLS];
        for (i, (ti, &si)) in self.tr.iter().zip(&s).enumerate().take(k + 1) {
            let mut sum = [T::ZERO; BASE_COLS];
            for ((x, &wj), &tij) in sum.iter_mut().zip(&w).zip(ti) {
                *x = wj + tij * si;
            }
            blend(&mut w, &sum, &FROM[i]);
        }
        w
    }

    /// Writes the `n × n` `T`, zeros below its diagonal.
    #[inline(always)]
    fn store(&self, n: usize, mut t: MatViewMut<'_, T>) {
        for (j, tj) in self.tf.iter().enumerate().take(n) {
            for (i, &x) in tj.iter().enumerate().take(n) {
                t.set(i, j, if i <= j { x } else { T::ZERO });
            }
        }
    }
}

/// `c := c − V·w` on the head rows `c` (`0..BASE_COLS`) of the column after
/// reflector `k`, `v(j)` giving column `j` of `V`'s. Row i ≤ k meets `V`'s
/// unit-lower head, so it takes V[i, j]·w[j] off for j = 0..i in order,
/// then w[i]; a row below takes off all k + 1. A sweep over j gives every
/// row its order at once.
#[inline(always)]
fn head_update<T: Scalar, const FMA: bool>(
    v: impl Fn(usize) -> [T; BASE_COLS],
    w: &[T; BASE_COLS],
    k: usize,
    c: &mut [T; BASE_COLS],
) {
    for (j, &wj) in w.iter().enumerate().take(k + 1) {
        let (mut off, mut last) = ([T::ZERO; BASE_COLS], [T::ZERO; BASE_COLS]);
        for (((off, last), &x), vij) in off.iter_mut().zip(&mut last).zip(&*c).zip(v(j)) {
            *off = nmul_add::<T, FMA>(vij, wj, x);
            *last = x - wj;
        }
        blend(c, &off, &FROM[j + 1]);
        blend(c, &last, &AT[j]);
    }
}

/// Lane masks of the triangular sweeps, from tables so that they
/// vectorise as masked operations: `BELOW[i][l]` is `l < i`, `FROM[i][l]`
/// is `l ≥ i` and `AT[i][l]` is `l == i`.
static BELOW: Masks = masks(Ordering::Less);
static FROM: Masks = masks(Ordering::Greater);
static AT: Masks = masks(Ordering::Equal);

type Masks = [[bool; BASE_COLS]; BASE_COLS + 1];

/// `t[i][l]`: `l < i` (`Less`), `l ≥ i` (`Greater`) or `l == i` (`Equal`).
const fn masks(rel: Ordering) -> Masks {
    let mut t = [[false; BASE_COLS]; BASE_COLS + 1];
    let mut i = 0;
    while i <= BASE_COLS {
        let mut l = 0;
        while l < BASE_COLS {
            t[i][l] = match rel {
                Ordering::Less => l < i,
                Ordering::Greater => l >= i,
                Ordering::Equal => l == i,
            };
            l += 1;
        }
        i += 1;
    }
    t
}

/// `x := new` in the lanes of `mask`.
#[inline(always)]
fn blend<T: Scalar>(x: &mut [T; BASE_COLS], new: &[T; BASE_COLS], mask: &[bool; BASE_COLS]) {
    for ((x, &new), &on) in x.iter_mut().zip(new).zip(mask) {
        *x = if on { new } else { *x };
    }
}

/// Rows of [`short_body`]'s buffer for views of up to `rows` rows: then a
/// whole `W` of zeros, and up to a whole cache line at f32, so that every
/// column starts on one.
pub(crate) const fn short_buffer_rows(rows: usize) -> usize {
    (rows + W).next_multiple_of(16)
}

/// [`base_body`] for a view of at most `ROWS − W` rows, on a copy of the
/// panel in a stack block whose columns run on in zeros: the same
/// operations on every element in the same order, without `base_body`'s
/// fixed costs per step. The dot products run on to a whole `W` of rows,
/// the padding's zeros adding nothing, and the update covers all head rows.
#[inline(always)]
fn short_body<T: Scalar, const FMA: bool, const ROWS: usize>(
    a: MatViewMut<'_, T>,
    t: MatViewMut<'_, T>,
) {
    let (m, n) = (a.nrows(), a.ncols());
    assert!(m + W <= ROWS && BASE_COLS <= ROWS && n <= m, "a short panel");
    let mut blk = Block::<T, ROWS, BASE_COLS>::zeroed(a.as_ref());
    let p = chunk_mut::<_, BASE_COLS>(blk.cols_mut(), 0);
    let mut tri = Head::<T>::new();
    let mut ss = sum_squares::<T, FMA>(&p[0][1..m]);
    for k in 0..n {
        let (done, rest) = p.split_at_mut(k);
        let (v, rest) = rest.split_at_mut(1);
        let v = &mut v[0];
        let r = reflector(v[k], &mut v[k + 1..m], ss);
        v[k] = r.beta;
        let end = k + 1 + (m - k - 1).next_multiple_of(W);
        let mut cols: Cols<'_, T> = [&[]; BASE_COLS];
        cols.iter_mut().zip(&*done).for_each(|(col, d)| *col = &d[..end]);
        let c = (k + 1 < n).then(|| &rest[0]);
        let (y, d) = project::<T, FMA>(&cols, k, &mut v[..end], c.map(|c| &c[..end]), r.scale, m);
        tri.reflector(k, n, v);
        tri.t_column(k, &y, r.tau);
        let Some(c) = c else { break };
        let w = tri.w(k, head(c), &d);
        let (v, c) = p.split_at_mut(k + 1);
        let mut h = head(&c[0]);
        head_update::<T, FMA>(|j| head(&v[j]), &w, k, &mut h);
        // Past the last row nothing is stored.
        blend(chunk_mut(&mut c[0], 0), &h, &BELOW[m.min(BASE_COLS)]);
        ss = pass2::<T, FMA, _>(v, &w, &mut c[0], m);
    }
    blk.store(a);
    tri.store(n, t);
}

/// Pass 1 of step `k`: scales `v[k+1..m]` by `scale`, which makes `v`
/// reflector `k`, and returns `y = V[:, 0..k]ᵀ·v` (up to index `k`) and
/// the part of `Vᵀ·c` below the head rows `0..=k` (up to index `k`), over
/// `V = [done[0..k], v]` (unit lower trapezoidal). The short view's
/// operands run on past `m` in zeros to a whole `W` of rows: past the last
/// row both factors are zero and each lane keeps its value.
#[inline(always)]
fn project<T: Scalar, const FMA: bool>(
    done: &Cols<'_, T>,
    k: usize,
    v: &mut [T],
    c: Option<&[T]>,
    scale: T,
    m: usize,
) -> ([T; BASE_COLS], [T; BASE_COLS]) {
    let end = v.len();
    let mut lanes: Lanes<T> = [[[T::ZERO; W]; BASE_COLS]; 2];
    for r0 in (k + 1..end).step_by(ROW_BLOCK) {
        let r1 = (r0 + ROW_BLOCK).min(end);
        v[r0..r1.min(m)].iter_mut().for_each(|x| *x *= scale);
        // Column k is v itself: its sum with c is s[k].
        let mut cols = *done;
        cols[k] = v;
        let rhs = [&*v, c.unwrap_or(v)];
        cross::<T, FMA>(&cols[..k + 1], &rhs[..1 + usize::from(c.is_some())], r0..r1, &mut lanes);
    }
    // Rows 0..=k: `v` is 1 at row k and zero above; column j of V is 1 at
    // row j and stored below.
    let (mut y, mut d) = ([T::ZERO; BASE_COLS], [T::ZERO; BASE_COLS]);
    for (j, yj) in y.iter_mut().enumerate().take(k) {
        *yj = done[j][k] + hsum(lanes[0][j]);
    }
    if c.is_some() {
        for (dj, &lanes) in d.iter_mut().zip(&lanes[1]).take(k + 1) {
            *dj = hsum(lanes);
        }
    }
    (y, d)
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
            let a: [T; W] = *chunk(cols[q], i0);
            for r in 0..2 {
                for l in 0..W {
                    acc[q][r][l] = mul_add::<T, FMA>(a[l], b[r][l], acc[q][r][l]);
                }
            }
        }
    }
    acc
}

/// Pass 2 of step `k = v.len() − 1` below the head rows: `c := c − V·w`
/// over the rows past them, and the sum of squares of the new `c[k+2..]`,
/// the next reflector's tail, in whole `LANES`, then whole `W`s, then one
/// row at a time into lane 0. The row-block path's head rows are `0..=k`;
/// it updates rows `k + 1..` and folds the squares into the same blocks.
/// The short view's head rows are all of `0..BASE_COLS`; it updates the
/// rows past them in `W`-row blocks that run on into the padding (past
/// `m` nothing is stored), and folds the squares in a pass of their own.
#[inline(always)]
fn pass2<T: Scalar, const FMA: bool, C: AsRef<[T]>>(
    v: &[C],
    w: &[T; BASE_COLS],
    c: &mut [T],
    m: usize,
) -> T {
    let (k, short) = (v.len() - 1, c.len() > m);
    let mut pass = Pass2::<T, C, FMA> { v, w, c, m, ss: [T::ZERO; LANES], fold: false };
    if !short {
        if k + 1 < m {
            pass.rows::<1>(k + 1);
        }
        pass.fold = true;
        walk(k + 2..m, &[LANES, W, 1], false, &mut pass);
        return hsum(pass.ss);
    }
    (BASE_COLS..m).step_by(W).for_each(|r0| pass.rows::<W>(r0));
    let (c, mut ss, mut r0) = (&*pass.c, [T::ZERO; LANES], k + 2);
    while r0 + LANES <= m {
        fold_squares::<T, FMA>(&mut ss, &c[r0..r0 + LANES]);
        r0 += LANES;
    }
    while r0 + W <= m {
        fold_squares::<T, FMA>(&mut ss, &c[r0..r0 + W]);
        r0 += W;
    }
    for &x in &c[r0.min(m)..m] {
        fold_squares::<T, FMA>(&mut ss, &[x]);
    }
    hsum(ss)
}

/// [`pass2`]'s blocks: the column lives in registers while the reflectors
/// stream past it.
struct Pass2<'a, T, C, const FMA: bool> {
    v: &'a [C],
    w: &'a [T; BASE_COLS],
    c: &'a mut [T],
    m: usize,
    ss: [T; LANES],
    fold: bool,
}

impl<T: Scalar, C: AsRef<[T]>, const FMA: bool> Rows for Pass2<'_, T, C, FMA> {
    #[inline(always)]
    fn rows<const R: usize>(&mut self, r0: usize) {
        let col = chunk_mut::<T, R>(self.c, r0);
        if !self.v.is_empty() {
            let mut acc = *col;
            let v = self.v.iter().map(|v| chunk(v.as_ref(), r0));
            small::update::<T, FMA, R>(&mut acc, v.zip(self.w.iter().copied()));
            if r0 + R <= self.m {
                *col = acc;
            } else {
                for (l, (x, &y)) in col.iter_mut().zip(&acc).enumerate() {
                    *x = if r0 + l < self.m { y } else { *x };
                }
            }
        }
        if self.fold {
            fold_squares::<T, FMA>(&mut self.ss, col);
        }
    }
}

/// `ss[l] += x[l]²` for the first `x.len()` lanes.
#[inline(always)]
fn fold_squares<T: Scalar, const FMA: bool>(ss: &mut [T; LANES], x: &[T]) {
    for (s, &x) in ss.iter_mut().zip(x) {
        *s = mul_add::<T, FMA>(x, x, *s);
    }
}

/// `Σ x²` in [`LANES`] lane partial sums, as [`pass2`] forms it.
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

//! Householder reflector primitives: generation (`dlarfg`), single-reflector
//! application (`dlarf`), compact-WY triangular factor assembly (`dlarft`),
//! and block-reflector application (`dlarfb`) — including the *pair* variant
//! that applies a reflector block to two discontiguous row blocks, which is
//! what the TSQR reduction-tree update (task S at inner tree nodes,
//! Algorithm 2 line 26 of the paper) needs.

use crate::gemm::{gemm_on, spec_named, Kernel, KernelSpec, Trans};
use crate::trmm::{densify, tri_gemm, Side, Triangle};
use ca_matrix::{MatView, MatViewMut, Matrix, Scalar};

/// Generates an elementary reflector `H = I − τ·v·vᵀ` with `v[0] = 1` such
/// that `H · [alpha; x] = [beta; 0]`.
///
/// On return `x` holds `v[1..]`; returns `(beta, tau)`. If `x` is zero,
/// `tau = 0` (H = I) and `beta = alpha`. Entries anywhere in the exponent
/// range are safe: a norm that would overflow or lose digits to underflow is
/// recomputed scaled, as LAPACK's `dnrm2`/`dlarfg` do.
pub fn larfg<T: Scalar>(alpha: T, x: &mut [T]) -> (T, T) {
    let ss = x.iter().fold(T::ZERO, |s, &v| s + v * v);
    let r = reflector(alpha, x, ss);
    for v in x.iter_mut() {
        *v *= r.scale;
    }
    (r.beta, r.tau)
}

/// A reflector `H = I − τ·v·vᵀ`, `v = [1; scale·x]`, with
/// `H · [alpha; x] = [beta; 0]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reflector<T> {
    pub beta: T,
    pub tau: T,
    pub scale: T,
}

/// The reflector of `[alpha; x]`, given `ss`, the sum of squares of `x` as
/// the caller accumulated it. `x` is left unscaled — the caller applies
/// `scale`, in [`larfg`] or in the pass of [`crate::geqr3`]'s base case that
/// reads `x` anyway — except on the rescaling path, which multiplies `x` by
/// an exact power of two first (the returned `scale` applies to the result).
pub(crate) fn reflector<T: Scalar>(alpha: T, x: &mut [T], ss: T) -> Reflector<T> {
    // NaN propagates through the plain formulas; only a sum that overflowed
    // or may have lost digits to underflow (zero included) takes the slow path.
    if !ss.is_nan() && (!ss.is_finite() || ss < safe_min::<T>()) {
        return rescaled(alpha, x);
    }
    finish(alpha, ss.sqrt())
}

/// `τ` and the scale of `x` from `alpha` and `‖x‖ > 0`.
fn finish<T: Scalar>(alpha: T, xnorm: T) -> Reflector<T> {
    let beta = -(alpha.hypot(xnorm)).copysign(alpha);
    Reflector { beta, tau: (beta - alpha) / beta, scale: T::ONE / (alpha - beta) }
}

/// LAPACK's `safmin / eps`: a sum of squares below it may have lost digits
/// to underflow, and a `|β|` below it is scaled up before `1/(α − β)` is
/// taken. A power of two, so scaling by it is exact.
fn safe_min<T: Scalar>() -> T {
    T::MIN_POSITIVE / T::EPSILON
}

/// `‖x‖` without overflow or underflow: the largest magnitude times the norm
/// of `x` divided by it.
fn scaled_norm<T: Scalar>(x: &[T]) -> T {
    let amax = x.iter().fold(T::ZERO, |m, &v| m.max(v.abs()));
    if amax == T::ZERO || !amax.is_finite() {
        return amax;
    }
    // Divide rather than multiply by `1/amax`, which overflows for a
    // subnormal `amax`.
    amax * x.iter().fold(T::ZERO, |s, &v| s + (v / amax) * (v / amax)).sqrt()
}

/// [`reflector`] for a sum of squares out of range (`dlarfg`): the norm is
/// recomputed scaled, and while `|β|` is below [`safe_min`] `x` and `alpha`
/// are scaled up by its reciprocal, `β` scaled back at the end.
#[cold]
#[inline(never)]
fn rescaled<T: Scalar>(mut alpha: T, x: &mut [T]) -> Reflector<T> {
    let xnorm = scaled_norm(x);
    if xnorm == T::ZERO {
        return Reflector { beta: alpha, tau: T::ZERO, scale: T::ONE };
    }
    let (safmin, mut r) = (safe_min::<T>(), finish(alpha, xnorm));
    let mut knt = 0;
    while r.beta.abs() < safmin && knt < 20 {
        let up = T::ONE / safmin;
        x.iter_mut().for_each(|v| *v *= up);
        alpha *= up;
        knt += 1;
        r = finish(alpha, scaled_norm(x));
    }
    (0..knt).for_each(|_| r.beta *= safmin);
    r
}

/// Applies `H = I − τ·v·vᵀ` from the left to `c` (`m × n`), where `v` is the
/// full reflector vector including the leading implicit `1`
/// (`v.len() == m`, `v[0]` ignored and treated as 1).
pub fn larf_left<T: Scalar>(tau: T, v: &[T], mut c: MatViewMut<'_, T>) {
    if tau == T::ZERO {
        return;
    }
    let m = c.nrows();
    assert_eq!(v.len(), m, "reflector length must equal row count");
    for j in 0..c.ncols() {
        let col = c.col_mut(j);
        // w = vᵀ c_j  (with v[0] treated as 1)
        let mut w = col[0];
        for i in 1..m {
            w += v[i] * col[i];
        }
        let tw = tau * w;
        col[0] -= tw;
        for i in 1..m {
            col[i] -= tw * v[i];
        }
    }
}

/// Builds the upper-triangular compact-WY factor `T` (`k × k`) from the
/// reflectors stored in `v` (`m × k`, unit lower trapezoidal: `v[i][j]` for
/// `i > j` are stored, the diagonal is implicitly 1, above is ignored) and
/// the scalar factors `tau` (`dlarft` with `DIRECT='F'`, `STOREV='C'`).
pub fn larft<T: Scalar>(v: MatView<'_, T>, tau: &[T], mut t: MatViewMut<'_, T>) {
    let m = v.nrows();
    let k = v.ncols();
    assert_eq!(tau.len(), k, "tau length must equal reflector count");
    assert!(t.nrows() >= k && t.ncols() >= k, "T must be at least k x k");

    let mut w = vec![T::ZERO; k];
    for (j, &tj) in tau.iter().enumerate() {
        t.set(j, j, tj);
        if j > 0 {
            // w = Vᵀ v_j restricted to columns 0..j, where v_j has an
            // implicit 1 at row j and stored entries below.
            let w = &mut w[..j];
            for (i, wi) in w.iter_mut().enumerate() {
                let mut s = v.at(j, i); // row j of column i times the implicit 1
                for r in j + 1..m {
                    s += v.at(r, i) * v.at(r, j);
                }
                *wi = s;
            }
            // T[0..j, j] = -tau_j * T[0..j, 0..j] * w  (T upper triangular)
            for i in 0..j {
                let mut s = T::ZERO;
                for (l, &wl) in w.iter().enumerate().take(j).skip(i) {
                    s += t.at(i, l) * wl;
                }
                t.set(i, j, -tj * s);
            }
        }
        // Zero the strictly-lower part of column j so T is cleanly triangular.
        for i in j + 1..k {
            t.set(i, j, T::ZERO);
        }
    }
}

/// Shape of the blocks below the top block of a stacked reflector set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VRest {
    /// Dense blocks: what a QR of a dense stack leaves ([`crate::geqr3`],
    /// and `dtsqrt`'s square tile).
    Dense,
    /// Upper-trapezoidal blocks with the zeros below each block's diagonal
    /// stored: what a QR of stacked upper trapezoids leaves, because
    /// reflector `j` only ever touches the first `j + 1` rows of each block.
    UpperTrapezoid,
}

/// Applies a compact-WY block reflector `Q = I − V·T·Vᵀ` (or its transpose)
/// from the left to a conceptually stacked matrix `[C_top; C_bot]`, where the
/// reflectors are likewise stacked `V = [V_top; V_bot]`:
///
/// * `v_top` is `k × k`, unit lower triangular (stored below the diagonal —
///   the upper part typically holds `R` and is ignored);
/// * `v_bot` is `r × k`, dense (possibly `r = 0`);
/// * `c_top` is `k × n`, `c_bot` is `r' × n` with `r' == r`.
///
/// `trans == Trans::Yes` applies `Qᵀ` (the factorization update direction);
/// `trans == Trans::No` applies `Q` (used when forming/applying Q).
///
/// The two C blocks may live at unrelated addresses — this is exactly the
/// inner-tree-node trailing update of multithreaded CAQR, where the stacked
/// `R` rows of two different block rows of the matrix are updated together.
pub fn larfb_left_pair<T: Kernel>(
    trans: Trans,
    v_top: MatView<'_, T>,
    v_bot: MatView<'_, T>,
    t: MatView<'_, T>,
    c_top: MatViewMut<'_, T>,
    c_bot: MatViewMut<'_, T>,
) {
    let mut c_rest = [c_bot];
    larfb_left_multi(trans, Some(v_top), &[v_bot], VRest::Dense, t, c_top, &mut c_rest);
}

/// Generalization of [`larfb_left_pair`] to any number of discontiguous row
/// blocks and to the structured reflector sets of reduction trees: applies
/// `op(Q)` with `Q = I − V·T·Vᵀ` where `V = [V_top; V_rest[0]; V_rest[1]; …]`
/// and the target is the conceptual stack `[C_top; C_rest[0]; …]`.
///
/// `v_top` is `k × k` unit lower triangular as in [`larfb_left_pair`], or
/// `None` when it is exactly the identity: the QR of a stack whose top block
/// is an upper triangle (a TSQR tree node, `dtsqrt`) never fills it. `rest`
/// says whether the blocks of `v_rest` are dense or upper trapezoidal; the
/// zero parts are skipped, so a node of two `k × k` triangles costs `≈3k²n`
/// flops ([`crate::flops::larfb_node`]) where the dense form costs `≈9k²n`.
/// `t` is upper triangular with its strictly-lower part ignored.
///
/// Every product runs on [`gemm`](crate::gemm)'s paths through
/// [`crate::trmm`]'s blocks; the result for a column of `C` does not
/// depend on which other columns are applied in the same call.
///
/// # Panics
/// If block shapes are inconsistent or `v_rest.len() != c_rest.len()`.
pub fn larfb_left_multi<T: Kernel>(
    trans: Trans,
    v_top: Option<MatView<'_, T>>,
    v_rest: &[MatView<'_, T>],
    rest: VRest,
    t: MatView<'_, T>,
    c_top: MatViewMut<'_, T>,
    c_rest: &mut [MatViewMut<'_, T>],
) {
    multi_on(T::spec(), trans, v_top, v_rest, rest, t, c_top, c_rest);
}

/// [`larfb_left_multi`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends).
///
/// # Panics
/// Like [`larfb_left_multi`], or if `name` is not a backend this host
/// supports.
#[allow(clippy::too_many_arguments)] // larfb_left_multi's operands plus the name
pub fn larfb_left_multi_with_backend<T: Kernel>(
    name: &str,
    trans: Trans,
    v_top: Option<MatView<'_, T>>,
    v_rest: &[MatView<'_, T>],
    rest: VRest,
    t: MatView<'_, T>,
    c_top: MatViewMut<'_, T>,
    c_rest: &mut [MatViewMut<'_, T>],
) {
    multi_on(spec_named(name), trans, v_top, v_rest, rest, t, c_top, c_rest);
}

/// [`larfb_left_multi`] on the products of `spec`.
#[allow(clippy::too_many_arguments)] // larfb_left_multi's operands plus the spec
fn multi_on<T: Kernel>(
    spec: &KernelSpec<T>,
    trans: Trans,
    v_top: Option<MatView<'_, T>>,
    v_rest: &[MatView<'_, T>],
    rest: VRest,
    t: MatView<'_, T>,
    mut c_top: MatViewMut<'_, T>,
    c_rest: &mut [MatViewMut<'_, T>],
) {
    let k = c_top.nrows();
    let n = c_top.ncols();
    if let Some(v_top) = v_top {
        assert_eq!((v_top.nrows(), v_top.ncols()), (k, k), "v_top must be square k x k");
    }
    assert!(t.nrows() >= k && t.ncols() >= k, "T must be at least k x k");
    assert_eq!(v_rest.len(), c_rest.len(), "V and C block counts must match");
    for (vb, cb) in v_rest.iter().zip(c_rest.iter()) {
        assert_eq!(vb.ncols(), k, "each V block must have k columns");
        assert_eq!(cb.nrows(), vb.nrows(), "C block rows must match V block");
        assert_eq!(cb.ncols(), n, "C blocks must share width");
    }
    if n == 0 || k == 0 {
        return;
    }
    // V_rest[i] (or its transpose) times a k-row block, skipping stored zeros.
    let rest_mul =
        |tv, alpha, v: MatView<'_, T>, b: MatView<'_, T>, c: MatViewMut<'_, T>| match rest {
            VRest::Dense => gemm_on(spec, tv, Trans::No, alpha, v, b, T::ONE, c),
            VRest::UpperTrapezoid => {
                tri_gemm(spec, Side::Left, Triangle::Upper, tv, alpha, v, b, T::ONE, c)
            }
        };

    T::with_work_buf(|work| {
        let (w, scratch) = work.scratch(2 * k * (n + k)).split_at_mut(k * n);
        let (w2, scratch) = scratch.split_at_mut(k * n);
        let (v_dense, t_dense) = scratch.split_at_mut(k * k);
        let mut w = MatViewMut::from_slice(w, k, n);
        let mut w2 = MatViewMut::from_slice(w2, k, n);
        let v_top = v_top.map(|v| densify(Triangle::UnitLower, v, v_dense));
        let t = densify(Triangle::Upper, t.sub(0, 0, k, k), t_dense);

        // W := Vᵀ C
        match v_top {
            Some(v) => tri_gemm(
                spec,
                Side::Left,
                Triangle::UnitLower,
                Trans::Yes,
                T::ONE,
                v,
                c_top.as_ref(),
                T::ZERO,
                w.rb(),
            ),
            None => w.copy_from(c_top.as_ref()),
        }
        for (vb, cb) in v_rest.iter().zip(c_rest.iter()) {
            rest_mul(Trans::Yes, T::ONE, *vb, cb.as_ref(), w.rb());
        }
        // W₂ := op(T) W
        tri_gemm(spec, Side::Left, Triangle::Upper, trans, T::ONE, t, w.as_ref(), T::ZERO, w2.rb());
        // C := C − V W₂
        match v_top {
            Some(v) => tri_gemm(
                spec,
                Side::Left,
                Triangle::UnitLower,
                Trans::No,
                -T::ONE,
                v,
                w2.as_ref(),
                T::ONE,
                c_top.rb(),
            ),
            None => {
                for j in 0..n {
                    for (c, &x) in c_top.col_mut(j).iter_mut().zip(w2.col(j)) {
                        *c -= x;
                    }
                }
            }
        }
        for (vb, cb) in v_rest.iter().zip(c_rest.iter_mut()) {
            rest_mul(Trans::No, -T::ONE, *vb, w2.as_ref(), cb.rb());
        }
    });
}

/// Applies `op(Q)` from the left to a contiguous `m × n` block `c`, where
/// the reflectors are stored unit-lower-trapezoidally in `v` (`m × k`),
/// as produced by [`crate::geqr2`]/[`crate::geqr3`] (`dlarfb`).
pub fn larfb_left<T: Kernel>(
    trans: Trans,
    v: MatView<'_, T>,
    t: MatView<'_, T>,
    c: MatViewMut<'_, T>,
) {
    larfb_left_on(T::spec(), trans, v, t, c);
}

/// [`larfb_left`] pinned to a named backend from
/// [`gemm_available_backends`](crate::gemm_available_backends).
///
/// # Panics
/// Like [`larfb_left`], or if `name` is not a backend this host supports.
pub fn larfb_left_with_backend<T: Kernel>(
    name: &str,
    trans: Trans,
    v: MatView<'_, T>,
    t: MatView<'_, T>,
    c: MatViewMut<'_, T>,
) {
    larfb_left_on(spec_named(name), trans, v, t, c);
}

/// [`larfb_left`] on the products of `spec`.
pub(crate) fn larfb_left_on<T: Kernel>(
    spec: &KernelSpec<T>,
    trans: Trans,
    v: MatView<'_, T>,
    t: MatView<'_, T>,
    c: MatViewMut<'_, T>,
) {
    let m = v.nrows();
    let k = v.ncols();
    assert_eq!(c.nrows(), m, "C rows must match V rows");
    assert!(m >= k, "V must be tall (m >= k)");
    let v_top = v.sub(0, 0, k, k);
    let v_bot = v.sub(k, 0, m - k, k);
    let (c_top, c_bot) = c.split_at_row(k);
    multi_on(spec, trans, Some(v_top), &[v_bot], VRest::Dense, t, c_top, &mut [c_bot]);
}

/// Forms the thin explicit `Q` (`m × k`) from packed reflectors `v` (`m × k`)
/// and compact-WY factor `t`: `Q = (I − V·T·Vᵀ) · [I_k; 0]`.
pub fn form_q_thin<T: Kernel>(v: MatView<'_, T>, t: MatView<'_, T>) -> Matrix<T> {
    let m = v.nrows();
    let k = v.ncols();
    let mut q = Matrix::zeros(m, k);
    for i in 0..k {
        q[(i, i)] = T::ONE;
    }
    larfb_left(Trans::No, v, t, q.view_mut());
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::norm_max;

    #[test]
    fn larfg_annihilates_vector() {
        let alpha = 3.0;
        let mut x = vec![4.0];
        let (beta, tau) = larfg(alpha, &mut x);
        // H [3; 4] should be [±5; 0]
        assert!((beta.abs() - 5.0).abs() < 1e-14);
        // Apply H = I - tau v vᵀ manually to [3;4]:
        let v = [1.0, x[0]];
        let w = tau * (3.0 * v[0] + 4.0 * v[1]);
        let r0 = 3.0 - w * v[0];
        let r1 = 4.0 - w * v[1];
        assert!((r0 - beta).abs() < 1e-14);
        assert!(r1.abs() < 1e-14);
    }

    #[test]
    fn larfg_zero_tail_is_identity() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(7.0, &mut x);
        assert_eq!(beta, 7.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn larfg_is_scale_safe() {
        // H·[3; 4; 0] = [-5; 0; 0] with τ = 1.6 and v = [1; 0.5; 0] at any
        // power-of-two scale: squares that overflow, that underflow, and
        // entries that are themselves subnormal.
        fn check<T: Scalar>(exps: &[i32]) {
            for &e in exps {
                // 2^e by exact halving or doubling: `powi` overflows on the
                // way to a subnormal result.
                let s = T::from_f64(
                    (0..e.abs()).fold(1.0, |x: f64, _| if e < 0 { x / 2.0 } else { x * 2.0 }),
                );
                let mut x = [T::from_f64(4.0) * s, T::ZERO];
                let (beta, tau) = larfg(T::from_f64(3.0) * s, &mut x);
                let near = |got: T, want: f64| {
                    (got.to_f64() - want).abs() <= 4.0 * T::EPSILON.to_f64() * want.abs()
                };
                assert!(
                    near(beta / s, -5.0) && near(tau, 1.6) && near(x[0], 0.5),
                    "{} 2^{e}: {beta} {tau} {x:?}",
                    T::NAME
                );
                assert_eq!(x[1], T::ZERO);
            }
        }
        check::<f64>(&[0, 600, -600, -1060]);
        check::<f32>(&[0, 70, -70, -140]);
        // A zero tail leaves H = I however small alpha is.
        let mut x = [0.0; 3];
        assert_eq!(larfg(f64::MIN_POSITIVE / 8.0, &mut x), (f64::MIN_POSITIVE / 8.0, 0.0));
    }

    #[test]
    fn larfg_reflector_is_orthogonal() {
        let mut x = vec![1.0, -2.0, 0.5];
        let (_, tau) = larfg(0.7, &mut x);
        let v = [1.0, x[0], x[1], x[2]];
        // H = I - tau v vᵀ must satisfy HᵀH = I.
        let n = 4;
        let mut h = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] -= tau * v[i] * v[j];
            }
        }
        let hth = h.transpose().matmul(&h);
        let diff = hth.sub_matrix(&Matrix::identity(n));
        assert!(norm_max(diff.view()) < 1e-14);
    }

    #[test]
    fn larf_left_matches_explicit_reflector() {
        let mut rng = ca_matrix::seeded_rng(12);
        let c0 = ca_matrix::random_uniform(4, 3, &mut rng);
        let mut x = vec![0.3, -0.8, 0.1];
        let (_, tau) = larfg(1.5, &mut x);
        let v = vec![1.0, x[0], x[1], x[2]];

        let mut h = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                h[(i, j)] -= tau * v[i] * v[j];
            }
        }
        let expect = h.matmul(&c0);
        let mut c = c0.clone();
        larf_left(tau, &v, c.view_mut());
        assert!(norm_max(c.sub_matrix(&expect).view()) < 1e-14);
    }
}

//! Recursive Householder QR (`dgeqr3`), after Elmroth & Gustavson (1998).
//!
//! Recursing on the column count turns the bulk of the work into BLAS3
//! (`larfb` block applications); the compact-WY `T` factor of the whole
//! panel is assembled on the way up. This is the sequential kernel the paper
//! runs inside TSQR leaves and tree nodes ("the efficient recursive QR
//! factorization [10]").

use crate::gemm::{gemm, Kernel, Trans};
use crate::householder::{larfb_left, larft};
use crate::qr_unblocked::geqr2;
use crate::trmm::{densify, tri_gemm, Side, Triangle};
use ca_matrix::MatViewMut;

/// Column count at which recursion bottoms out into `geqr2` + `larft`.
const BASE_COLS: usize = 4;

/// Recursive QR of an `m × n` view (`m ≥ n` required), in place.
///
/// On return `a` holds `R` in its upper triangle and the Householder vectors
/// below the diagonal; `t` (an `n × n` view) receives the upper-triangular
/// compact-WY factor of the whole panel, so `Q = I − V·T·Vᵀ`.
///
/// # Panics
/// If `m < n` or `t` is smaller than `n × n`.
pub fn geqr3<T: Kernel>(mut a: MatViewMut<'_, T>, mut t: MatViewMut<'_, T>) {
    let m = a.nrows();
    let n = a.ncols();
    assert!(m >= n, "geqr3 requires a tall or square panel (m >= n), got {m}x{n}");
    assert!(t.nrows() >= n && t.ncols() >= n, "T workspace must be at least n x n");
    if n == 0 {
        return;
    }
    if n <= BASE_COLS {
        let mut tau = Vec::with_capacity(n);
        geqr2(a.rb(), &mut tau);
        larft(a.as_ref(), &tau, t.rb());
        return;
    }

    let n1 = n / 2;
    let n2 = n - n1;

    // Factor the left half: V1, R1, T1.
    geqr3(a.sub(0, 0, m, n1), t.sub(0, 0, n1, n1));

    // A[:, n1..] := Q1ᵀ A[:, n1..]
    {
        let (left, right) = a.rb().split_at_col(n1);
        larfb_left(Trans::Yes, left.as_ref(), t.as_ref().sub(0, 0, n1, n1), right);
    }

    // Factor the trailing block: V2, R2, T2 (rows n1.., cols n1..).
    geqr3(a.sub(n1, n1, m - n1, n2), t.sub(n1, n1, n2, n2));

    // T3 = T[0..n1, n1..n] = −T1 · (V1ᵀ V2) · T2, where V2 is embedded in
    // rows n1..m: its unit-lower top block L2 meets rows n1..n of V1 as a
    // triangular product, the rest is a plain gemm (the `dgeqrt3` order).
    {
        let (va, vb) = (a.as_ref().sub(n1, 0, n2, n1), a.as_ref().sub(n, 0, m - n, n1));
        let (l2, v2b) = (a.as_ref().sub(n1, n1, n2, n2), a.as_ref().sub(n, n1, m - n, n2));
        let (t1, t3, _, t2) = t.into_sub(0, 0, n, n).split_quad(n1, n1);
        let (t1, t2) = (t1.as_ref(), t2.as_ref());
        let spec = T::spec();
        T::with_work_buf(|work| {
            // n1 <= n2, so an n2 x n2 block holds either densified triangle.
            let (x, scratch) = work.scratch(2 * n1 * n2 + n2 * n2).split_at_mut(n1 * n2);
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
            tri_gemm(spec, Side::Right, Triangle::UnitLower, Trans::No, T::ONE, l2, x.as_ref(), T::ZERO, y.rb());
            gemm(Trans::Yes, Trans::No, T::ONE, vb, v2b, T::ONE, y.rb());
            // x := −T1·y
            let t1 = densify(Triangle::Upper, t1, &mut tri[..n1 * n1]);
            tri_gemm(spec, Side::Left, Triangle::Upper, Trans::No, -T::ONE, t1, y.as_ref(), T::ZERO, x.rb());
            // T3 := x·T2
            let t2 = densify(Triangle::Upper, t2, &mut tri[..n2 * n2]);
            tri_gemm(spec, Side::Right, Triangle::Upper, Trans::No, T::ONE, t2, x.as_ref(), T::ZERO, t3);
        });
    }
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
    fn recursive_qr_various_shapes() {
        check(4, 4, 1); // base case exactly
        check(5, 5, 2); // first split
        check(16, 16, 3);
        check(40, 12, 4);
        check(100, 32, 5);
        check(65, 33, 6); // odd sizes
        check(7, 1, 7);
    }

    #[test]
    fn recursive_matches_unblocked_r_up_to_sign() {
        let m = 30;
        let n = 12;
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
    fn t_factor_is_upper_triangular() {
        let m = 20;
        let n = 10;
        let mut a = ca_matrix::random_uniform(m, n, &mut ca_matrix::seeded_rng(10));
        let mut t = Matrix::zeros(n, n);
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
    fn wide_panel_rejected() {
        let mut a: Matrix = Matrix::zeros(3, 5);
        let mut t: Matrix = Matrix::zeros(5, 5);
        geqr3(a.view_mut(), t.view_mut());
    }
}

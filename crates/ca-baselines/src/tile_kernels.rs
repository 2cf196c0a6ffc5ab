//! PLASMA-style tile kernels of tiled LU (Buttari, Langou, Kurzak,
//! Dongarra 2009) with incremental pairwise pivoting: `getrf_tile` (GEPP of
//! the diagonal tile), `gessm` (apply its pivots + `L⁻¹` to a right tile),
//! `tstrf` (GEPP of `[U_kk; A_ik]`), `ssssm` (apply the `tstrf` transform to
//! a stacked tile pair). Tiled QR has no kernels of its own: it is CAQR's
//! plan over PLASMA's tile chain (`crate::tiled_qr`).

use ca_kernels::{gemm, getf2, trsm_left_lower_unit, LuInfo, Trans};
use ca_matrix::{MatView, MatViewMut, Matrix, PivotSeq};

/// GEPP of a diagonal tile (`dgetrf` on one tile), returning tile-local
/// pivots (LAPACK-style `LuInfo`).
pub fn getrf_tile(tile: MatViewMut<'_>) -> LuInfo {
    getf2(tile)
}

/// Applies a diagonal tile's pivots and `L⁻¹` to a right-hand tile
/// (`dgessm`): `A_kj := L_kk⁻¹ · Π A_kj`.
pub fn gessm(pivots: &PivotSeq, l_kk: MatView<'_>, mut a_kj: MatViewMut<'_>) {
    pivots.apply(a_kj.rb());
    trsm_left_lower_unit(l_kk, a_kj);
}

/// The transform produced by [`tstrf`], needed to update trailing tile pairs.
#[derive(Clone, Debug)]
pub struct TstrfTransform {
    /// Packed GEPP factors of the stacked `[U_kk; A_ik]` (`(b+r) × b`):
    /// `L` below the diagonal (unit), updated `U` on top.
    pub packed: Matrix,
    /// Stack-local row interchanges.
    pub pivots: PivotSeq,
}

/// Triangle-on-square LU with pairwise pivoting (`dtstrf`): GEPP of the
/// stacked `[U_kk (b × b upper); A_ik (r × b)]`. Writes the updated `U` back
/// into `u_kk`, the `L` rows belonging to the square tile back into `a_ik`,
/// and returns the full transform (the top `L` block and pivots live only in
/// the transform, as in PLASMA's separate `L` storage).
pub fn tstrf(mut u_kk: MatViewMut<'_>, mut a_ik: MatViewMut<'_>) -> TstrfTransform {
    let b = u_kk.nrows();
    assert_eq!(u_kk.ncols(), b, "U tile must be square");
    assert_eq!(a_ik.ncols(), b, "A tile must have b columns");
    let r = a_ik.nrows();

    // Stack [U; A] (U's sub-diagonal is zero).
    let mut stack = Matrix::zeros(b + r, b);
    for j in 0..b {
        for i in 0..=j.min(b - 1) {
            stack[(i, j)] = u_kk.at(i, j);
        }
        let col = a_ik.col(j);
        for i in 0..r {
            stack[(b + i, j)] = col[i];
        }
    }
    let info = getf2(stack.view_mut());

    // Updated U back into the triangle; L rows of the square tile back into
    // a_ik (rows b.. of the packed stack).
    for j in 0..b {
        for i in 0..=j {
            u_kk.set(i, j, stack[(i, j)]);
        }
        let col = a_ik.col_mut(j);
        for i in 0..r {
            col[i] = stack[(b + i, j)];
        }
    }
    TstrfTransform { packed: stack, pivots: info.pivots }
}

/// Applies a [`tstrf`] transform to the trailing stacked tile pair
/// `[A_kj; A_ij]` (`dssssm`): interchange, then
/// `top := L₁₁⁻¹ top`, `bottom := bottom − L₂₁ · top`.
pub fn ssssm(tr: &TstrfTransform, mut a_kj: MatViewMut<'_>, mut a_ij: MatViewMut<'_>) {
    let b = a_kj.nrows();
    let r = a_ij.nrows();
    let n = a_kj.ncols();
    assert_eq!(a_ij.ncols(), n, "tile widths must match");

    // Apply stack-local interchanges across the pair.
    for (k, &p) in tr.pivots.ipiv.iter().enumerate() {
        if p != k {
            for j in 0..n {
                let (x, y);
                if k < b {
                    x = a_kj.at(k, j);
                } else {
                    x = a_ij.at(k - b, j);
                }
                if p < b {
                    y = a_kj.at(p, j);
                } else {
                    y = a_ij.at(p - b, j);
                }
                if k < b {
                    a_kj.set(k, j, y);
                } else {
                    a_ij.set(k - b, j, y);
                }
                if p < b {
                    a_kj.set(p, j, x);
                } else {
                    a_ij.set(p - b, j, x);
                }
            }
        }
    }

    // top := L11⁻¹ top.
    let l11 = tr.packed.block(0, 0, b, b);
    trsm_left_lower_unit(l11, a_kj.rb());
    // bottom -= L21 · top.
    if r > 0 {
        let l21 = tr.packed.block(b, 0, r, b);
        gemm(Trans::No, Trans::No, -1.0, l21, a_kj.as_ref(), 1.0, a_ij);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{norm_max, seeded_rng};

    #[test]
    fn tstrf_factors_the_stack() {
        let b = 6;
        let r = 6;
        let mut rng = seeded_rng(4);
        let mut u_kk = ca_matrix::random_uniform(b, b, &mut rng);
        for i in 0..b {
            for j in 0..i {
                u_kk[(i, j)] = 0.0;
            }
        }
        let a_ik = ca_matrix::random_uniform(r, b, &mut rng);
        let stack0 = Matrix::vstack(&[u_kk.view(), a_ik.view()]);

        let mut uw = u_kk.clone();
        let mut aw = a_ik.clone();
        let tr = tstrf(uw.view_mut(), aw.view_mut());

        // Π stack0 = L U with L from packed, U from packed top.
        let perm = tr.pivots.to_permutation(b + r);
        let res = ca_matrix::lu_residual(&stack0, &perm, &tr.packed.unit_lower(), &tr.packed.upper());
        assert!(res < 1e-12, "residual {res}");
        // Written-back U matches packed top triangle.
        for i in 0..b {
            for j in i..b {
                assert_eq!(uw[(i, j)], tr.packed[(i, j)]);
            }
        }
    }

    #[test]
    fn tstrf_ssssm_consistent_with_direct_elimination() {
        // Factor [U A1; V A2]-style 2x2 tile system and verify via solve:
        // build M = [[U, B1], [C, B2]] with U upper; tstrf+ssssm on the left
        // column then the Schur complement must match direct GEPP's.
        let b = 5;
        let mut rng = seeded_rng(5);
        let mut u = ca_matrix::random_uniform(b, b, &mut rng);
        for i in 0..b {
            for j in 0..i {
                u[(i, j)] = 0.0;
            }
            u[(i, i)] += 2.0;
        }
        let c = ca_matrix::random_uniform(b, b, &mut rng);
        let b1 = ca_matrix::random_uniform(b, 3, &mut rng);
        let b2 = ca_matrix::random_uniform(b, 3, &mut rng);

        let mut uw = u.clone();
        let mut cw = c.clone();
        let tr = tstrf(uw.view_mut(), cw.view_mut());
        let mut t1 = b1.clone();
        let mut t2 = b2.clone();
        ssssm(&tr, t1.view_mut(), t2.view_mut());

        // Reference: dense GEPP of the stacked system [U B1; C B2].
        let stack = Matrix::vstack(&[u.view(), c.view()]);
        let rhs = Matrix::vstack(&[b1.view(), b2.view()]);
        let mut work = stack.clone();
        let info = getf2(work.view_mut());
        let mut ref_rhs = rhs.clone();
        info.pivots.apply(ref_rhs.view_mut());
        // Forward-eliminate RHS with L (2b x b trapezoid): y_top = L11^-1 rhs_top;
        // y_bot = rhs_bot - L21 y_top.
        let l11 = work.block(0, 0, b, b);
        ca_kernels::trsm_left_lower_unit(l11, ref_rhs.block_mut(0, 0, b, 3));
        let l21 = work.block(b, 0, b, b);
        let (top, bottom) = ref_rhs.view_mut().split_at_row(b);
        gemm(Trans::No, Trans::No, -1.0, l21, top.as_ref(), 1.0, bottom);

        for i in 0..b {
            for j in 0..3 {
                assert!((t1[(i, j)] - ref_rhs[(i, j)]).abs() < 1e-12, "top mismatch");
                assert!((t2[(i, j)] - ref_rhs[(b + i, j)]).abs() < 1e-12, "bottom mismatch");
            }
        }
    }

    #[test]
    fn gessm_applies_pivot_and_solve() {
        let b = 6;
        let mut rng = seeded_rng(6);
        let tile0 = ca_matrix::random_uniform(b, b, &mut rng);
        let rhs0 = ca_matrix::random_uniform(b, 4, &mut rng);
        let mut tile = tile0.clone();
        let info = getrf_tile(tile.view_mut());
        let mut rhs = rhs0.clone();
        gessm(&info.pivots, tile.view(), rhs.view_mut());
        // Check: U * rhs_result == Π rhs0-forward... i.e. L*result = Π rhs0.
        let l = tile.unit_lower();
        let lr = l.matmul(&rhs);
        let mut prhs = rhs0.clone();
        info.pivots.apply(prhs.view_mut());
        assert!(norm_max(lr.sub_matrix(&prhs).view()) < 1e-12);
    }
}

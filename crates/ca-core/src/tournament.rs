//! Tournament pivoting (ca-pivoting): the preprocessing step of TSLU.
//!
//! Every node of the reduction tree — leaf or internal — performs Gaussian
//! elimination with partial pivoting on a *copy* of its input rows and keeps
//! the rows GEPP chose as pivots (`f(A)` in the paper's §II notation: the
//! first `b` rows of `ΠA`). The originals travel up the tree untouched; the
//! factored copy of the final winner doubles as the packed `L_KK\U_KK`
//! factors of the panel's top block (Algorithm 1 line 19).

use ca_kernels::{getf2, rgetf2, Kernel, LuInfo};
use ca_matrix::{max_abs, MatView, Matrix, Scalar};

/// The outcome of one tournament node: `k = min(rows, cols)` selected rows.
#[derive(Clone, Debug)]
pub struct Selected<T: Scalar = f64> {
    /// The selected rows with their **original** values, in pivot order
    /// (`k × n`): what the next tree level stacks.
    pub rows: Matrix<T>,
    /// Global row index of each selected row.
    pub idx: Vec<usize>,
    /// Packed `L\U` factors of `rows` (`k × n`): GEPP of the node input,
    /// restricted to the winning rows. At the tournament root this is the
    /// panel's `L_KK\U_KK` block.
    pub packed: Matrix<T>,
    /// First exactly-zero pivot column, if the node input was rank deficient.
    pub breakdown: Option<usize>,
    /// Largest `|entry|` among the panel rows that entered this node's
    /// subtree, NaN entries skipped: of its own input for a leaf
    /// ([`select`]), of all its participants' for an internal node
    /// ([`merge`]). At the root it is `max|panel input|`, the denominator of
    /// the growth estimate, so nobody rescans the panel.
    pub input_max: f64,
}

/// Runs one tournament node on `stack` (the stacked candidate rows, or a
/// leaf's block of the panel), whose rows have global indices `idx`.
///
/// `recursive` selects the GEPP kernel: recursive `rgetf2` (the paper's
/// choice) or BLAS2 `getf2`.
///
/// # Panics
/// If `idx.len() != stack.nrows()` or `stack` is empty.
pub fn select<T: Kernel>(stack: MatView<'_, T>, idx: &[usize], recursive: bool) -> Selected<T> {
    /// Elements copied between two `max_abs` folds: a piece still in L1.
    const PIECE: usize = 1024;
    let s = stack.nrows();
    let n = stack.ncols();
    assert_eq!(idx.len(), s, "one global index per stacked row");
    assert!(s > 0 && n > 0, "empty tournament node");

    // The one copy of the input, which GEPP then factors in place.
    let mut work = Vec::with_capacity(s * n);
    let mut input_max = T::ZERO;
    for j in 0..n {
        for piece in stack.col(j).chunks(PIECE) {
            work.extend_from_slice(piece);
            input_max = input_max.max(max_abs(piece));
        }
    }
    let mut work = Matrix::from_vec(work, s, n);
    let LuInfo { pivots, first_zero_pivot } =
        if recursive { rgetf2(work.view_mut()) } else { getf2(work.view_mut()) };
    let perm = pivots.to_permutation(s);
    let winners = &perm[..s.min(n)];
    let k = winners.len();

    let (mut rows, mut packed) = (Vec::with_capacity(k * n), Vec::with_capacity(k * n));
    for j in 0..n {
        let col = stack.col(j);
        rows.extend(winners.iter().map(|&src| col[src]));
        packed.extend_from_slice(&work.view().col(j)[..k]);
    }
    Selected {
        rows: Matrix::from_vec(rows, k, n),
        idx: winners.iter().map(|&src| idx[src]).collect(),
        packed: Matrix::from_vec(packed, k, n),
        breakdown: first_zero_pivot,
        input_max: input_max.to_f64(),
    }
}

/// Stacks the `rows` matrices and `idx` lists of several [`Selected`]
/// outcomes (in participant order) for the next tree level.
pub fn stack_candidates<T: Scalar>(parts: &[&Selected<T>]) -> (Matrix<T>, Vec<usize>) {
    assert!(!parts.is_empty(), "nothing to stack");
    let views: Vec<MatView<'_, T>> = parts.iter().map(|p| p.rows.view()).collect();
    let stacked = Matrix::vstack(&views);
    let idx = parts.iter().flat_map(|p| p.idx.iter().copied()).collect();
    (stacked, idx)
}

/// One internal tree node: [`select`] (recursive kernel) over the stacked
/// candidates of `parts`, carrying their `input_max` upwards.
pub fn merge<T: Kernel>(parts: &[&Selected<T>]) -> Selected<T> {
    let (stacked, idx) = stack_candidates(parts);
    let input_max = parts.iter().fold(0.0f64, |m, p| m.max(p.input_max));
    Selected { input_max, ..select(stacked.view(), &idx, true) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::seeded_rng;

    #[test]
    fn single_block_tournament_equals_gepp_pivots() {
        let a = ca_matrix::random_uniform(12, 4, &mut seeded_rng(1));
        let sel = select(a.view(), &(0..12).collect::<Vec<_>>(), true);
        // Reference GEPP.
        let mut w = a.clone();
        let info = ca_kernels::getf2(w.view_mut());
        let perm = info.pivots.to_permutation(12);
        assert_eq!(sel.idx, perm[..4].to_vec());
        // Selected rows carry original values.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(sel.rows[(i, j)], a[(perm[i], j)]);
            }
        }
        // Packed factors reproduce the winning rows: rows = L * U.
        let l = sel.packed.unit_lower();
        let u = sel.packed.upper();
        let lu = l.matmul(&u);
        let diff = lu.sub_matrix(&sel.rows);
        assert!(ca_matrix::norm_max(diff.view()) < 1e-13);
    }

    #[test]
    fn two_level_tournament_selects_strong_pivots() {
        // Build a matrix whose largest entries sit in the bottom block; a
        // two-node tournament must surface them.
        let mut a = ca_matrix::random_uniform(8, 2, &mut seeded_rng(2));
        a[(6, 0)] = 100.0;
        a[(7, 1)] = 90.0;
        let idx: Vec<usize> = (0..8).collect();
        let top = select(a.block(0, 0, 4, 2), &idx[..4], true);
        let bot = select(a.block(4, 0, 4, 2), &idx[4..], true);
        let (stack, sidx) = stack_candidates(&[&top, &bot]);
        let root = select(stack.view(), &sidx, true);
        assert_eq!(root.idx[0], 6, "first pivot must be the 100.0 row");
        assert!(root.idx.contains(&7) || root.idx.contains(&6));
    }

    #[test]
    fn deficient_leaf_still_yields_candidates() {
        // A rank-1 leaf: GEPP hits zero pivots but must still return k rows.
        let a = ca_matrix::deficient_top_block(8, 2, &mut seeded_rng(3));
        let leaf = select(a.block(0, 0, 2, 2), &[0, 1], false);
        assert_eq!(leaf.idx.len(), 2);
        assert!(leaf.breakdown.is_some());
    }

    #[test]
    fn tournament_winner_invariant_under_block_order() {
        // The *set* of winning rows may differ between tree shapes, but each
        // winner must make the panel factorizable: check |det| of winner
        // block is nonzero for a generic matrix, whatever the grouping.
        let a = ca_matrix::random_uniform(16, 3, &mut seeded_rng(4));
        let idx: Vec<usize> = (0..16).collect();
        let l1 = select(a.block(0, 0, 8, 3), &idx[..8], true);
        let l2 = select(a.block(8, 0, 8, 3), &idx[8..], true);
        let (s, si) = stack_candidates(&[&l1, &l2]);
        let root = select(s.view(), &si, true);
        assert_eq!(root.idx.len(), 3);
        assert!(root.breakdown.is_none());
        // U diagonal (packed upper) nonzero.
        for i in 0..3 {
            assert!(root.packed[(i, i)].abs() > 1e-12);
        }
    }

    #[test]
    fn wide_node_selects_row_count_pivots() {
        // s < n: a 2-row, 5-column node selects 2 rows.
        let a = ca_matrix::random_uniform(2, 5, &mut seeded_rng(5));
        let sel = select(a.view(), &[10, 11], false);
        assert_eq!(sel.idx.len(), 2);
        assert_eq!(sel.rows.nrows(), 2);
        assert_eq!(sel.packed.ncols(), 5);
    }

    #[test]
    fn stack_preserves_order_and_indices() {
        let a = ca_matrix::random_uniform(4, 2, &mut seeded_rng(6));
        let s1 = select(a.block(0, 0, 2, 2), &[0, 1], false);
        let s2 = select(a.block(2, 0, 2, 2), &[2, 3], false);
        let (m, idx) = stack_candidates(&[&s1, &s2]);
        assert_eq!(m.nrows(), 4);
        assert_eq!(idx.len(), 4);
        assert_eq!(&idx[..2], &s1.idx[..]);
        assert_eq!(&idx[2..], &s2.idx[..]);
    }
}

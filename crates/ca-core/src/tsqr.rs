//! TSQR: the tall-skinny QR panel factorization.
//!
//! One CAQR panel (Algorithm 2) consists of:
//! * **leaf QR** of each row group, in place — Householder vectors stay in
//!   the matrix below the diagonal of the group, the compact-WY `T` factor
//!   is kept aside ([`LeafQ`]);
//! * **tree nodes** stacking the participants' `R` factors and refactoring
//!   them; the stacked reflectors and `T` live in per-node scratch
//!   ([`NodeQ`]), the new `R` is written back into the first participant's
//!   top block;
//! * **updates**: every leaf/node `Q` must also hit the trailing columns
//!   (tasks S of Algorithm 2, lines 11 and 26) — and, later, any matrix the
//!   caller applies `Q`/`Qᵀ` to.
//!
//! All operations work through [`SharedMatrix`] block views so the exact
//! same code runs sequentially, inside the task-parallel executor, and in
//! the `Q`-replay of [`crate::QrFactors`].

use crate::params::RowPartition;
use crate::tree::{reduction_schedule, ReduceNode};
use crate::params::TreeShape;
use ca_kernels::{geqr2, geqr3, larfb_left, larfb_left_multi, larft, Kernel, Trans, VRest};
use ca_matrix::{Matrix, Scalar, SharedMatrix};
use core::ops::Range;

/// Q-representation of one leaf QR: the reflectors live in the factored
/// matrix itself (below the diagonal of the group's panel block).
#[derive(Clone, Debug)]
pub struct LeafQ<T: Scalar = f64> {
    /// Global row range of the group.
    pub rows: Range<usize>,
    /// Number of reflectors: `min(rows.len(), panel width)`.
    pub kv: usize,
    /// Compact-WY factor (`kv × kv`, upper triangular).
    pub t: Matrix<T>,
}

/// Q-representation of one reduction node: reflectors of the stacked-`R` QR.
#[derive(Clone, Debug)]
pub struct NodeQ<T: Scalar = f64> {
    /// Global row ranges the node's stacked rows come from. `row_ranges[0]`
    /// has length `kk` (the reflector count); the rest are the other
    /// participants' `R` row blocks.
    pub row_ranges: Vec<Range<usize>>,
    /// Packed stacked factorization (`sum(len) × w`): `R` on top, `V` below.
    pub v: Matrix<T>,
    /// Compact-WY factor (`kk × kk`).
    pub t: Matrix<T>,
    /// Number of reflectors: `min(total stacked rows, w)`.
    pub kk: usize,
}

/// Q-representation of a whole panel.
#[derive(Clone, Debug)]
pub struct PanelQ<T: Scalar = f64> {
    /// Panel diagonal row (= panel column start for square grids).
    pub k0: usize,
    /// Panel column start.
    pub c0: usize,
    /// Panel width.
    pub w: usize,
    /// Reflector count of the final `R` (`min(active rows, w)`).
    pub k: usize,
    /// Per-group leaf factorizations.
    pub leaves: Vec<LeafQ<T>>,
    /// Tree nodes in execution order.
    pub nodes: Vec<NodeQ<T>>,
}

/// Static plan of a panel's tree: row ranges for every node, computed from
/// the partition alone (no data needed) so the DAG builder, the sequential
/// path and the executor all agree.
#[derive(Clone, Debug)]
pub struct NodePlan {
    /// Tree level (for tracing).
    pub level: usize,
    /// Participant slots.
    pub participants: Vec<usize>,
    /// Stacked row ranges (see [`NodeQ::row_ranges`]).
    pub row_ranges: Vec<Range<usize>>,
    /// Reflector count of this node.
    pub kk: usize,
}

/// Plans the reduction for a partition: per-leaf reflector counts and the
/// per-node stacked row ranges.
pub fn plan_panel(part: &RowPartition, w: usize, tree: TreeShape) -> (Vec<usize>, Vec<NodePlan>) {
    let g = part.ngroups();
    let mut slot_k: Vec<usize> = (0..g).map(|i| part.group_rows(i).min(w)).collect();
    let leaf_k = slot_k.clone();
    let mut plans = Vec::new();
    for ReduceNode { level, participants } in reduction_schedule(g, tree) {
        let mut row_ranges = Vec::with_capacity(participants.len());
        let mut total = 0usize;
        for &p in &participants {
            let start = part.group(p).start;
            row_ranges.push(start..start + slot_k[p]);
            total += slot_k[p];
        }
        let kk = total.min(w);
        assert!(
            row_ranges[0].len() >= kk,
            "first participant must hold at least kk rows (got {} < {kk})",
            row_ranges[0].len()
        );
        // The reflector block occupies only the first kk rows of slot 0.
        let s0 = row_ranges[0].start;
        row_ranges[0] = s0..s0 + kk;
        slot_k[participants[0]] = kk;
        plans.push(NodePlan { level, participants, row_ranges, kk });
    }
    (leaf_k, plans)
}

/// Leaf QR of the group `rows × w` block at panel columns `c0..c0+w`,
/// in place. Returns the leaf's `T` factor.
// TSQR kernel helper: called from DAG executors whose declared
// footprints `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
pub fn leaf_qr<T: Kernel>(
    a: &SharedMatrix<T>,
    c0: usize,
    w: usize,
    rows: Range<usize>,
) -> LeafQ<T> {
    let r = rows.len();
    let kv = r.min(w);
    // SAFETY: caller (sequential loop or DAG) guarantees exclusive access.
    let mut blk = unsafe { a.block_mut(rows.start, c0, r, w) };
    let mut t = Matrix::zeros(kv, kv);
    if r >= w {
        geqr3(blk, t.view_mut());
    } else {
        // Wide leaf (ragged bottom group): BLAS2 fallback.
        let mut tau = Vec::new();
        geqr2(blk.rb(), &mut tau);
        larft(blk.as_ref().sub(0, 0, r, kv), &tau, t.view_mut());
    }
    LeafQ { rows, kv, t }
}

/// Applies `op(Q_leaf)` to columns `dcols` of `dst` (rows = the leaf's
/// group). `src` holds the factored panel (the reflectors); during the
/// factorization's own trailing update `src` and `dst` are the same matrix.
// TSQR kernel helper: called from DAG executors whose declared
// footprints `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
pub fn leaf_apply<T: Kernel>(
    src: &SharedMatrix<T>,
    c0: usize,
    leaf: &LeafQ<T>,
    dst: &SharedMatrix<T>,
    dcols: Range<usize>,
    trans: Trans,
) {
    if dcols.is_empty() {
        return;
    }
    let r = leaf.rows.len();
    // SAFETY: DAG/replay ordering guarantees the V block is read-stable and
    // the destination block is exclusively ours.
    let v = unsafe { src.block(leaf.rows.start, c0, r, leaf.kv) };
    let c = unsafe { dst.block_mut(leaf.rows.start, dcols.start, r, dcols.len()) };
    larfb_left(trans, v, leaf.t.view(), c);
}

/// Reduction-node QR: stacks the participants' current `R` factors (read
/// from `a` at `plan.row_ranges`, panel columns `c0..c0+w`), refactors them,
/// writes the merged `R` back into the first participant's rows, and returns
/// the node's reflectors.
// TSQR kernel helper: called from DAG executors whose declared
// footprints `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
pub fn node_qr<T: Kernel>(
    a: &SharedMatrix<T>,
    c0: usize,
    w: usize,
    plan: &NodePlan,
) -> NodeQ<T> {
    let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
    let kk = plan.kk;
    // `node_apply` relies on the structure this gives the reflectors: an
    // upper-triangular top block keeps V's top block the identity.
    assert_eq!(plan.row_ranges[0].len(), kk, "first participant must supply exactly kk rows");
    let mut stack = Matrix::zeros(s, w);
    let mut rows = stack.view_mut();
    let mut off = 0usize;
    for range in &plan.row_ranges {
        let len = range.len();
        // SAFETY: ordered read of the participants' R blocks.
        let blk = unsafe { a.block(range.start, c0, len, w) };
        for j in 0..w {
            // Copy the upper-trapezoid R entries; below lives V junk.
            // For participant 0 on upper tree levels the R occupies only
            // `len` rows anyway, so trapezoid copy is always correct.
            let imax = (j + 1).min(len);
            rows.col_mut(j)[off..off + imax].copy_from_slice(&blk.col(j)[..imax]);
        }
        off += len;
    }

    let mut t = Matrix::zeros(kk, kk);
    if s >= w {
        geqr3(stack.view_mut(), t.view_mut());
    } else {
        let mut tau = Vec::new();
        geqr2(stack.view_mut(), &mut tau);
        larft(stack.block(0, 0, s, kk), &tau, t.view_mut());
    }

    // Write the merged R (upper trapezoid of the top kk rows) back into the
    // first participant's rows — without clobbering the leaf V entries that
    // live below the diagonal there.
    {
        let r0 = plan.row_ranges[0].start;
        // SAFETY: exclusive write ordered by the DAG.
        let mut top = unsafe { a.block_mut(r0, c0, kk, w) };
        let merged = stack.view();
        for j in 0..w {
            let imax = (j + 1).min(kk);
            top.col_mut(j)[..imax].copy_from_slice(&merged.col(j)[..imax]);
        }
    }

    NodeQ { row_ranges: plan.row_ranges.clone(), v: stack, t, kk }
}

/// Applies `op(Q_node)` to columns `dcols` of `dst`, touching only the
/// node's stacked rows (the paper's task S at inner tree nodes).
// TSQR kernel helper: called from DAG executors whose declared
// footprints `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
pub fn node_apply<T: Kernel>(
    node: &NodeQ<T>,
    dst: &SharedMatrix<T>,
    dcols: Range<usize>,
    trans: Trans,
) {
    if dcols.is_empty() {
        return;
    }
    let kk = node.kk;
    let mut v_rest = Vec::with_capacity(node.row_ranges.len() - 1);
    let mut off = kk;
    for range in &node.row_ranges[1..] {
        v_rest.push(node.v.block(off, 0, range.len(), kk));
        off += range.len();
    }
    // SAFETY: the DAG orders this as the exclusive writer of these blocks.
    let c_top = unsafe {
        dst.block_mut(node.row_ranges[0].start, dcols.start, kk, dcols.len())
    };
    let mut c_rest: Vec<_> = node.row_ranges[1..]
        .iter()
        .map(|r| unsafe { dst.block_mut(r.start, dcols.start, r.len(), dcols.len()) })
        .collect();
    // `node_qr` stacks only upper trapezoids: V's top block is the identity
    // and every other block stays upper trapezoidal.
    larfb_left_multi(trans, None, &v_rest, VRest::UpperTrapezoid, node.t.view(), c_top, &mut c_rest);
}

/// Applies `op(Q_panel)` for a full panel to columns `dcols` of `dst`:
/// `Qᵀ` = leaves then nodes in order; `Q` = nodes in reverse then leaves.
///
/// This is the replay path (`Q` application after factorization): the
/// reflectors are read safely from the owned factored matrix `src`; `dst`
/// is a [`SharedMatrix`] only because the node updates need several disjoint
/// mutable row blocks of it at once.
// TSQR kernel helper: called from DAG executors whose declared
// footprints `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
pub fn panel_apply<T: Kernel>(
    src: &Matrix<T>,
    panel: &PanelQ<T>,
    dst: &SharedMatrix<T>,
    dcols: Range<usize>,
    trans: Trans,
) {
    let one_leaf = |leaf: &LeafQ<T>| {
        let r = leaf.rows.len();
        let v = src.block(leaf.rows.start, panel.c0, r, leaf.kv);
        // SAFETY: replay is sequential; no other view of dst is live.
        let c = unsafe { dst.block_mut(leaf.rows.start, dcols.start, r, dcols.len()) };
        larfb_left(trans, v, leaf.t.view(), c);
    };
    match trans {
        Trans::Yes => {
            for leaf in &panel.leaves {
                one_leaf(leaf);
            }
            for node in &panel.nodes {
                node_apply(node, dst, dcols.clone(), trans);
            }
        }
        Trans::No => {
            for node in panel.nodes.iter().rev() {
                node_apply(node, dst, dcols.clone(), trans);
            }
            for leaf in &panel.leaves {
                one_leaf(leaf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::partition_rows;
    use ca_matrix::{norm_max, seeded_rng};

    /// Factor one whole panel sequentially using the module's pieces.
    fn factor_panel_seq(
        a: &SharedMatrix,
        k0: usize,
        c0: usize,
        w: usize,
        tr: usize,
        tree: TreeShape,
    ) -> PanelQ {
        let m = a.nrows();
        let part = partition_rows(m, k0, w.max(1), tr);
        let (leaf_ks, plans) = plan_panel(&part, w, tree);
        let mut leaves = Vec::new();
        for (i, &leaf_k) in leaf_ks.iter().enumerate().take(part.ngroups()) {
            let leaf = leaf_qr(a, c0, w, part.group(i));
            assert_eq!(leaf.kv, leaf_k);
            leaves.push(leaf);
        }
        let mut nodes = Vec::new();
        for plan in &plans {
            nodes.push(node_qr(a, c0, w, plan));
        }
        let k = (m - k0).min(w);
        PanelQ { k0, c0, w, k, leaves, nodes }
    }

    fn check_tsqr_r(m: usize, w: usize, tr: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(seed));
        // Reference R from plain Householder QR.
        let mut aref = a0.clone();
        let mut tau = Vec::new();
        geqr2(aref.view_mut(), &mut tau);
        let r_ref = aref.upper();

        let sh = SharedMatrix::new(a0.clone());
        let panel = factor_panel_seq(&sh, 0, 0, w, tr, tree);
        let fac = sh.into_inner();
        let r = fac.upper();
        // R unique up to row signs.
        for i in 0..w {
            for j in i..w {
                let x = r[(i, j)].abs();
                let y = r_ref[(i, j)].abs();
                assert!(
                    (x - y).abs() < 1e-11 * (1.0 + y),
                    "R mismatch at ({i},{j}): {x} vs {y} (m={m} w={w} tr={tr} {tree:?})"
                );
            }
        }
        let _ = panel;
    }

    #[test]
    fn tsqr_r_matches_householder_binary() {
        check_tsqr_r(64, 8, 4, TreeShape::Binary, 1);
        check_tsqr_r(100, 10, 8, TreeShape::Binary, 2);
        check_tsqr_r(37, 5, 3, TreeShape::Binary, 3);
    }

    #[test]
    fn tsqr_r_matches_householder_flat() {
        check_tsqr_r(64, 8, 4, TreeShape::Flat, 4);
        check_tsqr_r(128, 16, 16, TreeShape::Flat, 5);
    }

    #[test]
    fn tsqr_q_is_orthogonal_and_reconstructs() {
        let m = 80;
        let w = 10;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(6));
        let sh = SharedMatrix::new(a0.clone());
        let panel = factor_panel_seq(&sh, 0, 0, w, 4, TreeShape::Binary);
        let fac = sh.into_inner();
        let r = fac.upper();

        // Q thin = Q * [I; 0].
        let mut qt = Matrix::zeros(m, w);
        for i in 0..w {
            qt[(i, i)] = 1.0;
        }
        let dstq = SharedMatrix::new(qt);
        panel_apply(&fac, &panel, &dstq, 0..w, Trans::No);
        let q = dstq.into_inner();

        assert!(ca_matrix::orthogonality(&q) < 1e-12 * m as f64);
        let res = ca_matrix::qr_residual(&a0, &q, &r);
        assert!(res < 1e-12 * m as f64, "residual {res}");
    }

    #[test]
    fn qt_then_q_is_identity() {
        let m = 60;
        let w = 6;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(7));
        let sh = SharedMatrix::new(a0);
        let panel = factor_panel_seq(&sh, 0, 0, w, 4, TreeShape::Binary);
        let fac = sh.into_inner();

        let c0 = ca_matrix::random_uniform(m, 3, &mut seeded_rng(8));
        let dc = SharedMatrix::new(c0.clone());
        panel_apply(&fac, &panel, &dc, 0..3, Trans::Yes);
        panel_apply(&fac, &panel, &dc, 0..3, Trans::No);
        let c1 = dc.into_inner();
        let err = norm_max(c1.sub_matrix(&c0).view());
        assert!(err < 1e-12, "Q Qᵀ c != c (err {err})");
    }

    #[test]
    fn qt_applied_to_original_gives_r() {
        // Qᵀ A = [R; 0].
        let m = 50;
        let w = 5;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(9));
        let sh = SharedMatrix::new(a0.clone());
        let panel = factor_panel_seq(&sh, 0, 0, w, 2, TreeShape::Binary);
        let fac = sh.into_inner();
        let r = fac.upper();

        let dst = SharedMatrix::new(a0);
        panel_apply(&fac, &panel, &dst, 0..w, Trans::Yes);
        let qta = dst.into_inner();
        for j in 0..w {
            for i in 0..w {
                let expect = if i <= j { r[(i, j)] } else { 0.0 };
                assert!((qta[(i, j)] - expect).abs() < 1e-11, "top block mismatch at ({i},{j})");
            }
        }
        // Rows below the R region of the *first group* are annihilated only
        // conceptually across groups; check the Frobenius mass matches.
        let total: f64 = ca_matrix::norm_fro(qta.view());
        let rmass: f64 = ca_matrix::norm_fro(r.view());
        assert!((total - rmass).abs() < 1e-9 * rmass.max(1.0), "‖QᵀA‖ must equal ‖R‖");
    }

    #[test]
    fn plan_ranges_are_consistent() {
        // 900 active rows in 9 blocks over 4 groups -> 3 groups of 300 rows.
        let part = partition_rows(1000, 100, 100, 4);
        let (leaf_ks, plans) = plan_panel(&part, 100, TreeShape::Binary);
        assert_eq!(leaf_ks, vec![100, 100, 100]);
        for p in &plans {
            assert_eq!(p.row_ranges[0].len(), p.kk);
            for r in &p.row_ranges {
                assert!(r.start >= 100 && r.end <= 1000);
            }
        }
    }

    #[test]
    fn ragged_last_group_plans_short_ranges() {
        // 250 rows, b=100, tr=4 -> 3 groups, last has 50 rows.
        let part = partition_rows(250, 0, 100, 4);
        let (leaf_ks, plans) = plan_panel(&part, 100, TreeShape::Binary);
        assert_eq!(leaf_ks, vec![100, 100, 50]);
        // Node merging group 2 must stack only 50 rows from it.
        let has_short = plans.iter().any(|p| p.row_ranges.iter().any(|r| r.len() == 50));
        assert!(has_short, "{plans:?}");
    }
}

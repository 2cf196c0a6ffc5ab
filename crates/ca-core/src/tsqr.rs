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
//! Which groups get a leaf and which nodes follow is the panel's
//! elimination list ([`PanelPlan`]; Dongarra et al., arXiv 1110.1553). A
//! node is *triangle on triangle* (TT, [`VRest::UpperTrapezoid`]) when it
//! stacks factored `R`s, as every node of CAQR's tree ([`plan_panel`]) does,
//! or *triangle on square* (TS, [`VRest::Dense`]) when it stacks raw rows
//! under the running `R`, as PLASMA's tile chain ([`ts_chain`]) does.
//!
//! All operations work on matrix views — a task's leased blocks inside the
//! executor, blocks of an owned matrix in the sequential loop and in the
//! `Q`-replay of [`crate::QrFactors`] — so the exact same code runs in all
//! three. A node's participants are scattered row blocks: one checked
//! disjoint multi-row view ([`MatViewMut::split_rows`]).

use crate::params::RowPartition;
use crate::params::TreeShape;
use crate::tree::{reduction_schedule, ReduceNode};
use ca_kernels::{
    geqr2, geqr3, geqr3_with_backend, larfb_left, larfb_left_multi, larft, split_cols, Kernel,
    Trans, VRest,
};
use ca_matrix::{MatView, MatViewMut, Matrix, Scalar, SharedMatrix};
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
    /// participants' `R` row blocks (TT) or raw row groups (TS).
    pub row_ranges: Vec<Range<usize>>,
    /// Packed stacked factorization (`sum(len) × w`): `R` on top, `V` below.
    pub v: Matrix<T>,
    /// Compact-WY factor (`kk × kk`).
    pub t: Matrix<T>,
    /// Number of reflectors: `min(total stacked rows, w)`.
    pub kk: usize,
    /// Shape of `V` below its identity top block: the node's kernel.
    pub rest: VRest,
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

impl<T: Scalar> PanelQ<T> {
    /// Each leaf's reflector block (`rows × kv` at the panel's column) in
    /// the factored matrix `a`: the `vs` of [`panel_apply`].
    pub fn leaf_blocks<'a>(&self, a: &'a Matrix<T>) -> Vec<MatView<'a, T>> {
        self.leaves.iter().map(|l| a.block(l.rows.start, self.c0, l.rows.len(), l.kv)).collect()
    }
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

/// One panel's elimination list: the row groups that get a leaf QR, then
/// the nodes in execution order, each beside its kernel — TT
/// ([`VRest::UpperTrapezoid`]) or TS ([`VRest::Dense`]).
#[derive(Clone, Debug)]
pub struct PanelPlan {
    /// Groups that get a leaf QR, in order.
    pub leaves: Vec<usize>,
    /// The nodes, in execution order.
    pub nodes: Vec<(NodePlan, VRest)>,
}

/// CAQR's elimination list: a leaf QR on every group, then the TT nodes of
/// the reduction tree `tree`.
pub fn plan_panel(part: &RowPartition, w: usize, tree: TreeShape) -> PanelPlan {
    let g = part.ngroups();
    eliminations(part, w, (0..g).collect(), reduction_schedule(g, tree))
}

/// PLASMA's elimination list (flat tree, TS kernels): a leaf QR on the
/// first group only, then a chain of TS nodes `(0, 1), (0, 2), …` that
/// stacks each further group, raw, under the running `R`. With one-tile
/// groups this is the tile QR of Buttari et al. (arXiv 0707.3548).
pub fn ts_chain(part: &RowPartition, w: usize) -> PanelPlan {
    let chain = (1..part.ngroups()).map(|i| ReduceNode { level: i, participants: vec![0, i] });
    eliminations(part, w, vec![0], chain)
}

/// The stacked row ranges of every node of `schedule` once `leaves` are
/// factored. A group stacks its `R` (TT) once a leaf or node has factored
/// it, all of its rows (TS) while it is raw.
fn eliminations(
    part: &RowPartition,
    w: usize,
    leaves: Vec<usize>,
    schedule: impl IntoIterator<Item = ReduceNode>,
) -> PanelPlan {
    // Rows of the `R` each group holds, `None` while it is raw.
    let mut held: Vec<Option<usize>> = vec![None; part.ngroups()];
    for &l in &leaves {
        held[l] = Some(part.group_rows(l).min(w));
    }
    let mut nodes = Vec::new();
    for ReduceNode { level, participants } in schedule {
        let rest =
            if held[participants[1]].is_some() { VRest::UpperTrapezoid } else { VRest::Dense };
        assert!(held[participants[0]].is_some(), "a node stacks under a factored R");
        assert!(
            participants[1..].iter().all(|&p| held[p].is_some() == (rest == VRest::UpperTrapezoid)),
            "a node stacks R factors or raw groups, not both"
        );
        let mut row_ranges: Vec<Range<usize>> = participants
            .iter()
            .map(|&p| {
                let rows = part.group(p);
                rows.start..rows.start + held[p].unwrap_or(rows.len())
            })
            .collect();
        let kk = row_ranges.iter().map(|r| r.len()).sum::<usize>().min(w);
        assert!(
            row_ranges[0].len() >= kk,
            "first participant must hold at least kk rows (got {} < {kk})",
            row_ranges[0].len()
        );
        // The reflector block occupies only the first kk rows of slot 0.
        let s0 = row_ranges[0].start;
        row_ranges[0] = s0..s0 + kk;
        held[participants[0]] = Some(kk);
        nodes.push((NodePlan { level, participants, row_ranges, kk }, rest));
    }
    PanelPlan { leaves, nodes }
}

/// Leaf QR of a group's panel block `blk` (the group's `rows` × the
/// panel's columns), in place. Returns the leaf's `T` factor.
pub fn leaf_qr<T: Kernel>(mut blk: MatViewMut<'_, T>, rows: Range<usize>) -> LeafQ<T> {
    let (r, w) = (blk.nrows(), blk.ncols());
    let kv = r.min(w);
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

/// Reduction-node QR of a TSQR tree node: [`eliminate`] with TT stacking,
/// over panel columns `c0..c0+w` of `a` at `plan.row_ranges`.
pub fn node_qr<T: Kernel>(a: &SharedMatrix<T>, c0: usize, w: usize, plan: &NodePlan) -> NodeQ<T> {
    node_qr_on(None, a, c0, w, plan)
}

/// [`node_qr`] with its `geqr3` pinned to a named backend from
/// [`ca_kernels::gemm_available_backends`].
///
/// # Panics
/// If `name` is not a backend this host supports.
pub fn node_qr_with_backend<T: Kernel>(
    name: &str,
    a: &SharedMatrix<T>,
    c0: usize,
    w: usize,
    plan: &NodePlan,
) -> NodeQ<T> {
    node_qr_on(Some(name), a, c0, w, plan)
}

fn node_qr_on<T: Kernel>(
    backend: Option<&str>,
    a: &SharedMatrix<T>,
    c0: usize,
    w: usize,
    plan: &NodePlan,
) -> NodeQ<T> {
    a.exclusive(|a| {
        let m = a.nrows();
        let mut parts = a.into_sub(0, c0, m, w).split_rows(&plan.row_ranges);
        let (top, below) = parts.split_at_mut(1);
        let below: Vec<_> = below.iter().map(|p| p.as_ref()).collect();
        eliminate_on(backend, top[0].rb(), &below, plan, VRest::UpperTrapezoid)
    })
}

/// One elimination: stacks the first participant's `R` (`top`, the
/// `plan.row_ranges[0]` rows of the panel columns) over the others' rows
/// (`below`, at `plan.row_ranges[1..]`) — their `R` trapezoids for `rest =
/// UpperTrapezoid` (TT), their raw rows in full for `rest = Dense` (TS) —
/// refactors the stack, writes the merged `R` back into `top`, and returns
/// the node's reflectors.
pub fn eliminate<T: Kernel>(
    top: MatViewMut<'_, T>,
    below: &[MatView<'_, T>],
    plan: &NodePlan,
    rest: VRest,
) -> NodeQ<T> {
    eliminate_on(None, top, below, plan, rest)
}

/// [`eliminate`] on the dispatched backend (`None`) or a named one.
fn eliminate_on<T: Kernel>(
    backend: Option<&str>,
    mut top: MatViewMut<'_, T>,
    below: &[MatView<'_, T>],
    plan: &NodePlan,
    rest: VRest,
) -> NodeQ<T> {
    let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
    let (kk, w) = (plan.kk, top.ncols());
    // `node_apply` relies on the structure this gives the reflectors: an
    // upper-triangular top block keeps V's top block the identity.
    assert_eq!(plan.row_ranges[0].len(), kk, "first participant must supply exactly kk rows");
    // The stack, one pass per column: each participant's rows of it, then
    // zeros to the end of the participant's block. An `R` is its upper
    // trapezoid; below lives V junk. For participant 0 on upper tree levels
    // the R occupies only `len` rows anyway, so trapezoid copy is always
    // correct.
    let mut data = Vec::with_capacity(s * w);
    for j in 0..w {
        for (i, blk) in core::iter::once(top.as_ref()).chain(below.iter().copied()).enumerate() {
            let len = blk.nrows();
            let imax = if i > 0 && rest == VRest::Dense { len } else { (j + 1).min(len) };
            data.extend_from_slice(&blk.col(j)[..imax]);
            data.resize(data.len() + len - imax, T::ZERO);
        }
    }
    let mut stack = Matrix::from_vec(data, s, w);

    let mut t = Matrix::zeros(kk, kk);
    if s >= w {
        match backend {
            Some(name) => geqr3_with_backend(name, stack.view_mut(), t.view_mut()),
            None => geqr3(stack.view_mut(), t.view_mut()),
        }
    } else {
        let mut tau = Vec::new();
        geqr2(stack.view_mut(), &mut tau);
        larft(stack.block(0, 0, s, kk), &tau, t.view_mut());
    }

    // Write the merged R (upper trapezoid of the top kk rows) back into the
    // first participant's rows — without clobbering the leaf V entries that
    // live below the diagonal there.
    let merged = stack.view();
    for j in 0..w {
        let imax = (j + 1).min(kk);
        top.col_mut(j)[..imax].copy_from_slice(&merged.col(j)[..imax]);
    }

    NodeQ { row_ranges: plan.row_ranges.clone(), v: stack, t, kk, rest }
}

/// Applies `op(Q_node)` to columns `dcols` of `dst`, touching only the
/// node's stacked rows (the paper's task S at inner tree nodes):
/// [`node_apply_rows`] over them.
pub fn node_apply<T: Kernel>(
    node: &NodeQ<T>,
    dst: &SharedMatrix<T>,
    dcols: Range<usize>,
    trans: Trans,
) {
    if dcols.is_empty() {
        return;
    }
    dst.exclusive(|d| {
        let m = d.nrows();
        let mut parts = d.into_sub(0, dcols.start, m, dcols.len()).split_rows(&node.row_ranges);
        node_apply_rows(node, &mut parts, trans);
    });
}

/// Applies `op(Q_node)` to the node's stacked rows of some columns: `parts`
/// holds them at [`NodeQ::row_ranges`], in that order.
pub fn node_apply_rows<T: Kernel>(node: &NodeQ<T>, parts: &mut [MatViewMut<'_, T>], trans: Trans) {
    let kk = node.kk;
    let mut v_rest = Vec::with_capacity(node.row_ranges.len() - 1);
    let mut off = kk;
    for range in &node.row_ranges[1..] {
        v_rest.push(node.v.block(off, 0, range.len(), kk));
        off += range.len();
    }
    // `eliminate` stacks under an upper triangle: V's top block is the
    // identity, and the rest keeps the shape of what was stacked.
    let (top, c_rest) = parts.split_at_mut(1);
    larfb_left_multi(trans, None, &v_rest, node.rest, node.t.view(), top[0].rb(), c_rest);
}

/// Applies `op(Q_panel)` for a full panel to `dst`, whose row `i` is the
/// matrix's row `i`: `Qᵀ` = leaves then nodes in order; `Q` = nodes in
/// reverse then leaves. `vs[i]` is leaf `i`'s reflector block (`rows ×
/// kv`), wherever it lives — the factored matrix, a panel being factored, a
/// block read from a store.
///
/// One [`split_cols`] of `dst` over `workers` lanes carries the whole
/// panel: each lane applies every leaf, then every node, to its own
/// columns, which is the per-element order of applying them one by one
/// over all of `dst`.
pub fn panel_apply<T: Kernel>(
    workers: usize,
    panel: &PanelQ<T>,
    vs: &[MatView<'_, T>],
    dst: MatViewMut<'_, T>,
    trans: Trans,
) {
    assert_eq!(vs.len(), panel.leaves.len(), "one reflector block per leaf");
    split_cols(workers, dst, |_, mut c| {
        let n = c.ncols();
        let leaves = |c: &mut MatViewMut<'_, T>| {
            for (leaf, v) in panel.leaves.iter().zip(vs) {
                larfb_left(trans, *v, leaf.t.view(), c.sub(leaf.rows.start, 0, leaf.rows.len(), n));
            }
        };
        let node = |c: &mut MatViewMut<'_, T>, node: &NodeQ<T>| {
            node_apply_rows(node, &mut c.rb().split_rows(&node.row_ranges), trans);
        };
        match trans {
            Trans::Yes => {
                leaves(&mut c);
                panel.nodes.iter().for_each(|n| node(&mut c, n));
            }
            Trans::No => {
                panel.nodes.iter().rev().for_each(|n| node(&mut c, n));
                leaves(&mut c);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::partition_rows;
    use ca_matrix::{norm_max, seeded_rng};

    /// Factor one whole panel sequentially using the module's pieces.
    fn factor_panel_seq(
        a: &mut Matrix,
        k0: usize,
        c0: usize,
        w: usize,
        tr: usize,
        tree: TreeShape,
    ) -> PanelQ {
        let m = a.nrows();
        let part = partition_rows(m, k0, w.max(1), tr);
        let plan = plan_panel(&part, w, tree);
        let leaf = |g: &usize| {
            let rows = part.group(*g);
            leaf_qr(a.block_mut(rows.start, c0, rows.len(), w), rows)
        };
        let leaves = plan.leaves.iter().map(leaf).collect();
        let node = |(node, rest): &(NodePlan, VRest)| {
            let mut parts = a.block_mut(0, c0, m, w).split_rows(&node.row_ranges);
            let (top, below) = parts.split_at_mut(1);
            let below: Vec<_> = below.iter().map(|p| p.as_ref()).collect();
            eliminate(top[0].rb(), &below, node, *rest)
        };
        let nodes = plan.nodes.iter().map(node).collect();
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

        let mut fac = a0.clone();
        let panel = factor_panel_seq(&mut fac, 0, 0, w, tr, tree);
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
        let mut fac = a0.clone();
        let panel = factor_panel_seq(&mut fac, 0, 0, w, 4, TreeShape::Binary);
        let r = fac.upper();

        // Q thin = Q * [I; 0].
        let mut q = Matrix::zeros(m, w);
        for i in 0..w {
            q[(i, i)] = 1.0;
        }
        panel_apply(1, &panel, &panel.leaf_blocks(&fac), q.view_mut(), Trans::No);

        assert!(ca_matrix::orthogonality(&q) < 1e-12 * m as f64);
        let res = ca_matrix::qr_residual(&a0, &q, &r);
        assert!(res < 1e-12 * m as f64, "residual {res}");
    }

    #[test]
    fn qt_then_q_is_identity() {
        let m = 60;
        let w = 6;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(7));
        let mut fac = a0;
        let panel = factor_panel_seq(&mut fac, 0, 0, w, 4, TreeShape::Binary);

        let c0 = ca_matrix::random_uniform(m, 3, &mut seeded_rng(8));
        let mut c1 = c0.clone();
        panel_apply(1, &panel, &panel.leaf_blocks(&fac), c1.view_mut(), Trans::Yes);
        panel_apply(1, &panel, &panel.leaf_blocks(&fac), c1.view_mut(), Trans::No);
        let err = norm_max(c1.sub_matrix(&c0).view());
        assert!(err < 1e-12, "Q Qᵀ c != c (err {err})");
    }

    #[test]
    fn qt_applied_to_original_gives_r() {
        // Qᵀ A = [R; 0].
        let m = 50;
        let w = 5;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(9));
        let mut fac = a0.clone();
        let panel = factor_panel_seq(&mut fac, 0, 0, w, 2, TreeShape::Binary);
        let r = fac.upper();

        let mut qta = a0;
        panel_apply(1, &panel, &panel.leaf_blocks(&fac), qta.view_mut(), Trans::Yes);
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
        let plan = plan_panel(&part, 100, TreeShape::Binary);
        assert_eq!(plan.leaves, vec![0, 1, 2]);
        for (p, rest) in &plan.nodes {
            assert_eq!(*rest, VRest::UpperTrapezoid);
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
        let plan = plan_panel(&part, 100, TreeShape::Binary);
        // Node merging group 2 must stack only 50 rows from it.
        let has_short = plan.nodes.iter().any(|(p, _)| p.row_ranges.iter().any(|r| r.len() == 50));
        assert!(has_short, "{plan:?}");
    }

    #[test]
    fn ts_chain_stacks_each_raw_tile_under_the_diagonal_r() {
        // 250 rows in one-tile groups of 100: a leaf on the diagonal tile,
        // then (0, 1) and (0, 2), each stacking the whole raw tile.
        let part = partition_rows(250, 0, 100, 3);
        let plan = ts_chain(&part, 80);
        assert_eq!(plan.leaves, vec![0]);
        let nodes: Vec<_> = plan
            .nodes
            .iter()
            .map(|(p, rest)| (p.participants.clone(), p.row_ranges.clone(), *rest))
            .collect();
        let want = [(vec![0, 1], vec![0..80, 100..200]), (vec![0, 2], vec![0..80, 200..250])];
        assert_eq!(nodes, want.map(|(p, r)| (p, r, VRest::Dense)));
    }

    /// A TS node over `[R; A]`: an upper-triangular `b × b` `R` over a
    /// dense `r × b` tile, stacked in one matrix. Returns the stack before
    /// and after, and the node.
    fn ts_node(b: usize, r: usize, seed: u64) -> (Matrix, Matrix, NodeQ) {
        let mut rng = seeded_rng(seed);
        let mut stack = ca_matrix::random_uniform(b + r, b, &mut rng);
        for i in 0..b {
            for j in 0..i {
                stack[(i, j)] = 0.0;
            }
            stack[(i, i)] += 3.0;
        }
        let plan = NodePlan {
            level: 1,
            participants: vec![0, 1],
            row_ranges: vec![0..b, b..b + r],
            kk: b,
        };
        let mut fac = stack.clone();
        let (top, bottom) = fac.view_mut().split_at_row(b);
        let node = eliminate(top, &[bottom.as_ref()], &plan, VRest::Dense);
        (stack, fac, node)
    }

    #[test]
    fn ts_node_r_matches_a_dense_qr_of_the_stack() {
        let (b, r) = (8, 11);
        let (stack0, fac, _) = ts_node(b, r, 1);
        let mut dense = stack0;
        geqr2(dense.view_mut(), &mut Vec::new());
        for i in 0..b {
            for j in i..b {
                let (x, y) = (fac[(i, j)].abs(), dense[(i, j)].abs());
                assert!((x - y).abs() < 1e-11 * (1.0 + y), "R mismatch at ({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn ts_node_qt_annihilates_the_square_block() {
        // Qᵀ of the original stack is [R; 0].
        let (b, r) = (6, 6);
        let (stack0, fac, node) = ts_node(b, r, 2);
        let dst = SharedMatrix::new(stack0);
        node_apply(&node, &dst, 0..b, Trans::Yes);
        let qta = dst.into_inner();
        assert!(norm_max(qta.block(b, 0, r, b)) < 1e-11, "bottom not annihilated");
        for j in 0..b {
            for i in 0..=j {
                assert!((qta[(i, j)] - fac[(i, j)]).abs() < 1e-11, "top != R at ({i},{j})");
            }
        }
    }

    #[test]
    fn ts_node_qt_then_q_roundtrips() {
        let (b, r) = (5, 7);
        let (_, _, node) = ts_node(b, r, 3);
        let c0 = ca_matrix::random_uniform(b + r, 3, &mut seeded_rng(4));
        let dc = SharedMatrix::new(c0.clone());
        node_apply(&node, &dc, 0..3, Trans::Yes);
        node_apply(&node, &dc, 0..3, Trans::No);
        assert!(norm_max(dc.into_inner().sub_matrix(&c0).view()) < 1e-12);
    }
}

//! TSLU: the tall-skinny LU panel factorization (sequential core).
//!
//! One panel iteration of CALU (Algorithm 1): tournament pivoting over the
//! active rows, pivot-row interchanges within the panel, packed `L\U` write
//! of the top block, and the triangular solves producing the rest of the
//! panel's `L` column. The parallel executor in `dag_calu` decomposes these
//! same steps into tasks; this module is the single source of the numerics.

use crate::params::{partition_rows, RowPartition, TreeShape};
use crate::tournament::{merge, select, Selected};
use crate::tree::reduction_schedule;
use ca_kernels::{trsm_right_upper_notrans, Kernel};
use ca_matrix::{MatView, MatViewMut, PivotSeq};

/// Result of factoring one panel.
#[derive(Clone, Debug)]
pub struct PanelOutcome {
    /// Row interchanges with `offset = k0` (global indices), length
    /// `min(active rows, panel cols)`.
    pub pivots: PivotSeq,
    /// First zero pivot column within the panel, if the winner block was
    /// singular (panel-local column index).
    pub breakdown: Option<usize>,
    /// Element-growth estimate `max|L_KK\U_KK| / max|panel input|` of the
    /// selection finally used (post-fallback when one happened).
    pub growth: f64,
    /// Whether tournament instability forced a plain-GEPP refactorization
    /// of this panel (see `apply_growth_policy`).
    pub fallback: bool,
}

/// Builds the interchange sequence that moves global rows `idx[0..k]` to
/// positions `k0..k0+k`, in order — the `Π_KK` of Algorithm 1.
pub fn pivot_seq_from_targets(k0: usize, idx: &[usize]) -> PivotSeq {
    use std::collections::HashMap;
    let mut seq = PivotSeq::new(k0);
    // Track where displaced rows currently live (sparse: only moved rows).
    let mut cur: HashMap<usize, usize> = HashMap::new(); // original row -> position
    let mut at: HashMap<usize, usize> = HashMap::new(); // position -> original row
    for (j, &want) in idx.iter().enumerate() {
        let target = k0 + j;
        let p = *cur.get(&want).unwrap_or(&want);
        debug_assert!(p >= target, "pivot row {p} precedes its target {target}");
        seq.push(p);
        if p != target {
            let displaced = *at.get(&target).unwrap_or(&target);
            cur.insert(displaced, p);
            at.insert(p, displaced);
            cur.insert(want, target);
            at.insert(target, want);
        }
    }
    seq
}

/// Runs the tournament over the panel `a[part.start.., k0_col..k0_col+w]`
/// and returns the winner (selected rows + packed top factors).
///
/// `a` here is a view of the **panel columns only**, full matrix height.
pub fn run_tournament<T: Kernel>(
    panel: &MatViewMut<'_, T>,
    part: &RowPartition,
    tree: TreeShape,
) -> Selected<T> {
    let g = part.ngroups();
    let mut slots: Vec<Option<Selected<T>>> = Vec::with_capacity(g);
    for i in 0..g {
        let r = part.group(i);
        let block = panel.as_ref().sub(r.start, 0, r.len(), panel.ncols());
        let idx: Vec<usize> = r.collect();
        slots.push(Some(select(block, &idx, true)));
    }
    for node in reduction_schedule(g, tree) {
        let parts: Vec<&Selected<T>> = node
            .participants
            .iter()
            .map(|&p| slots[p].as_ref().expect("candidate present"))
            .collect();
        let merged = merge(&parts);
        for &p in &node.participants[1..] {
            slots[p] = None;
        }
        slots[node.participants[0]] = Some(merged);
    }
    slots[0].take().expect("tournament winner")
}

/// Growth check + GEPP fallback shared by the sequential panel
/// factorization and the parallel root task.
///
/// `active` is the panel's active region (rows `k0..m` of the panel
/// columns, still holding their **pre-interchange** values — selection
/// works on copies, so nothing has been written back yet); `row0` is the
/// global row index of its first row. Estimates the element growth of the
/// tournament `winner`; when it exceeds `limit`, re-runs the selection over
/// *all* active rows as a single group — which is exactly partial pivoting
/// (GEPP) on the panel — and reports the refactorization via the `bool`.
///
/// Returns `(selection to use, growth estimate of it, fallback happened)`.
pub(crate) fn apply_growth_policy<T: Kernel>(
    active: MatView<'_, T>,
    row0: usize,
    winner: Selected<T>,
    limit: f64,
) -> (Selected<T>, f64, bool) {
    // `winner.input_max` is the maximum over the whole active region: the
    // leaves partition it, and every tree node passes the maximum on.
    let growth_of = |s: &Selected<T>| {
        let g = s.packed.view().max_abs().to_f64();
        if s.input_max > 0.0 {
            g / s.input_max
        } else {
            0.0
        }
    };
    let growth = growth_of(&winner);
    // A NaN estimate (non-finite input fed through the infallible API) must
    // never trigger the fallback path, hence the explicit `partial_cmp`.
    if growth.partial_cmp(&limit) != Some(std::cmp::Ordering::Greater) {
        return (winner, growth, false);
    }
    let idx: Vec<usize> = (row0..row0 + active.nrows()).collect();
    let gepp = select(active, &idx, true);
    let growth = growth_of(&gepp);
    (gepp, growth, true)
}

/// Factors one panel of the matrix in place (sequential reference).
///
/// * `a` — full-height view of the **panel columns** (width ≤ b);
/// * `k0` — global row of the panel's diagonal (active rows are `k0..m`);
/// * `tr`, `tree` — TSLU parameters;
/// * `growth_limit` — when the tournament winner's element growth exceeds
///   it, the panel is refactored with plain GEPP (see `apply_growth_policy`)
///   before anything is written; `f64::INFINITY` never falls back.
///
/// Interchanges are applied to the panel columns only; the caller applies
/// the returned sequence to the columns left and right of the panel.
pub fn factor_panel<T: Kernel>(
    mut a: MatViewMut<'_, T>,
    k0: usize,
    b: usize,
    tr: usize,
    tree: TreeShape,
    growth_limit: f64,
) -> PanelOutcome {
    let m = a.nrows();
    let w = a.ncols();
    assert!(k0 < m, "panel has no active rows");
    let part = partition_rows(m, k0, b, tr);

    let (winner, growth, fallback) = {
        let panel = a.rb();
        let winner = run_tournament(&panel, &part, tree);
        let active = panel.as_ref().sub(k0, 0, m - k0, w);
        apply_growth_policy(active, k0, winner, growth_limit)
    };
    let k = winner.idx.len(); // min(active rows, w)
    debug_assert_eq!(k, (m - k0).min(w));

    let pivots = pivot_seq_from_targets(k0, &winner.idx);
    pivots.apply(a.rb());

    // Write the packed L_KK\U_KK block (k × w).
    a.sub(k0, 0, k, w).copy_from(winner.packed.view());

    // L blocks below: A[k0+k.., 0..k] := A[k0+k.., 0..k] · U_KK⁻¹.
    if k0 + k < m && k > 0 {
        let (upper, lower) = a.split_at_row(k0 + k);
        let ukk = upper.as_ref().sub(k0, 0, k, k);
        let l_rows = lower.into_sub(0, 0, m - k0 - k, k);
        trsm_right_upper_notrans(ukk, l_rows);
    }

    PanelOutcome { pivots, breakdown: winner.breakdown, growth, fallback }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{lu_residual, seeded_rng, Matrix};

    #[test]
    fn pivot_seq_moves_targets_to_top() {
        // Want rows [5, 2, 7] at positions [1, 2, 3].
        let seq = pivot_seq_from_targets(1, &[5, 2, 7]);
        let mut v = Matrix::from_fn(8, 1, |i, _| i as f64);
        seq.apply(v.view_mut());
        assert_eq!(v[(1, 0)], 5.0);
        assert_eq!(v[(2, 0)], 2.0);
        assert_eq!(v[(3, 0)], 7.0);
    }

    #[test]
    fn pivot_seq_handles_collision_with_displaced_rows() {
        // Want [3, 0-displaced case]: moving row 3 to pos 0 displaces row 0
        // to pos 3; then wanting row 0 must find it at 3.
        let seq = pivot_seq_from_targets(0, &[3, 0]);
        let mut v = Matrix::from_fn(4, 1, |i, _| i as f64);
        seq.apply(v.view_mut());
        assert_eq!(v[(0, 0)], 3.0);
        assert_eq!(v[(1, 0)], 0.0);
    }

    #[test]
    fn pivot_seq_identity_when_rows_in_place() {
        let seq = pivot_seq_from_targets(2, &[2, 3, 4]);
        assert_eq!(seq.ipiv, vec![2, 3, 4]);
        let mut v = Matrix::from_fn(6, 1, |i, _| i as f64);
        let v0 = v.clone();
        seq.apply(v.view_mut());
        assert_eq!(v, v0);
    }

    fn check_panel(m: usize, w: usize, tr: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(seed));
        let mut a = a0.clone();
        let out = factor_panel(a.view_mut(), 0, w.max(1), tr, tree, f64::INFINITY);
        assert!(out.breakdown.is_none(), "breakdown for {m}x{w} tr={tr}");
        let perm = out.pivots.to_permutation(m);
        let res = lu_residual(&a0, &perm, &a.unit_lower(), &a.upper());
        assert!(res < 1e-12, "residual {res} for {m}x{w} tr={tr} {tree:?}");
    }

    #[test]
    fn whole_panel_factorization_binary_tree() {
        check_panel(64, 8, 4, TreeShape::Binary, 1);
        check_panel(100, 10, 8, TreeShape::Binary, 2);
        check_panel(37, 5, 3, TreeShape::Binary, 3); // ragged groups
    }

    #[test]
    fn whole_panel_factorization_flat_tree() {
        check_panel(64, 8, 4, TreeShape::Flat, 4);
        check_panel(100, 10, 16, TreeShape::Flat, 5);
    }

    #[test]
    fn tr_one_matches_plain_gepp_pivots() {
        let m = 40;
        let w = 6;
        let a0 = ca_matrix::random_uniform(m, w, &mut seeded_rng(6));
        let mut a = a0.clone();
        let out = factor_panel(a.view_mut(), 0, w, 1, TreeShape::Binary, f64::INFINITY);
        let mut r = a0.clone();
        let info = ca_kernels::getf2(r.view_mut());
        // Same pivot positions...
        let gepp_perm = info.pivots.to_permutation(m);
        let tslu_perm = out.pivots.to_permutation(m);
        assert_eq!(&gepp_perm[..w], &tslu_perm[..w]);
        // ...and identical factors in the factored region.
        for j in 0..w {
            for i in 0..m {
                let x = a[(i, j)];
                let y = r[(i, j)];
                assert!(
                    (x - y).abs() <= 1e-14 * y.abs().max(1.0),
                    "mismatch at ({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn panel_with_offset_leaves_top_rows_alone() {
        let m = 30;
        let w = 4;
        let k0 = 10;
        let mut a = ca_matrix::random_uniform(m, w, &mut seeded_rng(7));
        let top_before: Vec<f64> = (0..k0).map(|i| a[(i, 0)]).collect();
        let out = factor_panel(a.view_mut(), k0, w, 4, TreeShape::Binary, f64::INFINITY);
        let top_after: Vec<f64> = (0..k0).map(|i| a[(i, 0)]).collect();
        assert_eq!(top_before, top_after, "rows above the panel must not move");
        assert!(out.pivots.ipiv.iter().all(|&p| p >= k0));
        assert_eq!(out.pivots.offset, k0);
    }

    #[test]
    fn multiplier_growth_is_bounded_by_two_for_tournament() {
        // Tournament pivoting guarantees |L| entries bounded (by 2^height in
        // theory for the panel); in practice they stay small. Check ≤ ~4.
        let m = 256;
        let w = 16;
        let mut a = ca_matrix::random_uniform(m, w, &mut seeded_rng(8));
        factor_panel(a.view_mut(), 0, w, 8, TreeShape::Binary, f64::INFINITY);
        let l = a.unit_lower();
        let mut lmax = 0.0f64;
        for j in 0..w {
            for i in j + 1..m {
                lmax = lmax.max(l[(i, j)].abs());
            }
        }
        assert!(lmax < 8.0, "|L| grew to {lmax}");
    }

    #[test]
    fn deficient_panel_reports_breakdown() {
        // Rank-1 panel: the tournament winner block is exactly singular; the
        // factorization must finish (BLAS trsm semantics give inf/NaN in L)
        // and flag the breakdown like LAPACK info.
        let a0 = ca_matrix::Matrix::from_fn(16, 4, |i, j| ((i % 2) * (j + 1)) as f64);
        let mut a = a0.clone();
        let out = factor_panel(a.view_mut(), 0, 4, 4, TreeShape::Binary, f64::INFINITY);
        assert!(out.breakdown.is_some());
    }
}

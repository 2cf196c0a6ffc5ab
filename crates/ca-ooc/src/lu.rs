//! Left-looking out-of-core CALU.
//!
//! [`ooc_calu`] factors a [`TileStore`]-resident matrix whose footprint
//! exceeds RAM, holding one superpanel of [`OocPlan::w`] columns in memory
//! at a time. For each resident superpanel it first *replays* every
//! previously factored inner panel — that panel's interchanges, a `b × b`
//! unit-lower triangular solve and a rank-`b` update, read from disk as one
//! `[L_kk; L_below]` column chunk and applied by
//! [`ca_core::lu_panel_update`], one column split of the resident columns
//! over `p.threads` lanes — and then runs the panel loop
//! [`ca_core::calu_seq_factor`] itself runs, [`ca_core::calu_panels`], on
//! the resident columns in place, its trailing updates split the same way.
//! Panel factorizations and store I/O stay on the calling thread.
//!
//! Because each inner panel's updates are replayed per panel in ascending
//! order with the very kernels the in-core path uses, whose per-element
//! arithmetic does not depend on how many columns a call covers or where a
//! column split cuts them, the factors written back to the store are
//! **bitwise identical** to `calu_seq_factor` output at the same `b`/`tr`
//! and every thread count, which tests/equivalence_table asserts.
//!
//! Interchanges for columns *left* of the resident superpanel (already on
//! disk) are deferred — pure row swaps commute with nothing that touches
//! those columns again — and applied in one fix-up sweep at the end.

use crate::plan::{OocKind, OocPlan};
use crate::store::{IoSnapshot, TileStore};
use crate::pivots::apply_pivots_rebased;
use ca_core::{calu_panels, lu_panel_update, CaParams, FactorError, LuPanelLog, LuStats};
use ca_kernels::Kernel;
use ca_matrix::PivotSeq;

/// The result of an out-of-core LU factorization. The packed `L\U` factors
/// live in the [`TileStore`] (which now holds `dgetrf`-layout output);
/// only pivots and diagnostics come back in RAM.
#[derive(Debug)]
pub struct OocLu {
    /// Global row interchanges (offset 0, length `min(m, n)`).
    pub pivots: PivotSeq,
    /// Per-inner-panel interchange sequences in panel order (offsets are
    /// the panels' global diagonal columns) — kept so `Q`-style replay and
    /// the fix-up sweep stay auditable.
    pub panel_pivots: Vec<PivotSeq>,
    /// First column where a panel hit an exactly-zero pivot, if any.
    pub breakdown: Option<usize>,
    /// Per-panel growth estimates and GEPP-fallback record.
    pub stats: LuStats,
    /// The residency plan the factorization ran under.
    pub plan: OocPlan,
    /// Tile-store transfer volume of the factorization (probe and import
    /// traffic excluded — snapshot delta across the factorization only).
    pub io: IoSnapshot,
}

/// Factors the store's matrix in place as `P·A = L·U` under `budget_bytes`
/// of resident memory. `p` carries the usual CALU parameters (`b`, `tr`,
/// tree shape, and `threads`: the lanes every replay and trailing update
/// is split over).
pub fn ooc_calu<T: Kernel>(
    store: &TileStore<T>,
    p: &CaParams,
    budget_bytes: usize,
) -> Result<OocLu, FactorError> {
    let m = store.nrows();
    let n = store.ncols();
    let plan = OocPlan::solve(OocKind::Lu, m, n, p, T::BYTES, budget_bytes)?;
    let io0 = store.io();

    let mut log = LuPanelLog::default();

    for j in 0..plan.nsuper {
        let c0s = plan.super_start(j);
        let ws = plan.super_width(j);
        let mut resident = store.read_cols(c0s, ws, 0)?;

        // Replay every previously factored panel onto the resident columns,
        // in panel order — interchanges, triangular solve, rank-k update —
        // exactly as calu_seq_factor would have applied them when it reached that
        // panel, restricted to these columns: one read of the panel's
        // [L_kk; L_below], then one column split of the resident columns.
        for pv in &log.panel_pivots {
            let chunk = store.read_cols(pv.offset, pv.len(), pv.offset)?;
            lu_panel_update(p.threads, pv, chunk.view(), resident.view_mut());
        }

        // The in-core panel loop on the resident columns, in place. It
        // leaves ALL columns to the left — resident or on disk — to the
        // fix-up sweep: the replay of a panel onto later superpanels must
        // read its `L` rows exactly as they were at factorization time, so
        // already-factored columns stay unpermuted until every panel is done.
        calu_panels(resident.view_mut(), c0s, p, p.threads, &mut log);

        store.write_cols(c0s, 0, &resident)?;
    }

    // Fix-up sweep: every factored panel still lacks the row swaps of the
    // panels that came after it. Those swaps only touch rows at or below
    // the later panels' diagonals, so for panel `q` (diagonal `k0`, width
    // `w`) rows `0..k0+w` on disk are final and only rows `k0+w..m` need
    // one streamed read-swap-write pass.
    let LuPanelLog { panel_pivots, breakdown, stats } = log;
    for (q, head) in panel_pivots.iter().enumerate() {
        let k0 = head.offset;
        let w = p.b.min(n - k0);
        let base = k0 + w;
        if base >= m || q + 1 == panel_pivots.len() {
            continue;
        }
        let mut blk = store.read_cols(k0, w, base)?;
        for pv in &panel_pivots[q + 1..] {
            apply_pivots_rebased(pv, base, blk.view_mut());
        }
        store.write_cols(k0, base, &blk)?;
    }

    let mut pivots = PivotSeq::new(0);
    for pv in &panel_pivots {
        pivots.extend(pv);
    }

    Ok(OocLu {
        pivots,
        panel_pivots,
        breakdown,
        stats,
        plan,
        io: store.io().since(&io0),
    })
}

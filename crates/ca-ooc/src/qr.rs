//! Left-looking out-of-core CAQR.
//!
//! [`ooc_caqr`] factors a [`TileStore`]-resident matrix with one resident
//! superpanel, mirroring [`ca_core::caqr_seq`]'s program order. For each
//! resident superpanel it first applies every previously factored panel's
//! `Qᵀ` — leaf reflectors read from the store once per panel (they live
//! below the diagonal of the factored panels on disk), tree-node reflectors
//! from the RAM-held [`PanelQ`] scratch — as one column split of the
//! resident columns over `p.threads` lanes, then runs the panel loop
//! `caqr_seq` itself runs, [`ca_core::caqr_panels`], on the resident
//! columns in place, its trailing updates split the same way. Panel
//! factorizations and store I/O stay on the calling thread.
//!
//! The Q-tree scratch (`LeafQ::t`, `NodeQ::v`/`t`) stays in RAM for the
//! whole factorization: a panel's partition has at most `tr` groups, so
//! the scratch is `O(tr·b²)` per panel and `O(tr·b·min(m,n))` overall —
//! the QR plan reserves it out of the memory budget up front
//! ([`crate::OocPlan::scratch_bytes`]).

use crate::plan::{OocKind, OocPlan};
use crate::store::{IoSnapshot, TileStore};
use ca_core::tsqr::{panel_apply, PanelQ};
use ca_core::{caqr_panels, CaParams, FactorError};
use ca_kernels::{Kernel, Trans};
use ca_matrix::MatViewMut;

/// The result of an out-of-core QR factorization. `R` and the leaf
/// Householder vectors live in the [`TileStore`] (same packed layout as
/// [`ca_core::QrFactors::a`]); the tree scratch comes back in RAM.
#[derive(Debug)]
pub struct OocQr<T: ca_matrix::Scalar = f64> {
    /// Per-panel `Q` representation in factorization order. `PanelQ::c0`
    /// is the panel's global column: the reflectors are addressed in the
    /// store, not in a resident matrix.
    pub panels: Vec<PanelQ<T>>,
    /// The residency plan the factorization ran under.
    pub plan: OocPlan,
    /// Tile-store transfer volume of the factorization.
    pub io: IoSnapshot,
}

/// Factors the store's matrix in place as `A = Q·R` under `budget_bytes`
/// of resident memory.
pub fn ooc_caqr<T: Kernel>(
    store: &TileStore<T>,
    p: &CaParams,
    budget_bytes: usize,
) -> Result<OocQr<T>, FactorError> {
    let m = store.nrows();
    let n = store.ncols();
    let plan = OocPlan::solve(OocKind::Qr, m, n, p, T::BYTES, budget_bytes)?;
    let io0 = store.io();

    let mut panels: Vec<PanelQ<T>> = Vec::with_capacity(m.min(n).div_ceil(p.b));

    for j in 0..plan.nsuper {
        let c0s = plan.super_start(j);
        let ws = plan.super_width(j);
        let mut a = store.read_cols(c0s, ws, 0)?;

        // Qᵀ of every previously factored panel, in panel order — the
        // update caqr_seq interleaved with its own trailing loop, replayed
        // verbatim on the resident columns.
        for panel in &panels {
            apply_panel_from_store(store, panel, a.view_mut(), Trans::Yes, p.threads)?;
        }

        caqr_panels(a.view_mut(), c0s, p, p.threads, &mut panels);

        store.write_cols(c0s, 0, &a)?;
    }

    Ok(OocQr { panels, plan, io: store.io().since(&io0) })
}

/// Applies `op(Q_panel)` for a store-resident factored panel to `dst`
/// (`panel.c0` is the panel's global column in the store): the leaf
/// reflector blocks are read once, then [`ca_core::tsqr::panel_apply`] runs
/// one column split of `dst` over `workers` lanes.
pub fn apply_panel_from_store<T: Kernel>(
    store: &TileStore<T>,
    panel: &PanelQ<T>,
    dst: MatViewMut<'_, T>,
    trans: Trans,
    workers: usize,
) -> Result<(), FactorError> {
    if dst.is_empty() {
        return Ok(());
    }
    let vs = panel
        .leaves
        .iter()
        .map(|leaf| store.read_block(leaf.rows.start, leaf.rows.len(), panel.c0, leaf.kv))
        .collect::<Result<Vec<_>, _>>()?;
    let views: Vec<_> = vs.iter().map(|v| v.view()).collect();
    panel_apply(workers, panel, &views, dst, trans);
    Ok(())
}

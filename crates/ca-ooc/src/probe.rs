//! Streaming `O(n²)` verification probes for store-resident factors.
//!
//! A full `‖PA − LU‖ / ‖A‖` residual needs the `O(n³)` product of the
//! factors — more arithmetic than the factorization itself and a second
//! full matrix in RAM, neither of which an out-of-core run can afford.
//! These probes instead verify the factors against a random vector: with
//! `y₀ = A·x` captured *before* factoring (one streamed pass), the scaled
//! probe residual
//!
//! ```text
//!   ‖Pᵀ·L·(U·x) − y₀‖₂ / (‖A‖_F · ‖x‖₂)     (LU)
//!   ‖Q·(R·x) − y₀‖₂ / (‖A‖_F · ‖x‖₂)        (QR)
//! ```
//!
//! is of the same `O(ε·growth)` order as the backward-error gate in
//! `tests/accuracy.rs` and costs one pass over the factored store. The
//! factor products are accumulated in `f64` whatever the working
//! precision, so the probe measures the factors' error, not its own.

use crate::qr::apply_panel_from_store;
use crate::store::TileStore;
use ca_core::tsqr::PanelQ;
use ca_kernels::{Kernel, Trans};
use ca_matrix::{Matrix, PivotSeq, Scalar};
use ca_core::FactorError;

/// One streamed pass over an unfactored store: returns `A·x` and `‖A‖_F`,
/// both accumulated in `f64`.
pub fn stream_matvec<T: Scalar>(
    store: &TileStore<T>,
    x: &[f64],
) -> Result<(Vec<f64>, f64), FactorError> {
    let m = store.nrows();
    let n = store.ncols();
    assert_eq!(x.len(), n, "probe vector length mismatch");
    let mut y = vec![0.0f64; m];
    let mut fro2 = 0.0f64;
    for j in 0..store.num_panels() {
        let c0 = j * store.panel_width();
        let w = store.width_of(j);
        let blk = store.read_panel(j)?;
        for c in 0..w {
            let xj = x[c0 + c];
            for i in 0..m {
                let v = blk[(i, c)].to_f64();
                fro2 += v * v;
                y[i] += v * xj;
            }
        }
    }
    Ok((y, fro2.sqrt()))
}

/// Streams `Pᵀ·L·(U·x)` out of an LU-factored store (packed `dgetrf`
/// layout): one upper-trapezoid pass for `U·x`, one lower-trapezoid pass
/// for `L·(U·x)`, then the inverse interchanges.
pub fn lu_probe_apply<T: Scalar>(
    store: &TileStore<T>,
    pivots: &PivotSeq,
    x: &[f64],
) -> Result<Vec<f64>, FactorError> {
    let m = store.nrows();
    let n = store.ncols();
    let kmax = m.min(n);
    assert_eq!(x.len(), n, "probe vector length mismatch");

    // u = U·x (U is kmax × n, on and above the diagonal).
    let mut u = vec![0.0f64; kmax];
    for j in 0..store.num_panels() {
        let c0 = j * store.panel_width();
        let w = store.width_of(j);
        let rmax = (c0 + w).min(kmax);
        let blk = store.read_block(0, rmax, c0, w)?;
        for c in 0..w {
            let jg = c0 + c;
            let xj = x[jg];
            for (i, ui) in u.iter_mut().enumerate().take((jg + 1).min(kmax)) {
                *ui += blk[(i, c)].to_f64() * xj;
            }
        }
    }

    // v = L·u (L is m × kmax, unit diagonal, strictly below stored).
    let mut v = vec![0.0f64; m];
    for j in 0..store.num_panels() {
        let c0 = j * store.panel_width();
        if c0 >= kmax {
            break;
        }
        let w = store.width_of(j).min(kmax - c0);
        let blk = store.read_cols(c0, w, c0)?;
        for c in 0..w {
            let jg = c0 + c;
            let uj = u[jg];
            v[jg] += uj;
            for i in (jg + 1)..m {
                v[i] += blk[(i - c0, c)].to_f64() * uj;
            }
        }
    }

    // Pᵀ: undo the interchanges (reverse order).
    for (k, &p) in pivots.ipiv.iter().enumerate().rev() {
        v.swap(pivots.offset + k, p);
    }
    Ok(v)
}

/// Streams `Q·(R·x)` out of a QR-factored store: `R·x` in `f64` from the
/// upper trapezoid, then the panels' `Q` applied in reverse through
/// [`apply_panel_from_store`] (leaf reflectors re-read from the store).
pub fn qr_probe_apply<T: Kernel>(
    store: &TileStore<T>,
    panels: &[PanelQ<T>],
    x: &[f64],
) -> Result<Vec<f64>, FactorError> {
    let m = store.nrows();
    let n = store.ncols();
    let kmax = m.min(n);
    assert_eq!(x.len(), n, "probe vector length mismatch");

    // u = R·x, accumulated in f64.
    let mut u = vec![0.0f64; kmax];
    for j in 0..store.num_panels() {
        let c0 = j * store.panel_width();
        let w = store.width_of(j);
        let rmax = (c0 + w).min(kmax);
        let blk = store.read_block(0, rmax, c0, w)?;
        for c in 0..w {
            let jg = c0 + c;
            let xj = x[jg];
            for (i, ui) in u.iter_mut().enumerate().take((jg + 1).min(kmax)) {
                *ui += blk[(i, c)].to_f64() * xj;
            }
        }
    }

    // v = Q·[u; 0] in working precision (the Q application is itself part
    // of the factorization's error budget).
    let mut v = Matrix::<T>::zeros(m, 1);
    for (i, &ui) in u.iter().enumerate() {
        v[(i, 0)] = T::from_f64(ui);
    }
    for panel in panels.iter().rev() {
        apply_panel_from_store(store, panel, v.view_mut(), Trans::No, 1)?;
    }
    Ok((0..m).map(|i| v[(i, 0)].to_f64()).collect())
}

/// Scaled probe residual `‖got − want‖₂ / (a_fro · ‖x‖₂)`.
pub fn probe_residual(got: &[f64], want: &[f64], a_fro: f64, x: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len());
    let diff2: f64 = got.iter().zip(want).map(|(g, w)| (g - w) * (g - w)).sum();
    let x2: f64 = x.iter().map(|v| v * v).sum();
    diff2.sqrt() / (a_fro * x2.sqrt()).max(f64::MIN_POSITIVE)
}

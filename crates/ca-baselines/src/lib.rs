//! # ca-baselines
//!
//! The comparison algorithms of the paper's evaluation, built from the same
//! `ca-kernels` substrate as CALU/CAQR and run by the same
//! [`ca_sched::run_plan`] path:
//!
//! * [`getrf_blocked`] / [`geqrf_blocked`] — LAPACK-style blocked
//!   factorizations with a sequential BLAS2 panel task and a strip-parallel
//!   BLAS3 trailing update: the `MKL_dgetrf` / `ACML_dgetrf` /
//!   `MKL_dgeqrf` vendor-library stand-ins.
//! * `ca_kernels::getf2` / `ca_kernels::geqr2` — the pure BLAS2 routines the
//!   paper benchmarks as `MKL_dgetf2` / `MKL_dgeqr2`.
//! * [`tiled_lu`] / [`tiled_qr`] — PLASMA 2.0-style tile algorithms
//!   (incremental pairwise pivoting LU; flat-tree tile QR). Tiled QR is
//!   [`ca_core::CaqrPlan`] over PLASMA's elimination list — one-tile
//!   groups, a leaf QR on the diagonal tile, a chain of triangle-on-square
//!   eliminations below it — so it returns CAQR's [`ca_core::QrFactors`].
//! * [`BlockedLuPlan`] / [`BlockedQrPlan`] / [`TiledLuPlan`] —
//!   `::build(..)` — and [`tiled_qr_plan`] make each of the four as a
//!   [`ca_sched::Plan`], every task added once as its footprint and the
//!   closure that touches it: the graph the entry point above executes is
//!   the graph the multicore simulator costs and the static verifier proves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod geqrf_blocked;
mod getrf_blocked;
pub mod tile_kernels;
mod tiled_lu;
mod tiled_qr;

use ca_matrix::Matrix;
use ca_sched::Plan;
use std::ops::Range;

/// Runs a blocked plan over `a` in place on `threads` workers.
fn run_in_place<F: 'static>(
    plan: Plan<f64, (Matrix, F)>,
    a: &mut Matrix,
    threads: usize,
) -> F {
    let owned = std::mem::replace(a, Matrix::zeros(0, 0));
    let ((factored, f), _) = ca_sched::run_plan(plan, owned, threads, &Default::default())
        .unwrap_or_else(|e| panic!("{e}"));
    *a = factored;
    f
}

/// The multithreaded-BLAS stand-in of the blocked baselines: cuts the
/// trailing columns `cols` into at most `strips` strips of whole `nb`-wide
/// blocks (the last may be ragged), so a strip never shares a block column
/// with the next panel's neighbours.
fn column_strips(cols: Range<usize>, nb: usize, strips: usize) -> impl Iterator<Item = Range<usize>> {
    let width = cols.len().div_ceil(strips).div_ceil(nb).max(1) * nb;
    cols.clone().step_by(width).map(move |c0| c0..(c0 + width).min(cols.end))
}

pub use geqrf_blocked::{geqrf_blocked, BlockedQr, BlockedQrPlan};
pub use getrf_blocked::{getrf_blocked, BlockedLu, BlockedLuPlan};
pub use tiled_lu::{tiled_lu, TiledLu, TiledLuPlan};
pub use tiled_qr::{tiled_qr, tiled_qr_plan};

#[cfg(test)]
mod tests {
    use super::*;
    use ca_sched::{AccessMap, TaskGraph, TaskKind};

    /// Column ranges the `Update` tasks of `step` write, in task order.
    fn update_strips<T>(g: &TaskGraph<T>, access: &AccessMap, step: usize) -> Vec<(usize, usize)> {
        (0..g.len())
            .filter(|&id| {
                let label = g.meta(id).label;
                label.kind == TaskKind::Update && label.step == step
            })
            .map(|id| (access.writes(id)[0].col0, access.writes(id)[0].col1))
            .collect()
    }

    #[test]
    fn update_strips_cover_the_trailing_columns_once_in_at_most_strips_strips() {
        // (n, nb, strips, strips of step 0): never more than `strips`, whole
        // blocks only, a single strip when one block of columns trails.
        for (n, nb, strips, first) in
            [(1000usize, 100, 2usize, 2usize), (1000, 100, 3, 3), (1000, 100, 8, 5), (170, 100, 8, 1)]
        {
            let lu = BlockedLuPlan::build(n + 50, n, nb, strips);
            let qr = BlockedQrPlan::build(n + 50, n, nb, strips);
            for step in 0..n.div_ceil(nb) - 1 {
                let cols = update_strips(lu.graph(), lu.access(), step);
                assert_eq!(cols, update_strips(qr.graph(), qr.access(), step));
                assert!(cols.len() <= strips, "n={n} nb={nb} step {step}: {cols:?}");
                if step == 0 {
                    assert_eq!(cols.len(), first, "n={n} nb={nb} strips={strips}");
                }
                // Contiguous from the panel's right edge to the last column.
                let mut next = (step + 1) * nb;
                for (c0, c1) in cols {
                    assert_eq!(c0, next);
                    assert!(c1 == n || (c1 - c0) % nb == 0);
                    next = c1;
                }
                assert_eq!(next, n, "n={n} nb={nb} step {step}");
            }
        }
    }
}

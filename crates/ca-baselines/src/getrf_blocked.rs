//! LAPACK-style blocked right-looking LU with partial pivoting — the
//! vendor-library (`MKL_dgetrf` / `ACML_dgetrf`) stand-in.
//!
//! Structure (LAPACK `dgetrf` under a multithreaded BLAS3), as a
//! [`ca_sched::Plan`]: per panel, one BLAS2 `dgetf2` task over the
//! *whole* panel (one thread — the panel is the part vendors do not
//! parallelize well, the paper's central observation); then per column
//! strip of the trailing matrix one task applying the row interchanges and
//! the `dtrsm` of the `U` block row, and one `dgemm` update task. The
//! interchanges left of the panel are deferred to one task per finished
//! block column, like CALU's.

use crate::column_strips;
use ca_kernels::{flops, traffic};
use ca_kernels::{gemm, getf2, trsm_left_lower_unit, LuInfo, Trans};
use ca_matrix::shadow::ElemRect;
use ca_matrix::{Matrix, PivotSeq};
use ca_sched::{KernelClass, Plan, PlanBuilder, TaskKind, TaskLabel, TaskMeta};
use std::sync::OnceLock;

/// Result of the blocked factorization: pivots plus LAPACK `info`-style
/// breakdown column.
pub struct BlockedLu {
    /// Global row interchanges.
    pub pivots: PivotSeq,
    /// First exactly-zero pivot column, if any.
    pub breakdown: Option<usize>,
}

/// What a panel task leaves for the strips of its step: its `dgetf2`
/// outcome (panel-local pivots).
type Panels = Vec<OnceLock<LuInfo>>;

/// Builder of the task DAG of blocked `dgetrf`.
pub struct BlockedLuPlan;

impl BlockedLuPlan {
    /// Plan for an `m × n` matrix with panel width `nb`, the trailing update
    /// of each step cut into at most `strips` block-aligned column strips.
    // Task bodies: every access falls inside the footprint declared right
    // after the body, which `verify_graph` proves conflict-ordered.
    #[allow(clippy::disallowed_methods)]
    pub fn build(m: usize, n: usize, nb: usize, strips: usize) -> Plan<f64, Panels, (Matrix, BlockedLu)> {
        assert!(nb > 0, "panel width must be positive");
        let kmax = m.min(n);
        let nsteps = kmax.div_ceil(nb);
        let mut pb = PlanBuilder::<f64, Panels>::new(nb, m, n);
        let mut infos = Vec::with_capacity(nsteps);

        for step in 0..nsteps {
            let k0 = step * nb;
            let w = nb.min(kmax - k0);
            let pr = ((nsteps - step) as i64) * 1000;
            // Panel: BLAS2, on the critical path, single task.
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, 0, step),
                flops::getrf(m - k0, w),
            )
            .with_bytes(traffic::getf2(m - k0, w))
            .with_priority(pr + 900)
            .with_class(KernelClass::LuBlas2);
            let panel = pb.task(meta, move |a, panels| {
                // SAFETY: the DAG orders this after every update of these
                // columns and before every reader of the panel.
                let info = getf2(unsafe { a.block_mut(k0, k0, m - k0, w) });
                panels[step].set(info).expect("panel ran twice");
            });
            pb.writes_rect(panel, ElemRect::new(k0..m, k0..k0 + w));
            let info = pb.slot();
            pb.writes_slot(panel, info);
            infos.push(info);

            for cols in column_strips(k0 + w..n, nb, strips) {
                let (c0, wc) = (cols.start, cols.len());
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::URow, step, 0, c0 / nb),
                    flops::trsm_left(w, wc),
                )
                .with_bytes(traffic::trsm_left(w, wc) + traffic::laswp(w, wc))
                .with_priority(pr + 500)
                .with_class(KernelClass::Trsm);
                let urow = pb.task(meta, move |a, panels| {
                    // SAFETY: rows k0.. of this strip belong to this task
                    // alone between the previous step's update and this
                    // step's; L_kk is final.
                    let mut col = unsafe { a.block_mut(k0, c0, m - k0, wc) };
                    panels[step].get().expect("panel pivots not ready").pivots.apply(col.rb());
                    let lkk = unsafe { a.block(k0, k0, w, w) };
                    trsm_left_lower_unit(lkk, col.into_sub(0, 0, w, wc));
                });
                pb.reads_slot(urow, info);
                pb.reads_rect(urow, ElemRect::new(k0..k0 + w, k0..k0 + w));
                pb.writes_rect(urow, ElemRect::new(k0..m, cols.clone()));

                if k0 + w < m {
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, 0, c0 / nb),
                        flops::gemm(m - k0 - w, wc, w),
                    )
                    .with_bytes(traffic::gemm(m - k0 - w, wc, w))
                    .with_priority(pr + 100)
                    .with_class(KernelClass::Gemm);
                    let id = pb.task(meta, move |a, _| {
                        // SAFETY: reads L (final until the deferred left
                        // swap) and this strip's finished U row; writes
                        // only this strip.
                        let l = unsafe { a.block(k0 + w, k0, m - k0 - w, w) };
                        let u = unsafe { a.block(k0, c0, w, wc) };
                        let c = unsafe { a.block_mut(k0 + w, c0, m - k0 - w, wc) };
                        gemm(Trans::No, Trans::No, -1.0, l, u, 1.0, c);
                    });
                    pb.reads_rect(id, ElemRect::new(k0 + w..m, k0..k0 + w));
                    pb.reads_rect(id, ElemRect::new(k0..k0 + w, cols.clone()));
                    pb.writes_rect(id, ElemRect::new(k0 + w..m, cols));
                }
            }
        }

        // Deferred left-side interchanges: block column `jblk` takes the
        // pivots of every later panel once nothing reads its `L` any more.
        for jblk in 0..nsteps.saturating_sub(1) {
            let k1 = (jblk + 1) * nb;
            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Swap, nsteps, 0, jblk), 0.0)
                .with_bytes(traffic::laswp(kmax - k1, nb))
                .with_class(KernelClass::Memory);
            let id = pb.task(meta, move |a, panels| {
                for (step, panel) in panels.iter().enumerate().skip(jblk + 1) {
                    // SAFETY: every reader of this block column's L is done
                    // and every later panel's pivots are set, per the DAG.
                    let col = unsafe { a.block_mut(step * nb, jblk * nb, m - step * nb, nb) };
                    panel.get().expect("panel pivots not ready").pivots.apply(col);
                }
            });
            for &info in &infos[jblk + 1..] {
                pb.reads_slot(id, info);
            }
            pb.writes_rect(id, ElemRect::new(k1..m, jblk * nb..k1));
        }

        pb.finish((0..nsteps).map(|_| OnceLock::new()).collect(), |a, panels| {
            let mut f = BlockedLu { pivots: PivotSeq::new(0), breakdown: None };
            for info in panels {
                let info = info.into_inner().expect("panel missing");
                let k0 = f.pivots.len();
                f.pivots.ipiv.extend(info.pivots.ipiv.iter().map(|&r| r + k0));
                f.breakdown = f.breakdown.or(info.first_zero_pivot.map(|c| k0 + c));
            }
            (a, f)
        })
    }
}

/// Blocked `dgetrf` in place with panel width `nb` on `threads` workers:
/// the interchange + `dtrsm` + `dgemm` trailing update of each step runs as
/// up to `threads` column strips (vendor-BLAS stand-in); the panel
/// factorization is always one sequential BLAS2 task.
///
/// # Panics
/// If a worker task panics.
pub fn getrf_blocked(a: &mut Matrix, nb: usize, threads: usize) -> BlockedLu {
    crate::run_in_place(BlockedLuPlan::build(a.nrows(), a.ncols(), nb, threads), a, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{lu_residual, seeded_rng};

    fn check(m: usize, n: usize, nb: usize, threads: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut a = a0.clone();
        let r = getrf_blocked(&mut a, nb, threads);
        assert!(r.breakdown.is_none());
        let perm = r.pivots.to_permutation(m);
        let res = lu_residual(&a0, &perm, &a.unit_lower(), &a.upper());
        assert!(res < 1e-12, "residual {res} for {m}x{n} nb={nb}");
    }

    #[test]
    fn blocked_lu_various_shapes() {
        check(64, 64, 16, 1, 1);
        check(100, 100, 32, 1, 2);
        check(200, 50, 16, 1, 3);
        check(50, 200, 16, 1, 4);
        check(97, 61, 13, 1, 5);
    }

    #[test]
    fn matches_pure_blas2_pivots() {
        let a0 = ca_matrix::random_uniform(80, 80, &mut seeded_rng(7));
        let mut ab = a0.clone();
        let rb = getrf_blocked(&mut ab, 16, 1);
        let mut a2 = a0.clone();
        let info = ca_kernels::getf2(a2.view_mut());
        assert_eq!(rb.pivots.ipiv, info.pivots.ipiv);
    }

    #[test]
    fn task_graph_valid_and_panel_on_critical_path() {
        let plan = BlockedLuPlan::build(800, 800, 100, 8);
        let g = plan.graph();
        g.validate();
        // The critical path must include every panel's BLAS2 flops.
        let panel_flops: f64 = (0..8)
            .map(|s| flops::getrf(800 - s * 100, 100))
            .sum();
        assert!(g.critical_path_flops() >= panel_flops * 0.99);
    }

    #[test]
    fn singular_matrix_reports_breakdown() {
        let n = 30;
        let mut a = ca_matrix::random_uniform(n, n, &mut seeded_rng(8));
        for i in 0..n {
            a[(i, 11)] = 0.0;
        }
        let r = getrf_blocked(&mut a, 8, 1);
        assert!(r.breakdown.is_some());
    }
}

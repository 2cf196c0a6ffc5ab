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
use ca_matrix::{ElemRect, Matrix, PivotSeq};
use ca_sched::{KernelClass, Plan, PlanBuilder, Slot, TaskKind, TaskLabel, TaskMeta};

/// Result of the blocked factorization: pivots plus LAPACK `info`-style
/// breakdown column.
pub struct BlockedLu {
    /// Global row interchanges.
    pub pivots: PivotSeq,
    /// First exactly-zero pivot column, if any.
    pub breakdown: Option<usize>,
}

/// Builder of the task DAG of blocked `dgetrf`.
pub struct BlockedLuPlan;

impl BlockedLuPlan {
    /// Plan for an `m × n` matrix with panel width `nb`, the trailing update
    /// of each step cut into at most `strips` block-aligned column strips.
    pub fn build(m: usize, n: usize, nb: usize, strips: usize) -> Plan<f64, (Matrix, BlockedLu)> {
        assert!(nb > 0, "panel width must be positive");
        let kmax = m.min(n);
        let nsteps = kmax.div_ceil(nb);
        let mut pb = PlanBuilder::<f64>::new(nb, m, n);
        // Per step, the slot of its panel's `dgetf2` outcome (panel-local
        // pivots).
        let mut infos: Vec<Slot<LuInfo>> = Vec::with_capacity(nsteps);

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
            let info = pb.slot();
            let mut t = pb.task(meta);
            let panel = t.writes_rect(ElemRect::new(k0..m, k0..k0 + w));
            t.writes_slot(info);
            t.run(move |cx| cx.put(info, getf2(cx.view_mut(panel))));
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
                let mut t = pb.task(meta);
                t.reads_slot(info);
                let lkk = t.reads_rect(ElemRect::new(k0..k0 + w, k0..k0 + w));
                let strip = t.writes_rect(ElemRect::new(k0..m, cols.clone()));
                t.run(move |cx| {
                    let mut col = cx.view_mut(strip);
                    cx.get(info).pivots.apply(col.rb());
                    trsm_left_lower_unit(cx.view(lkk), col.into_sub(0, 0, w, wc));
                });

                if k0 + w < m {
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, 0, c0 / nb),
                        flops::gemm(m - k0 - w, wc, w),
                    )
                    .with_bytes(traffic::gemm(m - k0 - w, wc, w))
                    .with_priority(pr + 100)
                    .with_class(KernelClass::Gemm);
                    let mut t = pb.task(meta);
                    let l = t.reads_rect(ElemRect::new(k0 + w..m, k0..k0 + w));
                    let u = t.reads_rect(ElemRect::new(k0..k0 + w, cols.clone()));
                    let c = t.writes_rect(ElemRect::new(k0 + w..m, cols));
                    t.run(move |cx| {
                        gemm(Trans::No, Trans::No, -1.0, cx.view(l), cx.view(u), 1.0, cx.view_mut(c))
                    });
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
            let later = infos[jblk + 1..].to_vec();
            let mut t = pb.task(meta);
            for &info in &later {
                t.reads_slot(info);
            }
            let block = t.writes_rect(ElemRect::new(k1..m, jblk * nb..k1));
            t.run(move |cx| {
                let mut col = cx.view_mut(block);
                for (k0, &info) in (k1..).step_by(nb).zip(&later) {
                    cx.get(info).pivots.apply(col.sub(k0 - k1, 0, m - k0, nb));
                }
            });
        }

        pb.finish(move |a, slots| {
            let mut f = BlockedLu { pivots: PivotSeq::new(0), breakdown: None };
            for info in infos {
                let info = slots.take(info)?;
                let k0 = f.pivots.len();
                f.pivots.ipiv.extend(info.pivots.ipiv.iter().map(|&r| r + k0));
                f.breakdown = f.breakdown.or(info.first_zero_pivot.map(|c| k0 + c));
            }
            Some((a, f))
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

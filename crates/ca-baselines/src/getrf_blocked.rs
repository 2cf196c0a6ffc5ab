//! LAPACK-style blocked right-looking LU with partial pivoting — the
//! vendor-library (`MKL_dgetrf` / `ACML_dgetrf`) stand-in.
//!
//! Structure (exactly LAPACK `dgetrf`): per panel, a BLAS2 `dgetf2`
//! factorization of the *whole* panel (one thread — the panel is the part
//! vendors do not parallelize well, the paper's central observation), row
//! interchanges applied to both sides, `dtrsm` for the `U` block row, and a
//! `dgemm` trailing update that we optionally parallelize over column strips
//! (standing in for a multithreaded BLAS3).

use ca_kernels::{flops, traffic};
use ca_kernels::{gemm, getf2, trsm_left_lower_unit, Trans};
use ca_matrix::{Matrix, PivotSeq};
use ca_sched::{row_blocks, BlockTracker, KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta};

/// Result of the blocked factorization: pivots plus LAPACK `info`-style
/// breakdown column.
pub struct BlockedLu {
    /// Global row interchanges.
    pub pivots: PivotSeq,
    /// First exactly-zero pivot column, if any.
    pub breakdown: Option<usize>,
}

/// Blocked `dgetrf` in place with panel width `nb`. `threads > 1`
/// parallelizes the trailing update over column strips (vendor-BLAS
/// stand-in); the panel factorization is always sequential BLAS2.
pub fn getrf_blocked(a: &mut Matrix, nb: usize, threads: usize) -> BlockedLu {
    assert!(nb > 0, "panel width must be positive");
    let m = a.nrows();
    let n = a.ncols();
    let kmax = m.min(n);
    let mut pivots = PivotSeq::new(0);
    let mut breakdown = None;

    let mut k0 = 0usize;
    while k0 < kmax {
        let w = nb.min(kmax - k0);

        // BLAS2 panel factorization of columns k0..k0+w, rows k0..m.
        let info = getf2(a.block_mut(k0, k0, m - k0, w));
        if breakdown.is_none() {
            breakdown = info.first_zero_pivot.map(|c| k0 + c);
        }
        // Globalize pivots and apply to both sides.
        let mut seq = PivotSeq::new(k0);
        for &p in &info.pivots.ipiv {
            seq.push(p + k0);
        }
        if k0 > 0 {
            seq.apply(a.block_mut(0, 0, m, k0));
        }
        if k0 + w < n {
            seq.apply(a.block_mut(0, k0 + w, m, n - k0 - w));
        }
        pivots.extend(&seq);

        if k0 + w < n {
            // U block row.
            let (panel_cols, trailing) = a.view_mut().split_at_col(k0 + w);
            let lkk = panel_cols.as_ref().sub(k0, k0, w, w);
            let mut trailing = trailing;
            trsm_left_lower_unit(lkk, trailing.rb().into_sub(k0, 0, w, n - k0 - w));

            // Trailing update, parallel over column strips.
            if k0 + w < m {
                let l_below = panel_cols.as_ref().sub(k0 + w, k0, m - k0 - w, w);
                let (u_row, a_below) = trailing.split_at_row(k0 + w);
                let u_row = u_row.as_ref().sub(k0, 0, w, n - k0 - w);
                crate::for_each_column_strip(a_below, threads, |j, cj| {
                    let uj = u_row.sub(0, j, w, cj.ncols());
                    gemm(Trans::No, Trans::No, -1.0, l_below, uj, 1.0, cj);
                });
            }
        }
        k0 += w;
    }
    BlockedLu { pivots, breakdown }
}

/// Task graph of blocked `dgetrf` for the multicore simulator: one
/// (sequential, BLAS2) panel task per step, `dtrsm` + strip `dgemm` tasks in
/// between — the task structure the paper ascribes to the vendor libraries.
pub fn getrf_blocked_task_graph(m: usize, n: usize, nb: usize, strips: usize) -> TaskGraph<()> {
    let kmax = m.min(n);
    let nsteps = kmax.div_ceil(nb);
    let nbk = n.div_ceil(nb);
    let mbk = m.div_ceil(nb);
    let mut g: TaskGraph<()> = TaskGraph::new();
    let mut tracker = BlockTracker::new(mbk, nbk);

    for step in 0..nsteps {
        let k0 = step * nb;
        let w = nb.min(kmax - k0);
        // Panel: BLAS2, on the critical path, single task.
        let meta = TaskMeta::new(
            TaskLabel::new(TaskKind::Panel, step, 0, step),
            flops::getrf(m - k0, w),
        )
        .with_bytes(traffic::getf2(m - k0, w))
        .with_priority(((nsteps - step) as i64) * 1000 + 900)
        .with_class(KernelClass::LuBlas2);
        let panel = g.add_task(meta, ());
        tracker.write(&mut g, panel, row_blocks(k0..m, nb), step..step + 1);

        for jblk in step + 1..nbk {
            let jc0 = jblk * nb;
            let wj = nb.min(n - jc0);
            // Interchange + U row (one task per trailing block column).
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::URow, step, 0, jblk),
                flops::trsm_left(w, wj),
            )
            .with_bytes(traffic::trsm_left(w, wj) + traffic::laswp(w, wj))
            .with_priority(((nsteps - step) as i64) * 1000 + 500)
            .with_class(KernelClass::Trsm);
            let urow = g.add_task(meta, ());
            g.add_dep(panel, urow);
            tracker.write(&mut g, urow, row_blocks(k0..m, nb), jblk..jblk + 1);

            // Trailing strips: the multithreaded-BLAS update.
            if k0 + w < m {
                let rows = k0 + w..m;
                // Strip boundaries aligned to the block grid so strips of
                // one panel write disjoint blocks (and thus run in parallel).
                let strip_rows = rows.len().div_ceil(strips).div_ceil(nb).max(1) * nb;
                let mut r0 = rows.start;
                while r0 < rows.end {
                    let r1 = (r0 + strip_rows).min(rows.end);
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, r0 / nb, jblk),
                        flops::gemm(r1 - r0, wj, w),
                    )
                    .with_bytes(traffic::gemm(r1 - r0, wj, w))
                    .with_priority(((nsteps - step) as i64) * 1000 + 100)
                    .with_class(KernelClass::Gemm);
                    let s = g.add_task(meta, ());
                    tracker.read(&mut g, s, row_blocks(r0..r1, nb), step..step + 1);
                    tracker.write(&mut g, s, row_blocks(r0..r1, nb), jblk..jblk + 1);
                    r0 = r1;
                }
            }
        }
    }
    g
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
    fn parallel_update_matches_sequential() {
        let a0 = ca_matrix::random_uniform(150, 150, &mut seeded_rng(6));
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let r1 = getrf_blocked(&mut a1, 32, 1);
        let r2 = getrf_blocked(&mut a2, 32, 4);
        assert_eq!(r1.pivots.ipiv, r2.pivots.ipiv);
        assert_eq!(a1.as_slice(), a2.as_slice(), "parallel strips changed the result");
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
        let g = getrf_blocked_task_graph(800, 800, 100, 8);
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

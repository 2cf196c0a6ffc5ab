//! PLASMA-style tiled LU with incremental (pairwise block) pivoting —
//! the `PLASMA_dgetrf` stand-in (Buttari et al. 2009).
//!
//! The matrix is cut into `b × b` tiles; each step factors the diagonal tile
//! (`getrf_tile`), eliminates the tiles below it pairwise (`tstrf`), and
//! updates the trailing tiles (`gessm` / `ssssm`). Pivoting never crosses a
//! tile pair — that is what removes the panel factorization from the
//! critical path (the design the paper contrasts CALU against), at the cost
//! of a weaker pivoting strategy and a factorization that is not a global
//! `ΠA = LU` (hence the dedicated [`TiledLu::solve`]).

use crate::tile_kernels::{gessm, getrf_tile, ssssm, tstrf, TstrfTransform};
use ca_kernels::{flops, traffic};
use ca_kernels::{trsm_left_upper_notrans, LuInfo};
use ca_matrix::Matrix;
use ca_sched::{
    run_plan, FactorOptions, KernelClass, Plan, PlanBuilder, Slot, TaskKind, TaskLabel, TaskMeta,
};

/// Result of the tiled LU: the tiled factors plus the per-step transforms
/// needed to apply the elimination to a right-hand side.
pub struct TiledLu {
    /// The factored matrix: global `U` in the upper triangle; tile-local
    /// `L` factors below (interpretable only through the transforms).
    pub a: Matrix,
    /// Tile size.
    pub b: usize,
    /// Per-step diagonal-tile factorization info (tile-local pivots).
    pub diag: Vec<LuInfo>,
    /// Per-step, per-subdiagonal-tile `tstrf` transforms.
    pub trans: Vec<Vec<TstrfTransform>>,
}

impl TiledLu {
    /// Solves `A·X = rhs` using the stored elimination (square `A`).
    pub fn solve(&self, rhs: &Matrix) -> Matrix {
        let n = self.a.nrows();
        assert_eq!(self.a.ncols(), n, "solve requires square A");
        assert_eq!(rhs.nrows(), n, "rhs row mismatch");
        let b = self.b;
        let nt = n.div_ceil(b);
        let p = rhs.ncols();
        let mut y = rhs.clone();

        // Forward elimination, replaying the tile transforms.
        for k in 0..nt {
            let k0 = k * b;
            let wk = b.min(n - k0);
            // Diagonal pivots + L_kk solve on the RHS rows of tile row k.
            let lkk = self.a.block(k0, k0, wk, wk);
            gessm(&self.diag[k].pivots, lkk, y.block_mut(k0, 0, wk, p));
            // Pairwise elimination against the tiles below.
            for (ii, tr) in self.trans[k].iter().enumerate() {
                let i0 = (k + 1 + ii) * b;
                let ri = b.min(n - i0);
                let (top, bottom) = y.view_mut().split_at_row(i0);
                let ytop = top.into_sub(k0, 0, wk, p);
                let ybot = bottom.into_sub(0, 0, ri, p);
                ssssm(tr, ytop, ybot);
            }
        }

        // Back substitution with the global U.
        trsm_left_upper_notrans(self.a.view(), y.view_mut());
        y
    }

    /// Relative solve residual `‖A·x − rhs‖ / (‖A‖·‖x‖)` for verification.
    pub fn solve_residual(a0: &Matrix, x: &Matrix, rhs: &Matrix) -> f64 {
        let ax = a0.matmul(x);
        let diff = ax.sub_matrix(rhs);
        let na = ca_matrix::norm_fro(a0.view());
        let nx = ca_matrix::norm_fro(x.view());
        ca_matrix::norm_fro(diff.view()) / (na * nx).max(f64::MIN_POSITIVE)
    }
}

/// Builder of the task DAG of tiled LU: what [`tiled_lu`] runs and what the
/// simulator costs as `PLASMA_dgetrf`. As in PLASMA, the factors a kernel
/// hands on live beside the matrix: `getrf` leaves a copy of the diagonal
/// tile with its pivots, so `gessm` reads that copy and `tstrf` owns the
/// whole diagonal tile, and the two run unordered within a step; `ssssm`
/// reads its `tstrf` transform.
pub struct TiledLuPlan;

impl TiledLuPlan {
    /// Plan for an `m × n` matrix cut into `b × b` tiles.
    pub fn build(m: usize, n: usize, b: usize) -> Plan<f64, TiledLu> {
        let mt = m.div_ceil(b);
        let nt = n.div_ceil(b);
        let kt = m.min(n).div_ceil(b);
        let mut pb = PlanBuilder::<f64>::new(b, m, n);
        let steps = kt as i64;
        // Per step: the diagonal tile's pivots and a copy of the factored
        // tile, whose `L` the `gessm` tasks read while `tstrf` rewrites its
        // `U`; and each subdiagonal tile's `tstrf` transform.
        let mut diags: Vec<Slot<(LuInfo, Matrix)>> = Vec::with_capacity(kt);
        let mut transforms: Vec<Vec<Slot<TstrfTransform>>> = Vec::with_capacity(kt);

        for k in 0..kt {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            let pr = (steps - k as i64) * 1000;

            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Panel, k, k, k), flops::getrf(wk, wk))
                .with_bytes(traffic::getf2(wk, wk))
                .with_priority(pr + 900)
                .with_class(KernelClass::LuBlas2);
            let diag = pb.slot();
            let mut t = pb.task(meta);
            let tile = t.writes(k..k + 1, k..k + 1).block(k0, k0, wk, wk);
            t.writes_slot(diag);
            t.run(move |cx| {
                let mut tile = cx.view_mut(tile);
                let info = getrf_tile(tile.rb());
                cx.put(diag, (info, Matrix::from_vec(tile.as_ref().to_vec(), wk, wk)));
            });
            diags.push(diag);

            for j in k + 1..nt {
                let (j0, wj) = (j * b, b.min(n - j * b));
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::URow, k, k, j),
                    flops::trsm_left(wk, wj),
                )
                .with_bytes(traffic::trsm_left(wk, wj) + traffic::laswp(wk, wj))
                .with_priority(pr + 500)
                .with_class(KernelClass::Trsm);
                let mut t = pb.task(meta);
                t.reads_slot(diag);
                let tile = t.writes(k..k + 1, j..j + 1).block(k0, j0, wk, wj);
                t.run(move |cx| {
                    let (info, lkk) = cx.get(diag);
                    gessm(&info.pivots, lkk.view(), cx.view_mut(tile));
                });
            }
            let mut step_transforms = Vec::with_capacity(mt - k - 1);
            for i in k + 1..mt {
                let (i0, ri) = (i * b, b.min(m - i * b));
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, k, i, k),
                    flops::tstrf(ri, wk),
                )
                .with_bytes(traffic::getf2(ri + wk, wk))
                .with_priority(pr + 700)
                .with_class(KernelClass::LuBlas2);
                let transform = pb.slot();
                let mut t = pb.task(meta);
                // Tiles (k, k) and (i, k); the `gessm` tasks read the
                // diagonal tile's copy.
                let ukk = t.writes(k..k + 1, k..k + 1).block(k0, k0, wk, wk);
                let aik = t.writes(i..i + 1, k..k + 1).block(i0, k0, ri, wk);
                t.writes_slot(transform);
                t.run(move |cx| cx.put(transform, tstrf(cx.view_mut(ukk), cx.view_mut(aik))));

                for j in k + 1..nt {
                    let (j0, wj) = (j * b, b.min(n - j * b));
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, k, i, j),
                        flops::ssssm(ri, wk, wj),
                    )
                    .with_bytes(traffic::gemm(ri, wj, wk) + traffic::trsm_left(wk, wj))
                    .with_priority(pr + 100)
                    .with_class(KernelClass::Gemm);
                    let mut t = pb.task(meta);
                    t.reads_slot(transform);
                    let akj = t.writes(k..k + 1, j..j + 1).block(k0, j0, wk, wj);
                    let aij = t.writes(i..i + 1, j..j + 1).block(i0, j0, ri, wj);
                    t.run(move |cx| ssssm(cx.get(transform), cx.view_mut(akj), cx.view_mut(aij)));
                }
                step_transforms.push(transform);
            }
            transforms.push(step_transforms);
        }

        pb.finish(move |a, slots| {
            let diag = diags.into_iter().map(|d| slots.take(d).map(|(info, _)| info)).collect::<Option<_>>()?;
            let mut step = |ts: Vec<Slot<TstrfTransform>>| ts.into_iter().map(|t| slots.take(t)).collect();
            let trans = transforms.into_iter().map(&mut step).collect::<Option<_>>()?;
            Some(TiledLu { a, b, diag, trans })
        })
    }
}

/// Tiled LU of a square matrix with tile size `b`, on `threads` workers.
///
/// # Panics
/// If a worker task panics.
pub fn tiled_lu(a: Matrix, b: usize, threads: usize) -> TiledLu {
    let plan = TiledLuPlan::build(a.nrows(), a.ncols(), b);
    run_plan(plan, a, threads, &FactorOptions::default()).unwrap_or_else(|e| panic!("{e}")).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::seeded_rng;

    fn check(n: usize, b: usize, threads: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(seed));
        let x_true = ca_matrix::random_uniform(n, 2, &mut seeded_rng(seed + 1000));
        let rhs = a0.matmul(&x_true);
        let f = tiled_lu(a0.clone(), b, threads);
        let x = f.solve(&rhs);
        let res = TiledLu::solve_residual(&a0, &x, &rhs);
        assert!(res < 1e-10, "solve residual {res} for n={n} b={b} t={threads}");
    }

    #[test]
    fn tiled_lu_solves_systems() {
        check(32, 8, 1, 1);
        check(60, 16, 1, 2); // ragged edge tiles
        check(96, 24, 1, 3);
    }

    #[test]
    fn parallel_solve_works() {
        check(80, 16, 4, 5);
    }

    #[test]
    fn task_graph_has_no_blas2_panel_on_whole_column() {
        // Incremental pivoting splits the panel into per-tile tasks — the
        // critical path is much shorter than blocked dgetrf's.
        let n = 800;
        let b = 100;
        let plan = TiledLuPlan::build(n, n, b);
        plan.graph().validate();
        let blocked = crate::BlockedLuPlan::build(n, n, b, 8);
        assert!(
            plan.graph().critical_path_flops() < blocked.graph().critical_path_flops(),
            "tiled critical path should beat blocked's"
        );
    }

    #[test]
    fn task_graph_passes_static_verification() {
        for (m, n, b) in [(96, 96, 16), (60, 60, 16), (128, 64, 32)] {
            let plan = TiledLuPlan::build(m, n, b);
            let report = ca_sched::verify_graph(plan.graph(), plan.access())
                .unwrap_or_else(|e| panic!("tiled LU {m}x{n} b={b} unsound: {e}"));
            assert_eq!(report.tasks, plan.graph().len());
            assert!(report.conflict_pairs > 0, "expected conflicting pairs to prove ordered");
        }
    }

    #[test]
    fn checked_execution_passes_with_the_diagonal_tile_copied_aside() {
        let n = 64;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(7));
        let x_true = ca_matrix::random_uniform(n, 2, &mut seeded_rng(1007));
        let rhs = a0.matmul(&x_true);
        let checked = FactorOptions { checked: true, ..Default::default() };
        let (f, _) = run_plan(TiledLuPlan::build(n, n, 16), a0.clone(), 4, &checked)
            .expect("checked run is clean");
        let x = f.solve(&rhs);
        let res = TiledLu::solve_residual(&a0, &x, &rhs);
        assert!(res < 1e-10, "checked solve residual {res}");
    }

    #[test]
    fn upper_triangle_is_global_u() {
        // The tiled elimination must produce the same U as applying the
        // forward transforms to A: check A·x=b consistency with multiple RHS.
        let n = 48;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(6));
        let f = tiled_lu(a0.clone(), 12, 1);
        let rhs = Matrix::identity(n);
        let ainv_cols = f.solve(&rhs);
        // A * A^{-1} = I.
        let prod = a0.matmul(&ainv_cols);
        let diff = prod.sub_matrix(&Matrix::identity(n));
        assert!(ca_matrix::norm_max(diff.view()) < 1e-8);
    }
}

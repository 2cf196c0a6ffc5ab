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
use ca_matrix::shadow::ElemRect;
use ca_matrix::{Matrix, SharedMatrix};
use ca_sched::{
    AccessMap, BlockTracker, CheckedError, KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta,
};
use std::sync::OnceLock;

/// Per-column rects of the strictly-lower triangle of the `wk × wk`
/// diagonal tile at origin `k0`: the tile-local `L` factor `gessm` reads.
/// Empty for `wk == 1`.
fn l_rects(k0: usize, wk: usize) -> Vec<ElemRect> {
    (0..wk.saturating_sub(1))
        .map(|c| ElemRect::new(k0 + c + 1..k0 + wk, k0 + c..k0 + c + 1))
        .collect()
}

/// Per-column rects of the upper triangle (diagonal included) of the
/// `wk × wk` diagonal tile at origin `k0`: the `U` factor `tstrf`
/// reads and rewrites.
fn u_rects(k0: usize, wk: usize) -> Vec<ElemRect> {
    (0..wk).map(|c| ElemRect::new(k0..k0 + c + 1, k0 + c..k0 + c + 1)).collect()
}

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
            let mut seq = ca_matrix::PivotSeq::new(0);
            for &piv in &self.diag[k].pivots.ipiv {
                seq.push(piv);
            }
            let lkk = self.a.block(k0, k0, wk, wk);
            gessm(&seq, lkk, y.block_mut(k0, 0, wk, p));
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

/// What a tiled-LU task does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names (k/i/j tile coordinates) are the documentation
pub enum TiledLuTask {
    /// GEPP of diagonal tile `k`.
    Getrf { k: usize },
    /// Pivots + `L⁻¹` on tile `(k, j)`.
    Gessm { k: usize, j: usize },
    /// Pairwise elimination of tile `(i, k)` against the diagonal.
    Tstrf { k: usize, i: usize },
    /// Pair update of tiles `(k, j)` and `(i, j)`.
    Ssssm { k: usize, i: usize, j: usize },
}

struct Ctx {
    m: usize,
    n: usize,
    b: usize,
    diag: Vec<OnceLock<LuInfo>>,
    trans: Vec<Vec<OnceLock<TstrfTransform>>>,
}

fn build(m: usize, n: usize, b: usize) -> (TaskGraph<TiledLuTask>, Ctx, AccessMap) {
    let mt = m.div_ceil(b);
    let nt = n.div_ceil(b);
    let kt = m.min(n).div_ceil(b);
    let mut g: TaskGraph<TiledLuTask> = TaskGraph::new();
    // The diagonal tile (k, k) splits element-wise: `gessm` reads only the
    // strictly-lower `L` factor, `tstrf` rewrites only the upper `U`
    // triangle. Declaring those true sub-tile footprints (instead of a
    // phantom grid column standing in for `L`) keeps gessm and tstrf
    // unserialized — the real PLASMA concurrency — while staying inside
    // the matrix geometry, so static verification and checked execution
    // cover this builder.
    let mut tracker = BlockTracker::with_geometry(b, m, n);
    let steps = kt as i64;

    for k in 0..kt {
        let k0 = k * b;
        let wk = b.min(n - k0).min(m - k0);
        let pr = (steps - k as i64) * 1000;

        let meta = TaskMeta::new(TaskLabel::new(TaskKind::Panel, k, k, k), flops::getrf(wk, wk))
            .with_bytes(traffic::getf2(wk, wk))
            .with_priority(pr + 900)
            .with_class(KernelClass::LuBlas2);
        let getrf_id = g.add_task(meta, TiledLuTask::Getrf { k });
        tracker.write(&mut g, getrf_id, k..k + 1, k..k + 1);

        for j in k + 1..nt {
            let wj = b.min(n - j * b);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::URow, k, k, j),
                flops::trsm_left(wk, wj),
            )
            .with_bytes(traffic::trsm_left(wk, wj) + traffic::laswp(wk, wj))
            .with_priority(pr + 500)
            .with_class(KernelClass::Trsm);
            let id = g.add_task(meta, TiledLuTask::Gessm { k, j });
            let lr = l_rects(k0, wk);
            if lr.is_empty() {
                // 1×1 diagonal tile: L is empty, but the pivots still
                // flow from getrf through side storage.
                g.add_dep(getrf_id, id);
            }
            for r in lr {
                tracker.read_rect(&mut g, id, r); // L_kk (strict lower)
            }
            tracker.write(&mut g, id, k..k + 1, j..j + 1);
        }
        for i in k + 1..mt {
            let ri = b.min(m - i * b);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, k, i, k),
                flops::tstrf(ri, wk),
            )
            .with_bytes(traffic::getf2(ri + wk, wk))
            .with_priority(pr + 700)
            .with_class(KernelClass::LuBlas2);
            let id = g.add_task(meta, TiledLuTask::Tstrf { k, i });
            for r in u_rects(k0, wk) {
                tracker.write_rect(&mut g, id, r); // U_kk (upper + diagonal)
            }
            tracker.write(&mut g, id, i..i + 1, k..k + 1);

            for j in k + 1..nt {
                let wj = b.min(n - j * b);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Update, k, i, j),
                    flops::ssssm(ri, wk, wj),
                )
                .with_bytes(traffic::gemm(ri, wj, wk) + traffic::trsm_left(wk, wj))
                .with_priority(pr + 100)
                .with_class(KernelClass::Gemm);
                let id = g.add_task(meta, TiledLuTask::Ssssm { k, i, j });
                tracker.read(&mut g, id, i..i + 1, k..k + 1); // the transform
                tracker.write(&mut g, id, k..k + 1, j..j + 1);
                tracker.write(&mut g, id, i..i + 1, j..j + 1);
            }
        }
    }

    let ctx = Ctx {
        m,
        n,
        b,
        diag: (0..kt).map(|_| OnceLock::new()).collect(),
        trans: (0..kt).map(|k| (k + 1..mt).map(|_| OnceLock::new()).collect()).collect(),
    };
    let access = tracker.into_access_map();
    (g, ctx, access)
}

// DAG executor: every access falls inside the footprint declared in
// build(), which `verify_graph` proves conflict-ordered.
#[allow(clippy::disallowed_methods)]
fn exec(ctx: &Ctx, a: &SharedMatrix, t: TiledLuTask) {
    let m = ctx.m;
    let n = ctx.n;
    let b = ctx.b;
    match t {
        TiledLuTask::Getrf { k } => {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            // SAFETY: exclusive tile access per the DAG.
            let tile = unsafe { a.block_mut(k0, k0, wk, wk) };
            let info = getrf_tile(tile);
            ctx.diag[k].set(info).expect("getrf ran twice");
        }
        TiledLuTask::Gessm { k, j } => {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            let wj = b.min(n - j * b);
            let info = ctx.diag[k].get().expect("diag not ready");
            let mut seq = ca_matrix::PivotSeq::new(0);
            for &p in &info.pivots.ipiv {
                seq.push(p);
            }
            // Lease only the strictly-lower L columns: the upper triangle
            // belongs to tstrf tasks that may run concurrently.
            let lkk = unsafe { a.block_rects(k0, k0, wk, wk, &l_rects(k0, wk)) };
            let tile = unsafe { a.block_mut(k0, j * b, wk, wj) };
            gessm(&seq, lkk, tile);
        }
        TiledLuTask::Tstrf { k, i } => {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            let ri = b.min(m - i * b);
            // Lease only the upper triangle (with diagonal): the strict
            // lower L is concurrently read by gessm tasks.
            let ukk = unsafe { a.block_mut_rects(k0, k0, wk, wk, &u_rects(k0, wk)) };
            let aik = unsafe { a.block_mut(i * b, k0, ri, wk) };
            let tr = tstrf(ukk, aik);
            ctx.trans[k][i - k - 1].set(tr).expect("tstrf ran twice");
        }
        TiledLuTask::Ssssm { k, i, j } => {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            let ri = b.min(m - i * b);
            let wj = b.min(n - j * b);
            let tr = ctx.trans[k][i - k - 1].get().expect("tstrf not ready");
            let akj = unsafe { a.block_mut(k0, j * b, wk, wj) };
            let aij = unsafe { a.block_mut(i * b, j * b, ri, wj) };
            ssssm(tr, akj, aij);
        }
    }
}

/// Tiled LU of a square matrix with tile size `b`, on `threads` workers.
///
/// # Panics
/// If a worker task panics.
pub fn tiled_lu(a: Matrix, b: usize, threads: usize) -> TiledLu {
    run(a, b, threads, false).unwrap_or_else(|e| panic!("{e}"))
}

/// [`tiled_lu`] under the dynamic race detector: every access runs
/// against a shadow registry built from the declared (sub-tile)
/// footprints, catching undeclared touches and overlapping live leases.
///
/// The declarations split tile `(k, k)` element-wise between `gessm`
/// (strict lower) and `tstrf` (upper + diagonal), which run concurrently.
pub fn try_tiled_lu_checked(
    a: Matrix,
    b: usize,
    threads: usize,
) -> Result<TiledLu, CheckedError> {
    run(a, b, threads, true)
}

fn run(a: Matrix, b: usize, threads: usize, checked: bool) -> Result<TiledLu, CheckedError> {
    let (graph, ctx, access) = build(a.nrows(), a.ncols(), b);
    let a = crate::run_tiles(a, threads, checked, &graph, &access, |shared, spec| {
        exec(&ctx, shared, spec)
    })?;

    Ok(TiledLu {
        a,
        b,
        diag: ctx.diag.into_iter().map(|d| d.into_inner().expect("diag missing")).collect(),
        trans: ctx
            .trans
            .into_iter()
            .map(|v| v.into_iter().map(|t| t.into_inner().expect("trans missing")).collect())
            .collect(),
    })
}

/// Task graph of tiled LU for the multicore simulator.
pub fn tiled_lu_task_graph(m: usize, n: usize, b: usize) -> TaskGraph<TiledLuTask> {
    build(m, n, b).0
}

/// [`tiled_lu_task_graph`] plus the builder's retained access
/// declarations, for the static DAG verifier ([`ca_sched::verify_graph`]).
/// The map carries the true sub-tile footprints (the `L` / `U` split of the
/// diagonal tile) that leave gessm and tstrf of one step unordered.
pub fn tiled_lu_task_graph_with_access(
    m: usize,
    n: usize,
    b: usize,
) -> (TaskGraph<TiledLuTask>, AccessMap) {
    let (g, _ctx, access) = build(m, n, b);
    (g, access)
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
    fn parallel_matches_single_thread_bitwise() {
        let n = 64;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(4));
        let f1 = tiled_lu(a0.clone(), 16, 1);
        let f4 = tiled_lu(a0, 16, 4);
        assert_eq!(f1.a.as_slice(), f4.a.as_slice());
        for k in 0..f1.diag.len() {
            assert_eq!(f1.diag[k].pivots.ipiv, f4.diag[k].pivots.ipiv);
        }
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
        let g = tiled_lu_task_graph(n, n, b);
        g.validate();
        let gb = crate::getrf_blocked_task_graph(n, n, b, 8);
        assert!(
            g.critical_path_flops() < gb.critical_path_flops(),
            "tiled critical path should beat blocked's"
        );
    }

    #[test]
    fn task_graph_passes_static_verification() {
        for (m, n, b) in [(96, 96, 16), (60, 60, 16), (128, 64, 32)] {
            let (g, access) = tiled_lu_task_graph_with_access(m, n, b);
            let report = ca_sched::verify_graph(&g, &access)
                .unwrap_or_else(|e| panic!("tiled LU {m}x{n} b={b} unsound: {e}"));
            assert_eq!(report.tasks, g.len());
            assert!(report.conflict_pairs > 0, "expected conflicting pairs to prove ordered");
        }
    }

    #[test]
    fn checked_execution_passes_with_subtile_leases() {
        let n = 64;
        let a0 = ca_matrix::random_uniform(n, n, &mut seeded_rng(7));
        let x_true = ca_matrix::random_uniform(n, 2, &mut seeded_rng(1007));
        let rhs = a0.matmul(&x_true);
        let f = try_tiled_lu_checked(a0.clone(), 16, 4).expect("checked run is clean");
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

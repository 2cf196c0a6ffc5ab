//! PLASMA-style tiled QR — the `PLASMA_dgeqrf` stand-in (Buttari et al.
//! 2009): a flat-tree elimination of tiles below the diagonal, one tile at a
//! time (`geqrt` on the diagonal, then a chain of `tsqrt`/`tsmqr`).
//!
//! Compared to TSQR this has a *longer* panel critical path (the tile chain
//! is sequential) but fully pipelined updates — which is exactly the
//! trade-off the paper's Figure 8 explores (TSQR wins on tall-skinny
//! matrices, PLASMA catches up as `n` grows).

use crate::tile_kernels::{geqrt, tsmqr, tsqrt};
use crate::{lower_rects, upper_rects};
use ca_kernels::{flops, traffic};
use ca_kernels::{larfb_left, trsm_left_upper_notrans, Trans};
use ca_matrix::Matrix;
use ca_sched::{
    run_plan, FactorOptions, KernelClass, Plan, PlanBuilder, TaskKind, TaskLabel, TaskMeta,
};
use std::sync::{Arc, OnceLock};

/// Result of the tiled QR factorization.
pub struct TiledQr {
    /// Factored matrix: `R` in the upper triangle; tile reflectors below.
    pub a: Matrix,
    /// Tile size.
    pub b: usize,
    /// Per-step compact-WY `T` of the diagonal tile.
    pub t_diag: Vec<Matrix>,
    /// Per-step, per-subdiagonal-tile `T` of the `tsqrt` eliminations.
    pub t_ts: Vec<Vec<Matrix>>,
}

impl TiledQr {
    /// The upper factor `R` (`min(m,n) × n`).
    pub fn r(&self) -> Matrix {
        self.a.upper()
    }

    /// Applies `Qᵀ` to `c` in place (replaying the tile eliminations).
    pub fn apply_qt(&self, c: &mut Matrix) {
        let m = self.a.nrows();
        let n = self.a.ncols();
        assert_eq!(c.nrows(), m, "row mismatch with Q");
        let b = self.b;
        let nt = m.min(n).div_ceil(b);
        let p = c.ncols();
        for k in 0..nt {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            // Diagonal tile reflectors.
            let rk = b.min(m - k0);
            let v = self.a.block(k0, k0, rk, wk);
            larfb_left(Trans::Yes, v, self.t_diag[k].view(), c.block_mut(k0, 0, rk, p));
            // Subdiagonal chain.
            for (ii, t) in self.t_ts[k].iter().enumerate() {
                let i0 = (k + 1 + ii) * b;
                let ri = b.min(m - i0);
                let v2 = self.a.block(i0, k0, ri, wk);
                let (top, bottom) = c.view_mut().split_at_row(i0);
                let ctop = top.into_sub(k0, 0, wk, p);
                let cbot = bottom.into_sub(0, 0, ri, p);
                tsmqr(Trans::Yes, v2, t.view(), ctop, cbot);
            }
        }
    }

    /// Applies `Q` to `c` in place.
    pub fn apply_q(&self, c: &mut Matrix) {
        let m = self.a.nrows();
        let n = self.a.ncols();
        assert_eq!(c.nrows(), m, "row mismatch with Q");
        let b = self.b;
        let nt = m.min(n).div_ceil(b);
        let p = c.ncols();
        for k in (0..nt).rev() {
            let k0 = k * b;
            let wk = b.min(n - k0).min(m - k0);
            let rk = b.min(m - k0);
            for (ii, t) in self.t_ts[k].iter().enumerate().rev() {
                let i0 = (k + 1 + ii) * b;
                let ri = b.min(m - i0);
                let v2 = self.a.block(i0, k0, ri, wk);
                let (top, bottom) = c.view_mut().split_at_row(i0);
                let ctop = top.into_sub(k0, 0, wk, p);
                let cbot = bottom.into_sub(0, 0, ri, p);
                tsmqr(Trans::No, v2, t.view(), ctop, cbot);
            }
            let v = self.a.block(k0, k0, rk, wk);
            larfb_left(Trans::No, v, self.t_diag[k].view(), c.block_mut(k0, 0, rk, p));
        }
    }

    /// Thin explicit `Q` (`m × min(m,n)`).
    pub fn q_thin(&self) -> Matrix {
        let m = self.a.nrows();
        let k = m.min(self.a.ncols());
        let mut q = Matrix::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = 1.0;
        }
        self.apply_q(&mut q);
        q
    }

    /// Relative residual against the original matrix.
    pub fn residual(&self, a0: &Matrix) -> f64 {
        ca_matrix::qr_residual(a0, &self.q_thin(), &self.r())
    }

    /// Least-squares solve for tall full-rank `A`.
    pub fn solve_ls(&self, rhs: &Matrix) -> Matrix {
        let m = self.a.nrows();
        let n = self.a.ncols();
        assert!(m >= n);
        let mut qtb = rhs.clone();
        self.apply_qt(&mut qtb);
        let mut x = Matrix::from_fn(n, rhs.ncols(), |i, j| qtb[(i, j)]);
        let rmat = Matrix::from_fn(n, n, |i, j| if i <= j { self.a[(i, j)] } else { 0.0 });
        trsm_left_upper_notrans(rmat.view(), x.view_mut());
        x
    }
}

/// What the tasks of a tiled-QR plan leave behind: the [`TiledQr`] fields,
/// one slot per task that fills them.
pub struct TiledQrSlots {
    b: usize,
    t_diag: Vec<OnceLock<Matrix>>,
    t_ts: Vec<Vec<OnceLock<Matrix>>>,
}

/// Builder of the task DAG of tiled QR: what [`tiled_qr`] runs and what the
/// simulator costs as `PLASMA_dgeqrf`. Its footprints split the diagonal
/// tile between `ormqr` (strict lower `V`) and the `tsqrt` chain (upper
/// `R`), which leaves the two unordered within a step.
pub struct TiledQrPlan;

impl TiledQrPlan {
    /// Plan for a tall or square `m × n` matrix cut into `b × b` tiles.
    // Task bodies: every access falls inside the footprint declared right
    // after the body, which `verify_graph` proves conflict-ordered.
    #[allow(clippy::disallowed_methods)]
    pub fn build(m: usize, n: usize, b: usize) -> Plan<f64, TiledQrSlots, TiledQr> {
        assert!(m >= n, "tiled QR implemented for tall or square matrices");
        let mt = m.div_ceil(b);
        let nt = n.div_ceil(b);
        let kt = m.min(n).div_ceil(b);
        // Element geometry lets the diagonal tile split into the strictly-lower
        // reflector trapezoid `V` (read by `ormqr`) and the upper `R` triangle
        // (rewritten by the `tsqrt` chain) — the two are disjoint, so `ormqr`
        // and `tsqrt` of the same step run concurrently.
        let mut pb = PlanBuilder::<f64, TiledQrSlots>::new(b, m, n);
        let steps = kt as i64;

        for k in 0..kt {
            let k0 = k * b;
            let wk = b.min(n - k0);
            let rk = b.min(m - k0);
            let kv = wk.min(rk);
            let pr = (steps - k as i64) * 1000;
            // What `ormqr` leases of the diagonal tile, and what `tsqrt` does.
            let lower = lower_rects(k0, rk, kv);
            let upper = upper_rects(k0, wk);

            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Panel, k, k, k), flops::geqrf(rk, wk))
                .with_bytes(traffic::geqr3(rk, wk))
                .with_priority(pr + 900)
                .with_class(KernelClass::QrBlas2);
            let geqrt_id = pb.task(meta, move |a, s| {
                // SAFETY: exclusive tile access per the DAG.
                let tile = unsafe { a.block_mut(k0, k0, rk, wk) };
                let mut t_out = Matrix::zeros(kv, kv);
                geqrt(tile, t_out.view_mut());
                s.t_diag[k].set(t_out).expect("geqrt ran twice");
            });
            pb.writes(geqrt_id, k..k + 1, k..k + 1);

            for j in k + 1..nt {
                let (j0, wj) = (j * b, b.min(n - j * b));
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::URow, k, k, j),
                    flops::larfb(rk, wj, wk),
                )
                .with_bytes(traffic::larfb(rk, wj, wk))
                .with_priority(pr + 500)
                .with_class(KernelClass::Larfb);
                let vr = Arc::clone(&lower);
                let id = pb.task(meta, move |a, s| {
                    let t_kk = s.t_diag[k].get().expect("T_kk not ready");
                    // SAFETY: leases only the strictly-lower `V` columns —
                    // `larfb_left` treats the upper triangle as an implicit
                    // unit diagonal and never touches it, so the concurrent
                    // `tsqrt` chain owns it; tile (k, j) is this task's.
                    let v = unsafe { a.block_rects(k0, k0, rk, kv, &vr) };
                    let c = unsafe { a.block_mut(k0, j0, rk, wj) };
                    larfb_left(Trans::Yes, v, t_kk.view(), c);
                });
                if lower.is_empty() {
                    // Degenerate 1-row panel: no reflectors below the diagonal,
                    // but `ormqr` still consumes `T_kk` — keep the side-channel
                    // ordering explicit.
                    pb.graph.add_dep(geqrt_id, id);
                }
                for &r in lower.iter() {
                    pb.reads_rect(id, r);
                }
                pb.writes(id, k..k + 1, j..j + 1);
            }
            for i in k + 1..mt {
                let (i0, ri) = (i * b, b.min(m - i * b));
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, k, i, k),
                    flops::tsqrt(ri, wk),
                )
                .with_bytes(traffic::gemm(ri, wk, wk))
                .with_priority(pr + 700)
                .with_class(KernelClass::QrBlas2);
                let ur = Arc::clone(&upper);
                let id = pb.task(meta, move |a, s| {
                    // SAFETY: leases only the upper `R` triangle, which the
                    // `tsqrt` chain owns; tile (i, k) is this task's.
                    let r_kk = unsafe { a.block_mut_rects(k0, k0, wk, wk, &ur) };
                    let a_ik = unsafe { a.block_mut(i0, k0, ri, wk) };
                    let mut t_out = Matrix::zeros(wk, wk);
                    tsqrt(r_kk, a_ik, t_out.view_mut());
                    s.t_ts[k][i - k - 1].set(t_out).expect("tsqrt ran twice");
                });
                for &r in upper.iter() {
                    pb.writes_rect(id, r);
                }
                pb.writes(id, i..i + 1, k..k + 1);

                for j in k + 1..nt {
                    let (j0, wj) = (j * b, b.min(n - j * b));
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, k, i, j),
                        flops::tsmqr(ri, wk, wj),
                    )
                    .with_bytes(traffic::larfb_node(ri * wk, ri + wk, wj, wk))
                    .with_priority(pr + 100)
                    .with_class(KernelClass::Larfb);
                    let id = pb.task(meta, move |a, s| {
                        let t_ik = s.t_ts[k][i - k - 1].get().expect("T_ik not ready");
                        // SAFETY: reads the finished reflectors of tile
                        // (i, k); the tile pair is this task's per the DAG.
                        let v2 = unsafe { a.block(i0, k0, ri, wk) };
                        let c_top = unsafe { a.block_mut(k0, j0, wk, wj) };
                        let c_bot = unsafe { a.block_mut(i0, j0, ri, wj) };
                        tsmqr(Trans::Yes, v2, t_ik.view(), c_top, c_bot);
                    });
                    pb.reads(id, i..i + 1, k..k + 1);
                    pb.writes(id, k..k + 1, j..j + 1);
                    pb.writes(id, i..i + 1, j..j + 1);
                }
            }
        }

        let slots = TiledQrSlots {
            b,
            t_diag: (0..kt).map(|_| OnceLock::new()).collect(),
            t_ts: (0..kt).map(|k| (k + 1..mt).map(|_| OnceLock::new()).collect()).collect(),
        };
        pb.finish(slots, |a, s| TiledQr {
            a,
            b: s.b,
            t_diag: s.t_diag.into_iter().map(|t| t.into_inner().expect("T missing")).collect(),
            t_ts: s
                .t_ts
                .into_iter()
                .map(|v| v.into_iter().map(|t| t.into_inner().expect("T missing")).collect())
                .collect(),
        })
    }
}

/// Tiled QR of a tall or square matrix with tile size `b`, on `threads`
/// workers.
///
/// # Panics
/// If a worker task panics.
pub fn tiled_qr(a: Matrix, b: usize, threads: usize) -> TiledQr {
    let plan = TiledQrPlan::build(a.nrows(), a.ncols(), b);
    run_plan(plan, a, threads, &FactorOptions::default()).unwrap_or_else(|e| panic!("{e}")).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::seeded_rng;

    fn check(m: usize, n: usize, b: usize, threads: usize, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let f = tiled_qr(a0.clone(), b, threads);
        let scale = 1e-11 * (m.max(n) as f64);
        let res = f.residual(&a0);
        assert!(res < scale, "residual {res} for {m}x{n} b={b} t={threads}");
        let orth = ca_matrix::orthogonality(&f.q_thin());
        assert!(orth < scale, "orthogonality {orth} for {m}x{n} b={b}");
    }

    #[test]
    fn tiled_qr_square() {
        check(48, 48, 12, 1, 1);
        check(60, 60, 16, 1, 2); // ragged
    }

    #[test]
    fn tiled_qr_tall() {
        check(120, 36, 12, 1, 3);
        check(100, 30, 16, 1, 4); // ragged both ways
    }

    #[test]
    fn parallel_matches_single_thread_bitwise() {
        let a0 = ca_matrix::random_uniform(80, 48, &mut seeded_rng(5));
        let f1 = tiled_qr(a0.clone(), 16, 1);
        let f4 = tiled_qr(a0, 16, 4);
        assert_eq!(f1.a.as_slice(), f4.a.as_slice());
    }

    #[test]
    fn least_squares() {
        let m = 90;
        let n = 24;
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(6));
        let x_true = ca_matrix::random_uniform(n, 2, &mut seeded_rng(7));
        let rhs = a0.matmul(&x_true);
        let f = tiled_qr(a0, 12, 2);
        let x = f.solve_ls(&rhs);
        let err = ca_matrix::norm_max(x.sub_matrix(&x_true).view());
        assert!(err < 1e-9, "LS error {err}");
    }

    #[test]
    fn task_graph_passes_static_verification() {
        for (m, n, b) in [(96, 96, 16), (120, 36, 12), (100, 30, 16)] {
            let plan = TiledQrPlan::build(m, n, b);
            let report = ca_sched::verify_graph(plan.graph(), plan.access())
                .unwrap_or_else(|e| panic!("tiled QR {m}x{n} b={b} unsound: {e}"));
            assert_eq!(report.tasks, plan.graph().len());
            assert!(report.conflict_pairs > 0, "expected conflicting pairs to prove ordered");
        }
    }

    #[test]
    fn checked_execution_passes_with_subtile_leases() {
        let a0 = ca_matrix::random_uniform(80, 48, &mut seeded_rng(9));
        let checked = FactorOptions { checked: true, ..Default::default() };
        let (f, _) = run_plan(TiledQrPlan::build(80, 48, 16), a0.clone(), 4, &checked)
            .expect("checked tiled QR");
        let res = f.residual(&a0);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn task_graph_valid_and_panel_chain_longer_than_tsqr() {
        // Tiled QR's panel is a sequential tile chain: its critical path
        // exceeds the binary-tree TSQR DAG's for a tall-skinny matrix.
        let plan = TiledQrPlan::build(1600, 100, 100);
        plan.graph().validate();
        let p = ca_core::CaParams::new(100, 8, 8);
        let gq = ca_core::caqr_task_graph(1600, 100, &p);
        assert!(plan.graph().critical_path_flops() > gq.critical_path_flops());
    }
}

//! Uniform access to every contender in the paper's evaluation, in both
//! modes: *simulated* (task graph replayed on the virtual machine) and
//! *measured* (real factorization timed on this host).

use crate::model::MachineModel;
use ca_core::{CaParams, TreeShape};
use ca_kernels::flops;
use ca_matrix::{seeded_rng, Matrix};
use ca_baselines::{tiled_qr_plan, BlockedLuPlan, BlockedQrPlan, TiledLuPlan};
use ca_sched::{KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta};
use std::hint::black_box;
use std::time::Instant;

/// A factorization algorithm with its tuning parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Multithreaded CALU (the paper's contribution).
    Calu {
        /// Panel width.
        b: usize,
        /// Panel tasks.
        tr: usize,
        /// Reduction tree.
        tree: TreeShape,
    },
    /// LAPACK-style blocked LU — the `MKL_dgetrf`/`ACML_dgetrf` stand-in.
    BlockedLu {
        /// Panel width.
        nb: usize,
    },
    /// Pure BLAS2 LU (`MKL_dgetf2`).
    Blas2Lu,
    /// PLASMA-style tiled LU with incremental pivoting (`PLASMA_dgetrf`).
    TiledLu {
        /// Tile size.
        b: usize,
    },
    /// Multithreaded CAQR.
    Caqr {
        /// Panel width.
        b: usize,
        /// Panel tasks.
        tr: usize,
        /// Reduction tree.
        tree: TreeShape,
    },
    /// Standalone TSQR (single panel of width `n`).
    Tsqr {
        /// Panel tasks.
        tr: usize,
        /// Reduction tree.
        tree: TreeShape,
    },
    /// LAPACK-style blocked QR (`MKL_dgeqrf`).
    BlockedQr {
        /// Panel width.
        nb: usize,
    },
    /// Pure BLAS2 QR (`MKL_dgeqr2`).
    Blas2Qr,
    /// PLASMA-style tiled QR (`PLASMA_dgeqrf`).
    TiledQr {
        /// Tile size.
        b: usize,
    },
}

impl Algo {
    /// `true` for LU-family algorithms (affects the useful-flop count).
    pub fn is_lu(&self) -> bool {
        matches!(
            self,
            Algo::Calu { .. } | Algo::BlockedLu { .. } | Algo::Blas2Lu | Algo::TiledLu { .. }
        )
    }

    /// Useful flops for the GFlop/s convention (LAPACK counts, as in the
    /// paper — redundant CA/tiled flops are *not* credited).
    pub fn useful_flops(&self, m: usize, n: usize) -> f64 {
        if self.is_lu() {
            flops::getrf(m, n.min(m))
        } else {
            flops::geqrf(m, n.min(m))
        }
    }

    /// The parameters this variant runs with on `n` columns: its block
    /// width capped at `n` (TSQR's is `n` itself), its `Tr` and tree. The
    /// baselines read only the width.
    fn params(&self, n: usize, workers: usize) -> CaParams {
        let n = n.max(1);
        let (b, tr, tree) = match *self {
            Algo::Calu { b, tr, tree } | Algo::Caqr { b, tr, tree } => (b, tr, tree),
            Algo::Tsqr { tr, tree } => (n, tr, tree),
            Algo::BlockedLu { nb: b }
            | Algo::BlockedQr { nb: b }
            | Algo::TiledLu { b }
            | Algo::TiledQr { b } => (b, 1, TreeShape::Binary),
            Algo::Blas2Lu | Algo::Blas2Qr => (n, 1, TreeShape::Binary),
        };
        let mut p = CaParams::new(b.min(n), tr, workers);
        p.tree = tree;
        p
    }

    /// Builds the algorithm's task graph for the simulator: the graph
    /// [`Algo::run_once`] executes on `cores` workers (which sets the strip
    /// count of the vendor baselines' parallel updates), from the same
    /// builder.
    pub fn task_graph(&self, m: usize, n: usize, cores: usize) -> TaskGraph<()> {
        let p = self.params(n, cores);
        match *self {
            Algo::Calu { .. } => ca_core::calu_task_graph(m, n, &p),
            Algo::Caqr { .. } | Algo::Tsqr { .. } => ca_core::caqr_task_graph(m, n, &p),
            Algo::BlockedLu { .. } => BlockedLuPlan::build(m, n, p.b, cores).into_parts().0,
            Algo::BlockedQr { .. } => BlockedQrPlan::build(m, n, p.b, cores).into_parts().0,
            Algo::TiledLu { .. } => TiledLuPlan::build(m, n, p.b).into_parts().0,
            Algo::TiledQr { .. } => tiled_qr_plan::<f64>(m, n, p.b).into_parts().0,
            Algo::Blas2Lu => single_task_graph(
                flops::getrf(m, n.min(m)),
                ca_kernels::traffic::getf2(m, n.min(m)),
                KernelClass::LuBlas2,
            ),
            Algo::Blas2Qr => single_task_graph(
                flops::geqrf(m, n.min(m)),
                ca_kernels::traffic::geqr2(m, n.min(m)),
                KernelClass::QrBlas2,
            ),
        }
    }

    /// Simulated GFlop/s on `machine`.
    pub fn sim_gflops(&self, m: usize, n: usize, machine: &MachineModel) -> f64 {
        let g = self.task_graph(m, n, machine.cores);
        machine.gflops(&g, self.useful_flops(m, n))
    }

    /// Wall-clock run on this host with `threads` workers; returns GFlop/s.
    pub fn measured_gflops(&self, m: usize, n: usize, threads: usize, seed: u64) -> f64 {
        let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let useful = self.useful_flops(m, n);
        let secs = self.run_once(a, threads);
        useful / secs / 1e9
    }

    /// Runs the real factorization once, returning elapsed seconds.
    pub fn run_once(&self, mut a: Matrix, threads: usize) -> f64 {
        let p = self.params(a.ncols(), threads);
        let t0 = Instant::now();
        match *self {
            Algo::Calu { .. } => drop(black_box(ca_core::calu(a, &p))),
            Algo::Caqr { .. } | Algo::Tsqr { .. } => drop(black_box(ca_core::caqr(a, &p))),
            Algo::BlockedLu { .. } => drop(black_box(ca_baselines::getrf_blocked(&mut a, p.b, threads))),
            Algo::BlockedQr { .. } => drop(black_box(ca_baselines::geqrf_blocked(&mut a, p.b, threads))),
            Algo::TiledLu { .. } => drop(black_box(ca_baselines::tiled_lu(a, p.b, threads))),
            Algo::TiledQr { .. } => drop(black_box(ca_baselines::tiled_qr(a, p.b, threads))),
            Algo::Blas2Lu => drop(black_box(ca_kernels::getf2(a.view_mut()))),
            Algo::Blas2Qr => {
                let mut tau = Vec::new();
                ca_kernels::geqr2(a.view_mut(), &mut tau);
                black_box(tau.len());
            }
        }
        t0.elapsed().as_secs_f64()
    }
}

fn single_task_graph(fl: f64, bytes: f64, class: KernelClass) -> TaskGraph<()> {
    let mut g = TaskGraph::new();
    g.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), fl)
            .with_bytes(bytes)
            .with_class(class),
        (),
    );
    g
}

/// The paper's tall-and-skinny `b = min(n, 100)` convention.
pub fn paper_b(n: usize) -> usize {
    n.clamp(1, 100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::Calibration;

    #[test]
    fn all_lu_graphs_build_and_validate() {
        for algo in [
            Algo::Calu { b: 50, tr: 4, tree: TreeShape::Binary },
            Algo::BlockedLu { nb: 32 },
            Algo::Blas2Lu,
            Algo::TiledLu { b: 50 },
        ] {
            let g = algo.task_graph(500, 200, 8);
            g.validate();
            assert!(g.total_flops() > 0.0, "{algo:?}");
        }
    }

    #[test]
    fn all_qr_graphs_build_and_validate() {
        for algo in [
            Algo::Caqr { b: 50, tr: 4, tree: TreeShape::Flat },
            Algo::Tsqr { tr: 4, tree: TreeShape::Binary },
            Algo::BlockedQr { nb: 32 },
            Algo::Blas2Qr,
            Algo::TiledQr { b: 50 },
        ] {
            let g = algo.task_graph(500, 200, 8);
            g.validate();
            assert!(g.total_flops() > 0.0, "{algo:?}");
        }
    }

    #[test]
    fn sim_gflops_positive_and_bounded() {
        let machine = MachineModel::new(8, Calibration::reference());
        for algo in [
            Algo::Calu { b: 100, tr: 8, tree: TreeShape::Binary },
            Algo::BlockedLu { nb: 64 },
            Algo::Blas2Lu,
        ] {
            let gf = algo.sim_gflops(10_000, 100, &machine);
            assert!(gf > 0.0 && gf < 8.0 * 5.0, "{algo:?}: {gf}");
        }
    }

    #[test]
    fn measured_mode_runs_small_cases() {
        for algo in [
            Algo::Calu { b: 16, tr: 2, tree: TreeShape::Binary },
            Algo::BlockedLu { nb: 16 },
            Algo::TiledLu { b: 16 },
            Algo::Caqr { b: 16, tr: 2, tree: TreeShape::Flat },
            Algo::TiledQr { b: 16 },
        ] {
            let gf = algo.measured_gflops(64, 48, 2, 42);
            assert!(gf > 0.0, "{algo:?}");
        }
    }
}

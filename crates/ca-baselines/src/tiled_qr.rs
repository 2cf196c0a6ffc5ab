//! PLASMA-style tiled QR — the `PLASMA_dgeqrf` stand-in (Buttari et al.,
//! arXiv 0707.3548) — as CAQR's own plan over PLASMA's elimination list
//! (Dongarra et al., arXiv 1110.1553): one-tile row groups, a leaf QR on
//! the diagonal tile only, then a flat chain of triangle-on-square
//! eliminations down the panel ([`ca_core::tsqr::ts_chain`]), each trailing
//! tile pair updated as soon as its elimination is done.
//!
//! Compared to TSQR this has a *longer* panel critical path (the tile chain
//! is sequential) but fully pipelined updates — which is exactly the
//! trade-off the paper's Figure 8 explores (TSQR wins on tall-skinny
//! matrices, PLASMA catches up as `n` grows). The footprints are CAQR's
//! block footprints, so a step's chain starts once the diagonal tile's
//! reflectors have updated its row (PLASMA overlaps the two by splitting
//! the diagonal tile into `V` and `R`).

use ca_core::tsqr::ts_chain;
use ca_core::{CaParams, CaqrPlan, QrFactors};
use ca_kernels::Kernel;
use ca_matrix::Matrix;
use ca_sched::{run_plan, FactorOptions, Plan};

/// The task DAG of tiled QR of an `m × n` matrix cut into `b × b` tiles:
/// what [`tiled_qr`] runs and what the simulator costs as `PLASMA_dgeqrf`.
pub fn tiled_qr_plan<T: Kernel>(m: usize, n: usize, b: usize) -> Plan<T, QrFactors<T>> {
    // `Tr` = the tile rows of the first panel: one tile per group at every step.
    let p = CaParams::new(b, m.div_ceil(b).max(1), 1);
    CaqrPlan::build_with(m, n, &p, ts_chain)
}

/// Tiled QR with tile size `b`, on `threads` workers.
///
/// # Panics
/// If a worker task panics.
pub fn tiled_qr<T: Kernel>(a: Matrix<T>, b: usize, threads: usize) -> QrFactors<T> {
    let plan = tiled_qr_plan(a.nrows(), a.ncols(), b);
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
        let orth = f.orthogonality();
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
        for (m, n, b) in [(96, 96, 16), (120, 36, 12), (100, 30, 16), (30, 100, 16)] {
            let plan = tiled_qr_plan::<f64>(m, n, b);
            let report = ca_sched::verify_graph(plan.graph(), plan.access())
                .unwrap_or_else(|e| panic!("tiled QR {m}x{n} b={b} unsound: {e}"));
            assert_eq!(report.tasks, plan.graph().len());
            assert!(report.conflict_pairs > 0, "expected conflicting pairs to prove ordered");
        }
    }

    #[test]
    fn checked_execution_runs_clean() {
        let a0 = ca_matrix::random_uniform(80, 48, &mut seeded_rng(9));
        let checked = FactorOptions { checked: true, ..Default::default() };
        let (f, _) = run_plan(tiled_qr_plan(80, 48, 16), a0.clone(), 4, &checked).expect("checked tiled QR");
        let res = f.residual(&a0);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn task_graph_valid_and_panel_chain_longer_than_tsqr() {
        // Tiled QR's panel is a sequential tile chain: its critical path
        // exceeds the binary-tree TSQR DAG's for a tall-skinny matrix.
        let plan = tiled_qr_plan::<f64>(1600, 100, 100);
        plan.graph().validate();
        let p = CaParams::new(100, 8, 8);
        let gq = ca_core::caqr_task_graph(1600, 100, &p);
        assert!(plan.graph().critical_path_flops() > gq.critical_path_flops());
    }
}

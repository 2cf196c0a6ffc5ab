//! An independent bitwise reference for the four baselines: the same
//! kernels in program order on a plain `Matrix` — no graph, no scheduler,
//! no strips — must produce the bits `run_plan` produces from the plans, at
//! one worker and at four, on the shapes `tests/soundness.rs` pins.

use ca_factor::baselines::tile_kernels::{gessm, getrf_tile, ssssm, tstrf};
use ca_factor::baselines::{tiled_qr_plan, BlockedLuPlan, BlockedQrPlan, TiledLuPlan};
use ca_factor::core::tsqr::{eliminate, leaf_qr, node_apply_rows, NodePlan};
use ca_factor::kernels::{
    gemm, geqr2, getf2, larfb_left, larft, trsm_left_lower_unit, Trans, VRest,
};
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::sched::{run_plan, FactorOptions};
use ca_factor::Matrix;

const WORKERS: [usize; 2] = [1, 4];

/// Tiled LU as a loop nest over the tile kernels; returns the tile-local
/// pivots of each diagonal tile.
fn tiled_lu_reference(a: &mut Matrix, b: usize) -> Vec<Vec<usize>> {
    let (m, n) = (a.nrows(), a.ncols());
    let (mt, nt) = (m.div_ceil(b), n.div_ceil(b));
    let mut diag = Vec::new();
    for k in 0..m.min(n).div_ceil(b) {
        let k0 = k * b;
        let wk = b.min(n - k0).min(m - k0);
        let info = getrf_tile(a.block_mut(k0, k0, wk, wk));
        for j in k + 1..nt {
            let (left, right) = a.view_mut().split_at_col(j * b);
            let wj = b.min(right.ncols());
            gessm(&info.pivots, left.as_ref().sub(k0, k0, wk, wk), right.into_sub(k0, 0, wk, wj));
        }
        for i in k + 1..mt {
            let ri = b.min(m - i * b);
            let (top, bottom) = a.view_mut().split_at_row(i * b);
            let tr = tstrf(top.into_sub(k0, k0, wk, wk), bottom.into_sub(0, k0, ri, wk));
            for j in k + 1..nt {
                let wj = b.min(n - j * b);
                let (top, bottom) = a.view_mut().split_at_row(i * b);
                ssssm(&tr, top.into_sub(k0, j * b, wk, wj), bottom.into_sub(0, j * b, ri, wj));
            }
        }
        diag.push(info.pivots.ipiv);
    }
    diag
}

/// Tiled QR as a loop nest over CAQR's kernels: per step, the diagonal
/// tile's leaf QR applied along its tile row, then one triangle-on-square
/// elimination per tile below it, each applied along its tile pair.
fn tiled_qr_reference(mut a: Matrix, b: usize) -> Matrix {
    let (m, n) = (a.nrows(), a.ncols());
    let tiles = |from: usize, to: usize| (from..to).step_by(b).map(move |t0| t0..(t0 + b).min(to));
    for k0 in (0..m.min(n)).step_by(b) {
        let w = b.min(n - k0);
        let diag = k0..(k0 + b).min(m);
        let leaf = leaf_qr(a.block_mut(k0, k0, diag.len(), w), diag.clone());
        for cols in tiles(k0 + w, n) {
            let (left, right) = a.view_mut().split_at_col(cols.start);
            let v = left.as_ref().sub(k0, k0, diag.len(), leaf.kv);
            larfb_left(Trans::Yes, v, leaf.t.view(), right.into_sub(k0, 0, diag.len(), cols.len()));
        }
        for (i, rows) in tiles(k0 + b, m).enumerate() {
            let (participants, row_ranges) = (vec![0, i + 1], vec![k0..k0 + w, rows]);
            let plan = NodePlan { level: i + 1, participants, row_ranges, kk: w };
            let mut parts = a.block_mut(0, k0, m, w).split_rows(&plan.row_ranges);
            let (top, below) = parts.split_at_mut(1);
            let node = eliminate(top[0].rb(), &[below[0].as_ref()], &plan, VRest::Dense);
            for cols in tiles(k0 + w, n) {
                let mut parts = a.block_mut(0, cols.start, m, cols.len()).split_rows(&node.row_ranges);
                node_apply_rows(&node, &mut parts, Trans::Yes);
            }
        }
    }
    a
}

/// LAPACK `dgetrf`, one `dtrsm` and one `dgemm` per step over the whole
/// trailing matrix; returns the global interchanges.
fn blocked_lu_reference(a: &mut Matrix, nb: usize) -> Vec<usize> {
    let (m, n) = (a.nrows(), a.ncols());
    let kmax = m.min(n);
    let mut ipiv = Vec::new();
    for k0 in (0..kmax).step_by(nb) {
        let w = nb.min(kmax - k0);
        let info = getf2(a.block_mut(k0, k0, m - k0, w));
        ipiv.extend(info.pivots.ipiv.iter().map(|&r| r + k0));
        info.pivots.apply(a.block_mut(k0, 0, m - k0, k0));
        let (left, mut right) = a.view_mut().split_at_col(k0 + w);
        let nr = right.ncols();
        if nr == 0 {
            continue;
        }
        info.pivots.apply(right.sub(k0, 0, m - k0, nr));
        let (top, below) = right.split_at_row(k0 + w);
        let mut urow = top.into_sub(k0, 0, w, nr);
        trsm_left_lower_unit(left.as_ref().sub(k0, k0, w, w), urow.rb());
        if k0 + w < m {
            let l = left.as_ref().sub(k0 + w, k0, m - k0 - w, w);
            gemm(Trans::No, Trans::No, -1.0, l, urow.as_ref(), 1.0, below);
        }
    }
    ipiv
}

/// LAPACK `dgeqrf`, one `dlarfb` per step over the whole trailing matrix;
/// returns each panel's `T`.
fn blocked_qr_reference(a: &mut Matrix, nb: usize) -> Vec<Matrix> {
    let (m, n) = (a.nrows(), a.ncols());
    let kmax = m.min(n);
    let mut ts = Vec::new();
    for k0 in (0..kmax).step_by(nb) {
        let w = nb.min(kmax - k0);
        let (left, right) = a.view_mut().split_at_col(k0 + w);
        let mut panel = left.into_sub(k0, k0, m - k0, w);
        let mut tau = Vec::new();
        geqr2(panel.rb(), &mut tau);
        let kv = tau.len();
        let mut t = Matrix::zeros(kv, kv);
        larft(panel.as_ref().sub(0, 0, m - k0, kv), &tau, t.view_mut());
        let nr = right.ncols();
        if nr > 0 {
            let v = panel.as_ref().sub(0, 0, m - k0, kv);
            larfb_left(Trans::Yes, v, t.view(), right.into_sub(k0, 0, m - k0, nr));
        }
        ts.push(t);
    }
    ts
}

#[test]
fn tiled_plans_match_the_program_order_loop_nest_bitwise() {
    for (m, n, b) in [(96usize, 96usize, 16usize), (750, 333, 100), (384, 256, 32)] {
        let a0 = random_uniform(m, n, &mut seeded_rng(0xBA5E + m as u64));

        let mut lu = a0.clone();
        let diag = tiled_lu_reference(&mut lu, b);
        let qr = tiled_qr_reference(a0.clone(), b);
        for w in WORKERS {
            let (f, _) = run_plan(TiledLuPlan::build(m, n, b), a0.clone(), w, &FactorOptions::default())
                .unwrap_or_else(|e| panic!("tiled LU {m}x{n}: {e}"));
            assert_eq!(f.a.as_slice(), lu.as_slice(), "tiled LU {m}x{n} b={b} workers={w}");
            let got: Vec<_> = f.diag.iter().map(|d| d.pivots.ipiv.clone()).collect();
            assert_eq!(got, diag, "tiled LU {m}x{n} b={b} workers={w}: pivots");

            let (f, _) = run_plan(tiled_qr_plan(m, n, b), a0.clone(), w, &FactorOptions::default())
                .unwrap_or_else(|e| panic!("tiled QR {m}x{n}: {e}"));
            assert_eq!(f.a.as_slice(), qr.as_slice(), "tiled QR {m}x{n} b={b} workers={w}");
        }
    }
    // Tiled QR takes wide input too.
    let a0 = random_uniform(130, 300, &mut seeded_rng(0xBA5E));
    let qr = tiled_qr_reference(a0.clone(), 48);
    for w in WORKERS {
        let (f, _) = run_plan(tiled_qr_plan(130, 300, 48), a0.clone(), w, &FactorOptions::default())
            .unwrap_or_else(|e| panic!("tiled QR 130x300: {e}"));
        assert_eq!(f.a.as_slice(), qr.as_slice(), "tiled QR 130x300 b=48 workers={w}");
    }
}

#[test]
fn blocked_plans_match_the_unstripped_loop_bitwise() {
    for (m, n, nb, strips) in [(1000usize, 1000usize, 100usize, 8usize), (750, 333, 100, 4), (4000, 400, 50, 16)] {
        let a0 = random_uniform(m, n, &mut seeded_rng(0xB10C + m as u64));

        let mut lu = a0.clone();
        let ipiv = blocked_lu_reference(&mut lu, nb);
        let mut qr = a0.clone();
        let ts = blocked_qr_reference(&mut qr, nb);
        for w in WORKERS {
            let plan = BlockedLuPlan::build(m, n, nb, strips);
            let ((a, f), _) = run_plan(plan, a0.clone(), w, &FactorOptions::default())
                .unwrap_or_else(|e| panic!("blocked LU {m}x{n}: {e}"));
            assert_eq!(a.as_slice(), lu.as_slice(), "blocked LU {m}x{n} nb={nb} workers={w}");
            assert_eq!(f.pivots.ipiv, ipiv, "blocked LU {m}x{n} nb={nb} workers={w}: pivots");

            let plan = BlockedQrPlan::build(m, n, nb, strips);
            let ((a, f), _) = run_plan(plan, a0.clone(), w, &FactorOptions::default())
                .unwrap_or_else(|e| panic!("blocked QR {m}x{n}: {e}"));
            assert_eq!(a.as_slice(), qr.as_slice(), "blocked QR {m}x{n} nb={nb} workers={w}");
            for ((_, _, t), t_ref) in f.panels.iter().zip(&ts) {
                assert_eq!(t.as_slice(), t_ref.as_slice(), "blocked QR {m}x{n} nb={nb} workers={w}: T");
            }
        }
    }
}

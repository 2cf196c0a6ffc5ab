//! The rows of the experiment table that are not a figure or a table of
//! the paper: the host calibration they all rest on, the §II stability and
//! communication claims, and the ablations of DESIGN.md §6.

use crate::comm::{full_lu, gepp_panel, tslu_panel, tsqr_panel};
use crate::figures::Run;
use crate::model::MachineModel;
use crate::report::save;
use ca_core::{calu_seq_factor, calu_task_graph, caqr_task_graph, CaParams, TreeShape};
use ca_matrix::{growth_factor, seeded_rng, Matrix};
use ca_sched::KernelClass;
use std::io;

/// Prints the single-thread throughput of every kernel class (the anchors
/// of the simulated figures), stream bandwidth and the recursive-vs-BLAS2
/// panel advantage that underpins TSLU/TSQR ("the best available sequential
/// algorithm", paper §II); writes `calibration.json`.
pub fn calibration(run: &Run) -> io::Result<()> {
    let c = run.calib();
    let rate = |k| c.flops_per_sec(k);
    for (k, name) in [
        (KernelClass::Gemm, "gemm (trailing update)"),
        (KernelClass::Trsm, "trsm (task L)"),
        (KernelClass::Larfb, "larfb (QR update)"),
        (KernelClass::LuBlas2, "dgetf2 (BLAS2 LU panel)"),
        (KernelClass::LuRecursive, "rgetf2 (recursive LU panel)"),
        (KernelClass::QrBlas2, "dgeqr2 (BLAS2 QR panel)"),
        (KernelClass::QrRecursive, "dgeqr3 (recursive QR panel)"),
        (KernelClass::Memory, "row swaps"),
    ] {
        println!("  {name:<30} {:>8.2} GFlop/s", rate(k) / 1e9);
    }
    println!("  {:<30} {:>8.2} GB/s", "stream bandwidth", c.bandwidth / 1e9);
    println!("\nRecursive-panel advantage (the sequential half of TSLU/TSQR):");
    println!("  rgetf2 / dgetf2 = {:.2}x", rate(KernelClass::LuRecursive) / rate(KernelClass::LuBlas2));
    println!("  dgeqr3 / dgeqr2 = {:.2}x", rate(KernelClass::QrRecursive) / rate(KernelClass::QrBlas2));
    println!(
        "  gemm / dgetf2   = {:.2}x (BLAS3 vs BLAS2 gap)",
        rate(KernelClass::Gemm) / rate(KernelClass::LuBlas2)
    );
    println!();
    save(&run.cli.out, "calibration.json", &serde_json::to_string_pretty(c).expect("serializable"))?;
    println!();
    Ok(())
}

/// `(growth factor, relative residual)` of GEPP on `a0`.
fn gepp_stats(a0: &Matrix) -> (f64, f64) {
    let mut a = a0.clone();
    let info = ca_kernels::getf2(a.view_mut());
    let perm = info.pivots.to_permutation(a0.nrows());
    (growth_factor(a0, &a.upper()), ca_matrix::lu_residual(a0, &perm, &a.unit_lower(), &a.upper()))
}

/// The same for CALU.
fn calu_stats(a0: &Matrix, b: usize, tr: usize, tree: TreeShape) -> (f64, f64) {
    let mut p = CaParams::new(b, tr, 1);
    p.tree = tree;
    let f = calu_seq_factor(a0.clone(), &p);
    (growth_factor(a0, &f.u()), f.residual(a0))
}

/// The paper's §II claim that tournament pivoting is "as stable as Gaussian
/// elimination with partial pivoting in practice" (after Grigori, Demmel &
/// Xiang 2008): growth factors and residuals of GEPP and CALU over matrix
/// classes, both trees and Tr.
pub fn stability(run: &Run) -> io::Result<()> {
    let n = if run.cli.quick { 128 } else { 512 };
    let b = 32;
    let mut rng = seeded_rng(2026);
    let cases: Vec<(&str, Matrix)> = vec![
        ("random uniform", ca_matrix::random_uniform(n, n, &mut rng)),
        ("random normal", ca_matrix::random_normal(n, n, &mut rng)),
        ("graded rows (1.2^i)", ca_matrix::graded_rows(n, n, 1.2, &mut rng)),
        ("Wilkinson growth (n=56)", ca_matrix::wilkinson_growth(56)),
        ("Kahan (theta=1.2)", ca_matrix::kahan(n.min(256), 1.2)),
        ("random orthogonal", ca_matrix::random_orthogonal(n.min(256), &mut rng)),
    ];

    println!("growth factor g = max|U| / max|A| and relative residual ‖ΠA−LU‖/‖A‖");
    println!(
        "{:<26} {:>14} {:>10} | {:>14} {:>10} | {:>14} {:>10}",
        "matrix", "GEPP g", "resid", "CALU bin g", "resid", "CALU flat g", "resid"
    );
    for (name, a0) in &cases {
        let (gg, gr) = gepp_stats(a0);
        let (cbg, cbr) = calu_stats(a0, b.min(a0.ncols()), 8, TreeShape::Binary);
        let (cfg, cfr) = calu_stats(a0, b.min(a0.ncols()), 8, TreeShape::Flat);
        println!(
            "{name:<26} {gg:>14.3e} {gr:>10.2e} | {cbg:>14.3e} {cbr:>10.2e} | {cfg:>14.3e} {cfr:>10.2e}"
        );
    }

    println!("\nCALU growth vs Tr (random uniform, n={n}, b={b}, binary tree):");
    let a0 = ca_matrix::random_uniform(n, n, &mut rng);
    println!("  GEPP: {:.3}", gepp_stats(&a0).0);
    for tr in [1usize, 2, 4, 8, 16] {
        let (g, r) = calu_stats(&a0, b, tr, TreeShape::Binary);
        println!("  Tr={tr:<3} growth {g:>8.3}  residual {r:.2e}");
    }
    println!("\nConclusion check: CALU growth within a small factor of GEPP on every class");
    println!("(the Wilkinson matrix defeats BOTH pivoting strategies — growth 2^(n-1)).\n");
    Ok(())
}

/// The §II optimality claim in the distributed-memory model, from this
/// workspace's actual reduction schedules: critical-path messages and words
/// of TSLU (binary/flat tree) against the ScaLAPACK-style partial-pivoting
/// panel, and α-β-γ timings on three network profiles.
pub fn comm(_: &Run) -> io::Result<()> {
    let b = 100usize;
    let m = 1_000_000usize;

    println!("== Panel communication, m=10^6, b=100 (critical path)");
    println!(
        "{:>6} {:>16} {:>12} | {:>14} {:>12} | {:>14} {:>12}",
        "P", "GEPP msgs", "words", "TSLU(bin) msgs", "words", "TSLU(flat) msgs", "words"
    );
    for p in [4usize, 16, 64, 256] {
        let g = gepp_panel(m, b, p);
        let tb = tslu_panel(m, b, p, TreeShape::Binary);
        let tf = tslu_panel(m, b, p, TreeShape::Flat);
        println!(
            "{p:>6} {:>16.0} {:>12.1e} | {:>14.0} {:>12.1e} | {:>14.0} {:>12.1e}",
            g.messages, g.words, tb.messages, tb.words, tf.messages, tf.words
        );
    }

    println!("\n== α-β-γ panel time, P=64 (α latency, β=1/bandwidth, γ=1/flop-rate)");
    println!("{:>22} {:>12} {:>12} {:>12}", "network", "GEPP (s)", "TSLU (s)", "speedup");
    for (name, alpha, beta, gamma) in [
        ("low-latency SMP", 1e-7, 1e-10, 2e-10),
        ("commodity cluster", 1e-5, 1e-9, 2e-10),
        ("high-latency WAN", 1e-3, 1e-8, 2e-10),
    ] {
        let g = gepp_panel(m, b, 64).time(alpha, beta, gamma);
        let t = tslu_panel(m, b, 64, TreeShape::Binary).time(alpha, beta, gamma);
        println!("{name:>22} {g:>12.4} {t:>12.4} {:>12.1}x", g / t);
    }

    println!("\n== Whole LU (m=10^5, n=10^4, b=100): total messages");
    for p in [16usize, 64] {
        let ca = full_lu(100_000, 10_000, b, p, Some(TreeShape::Binary));
        let pp = full_lu(100_000, 10_000, b, p, None);
        println!(
            "  P={p:<4} CALU {:>10.0} msgs / {:.2e} words   PDGETRF-style {:>10.0} msgs / {:.2e} words   ({:.0}x fewer messages)",
            ca.messages, ca.words, pp.messages, pp.words, pp.messages / ca.messages
        );
    }

    println!("\n== TSQR panel messages (m=10^6, b=100)");
    for p in [4usize, 16, 64] {
        let q = tsqr_panel(m, b, p, TreeShape::Binary);
        println!("  P={p:<4} {:>4.0} messages, {:.2e} words", q.messages, q.words);
    }
    println!("\n(The binary tree sends Θ(log P) messages per panel — the optimal count;");
    println!(" partial pivoting needs Θ(b·log P): one reduction per column.)\n");
    Ok(())
}

/// The design choices DESIGN.md §6 calls out, on the simulated machine
/// (where tree shape, lookahead, Tr and task granularity show whatever the
/// host's core count): tree binary vs flat; lookahead on vs off; Tr; panel
/// width; scheduling overhead (the paper's "too many tasks" remark);
/// two-level update blocking (its §V future work).
pub fn ablations(run: &Run) -> io::Result<()> {
    let machine = run.machine(8);
    let cores = machine.cores;
    let m = run.cli.scaled(1e5, 4000);
    let with_tree = |tr, tree| {
        let mut p = CaParams::new(100, tr, cores);
        p.tree = tree;
        p
    };

    println!("== Ablation 1: reduction tree shape (CALU panel, m={m}, n=100, {cores} cores)");
    println!("{:>6} {:>14} {:>14} {:>12}", "Tr", "binary (s)", "flat (s)", "flat/binary");
    for tr in [2usize, 4, 8, 16, 32] {
        let mk = |tree| machine.run(&calu_task_graph(m, 100, &with_tree(tr, tree))).makespan;
        let (tb, tf) = (mk(TreeShape::Binary), mk(TreeShape::Flat));
        println!("{tr:>6} {tb:>14.4} {tf:>14.4} {:>12.3}", tf / tb);
    }

    println!("\n== Ablation 2: lookahead-of-1 priorities (CALU, n=1000, {cores} cores)");
    println!("{:>10} {:>14} {:>14} {:>10}", "size", "on (s)", "off (s)", "off/on");
    for &(mm, nn) in &[(m / 5, 1000.min(m / 5)), (4000, 4000.min(m))] {
        let p_on = CaParams::new(100, 4, cores);
        let t_on = machine.run(&calu_task_graph(mm, nn, &p_on)).makespan;
        let t_off = machine.run(&calu_task_graph(mm, nn, &p_on.without_lookahead())).makespan;
        println!("{:>10} {t_on:>14.4} {t_off:>14.4} {:>10.3}", format!("{mm}x{nn}"), t_off / t_on);
    }

    println!("\n== Ablation 3: Tr sweep (CALU, m={m}, n=100, {cores} cores; GFlop/s)");
    let useful = ca_kernels::flops::getrf(m, 100);
    for tr in [1usize, 2, 4, 8, 16] {
        let gf = machine.gflops(&calu_task_graph(m, 100, &CaParams::new(100, tr, cores)), useful);
        println!("  Tr={tr:<3} {gf:>8.2}");
    }

    println!("\n== Ablation 4: panel width b (CALU square 4000, Tr=4, {cores} cores; GFlop/s)");
    let useful_sq = ca_kernels::flops::getrf(4000, 4000);
    for b in [25usize, 50, 100, 200, 400] {
        let g = calu_task_graph(4000, 4000, &CaParams::new(b, 4, cores));
        println!("  b={b:<4} tasks={:<7} {:>8.2}", g.len(), machine.gflops(&g, useful_sq));
    }

    println!("\n== Ablation 5: scheduling overhead (CALU square 4000, b=50, Tr=8)");
    let p = CaParams::new(50, 8, cores);
    let g = calu_task_graph(4000, 4000, &p);
    println!("  ({} tasks)", g.len());
    for task_overhead in [0.0, 1e-6, 1e-5, 1e-4, 1e-3] {
        let gf = MachineModel { task_overhead, ..machine.clone() }.gflops(&g, useful_sq);
        println!("  overhead={task_overhead:>8.0e}s  {gf:>8.2} GFlop/s");
    }

    println!("\n== Ablation 6: two-level update blocking B = k*b (paper §V future work)");
    println!("   (CALU square 4000, b=50, Tr=8, {cores} cores)");
    for ub in [1usize, 2, 4, 8] {
        let g = calu_task_graph(4000, 4000, &p.with_update_blocking(ub));
        println!("  B={:<4} tasks={:<7} {:>8.2} GFlop/s", ub * 50, g.len(), machine.gflops(&g, useful_sq));
    }

    println!("\n== Bonus: CAQR tree shape (panel only, m={m}, n=100)");
    for tr in [4usize, 8, 16] {
        let mk = |tree| machine.run(&caqr_task_graph(m, 100, &with_tree(tr, tree))).makespan;
        let (tb, tf) = (mk(TreeShape::Binary), mk(TreeShape::Flat));
        println!("  Tr={tr:<3} binary {tb:.4}s  flat {tf:.4}s  (flat/binary {:.3})", tf / tb);
    }
    println!();
    Ok(())
}

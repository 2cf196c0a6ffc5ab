//! Real-execution traces: run multithreaded CALU on actual worker threads
//! and render the wall-clock Gantt chart the scheduler recorded — the live
//! counterpart of the paper's Figures 3 and 4 (which this workspace also
//! regenerates on the simulated machine via `ca-bench repro fig3 fig4`).
//!
//! ```text
//! cargo run --release --example schedule_trace [m] [n] [threads]
//! ```

use ca_factor::core::{try_calu_with, FactorOptions};
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::prelude::*;
use ca_factor::sched::ascii_gantt;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    for tr in [1usize, threads.max(2)] {
        let a = random_uniform(m, n, &mut seeded_rng(3));
        let params = CaParams::new(100.min(n), tr, threads);
        let (f, report) = try_calu_with(a.clone(), &params, &FactorOptions::default())
            .expect("random matrices factor cleanly");
        let stats = report.stats;
        println!(
            "CALU {m}x{n}, b={}, Tr={tr}, {threads} threads: {:.3}s over {} tasks, \
             utilization {:.1}%, residual {:.1e}",
            params.b,
            stats.wall_seconds,
            stats.tasks,
            stats.timeline.utilization() * 100.0,
            f.residual(&a),
        );
        println!("(P = panel/tournament, L = L-block, U = U-row, S = update, W = swaps, . = idle)");
        println!("{}", ascii_gantt(&stats.timeline, 100));
    }
    println!("On a machine with ≥{threads} hardware cores, Tr=1 shows the panel-induced");
    println!("idle gaps of the paper's Figure 3 and Tr={threads} closes them (Figure 4).");
    println!("(Inside a single-core container the lanes time-slice, so utilization");
    println!("percentages are scheduling artifacts — use ca-bench's simulated traces.)");
}

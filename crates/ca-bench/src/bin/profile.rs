//! Scheduler profiling report: runtime metrics, per-kernel roofline
//! attribution, dispatch-latency summary, critical-path efficiency, and the
//! lookahead metric, for CALU and CAQR.
//!
//! Subcommands (first positional argument): `lu`, `qr`, or `all` (default).
//!
//! By default the task graph is replayed on the deterministic simulated
//! machine (calibrated costs); with `--measured` the real factorization runs
//! on the profiled executor instead, so the report reflects actual wall
//! times and dispatch latencies.
//!
//! Outputs under `--out` (default `results/`):
//! * `BENCH_profile_{lu,qr}.json` — the full [`ca_sched::SchedMetrics`]
//!   record, suitable as a baseline for regression tracking;
//! * `profile_{lu,qr}_trace.json` — Chrome-trace JSON (spans + DAG flow
//!   events + counter tracks) for `chrome://tracing` or Perfetto.

use ca_bench::{Cli, MachineModel};
use ca_core::{calu_task_graph, caqr_task_graph, CaParams};
use ca_matrix::seeded_rng;
use ca_sched::Profile;

fn save(profile: &Profile, cli: &Cli, stem: &str) {
    let metrics = profile.metrics();
    println!("{metrics}");
    if let Err(e) = std::fs::create_dir_all(&cli.out) {
        eprintln!("warning: could not create {}: {e}", cli.out.display());
        return;
    }
    let json = serde_json::to_string_pretty(&metrics).expect("serializable");
    let metrics_path = cli.out.join(format!("BENCH_profile_{stem}.json"));
    let trace_path = cli.out.join(format!("profile_{stem}_trace.json"));
    match std::fs::write(&metrics_path, json) {
        Ok(()) => println!("saved {}", metrics_path.display()),
        Err(e) => eprintln!("warning: could not save metrics: {e}"),
    }
    match std::fs::write(&trace_path, profile.chrome_trace()) {
        Ok(()) => println!("saved {}", trace_path.display()),
        Err(e) => eprintln!("warning: could not save trace: {e}"),
    }
    println!();
}

fn simulated(cli: &Cli, machine: &MachineModel, which: &str) {
    let m = ((1e5 * cli.scale) as usize).max(4000);
    let m = if cli.quick { m.min(10_000) } else { m };
    let n = 1000.min(m);
    let p = CaParams::new(100, 8, machine.cores);
    if which == "lu" || which == "all" {
        println!(
            "CALU profile — {m}x{n}, b=100, Tr=8, simulated {} cores\n",
            machine.cores
        );
        save(&machine.profile(&calu_task_graph(m, n, &p)), cli, "lu");
    }
    if which == "qr" || which == "all" {
        println!(
            "CAQR profile — {m}x{n}, b=100, Tr=8, simulated {} cores\n",
            machine.cores
        );
        save(&machine.profile(&caqr_task_graph(m, n, &p)), cli, "qr");
    }
}

fn measured(cli: &Cli, which: &str) {
    let m = ((4000.0 * cli.scale) as usize).max(400);
    let m = if cli.quick { m.min(1200) } else { m };
    let n = 200.min(m);
    let p = CaParams::new(50.min(n), 4, cli.threads);
    let a = ca_matrix::random_uniform(m, n, &mut seeded_rng(42));
    if which == "lu" || which == "all" {
        println!("CALU profile — measured {m}x{n}, b={}, Tr=4, {} threads\n", p.b, p.threads);
        match ca_core::try_calu_profiled(a.clone(), &p) {
            Ok((_, profile)) => save(&profile, cli, "lu"),
            Err(e) => eprintln!("CALU failed: {e}"),
        }
    }
    if which == "qr" || which == "all" {
        println!("CAQR profile — measured {m}x{n}, b={}, Tr=4, {} threads\n", p.b, p.threads);
        match ca_core::try_caqr_profiled(a, &p) {
            Ok((_, profile)) => save(&profile, cli, "qr"),
            Err(e) => eprintln!("CAQR failed: {e}"),
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let which = if !args.is_empty() && !args[0].starts_with("--") {
        args.remove(0)
    } else {
        "all".to_string()
    };
    if !matches!(which.as_str(), "lu" | "qr" | "all") {
        eprintln!("unknown subcommand {which}; use lu|qr|all");
        std::process::exit(2);
    }
    let cli = Cli::parse(args.into_iter());
    if cli.measured {
        measured(&cli, &which);
    } else {
        let machine = MachineModel::new(cli.cores.unwrap_or(8), cli.calibration());
        simulated(&cli, &machine, &which);
    }
}

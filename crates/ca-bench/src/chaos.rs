//! Chaos drill for the recovery tier: a mixed LU/QR workload replayed
//! through the service under seeded fault injection at a sweep of per-task
//! failure rates, with panic and silent-corruption rates held at the
//! acceptance profile (0.5% panics, 0.1% corruption).
//!
//! For every rate the drill checks the two acceptance gates:
//!
//! 1. **survival** — every submitted job completes (task replay plus the
//!    in-job probe and whole-plan replay absorb all injected faults), and
//!    every completed result is bitwise identical to the fault-free
//!    sequential reference;
//! 2. **overhead** — wall-clock cost of the recovery tier versus the plain
//!    service (no retry wrappers, no probe, no chaos) stays bounded; the
//!    headline number is the overhead at a 1% fault rate.
//!
//! `ca-bench chaos-sweep` writes `BENCH_chaos.json` under `--out`; `--quick`
//! shrinks the sizes, `--threads` sets the service's workers.

use ca_core::CaParams;
use ca_matrix::{random_uniform, seeded_rng, Matrix};
use ca_serve::{
    AdmissionPolicy, ChaosConfig, ChaosProfile, JobHandle, Retry, Service, ServiceConfig,
    SubmitOptions,
};
use serde_json::json;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Lu,
    Qr,
}

/// One request of the synthetic trace, with its fault-free reference.
struct Req {
    kind: Kind,
    a: Matrix,
    p: CaParams,
    reference: Vec<f64>,
}

/// Mixed trace: `n` uniform-size jobs alternating LU/QR, each carrying its
/// sequential-reference factors for the bitwise check. Uniform sizes keep
/// every job an equal share of total work, so the overhead measurement is
/// not dominated by whether an injected corruption happens to land on an
/// outsized job (a corruption-triggered replay costs ~1/n, not ~1/3).
fn trace(n: usize, dim: usize, b: usize) -> Vec<Req> {
    let mut rng = seeded_rng(0xC405);
    (0..n)
        .map(|i| {
            let kind = if i % 2 == 0 { Kind::Lu } else { Kind::Qr };
            let a = random_uniform(dim, dim, &mut rng);
            let p = CaParams::new(b.min(dim), 4, 1);
            let reference = match kind {
                Kind::Lu => ca_core::calu_seq_factor(a.clone(), &p).lu.as_slice().to_vec(),
                Kind::Qr => ca_core::caqr_seq(a.clone(), &p).a.as_slice().to_vec(),
            };
            Req { kind, a, p, reference }
        })
        .collect()
}

struct RunOutcome {
    wall_s: f64,
    deviations: usize,
    stats: ca_serve::ServiceStats,
}

/// Replays the trace through a service built by `cfg`, waits for every
/// handle, and counts results that deviate from the fault-free reference.
fn run(reqs: &[Req], cfg: ServiceConfig) -> RunOutcome {
    let svc = Service::new(cfg);
    enum Handle {
        Lu(JobHandle<ca_core::LuFactors>),
        Qr(JobHandle<ca_core::QrFactors>),
    }
    let t0 = Instant::now();
    let handles: Vec<Handle> = reqs
        .iter()
        .map(|r| {
            let opts = SubmitOptions::default().with_params(r.p).unbatched();
            match r.kind {
                Kind::Lu => Handle::Lu(svc.submit_lu(r.a.clone(), opts).expect("admitted")),
                Kind::Qr => Handle::Qr(svc.submit_qr(r.a.clone(), opts).expect("admitted")),
            }
        })
        .collect();
    let mut deviations = 0usize;
    for (h, r) in handles.into_iter().zip(reqs) {
        let out = match h {
            Handle::Lu(h) => h.wait().expect("job survives chaos").lu.as_slice().to_vec(),
            Handle::Qr(h) => h.wait().expect("job survives chaos").a.as_slice().to_vec(),
        };
        if out != r.reference {
            deviations += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = svc.stats();
    svc.shutdown();
    RunOutcome { wall_s, deviations, stats }
}

fn base_cfg(workers: usize, capacity: usize) -> ServiceConfig {
    ServiceConfig::new(workers)
        .with_capacity(capacity)
        .with_admission(AdmissionPolicy::Block)
}

/// Runs the drill; `Ok(false)` when a survival gate failed.
pub fn chaos_sweep(cli: &crate::Cli) -> std::io::Result<bool> {
    let workers = cli.threads;
    let (njobs, dim, b) = if cli.quick { (12, 64, 32) } else { (32, 256, 64) };
    println!(
        "chaos_sweep — {njobs} jobs ({dim}²), {workers} worker(s), host parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let reqs = trace(njobs, dim, b);
    let capacity = njobs.max(4);

    // Retry budgets sized so budget exhaustion is out of the picture at the
    // swept rates: 3 task replays absorb almost everything, a whole-plan
    // replay from the input mops up the rest.
    let retry = Retry { replays: 10, ..Retry::default() };
    const RATES: [f64; 4] = [0.0, 0.01, 0.02, 0.05];
    let chaos_cfg = |fail_rate: f64| {
        let profile = ChaosProfile::quiet()
            .with_fail_rate(fail_rate)
            .with_panic_rate(0.005)
            .with_corrupt_rate(0.001);
        base_cfg(workers, capacity)
            .with_retry(retry)
            .with_chaos(ChaosConfig::seeded(0xD1CE).with_profile(profile))
    };

    // Min-of-3 with the configurations interleaved round-robin: on a noisy
    // shared host a CPU-steal burst then inflates one pass of every config
    // instead of silently skewing the plain/chaos ratio.
    const PASSES: usize = 3;
    let mut plain_s = f64::INFINITY;
    let mut chaos_runs: Vec<Option<RunOutcome>> = RATES.iter().map(|_| None).collect();
    for pass in 0..PASSES {
        let p = run(&reqs, base_cfg(workers, capacity));
        assert_eq!(p.deviations, 0, "fault-free service must match the reference");
        plain_s = plain_s.min(p.wall_s);
        for (slot, &rate) in chaos_runs.iter_mut().zip(&RATES) {
            let mut r = run(&reqs, chaos_cfg(rate));
            // Chaos seeds are fixed, so every pass injects identically and
            // the recovery counters agree; keep the fastest wall time.
            if let Some(prev) = slot.take() {
                r.wall_s = r.wall_s.min(prev.wall_s);
            }
            *slot = Some(r);
        }
        let _ = pass;
    }
    println!("  plain service: {plain_s:.3}s (min of {PASSES})");

    let mut rows = Vec::new();
    let mut gates_ok = true;
    for (r1, &fail_rate) in chaos_runs.iter().flatten().zip(&RATES) {
        let wall_s = r1.wall_s;
        let s = &r1.stats;
        let completed_rate = s.completed as f64 / njobs as f64;
        let overhead = wall_s / plain_s - 1.0;
        let t = &s.task_recovery;
        println!(
            "  fail {fail_rate:>5.2}: {wall_s:.3}s  overhead {:+6.1}%  completed {}/{njobs}  \
             deviations {}  task retries {} (exhausted {})  plan replays {}  probe hits {}  \
             injected f/p/c {}/{}/{}",
            overhead * 100.0,
            s.completed,
            r1.deviations,
            t.retries,
            t.exhausted_tasks,
            t.replays,
            t.probe_failures,
            t.injected_failures,
            t.injected_panics,
            t.injected_corruptions,
        );
        let survived = completed_rate == 1.0 && r1.deviations == 0;
        if !survived {
            gates_ok = false;
            eprintln!("  GATE FAIL: jobs lost or results deviated at rate {fail_rate}");
        }
        rows.push(json!({
            "fail_rate": fail_rate,
            "panic_rate": 0.005,
            "corrupt_rate": 0.001,
            "wall_s": wall_s,
            "overhead_vs_plain": overhead,
            "completed": s.completed as f64,
            "completed_rate": completed_rate,
            "bitwise_deviations": r1.deviations as f64,
            "task_attempts": t.attempts as f64,
            "task_retries": t.retries as f64,
            "tasks_recovered": t.recovered_tasks as f64,
            "tasks_exhausted": t.exhausted_tasks as f64,
            "snapshot_restores": t.restores as f64,
            "job_retries": t.replays as f64,
            "jobs_recovered": s.jobs_recovered as f64,
            "corruption_detected": t.probe_failures as f64,
            "probes_run": t.probes as f64,
            "injected_failures": t.injected_failures as f64,
            "injected_panics": t.injected_panics as f64,
            "injected_corruptions": t.injected_corruptions as f64,
            "survived": if survived { 1.0 } else { 0.0 },
        }));
    }
    let overhead_at_1pct = rows
        .iter()
        .find(|r| r["fail_rate"] == 0.01)
        .map(|r| r["overhead_vs_plain"].as_f64().unwrap_or(f64::NAN))
        .unwrap_or(f64::NAN);
    println!(
        "gates: survival {}  overhead@1% {:+.1}% (target ≤ +25%)",
        if gates_ok { "PASS" } else { "FAIL" },
        overhead_at_1pct * 100.0
    );

    let report = json!({
        "bench": "chaos_sweep",
        "jobs": njobs as f64,
        "workers": workers as f64,
        "host_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "quick": if cli.quick { 1.0 } else { 0.0 },
        "plain_service_s": plain_s,
        "note": "overhead_vs_plain at fail_rate 0 isolates the cost of the recovery \
                 machinery itself (write-set snapshots, panic guards, input copies and \
                 integrity probes); \
                 higher rates add the replayed work. survival gate: every job completes \
                 and every result is bitwise identical to the fault-free reference.",
        "overhead_at_1pct": overhead_at_1pct,
        "survival_gate": if gates_ok { 1.0 } else { 0.0 },
        "rates": rows,
    });
    crate::report::save(&cli.out, "BENCH_chaos.json", &serde_json::to_string_pretty(&report).expect("serializable"))?;
    Ok(gates_ok)
}

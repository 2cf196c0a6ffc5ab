//! The untraced run: the workload's focus at full size for the measured
//! seconds, reporting the end-to-end metrics. Spans are off; the tracer
//! only reads the clock.
//!
//! Each driver sets up, calls [`Ctx::set_up_done`], and measures. A
//! `--setup-only` child stops at that call.

use crate::checks::Kind;
use crate::spec::Focus;
use crate::stats::summarize;
use crate::{dense, ooc, serve, Ctx};
use std::time::Instant;

/// Fewest repetitions (LU/QR pairs, or trace replays) a run reports on.
const MIN_REPS: usize = 3;

pub fn run(ctx: &mut Ctx) {
    match ctx.spec.focus {
        Focus::Dense => run_dense(ctx),
        Focus::Serve => run_serve(ctx),
        Focus::Ooc => run_ooc(ctx),
    }
}

fn run_dense(ctx: &mut Ctx) {
    let (shape, seed, workers) = (ctx.spec.dense, ctx.seed, ctx.workers);
    // Set-up: generation and one warm-up of each factorization.
    let (mut problem, warm) = dense::set_up(&shape, seed, workers);
    if !ctx.set_up_done() {
        return;
    }
    dense::check_warm_up(&mut ctx.ops, &problem, &warm, seed);
    drop(warm);
    let deadline = ctx.deadline(Instant::now());
    let secs = dense::measure_pairs(&mut ctx.tracer, &mut ctx.ops, &mut problem, MIN_REPS, deadline);
    dense::put_rates(&mut ctx.metrics, &shape, &secs);
}

fn run_serve(ctx: &mut Ctx) {
    let (trace, seed, workers) = (ctx.spec.trace, ctx.seed, ctx.workers);
    // Set-up: generate the trace, start the service, push the warm-up jobs
    // through it.
    let jobs = serve::build_trace(&trace, seed);
    let svc = serve::start_service(&trace, workers, None);
    serve::service_pass(&svc, &trace, &serve::warm_up_jobs(&trace, &jobs), workers);
    if !ctx.set_up_done() {
        svc.shutdown();
        return;
    }

    let deadline = ctx.deadline(Instant::now());
    let mut passes = Vec::new();
    while passes.len() < MIN_REPS || Instant::now() < deadline {
        passes.push(ctx.tracer.time("ca-serve.service_pass", || serve::service_pass(&svc, &trace, &jobs, workers)).0);
    }
    svc.shutdown();

    // Every served result must equal the one-shot result of the same job.
    let reference = serve::oneshot_pass(&trace, &jobs, workers);
    for (i, pass) in passes.iter().enumerate() {
        serve::record_pass(&mut ctx.ops, &format!("pass {i}"), pass, &reference);
    }
    for kind in Kind::BOTH {
        let per_pass: Vec<f64> = passes.iter().map(|p| serve::family_gflops(p, &jobs, kind)).collect();
        ctx.metrics.put_summary(&format!("{}_gflops", kind.tag()), summarize(&per_pass));
    }
}

fn run_ooc(ctx: &mut Ctx) {
    let (shape, seed, workers) = (ctx.spec.ooc, ctx.seed, ctx.workers);
    // Set-up: create the store, import, one factorization of each kind.
    let problem = ooc::Problem::set_up(&shape, seed, workers);
    if !ctx.set_up_done() {
        return;
    }
    let deadline = ctx.deadline(Instant::now());
    let reps = problem.measure_pairs(&mut ctx.tracer, &mut ctx.ops, MIN_REPS, deadline);
    let secs = reps.map(|kind_reps| kind_reps.iter().map(|r| r.secs).collect::<Vec<f64>>());
    dense::put_rates(&mut ctx.metrics, &shape.as_dense(), &secs);
}

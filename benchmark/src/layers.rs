//! The traced run: every per-layer metric of `BENCHMARK.json`, measured
//! from outside by timing calls into the layers' public functions.
//!
//! Shapes come from the workload (`Spec`): kernel and tree-node probes run
//! on the operands the workload's first panel step would hand them. The
//! workload's focus section runs last and repeats until the measured
//! seconds are used up; every other section runs a fixed small number of
//! times. Rates use flop and byte counts *computed* from `flops::*` and
//! `traffic::*`, not measured ones.

use crate::checks::{factor, Factors, Kind};
use crate::dense::{self, Problem};
use crate::report::{out_dir, Metrics};
use crate::spans::Tracer;
use crate::spec::{Dense, Focus};
use crate::stats::{best, median, rate, summarize, tail, Summary};
use crate::{ooc, proc_kib, serve, Ctx};
use ca_factor::baselines::{geqrf_blocked, getrf_blocked, tiled_lu, tiled_qr};
use ca_factor::bench::{calibrate, MachineModel};
use ca_factor::core::tsqr::{node_apply, node_qr, NodePlan};
use ca_factor::core::{calu_task_graph, caqr_task_graph, tournament, try_calu_profiled, try_caqr_profiled};
use ca_factor::kernels::{
    flops, gemm, geqr3, larfb_left, larfb_left_pair, pack_a_slab, pack_b_panel, par_gemm, rgetf2, traffic,
    trsm_left_lower_unit, Trans, MC, NC,
};
use ca_factor::matrix::{random_uniform, seeded_rng, AlignedBuf, SharedMatrix};
use ca_factor::prelude::*;
use ca_factor::sched::{
    dyn_job, job, run_graph, DynJob, Job, JobOptions, MultiFrontier, Profile, TaskGraph, TaskKind, TaskLabel, TaskMeta,
};
use ca_factor::serve::TelemetryConfig;
use ca_factor::telemetry::{Registry, LATENCY_BOUNDS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// How often a probe repeats: up to `max` timed calls, stopping early once
/// they have used `cap_s` seconds (a probe always runs once).
#[derive(Clone, Copy)]
struct Reps {
    max: usize,
    cap_s: f64,
}

/// A kernel-sized probe.
const KERNEL: Reps = Reps { max: 10, cap_s: 0.5 };
/// A whole-factorization probe.
const FACTOR: Reps = Reps { max: 3, cap_s: 1.0 };

/// Timed calls of `run` on inputs that `prep` makes outside the timed region.
fn sample_with<I>(
    tracer: &mut Tracer,
    span: &str,
    reps: Reps,
    mut prep: impl FnMut() -> I,
    mut run: impl FnMut(I),
) -> Vec<f64> {
    let mut secs = Vec::with_capacity(reps.max);
    while secs.len() < reps.max && (secs.is_empty() || secs.iter().sum::<f64>() < reps.cap_s) {
        let input = prep();
        secs.push(tracer.time(span, || run(input)).1);
    }
    secs
}

fn sample(tracer: &mut Tracer, span: &str, reps: Reps, mut run: impl FnMut()) -> Vec<f64> {
    sample_with(tracer, span, reps, || (), |()| run())
}

fn scaled(secs: &[f64], factor: f64) -> Summary {
    summarize(secs).map(|t| t * factor)
}

pub fn run(ctx: &mut Ctx) {
    let whole = ctx.tracer.enter("bench.traced_run");
    let started = Instant::now();

    let peak = machine(ctx);
    let mut problem = matrix_layer(ctx);
    kernels_layer(ctx, peak);
    tree_nodes(ctx);
    let seq_secs = core_sequential(ctx, &problem);
    scheduler_micro(ctx);
    let blocked_secs = baselines_reference(ctx, &problem);

    // The focus goes last and takes the seconds that remain.
    let deadline = ctx.deadline(started);
    let focus = ctx.spec.focus;
    let until = |section: Focus| if section == focus { deadline } else { started };
    let mut factorizations = None;
    for section in [Focus::Dense, Focus::Serve, Focus::Ooc].into_iter().filter(|s| *s != focus).chain([focus]) {
        match section {
            Focus::Dense => factorizations = Some(factorizations_layer(ctx, &mut problem, until(section))),
            Focus::Serve => serve_layer(ctx, until(section)),
            Focus::Ooc => ooc_layer(ctx, until(section), &seq_secs),
        }
    }
    let measured = factorizations.expect("the dense section always runs");

    for kind in Kind::BOTH {
        let tag = kind.tag();
        // The paper's headline ratio: CA GF/s over blocked GF/s, same flops.
        let ratio = median(&blocked_secs[kind as usize]) / median(&measured.at_w[kind as usize]);
        ctx.metrics.put(&format!("ca-baselines.{tag}_ca_over_blocked"), ratio);
    }
    simulator(ctx, &measured);
    ctx.tracer.exit(whole);
}

// ---------------------------------------------------------------- machine

fn sysfs_bytes(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    let text = text.trim();
    let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len()));
    let scale = match unit.trim() {
        "K" | "kB" => 1 << 10,
        "M" => 1 << 20,
        "G" => 1 << 30,
        _ => 1,
    };
    Some(digits.parse::<usize>().ok()? * scale)
}

/// Size of the largest cache of cpu0, or 32 MiB when sysfs does not say.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| sysfs_bytes(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .max()
        .unwrap_or(32 << 20)
}

fn ram_bytes() -> usize {
    proc_kib("/proc/meminfo", "MemTotal").map_or(8 << 30, |kib| (kib as usize) << 10)
}

/// The two ceilings every other rate is read against. Returns the compute one.
fn machine(ctx: &mut Ctx) -> f64 {
    // Practical compute ceiling: a gemm whose operands stay in L2.
    let n = 256;
    let mut rng = seeded_rng(ctx.seed);
    let (a, b) = (random_uniform(n, n, &mut rng), random_uniform(n, n, &mut rng));
    let mut c = Matrix::zeros(n, n);
    let secs = sample(&mut ctx.tracer, "ca-kernels.gemm", Reps { max: 20, cap_s: 1.0 }, || {
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view_mut())
    });
    let peak = flops::gemm(n, n, n) / best(secs.iter().copied()) / 1e9;
    ctx.metrics.put_noted("machine.gemm_l2_gflops", peak, &format!("best of {}, 256^3, 1 thread", secs.len()));

    // Copy bandwidth: each array four times the last-level cache, so the
    // copy cannot be served from it, but at most RAM/8 and 128 MiB. First
    // touch of a GiB costs seconds in a small VM, more than a run can
    // spend on a ceiling; the note records both sizes.
    let llc = llc_bytes();
    let bytes = (4 * llc).max(64 << 20).min(ram_bytes() / 8).min(ctx.spec.stream_cap_bytes);
    let src = vec![1.0f64; bytes / 8];
    let mut dst = vec![0.0f64; bytes / 8];
    let secs = sample(&mut ctx.tracer, "machine.copy", Reps { max: 4, cap_s: 2.0 }, || {
        dst.copy_from_slice(&src);
        black_box(&mut dst);
    });
    let note = format!("best of {}, 2 arrays of {} MiB each, LLC {} MiB", secs.len(), bytes >> 20, llc >> 20);
    ctx.metrics.put_noted("machine.stream_gbs", 2.0 * bytes as f64 / best(secs.iter().copied()) / 1e9, &note);
    peak
}

// -------------------------------------------------------------- ca-matrix

/// Generation, copy and accuracy-gate cost: what set-up is made of.
fn matrix_layer(ctx: &mut Ctx) -> Problem {
    let (shape, seed, workers) = (ctx.spec.dense, ctx.seed, ctx.workers);
    let (a, fill_s) = ctx.tracer.time("ca-matrix.random_uniform", || dense::generate(&shape, seed));
    ctx.metrics.put("ca-matrix.fill_s", fill_s);
    let bytes = (shape.m * shape.n * 8) as f64;
    let secs = sample(&mut ctx.tracer, "ca-matrix.clone", Reps { max: 3, cap_s: 1.0 }, || drop(black_box(a.clone())));
    ctx.metrics.put_summary("ca-matrix.clone_gbs", rate(2.0 * bytes, &secs));

    let span = ctx.tracer.enter("bench.warm_up");
    let (problem, warm) = dense::warm_up(a, &shape, workers);
    ctx.tracer.exit(span);
    let (_, residual_s) =
        ctx.tracer.time("ca-matrix.accuracy_gate", || dense::check_warm_up(&mut ctx.ops, &problem, &warm, seed));
    ctx.metrics.put_noted("ca-matrix.residual_s", residual_s, "LU + QR gates on 32 sampled columns");
    problem
}

// ------------------------------------------------------------- ca-kernels

/// Single-thread kernel rates on the operand shapes of the workload's
/// first panel step: trailing block `(m-b) x (n-b)`, leaves of `m/tr` rows.
fn kernels_layer(ctx: &mut Ctx, peak_gflops: f64) {
    let Dense { m, n, b, tr } = ctx.spec.dense;
    let (mu, nu, leaf) = (m - b, n - b, m / tr);
    let workers = ctx.workers;
    let mut rng = seeded_rng(ctx.seed + 1);
    let tracer = &mut ctx.tracer;
    let metrics = &mut ctx.metrics;

    {
        // The rank-b trailing update C -= L * U.
        let (l, u) = (random_uniform(mu, b, &mut rng), random_uniform(b, nu, &mut rng));
        let mut c = random_uniform(mu, nu, &mut rng);
        let fl = flops::gemm(mu, nu, b);
        let secs = sample(tracer, "ca-kernels.gemm", KERNEL, || {
            gemm(Trans::No, Trans::No, -1.0, l.view(), u.view(), 1.0, c.view_mut())
        });
        let update = rate(fl, &secs);
        metrics.put_summary("ca-kernels.gemm_update_gflops", update);
        metrics.put("ca-kernels.gemm_update_frac", update.median / peak_gflops);
        metrics.put_noted("ca-kernels.gemm_flops_per_byte", fl / traffic::gemm(mu, nu, b), "computed");
        let secs = sample(tracer, "ca-kernels.par_gemm", KERNEL, || {
            par_gemm(workers, Trans::No, Trans::No, -1.0, l.view(), u.view(), 1.0, c.view_mut())
        });
        metrics.put_summary("ca-kernels.par_gemm_update_gflops", rate(fl, &secs));

        // Packing both operands of that update, slab by slab.
        let (mut abuf, mut bbuf) = (AlignedBuf::new(), AlignedBuf::new());
        let secs = sample(tracer, "ca-kernels.pack", KERNEL, || {
            for ic in (0..mu).step_by(MC) {
                pack_a_slab(Trans::No, l.view(), ic, MC.min(mu - ic), &mut abuf);
            }
            for jc in (0..nu).step_by(NC) {
                pack_b_panel(Trans::No, u.view(), jc, NC.min(nu - jc), &mut bbuf);
            }
        });
        metrics.put_summary("ca-kernels.pack_gbs", rate(traffic::pack(mu, b) + traffic::pack(b, nu), &secs));

        // The U block row: a b x b unit-lower solve on b x (n-b).
        // Entries of 1/b keep repeated solves of one right-hand side bounded.
        let tri = Matrix::from_fn(b, b, |_, _| 1.0 / b as f64);
        let mut rhs = random_uniform(b, nu, &mut rng);
        let secs = sample(tracer, "ca-kernels.trsm_left_lower_unit", KERNEL, || {
            trsm_left_lower_unit(tri.view(), rhs.view_mut())
        });
        metrics.put_summary("ca-kernels.trsm_gflops", rate(flops::trsm_left(b, nu), &secs));
    }

    // Leaf panel kernels.
    let panel = random_uniform(leaf, b, &mut rng);
    let secs = sample_with(
        tracer,
        "ca-kernels.rgetf2",
        KERNEL,
        || panel.clone(),
        |mut p| {
            black_box(rgetf2(p.view_mut()));
        },
    );
    metrics.put_summary("ca-kernels.rgetf2_gflops", rate(flops::getrf(leaf, b), &secs));
    let mut t = Matrix::zeros(b, b);
    let secs =
        sample_with(tracer, "ca-kernels.geqr3", KERNEL, || panel.clone(), |mut p| geqr3(p.view_mut(), t.view_mut()));
    metrics.put_summary("ca-kernels.geqr3_gflops", rate(flops::geqrf(leaf, b), &secs));

    // Compact-WY application of a leaf's reflectors onto its trailing rows.
    let mut v = panel;
    geqr3(v.view_mut(), t.view_mut());
    let mut c = random_uniform(leaf, nu, &mut rng);
    let secs =
        sample(tracer, "ca-kernels.larfb_left", KERNEL, || larfb_left(Trans::Yes, v.view(), t.view(), c.view_mut()));
    metrics.put_summary("ca-kernels.larfb_gflops", rate(flops::larfb(leaf, nu, b), &secs));

    // The tree-node form: two stacked b-row blocks at unrelated addresses.
    let mut stacked = random_uniform(2 * b, b, &mut rng);
    geqr3(stacked.view_mut(), t.view_mut());
    let (mut c_top, mut c_bot) = (random_uniform(b, nu, &mut rng), random_uniform(b, nu, &mut rng));
    let secs = sample(tracer, "ca-kernels.larfb_left_pair", KERNEL, || {
        let (v_top, v_bot) = (stacked.block(0, 0, b, b), stacked.block(b, 0, b, b));
        larfb_left_pair(Trans::Yes, v_top, v_bot, t.view(), c_top.view_mut(), c_bot.view_mut())
    });
    metrics.put_summary("ca-kernels.larfb_pair_gflops", rate(flops::larfb(2 * b, nu, b), &secs));
}

// ---------------------------------------------------------------- ca-core

fn upper_triangle(full: Matrix) -> Matrix {
    Matrix::from_fn(full.nrows(), full.ncols(), |i, j| if i <= j { full[(i, j)] } else { 0.0 })
}

/// Reduction-tree nodes and whole panels (TSLU / TSQR).
fn tree_nodes(ctx: &mut Ctx) {
    let Dense { m, n, b, tr } = ctx.spec.dense;
    let (nu, leaf) = (n - b, m / tr);
    let mut rng = seeded_rng(ctx.seed + 2);
    let tracer = &mut ctx.tracer;
    let metrics = &mut ctx.metrics;

    // One tournament node: stack two leaves' candidates and select b rows.
    let leaves: Vec<_> = (0..2)
        .map(|g| {
            let idx: Vec<usize> = (g * leaf..(g + 1) * leaf).collect();
            tournament::select(random_uniform(leaf, b, &mut rng).view(), &idx, true)
        })
        .collect();
    let secs = sample(tracer, "ca-core.tournament_node", KERNEL, || {
        let (stack, idx) = tournament::stack_candidates(&[&leaves[0], &leaves[1]]);
        black_box(tournament::select(stack.view(), &idx, true));
    });
    metrics.put_summary("ca-core.tslu_node_us", scaled(&secs, 1e6));

    // One TSQR node: refactor two stacked b x b R factors.
    let plan = NodePlan { level: 0, participants: vec![0, 1], row_ranges: vec![0..b, b..2 * b], kk: b };
    let mut gen = |r, c| random_uniform(r, c, &mut rng);
    let (r0, r1) = (upper_triangle(gen(b, b)), upper_triangle(gen(b, b)));
    let stacked_r = Matrix::vstack(&[r0.view(), r1.view()]);
    let secs = sample_with(
        tracer,
        "ca-core.tsqr_node_qr",
        KERNEL,
        || SharedMatrix::new(stacked_r.clone()),
        |sh| {
            black_box(node_qr(&sh, 0, b, &plan));
        },
    );
    metrics.put_summary("ca-core.tsqr_node_us", scaled(&secs, 1e6));

    // That node's reflectors applied onto the n-b trailing columns.
    let node = node_qr(&SharedMatrix::new(stacked_r), 0, b, &plan);
    let dst = SharedMatrix::new(gen(2 * b, nu));
    let secs = sample(tracer, "ca-core.tsqr_node_apply", KERNEL, || node_apply(&node, &dst, 0..nu, Trans::Yes));
    metrics.put_summary("ca-core.tsqr_node_apply_gflops", rate(flops::larfb(2 * b, nu, b), &secs));

    // A whole m x b panel through the tree, on one thread.
    let panel = gen(m, b);
    let p = CaParams::new(b, tr, 1);
    let secs = sample_with(
        tracer,
        "ca-core.tslu_factor",
        FACTOR,
        || panel.clone(),
        |a| {
            black_box(tslu_factor(a, tr, &p));
        },
    );
    metrics.put_summary("ca-core.tslu_panel_ms", scaled(&secs, 1e3));
    let secs = sample_with(
        tracer,
        "ca-core.tsqr_factor",
        FACTOR,
        || panel.clone(),
        |a| {
            black_box(tsqr_factor(a, tr, &p));
        },
    );
    metrics.put_summary("ca-core.tsqr_panel_ms", scaled(&secs, 1e3));
}

/// The plain single-thread run: the sequential reference of each algorithm.
fn run_sequential(kind: Kind, a: Matrix, p1: &CaParams) {
    match kind {
        Kind::Lu => drop(black_box(calu_seq_factor(a, p1))),
        Kind::Qr => drop(black_box(caqr_seq(a, p1))),
    }
}

/// DAG construction, the plain single-thread run of the same problem, and
/// the solves. Returns the sequential seconds per kind.
fn core_sequential(ctx: &mut Ctx, problem: &Problem) -> [Vec<f64>; 2] {
    let shape = ctx.spec.dense;
    let Dense { m, n, b, tr } = shape;
    let (seed, rhs_cols) = (ctx.seed, ctx.spec.trace.rhs);
    let p = problem.p;
    let tracer = &mut ctx.tracer;
    let metrics = &mut ctx.metrics;

    for kind in Kind::BOTH {
        let tag = kind.tag();
        let mut counts = (0, 0);
        let secs = sample(tracer, &format!("ca-core.{}_task_graph", kind.entry()), KERNEL, || {
            counts = match kind {
                Kind::Lu => {
                    let g = calu_task_graph(m, n, &p);
                    (g.len(), g.validate())
                }
                Kind::Qr => {
                    let g = caqr_task_graph(m, n, &p);
                    (g.len(), g.validate())
                }
            };
        });
        metrics.put_summary(&format!("ca-core.{tag}_dag_build_ms"), scaled(&secs, 1e3));
        metrics.put_noted(&format!("ca-core.{tag}_tasks"), counts.0 as f64, "exact");
        metrics.put_noted(&format!("ca-core.{tag}_edges"), counts.1 as f64, "exact");
    }

    let p1 = CaParams::new(b, tr, 1);
    let seq = Kind::BOTH.map(|kind| {
        let span = format!("ca-core.{}_seq", kind.entry());
        let secs = sample_with(tracer, &span, FACTOR, || problem.a.clone(), |a| run_sequential(kind, a, &p1));
        metrics.put_summary(&format!("ca-core.{}_seq_gflops", kind.tag()), rate(kind.flops(m, n), &secs));
        secs
    });

    // Solves with the trace's right-hand-side count. LU needs a square
    // system: the leading min(m, n) block stands in on a tall shape.
    let k = m.min(n);
    let square = Matrix::from_fn(k, k, |i, j| problem.a[(i, j)]);
    let lu = calu(square, &p);
    let rhs = random_uniform(k, rhs_cols, &mut seeded_rng(seed + 3));
    let secs = sample(tracer, "ca-core.lu_solve", KERNEL, || drop(black_box(lu.solve(&rhs))));
    metrics.put_summary("ca-core.lu_solve_ms", scaled(&secs, 1e3));
    let qr = caqr(problem.a.clone(), &p);
    let rhs = random_uniform(m, rhs_cols, &mut seeded_rng(seed + 4));
    let secs = sample(tracer, "ca-core.qr_solve_ls", KERNEL, || drop(black_box(qr.solve_ls(&rhs))));
    metrics.put_summary("ca-core.qr_solve_ms", scaled(&secs, 1e3));
    seq
}

/// What the whole-factorization sections hand to the derived rows.
struct Measured {
    /// Untraced `calu` / `caqr` seconds at `W` workers.
    at_w: [Vec<f64>; 2],
    /// The same at one worker.
    at_1: [Vec<f64>; 2],
}

/// Everything `Profile` says about one profiled run, as metric rows.
fn profile_rows(kind: Kind, shape: &Dense, workers: usize, profile: &Profile) -> Vec<(String, f64)> {
    let tag = kind.tag();
    let m = profile.metrics();
    let mut rows = Vec::new();
    // The waterfall: busy seconds per task kind. CAQR has only panel and
    // update tasks; rows that could never be other than zero are not listed.
    let kinds: &[&str] = match kind {
        Kind::Lu => &["Panel", "LBlock", "URow", "Update", "Swap", "Other"],
        Kind::Qr => &["Panel", "Update"],
    };
    for name in kinds {
        let busy = m.by_kind.iter().find(|k| k.kind == *name).map_or(0.0, |k| k.busy_seconds);
        rows.push((format!("ca-core.{tag}_{}_busy_s", name.to_lowercase()), busy));
    }
    let classes: [&str; 2] = match kind {
        Kind::Lu => ["Gemm", "LuRecursive"],
        Kind::Qr => ["Larfb", "QrRecursive"],
    };
    for class in classes {
        let gflops = m.by_class.iter().find(|c| c.class == class).map_or(0.0, |c| c.gflops);
        rows.push((format!("ca-core.{tag}_class_{}_gflops", class.to_lowercase()), gflops));
    }
    let task_flops: f64 = profile.records.iter().map(|r| r.flops).sum();
    rows.push((format!("ca-core.{tag}_redundant_flop_frac"), task_flops / kind.flops(shape.m, shape.n) - 1.0));

    let waits: Vec<f64> = profile.records.iter().map(|r| r.wait() * 1e6).collect();
    rows.extend([
        (format!("ca-sched.{tag}_utilization"), m.utilization),
        (format!("ca-sched.{tag}_efficiency"), m.efficiency),
        (format!("ca-sched.{tag}_critical_path_s"), m.critical_path_seconds),
        (format!("ca-sched.{tag}_idle_s"), workers as f64 * m.makespan - m.busy_seconds),
        (format!("ca-sched.{tag}_dispatch_p50_us"), median(&waits)),
        (format!("ca-sched.{tag}_dispatch_p99_us"), tail(&waits, 99.0).0),
        (format!("ca-sched.{tag}_lookahead_wait_ms"), m.lookahead.total_wait * 1e3),
    ]);
    rows
}

/// `calu` / `caqr` of the workload's dense shape: untraced and profiled at
/// `W` workers and untraced at one, interleaved, until `deadline` and at
/// least twice.
fn factorizations_layer(ctx: &mut Ctx, problem: &mut Problem, deadline: Instant) -> Measured {
    let (shape, workers) = (ctx.spec.dense, ctx.workers);
    let p = problem.p;
    let p1 = CaParams { threads: 1, ..p };
    let mut at_w = [Vec::new(), Vec::new()];
    let mut at_1 = [Vec::new(), Vec::new()];
    let mut profiled = [Vec::new(), Vec::new()];
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    while at_w[0].len() < 2 || Instant::now() < deadline {
        for kind in Kind::BOTH {
            let (tracer, ops) = (&mut ctx.tracer, &mut ctx.ops);
            let entry = kind.entry();
            let t = dense::timed_op(tracer, ops, &format!("ca-core.{entry}"), problem, kind, |a| factor(kind, a, &p));
            at_w[kind as usize].push(t);
            // One worker: once, and again only while the focus has time left.
            if at_1[kind as usize].is_empty() || Instant::now() < deadline {
                let t = dense::timed_op(tracer, ops, &format!("ca-core.{entry}_1_worker"), problem, kind, |a| {
                    factor(kind, a, &p1)
                });
                at_1[kind as usize].push(t);
            }
            let mut profile = None;
            let t =
                dense::timed_op(tracer, ops, &format!("ca-core.try_{entry}_profiled"), problem, kind, |a| match kind {
                    Kind::Lu => {
                        let (f, prof) = try_calu_profiled(a, &p).expect("profiled calu");
                        profile = Some(prof);
                        Factors::Lu(f)
                    }
                    Kind::Qr => {
                        let (f, prof) = try_caqr_profiled(a, &p).expect("profiled caqr");
                        profile = Some(prof);
                        Factors::Qr(f)
                    }
                });
            profiled[kind as usize].push(t);
            if let Some(prof) = profile {
                for (name, value) in profile_rows(kind, &shape, workers, &prof) {
                    rows.entry(name).or_default().push(value);
                }
            }
        }
    }
    for (name, values) in &rows {
        ctx.metrics.put_summary(name, summarize(values));
    }
    for kind in Kind::BOTH {
        let (tw, t1) = (median(&at_w[kind as usize]), median(&at_1[kind as usize]));
        ctx.metrics.put(&format!("ca-sched.{}_parallel_eff", kind.tag()), t1 / (workers as f64 * tw));
    }
    // Tracing overhead: profiled against untraced medians, LU and QR together.
    let total = |secs: &[Vec<f64>; 2]| median(&secs[0]) + median(&secs[1]);
    ctx.metrics.put("ca-sched.trace_overhead_frac", total(&profiled) / total(&at_w) - 1.0);
    Measured { at_w, at_1 }
}

// --------------------------------------------------------------- ca-sched

fn label(i: usize) -> TaskMeta {
    TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, i, 0), 0.0)
}

/// Executor costs with no work in the tasks.
fn scheduler_micro(ctx: &mut Ctx) {
    let workers = ctx.workers;
    let tracer = &mut ctx.tracer;
    const TASKS: usize = 10_000;
    let noop_graph = |tasks: usize| {
        let mut g: TaskGraph<Job<'static>> = TaskGraph::new();
        for i in 0..tasks {
            g.add_task(label(i), job(|| ()));
        }
        g
    };
    let secs = sample_with(
        tracer,
        "ca-sched.run_graph",
        Reps { max: 5, cap_s: 1.0 },
        || noop_graph(TASKS),
        |g| drop(run_graph(g, workers)),
    );
    ctx.metrics.put_summary("ca-sched.empty_task_us", scaled(&secs, 1e6 / TASKS as f64));
    let secs = sample_with(
        tracer,
        "ca-sched.run_graph",
        Reps { max: 200, cap_s: KERNEL.cap_s },
        || noop_graph(1),
        |g| drop(run_graph(g, workers)),
    );
    ctx.metrics.put_summary("ca-sched.oneshot_start_us", scaled(&secs, 1e6));

    let frontier = MultiFrontier::new(workers);
    let one_task_job = || {
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(label(0), dyn_job(|| ()));
        g
    };
    let secs =
        sample_with(tracer, "ca-sched.multi_frontier_job", Reps { max: 200, cap_s: KERNEL.cap_s }, one_task_job, |g| {
            black_box(frontier.submit(g, JobOptions::default()).1.wait());
        });
    frontier.shutdown();
    ctx.metrics.put_summary("ca-sched.frontier_job_us", scaled(&secs, 1e6));
}

// ----------------------------------------------------------- ca-baselines

/// Reference rows: they should move only when shared kernels move.
fn baselines_reference(ctx: &mut Ctx, problem: &Problem) -> [Vec<f64>; 2] {
    let Dense { m, n, b, .. } = ctx.spec.dense;
    let workers = ctx.workers;
    let tracer = &mut ctx.tracer;
    let blocked = Kind::BOTH.map(|kind| {
        let span = match kind {
            Kind::Lu => "ca-baselines.getrf_blocked",
            Kind::Qr => "ca-baselines.geqrf_blocked",
        };
        let secs = sample_with(
            tracer,
            span,
            FACTOR,
            || problem.a.clone(),
            |mut a| match kind {
                Kind::Lu => drop(black_box(getrf_blocked(&mut a, b, workers))),
                Kind::Qr => drop(black_box(geqrf_blocked(&mut a, b, workers))),
            },
        );
        ctx.metrics.put_summary(&format!("ca-baselines.{}_blocked_gflops", kind.tag()), rate(kind.flops(m, n), &secs));
        secs
    });
    let (tn, tb) = ctx.spec.tiled;
    let a = random_uniform(tn, tn, &mut seeded_rng(ctx.seed + 5));
    for kind in Kind::BOTH {
        let span = format!("ca-baselines.tiled_{}", kind.tag());
        let secs = sample_with(
            tracer,
            &span,
            Reps { max: 1, cap_s: 1.0 },
            || a.clone(),
            |a| match kind {
                Kind::Lu => drop(black_box(tiled_lu(a, tb, workers))),
                Kind::Qr => drop(black_box(tiled_qr(a, tb, workers))),
            },
        );
        ctx.metrics.put_summary(&format!("ca-baselines.{}_tiled_gflops", kind.tag()), rate(kind.flops(tn, tn), &secs));
    }
    blocked
}

// --------------------------------------------------------------- ca-bench

/// The simulator every figure of EXPERIMENTS.md rests on: its makespan for
/// the workload's DAG against the measured one, at one core and at `W`.
fn simulator(ctx: &mut Ctx, measured: &Measured) {
    let Dense { m, n, .. } = ctx.spec.dense;
    let workers = ctx.workers;
    let p = CaParams::new(ctx.spec.dense.b, ctx.spec.dense.tr, workers);
    // The quick calibration: the full one takes ten seconds, half a run.
    let (calib, secs) = ctx.tracer.time("ca-bench.calibrate", || calibrate(true));
    ctx.metrics.put_noted("ca-bench.calibrate_s", secs, "calibrate(quick)");
    // Payloads do not matter to the simulator: one graph type for both kinds.
    let graphs = [calu_task_graph(m, n, &p).map(|_, _| ()), caqr_task_graph(m, n, &p).map(|_, _| ())];
    for kind in Kind::BOTH {
        for (cores, real, suffix) in [(1, &measured.at_1, "w1"), (workers, &measured.at_w, "wmax")] {
            let model = MachineModel::new(cores, calib.clone());
            let (simulated, _) = ctx.tracer.time("ca-bench.simulate", || model.run(&graphs[kind as usize]).makespan);
            let real = median(&real[kind as usize]);
            let err = (simulated - real) / real;
            let note = format!("|(simulated - measured) / measured|, signed {err:+.3}, {cores} core(s)");
            ctx.metrics.put_noted(&format!("ca-bench.{}_sim_err_{suffix}", kind.tag()), err.abs(), &note);
        }
    }
}

// ------------------------------------------------ ca-serve, ca-telemetry

/// The trace through a plain service, through one with telemetry on, and
/// as one-shot calls, interleaved, until `deadline`.
fn serve_layer(ctx: &mut Ctx, deadline: Instant) {
    let (trace, seed, workers) = (ctx.spec.trace, ctx.seed, ctx.workers);
    let jobs = serve::build_trace(&trace, seed);
    // The exposition thread writes the file and siblings of it: give it a
    // directory of its own to delete afterwards.
    let telemetry_dir = out_dir().join(format!("tmp-{}-telemetry", std::process::id()));
    std::fs::create_dir_all(&telemetry_dir).expect("scratch directory inside the checkout");
    let metrics_file = telemetry_dir.join("metrics.prom");
    let plain = serve::start_service(&trace, workers, None);
    let telemetry = TelemetryConfig::default().with_metrics_file(&metrics_file).with_flight_recorder(256);
    let observed = serve::start_service(&trace, workers, Some(telemetry));
    observed.set_tracing(true);
    for svc in [&plain, &observed] {
        serve::service_pass(svc, &trace, &serve::warm_up_jobs(&trace, &jobs), workers);
    }

    // One pass of each, then more in turn while time remains.
    let mut passes: [Vec<serve::Pass>; 3] = Default::default();
    for turn in 0.. {
        if turn >= 3 && Instant::now() >= deadline {
            break;
        }
        let tracer = &mut ctx.tracer;
        let pass = match turn % 3 {
            0 => tracer.time("ca-serve.service_pass", || serve::service_pass(&plain, &trace, &jobs, workers)),
            1 => tracer.time("ca-telemetry.service_pass", || serve::service_pass(&observed, &trace, &jobs, workers)),
            _ => tracer.time("ca-core.oneshot_pass", || serve::oneshot_pass(&trace, &jobs, workers)),
        };
        passes[turn % 3].push(pass.0);
    }
    let [plain_passes, observed_passes, oneshot_passes] = passes;
    let stats = plain.stats();
    plain.shutdown();
    observed.shutdown();
    let _ = std::fs::remove_dir_all(&telemetry_dir);

    let reference = &oneshot_passes[0];
    for (what, passes) in
        [("served", &plain_passes), ("served with telemetry", &observed_passes), ("one-shot", &oneshot_passes)]
    {
        for pass in passes {
            serve::record_pass(&mut ctx.ops, what, pass, reference);
        }
    }

    let metrics = &mut ctx.metrics;
    let throughput =
        |passes: &[serve::Pass]| summarize(&passes.iter().map(|p| jobs.len() as f64 / p.wall_s).collect::<Vec<_>>());
    let (served, oneshot) = (throughput(&plain_passes), throughput(&oneshot_passes));
    metrics.put_summary("ca-serve.jobs_per_s", served);
    metrics.put_summary("ca-serve.oneshot_jobs_per_s", oneshot);
    metrics.put("ca-serve.over_oneshot", served.median / oneshot.median);
    metrics.put("ca-telemetry.overhead_frac", 1.0 - throughput(&observed_passes).median / served.median);

    let pooled = |keep: &dyn Fn(&serve::Job) -> bool| -> Vec<f64> {
        plain_passes.iter().flat_map(|p| serve::latencies(p, &jobs, keep)).map(|s| s * 1e3).collect()
    };
    let all = pooled(&|_| true);
    metrics.put_noted("ca-serve.job_p50_ms", median(&all), &format!("n = {}", all.len()));
    let (p99, used) = tail(&all, 99.0);
    metrics.put_noted(
        "ca-serve.job_p99_ms",
        p99,
        &format!("p{used} of n = {} (ten samples must lie beyond)", all.len()),
    );
    for (class, name) in ["tiny", "mid", "big"].into_iter().enumerate() {
        metrics.put(&format!("ca-serve.{name}_p50_ms"), median(&pooled(&|j| j.class == class)));
    }
    let submits: Vec<f64> =
        plain_passes.iter().flat_map(|p| &p.jobs).filter(|s| s.completed()).map(|s| s.submit_s * 1e6).collect();
    metrics.put("ca-serve.submit_us", median(&submits));

    // The service's own view of the same jobs (warm-up included).
    metrics.put("ca-serve.queue_p50_ms", stats.queue_latency.p50_s * 1e3);
    metrics.put("ca-serve.queue_p99_ms", stats.queue_latency.p99_s * 1e3);
    metrics.put("ca-serve.exec_p50_ms", stats.exec_latency.p50_s * 1e3);
    metrics.put("ca-serve.exec_p99_ms", stats.exec_latency.p99_s * 1e3);
    metrics.put("ca-serve.occupancy", stats.occupancy);
    metrics.put("ca-serve.batched_frac", stats.batched_jobs as f64 / stats.submitted.max(1) as f64);
    metrics.put("ca-serve.rejected", stats.rejected as f64);
    metrics.put("ca-serve.shed", stats.shed as f64);
    metrics.put("ca-serve.failed", stats.failed as f64);

    telemetry_micro(&mut ctx.tracer, metrics);
}

/// Cost of the telemetry primitives on their own.
fn telemetry_micro(tracer: &mut Tracer, metrics: &mut Metrics) {
    const CALLS: usize = 1_000_000;
    let registry = Registry::new();
    let counter = registry.counter("bench_calls_total", "benchmark probe", &[("probe", "counter")]);
    let histogram = registry.histogram("bench_seconds", "benchmark probe", &[("probe", "histogram")], LATENCY_BOUNDS);
    let secs = sample(tracer, "ca-telemetry.counter_inc", Reps { max: 5, cap_s: KERNEL.cap_s }, || {
        for _ in 0..CALLS {
            black_box(&counter).inc();
        }
    });
    metrics.put_summary("ca-telemetry.counter_inc_ns", scaled(&secs, 1e9 / CALLS as f64));
    let secs = sample(tracer, "ca-telemetry.histogram_observe", Reps { max: 5, cap_s: KERNEL.cap_s }, || {
        for i in 0..CALLS {
            black_box(&histogram).observe(1e-4 * (1 + i % 64) as f64);
        }
    });
    metrics.put_summary("ca-telemetry.hist_observe_ns", scaled(&secs, 1e9 / CALLS as f64));
    let secs = sample(tracer, "ca-telemetry.snapshot", Reps { max: 100, cap_s: KERNEL.cap_s }, || {
        drop(black_box(registry.snapshot()))
    });
    metrics.put_summary("ca-telemetry.snapshot_us", scaled(&secs, 1e6));
}

// ----------------------------------------------------------------- ca-ooc

/// Out-of-core factorizations of `spec.ooc`, the raw store bandwidth, and
/// the plain in-core run of the same shape they are read against.
fn ooc_layer(ctx: &mut Ctx, deadline: Instant, dense_seq_secs: &[Vec<f64>; 2]) {
    let (shape, seed, workers) = (ctx.spec.ooc, ctx.seed, ctx.workers);
    let problem = ooc::Problem::create(&shape, seed, workers);
    let store = &problem.store;
    let reps = problem.measure_pairs(&mut ctx.tracer, &mut ctx.ops, 1, deadline);
    let tracer = &mut ctx.tracer;
    let metrics = &mut ctx.metrics;

    // The same shape in core, single thread (the workload's own sequential
    // rows when the shapes coincide).
    let incore_secs: [f64; 2] = if ctx.spec.dense == shape.as_dense() {
        [median(&dense_seq_secs[0]), median(&dense_seq_secs[1])]
    } else {
        let a = dense::generate(&shape.as_dense(), seed);
        let p1 = ooc::params(&shape, 1);
        Kind::BOTH.map(|kind| {
            let span = format!("ca-core.{}_seq", kind.entry());
            best(sample_with(
                tracer,
                &span,
                Reps { max: 2, cap_s: 1.0 },
                || a.clone(),
                |a| run_sequential(kind, a, &p1),
            ))
        })
    };

    for kind in Kind::BOTH {
        let tag = kind.tag();
        let reps = &reps[kind as usize];
        let last = reps.last().expect("at least one repetition");
        let column = |f: &dyn Fn(&ooc::Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        // Byte and load counts repeat exactly; the last repetition speaks for all.
        let moved = (last.io.bytes_read + last.io.bytes_written) as f64;
        metrics.put_noted(&format!("ca-ooc.{tag}_bytes_read"), last.io.bytes_read as f64, "exact");
        metrics.put_noted(&format!("ca-ooc.{tag}_bytes_written"), last.io.bytes_written as f64, "exact");
        metrics.put_noted(&format!("ca-ooc.{tag}_panel_loads"), last.io.panel_loads as f64, "exact");
        metrics.put_noted(&format!("ca-ooc.{tag}_superpanels"), last.superpanels as f64, "exact");
        let note = format!(
            "(read + written) / lower bound of arXiv 0806.2159 at a {} MiB budget, exact",
            shape.budget_bytes >> 20
        );
        metrics.put_noted(&format!("ca-ooc.{tag}_io_ratio"), moved / ooc::io_lower_bound(&shape, kind), &note);
        metrics.put_summary(&format!("ca-ooc.{tag}_load_s"), summarize(&column(&|r| r.io.load_seconds)));
        metrics.put_summary(&format!("ca-ooc.{tag}_io_time_frac"), summarize(&column(&|r| r.io.load_seconds / r.secs)));
        let secs = median(&column(&|r| r.secs));
        metrics.put_noted(
            &format!("ca-ooc.{tag}_vs_incore"),
            incore_secs[kind as usize] / secs,
            "out-of-core GF/s over sequential in-core GF/s",
        );
    }
    let all: Vec<&ooc::Rep> = reps.iter().flatten().collect();
    metrics.put_summary("ca-ooc.import_s", summarize(&all.iter().map(|r| r.import_s).collect::<Vec<_>>()));
    metrics.put_summary("ca-ooc.probe_s", summarize(&all.iter().map(|r| r.probe_s).collect::<Vec<_>>()));

    // Raw panel transfers. The file was just written, so this is page-cache
    // bandwidth, not the disk's.
    let bytes = (shape.n * shape.n * 8) as f64;
    let mut panels = Vec::new();
    let secs = sample(tracer, "ca-ooc.read_panel", Reps { max: 3, cap_s: 1.0 }, || {
        panels = (0..store.num_panels()).map(|j| store.read_panel(j).expect("read_panel")).collect();
    });
    metrics.put_noted("ca-ooc.read_gbs", bytes / median(&secs) / 1e9, "page cache, not disk");
    let secs = sample(tracer, "ca-ooc.write_panel", Reps { max: 3, cap_s: 1.0 }, || {
        for (j, panel) in panels.iter().enumerate() {
            store.write_panel(j, panel).expect("write_panel");
        }
    });
    metrics.put_noted("ca-ooc.write_gbs", bytes / median(&secs) / 1e9, "page cache, not disk");
}

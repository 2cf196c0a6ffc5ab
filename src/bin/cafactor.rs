//! `cafactor` — command-line driver for the ca-factor library.
//!
//! ```text
//! cafactor factor lu  --random 20000 100 --b 100 --tr 8 --threads 4
//! cafactor factor qr  --input A.mtx --tree flat --output R.mtx
//! cafactor verify lu  --random 1024 1024 --b 64 --threads 4
//! cafactor solve      --input A.mtx --rhs b.mtx --refine
//! cafactor serve      --jobs 32 --threads 4 --capacity 16 --policy block
//! cafactor info       --input A.mtx
//! ```
//!
//! Matrices are Matrix Market files (dense `array` or sparse `coordinate`).

use ca_factor::baselines::{tiled_qr_plan, BlockedLuPlan, BlockedQrPlan, TiledLuPlan};
use ca_factor::core::{try_calu_with, try_caqr_with, CaluPlan, CaqrPlan, FactorOptions};
use ca_factor::kernels::Kernel;
use ca_factor::matrix::io::{read_matrix_market_file, write_matrix_market_file};
use ca_factor::matrix::{norm_one, random_uniform, seeded_rng, Matrix};
use ca_factor::prelude::*;
use ca_factor::sched::{verify_graph_with, Plan, VerifyOptions};
use std::process::exit;
use std::time::Instant;

/// Distinct exit code per numerical-failure class (`2` stays usage errors,
/// `1` I/O errors).
fn exit_code(e: &FactorError) -> i32 {
    match e {
        FactorError::NonFiniteInput { .. } => 3,
        FactorError::ZeroPivot { .. } => 4,
        FactorError::GrowthExplosion { .. } => 5,
        FactorError::TaskFailed { .. } => 6,
        FactorError::Soundness { violation } => soundness_exit_code(violation),
        FactorError::Corrupted { .. } => 10,
        FactorError::Io { .. } => 1,
    }
}

/// Distinct exit code per service-failure class: silent corruption → 10,
/// deadline miss → 11, shed → 12; task faults and invalid inputs reuse the
/// factorization codes.
fn serve_exit_code(e: &ca_factor::serve::ServeError) -> i32 {
    use ca_factor::serve::ServeError;
    match e {
        ServeError::Corrupted { .. } => 10,
        ServeError::DeadlineExceeded => 11,
        ServeError::Shed => 12,
        ServeError::Failed { .. } => 6,
        ServeError::Invalid(inner) => exit_code(inner),
        _ => 1,
    }
}

/// Exit code per soundness-violation class: static DAG violations → 7,
/// overlapping views of one task body → 8, out-of-footprint accesses → 9.
fn soundness_exit_code(v: &ca_factor::sched::SoundnessError) -> i32 {
    use ca_factor::sched::SoundnessError;
    match v {
        SoundnessError::Race { .. } => 8,
        SoundnessError::UndeclaredAccess { .. } => 9,
        _ => 7,
    }
}

fn fail(e: &FactorError) -> ! {
    eprintln!("cafactor: {e}");
    exit(exit_code(e))
}

/// Working precision of the factorization (`--precision f32|f64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Precision {
    F32,
    F64,
}

struct Opts {
    input: Option<String>,
    rhs: Option<String>,
    output: Option<String>,
    random: Option<(usize, usize)>,
    b: usize,
    tr: usize,
    threads: usize,
    tree: TreeShape,
    seed: u64,
    refine: bool,
    /// `--precision f32|f64`: element type `factor` runs in, on the same
    /// path either way. `solve`, `serve` and `verify` are f64-only.
    precision: Precision,
    /// `verify --lint-edges`: run the edge-minimality and dataflow lint
    /// passes on top of the happens-before closure.
    lint_edges: bool,
    /// `--profile[=FILE]`: print the run's scheduler report and write its
    /// Chrome-trace JSON to FILE. For `serve`, the file is a combined
    /// object: `{"serviceStats": …, "traceEvents": […]}`.
    profile: Option<String>,
    /// `serve`: number of demo jobs to submit.
    jobs: usize,
    /// `serve`: bounded-queue capacity.
    capacity: usize,
    /// `serve`: admission policy at capacity.
    policy: ca_factor::serve::AdmissionPolicy,
    /// `serve`: run factorizations at or below this dimension as one
    /// sequential task (`0` = every job takes the DAG route).
    batch: usize,
    /// `serve`: per-job deadline in milliseconds (`0` = none).
    deadline_ms: u64,
    /// `serve --retry N`: run every job's recovery ladder with N whole-plan
    /// replays (after the default task-level replay and integrity probe).
    retry: Option<usize>,
    /// `serve --chaos[=SEED]`: run the workload as a seeded chaos drill.
    chaos: Option<u64>,
    /// `serve --metrics[=FILE]`: periodic Prometheus/JSON exposition of the
    /// service's registry — the same series `ServiceStats` is a view of, so
    /// label-summed families equal the `serviceStats` of `--profile`.
    metrics: Option<String>,
    /// `serve --metrics-interval MS`: exposition period.
    metrics_interval_ms: u64,
    /// `serve --flight-recorder[=DEPTH]`: per-worker flight recorder.
    flight_recorder: Option<usize>,
    /// `serve --dump-dir DIR`: where flight dumps land.
    dump_dir: Option<String>,
    /// `serve --max-dumps N`: lifetime cap on flight-dump files.
    max_dumps: usize,
    /// `serve --tenants N`: label demo jobs round-robin over N tenants.
    tenants: usize,
    /// `factor --out-of-core`: stream the factorization through an on-disk
    /// tile store instead of holding the matrix in RAM.
    out_of_core: bool,
    /// `factor --memory-budget BYTES`: resident-memory cap for the
    /// out-of-core path (default 256 MiB).
    memory_budget: usize,
    /// `factor --store FILE`: tile-store file for `--out-of-core`
    /// (default: a temp file, removed afterwards).
    store: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            input: None,
            rhs: None,
            output: None,
            random: None,
            b: 100,
            tr: 4,
            threads: 4,
            tree: TreeShape::Binary,
            seed: 42,
            refine: false,
            precision: Precision::F64,
            lint_edges: false,
            profile: None,
            jobs: 32,
            capacity: 16,
            policy: ca_factor::serve::AdmissionPolicy::Block,
            batch: 0,
            deadline_ms: 0,
            retry: None,
            chaos: None,
            metrics: None,
            metrics_interval_ms: 500,
            flight_recorder: None,
            dump_dir: None,
            max_dumps: 8,
            tenants: 0,
            out_of_core: false,
            memory_budget: 256 << 20,
            store: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cafactor <factor lu|factor qr|verify lu|verify qr|solve|serve|top|info> [flags]\n\
         flags: --input FILE.mtx | --random M N   matrix source\n\
                --rhs FILE.mtx                    right-hand side (solve)\n\
                --output FILE.mtx                 write factors/solution\n\
                --b B --tr TR --threads T         CALU/CAQR parameters\n\
                --tree binary|flat|kary:K|hybrid:W  reduction tree\n\
                --seed S --refine\n\
                --precision f32|f64               working precision of\n\
                                                  factor (f64)\n\
                --out-of-core                     factor through an on-disk\n\
                                                  tile store (left-looking,\n\
                                                  bitwise-identical factors)\n\
                --memory-budget BYTES             resident-memory cap for\n\
                                                  --out-of-core (256 MiB)\n\
                --store FILE                      tile-store file to keep\n\
                                                  (default: temp, removed)\n\
         verify: --lint-edges                     minimality lints: flag\n\
                                                  unnecessary / transitively\n\
                                                  redundant edges (exit 13)\n\
                --profile[=FILE.json]             scheduler profile report +\n\
                                                  Chrome trace (factor/serve;\n\
                                                  default profile_trace.json)\n\
         serve: --jobs J                          demo jobs to submit (32)\n\
                --capacity C                      bounded queue capacity (16)\n\
                --policy reject|block|shed        admission policy (block)\n\
                --batch DIM                       run jobs ≤ DIM as one\n\
                                                  sequential task (0=off)\n\
                --deadline MS                     per-job deadline (0=none)\n\
                --retry N                         recovery ladder: task replay\n\
                                                  + integrity probe + N\n\
                                                  whole-plan replays\n\
                --chaos[=SEED]                    seeded fault-injection drill\n\
                                                  (1% fail, 0.5% panic,\n\
                                                  0.1% silent corruption)\n\
                --metrics[=FILE]                  periodic Prometheus snapshot\n\
                                                  to FILE + FILE.json (default\n\
                                                  metrics.prom) of the series\n\
                                                  the printed stats are\n\
                                                  computed from\n\
                --metrics-interval MS             exposition period (500)\n\
                --flight-recorder[=DEPTH]         per-worker event ring, dumped\n\
                                                  on failures (depth 256)\n\
                --dump-dir DIR --max-dumps N      flight-dump location and\n\
                                                  lifetime cap (8)\n\
                --tenants N                       label demo jobs round-robin\n\
                                                  over N tenants\n\
         top:   cafactor top FILE                 pretty-print a metrics\n\
                                                  snapshot (FILE or FILE.json)"
    );
    exit(2)
}

fn parse_tree(s: &str) -> TreeShape {
    match s {
        "binary" => TreeShape::Binary,
        "flat" => TreeShape::Flat,
        other => {
            if let Some(k) = other.strip_prefix("kary:") {
                TreeShape::Kary(k.parse().unwrap_or_else(|_| usage()))
            } else if let Some(w) = other.strip_prefix("hybrid:") {
                TreeShape::Hybrid { flat_width: w.parse().unwrap_or_else(|_| usage()) }
            } else {
                usage()
            }
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().map(|s| s.to_string()).unwrap_or_else(|| usage());
        match a.as_str() {
            "--input" => o.input = Some(next()),
            "--rhs" => o.rhs = Some(next()),
            "--output" => o.output = Some(next()),
            "--random" => {
                let m = next().parse().unwrap_or_else(|_| usage());
                let n = next().parse().unwrap_or_else(|_| usage());
                o.random = Some((m, n));
            }
            "--b" => o.b = next().parse().unwrap_or_else(|_| usage()),
            "--tr" => o.tr = next().parse().unwrap_or_else(|_| usage()),
            "--threads" => o.threads = next().parse().unwrap_or_else(|_| usage()),
            "--tree" => o.tree = parse_tree(&next()),
            "--seed" => o.seed = next().parse().unwrap_or_else(|_| usage()),
            "--precision" => {
                o.precision = match next().as_str() {
                    "f32" => Precision::F32,
                    "f64" => Precision::F64,
                    _ => usage(),
                }
            }
            "--lint-edges" => o.lint_edges = true,
            "--refine" => o.refine = true,
            "--out-of-core" => o.out_of_core = true,
            "--memory-budget" => {
                o.memory_budget = next().parse().unwrap_or_else(|_| usage())
            }
            "--store" => o.store = Some(next()),
            "--jobs" => o.jobs = next().parse().unwrap_or_else(|_| usage()),
            "--capacity" => o.capacity = next().parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                o.policy = match next().as_str() {
                    "reject" => ca_factor::serve::AdmissionPolicy::Reject,
                    "block" => ca_factor::serve::AdmissionPolicy::Block,
                    "shed" => ca_factor::serve::AdmissionPolicy::ShedOldest,
                    _ => usage(),
                }
            }
            "--batch" => o.batch = next().parse().unwrap_or_else(|_| usage()),
            "--deadline" => o.deadline_ms = next().parse().unwrap_or_else(|_| usage()),
            "--retry" => o.retry = Some(next().parse().unwrap_or_else(|_| usage())),
            "--chaos" => o.chaos = Some(0xC0FFEE),
            s if s.starts_with("--chaos=") => {
                o.chaos = Some(s["--chaos=".len()..].parse().unwrap_or_else(|_| usage()))
            }
            "--metrics" => o.metrics = Some("metrics.prom".to_string()),
            s if s.starts_with("--metrics=") => {
                o.metrics = Some(s["--metrics=".len()..].to_string())
            }
            "--metrics-interval" => {
                o.metrics_interval_ms = next().parse().unwrap_or_else(|_| usage())
            }
            "--flight-recorder" => o.flight_recorder = Some(256),
            s if s.starts_with("--flight-recorder=") => {
                o.flight_recorder =
                    Some(s["--flight-recorder=".len()..].parse().unwrap_or_else(|_| usage()))
            }
            "--dump-dir" => o.dump_dir = Some(next()),
            "--max-dumps" => o.max_dumps = next().parse().unwrap_or_else(|_| usage()),
            "--tenants" => o.tenants = next().parse().unwrap_or_else(|_| usage()),
            "--profile" => o.profile = Some("profile_trace.json".to_string()),
            s if s.starts_with("--profile=") => {
                o.profile = Some(s["--profile=".len()..].to_string())
            }
            _ => usage(),
        }
    }
    o
}

/// Exit 2 with `why` if `--precision f32` was given to an f64-only command.
fn f64_only(o: Opts, why: &str) -> Opts {
    if o.precision == Precision::F32 {
        eprintln!("cafactor: {why}");
        exit(2)
    }
    o
}

fn load_matrix(o: &Opts) -> Matrix {
    let a = read_or_generate(o);
    if a.nrows() == 0 || a.ncols() == 0 {
        eprintln!("cafactor: the matrix must be non-empty (got {}x{})", a.nrows(), a.ncols());
        exit(2)
    }
    a
}

fn read_or_generate(o: &Opts) -> Matrix {
    if let Some(path) = &o.input {
        match read_matrix_market_file(path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                exit(1)
            }
        }
    } else if let Some((m, n)) = o.random {
        random_uniform(m, n, &mut seeded_rng(o.seed))
    } else {
        eprintln!("need --input or --random");
        usage()
    }
}

/// Exits 2 with a one-line message unless `value >= min`.
fn require_at_least(flag: &str, value: usize, min: usize) {
    if value < min {
        eprintln!("cafactor: {flag} must be at least {min}");
        exit(2)
    }
}

fn params(o: &Opts, n: usize) -> CaParams {
    let fan_in = match o.tree {
        TreeShape::Kary(k) => k,
        TreeShape::Hybrid { flat_width } => flat_width,
        TreeShape::Binary | TreeShape::Flat => 2,
    };
    for (flag, value, min) in [
        ("--b", o.b, 1),
        ("--tr", o.tr, 1),
        ("--threads", o.threads, 1),
        ("the --tree fan-in", fan_in, 2),
    ] {
        require_at_least(flag, value, min);
    }
    let mut p = CaParams::new(o.b.min(n.max(1)), o.tr, o.threads);
    p.tree = o.tree;
    p
}

/// Prints the scheduler report and writes the Chrome trace for `--profile`.
fn report_profile(profile: &ca_factor::sched::Profile, path: &str) {
    print!("{}", profile.metrics());
    match std::fs::write(path, profile.chrome_trace()) {
        Ok(()) => println!("profile trace written to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        }
    }
}

/// Where `--out-of-core` keeps its tile store: `--store FILE`, or a
/// process-unique temp file that is removed after the run.
fn ooc_store_path(o: &Opts) -> (std::path::PathBuf, bool) {
    match &o.store {
        Some(f) => (f.into(), true),
        None => (
            std::env::temp_dir().join(format!("cafactor_ooc_{}.castore", std::process::id())),
            false,
        ),
    }
}

/// `factor lu|qr --out-of-core`: import the matrix into a `TileStore`,
/// run the left-looking driver under `--memory-budget`, and verify with
/// the streamed `O(n²)` probes instead of a dense residual. Reports the
/// factorization's measured I/O volume against the sequential
/// communication lower bound (arXiv 0806.2159).
fn cmd_factor_ooc(o: &Opts, qr: bool) {
    let a = load_matrix(o);
    let p = params(o, a.ncols());
    let (path, keep) = ooc_store_path(o);

    fn run<T: Kernel>(
        a: &Matrix<T>,
        o: &Opts,
        p: &CaParams,
        path: &std::path::Path,
        keep: bool,
        qr: bool,
    ) {
        use ca_factor::kernels::traffic::{ooc_lu_lower_bound, ooc_qr_lower_bound};
        use ca_factor::ooc::{ooc_calu, ooc_caqr, probe, TileStore};
        let (m, n) = (a.nrows(), a.ncols());
        let store =
            TileStore::<T>::create(path, m, n, p.b).unwrap_or_else(|e| fail(&e));
        store.import_matrix(a).unwrap_or_else(|e| fail(&e));

        // Streamed probe baseline before the factors overwrite the store.
        let x: Vec<f64> = {
            let xm = random_uniform(n, 1, &mut seeded_rng(o.seed ^ 0x0b5e));
            (0..n).map(|i| xm[(i, 0)]).collect()
        };
        let (want, a_fro) = probe::stream_matvec(&store, &x).unwrap_or_else(|e| fail(&e));

        let name = if qr { "CAQR" } else { "CALU" };
        let flops = if qr {
            ca_factor::kernels::flops::geqrf(m, n.min(m))
        } else {
            ca_factor::kernels::flops::getrf(m, n.min(m))
        };
        let t0 = Instant::now();
        let (plan, io, got) = if qr {
            let f = ooc_caqr(&store, p, o.memory_budget).unwrap_or_else(|e| fail(&e));
            let got =
                probe::qr_probe_apply(&store, &f.panels, &x).unwrap_or_else(|e| fail(&e));
            (f.plan, f.io, got)
        } else {
            let f = ooc_calu(&store, p, o.memory_budget).unwrap_or_else(|e| fail(&e));
            if let Some(col) = f.breakdown {
                eprintln!("note: exact zero pivot at column {col} (factors still usable)");
            }
            let got =
                probe::lu_probe_apply(&store, &f.pivots, &x).unwrap_or_else(|e| fail(&e));
            (f.plan, f.io, got)
        };
        let dt = t0.elapsed().as_secs_f64();
        let residual = probe::probe_residual(&got, &want, a_fro, &x);

        let moved = (io.bytes_read + io.bytes_written) as f64;
        let bound = if qr {
            ooc_qr_lower_bound(m, n, o.memory_budget, T::BYTES)
        } else {
            ooc_lu_lower_bound(m, n, o.memory_budget, T::BYTES)
        };
        println!(
            "{name}[{}] {m}x{n} out-of-core  b={} Tr={} budget={}MiB  superpanel w={} x{}  \
             {dt:.3}s  {:.2} GFlop/s",
            T::NAME,
            p.b,
            p.tr,
            o.memory_budget >> 20,
            plan.w,
            plan.nsuper,
            flops / dt / 1e9,
        );
        println!(
            "  io: read {:.1} MiB, wrote {:.1} MiB, {} panel loads ({:.3}s)  \
             {:.2}x of the sequential lower bound",
            io.bytes_read as f64 / (1u64 << 20) as f64,
            io.bytes_written as f64 / (1u64 << 20) as f64,
            io.panel_loads,
            io.load_seconds,
            moved / bound,
        );
        println!("  probe residual={residual:.2e}  (streamed O(n^2) verification)");
        if let Some(out) = &o.output {
            let f = store.export_matrix().unwrap_or_else(|e| fail(&e));
            write_matrix_market_file(out, &f.to_f64()).expect("write output");
            println!("packed factors written to {out}");
        }
        if keep {
            println!("tile store kept at {}", path.display());
        } else {
            drop(store);
            std::fs::remove_file(path).ok();
        }
    }

    match o.precision {
        Precision::F64 => run::<f64>(&a, o, &p, &path, keep, qr),
        Precision::F32 => {
            run::<f32>(&Matrix::<f32>::from_f64(&a), o, &p, &path, keep, qr)
        }
    }
}

/// `factor lu|qr`: one body for both algorithms and both precisions.
fn cmd_factor(o: &Opts, qr: bool) {
    if o.out_of_core {
        return cmd_factor_ooc(o, qr);
    }
    fn run<T: Kernel>(a: &Matrix<T>, o: &Opts, qr: bool) {
        use ca_factor::kernels::flops::{geqrf, getrf};
        let (m, n) = (a.nrows(), a.ncols());
        let p = params(o, n);
        let opts = FactorOptions::default();
        let t0 = Instant::now();
        // Factor, stop the clock, then measure: (executor report, seconds,
        // accuracy columns, what `--output` writes).
        let (report, dt, accuracy, (what, out)) = if qr {
            let (f, report) = try_caqr_with(a.clone(), &p, &opts).unwrap_or_else(|e| fail(&e));
            let dt = t0.elapsed().as_secs_f64();
            let accuracy =
                format!("residual={:.2e}  orthogonality={:.2e}", f.residual(a), f.orthogonality());
            (report, dt, accuracy, ("R", f.r()))
        } else {
            let (f, report) = try_calu_with(a.clone(), &p, &opts).unwrap_or_else(|e| fail(&e));
            let dt = t0.elapsed().as_secs_f64();
            if !f.stats.fallback_panels.is_empty() {
                eprintln!(
                    "note: {} panel(s) refactored with plain GEPP (tournament instability), max growth {:.2e}",
                    f.stats.fallback_panels.len(),
                    f.stats.max_growth()
                );
            }
            (report, dt, format!("residual={:.2e}", f.residual(a)), ("packed L\\U", f.lu))
        };
        if let Some(trace) = &o.profile {
            report_profile(&report.profile(), trace);
        }
        let name = if qr { "CAQR" } else { "CALU" };
        let tag = if T::NAME == "f64" { String::new() } else { format!("[{}]", T::NAME) };
        let gf = if qr { geqrf(m, n.min(m)) } else { getrf(m, n.min(m)) } / dt / 1e9;
        println!(
            "{name}{tag} {m}x{n}  b={} Tr={} tree={:?} threads={}  {dt:.3}s  {gf:.2} GFlop/s  \
             tasks={}  {accuracy}",
            p.b, p.tr, p.tree, p.threads, report.stats.tasks,
        );
        if let Some(path) = &o.output {
            write_matrix_market_file(path, &out.to_f64()).expect("write output");
            println!("{what} written to {path}");
        }
    }
    let a = load_matrix(o);
    match o.precision {
        Precision::F64 => run(&a, o, qr),
        Precision::F32 => run(&Matrix::<f32>::from_f64(&a), o, qr),
    }
}

fn cmd_solve(o: &Opts) {
    let a = load_matrix(o);
    let n = a.nrows();
    if a.ncols() != n {
        eprintln!("solve needs a square matrix, got {}x{}", n, a.ncols());
        exit(1);
    }
    let rhs = match &o.rhs {
        Some(path) => read_matrix_market_file(path).unwrap_or_else(|e| {
            eprintln!("cannot read rhs: {e}");
            exit(1)
        }),
        None => {
            // Synthesize b = A·1 so the expected solution is all-ones.
            let ones = Matrix::from_fn(n, 1, |_, _| 1.0);
            a.matmul(&ones)
        }
    };
    let p = params(o, n);
    let f = try_calu(a.clone(), &p).unwrap_or_else(|e| {
        if matches!(e, FactorError::ZeroPivot { .. }) {
            eprintln!("cafactor: rcond = 0 (exactly singular)");
        }
        fail(&e)
    });
    let rcond = f.rcond_estimate(norm_one(a.view()));
    let (x, info) = if o.refine {
        let (x, info) = f.solve_refined(&a, &rhs, 5);
        (x, Some(info))
    } else {
        let x = f.try_solve(&rhs).unwrap_or_else(|e| fail(&e));
        (x, None)
    };
    let r = rhs.sub_matrix(&a.matmul(&x));
    println!(
        "solved {n}x{n} with {} rhs column(s): ‖b−Ax‖∞={:.2e}  rcond≈{rcond:.2e}",
        rhs.ncols(),
        ca_factor::matrix::norm_inf(r.view()),
    );
    if let Some(info) = info {
        println!(
            "refinement: {} step(s), backward error {:.2e}, converged: {}",
            info.iterations, info.final_backward_error, info.converged
        );
    }
    if let Some(out) = &o.output {
        write_matrix_market_file(out, &x).expect("write output");
        println!("solution written to {out}");
    }
}

/// `cafactor verify lu|qr`: static DAG soundness verification followed by a
/// checked execution in which every element access is audited against the
/// builder's declared footprints. The tiled PLASMA-style and blocked
/// baselines of the same shape, wide ones included, are verified alongside
/// (tiled LU's `gessm` reads the diagonal tile's copy from a slot while
/// `tstrf` rewrites the tile; tiled QR is CAQR's plan over a tile chain,
/// with CAQR's block footprints); every edge of every graph is inferred
/// from a footprint, side-storage slots included, and `--lint-edges` holds
/// each one to the minimality passes. Exit code
/// 7 for a static violation, 8 for a runtime race, 9 for an
/// out-of-footprint access, 13 when every graph is sound but the lint
/// flags removable edges.
fn cmd_verify(sub: &str, o: &Opts) {
    let a = load_matrix(o);
    let (m, n) = (a.nrows(), a.ncols());
    let p = params(o, n);
    let vopts = VerifyOptions { lint_edges: o.lint_edges };

    /// Proves one plan; returns its minimality findings. The lookahead rule
    /// is CALU/CAQR's claim, not the baselines' (tiled LU has no lookahead
    /// on purpose, the blocked ones are fork-join), so a baseline's report
    /// goes out without those warnings.
    fn findings<F>(name: &str, plan: Plan<f64, F>, baseline: bool, vopts: &VerifyOptions) -> usize {
        let mut report = verify_graph_with(plan.graph(), plan.access(), vopts)
            .unwrap_or_else(|v| {
                eprintln!("cafactor: static soundness violation ({name}): {v}");
                exit(soundness_exit_code(&v))
            });
        if baseline {
            report.lookahead_warnings.clear();
        }
        println!("static verify {name}: {report}");
        report.lint.as_ref().map_or(0, |l| l.minimality_findings())
    }
    let (b, strips) = (p.b, p.threads);
    let ca = format!("{sub} {m}x{n}  b={b} Tr={} tree={:?}", p.tr, p.tree);
    let baseline = |kind: &str| format!("{kind} {} baseline {m}x{n}  b={b}", sub.to_uppercase());
    let minimality_findings = match sub {
        "lu" => {
            findings(&ca, CaluPlan::build(m, n, &p), false, &vopts)
                + findings(&baseline("tiled"), TiledLuPlan::build(m, n, b), true, &vopts)
                + findings(&baseline("blocked"), BlockedLuPlan::build(m, n, b, strips), true, &vopts)
        }
        "qr" => {
            findings(&ca, CaqrPlan::build(m, n, &p), false, &vopts)
                + findings(&baseline("tiled"), tiled_qr_plan(m, n, b), true, &vopts)
                + findings(&baseline("blocked"), BlockedQrPlan::build(m, n, b, strips), true, &vopts)
        }
        _ => usage(),
    };
    if minimality_findings > 0 {
        eprintln!(
            "cafactor: graphs are sound but the minimality lint flagged \
             {minimality_findings} removable edge(s)"
        );
        exit(13);
    }
    let checked = FactorOptions { checked: true, ..Default::default() };
    let t0 = Instant::now();
    match sub {
        "lu" => {
            let (f, report) = try_calu_with(a.clone(), &p, &checked).unwrap_or_else(|e| fail(&e));
            let dt = t0.elapsed().as_secs_f64();
            println!(
                "checked CALU run clean: {} tasks, {dt:.3}s, residual={:.2e}",
                report.stats.tasks,
                f.residual(&a),
            );
        }
        "qr" => {
            let (f, report) = try_caqr_with(a.clone(), &p, &checked).unwrap_or_else(|e| fail(&e));
            let dt = t0.elapsed().as_secs_f64();
            println!(
                "checked CAQR run clean: {} tasks, {dt:.3}s, residual={:.2e}",
                report.stats.tasks,
                f.residual(&a),
            );
        }
        _ => unreachable!(),
    }
}

/// One line on a size class from its jobs' own profiles: median queue wait
/// (submission to first task start), median stretch (makespan over the
/// measured critical path: 1.0 never waited for a worker) and the kernel
/// class with the most busy seconds. `None` if none of its jobs ran a task.
fn class_line(n: usize, profiles: &[ca_factor::sched::Profile]) -> Option<String> {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut busy = std::collections::HashMap::new();
    for r in profiles.iter().flat_map(|p| &p.records) {
        *busy.entry(r.class).or_insert(0.0) += r.duration();
    }
    let (class, secs) = busy.iter().max_by(|a, b| a.1.total_cmp(b.1))?;
    Some(format!(
        "  class {n}x{n}: {} job(s)  queue wait p50 {:.2}ms  stretch p50 {:.2}  \
         busiest kernel {class:?} ({:.1}ms)",
        profiles.len(),
        median(profiles.iter().map(|p| p.records[0].start).collect()) * 1e3,
        median(profiles.iter().map(|p| p.makespan / p.critical_path_seconds()).collect()),
        secs * 1e3,
    ))
}

/// `cafactor serve`: starts a persistent factorization service, replays a
/// synthetic mixed LU/QR workload (1 in 4 jobs large, the rest small), and
/// prints the service statistics, then one line per size class from the
/// jobs' own profiles. With `--profile[=FILE]`, writes a combined
/// JSON object `{"serviceStats": …, "traceEvents": […]}` — the trace loads
/// in `chrome://tracing`/Perfetto, and the `serviceStats` member carries the
/// shed/reject/deadline-miss counters alongside it.
fn cmd_serve(o: &Opts) {
    use ca_factor::serve::{
        BatchConfig, ChaosConfig, Retry, ServeError, Service, ServiceConfig, SubmitOptions,
        TelemetryConfig,
    };
    require_at_least("--capacity", o.capacity, 1);
    require_at_least("--threads", o.threads, 1);
    let mut cfg = ServiceConfig::new(o.threads)
        .with_capacity(o.capacity)
        .with_admission(o.policy);
    if o.metrics.is_some() || o.flight_recorder.is_some() {
        let mut t = TelemetryConfig::default()
            .with_interval(std::time::Duration::from_millis(o.metrics_interval_ms.max(1)))
            .with_max_dumps(o.max_dumps);
        if let Some(f) = &o.metrics {
            t = t.with_metrics_file(f);
        }
        if let Some(depth) = o.flight_recorder {
            t = t.with_flight_recorder(depth);
        }
        if let Some(dir) = &o.dump_dir {
            t = t.with_dump_dir(dir);
        }
        cfg = cfg.with_telemetry(t);
    }
    if o.batch > 0 {
        cfg = cfg.with_batching(BatchConfig::up_to(o.batch));
    }
    if o.deadline_ms > 0 {
        cfg = cfg.with_default_deadline(std::time::Duration::from_millis(o.deadline_ms));
    }
    if let Some(n) = o.retry {
        cfg = cfg.with_retry(Retry { replays: n, ..Retry::default() });
    }
    if let Some(seed) = o.chaos {
        cfg = cfg.with_chaos(ChaosConfig::seeded(seed));
        if o.retry.is_none() {
            // A drill without recovery would just fail jobs; default it on.
            cfg = cfg.with_retry(Retry::default());
        }
    }
    let svc = Service::new(cfg);
    if o.profile.is_some() {
        svc.set_tracing(true);
    }
    let mut rng = seeded_rng(o.seed);
    const SIZES: [usize; 2] = [64, 256];
    let mut lu_handles = Vec::new();
    let mut qr_handles = Vec::new();
    let mut invalid = 0u64;
    for i in 0..o.jobs {
        let class = usize::from(i % 4 == 0);
        let n = SIZES[class];
        let p = {
            let mut p = CaParams::new(o.b.min(n), o.tr, 1);
            p.tree = o.tree;
            p
        };
        let mut opts = SubmitOptions::default().with_params(p);
        if o.tenants > 0 {
            opts = opts.with_tenant(format!("tenant-{}", i % o.tenants));
        }
        let r = if i % 2 == 0 {
            svc.submit_lu(random_uniform(n, n, &mut rng), opts).map(|h| lu_handles.push((class, h)))
        } else {
            svc.submit_qr(random_uniform(n, n, &mut rng), opts).map(|h| qr_handles.push((class, h)))
        };
        if let Err(e) = r {
            match e {
                ServeError::Rejected => {} // counted by the service
                _ => invalid += 1,
            }
        }
    }
    // Track the most severe terminal failure so the drill's exit code is
    // scriptable: corruption > task fault > deadline > shed > other.
    let rank = |e: &ServeError| match e {
        ServeError::Corrupted { .. } => 5,
        ServeError::Failed { .. } => 4,
        ServeError::DeadlineExceeded => 3,
        ServeError::Shed => 2,
        _ => 1,
    };
    let mut worst: Option<ServeError> = None;
    let mut note = |r: Result<(), ServeError>| {
        if let Err(e) = r {
            if worst.as_ref().is_none_or(|w| rank(&e) > rank(w)) {
                worst = Some(e);
            }
        }
    };
    // Every job has a profile without having been asked in advance; the
    // handle holds it until `wait` consumes it. A job shed or cancelled
    // before it ran has nothing to report.
    let mut classes = SIZES.map(|_| Vec::new());
    let mut look = |class: usize, profile: Option<ca_factor::sched::Profile>| {
        classes[class].extend(profile.filter(|p| !p.records.is_empty()));
    };
    for (class, h) in lu_handles {
        look(class, h.profile());
        note(h.wait().map(|_| ()));
    }
    for (class, h) in qr_handles {
        look(class, h.profile());
        note(h.wait().map(|_| ()));
    }
    let s = svc.stats();
    let policy = match o.policy {
        ca_factor::serve::AdmissionPolicy::Reject => "reject",
        ca_factor::serve::AdmissionPolicy::Block => "block",
        ca_factor::serve::AdmissionPolicy::ShedOldest => "shed",
    };
    println!(
        "serve: {} job(s) offered to {} worker(s)  capacity={} policy={policy} batch={}",
        o.jobs,
        s.workers,
        s.queue_capacity,
        if o.batch > 0 { format!("≤{}", o.batch) } else { "off".to_string() },
    );
    println!(
        "  submitted={} completed={} failed={} cancelled={} rejected={} shed={} \
         deadline_missed={} invalid={invalid}",
        s.submitted, s.completed, s.failed, s.cancelled, s.rejected, s.shed, s.deadline_missed,
    );
    if s.batched_jobs > 0 {
        println!("  tiny route: {} job(s) ran as one task", s.batched_jobs);
    }
    if o.retry.is_some() || o.chaos.is_some() {
        let t = &s.task_recovery;
        println!(
            "  recovery: job_retries={} jobs_recovered={} corruption_detected={} probes_run={}",
            t.replays, s.jobs_recovered, t.probe_failures, t.probes,
        );
        println!(
            "  tasks: attempts={} retries={} recovered={} exhausted={} restores={}  \
             injected fail/panic/delay/corrupt {}/{}/{}/{}",
            t.attempts,
            t.retries,
            t.recovered_tasks,
            t.exhausted_tasks,
            t.restores,
            t.injected_failures,
            t.injected_panics,
            t.injected_delays,
            t.injected_corruptions,
        );
    }
    println!(
        "  throughput {:.1} jobs/s  occupancy {:.2}  busy {:.3}s / elapsed {:.3}s",
        s.jobs_per_s, s.occupancy, s.busy_s, s.elapsed_s
    );
    let ms = |x: f64| x * 1e3;
    println!(
        "  latency ms  queue p50/p95/p99 {:.2}/{:.2}/{:.2}   exec {:.2}/{:.2}/{:.2}   total {:.2}/{:.2}/{:.2}",
        ms(s.queue_latency.p50_s), ms(s.queue_latency.p95_s), ms(s.queue_latency.p99_s),
        ms(s.exec_latency.p50_s), ms(s.exec_latency.p95_s), ms(s.exec_latency.p99_s),
        ms(s.total_latency.p50_s), ms(s.total_latency.p95_s), ms(s.total_latency.p99_s),
    );
    for line in SIZES.iter().zip(&classes).filter_map(|(&n, class)| class_line(n, class)) {
        println!("{line}");
    }
    if let Some(path) = &o.profile {
        let stats_json = serde_json::to_string(&s).expect("serializable");
        let combined =
            format!("{{\"serviceStats\":{stats_json},\"traceEvents\":{}}}", svc.chrome_trace());
        match std::fs::write(path, combined) {
            Ok(()) => println!("service profile written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            }
        }
    }
    svc.shutdown();
    if let Some(path) = &o.metrics {
        println!("metrics snapshot written to {path} (and {path}.json)");
    }
    if let Some(e) = worst {
        eprintln!("cafactor: worst job outcome: {e}");
        exit(serve_exit_code(&e));
    }
}

fn cmd_info(o: &Opts) {
    let a = load_matrix(o);
    let (m, n) = (a.nrows(), a.ncols());
    println!("matrix {m} x {n}");
    println!("  ‖A‖₁ = {:.4e}", norm_one(a.view()));
    println!("  ‖A‖∞ = {:.4e}", ca_factor::matrix::norm_inf(a.view()));
    println!("  ‖A‖F = {:.4e}", ca_factor::matrix::norm_fro(a.view()));
    if m == n {
        let f = calu(a.clone(), &params(o, n));
        println!("  rcond ≈ {:.4e}", f.rcond_estimate(norm_one(a.view())));
        if let Some(bd) = f.breakdown {
            println!("  exactly singular (zero pivot at column {bd})");
        }
    }
}

fn cmd_top(path: &str) {
    use ca_factor::telemetry::{RegistrySnapshot, SeriesValue};
    // `serve --metrics=FILE` writes Prometheus text to FILE and JSON to
    // FILE.json; accept either name here.
    let json_path = format!("{path}.json");
    let text = std::fs::read_to_string(path)
        .or_else(|_| std::fs::read_to_string(&json_path))
        .unwrap_or_else(|e| {
            eprintln!("cannot read {path} (or {json_path}): {e}");
            exit(1)
        });
    let snap: RegistrySnapshot = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(_) => {
            // FILE itself holds the Prometheus text; retry the JSON sibling.
            let t = std::fs::read_to_string(&json_path).unwrap_or_else(|e| {
                eprintln!("{path} is not a JSON snapshot and {json_path} is unreadable: {e}");
                exit(1)
            });
            serde_json::from_str(&t).unwrap_or_else(|e| {
                eprintln!("cannot parse {json_path}: {e}");
                exit(1)
            })
        }
    };
    let fmt_labels = |labels: &[(String, String)]| {
        if labels.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", parts.join(","))
        }
    };
    let mut series = 0usize;
    for fam in &snap.families {
        println!("{}  ({})", fam.name, fam.help);
        for s in &fam.series {
            series += 1;
            let l = fmt_labels(&s.labels);
            match &s.value {
                SeriesValue::Counter(v) => println!("  {l:<40} {v}"),
                SeriesValue::Gauge(v) => println!("  {l:<40} {v:.6}"),
                SeriesValue::Histogram(h) => {
                    let s = h.summary();
                    println!(
                        "  {l:<40} count={} mean={:.2}ms p50={:.2}ms p95={:.2}ms p99={:.2}ms max={:.2}ms",
                        s.count,
                        s.mean_s * 1e3,
                        s.p50_s * 1e3,
                        s.p95_s * 1e3,
                        s.p99_s * 1e3,
                        s.max_s * 1e3,
                    );
                }
            }
        }
    }
    println!("{} famil(ies), {series} series", snap.families.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest.split_first()) {
            ("factor", Some((sub, rest2))) => {
                let o = parse_opts(rest2);
                match sub.as_str() {
                    "lu" => cmd_factor(&o, false),
                    "qr" => cmd_factor(&o, true),
                    _ => usage(),
                }
            }
            ("verify", Some((sub, rest2))) => {
                cmd_verify(sub, &f64_only(parse_opts(rest2), "verify runs in f64 (the graph it proves does not depend on the precision)"))
            }
            ("solve", _) => {
                cmd_solve(&f64_only(parse_opts(rest), "solve runs in f64 (iterative refinement contract)"))
            }
            ("serve", _) => cmd_serve(&f64_only(parse_opts(rest), "serve jobs are f64 by contract")),
            ("info", _) => cmd_info(&parse_opts(rest)),
            ("top", Some((file, _))) => cmd_top(file),
            _ => usage(),
        },
        None => usage(),
    }
}

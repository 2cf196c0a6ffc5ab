//! Layered benchmark of the ca-factor workspace.
//!
//! `run --workload W --seed S --seconds N --trace 0|1` measures one
//! workload in this process and prints, as the last line of standard
//! output, the result object described in `BENCHMARK.json`'s contract.
//! `run` without `--workload` runs every workload, untraced and traced,
//! in a child process each and writes one result file; `compare A.json
//! B.json` applies each metric's direction and bound to two such files.
//! See `README.md`.

mod checks;
mod dense;
mod layers;
mod ooc;
mod report;
mod serve;
mod spans;
mod spec;
mod stats;
mod untraced;

use report::{Contract, Metrics, RunResult};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seconds of child set-ups a run aims for: a short set-up is repeated
/// more often than a long one, within `SETUP_CHILDREN`.
const SETUP_CHILD_SECONDS: f64 = 4.0;
/// Fewest and most `--setup-only` children of one run.
const SETUP_CHILDREN: (usize, usize) = (4, 12);

/// State of one run of one workload.
pub struct Ctx {
    pub spec: spec::Spec,
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// `W = min(available_parallelism, 2)`: the paper's claims are about
    /// scaling, but rates measured with more workers than cores are noise.
    pub workers: usize,
    /// Start of `main`, from which set-up is timed.
    pub origin: Instant,
    /// A `--setup-only` process stops when its set-up is done.
    setup_only: bool,
    /// Seconds from `origin` to the end of set-up, once it is done.
    setup_s: Option<f64>,
    pub tracer: Tracer,
    pub ops: checks::Ops,
    pub metrics: Metrics,
}

impl Ctx {
    pub fn deadline(&self, from: Instant) -> Instant {
        from + std::time::Duration::from_secs_f64(self.seconds)
    }

    /// Marks the end of an untraced run's set-up. Returns `false` in a
    /// `--setup-only` process, whose caller stops there.
    pub fn set_up_done(&mut self) -> bool {
        self.setup_s = Some(self.origin.elapsed().as_secs_f64());
        !self.setup_only
    }
}

/// `setup_s`: the seconds from the start of `main` to the end of set-up, so
/// that it holds what a process pays once (backend dispatch, pool start-up,
/// first touch of its pages) as well as generation and warm-ups. One
/// reading per run is too few to compare, so the run repeats its set-up in
/// `--setup-only` child processes, one after the other, each timing itself
/// the same way, and reports the median of its own and theirs. The children
/// run after the measurement, when the host has been busy for a while: a
/// set-up that follows an idle spell takes up to twice as long.
fn set_up_summary(args: &Args, workload: &str, own: f64) -> Result<stats::Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let children = ((SETUP_CHILD_SECONDS / own).ceil() as usize).clamp(SETUP_CHILDREN.0, SETUP_CHILDREN.1);
    let mut secs = vec![own];
    for _ in 0..children {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--setup-only", "--workload", workload, "--seed", &args.seed.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let out = cmd.output().map_err(|e| format!("start a set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds = text.trim().parse::<f64>().ok().filter(|_| out.status.success());
        secs.push(seconds.ok_or_else(|| format!("set-up child failed: {}", String::from_utf8_lossy(&out.stderr)))?);
    }
    Ok(stats::summarize(&secs))
}

/// The `<key>: <n> kB` line of a `/proc` status file, in KiB.
pub fn proc_kib(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// `VmHWM` of this process: the peak resident set, in MiB.
fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM").map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 1`: the traced run (per-layer metrics); `--trace 0`: the
    /// untraced one (end-to-end metrics).
    trace: Option<bool>,
    smoke: bool,
    /// Set by a run for its set-up children, see [`set_up_summary`].
    setup_only: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: None, seed: 1, seconds: None, trace: None, smoke: false, setup_only: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--setup-only" => parsed.setup_only = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// Measures one workload in this process. A `--setup-only` child has no
/// result: it printed its set-up seconds.
fn run_workload(
    contract: &Contract,
    args: &Args,
    workload: &str,
    origin: Instant,
) -> Result<Option<RunResult>, String> {
    let spec = spec::spec(workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {workload}; BENCHMARK.json lists {:?}", contract.workloads))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.2 } else { contract.run_seconds });
    let traced = args.trace == Some(true);
    let mut ctx = Ctx {
        spec,
        seed: args.seed,
        seconds,
        workers,
        origin,
        setup_only: args.setup_only,
        setup_s: None,
        tracer: Tracer::new(workload, traced, origin),
        ops: checks::Ops::default(),
        metrics: Metrics::default(),
    };
    if traced {
        layers::run(&mut ctx);
        let trace_path = report::out_dir().join(format!("trace-{workload}.json"));
        report::write_json(&trace_path, &ctx.tracer.chrome_trace())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    } else {
        untraced::run(&mut ctx);
        let own = ctx.setup_s.expect("the workload marked the end of its set-up");
        if args.setup_only {
            println!("{own}");
            return Ok(None);
        }
        ctx.metrics.put_summary("setup_s", set_up_summary(args, workload, own)?);
        ctx.metrics.put("peak_rss_mib", peak_rss_mib());
    }
    let result = RunResult {
        workload: workload.to_string(),
        traced,
        seed: args.seed,
        seconds,
        workers,
        attempted: ctx.ops.attempted,
        failed: ctx.ops.failed,
        failures: ctx.ops.failures,
        metrics: ctx.metrics.list,
        layer_self_s: ctx.tracer.layer_self_seconds(),
    };
    result.check_against(contract)?;
    Ok(Some(result))
}

/// Runs every workload in a child process each, so that one workload's peak
/// memory and warm caches do not leak into the next, and merges their
/// result files: untraced then traced, or only the mode `--trace` names.
fn run_all(contract: &Contract, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args.out.clone().unwrap_or_else(|| report::out_dir().join("result.json"));
    let mut parts = Vec::new();
    let mut all_correct = true;
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    for workload in &contract.workloads {
        for &traced in modes {
            let part = report::out_dir().join(format!("part-{workload}-{}.json", u8::from(traced)));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", workload, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]).arg("--out").arg(&part);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child prints its own table; wait for it before the next starts.
            let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("workload {workload} (traced: {traced}) exited with {status}"));
            }
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            all_correct &= doc["runs"][0]["correct"] == true;
            parts.push(doc);
            let _ = std::fs::remove_file(&part);
        }
    }
    report::write_json(&out, &report::merge(&parts)).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn read_result(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match a.workload.clone() {
            Some(workload) => {
                if let Some(result) = run_workload(&contract, &a, &workload, origin)? {
                    if let Some(path) = &a.out {
                        result.write(&contract, path).map_err(|e| format!("{}: {e}", path.display()))?;
                    }
                    result.print_table(&contract);
                    println!("{}", result.contract_line(&contract));
                }
                Ok(0)
            }
            None => run_all(&contract, &a).map(|correct| if correct { 0 } else { 1 }),
        }),
        Some((cmd, [base, cand])) if cmd == "compare" => {
            read_result(base).and_then(|b| Ok(report::compare(&contract, &b, &read_result(cand)?)))
        }
        _ => Err("usage: run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]\n       compare BASELINE.json CANDIDATE.json".into()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("ca-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

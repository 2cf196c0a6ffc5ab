//! The `serve` workload: a closed loop of clients on a [`Service`], and the
//! same trace as serial one-shot calls.
//!
//! Closed loop: each of `clients` threads submits a job, waits for the
//! reply, and only then takes the next job of the trace, so a slower
//! service receives less load. Latency runs from the submit call to the
//! result being available to the client.

use crate::checks::{guarded, hash_matrix, Factors, Kind, Ops};
use crate::spec::Trace;
use crate::stats::geomean;
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::prelude::*;
use ca_factor::serve::{
    AdmissionPolicy, BatchConfig, JobHandle, ServeError, Service, ServiceConfig, SubmitOptions, TelemetryConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    Lu,
    Qr,
    Solve,
    Lstsq,
}

const KINDS: [JobKind; 4] = [JobKind::Lu, JobKind::Qr, JobKind::Solve, JobKind::Lstsq];

impl JobKind {
    /// The factorization the job runs, which decides its flops.
    pub fn factorization(self) -> Kind {
        match self {
            JobKind::Lu | JobKind::Solve => Kind::Lu,
            JobKind::Qr | JobKind::Lstsq => Kind::Qr,
        }
    }
}

pub struct Job {
    /// Index into [`Trace::classes`].
    pub class: usize,
    pub dim: usize,
    pub kind: JobKind,
    pub a: Matrix,
    pub rhs: Matrix,
}

impl Job {
    pub fn flops(&self) -> f64 {
        self.kind.factorization().flops(self.dim, self.dim)
    }
}

/// The seeded trace: the size and kind mix is exact, the seed decides the
/// order and the matrix entries.
pub fn build_trace(trace: &Trace, seed: u64) -> Vec<Job> {
    let mut rng = seeded_rng(seed);
    let mut slots: Vec<(usize, usize, JobKind)> = Vec::new();
    for (class, &(dim, count)) in trace.classes.iter().enumerate() {
        slots.extend((0..count).map(|i| (class, dim, KINDS[i % 4])));
    }
    let keys = random_uniform(slots.len(), 1, &mut rng);
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by(|&i, &j| keys[(i, 0)].total_cmp(&keys[(j, 0)]));
    order
        .into_iter()
        .map(|i| {
            let (class, dim, kind) = slots[i];
            Job {
                class,
                dim,
                kind,
                a: random_uniform(dim, dim, &mut rng),
                rhs: random_uniform(dim, trace.rhs, &mut rng),
            }
        })
        .collect()
}

fn params(trace: &Trace, dim: usize, workers: usize) -> CaParams {
    CaParams::new(trace.b.min(dim), trace.tr, workers)
}

pub fn start_service(trace: &Trace, workers: usize, telemetry: Option<TelemetryConfig>) -> Service {
    let mut cfg = ServiceConfig::new(workers)
        .with_capacity(trace.capacity)
        .with_admission(AdmissionPolicy::Block)
        .with_batching(BatchConfig::up_to(trace.batch_dim));
    if let Some(t) = telemetry {
        cfg = cfg.with_telemetry(t);
    }
    Service::new(cfg)
}

/// What one job cost its client.
#[derive(Clone, Copy, Default)]
pub struct Served {
    /// Seconds inside the submit call (admission, graph build, enqueue).
    pub submit_s: f64,
    /// Seconds from the submit call to the result.
    pub latency_s: f64,
    /// Bit-hash of the result; `None` when the job failed.
    pub hash: Option<u64>,
}

impl Served {
    pub fn completed(&self) -> bool {
        self.hash.is_some()
    }
}

/// One replay of the trace: per-job outcomes in trace order and wall seconds.
pub struct Pass {
    pub wall_s: f64,
    pub jobs: Vec<Served>,
}

fn await_job<T>(
    t0: Instant,
    handle: Result<JobHandle<T>, ServeError>,
    hash: impl FnOnce(T) -> u64,
) -> Result<Served, String> {
    let handle = handle.map_err(|e| e.to_string())?;
    let submit_s = t0.elapsed().as_secs_f64();
    let out = handle.wait().map_err(|e| e.to_string())?;
    let latency_s = t0.elapsed().as_secs_f64();
    Ok(Served { submit_s, latency_s, hash: Some(hash(out)) })
}

fn serve_one(svc: &Service, job: &Job, p: CaParams) -> Result<Served, String> {
    // Input copies are the client's, made before its clock starts.
    let (a, rhs) = (job.a.clone(), job.rhs.clone());
    let opts = SubmitOptions::default().with_params(p);
    let t0 = Instant::now();
    guarded(|| match job.kind {
        JobKind::Lu => await_job(t0, svc.submit_lu(a, opts), |f| Factors::Lu(f).hash()),
        JobKind::Qr => await_job(t0, svc.submit_qr(a, opts), |f| Factors::Qr(f).hash()),
        JobKind::Solve => await_job(t0, svc.submit_solve(a, rhs, opts), |x| hash_matrix(&x)),
        JobKind::Lstsq => await_job(t0, svc.submit_lstsq(a, rhs, opts), |x| hash_matrix(&x)),
    })?
}

/// The warm-up: the first job of every (size class, kind) pair, so that
/// its cost does not depend on where the seed put the large jobs.
pub fn warm_up_jobs<'j>(trace: &Trace, jobs: &'j [Job]) -> Vec<&'j Job> {
    let pairs = (0..trace.classes.len()).flat_map(|class| KINDS.map(|kind| (class, kind)));
    pairs.filter_map(|(class, kind)| jobs.iter().find(|j| j.class == class && j.kind == kind)).collect()
}

/// Replays `jobs` through the service with `trace.clients` closed-loop clients.
pub fn service_pass<J: std::borrow::Borrow<Job> + Sync>(
    svc: &Service,
    trace: &Trace,
    jobs: &[J],
    workers: usize,
) -> Pass {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<(usize, Served)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..trace.clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i).map(J::borrow) else {
                            break mine;
                        };
                        let served = serve_one(svc, job, params(trace, job.dim, workers));
                        mine.push((i, served.unwrap_or_default()));
                    }
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = vec![Served::default(); jobs.len()];
    for (i, served) in per_client {
        out[i] = served;
    }
    Pass { wall_s, jobs: out }
}

/// The bare-factorization baseline: every job as a serial one-shot call
/// (build graph, start pool, run, join), which is what serving costs
/// without the service layer.
pub fn oneshot_pass(trace: &Trace, jobs: &[Job], workers: usize) -> Pass {
    let t0 = Instant::now();
    let served = jobs
        .iter()
        .map(|job| {
            let p = params(trace, job.dim, workers);
            let a = job.a.clone();
            let t0 = Instant::now();
            let hash = guarded(|| match job.kind {
                JobKind::Lu => Factors::Lu(calu(a, &p)).hash(),
                JobKind::Qr => Factors::Qr(caqr(a, &p)).hash(),
                JobKind::Solve => hash_matrix(&calu(a, &p).solve(&job.rhs)),
                JobKind::Lstsq => hash_matrix(&caqr(a, &p).solve_ls(&job.rhs)),
            });
            Served { submit_s: 0.0, latency_s: t0.elapsed().as_secs_f64(), hash: hash.ok() }
        })
        .collect();
    Pass { wall_s: t0.elapsed().as_secs_f64(), jobs: served }
}

/// Records one operation per job of `pass`: it fails when the job failed
/// or its result differs bitwise from the one-shot result of the same job.
pub fn record_pass(ops: &mut Ops, what: &str, pass: &Pass, reference: &Pass) {
    for (i, (got, want)) in pass.jobs.iter().zip(&reference.jobs).enumerate() {
        let verdict = match (got.hash, want.hash) {
            (Some(g), Some(w)) if g == w => Ok(()),
            (Some(_), Some(_)) => Err("result differs bitwise from the one-shot result".to_string()),
            _ => Err("job failed".to_string()),
        };
        ops.record(&format!("{what} job {i}"), verdict);
    }
}

/// Latencies (seconds) of the completed jobs of `pass` that `keep` selects.
/// A failed job has no latency: it is counted as a failed operation and
/// left out of every timing, so a failure can never read as a fast reply.
pub fn latencies(pass: &Pass, jobs: &[Job], keep: impl Fn(&Job) -> bool) -> Vec<f64> {
    pass.jobs.iter().zip(jobs).filter(|(s, j)| s.completed() && keep(j)).map(|(s, _)| s.latency_s).collect()
}

/// What a client saw of one factorization family in `pass`: the geometric
/// mean over that family's completed jobs of useful flops per second of
/// latency, in GF/s. Every job counts the same whatever its size, so a
/// change that only the 64x64 jobs feel (admission, batching) moves it as
/// far as one that only the 768x768 jobs feel (kernels).
pub fn family_gflops(pass: &Pass, jobs: &[Job], kind: Kind) -> f64 {
    let family = pass.jobs.iter().zip(jobs).filter(|(s, j)| s.completed() && j.kind.factorization() == kind);
    let rates: Vec<f64> = family.map(|(s, j)| j.flops() / s.latency_s / 1e9).collect();
    if rates.is_empty() {
        f64::NAN
    } else {
        geomean(&rates)
    }
}

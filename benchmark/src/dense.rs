//! The in-core workloads (`square`, `tall`): interleaved `calu` / `caqr`
//! of one seeded matrix at `W` workers.

use crate::checks::{factor, guarded, Factors, Kind, Ops};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::spec::Dense;
use crate::stats;
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::prelude::*;
use std::time::Instant;

/// A generated input with the bit-hash of its first LU and QR factors.
pub struct Problem {
    pub a: Matrix,
    pub p: CaParams,
    pub reference: [u64; 2],
    /// The storage of the previous result, which the next input copy
    /// reuses: every repetition then runs on the same pages, and the
    /// harness does not make the kernel zero a fresh matrix per call.
    spare: Option<Matrix>,
}

pub fn generate(shape: &Dense, seed: u64) -> Matrix {
    random_uniform(shape.m, shape.n, &mut seeded_rng(seed))
}

/// One warm-up of each factorization; their hashes become the reference
/// every later result of this input must match bitwise.
pub fn warm_up(a: Matrix, shape: &Dense, workers: usize) -> (Problem, [Factors; 2]) {
    let p = CaParams::new(shape.b, shape.tr, workers);
    let warm = Kind::BOTH.map(|kind| factor(kind, a.clone(), &p));
    let reference = [warm[0].hash(), warm[1].hash()];
    (Problem { a, p, reference, spare: None }, warm)
}

/// Generation plus warm-ups: what a first call pays.
pub fn set_up(shape: &Dense, seed: u64, workers: usize) -> (Problem, [Factors; 2]) {
    warm_up(generate(shape, seed), shape, workers)
}

/// The accuracy gate on the warm-up factors, one operation per kind.
pub fn check_warm_up(ops: &mut Ops, problem: &Problem, warm: &[Factors; 2], seed: u64) {
    for (kind, f) in Kind::BOTH.iter().zip(warm) {
        let verdict = f.accuracy(&problem.a, problem.p.threads, seed).and_then(|()| f.probe(&problem.a, seed));
        ops.record(&format!("{} warm-up", kind.tag()), verdict);
    }
}

/// One timed operation on a copy of the input (made outside the timed
/// region). The result must equal the warm-up result bitwise, which passed
/// the accuracy gate and the probe. Returns the seconds `run` took.
pub fn timed_op(
    tracer: &mut Tracer,
    ops: &mut Ops,
    span: &str,
    problem: &mut Problem,
    kind: Kind,
    run: impl FnOnce(Matrix) -> Factors,
) -> f64 {
    let input = match problem.spare.take() {
        Some(mut m) => {
            m.as_mut_slice().copy_from_slice(problem.a.as_slice());
            m
        }
        None => problem.a.clone(),
    };
    let (out, secs) = tracer.time(span, || guarded(|| run(input)));
    let reference = problem.reference[kind as usize];
    ops.record(
        span,
        out.and_then(|f| {
            let verdict = f.matches(reference);
            problem.spare = Some(f.into_matrix());
            verdict
        }),
    );
    secs
}

/// Interleaves LU and QR repetitions, so a noise burst hits both, until
/// `deadline` and at least `min_pairs` times. Returns seconds per kind.
pub fn measure_pairs(
    tracer: &mut Tracer,
    ops: &mut Ops,
    problem: &mut Problem,
    min_pairs: usize,
    deadline: Instant,
) -> [Vec<f64>; 2] {
    let p = problem.p;
    let mut secs = [Vec::new(), Vec::new()];
    while secs[0].len() < min_pairs || Instant::now() < deadline {
        for kind in Kind::BOTH {
            let span = format!("ca-core.{}", kind.entry());
            let t = timed_op(tracer, ops, &span, problem, kind, |a| factor(kind, a, &p));
            secs[kind as usize].push(t);
        }
    }
    secs
}

/// `lu_gflops`, `qr_gflops`: useful flops over the median repetition's
/// seconds, with the quartiles of the repetitions.
pub fn put_rates(metrics: &mut Metrics, shape: &Dense, secs: &[Vec<f64>; 2]) {
    for kind in Kind::BOTH {
        let summary = stats::rate(kind.flops(shape.m, shape.n), &secs[kind as usize]);
        metrics.put_summary(&format!("{}_gflops", kind.tag()), summary);
    }
}

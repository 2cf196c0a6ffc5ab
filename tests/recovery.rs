//! Recovery-tier integration tests (DESIGN.md §12).
//!
//! The central property — a task that fails, panics, or is delayed mid-graph
//! and is replayed from its write-set snapshot leaves **no trace**, and
//! neither does silent corruption or a task out of replays, which the
//! integrity probe and a whole-plan replay answer — is the `Faults` part of
//! the equivalence matrix (tests/equivalence_table), at every worker count,
//! one-shot and served. Beside it: rate-based chaos, an exhausted budget
//! with no replay left, and chaos without retry.

mod equivalence_table;

use ca_factor::core::{
    calu_serve_graph, try_calu, try_calu_with, FactorError, FactorOptions, LuFactors, Retry,
};
use ca_factor::matrix::{random_uniform, seeded_rng, Matrix};
use ca_factor::prelude::CaParams;
use ca_factor::sched::{
    ChaosPlan, ChaosProfile, JobOptions, JobOutcome, MultiFrontier, RecoveryStats, RetryPolicy,
    TaskKind,
};
use equivalence_table::Part;
use std::sync::Arc;

fn params(threads: usize) -> CaParams {
    CaParams::new(16, 4, threads)
}

/// `try_calu_with` under `retry` and `chaos`: the factors and the run's log fold.
fn calu_recovering(
    a: &Matrix,
    p: &CaParams,
    retry: Retry,
    chaos: ChaosPlan,
) -> Result<(LuFactors, RecoveryStats), FactorError> {
    let opts = FactorOptions { chaos: Some(Arc::new(chaos)), retry: Some(retry), ..Default::default() };
    try_calu_with(a.clone(), p, &opts).map(|(f, report)| (f, report.recovery()))
}

/// The first `Update` fails, the second `Panel` panics, the first `LBlock`
/// is delayed; the first `Update` is silently corrupted; one task fails past
/// its budget: each replay gives the sequential bits, at 1 and 3 workers,
/// one-shot and served, in f64 and f32.
#[test]
fn calu_replay_is_bitwise_identical_across_thread_counts() {
    equivalence_table::lu(Part::Faults);
}

#[test]
fn caqr_replay_is_bitwise_identical_across_thread_counts() {
    equivalence_table::qr(Part::Faults);
}

#[test]
fn profile_rate_chaos_recovers() {
    // Rate-based injection at an aggressive 5% fail / 2% panic across every
    // task class: replay must still converge to the fault-free answer.
    let a = random_uniform(96, 96, &mut seeded_rng(0xFA05));
    let profile = ChaosProfile::quiet().with_fail_rate(0.05).with_panic_rate(0.02);
    let p = params(3);
    let reference = try_calu(a.clone(), &p).expect("fault-free run");
    let plan = ChaosPlan::with_profile(0xD2, profile);
    let (f, s) = calu_recovering(&a, &p, Retry::default(), plan).expect("recovered run");
    assert_eq!(f.lu.as_slice(), reference.lu.as_slice());
    assert!(
        s.injected_failures + s.injected_panics > 0,
        "5%/2% rates over a 6-panel graph must inject something: {s:?}"
    );
}

#[test]
fn exhausted_retry_budget_fails_cleanly() {
    // Every Update attempt fails (rate 1.0 for the class) and no whole-plan
    // replay is left: the first Update to run burns its whole budget and
    // must surface TaskFailed — no hang, no poisoned factors.
    let a = random_uniform(64, 64, &mut seeded_rng(0xFA06));
    let p = params(2);
    let plan = ChaosPlan::quiet(0)
        .with_class_profile(TaskKind::Update, ChaosProfile::quiet().with_fail_rate(1.0));
    let retry = Retry { policy: RetryPolicy::default().with_max_retries(2), replays: 0 };
    match calu_recovering(&a, &p, retry, plan) {
        Err(FactorError::TaskFailed { message, .. }) => {
            assert!(message.contains("chaos: injected failure"), "{message}")
        }
        other => panic!("expected task failure after exhaustion, got {:?}", other.map(|(_, s)| s)),
    }
}

#[test]
fn integrity_probe_catches_injected_corruption() {
    // Silent corruption of one Update output: task replay never fires (the
    // task "succeeds"), and only the probe can tell. With no whole-plan
    // replay left the run fails with the typed error instead of returning
    // the factors (the `Faults` rows replay it).
    let a = random_uniform(96, 96, &mut seeded_rng(0xFA07));
    let p = params(2);
    // Target an Update: those carry matrix write-sets, and later tasks
    // transform the corrupted block in place (they never recompute it from
    // pristine data), so the corruption propagates into the final factors.
    let corrupt = ChaosPlan::quiet(0).corrupt_nth(1, |l| l.kind == TaskKind::Update);
    match calu_recovering(&a, &p, Retry { replays: 0, ..Retry::default() }, corrupt) {
        Err(FactorError::Corrupted { residual, threshold }) => {
            assert!(residual > threshold || !residual.is_finite());
        }
        other => panic!("probe must flag corrupted factors, got {:?}", other.map(|(_, s)| s)),
    }
}

#[test]
fn chaos_without_retry_means_the_same_one_shot_and_served() {
    // One `FactorOptions` value, two owners of the workers: `try_calu_with`
    // runs the plan's jobs itself, `calu_serve_graph` hands the same jobs to
    // a `MultiFrontier`. Without `retry` nothing is snapshotted, so nothing
    // is damaged either: a corruption draw injects nothing (clean bits on
    // both routes), and an injected failure fails both the same way.
    let a = random_uniform(96, 96, &mut seeded_rng(0xFA08));
    let p = params(2);
    let reference = try_calu(a.clone(), &p).expect("fault-free run");
    let frontier = MultiFrontier::new(2);
    let served = |opts: &FactorOptions| {
        let sg = calu_serve_graph(a.clone(), &p, opts, false).expect("finite input");
        let (_, watch) = frontier.submit(sg.graph, JobOptions::default());
        (watch.wait().outcome, sg.output)
    };
    let without_retry = |chaos: ChaosPlan| FactorOptions {
        chaos: Some(Arc::new(chaos)),
        ..Default::default()
    };

    let corrupt = || ChaosPlan::quiet(0).corrupt_nth(1, |l| l.kind == TaskKind::Update);
    let (f, _) = try_calu_with(a.clone(), &p, &without_retry(corrupt())).expect("nothing fails");
    assert_eq!(f.lu.as_slice(), reference.lu.as_slice(), "one-shot: nothing to corrupt");
    let (outcome, output) = served(&without_retry(corrupt()));
    assert!(outcome.is_completed(), "{outcome:?}");
    let f = output.get().expect("output set").as_ref().expect("settled");
    assert_eq!(f.lu.as_slice(), reference.lu.as_slice(), "served: nothing to corrupt");

    // One task, by label, so both routes hit the same one whatever the
    // interleaving.
    let graph = ca_factor::core::calu_task_graph(96, 96, &p);
    let victim = (0..graph.len())
        .map(|t| graph.meta(t).label)
        .filter(|l| l.kind == TaskKind::Update)
        .nth(3)
        .expect("the graph has updates");
    let fail = || ChaosPlan::quiet(0).fail_nth(1, move |l| *l == victim);
    let one_shot = match try_calu_with(a.clone(), &p, &without_retry(fail())) {
        Err(FactorError::TaskFailed { label, message }) => (label, message),
        other => panic!("expected the injected failure, got {:?}", other.map(|(f, _)| f)),
    };
    assert!(one_shot.1.contains("chaos: injected failure"), "{}", one_shot.1);
    match served(&without_retry(fail())) {
        (JobOutcome::Failed(e), output) => {
            assert!(one_shot.1.contains(&e.message), "{} vs {}", one_shot.1, e.message);
            assert_eq!((e.label, e.label.to_string()), (victim, one_shot.0));
            assert!(output.get().is_none());
        }
        (other, _) => panic!("expected the injected failure, got {other:?}"),
    }
    frontier.shutdown();
}

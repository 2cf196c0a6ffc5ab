//! Integration tests for `ca-serve`: cancellation independence,
//! backpressure under oversubscription, the tiny-job route, and the solve
//! API — all through the public `ca_factor::serve` facade.
//!
//! The central property (DESIGN.md §11) — N jobs interleaved on a shared
//! worker pool produce factors **bitwise identical** to running each alone
//! through `calu_seq_factor` / `caqr_seq`, on every route — is the served
//! parts of the equivalence matrix (tests/equivalence_table), all in flight
//! together.

mod equivalence_table;

use ca_factor::matrix::{norm_max, random_uniform, seeded_rng};
use ca_factor::prelude::{calu_seq_factor, caqr_seq, CaParams, Matrix};
use ca_factor::serve::{
    AdmissionPolicy, BatchConfig, CancelReason, ServeError, Service, ServiceConfig,
    SubmitOptions,
};
use equivalence_table::Part;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

fn params() -> CaParams {
    CaParams::new(16, 4, 1)
}

fn service(workers: usize) -> Service {
    Service::new(ServiceConfig::new(workers).with_params(params()))
}

/// LU and QR jobs of every shape in the table, tiny and `unbatched`, solves
/// and one-task graphs, all in flight at once on shared pools, each bitwise
/// equal to its sequential reference.
#[test]
fn interleaved_lu_qr_jobs_are_bitwise_identical_to_sequential_runs() {
    equivalence_table::lu_and_qr(Part::Service);
}

/// Cancelling one in-flight job must neither cancel nor stall its
/// neighbours, and the survivors must still be bitwise correct.
#[test]
fn cancelling_one_job_never_disturbs_the_others() {
    let svc = service(2);
    let p = params();
    let mut rng = seeded_rng(0x5E22);
    let mut mats: Vec<Matrix> = (0..6).map(|_| random_uniform(96, 96, &mut rng)).collect();
    let mut handles: Vec<_> = mats
        .iter()
        .map(|a| {
            svc.submit_lu(a.clone(), SubmitOptions::default().unbatched())
                .expect("admits")
        })
        .collect();
    // Cancel the middle job while the queue is still draining.
    let victim = handles.remove(3);
    mats.remove(3);
    victim.cancel();

    match victim.wait() {
        // Either the cancel landed, or the job raced to completion first —
        // both are legal; a hang or a foreign error is not.
        Err(ServeError::Cancelled(CancelReason::User)) | Ok(_) => {}
        other => panic!("unexpected terminal state for cancelled job: {other:?}"),
    }

    for (i, (a, h)) in mats.iter().zip(handles).enumerate() {
        let got = h
            .wait_for(WAIT)
            .unwrap_or_else(|_| panic!("job {i} stalled after a neighbour was cancelled"))
            .unwrap_or_else(|e| panic!("job {i} failed after a neighbour was cancelled: {e}"));
        let want = calu_seq_factor(a.clone(), &p);
        assert_eq!(got.lu.as_slice(), want.lu.as_slice());
        assert_eq!(got.pivots.ipiv, want.pivots.ipiv);
    }
    svc.shutdown();
}

/// `Block` admission at 2× oversubscription: twice as many jobs as queue
/// slots, submitted back-to-back. Every submit must eventually admit and
/// every job must resolve — no deadlock between the admission gate and the
/// worker pool.
#[test]
fn block_admission_survives_two_x_oversubscription() {
    let svc = Service::new(
        ServiceConfig::new(2)
            .with_params(params())
            .with_capacity(4)
            .with_admission(AdmissionPolicy::Block),
    );
    let mut rng = seeded_rng(0x5E23);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let a = random_uniform(64, 64, &mut rng);
            // submit_lu blocks here whenever all 4 slots are taken; progress
            // depends on workers draining jobs while we are parked.
            svc.submit_lu(a, SubmitOptions::default().unbatched()).expect("block admits")
        })
        .collect();
    for h in handles {
        h.wait_for(WAIT).map_err(|_| "deadlock").expect("resolves").expect("completes");
    }
    let s = svc.stats();
    assert_eq!(s.completed, 8);
    assert_eq!(s.rejected, 0, "Block policy must never reject");
    svc.shutdown();
}

/// `ShedOldest` under overload: the queue stays bounded by evicting the
/// oldest queued job, every handle resolves (completed or shed), and the
/// shed counter records the evictions.
#[test]
fn shed_oldest_keeps_the_queue_bounded_and_resolves_every_handle() {
    let svc = Service::new(
        ServiceConfig::new(1)
            .with_params(params())
            .with_capacity(2)
            .with_admission(AdmissionPolicy::ShedOldest),
    );
    let mut rng = seeded_rng(0x5E24);
    let handles: Vec<_> = (0..10)
        .map(|_| {
            let a = random_uniform(96, 96, &mut rng);
            svc.submit_lu(a, SubmitOptions::default().unbatched())
        })
        .collect();

    let mut completed = 0u64;
    let mut shed = 0u64;
    for h in handles {
        match h {
            Ok(h) => match h.wait_for(WAIT).map_err(|_| "stall").expect("resolves") {
                Ok(_) => completed += 1,
                Err(ServeError::Shed) => shed += 1,
                Err(e) => panic!("unexpected error under shed-oldest: {e}"),
            },
            // If even the running job is unsheddable the submit itself is
            // refused — also a legal bounded-queue outcome.
            Err(ServeError::Rejected) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(completed >= 1, "at least the running job must complete");
    let s = svc.stats();
    assert!(svc.active_jobs() == 0, "all slots released");
    assert_eq!(s.shed, shed, "stats must agree with observed shed count");
    svc.shutdown();
}

/// A deadline in the past is honoured before any task runs and is counted.
#[test]
fn expired_deadline_cancels_and_is_counted() {
    let svc = service(1);
    let a = random_uniform(64, 64, &mut seeded_rng(0x5E25));
    let h = svc
        .submit_lu(a, SubmitOptions::default().unbatched().with_deadline(Duration::ZERO))
        .expect("admits");
    match h.wait() {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected deadline miss, got {other:?}"),
    }
    let s = svc.stats();
    assert_eq!(s.deadline_missed, 1);
    svc.shutdown();
}

/// Tiny jobs take the one-task route next to a large DAG job and the same
/// inputs sent down the DAG route: the route is chosen from the size and the
/// options (tests/equivalence_table holds both routes to the sequential bits).
#[test]
fn fused_batches_are_bitwise_correct_next_to_direct_jobs() {
    let svc = Service::new(
        ServiceConfig::new(2)
            .with_params(params())
            .with_batching(BatchConfig::up_to(32)),
    );
    let mut rng = seeded_rng(0x5E26);
    let big = random_uniform(160, 160, &mut rng);
    let tinies: Vec<Matrix> = (0..8).map(|_| random_uniform(24, 24, &mut rng)).collect();

    let h_big = svc.submit_lu(big, SubmitOptions::default()).expect("admits");
    let submit_tinies = |opts: SubmitOptions| -> Vec<_> {
        tinies.iter().map(|a| svc.submit_lu(a.clone(), opts.clone()).expect("admits")).collect()
    };
    let h_tiny = submit_tinies(SubmitOptions::default());
    let h_dag = submit_tinies(SubmitOptions::default().unbatched());
    h_big.wait().expect("direct job completes");
    for (h, d) in h_tiny.into_iter().zip(h_dag) {
        h.wait().expect("one-task job completes");
        d.wait().expect("dag job completes");
    }
    let s = svc.stats();
    assert_eq!(s.batched_jobs, 8);
    assert_eq!(s.completed, 17);
    svc.shutdown();
}

/// The solve API end-to-end: `A·X = B` via CALU and a least-squares system
/// via CAQR, both through the service, checked against the true solutions.
#[test]
fn solve_and_lstsq_through_the_service_are_accurate() {
    let svc = service(2);
    let mut rng = seeded_rng(0x5E27);

    let n = 80;
    let a = random_uniform(n, n, &mut rng);
    let x_true = random_uniform(n, 3, &mut rng);
    let b = a.matmul(&x_true);
    let h_solve = svc.submit_solve(a, b, SubmitOptions::default()).expect("admits");

    let t = random_uniform(120, 40, &mut rng);
    let rhs = random_uniform(120, 2, &mut rng);
    let want_ls = caqr_seq(t.clone(), &params()).solve_ls(&rhs);
    let h_ls = svc.submit_lstsq(t, rhs, SubmitOptions::default()).expect("admits");

    let x = h_solve.wait().expect("solve completes");
    assert!(norm_max(x.sub_matrix(&x_true).view()) < 1e-8, "solve accuracy");
    let got_ls = h_ls.wait().expect("lstsq completes");
    assert!(norm_max(got_ls.sub_matrix(&want_ls).view()) < 1e-10, "lstsq vs reference");
    svc.shutdown();
}

/// A served LU obeys the `try_calu` contract on both routes (the DAG and the
/// one-task route of a tiny job): what `try_calu` refuses, the job fails
/// with — as `submit_solve` always reported a singular `A` — and what
/// `try_calu` degrades (a GEPP fallback panel), the served factors record.
#[test]
fn a_served_lu_is_refused_or_degraded_exactly_like_try_calu() {
    use ca_factor::core::try_calu;
    use ca_factor::matrix::wilkinson_growth;
    let svc = Service::new(
        ServiceConfig::new(2).with_params(params()).with_batching(BatchConfig::up_to(96)),
    );
    let routes = [SubmitOptions::default(), SubmitOptions::default().unbatched()];
    let refused = |a: &Matrix, p: CaParams, what: &str| {
        let want = try_calu(a.clone(), &p).expect_err("try_calu refuses this input").to_string();
        assert!(want.contains(what), "{want}");
        for opts in &routes {
            match svc.submit_lu(a.clone(), opts.clone().with_params(p)).expect("admits").wait() {
                Err(ServeError::Failed { message, .. }) => {
                    assert!(message.contains(&want), "{message} vs {want}")
                }
                other => panic!("{what}: expected a failed job, got {:?}", other.map(|f| f.breakdown)),
            }
        }
    };
    let col = random_uniform(96, 1, &mut seeded_rng(0x5E28));
    let rank_one = Matrix::from_fn(96, 96, |i, _| col[(i, 0)]);
    refused(&rank_one, params(), "zero pivot");
    refused(&wilkinson_growth(64), CaParams::new(8, 4, 1).with_growth_limit(4.0), "growth");

    // The shape of tests/breakdown.rs' fallback input, at a limit the
    // tournament's first panel breaks and plain GEPP does not.
    let a = random_uniform(48, 48, &mut seeded_rng(1));
    let p = CaParams::new(12, 4, 2).with_growth_limit(3.0);
    let want = try_calu(a.clone(), &p).expect("GEPP stays under the limit");
    assert_eq!(want.stats.fallback_panels, [0]);
    for opts in &routes {
        let got = svc.submit_lu(a.clone(), opts.clone().with_params(p)).expect("admits").wait();
        let got = got.expect("a degraded panel is not an error");
        assert_eq!(got.stats.fallback_panels, want.stats.fallback_panels);
        assert_eq!(got.lu.as_slice(), want.lu.as_slice());
    }
    assert_eq!(svc.stats().batched_jobs, 3, "one job of each input took the one-task route");
    svc.shutdown();
}

/// A request whose matrices do not fit together is refused with a typed
/// error before it holds a queue slot — never a panic.
#[test]
fn solve_and_lstsq_refuse_a_bad_shape_before_admission() {
    let svc = Service::new(
        ServiceConfig::new(1).with_capacity(1).with_admission(AdmissionPolicy::Reject),
    );
    let m = |rows, cols| random_uniform(rows, cols, &mut seeded_rng(0x5E29));
    let refusals = [
        svc.submit_solve(m(8, 6), m(8, 1), SubmitOptions::default()).map(drop),
        svc.submit_solve(m(8, 8), m(7, 1), SubmitOptions::default()).map(drop),
        svc.submit_lstsq(m(6, 8), m(6, 1), SubmitOptions::default()).map(drop),
        svc.submit_lstsq(m(8, 6), m(9, 1), SubmitOptions::default()).map(drop),
    ];
    for r in refusals {
        assert!(matches!(r, Err(ServeError::InvalidShape(_))), "{r:?}");
    }
    assert_eq!((svc.stats().submitted, svc.active_jobs()), (0, 0));
    // The only slot is still free.
    svc.submit_solve(m(8, 8), m(8, 1), SubmitOptions::default()).expect("admits").wait().expect("solves");
    svc.shutdown();
}

/// The task labels of a profile, sorted.
fn task_labels(profile: &ca_factor::sched::Profile) -> Vec<(char, usize, usize, usize)> {
    let mut l: Vec<_> =
        profile.records.iter().map(|r| (r.label.kind.code(), r.label.step, r.label.i, r.label.j)).collect();
    l.sort_unstable();
    l
}

/// What a served DAG-route LU of `a` must have run: what a one-shot run of
/// it runs, the plan's tasks and the sink.
fn served_lu_labels(a: &Matrix, p: &CaParams) -> Vec<(char, usize, usize, usize)> {
    let (_, oneshot) = ca_factor::core::try_calu_profiled(a.clone(), p).expect("one-shot run");
    task_labels(&oneshot)
}

#[test]
fn a_traced_served_job_answers_with_the_profile_of_a_one_shot_run() {
    // One answer to "where did the time go for this job": the served CALU
    // DAG is the one-shot DAG, sink included, so its per-job profile must carry
    // exactly those task labels, with time attributed to panels and updates
    // — traced or not. Tracing only decides whether the service-wide trace
    // keeps the job's spans once the job is gone.
    let p = CaParams::new(32, 4, 2);
    let a = random_uniform(256, 256, &mut seeded_rng(0x9F0));
    let expected = served_lu_labels(&a, &p);

    let svc = Service::new(ServiceConfig::new(2).with_params(p));
    let untraced = svc.submit_lu(a.clone(), SubmitOptions::default().unbatched()).expect("admits");
    let profile = untraced.profile().expect("every finished job has a profile");
    assert_eq!(task_labels(&profile), expected);
    untraced.wait().expect("completes");
    assert!(!svc.chrome_trace().contains("\"ph\":\"X\""), "an untraced job left spans behind");

    svc.set_tracing(true);
    let traced = svc.submit_lu(a.clone(), SubmitOptions::default().unbatched()).expect("admits");
    let profile = traced.profile().expect("every finished job has a profile");
    let f = traced.wait().expect("completes");
    assert!(f.residual(&a) < 1e-12);
    assert_eq!(task_labels(&profile), expected);
    assert_eq!(profile.nworkers, 2);
    assert_eq!(profile.scheduler, "priority-queue");
    assert!(profile.cancelled.is_empty());
    for r in &profile.records {
        assert!(0.0 <= r.ready && r.ready <= r.start && r.start <= r.end, "{r:?}");
        assert!(r.end <= profile.makespan + 1e-9, "{r:?}");
    }
    let m = profile.metrics();
    for kind in ["Panel", "Update"] {
        let busy = m.by_kind.iter().find(|k| k.kind == kind).map_or(0.0, |k| k.busy_seconds);
        assert!(busy > 0.0, "no {kind} time attributed: {m}");
    }
    assert!(svc.chrome_trace().contains("\"ph\":\"X\""), "the traced job's spans are logged");
    svc.shutdown();
}

#[test]
fn every_finished_job_has_a_profile_without_having_been_asked_in_advance() {
    // No service here ever calls `set_tracing`. However a job ends, its
    // handle answers with a profile of exactly its own tasks: one record per
    // task that ran, the rest in `cancelled`.
    use ca_factor::core::calu_task_graph;
    use ca_factor::sched::ChaosProfile;
    use ca_factor::serve::ChaosConfig;
    let p = CaParams::new(16, 4, 1);
    let dag = SubmitOptions::default().unbatched();
    let mut rng = seeded_rng(0x9F1);
    let (big, small) = (random_uniform(192, 192, &mut rng), random_uniform(80, 64, &mut rng));

    // Two DAG-route jobs of different shapes interleaved on the same two
    // lanes, and a tiny job that is one task.
    let svc = Service::new(ServiceConfig::new(2).with_params(p).with_batching(BatchConfig::up_to(32)));
    let handles = [&big, &small].map(|a| svc.submit_lu(a.clone(), dag.clone()).expect("admits"));
    let tiny = svc.submit_lu(random_uniform(16, 16, &mut rng), SubmitOptions::default()).expect("admits");
    for (a, h) in [&big, &small].into_iter().zip(handles) {
        let profile = h.profile().expect("a completed job has a profile");
        assert_eq!(task_labels(&profile), served_lu_labels(a, &p), "another job's records leaked in");
        assert!(profile.cancelled.is_empty());
        h.wait().expect("completes");
    }
    let profile = tiny.profile().expect("a tiny job is a job of its own");
    assert_eq!((profile.records.len(), profile.cancelled.len()), (1, 0));
    tiny.wait().expect("completes");

    // A cancelled job: whatever ran before the cancel landed is recorded,
    // everything else is in the cancelled set.
    let total = calu_task_graph(192, 192, &p).len() + 1;
    let blocker = svc.submit_lu(big.clone(), dag.clone()).expect("admits");
    let victim = svc.submit_lu(big.clone(), dag.clone()).expect("admits");
    victim.cancel();
    let profile = victim.profile().expect("a cancelled job has a profile");
    assert_eq!(profile.records.len() + profile.cancelled.len(), total);
    match victim.wait() {
        Err(ServeError::Cancelled(CancelReason::User)) => assert!(!profile.cancelled.is_empty()),
        Ok(_) => assert!(profile.cancelled.is_empty(), "raced to completion"),
        other => panic!("unexpected terminal state for cancelled job: {other:?}"),
    }
    blocker.wait().expect("completes");
    svc.shutdown();

    // A job failed by a seeded chaos plan (no retry tier: the first injected
    // failure fails the job). Decisions are per task label, so the same
    // tasks fail on every run.
    let chaos = ChaosConfig::seeded(5).with_profile(ChaosProfile::quiet().with_fail_rate(0.05));
    let svc = Service::new(ServiceConfig::new(2).with_params(p).with_chaos(chaos));
    let failed = svc.submit_lu(big.clone(), dag).expect("admits");
    let profile = failed.profile().expect("a failed job has a profile");
    assert!(!profile.cancelled.is_empty(), "the failure closure is in the profile");
    assert_eq!(profile.records.len() + profile.cancelled.len(), total);
    assert!(profile.records.iter().all(|r| !profile.cancelled.contains(&r.task)));
    assert!(matches!(failed.wait(), Err(ServeError::Failed { .. })));
    svc.shutdown();
}

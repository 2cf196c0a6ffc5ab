//! The process-wide scheduler counters are a fold over the logs of the jobs
//! that ran, and nothing else moves them.
//!
//! One test in a binary of its own: the counters are shared by the whole
//! process, so any other test here would race the exact counts.

use ca_factor::core::{
    calu_serve_graph, calu_task_graph, caqr, try_calu_with, CaluPlan, CaqrPlan, FactorOptions,
    Retry,
};
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::prelude::CaParams;
use ca_factor::sched::{
    dyn_job, execute, job, register_sched_metrics, simulate, CancelReason, ChaosPlan, Job,
    JobOptions, JobOutcome, MultiFrontier, RecoveryStats, TaskFailure, TaskGraph, TaskKind,
    TaskLabel, TaskMeta,
};
use ca_factor::telemetry::{Registry, SeriesValue};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NAMES: [&str; 11] = [
    "tasks_dispatched",
    "tasks_completed",
    "tasks_failed",
    "jobs_submitted",
    "jobs_completed",
    "jobs_failed",
    "jobs_cancelled",
    "jobs_shed",
    "jobs_deadline_missed",
    "probes_run",
    "probe_failures",
];

/// Every scheduler counter `registry` adopted, by name: read through the
/// exposition, so a counter this test does not name moves it too.
fn counters(registry: &Registry) -> BTreeMap<String, u64> {
    let read = |value: &SeriesValue| match *value {
        SeriesValue::Counter(v) => v,
        ref other => panic!("not a counter: {other:?}"),
    };
    let families = registry.snapshot().families;
    families.iter().map(|f| (f.name.clone(), read(&f.series[0].value))).collect()
}

/// What one finished job adds to each counter: `tasks` ran, `failed` of
/// them failed, it ended in `outcome`, and recovery did `r` inside it.
fn fold(tasks: usize, failed: u64, outcome: &JobOutcome, r: &RecoveryStats) -> [u64; 11] {
    let is = |b: bool| u64::from(b);
    let cancelled = |why| is(matches!(outcome, JobOutcome::Cancelled(w) if *w == why));
    [
        tasks as u64,
        tasks as u64 - failed,
        failed,
        1,
        is(outcome.is_completed()),
        is(matches!(outcome, JobOutcome::Failed(_))),
        is(matches!(outcome, JobOutcome::Cancelled(_))),
        cancelled(CancelReason::Shed),
        cancelled(CancelReason::Deadline),
        r.probes,
        r.probe_failures,
    ]
}

fn meta() -> TaskMeta {
    TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0)
}

/// The first attempt of an `Update` silently corrupts its output.
fn corrupt_first_update() -> Option<Arc<ChaosPlan>> {
    Some(Arc::new(ChaosPlan::quiet(0).corrupt_nth(1, |l| l.kind == TaskKind::Update)))
}

#[test]
fn the_counters_are_the_fold_of_the_finished_jobs_and_nothing_else() {
    let p = CaParams::new(16, 4, 2);
    let a = random_uniform(64, 64, &mut seeded_rng(0xC0));
    let registry = Registry::new();
    register_sched_metrics(&registry);
    let before = counters(&registry);
    let names = NAMES.map(|name| format!("ca_sched_{name}_total"));
    assert!(before.keys().eq(names.iter().collect::<BTreeSet<_>>()));
    let mut want = [0u64; 11];
    let mut add = |d: [u64; 11]| want.iter_mut().zip(d).for_each(|(w, d)| *w += d);

    // Served jobs on one worker, held by a gate while the rest queue: one is
    // shed, one misses its deadline, one completes, one fails by chaos (its
    // one failed task cancels what follows), and one under `retry` is
    // corrupted, probed, replayed and probed again.
    let f = MultiFrontier::new(1);
    let (release, gate) = mpsc::channel::<()>();
    let mut g: TaskGraph<_> = TaskGraph::new();
    g.add_task(meta(), dyn_job(move || gate.recv().unwrap()));
    let mut watches = vec![f.submit(g, JobOptions::default()).1];
    while f.queued_jobs() > 0 {
        std::thread::yield_now();
    }
    let mut g: TaskGraph<_> = TaskGraph::new();
    g.add_task(meta(), dyn_job(|| {}));
    let (shed, w) = f.submit(g, JobOptions::default());
    watches.push(w);
    assert_eq!(f.shed_oldest_queued(), Some(shed));
    let mut g: TaskGraph<_> = TaskGraph::new();
    g.add_task(meta(), dyn_job(|| {}));
    watches.push(f.submit(g, JobOptions::default().with_deadline(Duration::ZERO)).1);
    let fail_first_update = ChaosPlan::quiet(0).fail_nth(1, |l| l.kind == TaskKind::Update);
    let retry = Some(Retry::default());
    for opts in [
        FactorOptions::default(),
        FactorOptions { chaos: Some(Arc::new(fail_first_update)), ..Default::default() },
        FactorOptions { chaos: corrupt_first_update(), retry, ..Default::default() },
    ] {
        let sg = calu_serve_graph(a.clone(), &p, &opts, false).expect("finite input");
        watches.push(f.submit(sg.graph, JobOptions::default()).1);
    }
    release.send(()).unwrap();
    let reports: Vec<_> = watches.iter().map(|w| w.wait()).collect();
    let outcomes: Vec<_> = reports.iter().map(|r| format!("{:?}", r.outcome)).collect();
    let [.., ok, failed, recovered] = &reports[..] else { unreachable!() };
    assert!(ok.outcome.is_completed() && recovered.outcome.is_completed(), "{outcomes:?}");
    assert!(matches!(failed.outcome, JobOutcome::Failed(_)), "{outcomes:?}");
    let r = &recovered.recovery;
    assert_eq!((r.probes, r.probe_failures, r.replays), (2, 1, 1), "{r:?}");
    for r in &reports {
        let failed = u64::from(matches!(r.outcome, JobOutcome::Failed(_)));
        add(fold(r.tasks_run, failed, &r.outcome, &r.recovery));
    }
    f.shutdown();

    // A one-shot run is the same served graph, on the caller's workers.
    let opts = FactorOptions { chaos: corrupt_first_update(), retry, ..Default::default() };
    let (_, report) = try_calu_with(a.clone(), &p, &opts).expect("recovered");
    assert_eq!(report.recovery().probe_failures, 1);
    add(fold(report.stats.tasks, 0, &JobOutcome::Completed, &report.recovery()));

    // A raw graph whose root fails: its successor is cancelled, the
    // independent task runs.
    let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
    let root = g.add_task(meta(), Box::new(|| Err(TaskFailure::new("boom"))));
    let next = g.add_task(meta(), job(|| {}));
    g.add_task(meta(), job(|| {}));
    g.add_dep(root, next);
    let report = execute(g, 2);
    let failure = report.failure.clone().expect("the root failed");
    assert_eq!((report.stats.tasks, &failure.cancelled[..]), (2, &[next][..]));
    add(fold(report.stats.tasks, 1, &JobOutcome::Failed(failure), &report.recovery()));

    let after = counters(&registry);
    for (name, want) in names.iter().zip(want) {
        assert_eq!(after[name] - before[name], want, "{name}");
    }

    // No job, no count: building plans, simulating a graph and probing
    // factors outside a job are not scheduler facts.
    let (m, n) = (a.nrows(), a.ncols());
    drop(CaluPlan::build::<f64>(m, n, &p));
    drop(CaqrPlan::build::<f64>(m, n, &p));
    simulate(&calu_task_graph(m, n, &p), 4, |_, meta| meta.flops);
    assert_eq!(counters(&registry), after, "a plan built or simulated is not a job");
    let (lu, _) = try_calu_with(a.clone(), &p, &FactorOptions::default()).expect("factors");
    let qr = caqr(a.clone(), &p);
    let ran = counters(&registry);
    lu.verify_integrity(&a, 1).expect("honest LU");
    qr.verify_integrity(&a, 1).expect("honest QR");
    let mut bad = lu.clone();
    bad.lu[(40, 40)] += 1.0;
    assert!(bad.verify_integrity(&a, 1).is_err(), "a corrupted factor fails its probe");
    assert_eq!(counters(&registry), ran, "a probe outside a job is not counted");
}

//! End-to-end tests of the profiling layer: timeline consistency of the
//! executors' profiles, exact profiles from the deterministic simulator,
//! Chrome-trace structure, and the `try_calu_profiled` library surface.

use ca_factor::sched::{
    execute, job, simulate, ExecError, Job, Profile, RunReport, TaskFailure, TaskGraph, TaskKind,
    TaskLabel, TaskMeta, Timeline,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A run's profile, and its failure if it had one.
fn profiled(g: TaskGraph<Job<'_>>, threads: usize) -> (Profile, Option<ExecError>) {
    let report = execute(g, threads);
    (report.profile(), report.failure)
}

/// A layered DAG of `layers * width` trivially-quick jobs that counts
/// executions into `counter`.
fn layered_jobs<'a>(layers: usize, width: usize, counter: &'a AtomicUsize) -> TaskGraph<Job<'a>> {
    let mut g: TaskGraph<Job<'a>> = TaskGraph::new();
    let mut prev: Vec<usize> = Vec::new();
    for l in 0..layers {
        let mut cur = Vec::new();
        for i in 0..width {
            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Update, l, i, 0), 100.0);
            let id = g.add_task(meta, job(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
            for &p in &prev {
                g.add_dep(p, id);
            }
            cur.push(id);
        }
        prev = cur;
    }
    g
}

/// The invariants the profile of every clean run must satisfy, whichever
/// executor produced it.
fn assert_profile_consistent(profile: &Profile, nthreads: usize, ntasks: usize) {
    assert_eq!(profile.nworkers, nthreads);
    assert_eq!(profile.records.len(), ntasks, "every task gets one record");
    assert!(profile.cancelled.is_empty());
    let tl = profile.timeline();
    assert_eq!(tl.lanes.len(), nthreads, "one lane per worker");
    tl.check().expect("spans sorted and non-overlapping per lane");
    assert_eq!(tl.lanes.iter().map(|l| l.len()).sum::<usize>(), ntasks);
    for r in &profile.records {
        assert!(r.worker < nthreads);
        assert!(r.ready <= r.start + 1e-12, "ready after start: {r:?}");
        assert!(r.dispatch <= r.start + 1e-12, "dispatched after start: {r:?}");
        assert!(r.start <= r.end, "negative duration: {r:?}");
        assert!(r.end <= profile.makespan + 1e-9);
    }
    // A thread starts a task some time after admission, when every root is
    // ready at once: the derived depth starts at the root count.
    assert_depth_is_a_ready_set(profile);
    let roots = profile.records.iter().filter(|r| r.ready == 0.0).count();
    assert_eq!(profile.queue_samples.first().map(|s| (s.t, s.depth)), Some((0.0, roots)));
}

/// The derived ready-queue depth of a finished job: one sample per instant
/// in time order (a `usize`, so never negative), ending at 0.
fn assert_depth_is_a_ready_set(profile: &Profile) {
    let depth = &profile.queue_samples;
    assert!(depth.windows(2).all(|w| w[0].t < w[1].t), "one sample per instant, in order");
    assert_eq!(depth.last().map(|s| s.depth), Some(0), "every ready task was dispatched");
}

#[test]
fn profiled_pool_timeline_is_consistent() {
    for &threads in &[1usize, 2, 4] {
        let counter = AtomicUsize::new(0);
        let g = layered_jobs(5, 4, &counter);
        let n = g.len();
        let (profile, err) = profiled(g, threads);
        assert!(err.is_none());
        assert_eq!(counter.load(Ordering::SeqCst), n);
        assert_eq!(profile.scheduler, "priority-queue");
        assert_profile_consistent(&profile, threads, n);
        assert!(!profile.queue_samples.is_empty());
        assert!(!profile.edges.is_empty());
    }
}

/// Every span of a timeline as `(task, lane, start bits, end bits)`, sorted.
fn span_set(tl: &Timeline) -> Vec<(usize, usize, u64, u64)> {
    let mut spans: Vec<_> = tl
        .lanes
        .iter()
        .enumerate()
        .flat_map(|(lane, l)| l.iter().map(move |s| (s.task, lane, s.start.to_bits(), s.end.to_bits())))
        .collect();
    spans.sort_unstable();
    spans
}

/// The timeline and the profile of one run are views of one task log, so
/// they must describe the same executions.
fn assert_views_agree(report: &RunReport, ntasks: usize, what: &str) {
    let profile = report.profile();
    assert_eq!(report.stats.tasks, ntasks, "{what}");
    assert_eq!(report.stats.tasks, profile.records.len(), "{what}");
    assert_eq!(span_set(&report.stats.timeline), span_set(&profile.timeline()), "{what}");
    assert_eq!(report.stats.timeline.makespan, profile.makespan, "{what}");
}

#[test]
fn timeline_and_profile_views_agree_with_the_task_log() {
    // Neither runner takes options: nothing has to be asked for.
    let counter = AtomicUsize::new(0);
    let g = layered_jobs(5, 4, &counter);
    let n = g.len();
    assert_views_agree(&execute(g, 3), n, "execute");
    let g = layered_jobs(5, 4, &counter).map(|_, _| ());
    assert_views_agree(&simulate(&g, 3, |_, m| m.flops), g.len(), "simulator");
}

#[test]
fn frontier_busy_seconds_is_the_sum_of_its_traced_spans() {
    use ca_factor::sched::{dyn_job, DynJob, JobOptions, MultiFrontier};
    let frontier = MultiFrontier::new(2);
    frontier.set_tracing(true);
    let watches: Vec<_> = (0..3)
        .map(|j| {
            let mut g: TaskGraph<DynJob> = TaskGraph::new();
            for i in 0..20 {
                let meta = TaskMeta::new(TaskLabel::new(TaskKind::Update, j, i, 0), 1.0);
                g.add_task(meta, dyn_job(|| std::thread::sleep(std::time::Duration::from_micros(50))));
            }
            frontier.submit(g, JobOptions::default()).1
        })
        .collect();
    for w in &watches {
        assert!(w.wait().outcome.is_completed());
    }
    for w in &watches {
        let profile = frontier.job_profile(w).expect("a finished job has a profile");
        assert_profile_consistent(&profile, 2, 20);
    }
    let tl = frontier.timeline();
    tl.check().expect("clean frontier timeline");
    assert_eq!(tl.lanes.iter().map(Vec::len).sum::<usize>(), 60);
    let busy = frontier.busy_seconds();
    assert!(busy > 60.0 * 50e-6, "60 tasks of 50 µs each: {busy}");
    assert!((busy - tl.busy_time()).abs() <= 1e-9 * busy, "{busy} vs {}", tl.busy_time());
    frontier.shutdown();
}

#[test]
fn an_untraced_frontier_keeps_nothing_of_a_finished_job() {
    // Each job carries its own log in its watch; with tracing off the
    // frontier itself retains nothing, however many jobs it ran.
    use ca_factor::sched::{dyn_job, DynJob, JobOptions, MultiFrontier};
    let one_task = || {
        let mut g: TaskGraph<DynJob> = TaskGraph::new();
        g.add_task(TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0), dyn_job(|| {}));
        g
    };
    let frontier = MultiFrontier::new(2);
    for _ in 0..1000 {
        let (_, w) = frontier.submit(one_task(), JobOptions::default());
        assert_eq!(w.wait().tasks_run, 1);
        assert_eq!(frontier.job_profile(&w).expect("finished").records.len(), 1);
    }
    assert!(frontier.timeline().lanes.iter().all(Vec::is_empty));
    // Tracing retains the records of jobs that finalize while it is on.
    frontier.set_tracing(true);
    frontier.submit(one_task(), JobOptions::default()).1.wait();
    assert_eq!(frontier.timeline().lanes.iter().map(Vec::len).sum::<usize>(), 1);
    frontier.shutdown();
}

#[test]
fn cancelled_tasks_never_appear_as_records() {
    // A chain failing at task 5: tasks 0..=5 execute (and are recorded);
    // 6.. are cancelled and must be absent from records and spans.
    let n = 12usize;
    let fail_at = 5usize;
    let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Panel, i, 0, 0), 1.0);
            let fails = i == fail_at;
            let body = move || if fails { Err(TaskFailure::new("fails")) } else { Ok(()) };
            g.add_task(meta, Box::new(body))
        })
        .collect();
    for pair in ids.windows(2) {
        g.add_dep(pair[0], pair[1]);
    }
    let (profile, err) = profiled(g, 2);
    let err = err.expect("injected failure must surface");
    assert_eq!(err.task, ids[fail_at]);
    assert_eq!(profile.cancelled, ids[fail_at + 1..].to_vec());
    assert_eq!(profile.records.len(), fail_at + 1, "failed task itself is recorded");
    for r in &profile.records {
        assert!(r.task <= ids[fail_at], "cancelled task {} has a record", r.task);
    }
    let tl = profile.timeline();
    tl.check().expect("partial timeline still consistent");
    assert_eq!(tl.lanes.iter().map(|l| l.len()).sum::<usize>(), fail_at + 1);
}

#[test]
fn simulator_profile_is_deterministic_and_exact() {
    // Diamond 0 -> {1, 2} -> 3 with unit costs on 2 workers:
    //   t=0: task 0 runs (1s); t=1: tasks 1 and 2 in parallel; t=2: task 3.
    let mut g: TaskGraph<()> = TaskGraph::new();
    let meta = |s: usize| TaskMeta::new(TaskLabel::new(TaskKind::Update, s, 0, 0), 1.0);
    let a = g.add_task(meta(0), ());
    let b = g.add_task(meta(1), ());
    let c = g.add_task(meta(2), ());
    let d = g.add_task(meta(3), ());
    g.add_dep(a, b);
    g.add_dep(a, c);
    g.add_dep(b, d);
    g.add_dep(c, d);
    let report = simulate(&g, 2, |_, _| 1.0);
    assert!(report.failure.is_none());
    let p1 = report.profile();
    assert_eq!(p1.scheduler, "simulator");
    assert_eq!(p1.makespan, 3.0);
    let r: Vec<_> = p1.records.iter().map(|r| (r.task, r.ready, r.start, r.end)).collect();
    assert_eq!(r[0], (a, 0.0, 0.0, 1.0));
    assert_eq!(r[1], (b, 1.0, 1.0, 2.0));
    assert_eq!(r[2], (c, 1.0, 1.0, 2.0));
    assert_eq!(r[3], (d, 2.0, 2.0, 3.0));
    assert_eq!(p1.edges, vec![(a, b), (a, c), (b, d), (c, d)]);
    let m = p1.metrics();
    assert_eq!(m.critical_path_seconds, 3.0);
    assert_eq!(m.efficiency, 1.0);
    assert_eq!(m.dispatch_latency.max, 0.0, "simulator dispatch is immediate");
    // Two cores never leave a ready task waiting: the depth is 0 throughout.
    assert_eq!((m.max_queue_depth, m.mean_queue_depth), (0, 0.0));
    // Determinism: a second run is bit-identical.
    let p2 = simulate(&g, 2, |_, _| 1.0).profile();
    let r2: Vec<_> = p2.records.iter().map(|r| (r.task, r.ready, r.start, r.end)).collect();
    assert_eq!(r, r2);

    // One core: c waits from t=1 (ready behind b) to t=2, so the depth is
    // 0, 1, 0, 0 at t = 0, 1, 2, 3 — one ready task for one of the four
    // seconds.
    let p = simulate(&g, 1, |_, _| 1.0).profile();
    let depth: Vec<_> = p.queue_samples.iter().map(|s| (s.t, s.depth)).collect();
    assert_eq!(depth, vec![(0.0, 0), (1.0, 1), (2.0, 0), (3.0, 0)]);
    let m = p.metrics();
    assert_eq!((m.max_queue_depth, m.mean_queue_depth), (1, 0.25));
}

/// The ready set recounted the slow way: the tasks that are ready but not
/// yet started once everything stamped `t` has happened.
fn recount(profile: &Profile, t: f64) -> usize {
    profile.records.iter().filter(|r| r.ready <= t && t < r.start).count()
}

#[test]
fn derived_queue_depth_is_the_ready_set_at_every_event() {
    // The diamond and a seeded random DAG on the simulator (deterministic):
    // the derived step function equals a brute-force recount at every event
    // time, and has a sample exactly where anything became ready or started.
    let mut diamond: TaskGraph<()> = TaskGraph::new();
    let meta = |s: usize, flops: f64| TaskMeta::new(TaskLabel::new(TaskKind::Update, s, 0, 0), flops);
    let ids: Vec<_> = (0..4).map(|s| diamond.add_task(meta(s, 1.0), ())).collect();
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        diamond.add_dep(ids[a], ids[b]);
    }
    let mut random: TaskGraph<()> = TaskGraph::new();
    let mut rng = ca_factor::matrix::seeded_rng(2024);
    for t in 0..60usize {
        use rand::Rng;
        let id = random.add_task(meta(t, rng.gen_range(1..5) as f64), ());
        for p in 0..t {
            if rng.gen_range(0..t) < 2 {
                random.add_dep(p, id);
            }
        }
    }
    for (g, what) in [(&diamond, "diamond"), (&random, "random DAG")] {
        for cores in [1, 2, 3] {
            let p = simulate(g, cores, |_, m| m.flops).profile();
            assert_depth_is_a_ready_set(&p);
            let mut times: Vec<f64> = p.records.iter().flat_map(|r| [r.ready, r.start]).collect();
            times.sort_by(f64::total_cmp);
            times.dedup();
            let derived: Vec<_> = p.queue_samples.iter().map(|s| (s.t, s.depth)).collect();
            let recounted: Vec<_> = times.iter().map(|&t| (t, recount(&p, t))).collect();
            assert_eq!(derived, recounted, "{what} on {cores} core(s)");
        }
    }
}

#[test]
fn calu_profile_has_roofline_classes_and_valid_trace() {
    use ca_factor::core::{try_calu_profiled, CaParams};
    let a = ca_factor::matrix::random_uniform(300, 120, &mut ca_factor::matrix::seeded_rng(11));
    let p = CaParams::new(40, 4, 3);
    let (f, profile) = try_calu_profiled(a.clone(), &p).expect("factorization succeeds");
    assert!(f.residual(&a) < 1e-12);
    let m = profile.metrics();
    assert_eq!(m.nworkers, 3);
    assert!(m.lookahead.panel_steps > 0);
    assert!(m.by_class.iter().any(|c| c.class == "Gemm" && c.gflops > 0.0));
    assert!(m.by_kind.iter().any(|k| k.code == 'P'));
    assert!(m.efficiency > 0.0 && m.efficiency <= 1.0 + 1e-9);
    let report = m.render();
    assert!(report.contains("scheduling efficiency"), "{report}");
    assert!(report.contains("GFlop/s"), "{report}");

    // The Chrome trace must carry spans, flow events for DAG edges, counter
    // tracks, and thread-name metadata — in valid JSON.
    let trace = profile.chrome_trace();
    let v: serde_json::Value = serde_json::from_str(&trace).expect("trace parses");
    let arr = v.as_array().unwrap();
    let count = |ph: &str| arr.iter().filter(|e| e["ph"] == ph).count();
    assert_eq!(count("X"), profile.records.len());
    assert!(count("s") > 0, "flow-start events");
    assert_eq!(count("s"), count("f"), "flows are paired");
    assert!(count("C") >= 2, "ready-queue and completion counter tracks");
    assert!(arr
        .iter()
        .any(|e| e["ph"] == "M" && e["name"] == "thread_name" && e["args"]["name"] == "core 0"));
}

#[test]
fn caqr_profiled_matches_plain_caqr() {
    use ca_factor::core::{try_caqr, try_caqr_profiled, CaParams};
    let a = ca_factor::matrix::random_uniform(200, 80, &mut ca_factor::matrix::seeded_rng(4));
    let p = CaParams::new(20, 2, 2);
    let (f, profile) = try_caqr_profiled(a.clone(), &p).expect("profiled CAQR succeeds");
    let plain = try_caqr(a.clone(), &p).expect("plain CAQR succeeds");
    assert_eq!(f.r().as_slice(), plain.r().as_slice(), "profiling must not change results");
    assert!(f.residual(&a) < 1e-12);
    assert!(!profile.records.is_empty());
    assert!(profile.metrics().by_class.iter().any(|c| c.class == "QrRecursive"));
}

/// Asserts that `ts` values are monotone non-decreasing within each `tid`
/// of a chrome-trace event array (metadata events carry no `ts` and are
/// skipped). This is the property trace viewers rely on.
fn assert_monotone_per_tid(events: &[serde_json::Value]) {
    use std::collections::HashMap;
    let mut last: HashMap<i64, f64> = HashMap::new();
    for e in events {
        let (Some(tid), Some(ts)) = (e["tid"].as_i64(), e["ts"].as_f64()) else { continue };
        if e["ph"] == "M" {
            continue;
        }
        let prev = last.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev - 1e-6, "tid {tid}: ts {ts} after {prev}");
        *prev = ts;
    }
}

#[test]
fn recovery_marked_trace_validates_and_carries_marks() {
    // A profiled run whose timeline passes check(), serialized with
    // recovery marks interleaved the way the serving layer does on job
    // retries and probe hits: the output must stay valid chrome-trace JSON
    // with monotone per-lane timestamps and the marks present.
    use ca_factor::sched::chrome_trace_json_with_marks;
    let counter = AtomicUsize::new(0);
    let g = layered_jobs(4, 3, &counter);
    let (profile, err) = profiled(g, 2);
    assert!(err.is_none());
    let tl = profile.timeline();
    tl.check().expect("clean timeline");
    let marks = vec![
        (tl.makespan * 0.25, "job retry #1".to_string()),
        (tl.makespan * 0.5, "probe hit: corruption".to_string()),
        (tl.makespan * 0.75, "snapshot restore".to_string()),
    ];
    let raw = chrome_trace_json_with_marks(&tl, &marks);
    let v: serde_json::Value = serde_json::from_str(&raw).expect("marked trace parses");
    let arr = v.as_array().expect("event array");
    assert_monotone_per_tid(arr);
    let recovery: Vec<_> =
        arr.iter().filter(|e| e["cat"] == "recovery" && e["ph"] == "i").collect();
    assert_eq!(recovery.len(), 3, "all marks serialized");
    assert!(recovery.iter().any(|e| e["name"] == "probe hit: corruption"));
    // Spans survive alongside the marks.
    assert!(arr.iter().any(|e| e["ph"] == "X"));
}

#[test]
fn flight_recorder_fragment_is_valid_monotone_chrome_trace() {
    use ca_factor::sched::{FlightEventKind, FlightRecorder, TaskKind, TaskLabel};
    let rec = FlightRecorder::new(2, 8);
    for i in 0..20u64 {
        let lane = (i % 2) as usize;
        let label = TaskLabel::new(TaskKind::Panel, i as usize, 0, 0);
        rec.record(lane, FlightEventKind::Dispatch, i, Some(label));
        rec.record(lane, FlightEventKind::TaskOk, i, None);
    }
    rec.record(2, FlightEventKind::JobShed, 99, None); // external lane
    let raw = rec.chrome_trace_fragment("shed");
    let v: serde_json::Value = serde_json::from_str(&raw).expect("fragment parses");
    assert_eq!(v["trigger"], "shed");
    assert!(v["dropped"].as_f64().expect("dropped count") > 0.0, "ring evicted history");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert_monotone_per_tid(events);
    // Per-lane thread names: worker lanes plus the external lane.
    for name in ["worker-0", "worker-1", "external"] {
        assert!(
            events
                .iter()
                .any(|e| e["name"] == "thread_name" && e["args"]["name"] == name),
            "missing lane {name}"
        );
    }
    // Ring depth bounds retained events per lane (8 each + metadata).
    let instants = events.iter().filter(|e| e["ph"] == "i").count();
    assert!(instants <= 3 * 8, "depth bound violated: {instants}");
    assert!(events.iter().any(|e| e["cat"] == "flight"));
}

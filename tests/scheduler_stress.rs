//! Stress tests of the `ca-sched` runtime: the executor contract over every
//! thread count × option, random DAGs executed on real threads with
//! dependency-order verification, executor-vs-simulator agreement on task
//! sets and, at one worker, on task order, heavy-contention smoke tests,
//! deterministic fault-injection runs exercising the failure/cancellation
//! paths, and seeded delay injection perturbing the schedule of both front
//! doors of the one worker loop.

use ca_factor::sched::{
    execute, job, run_graph, simulate, ChaosPlan, ExecError, Job, TaskFailure, TaskGraph,
    TaskKind, TaskLabel, TaskMeta,
};
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `graph` and returns the failure it must have produced.
fn expect_failure(graph: TaskGraph<Job<'_>>, threads: usize) -> ExecError {
    execute(graph, threads).failure.expect("the failure must surface as an ExecError")
}

/// What makes the contract graph's victim task fail, if anything, and
/// whether the run is audited.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Plain,
    /// The victim's body returns `Err`.
    RealFail,
    /// The victim's body panics.
    RealPanic,
    /// A chaos rule fails the victim before its body runs.
    ChaosFail,
    /// A chaos rule panics the victim before its body runs.
    ChaosPanic,
    /// Under the race detector, every task writing its declared element and
    /// the victim one more.
    Checked,
}

/// Per task of the contract graph: how often its body ran, and when.
struct Probe {
    runs: Vec<AtomicUsize>,
    clock: AtomicU64,
    stamps: Vec<AtomicU64>,
}

impl Probe {
    fn new(n: usize) -> Self {
        Self {
            runs: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            clock: AtomicU64::new(0),
            stamps: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    fn hit(&self, id: usize) {
        self.runs[id].fetch_add(1, Ordering::SeqCst);
        self.stamps[id].store(self.clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
    }
}

#[test]
fn executor_contract_holds_for_every_thread_count_and_option() {
    use ca_factor::matrix::{ElemRect, Matrix};
    use ca_factor::sched::{plan_jobs, FactorOptions, PlanBuilder, Slot, SoundnessError};
    use std::sync::Arc;

    // root -> {victim, good} -> join -> tail, plus an independent chain. A
    // failing victim must cancel exactly {join, tail}; root, good and the
    // whole chain still run.
    const CHAIN: usize = 8;
    let mut shape: TaskGraph<()> = TaskGraph::new();
    let mut add = |kind, step| {
        shape.add_task(TaskMeta::new(TaskLabel::new(kind, step, 0, 0), 1.0), ())
    };
    let root = add(TaskKind::Panel, 0);
    let victim = add(TaskKind::Update, 1);
    let good = add(TaskKind::Panel, 2);
    let join = add(TaskKind::Panel, 3);
    let tail = add(TaskKind::Panel, 4);
    let chain: Vec<usize> = (0..CHAIN).map(|i| add(TaskKind::LBlock, i)).collect();
    for (a, b) in [(root, victim), (root, good), (victim, join), (good, join), (join, tail)] {
        shape.add_dep(a, b);
    }
    for pair in chain.windows(2) {
        shape.add_dep(pair[0], pair[1]);
    }
    let n = shape.len();
    let edges: Vec<(usize, usize)> =
        (0..n).flat_map(|a| shape.successors(a).iter().map(move |&b| (a, b))).collect();

    let modes = [
        Mode::Plain,
        Mode::RealFail,
        Mode::RealPanic,
        Mode::ChaosFail,
        Mode::ChaosPanic,
        Mode::Checked,
    ];
    for threads in [1usize, 2, 8] {
        for mode in modes {
            let case = format!("{threads} threads x {mode:?}");
            let probe = Arc::new(Probe::new(n));
            // The graph's own jobs run as given; a mode that injects or
            // audits runs them as a plan, since faults and audits enter a
            // run only through `plan_jobs`.
            let raw = matches!(mode, Mode::Plain | Mode::RealFail | Mode::RealPanic);
            let (report, violation) = if raw {
                let jobs: TaskGraph<Job<'_>> = shape.map_ref(|id, _| {
                    let probe = &probe;
                    Box::new(move || {
                        probe.hit(id);
                        match mode {
                            Mode::RealFail if id == victim => Err(TaskFailure::new("real failure")),
                            Mode::RealPanic if id == victim => panic!("real panic"),
                            _ => Ok(()),
                        }
                    }) as Job<'_>
                });
                (execute(jobs, threads), None)
            } else {
                // Each task writes the element it declares; checked, the
                // victim also opens the one beside it, which it does not
                // declare, and its lease refuses it.
                let mut pb = PlanBuilder::<f64>::new(1, n, 2);
                // Each contract edge is one slot its ends hand over.
                let slots: Vec<Slot<()>> = edges.iter().map(|_| pb.slot()).collect();
                for id in 0..n {
                    let probe = Arc::clone(&probe);
                    let width = if mode == Mode::Checked && id == victim { 2 } else { 1 };
                    let mut t = pb.task(*shape.meta(id));
                    let row = t.writes_rect(ElemRect::new(id..id + 1, 0..1));
                    for (&(a, b), &s) in edges.iter().zip(&slots) {
                        if a == id {
                            t.writes_slot(s);
                        }
                        if b == id {
                            t.reads_slot(s);
                        }
                    }
                    t.run(move |cx| {
                        probe.hit(id);
                        cx.view_mut(row.block(id, 0, 1, width)).fill(1.0);
                    });
                }
                let is_victim = move |l: &TaskLabel| l.kind == TaskKind::Update;
                let chaos = match mode {
                    Mode::ChaosFail => Some(ChaosPlan::quiet(0).fail_nth(1, is_victim)),
                    Mode::ChaosPanic => Some(ChaosPlan::quiet(0).panic_nth(1, is_victim)),
                    _ => None,
                };
                let opts = FactorOptions {
                    chaos: chaos.map(Arc::new),
                    retry: None,
                    checked: mode == Mode::Checked,
                };
                let (jobs, run) = plan_jobs(pb.finish(|a, _| Some(a)), Matrix::zeros(n, 2), &opts)
                    .expect("the contract graph is sound");
                (execute(jobs, threads), run.violation())
            };
            let (runs, stamps) = (&probe.runs, &probe.stamps);

            let fails = mode != Mode::Plain;
            let injected = matches!(mode, Mode::ChaosFail | Mode::ChaosPanic);
            let cancelled = if fails { vec![join, tail] } else { Vec::new() };

            // Every task runs exactly once, except the cancelled ones and
            // a victim whose failure was injected ahead of its body.
            for (t, ran) in runs.iter().enumerate() {
                let skipped = cancelled.contains(&t) || (injected && t == victim);
                assert_eq!(ran.load(Ordering::SeqCst), usize::from(!skipped), "{case}: task {t}");
            }
            // Dependencies respected.
            for &(a, b) in &edges {
                let (ta, tb) = (stamps[a].load(Ordering::SeqCst), stamps[b].load(Ordering::SeqCst));
                assert!(tb == u64::MAX || ta < tb, "{case}: {b} ran before {a}");
            }
            // The failed task counts as executed; cancelled ones do not.
            assert_eq!(report.stats.tasks, n - cancelled.len(), "{case}");
            report.stats.timeline.validate();
            assert_eq!(report.stats.timeline.lanes.len(), threads, "{case}");

            match &report.failure {
                None => assert!(!fails, "{case}: the failure was lost"),
                Some(e) => {
                    assert!(fails, "{case}: unexpected failure {e}");
                    assert_eq!(e.task, victim, "{case}");
                    assert_eq!(e.label, TaskLabel::new(TaskKind::Update, 1, 0, 0), "{case}");
                    assert!(e.lane < threads, "{case}");
                    let panicked = matches!(mode, Mode::RealPanic | Mode::ChaosPanic | Mode::Checked);
                    assert_eq!(e.panicked, panicked, "{case}");
                    let stray = format!("task S[1,0,0] wrote elements rows {victim}..{} × cols 0..2", victim + 1);
                    let text = match mode {
                        Mode::RealFail => "real failure",
                        Mode::RealPanic => "real panic",
                        Mode::ChaosPanic => "chaos: injected panic at S[1,0,0]",
                        Mode::Checked => &stray,
                        _ => "chaos: injected failure at S[1,0,0]",
                    };
                    assert!(e.message.contains(text), "{case}: {}", e.message);
                    assert_eq!(e.cancelled, cancelled, "{case}");
                }
            }
            // Every run explains itself, whatever the options.
            let profile = report.profile();
            assert_eq!(profile.scheduler, "priority-queue", "{case}");
            assert_eq!(profile.nworkers, threads, "{case}");
            assert_eq!(profile.cancelled, cancelled, "{case}");
            assert_eq!(profile.records.len(), n - cancelled.len(), "{case}");
            // The victim's lease refuses its stray write (checked or not:
            // the lease is checked in every run), naming it.
            match violation {
                None => assert_ne!(mode, Mode::Checked, "{case}: the stray write went unseen"),
                Some(SoundnessError::UndeclaredAccess { task, write, rows, cols }) => {
                    assert_eq!(mode, Mode::Checked, "{case}");
                    assert_eq!(task, "S[1,0,0]", "{case}");
                    assert!(write, "{case}");
                    assert_eq!((rows, cols), ((victim, victim + 1), (0, 2)), "{case}");
                }
                Some(other) => panic!("{case}: expected UndeclaredAccess, got {other}"),
            }
        }
    }
}

#[test]
fn three_front_doors_dispatch_in_priority_then_id_order() {
    // A gate that outranks everything, then four tasks all ready at once,
    // two of them tied. A single worker must take them by priority, then by
    // id — whether the policy runs inside `execute`, behind a one-worker
    // `MultiFrontier`, or on the simulator's virtual clock.
    use ca_factor::sched::{JobOptions, MultiFrontier};
    use std::sync::{mpsc, Arc};
    let meta = |p| TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0).with_priority(p);
    let priorities = [(0usize, 1i64), (1, 5), (2, 3), (3, 5)];
    let build = |order: &Arc<Mutex<Vec<usize>>>, gate: mpsc::Receiver<()>| {
        let mut g: TaskGraph<Job<'static>> = TaskGraph::new();
        g.add_task(meta(100), job(move || gate.recv().unwrap()));
        for (i, p) in priorities {
            let order = Arc::clone(order);
            g.add_task(meta(p), job(move || order.lock().unwrap().push(i)));
        }
        g
    };
    let expected = vec![1, 3, 2, 0];

    let order = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel();
    tx.send(()).unwrap();
    run_graph(build(&order, rx), 1);
    assert_eq!(*order.lock().unwrap(), expected, "execute");

    let order = Arc::new(Mutex::new(Vec::new()));
    let (tx, rx) = mpsc::channel();
    let frontier = MultiFrontier::new(1);
    let (_, watch) = frontier.submit(build(&order, rx), JobOptions::default());
    tx.send(()).unwrap();
    assert!(watch.wait().outcome.is_completed());
    assert_eq!(*order.lock().unwrap(), expected, "MultiFrontier");
    frontier.shutdown();

    let mut g: TaskGraph<()> = TaskGraph::new();
    g.add_task(meta(100), ());
    for (_, p) in priorities {
        g.add_task(meta(p), ());
    }
    let simulated: Vec<usize> =
        simulate(&g, 1, |_, m| m.flops).profile().records.iter().map(|r| r.task).collect();
    let gated: Vec<usize> = std::iter::once(0).chain(expected.iter().map(|i| i + 1)).collect();
    assert_eq!(simulated, gated, "simulate");
}

#[test]
fn one_worker_runs_the_order_the_simulator_replays() {
    // At one worker the schedule is the policy alone: the threaded loop and
    // the simulator pick from the same ready set at every step, so they run
    // every random DAG in the same task order. Priorities in -3..3 leave
    // many ties for the id rule to break.
    for seed in 0..20u64 {
        let g = random_dag(seed, 6, 8, 0.4, 3);
        let jobs: TaskGraph<Job<'_>> = g.map_ref(|_, _| job(|| {}));
        let order = |p: ca_factor::sched::Profile| -> Vec<usize> {
            p.records.iter().map(|r| r.task).collect()
        };
        let executed = order(execute(jobs, 1).profile());
        let simulated = order(simulate(&g, 1, |_, m| m.flops).profile());
        assert_eq!(executed, simulated, "seed {seed}");
    }
}

#[test]
fn run_graph_reraises_the_first_task_panic() {
    let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
    let meta = TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0);
    g.add_task(meta, job(|| panic!("boom in task")));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_graph(g, 2)))
        .expect_err("the task panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in task"));
}

/// Builds a random layered DAG with priorities in `-prio..prio`.
fn random_dag(
    seed: u64,
    layers: usize,
    width: usize,
    edge_prob: f64,
    prio: i64,
) -> TaskGraph<usize> {
    let mut rng = ca_factor::matrix::seeded_rng(seed);
    let mut g: TaskGraph<usize> = TaskGraph::new();
    let mut prev: Vec<usize> = Vec::new();
    let mut count = 0usize;
    for l in 0..layers {
        let mut cur = Vec::new();
        for i in 0..width {
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Other, l, i, 0),
                rng.gen_range(1.0..100.0),
            )
            .with_priority(rng.gen_range(-prio..prio));
            let id = g.add_task(meta, count);
            count += 1;
            for &p in &prev {
                if rng.gen_bool(edge_prob) {
                    g.add_dep(p, id);
                }
            }
            cur.push(id);
        }
        prev = cur;
    }
    g
}

#[test]
fn random_dags_execute_in_dependency_order() {
    for seed in 0..6u64 {
        let g = random_dag(seed, 6, 8, 0.4, 100);
        let n = g.len();
        // Record a completion stamp per task; verify every edge's order.
        let clock = AtomicU64::new(0);
        let stamps: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| g.successors(i).iter().map(move |&s| (i, s)))
            .collect();

        let jobs: TaskGraph<Job<'_>> = g.map_ref(|id, _| {
            let clock = &clock;
            let stamps = &stamps;
            job(move || {
                // Tiny variable work to shake the interleaving.
                let mut acc = 0u64;
                for k in 0..(id % 7) * 100 {
                    acc = acc.wrapping_add(k as u64);
                }
                std::hint::black_box(acc);
                let t = clock.fetch_add(1, Ordering::SeqCst);
                stamps[id].store(t, Ordering::SeqCst);
            })
        });
        let stats = run_graph(jobs, 4);
        assert_eq!(stats.tasks, n);
        for (a, b) in edges {
            let ta = stamps[a].load(Ordering::SeqCst);
            let tb = stamps[b].load(Ordering::SeqCst);
            assert!(ta != u64::MAX && tb != u64::MAX, "task never ran");
            assert!(ta < tb, "dependency {a}->{b} violated (seed {seed})");
        }
    }
}

#[test]
fn pool_and_simulator_run_the_same_task_set() {
    let g = random_dag(99, 5, 6, 0.3, 100);
    let n = g.len();
    let executed = Mutex::new(Vec::new());
    let jobs: TaskGraph<Job<'_>> = g.map_ref(|id, _| {
        let executed = &executed;
        job(move || executed.lock().unwrap().push(id))
    });
    run_graph(jobs, 3);
    let mut ran = executed.into_inner().unwrap();
    ran.sort_unstable();
    assert_eq!(ran, (0..n).collect::<Vec<_>>());

    let tl = simulate(&g, 3, |_, m| m.flops).stats.timeline;
    let mut simmed: Vec<usize> = tl.lanes.iter().flatten().map(|s| s.task).collect();
    simmed.sort_unstable();
    assert_eq!(simmed, (0..n).collect::<Vec<_>>());
}

#[test]
fn wide_fanout_with_many_threads() {
    // 1 -> 500 -> 1 diamond on more threads than cores: no deadlock, no loss.
    let total = AtomicUsize::new(0);
    let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
    let meta = |p: i64| {
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0).with_priority(p)
    };
    let total_ref = &total;
    let root = g.add_task(meta(0), job(move || {
        total_ref.fetch_add(1, Ordering::Relaxed);
    }));
    let mids: Vec<_> = (0..500)
        .map(|i| {
            let id = g.add_task(meta(i % 17), job(move || {
                total_ref.fetch_add(1, Ordering::Relaxed);
            }));
            g.add_dep(root, id);
            id
        })
        .collect();
    let sink = g.add_task(meta(0), job(move || {
        total_ref.fetch_add(1, Ordering::Relaxed);
    }));
    for m in mids {
        g.add_dep(m, sink);
    }
    let stats = run_graph(g, 16);
    assert_eq!(total.load(Ordering::Relaxed), 502);
    stats.timeline.validate();
}

#[test]
fn injected_panics_never_hang_and_cancel_successors() {
    // Panic at the first, middle, and last task of a chain, at 1/4/16
    // threads: the pool must drain without hanging, cancel exactly the
    // downstream tasks, and name the failed task in the error.
    let n = 24usize;
    for &threads in &[1usize, 4, 16] {
        for &pos in &[0usize, n / 2, n - 1] {
            let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let mut g: TaskGraph<Job<'_>> = TaskGraph::new();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let meta = TaskMeta::new(TaskLabel::new(TaskKind::Update, i, 0, 0), 1.0);
                    let ran = &ran;
                    g.add_task(meta, job(move || {
                        assert_ne!(i, pos, "panic at task {i}");
                        ran[i].fetch_add(1, Ordering::SeqCst);
                    }))
                })
                .collect();
            for pair in ids.windows(2) {
                g.add_dep(pair[0], pair[1]);
            }
            let err = expect_failure(g, threads);
            assert_eq!(err.task, ids[pos]);
            assert_eq!(err.label.step, pos);
            assert!(err.panicked);
            assert_eq!(err.cancelled, ids[pos + 1..].to_vec());
            for (i, r) in ran.iter().enumerate() {
                let expect = usize::from(i < pos);
                assert_eq!(
                    r.load(Ordering::SeqCst),
                    expect,
                    "task {i} (panic at {pos}, {threads} threads)"
                );
            }
        }
    }
}

#[test]
fn random_dag_failure_cancels_exact_transitive_closure() {
    // A job returning Err in a random DAG: the cancelled set reported by
    // the pool must equal the true transitive closure of the failed task,
    // and everything outside it must have run exactly once.
    for seed in 0..4u64 {
        let g = random_dag(seed + 40, 5, 6, 0.35, 100);
        let n = g.len();
        let fail_at = (7 * (seed as usize + 1)) % n;
        let mut expected = vec![false; n];
        let mut stack: Vec<usize> = g.successors(fail_at).to_vec();
        while let Some(s) = stack.pop() {
            if !expected[s] {
                expected[s] = true;
                stack.extend(g.successors(s).iter().copied());
            }
        }
        let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let jobs: TaskGraph<Job<'_>> = g.map_ref(|id, _| {
            let ran = &ran;
            if id == fail_at {
                Box::new(move || {
                    ran[id].fetch_add(1, Ordering::SeqCst);
                    Err(TaskFailure::new("synthetic breakdown"))
                }) as Job<'_>
            } else {
                job(move || {
                    ran[id].fetch_add(1, Ordering::SeqCst);
                })
            }
        });
        let err = expect_failure(jobs, 4);
        assert_eq!(err.task, fail_at, "seed {seed}");
        assert!(!err.panicked);
        assert!(err.message.contains("synthetic breakdown"));
        let expected_ids: Vec<usize> = (0..n).filter(|&i| expected[i]).collect();
        assert_eq!(err.cancelled, expected_ids, "seed {seed}");
        for i in 0..n {
            let runs = ran[i].load(Ordering::SeqCst);
            if expected[i] {
                assert_eq!(runs, 0, "cancelled task {i} ran (seed {seed})");
            } else {
                assert_eq!(runs, 1, "task {i} did not run exactly once (seed {seed})");
            }
        }
    }
}

/// Builds a random task set with block-granular footprints declared through
/// [`BlockTracker`]; returns the graph plus the retained [`AccessMap`].
/// Deterministic in `seed`, so calling twice reproduces the same graph.
fn random_block_graph(
    seed: u64,
    tasks: usize,
    grid: usize,
) -> (TaskGraph<usize>, ca_factor::sched::AccessMap) {
    use ca_factor::sched::BlockTracker;
    let mut rng = ca_factor::matrix::seeded_rng(seed);
    let mut g: TaskGraph<usize> = TaskGraph::new();
    let mut tracker = BlockTracker::new(grid, grid);
    let region = |rng: &mut rand::rngs::StdRng| {
        let r0 = rng.gen_range(0..grid);
        let r1 = rng.gen_range(r0..grid) + 1;
        let c0 = rng.gen_range(0..grid);
        let c1 = rng.gen_range(c0..grid) + 1;
        (r0..r1, c0..c1)
    };
    for t in 0..tasks {
        let meta = TaskMeta::new(TaskLabel::new(TaskKind::Other, t, 0, 0), 1.0);
        let id = g.add_task(meta, t);
        if rng.gen_bool(0.7) {
            let (rows, cols) = region(&mut rng);
            tracker.read(&mut g, id, rows, cols);
        }
        let (rows, cols) = region(&mut rng);
        tracker.write(&mut g, id, rows, cols);
    }
    (g, tracker.into_access_map())
}

/// DFS reachability over the live graph (post edge removal).
fn path_exists(g: &TaskGraph<usize>, from: usize, to: usize) -> bool {
    let mut seen = vec![false; g.len()];
    let mut stack = vec![from];
    while let Some(t) = stack.pop() {
        if t == to {
            return true;
        }
        if !seen[t] {
            seen[t] = true;
            stack.extend(g.successors(t).iter().copied());
        }
    }
    false
}

#[test]
fn verifier_accepts_tracker_built_random_graphs() {
    // Property: any graph whose edges come from BlockTracker declarations is
    // sound by construction — the verifier must accept it.
    for seed in 0..8u64 {
        let (g, access) = random_block_graph(seed, 40, 6);
        let report = ca_factor::sched::verify_graph(&g, &access)
            .unwrap_or_else(|e| panic!("seed {seed}: tracker-built graph rejected: {e}"));
        assert_eq!(report.tasks, g.len());
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // probing the verifier with raw edge deletions
fn verifier_rejects_edge_deletions_that_break_ordering() {
    // Property: removing a tracker-created edge (a, b) leaves the graph
    // sound iff an alternate a→b path remains (the edge was transitively
    // redundant). The verifier's verdict must match exact reachability, and
    // a rejection must name a genuinely unordered pair.
    use ca_factor::sched::SoundnessError;
    let mut rejected = 0usize;
    for seed in 0..6u64 {
        let (g0, _) = random_block_graph(seed, 30, 5);
        let edges: Vec<(usize, usize)> = (0..g0.len())
            .flat_map(|i| g0.successors(i).iter().map(move |&s| (i, s)))
            .collect();
        for (idx, &(a, b)) in edges.iter().enumerate() {
            if idx % 3 != 0 {
                continue; // sample a third of the edges per seed
            }
            let (mut g, access) = random_block_graph(seed, 30, 5);
            assert!(g.remove_dep(a, b), "edge {a}->{b} must exist");
            let reachable = path_exists(&g, a, b);
            match ca_factor::sched::verify_graph(&g, &access) {
                Ok(_) => assert!(
                    reachable,
                    "seed {seed}: accepted graph with unordered pair {a}->{b}"
                ),
                Err(SoundnessError::UnorderedConflict { first, second, rect, .. }) => {
                    assert!(!rect.is_empty(), "seed {seed}: no overlapping rect named");
                    assert!(
                        !path_exists(&g, first, second) && !path_exists(&g, second, first),
                        "seed {seed}: reported pair {first}/{second} is actually ordered"
                    );
                    rejected += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected error class: {e}"),
            }
        }
    }
    assert!(rejected > 0, "no edge deletion produced a rejection");
}

#[test]
fn multifrontier_failed_job_cancels_only_its_own_tasks() {
    // Four chain jobs on a shared MultiFrontier pool; one job's middle task
    // fails. The failure must cancel exactly that job's downstream tasks,
    // every other job must complete with its exact checksum, and the pool
    // must stay live for later submissions.
    use ca_factor::sched::{dyn_job, DynJob, JobOptions, JobOutcome, MultiFrontier};
    use std::sync::Arc;
    use std::time::Duration;

    const JOBS: usize = 4;
    const CHAIN: usize = 12;
    const FAIL_JOB: usize = 1;
    const FAIL_AT: usize = 5;
    let term = |t: usize| (t as u64 + 1) * (t as u64 + 1);

    let frontier = MultiFrontier::new(3);
    let accs: Vec<Arc<AtomicU64>> = (0..JOBS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut watches = Vec::new();
    for (jidx, acc) in accs.iter().enumerate() {
        let mut g: ca_factor::sched::TaskGraph<DynJob> = ca_factor::sched::TaskGraph::new();
        let mut prev = None;
        for t in 0..CHAIN {
            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Update, t, jidx, 0), 1.0);
            let acc = acc.clone();
            let body: DynJob = if jidx == FAIL_JOB && t == FAIL_AT {
                Box::new(move || Err(TaskFailure::new("synthetic mid-chain fault")))
            } else {
                dyn_job(move || {
                    acc.fetch_add(term(t), Ordering::SeqCst);
                })
            };
            let id = g.add_task(meta, body);
            if let Some(p) = prev {
                g.add_dep(p, id);
            }
            prev = Some(id);
        }
        watches.push(frontier.submit(g, JobOptions::default()));
    }

    let full: u64 = (0..CHAIN).map(term).sum();
    let prefix: u64 = (0..FAIL_AT).map(term).sum();
    for (jidx, (_, watch)) in watches.iter().enumerate() {
        let report = watch
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("job {jidx} stalled"));
        match (&report.outcome, jidx == FAIL_JOB) {
            (JobOutcome::Failed(err), true) => {
                assert_eq!(err.label.step, FAIL_AT);
                assert!(err.message.contains("synthetic mid-chain fault"));
                assert_eq!(report.tasks_cancelled, CHAIN - FAIL_AT - 1);
                assert_eq!(accs[jidx].load(Ordering::SeqCst), prefix);
            }
            (JobOutcome::Completed, false) => {
                assert_eq!(
                    accs[jidx].load(Ordering::SeqCst),
                    full,
                    "job {jidx} checksum corrupted by a peer's failure"
                );
            }
            (outcome, _) => panic!("job {jidx}: unexpected outcome {outcome:?}"),
        }
    }

    // Post-failure liveness: the pool still serves fresh work promptly.
    let done = Arc::new(AtomicUsize::new(0));
    let mut g: ca_factor::sched::TaskGraph<DynJob> = ca_factor::sched::TaskGraph::new();
    let done2 = done.clone();
    g.add_task(
        TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0),
        dyn_job(move || {
            done2.fetch_add(1, Ordering::SeqCst);
        }),
    );
    let (_, watch) = frontier.submit(g, JobOptions::default());
    let report = watch
        .wait_timeout(Duration::from_secs(30))
        .expect("pool must stay live after a job failure");
    assert!(report.outcome.is_completed());
    assert_eq!(done.load(Ordering::SeqCst), 1);
    frontier.shutdown();
}

#[test]
fn multifrontier_chaos_exhaustion_is_isolated_from_recovering_peers() {
    // One job runs under a doomed chaos plan (every Update attempt fails,
    // one replay): its first task exhausts the budget and the job fails
    // alone. Two peers run under targeted fail/panic injection with the
    // default replay budget: both must recover and produce their exact
    // checksums — per-job recovery state (plans, budgets, logged counts)
    // must never bleed across jobs sharing the worker pool, and neither may
    // the flight marks: every retry/restore/inject mark names its task's job
    // (ids 0, 1 and 2, so a recorder that always says 0 is caught).
    use ca_factor::matrix::{ElemRect, Matrix};
    use ca_factor::sched::{
        plan_jobs, ChaosPlan, ChaosProfile, FactorOptions, JobOptions, JobOutcome, MultiFrontier,
        PlanBuilder, Retry, RetryPolicy,
    };
    use std::sync::Arc;
    use std::time::Duration;

    const JOBS: usize = 3;
    const CHAIN: usize = 10;
    const DOOMED: usize = 0;
    let term = |t: usize| (t as u64 + 1).pow(3);

    let frontier = MultiFrontier::new(3);
    let recorder = frontier.set_flight_recorder(1024);
    // Each job is a plan of its own: a chain of tasks that pass data through
    // an accumulator and all declare the job's own element as their
    // write-set, so a replay has something to restore (and the tracker
    // infers the chain from the write-after-write conflicts).
    let mut watches = Vec::new();
    let mut accs = Vec::new();
    for jidx in 0..JOBS {
        let acc = Arc::new(AtomicU64::new(0));
        accs.push(acc.clone());
        let doomed = jidx == DOOMED;
        let plan = Arc::new(if doomed {
            ChaosPlan::quiet(0).with_class_profile(
                TaskKind::Update,
                ChaosProfile::quiet().with_fail_rate(1.0),
            )
        } else {
            ChaosPlan::quiet(jidx as u64)
                .fail_nth(1, |l| l.kind == TaskKind::Update && l.step == 2)
                .panic_nth(1, |l| l.kind == TaskKind::Update && l.step == 7)
        });
        let policy = if doomed {
            RetryPolicy::default().with_max_retries(1)
        } else {
            RetryPolicy::default()
        };
        let mut pb = PlanBuilder::<f64>::new(1, JOBS, 1);
        for t in 0..CHAIN {
            let acc = acc.clone();
            let mut task = pb.task(TaskMeta::new(TaskLabel::new(TaskKind::Update, t, jidx, 0), 1.0));
            task.writes_rect(ElemRect::new(jidx..jidx + 1, 0..1));
            task.run(move |_| {
                acc.fetch_add(term(t), Ordering::SeqCst);
            });
        }
        let opts = FactorOptions {
            chaos: Some(plan),
            retry: Some(Retry { policy, replays: 0 }),
            checked: false,
        };
        let (g, _) = plan_jobs(pb.finish(|a, _| Some(a)), Matrix::zeros(JOBS, 1), &opts)
            .expect("nothing to verify");
        watches.push(frontier.submit(g, JobOptions::default()));
    }

    let full: u64 = (0..CHAIN).map(term).sum();
    for (jidx, (_, watch)) in watches.iter().enumerate() {
        let report = watch
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|| panic!("job {jidx} stalled"));
        let s = report.recovery;
        if jidx == DOOMED {
            match &report.outcome {
                JobOutcome::Failed(err) => {
                    assert_eq!(err.label.step, 0, "first task exhausts first");
                    assert!(err.message.contains("chaos: injected failure"));
                }
                outcome => panic!("doomed job: unexpected outcome {outcome:?}"),
            }
            assert_eq!(report.tasks_cancelled, CHAIN - 1);
            assert_eq!(accs[jidx].load(Ordering::SeqCst), 0, "no doomed body may run");
            assert!(s.exhausted_tasks >= 1, "{s:?}");
        } else {
            assert!(report.outcome.is_completed(), "job {jidx}: {:?}", report.outcome);
            assert_eq!(
                accs[jidx].load(Ordering::SeqCst),
                full,
                "job {jidx} must recover to its exact checksum"
            );
            assert!(s.injected_failures >= 1, "job {jidx}: {s:?}");
            assert!(s.injected_panics >= 1, "job {jidx}: {s:?}");
            assert!(s.recovered_tasks >= 2, "job {jidx}: {s:?}");
            assert_eq!(s.exhausted_tasks, 0, "job {jidx}: {s:?}");
        }
    }

    // The recovery marks, as a flight dump shows them: "<kind> S[step,i,j]"
    // with `i` the index of the job that owns the label.
    let dump: serde_json::Value =
        serde_json::from_str(&recorder.chrome_trace_fragment("test")).expect("dump parses");
    let mut marked = [[0usize; 3]; JOBS];
    for e in dump["traceEvents"].as_array().expect("events") {
        let name = e["name"].as_str().expect("named event");
        let Some((kind, label)) = name.split_once(' ') else { continue };
        let Some(kind) = ["retry", "restore", "inject"].iter().position(|&k| k == kind) else {
            continue;
        };
        let owner: usize = label.split(',').nth(1).and_then(|i| i.parse().ok()).expect("label");
        assert_eq!(e["args"]["job"].as_u64(), Some(watches[owner].0), "{name} under the wrong job");
        marked[owner][kind] += 1;
    }
    assert!(marked.iter().flatten().all(|&n| n > 0), "a job left no mark of some kind: {marked:?}");
    frontier.shutdown();
}

#[test]
fn repeated_runs_of_calu_are_stable_under_contention() {
    // Run the same parallel factorization many times with more threads than
    // cores; results must be identical every time (no data races).
    use ca_factor::prelude::*;
    let a = ca_factor::matrix::random_uniform(120, 120, &mut ca_factor::matrix::seeded_rng(5));
    let p = CaParams::new(20, 4, 8);
    let reference = calu(a.clone(), &p);
    for _ in 0..5 {
        let f = calu(a.clone(), &p);
        assert_eq!(f.lu.as_slice(), reference.lu.as_slice());
        assert_eq!(f.pivots.ipiv, reference.pivots.ipiv);
    }
}

/// A plan that injects nothing but delays: six short sleeps whose target
/// kind, occurrence and length derive from `seed`, so each seed stalls a
/// worker at different points of the schedule.
fn delay_plan(seed: u64) -> ChaosPlan {
    use std::time::Duration;
    let mut rng = ca_factor::matrix::seeded_rng(seed);
    let mut plan = ChaosPlan::quiet(seed);
    for _ in 0..6 {
        let kind = [TaskKind::Panel, TaskKind::Update, TaskKind::LBlock][rng.gen_range(0..3usize)];
        let delay = Duration::from_micros(rng.gen_range(50..450));
        plan = plan.delay_nth(rng.gen_range(1..6), delay, move |l| l.kind == kind);
    }
    plan
}

#[test]
fn seeded_delays_never_change_the_factors() {
    // The schedule diversity a second queue discipline used to provide, now
    // through the one loop: whatever task a seed stalls, on 2, 3 or 4
    // threads, CALU and CAQR stay bitwise identical to the undisturbed run.
    use ca_factor::core::{try_calu_with, try_caqr_with, FactorOptions};
    use ca_factor::prelude::*;
    let a = ca_factor::matrix::random_uniform(160, 120, &mut ca_factor::matrix::seeded_rng(21));
    let reference = CaParams::new(20, 4, 1);
    let lu0 = calu(a.clone(), &reference);
    let qr0 = caqr(a.clone(), &reference);
    for seed in 0..8u64 {
        for threads in [2usize, 3, 4] {
            let p = CaParams { threads, ..reference };
            let delays = || FactorOptions {
                chaos: Some(std::sync::Arc::new(delay_plan(seed))),
                ..Default::default()
            };
            let (lu, _) = try_calu_with(a.clone(), &p, &delays()).expect("delays fail nothing");
            assert_eq!(lu.lu.as_slice(), lu0.lu.as_slice(), "CALU seed {seed} x {threads}");
            assert_eq!(lu.pivots.ipiv, lu0.pivots.ipiv, "CALU seed {seed} x {threads}");
            let (qr, _) = try_caqr_with(a.clone(), &p, &delays()).expect("delays fail nothing");
            assert_eq!(qr.r().as_slice(), qr0.r().as_slice(), "CAQR seed {seed} x {threads}");
        }
    }
}

#[test]
fn multifrontier_survives_interleaved_submit_cancel_shed_and_shutdown() {
    // Two clients hammer one frontier with submissions, cancels of their own
    // earlier jobs and sheds, under seeded delays; one of them shuts the
    // frontier down while the other is still submitting. Whatever the
    // interleaving: every watch resolves, every task of every job is
    // accounted exactly once, and a body ran iff the report counts it — so
    // nothing runs once a job is final, in particular not after a cancel
    // that found nothing in flight.
    use ca_factor::matrix::Matrix;
    use ca_factor::sched::{
        plan_jobs, CancelReason, DynJob, FactorOptions, JobOptions, JobOutcome, MultiFrontier,
        PlanBuilder,
    };
    use std::sync::Arc;
    use std::time::Duration;

    const CLIENTS: usize = 2;
    const JOBS_EACH: usize = 16;
    for seed in 0..8u64 {
        let frontier = MultiFrontier::new(3);
        let delays =
            FactorOptions { chaos: Some(Arc::new(delay_plan(seed))), ..Default::default() };
        let ran: Vec<Arc<AtomicUsize>> =
            (0..CLIENTS * JOBS_EACH).map(|_| Arc::new(AtomicUsize::new(0))).collect();

        // Job `j`: a random layered DAG as a plan whose bodies count
        // themselves; `plan_jobs` is what makes them consult the delay plan.
        let build = |j: usize| -> TaskGraph<DynJob> {
            let kinds = [TaskKind::Panel, TaskKind::Update, TaskKind::LBlock];
            let dag = random_dag(seed * 1000 + j as u64, 3, 3, 0.5, 100);
            let mut pb = PlanBuilder::<f64>::new(1, 1, 1);
            // Each edge is one slot its ends hand over.
            let edges: Vec<(usize, usize)> =
                (0..dag.len()).flat_map(|a| dag.successors(a).iter().map(move |&b| (a, b))).collect();
            let slots: Vec<ca_factor::sched::Slot<()>> = edges.iter().map(|_| pb.slot()).collect();
            for id in 0..dag.len() {
                let ran = Arc::clone(&ran[j]);
                let label = TaskLabel::new(kinds[id % 3], id, j, 0);
                let mut t = pb.task(TaskMeta { label, ..*dag.meta(id) });
                for (&(before, after), &s) in edges.iter().zip(&slots) {
                    if before == id {
                        t.writes_slot(s);
                    }
                    if after == id {
                        t.reads_slot(s);
                    }
                }
                t.run(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            plan_jobs(pb.finish(|a, _| Some(a)), Matrix::zeros(1, 1), &delays).expect("unchecked").0
        };

        // Each client reports its jobs as (index, task count, watch) and the
        // body counts it froze: a cancel that returned `true` and left the
        // watch already resolved found nothing in flight.
        let clients: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (frontier, build, ran) = (&frontier, &build, &ran);
                    scope.spawn(move || {
                        let mut rng = ca_factor::matrix::seeded_rng(seed * 2 + c as u64);
                        let mut mine = Vec::new();
                        let mut frozen = Vec::new();
                        for k in 0..JOBS_EACH {
                            let j = c * JOBS_EACH + k;
                            let graph = build(j);
                            let len = graph.len();
                            let (id, watch) = frontier.submit(graph, JobOptions::default());
                            mine.push((j, len, id, watch));
                            match rng.gen_range(0..4) {
                                0 => {
                                    let (vj, _, vid, vwatch) = &mine[rng.gen_range(0..mine.len())];
                                    if frontier.cancel(*vid) && vwatch.is_done() {
                                        frozen.push((*vj, ran[*vj].load(Ordering::SeqCst)));
                                    }
                                }
                                1 => drop(frontier.shed_oldest_queued()),
                                _ => {}
                            }
                            // Closed loop, three jobs deep: work gets done
                            // while the queue stays long enough to shed from.
                            if let Some((_, _, _, old)) = k.checked_sub(3).map(|i| &mine[i]) {
                                old.wait_timeout(Duration::from_secs(30)).expect("stalled job");
                            }
                            if c == 0 && k == 2 * JOBS_EACH / 3 {
                                frontier.shutdown();
                            }
                        }
                        (mine, frozen)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        frontier.shutdown();

        for (mine, frozen) in clients {
            for (j, len, _, watch) in mine {
                let report = watch
                    .wait_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|| panic!("seed {seed}: job {j} never resolved"));
                let case = format!("seed {seed} job {j}: {:?}", report.outcome);
                assert_eq!(report.tasks_run + report.tasks_cancelled, len, "{case}");
                assert_eq!(ran[j].load(Ordering::SeqCst), report.tasks_run, "{case}");
                match report.outcome {
                    JobOutcome::Completed => assert_eq!(report.tasks_run, len, "{case}"),
                    JobOutcome::Cancelled(CancelReason::Shed) => {
                        assert_eq!(report.tasks_run, 0, "{case}: shed jobs never started")
                    }
                    JobOutcome::Cancelled(_) => {}
                    JobOutcome::Failed(_) => panic!("{case}: delays fail nothing"),
                }
            }
            for (j, count) in frozen {
                assert_eq!(ran[j].load(Ordering::SeqCst), count, "seed {seed}: job {j} ran on");
            }
        }
    }
}

//! The equivalence matrix (DESIGN.md §5). A task DAG only reorders
//! Algorithm 1/2 and the reduction tree fixes the arithmetic, so every route
//! through this library gives the bits of the sequential reference: LU the
//! packed factors, pivots, breakdown and growth record of `calu_seq_factor`,
//! QR the factored matrix of `caqr_seq`. Each route is one arm of [`start`],
//! each shape or parameter variation one row of [`cases`]; both run in f64
//! and, where the route is generic, f32. A failing row names the route, the
//! shape and the parameters.
//!
//! The table is defined once, here; [`part_of`] gives each row to exactly one
//! [`Part`], and each part is checked by the test that held that claim before
//! it was a row (the integration suites include this module with
//! `mod equivalence_table;`).

#![allow(dead_code)]

use ca_factor::core::*;
use ca_factor::kernels::Kernel;
use ca_factor::matrix::{random_uniform, seeded_rng, Matrix, Scalar};
use ca_factor::ooc::*;
use ca_factor::sched::*;
use ca_factor::serve::*;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Named bit patterns a route must reproduce, field by field.
pub type Bits = Vec<(&'static str, Vec<u64>)>;

pub fn bits<T: Scalar>(a: &Matrix<T>) -> Vec<u64> {
    a.as_slice().iter().map(|x| x.to_bits_u64()).collect()
}

pub fn words(v: impl IntoIterator<Item = usize>) -> Vec<u64> {
    v.into_iter().map(|x| x as u64).collect()
}

/// The value of `r`, or a panic naming `what`.
pub fn ok<V, E: std::fmt::Display>(r: Result<V, E>, what: &str) -> V {
    r.unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Panics naming `what` and the first field and element where `got` leaves `want`.
pub fn same(what: &str, got: &Bits, want: &Bits) {
    for ((name, g), (_, w)) in got.iter().zip(want) {
        if let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) {
            panic!("{what}: {name}[{i}] is {:x?}, the reference has {:x?}", g.get(i), w.get(i));
        }
    }
}

/// The `FactorOptions` of a `With` or `Served` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Opts {
    Plain,
    Checked,
    Retry,
    /// A delay injected without `retry`.
    Delay,
    /// `retry` over targeted faults: the first `Update` fails, the second
    /// `Panel` panics, the first `LBlock` is delayed.
    Faults,
    /// `retry` over a silent corruption of the first `Update`'s output.
    Corrupt,
    /// `retry` over a task (the plan's first) failing past its budget.
    Exhaust,
}

impl Opts {
    const ALL: [Opts; 7] =
        [Opts::Plain, Opts::Checked, Opts::Retry, Opts::Delay, Opts::Faults, Opts::Corrupt, Opts::Exhaust];

    /// Fresh options (a chaos plan is single-use); `victim` is the label
    /// `Exhaust` fails.
    fn build(self, victim: TaskLabel) -> FactorOptions {
        let us50 = Duration::from_micros(50);
        let update = |l: &TaskLabel| l.kind == TaskKind::Update;
        let chaos = match self {
            Opts::Delay => Some(ChaosPlan::quiet(1).delay_nth(1, us50, update)),
            Opts::Faults => Some(
                ChaosPlan::quiet(2)
                    .fail_nth(1, update)
                    .panic_nth(2, |l| l.kind == TaskKind::Panel)
                    .delay_nth(1, us50, |l| l.kind == TaskKind::LBlock),
            ),
            Opts::Corrupt => Some(ChaosPlan::quiet(3).corrupt_nth(1, update)),
            Opts::Exhaust => {
                let attempts = RetryPolicy::default().max_retries + 1;
                Some((1..=attempts).fold(ChaosPlan::quiet(4), |c, n| c.fail_nth(n, move |l| *l == victim)))
            }
            _ => None,
        };
        let retry = (self == Opts::Retry || self.faulty()).then(Retry::default);
        FactorOptions { chaos: chaos.map(Arc::new), retry, checked: self == Opts::Checked }
    }

    /// `retry` over injected faults.
    fn faulty(self) -> bool {
        matches!(self, Opts::Faults | Opts::Corrupt | Opts::Exhaust)
    }

    /// What a run under these options must have counted, by its log: every injected fault replayed
    /// from a restored write-set, one probe under `retry`, and a corruption or a task out of budget
    /// answered by one probe failure or exhaustion and one whole-plan replay. An `Update` to fail
    /// or corrupt exists iff a panel has `trailing` columns.
    fn check(self, s: &RecoveryStats, trailing: bool, what: &str) {
        let injected = s.injected_failures + s.injected_panics;
        let ladder = (s.injected_corruptions, s.probes, s.probe_failures, s.exhausted_tasks, s.replays);
        let want = match self {
            Opts::Faults => {
                let fired = (s.injected_failures >= 1, s.injected_panics >= 1);
                assert_eq!(fired, (trailing, true), "{what}: {s:?}");
                assert!(s.recovered_tasks == injected && s.restores >= s.injected_failures, "{what}: {s:?}");
                (0, 1, 0, 0, 0)
            }
            Opts::Corrupt if trailing => (1, 2, 1, 0, 1),
            Opts::Exhaust => {
                assert_eq!(s.injected_failures, RetryPolicy::default().max_retries as u64 + 1, "{what}: {s:?}");
                (0, 1, 0, 1, 1)
            }
            Opts::Retry | Opts::Corrupt => (0, 1, 0, 0, 0),
            Opts::Plain | Opts::Checked | Opts::Delay => (0, 0, 0, 0, 0),
        };
        if !matches!(self, Opts::Faults | Opts::Exhaust) {
            assert_eq!((injected, s.recovered_tasks), (0, 0), "{what}: {s:?}");
        }
        assert_eq!(ladder, want, "{what}: {s:?}");
    }
}

/// A way from a matrix to its factors: `calu`/`caqr` (`Dag`), `try_*_with` and
/// `try_*_profiled` on so many workers; `*_serve_graph(.., false)` on a
/// `MultiFrontier` of so many workers (`Served`) and `(.., true)` (`OneTask`);
/// `Service::submit_{lu,qr}` and `submit_solve` / `submit_lstsq` (held to
/// the solution the reference factors give), each on the tiny route or
/// `unbatched`;
/// `ooc_calu`/`ooc_caqr` on so many workers, in the fewest superpanels that
/// are at least so many.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Route {
    Dag(usize),
    With(usize, Opts),
    Profiled(usize),
    Served(usize, Opts),
    OneTask,
    Service { tiny: bool },
    Solve { tiny: bool },
    Ooc(usize, usize),
}

/// Which test checks a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The `Dag` rows of every case but the sweep (tests/equivalence.rs).
    Dag,
    /// The seeded sweep of shapes and trees (tests/properties.rs).
    Sweep,
    /// `Profiled`, and `With` and `Served` under every option but the faults (tests/cross_crate.rs).
    Options,
    /// `With` and `Served` under `Faults`, `Corrupt` and `Exhaust` (tests/recovery.rs).
    Faults,
    /// The service's tiny and `unbatched` routes, its solves, and the served
    /// one-task route (tests/serve.rs).
    Service,
    /// `ooc_calu`/`ooc_caqr` in f64 (tests/ooc.rs).
    Ooc,
    /// `ooc_calu`/`ooc_caqr` in f32 (tests/ooc.rs).
    OocF32,
}

/// The one part that holds `route` on case `name` in precision `t`.
fn part_of(name: &str, route: Route, t: &str) -> Part {
    match route {
        _ if name == "sweep" => Part::Sweep,
        Route::Dag(_) => Part::Dag,
        Route::With(_, o) | Route::Served(_, o) if o.faulty() => Part::Faults,
        Route::With(..) | Route::Served(..) | Route::Profiled(_) => Part::Options,
        Route::Service { .. } | Route::Solve { .. } | Route::OneTask => Part::Service,
        Route::Ooc(..) if t == "f32" => Part::OocF32,
        Route::Ooc(..) => Part::Ooc,
    }
}

/// A run's factors and what the run reports beside them.
type Ran<F, R> = Result<(F, R), FactorError>;
type Handle<F> = Result<JobHandle<F>, ServeError>;
type Serve<F> = fn(Matrix, &CaParams, &FactorOptions, bool) -> Built<F>;

/// A factorization's entry points at element type `T`, its factors `F`.
struct Entries<T: Kernel, F> {
    seq: fn(Matrix<T>, &CaParams) -> F,
    dag: fn(Matrix<T>, &CaParams) -> F,
    with: fn(Matrix<T>, &CaParams, &FactorOptions) -> Ran<F, RunReport>,
    profiled: fn(Matrix<T>, &CaParams) -> Ran<F, Profile>,
    /// The solve from given factors, `None` for a shape it does not take.
    solve: fn(&F, &Matrix<T>) -> Option<Matrix<T>>,
    /// Factors the store in place; the factors as the in-core type.
    ooc: fn(&TileStore<T>, &CaParams, usize) -> Result<F, FactorError>,
    bits: fn(&F) -> Bits,
}

/// One factorization: its entry points, the f64-only served ones apart.
trait Class {
    type F<T: Kernel>: Send + Sync + 'static;
    const NAME: &'static str;
    const OOC: OocKind;
    const GRAPH: fn(usize, usize, &CaParams) -> TaskGraph<()>;
    const SERVE: Serve<Self::F<f64>>;
    const SUBMIT: fn(&Service, Matrix, SubmitOptions) -> Handle<Self::F<f64>>;
    /// The service's factor-and-solve.
    const SUBMIT_SOLVE: fn(&Service, Matrix, Matrix, SubmitOptions) -> Handle<Matrix>;
    fn entries<T: Kernel>() -> Entries<T, Self::F<T>>;
}

struct Lu;
struct Qr;

impl Class for Lu {
    type F<T: Kernel> = LuFactors<T>;
    const NAME: &'static str = "LU";
    const OOC: OocKind = OocKind::Lu;
    const GRAPH: fn(usize, usize, &CaParams) -> TaskGraph<()> = calu_task_graph;
    const SERVE: Serve<LuFactors> = calu_serve_graph;
    const SUBMIT: fn(&Service, Matrix, SubmitOptions) -> Handle<LuFactors> = Service::submit_lu;
    const SUBMIT_SOLVE: fn(&Service, Matrix, Matrix, SubmitOptions) -> Handle<Matrix> = Service::submit_solve;
    fn entries<T: Kernel>() -> Entries<T, LuFactors<T>> {
        Entries {
            seq: calu_seq_factor,
            dag: calu,
            with: try_calu_with,
            profiled: try_calu_profiled,
            solve: |f, rhs| (f.lu.nrows() == f.lu.ncols()).then(|| f.solve(rhs)),
            ooc: |store, p, budget| {
                let f = ooc_calu(store, p, budget)?;
                Ok(LuFactors { lu: store.export_matrix()?, pivots: f.pivots, breakdown: f.breakdown, stats: f.stats })
            },
            bits: |f| {
                vec![
                    ("L\\U", bits(&f.lu)),
                    ("ipiv", words(f.pivots.ipiv.iter().copied())),
                    ("breakdown", words(f.breakdown)),
                    ("growth", f.stats.panel_growth.iter().map(|g| g.to_bits()).collect()),
                    ("fallback", words(f.stats.fallback_panels.iter().copied())),
                ]
            },
        }
    }
}

impl Class for Qr {
    type F<T: Kernel> = QrFactors<T>;
    const NAME: &'static str = "QR";
    const OOC: OocKind = OocKind::Qr;
    const GRAPH: fn(usize, usize, &CaParams) -> TaskGraph<()> = caqr_task_graph;
    const SERVE: Serve<QrFactors> = caqr_serve_graph;
    const SUBMIT: fn(&Service, Matrix, SubmitOptions) -> Handle<QrFactors> = Service::submit_qr;
    const SUBMIT_SOLVE: fn(&Service, Matrix, Matrix, SubmitOptions) -> Handle<Matrix> = Service::submit_lstsq;
    fn entries<T: Kernel>() -> Entries<T, QrFactors<T>> {
        Entries {
            seq: caqr_seq,
            dag: caqr,
            with: try_caqr_with,
            profiled: try_caqr_profiled,
            solve: |f, rhs| (f.a.nrows() >= f.a.ncols()).then(|| f.solve_ls(rhs)),
            ooc: |store, p, budget| {
                let f = ooc_caqr(store, p, budget)?;
                Ok(QrFactors { a: store.export_matrix()?, panels: f.panels })
            },
            bits: qr_bits,
        }
    }
}

/// The bits a QR route must reproduce: the factored matrix and the panel count.
pub fn qr_bits<T: Scalar>(f: &QrFactors<T>) -> Bits {
    vec![("R\\V", bits(&f.a)), ("panels", words([f.panels.len()]))]
}

/// A route's bits and the recovery its log folds to, once it is done.
type Pending = Box<dyn FnOnce() -> (Bits, Option<RecoveryStats>)>;

/// Whose workers the served rows run on: `MultiFrontier`s by worker count, and a service.
type Pools = (HashMap<usize, MultiFrontier>, Service);

/// A store holding `a`, in a file of its own, and the closure that removes the file.
fn store<T: Scalar>(a: &Matrix<T>, b: usize, what: &str) -> (TileStore<T>, impl FnOnce()) {
    let name: String = what.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    let path = std::env::temp_dir().join(format!("ca_equiv_{}_{name}.bin", std::process::id()));
    let store = TileStore::create(&path, a.nrows(), a.ncols(), b).expect("create store");
    store.import_matrix(a).expect("import");
    (store, move || drop(std::fs::remove_file(path)))
}

/// The largest budget under which the planner sweeps in at least `k` superpanels.
fn budget_for(kind: OocKind, m: usize, n: usize, p: &CaParams, elem: usize, k: usize) -> usize {
    let sweeps = |budget| OocPlan::solve(kind, m, n, p, elem, budget).map(|plan| plan.nsuper);
    // Too small a budget to plan at all is on the many-superpanels side.
    let (mut lo, mut hi) = (0usize, 64 << 20);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if sweeps(mid).map_or(true, |s| s >= k) { lo = mid } else { hi = mid }
    }
    assert!(sweeps(lo).is_ok(), "no budget sweeps {m}x{n} in {k} or more superpanels");
    lo
}

/// Starts `route` over `a`: a one-shot route runs to completion here, a
/// served one is only submitted. `None` where the route takes no such
/// precision or shape.
fn start<C: Class, T: Kernel>(route: Route, a: &Matrix<T>, rhs: &Matrix<T>, p: &CaParams, pools: &Pools, what: &str)
    -> Option<Pending> {
    let (m, n, trailing) = (a.nrows(), a.ncols(), a.ncols() > p.b);
    let victim = (C::GRAPH)(m, n, p).meta(0).label;
    let at = |workers| CaParams { threads: workers, ..*p };
    let a64 = || (T::NAME == "f64").then(|| a.to_f64());
    let (e, bits64) = (C::entries::<T>(), C::entries::<f64>().bits);
    let ready = |b: Bits| -> Option<Pending> { Some(Box::new(move || (b, None))) };
    let what = format!("{what} {route:?}");
    let opts = SubmitOptions::default().with_params(*p);
    match route {
        Route::Dag(w) => ready((e.bits)(&(e.dag)(a.clone(), &at(w)))),
        Route::With(w, o) => {
            let (f, report) = ok((e.with)(a.clone(), &at(w), &o.build(victim)), &what);
            assert_eq!(report.profile().records.len(), report.stats.tasks, "{what}: one record per task");
            let (b, s) = ((e.bits)(&f), report.recovery());
            o.check(&s, trailing, &what);
            Some(Box::new(move || (b, Some(s))))
        }
        Route::Profiled(w) => {
            let (f, profile) = ok((e.profiled)(a.clone(), &at(w)), &what);
            assert_eq!(profile.records.len(), (C::GRAPH)(m, n, p).len() + 1, "{what}: the plan's tasks and one sink");
            ready((e.bits)(&f))
        }
        Route::Served(..) | Route::OneTask => {
            let (w, o, one_task) = if let Route::Served(w, o) = route { (w, o, false) } else { (1, Opts::Plain, true) };
            let sg = ok((C::SERVE)(a64()?, &at(w), &o.build(victim), one_task), &what);
            let tasks = if one_task { 0 } else { (C::GRAPH)(m, n, p).len() };
            let (_, watch) = pools.0[&w].submit(sg.graph, JobOptions::default());
            Some(Box::new(move || {
                let job = watch.wait();
                assert!(job.outcome.is_completed(), "{what}: {:?}", job.outcome);
                assert_eq!(job.tasks_run, tasks + 1, "{what}: the plan's tasks and one sink");
                let s = job.recovery;
                o.check(&s, trailing, &what);
                let f = sg.output.get().expect("a completed job filled its output").as_ref();
                (bits64(f.expect("a completed job settled")), Some(s))
            }))
        }
        Route::Service { tiny } => {
            let h = (C::SUBMIT)(&pools.1, a64()?, if tiny { opts } else { opts.unbatched() }).expect("admits");
            Some(Box::new(move || (bits64(&ok(h.wait(), &what)), None)))
        }
        Route::Solve { tiny } => {
            let opts = if tiny { opts } else { opts.unbatched() };
            let h = (C::SUBMIT_SOLVE)(&pools.1, a64()?, rhs.to_f64(), opts).expect("admits");
            Some(Box::new(move || (vec![("x", bits(&ok(h.wait(), &what)))], None)))
        }
        Route::Ooc(workers, sweeps) if num_panels(m, n, p.b) >= sweeps => {
            let p = at(workers);
            let budget = budget_for(C::OOC, m, n, &p, T::BYTES, sweeps);
            let (store, remove) = store(a, p.b, &what);
            let f = ok((e.ooc)(&store, &p, budget), &what);
            remove();
            ready((e.bits)(&f))
        }
        _ => None,
    }
}

/// `(name, m, n, params, routes)`: the shapes, each over every route, then
/// the parameters that must not move a bit and a seeded sweep of shapes over
/// the DAG routes.
fn cases() -> Vec<(&'static str, usize, usize, CaParams, Vec<Route>)> {
    let dag = vec![Route::Dag(1), Route::Dag(2), Route::Dag(4)];
    let mut all = [dag.clone(), vec![Route::Profiled(2), Route::OneTask, Route::Solve { tiny: true }, Route::Solve { tiny: false }]].concat();
    for w in [1, 3] {
        all.extend(Opts::ALL.iter().flat_map(|&o| [Route::With(w, o), Route::Served(w, o)]));
    }
    // 3 lanes cut each 48-column superpanel of a 96-column, 2-sweep case into 16/16/16.
    all.extend([Route::Service { tiny: true }, Route::Service { tiny: false }, Route::Ooc(1, 2), Route::Ooc(2, 2)]);
    all.extend([Route::Ooc(2, 3), Route::Ooc(3, 2)]);
    let p = CaParams::new(16, 4, 1);
    let mut cases = vec![
        ("square", 96, 96, p, all.clone()),
        ("tall", 200, 16, p, all.clone()),
        ("wide", 50, 90, CaParams::new(16, 3, 1), all.clone()),
        // Groups of at least 2·MC rows below the panel: CALU's update is
        // split into pack and tile tasks.
        ("decomposed", 600, 64, CaParams::new(16, 2, 1), all),
        ("no lookahead", 96, 96, p.without_lookahead(), dag.clone()),
        ("update_blocks 4", 96, 96, p.with_update_blocking(4), dag.clone()),
        ("flat tree", 96, 96, p.with_flat_tree(), dag.clone()),
        // A decomposed chunk wider than one packed-B panel (NC columns).
        ("wide chunks", 272, 1072, CaParams::new(16, 1, 1).with_update_blocking(66), vec![Route::Dag(4)]),
    ];
    let trees = [TreeShape::Binary, TreeShape::Flat, TreeShape::Kary(3), TreeShape::Hybrid { flat_width: 2 }];
    let mut rng = seeded_rng(0xE9);
    for _ in 0..24 {
        let (m, n, b, tr) = (rng.gen_range(2..100), rng.gen_range(1..60), rng.gen_range(1..20), rng.gen_range(1..5));
        let p = CaParams { tree: trees[rng.gen_range(0..4usize)], ..CaParams::new(b, tr, 1) };
        cases.push(("sweep", m, n, p, dag.clone()));
    }
    cases
}

/// `(what, route, reference bits, pending bits)`.
type Row = (String, Route, Bits, Pending);

/// The rows of `routes` on one shape in one precision.
fn rows<C: Class, T: Kernel>(what: &str, a: &Matrix<T>, rhs: &Matrix<T>, p: &CaParams, routes: &[Route], pools: &Pools)
    -> Vec<Row> {
    let what = format!("{} {} {what} {}x{} {p:?}", C::NAME, T::NAME, a.nrows(), a.ncols());
    let e = C::entries::<T>();
    let reference = (e.seq)(a.clone(), p);
    let (factors, solution) = ((e.bits)(&reference), (e.solve)(&reference, rhs).map(|x| vec![("x", bits(&x))]));
    let row = |&route| {
        let want = if let Route::Solve { .. } = route { solution.clone()? } else { factors.clone() };
        Some((what.clone(), route, want, start::<C, T>(route, a, rhs, p, pools, &what)?))
    };
    routes.iter().filter_map(row).collect()
}

/// Starts every row of `C`'s table that `part` holds, in both precisions.
fn start_part<C: Class>(part: Part, pools: &Pools) -> Vec<Row> {
    let mut pending = Vec::new();
    for (i, (name, m, n, p, routes)) in cases().into_iter().enumerate() {
        let of = |t| routes.iter().copied().filter(|&r| part_of(name, r, t) == part).collect::<Vec<_>>();
        let (r64, r32) = (of("f64"), of("f32"));
        if r64.is_empty() && r32.is_empty() {
            continue;
        }
        let a = random_uniform(m, n, &mut seeded_rng(i as u64));
        let rhs = random_uniform(m, 2, &mut seeded_rng(!i as u64));
        pending.extend(rows::<C, f64>(name, &a, &rhs, &p, &r64, pools));
        pending.extend(rows::<C, f32>(name, &Matrix::from_f64(&a), &Matrix::from_f64(&rhs), &p, &r32, pools));
    }
    pending
}

/// Starts rows on one set of pools, then awaits and checks them: every row
/// starts before any is awaited, so the served jobs are in flight together.
fn check(start: impl FnOnce(&Pools) -> Vec<Row>) {
    let frontiers = [1, 3].into_iter().map(|w| (w, MultiFrontier::new(w))).collect();
    let pools = (frontiers, Service::new(ServiceConfig::new(2).with_batching(BatchConfig::up_to(1 << 12))));
    let pending = start(&pools);
    assert!(!pending.is_empty(), "no row to check");
    let mut counted = HashMap::new();
    for (what, route, want, got) in pending {
        let (got, counters) = got();
        same(&format!("{what} {route:?}"), &got, &want);
        counted.extend(counters.map(|s| ((what, route), s)));
    }
    // A served job under the same options counts what the one-shot run
    // counted. Above 1 worker the interleaving decides which Panel task the
    // N-th-match rule hits (and so whether it has a write-set to restore),
    // and how many tasks began before an `Exhaust` victim ran out of budget.
    for ((what, route), &served) in &counted {
        let Route::Served(w, o) = *route else { continue };
        let one_shot = counted[&(what.clone(), Route::With(w, o))];
        let settled = |s: RecoveryStats| match w {
            1 => s,
            _ => RecoveryStats { restores: 0, attempts: if o == Opts::Exhaust { 0 } else { s.attempts }, ..s },
        };
        assert_eq!(settled(served), settled(one_shot), "{what} {route:?} vs one-shot");
    }
    pools.0.values().for_each(MultiFrontier::shutdown);
    pools.1.shutdown();
}

/// Checks the LU rows `part` holds against `calu_seq_factor`.
pub fn lu(part: Part) {
    check(|pools| start_part::<Lu>(part, pools));
}

/// Checks the QR rows `part` holds against `caqr_seq`.
pub fn qr(part: Part) {
    check(|pools| start_part::<Qr>(part, pools));
}

/// Checks the LU and the QR rows `part` holds, in flight together.
pub fn lu_and_qr(part: Part) {
    check(|pools| [start_part::<Lu>(part, pools), start_part::<Qr>(part, pools)].into_iter().flatten().collect());
}

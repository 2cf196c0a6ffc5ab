//! End-to-end soundness tests: the static DAG verifier over the real
//! CALU/CAQR builders (paper shapes × reduction trees), seeded-violation
//! detection on a real factorization graph, checked-execution regression
//! runs in which every element access is audited against the builders'
//! declared footprints, and the pinned edge-for-edge identity of every
//! builder's graph.

use ca_factor::baselines::{tiled_qr_plan, BlockedLuPlan, BlockedQrPlan, TiledLuPlan};
use ca_factor::bench::Algo;
use ca_factor::core::{
    try_calu_with, try_caqr_with, CaParams, CaluPlan, CaqrPlan, FactorOptions, TreeShape,
};
use ca_factor::matrix::{random_uniform, seeded_rng, Scalar};
use ca_factor::sched::{
    run_plan, verify_graph, verify_graph_with, Plan, Profile, SoundnessError, TaskGraph,
    VerifyOptions,
};
use ca_factor::Matrix;

fn checked() -> FactorOptions {
    FactorOptions { checked: true, ..Default::default() }
}

fn params(b: usize, tree: TreeShape) -> CaParams {
    let mut p = CaParams::new(b, 4, 4);
    p.tree = tree;
    p
}

#[test]
fn static_verifier_accepts_calu_across_shapes_and_trees() {
    // Square, tall-skinny, and ragged shapes — the paper's m=n and TSLU
    // regimes — under both reduction trees.
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20), (250, 90, 30)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            let plan = CaluPlan::build::<f64>(m, n, &p);
            let report = verify_graph(plan.graph(), plan.access())
                .unwrap_or_else(|e| panic!("CALU {m}x{n} {tree:?} unsound: {e}"));
            assert!(report.conflict_pairs > 0, "CALU {m}x{n}: no conflicts proven ordered");
        }
    }
}

#[test]
fn static_verifier_accepts_caqr_across_shapes_and_trees() {
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20), (250, 90, 30)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            let plan = CaqrPlan::build::<f64>(m, n, &p);
            let report = verify_graph(plan.graph(), plan.access())
                .unwrap_or_else(|e| panic!("CAQR {m}x{n} {tree:?} unsound: {e}"));
            assert!(report.conflict_pairs > 0, "CAQR {m}x{n}: no conflicts proven ordered");
        }
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // probing the verifier with raw edge deletions
fn removing_a_calu_edge_is_caught_and_names_the_conflicting_tasks() {
    // Delete each dependency edge of a real CALU graph in turn: the
    // verifier must reject every deletion that actually breaks the ordering
    // of a conflicting pair (some edges are transitively redundant), and
    // each rejection must name two real tasks by label.
    let p = params(32, TreeShape::Binary);
    let (g0, _) = CaluPlan::build::<f64>(96, 96, &p).into_parts();
    let edges: Vec<(usize, usize)> = (0..g0.len())
        .flat_map(|i| g0.successors(i).iter().map(move |&s| (i, s)))
        .collect();
    let mut rejected = 0usize;
    for &(a, b) in &edges {
        let (mut g, access) = CaluPlan::build::<f64>(96, 96, &p).into_parts();
        assert!(g.remove_dep(a, b));
        match verify_graph(&g, &access) {
            Ok(_) => {}
            Err(SoundnessError::UnorderedConflict {
                first, second, first_label, second_label, rect, ..
            }) => {
                assert!(first < second);
                assert!(!rect.is_empty(), "violation must name the overlapping rect");
                let (fl, sl) = (first_label.to_string(), second_label.to_string());
                assert!(
                    fl.contains('[') && sl.contains('['),
                    "violation must name both task labels, got {fl} / {sl}"
                );
                rejected += 1;
            }
            Err(e) => panic!("unexpected error class for edge {a}->{b}: {e}"),
        }
    }
    assert!(rejected > 0, "no edge deletion was caught over {} edges", edges.len());
}

#[test]
fn checked_calu_reports_zero_violations_on_paper_shapes() {
    // Checked execution audits every SharedMatrix element access against
    // the declared footprints; a clean CALU/CAQR must produce zero
    // violations, square and tall-skinny.
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20)] {
        let p = params(b, TreeShape::Binary);
        let a = random_uniform(m, n, &mut seeded_rng(7));
        let (f, report) = try_calu_with(a.clone(), &p, &checked())
            .unwrap_or_else(|e| panic!("checked CALU {m}x{n}: {e}"));
        assert!(report.stats.tasks > 0);
        assert!(f.residual(&a) < 1e-12, "checked CALU {m}x{n} residual off");
    }
}

#[test]
fn checked_caqr_reports_zero_violations_on_paper_shapes() {
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            let a = random_uniform(m, n, &mut seeded_rng(11));
            let (f, report) = try_caqr_with(a.clone(), &p, &checked())
                .unwrap_or_else(|e| panic!("checked CAQR {m}x{n} {tree:?}: {e}"));
            assert!(report.stats.tasks > 0);
            assert!(f.residual(&a) < 1e-12, "checked CAQR {m}x{n} residual off");
        }
    }
}

#[test]
fn calu_and_caqr_graphs_are_conflict_minimal() {
    // The minimality half of the analysis: no edge of a production graph is
    // unjustified by a footprint conflict, and none is transitively
    // redundant (the builders reduce their graphs before returning).
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (256, 96, 32)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            minimal(&CaluPlan::build::<f64>(m, n, &p));
            minimal(&CaqrPlan::build::<f64>(m, n, &p));
        }
    }
}

#[test]
fn checked_tiled_baselines_run_clean_under_subtile_leases() {
    // End-to-end: static verification up front, then execution with every
    // lease audited by the shadow registry (tiled LU's gessm reads the
    // diagonal tile's copy from a slot, which takes no lease).
    let a = random_uniform(96, 96, &mut seeded_rng(21));
    let (f, _) = run_plan(TiledLuPlan::build(96, 96, 16), a.clone(), 4, &checked())
        .expect("checked tiled LU");
    let rhs = random_uniform(96, 2, &mut seeded_rng(23));
    let x = f.solve(&rhs);
    assert!(ca_factor::baselines::TiledLu::solve_residual(&a, &x, &rhs) < 1e-10);

    let a = random_uniform(96, 64, &mut seeded_rng(22));
    let (f, _) = run_plan(tiled_qr_plan(96, 64, 16), a.clone(), 4, &checked())
        .expect("checked tiled QR");
    assert!(f.residual(&a) < 1e-10);
}

/// `(tasks, edges, FNV-1a of the sorted edge list)`.
type Fingerprint = (usize, usize, u64);

/// Fingerprint of a task graph.
fn fingerprint<T>(g: &TaskGraph<T>) -> Fingerprint {
    let edges = (0..g.len()).flat_map(|a| g.successors(a).iter().map(move |&b| (a, b))).collect();
    fingerprint_of(g.len(), edges)
}

/// Fingerprint of the graph a run executed, read back from its profile.
fn executed(profile: Profile) -> Fingerprint {
    fingerprint_of(profile.records.len(), profile.edges)
}

fn fingerprint_of(tasks: usize, mut edges: Vec<(usize, usize)>) -> Fingerprint {
    edges.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (a, b) in &edges {
        for byte in (*a as u64).to_le_bytes().into_iter().chain((*b as u64).to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (tasks, edges.len(), h)
}

/// Which builder a row of the pinned table exercises.
#[derive(Clone, Copy, Debug)]
enum Builder {
    Calu(CaParams),
    Caqr(CaParams),
    TiledLu(usize),
    TiledQr(usize),
    /// `(nb, strips)`
    GetrfBlocked(usize, usize),
    GeqrfBlocked(usize, usize),
}

impl Builder {
    /// The contender the simulated figures cost for this row and the core
    /// count they cost it at.
    fn algo(self) -> (Algo, usize) {
        use Builder::*;
        match self {
            Calu(p) => (Algo::Calu { b: p.b, tr: p.tr, tree: p.tree }, p.threads),
            Caqr(p) => (Algo::Caqr { b: p.b, tr: p.tr, tree: p.tree }, p.threads),
            TiledLu(b) => (Algo::TiledLu { b }, 4),
            TiledQr(b) => (Algo::TiledQr { b }, 4),
            GetrfBlocked(nb, strips) => (Algo::BlockedLu { nb }, strips),
            GeqrfBlocked(nb, strips) => (Algo::BlockedQr { nb }, strips),
        }
    }
}

/// A pinned row: `(builder, m, n, (tasks, edges, edge hash))`.
type PinnedRow = (Builder, usize, usize, Fingerprint);

/// Every builder's graph, edge for edge. The CALU/CAQR, tiled-LU and
/// blocked-QR rows are as recorded at the commit before block-granularity tracking was
/// deleted (PR 14): the footprint representation is not allowed to move a
/// single edge. The blocked-LU rows were re-pinned once, when the baseline
/// started executing its graph (column strips, deferred left interchanges);
/// the first blocked-QR row lost, at the same time, the one transitively
/// redundant edge the minimality lint now holds the blocked plans to. The
/// tiled-QR rows were re-pinned once, when tiled QR became CAQR's plan over
/// a chain of triangle-on-square eliminations: same tasks, CAQR's block
/// footprints. The `Calu(decomposed)` row was re-pinned once, when the
/// update's pack/tile split became a shape rule (groups of at least `2·MC`
/// rows) instead of a parameter: only the first panel's second row group
/// splits now.
fn pinned_rows() -> [PinnedRow; 20] {
    let flat = |mut p: CaParams| {
        p.tree = TreeShape::Flat;
        p
    };
    let square = CaParams::new(64, 4, 4);
    let tall = flat(CaParams::new(40, 8, 4));
    let ragged = CaParams::new(100, 4, 4);
    let decomposed = CaParams::new(16, 2, 4);
    use Builder::*;
    [
        (Calu(square), 1024, 1024, (928, 2092, 12042334302289157145)),
        (Caqr(square), 1024, 1024, (892, 1950, 3540828738114060795)),
        (Calu(tall), 1600, 160, (125, 238, 3100536505416186874)),
        (Caqr(tall), 1600, 160, (90, 158, 18031200927104978915)),
        (Calu(ragged), 750, 333, (70, 119, 14798602714223970856)),
        (Caqr(ragged), 750, 333, (64, 104, 7378113826623045790)),
        (Calu(decomposed), 512, 192, (293, 573, 13760033882102409999)),
        (Caqr(decomposed), 512, 192, (234, 464, 8947499842147441168)),
        (TiledLu(16), 96, 96, (91, 195, 15544026709644574678)),
        (TiledQr(16), 96, 96, (91, 190, 16796700327931427508)),
        (TiledLu(100), 750, 333, (70, 142, 15536857450198778301)),
        (TiledQr(100), 750, 333, (70, 139, 17160725930962775709)),
        (TiledLu(32), 384, 256, (348, 844, 15929753144330827562)),
        (TiledQr(32), 384, 256, (348, 837, 5231367000978906342)),
        (GetrfBlocked(100, 8), 1000, 1000, (101, 135, 6638520402657136343)),
        (GeqrfBlocked(100, 8), 1000, 1000, (51, 85, 2641146701078714973)),
        (GetrfBlocked(100, 4), 750, 333, (19, 21, 14070558630761844350)),
        (GeqrfBlocked(100, 4), 750, 333, (10, 12, 558881896670502307)),
        (GetrfBlocked(50, 16), 4000, 400, (71, 91, 18229012278643871762)),
        (GeqrfBlocked(50, 16), 4000, 400, (36, 56, 6825965529718751825)),
    ]
}

/// Lint-clean static proof of a plan's graph; returns its fingerprint.
fn minimal<T: Scalar, F>(plan: &Plan<T, F>) -> Fingerprint {
    let report = verify_graph_with(plan.graph(), plan.access(), &VerifyOptions { lint_edges: true })
        .unwrap_or_else(|e| panic!("unsound: {e}"));
    let lint = report.lint.expect("lint requested");
    assert_eq!(lint.minimality_findings(), 0, "{lint:?}");
    fingerprint(plan.graph())
}

/// Runs a plan on 4 workers under `opts`; returns what it executed.
fn run<T: Scalar, F: 'static>(
    plan: Plan<T, F>,
    a: Matrix<T>,
    opts: &FactorOptions,
) -> Fingerprint {
    let (_, report) = run_plan(plan, a, 4, opts).unwrap_or_else(|e| panic!("{e}"));
    executed(report.profile())
}

#[test]
fn f32_plans_execute_the_pinned_f64_graphs() {
    // What a factorization actually ran (read back from its profile) is,
    // edge for edge, the pinned row of its builder — for CALU/CAQR in f32
    // too, graph shape does not depend on the element type — and the graph
    // `Algo::task_graph` hands the simulator for the same contender.
    use Builder::*;
    for (builder, m, n, pinned) in pinned_rows() {
        let a = random_uniform(m, n, &mut seeded_rng(14));
        let a32 = Matrix::<f32>::from_f64(&a);
        let plain = FactorOptions::default();
        let got = match builder {
            Calu(p) => run(CaluPlan::build(m, n, &p), a32, &plain),
            Caqr(p) => run(CaqrPlan::build(m, n, &p), a32, &plain),
            TiledLu(b) => run(TiledLuPlan::build(m, n, b), a, &plain),
            TiledQr(b) => run(tiled_qr_plan(m, n, b), a32, &plain),
            GetrfBlocked(nb, strips) => run(BlockedLuPlan::build(m, n, nb, strips), a, &plain),
            GeqrfBlocked(nb, strips) => run(BlockedQrPlan::build(m, n, nb, strips), a, &plain),
        };
        assert_eq!(got, pinned, "{builder:?} {m}x{n}: executed graph");
        let (algo, cores) = builder.algo();
        let simulated = fingerprint(&algo.task_graph(m, n, cores));
        assert_eq!(got, simulated, "{builder:?} {m}x{n}: executed vs simulated graph");
    }
}

#[test]
fn builder_graphs_are_pinned_minimal_and_run_clean_checked() {
    // Every pinned row must also be conflict-minimal under the lint and run
    // clean under the race detector.
    use Builder::*;
    fn check<F: 'static>(plan: Plan<f64, F>, a: Matrix) -> Fingerprint {
        let built = minimal(&plan);
        assert_eq!(run(plan, a, &checked()), built);
        built
    }
    for (builder, m, n, pinned) in pinned_rows() {
        let a = random_uniform(m, n, &mut seeded_rng(14));
        let got = match builder {
            Calu(p) => check(CaluPlan::build(m, n, &p), a),
            Caqr(p) => check(CaqrPlan::build(m, n, &p), a),
            TiledLu(b) => check(TiledLuPlan::build(m, n, b), a),
            TiledQr(b) => check(tiled_qr_plan(m, n, b), a),
            GetrfBlocked(nb, strips) => check(BlockedLuPlan::build(m, n, nb, strips), a),
            GeqrfBlocked(nb, strips) => check(BlockedQrPlan::build(m, n, nb, strips), a),
        };
        assert_eq!(got, pinned, "{builder:?} {m}x{n}: (tasks, edges, edge hash) moved");
    }
}

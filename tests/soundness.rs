//! End-to-end soundness tests: the static DAG verifier over the real
//! CALU/CAQR builders (paper shapes × reduction trees), seeded-violation
//! detection on a real factorization graph, and checked-execution
//! regression runs in which every element access is audited against the
//! builders' declared footprints.

use ca_factor::core::{
    calu_task_graph_with_access, try_calu_with, try_caqr_with, verify_calu, verify_caqr,
    CaParams, FactorOptions, TreeShape,
};
use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::sched::SoundnessError;

fn checked() -> FactorOptions<'static> {
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
            let report = verify_calu(m, n, &p)
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
            let report = verify_caqr(m, n, &p)
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
    let (g0, _) = calu_task_graph_with_access(96, 96, &p);
    let edges: Vec<(usize, usize)> = (0..g0.len())
        .flat_map(|i| g0.successors(i).iter().map(move |&s| (i, s)))
        .collect();
    let mut rejected = 0usize;
    for &(a, b) in &edges {
        let (mut g, access) = calu_task_graph_with_access(96, 96, &p);
        assert!(g.remove_dep(a, b));
        match ca_factor::sched::verify_graph(&g, &access) {
            Ok(_) => {}
            Err(SoundnessError::UnorderedConflict { first, second, first_label, second_label, .. }) => {
                assert!(first < second);
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
    // violations on both schedulers, square and tall-skinny.
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20)] {
        for ws in [false, true] {
            let mut p = params(b, TreeShape::Binary);
            if ws {
                p = p.with_work_stealing();
            }
            let a = random_uniform(m, n, &mut seeded_rng(7));
            let (f, report) = try_calu_with(a.clone(), &p, &checked())
                .unwrap_or_else(|e| panic!("checked CALU {m}x{n} ws={ws}: {e}"));
            assert!(report.stats.tasks > 0);
            assert!(f.residual(&a) < 1e-12, "checked CALU {m}x{n} residual off");
        }
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
fn rect_granularity_accepts_calu_and_caqr_across_shapes_and_trees() {
    // Element-exact enumeration must agree with the block view on graphs
    // whose footprints never split a tile.
    use ca_factor::core::{verify_calu_with, verify_caqr_with};
    let opts = ca_factor::sched::VerifyOptions {
        granularity: ca_factor::sched::Granularity::Rect,
        ..Default::default()
    };
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (400, 40, 20), (250, 90, 30)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            let report = verify_calu_with(m, n, &p, &opts)
                .unwrap_or_else(|e| panic!("CALU {m}x{n} {tree:?} unsound at rect: {e}"));
            assert!(report.conflict_pairs > 0, "CALU {m}x{n}: no rect conflicts proven");
            let report = verify_caqr_with(m, n, &p, &opts)
                .unwrap_or_else(|e| panic!("CAQR {m}x{n} {tree:?} unsound at rect: {e}"));
            assert!(report.conflict_pairs > 0, "CAQR {m}x{n}: no rect conflicts proven");
        }
    }
}

#[test]
fn calu_and_caqr_graphs_are_conflict_minimal() {
    // The minimality half of the analysis: no edge of a production graph is
    // unjustified by a footprint conflict, and none is transitively
    // redundant (the builders reduce their graphs before returning).
    use ca_factor::core::{verify_calu_with, verify_caqr_with};
    let opts = ca_factor::sched::VerifyOptions {
        granularity: ca_factor::sched::Granularity::Rect,
        lint_edges: true,
    };
    for &(m, n, b) in &[(192usize, 192usize, 32usize), (256, 96, 32)] {
        for tree in [TreeShape::Binary, TreeShape::Flat] {
            let p = params(b, tree);
            for (name, report) in [
                ("CALU", verify_calu_with(m, n, &p, &opts).expect("sound")),
                ("CAQR", verify_caqr_with(m, n, &p, &opts).expect("sound")),
            ] {
                let lint = report.lint.as_ref().expect("lint requested");
                assert_eq!(
                    lint.minimality_findings(),
                    0,
                    "{name} {m}x{n} {tree:?}: {} unnecessary + {} redundant edge(s)",
                    lint.unnecessary_edges.len(),
                    lint.redundant_edges.len()
                );
            }
        }
    }
}

#[test]
fn rect_granularity_covers_the_tiled_baselines() {
    // The tiled PLASMA-style baselines alias the diagonal tile at sub-tile
    // granularity — unverifiable before the region algebra, provable now.
    let opts = ca_factor::sched::VerifyOptions {
        granularity: ca_factor::sched::Granularity::Rect,
        lint_edges: true,
    };
    let (g, access) = ca_factor::baselines::tiled_lu_task_graph_with_access(96, 96, 16);
    let report = ca_factor::sched::verify_graph_with(&g, &access, &opts)
        .unwrap_or_else(|e| panic!("tiled LU unsound at rect: {e}"));
    assert_eq!(report.lint.as_ref().expect("lint requested").minimality_findings(), 0);

    let (g, access) = ca_factor::baselines::tiled_qr_task_graph_with_access(120, 96, 16);
    let report = ca_factor::sched::verify_graph_with(&g, &access, &opts)
        .unwrap_or_else(|e| panic!("tiled QR unsound at rect: {e}"));
    assert_eq!(report.lint.as_ref().expect("lint requested").minimality_findings(), 0);

    // Block granularity must still reject the same graphs: the sub-tile
    // split is invisible to it, which is exactly what the rect mode fixes.
    let (g, access) = ca_factor::baselines::tiled_lu_task_graph_with_access(96, 96, 16);
    assert!(matches!(
        ca_factor::sched::verify_graph(&g, &access),
        Err(SoundnessError::UnorderedConflict { .. })
    ));
}

#[test]
fn checked_tiled_baselines_run_clean_under_subtile_leases() {
    // End-to-end: rect verification up front, then execution with per-rect
    // leases audited by the shadow registry.
    let a = random_uniform(96, 96, &mut seeded_rng(21));
    let f = ca_factor::baselines::try_tiled_lu_checked(a.clone(), 16, 4)
        .expect("checked tiled LU");
    let rhs = random_uniform(96, 2, &mut seeded_rng(23));
    let x = f.solve(&rhs);
    assert!(ca_factor::baselines::TiledLu::solve_residual(&a, &x, &rhs) < 1e-10);

    let a = random_uniform(96, 64, &mut seeded_rng(22));
    let f = ca_factor::baselines::try_tiled_qr_checked(a.clone(), 16, 4)
        .expect("checked tiled QR");
    assert!(f.residual(&a) < 1e-10);
}

//! Out-of-core CALU/CAQR conformance: the left-looking drivers against the
//! in-core sequential references.
//!
//! The strongest claim — the factors written back to the tile store equal
//! the in-core `calu_seq_factor`/`caqr_seq` output bit for bit, in both
//! precisions, through a deferred-pivot fix-up across many superpanels — is
//! the `Ooc` parts of the equivalence matrix (tests/equivalence_table).
//! Beside it: residual gates under the accuracy suite's thresholds,
//! streamed-probe consistency, I/O volume, breakdown reporting, and the
//! planner's and the store's error paths.

mod equivalence_table;

use ca_factor::matrix::{
    random_uniform, residual_threshold, seeded_rng, Matrix, Scalar,
};
use ca_factor::ooc::{
    ooc_calu, ooc_caqr, probe, OocKind, OocPlan, TileStore,
};
use ca_factor::prelude::*;
use equivalence_table::Part;

const C: f64 = 100.0;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ca_ooc_it_{name}_{}.bin", std::process::id()))
}

/// A budget that forces `nsuper` superpanels for an `m × n` f64 matrix
/// with the given plan kind and parameters (found by search so the tests
/// stay honest if the planner's reserves change).
fn budget_for_nsuper(kind: OocKind, m: usize, n: usize, p: &CaParams, nsuper: usize) -> usize {
    let sweeps = |budget| OocPlan::solve(kind, m, n, p, 8, budget).map(|plan| plan.nsuper);
    // The smallest budget whose plan needs at most `nsuper` sweeps.
    let (mut lo, mut hi) = (0usize, 64 << 20);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if sweeps(mid).is_ok_and(|s| s <= nsuper) { hi = mid } else { lo = mid }
    }
    assert_eq!(sweeps(hi).ok(), Some(nsuper), "budget search landed elsewhere");
    hi
}

fn store_from<T: Scalar>(path: &std::path::Path, a: &Matrix<T>, w: usize) -> TileStore<T> {
    let s = TileStore::<T>::create(path, a.nrows(), a.ncols(), w).unwrap();
    s.import_matrix(a).unwrap();
    s
}

#[test]
fn ooc_lu_is_bitwise_identical_to_calu_seq() {
    equivalence_table::lu(Part::Ooc);
}

#[test]
fn ooc_qr_is_bitwise_identical_to_caqr_seq() {
    equivalence_table::qr(Part::Ooc);
}

#[test]
fn f32_out_of_core_matches_f32_in_core_bitwise() {
    equivalence_table::lu_and_qr(Part::OocF32);
}

#[test]
fn ooc_lu_residual_meets_accuracy_gate() {
    let (m, n, b, tr) = (150, 90, 16, 4);
    let p = CaParams::new(b, tr, 2);
    let a = random_uniform(m, n, &mut seeded_rng(11));
    let path = tmp("lures");
    let store = store_from(&path, &a, b);
    let budget = budget_for_nsuper(OocKind::Lu, m, n, &p, 3);
    let f = ooc_calu(&store, &p, budget).unwrap();

    // Full residual via the in-core factor container (small matrix).
    let lu = store.export_matrix().unwrap();
    let factors = LuFactors { lu, pivots: f.pivots.clone(), breakdown: f.breakdown, stats: f.stats.clone() };
    let res = factors.residual(&a);
    assert!(res < residual_threshold(m, n, C), "residual {res} for {m}x{n}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ooc_qr_residual_meets_accuracy_gate() {
    let (m, n, b, tr) = (150, 90, 16, 2);
    let p = CaParams::new(b, tr, 1);
    let a = random_uniform(m, n, &mut seeded_rng(12));
    let path = tmp("qrres");
    let store = store_from(&path, &a, b);
    let budget = budget_for_nsuper(OocKind::Qr, m, n, &p, 3);
    let f = ooc_caqr(&store, &p, budget).unwrap();

    let factored = store.export_matrix().unwrap();
    // Rebase the panels to resident addressing (c0 = k0) so the in-core
    // container can replay Q from the exported matrix.
    let panels = f
        .panels
        .iter()
        .map(|pq| {
            let mut pq = pq.clone();
            pq.c0 = pq.k0;
            pq
        })
        .collect();
    let factors = QrFactors { a: factored, panels };
    let res = factors.residual(&a);
    assert!(res < residual_threshold(m, n, C), "residual {res} for {m}x{n}");
    let orth = factors.orthogonality();
    assert!(orth < residual_threshold(m, n, C), "orthogonality {orth}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn streamed_probes_agree_with_dense_products() {
    let (m, n, b) = (90, 70, 8);
    let p = CaParams::new(b, 2, 1);
    let a = random_uniform(m, n, &mut seeded_rng(21));
    let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 11) as f64 / 11.0 - 0.4).collect();

    // LU probe.
    let path = tmp("plu");
    let store = store_from(&path, &a, b);
    let (y0, fro) = probe::stream_matvec(&store, &x).unwrap();
    // y0 really is A·x.
    for i in 0..m {
        let want: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
        assert!((y0[i] - want).abs() < 1e-12 * fro, "matvec row {i}");
    }
    let budget = budget_for_nsuper(OocKind::Lu, m, n, &p, 3);
    let f = ooc_calu(&store, &p, budget).unwrap();
    let y = probe::lu_probe_apply(&store, &f.pivots, &x).unwrap();
    let res = probe::probe_residual(&y, &y0, fro, &x);
    assert!(res < residual_threshold(m, n, C), "LU probe residual {res}");
    let _ = std::fs::remove_file(&path);

    // QR probe.
    let path = tmp("pqr");
    let store = store_from(&path, &a, b);
    let budget = budget_for_nsuper(OocKind::Qr, m, n, &p, 3);
    let f = ooc_caqr(&store, &p, budget).unwrap();
    let y = probe::qr_probe_apply(&store, &f.panels, &x).unwrap();
    let res = probe::probe_residual(&y, &y0, fro, &x);
    assert!(res < residual_threshold(m, n, C), "QR probe residual {res}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn io_volume_is_counted_and_superpanel_sweep_shrinks_with_budget() {
    let (m, n, b) = (128, 128, 16);
    let p = CaParams::new(b, 2, 1);
    let a = random_uniform(m, n, &mut seeded_rng(41));

    let mut volumes = Vec::new();
    for nsuper in [4, 2, 1] {
        let path = tmp(&format!("vol{nsuper}"));
        let store = store_from(&path, &a, b);
        let budget = budget_for_nsuper(OocKind::Lu, m, n, &p, nsuper);
        let f = ooc_calu(&store, &p, budget).unwrap();
        assert_eq!(f.plan.nsuper, nsuper);
        // At least: read the matrix once, write the factors once.
        let floor = (m * n * 8) as u64;
        assert!(f.io.bytes_read >= floor && f.io.bytes_written >= floor, "{:?}", f.io);
        volumes.push(f.io.bytes_read);
        let _ = std::fs::remove_file(&path);
    }
    // More superpanels → more prior-panel streaming → strictly more reads.
    assert!(volumes[0] > volumes[1] && volumes[1] > volumes[2], "{volumes:?}");
}

#[test]
fn io_volume_stays_within_one_and_a_half_times_the_lower_bound() {
    // The deterministic gate of DESIGN.md §16: bytes read + written by a
    // factorization of a matrix twice the size of fast memory stay within
    // 1.5× the sequential communication lower bound
    // `elem_bytes · (2mn + flops/√M)` (arXiv 0806.2159).
    use ca_factor::kernels::traffic::{ooc_lu_lower_bound, ooc_qr_lower_bound};
    let (n, b, budget) = (1024, 16, 4 << 20);
    assert!(n * n * 8 >= 2 * budget);
    let p = CaParams::new(b, 2, 2);
    for qr in [false, true] {
        let a = random_uniform(n, n, &mut seeded_rng(0x00C5EED + qr as u64));
        let path = tmp(if qr { "gate_qr" } else { "gate_lu" });
        let store = store_from(&path, &a, b);
        let (io, bound) = if qr {
            (ooc_caqr(&store, &p, budget).unwrap().io, ooc_qr_lower_bound(n, n, budget, 8))
        } else {
            (ooc_calu(&store, &p, budget).unwrap().io, ooc_lu_lower_bound(n, n, budget, 8))
        };
        let _ = std::fs::remove_file(&path);
        let ratio = (io.bytes_read + io.bytes_written) as f64 / bound;
        assert!(ratio <= 1.5, "qr={qr}: moved {ratio:.3}x the lower bound ({io:?})");
    }
}

#[test]
fn infeasible_budget_and_store_type_mismatch_error_cleanly() {
    let p = CaParams::new(16, 2, 1);
    let a = random_uniform(64, 64, &mut seeded_rng(51));
    let path = tmp("err");
    let store = store_from(&path, &a, 16);
    let e = ooc_calu(&store, &p, 1024).unwrap_err();
    assert!(matches!(e, FactorError::Io { ref op, .. } if op == "plan"), "{e}");
    // Reopening with the wrong scalar type is refused.
    assert!(TileStore::<f32>::open(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crafted_headers_are_refused_at_open() {
    // A 4 x 3 f64 store with panel width 2, then one header or body defect
    // at a time: each is an `open` error, never a panic or a huge allocation
    // further down.
    let header = |m: u64, n: u64, w: u64| {
        let mut h = b"CAOOCTS1".to_vec();
        for v in [8, m, n, w] {
            h.extend_from_slice(&v.to_le_bytes());
        }
        h
    };
    let body = vec![0u8; 4 * 3 * 8];
    let cases = [
        ("zero width", header(4, 3, 0), &body[..]),
        ("zero rows", header(0, 3, 2), &body[..]),
        ("overflowing shape", header(1 << 62, 1 << 62, 2), &body[..]),
        ("truncated body", header(4, 3, 2), &body[..body.len() - 8]),
    ];
    let path = tmp("crafted");
    std::fs::write(&path, [header(4, 3, 2), body.clone()].concat()).unwrap();
    assert_eq!(TileStore::<f64>::open(&path).expect("the well-formed store opens").nrows(), 4);
    for (what, head, body) in cases {
        std::fs::write(&path, [&head[..], body].concat()).unwrap();
        match TileStore::<f64>::open(&path) {
            Err(FactorError::Io { op, .. }) => assert_eq!(op, "open", "{what}"),
            other => panic!("{what}: expected an open error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn singular_input_reports_breakdown_like_in_core() {
    let (m, n, b) = (64, 64, 16);
    let p = CaParams::new(b, 2, 1);
    let mut a = random_uniform(m, n, &mut seeded_rng(61));
    // Zero out a column so elimination hits an exact zero pivot.
    for i in 0..m {
        a[(i, 20)] = 0.0;
    }
    let reference = calu_seq_factor(a.clone(), &p);
    let path = tmp("sing");
    let store = store_from(&path, &a, b);
    let budget = budget_for_nsuper(OocKind::Lu, m, n, &p, 2);
    let f = ooc_calu(&store, &p, budget).unwrap();
    assert_eq!(f.breakdown, reference.breakdown);
    assert!(f.breakdown.is_some(), "planted singular column must be reported");
    let _ = std::fs::remove_file(&path);
}

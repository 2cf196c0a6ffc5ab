//! Property-based tests (proptest) over the core invariants:
//! factorization residuals for arbitrary shapes/parameters, pivot
//! permutation validity, tournament properties, and simulator scheduling
//! bounds; and parallel–sequential bitwise agreement over a seeded sweep of
//! shapes, the `Sweep` part of the equivalence matrix
//! (tests/equivalence_table).

mod equivalence_table;

use ca_factor::matrix::{is_permutation, random_uniform, seeded_rng};
use ca_factor::prelude::*;
use ca_factor::sched::{simulate, TaskGraph, TaskKind, TaskLabel, TaskMeta};
use proptest::prelude::*;

fn tree_strategy() -> impl Strategy<Value = TreeShape> {
    prop_oneof![
        Just(TreeShape::Binary),
        Just(TreeShape::Flat),
        (2usize..6).prop_map(TreeShape::Kary),
        (2usize..5).prop_map(|w| TreeShape::Hybrid { flat_width: w }),
    ]
}

/// `calu`/`caqr` on 1, 2 and 4 workers give the bits of the sequential
/// references over 24 seeded shapes (m < 100, n < 60, b < 20, Tr < 5) and
/// reduction trees.
#[test]
fn parallel_equals_sequential_bitwise() {
    equivalence_table::lu_and_qr(equivalence_table::Part::Sweep);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn calu_factors_any_shape(
        m in 2usize..120,
        n in 1usize..80,
        b in 1usize..24,
        tr in 1usize..6,
        tree in tree_strategy(),
        seed in 0u64..1000,
    ) {
        let a = random_uniform(m, n, &mut seeded_rng(seed));
        let mut p = CaParams::new(b, tr, 2);
        p.tree = tree;
        let f = calu(a.clone(), &p);
        // Pivots form a valid permutation.
        let perm = f.permutation();
        prop_assert!(is_permutation(&perm));
        prop_assert_eq!(f.pivots.len(), m.min(n));
        // Residual at roundoff (random matrices never break down).
        let res = f.residual(&a);
        prop_assert!(res < 1e-10, "residual {} for {}x{} b={} tr={}", res, m, n, b, tr);
        // Partial-pivoting-style multiplier bound: |L| <= 1 after tournament
        // pivoting *within the selected pivot order* does not hold exactly,
        // but multipliers must stay modest.
        let l = f.l();
        for j in 0..l.ncols() {
            for i in j + 1..l.nrows() {
                prop_assert!(l[(i, j)].abs() < 64.0, "wild multiplier at ({},{})", i, j);
            }
        }
    }

    #[test]
    fn caqr_factors_any_shape(
        m in 2usize..120,
        nf in 0.1f64..1.0, // n as fraction of m (CAQR wants m >= n panels)
        b in 1usize..24,
        tr in 1usize..6,
        tree in tree_strategy(),
        seed in 0u64..1000,
    ) {
        let n = ((m as f64 * nf) as usize).max(1);
        let a = random_uniform(m, n, &mut seeded_rng(seed));
        let mut p = CaParams::new(b, tr, 2);
        p.tree = tree;
        let f = caqr(a.clone(), &p);
        let scale = 1e-11 * (m as f64);
        prop_assert!(f.residual(&a) < scale);
        prop_assert!(f.orthogonality() < scale);
    }

    #[test]
    fn tournament_winner_contains_gepp_first_pivot(
        rows in 4usize..64,
        cols in 1usize..6,
        tr in 1usize..5,
        seed in 0u64..1000,
    ) {
        // The first tournament pivot is always the globally largest entry of
        // column 1 — every tree node preserves its block's column-1 champion.
        let cols = cols.min(rows);
        let a = random_uniform(rows, cols, &mut seeded_rng(seed));
        let f = ca_factor::core::tslu_factor(a.clone(), tr, &CaParams::new(cols, tr, 1));
        let mut best = 0usize;
        for i in 1..rows {
            if a[(i, 0)].abs() > a[(best, 0)].abs() {
                best = i;
            }
        }
        prop_assert_eq!(f.permutation()[0], best);
    }

    #[test]
    fn simulator_respects_classic_bounds(
        layers in 1usize..6,
        width in 1usize..6,
        cores in 1usize..9,
        cost in 1.0f64..100.0,
    ) {
        // Layered DAG: `width` tasks per layer, all-to-all between layers.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut prev: Vec<usize> = Vec::new();
        for l in 0..layers {
            let mut cur = Vec::new();
            for i in 0..width {
                let fl = cost * ((l * width + i) % 7 + 1) as f64;
                let id = g.add_task(
                    TaskMeta::new(TaskLabel::new(TaskKind::Other, l, i, 0), fl),
                    (),
                );
                for &p in &prev {
                    g.add_dep(p, id);
                }
                cur.push(id);
            }
            prev = cur;
        }
        let tl = simulate(&g, cores, |_, m| m.flops).stats.timeline;
        tl.validate();
        let total = g.total_flops();
        let cp = g.critical_path_flops();
        prop_assert!(tl.makespan + 1e-9 >= cp);
        prop_assert!(tl.makespan + 1e-9 >= total / cores as f64);
        prop_assert!(tl.makespan <= total + 1e-9);
        // List scheduling 2-approximation bound (Graham).
        prop_assert!(tl.makespan <= cp + total / cores as f64 + 1e-9);
    }

    #[test]
    fn lu_solve_recovers_solution(
        n in 4usize..80,
        b in 2usize..20,
        tr in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a = random_uniform(n, n, &mut seeded_rng(seed));
        let x_true = random_uniform(n, 2, &mut seeded_rng(seed + 1));
        let rhs = a.matmul(&x_true);
        let f = calu(a, &CaParams::new(b, tr, 2));
        let x = f.solve(&rhs);
        let err = ca_factor::matrix::norm_max(x.sub_matrix(&x_true).view());
        // Random square systems are usually well-conditioned at these sizes;
        // allow a generous margin for the occasional bad draw.
        prop_assert!(err < 1e-6, "solve error {}", err);
    }

    #[test]
    fn qr_least_squares_recovers_planted(
        m in 20usize..150,
        n in 2usize..12,
        tr in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a = random_uniform(m, n, &mut seeded_rng(seed));
        let x_true = random_uniform(n, 1, &mut seeded_rng(seed + 1));
        let rhs = a.matmul(&x_true);
        let f = tsqr_factor(a, tr, &CaParams::new(n, tr, 1));
        let x = f.solve_ls(&rhs);
        let err = ca_factor::matrix::norm_max(x.sub_matrix(&x_true).view());
        prop_assert!(err < 1e-7, "LS error {}", err);
    }
}

// ---------------------------------------------------------------------------
// Packing round-trip (ca-kernels): the packed image of op(A)/op(B) must be a
// bit-exact rearrangement of the source block — panel q, offset (i, p) of an
// A block at q·mr·kb + p·mr + i, zero-filled past the edge — for both
// PackTrans values, both element types, and every (mb mod MR, nb mod NR)
// residue class. A naive element-by-element copy of the operated block is
// the oracle.
// ---------------------------------------------------------------------------

use ca_factor::kernels::{pack_a, pack_b, PackTrans, MR, NR};
use ca_factor::matrix::{Matrix, Scalar};

fn check_pack_residues<T: Scalar>(qa: usize, qb: usize, kb: usize, ic: usize, pc: usize, seed: u64) {
    let mut rng = seeded_rng(seed);
    for ra in 0..MR {
        let mb = qa * MR + ra;
        for trans in [PackTrans::No, PackTrans::Yes] {
            let (sr, sc) = match trans {
                PackTrans::No => (ic + mb, pc + kb),
                PackTrans::Yes => (pc + kb, ic + mb),
            };
            let src = Matrix::<T>::from_f64(&random_uniform(sr, sc, &mut rng));
            let panels = mb.div_ceil(MR);
            let mut buf = vec![T::from_f64(f64::NAN); panels * MR * kb];
            pack_a(trans, src.view(), ic, mb, pc, kb, &mut buf, MR);
            for q in 0..panels {
                for p in 0..kb {
                    for i in 0..MR {
                        let gi = q * MR + i;
                        let want = if gi < mb {
                            match trans {
                                PackTrans::No => src[(ic + gi, pc + p)],
                                PackTrans::Yes => src[(pc + p, ic + gi)],
                            }
                        } else {
                            T::ZERO
                        };
                        assert_eq!(
                            buf[q * MR * kb + p * MR + i].to_bits_u64(),
                            want.to_bits_u64(),
                            "{} pack_a {trans:?} mb={mb} kb={kb} panel {q} elem ({i},{p})",
                            T::NAME
                        );
                    }
                }
            }
        }
    }
    for rb in 0..NR {
        let nb = qb * NR + rb;
        for trans in [PackTrans::No, PackTrans::Yes] {
            let (sr, sc) = match trans {
                PackTrans::No => (pc + kb, ic + nb),
                PackTrans::Yes => (ic + nb, pc + kb),
            };
            let src = Matrix::<T>::from_f64(&random_uniform(sr, sc, &mut rng));
            let panels = nb.div_ceil(NR);
            let mut buf = vec![T::from_f64(f64::NAN); panels * NR * kb];
            pack_b(trans, src.view(), pc, kb, ic, nb, &mut buf, NR);
            for q in 0..panels {
                for p in 0..kb {
                    for j in 0..NR {
                        let gj = q * NR + j;
                        let want = if gj < nb {
                            match trans {
                                PackTrans::No => src[(pc + p, ic + gj)],
                                PackTrans::Yes => src[(ic + gj, pc + p)],
                            }
                        } else {
                            T::ZERO
                        };
                        assert_eq!(
                            buf[q * NR * kb + p * NR + j].to_bits_u64(),
                            want.to_bits_u64(),
                            "{} pack_b {trans:?} nb={nb} kb={kb} panel {q} elem ({p},{j})",
                            T::NAME
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn packing_is_bit_exact_across_residues_trans_and_precision(
        qa in 1usize..3,
        qb in 1usize..4,
        kb in 1usize..12,
        ic in 0usize..3,
        pc in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Each case sweeps all MR (resp. NR) edge residues, so every
        // (mb mod MR, nb mod NR) class is hit in every single case.
        check_pack_residues::<f64>(qa, qb, kb, ic, pc, seed);
        check_pack_residues::<f32>(qa, qb, kb, ic, pc, seed + 1);
    }
}

//! GEMM kernel conformance suite: the packed BLIS-style path (both the
//! runtime-dispatched backend and the forced-scalar fallback) against a
//! naive triple-loop oracle.
//!
//! Coverage dimensions, per DESIGN.md §10:
//! * shapes crossing every register-block edge (`m, n, k ∈ {0, 1, MR±1,
//!   NR±1}` full cross) and the `KC` cache boundary per dimension;
//! * all four `Trans` combinations (transposes are folded into packing, so
//!   each combo exercises a different pack routine);
//! * the full `alpha/beta ∈ {0, 1, −1, 0.37}` grid, including the
//!   `beta = 0` contract (output overwritten, stale values ignored);
//! * strided interior views (`ld > nrows`) with frame-preservation checks;
//! * bitwise determinism: repeated calls and calls from spawned threads
//!   must produce identical bits (the scheduler replays tasks on arbitrary
//!   workers, and PR-1 recovery relies on replay determinism).

use ca_factor::kernels::{gemm, gemm_backend, gemm_with_backend, Trans, KC, MR, NR};
use ca_factor::matrix::{random_uniform, seeded_rng, Matrix};
use proptest::prelude::*;

/// Element of `op(X)` where `op` is identity or transpose.
fn opd(t: Trans, x: &Matrix, i: usize, p: usize) -> f64 {
    match t {
        Trans::No => x[(i, p)],
        Trans::Yes => x[(p, i)],
    }
}

/// Naive triple-loop oracle for `C := alpha·op(A)·op(B) + beta·C`.
#[allow(clippy::too_many_arguments)] // mirrors the dgemm surface it checks
fn gemm_oracle(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    k: usize,
) {
    for j in 0..c.ncols() {
        for i in 0..c.nrows() {
            let mut acc = 0.0;
            for p in 0..k {
                acc += opd(ta, a, i, p) * opd(tb, b, p, j);
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

/// Storage shape of `A` (and `B`) given the logical op shapes.
fn stored(t: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    }
}

/// Forward-error bound for one dot product of length `k` with `|a|,|b| ≤ 1`
/// entries and the `alpha/beta` fold: `O(k·eps)`, with slack for the oracle
/// accumulating in a different order than the blocked kernel.
fn tol(k: usize) -> f64 {
    8.0 * (k as f64 + 4.0) * f64::EPSILON
}

/// Runs both dispatch paths against the oracle for one configuration.
#[allow(clippy::too_many_arguments)] // one slot per sweep dimension
fn check(ta: Trans, tb: Trans, alpha: f64, beta: f64, m: usize, n: usize, k: usize, seed: u64) {
    let mut rng = seeded_rng(seed);
    let (ar, ac) = stored(ta, m, k);
    let (br, bc) = stored(tb, k, n);
    let a = random_uniform(ar, ac, &mut rng);
    let b = random_uniform(br, bc, &mut rng);
    let c0 = random_uniform(m, n, &mut rng);

    let mut want = c0.clone();
    gemm_oracle(ta, tb, alpha, &a, &b, beta, &mut want, k);

    let mut got = c0.clone();
    gemm(ta, tb, alpha, a.view(), b.view(), beta, got.view_mut());
    let mut got_scalar = c0.clone();
    gemm_with_backend("scalar", ta, tb, alpha, a.view(), b.view(), beta, got_scalar.view_mut());

    let t = tol(k);
    for j in 0..n {
        for i in 0..m {
            let w = want[(i, j)];
            assert!(
                (got[(i, j)] - w).abs() <= t,
                "dispatch path: ({i},{j}) of {m}x{n}x{k} {ta:?}{tb:?} a={alpha} b={beta}: \
                 got {} want {w}",
                got[(i, j)]
            );
            assert!(
                (got_scalar[(i, j)] - w).abs() <= t,
                "scalar path: ({i},{j}) of {m}x{n}x{k} {ta:?}{tb:?} a={alpha} b={beta}: \
                 got {} want {w}",
                got_scalar[(i, j)]
            );
        }
    }
}

const TRANS: [Trans; 2] = [Trans::No, Trans::Yes];

#[test]
fn register_block_edges_full_cross() {
    // Every residue of the MR/NR register blocking, including empty and
    // single-lane dims, for all four Trans combos.
    let dims = [0, 1, MR - 1, MR + 1, NR - 1, NR + 1];
    let mut seed = 0;
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                for ta in TRANS {
                    for tb in TRANS {
                        seed += 1;
                        check(ta, tb, 0.37, -1.0, m, n, k, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn kc_cache_boundary_per_dimension() {
    // KC±1 (and KC) in each dimension in turn; the other two dims sit just
    // off the register blocking so edge kernels run against a deep panel.
    for &d in &[KC - 1, KC, KC + 1] {
        for (m, n, k) in [(d, NR + 1, MR + 1), (MR + 1, d, NR + 1), (MR + 1, NR + 1, d)] {
            for ta in TRANS {
                for tb in TRANS {
                    check(ta, tb, 0.37, 1.0, m, n, k, (d * 7 + m + n) as u64);
                }
            }
        }
    }
}

#[test]
fn alpha_beta_grid() {
    let coeffs = [0.0, 1.0, -1.0, 0.37];
    for &alpha in &coeffs {
        for &beta in &coeffs {
            for ta in TRANS {
                for tb in TRANS {
                    check(ta, tb, alpha, beta, MR + 1, NR + 1, 5, 99);
                }
            }
        }
    }
}

#[test]
fn beta_zero_overwrites_non_finite_garbage() {
    // The beta = 0 contract: C must be overwritten, never multiplied, so
    // stale NaN/Inf in the output block cannot leak through.
    let mut rng = seeded_rng(3);
    let a = random_uniform(MR + 1, 3, &mut rng);
    let b = random_uniform(3, NR + 1, &mut rng);
    for backend in [gemm_backend(), "scalar"] {
        let mut c = Matrix::from_fn(MR + 1, NR + 1, |_, _| f64::NAN);
        gemm_with_backend(backend, Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view_mut());
        let mut want = Matrix::zeros(MR + 1, NR + 1);
        gemm_oracle(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut want, 3);
        for j in 0..want.ncols() {
            for i in 0..want.nrows() {
                assert!((c[(i, j)] - want[(i, j)]).abs() <= tol(3));
            }
        }
    }
}

#[test]
fn strided_interior_views_leave_frame_intact() {
    // Operate on interior sub-blocks of larger parents (ld > nrows for all
    // three operands) and verify the one-element frame around C is intact.
    let (m, n, k) = (MR + 3, NR + 3, KC + 1);
    let mut rng = seeded_rng(11);
    let pa = random_uniform(m + 2, k + 2, &mut rng);
    let pb = random_uniform(k + 2, n + 2, &mut rng);
    let pc0 = random_uniform(m + 2, n + 2, &mut rng);

    let a = Matrix::from_fn(m, k, |i, j| pa[(i + 1, j + 1)]);
    let b = Matrix::from_fn(k, n, |i, j| pb[(i + 1, j + 1)]);
    let mut want = Matrix::from_fn(m, n, |i, j| pc0[(i + 1, j + 1)]);
    gemm_oracle(Trans::No, Trans::No, 0.37, &a, &b, -1.0, &mut want, k);

    for backend in [gemm_backend(), "scalar"] {
        let mut pc = pc0.clone();
        gemm_with_backend(
            backend,
            Trans::No,
            Trans::No,
            0.37,
            pa.block(1, 1, m, k),
            pb.block(1, 1, k, n),
            -1.0,
            pc.block_mut(1, 1, m, n),
        );
        for j in 0..n {
            for i in 0..m {
                assert!((pc[(i + 1, j + 1)] - want[(i, j)]).abs() <= tol(k));
            }
        }
        // Frame untouched, bit for bit.
        for j in 0..n + 2 {
            for i in 0..m + 2 {
                if i == 0 || j == 0 || i == m + 1 || j == n + 1 {
                    assert_eq!(pc[(i, j)].to_bits(), pc0[(i, j)].to_bits(), "frame at ({i},{j})");
                }
            }
        }
    }
}

#[test]
fn bitwise_identical_across_threads_and_repeats() {
    // The scheduler assigns tasks to arbitrary workers and PR-1 recovery
    // replays them; both rely on gemm being a pure function of its inputs —
    // including across threads (thread-local packing buffers must not leak
    // state into results).
    let (m, n, k) = (MR * 2 + 3, NR * 3 + 1, KC + 7);
    let mut rng = seeded_rng(5);
    let a = random_uniform(m, k, &mut rng);
    let b = random_uniform(k, n, &mut rng);
    let c0 = random_uniform(m, n, &mut rng);

    let run = |a: &Matrix, b: &Matrix, c0: &Matrix| -> Vec<u64> {
        let mut c = c0.clone();
        gemm(Trans::No, Trans::Yes, 0.37, a.view(), b.transpose().view(), 1.0, c.view_mut());
        c.as_slice().iter().map(|x| x.to_bits()).collect()
    };

    let reference = run(&a, &b, &c0);
    assert_eq!(reference, run(&a, &b, &c0), "repeated call changed bits");

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| s.spawn(|| run(&a, &b, &c0)))
            .collect();
        for h in handles {
            assert_eq!(reference, h.join().expect("worker"), "cross-thread bits differ");
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, coefficients, and Trans combos against the oracle.
    #[test]
    fn random_shapes_match_oracle(
        m in 0usize..40,
        n in 0usize..40,
        k in 0usize..40,
        ta in 0usize..2,
        tb in 0usize..2,
        ci in 0usize..4,
        seed in 0u64..1000,
    ) {
        let coeffs = [0.0, 1.0, -1.0, 0.37];
        check(TRANS[ta], TRANS[tb], coeffs[ci], coeffs[3 - ci], m, n, k, seed);
    }
}

// ---------------------------------------------------------------------------
// Differential conformance across precisions, backends, and parallelism
// (DESIGN.md §15): every supported microkernel backend × {f32, f64} against
// the f64 oracle with eps-scaled tolerances, and par_gemm (a column split
// over gemm) against serial gemm bit for bit at every worker count.
// ---------------------------------------------------------------------------

use ca_factor::kernels::{gemm_available_backends, par_gemm, SPLIT_ALIGN};
use ca_factor::matrix::Scalar;

/// Random operands for one configuration, generated in f64 and rounded to
/// the working precision so every backend of a given type sees identical
/// input bits.
fn operands<T: Scalar>(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let mut rng = seeded_rng(seed);
    let (ar, ac) = stored(ta, m, k);
    let (br, bc) = stored(tb, k, n);
    let a = Matrix::<T>::from_f64(&random_uniform(ar, ac, &mut rng));
    let b = Matrix::<T>::from_f64(&random_uniform(br, bc, &mut rng));
    let c0 = Matrix::<T>::from_f64(&random_uniform(m, n, &mut rng));
    (a, b, c0)
}

/// Forward-error bound in the working precision: `O(k·eps_T)` per dot
/// product, same slack factor as [`tol`].
fn tol_t<T: Scalar>(k: usize) -> f64 {
    8.0 * (k as f64 + 4.0) * T::EPSILON.to_f64()
}

/// Checks the runtime-dispatched and forced-scalar paths for element type
/// `T` against the f64 oracle run on the widened inputs.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
fn check_t<T: Scalar + ca_factor::kernels::Kernel>(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    beta: f64,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
) {
    let (a, b, c0) = operands::<T>(ta, tb, m, n, k, seed);
    let mut want = c0.to_f64();
    gemm_oracle(ta, tb, alpha, &a.to_f64(), &b.to_f64(), beta, &mut want, k);

    let (al, be) = (T::from_f64(alpha), T::from_f64(beta));
    let mut got = c0.clone();
    gemm(ta, tb, al, a.view(), b.view(), be, got.view_mut());
    let mut got_scalar = c0.clone();
    gemm_with_backend("scalar", ta, tb, al, a.view(), b.view(), be, got_scalar.view_mut());

    let t = tol_t::<T>(k);
    for j in 0..n {
        for i in 0..m {
            let w = want[(i, j)];
            let g = got[(i, j)].to_f64();
            let gs = got_scalar[(i, j)].to_f64();
            assert!(
                (g - w).abs() <= t,
                "{} dispatch: ({i},{j}) of {m}x{n}x{k} {ta:?}{tb:?}: got {g} want {w}",
                T::NAME
            );
            assert!(
                (gs - w).abs() <= t,
                "{} scalar: ({i},{j}) of {m}x{n}x{k} {ta:?}{tb:?}: got {gs} want {w}",
                T::NAME
            );
        }
    }
}

#[test]
fn f32_register_block_edges_full_cross() {
    // f32 tile geometries differ per backend (8-wide scalar/AVX2, 16-wide
    // AVX-512), so cross the residues of both.
    let dims = [0, 1, 7, 9, 15, 17];
    let mut seed = 10_000;
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                for ta in TRANS {
                    for tb in TRANS {
                        seed += 1;
                        check_t::<f32>(ta, tb, 0.37, -1.0, m, n, k, seed);
                    }
                }
            }
        }
    }
}

#[test]
fn f32_alpha_beta_grid_and_kc_boundary() {
    let coeffs = [0.0, 1.0, -1.0, 0.37];
    for &alpha in &coeffs {
        for &beta in &coeffs {
            check_t::<f32>(Trans::No, Trans::Yes, alpha, beta, 17, 9, 5, 777);
        }
    }
    for &k in &[KC - 1, KC, KC + 1] {
        check_t::<f32>(Trans::No, Trans::No, 0.37, 1.0, 17, 9, k, k as u64);
    }
}

#[test]
fn every_backend_matches_oracle_in_both_precisions() {
    // The conformance matrix: each host-supported backend × {f64, f32} must
    // stay inside the per-precision oracle bound on a shape crossing both
    // the register blocking and the KC cache boundary.
    let (m, n, k) = (MR * 2 + 3, NR * 2 + 1, KC + 7);
    let backends = gemm_available_backends();
    assert!(backends.contains(&"scalar"), "scalar backend must always exist");
    for name in &backends {
        {
            let (a, b, c0) = operands::<f64>(Trans::No, Trans::No, m, n, k, 42);
            let mut want = c0.clone();
            gemm_oracle(Trans::No, Trans::No, 0.37, &a, &b, -1.0, &mut want, k);
            let mut got = c0.clone();
            gemm_with_backend(name, Trans::No, Trans::No, 0.37, a.view(), b.view(), -1.0, got.view_mut());
            for j in 0..n {
                for i in 0..m {
                    assert!(
                        (got[(i, j)] - want[(i, j)]).abs() <= tol(k),
                        "backend {name} f64 at ({i},{j})"
                    );
                }
            }
        }
        {
            let (a, b, c0) = operands::<f32>(Trans::No, Trans::No, m, n, k, 43);
            let mut want = c0.to_f64();
            gemm_oracle(Trans::No, Trans::No, 0.37, &a.to_f64(), &b.to_f64(), -1.0, &mut want, k);
            let mut got = c0.clone();
            gemm_with_backend(
                name,
                Trans::No,
                Trans::No,
                0.37f32,
                a.view(),
                b.view(),
                -1.0f32,
                got.view_mut(),
            );
            for j in 0..n {
                for i in 0..m {
                    assert!(
                        (got[(i, j)].to_f64() - want[(i, j)]).abs() <= tol_t::<f32>(k),
                        "backend {name} f32 at ({i},{j})"
                    );
                }
            }
        }
    }
}

/// par_gemm — a column split over gemm, here five aligned chunks and a
/// ragged tail wide — must equal serial gemm bit for bit at every worker
/// count and on every repeat, as every column split in ca-core and ca-ooc
/// relies on. Both precisions, both Trans combos with distinct pack routines.
#[test]
fn par_gemm_bitwise_identical_to_serial_at_every_worker_count() {
    fn check_par<T: Scalar + ca_factor::kernels::Kernel>(ta: Trans, tb: Trans, seed: u64) {
        let (m, n, k) = (ca_factor::kernels::MC + MR + 3, 5 * SPLIT_ALIGN + 3, KC + 7);
        let (a, b, c0) = operands::<T>(ta, tb, m, n, k, seed);
        let (al, be) = (T::from_f64(0.37), T::from_f64(-1.0));

        let mut serial = c0.clone();
        gemm(ta, tb, al, a.view(), b.view(), be, serial.view_mut());
        let reference: Vec<u64> = serial.as_slice().iter().map(|x| x.to_bits_u64()).collect();

        for workers in [1usize, 2, 4] {
            for repeat in 0..2 {
                let mut c = c0.clone();
                par_gemm(workers, ta, tb, al, a.view(), b.view(), be, c.view_mut());
                let bits: Vec<u64> = c.as_slice().iter().map(|x| x.to_bits_u64()).collect();
                assert_eq!(
                    reference, bits,
                    "{} par_gemm workers={workers} repeat={repeat} {ta:?}{tb:?} differs from serial",
                    T::NAME
                );
            }
        }
    }
    check_par::<f64>(Trans::No, Trans::No, 21);
    check_par::<f64>(Trans::Yes, Trans::Yes, 22);
    check_par::<f32>(Trans::No, Trans::No, 23);
    check_par::<f32>(Trans::No, Trans::Yes, 24);
}

// ---------------------------------------------------------------------------
// Triangular products and the compact-WY applications built on them
// (DESIGN.md §10 "triangular products"): every `trmm` variant against a dense
// reference on every backend, column-partition independence of `larfb_left`,
// `larfb_left_pair` and `node_apply` bit for bit, and the structured
// tree-node application against an explicit dense `Q`.
// ---------------------------------------------------------------------------

use ca_factor::core::tsqr::{node_apply, node_qr, NodePlan, NodeQ};
use ca_factor::kernels::{
    geqr3, larfb_left, larfb_left_pair, trmm_with_backend, Kernel, Side, Triangle,
};
use ca_factor::matrix::SharedMatrix;

/// `op(tri(A))` as an explicit dense f64 matrix: the ignored half dropped,
/// the unit diagonal written.
fn explicit_triangle<T: Scalar>(tri: Triangle, trans: Trans, a: &Matrix<T>) -> Matrix {
    let dense = match tri {
        Triangle::Upper => a.to_f64().upper(),
        Triangle::UnitLower => a.to_f64().unit_lower(),
    };
    match trans {
        Trans::No => dense,
        Trans::Yes => dense.transpose(),
    }
}

fn trmm_grid<T: Kernel>(nr: usize) {
    let backends = gemm_available_backends();
    let (alpha, beta) = (-1.0, 0.37);
    let mut rng = seeded_rng(4242);
    for &k in &[1, 3, 4, 5, 16, 63, 64, 65, 100] {
        for &n in &[0, 1, nr - 1, nr, nr + 1, 200] {
            let a = Matrix::<T>::from_f64(&random_uniform(k, k, &mut rng));
            for side in [Side::Left, Side::Right] {
                let (br, bc) = if side == Side::Left { (k, n) } else { (n, k) };
                let b = Matrix::<T>::from_f64(&random_uniform(br, bc, &mut rng));
                let b64 = b.to_f64();
                let c0 = Matrix::<T>::from_f64(&random_uniform(br, bc, &mut rng));
                for tri in [Triangle::Upper, Triangle::UnitLower] {
                    for trans in TRANS {
                        let op = explicit_triangle(tri, trans, &a);
                        let ab = match side {
                            Side::Left => op.matmul(&b64),
                            Side::Right => b64.matmul(&op),
                        };
                        for name in &backends {
                            let mut c = c0.clone();
                            trmm_with_backend(
                                name,
                                side,
                                tri,
                                trans,
                                T::from_f64(alpha),
                                a.view(),
                                b.view(),
                                T::from_f64(beta),
                                c.view_mut(),
                            );
                            for j in 0..bc {
                                for i in 0..br {
                                    let want = alpha * ab[(i, j)] + beta * c0[(i, j)].to_f64();
                                    assert!(
                                        (c[(i, j)].to_f64() - want).abs() <= tol_t::<T>(k),
                                        "{} {name} {side:?} {tri:?} {trans:?} k={k} n={n} at ({i},{j})",
                                        T::NAME
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn trmm_every_variant_matches_dense_reference_on_every_backend() {
    trmm_grid::<f64>(NR);
    trmm_grid::<f32>(8); // the f32 tiles are 8 columns wide on every backend
}

fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits_u64()).collect()
}

/// A TSQR node over stacked upper trapezoids of the given heights (the
/// first one `kk` rows), panel width `w`, with its rows scattered over a
/// taller matrix the way a panel's groups are.
fn build_node<T: Kernel>(w: usize, lens: &[usize], seed: u64) -> (NodeQ<T>, usize) {
    let gap = 3;
    let mut row_ranges = Vec::new();
    let mut at = 1;
    for &len in lens {
        row_ranges.push(at..at + len);
        at += len + gap;
    }
    let rows = at;
    let full = random_uniform(rows, w, &mut seeded_rng(seed));
    // Upper trapezoid in each participant's rows; junk (as a leaf's V would
    // be) below each diagonal and between the participants.
    let a = Matrix::<T>::from_f64(&full);
    let total: usize = lens.iter().sum();
    let plan = NodePlan { level: 0, participants: (0..lens.len()).collect(), row_ranges, kk: total.min(w) };
    (node_qr(&SharedMatrix::new(a), 0, w, &plan), rows)
}

#[test]
fn compact_wy_applications_do_not_depend_on_the_column_partition() {
    fn check<T: Kernel>() {
        let (m, k, n, b) = (150, 40, 100, 16);
        let mut rng = seeded_rng(77);
        let mut v = Matrix::<T>::from_f64(&random_uniform(m, k, &mut rng));
        let mut t = Matrix::<T>::zeros(k, k);
        geqr3(v.view_mut(), t.view_mut());
        let c0 = Matrix::<T>::from_f64(&random_uniform(m, n, &mut rng));

        for trans in TRANS {
            // larfb_left, whole width vs b-wide chunks.
            let mut whole = c0.clone();
            larfb_left(trans, v.view(), t.view(), whole.view_mut());
            let mut chunked = c0.clone();
            for j0 in (0..n).step_by(b) {
                let wj = b.min(n - j0);
                larfb_left(trans, v.view(), t.view(), chunked.block_mut(0, j0, m, wj));
            }
            assert_eq!(bits(&whole), bits(&chunked), "{} larfb_left {trans:?}", T::NAME);

            // larfb_left_pair on two discontiguous row blocks of C.
            let (v_top, v_bot) = (v.block(0, 0, k, k), v.block(k, 0, m - k, k));
            let (top0, bot0) = (c0.block(0, 0, k, n), c0.block(k, 0, m - k, n));
            let own = |x| Matrix::vstack(&[x]);
            let (mut wt, mut wb) = (own(top0), own(bot0));
            larfb_left_pair(trans, v_top, v_bot, t.view(), wt.view_mut(), wb.view_mut());
            let (mut ct, mut cb) = (own(top0), own(bot0));
            for j0 in (0..n).step_by(b) {
                let wj = b.min(n - j0);
                larfb_left_pair(
                    trans,
                    v_top,
                    v_bot,
                    t.view(),
                    ct.block_mut(0, j0, k, wj),
                    cb.block_mut(0, j0, m - k, wj),
                );
            }
            assert_eq!(bits(&wt), bits(&ct), "{} larfb_left_pair top {trans:?}", T::NAME);
            assert_eq!(bits(&wb), bits(&cb), "{} larfb_left_pair bottom {trans:?}", T::NAME);
            // The pair form is the contiguous form on split views.
            assert_eq!(bits(&whole), bits(&Matrix::vstack(&[wt.view(), wb.view()])));

            // node_apply: the DAG's b-wide S tasks vs caqr_seq's one call.
            let (node, rows) = build_node::<T>(k, &[k, k, k - 7], 5);
            let d0 = Matrix::<T>::from_f64(&random_uniform(rows, n, &mut rng));
            let whole = SharedMatrix::new(d0.clone());
            node_apply(&node, &whole, 0..n, trans);
            let chunked = SharedMatrix::new(d0);
            for j0 in (0..n).step_by(b) {
                node_apply(&node, &chunked, j0..(j0 + b).min(n), trans);
            }
            assert_eq!(
                bits(&whole.into_inner()),
                bits(&chunked.into_inner()),
                "{} node_apply {trans:?}",
                T::NAME
            );
        }
    }
    check::<f64>();
    check::<f32>();
}

/// `op(Q)·C` for the node's `Q = I − V·T·Vᵀ` formed densely in f64 from the
/// packed stack (`V` unit lower trapezoidal as stored, `T` upper), applied
/// to the node's rows of `c`; every other row is left as it was.
fn node_apply_reference<T: Scalar>(node: &NodeQ<T>, trans: Trans, c: &Matrix<T>) -> Matrix {
    let (v, t) = (node.v.to_f64().unit_lower(), node.t.to_f64().upper());
    let s = v.nrows();
    let t = if trans == Trans::Yes { t.transpose() } else { t };
    let q = Matrix::identity(s).sub_matrix(&v.matmul(&t).matmul(&v.transpose()));
    let rows: Vec<usize> = node.row_ranges.iter().flat_map(|r| r.clone()).collect();
    let c = c.to_f64();
    let stacked = Matrix::from_fn(s, c.ncols(), |i, j| c[(rows[i], j)]);
    let applied = q.matmul(&stacked);
    let mut out = c;
    for (i, &r) in rows.iter().enumerate() {
        for j in 0..out.ncols() {
            out[(r, j)] = applied[(i, j)];
        }
    }
    out
}

#[test]
fn structured_node_apply_matches_dense_q() {
    fn check<T: Kernel>(w: usize, lens: &[usize], seed: u64) {
        let (node, rows) = build_node::<T>(w, lens, seed);
        let k = node.kk;
        // What the structured form relies on: an identity top block and
        // upper-trapezoidal blocks below it.
        let mut off = 0;
        for range in &node.row_ranges {
            for i in 0..range.len() {
                for j in 0..i.min(k) {
                    assert_eq!(node.v[(off + i, j)].to_f64(), 0.0, "V not structured at ({},{j})", off + i);
                }
            }
            off += range.len();
        }
        let n = 37;
        let c0 = Matrix::<T>::from_f64(&random_uniform(rows, n, &mut seeded_rng(seed + 1)));
        let tol = 64.0 * (k.max(1) as f64) * T::EPSILON.to_f64();
        for trans in TRANS {
            let want = node_apply_reference(&node, trans, &c0);
            let dst = SharedMatrix::new(c0.clone());
            node_apply(&node, &dst, 0..n, trans);
            let got = dst.into_inner();
            for j in 0..n {
                for i in 0..rows {
                    assert!(
                        (got[(i, j)].to_f64() - want[(i, j)]).abs() <= tol,
                        "{} w={w} lens={lens:?} {trans:?} at ({i},{j}): got {} want {}",
                        T::NAME,
                        got[(i, j)],
                        want[(i, j)]
                    );
                }
            }
        }
        // Qᵀ then Q is the identity.
        let dst = SharedMatrix::new(c0.clone());
        node_apply(&node, &dst, 0..n, Trans::Yes);
        node_apply(&node, &dst, 0..n, Trans::No);
        let back = dst.into_inner();
        for (x, y) in back.as_slice().iter().zip(c0.as_slice()) {
            assert!((x.to_f64() - y.to_f64()).abs() <= tol, "{} round trip w={w} lens={lens:?}", T::NAME);
        }
    }
    for (seed, (w, lens)) in [
        (64, &[64, 64][..]),       // the two-triangle node
        (40, &[40, 40, 40, 40]),   // TreeShape::Flat: four participants in one node
        (40, &[40, 13]),           // short last participant
        (33, &[33, 33, 5]),        // three participants, ragged tail, odd width
        (12, &[5, 0]),             // kk < w: fewer stacked rows than panel columns
        (1, &[1, 1]),
    ]
    .into_iter()
    .enumerate()
    {
        check::<f64>(w, lens, 100 + seed as u64);
        check::<f32>(w, lens, 200 + seed as u64);
    }
}

// ---------------------------------------------------------------------------
// Triangular solves and the recursive LU panel kernel (DESIGN.md §10,
// "triangular solves"): every `(side, uplo, trans, diag)` of `trsm` on every
// backend in both precisions against an f64 substitution; the solve must not
// depend on how its callers partition the free dimension (the sequential
// path solves a panel's whole `L` block and whole `U` row, the DAG one row
// group and one column chunk per task), bit for bit; and `rgetf2` must pick
// `getf2`'s pivots.
// ---------------------------------------------------------------------------

use ca_factor::kernels::{getf2, rgetf2, trsm_with_backend, Diag, Uplo, TRSM_BASE, TRSM_SLAB};

const SIDES: [Side; 2] = [Side::Left, Side::Right];
const UPLOS: [Uplo; 2] = [Uplo::Upper, Uplo::Lower];
const DIAGS: [Diag; 2] = [Diag::NonUnit, Diag::Unit];

/// A stored triangle of order `n` — off-diagonal entries of size `1/n`,
/// diagonal in `[2, 3)`, so the solve is well conditioned — with NaN wherever
/// `trsm` must not look: the other half, and the diagonal when it is
/// implicit. Entries are f32 values, so one f64 oracle serves both types.
fn stored_triangle(n: usize, uplo: Uplo, diag: Diag, seed: u64) -> Matrix {
    let r = random_uniform(n, n, &mut seeded_rng(seed));
    Matrix::from_fn(n, n, |i, j| match (i == j, (i < j) == (uplo == Uplo::Upper)) {
        (true, _) if diag == Diag::Unit => f64::NAN,
        (true, _) => f64::from((2.0 + r[(i, j)].abs()) as f32),
        (false, true) => f64::from((r[(i, j)] / n as f64) as f32),
        (false, false) => f64::NAN,
    })
}

/// A random right-hand side of f32 values.
fn f32_valued(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::<f32>::from_f64(&random_uniform(rows, cols, &mut seeded_rng(seed))).to_f64()
}

/// `X` with `op(A)·X = B` (left) or `X·op(A) = B` (right) by plain f64
/// substitution.
fn trsm_oracle(side: Side, uplo: Uplo, trans: Trans, diag: Diag, a: &Matrix, b: &Matrix) -> Matrix {
    let n = a.nrows();
    // Left-side form `M·Y = C`: `M = op(A)`, or its transpose on the right;
    // `rows[i]` is row `i` of `M`.
    let direct = (side == Side::Left) == (trans == Trans::No);
    let lower = (uplo == Uplo::Lower) == direct;
    let rows: Vec<Vec<f64>> =
        (0..n).map(|i| (0..n).map(|k| if direct { a[(i, k)] } else { a[(k, i)] }).collect()).collect();
    let mut y = if side == Side::Left { b.clone() } else { b.transpose() };
    for col in 0..y.ncols() {
        let mut y = y.view_mut();
        let y = y.col_mut(col);
        for step in 0..n {
            let i = if lower { step } else { n - 1 - step };
            let span = if lower { 0..i } else { i + 1..n };
            let dot: f64 = rows[i][span.clone()].iter().zip(&y[span]).map(|(m, x)| m * x).sum();
            y[i] = if diag == Diag::Unit { y[i] - dot } else { (y[i] - dot) / rows[i][i] };
        }
    }
    if side == Side::Left { y } else { y.transpose() }
}

fn trsm_grid<T: Kernel>() {
    let backends = gemm_available_backends();
    let mut seed = 900;
    for &n in &[1, 3, TRSM_BASE - 1, TRSM_BASE, TRSM_BASE + 1, 63, 64, 65, 100] {
        for &free in &[0, 1, MR - 1, MR, MR + 1, TRSM_SLAB - 1, TRSM_SLAB + 1, 1000] {
            for side in SIDES {
                let b = if side == Side::Left { f32_valued(n, free, seed) } else { f32_valued(free, n, seed) };
                for uplo in UPLOS {
                    for diag in DIAGS {
                        seed += 1;
                        let a = stored_triangle(n, uplo, diag, seed);
                        for trans in TRANS {
                            let want = trsm_oracle(side, uplo, trans, diag, &a, &b);
                            let (a_t, b_t) = (Matrix::<T>::from_f64(&a), Matrix::<T>::from_f64(&b));
                            for name in &backends {
                                let mut x = b_t.clone();
                                trsm_with_backend(name, side, uplo, trans, diag, a_t.view(), x.view_mut());
                                for (at, (g, w)) in x.as_slice().iter().zip(want.as_slice()).enumerate() {
                                    assert!(
                                        (g.to_f64() - w).abs() <= tol_t::<T>(n),
                                        "{} {name} {side:?} {uplo:?} {trans:?} {diag:?} n={n} free={free} at {at}: got {g} want {w}",
                                        T::NAME
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// One test per precision, so the two grids run side by side.
#[test]
fn trsm_every_variant_matches_dense_solve_on_every_backend_f64() {
    trsm_grid::<f64>();
}

#[test]
fn trsm_every_variant_matches_dense_solve_on_every_backend_f32() {
    trsm_grid::<f32>();
}

#[test]
fn trsm_does_not_depend_on_the_partition_of_the_free_dimension() {
    fn check<T: Kernel>() {
        // One panel of the `tall` shape in small: order 100, and a free
        // dimension cut where row groups and column chunks cut it — away
        // from every slab and vector boundary, the last piece ragged.
        let (n, free) = (100, 2 * TRSM_SLAB + 91);
        let cuts = [0, 1, 38, TRSM_SLAB - 5, TRSM_SLAB + 3, 2 * TRSM_SLAB + 1, free];
        for name in gemm_available_backends() {
            for side in SIDES {
                let (br, bc) = if side == Side::Left { (n, free) } else { (free, n) };
                let b = Matrix::<T>::from_f64(&random_uniform(br, bc, &mut seeded_rng(31)));
                for uplo in UPLOS {
                    for trans in TRANS {
                        for diag in DIAGS {
                            let a = Matrix::<T>::from_f64(&stored_triangle(n, uplo, diag, 32));
                            let mut whole = b.clone();
                            trsm_with_backend(name, side, uplo, trans, diag, a.view(), whole.view_mut());
                            let mut parts = b.clone();
                            for w in cuts.windows(2) {
                                let part = match side {
                                    Side::Left => parts.block_mut(0, w[0], n, w[1] - w[0]),
                                    Side::Right => parts.block_mut(w[0], 0, w[1] - w[0], n),
                                };
                                trsm_with_backend(name, side, uplo, trans, diag, a.view(), part);
                            }
                            assert_eq!(
                                bits(&whole),
                                bits(&parts),
                                "{} {name} {side:?} {uplo:?} {trans:?} {diag:?}",
                                T::NAME
                            );
                        }
                    }
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}

/// The DAG applies a reflector set per 64-column block, `caqr_seq` and
/// `panel_apply` to every trailing column in one call: `larfb_left_multi`
/// must give a column the same bits whatever columns share its call, across
/// every width-dependent switch of the products underneath.
#[test]
fn larfb_left_multi_does_not_depend_on_how_the_columns_are_partitioned() {
    use ca_factor::kernels::larfb_left_multi;
    // 24 reflectors over blocks of 33 and 10 rows: the transposed products
    // take the unpacked path for one block and not the other, and the
    // untransposed ones switch with the width.
    let (k, lens, width) = (24, [33, 10], 200);
    let rows = k + lens.iter().sum::<usize>();
    let mut rng = seeded_rng(51);
    let v = random_uniform(rows, k, &mut rng);
    let t = random_uniform(k, k, &mut rng);
    let c0 = random_uniform(rows, width, &mut rng);
    for (with_top, rest) in [(true, VRest::Dense), (false, VRest::UpperTrapezoid)] {
        let mut v = v.clone();
        if rest == VRest::UpperTrapezoid {
            let mut off = k;
            for &len in &lens {
                for i in 0..len {
                    (0..i.min(k)).for_each(|j| v[(off + i, j)] = 0.0);
                }
                off += len;
            }
        }
        // Applies the set to columns `cols` of `c`.
        let apply = |c: &mut Matrix, cols: core::ops::Range<usize>| {
            let mut view = c.block_mut(0, cols.start, rows, cols.len());
            let (top, mut below) = view.rb().split_at_row(k);
            let mut c_rest = Vec::new();
            for &len in &lens {
                let (blk, tail) = below.split_at_row(len);
                c_rest.push(blk);
                below = tail;
            }
            let v_rest = [v.block(k, 0, lens[0], k), v.block(k + lens[0], 0, lens[1], k)];
            let v_top = with_top.then(|| v.block(0, 0, k, k));
            larfb_left_multi(Trans::Yes, v_top, &v_rest, rest, t.view(), top, &mut c_rest);
        };
        for b in [1, 16, 64] {
            let mut chunked = c0.clone();
            for j0 in (0..width).step_by(b) {
                apply(&mut chunked, j0..(j0 + b).min(width));
            }
            for w in 1..=width {
                let mut whole = c0.clone();
                apply(&mut whole, 0..w);
                // The first w columns, column-major.
                let (got, want) = (&bits(&whole)[..rows * w], &bits(&chunked)[..rows * w]);
                assert!(got == want, "{rest:?} top={with_top}: width {w} in one call vs {b}-column chunks");
            }
        }
    }
}

#[test]
fn rgetf2_picks_the_pivots_of_getf2() {
    fn same<T: Kernel>(a0: &Matrix, what: &str) {
        let (mut rec, mut b2) = (Matrix::<T>::from_f64(a0), Matrix::<T>::from_f64(a0));
        let (i_rec, i_b2) = (rgetf2(rec.view_mut()), getf2(b2.view_mut()));
        assert_eq!(i_rec.pivots.ipiv, i_b2.pivots.ipiv, "{} {what}: pivot sequences differ", T::NAME);
        assert_eq!(i_rec.first_zero_pivot, i_b2.first_zero_pivot, "{} {what}", T::NAME);
    }
    let (m, n) = (700, 100);
    let mut rng = seeded_rng(41);
    let random = random_uniform(m, n, &mut rng);
    same::<f64>(&random, "random");

    // Entries in {-1, 0, 1} and few columns: exact arithmetic in both
    // routines and both precisions, every column full of ties.
    let r = random_uniform(m, 10, &mut rng);
    let tied = Matrix::from_fn(m, 10, |i, j| (r[(i, j)] * 1.5).round());
    same::<f64>(&tied, "tied");
    same::<f32>(&tied, "tied");

    // NaN entries are never pivots while a number is left; an all-NaN
    // column pivots on its first row.
    let mut nan = random.clone();
    for &(i, j) in &[(0, 0), (5, 0), (m - 1, 3), (17, TRSM_BASE), (300, 60), (70, n - 1)] {
        nan[(i, j)] = f64::NAN;
    }
    same::<f64>(&nan, "scattered NaN");
    (0..m).for_each(|i| nan[(i, 40)] = f64::NAN);
    same::<f64>(&nan, "NaN column");
}

// ---------------------------------------------------------------------------
// Recursive QR (DESIGN.md §10, "QR panel"): `geqr3` on every backend in both
// precisions, with `n` on both sides of the 16-column base case and its
// splits and `m − n` over every residue of the base case's 8-row dot chunks
// (plus tails past its 64-row update chunks and 256-row blocks), against the
// residual and orthogonality gates of `tests/accuracy.rs` and `|R|` of
// `geqr2`; a zero column (`τ = 0`), a NaN column, and bitwise repeatability
// across repeats and threads.
// ---------------------------------------------------------------------------

use ca_factor::kernels::{form_q_thin, geqr2, geqr3_with_backend};
use ca_factor::matrix::{norm_max, orthogonality, qr_residual};

/// `c` of the `c · max(m,n) · eps` gates in `tests/accuracy.rs`.
const ACCURACY_C: f64 = 100.0;

/// `geqr3` of `a` on backend `name`: the factored panel and its `T`.
fn geqr3_on<T: Kernel>(name: &str, a: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let (mut f, mut t) = (a.clone(), Matrix::zeros(a.ncols(), a.ncols()));
    geqr3_with_backend(name, f.view_mut(), t.view_mut());
    (f, t)
}

/// Residual and orthogonality of a factored panel in f64, against the gate.
fn assert_qr_gates<T: Kernel>(a: &Matrix<T>, f: &Matrix<T>, t: &Matrix<T>, what: &str) {
    let (m, n) = (a.nrows(), a.ncols());
    let q = form_q_thin(f.view(), t.view()).to_f64();
    let (res, orth) = (qr_residual(&a.to_f64(), &q, &f.upper().to_f64()), orthogonality(&q));
    let bound = ACCURACY_C * m.max(n) as f64 * T::EPSILON.to_f64();
    assert!(res < bound && orth < bound, "{} {what}: residual {res:e}, orthogonality {orth:e} vs {bound:e}", T::NAME);
}

#[test]
fn geqr3_meets_the_accuracy_gates_on_every_backend() {
    fn check<T: Kernel>() {
        let shapes = [1usize, 15, 16, 17, 35, 100].into_iter().flat_map(|n| (0..8).map(move |d| (n + d, n)));
        let tails = [16usize, 35].into_iter().flat_map(|n| [(n + 64 + 9, n), (n + 256 + 64 + 8 + 3, n)]);
        for (m, n) in shapes.chain(tails) {
            let a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng((m * 131 + n) as u64)));
            let mut g = a.clone();
            geqr2(g.view_mut(), &mut Vec::new());
            let r2 = g.upper().to_f64();
            let bound = ACCURACY_C * m as f64 * T::EPSILON.to_f64() * norm_max(r2.view());
            for name in gemm_available_backends() {
                let (f, t) = geqr3_on(name, &a);
                assert_qr_gates(&a, &f, &t, &format!("{name} {m}x{n}"));
                // R is unique up to the signs of its rows.
                for (x, y) in f.upper().to_f64().as_slice().iter().zip(r2.as_slice()) {
                    assert!((x.abs() - y.abs()).abs() <= bound, "{} {name} {m}x{n}: |R| {x} vs geqr2 {y}", T::NAME);
                }
            }
        }
    }
    check::<f64>();
    check::<f32>();
}

#[test]
fn geqr3_zero_and_nan_columns() {
    fn check<T: Kernel>() {
        let (m, n) = (90, 35);
        for name in gemm_available_backends() {
            // A zero column stays zero under every earlier reflector: τ = 0,
            // R[j, j] = 0, in the first base case and in one after a split.
            let mut a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng(61)));
            for j in [3, 20] {
                (0..m).for_each(|i| a[(i, j)] = T::ZERO);
            }
            let (f, t) = geqr3_on(name, &a);
            for j in [3, 20] {
                assert_eq!((t[(j, j)].to_f64(), f[(j, j)].to_f64()), (0.0, 0.0), "{} {name}: column {j}", T::NAME);
            }
            assert_qr_gates(&a, &f, &t, &format!("{name} zero columns"));

            // A NaN column propagates into R without a panic.
            let mut a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng(62)));
            (0..m).for_each(|i| a[(i, 5)] = T::from_f64(f64::NAN));
            let (f, _) = geqr3_on(name, &a);
            assert!((0..=5).any(|i| f[(i, 5)].is_nan()), "{} {name}: NaN column vanished from R", T::NAME);
        }
    }
    check::<f64>();
    check::<f32>();
}

#[test]
fn geqr3_is_bitwise_identical_across_repeats_and_threads() {
    fn check<T: Kernel>() {
        let a = Matrix::<T>::from_f64(&random_uniform(300, 100, &mut seeded_rng(63)));
        for name in gemm_available_backends() {
            let run = || {
                let (f, t) = geqr3_on(name, &a);
                (bits(&f), bits(&t))
            };
            let reference = run();
            assert_eq!(reference, run(), "{} {name}: repeat differs", T::NAME);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..3).map(|_| s.spawn(run)).collect();
                for h in handles {
                    assert_eq!(reference, h.join().expect("worker"), "{} {name}: cross-thread bits differ", T::NAME);
                }
            });
        }
    }
    check::<f64>();
    check::<f32>();
}

// ---------------------------------------------------------------------------
// Pinned bits (DESIGN.md §10, "Small shapes"): FNV-1a hashes of `rgetf2`,
// `trsm` (every side / uplo / trans / diag) and `gemm` outputs on a seeded
// shape sweep, per backend and precision. The small-shape paths — the
// unpacked `gemm`, the in-place left `trsm` base case, the short-column
// `rgetf2` base case — promise the bits of the code they replaced, so these
// hashes were recorded before those paths existed. The sweep straddles
// every shape switch: `k` = `KC`, `m·k` = 4096 and `m·n` = 128·k for the
// unpacked `gemm` (which also needs `op(A) = A`; at 128 × 16 × 16 and
// 129 × 16 × 16 the last bound decides), 128 rows for the short `rgetf2`
// base case, and every free dimension around the base cases' vector width.
// ---------------------------------------------------------------------------

use ca_factor::kernels::rgetf2_with_backend;

/// Element bits with every NaN folded into one: a NaN's sign and payload
/// depend on how the compiler orders a negation and a fused multiply-add.
fn pin_bits<T: Scalar>(m: &Matrix<T>) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits_u64() })
}

/// FNV-1a, 64-bit, over the little-endian bytes of each word.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().flat_map(u64::to_le_bytes).fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const PIN_ROWS: [usize; 14] = [1, 15, 16, 17, 63, 64, 65, 128, 129, 192, 255, 256, 257, 512];

fn rgetf2_hash<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    for &m in &PIN_ROWS {
        for &n in &[16usize, 32, 64] {
            let mut a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng((m * 1000 + n) as u64)));
            if m > 20 {
                // A zero column (its pivot is zero, it eliminates nothing)
                // and a NaN that is never a pivot while a number is left.
                (0..m).for_each(|i| a[(i, 3)] = T::ZERO);
                a[(m / 2, n - 1)] = T::from_f64(f64::NAN);
            }
            let info = rgetf2_with_backend(name, a.view_mut());
            h = fnv(h, pin_bits(&a));
            h = fnv(h, info.pivots.ipiv.iter().map(|&p| p as u64));
            h = fnv(h, [info.first_zero_pivot.map_or(u64::MAX, |k| k as u64)]);
        }
    }
    h
}

fn trsm_hash<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    let mut seed = 7000;
    for &n in &[1usize, 15, 16, 17, 63, 64, 65, 100] {
        for &free in &[1usize, 15, 16, 17, 63, 65, 200] {
            for side in SIDES {
                for uplo in UPLOS {
                    for trans in TRANS {
                        for diag in DIAGS {
                            seed += 1;
                            let a = Matrix::<T>::from_f64(&stored_triangle(n, uplo, diag, seed));
                            let (br, bc) = if side == Side::Left { (n, free) } else { (free, n) };
                            let mut x = Matrix::<T>::from_f64(&random_uniform(br, bc, &mut seeded_rng(seed)));
                            trsm_with_backend(name, side, uplo, trans, diag, a.view(), x.view_mut());
                            h = fnv(h, pin_bits(&x));
                        }
                    }
                }
            }
        }
    }
    h
}

fn gemm_hash<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    let mut seed = 8000;
    let ms = [1usize, 15, 16, 17, 63, 64, 65, 128, 129];
    let shapes = ms
        .iter()
        .flat_map(|&m| [(m, 16, 16), (m, 17, 32), (m, 64, 64), (m, 1, 33)])
        .chain([(16, 9, 256), (16, 9, 257), (1, 5, 256), (1, 5, 257), (64, 7, 65), (200, 40, 20), (20, 1100, 20)]);
    for (m, n, k) in shapes {
        for ta in TRANS {
            for tb in TRANS {
                seed += 1;
                let (a, b, c0) = operands::<T>(ta, tb, m, n, k, seed);
                for (alpha, beta) in [(-1.0, 1.0), (0.37, 0.0), (1.0, -0.5)] {
                    let mut c = c0.clone();
                    let (al, be) = (T::from_f64(alpha), T::from_f64(beta));
                    gemm_with_backend(name, ta, tb, al, a.view(), b.view(), be, c.view_mut());
                    h = fnv(h, pin_bits(&c));
                }
            }
        }
    }
    h
}

/// `(kernel, backend, precision, hash)`, recorded on the code before the
/// small-shape paths: LU's and `gemm`'s first, the QR kernels' (`geqr3` on)
/// before QR's. The two FMA backends run the same operations, but their
/// tiles differ in height, so where an output sums to `−0` in a tile that
/// one of them cuts at the edge of `C` (`c + (0 + α·acc)`), their signed
/// zeros differ. A backend this host lacks is skipped. `--nocapture` prints
/// the table this host computes.
const PINNED: &[(&str, &str, &str, u64)] = &[
    ("rgetf2", "avx512f", "f64", 0xbdc171837883a2b3),
    ("rgetf2", "avx512f", "f32", 0x7bd74d4ffd040f67),
    ("trsm", "avx512f", "f64", 0xab9931f78f7333ca),
    ("trsm", "avx512f", "f32", 0x5f50f8c91ead0d95),
    ("gemm", "avx512f", "f64", 0xce049d6c6ebfc228),
    ("gemm", "avx512f", "f32", 0x2eb660ef7ee2cd4e),
    ("rgetf2", "avx2-fma", "f64", 0xbdc171837883a2b3),
    ("rgetf2", "avx2-fma", "f32", 0x7bd74d4ffd040f67),
    ("trsm", "avx2-fma", "f64", 0xab9931f78f7333ca),
    ("trsm", "avx2-fma", "f32", 0x5f50f8c91ead0d95),
    ("gemm", "avx2-fma", "f64", 0xce049d6c6ebfc228),
    ("gemm", "avx2-fma", "f32", 0x2eb660ef7ee2cd4e),
    ("rgetf2", "scalar", "f64", 0xb1d8bf376629513c),
    ("rgetf2", "scalar", "f32", 0x288f1cfe44a06bd1),
    ("trsm", "scalar", "f64", 0x2eccee8b4dafe1fd),
    ("trsm", "scalar", "f32", 0x7b4e3aa04b90a3d3),
    ("gemm", "scalar", "f64", 0xb728de237a6355fe),
    ("gemm", "scalar", "f32", 0x7113dfeaa2e25000),
    ("geqr3", "avx512f", "f64", 0x8f5fcd704b186c74),
    ("geqr3", "avx512f", "f32", 0x404031cd72d5a726),
    ("larfb_left", "avx512f", "f64", 0x847bd4fb32457505),
    ("larfb_left", "avx512f", "f32", 0x70ca594eaa29916d),
    ("larfb_left_multi", "avx512f", "f64", 0x50043f1226f4b5cb),
    ("larfb_left_multi", "avx512f", "f32", 0xcae8be76cc659079),
    ("node_qr", "avx512f", "f64", 0x361e3535848998f0),
    ("node_qr", "avx512f", "f32", 0xf0ee4a11fd783559),
    ("geqr3", "avx2-fma", "f64", 0x8f5fcd704b186c74),
    ("geqr3", "avx2-fma", "f32", 0x404031cd72d5a726),
    ("larfb_left", "avx2-fma", "f64", 0xb7dab9c317b3f505),
    ("larfb_left", "avx2-fma", "f32", 0x4ad2274b7ea0516d),
    ("larfb_left_multi", "avx2-fma", "f64", 0x0005ec30781b5dcb),
    ("larfb_left_multi", "avx2-fma", "f32", 0xc72f8c1f2a871c79),
    ("node_qr", "avx2-fma", "f64", 0x3825708c7b9f38f0),
    ("node_qr", "avx2-fma", "f32", 0xf0ee4a11fd783559),
    ("geqr3", "scalar", "f64", 0x84970ffa02fe1d7f),
    ("geqr3", "scalar", "f32", 0x865c8ce2e3dac013),
    ("larfb_left", "scalar", "f64", 0x85ad43ad2d5938b1),
    ("larfb_left", "scalar", "f32", 0x20ae0c5d1d7a849d),
    ("larfb_left_multi", "scalar", "f64", 0x245e69dd29c3d5a9),
    ("larfb_left_multi", "scalar", "f32", 0xc8462efece35c8bd),
    ("node_qr", "scalar", "f64", 0xda3e038d38e8018f),
    ("node_qr", "scalar", "f32", 0x0f49e0648b9b012b),
];

/// Checks one backend's hashes against [`PINNED`] and prints them as table
/// rows; returns how many were pinned.
fn check_pins(name: &str, got: &[(&str, &str, u64)]) -> usize {
    let mut checked = 0;
    for &(kernel, ty, hash) in got {
        println!("    (\"{kernel}\", \"{name}\", \"{ty}\", {hash:#018x}),");
        if let Some(&(.., want)) = PINNED.iter().find(|p| (p.0, p.1, p.2) == (kernel, name, ty)) {
            assert_eq!(hash, want, "{kernel} {name} {ty}: output bits moved");
            checked += 1;
        }
    }
    checked
}

#[test]
fn small_shape_kernels_keep_their_pinned_bits() {
    let mut checked = 0;
    for name in gemm_available_backends() {
        checked += check_pins(
            name,
            &[
                ("rgetf2", "f64", rgetf2_hash::<f64>(name)),
                ("rgetf2", "f32", rgetf2_hash::<f32>(name)),
                ("trsm", "f64", trsm_hash::<f64>(name)),
                ("trsm", "f32", trsm_hash::<f32>(name)),
                ("gemm", "f64", gemm_hash::<f64>(name)),
                ("gemm", "f32", gemm_hash::<f32>(name)),
            ],
        );
    }
    assert_eq!(checked, 6 * gemm_available_backends().len(), "every backend of this host is pinned");
}

// The QR kernels' pins: `geqr3` (`R` and `V` in place, and `T`),
// `larfb_left`, `larfb_left_multi` (with and without `v_top`, dense and
// upper-trapezoidal blocks below it) and `node_qr` (its `NodeQ` and the
// merged `R`). The sweep straddles the 16-column base case and its splits,
// row counts around 64, 128 and 256, and `C` widths from 1 to 130; the
// panels carry exact-zero and `−0` columns and entries, and columns small
// enough that their reflector takes the rescaled path.

use ca_factor::core::tsqr::node_qr_with_backend;
use ca_factor::kernels::{larfb_left_multi_with_backend, larfb_left_with_backend, VRest};

/// Panel widths and reflector counts of the QR pins.
const PIN_COLS: [usize; 11] = [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100];

/// `C` widths of the QR pins.
const PIN_WIDTHS: [usize; 5] = [1, 16, 17, 65, 130];

/// Heights of the `geqr3` pins for width `n`: square and near-square, then
/// around 64, 128 and 256 rows.
fn qr_rows(n: usize) -> Vec<usize> {
    let mut ms: Vec<usize> =
        [n, n + 1, n + 7, n + 9, 63, 64, 65, 128, 129, 256, 257].into_iter().filter(|&m| m >= n).collect();
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// A seeded `m × n` panel. By `seed % 3`: plain; with an exact-zero column,
/// a `−0` column and a first column of scattered `0` and `−0`; or with one
/// column scaled to `√MIN_POSITIVE / 16` (its sum of squares is below the
/// reflector's safe minimum) and, past three columns, the last scaled to
/// `4·MIN_POSITIVE` (its `β` too, so the reflector rescales `x` as well).
fn qr_panel<T: Kernel>(m: usize, n: usize, seed: u64) -> Matrix<T> {
    let mut a = Matrix::<T>::from_f64(&random_uniform(m, n, &mut seeded_rng(seed)));
    match seed % 3 {
        0 => {}
        1 => {
            (0..m).for_each(|i| a[(i, n / 2)] = T::ZERO);
            (0..m).for_each(|i| a[(i, n - 1)] = -T::ZERO);
            (0..m).step_by(3).for_each(|i| a[(i, 0)] = if i % 2 == 0 { T::ZERO } else { -T::ZERO });
        }
        _ => {
            let tiny = T::MIN_POSITIVE.sqrt() / T::from_f64(16.0);
            (0..m).for_each(|i| a[(i, n / 3)] *= tiny);
            if n > 3 {
                (0..m).for_each(|i| a[(i, n - 1)] *= T::MIN_POSITIVE * T::from_f64(4.0));
            }
        }
    }
    a
}

/// A seeded compact-WY pair: `k` random reflectors of `m` rows and a random
/// upper-triangular `T` (random junk below its diagonal, which is ignored).
fn wy_pair<T: Kernel>(m: usize, k: usize, seed: u64) -> (Matrix<T>, Matrix<T>) {
    let mut rng = seeded_rng(seed);
    let v = Matrix::<T>::from_f64(&random_uniform(m, k, &mut rng));
    let t = Matrix::<T>::from_f64(&random_uniform(k, k, &mut rng));
    (v, t)
}

fn geqr3_pin<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    for &n in &PIN_COLS {
        for m in qr_rows(n) {
            let (f, t) = geqr3_on(name, &qr_panel::<T>(m, n, (m * 1000 + n) as u64));
            h = fnv(fnv(h, pin_bits(&f)), pin_bits(&t));
        }
    }
    h
}

fn larfb_left_pin<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    let mut seed = 9000;
    for &k in &PIN_COLS {
        let mut ms = vec![k + 9, 129, 257];
        ms.retain(|&m| m >= k);
        ms.dedup();
        for m in ms {
            seed += 1;
            let (v, t) = wy_pair::<T>(m, k, seed);
            for &nc in &PIN_WIDTHS {
                let c0 = qr_panel::<T>(m, nc, seed + nc as u64);
                for trans in TRANS {
                    let mut c = c0.clone();
                    larfb_left_with_backend(name, trans, v.view(), t.view(), c.view_mut());
                    h = fnv(h, pin_bits(&c));
                }
            }
        }
    }
    h
}

fn larfb_left_multi_pin<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    let mut seed = 9500;
    for &k in &PIN_COLS {
        let configs = [
            (true, VRest::Dense, vec![k + 9]),
            (true, VRest::UpperTrapezoid, vec![k, k / 2 + 1]),
            (false, VRest::Dense, vec![k + 9, 3]),
            (false, VRest::UpperTrapezoid, vec![k, k, k.div_ceil(2)]),
        ];
        for (with_top, rest, lens) in configs {
            seed += 1;
            let rows = k + lens.iter().sum::<usize>();
            let (mut v, t) = wy_pair::<T>(rows, k, seed);
            if rest == VRest::UpperTrapezoid {
                // Each block below the top stores the zeros under its diagonal.
                let mut off = k;
                for &len in &lens {
                    for i in 0..len {
                        (0..i.min(k)).for_each(|j| v[(off + i, j)] = T::ZERO);
                    }
                    off += len;
                }
            }
            for &nc in &PIN_WIDTHS {
                let mut c = qr_panel::<T>(rows, nc, seed + nc as u64);
                for trans in TRANS {
                    let (c_top, mut below) = c.view_mut().split_at_row(k);
                    let mut c_rest = Vec::new();
                    for &len in &lens {
                        let (blk, tail) = below.split_at_row(len);
                        c_rest.push(blk);
                        below = tail;
                    }
                    let mut offs = k;
                    let v_rest: Vec<_> = lens
                        .iter()
                        .map(|&len| {
                            let blk = v.block(offs, 0, len, k);
                            offs += len;
                            blk
                        })
                        .collect();
                    let v_top = with_top.then(|| v.block(0, 0, k, k));
                    larfb_left_multi_with_backend(name, trans, v_top, &v_rest, rest, t.view(), c_top, &mut c_rest);
                    h = fnv(h, pin_bits(&c));
                }
            }
        }
    }
    h
}

fn node_qr_pin<T: Kernel>(name: &str) -> u64 {
    let mut h = FNV_BASIS;
    let mut seed = 9900;
    for &w in &PIN_COLS {
        for lens in [vec![w, w], vec![w, w / 2 + 1], vec![w, w, w, w]] {
            seed += 1;
            let gap = 3;
            let (mut row_ranges, mut at) = (Vec::new(), 1);
            for &len in &lens {
                row_ranges.push(at..at + len);
                at += len + gap;
            }
            let kk = lens.iter().sum::<usize>().min(w);
            let plan = NodePlan { level: 0, participants: (0..lens.len()).collect(), row_ranges, kk };
            let a = SharedMatrix::new(qr_panel::<T>(at, w, seed));
            let node = node_qr_with_backend(name, &a, 0, w, &plan);
            h = fnv(fnv(fnv(h, pin_bits(&a.into_inner())), pin_bits(&node.v)), pin_bits(&node.t));
        }
    }
    h
}

/// `(kernel, precision, hash of a backend's sweep)`.
type Pin = (&'static str, &'static str, fn(&str) -> u64);

#[test]
fn qr_kernels_keep_their_pinned_bits() {
    let mut checked = 0;
    for name in gemm_available_backends() {
        // Eight sweeps of a few seconds each in a debug build: side by side.
        let pins: [Pin; 8] = [
            ("geqr3", "f64", geqr3_pin::<f64>),
            ("geqr3", "f32", geqr3_pin::<f32>),
            ("larfb_left", "f64", larfb_left_pin::<f64>),
            ("larfb_left", "f32", larfb_left_pin::<f32>),
            ("larfb_left_multi", "f64", larfb_left_multi_pin::<f64>),
            ("larfb_left_multi", "f32", larfb_left_multi_pin::<f32>),
            ("node_qr", "f64", node_qr_pin::<f64>),
            ("node_qr", "f32", node_qr_pin::<f32>),
        ];
        let got: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = pins.map(|(kernel, ty, pin)| (kernel, ty, s.spawn(move || pin(name)))).into();
            runs.into_iter().map(|(kernel, ty, run)| (kernel, ty, run.join().expect("pin sweep"))).collect()
        });
        checked += check_pins(name, &got);
    }
    assert_eq!(checked, 8 * gemm_available_backends().len(), "every backend of this host is pinned");
}

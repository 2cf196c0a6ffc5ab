//! One fork-join primitive, and the packed GEMM task bodies.
//!
//! [`split_cols`] / [`split_range`] cut a column range into at most
//! `workers` chunks whose boundaries are multiples of [`SPLIT_ALIGN`]
//! columns (relative to the range's first column) and run a closure on
//! each, on `workers − 1` scoped threads plus the caller; with one chunk
//! the closure runs inline and nothing is spawned. Every column-local
//! operation the communication-avoiding drivers run outside a task graph —
//! the trailing interchanges, `U` solves and updates of the panel loops,
//! the left-looking replays out of core — forks through here, once per
//! panel.
//!
//! The split moves no bit: [`SPLIT_ALIGN`] is a multiple of every
//! backend's `NR`, so each column keeps its position inside its register
//! tile, and the kernels the split carries (`gemm`, `trsm`, the compact-WY
//! applications) compute each column of their output independently of the
//! others. [`par_gemm`] is that split over [`crate::gemm`] and is therefore
//! bitwise identical to it at every worker count; the conformance suite pins
//! all three properties.
//!
//! The task-decomposition form of the same loops — pack-A once per slab,
//! pack-B once per panel, one tile task per `(slab, panel)` — lives only in
//! the CALU sub-DAG, whose task bodies are the `packed_*` /
//! [`gemm_packed`] helpers below.

use crate::gemm::{gemm, macro_kernel, op_shape, release_pack_bufs, scale, Kernel, Trans, KC};
use crate::pack::{pack_a, pack_b};
use ca_matrix::{AlignedBuf, MatView, MatViewMut, Scalar};
use core::ops::Range;

/// Chunk boundaries of a column split are multiples of this many columns.
pub const SPLIT_ALIGN: usize = 16;

/// The chunks a split of `cols` over `workers` lanes runs: at most
/// `workers` (at least one) consecutive ranges covering `cols`, each
/// starting a multiple of [`SPLIT_ALIGN`] columns after `cols.start`, as
/// even as that allows. Empty for an empty range.
fn column_chunks(cols: Range<usize>, workers: usize) -> Vec<Range<usize>> {
    let blocks = cols.len().div_ceil(SPLIT_ALIGN);
    let parts = workers.clamp(1, blocks.max(1));
    let edge = |i: usize| cols.start + (i * blocks / parts * SPLIT_ALIGN).min(cols.len());
    (0..parts).map(|i| edge(i)..edge(i + 1)).filter(|r| !r.is_empty()).collect()
}

/// Runs `f` on every item, the first on the calling thread and each other
/// on a scoped thread of its own, and joins them before returning. A
/// spawned thread hands its packing buffers on before it ends.
fn fork<I: Send>(items: Vec<I>, f: impl Fn(I) + Sync) {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return };
    if items.len() == 0 {
        return f(first);
    }
    let f = &f;
    std::thread::scope(|s| {
        for item in items {
            s.spawn(move || {
                f(item);
                release_pack_bufs();
            });
        }
        f(first);
    });
}

/// Cuts `cols` into at most `workers` chunks whose boundaries lie a
/// multiple of [`SPLIT_ALIGN`] columns after `cols.start`, as even as that
/// allows, and runs `f` on each chunk's range: on `workers − 1` scoped
/// threads plus the caller, inline when there is one chunk, not at all
/// when `cols` is empty. For callers that address their columns through
/// a shared handle (a `SharedMatrix` block per chunk).
pub fn split_range(workers: usize, cols: Range<usize>, f: impl Fn(Range<usize>) + Sync) {
    fork(column_chunks(cols, workers), f);
}

/// [`split_range`] over the columns of `c`: runs `f(cols, chunk)` on each
/// chunk, where `cols` is the chunk's column range within `c`.
pub fn split_cols<T: Scalar>(
    workers: usize,
    mut c: MatViewMut<'_, T>,
    f: impl Fn(Range<usize>, MatViewMut<'_, T>) + Sync,
) {
    let chunks = column_chunks(0..c.ncols(), workers);
    let mut views = Vec::with_capacity(chunks.len());
    for cols in chunks {
        let (chunk, rest) = c.split_at_col(cols.len());
        views.push((cols, chunk));
        c = rest;
    }
    fork(views, |(cols, chunk)| f(cols, chunk));
}

/// `C := alpha * op(A) * op(B) + beta * C` on `workers` threads: a
/// [`split_cols`] of `C` over [`crate::gemm`], so bitwise identical to it
/// at every worker count (see the module docs).
///
/// # Panics
/// If the shapes of `op(A)`, `op(B)` and `C` are inconsistent.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub fn par_gemm<T: Kernel>(
    workers: usize,
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    let (m, ka) = op_shape(ta, a);
    let (kb, n) = op_shape(tb, b);
    assert_eq!(ka, kb, "par_gemm inner dimension mismatch: op(A) is {m}x{ka}, op(B) is {kb}x{n}");
    assert_eq!(c.nrows(), m, "par_gemm C row mismatch");
    assert_eq!(c.ncols(), n, "par_gemm C column mismatch");
    split_cols(workers, c, |cols, c| {
        let b = match tb {
            Trans::No => b.sub(0, cols.start, kb, cols.len()),
            Trans::Yes => b.sub(cols.start, 0, cols.len(), kb),
        };
        gemm(ta, tb, alpha, a, b, beta, c);
    });
}

/// Packed-A image size (elements) for an `mb`-row slab over the full `k`
/// depth, in `T`'s dispatched geometry. What a scheduler task should size
/// its [`AlignedBuf`] to before [`pack_a_slab`].
pub fn packed_a_len<T: Kernel>(mb: usize, k: usize) -> usize {
    mb.next_multiple_of(T::spec().mr) * k
}

/// Packed-B image size (elements) for an `nb`-column panel over the full
/// `k` depth (see [`packed_a_len`]).
pub fn packed_b_len<T: Kernel>(nb: usize, k: usize) -> usize {
    k * nb.next_multiple_of(T::spec().nr)
}

/// Packs the full-depth `mb × k` slab of `op(A)` starting at row `ic` into
/// `buf`, one `KC` chunk at a time (chunk `pc` at element offset
/// `mb_pad · pc`), in `T`'s dispatched geometry.
///
/// A scheduler **pack task**: runs once per slab per trailing update, after
/// which any number of [`gemm_packed`] tile tasks may read the image
/// concurrently.
pub fn pack_a_slab<T: Kernel>(
    ta: Trans,
    a: MatView<'_, T>,
    ic: usize,
    mb: usize,
    buf: &mut AlignedBuf<T>,
) {
    let spec = T::spec();
    let (_, k) = op_shape(ta, a);
    let mb_pad = mb.next_multiple_of(spec.mr);
    let dst = buf.scratch(mb_pad * k);
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        pack_a(ta.into(), a, ic, mb, pc, kcb, &mut dst[mb_pad * pc..mb_pad * (pc + kcb)], spec.mr);
        pc += kcb;
    }
}

/// Packs the full-depth `k × nb` panel of `op(B)` starting at column `jc`
/// into `buf`, one `KC` chunk at a time (chunk `pc` at element offset
/// `nb_pad · pc`). Counterpart of [`pack_a_slab`].
pub fn pack_b_panel<T: Kernel>(
    tb: Trans,
    b: MatView<'_, T>,
    jc: usize,
    nb: usize,
    buf: &mut AlignedBuf<T>,
) {
    let spec = T::spec();
    let (k, _) = op_shape(tb, b);
    let nb_pad = nb.next_multiple_of(spec.nr);
    let dst = buf.scratch(nb_pad * k);
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        pack_b(tb.into(), b, pc, kcb, jc, nb, &mut dst[nb_pad * pc..nb_pad * (pc + kcb)], spec.nr);
        pc += kcb;
    }
}

/// `C := alpha * Apack · Bpack + beta * C` over pre-packed full-depth
/// images from [`pack_a_slab`] / [`pack_b_panel`] (`C` is `mb × nb`, the
/// contraction depth is `k`).
///
/// A scheduler **tile task**: bitwise identical to the corresponding C
/// block of serial [`crate::gemm`], because it replays the same
/// `pc`-ascending `macro_kernel` sequence on the same packed images.
pub fn gemm_packed<T: Kernel>(
    alpha: T,
    apack: &AlignedBuf<T>,
    bpack: &AlignedBuf<T>,
    k: usize,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let spec = T::spec();
    let (mb, nb) = (c.nrows(), c.ncols());
    if mb == 0 || nb == 0 {
        return;
    }
    scale(beta, c.rb());
    if alpha == T::ZERO || k == 0 {
        return;
    }
    let mb_pad = mb.next_multiple_of(spec.mr);
    let nb_pad = nb.next_multiple_of(spec.nr);
    assert!(apack.len() >= mb_pad * k, "gemm_packed: A image too small");
    assert!(bpack.len() >= nb_pad * k, "gemm_packed: B image too small");
    let ldc = c.ld();
    let cbase = c.as_mut_ptr();
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        // SAFETY: the chunk sub-slices hold the packed mb×kcb / kcb×nb
        // images in `spec`'s layout (offsets are whole chunks, so panel
        // starts keep the aligned-buffer SIMD alignment); C is mb × nb with
        // leading dimension ldc, owned mutably here.
        unsafe {
            macro_kernel(
                spec,
                mb,
                nb,
                kcb,
                alpha,
                &apack[mb_pad * pc..mb_pad * (pc + kcb)],
                &bpack[nb_pad * pc..nb_pad * (pc + kcb)],
                cbase,
                ldc,
            );
        }
        pc += kcb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{MC, NC};
    use ca_matrix::Matrix;

    fn case(m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
        let mut rng = ca_matrix::seeded_rng(m as u64 * 1000 + n as u64 * 10 + k as u64);
        (
            ca_matrix::random_uniform(m, k, &mut rng),
            ca_matrix::random_uniform(k, n, &mut rng),
            ca_matrix::random_uniform(m, n, &mut rng),
        )
    }

    #[test]
    fn par_gemm_is_bitwise_identical_to_serial() {
        // Sizes straddling slab (MC) and panel (NC) boundaries and multiple
        // KC chunks.
        for &(m, n, k) in
            &[(7, 5, 9), (MC + 3, 33, KC + 17), (2 * MC + 1, NC + 5, 2 * KC + 3), (MC, NC, KC)]
        {
            let (a, b, c0) = case(m, n, k);
            let mut serial = c0.clone();
            gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.5, serial.view_mut());
            for workers in [1, 2, 4] {
                let mut par = c0.clone();
                par_gemm(
                    workers,
                    Trans::No,
                    Trans::No,
                    1.0,
                    a.view(),
                    b.view(),
                    -0.5,
                    par.view_mut(),
                );
                assert_eq!(
                    par.as_slice(),
                    serial.as_slice(),
                    "par_gemm({workers}) diverged from serial at {m}x{n}x{k}"
                );
            }
        }
    }

    #[test]
    fn chunks_are_aligned_and_cover_every_column_once() {
        assert_eq!(column_chunks(0..48, 3), vec![0..16, 16..32, 32..48]);
        assert_eq!(column_chunks(5..88, 2), vec![5..53, 53..88]);
        assert_eq!(column_chunks(0..13, 4), vec![0..13]);
        assert_eq!(column_chunks(0..40, 0), vec![0..40]);
        assert!(column_chunks(7..7, 4).is_empty());
        for (n, workers) in [(1, 1), (83, 2), (83, 4), (100, 3), (1000, 7)] {
            let chunks = column_chunks(3..3 + n, workers);
            assert!(chunks.len() <= workers.max(1));
            assert_eq!(chunks.first().map(|r| r.start), Some(3));
            assert_eq!(chunks.last().map(|r| r.end), Some(3 + n));
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!((pair[1].start - 3) % SPLIT_ALIGN, 0, "{n} over {workers}: {chunks:?}");
            }
        }
    }

    #[test]
    fn one_chunk_stays_on_the_caller_and_every_column_is_visited_once() {
        let caller = std::thread::current().id();
        for (workers, n) in [(1, 100), (4, 16)] {
            let mut c: Matrix = Matrix::zeros(3, n);
            split_cols(workers, c.view_mut(), |_, _| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "{workers} workers over {n} columns spawned"
                );
            });
        }
        let mut c: Matrix = Matrix::zeros(3, 83);
        split_cols(4, c.view_mut(), |cols, mut chunk| {
            assert_eq!(chunk.ncols(), cols.len());
            for (j, col) in cols.enumerate() {
                chunk.col_mut(j).iter_mut().for_each(|x| *x += col as f64 + 1.0);
            }
        });
        assert_eq!(c, Matrix::from_fn(3, 83, |_, j| j as f64 + 1.0));
    }

    #[test]
    fn par_gemm_handles_transposes() {
        let (m, n, k) = (MC + 9, 41, 65);
        let mut rng = ca_matrix::seeded_rng(5);
        let at = ca_matrix::random_uniform(k, m, &mut rng);
        let bt = ca_matrix::random_uniform(n, k, &mut rng);
        let c0 = ca_matrix::random_uniform(m, n, &mut rng);
        let mut serial = c0.clone();
        gemm(Trans::Yes, Trans::Yes, 2.0, at.view(), bt.view(), 1.0, serial.view_mut());
        let mut par = c0.clone();
        par_gemm(3, Trans::Yes, Trans::Yes, 2.0, at.view(), bt.view(), 1.0, par.view_mut());
        assert_eq!(par.as_slice(), serial.as_slice());
    }

    #[test]
    fn par_gemm_degenerate_shapes() {
        // Empty output: no-op.
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(0, 2);
        par_gemm(4, Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view_mut());
        // k == 0: pure beta scaling.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        par_gemm(4, Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.5, c.view_mut());
        assert_eq!(c, Matrix::from_rows(2, 2, &[0.5, 1.0, 1.5, 2.0]));
    }

    #[test]
    fn packed_tile_path_matches_serial_gemm_block() {
        // pack_a_slab + pack_b_panel + gemm_packed (the DAG task bodies)
        // reproduce the serial result bitwise on each (slab, panel) tile.
        let (m, n, k) = (MC + 21, 2 * NC.min(96) + 13, KC + 31);
        let (a, b, c0) = case(m, n, k);
        let mut serial = c0.clone();
        gemm(Trans::No, Trans::No, -1.0, a.view(), b.view(), 1.0, serial.view_mut());

        let mut tiled = c0.clone();
        let mut ic = 0;
        while ic < m {
            let mb = MC.min(m - ic);
            let mut apack = AlignedBuf::new();
            pack_a_slab(Trans::No, a.view(), ic, mb, &mut apack);
            assert!(apack.len() >= packed_a_len::<f64>(mb, k));
            let mut jc = 0;
            while jc < n {
                let nb = NC.min(n - jc);
                let mut bpack = AlignedBuf::new();
                pack_b_panel(Trans::No, b.view(), jc, nb, &mut bpack);
                assert!(bpack.len() >= packed_b_len::<f64>(nb, k));
                gemm_packed(-1.0, &apack, &bpack, k, 1.0, tiled.block_mut(ic, jc, mb, nb));
                jc += nb;
            }
            ic += mb;
        }
        assert_eq!(tiled.as_slice(), serial.as_slice());
    }

    #[test]
    fn packed_path_works_in_f32() {
        let (m, n, k) = (77, 45, 90);
        let mut rng = ca_matrix::seeded_rng(11);
        let a: Matrix<f32> = Matrix::from_f64(&ca_matrix::random_uniform(m, k, &mut rng));
        let b: Matrix<f32> = Matrix::from_f64(&ca_matrix::random_uniform(k, n, &mut rng));
        let c0: Matrix<f32> = Matrix::from_f64(&ca_matrix::random_uniform(m, n, &mut rng));

        let mut serial = c0.clone();
        gemm(Trans::No, Trans::No, 1.0f32, a.view(), b.view(), 1.0f32, serial.view_mut());

        let mut par = c0.clone();
        par_gemm(2, Trans::No, Trans::No, 1.0f32, a.view(), b.view(), 1.0f32, par.view_mut());
        assert_eq!(par.as_slice(), serial.as_slice());

        let mut apack = AlignedBuf::new();
        pack_a_slab(Trans::No, a.view(), 0, m, &mut apack);
        let mut bpack = AlignedBuf::new();
        pack_b_panel(Trans::No, b.view(), 0, n, &mut bpack);
        let mut packed = c0.clone();
        gemm_packed(1.0f32, &apack, &bpack, k, 1.0f32, packed.view_mut());
        assert_eq!(packed.as_slice(), serial.as_slice());
    }
}

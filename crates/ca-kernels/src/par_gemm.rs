//! Scheduler-parallel GEMM: the BLIS cache loops as a task decomposition.
//!
//! [`par_gemm`] splits the same `jc`/`pc`/`ic` loop nest as the serial
//! [`crate::gemm`] into units a worker pool can execute:
//!
//! * the trailing matrix is tiled into `MC`-row **slabs** × `NC`-column
//!   **panels** — each (slab, panel) pair is one C tile owned by exactly one
//!   task;
//! * for each `KC`-deep `pc` chunk, a **pack phase** fills one packed-A
//!   image per slab and one packed-B image per panel (each packed exactly
//!   once per chunk, shared by every tile task that reads it), then a
//!   **compute phase** runs [`crate::gemm::macro_kernel`] on every tile.
//!
//! The `pc` chunks run in order with a barrier between phases, so each C
//! element sees `scale(beta)` followed by `pc`-ascending accumulation — the
//! exact per-element operation sequence of the serial driver, on identically
//! packed panels, through the same microkernel. Results are therefore
//! **bitwise identical** to serial [`crate::gemm`] at every worker count;
//! the differential conformance suite pins this down. Pack memory is
//! bounded by one `KC` stripe of each operand
//! (`m_pad·KC + KC·n_pad` elements), matching the serial path's locality.
//!
//! Tasks are claimed off an atomic counter (no per-task allocation, no
//! ordering sensitivity), which is the in-crate analogue of how `ca-sched`
//! consumes the same decomposition: the `packed_*`/[`gemm_packed`] helpers
//! below are the building blocks `ca-core`'s DAG builders use to express
//! pack→tile dependencies as explicit graph edges with rect footprints.

use crate::gemm::{macro_kernel, op_shape, scale, Kernel, Trans, KC, MC, NC};
use crate::pack::{pack_a, pack_b, PackTrans};
use ca_matrix::{AlignedBuf, MatView, MatViewMut, Scalar};
use core::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pack-image slots written by at most one task each (claim via atomic
/// counter), then read shared in the compute phase; the inter-phase scope
/// barrier separates the writes from the reads.
struct Slots<T: Scalar>(Vec<UnsafeCell<AlignedBuf<T>>>);

// SAFETY: slot access is phased — each slot is written by exactly one pack
// task (tasks claim distinct indices off an atomic counter), and only read
// after the pack scope joins. No slot is ever aliased mutably.
unsafe impl<T: Scalar> Sync for Slots<T> {}

impl<T: Scalar> Slots<T> {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| UnsafeCell::new(AlignedBuf::new())).collect())
    }

    /// Raw slot pointer. A method, so closures capture the `Sync` wrapper
    /// rather than its non-`Sync` field.
    fn slot(&self, i: usize) -> *mut AlignedBuf<T> {
        self.0[i].get()
    }
}

/// A raw C-matrix base pointer that may cross thread boundaries; tile tasks
/// derive disjoint block windows from it.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: tile tasks write disjoint (slab, panel) blocks of C — distinct
// tile indices off the atomic counter — so no element is aliased.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The pointer. A method, so closures capture the `Sync` wrapper rather
    /// than its raw field.
    fn get(self) -> *mut T {
        self.0
    }
}

/// One phase of [`par_gemm`]: tasks `0..total` claimed off a shared counter
/// by `workers` lanes — `workers − 1` scoped threads plus the caller, so one
/// worker spawns nothing — and joined before returning.
fn run_lanes(workers: usize, total: usize, task: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    let lane = || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        if t >= total {
            break;
        }
        task(t);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(total) {
            s.spawn(lane);
        }
        lane();
    });
}

/// `C := alpha * op(A) * op(B) + beta * C`, decomposed over `workers`
/// threads (`workers <= 1` still runs the task decomposition, on the
/// calling thread).
///
/// Bitwise identical to the serial [`crate::gemm`] at every worker count —
/// see the module docs for why.
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
    mut c: MatViewMut<'_, T>,
) {
    let spec = T::spec();
    let (m, ka) = op_shape(ta, a);
    let (kb, n) = op_shape(tb, b);
    assert_eq!(ka, kb, "par_gemm inner dimension mismatch: op(A) is {m}x{ka}, op(B) is {kb}x{n}");
    assert_eq!(c.nrows(), m, "par_gemm C row mismatch");
    assert_eq!(c.ncols(), n, "par_gemm C column mismatch");
    let k = ka;

    if m == 0 || n == 0 {
        return;
    }
    if alpha == T::ZERO || k == 0 {
        scale(beta, c.rb());
        return;
    }

    let tap: PackTrans = ta.into();
    let tbp: PackTrans = tb.into();
    let (mr, nr) = (spec.mr, spec.nr);
    let nslabs = m.div_ceil(MC);
    let npanels = n.div_ceil(NC);
    let a_slots = Slots::<T>::new(nslabs);
    let b_slots = Slots::<T>::new(npanels);
    let ldc = c.ld();
    let cbase = SendPtr(c.as_mut_ptr());

    let mut pc = 0;
    let mut first = true;
    while pc < k {
        let kcb = KC.min(k - pc);

        // Pack phase: one task per slab / panel image of this pc chunk.
        run_lanes(workers, nslabs + npanels, |t| {
            if t < nslabs {
                let ic = t * MC;
                let mb = MC.min(m - ic);
                // SAFETY: this task is the sole claimant of slot t (distinct
                // counter values) within this phase.
                let buf = unsafe { &mut *a_slots.slot(t) };
                let dst = buf.scratch(mb.next_multiple_of(mr) * kcb);
                pack_a(tap, a, ic, mb, pc, kcb, dst, mr);
            } else {
                let pj = t - nslabs;
                let jc = pj * NC;
                let nb = NC.min(n - jc);
                // SAFETY: sole claimant of slot pj, as above.
                let buf = unsafe { &mut *b_slots.slot(pj) };
                let dst = buf.scratch(kcb * nb.next_multiple_of(nr));
                pack_b(tbp, b, pc, kcb, jc, nb, dst, nr);
            }
        });

        // Compute phase: one task per (slab, panel) C tile.
        run_lanes(workers, nslabs * npanels, |t| {
            let si = t % nslabs;
            let pj = t / nslabs;
            let ic = si * MC;
            let mb = MC.min(m - ic);
            let jc = pj * NC;
            let nb = NC.min(n - jc);
            // SAFETY: the pack phase joined before this one started, so the
            // slots are fully written and only read now.
            let apack: &[T] = unsafe { &*a_slots.slot(si) };
            let bpack: &[T] = unsafe { &*b_slots.slot(pj) };
            // SAFETY: tile (si, pj) is claimed by this task alone; its
            // (ic, jc)+(mb × nb) window of C is disjoint from every other
            // tile and in bounds by construction.
            unsafe {
                let cp = cbase.get().add(ic + jc * ldc);
                if first {
                    // Fold the one-time beta scaling into the first chunk's
                    // tile pass (same per-element order as the serial
                    // driver: scale, then accumulate).
                    scale(beta, MatViewMut::from_raw_parts(cp, mb, nb, ldc));
                }
                macro_kernel(spec, mb, nb, kcb, alpha, apack, bpack, cp, ldc);
            }
        });

        first = false;
        pc += kcb;
    }
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
pub fn pack_a_slab<T: Kernel>(ta: Trans, a: MatView<'_, T>, ic: usize, mb: usize, buf: &mut AlignedBuf<T>) {
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
pub fn pack_b_panel<T: Kernel>(tb: Trans, b: MatView<'_, T>, jc: usize, nb: usize, buf: &mut AlignedBuf<T>) {
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
    use crate::gemm;
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
        for &(m, n, k) in &[
            (7, 5, 9),
            (MC + 3, 33, KC + 17),
            (2 * MC + 1, NC + 5, 2 * KC + 3),
            (MC, NC, KC),
        ] {
            let (a, b, c0) = case(m, n, k);
            let mut serial = c0.clone();
            gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.5, serial.view_mut());
            for workers in [1, 2, 4] {
                let mut par = c0.clone();
                par_gemm(workers, Trans::No, Trans::No, 1.0, a.view(), b.view(), -0.5, par.view_mut());
                assert_eq!(
                    par.as_slice(),
                    serial.as_slice(),
                    "par_gemm({workers}) diverged from serial at {m}x{n}x{k}"
                );
            }
        }
    }

    #[test]
    fn lanes_cover_every_task_once_and_one_worker_stays_on_the_caller() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let seen = AtomicUsize::new(0);
            run_lanes(workers, 7, |t| {
                assert_eq!(std::thread::current().id(), caller, "workers={workers} spawned");
                seen.fetch_add(1 << t, Ordering::Relaxed);
            });
            assert_eq!(seen.into_inner(), (1 << 7) - 1);
        }
        let seen = AtomicUsize::new(0);
        run_lanes(4, 9, |t| {
            seen.fetch_add(1 << t, Ordering::Relaxed);
        });
        assert_eq!(seen.into_inner(), (1 << 9) - 1);
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

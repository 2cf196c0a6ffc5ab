//! Register-blocked GEMM microkernels for both element types.
//!
//! Every kernel computes the same contraction over zero-padded packed panels:
//!
//! ```text
//! C[0..mr, 0..nr] += alpha * sum_p  a[p*mr + i] * b[p*nr + j]
//! ```
//!
//! where `a` is an `mr × kc` micro-panel of packed A (column `p` stored as
//! `mr` contiguous elements) and `b` is a `kc × nr` micro-panel of packed B
//! (row `p` stored as `nr` contiguous elements). `C` is addressed through
//! `(c, ldc)` in the usual column-major way. The `(mr, nr)` geometry is a
//! property of each kernel and travels with it in a
//! [`crate::gemm::KernelSpec`]:
//!
//! | kernel | type | tile | registers |
//! |---|---|---|---|
//! | `kernel_scalar_f64` | f64 | 8×4 | stack array |
//! | `kernel_scalar_f32` | f32 | 8×8 | stack array |
//! | `kernel_avx2_f64` | f64 | 8×4 | 8 `ymm` accumulators |
//! | `kernel_avx2_f32` | f32 | 8×8 | 8 `ymm` accumulators |
//! | `kernel_avx512_f64` | f64 | 16×4 | 8 `zmm` accumulators |
//! | `kernel_avx512_f32` | f32 | 16×8 | 8 `zmm` accumulators |
//!
//! The SIMD kernels keep the full accumulator tile in registers, issue one
//! FMA per packed B element per accumulator, and store with
//! `c += alpha*acc` as a separate multiply and add — matching the scalar
//! kernels' store step so full tiles and stack-buffered edge tiles round
//! identically *within* a backend. Backends differ bitwise from each other
//! (FMA contracts the multiply-add) but all stay within the `O(k·eps)`
//! conformance bound of a naive triple loop.

/// f64 portable/AVX2 tile height (rows of C per call).
pub const MR: usize = 8;
/// f64 portable/AVX2 tile width (columns of C per call).
pub const NR: usize = 4;
/// f32 portable/AVX2 tile height.
pub const MR_F32: usize = 8;
/// f32 portable/AVX2 tile width.
pub const NR_F32: usize = 8;
/// AVX-512 tile height (both types).
pub const MR_512: usize = 16;
/// f64 AVX-512 tile width.
pub const NR_512_F64: usize = 4;
/// f32 AVX-512 tile width.
pub const NR_512_F32: usize = 8;

macro_rules! scalar_kernel {
    ($name:ident, $t:ty, $mr:expr, $nr:expr, $doc:literal) => {
        #[doc = $doc]
        ///
        /// # Safety
        /// `a` must hold `mr * kc` elements, `b` must hold `nr * kc`
        /// elements, and `c` must point to an `mr × nr` column-major tile
        /// with leading dimension `ldc >= mr` valid for reads and writes.
        pub unsafe fn $name(
            kc: usize,
            alpha: $t,
            a: *const $t,
            b: *const $t,
            c: *mut $t,
            ldc: usize,
        ) {
            const MR_: usize = $mr;
            const NR_: usize = $nr;
            let mut acc = [0.0 as $t; MR_ * NR_];
            // SAFETY: panel bounds per the caller's contract.
            unsafe {
                for p in 0..kc {
                    let ap = a.add(p * MR_);
                    let bp = b.add(p * NR_);
                    for j in 0..NR_ {
                        let bv = *bp.add(j);
                        for i in 0..MR_ {
                            acc[j * MR_ + i] += *ap.add(i) * bv;
                        }
                    }
                }
                for j in 0..NR_ {
                    for i in 0..MR_ {
                        *c.add(i + j * ldc) += alpha * acc[j * MR_ + i];
                    }
                }
            }
        }
    };
}

scalar_kernel!(kernel_scalar_f64, f64, MR, NR, "Portable scalar f64 microkernel (8×4 tile).");
scalar_kernel!(
    kernel_scalar_f32,
    f32,
    MR_F32,
    NR_F32,
    "Portable scalar f32 microkernel (8×8 tile)."
);

/// AVX2 + FMA f64 microkernel (8×4 register tile).
///
/// # Safety
/// Same panel/tile requirements as [`kernel_scalar_f64`], plus the CPU must
/// support AVX2 and FMA (guaranteed by the runtime dispatch in `gemm`) and
/// `a` must be 32-byte aligned (packed panels in an aligned buffer).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn kernel_avx2_f64(
    kc: usize,
    alpha: f64,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: panel bounds per the caller's contract; loads/stores below
    // stay inside the packed panels and the MR×NR C tile.
    unsafe {
        // Accumulators: columns j = 0..4, each split into rows 0..4 / 4..8.
        let mut c0l = _mm256_setzero_pd();
        let mut c0h = _mm256_setzero_pd();
        let mut c1l = _mm256_setzero_pd();
        let mut c1h = _mm256_setzero_pd();
        let mut c2l = _mm256_setzero_pd();
        let mut c2h = _mm256_setzero_pd();
        let mut c3l = _mm256_setzero_pd();
        let mut c3h = _mm256_setzero_pd();

        for p in 0..kc {
            let ap = a.add(p * MR);
            let al = _mm256_load_pd(ap);
            let ah = _mm256_load_pd(ap.add(4));
            let bp = b.add(p * NR);

            let b0 = _mm256_broadcast_sd(&*bp);
            c0l = _mm256_fmadd_pd(al, b0, c0l);
            c0h = _mm256_fmadd_pd(ah, b0, c0h);
            let b1 = _mm256_broadcast_sd(&*bp.add(1));
            c1l = _mm256_fmadd_pd(al, b1, c1l);
            c1h = _mm256_fmadd_pd(ah, b1, c1h);
            let b2 = _mm256_broadcast_sd(&*bp.add(2));
            c2l = _mm256_fmadd_pd(al, b2, c2l);
            c2h = _mm256_fmadd_pd(ah, b2, c2h);
            let b3 = _mm256_broadcast_sd(&*bp.add(3));
            c3l = _mm256_fmadd_pd(al, b3, c3l);
            c3h = _mm256_fmadd_pd(ah, b3, c3h);
        }

        // C tile update: c += alpha * acc (mul then add, matching the scalar
        // kernel's store step so full tiles and edge tiles round alike).
        let av = _mm256_set1_pd(alpha);
        let cols = [(c0l, c0h), (c1l, c1h), (c2l, c2h), (c3l, c3h)];
        for (j, (lo, hi)) in cols.into_iter().enumerate() {
            let cp = c.add(j * ldc);
            _mm256_storeu_pd(cp, _mm256_add_pd(_mm256_loadu_pd(cp), _mm256_mul_pd(av, lo)));
            let cp4 = cp.add(4);
            _mm256_storeu_pd(cp4, _mm256_add_pd(_mm256_loadu_pd(cp4), _mm256_mul_pd(av, hi)));
        }
    }
}

/// AVX2 + FMA f32 microkernel (8×8 register tile: one `ymm` of 8 floats per
/// C column).
///
/// # Safety
/// Same panel/tile requirements as [`kernel_scalar_f32`], plus the CPU must
/// support AVX2 and FMA, and `a` must be 32-byte aligned.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn kernel_avx2_f32(
    kc: usize,
    alpha: f32,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: panel bounds per the caller's contract.
    unsafe {
        let mut acc = [_mm256_setzero_ps(); NR_F32];
        for p in 0..kc {
            let av = _mm256_load_ps(a.add(p * MR_F32));
            let bp = b.add(p * NR_F32);
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm256_broadcast_ss(&*bp.add(j));
                *accj = _mm256_fmadd_ps(av, bj, *accj);
            }
        }
        let av = _mm256_set1_ps(alpha);
        for (j, accj) in acc.into_iter().enumerate() {
            let cp = c.add(j * ldc);
            _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), _mm256_mul_ps(av, accj)));
        }
    }
}

/// AVX-512F f64 microkernel (16×4 register tile: two `zmm` of 8 doubles per
/// C column).
///
/// # Safety
/// `a` must hold `16 * kc` elements (64-byte aligned), `b` must hold
/// `4 * kc` elements, `c` must point to a 16×4 column-major tile with
/// `ldc >= 16` valid for reads and writes, and the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn kernel_avx512_f64(
    kc: usize,
    alpha: f64,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: panel bounds per the caller's contract.
    unsafe {
        let mut acc = [[_mm512_setzero_pd(); 2]; NR_512_F64];
        for p in 0..kc {
            let ap = a.add(p * MR_512);
            let al = _mm512_load_pd(ap);
            let ah = _mm512_load_pd(ap.add(8));
            let bp = b.add(p * NR_512_F64);
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm512_set1_pd(*bp.add(j));
                accj[0] = _mm512_fmadd_pd(al, bj, accj[0]);
                accj[1] = _mm512_fmadd_pd(ah, bj, accj[1]);
            }
        }
        let av = _mm512_set1_pd(alpha);
        for (j, [lo, hi]) in acc.into_iter().enumerate() {
            let cp = c.add(j * ldc);
            _mm512_storeu_pd(cp, _mm512_add_pd(_mm512_loadu_pd(cp), _mm512_mul_pd(av, lo)));
            let cp8 = cp.add(8);
            _mm512_storeu_pd(cp8, _mm512_add_pd(_mm512_loadu_pd(cp8), _mm512_mul_pd(av, hi)));
        }
    }
}

/// AVX-512F f32 microkernel (16×8 register tile: one `zmm` of 16 floats per
/// C column).
///
/// # Safety
/// `a` must hold `16 * kc` elements (64-byte aligned), `b` must hold
/// `8 * kc` elements, `c` must point to a 16×8 column-major tile with
/// `ldc >= 16` valid for reads and writes, and the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn kernel_avx512_f32(
    kc: usize,
    alpha: f32,
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: panel bounds per the caller's contract.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); NR_512_F32];
        for p in 0..kc {
            let av = _mm512_load_ps(a.add(p * MR_512));
            let bp = b.add(p * NR_512_F32);
            for (j, accj) in acc.iter_mut().enumerate() {
                let bj = _mm512_set1_ps(*bp.add(j));
                *accj = _mm512_fmadd_ps(av, bj, *accj);
            }
        }
        let av = _mm512_set1_ps(alpha);
        for (j, accj) in acc.into_iter().enumerate() {
            let cp = c.add(j * ldc);
            _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), _mm512_mul_ps(av, accj)));
        }
    }
}

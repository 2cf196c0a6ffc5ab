//! General matrix-matrix multiply (`dgemm`/`sgemm` equivalent).
//!
//! `gemm` computes `C := alpha * op(A) * op(B) + beta * C` for column-major
//! views, as a BLIS-style three-loop blocked algorithm around a
//! register-blocked `mr × nr` microkernel (Van Zee & van de Geijn, "BLIS: A
//! Framework for Rapidly Instantiating BLAS Functionality"):
//!
//! * the `jc`/`pc`/`ic` cache loops carve `op(B)` into `KC × NC` panels and
//!   `op(A)` into `MC × KC` blocks, packed into aligned micro-tiled scratch
//!   ([`ca_matrix::AlignedBuf`], reused per thread and per element type; a
//!   thread that lives for one column split hands its pair on through a
//!   pool);
//! * both `Trans` flags are folded into the pack routines ([`crate::pack`]),
//!   so transposed operands — compact-WY applications in TSQR, `dtrsm`
//!   updates — run the same packed hot path as the trailing update;
//! * the `jr`/`ir` register loops ([`macro_kernel`]) drive the microkernel
//!   selected once per process by [`Kernel::spec`]: AVX-512F (16-row tiles),
//!   AVX2+FMA, or a portable scalar kernel — per element type, checked via
//!   `is_x86_feature_detected!`, overridable with `CA_KERNELS_BACKEND`;
//! * `m % mr` / `n % nr` remainders run the same full-size microkernel on
//!   zero-padded panels and land in C through a stack tile;
//! * small operands skip packing where the backend's bounds table
//!   ([`Bounds`], DESIGN.md §10 "Small shapes") admits them: [`small_body`]
//!   runs the microkernel's arithmetic on the operands in place, so it
//!   gives the packed path's bits.
//!
//! The whole surface is generic over the sealed [`Scalar`] trait through
//! [`Kernel`] (implemented for `f32` and `f64`), with `f64` defaults so all
//! pre-existing call sites compile unchanged. The scheduler's task
//! decomposition of the same loops ([`crate::gemm_packed`] and the pack
//! helpers beside it) shares [`macro_kernel`], which is what makes its
//! results bitwise-identical to this serial path; [`crate::par_gemm`] is a
//! column split over this driver.

use crate::lu_recursive::base as lu_base;
use crate::microkernel as mk;
use crate::pack::{pack_a, pack_b, PackTrans};
use crate::qr_recursive::{base as qr_base, short as qr_short, short_buffer_rows};
use crate::small::{Block, Bounds};
use crate::trsm::base as trsm_base;
use ca_matrix::{AlignedBuf, MatView, MatViewMut, Scalar};
use core::cell::RefCell;
use std::sync::{Mutex, OnceLock, PoisonError};

/// f64 portable-tile height: C rows per microkernel call on the
/// scalar/AVX2 f64 path (the AVX-512 and f32 geometries differ — see
/// [`KernelSpec`]).
pub const MR: usize = mk::MR;
/// f64 portable-tile width (see [`MR`]).
pub const NR: usize = mk::NR;

/// Cache-block sizes for the packed path, tuned against the profiler's
/// per-kernel-class roofline attribution (see DESIGN.md §10): the packed A
/// block (`MC × KC` = 256 KiB at f64) fills most of a 512 KiB-class L2
/// while leaving room for the streaming B micro-panel; `KC` keeps one
/// micro-panel resident in L1 across the register loops; `NC` bounds the
/// packed B panel (`KC × NC` = 2 MiB at f64) to a per-core L3 share. The
/// same element counts are used for f32 (half the bytes: comfortably
/// cache-resident).
pub const MC: usize = 128;
/// `k`-dimension cache-block depth (see [`MC`]).
pub const KC: usize = 256;
/// `n`-dimension cache-block width (see [`MC`]).
pub const NC: usize = 1024;

/// Upper bound on `mr * nr` over every kernel geometry — sizes the stack
/// tile edge updates land in.
pub(crate) const MAX_TILE: usize = 128;

/// Whether an operand is used as stored or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl From<Trans> for PackTrans {
    fn from(t: Trans) -> Self {
        match t {
            Trans::No => PackTrans::No,
            Trans::Yes => PackTrans::Yes,
        }
    }
}

/// Microkernel backend, selected once per process (see [`gemm_backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar microkernel.
    Scalar,
    /// AVX2 + FMA (x86-64).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F (x86-64), 16-row tiles.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn backend_label(b: Backend) -> &'static str {
    match b {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2-fma",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => "avx512f",
    }
}

fn backend_supported(b: Backend) -> bool {
    match b {
        Backend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
    }
}

const ALL_BACKENDS: &[Backend] = &[
    #[cfg(target_arch = "x86_64")]
    Backend::Avx512,
    #[cfg(target_arch = "x86_64")]
    Backend::Avx2,
    Backend::Scalar,
];

fn active_backend() -> Backend {
    static CACHE: OnceLock<Backend> = OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Ok(name) = std::env::var("CA_KERNELS_BACKEND") {
            // Pin a specific backend (CI dispatch matrix); silently fall
            // back to detection when the host can't run it.
            for &b in ALL_BACKENDS {
                if backend_label(b) == name && backend_supported(b) {
                    return b;
                }
            }
        }
        *ALL_BACKENDS
            .iter()
            .find(|&&b| backend_supported(b))
            .expect("scalar backend is always supported")
    })
}

/// Defines `mod $name` with one entry per backend — `scalar`, `avx2`,
/// `avx512` — each the generic `#[inline(always)] fn $body<T, const FMA:
/// bool>(args…)` compiled for that instruction set, so plain loops in
/// `$body` vectorise at the dispatched width. A [`KernelSpec`] carries the
/// entry of its backend as a function pointer, which also instantiates each
/// one exactly once, here, instead of once per downstream crate. `FMA` tells
/// the body whether `mul_add` is one instruction there; a body must use the
/// same rounding for every element (never an FMA vector loop with a
/// mul-then-add remainder), which makes its results independent of how
/// callers partition the operands.
macro_rules! on_backend {
    ($(#[$meta:meta])* mod $name:ident $(<$(const $c:ident),*>)? = $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$meta])*
        pub(crate) mod $name {
            use super::*;
            pub(crate) fn scalar<T: Scalar $($(, const $c: usize)*)?>($($arg: $ty),*) {
                $body::<T, false $($(, $c)*)?>($($arg),*)
            }
            /// # Safety
            /// The CPU must support AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            pub(crate) unsafe fn avx2<T: Scalar $($(, const $c: usize)*)?>($($arg: $ty),*) {
                $body::<T, true $($(, $c)*)?>($($arg),*)
            }
            /// # Safety
            /// The CPU must support AVX-512F.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            pub(crate) unsafe fn avx512<T: Scalar $($(, const $c: usize)*)?>($($arg: $ty),*) {
                $body::<T, true $($(, $c)*)?>($($arg),*)
            }
        }
    };
}
pub(crate) use on_backend;

/// Elements of the unsplit dimension an [`on_backend`] body carries in
/// registers per sweep: eight AVX-512 or sixteen AVX2 f64 vectors.
pub(crate) const LANES: usize = 64;

/// `c - a·b`, fused when `FMA` (see [`on_backend`]).
#[inline(always)]
pub(crate) fn nmul_add<T: Scalar, const FMA: bool>(a: T, b: T, c: T) -> T {
    if FMA {
        (-a).mul_add(b, c)
    } else {
        c - a * b
    }
}

/// `a·b + c`, fused when `FMA` (see [`on_backend`]).
#[inline(always)]
pub(crate) fn mul_add<T: Scalar, const FMA: bool>(a: T, b: T, c: T) -> T {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Gives the calling thread's packing buffers and workspaces, of both
/// element types, to the pool: the last thing a thread that lives for one
/// call does.
pub(crate) fn release_pack_bufs() {
    f64::release_pack_bufs();
    f32::release_pack_bufs();
}

/// [`Bounds::gemm`]: `C += alpha·op(A)·op(B)` on unpacked operands.
pub(crate) type SmallGemm<T> =
    unsafe fn(Trans, Trans, T, MatView<'_, T>, MatView<'_, T>, MatViewMut<'_, T>);

/// One microkernel and its register-tile geometry. The packed-panel layout
/// (and therefore every pack-buffer size) is a function of `(mr, nr)`, so
/// the spec travels together through the driver and the scheduler sub-DAG
/// builders.
pub struct KernelSpec<T: Scalar> {
    /// Tile height: rows of C per microkernel call (packed-A panel height).
    pub mr: usize,
    /// Tile width: columns of C per microkernel call (packed-B panel width).
    pub nr: usize,
    /// Kernel name with geometry, e.g. `"avx512f-16x4-f64"`.
    pub name: &'static str,
    /// The microkernel.
    ///
    /// # Safety
    /// `(kc, alpha, a, b, c, ldc)`: `a` holds `mr*kc` packed elements
    /// (64-byte-aligned base for SIMD kernels), `b` holds `nr*kc`, `c`
    /// points to an `mr × nr` column-major tile with `ldc >= mr` valid for
    /// reads and writes, and the CPU must support the kernel's features.
    pub kernel: unsafe fn(usize, T, *const T, *const T, *mut T, usize),
    /// Base case of [`crate::trsm`] compiled for this backend (same CPU
    /// requirement as `kernel`).
    pub(crate) trsm_base: unsafe fn(crate::trsm::Variant, MatView<'_, T>, MatViewMut<'_, T>),
    /// Base case of [`crate::rgetf2`] compiled for this backend (same CPU
    /// requirement as `kernel`).
    pub(crate) lu_base: unsafe fn(MatViewMut<'_, T>, usize, &mut crate::lu_unblocked::LuInfo, bool),
    /// Base case of [`crate::geqr3`] compiled for this backend (same CPU
    /// requirement as `kernel`).
    pub(crate) qr_base: unsafe fn(MatViewMut<'_, T>, MatViewMut<'_, T>),
    /// The base case of [`crate::geqr3`] for views of at most
    /// [`Bounds::qr_short_rows`] rows, compiled for this backend (same CPU
    /// requirement as `kernel`).
    pub(crate) qr_short: unsafe fn(MatViewMut<'_, T>, MatViewMut<'_, T>),
    /// Every switch between paths with the same bits on this backend, and
    /// its unpacked `gemm` (same CPU requirement as `kernel`).
    pub(crate) bounds: Bounds<T>,
}

/// A backend's spec: its microkernel, and its base cases and unpacked
/// `gemm` instantiated through [`on_backend`].
macro_rules! spec {
    ($t:ty, $backend:ident, $bounds:ident, $kernel:ident, $mr:ident, $nr:ident, $name:literal $(, $unpacked:ident)?) => {
        KernelSpec {
            mr: mk::$mr,
            nr: mk::$nr,
            name: $name,
            kernel: mk::$kernel,
            trsm_base: trsm_base::$backend::<$t>,
            lu_base: lu_base::$backend::<$t>,
            qr_base: qr_base::$backend::<$t>,
            qr_short: qr_short::$backend::<
                $t,
                { short_buffer_rows(Bounds::<$t>::$bounds.qr_short_rows) },
            >,
            bounds: Bounds {
                gemm: spec!(@small $t, $backend, $mr, $nr $(, $unpacked)?),
                ..Bounds::$bounds
            },
        }
    };
    (@small $t:ty, $backend:ident, $mr:ident, $nr:ident) => { None };
    (@small $t:ty, $backend:ident, $mr:ident, $nr:ident, unpacked) => {
        Some(small::$backend::<$t, { mk::$mr }, { mk::$nr }>)
    };
}

static F64_SCALAR: KernelSpec<f64> =
    spec!(f64, scalar, SCALAR, kernel_scalar_f64, MR, NR, "scalar-8x4-f64");
static F32_SCALAR: KernelSpec<f32> =
    spec!(f32, scalar, SCALAR, kernel_scalar_f32, MR_F32, NR_F32, "scalar-8x8-f32");
#[cfg(target_arch = "x86_64")]
static F64_AVX2: KernelSpec<f64> =
    spec!(f64, avx2, AVX2, kernel_avx2_f64, MR, NR, "avx2-fma-8x4-f64", unpacked);
#[cfg(target_arch = "x86_64")]
static F32_AVX2: KernelSpec<f32> =
    spec!(f32, avx2, AVX2, kernel_avx2_f32, MR_F32, NR_F32, "avx2-fma-8x8-f32");
#[cfg(target_arch = "x86_64")]
static F64_AVX512: KernelSpec<f64> =
    spec!(f64, avx512, AVX512, kernel_avx512_f64, MR_512, NR_512_F64, "avx512f-16x4-f64", unpacked);
#[cfg(target_arch = "x86_64")]
static F32_AVX512: KernelSpec<f32> =
    spec!(f32, avx512, AVX512, kernel_avx512_f32, MR_512, NR_512_F32, "avx512f-16x8-f32");

/// An element type with a full microkernel dispatch table (`f32`, `f64`).
///
/// Extends the sealed [`Scalar`] trait, so it cannot be implemented outside
/// this workspace; the methods are dispatch plumbing that kernel entry
/// points ([`gemm`], [`crate::gemm_packed`]) use internally.
pub trait Kernel: Scalar {
    /// The spec for a given backend (the scalar one always exists; SIMD
    /// specs exist whenever compiled for x86-64 — the caller checks CPU
    /// support before running them).
    #[doc(hidden)]
    fn spec_of(backend: Backend) -> &'static KernelSpec<Self>;

    /// Runs `f` with this thread's packing buffers for this element type.
    #[doc(hidden)]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut AlignedBuf<Self>, &mut AlignedBuf<Self>) -> R) -> R;

    /// Gives this thread's packing buffers and workspace to the pool a
    /// thread without any takes its set from.
    #[doc(hidden)]
    fn release_pack_bufs();

    /// Runs `f` with this thread's kernel workspace for this element type:
    /// the `W` blocks and densified triangles of [`crate::larfb_left`],
    /// [`crate::trmm`] and the `T₃` assembly of [`crate::geqr3`]. Distinct
    /// from the pack buffers, so `f` may call [`gemm`]; not re-entrant, so
    /// `f` must not call another workspace user. `geqr3` takes it only
    /// around `T₃`, between its recursive calls and `larfb`s, never across
    /// them; its base case works on the stack and in place. Of the nest
    /// `rgetf2` → `trsm` → `gemm` none takes it ([`crate::trsm`]'s base case
    /// works in a stack tile, [`crate::rgetf2`] in place), and `gemm` holds
    /// the pack buffers only for the duration of each call, so all three may
    /// run under a holder.
    #[doc(hidden)]
    fn with_work_buf<R>(f: impl FnOnce(&mut AlignedBuf<Self>) -> R) -> R;

    /// The process-wide dispatched spec (cached feature detection + env
    /// overrides).
    fn spec() -> &'static KernelSpec<Self> {
        Self::spec_of(active_backend())
    }
}

macro_rules! impl_kernel {
    ($t:ty, $scalar:ident, $avx2:ident, $avx512:ident, $bufs:ident) => {
        /// Kernel scratch for this element type: the packing pair (A block,
        /// B panel) and the workspace, one set per thread, reused across
        /// calls so task-sized kernels don't pay an allocation each. The two
        /// sit in cells of their own, since a workspace holder may call
        /// `gemm`. A thread that lives for one column split
        /// ([`crate::split_cols`]) gives its set to the pool before it ends
        /// ([`release_pack_bufs`]), and the next takes it from there, so
        /// such threads allocate nothing once the pool holds a set.
        mod $bufs {
            use super::*;
            thread_local! {
                pub(super) static PACK: RefCell<Option<(AlignedBuf<$t>, AlignedBuf<$t>)>> =
                    const { RefCell::new(None) };
                pub(super) static WORK: RefCell<Option<AlignedBuf<$t>>> = const { RefCell::new(None) };
            }
            static POOL: Mutex<Vec<[AlignedBuf<$t>; 3]>> = Mutex::new(Vec::new());

            /// A set for a thread holding none: the pool's last, or a fresh
            /// one. The caller fills one cell, this the other.
            pub(super) fn adopt() -> [AlignedBuf<$t>; 3] {
                let pooled = POOL.lock().unwrap_or_else(PoisonError::into_inner).pop();
                pooled.unwrap_or_else(|| [AlignedBuf::new(), AlignedBuf::new(), AlignedBuf::new()])
            }

            /// Gives this thread's set to the pool.
            pub(super) fn release() {
                let pack = PACK.with(|pack| pack.borrow_mut().take());
                let work = WORK.with(|work| work.borrow_mut().take());
                if let (Some((a, b)), Some(w)) = (pack, work) {
                    POOL.lock().unwrap_or_else(PoisonError::into_inner).push([a, b, w]);
                }
            }
        }

        impl Kernel for $t {
            fn spec_of(backend: Backend) -> &'static KernelSpec<$t> {
                match backend {
                    Backend::Scalar => &$scalar,
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => &$avx2,
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => &$avx512,
                }
            }

            fn with_pack_bufs<R>(
                f: impl FnOnce(&mut AlignedBuf<$t>, &mut AlignedBuf<$t>) -> R,
            ) -> R {
                $bufs::PACK.with(|pack| {
                    let mut pack = pack.borrow_mut();
                    let (a_buf, b_buf) = pack.get_or_insert_with(|| {
                        let [a, b, w] = $bufs::adopt();
                        $bufs::WORK.with(|work| *work.borrow_mut() = Some(w));
                        (a, b)
                    });
                    f(a_buf, b_buf)
                })
            }

            fn release_pack_bufs() {
                $bufs::release();
            }

            fn with_work_buf<R>(f: impl FnOnce(&mut AlignedBuf<$t>) -> R) -> R {
                $bufs::WORK.with(|work| {
                    let mut work = work.borrow_mut();
                    let work = work.get_or_insert_with(|| {
                        let [a, b, w] = $bufs::adopt();
                        $bufs::PACK.with(|pack| *pack.borrow_mut() = Some((a, b)));
                        w
                    });
                    f(work)
                })
            }
        }
    };
}

impl_kernel!(f64, F64_SCALAR, F64_AVX2, F64_AVX512, pack_f64);
impl_kernel!(f32, F32_SCALAR, F32_AVX2, F32_AVX512, pack_f32);

/// Name of the microkernel backend `gemm` dispatches to on this host:
/// `"avx512f"`, `"avx2-fma"` or `"scalar"`. Scalar is selected when the CPU
/// lacks the SIMD features; the `CA_KERNELS_BACKEND=<name>` environment
/// variable pins a specific supported backend (`scalar` always is). The
/// choice is made once per process and shared by both element types.
pub fn gemm_backend() -> &'static str {
    backend_label(active_backend())
}

/// Full name (with tile geometry) of the dispatched microkernel for `T`,
/// e.g. `"avx512f-16x8-f32"`.
pub fn gemm_kernel_name<T: Kernel>() -> &'static str {
    T::spec().name
}

/// Names of every microkernel backend this host can actually run, best
/// first. Drives the differential conformance matrix in the test suite.
pub fn gemm_available_backends() -> Vec<&'static str> {
    ALL_BACKENDS.iter().copied().filter(|&b| backend_supported(b)).map(backend_label).collect()
}

#[inline]
pub(crate) fn op_shape<T: Scalar>(t: Trans, a: MatView<'_, T>) -> (usize, usize) {
    match t {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    }
}

/// `C := alpha * op(A) * op(B) + beta * C`.
///
/// # Panics
/// If the shapes of `op(A)` (`m × k`), `op(B)` (`k × n`) and `C` (`m × n`)
/// are inconsistent.
pub fn gemm<T: Kernel>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    gemm_on(T::spec(), ta, tb, alpha, a, b, beta, c);
}

/// [`gemm`] pinned to a named backend from [`gemm_available_backends`] —
/// the in-process hook behind the backend × precision conformance matrix
/// (`"scalar"` runs the portable fallback next to the dispatched kernel
/// whatever the CPU).
///
/// # Panics
/// If `name` is not a backend this host supports.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub fn gemm_with_backend<T: Kernel>(
    name: &str,
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    gemm_on(spec_named(name), ta, tb, alpha, a, b, beta, c);
}

/// The spec of a named backend from [`gemm_available_backends`].
///
/// # Panics
/// If `name` is not a backend this host supports.
pub(crate) fn spec_named<T: Kernel>(name: &str) -> &'static KernelSpec<T> {
    let backend = *ALL_BACKENDS
        .iter()
        .find(|&&b| backend_label(b) == name && backend_supported(b))
        .unwrap_or_else(|| panic!("backend {name:?} not available on this host"));
    T::spec_of(backend)
}

/// Runs the `jr`/`ir` register loops of one packed cache block:
/// `C[0..mb, 0..nb] += alpha * Apack · Bpack` with `C` addressed through
/// `(cbase, ldc)`.
///
/// This is the single code path every GEMM entry funnels into — the serial
/// driver below (and so [`crate::par_gemm`]'s chunks) and the scheduler
/// sub-DAG tile tasks — which is what makes their results bitwise-identical: same packed
/// layouts, same microkernel, same per-element operation order.
///
/// # Safety
/// `apack` holds the `mb × kcb` A block packed for `spec` (at least
/// `mb.next_multiple_of(spec.mr) * kcb` elements, 64-byte-aligned base for
/// SIMD specs), `bpack` the `kcb × nb` B block (at least
/// `kcb * nb.next_multiple_of(spec.nr)`), `cbase` points to an `mb × nb`
/// column-major window with leading dimension `ldc` valid for reads and
/// writes, and the CPU must support `spec`'s features.
#[allow(clippy::too_many_arguments)] // BLAS-style call convention
pub(crate) unsafe fn macro_kernel<T: Scalar>(
    spec: &KernelSpec<T>,
    mb: usize,
    nb: usize,
    kcb: usize,
    alpha: T,
    apack: &[T],
    bpack: &[T],
    cbase: *mut T,
    ldc: usize,
) {
    let (mr, nr) = (spec.mr, spec.nr);
    debug_assert!(apack.len() >= mb.next_multiple_of(mr) * kcb);
    debug_assert!(bpack.len() >= kcb * nb.next_multiple_of(nr));
    let mut jr = 0;
    while jr < nb {
        let nrb = nr.min(nb - jr);
        let b_panel = bpack[(jr / nr) * nr * kcb..].as_ptr();
        let mut ir = 0;
        while ir < mb {
            let mrb = mr.min(mb - ir);
            let a_panel = apack[(ir / mr) * mr * kcb..].as_ptr();
            // SAFETY: panels hold mr*kcb / nr*kcb packed (zero-padded)
            // elements; the A panel starts at a multiple of mr·kcb elements
            // inside a 64-byte-aligned buffer, so SIMD alignment holds.
            unsafe {
                if mrb == mr && nrb == nr {
                    // Full tile: C window (ir, jr) is mr×nr, in bounds by
                    // the loop guards.
                    let cp = cbase.add(ir + jr * ldc);
                    (spec.kernel)(kcb, alpha, a_panel, b_panel, cp, ldc);
                } else {
                    // Edge tile: land in a stack tile, then fold the valid
                    // mrb×nrb corner into C.
                    let mut tile = [T::ZERO; MAX_TILE];
                    (spec.kernel)(kcb, alpha, a_panel, b_panel, tile.as_mut_ptr(), mr);
                    for j in 0..nrb {
                        for i in 0..mrb {
                            *cbase.add(ir + i + (jr + j) * ldc) += tile[j * mr + i];
                        }
                    }
                }
            }
            ir += mr;
        }
        jr += nr;
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the 8-operand BLAS dgemm surface
pub(crate) fn gemm_on<T: Kernel>(
    spec: &KernelSpec<T>,
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, ka) = op_shape(ta, a);
    let (kb, n) = op_shape(tb, b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch: op(A) is {m}x{ka}, op(B) is {kb}x{n}");
    assert_eq!(c.nrows(), m, "gemm C row mismatch");
    assert_eq!(c.ncols(), n, "gemm C column mismatch");
    let k = ka;

    if m == 0 || n == 0 {
        return;
    }
    scale(beta, c.rb());
    if alpha == T::ZERO || k == 0 {
        return;
    }

    if let Some(small) = spec.bounds.gemm.filter(|_| spec.bounds.gemm_fits(ta, m, n, k)) {
        // SAFETY: `spec` came from `Kernel::spec` or `spec_named`, which
        // both checked that this CPU runs its backend.
        return unsafe { small(ta, tb, alpha, a, b, c) };
    }

    let tap: PackTrans = ta.into();
    let tbp: PackTrans = tb.into();
    let (mr, nr) = (spec.mr, spec.nr);

    T::with_pack_bufs(|a_buf, b_buf| {
        let apack = a_buf.scratch(MC.min(m).next_multiple_of(mr) * KC.min(k));
        let bpack = b_buf.scratch(KC.min(k) * NC.min(n).next_multiple_of(nr));
        let ldc = c.ld();
        let cbase = c.as_mut_ptr();

        let mut jc = 0;
        while jc < n {
            let nb = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kcb = KC.min(k - pc);
                pack_b(tbp, b, pc, kcb, jc, nb, bpack, nr);
                let mut ic = 0;
                while ic < m {
                    let mb = MC.min(m - ic);
                    pack_a(tap, a, ic, mb, pc, kcb, apack, mr);
                    // SAFETY: packed panels were just filled for `spec`'s
                    // geometry; the C window (ic, jc)+(mb × nb) is in bounds
                    // by the loop guards; specs with SIMD kernels are only
                    // reachable through dispatch or an availability check.
                    unsafe {
                        macro_kernel(
                            spec,
                            mb,
                            nb,
                            kcb,
                            alpha,
                            apack,
                            bpack,
                            cbase.add(ic + jc * ldc),
                            ldc,
                        );
                    }
                    ic += mb;
                }
                pc += kcb;
            }
            jc += nb;
        }
    });
}

on_backend! {
    /// `C += alpha·op(A)·op(B)` without packing `B`, for
    /// [`Bounds::gemm_fits`] shapes.
    #[allow(dead_code)] // no scalar `KernelSpec` takes its `scalar` entry
    mod small<const MR, const NR> = small_body(
        ta: Trans,
        tb: Trans,
        alpha: T,
        a: MatView<'_, T>,
        b: MatView<'_, T>,
        c: MatViewMut<'_, T>,
    )
}

/// The packed path's arithmetic on unpacked operands: `C` in `MR × NR`
/// tiles (the backend's microkernel geometry), each accumulated from zero
/// over `p` in order with the microkernel's multiply-add, then stored as
/// `c + alpha·acc` — and, in a tile cut by the edge of `C`, as
/// `c + (0 + alpha·acc)`, the packed path's trip through a zeroed stack
/// tile. So every element sees the packed path's operations. `op(A) = A`
/// is read in place; `op(A) = Aᵀ` one `MR`-row panel at a time from a stack
/// block that holds it as the packed path lays it out (`p`-major, zeros
/// past the edge of `C`).
#[inline(always)]
fn small_body<T: Scalar, const FMA: bool, const MR: usize, const NR: usize>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    mut c: MatViewMut<'_, T>,
) {
    const { assert!(MR <= mk::MR_512, "a stack panel is at most 16 × KC") };
    let (m, n, k) = (c.nrows(), c.ncols(), op_shape(ta, a).1);
    // `op(B)[p, j]` is `bp[p·sp + j·sj]`.
    let (sp, sj) = if tb == Trans::No { (1, b.ld()) } else { (b.ld(), 1) };
    let bp = b.as_ptr();
    let mut panel = Block::<T, MR, KC>::new();
    for ir in (0..m).step_by(MR) {
        let mrb = MR.min(m - ir);
        // `op(A)[ir + i, p]` is `ap[i + p·lda]`.
        let (ap, lda) = if ta == Trans::No {
            (a.sub(ir, 0, mrb, k).as_ptr(), a.ld())
        } else {
            panel.load_t(a.sub(0, ir, k, mrb));
            (panel.cols().as_ptr().cast::<T>(), MR)
        };
        for jr in (0..n).step_by(NR) {
            let nrb = NR.min(n - jr);
            let edge = mrb < MR || nrb < NR;
            // SAFETY: the tile reads rows `0..mrb` of the `k` columns at
            // `ap` and `op(B)[0..k, jr..jr + nrb]`, all inside the operands.
            let acc = unsafe {
                if edge {
                    tile::<T, FMA, MR, NR>(
                        k,
                        |p, i| if i < mrb { *ap.add(i + p * lda) } else { T::ZERO },
                        |p, j| if j < nrb { *bp.add(p * sp + (jr + j) * sj) } else { T::ZERO },
                    )
                } else {
                    tile::<T, FMA, MR, NR>(
                        k,
                        |p, i| *ap.add(i + p * lda),
                        |p, j| *bp.add(p * sp + (jr + j) * sj),
                    )
                }
            };
            for (j, acc) in acc.iter().enumerate().take(nrb) {
                for (ci, &acc) in c.col_mut(jr + j)[ir..ir + mrb].iter_mut().zip(acc) {
                    let t = alpha * acc;
                    *ci += if edge { T::ZERO + t } else { t };
                }
            }
        }
    }
}

/// One `MR × NR` tile of [`small_body`]: `Σ_p a(p, i)·b(p, j)` from zero,
/// `p` in order, with the microkernel's multiply-add.
#[inline(always)]
fn tile<T: Scalar, const FMA: bool, const MR: usize, const NR: usize>(
    k: usize,
    a: impl Fn(usize, usize) -> T,
    b: impl Fn(usize, usize) -> T,
) -> [[T; MR]; NR] {
    let mut acc = [[T::ZERO; MR]; NR];
    for p in 0..k {
        let mut av = [T::ZERO; MR];
        let mut bv = [T::ZERO; NR];
        for (i, v) in av.iter_mut().enumerate() {
            *v = a(p, i);
        }
        for (j, v) in bv.iter_mut().enumerate() {
            *v = b(p, j);
        }
        for (acc, &bj) in acc.iter_mut().zip(&bv) {
            for (acc, &ai) in acc.iter_mut().zip(&av) {
                *acc = mul_add::<T, FMA>(ai, bj, *acc);
            }
        }
    }
    acc
}

/// `C := beta * C` (handles `beta == 0` without reading C).
pub(crate) fn scale<T: Scalar>(beta: T, mut c: MatViewMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for j in 0..c.ncols() {
        let col = c.col_mut(j);
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else {
            for x in col {
                *x *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::Matrix;

    fn reference(
        ta: Trans,
        tb: Trans,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &Matrix,
    ) -> Matrix {
        let oa = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let ob = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let ab = oa.matmul(&ob);
        Matrix::from_fn(c.nrows(), c.ncols(), |i, j| beta * c[(i, j)] + alpha * ab[(i, j)])
    }

    fn check(ta: Trans, tb: Trans, m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let mut rng = ca_matrix::seeded_rng(m as u64 * 31 + n as u64 * 7 + k as u64);
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let a = ca_matrix::random_uniform(ar, ac, &mut rng);
        let b = ca_matrix::random_uniform(br, bc, &mut rng);
        let c0 = ca_matrix::random_uniform(m, n, &mut rng);
        let expect = reference(ta, tb, alpha, &a, &b, beta, &c0);
        for backend in gemm_available_backends() {
            let mut c = c0.clone();
            gemm_with_backend(backend, ta, tb, alpha, a.view(), b.view(), beta, c.view_mut());
            let diff = c.sub_matrix(&expect);
            let err = ca_matrix::norm_max(diff.view());
            assert!(
                err < 1e-12 * (k.max(1) as f64),
                "error {err} for {ta:?}{tb:?} {m}x{n}x{k} backend={backend}"
            );
        }
    }

    #[test]
    fn nn_small_and_odd_sizes() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (4, 4, 4), (5, 3, 9), (17, 13, 11)] {
            check(Trans::No, Trans::No, m, n, k, 1.0, 1.0);
        }
    }

    #[test]
    fn nn_crosses_cache_block_boundaries() {
        check(Trans::No, Trans::No, MC + 7, 19, KC + 5, 1.0, 0.0);
        check(Trans::No, Trans::No, 33, NC + 3, 9, -0.5, 2.0);
    }

    #[test]
    fn nn_crosses_register_block_boundaries() {
        // Straddle every geometry's tile edges, including AVX-512's 16-row
        // tiles.
        for &m in &[MR - 1, MR, MR + 1, 2 * MR - 1, 2 * MR + 1] {
            for &n in &[NR - 1, NR, NR + 1, 2 * NR + 1] {
                check(Trans::No, Trans::No, m, n, 5, 1.0, 1.0);
            }
        }
    }

    #[test]
    fn transposed_variants() {
        check(Trans::Yes, Trans::No, 6, 8, 10, 1.0, 1.0);
        check(Trans::No, Trans::Yes, 6, 8, 10, 2.0, -1.0);
        check(Trans::Yes, Trans::Yes, 7, 5, 9, -1.0, 0.5);
        // Transposed operands crossing the register blocking.
        check(Trans::Yes, Trans::No, MR + 3, NR + 2, 21, 1.0, 0.0);
        check(Trans::No, Trans::Yes, 2 * MR + 1, 2 * NR + 3, 13, -1.0, 1.0);
    }

    #[test]
    fn f32_gemm_matches_oracle_on_every_backend() {
        let (m, n, k) = (37, 21, 29);
        let mut rng = ca_matrix::seeded_rng(99);
        let a64 = ca_matrix::random_uniform(m, k, &mut rng);
        let b64 = ca_matrix::random_uniform(k, n, &mut rng);
        let c64 = ca_matrix::random_uniform(m, n, &mut rng);
        let a: Matrix<f32> = Matrix::from_f64(&a64);
        let b: Matrix<f32> = Matrix::from_f64(&b64);
        let c0: Matrix<f32> = Matrix::from_f64(&c64);
        let expect =
            reference(Trans::No, Trans::No, 1.0, &a.to_f64(), &b.to_f64(), -0.5, &c0.to_f64());
        for backend in gemm_available_backends() {
            let mut c = c0.clone();
            gemm_with_backend(
                backend,
                Trans::No,
                Trans::No,
                1.0f32,
                a.view(),
                b.view(),
                -0.5f32,
                c.view_mut(),
            );
            let err = ca_matrix::norm_max(c.to_f64().sub_matrix(&expect).view());
            assert!(
                err < 8.0 * (k as f64 + 4.0) * f32::EPSILON as f64,
                "f32 error {err} on backend={backend}"
            );
        }
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let mut rng = ca_matrix::seeded_rng(9);
        let a = ca_matrix::random_uniform(4, 4, &mut rng);
        let b = ca_matrix::random_uniform(4, 4, &mut rng);
        let c0 = ca_matrix::random_uniform(4, 4, &mut rng);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 0.0, a.view(), b.view(), 2.0, c.view_mut());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c[(i, j)], 2.0 * c0[(i, j)]);
            }
        }
    }

    #[test]
    fn beta_zero_ignores_nan_in_c() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_rows(2, 2, &[f64::NAN, f64::NAN, f64::NAN, f64::NAN]);
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view_mut());
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let mut c = Matrix::zeros(0, 4);
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view_mut());

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = ca_matrix::random_uniform(2, 4, &mut ca_matrix::seeded_rng(1));
        let c0 = c.clone();
        // k == 0: C := beta * C
        gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view_mut());
        assert_eq!(c, c0);
    }

    #[test]
    fn strided_views_multiply_correctly() {
        // Operate on interior blocks of larger matrices so ld != rows.
        let mut rng = ca_matrix::seeded_rng(77);
        let big_a = ca_matrix::random_uniform(10, 10, &mut rng);
        let big_b = ca_matrix::random_uniform(10, 10, &mut rng);
        let mut big_c = Matrix::zeros(10, 10);
        let a = big_a.block(2, 3, 4, 5);
        let b = big_b.block(1, 2, 5, 3);
        gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, big_c.block_mut(5, 6, 4, 3));

        let a_own = Matrix::from_fn(4, 5, |i, j| big_a[(2 + i, 3 + j)]);
        let b_own = Matrix::from_fn(5, 3, |i, j| big_b[(1 + i, 2 + j)]);
        let expect = a_own.matmul(&b_own);
        for i in 0..4 {
            for j in 0..3 {
                assert!((big_c[(5 + i, 6 + j)] - expect[(i, j)]).abs() < 1e-13);
            }
        }
        // Untouched area stays zero.
        assert_eq!(big_c[(0, 0)], 0.0);
        assert_eq!(big_c[(4, 6)], 0.0);
    }

    #[test]
    fn repeated_calls_are_bitwise_identical() {
        let mut rng = ca_matrix::seeded_rng(1234);
        let a = ca_matrix::random_uniform(37, 29, &mut rng);
        let b = ca_matrix::random_uniform(29, 23, &mut rng);
        let c0 = ca_matrix::random_uniform(37, 23, &mut rng);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c1.view_mut());
        gemm(Trans::No, Trans::No, 1.5, a.view(), b.view(), 0.5, c2.view_mut());
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn backend_name_is_reported() {
        let name = gemm_backend();
        assert!(
            name == "avx512f" || name == "avx2-fma" || name == "scalar",
            "unexpected backend {name}"
        );
        assert!(gemm_available_backends().contains(&name));
        assert!(gemm_kernel_name::<f64>().contains("f64"));
        assert!(gemm_kernel_name::<f32>().contains("f32"));
    }
}

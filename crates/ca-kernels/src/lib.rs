//! # ca-kernels
//!
//! Pure-Rust BLAS/LAPACK-style kernels for the `ca-factor` workspace: the
//! sequential building blocks under the multithreaded communication-avoiding
//! LU and QR factorizations of Donfack, Grigori & Gupta (IPDPS 2010).
//!
//! | LAPACK/BLAS name | here |
//! |---|---|
//! | `dgemm`  | [`gemm`] (packed; small operands unpacked, same bits) |
//! | `dtrsm`  | [`trsm`] (every side / uplo / trans / diag: slabs, recursion onto `gemm`, a register-blocked base case per backend); [`trsm_right_upper_notrans`] and four more named instances |
//! | `dtrmm`  | [`trmm`] (out of place, on the packed GEMM path) |
//! | `dger` / `idamax` | [`ger`], [`iamax`] |
//! | `dgetf2` | [`getf2`] (BLAS2 GEPP) |
//! | `rgetf2` | [`rgetf2`] (recursive GEPP, Toledo; left-looking vectorised base case, `getf2`'s pivots) |
//! | `dgeqr2` | [`geqr2`] (BLAS2 Householder QR) |
//! | `dgeqr3` | [`geqr3`] (recursive QR, Elmroth–Gustavson; splits at multiples of 16 columns into a left-looking vectorised base case that builds `T` as it goes) |
//! | `dlarfg`/`dlarf`/`dlarft`/`dlarfb` | [`larfg`] (scale-safe, `dnrm2`/`dlarfg` rescaling), [`larf_left`], [`larft`], [`larfb_left`], [`larfb_left_pair`], [`larfb_left_multi`] (incl. the structured tree-node form) |
//!
//! All kernels operate on [`ca_matrix::MatView`]/[`ca_matrix::MatViewMut`]
//! blocks, so they compose into panel/tile tasks without copying, and all
//! are generic over the sealed [`ca_matrix::Scalar`] trait (`f32`/`f64`,
//! with `f64` defaults so existing call sites are unchanged).
//!
//! [`gemm`] is a packed BLIS-style implementation (DESIGN.md §10, §15):
//! three cache loops over [`NC`]/[`KC`]/[`MC`] around a register-tiled
//! microkernel, runtime-dispatched per element type between AVX-512F,
//! AVX2+FMA and a portable scalar fallback ([`gemm_backend`] reports which;
//! `CA_KERNELS_BACKEND=<name>` pins any supported backend, `scalar`
//! included). [`split_cols`] / [`split_range`] are the one fork-join
//! primitive: a column range cut into at most `workers` chunks at
//! multiples of [`SPLIT_ALIGN`] columns, so a split of a column-local
//! kernel gives the same bits at every worker count; [`par_gemm`] is that
//! split over [`gemm`]. The pack/compute task bodies of the scheduler's
//! GEMM decomposition ([`pack_a_slab`], [`pack_b_panel`], [`gemm_packed`])
//! are exported for the DAG builders in `ca-core`. The small-shape paths of
//! `gemm`, `trsm`, `rgetf2` and `geqr3` share one toolkit and one bounds
//! table per backend (`small.rs`, DESIGN.md §10 "Small shapes").

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod flops;
mod gemm;
mod ger;
mod householder;
mod lu_recursive;
mod lu_unblocked;
mod microkernel;
mod pack;
mod par_gemm;
mod qr_recursive;
mod qr_unblocked;
mod small;
pub mod traffic;
mod trmm;
mod trsm;

pub use gemm::{
    gemm, gemm_available_backends, gemm_backend, gemm_kernel_name, gemm_with_backend, Backend,
    Kernel, KernelSpec, Trans, KC, MC, MR, NC, NR,
};
pub use ger::{ger, iamax, scal};
pub use householder::{
    form_q_thin, larf_left, larfb_left, larfb_left_multi, larfb_left_multi_with_backend,
    larfb_left_pair, larfb_left_with_backend, larfg, larft, VRest,
};
pub use lu_recursive::{rgetf2, rgetf2_with_backend};
pub use lu_unblocked::{getf2, lu_nopiv, LuInfo};
pub use pack::{pack_a, pack_b, PackTrans};
pub use par_gemm::{
    gemm_packed, pack_a_slab, pack_b_panel, packed_a_len, packed_b_len, par_gemm, split_cols,
    split_range, SPLIT_ALIGN,
};
pub use qr_recursive::{geqr3, geqr3_with_backend};
pub use qr_unblocked::geqr2;
pub use trmm::{trmm, trmm_with_backend, Diag, Side, Triangle, Uplo};
pub use trsm::{
    trsm, trsm_left_lower_trans_unit, trsm_left_lower_unit, trsm_left_upper_notrans,
    trsm_left_upper_trans, trsm_right_upper_notrans, trsm_with_backend, TRSM_BASE, TRSM_SLAB,
};

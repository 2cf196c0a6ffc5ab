//! # ca-matrix
//!
//! Dense column-major matrix substrate for the `ca-factor` workspace — the
//! data layer under the communication-avoiding LU/QR factorizations of
//! Donfack, Grigori & Gupta (IPDPS 2010).
//!
//! Provides:
//! * [`Matrix`] — owned, packed column-major storage (LAPACK layout);
//! * [`MatView`] / [`MatViewMut`] — stride-aware borrowed blocks, the
//!   argument type of every kernel in `ca-kernels`;
//! * [`SharedMatrix`] — the shared-mutable handle a task runtime hands
//!   disjoint blocks of to concurrent tasks, each through the lease its task
//!   declared (`ca_sched::TaskCx`);
//! * [`PivotSeq`] and permutation helpers — row-interchange bookkeeping for
//!   partial and tournament pivoting;
//! * [`ElemRect`] and [`RegionSet`] — element rectangles and their region
//!   algebra (union/intersect/subtract), the footprint currency of
//!   rect-granular static verification in `ca-sched`;
//! * [`AlignedBuf`] — cache-line-aligned scratch, the packing-buffer
//!   substrate under the BLIS-style packed GEMM in `ca-kernels`;
//! * norms, residual measures, and reproducible test-matrix generators.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
mod generate;
pub mod io;
mod matrix;
mod norms;
mod perm;
pub mod region;
mod scalar;
mod shared;
mod view;

pub use aligned::AlignedBuf;
pub use generate::{
    deficient_top_block, graded_rows, kahan, random_diag_dominant, random_normal,
    random_orthogonal, random_uniform, seeded_rng, wilkinson_growth,
};
pub use matrix::Matrix;
pub use norms::{
    growth_factor, lu_residual, norm_fro, norm_inf, norm_max, norm_one, orthogonality, qr_residual,
    residual_threshold, residual_threshold_in,
};
pub use perm::{invert_permutation, is_permutation, laswp, permute_rows, PivotSeq};
pub use region::{ElemRect, RegionSet};
pub use scalar::Scalar;
pub use shared::SharedMatrix;
pub use view::{max_abs, max_abs_lanes, MatView, MatViewMut};

//! Out-of-core sequential CALU/CAQR: factoring matrices larger than RAM.
//!
//! The multicore CALU/CAQR algorithms of Donfack–Grigori–Gupta are,
//! sequentially and out of core, the same panel recurrence
//! (Demmel–Grigori–Hoemmen–Langou, arXiv 0806.2159): when the matrix lives
//! on disk and fast memory holds `M` words, *any* LU/QR schedule must move
//! `Ω(flops/√M)` words across the disk boundary, and left-looking panel
//! algorithms with `b`-wide tournament/TSQR panels attain that bound up to
//! a constant. This crate is that tier:
//!
//! * [`TileStore`] — the matrix as block-column panels in one file, with
//!   bitwise-exact element encoding and per-transfer byte accounting;
//! * [`OocPlan`] — how wide a resident superpanel a byte budget affords
//!   (one superpanel + one streamed column chunk, never two panels);
//! * [`ooc_calu`] / [`ooc_caqr`] — left-looking drivers that replay prior
//!   panels' updates onto the resident superpanel and then run the in-core
//!   panel loops ([`ca_core::calu_panels`] / [`ca_core::caqr_panels`]) on
//!   it, bitwise-matching the in-core sequential factorizations. Panel
//!   factorizations and store transfers run on the calling thread; each
//!   replayed panel and each trailing update is one column split over
//!   `CaParams::threads` lanes ([`ca_kernels::split_cols`]);
//! * [`probe`] — streamed `O(n²)` matvec probes that verify factors too
//!   large for a full residual.
//!
//! Each store's [`IoVolume`] is the one record of its I/O: the measured
//! volume of a factorization ([`OocLu::io`] / [`OocQr::io`]) is gated by
//! `tests/ooc.rs` against 1.5× the lower bound
//! ([`ca_kernels::traffic::ooc_lu_lower_bound`]) and reported by the
//! benchmark as `ca-ooc.{lu,qr}_io_ratio`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod lu;
mod pivots;
mod plan;
mod qr;
mod store;

pub mod probe;

pub use lu::{ooc_calu, OocLu};
pub use pivots::apply_pivots_rebased;
pub use plan::{OocKind, OocPlan};
pub use qr::{apply_panel_from_store, ooc_caqr, OocQr};
pub use store::{IoSnapshot, IoVolume, TileStore};

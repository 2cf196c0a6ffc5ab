//! # ca-bench
//!
//! Evaluation harness reproducing every table and figure of Donfack,
//! Grigori & Gupta (IPDPS 2010). See DESIGN.md §4 for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Layers:
//! * [`calibrate()`] — measures per-kernel-class throughput on this host;
//! * [`MachineModel`] — the simulated 8/16-core machine (hardware
//!   substitution layer) replaying task graphs with calibrated costs;
//! * [`Algo`] — uniform simulated/measured access to every contender
//!   (CALU, CAQR, TSQR, blocked LAPACK "vendor" baselines, BLAS2 routines,
//!   PLASMA-style tiled LU/QR);
//! * [`figures::EXPERIMENTS`] — the one table of experiments, a row per
//!   paper artifact, and [`figures::repro`], which runs a selection of it;
//! * [`Series`] / [`Cli`] — table rendering, CSV/JSON export, shared flags.
//!
//! One binary: `ca-bench repro [ID…]` runs the named rows (no ID: all, in
//! paper order; IDs `calibration dag fig2 fig3 fig4 fig5 fig6 fig7 fig8
//! table1 table2 table3 stability comm ablations`) and rewrites
//! `results/*.{csv,json}`; `ca-bench chaos-sweep` is the recovery tier's
//! acceptance drill ([`chaos`]). Both take `--measured`, `--scale`,
//! `--cores`, `--threads`, `--quick`, `--reference-calibration`, `--out`.
//! Kernel and per-layer rates are `benchmark/`'s rows, a measured profile is
//! `cafactor factor lu|qr --profile`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod calibrate;
pub mod chaos;
pub mod comm;
pub mod figures;
pub mod model;
pub mod report;
pub mod runners;
pub mod studies;

pub use calibrate::{calibrate, Calibration};
pub use model::MachineModel;
pub use report::{Cli, Series};
pub use runners::{paper_b, Algo};

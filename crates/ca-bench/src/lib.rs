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
//! * [`Series`] / [`Cli`] — table rendering, CSV/JSON export, shared flags.
//!
//! Binaries: `fig5 fig6 fig7 fig8 table1 table2 table3 traces stability`
//! (one per paper artifact), each accepting `--measured`, `--scale`,
//! `--cores`, `--quick`, `--reference-calibration`; plus `profile`, which
//! prints the scheduler-native profiling report (roofline attribution,
//! dispatch latency, critical-path efficiency, lookahead metric) and emits
//! Chrome-trace + `BENCH_profile_*.json` baselines.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod calibrate;
pub mod comm;
pub mod figures;
pub mod model;
pub mod report;
pub mod runners;

pub use calibrate::{calibrate, Calibration};
pub use model::MachineModel;
pub use report::{Cli, Series};
pub use runners::{paper_b, Algo};

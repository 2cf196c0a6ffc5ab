//! # ca-core
//!
//! Multithreaded communication-avoiding LU and QR factorizations — the
//! primary contribution of Donfack, Grigori & Gupta, *"Adapting
//! communication-avoiding LU and QR factorizations to multicore
//! architectures"* (IPDPS 2010). Every factorization entry point is generic
//! over the working precision (`T: ca_kernels::Kernel`, f32 or f64): one DAG
//! path and one sequential path per algorithm; graph shape does not depend
//! on `T`.
//!
//! * [`calu`] / [`calu_seq_factor`] — CALU with tournament (ca-)pivoting;
//!   panel factorization by TSLU over a binary or flat reduction tree.
//! * [`caqr`] / [`caqr_seq`] — CAQR; panel factorization by TSQR, with the
//!   reduction tree driving the trailing-matrix update.
//! * [`calu_panels`] / [`caqr_panels`] — the panel loops the `*_seq`
//!   entry points run over the whole matrix on one thread and `ca-ooc` runs
//!   over each resident superpanel: panels factored on the calling thread,
//!   each panel's trailing update one column split over `workers` lanes
//!   ([`ca_kernels::split_cols`]); [`lu_panel_update`] and
//!   [`tsqr::panel_apply`] are those updates, which `ca-ooc` also replays.
//! * [`tslu_factor`] / [`tsqr_factor`] — the panel factorizations as
//!   standalone tall-and-skinny solvers (the paper's TSLU/TSQR benchmarks).
//! * [`CaluPlan`] / [`CaqrPlan`] — `::build(m, n, &p)` makes the
//!   factorization as a [`ca_sched::Plan`]: every task added once as its
//!   cost, the closure that runs it and the blocks that closure touches.
//!   [`CaqrPlan::build_with`] takes the panels' elimination lists instead
//!   of a tree: `ca-baselines`' tiled QR is it over PLASMA's tile chain.
//!   [`calu_task_graph`] / [`caqr_task_graph`] are the task DAGs alone, for
//!   the multicore simulator and Figure-1-style renderings. Static
//!   soundness verification is [`ca_sched::verify_graph`] over a plan's
//!   `graph()` and `access()`: it proves every conflicting block access in
//!   the declared footprints is ordered by a happens-before path.
//! * [`try_calu`] / [`try_caqr`] / [`try_tslu_factor`] / [`try_tsqr_factor`]
//!   — fallible entry points that pre-scan inputs for NaN/Inf, monitor
//!   per-panel element growth (degrading to plain GEPP on tournament
//!   instability), and surface singularity or worker-task failure as a
//!   [`FactorError`] instead of poisoned factors or a panic.
//! * [`try_calu_with`] / [`try_caqr_with`] — the same fallible runs under
//!   explicit [`FactorOptions`]: seeded fault injection (`chaos`), the
//!   recovery ladder (`retry`: task-level snapshot/replay, then an integrity
//!   probe and whole-plan replays, as a served job runs it), checked
//!   execution (`checked`: the static verifier before the run; every run's
//!   task bodies open only the rects and slots their tasks declared), in
//!   any combination, returning the executor's [`ca_sched::RunReport`] —
//!   and with it the run's profile — next to the factors. Every fallible
//!   DAG entry point is a one-line caller of these two, which run a served
//!   job's graph — the plan's jobs ([`ca_sched::plan_jobs`]) plus the sink
//!   of [`jobs`] — on [`ca_sched::execute`], whatever the options; the
//!   infallible [`calu`] / [`caqr`] run the plan alone through
//!   [`ca_sched::run_plan`], as the baselines do.
//!   [`try_calu_profiled`] / [`try_caqr_profiled`] are the shorthands
//!   returning the [`ca_sched::Profile`] directly.
//! * [`jobs`] — the same plans under the same contract, options and
//!   [`ca_sched::plan_jobs`], plus one sink task that settles the run — the
//!   second half of the recovery ladder — as served jobs for the serving
//!   tier's [`ca_sched::MultiFrontier`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calu;
mod caqr;
mod dag_calu;
mod dag_caqr;
mod error;
pub mod jobs;
pub mod params;
mod probe;
pub mod solve;
pub mod tournament;
pub mod tree;
pub mod tslu;
pub mod tsqr;

pub use ca_sched::{FactorOptions, Retry};
pub use calu::{
    calu, calu_panels, calu_seq_factor, lu_panel_update, try_calu, try_calu_profiled,
    try_calu_with, try_tslu_factor, tslu_factor, LuFactors, LuPanelLog, LuStats,
};
pub use caqr::{
    caqr, caqr_panels, caqr_seq, try_caqr, try_caqr_profiled, try_caqr_with, try_tsqr_factor,
    tsqr_factor, QrFactors,
};
pub use dag_calu::{calu_task_graph, CaluPlan};
pub use dag_caqr::{caqr_task_graph, CaqrPlan};
pub use error::{FactorError, DEFAULT_GROWTH_LIMIT};
pub use jobs::{
    calu_serve_graph, calu_solve_serve_graph, caqr_lstsq_serve_graph, caqr_serve_graph,
    one_task_serve_graph, Built, ServeGraph,
};
pub use params::{num_panels, partition_rows, CaParams, RowPartition, TreeShape};
pub use probe::PROBE_TOL;
pub use solve::{lu_packed_solve_in_place, RefineInfo};

//! # ca-sched
//!
//! Dynamic task-graph runtime for the `ca-factor` workspace — the scheduling
//! substrate of multithreaded CALU/CAQR (Donfack, Grigori & Gupta, IPDPS
//! 2010, §III "Task scheduling").
//!
//! One [`TaskGraph`] representation, two ways to run it, each one function
//! whose modes are option values:
//!
//! * [`execute`]`(graph, nthreads, &`[`RunOptions`]`)` — the threaded
//!   executor: `nthreads` OS threads run one worker loop over a ready
//!   queue, either the shared priority heap ([`QueueKind::Central`]; the
//!   priorities encode the paper's lookahead-of-1 rule, panel tasks and the
//!   update of block column `K+1` outranking other updates) or work-stealing
//!   deques ([`QueueKind::Stealing`]). [`run_graph`] is the panicking
//!   shorthand for the default options.
//! * [`simulate_with`]`(graph, nworkers, cost, &`[`SimOptions`]`)` — a
//!   deterministic list-scheduling discrete-event simulator with `P`
//!   virtual cores and a pluggable cost model; [`simulate`] and
//!   [`simulate_uniform`] are the shorthands returning just the timeline.
//!   This is the hardware-substitution layer that stands in for the paper's
//!   8-core Xeon and 16-core Opteron machines (see DESIGN.md §2).
//!
//! Both return a [`RunReport`]: statistics with a [`Timeline`] renderable as
//! an ASCII Gantt chart ([`ascii_gantt`]) in the style of the paper's
//! Figures 2–4, plus whatever the options asked for. [`MultiFrontier`] is
//! the long-lived pool multiplexing many graphs for the serving tier.
//!
//! ## One recording spine
//!
//! Every executor stores a finished task exactly once: a compact measured
//! record (task, label, dispatch/start/end) pushed to the log of the lane
//! that ran it. [`ExecStats::timeline`], [`RunReport::profile`],
//! [`MultiFrontier::timeline`] and [`MultiFrontier::busy_seconds`] are views
//! built from that log after the fact, and the four Chrome-trace emitters
//! share one event builder. Counters follow the same rule: the process-wide
//! [`sched_counters`] and a run's [`RecoveryCounters`] are the only store of
//! what they count, and a `ca_telemetry::Registry` adopts the handles
//! ([`register_sched_metrics`], [`RecoveryCounters::register`]) instead of
//! keeping a copy.
//!
//! ## Failure semantics
//!
//! Jobs return [`TaskResult`]; panics are caught and converted into
//! failures. A failed task never releases its successors — the executor
//! cancels its **transitive successors**, drains every independent task,
//! and reports the first failure in [`RunReport::failure`] as an
//! [`ExecError`] naming the failed task, its label, its worker lane, and the
//! cancelled set. [`ChaosPlan`] (the `chaos` option of both runners)
//! injects failures, panics and delays deterministically for testing.
//!
//! ## Recovery
//!
//! Wrapping a task body with [`retrying_job`] / [`retrying_dyn_job`] adds
//! the *recover* half: the wrapper snapshots the task's declared write-set
//! (its write rects in the [`AccessMap`], via [`write_set`]), and on failure
//! or panic restores it and replays the body under a [`RetryPolicy`] —
//! successors are cancelled only once retries are exhausted. The wrapper
//! consults the same [`ChaosPlan`], which there can also inject silent data
//! corruption.
//!
//! ## Profiling
//!
//! With the `profile` option set the run additionally stamps when each task
//! became ready and samples the ready-queue depth, and
//! [`RunReport::profile`] presents the full task lifecycle (ready →
//! dispatch → start → end, steal counters, queue-depth samples). [`Profile::metrics`] derives
//! dispatch-latency distributions, per-[`KernelClass`] achieved GFlop/s
//! (roofline attribution), critical-path scheduling efficiency, and the
//! lookahead-effectiveness metric; [`Profile::chrome_trace`] emits a Chrome
//! trace with DAG flow events and counter tracks.
//!
//! ## Verification
//!
//! A footprint is a list of element rectangles; block coordinates are a
//! builder convenience [`BlockTracker`] resolves at declaration. The
//! declarations are retained in an [`AccessMap`]
//! ([`BlockTracker::into_access_map`]); [`verify_graph`] statically proves
//! every pair of tasks whose rects conflict is ordered by a happens-before
//! path, and a run with [`RunOptions::shadow`] set (registry from
//! [`build_shadow_registry`]) audits the actual element accesses through a
//! [`ca_matrix::ShadowRegistry`], reporting in [`RunReport::violation`].
//! [`SimOptions::access`] is the simulator's checked mode.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod blockdeps;
mod checked;
mod exec;
mod fault;
mod footprint;
mod graph;
mod log;
mod multigraph;
mod profile;
mod retry;
mod sim;
mod task;
mod telemetry;
mod trace;
mod verify;

pub use blockdeps::{row_blocks, BlockTracker};
pub use checked::{build_shadow_registry, CheckedError};
pub use exec::{execute, job, run_graph, ExecStats, Job, QueueKind, RunOptions, RunReport};
pub use footprint::AccessMap;
pub use verify::{
    reduce_transitive_edges, verify_graph, verify_graph_with, ConflictKind, EdgeFinding,
    LintReport, ShadowedWrite, SoundnessError, VerifyOptions, VerifyReport, CLOSURE_TASK_LIMIT,
};
pub use fault::{ExecError, TaskFailure, TaskResult};
pub use graph::TaskGraph;
pub use multigraph::{
    dyn_job, CancelReason, DynJob, JobId, JobOptions, JobOutcome, JobReport, JobWatch,
    MultiFrontier,
};
pub use profile::{
    ClassMetrics, KindMetrics, LatencyStats, LookaheadMetrics, PanelWait, Profile, QueueSample,
    SchedMetrics, StealStats, TaskRecord,
};
pub use retry::{
    retrying_dyn_job, retrying_job, write_set, ChaosAction, ChaosPlan, ChaosProfile,
    PanicHookGuard, RecoveryCounters, RecoveryStats, RetryPolicy, WriteSet,
};
pub use sim::{simulate, simulate_uniform, simulate_with, SimOptions};
pub use task::{KernelClass, TaskId, TaskKind, TaskLabel, TaskMeta};
pub use telemetry::{
    record_event, register_sched_metrics, sched_counters, set_thread_recorder, FlightEvent,
    FlightEventKind, FlightRecorder, SchedCounters,
};
pub use trace::{
    ascii_gantt, chrome_trace_json, chrome_trace_json_with_marks, Span, Timeline, TimelineError,
};

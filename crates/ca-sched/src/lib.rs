//! # ca-sched
//!
//! Dynamic task-graph runtime for the `ca-factor` workspace — the scheduling
//! substrate of multithreaded CALU/CAQR (Donfack, Grigori & Gupta, IPDPS
//! 2010, §III "Task scheduling").
//!
//! One [`TaskGraph`] representation, one dispatch policy — the highest-
//! priority ready task of a job first (the priorities encode the paper's
//! lookahead-of-1 rule: panel tasks and the update of block column `K+1`
//! outrank other updates), the earliest virtual finish across jobs — and
//! one threaded worker loop that picks by it, runs the task under
//! `catch_unwind`, releases its successors or cancels its failure closure
//! and logs one record in the task's job, behind two front doors:
//!
//! * [`execute`]`(graph, nthreads)` — one graph to quiescence: the loop's
//!   core lives on the caller's stack with that one job, lane 0 runs on the
//!   calling thread and the rest on scoped threads, so jobs may borrow and a
//!   single-worker run spawns nothing. [`run_graph`] is its panicking
//!   shorthand.
//! * [`MultiFrontier`] — the same core behind an `Arc` with `n` spawned
//!   threads, multiplexing many `'static` graphs ("jobs") for the serving
//!   tier: earliest-virtual-finish dispatch across jobs, per-job
//!   cancellation and deadlines, a [`JobWatch`] per job.
//!
//! A factorization reaches either door through [`plan_jobs`], the one place a
//! [`Plan`] (graph, declared footprints, one closure per task opening only
//! the handles its declarations returned, run-time slots, a gather function
//! — built through a [`PlanBuilder`]) becomes jobs, wrapped as its
//! [`FactorOptions`] ask: [`run_plan`] hands them to [`execute`] and
//! gathers; a served job is the same jobs plus one sink, submitted to a
//! [`MultiFrontier`]. Fault injection, the static verifier and recovery
//! enter a run there and nowhere else: neither door takes options.
//!
//! [`simulate`]`(graph, nworkers, cost)` replays the same graph through the
//! same policy on a deterministic discrete-event clock with `P` virtual
//! cores and a pluggable cost model. This is the hardware-substitution
//! layer that stands in for the paper's 8-core Xeon and 16-core Opteron
//! machines (see DESIGN.md §2).
//!
//! [`execute`] and [`simulate`] return a [`RunReport`]: statistics with a
//! [`Timeline`] renderable as an ASCII Gantt chart ([`ascii_gantt`]) in the
//! style of the paper's Figures 2–4, and the run's [`RunReport::profile`].
//!
//! ## One recording spine
//!
//! Every executor stores a finished task exactly once, whether or not
//! anybody will look: a compact measured record (task, label, lane, start,
//! end, and the note of what recovery did inside the body) pushed to the log
//! of the task's *job* when the policy completes it (under the state lock a
//! worker already holds), next to the instant each task became ready. The
//! log leaves with the finalized job — in the [`RunReport`], or in the
//! job's [`JobWatch`] until the last clone is dropped — and
//! [`ExecStats::timeline`], [`RunReport::profile`],
//! [`MultiFrontier::job_profile`] and a job's [`RecoveryStats`]
//! ([`RunReport::recovery`], [`JobReport::recovery`]) are views built from
//! it; the four Chrome-trace emitters share one event builder. Two things
//! are kept beside a job's log, each for a stated reason:
//! [`MultiFrontier::set_tracing`] retains the records of finalized jobs for
//! the frontier-wide [`MultiFrontier::timeline`] (off by default: a service
//! runs for days), and a [`FlightRecorder`] keeps the last moments across
//! jobs in a bounded ring for fault diagnosis. Counters follow the same
//! rule: the process-wide [`sched_counters`] are a fold of each delivered
//! job's log, and a `ca_telemetry::Registry` adopts the handles
//! ([`register_sched_metrics`]) instead of keeping a copy.
//!
//! ## Failure semantics
//!
//! Jobs return [`TaskResult`]; panics are caught and converted into
//! failures. A failed task never releases its successors — the executor
//! cancels its **transitive successors**, drains every independent task,
//! and reports the first failure in [`RunReport::failure`] as an
//! [`ExecError`] naming the failed task, its label, its worker lane, and the
//! cancelled set. [`ChaosPlan`] ([`FactorOptions::chaos`]) injects
//! failures, panics and delays deterministically for testing.
//!
//! ## Recovery
//!
//! [`FactorOptions::retry`] adds the *recover* half to every task of a plan:
//! the task's declared write-set (its write rects in the plan's
//! [`AccessMap`]) is snapshotted, and on failure or panic restored and the
//! body replayed under a [`RetryPolicy`]. The retry protocol consults the
//! same [`ChaosPlan`], which there can also scribble over the write-set and
//! inject silent data corruption. A task out of budget fails its job — or,
//! while the job has whole-plan replays left ([`Retry::replays`]), marks the
//! run [`PlanRun::exhausted`] so the rest of the plan falls through to the
//! job's sink, where the factorization probes its factors and replays the
//! whole plan from its input; [`PlanRun::collect`] then gathers nothing.
//! Each step is noted on the task it happened in
//! ([`record_recovery`]), so a job's [`RecoveryStats`] is a fold over its
//! log.
//!
//! ## Profiling
//!
//! Profiling is not an option: [`RunReport::profile`] /
//! [`MultiFrontier::job_profile`] present the full task lifecycle of any
//! finished job (ready → dispatch → start → end, and the ready-queue depth
//! those stamps determine). [`Profile::metrics`] derives
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
//! path (a plan run [`FactorOptions::checked`] runs it first). Each
//! declaration returns a handle ([`Read`], [`Write`], [`Slot`]), and a task
//! body opens the matrix and the slots only through its own handles
//! ([`TaskCx`]), checked on every open in every run: a body touches only
//! what its task declared, so the proven edges cover every access. The
//! simulator runs no task bodies; its checked mode is [`verify_graph`]
//! before [`simulate`] and [`Timeline::check_write_exclusion`] after.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod blockdeps;
mod checked;
mod exec;
mod fault;
mod footprint;
mod frontier;
mod graph;
mod lease;
mod log;
mod multigraph;
mod plan;
mod profile;
mod retry;
mod sim;
mod task;
mod telemetry;
mod trace;
mod verify;

pub use blockdeps::{row_blocks, BlockTracker};
pub use checked::CheckedError;
/// [`job`] under the name [`MultiFrontier`] callers know it by: with a
/// `'static` closure it builds a [`DynJob`].
pub use exec::job as dyn_job;
pub use exec::{execute, job, run_graph, DynJob, ExecStats, Job, RunReport};
pub use fault::{ExecError, TaskFailure, TaskResult};
pub use footprint::AccessMap;
pub use graph::TaskGraph;
pub use lease::{Read, Slot, Slots, TaskCx, Write};
pub use multigraph::{
    CancelReason, JobId, JobOptions, JobOutcome, JobReport, JobWatch, MultiFrontier,
};
pub use plan::{
    plan_jobs, run_plan, FactorOptions, Plan, PlanBuilder, PlanJobs, PlanRun, Retry, TaskDecl,
};
pub use profile::{
    ClassMetrics, KindMetrics, LatencyStats, LookaheadMetrics, PanelWait, Profile, QueueSample,
    SchedMetrics, TaskRecord,
};
pub use retry::{
    record_recovery, ChaosAction, ChaosPlan, ChaosProfile, PanicHookGuard, RecoveryEvent,
    RecoveryStats, RetryPolicy,
};
pub use sim::simulate;
pub use task::{KernelClass, TaskId, TaskKind, TaskLabel, TaskMeta};
pub use telemetry::{
    register_sched_metrics, sched_counters, FlightEvent, FlightEventKind, FlightRecorder,
    SchedCounters,
};
pub use trace::{
    ascii_gantt, chrome_trace_json, chrome_trace_json_with_marks, Span, Timeline, TimelineError,
};
pub use verify::{
    reduce_transitive_edges, verify_graph, verify_graph_with, ConflictKind, EdgeFinding,
    LintReport, ShadowedWrite, SoundnessError, VerifyOptions, VerifyReport, CLOSURE_TASK_LIMIT,
};

//! Scheduler-native profiling: full task-lifecycle records, derived
//! metrics, and an extended Chrome-trace emitter.
//!
//! The paper's evaluation is an observability argument — Figures 3–4 show
//! panel idle time disappearing under TSLU panels plus the lookahead-of-1
//! priority rule, and the MKL/PLASMA comparisons hinge on achieved GFlop/s
//! per kernel class. This module captures the evidence needed to make those
//! claims quantitative on our own runtime:
//!
//! * [`Profile`] — one record per executed task (ready → dispatch → start →
//!   end, worker lane, kernel class, flop/byte estimates), the DAG edges,
//!   the ready-queue depth those stamps determine, and the cancelled-task
//!   set.
//! * [`SchedMetrics`] — the derived report: dispatch-latency distribution,
//!   per-kind busy breakdown, per-kernel-class achieved GFlop/s and GB/s
//!   (roofline attribution), critical-path length vs makespan (scheduling
//!   efficiency), and the lookahead-effectiveness metric (how long each
//!   step's panel sat ready before starting — the Fig. 3 vs Fig. 4
//!   contrast as a number).
//! * [`Profile::chrome_trace`] — Chrome trace-event JSON with span events,
//!   process/thread-name metadata, flow events for DAG edges, and a
//!   ready-queue counter track.
//!
//! Every run has one: [`crate::RunReport::profile`] for
//! [`crate::execute`] and [`crate::simulate`],
//! [`crate::MultiFrontier::job_profile`] for a served job — each a view,
//! built when asked for, of the log the job left. The simulator path is
//! fully deterministic, so tests can assert exact metric values.

use crate::task::{KernelClass, TaskId, TaskKind, TaskLabel};
use crate::trace::{trace_args, Span, Timeline, TraceEvents};

/// The full lifecycle of one executed task.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct TaskRecord {
    /// Task id in the source graph.
    pub task: TaskId,
    /// Task identity (kind, step, coordinates).
    pub label: TaskLabel,
    /// Kernel class performing the flops.
    pub class: KernelClass,
    /// Estimated flops (from [`crate::TaskMeta`]).
    pub flops: f64,
    /// Estimated memory traffic in bytes (from [`crate::TaskMeta`]).
    pub bytes: f64,
    /// Worker lane that executed the task.
    pub worker: usize,
    /// Time the task became ready (all predecessors complete; roots at 0,
    /// the job's admission).
    pub ready: f64,
    /// Time a worker claimed the task from the ready set. Every executor
    /// claims and starts a task in one step, so this equals `start`.
    pub dispatch: f64,
    /// Execution start time.
    pub start: f64,
    /// Execution end time.
    pub end: f64,
}

impl TaskRecord {
    /// Execution duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Dispatch latency: how long the task sat ready before starting.
    pub fn wait(&self) -> f64 {
        (self.start - self.ready).max(0.0)
    }
}

/// One step of the job's ready-set depth: the depth from `t` until the next
/// sample. Derived from the records' `ready` (+1) and `start` (−1) stamps,
/// one sample per instant at which either happened, so it counts the ready
/// tasks that went on to run.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueueSample {
    /// Sample time in seconds.
    pub t: f64,
    /// Number of ready, unclaimed tasks at that instant.
    pub depth: usize,
}

/// A complete execution profile of one job. Serializable, so it can be
/// committed as a benchmark baseline; [`Profile::metrics`] derives the
/// human-meaningful summary.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Profile {
    /// Which executor produced the profile: `"priority-queue"` (the
    /// threaded worker loop) or `"simulator"`.
    pub scheduler: String,
    /// Number of worker lanes.
    pub nworkers: usize,
    /// Total wall (or simulated) time in seconds.
    pub makespan: f64,
    /// One record per executed task, sorted by start time. Cancelled tasks
    /// never appear here.
    pub records: Vec<TaskRecord>,
    /// The DAG edges (`before → after`), for flow events and the measured
    /// critical path.
    pub edges: Vec<(TaskId, TaskId)>,
    /// Ready-set depth as a step function of time, in time order.
    pub queue_samples: Vec<QueueSample>,
    /// Tasks cancelled because a transitive predecessor failed.
    pub cancelled: Vec<TaskId>,
}

impl Profile {
    /// Rebuilds the lane-per-worker [`Timeline`] view of the profile.
    pub fn timeline(&self) -> Timeline {
        let span =
            |r: &TaskRecord| Span { task: r.task, label: r.label, start: r.start, end: r.end };
        let spans = self.records.iter().map(|r| (r.worker, span(r)));
        Timeline::from_spans(spans, self.nworkers, self.makespan)
    }

    /// Length of the critical path through the executed DAG using
    /// *measured* durations (cancelled tasks contribute zero).
    pub fn critical_path_seconds(&self) -> f64 {
        let n = self
            .records
            .iter()
            .map(|r| r.task + 1)
            .chain(self.edges.iter().map(|&(a, b)| a.max(b) + 1))
            .max()
            .unwrap_or(0);
        let mut dur = vec![0.0f64; n];
        for r in &self.records {
            dur[r.task] = r.duration();
        }
        let mut adj: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        // Task ids are a topological order by graph construction.
        let mut dist = vec![0.0f64; n];
        let mut best = 0.0f64;
        for id in 0..n {
            let d = dist[id] + dur[id];
            best = best.max(d);
            for &s in &adj[id] {
                if dist[s] < d {
                    dist[s] = d;
                }
            }
        }
        best
    }

    /// Derives the full metric report.
    pub fn metrics(&self) -> SchedMetrics {
        let tasks = self.records.len();
        let busy: f64 = self.records.iter().map(|r| r.duration()).sum();
        let worker_time = self.makespan * self.nworkers as f64;
        let utilization = if worker_time > 0.0 { busy / worker_time } else { 0.0 };

        // Dispatch-latency distribution.
        let mut waits: Vec<f64> = self.records.iter().map(|r| r.wait()).collect();
        waits.sort_by(f64::total_cmp);
        let dispatch_latency = LatencyStats::from_sorted(&waits);

        // Busy time per task kind.
        const KINDS: [TaskKind; 6] = [
            TaskKind::Panel,
            TaskKind::LBlock,
            TaskKind::URow,
            TaskKind::Update,
            TaskKind::Swap,
            TaskKind::Other,
        ];
        let by_kind: Vec<KindMetrics> = KINDS
            .iter()
            .filter_map(|&k| {
                let (mut count, mut secs) = (0usize, 0.0f64);
                for r in self.records.iter().filter(|r| r.label.kind == k) {
                    count += 1;
                    secs += r.duration();
                }
                (count > 0).then(|| KindMetrics {
                    kind: format!("{k:?}"),
                    code: k.code(),
                    tasks: count,
                    busy_seconds: secs,
                    busy_share: if busy > 0.0 { secs / busy } else { 0.0 },
                })
            })
            .collect();

        // Roofline attribution per kernel class.
        const CLASSES: [KernelClass; 9] = [
            KernelClass::Gemm,
            KernelClass::Trsm,
            KernelClass::Larfb,
            KernelClass::LuBlas2,
            KernelClass::LuRecursive,
            KernelClass::QrBlas2,
            KernelClass::QrRecursive,
            KernelClass::Memory,
            KernelClass::Other,
        ];
        let by_class: Vec<ClassMetrics> = CLASSES
            .iter()
            .filter_map(|&c| {
                let (mut count, mut secs, mut fl, mut by) = (0usize, 0.0f64, 0.0f64, 0.0f64);
                for r in self.records.iter().filter(|r| r.class == c) {
                    count += 1;
                    secs += r.duration();
                    fl += r.flops;
                    by += r.bytes;
                }
                (count > 0).then(|| ClassMetrics {
                    class: format!("{c:?}"),
                    tasks: count,
                    busy_seconds: secs,
                    flops: fl,
                    bytes: by,
                    gflops: if secs > 0.0 { fl / secs / 1e9 } else { 0.0 },
                    gbytes_per_sec: if secs > 0.0 { by / secs / 1e9 } else { 0.0 },
                })
            })
            .collect();

        // Queue depth: each sample holds until the next one (the last until
        // the makespan), so the mean weights a depth by how long it lasted.
        let max_queue_depth = self.queue_samples.iter().map(|s| s.depth).max().unwrap_or(0);
        let until = self.queue_samples.iter().skip(1).map(|s| s.t).chain([self.makespan]);
        let depth_seconds: f64 =
            self.queue_samples.iter().zip(until).map(|(s, t)| s.depth as f64 * (t - s.t)).sum();
        let mean_queue_depth =
            if self.makespan > 0.0 { depth_seconds / self.makespan } else { 0.0 };

        // Scheduling efficiency: makespan against the two lower bounds.
        let critical_path_seconds = self.critical_path_seconds();
        let work_bound = if self.nworkers > 0 { busy / self.nworkers as f64 } else { 0.0 };
        let efficiency = if self.makespan > 0.0 {
            critical_path_seconds.max(work_bound) / self.makespan
        } else {
            0.0
        };

        SchedMetrics {
            scheduler: self.scheduler.clone(),
            nworkers: self.nworkers,
            tasks,
            cancelled: self.cancelled.len(),
            makespan: self.makespan,
            busy_seconds: busy,
            utilization,
            dispatch_latency,
            by_kind,
            by_class,
            max_queue_depth,
            mean_queue_depth,
            critical_path_seconds,
            work_bound_seconds: work_bound,
            efficiency,
            lookahead: self.lookahead_metrics(),
        }
    }

    /// The lookahead-effectiveness metric: for each panel step `K`, the gap
    /// between the instant step `K`'s first panel task became ready and the
    /// instant it started. With the lookahead-of-1 priority rule and
    /// parallel panels (Figure 4), these waits collapse toward zero; without
    /// it (Figure 3) panels queue behind stale trailing updates.
    pub fn lookahead_metrics(&self) -> LookaheadMetrics {
        use std::collections::BTreeMap;
        let mut steps: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.label.kind == TaskKind::Panel) {
            let e = steps.entry(r.label.step).or_insert((f64::INFINITY, f64::INFINITY));
            e.0 = e.0.min(r.ready);
            e.1 = e.1.min(r.start);
        }
        let per_step: Vec<PanelWait> = steps
            .into_iter()
            .map(|(step, (ready, start))| PanelWait {
                step,
                ready,
                start,
                wait: (start - ready).max(0.0),
            })
            .collect();
        let total: f64 = per_step.iter().map(|s| s.wait).sum();
        let max = per_step.iter().map(|s| s.wait).fold(0.0f64, f64::max);
        let worst_step =
            per_step.iter().max_by(|a, b| a.wait.total_cmp(&b.wait)).map(|s| s.step).unwrap_or(0);
        LookaheadMetrics {
            panel_steps: per_step.len(),
            total_wait: total,
            mean_wait: if per_step.is_empty() { 0.0 } else { total / per_step.len() as f64 },
            max_wait: max,
            worst_step,
            per_step,
        }
    }

    /// Chrome trace-event JSON of the full profile: span events with
    /// per-task args (class, flops, dispatch latency), process/thread-name
    /// metadata, flow events for every executed DAG edge, and counter
    /// tracks for ready-queue depth and cumulative completed tasks. Load in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut events = TraceEvents::new((0..self.nworkers).map(|w| format!("core {w}")));
        for r in &self.records {
            let args = serde_json::json!({
                "class": format!("{:?}", r.class),
                "flops": r.flops,
                "bytes": r.bytes,
                "wait_us": r.wait() * 1e6,
            });
            let span = Span { task: r.task, label: r.label, start: r.start, end: r.end };
            events.span(r.worker, &span, Some(args));
        }

        // Flow events along DAG edges between executed tasks (an edge with a
        // cancelled endpoint has no flow).
        let where_is: std::collections::HashMap<TaskId, &TaskRecord> =
            self.records.iter().map(|r| (r.task, r)).collect();
        for (eid, (a, b)) in self.edges.iter().enumerate() {
            if let (Some(a), Some(b)) = (where_is.get(a), where_is.get(b)) {
                let ends = [("s", a.worker, a.end, None), ("f", b.worker, b.start, Some("e"))];
                for (ph, tid, t, bp) in ends {
                    let fields = [("cat", "dep".into()), ("id", eid.into()), ("tid", tid.into())];
                    let bp = bp.map(|bp| ("bp", bp.into()));
                    events.push(ph, "dep", Some(t), fields.into_iter().chain(bp));
                }
            }
        }

        // Counter tracks: ready-queue depth and cumulative completed tasks.
        for s in &self.queue_samples {
            events.push("C", "ready tasks", Some(s.t), [trace_args("ready", s.depth.into())]);
        }
        let mut ends: Vec<f64> = self.records.iter().map(|r| r.end).collect();
        ends.sort_by(f64::total_cmp);
        for (i, &t) in ends.iter().enumerate() {
            events.push("C", "completed tasks", Some(t), [trace_args("done", (i + 1).into())]);
        }

        serde_json::to_string(&events.0).expect("serializable")
    }
}

/// Summary statistics of a latency distribution (seconds).
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// Log-scale histogram: `(upper_bound_seconds, count)` per bucket; the
    /// last bucket's bound is `f64::INFINITY`.
    pub histogram: Vec<(f64, usize)>,
}

impl LatencyStats {
    /// Bucket upper bounds: 1 µs … 1 s, then overflow.
    const BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, f64::INFINITY];

    fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        let n = sorted.len();
        let pick = |q: f64| sorted[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1];
        let mut histogram: Vec<(f64, usize)> = Self::BOUNDS.iter().map(|&b| (b, 0)).collect();
        for &w in sorted {
            let slot = Self::BOUNDS.iter().position(|&b| w <= b).unwrap_or(7);
            histogram[slot].1 += 1;
        }
        Self {
            count: n,
            min: sorted[0],
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: pick(0.50),
            p95: pick(0.95),
            max: sorted[n - 1],
            histogram,
        }
    }
}

/// Busy-time breakdown for one task kind.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct KindMetrics {
    /// Kind name (`Panel`, `Update`, …).
    pub kind: String,
    /// One-letter trace code (P/L/U/S/W/O).
    pub code: char,
    /// Tasks executed.
    pub tasks: usize,
    /// Total busy seconds.
    pub busy_seconds: f64,
    /// Fraction of total busy time.
    pub busy_share: f64,
}

/// Roofline attribution for one kernel class.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ClassMetrics {
    /// Kernel class name (`Gemm`, `LuBlas2`, …).
    pub class: String,
    /// Tasks executed.
    pub tasks: usize,
    /// Total busy seconds.
    pub busy_seconds: f64,
    /// Total estimated flops.
    pub flops: f64,
    /// Total estimated bytes moved.
    pub bytes: f64,
    /// Achieved GFlop/s (`flops / busy_seconds / 1e9`).
    pub gflops: f64,
    /// Achieved GB/s (`bytes / busy_seconds / 1e9`).
    pub gbytes_per_sec: f64,
}

/// Per-panel-step wait of the lookahead metric.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct PanelWait {
    /// Panel iteration `K`.
    pub step: usize,
    /// When the step's first panel task became ready.
    pub ready: f64,
    /// When it started.
    pub start: f64,
    /// `start - ready`, clamped at zero.
    pub wait: f64,
}

/// The lookahead-effectiveness metric (see
/// [`Profile::lookahead_metrics`]).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct LookaheadMetrics {
    /// Number of panel steps observed.
    pub panel_steps: usize,
    /// Sum of per-step panel waits (seconds).
    pub total_wait: f64,
    /// Mean per-step panel wait.
    pub mean_wait: f64,
    /// Worst per-step panel wait.
    pub max_wait: f64,
    /// Step with the worst wait.
    pub worst_step: usize,
    /// The full per-step series.
    pub per_step: Vec<PanelWait>,
}

/// The derived metric report of a [`Profile`] — serializable (benchmark
/// baselines) and renderable ([`SchedMetrics::render`]).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SchedMetrics {
    /// Executor that produced the profile.
    pub scheduler: String,
    /// Worker lanes.
    pub nworkers: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Tasks cancelled by failures.
    pub cancelled: usize,
    /// Total wall/simulated seconds.
    pub makespan: f64,
    /// Total busy worker-seconds.
    pub busy_seconds: f64,
    /// `busy / (makespan · nworkers)`.
    pub utilization: f64,
    /// Ready → start latency distribution.
    pub dispatch_latency: LatencyStats,
    /// Busy breakdown per task kind.
    pub by_kind: Vec<KindMetrics>,
    /// Roofline attribution per kernel class.
    pub by_class: Vec<ClassMetrics>,
    /// Deepest observed ready queue.
    pub max_queue_depth: usize,
    /// Time-weighted mean ready-queue depth over the makespan: the integral
    /// of the depth step function divided by `makespan`.
    pub mean_queue_depth: f64,
    /// Critical path through the DAG with measured durations.
    pub critical_path_seconds: f64,
    /// `busy / nworkers` — the other makespan lower bound.
    pub work_bound_seconds: f64,
    /// `max(critical_path, work_bound) / makespan`, 1.0 = optimal schedule.
    pub efficiency: f64,
    /// The lookahead-effectiveness metric.
    pub lookahead: LookaheadMetrics,
}

/// Engineering-style time formatting for reports.
fn fmt_time(s: f64) -> String {
    if s == 0.0 {
        "0s".to_string()
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

impl SchedMetrics {
    /// Renders the human-readable profile report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} scheduler, {} workers, {} tasks{}  makespan {}  utilization {:.1}%",
            self.scheduler,
            self.nworkers,
            self.tasks,
            if self.cancelled > 0 {
                format!(" ({} cancelled)", self.cancelled)
            } else {
                String::new()
            },
            fmt_time(self.makespan),
            self.utilization * 100.0,
        );
        let _ = writeln!(
            out,
            "  scheduling efficiency {:.1}%  (critical path {}, work bound {})",
            self.efficiency * 100.0,
            fmt_time(self.critical_path_seconds),
            fmt_time(self.work_bound_seconds),
        );
        let d = &self.dispatch_latency;
        let _ = writeln!(
            out,
            "  dispatch latency: mean {}  p50 {}  p95 {}  max {}",
            fmt_time(d.mean),
            fmt_time(d.p50),
            fmt_time(d.p95),
            fmt_time(d.max),
        );
        let la = &self.lookahead;
        let _ = writeln!(
            out,
            "  lookahead: {} panel steps, mean panel wait {}, max {} (step {}), total {}",
            la.panel_steps,
            fmt_time(la.mean_wait),
            fmt_time(la.max_wait),
            la.worst_step,
            fmt_time(la.total_wait),
        );
        if self.max_queue_depth > 0 {
            let _ = writeln!(
                out,
                "  ready queue: max depth {}, mean {:.1}",
                self.max_queue_depth, self.mean_queue_depth,
            );
        }
        for k in &self.by_kind {
            let _ = writeln!(
                out,
                "  kind {} ({:>6}): {:>5} tasks  busy {}  ({:.1}% of busy)",
                k.code,
                k.kind,
                k.tasks,
                fmt_time(k.busy_seconds),
                k.busy_share * 100.0,
            );
        }
        for c in &self.by_class {
            let _ = writeln!(
                out,
                "  class {:>11}: {:>5} tasks  busy {}  {:.2} GFlop/s  {:.2} GB/s",
                c.class,
                c.tasks,
                fmt_time(c.busy_seconds),
                c.gflops,
                c.gbytes_per_sec,
            );
        }
        out
    }
}

impl core::fmt::Display for SchedMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        task: TaskId,
        kind: TaskKind,
        step: usize,
        w: usize,
        ready: f64,
        start: f64,
        end: f64,
    ) -> TaskRecord {
        TaskRecord {
            task,
            label: TaskLabel::new(kind, step, 0, 0),
            class: KernelClass::Gemm,
            flops: 2e9 * (end - start),
            bytes: 1e9 * (end - start),
            worker: w,
            ready,
            dispatch: start,
            start,
            end,
        }
    }

    fn profile(records: Vec<TaskRecord>, edges: Vec<(TaskId, TaskId)>, makespan: f64) -> Profile {
        Profile {
            scheduler: "simulator".into(),
            nworkers: 2,
            makespan,
            records,
            edges,
            queue_samples: vec![QueueSample { t: 0.0, depth: 2 }, QueueSample { t: 1.0, depth: 0 }],
            cancelled: Vec::new(),
        }
    }

    #[test]
    fn metrics_exact_on_hand_built_profile() {
        // Chain 0 -> 1 on worker 0, independent 2 on worker 1.
        let p = profile(
            vec![
                rec(0, TaskKind::Panel, 0, 0, 0.0, 0.0, 1.0),
                rec(1, TaskKind::Update, 0, 0, 1.0, 1.5, 2.0),
                rec(2, TaskKind::Panel, 1, 1, 0.0, 0.25, 1.0),
            ],
            vec![(0, 1)],
            2.0,
        );
        let m = p.metrics();
        assert_eq!(m.tasks, 3);
        assert!((m.busy_seconds - 2.25).abs() < 1e-12);
        assert!((m.utilization - 2.25 / 4.0).abs() < 1e-12);
        // Critical path: 0 (1.0s) -> 1 (0.5s) = 1.5s; work bound 1.125.
        assert!((m.critical_path_seconds - 1.5).abs() < 1e-12);
        assert!((m.efficiency - 1.5 / 2.0).abs() < 1e-12);
        // Dispatch latency: waits are 0.0, 0.5, 0.25.
        assert!((m.dispatch_latency.mean - 0.25).abs() < 1e-12);
        assert!((m.dispatch_latency.max - 0.5).abs() < 1e-12);
        // Lookahead: step 0 wait 0, step 1 wait 0.25.
        assert_eq!(m.lookahead.panel_steps, 2);
        assert!((m.lookahead.max_wait - 0.25).abs() < 1e-12);
        assert_eq!(m.lookahead.worst_step, 1);
        // Class attribution: gemm flops are 2e9 per busy second.
        let g = &m.by_class[0];
        assert_eq!(g.class, "Gemm");
        assert!((g.gflops - 2.0).abs() < 1e-9);
        assert!((g.gbytes_per_sec - 1.0).abs() < 1e-9);
        // Depth 2 for the first of the two seconds, 0 for the second.
        assert_eq!((m.max_queue_depth, m.mean_queue_depth), (2, 1.0));
    }

    #[test]
    fn timeline_roundtrip_checks_clean() {
        let p = profile(
            vec![
                rec(0, TaskKind::Panel, 0, 0, 0.0, 0.0, 1.0),
                rec(1, TaskKind::Update, 0, 0, 1.0, 1.0, 2.0),
                rec(2, TaskKind::Panel, 1, 1, 0.0, 0.0, 1.0),
            ],
            vec![(0, 1)],
            2.0,
        );
        let tl = p.timeline();
        assert_eq!(tl.nworkers(), 2);
        assert_eq!(tl.check(), Ok(()));
        assert_eq!(tl.lanes[0].len(), 2);
    }

    #[test]
    fn chrome_trace_has_flows_counters_and_metadata() {
        let p = profile(
            vec![
                rec(0, TaskKind::Panel, 0, 0, 0.0, 0.0, 1.0),
                rec(1, TaskKind::Update, 0, 1, 1.0, 1.0, 2.0),
            ],
            vec![(0, 1), (1, 7)], // second edge dangles (cancelled): skipped
            2.0,
        );
        let v: serde_json::Value = serde_json::from_str(&p.chrome_trace()).unwrap();
        let arr = v.as_array().unwrap();
        let ph = |p: &str| arr.iter().filter(|e| e["ph"] == p).count();
        assert_eq!(ph("X"), 2);
        assert_eq!(ph("s"), 1, "one flow start for the executed edge");
        assert_eq!(ph("f"), 1);
        assert!(ph("C") >= 2, "counter samples present");
        assert!(arr.iter().any(|e| e["name"] == "thread_name"));
    }

    #[test]
    fn latency_stats_histogram_partitions_samples() {
        let waits = vec![0.0, 5e-7, 3e-5, 2e-4, 0.5];
        let mut sorted = waits.clone();
        sorted.sort_by(f64::total_cmp);
        let s = LatencyStats::from_sorted(&sorted);
        assert_eq!(s.count, 5);
        assert_eq!(s.histogram.iter().map(|&(_, c)| c).sum::<usize>(), 5);
        assert_eq!(s.max, 0.5);
        assert_eq!(s.p50, 3e-5);
    }

    #[test]
    fn report_renders_key_sections() {
        let p = profile(
            vec![
                rec(0, TaskKind::Panel, 0, 0, 0.0, 0.0, 1.0),
                rec(1, TaskKind::Update, 0, 1, 0.0, 0.0, 2.0),
            ],
            vec![],
            2.0,
        );
        let text = p.metrics().render();
        assert!(text.contains("scheduling efficiency"));
        assert!(text.contains("dispatch latency"));
        assert!(text.contains("lookahead"));
        assert!(text.contains("GFlop/s"));
        assert!(text.contains("class"));
    }
}

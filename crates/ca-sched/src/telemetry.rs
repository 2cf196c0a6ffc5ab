//! Always-on scheduler telemetry: global counters and per-worker flight
//! recorders.
//!
//! Two complementary mechanisms live here:
//!
//! 1. **Global scheduler counters** ([`sched_counters`]) — one process-wide
//!    set of shared `ca_telemetry` counters: admission to the core behind
//!    [`MultiFrontier`] and one-shot [`crate::execute`] counts a job, and
//!    delivering a finished job folds its log into the rest (tasks and the
//!    job by outcome, probes), once per job: what no job ran is not counted.
//!    A [`ca_telemetry::Registry`] *adopts* the handles
//!    ([`register_sched_metrics`]) and its snapshots read the live atomics,
//!    so there is no copy to keep in sync. The counters are never reset and
//!    are shared by every pool in the process, so tests assert monotonicity
//!    rather than exact values.
//!
//! 2. **Flight recorder** ([`FlightRecorder`]) — per-worker bounded rings of
//!    recent task lifecycle / retry / shed events. A recorder is attached to
//!    a `MultiFrontier` (see `set_flight_recorder`); workers then publish
//!    their lane, and the job of each task they claim, through a
//!    thread-local so that instrumentation deep in the recovery layer
//!    (`record_event`) lands events on the right lane under the right job
//!    without threading a handle through every call. The ring keeps its own
//!    dispatch/ok/fail marks beside the job logs' records because it answers
//!    a different question — the last moments across jobs, including a task
//!    that was dispatched and never came back — and is fault-diagnosis
//!    state, bounded whatever the uptime. When a job fails, a
//!    probe detects corruption, a deadline is missed, or shed fires, the
//!    serve tier dumps [`FlightRecorder::chrome_trace_fragment`] — a
//!    self-contained chrome-trace JSON of the last moments before the event.
//!
//! [`MultiFrontier`]: crate::MultiFrontier

use std::cell::Cell;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use ca_telemetry::{Counter, Registry, Ring};

use crate::task::TaskLabel;
use crate::trace::{trace_args, TraceEvents};

// ---------------------------------------------------------------------------
// Global scheduler counters
// ---------------------------------------------------------------------------

/// Process-wide scheduler counters: a fold of every finished job's log.
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Tasks handed to a worker, counted when their job finishes.
    pub tasks_dispatched: Arc<Counter>,
    /// Tasks that ran to completion.
    pub tasks_completed: Arc<Counter>,
    /// Tasks whose body returned an error or panicked.
    pub tasks_failed: Arc<Counter>,
    /// Jobs admitted: `MultiFrontier` submissions and one-shot runs.
    pub jobs_submitted: Arc<Counter>,
    /// Jobs that completed successfully.
    pub jobs_completed: Arc<Counter>,
    /// Jobs that failed.
    pub jobs_failed: Arc<Counter>,
    /// Jobs cancelled for any reason (user, deadline, shed, shutdown).
    pub jobs_cancelled: Arc<Counter>,
    /// Jobs cancelled specifically by load shedding.
    pub jobs_shed: Arc<Counter>,
    /// Jobs cancelled specifically by deadline expiry.
    pub jobs_deadline_missed: Arc<Counter>,
    /// Integrity probes run inside jobs ([`crate::RecoveryStats::probes`]).
    pub probes_run: Arc<Counter>,
    /// Of those, probes that detected corruption.
    pub probe_failures: Arc<Counter>,
}

/// The process-wide scheduler counter set.
pub fn sched_counters() -> &'static SchedCounters {
    static COUNTERS: OnceLock<SchedCounters> = OnceLock::new();
    COUNTERS.get_or_init(SchedCounters::default)
}

/// Registers the global counters in `registry` as `ca_sched_<name>_total`,
/// so its snapshots and exposition read them live (several registries may
/// adopt the same handles; each then sees the same monotone values).
pub fn register_sched_metrics(registry: &Registry) {
    let c = sched_counters();
    for (name, handle) in [
        ("tasks_dispatched", &c.tasks_dispatched),
        ("tasks_completed", &c.tasks_completed),
        ("tasks_failed", &c.tasks_failed),
        ("jobs_submitted", &c.jobs_submitted),
        ("jobs_completed", &c.jobs_completed),
        ("jobs_failed", &c.jobs_failed),
        ("jobs_cancelled", &c.jobs_cancelled),
        ("jobs_shed", &c.jobs_shed),
        ("jobs_deadline_missed", &c.jobs_deadline_missed),
        ("probes_run", &c.probes_run),
        ("probe_failures", &c.probe_failures),
    ] {
        let family = format!("ca_sched_{name}_total");
        registry.adopt_counter(&family, "Process-wide scheduler counter", &[], handle.clone());
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// What happened, compactly. Fieldless so the vendored serde derive applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FlightEventKind {
    /// A task was handed to this worker.
    Dispatch,
    /// The task body completed successfully.
    TaskOk,
    /// The task body returned an error or panicked.
    TaskFail,
    /// The recovery layer is replaying the task.
    Retry,
    /// The task's write-set was restored before a replay.
    Restore,
    /// An active chaos plan injected a fault into the task.
    Inject,
    /// A job was submitted.
    JobSubmit,
    /// A job completed successfully.
    JobDone,
    /// A job failed permanently.
    JobFail,
    /// A job was cancelled by load shedding.
    JobShed,
    /// A job was cancelled by deadline expiry.
    JobDeadline,
    /// A job was cancelled (user or shutdown).
    JobCancel,
    /// A post-completion integrity probe detected corruption.
    ProbeCorrupt,
}

impl FlightEventKind {
    fn name(self) -> &'static str {
        match self {
            FlightEventKind::Dispatch => "dispatch",
            FlightEventKind::TaskOk => "task_ok",
            FlightEventKind::TaskFail => "task_fail",
            FlightEventKind::Retry => "retry",
            FlightEventKind::Restore => "restore",
            FlightEventKind::Inject => "inject",
            FlightEventKind::JobSubmit => "job_submit",
            FlightEventKind::JobDone => "job_done",
            FlightEventKind::JobFail => "job_fail",
            FlightEventKind::JobShed => "job_shed",
            FlightEventKind::JobDeadline => "job_deadline",
            FlightEventKind::JobCancel => "job_cancel",
            FlightEventKind::ProbeCorrupt => "probe_corrupt",
        }
    }
}

/// One flight-recorder entry.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Seconds since the recorder was created.
    pub t: f64,
    /// Event class.
    pub kind: FlightEventKind,
    /// Owning job id (0 for one-shot executors).
    pub job: u64,
    /// Task identity, when the event concerns a task.
    pub label: Option<TaskLabel>,
}

/// Per-worker bounded rings of recent scheduler events.
///
/// Lane `nworkers` (one past the worker lanes) collects events from
/// non-worker threads — submissions, job completions delivered on the
/// caller's thread, and shed/deadline sweeps.
pub struct FlightRecorder {
    lanes: Vec<Ring<FlightEvent>>,
    epoch: Instant,
    depth: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlightRecorder({} lanes x {})", self.lanes.len(), self.depth)
    }
}

thread_local! {
    static CURRENT_LANE: Cell<usize> = const { Cell::new(usize::MAX) };
    static CURRENT_JOB: Cell<u64> = const { Cell::new(0) };
    static CURRENT_RECORDER: std::cell::RefCell<Weak<FlightRecorder>> =
        const { std::cell::RefCell::new(Weak::new()) };
}

/// Publishes `recorder`/`lane` as this thread's flight-recorder context, so
/// that [`record_event`] calls made anywhere below (e.g. inside the retry
/// wrapper) land on this worker's ring. Called by each `MultiFrontier` worker
/// once, the first time it sees a recorder attached; passing a dead `Weak`
/// clears the context.
pub(crate) fn set_thread_recorder(recorder: Weak<FlightRecorder>, lane: usize) {
    CURRENT_LANE.with(|l| l.set(lane));
    CURRENT_RECORDER.with(|r| *r.borrow_mut() = recorder);
}

/// Publishes the job whose task this worker thread is about to run: the
/// job [`record_event`] attributes its events to. Called once per claim.
pub(crate) fn set_thread_job(job: u64) {
    CURRENT_JOB.set(job);
}

/// Records an event on the current thread's lane, under the job of the task
/// the thread is running, if a recorder is attached.
///
/// The fast path for uninstrumented threads is a thread-local read and a
/// `Weak::upgrade` miss; no allocation, no lock.
pub(crate) fn record_event(kind: FlightEventKind, label: Option<TaskLabel>) {
    CURRENT_RECORDER.with(|r| {
        if let Some(rec) = r.borrow().upgrade() {
            rec.record(CURRENT_LANE.get(), kind, CURRENT_JOB.get(), label);
        }
    });
}

impl FlightRecorder {
    /// Creates a recorder with `nworkers + 1` lanes, each retaining the most
    /// recent `depth` events.
    pub fn new(nworkers: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        Self {
            lanes: (0..=nworkers).map(|_| Ring::new(depth)).collect(),
            epoch: Instant::now(),
            depth,
        }
    }

    /// Number of worker lanes (excluding the external lane).
    pub fn nworkers(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Records an event on `lane` (out-of-range lanes fold into the external
    /// lane), stamped with the recorder's own clock.
    pub fn record(&self, lane: usize, kind: FlightEventKind, job: u64, label: Option<TaskLabel>) {
        let lane = lane.min(self.lanes.len() - 1);
        self.lanes[lane].push(FlightEvent {
            t: self.epoch.elapsed().as_secs_f64(),
            kind,
            job,
            label,
        });
    }

    /// Total events evicted across all lanes (how much history was lost).
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped()).sum()
    }

    /// Total events currently retained.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the retained events as a self-contained chrome-trace JSON
    /// fragment: instant events (`ph:"i"`) on one `tid` per lane, plus
    /// thread-name metadata and a top-level `trigger` field naming the
    /// failure class that caused the dump. Within each lane, timestamps are
    /// monotone because the ring preserves insertion order.
    pub fn chrome_trace_fragment(&self, trigger: &str) -> String {
        let external = self.lanes.len() - 1;
        let mut events = TraceEvents::new((0..=external).map(|lane| {
            if lane == external {
                "external".to_string()
            } else {
                format!("worker-{lane}")
            }
        }));
        for (lane, ring) in self.lanes.iter().enumerate() {
            for ev in ring.snapshot() {
                let name = match ev.label {
                    Some(l) => format!("{} {}", ev.kind.name(), l),
                    None => ev.kind.name().to_string(),
                };
                let on_lane = [("cat", "flight".into()), ("s", "t".into()), ("tid", lane.into())];
                let fields = on_lane.into_iter().chain([trace_args("job", ev.job.into())]);
                events.push("i", &name, Some(ev.t), fields);
            }
        }
        let doc = serde_json::Value::Object(vec![
            ("trigger".to_string(), serde_json::Value::from(trigger)),
            ("dropped".to_string(), serde_json::Value::from(self.dropped() as f64)),
            ("traceEvents".to_string(), serde_json::Value::Array(events.0)),
        ]);
        serde_json::to_string(&doc).expect("flight fragment serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel};
    use std::sync::Arc;

    #[test]
    fn registered_sched_counters_are_read_live_and_monotone() {
        let value = |reg: &Registry| {
            let snap = reg.snapshot();
            assert_eq!(snap.families.len(), 11);
            let fam = snap.families.iter().find(|f| f.name == "ca_sched_jobs_completed_total");
            match fam.expect("family registered").series[0].value {
                ca_telemetry::SeriesValue::Counter(v) => v,
                ref other => panic!("unexpected {other:?}"),
            }
        };
        let (a, b) = (Registry::new(), Registry::new());
        register_sched_metrics(&a);
        register_sched_metrics(&b);
        let before = value(&a);
        crate::execute(crate::TaskGraph::new(), 1); // a job, delivered
        assert!(value(&a) > before, "snapshot reads the live atomic");
        assert!(value(&b) > before, "a second registry adopts the same handle");
    }

    #[test]
    fn recorder_keeps_depth_most_recent_events_per_lane() {
        let rec = FlightRecorder::new(2, 4);
        for i in 0..10 {
            rec.record(0, FlightEventKind::Dispatch, i, None);
        }
        rec.record(7, FlightEventKind::JobSubmit, 1, None); // folds to external
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.nworkers(), 2);
    }

    #[test]
    fn thread_recorder_context_routes_events() {
        let rec = Arc::new(FlightRecorder::new(1, 8));
        set_thread_recorder(Arc::downgrade(&rec), 0);
        set_thread_job(42);
        record_event(FlightEventKind::Retry, Some(TaskLabel::new(TaskKind::Panel, 0, 0, 0)));
        set_thread_recorder(Weak::new(), usize::MAX);
        record_event(FlightEventKind::Retry, None); // no recorder: dropped
        assert_eq!(rec.len(), 1);
        let evs = rec.lanes[0].snapshot();
        assert_eq!(evs[0].job, 42);
        assert_eq!(evs[0].kind, FlightEventKind::Retry);
    }

    #[test]
    fn fragment_is_valid_json_with_monotone_lane_timestamps() {
        let rec = FlightRecorder::new(2, 16);
        for i in 0..6 {
            rec.record(i % 2, FlightEventKind::Dispatch, i as u64, None);
            rec.record(i % 2, FlightEventKind::TaskOk, i as u64, None);
        }
        let frag = rec.chrome_trace_fragment("job_fail");
        let doc: serde_json::Value = serde_json::from_str(&frag).unwrap();
        assert_eq!(doc.get("trigger").and_then(|t| t.as_str()), Some("job_fail"));
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let mut last_ts = [f64::NEG_INFINITY; 4];
        for ev in events {
            if ev.get("ph").and_then(|p| p.as_str()) != Some("i") {
                continue;
            }
            let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap() as usize;
            let ts = ev.get("ts").and_then(|t| t.as_f64()).unwrap();
            assert!(ts >= last_ts[tid], "lane {tid} went backwards");
            last_ts[tid] = ts;
        }
    }
}

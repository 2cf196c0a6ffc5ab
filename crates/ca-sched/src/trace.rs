//! Execution timelines and Gantt-style rendering.
//!
//! Both the threaded executor and the multicore simulator produce a
//! [`Timeline`]; [`ascii_gantt`] renders it the way the paper's Figures 2–4
//! show executions (one lane per core, colored by task kind — here letters).

use crate::footprint::AccessMap;
use crate::task::{TaskId, TaskKind, TaskLabel};
use ca_matrix::ElemRect;
use serde_json::Value;

/// One executed task occurrence on one worker.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct Span {
    /// Task id in the source graph.
    pub task: TaskId,
    /// Task identity (kind, step, coordinates).
    pub label: TaskLabel,
    /// Start time in seconds from the beginning of the execution.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

/// A complete execution record: one span list per worker.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Timeline {
    /// Per-worker sequences of executed spans, ordered by start time.
    pub lanes: Vec<Vec<Span>>,
    /// Total wall time (max span end).
    pub makespan: f64,
}

impl Timeline {
    /// Creates an empty timeline with `nworkers` lanes.
    pub fn new(nworkers: usize) -> Self {
        Self { lanes: vec![Vec::new(); nworkers], makespan: 0.0 }
    }

    /// Number of workers.
    pub fn nworkers(&self) -> usize {
        self.lanes.len()
    }

    /// Total busy time across workers.
    pub fn busy_time(&self) -> f64 {
        self.lanes.iter().flatten().map(|s| s.end - s.start).sum()
    }

    /// Fraction of worker-time spent busy, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0.0 || self.lanes.is_empty() {
            return 0.0;
        }
        self.busy_time() / (self.makespan * self.lanes.len() as f64)
    }

    /// Checks internal consistency: spans within a lane do not overlap and
    /// are sorted; `makespan` covers every span. Returns the first violation
    /// instead of aborting, so library callers (and the profiler) can report
    /// malformed timelines as errors.
    pub fn check(&self) -> Result<(), TimelineError> {
        for (lane, spans) in self.lanes.iter().enumerate() {
            let mut prev_end = 0.0f64;
            for (index, s) in spans.iter().enumerate() {
                if s.end < s.start {
                    return Err(TimelineError::NegativeSpan { lane, index });
                }
                if s.start < prev_end - 1e-12 {
                    return Err(TimelineError::OverlappingSpans { lane, index });
                }
                if s.end > self.makespan + 1e-9 {
                    return Err(TimelineError::BeyondMakespan { lane, index });
                }
                prev_end = s.end;
            }
        }
        Ok(())
    }

    /// Panicking wrapper around [`Timeline::check`] for tests and asserts.
    ///
    /// # Panics
    /// On the first inconsistency found.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Post-hoc race check over a recorded execution: no two spans on
    /// *different* workers whose tasks declare overlapping write rects may
    /// overlap in time. Footprints come from `access` (resolved to element
    /// coordinates); time overlap must be strictly positive, so abutting
    /// spans are fine. Same-lane overlap is [`Timeline::check`]'s job.
    pub fn check_write_exclusion(&self, access: &AccessMap) -> Result<(), TimelineError> {
        let mut spans: Vec<(usize, &Span)> = self
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(lane, l)| l.iter().map(move |s| (lane, s)))
            .collect();
        spans.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
        // Sweep by start time, keeping the spans still live.
        let mut active: Vec<(usize, &Span)> = Vec::new();
        for (lane, s) in spans {
            active.retain(|(_, a)| a.end > s.start);
            let sw = access.writes(s.task);
            if !sw.is_empty() {
                for &(alane, a) in &active {
                    if alane == lane || s.end <= a.start {
                        continue;
                    }
                    for ra in access.writes(a.task) {
                        for rb in sw {
                            if let Some(rect) = ra.intersection(rb) {
                                return Err(TimelineError::ConcurrentWrites {
                                    first: a.task,
                                    second: s.task,
                                    rect,
                                });
                            }
                        }
                    }
                }
            }
            active.push((lane, s));
        }
        Ok(())
    }
}

/// A structural inconsistency in a [`Timeline`], reported by
/// [`Timeline::check`]. All variants carry the lane index and the index of
/// the offending span within that lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimelineError {
    /// A span starts before the previous span in its lane ended (or the
    /// lane is not sorted by start time).
    OverlappingSpans {
        /// Worker lane containing the violation.
        lane: usize,
        /// Index of the offending span within the lane.
        index: usize,
    },
    /// A span ends before it starts.
    NegativeSpan {
        /// Worker lane containing the violation.
        lane: usize,
        /// Index of the offending span within the lane.
        index: usize,
    },
    /// A span ends after the recorded makespan.
    BeyondMakespan {
        /// Worker lane containing the violation.
        lane: usize,
        /// Index of the offending span within the lane.
        index: usize,
    },
    /// Two tasks with overlapping declared write rects ran at the same time
    /// on different workers (reported by
    /// [`Timeline::check_write_exclusion`]).
    ConcurrentWrites {
        /// Task of the earlier-starting span.
        first: TaskId,
        /// Task of the later-starting span.
        second: TaskId,
        /// The overlapping part of their write footprints.
        rect: ElemRect,
    },
}

impl core::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TimelineError::OverlappingSpans { lane, index } => {
                write!(f, "overlapping spans in lane {lane} at span {index}")
            }
            TimelineError::NegativeSpan { lane, index } => {
                write!(f, "negative-length span in lane {lane} at span {index}")
            }
            TimelineError::BeyondMakespan { lane, index } => {
                write!(f, "span beyond makespan in lane {lane} at span {index}")
            }
            TimelineError::ConcurrentWrites { first, second, rect } => {
                write!(
                    f,
                    "tasks {first} and {second} write {rect} concurrently on different workers"
                )
            }
        }
    }
}

impl std::error::Error for TimelineError {}

/// Renders the timeline as an ASCII Gantt chart, one row per worker, `width`
/// character cells across; each cell shows the kind-letter of the task
/// occupying that instant ('.' = idle). Matches the reading of the paper's
/// Figures 3–4: red panel bars → `P`, L-computation → `L`, updates → `S`.
pub fn ascii_gantt(tl: &Timeline, width: usize) -> String {
    use core::fmt::Write;
    let mut out = String::new();
    if tl.makespan <= 0.0 || width == 0 {
        return out;
    }
    let dt = tl.makespan / width as f64;
    for (w, lane) in tl.lanes.iter().enumerate() {
        let mut row = vec!['.'; width];
        for s in lane {
            let c0 = ((s.start / dt).floor() as usize).min(width - 1);
            let c1 = ((s.end / dt).ceil() as usize).clamp(c0 + 1, width);
            for cell in &mut row[c0..c1] {
                *cell = s.label.kind.code();
            }
        }
        let _ = writeln!(out, "core {w:>2} |{}|", row.into_iter().collect::<String>());
    }
    let _ =
        writeln!(out, "makespan {:.4}s  utilization {:.1}%", tl.makespan, tl.utilization() * 100.0);
    out
}

/// Chrome-tracing category string for a task kind.
fn trace_category(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Panel => "panel",
        TaskKind::LBlock => "l-block",
        TaskKind::URow => "u-row",
        TaskKind::Update => "update",
        TaskKind::Swap => "swap",
        TaskKind::Other => "other",
    }
}

/// The one Chrome trace-event builder behind [`chrome_trace_json`],
/// [`chrome_trace_json_with_marks`], [`crate::Profile::chrome_trace`] and
/// [`crate::FlightRecorder::chrome_trace_fragment`]: track metadata, the
/// event envelope and spans are each written once, here. Seconds in, µs out.
pub(crate) struct TraceEvents(pub(crate) Vec<Value>);

type Field = (&'static str, Value);

/// The `args` field `{key: value}`.
pub(crate) fn trace_args(key: &str, value: Value) -> Field {
    ("args", Value::Object(vec![(key.to_string(), value)]))
}

impl TraceEvents {
    /// Starts a trace: the process name plus one named, ordered track per lane.
    pub(crate) fn new(lane_names: impl IntoIterator<Item = String>) -> Self {
        let mut events = Self(Vec::new());
        events.push("M", "process_name", None, [trace_args("name", "ca-factor".into())]);
        for (tid, name) in lane_names.into_iter().enumerate() {
            let (name, order) = (name.into(), trace_args("sort_index", tid.into()));
            events.push("M", "thread_name", None, [("tid", tid.into()), trace_args("name", name)]);
            events.push("M", "thread_sort_index", None, [("tid", tid.into()), order]);
        }
        events
    }

    /// One event of phase `ph` at `t` seconds (metadata has no time).
    pub(crate) fn push(
        &mut self,
        ph: &str,
        name: &str,
        t: Option<f64>,
        fields: impl IntoIterator<Item = Field>,
    ) {
        let head = [("name", name.into()), ("ph", ph.into()), ("pid", 1.into())];
        let fields = head.into_iter().chain(t.map(|t| ("ts", (t * 1e6).into()))).chain(fields);
        self.0.push(Value::Object(fields.map(|(k, v)| (k.to_string(), v)).collect()));
    }

    /// A complete-span (`ph: "X"`) event for one executed task.
    pub(crate) fn span(&mut self, tid: usize, s: &Span, args: Option<Value>) {
        let (cat, dur) = (trace_category(s.label.kind), (s.end - s.start) * 1e6);
        let fields = [("cat", cat.into()), ("dur", dur.into()), ("tid", tid.into())].into_iter();
        let name = s.label.to_string();
        self.push("X", &name, Some(s.start), fields.chain(args.map(|a| ("args", a))));
    }
}

/// Serializes the timeline in Chrome tracing ("trace event") JSON format —
/// load it at `chrome://tracing` or in Perfetto for an interactive view of
/// the schedule. Includes `process_name`/`thread_name` metadata records so
/// lanes are labelled "core N"; [`crate::Profile::chrome_trace`] extends
/// this format with flow events and counter tracks.
pub fn chrome_trace_json(tl: &Timeline) -> String {
    chrome_trace_json_with_marks(tl, &[])
}

/// Like [`chrome_trace_json`], with additional global instant events
/// (`ph: "i"`) at the given `(seconds, description)` marks — how the serving
/// layer shows recovery actions (job retries, probe hits) on the timeline.
pub fn chrome_trace_json_with_marks(tl: &Timeline, marks: &[(f64, String)]) -> String {
    let mut events = TraceEvents::new((0..tl.nworkers()).map(|w| format!("core {w}")));
    for (tid, lane) in tl.lanes.iter().enumerate() {
        for s in lane {
            events.span(tid, s, None);
        }
    }
    for (t, name) in marks {
        events.push("i", name, Some(*t), [("cat", "recovery".into()), ("s", "g".into())]);
    }
    serde_json::to_string(&events.0).expect("serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TaskKind, start: f64, end: f64) -> Span {
        Span { task: 0, label: TaskLabel::new(kind, 0, 0, 0), start, end }
    }

    #[test]
    fn utilization_of_fully_busy_timeline_is_one() {
        let mut tl = Timeline::new(2);
        tl.lanes[0].push(span(TaskKind::Panel, 0.0, 1.0));
        tl.lanes[1].push(span(TaskKind::Update, 0.0, 1.0));
        tl.makespan = 1.0;
        tl.validate();
        assert!((tl.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_idle_timeline() {
        let mut tl = Timeline::new(2);
        tl.lanes[0].push(span(TaskKind::Panel, 0.0, 2.0));
        tl.lanes[1].push(span(TaskKind::Update, 0.0, 1.0));
        tl.makespan = 2.0;
        assert!((tl.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gantt_marks_idle_and_busy_cells() {
        let mut tl = Timeline::new(1);
        tl.lanes[0].push(span(TaskKind::Panel, 0.0, 0.5));
        tl.makespan = 1.0;
        let g = ascii_gantt(&tl, 10);
        assert!(g.contains("PPPPP"));
        assert!(g.contains("....."));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_spans_and_metadata() {
        let mut tl = Timeline::new(2);
        tl.lanes[0].push(span(TaskKind::Panel, 0.0, 1.0));
        tl.lanes[1].push(span(TaskKind::Update, 0.5, 2.0));
        tl.makespan = 2.0;
        let json = chrome_trace_json(&tl);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        let spans: Vec<_> = arr.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1]["tid"], 1);
        assert_eq!(spans[1]["dur"], 1.5e6);
        // Metadata: one process_name plus thread_name/sort per lane.
        let metas: Vec<_> = arr.iter().filter(|e| e["ph"] == "M").collect();
        assert!(metas.iter().any(|e| e["name"] == "process_name"));
        assert!(metas.iter().any(|e| e["name"] == "thread_name" && e["args"]["name"] == "core 1"));
    }

    #[test]
    fn write_exclusion_flags_concurrent_writers_on_different_lanes() {
        let mut access = AccessMap::new(2, 2);
        access.record_write(0, ElemRect::new(0..1, 0..1));
        access.record_write(1, ElemRect::new(0..1, 0..1)); // same element as task 0
        access.record_write(2, ElemRect::new(1..2, 1..2)); // disjoint

        // Tasks 0 and 1 overlap in time on different lanes: race.
        let mut tl = Timeline::new(2);
        tl.lanes[0].push(Span {
            task: 0,
            label: TaskLabel::new(TaskKind::Panel, 0, 0, 0),
            start: 0.0,
            end: 1.0,
        });
        tl.lanes[1].push(Span {
            task: 1,
            label: TaskLabel::new(TaskKind::Panel, 0, 1, 0),
            start: 0.5,
            end: 1.5,
        });
        tl.makespan = 1.5;
        match tl.check_write_exclusion(&access) {
            Err(TimelineError::ConcurrentWrites { first, second, rect }) => {
                assert_eq!((first, second), (0, 1));
                assert_eq!(rect, ElemRect::new(0..1, 0..1));
            }
            other => panic!("expected ConcurrentWrites, got {other:?}"),
        }

        // Serialized in time: fine, even with identical footprints.
        tl.lanes[1][0].start = 1.0;
        tl.lanes[1][0].end = 2.0;
        tl.makespan = 2.0;
        assert_eq!(tl.check_write_exclusion(&access), Ok(()));

        // Concurrent but disjoint write rects: fine.
        let mut tl2 = Timeline::new(2);
        tl2.lanes[0].push(Span {
            task: 0,
            label: TaskLabel::new(TaskKind::Panel, 0, 0, 0),
            start: 0.0,
            end: 1.0,
        });
        tl2.lanes[1].push(Span {
            task: 2,
            label: TaskLabel::new(TaskKind::Update, 0, 0, 0),
            start: 0.0,
            end: 1.0,
        });
        tl2.makespan = 1.0;
        assert_eq!(tl2.check_write_exclusion(&access), Ok(()));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn validate_catches_overlap() {
        let mut tl = Timeline::new(1);
        tl.lanes[0].push(span(TaskKind::Panel, 0.0, 1.0));
        tl.lanes[0].push(span(TaskKind::Update, 0.5, 2.0));
        tl.makespan = 2.0;
        tl.validate();
    }

    #[test]
    fn check_reports_instead_of_panicking() {
        let mut tl = Timeline::new(2);
        tl.lanes[1].push(span(TaskKind::Panel, 0.0, 1.0));
        tl.lanes[1].push(span(TaskKind::Update, 0.5, 2.0));
        tl.makespan = 2.0;
        assert_eq!(tl.check(), Err(TimelineError::OverlappingSpans { lane: 1, index: 1 }));
        tl.lanes[1].truncate(1);
        assert_eq!(tl.check(), Ok(()));
        tl.lanes[0].push(span(TaskKind::Other, 1.0, 3.0));
        assert_eq!(tl.check(), Err(TimelineError::BeyondMakespan { lane: 0, index: 0 }));
        tl.lanes[0][0] = span(TaskKind::Other, 1.0, 0.5);
        assert_eq!(tl.check(), Err(TimelineError::NegativeSpan { lane: 0, index: 0 }));
    }
}

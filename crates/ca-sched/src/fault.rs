//! First-class task-failure semantics.
//!
//! Jobs return [`TaskResult`]; a failed (or panicking) task makes the
//! executor **cancel the transitive successors** of that task instead of
//! running them on garbage, drain every task that does not depend on the
//! failure, and report an [`ExecError`] identifying the failed task, its
//! label, the worker lane it ran on, and the set of cancelled tasks.
//! Failures are injected for testing with [`crate::ChaosPlan`].

use crate::task::{TaskId, TaskLabel};
use std::fmt;

/// Why a single task failed. Jobs return this; panics are caught by the
/// pool and converted into one.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Human-readable cause.
    pub message: String,
}

impl TaskFailure {
    /// Creates a failure with the given cause.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task failed: {}", self.message)
    }
}

impl std::error::Error for TaskFailure {}

impl From<String> for TaskFailure {
    fn from(message: String) -> Self {
        Self::new(message)
    }
}

impl From<&str> for TaskFailure {
    fn from(message: &str) -> Self {
        Self::new(message)
    }
}

/// What a job returns: `Ok(())` or a failure the pool turns into
/// cancellation of the task's transitive successors.
pub type TaskResult = Result<(), TaskFailure>;

/// The outcome of a graph execution that hit a failing task. Carries enough
/// identity to log, retry, or surface the failure upstream.
#[derive(Clone, Debug)]
pub struct ExecError {
    /// Id of the first task that failed.
    pub task: TaskId,
    /// Label of the failed task.
    pub label: TaskLabel,
    /// Worker lane the failed task ran on.
    pub lane: usize,
    /// Failure message (panic payload text or `TaskFailure` message).
    pub message: String,
    /// Whether the task panicked (vs. returning `Err`).
    pub panicked: bool,
    /// Every task cancelled because it transitively depended on a failed
    /// task (sorted, deduplicated; may span several failed tasks).
    pub cancelled: Vec<TaskId>,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} ({:?}) {} on worker {}: {} ({} successor task(s) cancelled)",
            self.task,
            self.label,
            if self.panicked { "panicked" } else { "failed" },
            self.lane,
            self.message,
            self.cancelled.len(),
        )
    }
}

impl std::error::Error for ExecError {}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(v) = payload.downcast_ref::<crate::lease::LeaseViolation>() {
        v.0.clone()
    } else {
        "task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel};

    fn label(step: usize) -> TaskLabel {
        TaskLabel::new(TaskKind::Panel, step, 0, 0)
    }

    #[test]
    fn exec_error_display_names_the_task() {
        let err = ExecError {
            task: 42,
            label: label(3),
            lane: 1,
            message: "boom".to_string(),
            panicked: true,
            cancelled: vec![43, 44],
        };
        let text = err.to_string();
        assert!(text.contains("42") && text.contains("boom") && text.contains("2 successor"));
    }
}

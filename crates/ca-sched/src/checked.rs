//! Checked execution mode: the executor, wrapped by the race detector.
//!
//! A checked run composes three layers:
//!
//! 1. [`crate::verify_graph`] statically proves the graph + declared
//!    footprints sound before anything executes;
//! 2. [`build_shadow_registry`] hands each task's declared rects
//!    ([`AccessMap`]) to a [`ShadowRegistry`] as its [`TaskFootprint`];
//! 3. each job runs inside a [`ShadowRegistry::enter_task`] scope (put there
//!    by [`crate::plan_jobs`], or [`crate::RunOptions::shadow`] for a raw
//!    graph), so every `SharedMatrix` block accessor audits its element range
//!    against the task's declaration and every concurrently live lease.
//!
//! The discrete-event simulator never touches matrix data, so its checked
//! mode ([`crate::SimOptions::access`]) is the static verification plus a
//! write-exclusion check of the simulated timeline.

use crate::fault::ExecError;
use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::verify::SoundnessError;
use ca_matrix::{ShadowRegistry, ShadowViolation, TaskFootprint};
use std::sync::Arc;

/// Failure of a checked run: either the run itself failed (panic/injected
/// fault) or the race detector found a soundness violation.
#[derive(Debug)]
pub enum CheckedError {
    /// The underlying execution failed.
    Exec(ExecError),
    /// The shadow registry (or the static verifier) found a violation.
    Soundness(SoundnessError),
}

impl core::fmt::Display for CheckedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Exec(e) => write!(f, "{e}"),
            Self::Soundness(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckedError {}

/// Builds the element-level shadow registry for `graph`'s tasks from their
/// declared footprints in `access`.
pub fn build_shadow_registry<T>(graph: &TaskGraph<T>, access: &AccessMap) -> Arc<ShadowRegistry> {
    let (footprints, labels) = (0..graph.len())
        .map(|t| {
            let footprint =
                TaskFootprint { reads: access.reads(t).to_vec(), writes: access.writes(t).to_vec() };
            (footprint, graph.meta(t).label.to_string())
        })
        .unzip();
    Arc::new(ShadowRegistry::new(footprints, labels))
}

/// Maps the first recorded shadow violation (if any) to a soundness error.
pub(crate) fn first_violation(registry: &ShadowRegistry) -> Option<SoundnessError> {
    registry.take_violations().into_iter().next().map(|v| match v {
        ShadowViolation::Undeclared { label, write, rect, .. } => SoundnessError::UndeclaredAccess {
            task: label,
            write,
            rows: (rect.row0, rect.row1),
            cols: (rect.col0, rect.col1),
        },
        v @ ShadowViolation::Overlap { .. } => {
            // Report the *intersection* of the two leases — the element
            // rectangle actually raced on — so the dynamic report lines up
            // with the static verifier's rect conflicts.
            let rect = v.conflict_rect().expect("overlap has a conflict rect");
            let ShadowViolation::Overlap { first_label, second_label, .. } = v else {
                unreachable!()
            };
            SoundnessError::Race {
                first: first_label,
                second: second_label,
                rows: (rect.row0, rect.row1),
                cols: (rect.col0, rect.col1),
            }
        }
    })
}

#[cfg(test)]
// Tests drive raw block accesses on purpose (including deliberately bad
// ones) to prove the shadow registry catches them.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::blockdeps::BlockTracker;
    use crate::exec::{execute, job, Job, RunOptions};
    use crate::task::{TaskKind, TaskLabel, TaskMeta};
    use ca_matrix::{ElemRect, Matrix, SharedMatrix};
    use std::sync::Barrier;

    fn meta(kind: TaskKind, step: usize, i: usize) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(kind, step, i, 0), 1.0)
    }

    fn run_checked<'s>(
        jobs: TaskGraph<Job<'s>>,
        nthreads: usize,
        registry: &'s Arc<ShadowRegistry>,
    ) -> Result<usize, CheckedError> {
        let opts = RunOptions { shadow: Some(registry), ..Default::default() };
        execute(jobs, nthreads, &opts).into_result().map(|report| report.stats.tasks)
    }

    #[test]
    fn clean_graph_executes_without_violations() {
        // Two writers of disjoint blocks, then a reader of both.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 4);
        let w0 = g.add_task(meta(TaskKind::Panel, 0, 0), ());
        t.write(&mut g, w0, 0..1, 0..1);
        let w1 = g.add_task(meta(TaskKind::Panel, 0, 1), ());
        t.write(&mut g, w1, 1..2, 0..1);
        let r = g.add_task(meta(TaskKind::Update, 0, 0), ());
        t.read(&mut g, r, 0..2, 0..1);
        let access = t.into_access_map();

        let reg = build_shadow_registry(&g, &access);
        let shared = SharedMatrix::with_shadow(Matrix::zeros(8, 4), Arc::clone(&reg));
        let a = &shared;
        let jobs = g.map_ref(|id, _| match id {
            0 => job(move || unsafe { a.block_mut(0, 0, 4, 4).fill(1.0) }),
            1 => job(move || unsafe { a.block_mut(4, 0, 4, 4).fill(2.0) }),
            _ => job(move || {
                let v = unsafe { a.block(0, 0, 8, 4) };
                assert_eq!(v.at(0, 0) + v.at(4, 0), 3.0);
            }),
        });
        assert_eq!(run_checked(jobs, 2, &reg).expect("sound run"), 3);
        assert!(reg.accesses() >= 3);
    }

    #[test]
    fn out_of_footprint_write_is_reported_with_label() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 4);
        let w = g.add_task(meta(TaskKind::Panel, 0, 0), ());
        t.write(&mut g, w, 0..1, 0..1); // declares rows 0..4 only
        let access = t.into_access_map();

        let reg = build_shadow_registry(&g, &access);
        let shared = SharedMatrix::with_shadow(Matrix::zeros(8, 4), Arc::clone(&reg));
        let a = &shared;
        let jobs = g.map_ref(|_, _| {
            job(move || unsafe { a.block_mut(4, 0, 4, 4).fill(9.0) }) // writes rows 4..8
        });
        match run_checked(jobs, 1, &reg) {
            Err(CheckedError::Soundness(SoundnessError::UndeclaredAccess {
                task, write, rows, ..
            })) => {
                assert_eq!(task, TaskLabel::new(TaskKind::Panel, 0, 0, 0).to_string());
                assert!(write);
                assert_eq!(rows, (4, 8));
            }
            other => panic!("expected UndeclaredAccess, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_overlapping_writes_are_reported_as_race() {
        // Two root tasks, no ordering edge, both declaring + performing a
        // write of block (0,0). A barrier forces their leases to be live
        // simultaneously so the detection is deterministic.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a_id = g.add_task(meta(TaskKind::Panel, 0, 0), ());
        let b_id = g.add_task(meta(TaskKind::Panel, 0, 1), ());
        let mut access = AccessMap::new(4, 4);
        access.record_write(a_id, ElemRect::new(0..4, 0..4));
        access.record_write(b_id, ElemRect::new(0..4, 0..4));

        let reg = build_shadow_registry(&g, &access);
        let shared = SharedMatrix::with_shadow(Matrix::zeros(4, 4), Arc::clone(&reg));
        let a = &shared;
        let barrier = Barrier::new(2);
        let bref = &barrier;
        let jobs = g.map_ref(|_, _| {
            job(move || {
                bref.wait(); // both tasks running
                let mut v = unsafe { a.block_mut(0, 0, 4, 4) };
                bref.wait(); // both leases taken before either releases
                v.fill(1.0);
            })
        });
        match run_checked(jobs, 2, &reg) {
            Err(CheckedError::Soundness(SoundnessError::Race { first, second, .. })) => {
                let labels = [first, second];
                assert!(labels.contains(&"P[0,0,0]".to_string()), "labels: {labels:?}");
                assert!(labels.contains(&"P[0,1,0]".to_string()), "labels: {labels:?}");
            }
            other => panic!("expected Race, got {other:?}"),
        }
    }
}

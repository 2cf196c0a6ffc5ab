//! Checked execution mode: a plan's jobs, wrapped by the race detector.
//!
//! A checked run ([`crate::FactorOptions::checked`]) composes three layers,
//! all applied by [`crate::plan_jobs`]:
//!
//! 1. [`crate::verify_graph`] statically proves the graph + declared
//!    footprints sound before anything executes;
//! 2. [`build_shadow_registry`] hands each task's declared matrix rects
//!    ([`AccessMap::matrix_reads`], [`AccessMap::matrix_writes`]) to a
//!    [`ShadowRegistry`] as its [`TaskFootprint`]; slots bypass the
//!    matrix, so they have no leases to audit;
//! 3. each job runs inside a [`ShadowRegistry::enter_task`] scope, so every
//!    `SharedMatrix` block accessor audits its element range against the
//!    task's declaration and every concurrently live lease.
//!
//! The discrete-event simulator never touches matrix data, so it has no
//! checked mode of its own: a caller composes [`crate::verify_graph`],
//! [`crate::simulate`] and [`crate::Timeline::check_write_exclusion`].

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
pub(crate) fn build_shadow_registry<T>(graph: &TaskGraph<T>, access: &AccessMap) -> Arc<ShadowRegistry> {
    let (footprints, labels) = (0..graph.len())
        .map(|t| {
            let (reads, writes) = (access.matrix_reads(t).to_vec(), access.matrix_writes(t).to_vec());
            let footprint = TaskFootprint { reads, writes };
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
    use crate::plan::{run_plan, FactorOptions, PlanBuilder};
    use crate::task::{TaskKind, TaskLabel, TaskMeta};
    use ca_matrix::{ElemRect, Matrix};

    fn meta(kind: TaskKind, step: usize, i: usize) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(kind, step, i, 0), 1.0)
    }

    const CHECKED: FactorOptions = FactorOptions { chaos: None, retry: None, checked: true };

    #[test]
    fn clean_plan_runs_checked_without_violations() {
        // Two writers of disjoint blocks, then a reader of both.
        let mut pb = PlanBuilder::<f64, ()>::new(4, 8, 4);
        let w0 = pb.task(meta(TaskKind::Panel, 0, 0), |a, _| unsafe { a.block_mut(0, 0, 4, 4).fill(1.0) });
        pb.writes(w0, 0..1, 0..1);
        let w1 = pb.task(meta(TaskKind::Panel, 0, 1), |a, _| unsafe { a.block_mut(4, 0, 4, 4).fill(2.0) });
        pb.writes(w1, 1..2, 0..1);
        let r = pb.task(meta(TaskKind::Update, 0, 0), |a, _| {
            let v = unsafe { a.block(0, 0, 8, 4) };
            assert_eq!(v.at(0, 0) + v.at(4, 0), 3.0);
        });
        pb.reads(r, 0..2, 0..1);
        let plan = pb.finish((), |a, ()| a);
        let (a, report) = run_plan(plan, Matrix::zeros(8, 4), 2, &CHECKED).expect("sound run");
        assert_eq!(report.stats.tasks, 3);
        assert_eq!((a[(0, 0)], a[(7, 3)]), (1.0, 2.0));
    }

    #[test]
    fn out_of_footprint_write_is_reported_with_label() {
        let mut pb = PlanBuilder::<f64, ()>::new(4, 8, 4);
        // Declares rows 0..4 only, writes rows 4..8.
        let w = pb.task(meta(TaskKind::Panel, 0, 0), |a, _| unsafe { a.block_mut(4, 0, 4, 4).fill(9.0) });
        pb.writes(w, 0..1, 0..1);
        let plan = pb.finish((), |a, ()| a);
        match run_plan(plan, Matrix::zeros(8, 4), 1, &CHECKED) {
            Err(CheckedError::Soundness(SoundnessError::UndeclaredAccess {
                task, write, rows, ..
            })) => {
                assert_eq!(task, TaskLabel::new(TaskKind::Panel, 0, 0, 0).to_string());
                assert!(write);
                assert_eq!(rows, (4, 8));
            }
            other => panic!("expected UndeclaredAccess, got {:?}", other.err()),
        }
    }

    #[test]
    fn overlapping_live_leases_are_reported_as_a_race_on_their_intersection() {
        // Two unordered tasks both declaring a write of the same block; the
        // second takes its lease while the first still holds its own.
        let mut access = AccessMap::new(8, 8);
        access.record_write(0, ElemRect::new(0..4, 0..4));
        access.record_write(1, ElemRect::new(2..6, 2..6));
        let mut g: TaskGraph<()> = TaskGraph::new();
        g.add_task(meta(TaskKind::Panel, 0, 0), ());
        g.add_task(meta(TaskKind::Panel, 0, 1), ());
        let reg = build_shadow_registry(&g, &access);
        let first = reg.enter_task(0);
        reg.on_access(true, 0..4, 0..4);
        {
            let _second = reg.enter_task(1);
            reg.on_access(true, 2..6, 2..6);
        }
        drop(first);
        match first_violation(&reg) {
            Some(SoundnessError::Race { first, second, rows, cols }) => {
                assert_eq!((first.as_str(), second.as_str()), ("P[0,0,0]", "P[0,1,0]"));
                assert_eq!((rows, cols), ((2, 4), (2, 4)), "the intersection of the leases");
            }
            other => panic!("expected Race, got {other:?}"),
        }
        assert!(first_violation(&reg).is_none(), "violations are drained");
    }
}

//! Checked execution mode: a plan's graph proven sound before it runs.
//!
//! A checked run ([`crate::FactorOptions::checked`]) first has
//! [`crate::verify_graph`] prove that every pair of tasks whose declared
//! footprints conflict is ordered by a happens-before path. That a body
//! touches only what its task declared needs no mode: every run checks it,
//! as each body opens the matrix and the slots through its leases
//! ([`crate::TaskCx`]). So a plan whose graph verifies cannot race.
//!
//! The discrete-event simulator never touches matrix data, so it has no
//! checked mode of its own: a caller composes [`crate::verify_graph`],
//! [`crate::simulate`] and [`crate::Timeline::check_write_exclusion`].

use crate::fault::ExecError;
use crate::verify::SoundnessError;

/// Failure of a plan run: either the run itself failed (panic/injected
/// fault) or it was unsound (the static verifier refused the graph, or a
/// body broke its lease).
#[derive(Debug)]
pub enum CheckedError {
    /// The underlying execution failed.
    Exec(ExecError),
    /// The static verifier or a body's lease found a violation.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{run_plan, FactorOptions, PlanBuilder};
    use crate::task::{TaskKind, TaskLabel, TaskMeta};
    use ca_matrix::Matrix;

    fn meta(kind: TaskKind, step: usize, i: usize) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(kind, step, i, 0), 1.0)
    }

    const CHECKED: FactorOptions = FactorOptions { chaos: None, retry: None, checked: true };

    #[test]
    fn clean_plan_runs_checked_without_violations() {
        // Two writers of disjoint blocks, then a reader of both.
        let mut pb = PlanBuilder::<f64>::new(4, 8, 4);
        for (i, v) in [(0, 1.0), (1, 2.0)] {
            let mut w = pb.task(meta(TaskKind::Panel, 0, i));
            let block = w.writes(i..i + 1, 0..1);
            w.run(move |cx| cx.view_mut(block).fill(v));
        }
        let mut r = pb.task(meta(TaskKind::Update, 0, 0));
        let both = r.reads(0..2, 0..1);
        r.run(move |cx| {
            let v = cx.view(both);
            assert_eq!(v.at(0, 0) + v.at(4, 0), 3.0);
        });
        let plan = pb.finish(|a, _| Some(a));
        let (a, report) = run_plan(plan, Matrix::zeros(8, 4), 2, &CHECKED).expect("sound run");
        assert_eq!(report.stats.tasks, 3);
        assert_eq!((a[(0, 0)], a[(7, 3)]), (1.0, 2.0));
    }

    #[test]
    fn out_of_footprint_write_is_reported_with_label_checked_or_not() {
        for opts in [CHECKED, FactorOptions::default()] {
            let mut pb = PlanBuilder::<f64>::new(4, 8, 4);
            // Declares rows 0..4 only, writes rows 4..8.
            let mut w = pb.task(meta(TaskKind::Panel, 0, 0));
            let top = w.writes(0..1, 0..1);
            w.run(move |cx| cx.view_mut(top.block(4, 0, 4, 4)).fill(9.0));
            let plan = pb.finish(|a, _| Some(a));
            match run_plan(plan, Matrix::zeros(8, 4), 1, &opts) {
                Err(CheckedError::Soundness(SoundnessError::UndeclaredAccess {
                    task,
                    write,
                    rows,
                    ..
                })) => {
                    assert_eq!(task, TaskLabel::new(TaskKind::Panel, 0, 0, 0).to_string());
                    assert!(write);
                    assert_eq!(rows, (4, 8));
                }
                other => panic!("expected UndeclaredAccess, got {:?}", other.err()),
            }
        }
    }
}

//! Task-graph construction and parallel execution of multithreaded CAQR
//! (Algorithm 2 of the paper).
//!
//! Tasks:
//! * `P` — leaf QR of a row group (line 8) and reduction-node QR of stacked
//!   `R` factors (line 19);
//! * `S` — trailing updates: per (group × block column) compact-WY
//!   application for leaves (line 11), per (node × block column) stacked
//!   application for tree nodes (line 26).
//!
//! Unlike CALU there is no second panel factorization and no pivoting: the
//! reduction tree itself drives the trailing update. Over PLASMA's tile
//! chain instead of a tree ([`CaqrPlan::build_with`]), the same builder is
//! the `PLASMA_dgeqrf` stand-in.

use crate::caqr::QrFactors;
use crate::params::{num_panels, partition_rows, CaParams, RowPartition};
use crate::tsqr::{eliminate, leaf_apply, leaf_qr, node_apply, plan_panel, LeafQ, NodeQ, PanelPlan, PanelQ};
use ca_kernels::{flops, traffic};
use ca_kernels::{Kernel, Trans, VRest};
use ca_matrix::Scalar;
use ca_sched::{row_blocks, KernelClass, Plan, PlanBuilder, TaskGraph, TaskKind, TaskLabel, TaskMeta};
use std::sync::OnceLock;

/// What the tasks of one panel leave behind at run time: a [`PanelQ`] whose
/// leaves and nodes are still slots.
struct PanelSlots<T: Scalar> {
    k0: usize,
    w: usize,
    k: usize,
    leaves: Vec<OnceLock<LeafQ<T>>>,
    nodes: Vec<OnceLock<NodeQ<T>>>,
}

/// The run-time slots of a CAQR plan, one entry per panel. Only they are
/// typed; graph, footprints and geometry are the same for every `T`.
pub struct CaqrSlots<T: Scalar>(Vec<PanelSlots<T>>);

fn prio(nsteps: usize, step: usize, lookahead: bool, kind: TaskKind, jblk: usize) -> i64 {
    let critical = ((nsteps - step) as i64) * 1000;
    match kind {
        TaskKind::Panel => critical + 900,
        TaskKind::Update => {
            if lookahead && jblk == step + 1 {
                critical + 800
            } else {
                critical - 500
            }
        }
        _ => 0,
    }
}

/// Builder of the CAQR task DAG.
pub struct CaqrPlan;

impl CaqrPlan {
    /// Plan for an `m × n` matrix with parameters `p` (an empty matrix gets
    /// an empty graph): every panel eliminated by `p.tree`'s TSQR
    /// ([`plan_panel`]).
    pub fn build<T: Kernel>(m: usize, n: usize, p: &CaParams) -> Plan<T, CaqrSlots<T>, QrFactors<T>> {
        Self::build_with(m, n, p, |part, w| plan_panel(part, w, p.tree))
    }

    /// Plan whose panels follow the elimination lists `elims` makes from
    /// each panel's row partition and width — CAQR's tree or PLASMA's tile
    /// chain ([`crate::tsqr::ts_chain`]). The task bodies are the
    /// [`crate::tsqr`] helpers the sequential path runs, over the rows and
    /// columns declared beside them.
    pub fn build_with<T: Kernel>(
        m: usize,
        n: usize,
        p: &CaParams,
        elims: impl Fn(&RowPartition, usize) -> PanelPlan,
    ) -> Plan<T, CaqrSlots<T>, QrFactors<T>> {
        ca_sched::sched_counters().factor_graphs_built.inc();
        let b = p.b;
        let nsteps = num_panels(m, n, b);
        let nb = n.div_ceil(b);

        let mut pb = PlanBuilder::<T, CaqrSlots<T>>::new(b, m, n);
        let mut panels: Vec<PanelSlots<T>> = Vec::with_capacity(nsteps);

        for step in 0..nsteps {
            let k0 = step * b;
            let w = b.min(n - k0);
            let part = partition_rows(m, k0, b, p.tr);
            let g = part.ngroups();
            let PanelPlan { leaves, nodes } = elims(&part, w);
            let panel_prio = prio(nsteps, step, p.lookahead, TaskKind::Panel, step);
            // `(jblk, first column, columns, priority)` of each trailing
            // block column.
            let trailing: Vec<(usize, usize, usize, i64)> = (step + 1..nb)
                .map(|jblk| {
                    let pr = prio(nsteps, step, p.lookahead, TaskKind::Update, jblk);
                    (jblk, jblk * b, b.min(n - jblk * b), pr)
                })
                .collect();

            // --- Leaf QR tasks + their trailing updates.
            let mut leaf_slots = Vec::with_capacity(leaves.len());
            for (li, &grp) in leaves.iter().enumerate() {
                let rows = part.group(grp);
                let leaf_k = rows.len().min(w);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, step, grp, step),
                    flops::geqrf(rows.len(), leaf_k),
                )
                .with_bytes(traffic::geqr3(rows.len(), leaf_k))
                .with_priority(panel_prio)
                .with_class(KernelClass::QrRecursive);
                let leaf_rows = rows.clone();
                let id = pb.task(meta, move |a, s| {
                    let leaf = leaf_qr(a, k0, w, leaf_rows.clone());
                    s.0[step].leaves[li].set(leaf).expect("leaf ran twice");
                });
                pb.writes(id, row_blocks(rows, b), step..step + 1);
                let leaf = pb.slot();
                pb.writes_slot(id, leaf);
                leaf_slots.push(leaf);
            }
            for &(jblk, jc0, wj, pr) in &trailing {
                for (li, &grp) in leaves.iter().enumerate() {
                    let rows = part.group(grp);
                    let leaf_k = rows.len().min(w);
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, grp, jblk),
                        flops::larfb(rows.len(), wj, leaf_k),
                    )
                    .with_bytes(traffic::larfb(rows.len(), wj, leaf_k))
                    .with_priority(pr)
                    .with_class(KernelClass::Larfb);
                    let id = pb.task(meta, move |a, s| {
                        let leaf = s.0[step].leaves[li].get().expect("leaf T not ready");
                        leaf_apply(a, k0, leaf, a, jc0..jc0 + wj, Trans::Yes);
                    });
                    pb.reads_slot(id, leaf_slots[li]); // the LeafQ (T factor)
                    pb.reads(id, row_blocks(rows.clone(), b), step..step + 1);
                    pb.writes(id, row_blocks(rows, b), jblk..jblk + 1);
                }
            }

            // --- Node QR tasks + their trailing updates.
            let mut node_slots = Vec::with_capacity(nodes.len());
            for (ni, (plan, rest)) in nodes.iter().enumerate() {
                let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, step, g + ni, step),
                    flops::geqrf(s.max(plan.kk), plan.kk),
                )
                .with_bytes(traffic::geqr3(s.max(plan.kk), plan.kk))
                .with_priority(panel_prio)
                .with_class(KernelClass::QrRecursive);
                let (node_plan, rest) = (plan.clone(), *rest);
                let id = pb.task(meta, move |a, s| {
                    let nq = eliminate(a, k0, w, &node_plan, rest);
                    s.0[step].nodes[ni].set(nq).expect("node ran twice");
                });
                // Reads + writes the participants' top block rows of the panel.
                for r in &plan.row_ranges {
                    pb.writes(id, row_blocks(r.clone(), b), step..step + 1);
                }
                let node = pb.slot();
                pb.writes_slot(id, node);
                node_slots.push(node);
            }
            for (ni, (plan, rest)) in nodes.iter().enumerate() {
                // `node_apply` is the structured form: identity top block,
                // dense (TS) or upper-trapezoidal (TT) blocks below it.
                let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
                let v_len: usize = plan.row_ranges[1..]
                    .iter()
                    .map(|r| match rest {
                        VRest::Dense => r.len() * plan.kk,
                        VRest::UpperTrapezoid => flops::upper_trapezoid_len(r.len(), plan.kk),
                    })
                    .sum();
                for &(jblk, jc0, wj, pr) in &trailing {
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, g + ni, jblk),
                        flops::larfb_node(v_len, wj, plan.kk),
                    )
                    .with_bytes(traffic::larfb_node(v_len, s, wj, plan.kk))
                    .with_priority(pr)
                    .with_class(KernelClass::Larfb);
                    let id = pb.task(meta, move |a, s| {
                        let nq = s.0[step].nodes[ni].get().expect("node V/T not ready");
                        node_apply(nq, a, jc0..jc0 + wj, Trans::Yes);
                    });
                    pb.reads_slot(id, node_slots[ni]); // the NodeQ (V, T scratch)
                    for r in &plan.row_ranges {
                        pb.writes(id, row_blocks(r.clone(), b), jblk..jblk + 1);
                    }
                }
            }

            panels.push(PanelSlots {
                k0,
                w,
                k: w.min(m - k0),
                leaves: (0..leaves.len()).map(|_| OnceLock::new()).collect(),
                nodes: (0..nodes.len()).map(|_| OnceLock::new()).collect(),
            });
        }

        pb.finish(CaqrSlots(panels), |a, s| {
            let full = |ctx: PanelSlots<T>| PanelQ {
                k0: ctx.k0,
                c0: ctx.k0,
                w: ctx.w,
                k: ctx.k,
                leaves: ctx.leaves.into_iter().map(|l| l.into_inner().expect("leaf missing")).collect(),
                nodes: ctx.nodes.into_iter().map(|n| n.into_inner().expect("node missing")).collect(),
            };
            QrFactors { a, panels: s.0.into_iter().map(full).collect() }
        })
    }
}

/// Builds just the task graph (for the multicore simulator and DAG figures).
pub fn caqr_task_graph(m: usize, n: usize, p: &CaParams) -> TaskGraph<()> {
    CaqrPlan::build::<f64>(m, n, p).into_parts().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caqr::caqr;
    use ca_matrix::seeded_rng;

    #[test]
    fn graph_is_valid() {
        let p = CaParams::new(100, 8, 8);
        let g = caqr_task_graph(1000, 500, &p);
        g.validate();
        assert!(g.total_flops() > 0.0);
        // QR flop count: within CA-overhead margin of the LAPACK count.
        let lapack = ca_kernels::flops::geqrf(1000, 500);
        let total = g.total_flops();
        assert!(total >= lapack * 0.9, "{total} vs {lapack}");
    }

    #[test]
    fn q_from_parallel_run_is_orthogonal() {
        let a0 = ca_matrix::random_uniform(200, 40, &mut seeded_rng(7));
        let f = caqr(a0, &CaParams::new(10, 4, 4));
        assert!(f.orthogonality() < 1e-11);
    }
}

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
use crate::tsqr::{
    eliminate, leaf_qr, node_apply_rows, plan_panel, LeafQ, NodeQ, PanelPlan, PanelQ,
};
use ca_kernels::{flops, traffic};
use ca_kernels::{larfb_left, Kernel, Trans, VRest};
use ca_matrix::Scalar;
use ca_sched::{
    row_blocks, KernelClass, Plan, PlanBuilder, Slot, TaskDecl, TaskGraph, TaskKind, TaskLabel,
    TaskMeta, Write,
};
use core::ops::Range;

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
    pub fn build<T: Kernel>(m: usize, n: usize, p: &CaParams) -> Plan<T, QrFactors<T>> {
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
    ) -> Plan<T, QrFactors<T>> {
        let b = p.b;
        let nsteps = num_panels(m, n, b);
        let nb = n.div_ceil(b);

        let mut pb = PlanBuilder::<T>::new(b, m, n);
        // Per panel: `(k0, w, k)` and the slots of its leaves and nodes.
        type Panel<T> = ((usize, usize, usize), Vec<Slot<LeafQ<T>>>, Vec<Slot<NodeQ<T>>>);
        let mut panels: Vec<Panel<T>> = Vec::with_capacity(nsteps);

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
            for &grp in &leaves {
                let rows = part.group(grp);
                let leaf_k = rows.len().min(w);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, step, grp, step),
                    flops::geqrf(rows.len(), leaf_k),
                )
                .with_bytes(traffic::geqr3(rows.len(), leaf_k))
                .with_priority(panel_prio)
                .with_class(KernelClass::QrRecursive);
                let leaf = pb.slot();
                let mut t = pb.task(meta);
                let blk = t.writes(row_blocks(rows.clone(), b), step..step + 1);
                let blk = blk.block(rows.start, k0, rows.len(), w);
                t.writes_slot(leaf);
                t.run(move |cx| cx.put(leaf, leaf_qr(cx.view_mut(blk), rows.clone())));
                leaf_slots.push(leaf);
            }
            for &(jblk, jc0, wj, pr) in &trailing {
                for (&grp, &leaf) in leaves.iter().zip(&leaf_slots) {
                    let rows = part.group(grp);
                    let leaf_k = rows.len().min(w);
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, grp, jblk),
                        flops::larfb(rows.len(), wj, leaf_k),
                    )
                    .with_bytes(traffic::larfb(rows.len(), wj, leaf_k))
                    .with_priority(pr)
                    .with_class(KernelClass::Larfb);
                    let mut t = pb.task(meta);
                    t.reads_slot(leaf); // the LeafQ (T factor)
                    let v = t.reads(row_blocks(rows.clone(), b), step..step + 1);
                    let c = t.writes(row_blocks(rows.clone(), b), jblk..jblk + 1);
                    let (r0, r) = (rows.start, rows.len());
                    t.run(move |cx| {
                        let leaf = cx.get(leaf);
                        let v = cx.view(v.block(r0, k0, r, leaf.kv));
                        larfb_left(
                            Trans::Yes,
                            v,
                            leaf.t.view(),
                            cx.view_mut(c.block(r0, jc0, r, wj)),
                        );
                    });
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
                let node = pb.slot();
                let mut t = pb.task(meta);
                // Reads + writes the participants' top block rows of the panel.
                let parts = participants(&mut t, &plan.row_ranges, b, step, k0, w);
                t.writes_slot(node);
                let (node_plan, rest) = (plan.clone(), *rest);
                t.run(move |cx| {
                    let below: Vec<_> = parts[1..].iter().map(|&h| cx.view(h)).collect();
                    cx.put(node, eliminate(cx.view_mut(parts[0]), &below, &node_plan, rest));
                });
                node_slots.push(node);
            }
            for (ni, ((plan, rest), &node)) in nodes.iter().zip(&node_slots).enumerate() {
                // `node_apply_rows` is the structured form: identity top
                // block, dense (TS) or upper-trapezoidal (TT) blocks below it.
                let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
                let v_len: usize = plan.row_ranges[1..]
                    .iter()
                    .map(|r| match rest {
                        VRest::Dense => r.len() * plan.kk,
                        VRest::UpperTrapezoid => flops::upper_trapezoid_len(r.len(), plan.kk),
                    })
                    .sum();
                for &(jblk, jc0, wj, pr) in &trailing {
                    let label = TaskLabel::new(TaskKind::Update, step, g + ni, jblk);
                    let meta = TaskMeta::new(label, flops::larfb_node(v_len, wj, plan.kk))
                        .with_bytes(traffic::larfb_node(v_len, s, wj, plan.kk))
                        .with_priority(pr)
                        .with_class(KernelClass::Larfb);
                    let mut t = pb.task(meta);
                    t.reads_slot(node); // the NodeQ (V, T scratch)
                    let parts = participants(&mut t, &plan.row_ranges, b, jblk, jc0, wj);
                    t.run(move |cx| {
                        let mut c: Vec<_> = parts.iter().map(|&h| cx.view_mut(h)).collect();
                        node_apply_rows(cx.get(node), &mut c, Trans::Yes);
                    });
                }
            }

            panels.push(((k0, w, w.min(m - k0)), leaf_slots, node_slots));
        }

        pb.finish(move |a, slots| {
            let mut panel = |((k0, w, k), leaves, nodes): Panel<T>| {
                let leaves = leaves.into_iter().map(|l| slots.take(l)).collect::<Option<_>>()?;
                let nodes = nodes.into_iter().map(|n| slots.take(n)).collect::<Option<_>>()?;
                Some(PanelQ { k0, c0: k0, w, k, leaves, nodes })
            };
            let panels = panels.into_iter().map(&mut panel).collect::<Option<_>>()?;
            Some(QrFactors { a, panels })
        })
    }
}

/// Declares that `t` writes, in block column `jblk`, the blocks of each of
/// a node's participant `ranges`; each handle names its range's rows of
/// columns `c0..c0 + w`.
fn participants<T: Scalar>(
    t: &mut TaskDecl<'_, T>,
    ranges: &[Range<usize>],
    b: usize,
    jblk: usize,
    c0: usize,
    w: usize,
) -> Vec<Write> {
    let mut part = |r: &Range<usize>| {
        t.writes(row_blocks(r.clone(), b), jblk..jblk + 1).block(r.start, c0, r.len(), w)
    };
    ranges.iter().map(&mut part).collect()
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

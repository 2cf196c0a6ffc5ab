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
//! reduction tree itself drives the trailing update.

use crate::caqr::QrFactors;
use ca_sched::{row_blocks, AccessMap, BlockTracker, DagPlan, SoundnessError, VerifyReport};
use crate::params::{num_panels, partition_rows, CaParams};
use crate::tsqr::{leaf_apply, leaf_qr, node_apply, node_qr, plan_panel, LeafQ, NodePlan, NodeQ, PanelQ};
use ca_kernels::{flops, traffic};
use ca_kernels::{Kernel, Trans};
use ca_matrix::{Scalar, SharedMatrix};
use ca_sched::{KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta};
use std::sync::OnceLock;

/// What a CAQR task does (payload of the task graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names (step/grp/node/jblk) are the documentation
pub enum CaqrTask {
    /// Leaf QR of row group `grp` of panel `step`.
    LeafQr { step: usize, grp: usize },
    /// Leaf trailing update of (group `grp`) × (block column `jblk`).
    LeafUpdate { step: usize, grp: usize, jblk: usize },
    /// Reduction-node QR (`node` indexes the panel's plan list).
    NodeQr { step: usize, node: usize },
    /// Node trailing update of (node `node`) × (block column `jblk`).
    NodeUpdate { step: usize, node: usize, jblk: usize },
}

pub(crate) struct PanelCtx<T: Scalar> {
    k0: usize,
    c0: usize,
    w: usize,
    k: usize,
    groups: Vec<core::ops::Range<usize>>,
    plans: Vec<NodePlan>,
    leaves: Vec<OnceLock<LeafQ<T>>>,
    nodes: Vec<OnceLock<NodeQ<T>>>,
}

pub(crate) struct CaqrPlan<T: Scalar> {
    pub graph: TaskGraph<CaqrTask>,
    /// Declared block footprints of every task (for verification / checked
    /// execution).
    pub access: AccessMap,
    pub panels: Vec<PanelCtx<T>>,
    n: usize,
    b: usize,
}

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

/// Builds the CAQR task graph for an `m × n` matrix with parameters `p`.
pub(crate) fn build<T: Scalar>(m: usize, n: usize, p: &CaParams) -> CaqrPlan<T> {
    assert!(m > 0 && n > 0, "empty matrix");
    ca_sched::sched_counters().factor_graphs_built.inc();
    let b = p.b;
    let nsteps = num_panels(m, n, b);
    let nb = n.div_ceil(b);

    let mut graph: TaskGraph<CaqrTask> = TaskGraph::new();
    let mut tracker = BlockTracker::with_geometry(b, m, n);
    let mut panels: Vec<PanelCtx<T>> = Vec::with_capacity(nsteps);

    for step in 0..nsteps {
        let k0 = step * b;
        let c0 = k0;
        let w = b.min(n - c0);
        let k = w.min(m - k0);
        let part = partition_rows(m, k0, b, p.tr);
        let g = part.ngroups();
        let (leaf_ks, plans) = plan_panel(&part, w, p.tree);

        // --- Leaf QR tasks + their trailing updates.
        let mut leaf_qr_ids = Vec::with_capacity(g);
        for (grp, &leaf_k) in leaf_ks.iter().enumerate() {
            let rows = part.group(grp);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, grp, step),
                flops::geqrf(rows.len(), leaf_k),
            )
            .with_bytes(traffic::geqr3(rows.len(), leaf_k))
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Panel, step))
            .with_class(KernelClass::QrRecursive);
            let id = graph.add_task(meta, CaqrTask::LeafQr { step, grp });
            tracker.write(&mut graph, id, row_blocks(rows, b), step..step + 1);
            leaf_qr_ids.push(id);
        }
        for jblk in step + 1..nb {
            let jc0 = jblk * b;
            let wj = b.min(n - jc0);
            for grp in 0..g {
                let rows = part.group(grp);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Update, step, grp, jblk),
                    flops::larfb(rows.len(), wj, leaf_ks[grp]),
                )
                .with_bytes(traffic::larfb(rows.len(), wj, leaf_ks[grp]))
                .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Update, jblk))
                .with_class(KernelClass::Larfb);
                let id = graph.add_task(meta, CaqrTask::LeafUpdate { step, grp, jblk });
                graph.add_dep(leaf_qr_ids[grp], id); // the LeafQ (T factor)
                tracker.read(&mut graph, id, row_blocks(rows.clone(), b), step..step + 1);
                tracker.write(&mut graph, id, row_blocks(rows, b), jblk..jblk + 1);
            }
        }

        // --- Node QR tasks + their trailing updates.
        let mut node_qr_ids = Vec::with_capacity(plans.len());
        for (ni, plan) in plans.iter().enumerate() {
            let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, g + ni, step),
                flops::geqrf(s.max(plan.kk), plan.kk),
            )
            .with_bytes(traffic::geqr3(s.max(plan.kk), plan.kk))
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Panel, step))
            .with_class(KernelClass::QrRecursive);
            let id = graph.add_task(meta, CaqrTask::NodeQr { step, node: ni });
            // Reads + writes the participants' top block rows of the panel.
            for r in &plan.row_ranges {
                tracker.write(&mut graph, id, row_blocks(r.clone(), b), step..step + 1);
            }
            node_qr_ids.push(id);
        }
        for (ni, plan) in plans.iter().enumerate() {
            // `node_apply` is the structured form: identity top block,
            // upper-trapezoidal blocks below it.
            let s: usize = plan.row_ranges.iter().map(|r| r.len()).sum();
            let v_len: usize =
                plan.row_ranges[1..].iter().map(|r| flops::upper_trapezoid_len(r.len(), plan.kk)).sum();
            for jblk in step + 1..nb {
                let jc0 = jblk * b;
                let wj = b.min(n - jc0);
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Update, step, g + ni, jblk),
                    flops::larfb_node(v_len, wj, plan.kk),
                )
                .with_bytes(traffic::larfb_node(v_len, s, wj, plan.kk))
                .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Update, jblk))
                .with_class(KernelClass::Larfb);
                let id = graph.add_task(meta, CaqrTask::NodeUpdate { step, node: ni, jblk });
                graph.add_dep(node_qr_ids[ni], id); // the NodeQ (V, T scratch)
                for r in &plan.row_ranges {
                    tracker.write(&mut graph, id, row_blocks(r.clone(), b), jblk..jblk + 1);
                }
            }
        }

        panels.push(PanelCtx {
            k0,
            c0,
            w,
            k,
            groups: (0..g).map(|i| part.group(i)).collect(),
            plans,
            leaves: (0..g).map(|_| OnceLock::new()).collect(),
            nodes: (0..node_qr_ids.len()).map(|_| OnceLock::new()).collect(),
        });
    }

    // The tracker's per-block reasoning cannot see orderings already implied
    // by the explicitly added edges (reduction tree, pivot broadcast), so it
    // over-wires conflict edges a path already covers. Reduce to the minimal
    // equivalent DAG: ready times and conflict orderings are unchanged, and
    // the schedulers track fewer dependences.
    ca_sched::reduce_transitive_edges(&mut graph);

    CaqrPlan { graph, access: tracker.into_access_map(), panels, n, b }
}

impl<T: Kernel> DagPlan<T> for CaqrPlan<T> {
    type Task = CaqrTask;
    type Factors = QrFactors<T>;

    fn graph(&self) -> &TaskGraph<CaqrTask> {
        &self.graph
    }

    fn access(&self) -> &AccessMap {
        &self.access
    }

    // DAG executor: every access falls inside the footprint declared in
    // build(), which `verify_graph` proves conflict-ordered.
    #[allow(clippy::disallowed_methods)]
    fn exec(&self, a: &SharedMatrix<T>, t: CaqrTask) {
        let b = self.b;
        let n = self.n;
        match t {
            CaqrTask::LeafQr { step, grp } => {
                let ctx = &self.panels[step];
                let leaf = leaf_qr(a, ctx.c0, ctx.w, ctx.groups[grp].clone());
                ctx.leaves[grp].set(leaf).expect("leaf ran twice");
            }
            CaqrTask::LeafUpdate { step, grp, jblk } => {
                let ctx = &self.panels[step];
                let leaf = ctx.leaves[grp].get().expect("leaf T not ready");
                let jc0 = jblk * b;
                let wj = b.min(n - jc0);
                leaf_apply(a, ctx.c0, leaf, a, jc0..jc0 + wj, Trans::Yes);
            }
            CaqrTask::NodeQr { step, node } => {
                let ctx = &self.panels[step];
                let nq = node_qr(a, ctx.c0, ctx.w, &ctx.plans[node]);
                ctx.nodes[node].set(nq).expect("node ran twice");
            }
            CaqrTask::NodeUpdate { step, node, jblk } => {
                let ctx = &self.panels[step];
                let nq = ctx.nodes[node].get().expect("node V/T not ready");
                let jc0 = jblk * b;
                let wj = b.min(n - jc0);
                node_apply(nq, a, jc0..jc0 + wj, Trans::Yes);
            }
        }
    }

    /// Gathers the per-panel `Q` representations after a successful run.
    fn collect(self, shared: SharedMatrix<T>) -> QrFactors<T> {
        let mut panels = Vec::with_capacity(self.panels.len());
        for ctx in self.panels {
            let leaves = ctx.leaves.into_iter().map(|l| l.into_inner().expect("leaf missing")).collect();
            let nodes = ctx.nodes.into_iter().map(|n| n.into_inner().expect("node missing")).collect();
            panels.push(PanelQ { k0: ctx.k0, c0: ctx.c0, w: ctx.w, k: ctx.k, leaves, nodes });
        }
        QrFactors { a: shared.into_inner(), panels }
    }
}

/// Builds just the task graph (for the multicore simulator and DAG figures).
pub fn caqr_task_graph(m: usize, n: usize, p: &CaParams) -> TaskGraph<CaqrTask> {
    build::<f64>(m, n, p).graph
}

/// Builds the task graph together with the declared footprints, for
/// soundness verification ([`ca_sched::verify_graph`]) and checked
/// simulation.
pub fn caqr_task_graph_with_access(
    m: usize,
    n: usize,
    p: &CaParams,
) -> (TaskGraph<CaqrTask>, AccessMap) {
    let plan = build::<f64>(m, n, p);
    (plan.graph, plan.access)
}

/// Statically verifies the CAQR task graph for an `m × n` factorization:
/// structural invariants, every pair of tasks with conflicting footprints
/// ordered by a happens-before path, and the §III lookahead priority rule.
pub fn verify_caqr(m: usize, n: usize, p: &CaParams) -> Result<VerifyReport, SoundnessError> {
    verify_caqr_with(m, n, p, &ca_sched::VerifyOptions::default())
}

/// [`verify_caqr`] with explicit [`ca_sched::VerifyOptions`] (the
/// edge-minimality lint passes).
pub fn verify_caqr_with(
    m: usize,
    n: usize,
    p: &CaParams,
    opts: &ca_sched::VerifyOptions,
) -> Result<VerifyReport, SoundnessError> {
    let plan = build::<f64>(m, n, p);
    ca_sched::verify_graph_with(&plan.graph, &plan.access, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caqr::{caqr, caqr_seq};
    use crate::params::TreeShape;
    use ca_matrix::seeded_rng;

    fn check_parallel(m: usize, n: usize, b: usize, tr: usize, threads: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut p = CaParams::new(b, tr, threads);
        p.tree = tree;
        let f = caqr(a0.clone(), &p);
        let scale = 1e-12 * (m.max(n) as f64);
        let res = f.residual(&a0);
        assert!(res < scale, "residual {res} for {m}x{n} b={b} tr={tr} t={threads}");
        // Bitwise agreement with the sequential reference.
        let fs = caqr_seq(a0, &p);
        assert_eq!(f.a.as_slice(), fs.a.as_slice(), "factored matrix differs from sequential");
    }

    #[test]
    fn parallel_matches_sequential_square() {
        check_parallel(64, 64, 16, 2, 4, TreeShape::Binary, 1);
        check_parallel(96, 96, 24, 4, 3, TreeShape::Flat, 2);
    }

    #[test]
    fn parallel_matches_sequential_tall() {
        check_parallel(400, 30, 10, 8, 4, TreeShape::Binary, 3);
        check_parallel(250, 20, 10, 4, 2, TreeShape::Flat, 4);
    }

    #[test]
    fn parallel_matches_sequential_ragged() {
        check_parallel(97, 53, 13, 3, 5, TreeShape::Binary, 5);
        check_parallel(130, 70, 32, 4, 4, TreeShape::Binary, 6);
    }

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

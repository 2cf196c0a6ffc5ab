//! Task-graph construction and parallel execution of multithreaded CALU
//! (Algorithm 1 of the paper).
//!
//! Tasks follow the paper's P/L/U/S decomposition:
//! * `P` — tournament-pivoting steps: one leaf GEPP per row group, then one
//!   task per reduction-tree node; the final node additionally applies the
//!   winning interchanges to the panel and writes the packed `L_KK\U_KK`
//!   block (Algorithm 1 lines 8, 14, 19).
//! * `L` — per-group `dtrsm` producing the panel's `L` blocks (line 24).
//! * `U` — per trailing block column: interchanges + `L_KK⁻¹` solve
//!   (line 28).
//! * `S` — per (group × block column) `dgemm` trailing update (line 36).
//! * `W` — deferred left-side interchanges, one task per finished block
//!   column (line 41).
//!
//! Every task is added once — its cost, the closure that runs it and the
//! blocks that closure touches, from the same variables. Dependencies are
//! derived from the declared reads/writes ([`PlanBuilder`]), which reproduces
//! the dependency structure of Figure 1. Priorities implement the
//! lookahead-of-1 rule from §III.

use crate::calu::{LuFactors, LuStats};
use crate::params::{num_panels, partition_rows, CaParams};
use crate::tournament::{merge, select, Selected};
use crate::tree::reduction_schedule;
use crate::tslu::{apply_growth_policy, pivot_seq_from_targets};
use ca_kernels::{flops, traffic};
use ca_kernels::{
    gemm, gemm_packed, pack_a_slab, pack_b_panel, trsm_left_lower_unit, trsm_right_upper_notrans,
    Kernel, Trans,
};
use ca_matrix::{AlignedBuf, MatViewMut, PivotSeq};
use ca_sched::{
    row_blocks, KernelClass, Plan, PlanBuilder, Slot, TaskCx, TaskGraph, TaskKind, TaskLabel,
    TaskMeta,
};

/// Tile geometry of the decomposed trailing update: the serial GEMM cache
/// blocks ([`ca_kernels::MC`] rows × [`ca_kernels::NC`] columns) rounded up
/// to whole `b`-blocks, so each tile is declared in block coordinates like
/// every other CALU task. The rounding is a task-granularity choice, not a
/// verifier requirement — footprints are element rects, so unaligned tiles
/// would verify just as well.
fn par_tile(b: usize) -> (usize, usize) {
    (ca_kernels::MC.next_multiple_of(b), ca_kernels::NC.next_multiple_of(b))
}

/// `(start, size)` of the `size`-sized pieces (the last may be short) that
/// `len` rows or columns starting at `lo` are cut into: the slabs of a
/// group's `L` block, the panels of a column chunk's `U` row.
fn pieces(lo: usize, len: usize, size: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len.div_ceil(size)).map(move |i| (lo + i * size, size.min(len - i * size)))
}

/// What the root task of a panel's tournament leaves: the winning
/// interchanges (offset `k0`), the panel's breakdown column (panel-local),
/// and `(growth estimate, GEPP fallback happened)`.
type Root = (PivotSeq, Option<usize>, (f64, bool));

/// Priority scheme (see module docs of `ca-sched`): panel work of step `K`
/// outranks everything later; the lookahead rule boosts the updates of block
/// column `K+1` above the rest so panel `K+1` becomes ready early, while
/// non-critical updates of step `K` rank *below* panel `K+1`.
fn prio(nsteps: usize, step: usize, lookahead: bool, kind: TaskKind, jblk: usize) -> i64 {
    let critical = ((nsteps - step) as i64) * 1000;
    match kind {
        TaskKind::Panel => critical + 900,
        TaskKind::LBlock => critical + 850,
        TaskKind::URow | TaskKind::Update => {
            let next = lookahead && jblk == step + 1;
            if next {
                critical + if kind == TaskKind::URow { 800 } else { 790 }
            } else {
                critical - if kind == TaskKind::URow { 400 } else { 500 }
            }
        }
        _ => 0,
    }
}

/// Builder of the CALU task DAG.
pub struct CaluPlan;

impl CaluPlan {
    /// Plan for an `m × n` matrix with parameters `p` (an empty matrix gets
    /// an empty graph).
    pub fn build<T: Kernel>(m: usize, n: usize, p: &CaParams) -> Plan<T, LuFactors<T>> {
        let b = p.b;
        let nsteps = num_panels(m, n, b);
        let nb = n.div_ceil(b);
        let (slab_h, pan_w) = par_tile(b);

        let mut pb = PlanBuilder::<T>::new(b, m, n);
        // Per step, the slot of the root's pivots, breakdown and growth.
        let mut roots: Vec<Slot<Root>> = Vec::with_capacity(nsteps);

        for step in 0..nsteps {
            let k0 = step * b;
            let w = b.min(n - k0);
            let k = w.min(m - k0);
            let part = partition_rows(m, k0, b, p.tr);
            let g = part.ngroups();
            let schedule = reduction_schedule(g, p.tree);
            let root = pb.slot();
            // Root-task epilogue (the last node's, or the only leaf's), on
            // the panel's active rows: record pivots, interchange the panel,
            // write the packed `L_KK\U_KK` block.
            let growth_limit = p.growth_limit;
            let finish_root =
                move |cx: &TaskCx<'_, T>, mut panel: MatViewMut<'_, T>, sel: Selected<T>| {
                    // Growth policy before any write-back: the panel's active region
                    // still holds its pre-interchange values here.
                    let (sel, growth, fallback) =
                        apply_growth_policy(panel.as_ref(), k0, sel, growth_limit);
                    let pivots = pivot_seq_from_targets(k0, &sel.idx);
                    local_seq(&pivots, k0).apply(panel.rb());
                    panel.sub(0, 0, k, w).copy_from(sel.packed.view());
                    cx.put(root, (pivots, sel.breakdown, (growth, fallback)));
                };
            let panel_prio = prio(nsteps, step, p.lookahead, TaskKind::Panel, step);
            // `(first row, rows)` of each group's part below the packed
            // `L_KK\U_KK` block: its `L` block, and the rows it updates.
            let below: Vec<(usize, usize)> = (0..g)
                .map(|grp| {
                    let rows = part.group(grp);
                    let lo = rows.start.max(k0 + k).min(rows.end);
                    (lo, rows.end - lo)
                })
                .collect();
            // `(jblk, jcnt, first column, columns)` of each trailing column
            // chunk; chunk width = p.update_blocks block columns, §V.
            let chunks: Vec<(usize, usize, usize, usize)> = (step + 1..nb)
                .step_by(p.update_blocks)
                .map(|jblk| {
                    let jcnt = p.update_blocks.min(nb - jblk);
                    (jblk, jcnt, jblk * b, (jcnt * b).min(n - jblk * b))
                })
                .collect();

            // --- P tasks: leaves. With a single group the leaf is the root.
            //     The last P task is the root: it fills `root` and writes
            //     the panel's active rows, every other one its candidate slot
            //     (leaves at `0..g`, node `i` at `g + i`).
            let outputs = (g + schedule.len()).saturating_sub(1);
            let candidates: Vec<Slot<Selected<T>>> = (0..outputs).map(|_| pb.slot()).collect();
            let mut slot_res: Vec<usize> = (0..g).collect();
            for grp in 0..g {
                let rows = part.group(grp);
                let (r0, nr) = (rows.start, rows.len());
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, step, grp, step),
                    flops::getrf(nr, w),
                )
                .with_bytes(traffic::rgetf2(nr, w))
                .with_priority(panel_prio)
                .with_class(KernelClass::LuRecursive);
                let mut t = pb.task(meta);
                let block = t.reads(row_blocks(rows, b), step..step + 1).block(r0, k0, nr, w);
                let idx: Vec<usize> = (r0..r0 + nr).collect();
                match candidates.get(grp) {
                    Some(&candidate) => {
                        t.writes_slot(candidate);
                        t.run(move |cx| cx.put(candidate, select(cx.view(block), &idx, true)));
                    }
                    // No tree: the only group is the root and holds the
                    // panel's active rows.
                    None => {
                        t.writes_slot(root);
                        let panel =
                            t.writes(row_blocks(k0..m, b), step..step + 1).block(k0, k0, m - k0, w);
                        t.run(move |cx| {
                            let panel = cx.view_mut(panel);
                            let sel = select(panel.as_ref().sub(r0 - k0, 0, nr, w), &idx, true);
                            finish_root(cx, panel, sel);
                        });
                    }
                }
            }

            // --- P tasks: reduction nodes. The last one is the root: it also
            //     pivots the panel and writes the packed top block.
            for (ni, node) in schedule.iter().enumerate() {
                let stacked_rows: usize = node.participants.len() * k.min(b);
                let is_root = ni + 1 == schedule.len();
                // The candidate slots this node consumes.
                let inputs: Vec<Slot<Selected<T>>> =
                    node.participants.iter().map(|&pt| candidates[slot_res[pt]]).collect();
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::Panel, step, g + ni, step),
                    flops::getrf(stacked_rows.max(1), w),
                )
                .with_bytes(traffic::rgetf2(stacked_rows.max(1), w))
                .with_priority(panel_prio)
                .with_class(KernelClass::LuRecursive);
                let mut t = pb.task(meta);
                for &input in &inputs {
                    t.reads_slot(input);
                }
                let merged = move |cx: &TaskCx<'_, T>| {
                    let candidates: Vec<&Selected<T>> = inputs.iter().map(|&s| cx.get(s)).collect();
                    merge(&candidates)
                };
                if is_root {
                    t.writes_slot(root);
                    let panel =
                        t.writes(row_blocks(k0..m, b), step..step + 1).block(k0, k0, m - k0, w);
                    t.run(move |cx| finish_root(cx, cx.view_mut(panel), merged(cx)));
                } else {
                    let out = candidates[g + ni];
                    t.writes_slot(out);
                    t.run(move |cx| cx.put(out, merged(cx)));
                }
                slot_res[node.participants[0]] = g + ni;
            }
            roots.push(root);

            // --- L tasks.
            for (grp, &(lo, mb)) in below.iter().enumerate().filter(|(_, &(_, mb))| mb > 0) {
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::LBlock, step, grp, step),
                    flops::trsm_right(mb, k),
                )
                .with_bytes(traffic::trsm_right(mb, k))
                .with_priority(prio(nsteps, step, p.lookahead, TaskKind::LBlock, step))
                .with_class(KernelClass::Trsm);
                let mut t = pb.task(meta);
                let ukk = t.reads(step..step + 1, step..step + 1).block(k0, k0, k, k);
                let lb = t.writes(row_blocks(lo..lo + mb, b), step..step + 1).block(lo, k0, mb, k);
                t.run(move |cx| trsm_right_upper_notrans(cx.view(ukk), cx.view_mut(lb)));
            }

            // --- U tasks (interchange + triangular solve per trailing column
            //     chunk).
            for &(jblk, jcnt, jc0, wj) in &chunks {
                let meta = TaskMeta::new(
                    TaskLabel::new(TaskKind::URow, step, 0, jblk),
                    flops::trsm_left(k, wj),
                )
                .with_bytes(traffic::trsm_left(k, wj) + traffic::laswp(k, wj))
                .with_priority(prio(nsteps, step, p.lookahead, TaskKind::URow, jblk))
                .with_class(KernelClass::Trsm);
                let mut t = pb.task(meta);
                t.reads_slot(root); // pivots
                let lkk = t.reads(step..step + 1, step..step + 1).block(k0, k0, k, k);
                let col =
                    t.writes(row_blocks(k0..m, b), jblk..jblk + jcnt).block(k0, jc0, m - k0, wj);
                t.run(move |cx| {
                    let mut col = cx.view_mut(col);
                    local_seq(&cx.get(root).0, k0).apply(col.rb());
                    trsm_left_lower_unit(cx.view(lkk), col.into_sub(0, 0, k, wj));
                });
            }

            // --- S tasks (trailing updates, same column chunking). Groups whose
            //     update spans at least two GEMM cache slabs (`2·MC` rows) are
            //     decomposed into the GEMM sub-DAG: pack-A once per slab
            //     per group (shared across every column chunk — pack A once
            //     per `jc` sweep), pack-B once per panel per chunk (shared
            //     across groups), one packed-tile GEMM task per slab × panel.
            //     Results are bitwise identical to the monolithic `dgemm`;
            //     only the task granularity changes.
            let decompose: Vec<bool> =
                below.iter().map(|&(_, mb)| step + 1 < nb && mb >= 2 * ca_kernels::MC).collect();

            // Pack-A tasks; group `grp`'s slab images are `apacks[abase[grp]..]`.
            // Reading the L slab orders each pack after the group's LBlock
            // solve via the tracker.
            let mut abase = vec![0usize; g];
            let mut apacks: Vec<Slot<AlignedBuf<T>>> = Vec::new();
            for grp in (0..g).filter(|&grp| decompose[grp]) {
                abase[grp] = apacks.len();
                let (lo, mb) = below[grp];
                for (slab, (slo, sh)) in pieces(lo, mb, slab_h).enumerate() {
                    let meta = TaskMeta::new(TaskLabel::new(TaskKind::Other, step, grp, slab), 0.0)
                        .with_bytes(traffic::pack(sh, k))
                        .with_priority(
                            prio(nsteps, step, p.lookahead, TaskKind::Update, step + 1) + 5,
                        )
                        .with_class(KernelClass::Memory);
                    let image = pb.slot();
                    let mut t = pb.task(meta);
                    let l =
                        t.reads(row_blocks(slo..slo + sh, b), step..step + 1).block(slo, k0, sh, k);
                    t.writes_slot(image);
                    t.run(move |cx| {
                        let mut buf = AlignedBuf::new();
                        pack_a_slab(Trans::No, cx.view(l), 0, sh, &mut buf);
                        cx.put(image, buf);
                    });
                    apacks.push(image);
                }
            }

            for &(jblk, jcnt, jc0, wj) in &chunks {
                let update_prio = prio(nsteps, step, p.lookahead, TaskKind::Update, jblk);
                // Pack-B tasks of this chunk, panel `panel`'s image in
                // `bpacks[panel]`; reading the U row orders each after the
                // chunk's URow solve.
                let mut bpacks: Vec<Slot<AlignedBuf<T>>> = Vec::new();
                if !apacks.is_empty() {
                    for (panel, (pj0, pw)) in pieces(jc0, wj, pan_w).enumerate() {
                        let meta = TaskMeta::new(
                            TaskLabel::new(TaskKind::Other, step, g + panel, jblk),
                            0.0,
                        )
                        .with_bytes(traffic::pack(k, pw))
                        .with_priority(update_prio + 5)
                        .with_class(KernelClass::Memory);
                        let image = pb.slot();
                        let mut t = pb.task(meta);
                        let u = t
                            .reads(step..step + 1, row_blocks(pj0..pj0 + pw, b))
                            .block(k0, pj0, k, pw);
                        t.writes_slot(image);
                        t.run(move |cx| {
                            let mut buf = AlignedBuf::new();
                            pack_b_panel(Trans::No, cx.view(u), 0, pw, &mut buf);
                            cx.put(image, buf);
                        });
                        bpacks.push(image);
                    }
                }
                for grp in 0..g {
                    let (lo, mb) = below[grp];
                    if mb == 0 {
                        continue;
                    }
                    let label = TaskLabel::new(TaskKind::Update, step, grp, jblk);
                    if !decompose[grp] {
                        let meta = TaskMeta::new(label, flops::gemm(mb, wj, k))
                            .with_bytes(traffic::gemm(mb, wj, k))
                            .with_priority(update_prio)
                            .with_class(KernelClass::Gemm);
                        let mut t = pb.task(meta);
                        let l = t
                            .reads(row_blocks(lo..lo + mb, b), step..step + 1)
                            .block(lo, k0, mb, k);
                        let u = t.reads(step..step + 1, jblk..jblk + jcnt).block(k0, jc0, k, wj);
                        let c = t
                            .writes(row_blocks(lo..lo + mb, b), jblk..jblk + jcnt)
                            .block(lo, jc0, mb, wj);
                        t.run(move |cx| {
                            gemm(
                                Trans::No,
                                Trans::No,
                                -T::ONE,
                                cx.view(l),
                                cx.view(u),
                                T::ONE,
                                cx.view_mut(c),
                            )
                        });
                        continue;
                    }
                    for (slab, (slo, sh)) in pieces(lo, mb, slab_h).enumerate() {
                        for (&bpack, (pj0, pw)) in bpacks.iter().zip(pieces(jc0, wj, pan_w)) {
                            let apack = apacks[abase[grp] + slab];
                            let meta = TaskMeta::new(label, flops::gemm(sh, pw, k))
                                .with_bytes(traffic::gemm_packed(sh, pw, k))
                                .with_priority(update_prio)
                                .with_class(KernelClass::Gemm);
                            let mut t = pb.task(meta);
                            t.reads_slot(apack);
                            t.reads_slot(bpack);
                            let tile = t
                                .writes(row_blocks(slo..slo + sh, b), row_blocks(pj0..pj0 + pw, b));
                            let c = tile.block(slo, pj0, sh, pw);
                            // `beta = 1` makes the packed path replay the
                            // monolithic gemm bitwise.
                            t.run(move |cx| {
                                gemm_packed(
                                    -T::ONE,
                                    cx.get(apack),
                                    cx.get(bpack),
                                    k,
                                    T::ONE,
                                    cx.view_mut(c),
                                )
                            });
                        }
                    }
                }
            }
        }

        // --- Deferred left-side interchanges (Algorithm 1 line 41).
        for jblk in 0..nsteps.saturating_sub(1) {
            let (jc0, wj) = (jblk * b, b.min(n - jblk * b));
            let swap_rows: usize = (jblk + 1..nsteps).map(|k| b.min(m.min(n) - k * b)).sum();
            let meta = TaskMeta::new(TaskLabel::new(TaskKind::Swap, nsteps, 0, jblk), 0.0)
                .with_bytes(traffic::laswp(swap_rows, wj))
                .with_class(KernelClass::Memory);
            let later = roots[jblk + 1..].to_vec();
            let mut t = pb.task(meta);
            for &root in &later {
                t.reads_slot(root);
            }
            let r0 = (jblk + 1) * b;
            let col = t.writes(row_blocks(r0..m, b), jblk..jblk + 1).block(r0, jc0, m - r0, wj);
            t.run(move |cx| {
                let mut col = cx.view_mut(col);
                for (k0, &root) in (r0..).step_by(b).zip(&later) {
                    local_seq(&cx.get(root).0, k0).apply(col.sub(k0 - r0, 0, m - k0, wj));
                }
            });
        }

        pb.finish(move |lu, slots| {
            let mut pivots = PivotSeq::new(0);
            let mut breakdown = None;
            let mut stats = LuStats::default();
            for (k0, root) in (0..).step_by(b).zip(roots) {
                let (p, bd, (growth, fallback)) = slots.take(root)?;
                pivots.extend(&p);
                breakdown = breakdown.or(bd.map(|c| k0 + c));
                stats.panel_growth.push(growth);
                if fallback {
                    stats.fallback_panels.push(k0);
                }
            }
            Some(LuFactors { lu, pivots, breakdown, stats })
        })
    }
}

/// Rebases a pivot sequence to a view starting at global row `k0`.
fn local_seq(p: &PivotSeq, k0: usize) -> PivotSeq {
    PivotSeq { offset: p.offset - k0, ipiv: p.ipiv.iter().map(|&x| x - k0).collect() }
}

/// Builds just the task graph (for the multicore simulator and DAG figures).
pub fn calu_task_graph(m: usize, n: usize, p: &CaParams) -> TaskGraph<()> {
    CaluPlan::build::<f64>(m, n, p).into_parts().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_valid_and_sized_sensibly() {
        let p = CaParams::new(100, 8, 8);
        let g = calu_task_graph(1000, 1000, &p);
        g.validate();
        // 10 panels; tasks per panel ~ g + nodes + L + U + S.
        assert!(g.len() > 100, "suspiciously few tasks: {}", g.len());
        assert!(g.critical_path_flops() <= g.total_flops());
    }

    #[test]
    fn dag_total_flops_close_to_lapack_count() {
        // CA overhead is lower-order: DAG flops within 25% of dgetrf count.
        let p = CaParams::new(50, 4, 4);
        let (m, n) = (2000, 200);
        let g = calu_task_graph(m, n, &p);
        let lapack = ca_kernels::flops::getrf(m, n);
        let total = g.total_flops();
        assert!(total >= lapack * 0.9, "DAG flops {total} below LAPACK {lapack}");
        assert!(total <= lapack * 1.35, "DAG flops {total} too far above LAPACK {lapack}");
    }

    #[test]
    fn two_level_update_blocking_shrinks_the_graph() {
        // The §V future-work feature: B = 4b update tasks make a smaller
        // task graph (tests/equivalence_table holds it to the same bits).
        let p1 = CaParams::new(20, 4, 4);
        let p4 = p1.with_update_blocking(4);
        let g1 = calu_task_graph(240, 240, &p1);
        let g4 = calu_task_graph(240, 240, &p4);
        g4.validate();
        assert!(
            g4.len() < g1.len(),
            "coarse blocking must shrink the graph: {} vs {}",
            g4.len(),
            g1.len()
        );
    }

    #[test]
    fn decomposed_graph_verifies() {
        // 256-row groups: the second group's update is split into pack and
        // tile tasks at the first step.
        let p = CaParams::new(16, 2, 4);
        let plan = CaluPlan::build::<f64>(512, 192, &p);
        assert!((0..plan.graph().len()).any(|t| plan.graph().meta(t).label.kind == TaskKind::Other));
        ca_sched::verify_graph(plan.graph(), plan.access())
            .unwrap_or_else(|v| panic!("verify failed: {v}"));
    }
}

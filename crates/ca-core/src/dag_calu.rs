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
//! Dependencies are derived from declared reads/writes via
//! [`BlockTracker`], which reproduces the dependency structure of Figure 1.
//! Priorities implement the lookahead-of-1 rule from §III.

use crate::calu::{LuFactors, LuStats};
use ca_sched::{row_blocks, AccessMap, BlockTracker, DagPlan, SoundnessError, VerifyReport};
use crate::params::{num_panels, partition_rows, CaParams, RowPartition};
use crate::tournament::{merge, select, Selected};
use crate::tree::{reduction_schedule, ReduceNode};
use crate::tslu::{apply_growth_policy, pivot_seq_from_targets};
use ca_kernels::{flops, traffic};
use ca_kernels::{
    gemm, gemm_packed, pack_a_slab, pack_b_panel, trsm_left_lower_unit,
    trsm_right_upper_notrans, Kernel, Trans,
};
use ca_matrix::{AlignedBuf, PivotSeq, Scalar, SharedMatrix};
use ca_sched::{KernelClass, TaskGraph, TaskId, TaskKind, TaskLabel, TaskMeta};
use std::sync::OnceLock;

/// What a CALU task does (payload of the task graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names (step/grp/node/jblk) are the documentation
pub enum CaluTask {
    /// Leaf GEPP of row group `grp` of panel `step`. When the panel has a
    /// single group this doubles as the root.
    Leaf { step: usize, grp: usize },
    /// Reduction node `node` (index into the panel's schedule); the last
    /// node is the root and also pivots the panel + writes `L_KK\U_KK`.
    Node { step: usize, node: usize },
    /// `L` block of group `grp`.
    LBlock { step: usize, grp: usize },
    /// Interchanges + `U` block row for trailing block columns
    /// `jblk .. jblk + jcnt` (`jcnt > 1` under §V two-level blocking).
    URow { step: usize, jblk: usize, jcnt: usize },
    /// Trailing update of (group `grp`) × (block columns `jblk..jblk+jcnt`).
    Update { step: usize, grp: usize, jblk: usize, jcnt: usize },
    /// par_gemm sub-DAG: packs slab `slab` of group `grp`'s L block into its
    /// microkernel image — once per step, shared by every column chunk's
    /// tile tasks (the "pack A once per `jc` sweep" rule of the BLIS loops).
    UPackA { step: usize, grp: usize, slab: usize },
    /// par_gemm sub-DAG: packs panel `panel` of the U row chunk at block
    /// columns `jblk..jblk+jcnt`, shared by every group's tile tasks.
    UPackB { step: usize, jblk: usize, jcnt: usize, panel: usize },
    /// par_gemm sub-DAG: one packed-tile trailing update — (slab `slab` of
    /// group `grp`) × (panel `panel` of chunk `jblk..jblk+jcnt`). Replaces
    /// the monolithic [`CaluTask::Update`] when the group's update height
    /// reaches [`CaParams::par_update_rows`].
    UTile { step: usize, grp: usize, jblk: usize, jcnt: usize, slab: usize, panel: usize },
    /// Deferred left-side interchanges for finished block column `jblk`.
    LeftSwap { jblk: usize },
}

/// Tile geometry of the decomposed trailing update: the serial GEMM cache
/// blocks ([`ca_kernels::MC`] rows × [`ca_kernels::NC`] columns) rounded up
/// to whole `b`-blocks, so each tile is declared in block coordinates like
/// every other CALU task. The rounding is a task-granularity choice, not a
/// verifier requirement — footprints are element rects, so unaligned tiles
/// would verify just as well.
fn par_tile(b: usize) -> (usize, usize) {
    (ca_kernels::MC.next_multiple_of(b), ca_kernels::NC.next_multiple_of(b))
}

/// Pack-image storage for one panel's decomposed trailing updates. Each
/// slot is written exactly once by its pack task and then read (shared) by
/// the tile tasks the graph orders after it. The images are side storage
/// the block tracker cannot see, which is why `build()` wires every
/// pack → tile dependence as an explicit graph edge.
pub(crate) struct ParUpdate<T: Scalar> {
    /// Rows per slab (multiple of `b`, see [`par_tile`]).
    slab_h: usize,
    /// Columns per panel (multiple of `b`).
    pan_w: usize,
    /// Per-group slot offsets: group `grp`'s slab images live at
    /// `apacks[abase[grp]..abase[grp + 1]]` (empty range for groups below
    /// the decomposition threshold).
    abase: Vec<usize>,
    /// Packed-A slab images.
    apacks: Vec<OnceLock<AlignedBuf<T>>>,
    /// `(jblk, base)` pairs: the column chunk at `jblk` keeps its panel `p`
    /// image at `bpacks[base + p]`.
    bbase: Vec<(usize, usize)>,
    /// Packed-B panel images.
    bpacks: Vec<OnceLock<AlignedBuf<T>>>,
}

impl<T: Scalar> ParUpdate<T> {
    fn aslot(&self, grp: usize, slab: usize) -> &OnceLock<AlignedBuf<T>> {
        &self.apacks[self.abase[grp] + slab]
    }

    fn bslot(&self, jblk: usize, panel: usize) -> &OnceLock<AlignedBuf<T>> {
        let base =
            self.bbase.iter().find(|&&(j, _)| j == jblk).expect("chunk has no packed-B images").1;
        &self.bpacks[base + panel]
    }
}

/// Per-panel shared state filled in by panel tasks at run time.
pub(crate) struct PanelCtx<T: Scalar> {
    k0: usize,
    /// Panel width (columns).
    w: usize,
    /// Factored rows/columns this panel (`min(w, m - k0)`).
    k: usize,
    part: RowPartition,
    schedule: Vec<ReduceNode>,
    /// Candidate dataflow slots: leaves at `0..g`, node `i` at `g + i`.
    results: Vec<OnceLock<Selected<T>>>,
    /// For each schedule node, the result-slot indices it consumes.
    node_inputs: Vec<Vec<usize>>,
    /// Winning interchanges (offset `k0`), written by the root task.
    pivots: OnceLock<PivotSeq>,
    /// Panel breakdown column (panel-local), written by the root task.
    breakdown: OnceLock<Option<usize>>,
    /// `(growth estimate, GEPP fallback happened)`, written by the root.
    growth: OnceLock<(f64, bool)>,
    /// Pack-image slots of this panel's decomposed trailing updates.
    par: ParUpdate<T>,
}

/// Everything needed to execute a built CALU DAG on `T` elements. Only the
/// run-time slots are typed; graph, footprints and geometry are the same for
/// every `T`.
pub(crate) struct CaluPlan<T: Scalar> {
    pub graph: TaskGraph<CaluTask>,
    /// Declared footprints of every task (for verification / checked
    /// execution).
    pub access: AccessMap,
    pub panels: Vec<PanelCtx<T>>,
    m: usize,
    n: usize,
    b: usize,
    recursive_leaves: bool,
    growth_limit: f64,
}

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

/// Builds the CALU task graph for an `m × n` matrix with parameters `p`.
pub(crate) fn build<T: Scalar>(m: usize, n: usize, p: &CaParams) -> CaluPlan<T> {
    assert!(m > 0 && n > 0, "empty matrix");
    ca_sched::sched_counters().factor_graphs_built.inc();
    let b = p.b;
    let nsteps = num_panels(m, n, b);
    let nb = n.div_ceil(b);

    let mut graph: TaskGraph<CaluTask> = TaskGraph::new();
    let mut tracker = BlockTracker::with_geometry(b, m, n);
    let mut panels: Vec<PanelCtx<T>> = Vec::with_capacity(nsteps);
    let mut root_ids: Vec<TaskId> = Vec::with_capacity(nsteps);

    for step in 0..nsteps {
        let k0 = step * b;
        let w = b.min(n - k0);
        let k = w.min(m - k0);
        let part = partition_rows(m, k0, b, p.tr);
        let g = part.ngroups();
        let schedule = reduction_schedule(g, p.tree);

        // --- P tasks: leaves.
        let mut slot_task: Vec<TaskId> = Vec::with_capacity(g);
        let mut slot_res: Vec<usize> = (0..g).collect();
        for grp in 0..g {
            let rows = part.group(grp);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, grp, step),
                flops::getrf(rows.len(), w),
            )
            .with_bytes(if p.leaf_blas2 {
                traffic::getf2(rows.len(), w)
            } else {
                traffic::rgetf2(rows.len(), w)
            })
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Panel, step))
            .with_class(if p.leaf_blas2 { KernelClass::LuBlas2 } else { KernelClass::LuRecursive });
            let id = graph.add_task(meta, CaluTask::Leaf { step, grp });
            tracker.read(&mut graph, id, row_blocks(rows, b), step..step + 1);
            slot_task.push(id);
        }

        // --- P tasks: reduction nodes (last one is the root).
        let mut node_inputs: Vec<Vec<usize>> = Vec::with_capacity(schedule.len());
        for (ni, node) in schedule.iter().enumerate() {
            let stacked_rows: usize = node.participants.len() * k.min(b);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::Panel, step, g + ni, step),
                flops::getrf(stacked_rows.max(1), w),
            )
            .with_bytes(traffic::rgetf2(stacked_rows.max(1), w))
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Panel, step))
            .with_class(KernelClass::LuRecursive);
            let id = graph.add_task(meta, CaluTask::Node { step, node: ni });
            node_inputs.push(node.participants.iter().map(|&pt| slot_res[pt]).collect());
            for &pt in &node.participants {
                graph.add_dep(slot_task[pt], id);
            }
            slot_task[node.participants[0]] = id;
            slot_res[node.participants[0]] = g + ni;
            if ni + 1 == schedule.len() {
                // Root: pivots the panel and writes the packed top block.
                tracker.write(&mut graph, id, row_blocks(k0..m, b), step..step + 1);
            }
        }
        let root_id = if schedule.is_empty() {
            // Single group: the leaf is the root; it also writes the panel.
            let id = slot_task[0];
            tracker.write(&mut graph, id, row_blocks(k0..m, b), step..step + 1);
            id
        } else {
            slot_task[0]
        };
        root_ids.push(root_id);

        // --- L tasks.
        for grp in 0..g {
            let rows = part.group(grp);
            let lo = rows.start.max(k0 + k);
            if lo >= rows.end || k == 0 {
                continue;
            }
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::LBlock, step, grp, step),
                flops::trsm_right(rows.end - lo, k),
            )
            .with_bytes(traffic::trsm_right(rows.end - lo, k))
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::LBlock, step))
            .with_class(KernelClass::Trsm);
            let id = graph.add_task(meta, CaluTask::LBlock { step, grp });
            tracker.read(&mut graph, id, step..step + 1, step..step + 1); // U_KK
            tracker.write(&mut graph, id, row_blocks(lo..rows.end, b), step..step + 1);
        }

        // --- U tasks (interchange + triangular solve per trailing column
        //     chunk; chunk width = p.update_blocks block columns, §V).
        let mut jblk = step + 1;
        while jblk < nb {
            let jcnt = p.update_blocks.min(nb - jblk);
            let jc0 = jblk * b;
            let wj = (jcnt * b).min(n - jc0);
            let meta = TaskMeta::new(
                TaskLabel::new(TaskKind::URow, step, 0, jblk),
                flops::trsm_left(k, wj),
            )
            .with_bytes(traffic::trsm_left(k, wj) + traffic::laswp(k, wj))
            .with_priority(prio(nsteps, step, p.lookahead, TaskKind::URow, jblk))
            .with_class(KernelClass::Trsm);
            let id = graph.add_task(meta, CaluTask::URow { step, jblk, jcnt });
            graph.add_dep(root_id, id); // pivots
            tracker.read(&mut graph, id, step..step + 1, step..step + 1); // L_KK
            tracker.write(&mut graph, id, row_blocks(k0..m, b), jblk..jblk + jcnt);
            jblk += jcnt;
        }

        // --- S tasks (trailing updates, same column chunking). Groups whose
        //     update height reaches `p.par_update_rows` are decomposed into
        //     the par_gemm sub-DAG: pack-A once per slab per group (shared
        //     across every column chunk — pack A once per `jc` sweep),
        //     pack-B once per panel per chunk (shared across groups), one
        //     packed-tile GEMM task per slab × panel. Results are bitwise
        //     identical to the monolithic `dgemm`; only the task
        //     granularity changes.
        let (slab_h, pan_w) = par_tile(b);
        let has_trailing = k > 0 && step + 1 < nb;
        let decompose: Vec<bool> = (0..g)
            .map(|grp| {
                let rows = part.group(grp);
                let lo = rows.start.max(k0 + k);
                has_trailing && lo < rows.end && rows.end - lo >= p.par_update_rows
            })
            .collect();

        // Pack-A tasks and the per-group slot layout. Reading the L slab
        // orders each pack after the group's LBlock solve via the tracker.
        let mut abase = vec![0usize; g + 1];
        let mut apack_ids: Vec<TaskId> = Vec::new();
        for grp in 0..g {
            abase[grp] = apack_ids.len();
            if !decompose[grp] {
                continue;
            }
            let rows = part.group(grp);
            let lo = rows.start.max(k0 + k);
            for slab in 0..(rows.end - lo).div_ceil(slab_h) {
                let slo = lo + slab * slab_h;
                let mb = slab_h.min(rows.end - slo);
                let meta = TaskMeta::new(TaskLabel::new(TaskKind::Other, step, grp, slab), 0.0)
                    .with_bytes(traffic::pack(mb, k))
                    .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Update, step + 1) + 5)
                    .with_class(KernelClass::Memory);
                let id = graph.add_task(meta, CaluTask::UPackA { step, grp, slab });
                tracker.read(&mut graph, id, row_blocks(slo..slo + mb, b), step..step + 1);
                apack_ids.push(id);
            }
        }
        abase[g] = apack_ids.len();
        let any_decomposed = !apack_ids.is_empty();

        let mut bbase: Vec<(usize, usize)> = Vec::new();
        let mut nbpacks = 0usize;
        let mut jblk = step + 1;
        while jblk < nb {
            let jcnt = p.update_blocks.min(nb - jblk);
            let jc0 = jblk * b;
            let wj = (jcnt * b).min(n - jc0);
            // Pack-B tasks of this chunk; reading the U row orders each
            // after the chunk's URow solve.
            let mut bpack_ids: Vec<TaskId> = Vec::new();
            if any_decomposed {
                bbase.push((jblk, nbpacks));
                for panel in 0..wj.div_ceil(pan_w) {
                    let pj0 = jc0 + panel * pan_w;
                    let nbp = pan_w.min(jc0 + wj - pj0);
                    let meta =
                        TaskMeta::new(TaskLabel::new(TaskKind::Other, step, g + panel, jblk), 0.0)
                            .with_bytes(traffic::pack(k, nbp))
                            .with_priority(
                                prio(nsteps, step, p.lookahead, TaskKind::Update, jblk) + 5,
                            )
                            .with_class(KernelClass::Memory);
                    let id = graph.add_task(meta, CaluTask::UPackB { step, jblk, jcnt, panel });
                    tracker.read(&mut graph, id, step..step + 1, row_blocks(pj0..pj0 + nbp, b));
                    bpack_ids.push(id);
                }
                nbpacks += bpack_ids.len();
            }
            for grp in 0..g {
                let rows = part.group(grp);
                let lo = rows.start.max(k0 + k);
                if lo >= rows.end || k == 0 {
                    continue;
                }
                if decompose[grp] {
                    for slab in 0..(rows.end - lo).div_ceil(slab_h) {
                        let slo = lo + slab * slab_h;
                        let mb = slab_h.min(rows.end - slo);
                        for (panel, &bid) in bpack_ids.iter().enumerate() {
                            let pj0 = jc0 + panel * pan_w;
                            let nbp = pan_w.min(jc0 + wj - pj0);
                            let meta = TaskMeta::new(
                                TaskLabel::new(TaskKind::Update, step, grp, jblk),
                                flops::gemm(mb, nbp, k),
                            )
                            .with_bytes(traffic::gemm_packed(mb, nbp, k))
                            .with_priority(
                                prio(nsteps, step, p.lookahead, TaskKind::Update, jblk),
                            )
                            .with_class(KernelClass::Gemm);
                            let id = graph.add_task(
                                meta,
                                CaluTask::UTile { step, grp, jblk, jcnt, slab, panel },
                            );
                            // The packed images are side storage the tracker
                            // cannot see — wire the dataflow explicitly.
                            graph.add_dep(apack_ids[abase[grp] + slab], id);
                            graph.add_dep(bid, id);
                            tracker.write(
                                &mut graph,
                                id,
                                row_blocks(slo..slo + mb, b),
                                row_blocks(pj0..pj0 + nbp, b),
                            );
                        }
                    }
                } else {
                    let meta = TaskMeta::new(
                        TaskLabel::new(TaskKind::Update, step, grp, jblk),
                        flops::gemm(rows.end - lo, wj, k),
                    )
                    .with_bytes(traffic::gemm(rows.end - lo, wj, k))
                    .with_priority(prio(nsteps, step, p.lookahead, TaskKind::Update, jblk))
                    .with_class(KernelClass::Gemm);
                    let id = graph.add_task(meta, CaluTask::Update { step, grp, jblk, jcnt });
                    tracker.read(&mut graph, id, row_blocks(lo..rows.end, b), step..step + 1);
                    tracker.read(&mut graph, id, step..step + 1, jblk..jblk + jcnt);
                    tracker.write(&mut graph, id, row_blocks(lo..rows.end, b), jblk..jblk + jcnt);
                }
            }
            jblk += jcnt;
        }

        let results = (0..g + schedule.len()).map(|_| OnceLock::new()).collect();
        panels.push(PanelCtx {
            k0,
            w,
            k,
            part,
            schedule,
            results,
            node_inputs,
            pivots: OnceLock::new(),
            breakdown: OnceLock::new(),
            growth: OnceLock::new(),
            par: ParUpdate {
                slab_h,
                pan_w,
                abase,
                apacks: (0..apack_ids.len()).map(|_| OnceLock::new()).collect(),
                bbase,
                bpacks: (0..nbpacks).map(|_| OnceLock::new()).collect(),
            },
        });
    }

    // --- Deferred left-side interchanges (Algorithm 1 line 41).
    for jblk in 0..nsteps.saturating_sub(1) {
        let swap_rows: usize = (jblk + 1..nsteps).map(|k| b.min(m.min(n) - k * b)).sum();
        let meta = TaskMeta::new(TaskLabel::new(TaskKind::Swap, nsteps, 0, jblk), 0.0)
            .with_bytes(traffic::laswp(swap_rows, b.min(n - jblk * b)))
            .with_class(KernelClass::Memory);
        let id = graph.add_task(meta, CaluTask::LeftSwap { jblk });
        for (step, &rid) in root_ids.iter().enumerate().skip(jblk + 1) {
            let _ = step;
            graph.add_dep(rid, id);
        }
        tracker.write(&mut graph, id, row_blocks((jblk + 1) * b..m, b), jblk..jblk + 1);
    }

    // The tracker's per-footprint reasoning cannot see orderings already
    // implied by the explicitly added edges (reduction tree, pivot broadcast),
    // so it over-wires conflict edges a path already covers. Reduce to the minimal
    // equivalent DAG: ready times and conflict orderings are unchanged, and
    // the schedulers track fewer dependences.
    ca_sched::reduce_transitive_edges(&mut graph);

    CaluPlan {
        graph,
        access: tracker.into_access_map(),
        panels,
        m,
        n,
        b,
        recursive_leaves: !p.leaf_blas2,
        growth_limit: p.growth_limit,
    }
}

impl<T: Kernel> DagPlan<T> for CaluPlan<T> {
    type Task = CaluTask;
    type Factors = LuFactors<T>;

    fn graph(&self) -> &TaskGraph<CaluTask> {
        &self.graph
    }

    fn access(&self) -> &AccessMap {
        &self.access
    }

    // DAG executor: every access falls inside the footprint declared in
    // build(), which `verify_graph` proves conflict-ordered.
    #[allow(clippy::disallowed_methods)]
    fn exec(&self, a: &SharedMatrix<T>, t: CaluTask) {
        let m = self.m;
        let n = self.n;
        let b = self.b;
        match t {
            CaluTask::Leaf { step, grp } => {
                let ctx = &self.panels[step];
                let rows = ctx.part.group(grp);
                // SAFETY: the DAG orders this read after the last writer of
                // these panel blocks and before any subsequent writer.
                let block = unsafe { a.block(rows.start, ctx.k0, rows.len(), ctx.w) };
                let idx: Vec<usize> = rows.collect();
                let sel = select(block, &idx, self.recursive_leaves);
                if ctx.schedule.is_empty() {
                    self.finish_root(a, step, sel);
                } else {
                    ctx.results[grp].set(sel).expect("leaf slot already set");
                }
            }
            CaluTask::Node { step, node } => {
                let ctx = &self.panels[step];
                let inputs: Vec<&Selected<T>> = ctx.node_inputs[node]
                    .iter()
                    .map(|&r| ctx.results[r].get().expect("candidate not ready"))
                    .collect();
                let sel = merge(&inputs, self.recursive_leaves);
                if node + 1 == ctx.schedule.len() {
                    self.finish_root(a, step, sel);
                } else {
                    let g = ctx.part.ngroups();
                    ctx.results[g + node].set(sel).expect("node slot already set");
                }
            }
            CaluTask::LBlock { step, grp } => {
                let ctx = &self.panels[step];
                let rows = ctx.part.group(grp);
                let lo = rows.start.max(ctx.k0 + ctx.k);
                // SAFETY: disjoint from all concurrent tasks per the DAG.
                let ukk = unsafe { a.block(ctx.k0, ctx.k0, ctx.k, ctx.k) };
                let lb = unsafe { a.block_mut(lo, ctx.k0, rows.end - lo, ctx.k) };
                trsm_right_upper_notrans(ukk, lb);
            }
            CaluTask::URow { step, jblk, jcnt } => {
                let ctx = &self.panels[step];
                let jc0 = jblk * b;
                let wj = (jcnt * b).min(n - jc0);
                let pivots = ctx.pivots.get().expect("pivots not ready");
                // SAFETY: this task is the only one touching column block
                // jblk rows k0.. at this point in the schedule.
                let mut col = unsafe { a.block_mut(ctx.k0, jc0, m - ctx.k0, wj) };
                local_seq(pivots, ctx.k0).apply(col.rb());
                let lkk = unsafe { a.block(ctx.k0, ctx.k0, ctx.k, ctx.k) };
                let urow = col.into_sub(0, 0, ctx.k, wj);
                trsm_left_lower_unit(lkk, urow);
            }
            CaluTask::Update { step, grp, jblk, jcnt } => {
                let ctx = &self.panels[step];
                let jc0 = jblk * b;
                let wj = (jcnt * b).min(n - jc0);
                let rows = ctx.part.group(grp);
                let lo = rows.start.max(ctx.k0 + ctx.k);
                // SAFETY: reads L (final) and U (final); writes blocks only
                // this task may touch per the DAG.
                let l = unsafe { a.block(lo, ctx.k0, rows.end - lo, ctx.k) };
                let u = unsafe { a.block(ctx.k0, jc0, ctx.k, wj) };
                let c = unsafe { a.block_mut(lo, jc0, rows.end - lo, wj) };
                gemm(Trans::No, Trans::No, -T::ONE, l, u, T::ONE, c);
            }
            CaluTask::UPackA { step, grp, slab } => {
                let ctx = &self.panels[step];
                let rows = ctx.part.group(grp);
                let lo = rows.start.max(ctx.k0 + ctx.k);
                let slo = lo + slab * ctx.par.slab_h;
                let mb = ctx.par.slab_h.min(rows.end - slo);
                // SAFETY: reads the group's final L slab — the DAG orders
                // this after the LBlock solve and before any later writer.
                let l = unsafe { a.block(slo, ctx.k0, mb, ctx.k) };
                let mut buf = AlignedBuf::new();
                pack_a_slab(Trans::No, l, 0, mb, &mut buf);
                // Ignore a lost set: a replayed task repacks identical bytes.
                let _ = ctx.par.aslot(grp, slab).set(buf);
            }
            CaluTask::UPackB { step, jblk, jcnt, panel } => {
                let ctx = &self.panels[step];
                let jc0 = jblk * b;
                let wj = (jcnt * b).min(n - jc0);
                let pj0 = jc0 + panel * ctx.par.pan_w;
                let nbp = ctx.par.pan_w.min(jc0 + wj - pj0);
                // SAFETY: reads the final U row panel (after URow's solve).
                let u = unsafe { a.block(ctx.k0, pj0, ctx.k, nbp) };
                let mut buf = AlignedBuf::new();
                pack_b_panel(Trans::No, u, 0, nbp, &mut buf);
                let _ = ctx.par.bslot(jblk, panel).set(buf);
            }
            CaluTask::UTile { step, grp, jblk, jcnt, slab, panel } => {
                let ctx = &self.panels[step];
                let rows = ctx.part.group(grp);
                let lo = rows.start.max(ctx.k0 + ctx.k);
                let slo = lo + slab * ctx.par.slab_h;
                let mb = ctx.par.slab_h.min(rows.end - slo);
                let jc0 = jblk * b;
                let wj = (jcnt * b).min(n - jc0);
                let pj0 = jc0 + panel * ctx.par.pan_w;
                let nbp = ctx.par.pan_w.min(jc0 + wj - pj0);
                let apack = ctx.par.aslot(grp, slab).get().expect("A image not packed");
                let bpack = ctx.par.bslot(jblk, panel).get().expect("B image not packed");
                // SAFETY: writes only this tile's C window, which the DAG
                // orders against every conflicting task; `beta = 1` makes
                // the packed path replay the monolithic gemm bitwise.
                let c = unsafe { a.block_mut(slo, pj0, mb, nbp) };
                gemm_packed(-T::ONE, apack, bpack, ctx.k, T::ONE, c);
            }
            CaluTask::LeftSwap { jblk } => {
                let jc0 = jblk * b;
                let wj = b.min(n - jc0);
                for ctx in &self.panels[jblk + 1..] {
                    let pivots = ctx.pivots.get().expect("pivots not ready");
                    // SAFETY: exclusive writer of this finished column block.
                    let col = unsafe { a.block_mut(ctx.k0, jc0, m - ctx.k0, wj) };
                    local_seq(pivots, ctx.k0).apply(col);
                }
            }
        }
    }

    /// Gathers the per-panel results once every task completed successfully.
    fn collect(self, shared: SharedMatrix<T>) -> LuFactors<T> {
        let mut pivots = PivotSeq::new(0);
        let mut breakdown = None;
        let mut stats = LuStats::default();
        for ctx in &self.panels {
            let pp = ctx.pivots.get().expect("panel pivots missing");
            pivots.extend(pp);
            if breakdown.is_none() {
                if let Some(c) = ctx.breakdown.get().copied().flatten() {
                    breakdown = Some(ctx.k0 + c);
                }
            }
            let (g, fb) = ctx.growth.get().copied().expect("panel growth missing");
            stats.panel_growth.push(g);
            if fb {
                stats.fallback_panels.push(ctx.k0);
            }
        }
        let lu = shared.into_inner();
        LuFactors { lu, pivots, breakdown, stats }
    }
}

impl<T: Kernel> CaluPlan<T> {
    /// Root-task epilogue: record pivots, interchange the panel, write the
    /// packed `L_KK\U_KK` block.
    // DAG executor: accesses stay inside the root task's declared footprint.
    #[allow(clippy::disallowed_methods)]
    fn finish_root(&self, a: &SharedMatrix<T>, step: usize, sel: Selected<T>) {
        let ctx = &self.panels[step];
        let m = self.m;
        // Growth policy before any write-back: the panel's active region
        // still holds its pre-interchange values here.
        let (sel, growth, fallback) = {
            // SAFETY: same ordering argument as the writes below — the root
            // is ordered after every other reader/writer of the panel.
            let active = unsafe { a.block(ctx.k0, ctx.k0, m - ctx.k0, ctx.w) };
            apply_growth_policy(active, ctx.k0, sel, self.growth_limit, self.recursive_leaves)
        };
        let pivots = pivot_seq_from_targets(ctx.k0, &sel.idx);
        // SAFETY: the root is ordered after every reader/writer of the
        // panel's active blocks and before every subsequent consumer.
        let mut panel = unsafe { a.block_mut(ctx.k0, ctx.k0, m - ctx.k0, ctx.w) };
        local_seq(&pivots, ctx.k0).apply(panel.rb());
        panel.sub(0, 0, ctx.k, ctx.w).copy_from(sel.packed.view());
        ctx.breakdown.set(sel.breakdown).expect("root ran twice");
        ctx.growth.set((growth, fallback)).expect("root ran twice");
        ctx.pivots.set(pivots).expect("root ran twice");
    }
}

/// Rebases a pivot sequence to a view starting at global row `k0`.
fn local_seq(p: &PivotSeq, k0: usize) -> PivotSeq {
    PivotSeq { offset: p.offset - k0, ipiv: p.ipiv.iter().map(|&x| x - k0).collect() }
}

/// Builds just the task graph (for the multicore simulator and DAG figures).
pub fn calu_task_graph(m: usize, n: usize, p: &CaParams) -> TaskGraph<CaluTask> {
    build::<f64>(m, n, p).graph
}

/// Builds the task graph together with the declared footprints, for
/// soundness verification ([`ca_sched::verify_graph`]) and checked
/// simulation.
pub fn calu_task_graph_with_access(
    m: usize,
    n: usize,
    p: &CaParams,
) -> (TaskGraph<CaluTask>, AccessMap) {
    let plan = build::<f64>(m, n, p);
    (plan.graph, plan.access)
}

/// Statically verifies the CALU task graph for an `m × n` factorization:
/// structural invariants, every pair of tasks with conflicting footprints
/// ordered by a happens-before path, and the §III lookahead priority rule.
pub fn verify_calu(m: usize, n: usize, p: &CaParams) -> Result<VerifyReport, SoundnessError> {
    verify_calu_with(m, n, p, &ca_sched::VerifyOptions::default())
}

/// [`verify_calu`] with explicit [`ca_sched::VerifyOptions`] (the
/// edge-minimality lint passes).
pub fn verify_calu_with(
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
    use crate::calu::{calu, calu_seq_factor};
    use crate::params::TreeShape;
    use ca_matrix::seeded_rng;

    fn check_parallel(m: usize, n: usize, b: usize, tr: usize, threads: usize, tree: TreeShape, seed: u64) {
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(seed));
        let mut p = CaParams::new(b, tr, threads);
        p.tree = tree;
        let f = calu(a0.clone(), &p);
        let res = f.residual(&a0);
        assert!(res < 1e-12, "residual {res} for {m}x{n} b={b} tr={tr} t={threads}");
        // Must agree bitwise with the sequential reference: same kernels on
        // the same blocks, only the interleaving differs.
        let fs = calu_seq_factor(a0, &p);
        assert_eq!(f.pivots.ipiv, fs.pivots.ipiv, "pivots differ from sequential");
        assert_eq!(f.lu.as_slice(), fs.lu.as_slice(), "factors differ from sequential");
    }

    #[test]
    fn parallel_matches_sequential_square() {
        check_parallel(64, 64, 16, 2, 4, TreeShape::Binary, 1);
        check_parallel(100, 100, 25, 4, 3, TreeShape::Binary, 2);
    }

    #[test]
    fn parallel_matches_sequential_tall() {
        check_parallel(400, 30, 10, 8, 4, TreeShape::Binary, 3);
        check_parallel(333, 20, 7, 4, 2, TreeShape::Flat, 4);
    }

    #[test]
    fn parallel_matches_sequential_wide_and_ragged() {
        check_parallel(50, 90, 16, 4, 4, TreeShape::Binary, 5);
        check_parallel(97, 61, 13, 3, 5, TreeShape::Binary, 6);
    }

    #[test]
    fn single_thread_single_group() {
        check_parallel(60, 60, 20, 1, 1, TreeShape::Binary, 7);
    }

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
    fn two_level_update_blocking_same_results_fewer_tasks() {
        // The §V future-work feature: B = 4b update tasks must give the
        // bitwise-same factorization with a smaller task graph.
        let a0 = ca_matrix::random_uniform(240, 240, &mut seeded_rng(21));
        let p1 = CaParams::new(20, 4, 4);
        let p4 = p1.with_update_blocking(4);
        let f1 = calu(a0.clone(), &p1);
        let f4 = calu(a0.clone(), &p4);
        assert_eq!(f1.lu.as_slice(), f4.lu.as_slice());
        assert_eq!(f1.pivots.ipiv, f4.pivots.ipiv);
        let g1 = calu_task_graph(240, 240, &p1);
        let g4 = calu_task_graph(240, 240, &p4);
        g4.validate();
        assert!(g4.len() < g1.len(), "coarse blocking must shrink the graph: {} vs {}", g4.len(), g1.len());
    }

    #[test]
    fn decomposed_update_matches_plain_and_sequential() {
        // Force the par_gemm sub-DAG with a tiny threshold: multi-slab
        // (m = 400 ⇒ 3 slabs of slab_h = 128 at b = 16) and the bitwise
        // contract against both the monolithic tasks and the sequential
        // reference, at several worker counts.
        let a0 = ca_matrix::random_uniform(400, 96, &mut seeded_rng(31));
        let p_plain = CaParams::new(16, 1, 4).with_par_update_rows(usize::MAX);
        let p_par = p_plain.with_par_update_rows(32);
        let g_plain = calu_task_graph(400, 96, &p_plain);
        let g_par = calu_task_graph(400, 96, &p_par);
        assert!(g_par.len() > g_plain.len(), "decomposition must add pack/tile tasks");
        let f_plain = calu(a0.clone(), &p_plain);
        for threads in [1, 2, 4] {
            let mut p = p_par;
            p.threads = threads;
            let f = calu(a0.clone(), &p);
            assert_eq!(f.pivots.ipiv, f_plain.pivots.ipiv, "pivots diverged at {threads} threads");
            assert_eq!(f.lu.as_slice(), f_plain.lu.as_slice(), "factors diverged at {threads} threads");
        }
        let fs = calu_seq_factor(a0, &p_par);
        assert_eq!(f_plain.lu.as_slice(), fs.lu.as_slice());
    }

    #[test]
    fn decomposed_update_splits_wide_chunks_into_panels() {
        // A wide two-level-blocked chunk (wj = 1120 > pan_w = 1024) must
        // split into two packed-B panels and still factor bitwise-identically.
        let (m, n, b) = (96, 1200, 16);
        let a0 = ca_matrix::random_uniform(m, n, &mut seeded_rng(32));
        let p_plain = CaParams::new(b, 1, 3).with_update_blocking(70);
        let p_par = p_plain.with_par_update_rows(16);
        let graph = calu_task_graph(m, n, &p_par);
        graph.validate();
        let f_plain = calu(a0.clone(), &p_plain);
        let f_par = calu(a0, &p_par);
        assert_eq!(f_par.lu.as_slice(), f_plain.lu.as_slice());
        assert_eq!(f_par.pivots.ipiv, f_plain.pivots.ipiv);
    }

    #[test]
    fn decomposed_update_passes_checked_execution() {
        // Static verify + shadow-lease audited execution with the sub-DAG
        // enabled: every pack/tile access must stay inside its declared
        // footprint and no two live leases may race.
        let a0 = ca_matrix::random_uniform(160, 160, &mut seeded_rng(33));
        let p = CaParams::new(16, 2, 3).with_par_update_rows(32);
        let opts = crate::FactorOptions { checked: true, ..Default::default() };
        let (f, _) = crate::try_calu_with(a0.clone(), &p, &opts).expect("checked run");
        let fs = calu_seq_factor(a0, &p);
        assert_eq!(f.lu.as_slice(), fs.lu.as_slice());
    }

    #[test]
    fn decomposed_graph_verifies() {
        let p = CaParams::new(16, 2, 4).with_par_update_rows(32);
        verify_calu(256, 192, &p).unwrap_or_else(|v| panic!("verify failed: {v}"));
    }

    #[test]
    fn disabled_threshold_reproduces_monolithic_graph() {
        let p_def = CaParams::new(16, 1, 4); // default threshold 2·MC = 256
        let p_off = p_def.with_par_update_rows(usize::MAX);
        // 400-row groups exceed the default threshold, so the default graph
        // decomposes while usize::MAX must not.
        let g_def = calu_task_graph(400, 96, &p_def);
        let g_off = calu_task_graph(400, 96, &p_off);
        assert!(g_def.len() > g_off.len());
        let a0 = ca_matrix::random_uniform(400, 96, &mut seeded_rng(34));
        let f_def = calu(a0.clone(), &p_def);
        let f_off = calu(a0, &p_off);
        assert_eq!(f_def.lu.as_slice(), f_off.lu.as_slice());
    }

    #[test]
    fn lookahead_changes_priorities_not_results() {
        let a0 = ca_matrix::random_uniform(120, 120, &mut seeded_rng(8));
        let p1 = CaParams::new(30, 4, 4);
        let p2 = p1.without_lookahead();
        let f1 = calu(a0.clone(), &p1);
        let f2 = calu(a0.clone(), &p2);
        assert_eq!(f1.lu.as_slice(), f2.lu.as_slice());
        assert_eq!(f1.pivots.ipiv, f2.pivots.ipiv);
    }
}

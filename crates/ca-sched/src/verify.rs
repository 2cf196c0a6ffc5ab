//! Static DAG soundness verifier.
//!
//! [`verify_graph`] proves — before a single task runs — that a task graph
//! plus its declared element-rect footprints ([`AccessMap`]) is safe to
//! execute on a `SharedMatrix`: every pair of tasks whose declared rects
//! conflict (W–W, R–W, or W–R on at least one shared element) must be
//! ordered by a happens-before path in the DAG. Conflicts are element-exact,
//! so graphs that interleave disjoint sub-tile footprints verify as they
//! are, and side storage ([`crate::Slot`]) is one more element a task
//! declares, so every edge a slot carries is proven like any other. It also
//! re-checks structural invariants (forward-only edges, consistent
//! predecessor counts, every task releasable) without trusting the builder,
//! and lints the §III scheduling rule that panel tasks of step `K+1` outrank
//! the trailing updates of step `K` (lookahead of 1).
//!
//! Happens-before is decided with a bitset transitive closure computed in
//! reverse topological order (`reach[t] = ∪ reach[s] ∪ {s}` over successors
//! `s`), `O(E · V/64)` time and `V²/8` bytes; graphs beyond
//! [`CLOSURE_TASK_LIMIT`] tasks fall back to a per-pair pruned DFS.

use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::task::{TaskId, TaskKind, TaskLabel};
use ca_matrix::ElemRect;
use ca_matrix::RegionSet;
use std::collections::{HashMap, HashSet};

/// Above this many tasks the verifier switches from the quadratic-memory
/// transitive closure to per-pair DFS reachability.
pub const CLOSURE_TASK_LIMIT: usize = 1 << 14;

/// Simulated worker count used by the edge lint when it re-simulates the
/// graph (with and without flagged edges) to report the lookahead metric.
const LINT_SIM_WORKERS: usize = 4;

/// Options for [`verify_graph_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyOptions {
    /// Run the minimality analysis (edge-necessity, transitive-redundancy
    /// and dataflow lints) over the happens-before closure and attach a
    /// [`LintReport`] to the result.
    pub lint_edges: bool,
}

/// How two tasks' declared accesses of the same elements conflict. The first
/// mode belongs to the earlier task (lower id), the second to the later one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// Both tasks write the elements.
    WriteWrite,
    /// The earlier task reads, the later writes (anti-dependence).
    ReadWrite,
    /// The earlier task writes, the later reads (true dependence).
    WriteRead,
}

impl core::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::WriteWrite => "W-W",
            Self::ReadWrite => "R-W",
            Self::WriteRead => "W-R",
        })
    }
}

/// A soundness violation found by [`verify_graph`] or by checked execution
/// mode.
#[derive(Clone, Debug, PartialEq)]
pub enum SoundnessError {
    /// An edge points backwards (or to itself) in topological insertion
    /// order — the graph could cycle.
    BackEdge {
        /// Source of the offending edge.
        from: TaskId,
        /// Target of the offending edge.
        to: TaskId,
    },
    /// A task's stored predecessor count disagrees with the edges — an
    /// executor would release it too early or never.
    InconsistentPreds {
        /// The task with the bad count.
        task: TaskId,
        /// Count stored in the graph.
        declared: usize,
        /// Count implied by the edges.
        counted: usize,
    },
    /// A task can never become ready (dangling: unreachable from the roots
    /// by dependency release).
    Unreleasable {
        /// The dangling task.
        task: TaskId,
        /// Its label.
        label: TaskLabel,
    },
    /// The access map mentions a task id the graph does not contain.
    UnknownTask {
        /// The unknown id.
        task: TaskId,
        /// Number of tasks in the graph.
        tasks: usize,
    },
    /// A declared element rect lies outside the matrix extent and is not
    /// one of the map's slots.
    RectOutOfMatrix {
        /// The declaring task.
        task: TaskId,
        /// Its label.
        label: TaskLabel,
        /// The offending rect.
        rect: ElemRect,
        /// Matrix rows.
        m: usize,
        /// Matrix columns.
        n: usize,
    },
    /// Two tasks' declared footprints overlap but no happens-before path
    /// orders them — executing the graph could race.
    UnorderedConflict {
        /// Earlier task (lower id).
        first: TaskId,
        /// Its label.
        first_label: TaskLabel,
        /// Later task (higher id).
        second: TaskId,
        /// Its label.
        second_label: TaskLabel,
        /// How the accesses conflict.
        kind: ConflictKind,
        /// The overlapping element rectangle.
        rect: ElemRect,
    },
    /// Two views a task body held overlapped, at least one of them mutable
    /// ([`crate::TaskCx`]): both labels name that task.
    Race {
        /// Label of the task holding the earlier view.
        first: String,
        /// Label of the task that opened the overlapping view.
        second: String,
        /// Overlapping element rows `(start, end)`.
        rows: (usize, usize),
        /// Overlapping element columns `(start, end)`.
        cols: (usize, usize),
    },
    /// A task body opened elements (or a slot, as its side-column element)
    /// outside its declared footprint ([`crate::TaskCx`]), in any run.
    UndeclaredAccess {
        /// Label of the offending task.
        task: String,
        /// `true` for a mutable access.
        write: bool,
        /// Accessed element rows `(start, end)`.
        rows: (usize, usize),
        /// Accessed element columns `(start, end)`.
        cols: (usize, usize),
    },
}

impl core::fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BackEdge { from, to } => {
                write!(f, "edge {from} -> {to} violates topological order (possible cycle)")
            }
            Self::InconsistentPreds { task, declared, counted } => {
                write!(f, "task {task} declares {declared} predecessors but edges imply {counted}")
            }
            Self::Unreleasable { task, label } => {
                write!(f, "task {task} ({label}) can never become ready")
            }
            Self::UnknownTask { task, tasks } => {
                write!(f, "access map names task {task} but the graph has only {tasks} tasks")
            }
            Self::RectOutOfMatrix { task, label, rect, m, n } => {
                write!(f, "task {task} ({label}) declares {rect} outside the {m}x{n} matrix")
            }
            Self::UnorderedConflict { first, first_label, second, second_label, kind, rect } => {
                write!(
                    f,
                    "{kind} conflict on {rect} between task {first} ({first_label}) and \
                     task {second} ({second_label}) with no happens-before path"
                )
            }
            Self::Race { first, second, rows, cols } => write!(
                f,
                "race: tasks {first} and {second} held overlapping leases on elements \
                 rows {}..{} × cols {}..{}",
                rows.0, rows.1, cols.0, cols.1
            ),
            Self::UndeclaredAccess { task, write, rows, cols } => write!(
                f,
                "task {task} {} elements rows {}..{} × cols {}..{} outside its declared footprint",
                if *write { "wrote" } else { "read" },
                rows.0,
                rows.1,
                cols.0,
                cols.1
            ),
        }
    }
}

impl std::error::Error for SoundnessError {}

/// A dependency edge flagged by the minimality lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeFinding {
    /// Edge source.
    pub from: TaskId,
    /// Its label.
    pub from_label: TaskLabel,
    /// Edge target.
    pub to: TaskId,
    /// Its label.
    pub to_label: TaskLabel,
}

impl core::fmt::Display for EdgeFinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "edge {} ({}) -> {} ({})", self.from, self.from_label, self.to, self.to_label)
    }
}

/// A write whose next access (in the graph's serialization order) is
/// another write: dead under pure-overwrite semantics. Advisory — a
/// declared write may read-modify-write, which footprints cannot express.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowedWrite {
    /// The writing task.
    pub task: TaskId,
    /// Its label.
    pub label: TaskLabel,
    /// Elements of the write overwritten before any declared read.
    pub area: usize,
}

impl core::fmt::Display for ShadowedWrite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "task {} ({}) writes {} element(s) overwritten before any declared read",
            self.task, self.label, self.area
        )
    }
}

/// Result of the minimality analysis over the happens-before closure.
///
/// The two edge lists are each *sound to remove*, individually and
/// together: an unnecessary edge connects no pair of (transitive)
/// footprints that conflict, so no ordering obligation runs through it; a
/// redundant edge is implied by the rest of the graph (transitive
/// reduction preserves reachability). Every edge on a path connecting a
/// conflicting pair is justified by that pair's footprints in the
/// cumulative up/down sets, so unnecessary-edge removal can never break a
/// path that redundancy relies on.
///
/// The dataflow fields are advisory: cold reads are usually input loads,
/// and shadowed writes assume writes are pure overwrites (see
/// [`ShadowedWrite`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// Edges justified by no footprint conflict between the source's
    /// ancestry and the target's descendants.
    pub unnecessary_edges: Vec<EdgeFinding>,
    /// Edges implied by an alternative happens-before path.
    pub redundant_edges: Vec<EdgeFinding>,
    /// Elements read before any task wrote them (input loads).
    pub cold_read_area: usize,
    /// Writes overwritten before any declared read (advisory).
    pub shadowed_writes: Vec<ShadowedWrite>,
    /// Critical path of the graph as built.
    pub critical_path_flops: f64,
    /// Critical path with all flagged edges removed.
    pub reduced_critical_path_flops: f64,
    /// Total panel wait (PR 2 lookahead metric, simulated on 4 workers) of
    /// the graph as built.
    pub panel_wait_seconds: f64,
    /// Total panel wait with all flagged edges removed.
    pub reduced_panel_wait_seconds: f64,
}

impl LintReport {
    /// Number of minimality findings (flagged edges). Dataflow results are
    /// advisory and do not count.
    pub fn minimality_findings(&self) -> usize {
        self.unnecessary_edges.len() + self.redundant_edges.len()
    }
}

/// Statistics from a successful [`verify_graph`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Tasks in the graph.
    pub tasks: usize,
    /// Dependency edges.
    pub edges: usize,
    /// Declared read/write element rects.
    pub declared_regions: usize,
    /// Distinct index cells with at least one declared access.
    pub blocks_touched: usize,
    /// Conflicting task pairs (element footprints overlap, at least one a
    /// write) proven ordered.
    pub conflict_pairs: usize,
    /// Lookahead-lint findings (§III priority rule). Informational:
    /// the tiled baselines intentionally schedule without lookahead.
    pub lookahead_warnings: Vec<String>,
    /// Minimality analysis, when requested via
    /// [`VerifyOptions::lint_edges`].
    pub lint: Option<LintReport>,
}

/// How many flagged-edge findings to spell out in the report rendering.
const DISPLAY_FINDING_CAP: usize = 20;

impl core::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "verified {} tasks, {} edges: {} conflicting pair(s) ordered across {} declared \
             region(s) on {} block(s)",
            self.tasks, self.edges, self.conflict_pairs, self.declared_regions, self.blocks_touched
        )?;
        for w in &self.lookahead_warnings {
            writeln!(f, "warning: {w}")?;
        }
        if let Some(lint) = &self.lint {
            writeln!(
                f,
                "lint: {} unnecessary edge(s), {} transitively redundant edge(s)",
                lint.unnecessary_edges.len(),
                lint.redundant_edges.len()
            )?;
            for e in lint.unnecessary_edges.iter().take(DISPLAY_FINDING_CAP) {
                writeln!(f, "lint: unnecessary {e}")?;
            }
            for e in lint.redundant_edges.iter().take(DISPLAY_FINDING_CAP) {
                writeln!(f, "lint: redundant {e}")?;
            }
            if lint.minimality_findings() > 0 {
                writeln!(
                    f,
                    "lint: without flagged edges: critical path {:.4e} -> {:.4e} flops, \
                     panel wait {:.4e} -> {:.4e} s on {LINT_SIM_WORKERS} workers",
                    lint.critical_path_flops,
                    lint.reduced_critical_path_flops,
                    lint.panel_wait_seconds,
                    lint.reduced_panel_wait_seconds
                )?;
            }
            let shadowed_area: usize = lint.shadowed_writes.iter().map(|s| s.area).sum();
            writeln!(
                f,
                "lint: dataflow: {} cold-read element(s); {} element(s) across {} write(s) \
                 shadowed by later writes",
                lint.cold_read_area,
                shadowed_area,
                lint.shadowed_writes.len()
            )?;
        }
        Ok(())
    }
}

/// Verifies that `graph` with declared footprints `access` is sound to
/// execute on a shared matrix: structurally valid, every task releasable,
/// and every conflicting element access ordered by a happens-before path.
///
/// Equivalent to [`verify_graph_with`] with no lints.
pub fn verify_graph<T>(
    graph: &TaskGraph<T>,
    access: &AccessMap,
) -> Result<VerifyReport, SoundnessError> {
    verify_graph_with(graph, access, &VerifyOptions::default())
}

/// [`verify_graph`] with explicit [`VerifyOptions`]: conflict enumeration
/// optionally followed by the minimality analysis (see [`LintReport`]).
pub fn verify_graph_with<T>(
    graph: &TaskGraph<T>,
    access: &AccessMap,
    opts: &VerifyOptions,
) -> Result<VerifyReport, SoundnessError> {
    let n = graph.len();

    // Structure: forward-only edges, consistent predecessor counts. Checked
    // from scratch — the verifier must not trust builder discipline.
    let mut counted = vec![0usize; n];
    let mut edges = 0usize;
    for id in 0..n {
        for &s in graph.successors(id) {
            if s >= n {
                return Err(SoundnessError::UnknownTask { task: s, tasks: n });
            }
            if s <= id {
                return Err(SoundnessError::BackEdge { from: id, to: s });
            }
            counted[s] += 1;
            edges += 1;
        }
    }
    for (id, &c) in counted.iter().enumerate() {
        if c != graph.pred_count(id) {
            return Err(SoundnessError::InconsistentPreds {
                task: id,
                declared: graph.pred_count(id),
                counted: c,
            });
        }
    }

    // Completeness: dependency release (Kahn) must reach every task.
    let mut indeg = counted;
    let mut stack: Vec<TaskId> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut released = 0usize;
    while let Some(id) = stack.pop() {
        released += 1;
        for &s in graph.successors(id) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                stack.push(s);
            }
        }
    }
    if released < n {
        let task = (0..n).find(|&i| indeg[i] > 0).expect("some task unreleased");
        return Err(SoundnessError::Unreleasable { task, label: graph.meta(task).label });
    }

    // Footprint sanity: known tasks, rects inside the matrix extent or
    // allocated slots.
    let (_, em, en) = access.geometry();
    for t in 0..access.tasks() {
        if t >= n {
            if !access.reads(t).is_empty() || !access.writes(t).is_empty() {
                return Err(SoundnessError::UnknownTask { task: t, tasks: n });
            }
            continue;
        }
        for &rect in access.reads(t).iter().chain(access.writes(t)) {
            if !access.in_bounds(&rect) {
                return Err(SoundnessError::RectOutOfMatrix {
                    task: t,
                    label: graph.meta(t).label,
                    rect,
                    m: em,
                    n: en,
                });
            }
        }
    }

    // Happens-before: the bitset closure, or per-pair DFS above its limit.
    let closure = Closure::of(graph);
    let ordered = |a: TaskId, b: TaskId| -> bool {
        debug_assert!(a < b);
        match &closure {
            Some(c) => c.reaches(a, b),
            None => dfs_reaches(graph, a, b),
        }
    };

    // Conflict enumeration: every conflicting pair must be ordered.
    // Accesses are bucketed per index cell (the tracker's, a slot's own),
    // each carrying its cell-clipped rect; two accesses of one cell
    // conflict iff the clips overlap.
    let ntasks = access.tasks().min(n);
    let mut seen_pairs: HashSet<(TaskId, TaskId)> = HashSet::new();
    let mut per_cell: Vec<Vec<(TaskId, bool, ElemRect)>> = vec![Vec::new(); access.cell_count()];
    for t in 0..ntasks {
        for (rects, write) in [(access.reads(t), false), (access.writes(t), true)] {
            for &rect in rects {
                for (cell, clip) in access.cells(rect) {
                    per_cell[cell].push((t, write, clip));
                }
            }
        }
    }
    let blocks_touched = per_cell.iter().filter(|l| !l.is_empty()).count();
    for list in &per_cell {
        for x in 0..list.len() {
            for y in x + 1..list.len() {
                let (t1, w1, r1) = list[x];
                let (t2, w2, r2) = list[y];
                if t1 == t2 || (!w1 && !w2) {
                    continue;
                }
                let Some(overlap) = r1.intersection(&r2) else { continue };
                let (a, wa, b, wb) = if t1 < t2 { (t1, w1, t2, w2) } else { (t2, w2, t1, w1) };
                if !seen_pairs.insert((a, b)) {
                    continue;
                }
                if !ordered(a, b) {
                    return Err(SoundnessError::UnorderedConflict {
                        first: a,
                        first_label: graph.meta(a).label,
                        second: b,
                        second_label: graph.meta(b).label,
                        kind: conflict_kind(wa, wb),
                        rect: overlap,
                    });
                }
            }
        }
    }

    let lint = opts.lint_edges.then(|| lint_pass(graph, access, ordered));

    Ok(VerifyReport {
        tasks: n,
        edges,
        declared_regions: access.region_count(),
        blocks_touched,
        conflict_pairs: seen_pairs.len(),
        lookahead_warnings: lookahead_lint(graph),
        lint,
    })
}

/// Classifies a conflicting access pair; the first flag belongs to the
/// earlier task. Read-read pairs must be filtered out by the caller.
fn conflict_kind(wa: bool, wb: bool) -> ConflictKind {
    match (wa, wb) {
        (true, true) => ConflictKind::WriteWrite,
        (false, true) => ConflictKind::ReadWrite,
        (true, false) => ConflictKind::WriteRead,
        (false, false) => unreachable!("read-read pairs are skipped"),
    }
}

/// Transitive reduction through the verified removal path: deletes every
/// edge whose ordering another path already implies, and returns how many
/// were deleted.
///
/// The tracker reasons one footprint at a time and cannot see orderings a
/// path through other footprints (a reduction tree's slots, a pivot
/// broadcast) already implies, so it over-wires;
/// [`crate::PlanBuilder::finish`] runs this pass to restore the unique
/// minimal equivalent DAG. Sound
/// by construction: an edge `(a, b)` is deleted only when some other
/// successor of `a` still reaches `b`, so the happens-before closure — and
/// with it every conflict ordering and the executors' ready times — is
/// unchanged. Redundancy is decided against the original graph's closure,
/// which yields exactly the transitive reduction (unique for a DAG).
///
/// Graphs above [`CLOSURE_TASK_LIMIT`] are left untouched (returns 0).
pub fn reduce_transitive_edges<T>(graph: &mut TaskGraph<T>) -> usize {
    let Some(closure) = Closure::of(graph) else { return 0 };
    let mut removed = 0;
    for a in 0..graph.len() {
        let succs: Vec<TaskId> = graph.successors(a).to_vec();
        for &b in &succs {
            if succs.iter().any(|&s| s != b && closure.reaches(s, b)) {
                #[allow(clippy::disallowed_methods)] // this is the verified removal path
                let was_present = graph.remove_dep(a, b);
                debug_assert!(was_present);
                removed += 1;
            }
        }
    }
    removed
}

/// The happens-before closure of the module docs, shared by the verifier and
/// [`reduce_transitive_edges`]: bit `b` of row `a` is set iff a path leads
/// from `a` to `b`.
struct Closure {
    words: usize,
    reach: Vec<u64>,
}

impl Closure {
    /// The closure of `graph`, or `None` above [`CLOSURE_TASK_LIMIT`] tasks.
    fn of<T>(graph: &TaskGraph<T>) -> Option<Self> {
        let n = graph.len();
        if n > CLOSURE_TASK_LIMIT {
            return None;
        }
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        for id in (0..n).rev() {
            let (head, tail) = reach.split_at_mut((id + 1) * words);
            let row = &mut head[id * words..];
            for &s in graph.successors(id) {
                row[s / 64] |= 1u64 << (s % 64);
                let srow = &tail[(s - id - 1) * words..(s - id) * words];
                for (w, sw) in row.iter_mut().zip(srow) {
                    *w |= sw;
                }
            }
        }
        Some(Self { words, reach })
    }

    /// Whether a path leads from `a` to `b`.
    fn reaches(&self, a: TaskId, b: TaskId) -> bool {
        self.reach[a * self.words + b / 64] & (1u64 << (b % 64)) != 0
    }
}

/// Pruned DFS reachability `a → b` (only ids in `(a, b]` can be on a path,
/// because edges go forward in id order).
fn dfs_reaches<T>(graph: &TaskGraph<T>, a: TaskId, b: TaskId) -> bool {
    let mut visited = HashSet::new();
    let mut stack = vec![a];
    while let Some(id) = stack.pop() {
        for &s in graph.successors(id) {
            if s == b {
                return true;
            }
            if s < b && visited.insert(s) {
                stack.push(s);
            }
        }
    }
    false
}

/// The minimality analysis: edge-necessity and transitive-redundancy over
/// the happens-before relation, plus dataflow lints over the declared
/// footprints. `ordered(a, b)` must answer reachability for `a < b`. Runs
/// only on graphs that already passed conflict enumeration, so task-id order
/// is a valid serialization of every conflicting access.
fn lint_pass<T>(
    graph: &TaskGraph<T>,
    access: &AccessMap,
    ordered: impl Fn(TaskId, TaskId) -> bool,
) -> LintReport {
    let n = graph.len();

    // Own footprints as region sets (empty beyond the map's last task).
    let own_r: Vec<RegionSet> =
        (0..n).map(|t| RegionSet::from_rects(access.reads(t).iter().copied())).collect();
    let own_w: Vec<RegionSet> =
        (0..n).map(|t| RegionSet::from_rects(access.writes(t).iter().copied())).collect();

    // Cumulative footprints: up[t] covers t and all its ancestors (topo =
    // id order), down[t] covers t and all its descendants. An edge (a, b)
    // is *justified* iff some ancestor-side access conflicts with some
    // descendant-side access — removing an unjustified edge cannot break
    // the ordering of any conflicting pair, because every edge on a path
    // connecting a conflicting pair (x, y) sees x's footprint in its up
    // set and y's in its down set, and is therefore justified by (x, y).
    let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for a in 0..n {
        for &s in graph.successors(a) {
            preds[s].push(a);
        }
    }
    let mut up_r: Vec<RegionSet> = Vec::with_capacity(n);
    let mut up_w: Vec<RegionSet> = Vec::with_capacity(n);
    for t in 0..n {
        let mut r = own_r[t].clone();
        let mut w = own_w[t].clone();
        for &p in &preds[t] {
            r.union_in_place(&up_r[p]);
            w.union_in_place(&up_w[p]);
        }
        r.coalesce();
        w.coalesce();
        up_r.push(r);
        up_w.push(w);
    }
    let mut down_r: Vec<RegionSet> = vec![RegionSet::new(); n];
    let mut down_w: Vec<RegionSet> = vec![RegionSet::new(); n];
    for t in (0..n).rev() {
        let mut r = own_r[t].clone();
        let mut w = own_w[t].clone();
        for &s in graph.successors(t) {
            r.union_in_place(&down_r[s]);
            w.union_in_place(&down_w[s]);
        }
        r.coalesce();
        w.coalesce();
        down_r[t] = r;
        down_w[t] = w;
    }

    let mut unnecessary_edges = Vec::new();
    let mut redundant_edges = Vec::new();
    for a in 0..n {
        for &b in graph.successors(a) {
            let finding = || EdgeFinding {
                from: a,
                from_label: graph.meta(a).label,
                to: b,
                to_label: graph.meta(b).label,
            };
            // Necessity first: the stronger claim. Slots are footprints, so
            // an edge carrying side storage is justified by its slot.
            let justified = up_w[a].intersects_set(&down_w[b])
                || up_w[a].intersects_set(&down_r[b])
                || up_r[a].intersects_set(&down_w[b]);
            if !justified {
                unnecessary_edges.push(finding());
                continue;
            }
            // Transitive redundancy: another successor already reaches b
            // (edges only go forward in id order, so only s < b can).
            if graph.successors(a).iter().any(|&s| s != b && s < b && ordered(s, b)) {
                redundant_edges.push(finding());
            }
        }
    }

    // Cost of the flagged edges: critical path and the PR 2 lookahead
    // metric (total panel wait), before and after removing them from a
    // structural copy. remove_dep is allowed here: the copy exists to
    // price the findings, not to execute.
    let critical_path_flops = graph.critical_path_flops();
    let sim = graph.map_ref(|_, _| ());
    let panel_wait = |g: &TaskGraph<()>| {
        let report = crate::simulate(g, LINT_SIM_WORKERS, |_, m| m.flops);
        report.profile().lookahead_metrics().total_wait
    };
    let panel_wait_seconds = panel_wait(&sim);
    let (reduced_critical_path_flops, reduced_panel_wait_seconds) =
        if unnecessary_edges.is_empty() && redundant_edges.is_empty() {
            (critical_path_flops, panel_wait_seconds)
        } else {
            #[allow(clippy::disallowed_methods)]
            let mut reduced = sim;
            for e in unnecessary_edges.iter().chain(&redundant_edges) {
                #[allow(clippy::disallowed_methods)]
                reduced.remove_dep(e.from, e.to);
            }
            (reduced.critical_path_flops(), panel_wait(&reduced))
        };

    // Dataflow over the id-order serialization. Forward: reads of
    // never-written regions (input loads). Backward: writes whose next
    // access is another write (dead under pure-overwrite semantics).
    let mut written = RegionSet::new();
    let mut cold_read_area = 0usize;
    for t in 0..n {
        let mut cold = own_r[t].clone();
        cold.subtract(&written);
        cold_read_area += cold.area();
        written.union_in_place(&own_w[t]);
        written.coalesce();
    }
    let mut next_is_write = RegionSet::new();
    let mut shadowed_writes = Vec::new();
    for t in (0..n).rev() {
        let shadowed = own_w[t].intersect(&next_is_write);
        if !shadowed.is_empty() {
            shadowed_writes.push(ShadowedWrite {
                task: t,
                label: graph.meta(t).label,
                area: shadowed.area(),
            });
        }
        next_is_write.union_in_place(&own_w[t]);
        next_is_write.subtract(&own_r[t]);
        next_is_write.coalesce();
    }
    shadowed_writes.reverse();

    LintReport {
        unnecessary_edges,
        redundant_edges,
        cold_read_area,
        shadowed_writes,
        critical_path_flops,
        reduced_critical_path_flops,
        panel_wait_seconds,
        reduced_panel_wait_seconds,
    }
}

/// Lints the paper's §III lookahead rule: the panel tasks of step `K+1`
/// should outrank the *trailing* (non-lookahead, block column ≠ `K+1`)
/// updates of step `K`, so panels start as soon as their column is ready.
fn lookahead_lint<T>(graph: &TaskGraph<T>) -> Vec<String> {
    let mut min_panel: HashMap<usize, i64> = HashMap::new();
    let mut max_trailing: HashMap<usize, i64> = HashMap::new();
    for id in 0..graph.len() {
        let m = graph.meta(id);
        match m.label.kind {
            TaskKind::Panel => {
                min_panel
                    .entry(m.label.step)
                    .and_modify(|p| *p = (*p).min(m.priority))
                    .or_insert(m.priority);
            }
            TaskKind::Update if m.label.j != m.label.step + 1 => {
                max_trailing
                    .entry(m.label.step)
                    .and_modify(|p| *p = (*p).max(m.priority))
                    .or_insert(m.priority);
            }
            _ => {}
        }
    }
    let mut warnings: Vec<String> = max_trailing
        .iter()
        .filter_map(|(&step, &maxu)| {
            let &minp = min_panel.get(&(step + 1))?;
            (minp <= maxu).then(|| {
                format!(
                    "panel tasks of step {} (min priority {minp}) do not outrank the trailing \
                     updates of step {step} (max priority {maxu}); lookahead-of-1 is not in effect",
                    step + 1
                )
            })
        })
        .collect();
    warnings.sort();
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdeps::BlockTracker;
    use crate::task::{TaskKind, TaskMeta};

    fn mk<T>(g: &mut TaskGraph<T>, kind: TaskKind, step: usize, i: usize, payload: T) -> TaskId {
        g.add_task(TaskMeta::new(TaskLabel::new(kind, step, i, 0), 1.0), payload)
    }

    /// Write-chain then fan-out reads then barrier write, via the tracker.
    fn tracked_graph() -> (TaskGraph<()>, AccessMap) {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 4);
        let w0 = mk(&mut g, TaskKind::Panel, 0, 0, ());
        t.write(&mut g, w0, 0..4, 0..1);
        for i in 0..3 {
            let r = mk(&mut g, TaskKind::Update, 0, i, ());
            t.read(&mut g, r, 0..4, 0..1);
            t.write(&mut g, r, i..i + 1, 1..2);
        }
        let w1 = mk(&mut g, TaskKind::Panel, 1, 0, ());
        t.write(&mut g, w1, 0..4, 0..2);
        (g, t.into_access_map())
    }

    #[test]
    fn accepts_tracker_built_graph() {
        let (g, access) = tracked_graph();
        let report = verify_graph(&g, &access).expect("tracker-built graph is sound");
        assert_eq!(report.tasks, 5);
        assert!(report.conflict_pairs >= 7, "got {}", report.conflict_pairs);
        assert!(report.blocks_touched >= 5);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // probing the verifier with a raw edge deletion
    fn detects_removed_edge_as_unordered_conflict() {
        let (mut g, access) = tracked_graph();
        // Drop the RAW edge panel -> first reader; no other path orders them.
        assert!(g.remove_dep(0, 1));
        let err = verify_graph(&g, &access).expect_err("missing edge must be caught");
        match err {
            SoundnessError::UnorderedConflict {
                first, second, first_label, second_label, ..
            } => {
                assert_eq!((first, second), (0, 1));
                assert_eq!(first_label.kind, TaskKind::Panel);
                assert_eq!(second_label.kind, TaskKind::Update);
            }
            other => panic!("expected UnorderedConflict, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // probing the verifier with a raw edge deletion
    fn tracker_infers_minimal_edges_for_write_read_write() {
        // w0 -> r -> w1: the tracker must not add the transitively
        // redundant direct w0 -> w1 edge (r's WAR already orders the WAW
        // pair), and the minimal graph must still verify.
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let w0 = mk(&mut g, TaskKind::Panel, 0, 0, ());
        t.write(&mut g, w0, 0..1, 0..1);
        let r = mk(&mut g, TaskKind::Update, 0, 0, ());
        t.read(&mut g, r, 0..1, 0..1);
        let w1 = mk(&mut g, TaskKind::Panel, 1, 0, ());
        t.write(&mut g, w1, 0..1, 0..1);
        let access = t.into_access_map();
        assert!(!g.remove_dep(w0, w1), "tracker must skip the redundant WAW edge");
        let report = verify_graph(&g, &access).expect("minimal graph is still ordered");
        assert_eq!(report.conflict_pairs, 3);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // probing the verifier with a raw edge deletion
    fn redundant_edge_removal_is_accepted() {
        // w0 -> r -> w1 plus a hand-added direct w0 -> w1 edge: dropping
        // the direct edge keeps the pair ordered through r.
        let mut g = TaskGraph::new();
        let w0 = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let r = mk(&mut g, TaskKind::Update, 0, 0, ());
        let w1 = mk(&mut g, TaskKind::Panel, 1, 0, ());
        g.add_dep(w0, r);
        g.add_dep(r, w1);
        g.add_dep(w0, w1);
        let mut access = AccessMap::new(2, 2);
        access.record_write(w0, ElemRect::new(0..1, 0..1));
        access.record_read(r, ElemRect::new(0..1, 0..1));
        access.record_write(w1, ElemRect::new(0..1, 0..1));
        verify_graph(&g, &access).expect("redundant edge is harmless");
        assert!(g.remove_dep(w0, w1));
        verify_graph(&g, &access).expect("transitive path w0 -> r -> w1 still orders the pair");
    }

    #[test]
    fn detects_back_edge() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        mk(&mut g, TaskKind::Other, 0, 0, ());
        mk(&mut g, TaskKind::Other, 0, 1, ());
        // Forge a backward edge behind the API's back.
        g.succs[1].push(0);
        g.npreds[0] += 1;
        assert_eq!(
            verify_graph(&g, &AccessMap::new(1, 1)),
            Err(SoundnessError::BackEdge { from: 1, to: 0 })
        );
    }

    #[test]
    fn detects_inconsistent_pred_counts() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        mk(&mut g, TaskKind::Other, 0, 0, ());
        let b = mk(&mut g, TaskKind::Other, 0, 1, ());
        g.npreds[b] = 1; // no edge backs this up
        match verify_graph(&g, &AccessMap::new(1, 1)) {
            Err(SoundnessError::InconsistentPreds { task, declared, counted }) => {
                assert_eq!((task, declared, counted), (b, 1, 0));
            }
            other => panic!("expected InconsistentPreds, got {other:?}"),
        }
    }

    #[test]
    fn detects_unknown_task_in_access_map() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        mk(&mut g, TaskKind::Other, 0, 0, ());
        let mut access = AccessMap::new(2, 2);
        access.record_write(5, ElemRect::new(0..1, 0..1));
        assert_eq!(
            verify_graph(&g, &access),
            Err(SoundnessError::UnknownTask { task: 5, tasks: 1 })
        );
    }

    #[test]
    fn lookahead_lint_flags_priority_inversion() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        // Step-0 trailing update (j=2) outranks the step-1 panel: warn.
        let upd = TaskMeta::new(TaskLabel::new(TaskKind::Update, 0, 0, 2), 1.0).with_priority(1100);
        let pan = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 1, 0, 0), 1.0).with_priority(900);
        let u = g.add_task(upd, ());
        let p = g.add_task(pan, ());
        g.add_dep(u, p);
        let report = verify_graph(&g, &AccessMap::new(1, 1)).unwrap();
        assert_eq!(report.lookahead_warnings.len(), 1);
        assert!(report.lookahead_warnings[0].contains("step 1"));
    }

    #[test]
    fn lookahead_column_update_may_outrank_panel() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        // The update of block column K+1 is *supposed* to outrank the panel
        // of step K+1 (it produces its input): no warning.
        let upd = TaskMeta::new(TaskLabel::new(TaskKind::Update, 0, 0, 1), 1.0).with_priority(1100);
        let pan = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 1, 0, 0), 1.0).with_priority(900);
        let u = g.add_task(upd, ());
        let p = g.add_task(pan, ());
        g.add_dep(u, p);
        let report = verify_graph(&g, &AccessMap::new(1, 1)).unwrap();
        assert!(report.lookahead_warnings.is_empty());
    }

    #[test]
    fn dfs_fallback_agrees_with_closure() {
        let (g, access) = tracked_graph();
        // Exercise the DFS path directly on each conflicting pair.
        assert!(dfs_reaches(&g, 0, 1));
        assert!(dfs_reaches(&g, 0, 4));
        assert!(!dfs_reaches(&g, 1, 2));
        let report = verify_graph(&g, &access).unwrap();
        assert!(report.conflict_pairs > 0);
    }

    #[test]
    fn disjoint_subtile_writes_need_no_ordering() {
        // Two unordered tasks write disjoint halves of one tile.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let b = mk(&mut g, TaskKind::Panel, 0, 1, ());
        let mut access = AccessMap::with_geometry(4, 4, 4);
        access.record_write(a, ElemRect::new(0..2, 0..4));
        access.record_write(b, ElemRect::new(2..4, 0..4));
        let report = verify_graph(&g, &access).expect("element-disjoint halves need no ordering");
        assert_eq!(report.conflict_pairs, 0);
        assert_eq!(report.blocks_touched, 1);
    }

    #[test]
    fn unordered_overlap_names_the_contested_rect() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let b = mk(&mut g, TaskKind::Panel, 0, 1, ());
        let mut access = AccessMap::with_geometry(4, 4, 4);
        access.record_write(a, ElemRect::new(0..3, 0..4));
        access.record_write(b, ElemRect::new(2..4, 0..4));
        match verify_graph(&g, &access) {
            Err(SoundnessError::UnorderedConflict { first, second, kind, rect, .. }) => {
                assert_eq!((first, second), (a, b));
                assert_eq!(kind, ConflictKind::WriteWrite);
                assert_eq!(rect, ElemRect::new(2..3, 0..4));
            }
            other => panic!("expected UnorderedConflict, got {other:?}"),
        }
        let mut g2: TaskGraph<()> = TaskGraph::new();
        mk(&mut g2, TaskKind::Panel, 0, 0, ());
        mk(&mut g2, TaskKind::Panel, 0, 1, ());
        g2.add_dep(a, b);
        let report = verify_graph(&g2, &access).expect("edge orders the pair");
        assert_eq!(report.conflict_pairs, 1);
    }

    #[test]
    fn detects_rect_outside_matrix() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = mk(&mut g, TaskKind::Other, 0, 0, ());
        let mut access = AccessMap::with_geometry(4, 4, 4);
        access.record_write(a, ElemRect::new(0..5, 0..1));
        match verify_graph(&g, &access) {
            Err(SoundnessError::RectOutOfMatrix { task, m, n, .. }) => {
                assert_eq!((task, m, n), (a, 4, 4));
            }
            other => panic!("expected RectOutOfMatrix, got {other:?}"),
        }
    }

    #[test]
    fn lint_flags_unnecessary_edge() {
        // a and b touch disjoint blocks; the edge between them orders
        // nothing.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let b = mk(&mut g, TaskKind::Update, 0, 1, ());
        g.add_dep(a, b);
        let mut access = AccessMap::new(2, 2);
        access.record_write(a, ElemRect::new(0..1, 0..1));
        access.record_write(b, ElemRect::new(1..2, 1..2));
        let report = verify_graph_with(&g, &access, &VerifyOptions { lint_edges: true }).unwrap();
        let lint = report.lint.expect("lint requested");
        assert_eq!(lint.unnecessary_edges.len(), 1);
        assert_eq!((lint.unnecessary_edges[0].from, lint.unnecessary_edges[0].to), (a, b));
        assert!(lint.redundant_edges.is_empty());
        assert_eq!(lint.minimality_findings(), 1);
        assert!(
            lint.reduced_critical_path_flops < lint.critical_path_flops,
            "removing the serializing edge must shorten the critical path"
        );
    }

    #[test]
    fn lint_flags_redundant_edge() {
        // w0 -> r -> w1 plus the direct w0 -> w1: direct edge is justified
        // (W-W conflict) but transitively redundant.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let w0 = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let r = mk(&mut g, TaskKind::Update, 0, 0, ());
        let w1 = mk(&mut g, TaskKind::Panel, 1, 0, ());
        g.add_dep(w0, r);
        g.add_dep(r, w1);
        g.add_dep(w0, w1);
        let mut access = AccessMap::new(2, 2);
        access.record_write(w0, ElemRect::new(0..1, 0..1));
        access.record_read(r, ElemRect::new(0..1, 0..1));
        access.record_write(w1, ElemRect::new(0..1, 0..1));
        let report = verify_graph_with(&g, &access, &VerifyOptions { lint_edges: true }).unwrap();
        let lint = report.lint.expect("lint requested");
        assert!(lint.unnecessary_edges.is_empty());
        assert_eq!(lint.redundant_edges.len(), 1);
        assert_eq!((lint.redundant_edges[0].from, lint.redundant_edges[0].to), (w0, w1));
    }

    #[test]
    fn lint_accepts_minimal_tracker_graph() {
        let (g, access) = tracked_graph();
        let report = verify_graph_with(&g, &access, &VerifyOptions { lint_edges: true }).unwrap();
        let lint = report.lint.expect("lint requested");
        assert_eq!(lint.minimality_findings(), 0, "tracker output is conflict-minimal");
        assert_eq!(lint.cold_read_area, 0, "every read follows the panel write");
        // The readers' writes to block column 1 are overwritten by the
        // step-1 panel with no declared read in between: advisory finding.
        assert_eq!(lint.shadowed_writes.len(), 3);
        assert!(lint.shadowed_writes.iter().all(|s| s.area == 1));
    }

    /// `w → r` through one slot, and a task `x` writing the only matrix
    /// element: nothing but the slot relates any two of them.
    fn slot_pair() -> (TaskGraph<()>, AccessMap, [TaskId; 3]) {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(1, 1);
        let rect = t.slot_rect();
        let w = mk(&mut g, TaskKind::Panel, 0, 0, ());
        t.write_rect(&mut g, w, rect);
        let r = mk(&mut g, TaskKind::URow, 0, 0, ());
        t.read_rect(&mut g, r, rect);
        let x = mk(&mut g, TaskKind::Update, 0, 1, ());
        t.write(&mut g, x, 0..1, 0..1);
        (g, t.into_access_map(), [w, r, x])
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // probing the verifier with a raw edge deletion
    fn a_slot_reader_unordered_after_its_writer_is_an_unordered_conflict() {
        let (mut g, access, [w, r, x]) = slot_pair();
        assert_eq!(g.successors(w), &[r], "the slot alone infers w -> r");
        assert_eq!(g.pred_count(x), 0);
        verify_graph(&g, &access).expect("the slot edge orders the pair");
        assert!(g.remove_dep(w, r));
        match verify_graph(&g, &access) {
            Err(SoundnessError::UnorderedConflict { first, second, kind, rect, .. }) => {
                assert_eq!((first, second, kind), (w, r, ConflictKind::WriteRead));
                assert_eq!(rect, access.writes(w)[0], "the contested element is the slot");
            }
            other => panic!("expected UnorderedConflict, got {other:?}"),
        }
    }

    #[test]
    fn lint_justifies_a_slot_edge_and_flags_an_edge_nothing_justifies() {
        let (mut g, access, [w, r, x]) = slot_pair();
        g.add_dep(r, x);
        let report = verify_graph_with(&g, &access, &VerifyOptions { lint_edges: true }).unwrap();
        let lint = report.lint.expect("lint requested");
        let flagged: Vec<_> = lint.unnecessary_edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(flagged, [(r, x)], "w -> r is justified by its slot alone, r -> x by nothing");
        assert!(lint.redundant_edges.is_empty());
        assert!(g.successors(w).contains(&r));
    }

    #[test]
    fn slots_lie_beside_the_matrix_in_cells_of_their_own() {
        // 10×7 on 4-cells: slot `s` is element (s, 7), and its index cell
        // is its own, past the 3×2 matrix grid — not the ragged last block
        // column's.
        let mut t = BlockTracker::with_geometry(4, 10, 7);
        let (r0, r1) = (t.slot_rect(), t.slot_rect());
        assert_eq!((r0, r1), (ElemRect::new(0..1, 7..8), ElemRect::new(1..2, 7..8)));
        let mut g = TaskGraph::new();
        let id = mk(&mut g, TaskKind::Other, 0, 0, ());
        t.write_rect(&mut g, id, r0);
        t.write(&mut g, id, 0..3, 1..2);
        let access = t.into_access_map();
        assert_eq!(access.cells(r1).collect::<Vec<_>>(), [(7, r1)]);
        assert_eq!(access.cell_count(), 3 * 2 + 2);
        assert!(access.in_bounds(&r1));
        assert!(!access.in_bounds(&ElemRect::new(2..3, 7..8)), "no third slot");
        assert!(!access.in_bounds(&ElemRect::new(0..2, 7..8)), "a slot is one element");
        assert_eq!(access.writes(id), &[ElemRect::new(0..10, 4..7), r0], "matrix rects first");
        assert_eq!(access.matrix_writes(id), &[ElemRect::new(0..10, 4..7)]);
    }

    #[test]
    fn dataflow_cold_reads_and_shadowed_writes() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let t0 = mk(&mut g, TaskKind::Panel, 0, 0, ());
        let t1 = mk(&mut g, TaskKind::Panel, 1, 0, ());
        g.add_dep(t0, t1);
        let mut access = AccessMap::new(2, 2);
        access.record_read(t0, ElemRect::new(1..2, 0..1)); // never written: input load
        access.record_write(t0, ElemRect::new(0..1, 0..1));
        access.record_write(t1, ElemRect::new(0..1, 0..1)); // shadows t0's write
        let report = verify_graph_with(&g, &access, &VerifyOptions { lint_edges: true }).unwrap();
        let lint = report.lint.expect("lint requested");
        assert_eq!(lint.cold_read_area, 1);
        assert_eq!(lint.shadowed_writes.len(), 1);
        assert_eq!(lint.shadowed_writes[0].task, t0);
        assert_eq!(lint.shadowed_writes[0].area, 1);
    }

    /// Deterministic generator for the splitting property test.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// A random tracker-built graph over a 3×3 grid of 4-blocks on a
    /// 12×12 matrix; half the seeds then drop one random edge so the
    /// property also covers rejected graphs.
    fn random_tracked(lcg: &mut Lcg) -> (TaskGraph<()>, AccessMap) {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 12, 12);
        let ntasks = 4 + lcg.below(6);
        for i in 0..ntasks {
            let id = mk(&mut g, TaskKind::Other, 0, i, ());
            for _ in 0..1 + lcg.below(2) {
                let r0 = lcg.below(3);
                let r1 = r0 + 1 + lcg.below(3 - r0);
                let c0 = lcg.below(3);
                let c1 = c0 + 1 + lcg.below(3 - c0);
                if lcg.below(2) == 0 {
                    t.read(&mut g, id, r0..r1, c0..c1);
                } else {
                    t.write(&mut g, id, r0..r1, c0..c1);
                }
            }
        }
        let access = t.into_access_map();
        if lcg.below(2) == 0 {
            let edges: Vec<(TaskId, TaskId)> = (0..g.len())
                .flat_map(|a| g.successors(a).iter().map(move |&b| (a, b)).collect::<Vec<_>>())
                .collect();
            if !edges.is_empty() {
                let (a, b) = edges[lcg.below(edges.len())];
                #[allow(clippy::disallowed_methods)]
                // property test mutates edges to probe the verifier
                g.remove_dep(a, b);
            }
        }
        (g, access)
    }

    /// Randomly splits a rect into up to four covering pieces.
    fn split_rect(rect: ElemRect, lcg: &mut Lcg) -> Vec<ElemRect> {
        let rmid = rect.row0 + lcg.below(rect.row1 - rect.row0 + 1);
        let cmid = rect.col0 + lcg.below(rect.col1 - rect.col0 + 1);
        [
            ElemRect::new(rect.row0..rmid, rect.col0..cmid),
            ElemRect::new(rect.row0..rmid, cmid..rect.col1),
            ElemRect::new(rmid..rect.row1, rect.col0..cmid),
            ElemRect::new(rmid..rect.row1, cmid..rect.col1),
        ]
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect()
    }

    /// Re-declares every footprint as randomly split covering rects.
    fn split_access(access: &AccessMap, ntasks: usize, lcg: &mut Lcg) -> AccessMap {
        let (b, m, n) = access.geometry();
        let mut out = AccessMap::with_geometry(b, m, n);
        for t in 0..ntasks {
            for &rect in access.reads(t) {
                for piece in split_rect(rect, lcg) {
                    out.record_read(t, piece);
                }
            }
            for &rect in access.writes(t) {
                for piece in split_rect(rect, lcg) {
                    out.record_write(t, piece);
                }
            }
        }
        out
    }

    fn cases() -> proptest::test_runner::ProptestConfig {
        proptest::test_runner::ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 192 })
    }

    proptest::proptest! {
        #![proptest_config(cases())]

        #[test]
        fn splitting_footprints_preserves_verdict(seed in 0usize..1_000_000) {
            let mut lcg = Lcg(seed as u64);
            let (g, access) = random_tracked(&mut lcg);
            let split = split_access(&access, g.len(), &mut lcg);
            // A footprint is the union of its rects: re-declaring it as
            // covering pieces must not change the verdict.
            proptest::prop_assert_eq!(
                verify_graph(&g, &access).is_ok(),
                verify_graph(&g, &split).is_ok()
            );
        }
    }
}

//! Dependency inference for factorization task graphs.
//!
//! The builders express each task's effect as reads/writes of element
//! rectangles of the matrix; [`BlockTracker`] turns those into dependency
//! edges (read-after-write, write-after-write, and write-after-read), which
//! is how the paper's "task dependency graph constructed on the fly" is
//! realized.
//!
//! Every declaration is an [`ElemRect`]. [`BlockTracker::read`] /
//! [`BlockTracker::write`] take block coordinates as a convenience and
//! resolve them to the rect they cover; [`BlockTracker::read_rect`] /
//! [`BlockTracker::write_rect`] take the rect directly, so sub-tile aliasing
//! (two disjoint halves of one tile) produces edges only where rects
//! actually overlap. Side storage is declared the same way:
//! [`BlockTracker::slot`] allocates one element of the [`AccessMap`]'s side
//! column, whose rect the tasks that fill and read the slot declare. Internally every access becomes per-cell clipped
//! rect entries; the `b × b` cell grid is purely a spatial index, and each
//! slot is a cell of its own. [`BlockTracker::new`] is the unit-cell case
//! for abstract grids.
//!
//! The tracker infers a *minimal* edge set: a write does not add a WAW edge
//! to the previous writer where intervening reads already cover the overlap,
//! because each covering reader carries a read-after-write edge from that
//! writer and receives a write-after-read edge here — the WAW ordering is
//! implied transitively. The static verifier's edge-necessity lint
//! ([`crate::verify_graph_with`]) checks exactly this property.

use crate::footprint::AccessMap;
use crate::graph::TaskGraph;
use crate::task::TaskId;
use ca_matrix::{ElemRect, RegionSet};
use core::ops::Range;

/// One live access in a cell: `task` read or wrote `rect` (clipped to the
/// cell) and no later write has fully superseded it.
#[derive(Clone, Debug)]
struct Entry {
    task: TaskId,
    write: bool,
    rect: ElemRect,
}

/// Per-cell live-entry bookkeeping over the cell grid of an `m × n` matrix.
///
/// Besides inferring edges, the tracker retains every declared rect in an
/// [`AccessMap`] so the graph can later be verified ([`crate::verify_graph`])
/// or executed in checked mode.
pub struct BlockTracker {
    entries: Vec<Vec<Entry>>,
    access: AccessMap,
    /// The predecessors one declaration collects, kept to reuse its buffer.
    deps: Vec<TaskId>,
}

impl BlockTracker {
    /// A tracker over an abstract `mb × nb` grid of unit cells: block
    /// coordinates *are* element coordinates.
    pub fn new(mb: usize, nb: usize) -> Self {
        Self::with_geometry(1, mb, nb)
    }

    /// A tracker for an `m × n` matrix tiled into `b`-sized blocks.
    pub fn with_geometry(b: usize, m: usize, n: usize) -> Self {
        let access = AccessMap::with_geometry(b, m, n);
        Self { entries: vec![Vec::new(); access.cell_count()], access, deps: Vec::new() }
    }

    /// A fresh slot of side storage, by index; declare its rect
    /// ([`AccessMap::slot_rect`]) on the tasks that fill and read it.
    pub(crate) fn slot(&mut self) -> usize {
        let s = self.access.new_slot();
        self.entries.resize_with(self.access.cell_count(), Vec::new);
        s
    }

    /// A fresh slot's rect.
    #[cfg(test)]
    pub(crate) fn slot_rect(&mut self) -> ElemRect {
        let s = self.slot();
        self.access.slot_rect(s)
    }

    /// The map the declarations so far went into.
    pub(crate) fn access(&self) -> &AccessMap {
        &self.access
    }

    /// The element rect covered by blocks `rows × cols`, clamped to the
    /// matrix — the one place block coordinates get their element meaning.
    fn block_rect(&self, rows: Range<usize>, cols: Range<usize>) -> ElemRect {
        let (b, m, n) = self.access.geometry();
        let (mb, nb) = (m.div_ceil(b), n.div_ceil(b));
        // Hard check even in release builds: an out-of-grid declaration means
        // the builder's footprint arithmetic is wrong, and silently clamping
        // it would corrupt the dependency structure.
        assert!(
            rows.is_empty() || cols.is_empty() || (rows.end <= mb && cols.end <= nb),
            "blocks ({rows:?}, {cols:?}) outside {mb}x{nb} grid"
        );
        ElemRect::new(
            (rows.start * b).min(m)..(rows.end * b).min(m),
            (cols.start * b).min(n)..(cols.end * b).min(n),
        )
    }

    /// Declares that `task` reads blocks `(i, j)` for `i` in `rows`, `j` in
    /// `cols`, adding read-after-write edges; the element rect they cover.
    pub fn read<T>(
        &mut self,
        g: &mut TaskGraph<T>,
        task: TaskId,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> ElemRect {
        let rect = self.block_rect(rows, cols);
        self.touch_rect(g, task, false, rect);
        rect
    }

    /// Declares that `task` writes blocks `(i, j)` for `i` in `rows`, `j` in
    /// `cols`, adding WAW and WAR edges; the element rect they cover.
    pub fn write<T>(
        &mut self,
        g: &mut TaskGraph<T>,
        task: TaskId,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> ElemRect {
        let rect = self.block_rect(rows, cols);
        self.touch_rect(g, task, true, rect);
        rect
    }

    /// Declares that `task` reads the element rectangle `rect`, adding
    /// read-after-write edges against overlapping live writes.
    pub fn read_rect<T>(&mut self, g: &mut TaskGraph<T>, task: TaskId, rect: ElemRect) {
        self.touch_rect(g, task, false, rect);
    }

    /// Declares that `task` writes the element rectangle `rect`, adding
    /// WAW/WAR edges against overlapping live entries.
    pub fn write_rect<T>(&mut self, g: &mut TaskGraph<T>, task: TaskId, rect: ElemRect) {
        self.touch_rect(g, task, true, rect);
    }

    /// The single inference path: records `rect`, clips it to each index
    /// cell it touches ([`AccessMap::cells`]) and updates that cell's
    /// live-entry list, collecting dependency edges.
    fn touch_rect<T>(&mut self, g: &mut TaskGraph<T>, task: TaskId, write: bool, rect: ElemRect) {
        if rect.is_empty() {
            return;
        }
        let (_, m, n) = self.access.geometry();
        assert!(self.access.in_bounds(&rect), "rect {rect} outside {m}×{n} matrix and its slots");
        if write {
            self.access.record_write(task, rect);
        } else {
            self.access.record_read(task, rect);
        }
        let mut deps = std::mem::take(&mut self.deps);
        deps.clear();
        for (cell, c) in self.access.cells(rect) {
            let entries = &mut self.entries[cell];
            if write {
                for e in entries.iter() {
                    if e.task == task || !e.rect.overlaps(&c) {
                        continue;
                    }
                    if e.write {
                        // WAW — skippable when intervening reads fully
                        // cover the overlap: each covering reader has a
                        // RAW edge from `e.task` (reads only enter the
                        // list after the writes they saw) and receives a
                        // WAR edge from this write below.
                        let o = e.rect.intersection(&c).expect("overlapping");
                        let mut cover = RegionSet::from_rect(o);
                        for r in entries.iter().filter(|r| !r.write) {
                            cover.subtract_rect(&r.rect);
                            if cover.is_empty() {
                                break;
                            }
                        }
                        if !cover.is_empty() {
                            deps.push(e.task);
                        }
                    } else {
                        deps.push(e.task); // WAR
                    }
                }
                // The write supersedes everything it covers.
                let mut kept = Vec::with_capacity(entries.len() + 1);
                for e in entries.drain(..) {
                    if !e.rect.overlaps(&c) {
                        kept.push(e);
                        continue;
                    }
                    let mut rest = RegionSet::from_rect(e.rect);
                    rest.subtract_rect(&c);
                    kept.extend(rest.rects().iter().map(|&r| Entry {
                        task: e.task,
                        write: e.write,
                        rect: r,
                    }));
                }
                kept.push(Entry { task, write: true, rect: c });
                *entries = kept;
            } else {
                for e in entries.iter() {
                    if e.write && e.task != task && e.rect.overlaps(&c) {
                        deps.push(e.task); // RAW
                    }
                }
                // Dedup repeated reads of the same region by one task so
                // later writers scan each reader once.
                if !entries.iter().any(|e| !e.write && e.task == task && e.rect.contains(&c)) {
                    entries.push(Entry { task, write: false, rect: c });
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        for &d in &deps {
            g.add_dep(d, task);
        }
        self.deps = deps;
    }

    /// Consumes the tracker, yielding the declared footprints — the form the
    /// DAG builders hand to [`crate::verify_graph`] and the checked
    /// executors.
    pub fn into_access_map(self) -> AccessMap {
        self.access
    }
}

/// Block-row range (inclusive start, exclusive end) covering rows
/// `r.start..r.end` on a grid of `b`-row blocks.
pub fn row_blocks(r: core::ops::Range<usize>, b: usize) -> core::ops::Range<usize> {
    if r.is_empty() {
        return 0..0;
    }
    (r.start / b)..r.end.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel, TaskMeta};

    fn mk(g: &mut TaskGraph<()>) -> TaskId {
        g.add_task(TaskMeta::new(TaskLabel::new(TaskKind::Other, 0, 0, 0), 1.0), ())
    }

    fn rect(rows: Range<usize>, cols: Range<usize>) -> ElemRect {
        ElemRect::new(rows, cols)
    }

    #[test]
    fn raw_dependency() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 4);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..2, 0..2);
        let r = mk(&mut g);
        t.read(&mut g, r, 1..2, 1..2);
        assert_eq!(g.successors(w), &[r]);
    }

    #[test]
    fn war_dependency() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let r = mk(&mut g);
        t.read(&mut g, r, 0..1, 0..1);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..1, 0..1);
        assert_eq!(g.successors(r), &[w]);
    }

    #[test]
    fn waw_dependency_and_reader_reset() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let w1 = mk(&mut g);
        t.write(&mut g, w1, 0..1, 0..1);
        let w2 = mk(&mut g);
        t.write(&mut g, w2, 0..1, 0..1);
        let r = mk(&mut g);
        t.read(&mut g, r, 0..1, 0..1);
        assert_eq!(g.successors(w1), &[w2]);
        assert_eq!(g.successors(w2), &[r]);
    }

    #[test]
    fn waw_skipped_when_readers_intervene() {
        // w1 → r → w2: the direct w1 → w2 edge is transitively implied, so
        // the tracker must not add it.
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let w1 = mk(&mut g);
        t.write(&mut g, w1, 0..1, 0..1);
        let r = mk(&mut g);
        t.read(&mut g, r, 0..1, 0..1);
        let w2 = mk(&mut g);
        t.write(&mut g, w2, 0..1, 0..1);
        assert_eq!(g.successors(w1), &[r], "no direct WAW past the reader");
        assert_eq!(g.successors(r), &[w2]);
    }

    #[test]
    fn waw_skipped_when_writer_read_its_own_target() {
        // w writes, t reads then writes: t got the RAW edge at its read, so
        // the write adds nothing new.
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..1, 0..1);
        let u = mk(&mut g);
        t.read(&mut g, u, 0..1, 0..1);
        t.write(&mut g, u, 0..1, 0..1);
        assert_eq!(g.successors(w), &[u]);
        assert_eq!(g.pred_count(u), 1, "exactly one edge, not a duplicate");
    }

    #[test]
    fn disjoint_blocks_no_dependency() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 4);
        let a = mk(&mut g);
        t.write(&mut g, a, 0..1, 0..1);
        let b = mk(&mut g);
        t.write(&mut g, b, 1..2, 1..2);
        assert!(g.successors(a).is_empty());
        assert_eq!(g.pred_count(b), 0);
    }

    #[test]
    fn duplicate_deps_are_merged() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 1);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..4, 0..1);
        let r = mk(&mut g);
        t.read(&mut g, r, 0..4, 0..1);
        // One edge, not four.
        assert_eq!(g.successors(w).len(), 1);
        assert_eq!(g.pred_count(r), 1);
    }

    #[test]
    fn overlapping_reads_do_not_duplicate_reader_ids() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 4);
        let r = mk(&mut g);
        // Three overlapping read declarations all covering block (0, 0).
        t.read(&mut g, r, 0..2, 0..2);
        t.read(&mut g, r, 0..1, 0..1);
        t.read(&mut g, r, 0..2, 0..1);
        assert_eq!(t.entries[0].len(), 1, "reader list must stay deduplicated");
        let w = mk(&mut g);
        t.write(&mut g, w, 0..1, 0..1);
        assert_eq!(g.pred_count(w), 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_grid_declaration_panics_in_release_too() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut t = BlockTracker::new(2, 2);
        let a = mk(&mut g);
        t.write(&mut g, a, 0..3, 0..1);
    }

    #[test]
    fn tracker_retains_declared_footprints() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::new(4, 4);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..2, 0..1);
        let r = mk(&mut g);
        t.read(&mut g, r, 1..2, 0..1);
        let access = t.into_access_map();
        assert_eq!(access.geometry(), (1, 4, 4));
        assert_eq!(access.writes(w), &[rect(0..2, 0..1)]);
        assert_eq!(access.reads(r), &[rect(1..2, 0..1)]);
        assert!(access.writes(r).is_empty());
    }

    #[test]
    fn row_block_ranges() {
        assert_eq!(row_blocks(0..100, 100), 0..1);
        assert_eq!(row_blocks(0..101, 100), 0..2);
        assert_eq!(row_blocks(100..250, 100), 1..3);
        assert_eq!(row_blocks(150..250, 100), 1..3);
        assert_eq!(row_blocks(5..5, 100), 0..0);
    }

    // --- element rects and non-unit cells ---

    #[test]
    fn block_declarations_resolve_to_clamped_rects() {
        // 10×7 matrix, 4-blocks → 3×2 grid; the last block is ragged both
        // ways.
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 10, 7);
        let w = mk(&mut g);
        t.write(&mut g, w, 2..3, 1..2);
        t.read(&mut g, w, 0..1, 0..2);
        let access = t.into_access_map();
        assert_eq!(access.grid(), (3, 2));
        assert_eq!(access.writes(w), &[rect(8..10, 4..7)]);
        assert_eq!(access.reads(w), &[rect(0..4, 0..7)]);
    }

    #[test]
    fn block_declarations_on_a_geometry_infer_block_edges() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 8);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..1, 0..2);
        let r = mk(&mut g);
        t.read(&mut g, r, 0..1, 1..2);
        let u = mk(&mut g);
        t.write(&mut g, u, 1..2, 0..1);
        assert_eq!(g.successors(w), &[r]);
        assert!(g.successors(u).is_empty());
        assert_eq!(g.pred_count(u), 0);
    }

    #[test]
    fn disjoint_triangles_of_one_tile_do_not_conflict() {
        // One 4×4 tile; task a writes the upper-incl-diagonal triangle
        // (per-column rects), task b reads the strict lower triangle.
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 4, 4);
        let w = mk(&mut g);
        t.write(&mut g, w, 0..1, 0..1); // factor writes the whole tile
        let a = mk(&mut g);
        for c in 0..4 {
            t.write_rect(&mut g, a, rect(0..c + 1, c..c + 1));
        }
        let b = mk(&mut g);
        for c in 0..3 {
            t.read_rect(&mut g, b, rect(c + 1..4, c..c + 1));
        }
        assert_eq!(g.successors(w), &[a, b], "both depend on the factor");
        assert!(
            !g.successors(a).contains(&b) && !g.successors(b).contains(&a),
            "disjoint triangles must not be ordered"
        );
    }

    #[test]
    fn rect_overlap_produces_dependency() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 8);
        let w = mk(&mut g);
        t.write_rect(&mut g, w, rect(0..3, 0..3));
        let r = mk(&mut g);
        t.read_rect(&mut g, r, rect(2..5, 2..5)); // overlaps at (2,2)
        let r2 = mk(&mut g);
        t.read_rect(&mut g, r2, rect(3..6, 3..6)); // disjoint from w
        assert_eq!(g.successors(w), &[r]);
        assert_eq!(g.pred_count(r2), 0);
    }

    #[test]
    fn rect_waw_skipped_when_reads_cover_overlap() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 4, 4);
        let w1 = mk(&mut g);
        t.write_rect(&mut g, w1, rect(0..2, 0..2));
        let r = mk(&mut g);
        t.read_rect(&mut g, r, rect(0..2, 0..2));
        let w2 = mk(&mut g);
        t.write_rect(&mut g, w2, rect(0..2, 0..2));
        assert_eq!(g.successors(w1), &[r], "WAW implied through the reader");
        assert_eq!(g.successors(r), &[w2]);
    }

    #[test]
    fn rect_waw_kept_when_reads_cover_only_part() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 4, 4);
        let w1 = mk(&mut g);
        t.write_rect(&mut g, w1, rect(0..2, 0..2));
        let r = mk(&mut g);
        t.read_rect(&mut g, r, rect(0..1, 0..2)); // covers only the top row
        let w2 = mk(&mut g);
        t.write_rect(&mut g, w2, rect(0..2, 0..2));
        assert!(g.successors(w1).contains(&w2), "uncovered part needs the WAW edge");
        assert!(g.successors(r).contains(&w2));
    }

    #[test]
    fn rect_spanning_multiple_cells_collects_all_deps() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(2, 6, 6);
        let a = mk(&mut g);
        t.write_rect(&mut g, a, rect(0..2, 0..2));
        let b = mk(&mut g);
        t.write_rect(&mut g, b, rect(4..6, 4..6));
        let r = mk(&mut g);
        t.read_rect(&mut g, r, rect(1..5, 1..5)); // touches both writes
        assert_eq!(g.successors(a), &[r]);
        assert_eq!(g.successors(b), &[r]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_matrix_rect_panics() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 8);
        let a = mk(&mut g);
        t.write_rect(&mut g, a, rect(0..9, 0..1));
    }

    #[test]
    fn declared_rects_are_retained_in_the_access_map() {
        let mut g = TaskGraph::new();
        let mut t = BlockTracker::with_geometry(4, 8, 8);
        let a = mk(&mut g);
        t.write_rect(&mut g, a, rect(0..3, 0..1));
        t.read_rect(&mut g, a, rect(4..8, 4..8));
        let access = t.into_access_map();
        assert_eq!(access.writes(a), &[rect(0..3, 0..1)]);
        assert_eq!(access.reads(a), &[rect(4..8, 4..8)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(
            if cfg!(miri) { 8 } else { 128 }
        ))]

        /// The unit-cell grid is not a second engine: the same random
        /// block-aligned declarations infer the same edges whether blocks
        /// are single elements or `b × b` tiles.
        #[test]
        fn unit_cells_and_tiles_infer_identical_edges(seed in 0u64..1_000_000, b in 2usize..6) {
            const GRID: usize = 4;
            let mut unit = (TaskGraph::new(), BlockTracker::new(GRID, GRID));
            let mut tiled = (TaskGraph::new(), BlockTracker::with_geometry(b, GRID * b, GRID * b));
            for (g, t) in [&mut unit, &mut tiled] {
                let mut rng = proptest::test_runner::Prng::from_name(&seed.to_string());
                let mut below = |n: usize| rng.below(n as u64) as usize;
                for _ in 0..4 + below(12) {
                    let task = mk(g);
                    for _ in 0..1 + below(3) {
                        let (r0, c0) = (below(GRID), below(GRID));
                        let rows = r0..r0 + 1 + below(GRID - r0);
                        let cols = c0..c0 + 1 + below(GRID - c0);
                        if below(2) == 0 {
                            t.read(g, task, rows, cols);
                        } else {
                            t.write(g, task, rows, cols);
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(unit.0.len(), tiled.0.len());
            for id in 0..unit.0.len() {
                proptest::prop_assert_eq!(unit.0.successors(id), tiled.0.successors(id));
            }
        }
    }
}

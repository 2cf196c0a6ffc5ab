//! First-class task access footprints.
//!
//! The DAG builders declare each task's reads/writes to
//! [`crate::BlockTracker`] to infer dependency edges. An [`AccessMap`]
//! retains those declarations, so the static verifier
//! ([`crate::verify_graph`]) can prove that every conflicting pair of tasks
//! is ordered, checked execution can audit runtime accesses against them,
//! and the retry protocol knows which elements to snapshot.
//!
//! A footprint is a list of element rectangles ([`ElemRect`]) over an
//! `m × n` element space. Block coordinates are a builder convenience
//! resolved to rects at declaration time by [`crate::BlockTracker`]; the map
//! keeps the block size `b` only as the cell size of the spatial index its
//! consumers bucket rects by. An abstract grid (the unit tests, simulator
//! graphs) is the unit-cell case `b = 1`.

use crate::task::TaskId;
use ca_matrix::shadow::ElemRect;

/// Per-task declared read/write element rects over an `m × n` space.
///
/// Built as a side effect of the [`crate::BlockTracker`] declarations;
/// retrieve it with [`crate::BlockTracker::into_access_map`] and hand it
/// (together with the graph) to [`crate::verify_graph`] or
/// [`crate::Timeline::check_write_exclusion`]; a [`crate::Plan`] keeps its
/// own, which [`crate::FactorOptions::checked`] audits against and whose
/// write rects [`crate::FactorOptions::retry`] snapshots.
#[derive(Clone, Debug)]
pub struct AccessMap {
    b: usize,
    m: usize,
    n: usize,
    reads: Vec<Vec<ElemRect>>,
    writes: Vec<Vec<ElemRect>>,
}

impl AccessMap {
    /// An empty map over an `m × n` space with unit index cells.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_geometry(1, m, n)
    }

    /// An empty map over an `m × n` matrix indexed by `b × b` cells.
    pub(crate) fn with_geometry(b: usize, m: usize, n: usize) -> Self {
        assert!(b > 0, "zero cell size");
        Self { b, m, n, reads: Vec::new(), writes: Vec::new() }
    }

    /// The geometry `(b, m, n)`: index cell size and element extent.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.b, self.m, self.n)
    }

    /// Dimensions `(mb, nb)` of the cell grid `b` induces on `m × n`.
    pub fn grid(&self) -> (usize, usize) {
        (self.m.div_ceil(self.b), self.n.div_ceil(self.b))
    }

    /// One past the highest task id with any recorded rect.
    pub fn tasks(&self) -> usize {
        self.reads.len().max(self.writes.len())
    }

    /// Total number of recorded rects (reads + writes).
    pub fn region_count(&self) -> usize {
        self.reads.iter().chain(self.writes.iter()).map(Vec::len).sum()
    }

    fn record(vec: &mut Vec<Vec<ElemRect>>, task: TaskId, rect: ElemRect) {
        if rect.is_empty() {
            return;
        }
        if task >= vec.len() {
            vec.resize_with(task + 1, Vec::new);
        }
        vec[task].push(rect);
    }

    /// Records that `task` reads `rect` (empty rects are dropped).
    pub fn record_read(&mut self, task: TaskId, rect: ElemRect) {
        Self::record(&mut self.reads, task, rect);
    }

    /// Records that `task` writes `rect` (empty rects are dropped).
    pub fn record_write(&mut self, task: TaskId, rect: ElemRect) {
        Self::record(&mut self.writes, task, rect);
    }

    /// Declared read rects of `task` (empty for tasks that touch no matrix
    /// elements, e.g. reduction-tree nodes passing data through side
    /// storage).
    pub fn reads(&self, task: TaskId) -> &[ElemRect] {
        self.reads.get(task).map_or(&[], Vec::as_slice)
    }

    /// Declared write rects of `task`.
    pub fn writes(&self, task: TaskId) -> &[ElemRect] {
        self.writes.get(task).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_rects() {
        let mut m = AccessMap::new(4, 4);
        m.record_read(0, ElemRect::new(0..2, 0..1));
        m.record_write(0, ElemRect::new(2..4, 0..1));
        m.record_write(2, ElemRect::new(0..1, 1..2));
        assert_eq!(m.tasks(), 3);
        assert_eq!(m.region_count(), 3);
        assert_eq!(m.reads(0), &[ElemRect::new(0..2, 0..1)]);
        assert_eq!(m.writes(0), &[ElemRect::new(2..4, 0..1)]);
        assert!(m.reads(1).is_empty());
        assert!(m.writes(1).is_empty());
        assert!(m.reads(7).is_empty(), "out-of-range task has empty footprint");
    }

    #[test]
    fn empty_rects_are_dropped() {
        let mut m = AccessMap::new(4, 4);
        m.record_read(0, ElemRect::new(2..2, 0..4));
        m.record_write(0, ElemRect::new(0..4, 1..1));
        assert_eq!(m.region_count(), 0);
        assert_eq!(m.tasks(), 0);
    }

    #[test]
    fn geometry_induces_the_cell_grid() {
        let m = AccessMap::with_geometry(4, 10, 7);
        assert_eq!(m.geometry(), (4, 10, 7));
        assert_eq!(m.grid(), (3, 2));
        assert_eq!(AccessMap::new(5, 3).geometry(), (1, 5, 3));
        assert_eq!(AccessMap::new(5, 3).grid(), (5, 3));
    }
}

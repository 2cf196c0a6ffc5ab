//! Task identity and metadata.
//!
//! Each task in a factorization DAG carries a [`TaskLabel`] naming what it is
//! (the paper's P/L/U/S vocabulary, Figure 1), a scheduling priority, and a
//! cost estimate in flops used by the multicore simulator.

/// Index of a task within its [`crate::TaskGraph`].
pub type TaskId = usize;

/// The kind of work a task performs, following the paper's naming:
/// `P` = panel/tournament step, `L` = block column of L, `U` = block row of
/// U (incl. pivoting to the right), `S` = trailing-matrix update.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TaskKind {
    /// Panel factorization step (TSLU/TSQR leaf or reduction-tree node).
    Panel,
    /// Computation of one block of the current L block column (`dtrsm`).
    LBlock,
    /// Permutation + one block of the current U block row.
    URow,
    /// Update of one trailing-matrix block (`dgemm` / `dlarfb`).
    Update,
    /// Row interchanges applied to a block column.
    Swap,
    /// Anything else (baseline algorithms use this for their own kernels).
    Other,
}

impl TaskKind {
    /// One-letter code used in traces (matches the paper's figures).
    pub fn code(self) -> char {
        match self {
            TaskKind::Panel => 'P',
            TaskKind::LBlock => 'L',
            TaskKind::URow => 'U',
            TaskKind::Update => 'S',
            TaskKind::Swap => 'W',
            TaskKind::Other => 'O',
        }
    }
}

/// Human-readable identity of a task: kind plus (step, i, j) coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TaskLabel {
    /// What the task does.
    pub kind: TaskKind,
    /// Which panel iteration (`K` in the paper's algorithms) it belongs to.
    pub step: usize,
    /// Row-block coordinate (leaf index / tree node index), if meaningful.
    pub i: usize,
    /// Column-block coordinate, if meaningful.
    pub j: usize,
}

impl TaskLabel {
    /// Convenience constructor.
    pub fn new(kind: TaskKind, step: usize, i: usize, j: usize) -> Self {
        Self { kind, step, i, j }
    }
}

impl core::fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}[{},{},{}]", self.kind.code(), self.step, self.i, self.j)
    }
}

/// The kernel a task's flops run through — the simulator's cost model maps
/// each class to a measured throughput (BLAS2 panels are far slower per flop
/// than BLAS3 updates, which is the effect the paper's evaluation hinges on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelClass {
    /// Matrix-matrix multiply (`dgemm`).
    Gemm,
    /// Triangular solve with multiple RHS (`dtrsm`).
    Trsm,
    /// Compact-WY block reflector application (`dlarfb`).
    Larfb,
    /// BLAS2 Gaussian elimination panel (`dgetf2`).
    LuBlas2,
    /// Recursive Gaussian elimination panel (`rgetf2`).
    LuRecursive,
    /// BLAS2 Householder panel (`dgeqr2`).
    QrBlas2,
    /// Recursive Householder panel (`dgeqr3`).
    QrRecursive,
    /// Row interchanges / copies (memory bound).
    Memory,
    /// Unclassified.
    Other,
}

/// Scheduling metadata attached to each task.
#[derive(Clone, Copy, Debug)]
pub struct TaskMeta {
    /// Identity for tracing and debugging.
    pub label: TaskLabel,
    /// Scheduling priority; higher runs first among ready tasks. The
    /// lookahead-of-1 rule of the paper is expressed through this field by
    /// the DAG builders.
    pub priority: i64,
    /// Estimated cost in flops (the simulator divides by a per-class
    /// throughput to get seconds; the threaded executor ignores it).
    pub flops: f64,
    /// Estimated memory traffic in bytes (reads + writes of matrix data).
    /// Communication-avoiding algorithms are about minimizing this; the
    /// roofline cost model takes `max(flops/throughput, bytes/bandwidth)`.
    /// `0.0` means "derive from flops" (compute-bound task).
    pub bytes: f64,
    /// Which kernel performs the flops.
    pub class: KernelClass,
}

impl TaskMeta {
    /// Metadata with default priority 0 and kernel class `Other`.
    pub fn new(label: TaskLabel, flops: f64) -> Self {
        Self { label, priority: 0, flops, bytes: 0.0, class: KernelClass::Other }
    }

    /// Sets the memory-traffic estimate (builder style).
    pub fn with_bytes(mut self, bytes: f64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the kernel class (builder style).
    pub fn with_class(mut self, class: KernelClass) -> Self {
        self.class = class;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_display_is_compact() {
        let l = TaskLabel::new(TaskKind::Update, 2, 1, 3);
        assert_eq!(l.to_string(), "S[2,1,3]");
        assert_eq!(TaskKind::Panel.code(), 'P');
    }

    #[test]
    fn meta_builder() {
        let m = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), 100.0).with_priority(5);
        assert_eq!(m.priority, 5);
        assert_eq!(m.flops, 100.0);
    }
}

//! The task dependency graph.
//!
//! Built by the DAG builders in `ca-core`/`ca-baselines`, executed either by
//! the threaded executor ([`crate::execute`]) or by the deterministic
//! multicore simulator ([`crate::simulate`]).

use crate::task::{TaskId, TaskMeta};

/// A directed acyclic graph of tasks with payloads of type `T`.
///
/// Edges mean "must complete before". The graph is append-only; dependency
/// edges may only point from an existing task to an existing task, which
/// makes accidental cycles impossible to express as long as builders add
/// tasks in a valid topological order (they do — factorizations proceed
/// panel by panel). [`TaskGraph::validate`] re-checks this invariant.
pub struct TaskGraph<T> {
    pub(crate) metas: Vec<TaskMeta>,
    pub(crate) payloads: Vec<T>,
    pub(crate) succs: Vec<Vec<TaskId>>,
    pub(crate) npreds: Vec<usize>,
}

impl<T> Default for TaskGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TaskGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Self { metas: Vec::new(), payloads: Vec::new(), succs: Vec::new(), npreds: Vec::new() }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Adds a task; returns its id.
    pub fn add_task(&mut self, meta: TaskMeta, payload: T) -> TaskId {
        let id = self.metas.len();
        self.metas.push(meta);
        self.payloads.push(payload);
        self.succs.push(Vec::new());
        self.npreds.push(0);
        id
    }

    /// Adds the dependency edge `before → after`.
    ///
    /// # Panics
    /// If either id is out of range, if `before == after`, or if the edge
    /// points forward in insertion order reversed (`before > after`), which
    /// would allow cycles.
    pub fn add_dep(&mut self, before: TaskId, after: TaskId) {
        assert!(
            before < self.metas.len() && after < self.metas.len(),
            "dependency on unknown task"
        );
        assert!(before != after, "self-dependency");
        assert!(before < after, "edges must respect insertion order (got {before} -> {after})");
        if self.succs[before].contains(&after) {
            return; // duplicate edges carry no information
        }
        self.succs[before].push(after);
        self.npreds[after] += 1;
    }

    /// Adds `before → after` for every `before` in the iterator.
    pub fn add_deps(&mut self, befores: impl IntoIterator<Item = TaskId>, after: TaskId) {
        for b in befores {
            self.add_dep(b, after);
        }
    }

    /// Removes the edge `before → after` if present; returns whether it
    /// existed. Used by soundness tests to seed ordering violations for
    /// [`crate::verify_graph`] to catch.
    pub fn remove_dep(&mut self, before: TaskId, after: TaskId) -> bool {
        let Some(pos) = self.succs.get(before).and_then(|s| s.iter().position(|&x| x == after))
        else {
            return false;
        };
        self.succs[before].remove(pos);
        self.npreds[after] -= 1;
        true
    }

    /// Metadata of task `id`.
    pub fn meta(&self, id: TaskId) -> &TaskMeta {
        &self.metas[id]
    }

    /// Successors of task `id`.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id]
    }

    /// Number of unmet predecessors of task `id` (as built).
    pub fn pred_count(&self, id: TaskId) -> usize {
        self.npreds[id]
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.len()).filter(|&i| self.npreds[i] == 0).collect()
    }

    /// Total flops across all tasks.
    pub fn total_flops(&self) -> f64 {
        self.metas.iter().map(|m| m.flops).sum()
    }

    /// Length of the critical path in flops (longest path through the DAG).
    pub fn critical_path_flops(&self) -> f64 {
        // Tasks are in topological order by construction.
        let mut dist = vec![0.0f64; self.len()];
        let mut best: f64 = 0.0;
        for id in 0..self.len() {
            let d = dist[id] + self.metas[id].flops;
            best = best.max(d);
            for &s in &self.succs[id] {
                if dist[s] < d {
                    dist[s] = d;
                }
            }
        }
        best
    }

    /// Checks structural invariants: every edge respects topological
    /// (insertion) order and predecessor counts match edges. Returns the
    /// number of edges.
    pub fn validate(&self) -> usize {
        let mut counted = vec![0usize; self.len()];
        let mut edges = 0;
        for (id, succs) in self.succs.iter().enumerate() {
            for &s in succs {
                assert!(s > id, "edge {id} -> {s} violates topological order");
                counted[s] += 1;
                edges += 1;
            }
        }
        assert_eq!(counted, self.npreds, "predecessor counts inconsistent");
        edges
    }

    /// Maps payloads through `f`, preserving topology, metadata and ids.
    ///
    /// This is how one DAG serves both executors: build with descriptive
    /// payloads, `map` them into closures for [`crate::run_graph`], or pass
    /// the original graph to [`crate::simulate`] (which ignores payloads).
    pub fn map<U>(self, mut f: impl FnMut(TaskId, T) -> U) -> TaskGraph<U> {
        let payloads = self.payloads.into_iter().enumerate().map(|(id, p)| f(id, p)).collect();
        TaskGraph { metas: self.metas, payloads, succs: self.succs, npreds: self.npreds }
    }

    /// Borrowing variant of [`TaskGraph::map`]: builds a parallel graph whose
    /// payloads are produced from references to this graph's payloads.
    pub fn map_ref<U>(&self, mut f: impl FnMut(TaskId, &T) -> U) -> TaskGraph<U> {
        TaskGraph {
            metas: self.metas.clone(),
            payloads: self.payloads.iter().enumerate().map(|(id, p)| f(id, p)).collect(),
            succs: self.succs.clone(),
            npreds: self.npreds.clone(),
        }
    }

    /// Emits the graph in Graphviz DOT format (for Figure-1-style pictures).
    pub fn to_dot(&self) -> String {
        use core::fmt::Write;
        let mut s = String::from("digraph tasks {\n  rankdir=TB;\n");
        for (id, m) in self.metas.iter().enumerate() {
            let color = match m.label.kind.code() {
                'P' => "indianred",
                'L' => "gold",
                'U' => "skyblue",
                'S' => "palegreen",
                _ => "gray",
            };
            let _ =
                writeln!(s, "  t{id} [label=\"{}\", style=filled, fillcolor={color}];", m.label);
        }
        for (id, succs) in self.succs.iter().enumerate() {
            for &sc in succs {
                let _ = writeln!(s, "  t{id} -> t{sc};");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskKind, TaskLabel};

    fn meta(k: TaskKind, flops: f64) -> TaskMeta {
        TaskMeta::new(TaskLabel::new(k, 0, 0, 0), flops)
    }

    #[test]
    fn build_and_validate_diamond() {
        let mut g = TaskGraph::new();
        let a = g.add_task(meta(TaskKind::Panel, 1.0), ());
        let b = g.add_task(meta(TaskKind::Update, 2.0), ());
        let c = g.add_task(meta(TaskKind::Update, 3.0), ());
        let d = g.add_task(meta(TaskKind::Panel, 1.0), ());
        g.add_dep(a, b);
        g.add_dep(a, c);
        g.add_dep(b, d);
        g.add_dep(c, d);
        assert_eq!(g.validate(), 4);
        assert_eq!(g.roots(), vec![a]);
        assert_eq!(g.total_flops(), 7.0);
        // Critical path: a -> c -> d = 1 + 3 + 1.
        assert_eq!(g.critical_path_flops(), 5.0);
    }

    #[test]
    fn independent_tasks_are_all_roots() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        for _ in 0..5 {
            g.add_task(meta(TaskKind::Other, 1.0), ());
        }
        assert_eq!(g.roots().len(), 5);
        assert_eq!(g.critical_path_flops(), 1.0);
    }

    #[test]
    #[should_panic(expected = "insertion order")]
    fn backward_edge_rejected() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = g.add_task(meta(TaskKind::Other, 1.0), ());
        let b = g.add_task(meta(TaskKind::Other, 1.0), ());
        g.add_dep(b, a);
    }

    #[test]
    #[should_panic(expected = "self-dependency")]
    fn self_edge_rejected() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = g.add_task(meta(TaskKind::Other, 1.0), ());
        g.add_dep(a, a);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let mut g: TaskGraph<()> = TaskGraph::new();
        let a = g.add_task(meta(TaskKind::Panel, 1.0), ());
        let b = g.add_task(meta(TaskKind::Update, 1.0), ());
        g.add_dep(a, b);
        let dot = g.to_dot();
        assert!(dot.contains("t0 -> t1"));
        assert!(dot.contains("indianred"));
        assert!(dot.contains("palegreen"));
    }
}

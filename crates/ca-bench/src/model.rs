//! The simulated multicore machine: P cores, calibrated kernel throughputs,
//! a roofline memory model (per-task time is the max of the compute time
//! and the memory-traffic time — the communication CA algorithms minimize),
//! and a fixed per-task scheduling overhead (the paper: "for a too large
//! number of tasks, the time spent in the scheduling can become
//! significant").

use crate::calibrate::Calibration;
use ca_sched::{simulate, Profile, TaskGraph, Timeline};

/// A virtual multicore machine for replaying factorization task graphs.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Number of cores.
    pub cores: usize,
    /// Per-kernel-class throughputs.
    pub calib: Calibration,
    /// Fixed scheduling/dispatch overhead added to every task (seconds).
    pub task_overhead: f64,
}

impl MachineModel {
    /// A machine with `cores` cores and the given calibration; overhead
    /// defaults to 2 µs per task (measured dispatch cost of the `ca-sched`
    /// pool is of this order).
    pub fn new(cores: usize, calib: Calibration) -> Self {
        Self { cores, calib, task_overhead: 2e-6 }
    }

    /// Per-task duration under the roofline model; every core sees the
    /// whole calibrated bandwidth (no contention term).
    fn task_seconds(&self, meta: &ca_sched::TaskMeta) -> f64 {
        let compute = meta.flops / self.calib.flops_per_sec(meta.class);
        let memory = meta.bytes / self.calib.bandwidth;
        compute.max(memory) + self.task_overhead
    }

    /// Replays a task graph; returns the full timeline.
    pub fn run<T>(&self, graph: &TaskGraph<T>) -> Timeline {
        simulate(graph, self.cores, |_, meta| self.task_seconds(meta)).stats.timeline
    }

    /// Replays a task graph; returns the full [`Profile`] (exact lifecycle
    /// records in simulated seconds — lookahead metric, critical-path
    /// efficiency, roofline attribution). Same schedule as
    /// [`MachineModel::run`], and fully deterministic.
    pub fn profile<T>(&self, graph: &TaskGraph<T>) -> Profile {
        simulate(graph, self.cores, |_, meta| self.task_seconds(meta)).profile()
    }

    /// Replays a task graph and converts to GFlop/s using the *useful*
    /// (LAPACK-convention) flop count, as the paper does.
    pub fn gflops<T>(&self, graph: &TaskGraph<T>, useful_flops: f64) -> f64 {
        let tl = self.run(graph);
        useful_flops / tl.makespan / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::CaParams;

    #[test]
    fn more_cores_never_slower() {
        let calib = Calibration::reference();
        let p = CaParams::new(50, 4, 4);
        let g = ca_core::calu_task_graph(2000, 400, &p);
        let t1 = MachineModel::new(1, calib.clone()).run(&g).makespan;
        let t4 = MachineModel::new(4, calib.clone()).run(&g).makespan;
        let t8 = MachineModel::new(8, calib).run(&g).makespan;
        assert!(t4 <= t1 * 1.0001);
        assert!(t8 <= t4 * 1.0001);
        assert!(t4 < t1 * 0.6, "4 cores should give real speedup: {t4} vs {t1}");
    }

    #[test]
    fn calu_beats_blas2_panel_on_tall_skinny_model() {
        // The headline effect: on a tall-skinny matrix, CALU's parallel
        // recursive panel must beat the blocked algorithm's sequential
        // BLAS2 panel on the simulated 8-core machine.
        let calib = Calibration::reference();
        let m = 50_000;
        let n = 100;
        let machine = MachineModel::new(8, calib);
        let p = CaParams::new(100, 8, 8);
        let g_calu = ca_core::calu_task_graph(m, n, &p);
        let blocked = ca_baselines::BlockedLuPlan::build(m, n, 64, 8);
        let useful = ca_kernels::flops::getrf(m, n);
        let gf_calu = machine.gflops(&g_calu, useful);
        let gf_blocked = machine.gflops(blocked.graph(), useful);
        assert!(
            gf_calu > 1.5 * gf_blocked,
            "CALU {gf_calu} GF vs blocked {gf_blocked} GF — expected a clear win"
        );
    }

    #[test]
    fn roofline_makes_memory_bound_tasks_slower() {
        use ca_sched::{KernelClass, TaskGraph, TaskKind, TaskLabel, TaskMeta};
        let calib = Calibration::reference(); // 8 GB/s, 0.8 GF/s LuBlas2
        let machine = MachineModel::new(1, calib);
        // Two tasks with identical flops; one streams far more bytes.
        let mut g: TaskGraph<()> = TaskGraph::new();
        let lean = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 0, 0, 0), 1e9)
            .with_bytes(1e6)
            .with_class(KernelClass::LuBlas2);
        let fat = TaskMeta::new(TaskLabel::new(TaskKind::Panel, 1, 0, 0), 1e9)
            .with_bytes(64e9)
            .with_class(KernelClass::LuBlas2);
        let a = g.add_task(lean, ());
        let b = g.add_task(fat, ());
        g.add_dep(a, b);
        let tl = machine.run(&g);
        let spans: Vec<_> = tl.lanes[0].iter().map(|s| s.end - s.start).collect();
        // lean: 1e9 / 0.8e9 = 1.25 s (compute-bound);
        // fat:  64e9 / 8e9 = 8 s (bandwidth-bound).
        assert!((spans[0] - 1.25).abs() < 0.01, "lean {}", spans[0]);
        assert!((spans[1] - 8.0).abs() < 0.1, "fat {}", spans[1]);
    }

    #[test]
    fn blas2_panel_is_bandwidth_limited_in_calu_vs_blocked() {
        // With traffic estimates wired in, the blocked algorithm's BLAS2
        // panel hits the bandwidth roof on tall panels, widening the CALU
        // gap — the "communication" story made quantitative.
        let calib = Calibration::reference();
        let machine = MachineModel::new(8, calib);
        let p = ca_core::CaParams::new(100, 8, 8);
        let g_calu = ca_core::calu_task_graph(50_000, 100, &p);
        let blocked = ca_baselines::BlockedLuPlan::build(50_000, 100, 64, 8);
        let useful = ca_kernels::flops::getrf(50_000, 100);
        let r = machine.gflops(&g_calu, useful) / machine.gflops(blocked.graph(), useful);
        assert!(r > 2.0, "CALU/blocked ratio {r}");
    }

    #[test]
    fn overhead_hurts_fine_granularity() {
        let calib = Calibration::reference();
        let p = CaParams::new(20, 8, 8); // tiny tasks
        let g = ca_core::calu_task_graph(2000, 400, &p);
        let mut m1 = MachineModel::new(8, calib.clone());
        m1.task_overhead = 0.0;
        let mut m2 = MachineModel::new(8, calib);
        m2.task_overhead = 1e-3; // absurd overhead
        assert!(m2.run(&g).makespan > 2.0 * m1.run(&g).makespan);
    }
}

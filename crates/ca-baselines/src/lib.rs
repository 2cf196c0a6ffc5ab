//! # ca-baselines
//!
//! The comparison algorithms of the paper's evaluation, built from the same
//! `ca-kernels` substrate as CALU/CAQR:
//!
//! * [`getrf_blocked`] / [`geqrf_blocked`] — LAPACK-style blocked
//!   factorizations with a sequential BLAS2 panel and a strip-parallel
//!   BLAS3 trailing update: the `MKL_dgetrf` / `ACML_dgetrf` /
//!   `MKL_dgeqrf` vendor-library stand-ins.
//! * `ca_kernels::getf2` / `ca_kernels::geqr2` — the pure BLAS2 routines the
//!   paper benchmarks as `MKL_dgetf2` / `MKL_dgeqr2`.
//! * [`tiled_lu`] / [`tiled_qr`] — PLASMA 2.0-style tile algorithms
//!   (incremental pairwise pivoting LU; flat-tree tile QR), run on the
//!   `ca-sched` task runtime.
//! * `*_task_graph` builders — the same algorithms as bare task DAGs for the
//!   multicore simulator.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod geqrf_blocked;
mod getrf_blocked;
pub mod tile_kernels;
mod tiled_lu;
mod tiled_qr;

use ca_matrix::{MatViewMut, Matrix, SharedMatrix};
use ca_sched::{AccessMap, CheckedError, TaskGraph};

/// Runs a tile-algorithm graph over `a` on `threads` workers and returns the
/// factored matrix. `checked` adds the full verification stack: the static
/// soundness proof up front (element-exact, so the diagonal tiles the tile
/// algorithms split between two kernels verify as declared), then execution
/// under a shadow registry whose sub-tile leases audit every access.
fn run_tiles<S: Copy + Send + Sync>(
    a: Matrix,
    threads: usize,
    checked: bool,
    graph: &TaskGraph<S>,
    access: &AccessMap,
    exec: impl Fn(&SharedMatrix, S) + Sync,
) -> Result<Matrix, CheckedError> {
    assert!(threads > 0);
    let registry = if checked {
        ca_sched::verify_graph(graph, access).map_err(CheckedError::Soundness)?;
        Some(ca_sched::build_shadow_registry(graph, access))
    } else {
        None
    };
    let shared = match &registry {
        Some(registry) => SharedMatrix::with_shadow(a, registry.clone()),
        None => SharedMatrix::new(a),
    };
    let jobs = graph.map_ref(|_, &spec| {
        let (exec, shared) = (&exec, &shared);
        ca_sched::job(move || exec(shared, spec))
    });
    let opts = ca_sched::RunOptions { shadow: registry.as_ref(), ..Default::default() };
    ca_sched::execute(jobs, threads, &opts).into_result()?;
    Ok(shared.into_inner())
}

/// The multithreaded-BLAS stand-in of the blocked baselines: cuts `c` into
/// at most `threads` column strips (each at least 32 columns wide; one strip
/// below 64 columns) and runs `body(first column, strip)` on each — the last
/// strip on the caller, the others on scoped threads, so no more than
/// `threads` threads ever compute.
fn for_each_column_strip<'a>(
    c: MatViewMut<'a>,
    threads: usize,
    body: impl Fn(usize, MatViewMut<'a>) + Sync,
) {
    let n = c.ncols();
    if threads <= 1 || n < 64 {
        return body(0, c);
    }
    let strip = n.div_ceil(threads).max(32);
    std::thread::scope(|s| {
        let (mut rest, mut j) = (c, 0usize);
        while n - j > strip {
            let (head, tail) = rest.split_at_col(strip);
            let body = &body;
            s.spawn(move || body(j, head));
            rest = tail;
            j += strip;
        }
        body(j, rest);
    });
}

pub use geqrf_blocked::{geqrf_blocked, geqrf_blocked_task_graph, BlockedQr};
pub use getrf_blocked::{getrf_blocked, getrf_blocked_task_graph, BlockedLu};
pub use tiled_lu::{
    tiled_lu, tiled_lu_task_graph, tiled_lu_task_graph_with_access, try_tiled_lu_checked, TiledLu,
    TiledLuTask,
};
pub use tiled_qr::{
    tiled_qr, tiled_qr_task_graph, tiled_qr_task_graph_with_access, try_tiled_qr_checked, TiledQr,
    TiledQrTask,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn column_strips_cover_c_once_on_at_most_threads_threads() {
        // (columns, threads, strips): one thread per strip, never more
        // than `threads`; 32-column floor; a single strip below 64 columns.
        for (n, threads, strips) in [(1000usize, 2usize, 2usize), (1000, 3, 3), (70, 8, 3), (40, 4, 1)] {
            let mut c = Matrix::zeros(4, n);
            let ids = Mutex::new(HashSet::new());
            for_each_column_strip(c.view_mut(), threads, |j, mut cj| {
                ids.lock().unwrap().insert(std::thread::current().id());
                for jj in 0..cj.ncols() {
                    *cj.at_mut(0, jj) += (j + jj) as f64 + 1.0;
                }
            });
            assert_eq!(ids.into_inner().unwrap().len(), strips, "n={n} threads={threads}");
            for j in 0..n {
                assert_eq!(c[(0, j)], j as f64 + 1.0, "column {j} of {n}");
            }
        }
    }
}

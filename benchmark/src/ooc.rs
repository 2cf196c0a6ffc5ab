//! The `ooc` workload: `ooc_calu` / `ooc_caqr` over a [`TileStore`] under a
//! memory budget a quarter of the matrix.
//!
//! The harness never holds the whole matrix: the store is filled one block
//! column at a time from the seed before every repetition (untimed), and
//! results are checked with the library's streamed `O(n²)` probes.

use crate::checks::{guarded, hash_f64s, Kind, Ops, ACCURACY_TOL, HASH_SEED};
use crate::report::out_dir;
use crate::spans::Tracer;
use crate::spec::Ooc;
use ca_factor::core::FactorError;
use ca_factor::kernels::traffic::{ooc_lu_lower_bound, ooc_qr_lower_bound};
use ca_factor::matrix::{random_uniform, residual_threshold, seeded_rng};
use ca_factor::ooc::{ooc_calu, ooc_caqr, probe, IoSnapshot, TileStore};
use ca_factor::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// The seed's matrix as a tile store in a scratch directory of its own
/// (removed on drop), with the parameters every repetition runs under.
pub struct Problem {
    pub store: TileStore<f64>,
    pub shape: Ooc,
    seed: u64,
    workers: usize,
    dir: PathBuf,
}

impl Drop for Problem {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn params(shape: &Ooc, workers: usize) -> CaParams {
    CaParams::new(shape.b, shape.tr, workers)
}

/// One out-of-core factorization and what the harness measured around it.
#[derive(Clone, Copy, Default)]
pub struct Rep {
    pub secs: f64,
    pub io: IoSnapshot,
    pub superpanels: usize,
    pub import_s: f64,
    /// Both streamed probe passes (before and after the factorization).
    pub probe_s: f64,
}

impl Problem {
    /// An empty store in a scratch directory named after this process, so
    /// that concurrent runs stay apart.
    pub fn create(shape: &Ooc, seed: u64, workers: usize) -> Problem {
        let dir = out_dir().join(format!("tmp-{}-store", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        let store =
            TileStore::create(dir.join("matrix.castore"), shape.n, shape.n, shape.b).expect("create tile store");
        Problem { store, shape: *shape, seed, workers, dir }
    }

    /// Import and one factorization of each kind: what a first call pays.
    pub fn set_up(shape: &Ooc, seed: u64, workers: usize) -> Problem {
        let problem = Problem::create(shape, seed, workers);
        let p = params(shape, workers);
        problem.import().expect("import");
        ooc_calu(&problem.store, &p, shape.budget_bytes).expect("warm-up ooc_calu");
        problem.import().expect("import");
        ooc_caqr(&problem.store, &p, shape.budget_bytes).expect("warm-up ooc_caqr");
        problem
    }

    /// Fills the store with the seed's matrix, one block column at a time.
    pub fn import(&self) -> Result<(), FactorError> {
        let mut rng = seeded_rng(self.seed);
        for j in 0..self.store.num_panels() {
            let panel = random_uniform(self.store.nrows(), self.store.width_of(j), &mut rng);
            self.store.write_panel(j, &panel)?;
        }
        Ok(())
    }

    fn hash_store(&self, seed: u64) -> Result<u64, FactorError> {
        (0..self.store.num_panels()).try_fold(seed, |h, j| Ok(hash_f64s(h, self.store.read_panel(j)?.as_slice())))
    }

    /// Re-imports the matrix, runs one timed factorization, and checks it:
    /// streamed probe residual within `residual_threshold(n, n, 100)`, and
    /// the factored store bitwise equal to the first repetition's, whose
    /// hash `reference` keeps.
    pub fn rep(&self, tracer: &mut Tracer, ops: &mut Ops, kind: Kind, reference: &mut Option<u64>) -> Rep {
        let (store, shape, n) = (&self.store, &self.shape, self.shape.n);
        let p = params(shape, self.workers);
        let mut out = Rep::default();
        let span = format!("ca-ooc.ooc_{}", kind.entry());
        let verdict = (|| -> Result<(), String> {
            let text = |e: FactorError| e.to_string();
            let (imported, import_s) = tracer.time("ca-ooc.import", || self.import());
            imported.map_err(text)?;
            out.import_s = import_s;

            let x = random_uniform(n, 1, &mut seeded_rng(self.seed ^ 0x0b5e)).as_slice().to_vec();
            let t0 = Instant::now();
            let (want, a_fro) = probe::stream_matvec(store, &x).map_err(text)?;
            out.probe_s = t0.elapsed().as_secs_f64();

            let (result, secs) = tracer.time(&span, || {
                guarded(|| match kind {
                    Kind::Lu => ooc_calu(store, &p, shape.budget_bytes)
                        .map(|f| (f.io, f.plan.nsuper, Some(f.pivots), Vec::new())),
                    Kind::Qr => ooc_caqr(store, &p, shape.budget_bytes).map(|f| (f.io, f.plan.nsuper, None, f.panels)),
                })
            });
            let (io, superpanels, pivots, panels) = result?.map_err(text)?;
            (out.secs, out.io, out.superpanels) = (secs, io, superpanels);

            let t0 = Instant::now();
            let got = match &pivots {
                Some(pivots) => probe::lu_probe_apply(store, pivots, &x),
                None => probe::qr_probe_apply(store, &panels, &x),
            }
            .map_err(text)?;
            out.probe_s += t0.elapsed().as_secs_f64();
            let residual = probe::probe_residual(&got, &want, a_fro, &x);
            let threshold = residual_threshold(n, n, ACCURACY_TOL);
            if !(residual.is_finite() && residual <= threshold) {
                return Err(format!("probe residual {residual:.3e} exceeds {threshold:.3e}"));
            }

            let pivot_hash =
                pivots.iter().flat_map(|pv| &pv.ipiv).fold(HASH_SEED, |h, &r| (h ^ r as u64).wrapping_mul(31));
            let got = self.hash_store(pivot_hash).map_err(text)?;
            let want = *reference.get_or_insert(got);
            if got != want {
                return Err(format!(
                    "factored store differs bitwise from the first repetition ({got:016x} vs {want:016x})"
                ));
            }
            Ok(())
        })();
        ops.record(&span, verdict);
        out
    }

    /// Interleaved LU / QR repetitions until `deadline`, at least `min_pairs`.
    pub fn measure_pairs(
        &self,
        tracer: &mut Tracer,
        ops: &mut Ops,
        min_pairs: usize,
        deadline: Instant,
    ) -> [Vec<Rep>; 2] {
        let mut reps = [Vec::new(), Vec::new()];
        let mut reference = [None, None];
        while reps[0].len() < min_pairs || Instant::now() < deadline {
            for kind in Kind::BOTH {
                let r = self.rep(tracer, ops, kind, &mut reference[kind as usize]);
                reps[kind as usize].push(r);
            }
        }
        reps
    }
}

/// The sequential-I/O lower bound of arXiv 0806.2159 for this shape and budget.
pub fn io_lower_bound(shape: &Ooc, kind: Kind) -> f64 {
    match kind {
        Kind::Lu => ooc_lu_lower_bound(shape.n, shape.n, shape.budget_bytes, 8),
        Kind::Qr => ooc_qr_lower_bound(shape.n, shape.n, shape.budget_bytes, 8),
    }
}

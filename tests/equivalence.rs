//! The `Dag` rows of the equivalence matrix (tests/equivalence_table,
//! DESIGN.md §5): `calu`/`caqr` on 1, 2 and 4 workers give the bits of
//! `calu_seq_factor`/`caqr_seq` on every shape and under every parameter that
//! must not move a bit. The four baselines are held to their own one-worker
//! bits, tiled LU also under the recovery ladder.

mod equivalence_table;

use ca_factor::baselines::*;
use ca_factor::core::FactorOptions;
use ca_factor::matrix::{random_uniform, seeded_rng, Matrix};
use ca_factor::sched::{run_plan, ChaosPlan, Plan, Retry, TaskKind, TaskLabel};
use equivalence_table::{bits, ok, qr_bits, same, words, Bits, Part};
use std::sync::Arc;

#[test]
fn calu_gives_the_bits_of_calu_seq_factor_on_every_shape_and_parameter() {
    equivalence_table::lu(Part::Dag);
}

#[test]
fn caqr_gives_the_bits_of_caqr_seq_on_every_shape_and_parameter() {
    equivalence_table::qr(Part::Dag);
}

/// Holds a baseline on 4 workers (`run`) and under `checked` to its
/// one-worker bits, the unchecked runs first.
fn baseline(what: &str, run: impl Fn(usize) -> Bits, checked: impl FnOnce() -> Bits) {
    let want = run(1);
    same(&format!("{what} on 4 workers"), &run(4), &want);
    same(&format!("checked {what}"), &checked(), &want);
}

/// `plan` over `a` under `checked`, on `w` workers.
fn checked<F: 'static>(plan: Plan<f64, F>, a: &Matrix, w: usize) -> F {
    let opts = FactorOptions { checked: true, ..Default::default() };
    ok(run_plan(plan, a.clone(), w, &opts), "checked run").0
}

#[test]
fn baselines_give_their_one_worker_bits_on_four_workers_and_checked() {
    let lu = |(x, f): (Matrix, BlockedLu)| vec![("L\\U", bits(&x)), ("ipiv", words(f.pivots.ipiv))];
    let qr = |x: &Matrix| vec![("R\\V", bits(x))];
    // Square, tall, and wide with more strips than blocks: `(m, n, nb, strips)`.
    for (m, n, nb, w) in [(150, 150, 32, 4), (200, 70, 16, 3), (60, 130, 25, 8)] {
        let (a, what) = (random_uniform(m, n, &mut seeded_rng(9)), format!("{m}x{n} nb={nb} strips={w}"));
        let getrf = |w| {
            let mut x = a.clone();
            let f = getrf_blocked(&mut x, nb, w);
            lu((x, f))
        };
        baseline(&format!("blocked LU {what}"), getrf, || lu(checked(BlockedLuPlan::build(m, n, nb, w), &a, w)));
        let geqrf = |w| {
            let mut x = a.clone();
            geqrf_blocked(&mut x, nb, w);
            qr(&x)
        };
        baseline(&format!("blocked QR {what}"), geqrf, || qr(&checked(BlockedQrPlan::build(m, n, nb, w), &a, w).0));
    }
    let tiled_bits = |f: TiledLu| {
        let ipiv = f.diag.iter().flat_map(|d| d.pivots.ipiv.iter().copied());
        let trans = f.trans.iter().flatten().flat_map(|t| bits(&t.packed));
        vec![("L\\U", bits(&f.a)), ("ipiv", words(ipiv)), ("tstrf", trans.collect())]
    };
    let a = random_uniform(64, 64, &mut seeded_rng(4));
    let checked_lu = || tiled_bits(checked(TiledLuPlan::build(64, 64, 16), &a, 4));
    baseline("tiled LU 64x64 b=16", |w| tiled_bits(tiled_lu(a.clone(), 16, w)), checked_lu);
    // Under the recovery ladder an injected failure or panic scribbles NaN
    // over the victim's matrix write-set, restores it and replays: a getrf,
    // a tstrf (its write-set the whole diagonal tile, whose copy in a slot
    // the concurrent gessm tasks read) and a gessm disturbed so give the
    // undisturbed bits.
    let want = tiled_bits(tiled_lu(a.clone(), 16, 1));
    for w in [1, 2, 4] {
        let chaos = ChaosPlan::quiet(6)
            .fail_nth(2, |l: &TaskLabel| l.kind == TaskKind::Panel && l.i == l.j)
            .panic_nth(1, |l: &TaskLabel| l.kind == TaskKind::Panel && l.i != l.j)
            .fail_nth(3, |l: &TaskLabel| l.kind == TaskKind::URow);
        let (chaos, retry) = (Some(Arc::new(chaos)), Some(Retry::default()));
        let opts = FactorOptions { chaos, retry, checked: true };
        let what = format!("tiled LU 64x64 b=16 under replay on {w} workers");
        let (f, report) = ok(run_plan(TiledLuPlan::build(64, 64, 16), a.clone(), w, &opts), &what);
        let s = report.recovery();
        assert_eq!((s.injected_failures, s.injected_panics, s.recovered_tasks), (2, 1, 3), "{what}: {s:?}");
        same(&what, &tiled_bits(f), &want);
    }
    let a = random_uniform(80, 48, &mut seeded_rng(5));
    let checked_qr = || qr_bits(&checked(tiled_qr_plan(80, 48, 16), &a, 4));
    baseline("tiled QR 80x48 b=16", |w| qr_bits(&tiled_qr(a.clone(), 16, w)), checked_qr);
}

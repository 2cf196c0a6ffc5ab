//! The experiment table behind `ca-bench repro [ID…]`: one row per paper
//! artifact (DESIGN.md §4), in paper order. The GFlop/s sweeps (Figs 5–8,
//! Tables I–III) are data — sizes and a contender list — driven by one
//! `sweep`; every other row's body is a function (Figs 1–4 here, the §II
//! and §V studies in [`crate::studies`]).

use crate::calibrate::Calibration;
use crate::model::MachineModel;
use crate::report::{save, Cli, Series};
use crate::runners::{paper_b, Algo};
use crate::studies;
use ca_core::{calu_task_graph, CaParams, TreeShape};
use ca_sched::ascii_gantt;
use std::cell::OnceCell;
use std::io;

/// What one `repro` invocation shares between its rows: the flags, and one
/// calibration, taken when the first row asks for it — so every artifact of
/// a run is simulated with the same rates.
pub struct Run<'a> {
    /// The parsed flags.
    pub cli: &'a Cli,
    calib: OnceCell<Calibration>,
}

impl Run<'_> {
    /// This run's calibration (measured on first use unless
    /// `--reference-calibration`).
    pub fn calib(&self) -> &Calibration {
        self.calib.get_or_init(|| self.cli.calibration())
    }

    /// The simulated machine: `--cores` or the row's default.
    pub fn machine(&self, default_cores: usize) -> MachineModel {
        MachineModel::new(self.cli.cores.unwrap_or(default_cores), self.calib().clone())
    }
}

/// A column of a sweep: its name and the algorithm at column count `n`
/// (the paper's `b = min(n, 100)` rule makes the parameters depend on it).
pub type Contender = (&'static str, fn(usize) -> Algo);

/// A GFlop/s sweep as data.
pub struct Sweep {
    /// Simulated cores unless `--cores` says otherwise.
    pub cores: usize,
    /// x values.
    pub xs: &'static [usize],
    /// The `--quick` subset of `xs`.
    pub quick_xs: &'static [usize],
    /// `Some(m)`: tall-skinny, `m·scale` rows and `x` columns.
    /// `None`: square, `x·scale` rows and columns.
    pub tall_m: Option<f64>,
    /// One column per contender.
    pub contenders: &'static [Contender],
}

/// What running a row does.
pub enum Body {
    /// Simulate (or, with `--measured`, time) every contender at every x;
    /// print the table, write `<id>.csv` and `<id>.json`.
    Sweep(Sweep),
    /// Anything else.
    Run(fn(&Run) -> io::Result<()>),
}

/// One row of the table.
pub struct Experiment {
    /// What `repro` selects it by, and the stem of the files it writes.
    pub id: &'static str,
    /// The paper artifact and this row's default sizes.
    pub caption: &'static str,
    /// What it runs.
    pub body: Body,
}

fn calu(b: usize, tr: usize) -> Algo {
    Algo::Calu { b, tr, tree: TreeShape::Binary }
}

/// CAQR on the height-1 tree, the configuration the paper reports.
fn caqr(b: usize, tr: usize) -> Algo {
    Algo::Caqr { b, tr, tree: TreeShape::Flat }
}

const TALL_NS: &[usize] = &[10, 25, 50, 100, 150, 200, 500, 1000];
const TALL_QUICK: &[usize] = &[10, 100, 500];
const SQUARE_QUICK: &[usize] = &[1000, 3000];

const LU_TALL_8: &[Contender] = &[
    ("CALU(Tr=4)", |n| calu(paper_b(n), 4)),
    ("CALU(Tr=8)", |n| calu(paper_b(n), 8)),
    ("MKL_dgetrf", |_| Algo::BlockedLu { nb: 64 }),
    ("MKL_dgetf2", |_| Algo::Blas2Lu),
    ("PLASMA_dgetrf", |n| Algo::TiledLu { b: paper_b(n) }),
];

const fn tall(cores: usize, m: f64, contenders: &'static [Contender]) -> Body {
    Body::Sweep(Sweep { cores, xs: TALL_NS, quick_xs: TALL_QUICK, tall_m: Some(m), contenders })
}

const fn square(cores: usize, xs: &'static [usize], contenders: &'static [Contender]) -> Body {
    Body::Sweep(Sweep { cores, xs, quick_xs: SQUARE_QUICK, tall_m: None, contenders })
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "calibration",
        caption: "Host calibration: the kernel-class rates every simulated row below uses",
        body: Body::Run(studies::calibration),
    },
    Experiment {
        id: "dag",
        caption: "Figure 1 — CALU task DAG, 4x4 blocks, Tr=2 (Graphviz DOT)",
        body: Body::Run(dag),
    },
    Experiment {
        id: "fig2",
        caption: "Figure 2 — schedule of the 4x4-block CALU DAG on 4 cores",
        body: Body::Run(fig2),
    },
    Experiment {
        id: "fig3",
        caption: "Figure 3 — CALU trace, 10^5 x 1000, b=100, Tr=1, 8 cores: idle behind every panel",
        body: Body::Run(|run| trace(run, "fig3", 1)),
    },
    Experiment {
        id: "fig4",
        caption: "Figure 4 — the same with Tr=8: the idle time is gone",
        body: Body::Run(|run| trace(run, "fig4", 8)),
    },
    Experiment {
        id: "fig5",
        caption: "Figure 5 — LU of tall-skinny m=10^5, varying n, 8-core Intel",
        body: tall(8, 1e5, LU_TALL_8),
    },
    Experiment {
        id: "fig6",
        caption: "Figure 6 — LU of tall-skinny m=2*10^5, varying n, 8-core Intel (--scale 5 for the paper's m=10^6)",
        body: tall(8, 2e5, LU_TALL_8),
    },
    Experiment {
        id: "fig7",
        caption: "Figure 7 — LU of tall-skinny m=10^5, varying n, 16-core AMD",
        body: tall(
            16,
            1e5,
            &[
                ("CALU(Tr=8)", |n| calu(paper_b(n), 8)),
                ("CALU(Tr=16)", |n| calu(paper_b(n), 16)),
                ("ACML_dgetrf", |_| Algo::BlockedLu { nb: 64 }),
                ("PLASMA_dgetrf", |n| Algo::TiledLu { b: paper_b(n) }),
            ],
        ),
    },
    Experiment {
        id: "fig8",
        caption: "Figure 8 — QR of tall-skinny m=10^5, varying n, 8-core Intel",
        body: tall(
            8,
            1e5,
            &[
                ("TSQR", |_| Algo::Tsqr { tr: 8, tree: TreeShape::Binary }),
                ("CAQR(Tr=4)", |n| caqr(paper_b(n), 4)),
                ("MKL_dgeqrf", |_| Algo::BlockedQr { nb: 64 }),
                ("MKL_dgeqr2", |_| Algo::Blas2Qr),
                ("PLASMA_dgeqrf", |n| Algo::TiledQr { b: paper_b(n) }),
            ],
        ),
    },
    Experiment {
        id: "table1",
        caption: "Table I — LU of square matrices, b=100, 8-core Intel",
        body: square(
            8,
            &[1000, 2000, 3000, 4000, 5000, 10000],
            &[
                ("MKL_dgetrf", |_| Algo::BlockedLu { nb: 64 }),
                ("PLASMA_dgetrf", |_| Algo::TiledLu { b: 100 }),
                ("CALU(Tr=1)", |_| calu(100, 1)),
                ("CALU(Tr=2)", |_| calu(100, 2)),
                ("CALU(Tr=4)", |_| calu(100, 4)),
                ("CALU(Tr=8)", |_| calu(100, 8)),
            ],
        ),
    },
    Experiment {
        id: "table2",
        caption: "Table II — LU of square matrices, b=100, 16-core AMD",
        body: square(
            16,
            &[1000, 2000, 3000, 4000, 5000],
            &[
                ("ACML_dgetrf", |_| Algo::BlockedLu { nb: 64 }),
                ("PLASMA_dgetrf", |_| Algo::TiledLu { b: 100 }),
                ("CALU(Tr=1)", |_| calu(100, 1)),
                ("CALU(Tr=2)", |_| calu(100, 2)),
                ("CALU(Tr=4)", |_| calu(100, 4)),
                ("CALU(Tr=8)", |_| calu(100, 8)),
                ("CALU(Tr=16)", |_| calu(100, 16)),
            ],
        ),
    },
    Experiment {
        id: "table3",
        caption: "Table III — QR of square matrices, b=100, 8-core Intel",
        body: square(
            8,
            &[1000, 2000, 3000, 4000, 5000],
            &[
                ("MKL_dgeqrf", |_| Algo::BlockedQr { nb: 64 }),
                ("PLASMA_dgeqrf", |_| Algo::TiledQr { b: 100 }),
                ("CAQR(Tr=1)", |_| caqr(100, 1)),
                ("CAQR(Tr=2)", |_| caqr(100, 2)),
                ("CAQR(Tr=4)", |_| caqr(100, 4)),
                ("CAQR(Tr=8)", |_| caqr(100, 8)),
            ],
        ),
    },
    Experiment {
        id: "stability",
        caption: "§II stability claim — growth and residual of CALU against GEPP",
        body: Body::Run(studies::stability),
    },
    Experiment {
        id: "comm",
        caption: "§II optimality claim — messages and words of TSLU/TSQR against a partial-pivoting panel",
        body: Body::Run(studies::comm),
    },
    Experiment {
        id: "ablations",
        caption: "§III/§V design choices — tree, lookahead, Tr, b, overhead, two-level blocking",
        body: Body::Run(studies::ablations),
    },
];

/// The rows named by `ids`, in table order — all of them when `ids` is
/// empty. An unknown ID is an `Err` listing the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(bad) = ids.iter().find(|id| EXPERIMENTS.iter().all(|e| e.id != id.as_str())) {
        let valid: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!("unknown experiment `{bad}`; the IDs are: {}", valid.join(" ")));
    }
    Ok(EXPERIMENTS.iter().filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id)).collect())
}

/// Runs `rows` in order under one calibration. Output starts with the
/// row's caption — in a sweep's title, else on a `// id: caption` line (a
/// comment in DOT, so `repro dag` pipes into Graphviz as it is).
pub fn repro(rows: &[&Experiment], cli: &Cli) -> io::Result<()> {
    let run = Run { cli, calib: OnceCell::new() };
    rows.iter().try_for_each(|e| match &e.body {
        Body::Sweep(s) => sweep(e, s, &run),
        Body::Run(body) => {
            println!("// {}: {}", e.id, e.caption);
            body(&run)
        }
    })
}

/// Fills one column per contender — GFlop/s at each x — then prints the
/// table and writes `<id>.csv` / `<id>.json` under `--out`.
fn sweep(e: &Experiment, s: &Sweep, run: &Run) -> io::Result<()> {
    let cli = run.cli;
    let xs = if cli.quick { s.quick_xs } else { s.xs };
    let tall_m = s.tall_m.map(|m| cli.scaled(m, 2000));
    let (rows, xlabel, xs): (_, _, Vec<usize>) = match tall_m {
        Some(m) => (format!("m={m}, "), "n", xs.to_vec()),
        None => (String::new(), "m=n", xs.iter().map(|&x| cli.scaled(x as f64, 200)).collect()),
    };
    let machine = run.machine(s.cores);
    let title = format!("{} ({rows}{}); GFlop/s", e.caption, cli.mode(machine.cores));
    let mut series = Series::new(title, xlabel, xs);
    for &(name, make) in s.contenders {
        let vals = series
            .xs
            .iter()
            .map(|&x| {
                let (m, n) = (tall_m.unwrap_or(x), x);
                let algo = make(n);
                let gf = if cli.measured {
                    algo.measured_gflops(m, n, cli.threads, 42)
                } else {
                    algo.sim_gflops(m, n, &machine)
                };
                eprintln!("  {name} @ {m}x{n}: {gf:.2} GFlop/s");
                gf
            })
            .collect();
        series.push_column(name, vals);
    }
    println!("{}", series.to_text());
    series.save(&cli.out, e.id)?;
    println!();
    Ok(())
}

/// The 4×4-block matrix of Figures 1 and 2: 4 blocks of b=50, Tr=2.
fn small_dag() -> ca_sched::TaskGraph<()> {
    calu_task_graph(200, 200, &CaParams::new(50, 2, 4))
}

fn dag(_: &Run) -> io::Result<()> {
    let g = small_dag();
    println!("// {} tasks", g.len());
    println!("{}", g.to_dot());
    Ok(())
}

fn fig2(run: &Run) -> io::Result<()> {
    println!("{}", ascii_gantt(&run.machine(4).run(&small_dag()), 96));
    Ok(())
}

/// Figures 3 and 4: the Gantt chart, the simulated profile's report (the
/// numbers behind the contrast: utilization, critical path against
/// makespan), and its Chrome trace in `<id>_trace.json`.
fn trace(run: &Run, id: &str, tr: usize) -> io::Result<()> {
    let cli = run.cli;
    let m = cli.scaled(1e5, 4000);
    let g = calu_task_graph(m, 1000, &CaParams::new(100, tr, 8));
    let profile = run.machine(8).profile(&g);
    println!("{m}x1000, b=100, Tr={tr} ({})", cli.mode(profile.nworkers));
    println!("(P = panel/tournament, L = L-block, U = U-row, S = update, . = idle)");
    println!("{}", ascii_gantt(&profile.timeline(), 110));
    println!("{}", profile.metrics());
    save(&cli.out, &format!("{id}_trace.json"), &profile.chrome_trace())?;
    println!("(open it in chrome://tracing or ui.perfetto.dev)\n");
    Ok(())
}

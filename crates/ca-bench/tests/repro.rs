//! The experiment table end to end: every row runs and writes what it
//! says, the IDs are the ones DESIGN.md §4 indexes, and the built
//! `ca-bench` turns every malformed command line into usage + exit 2.

use ca_bench::figures::{repro, select, Body, EXPERIMENTS};
use ca_bench::Cli;
use std::process::Command;

#[test]
fn every_row_runs_and_sweeps_write_their_columns() {
    let out = std::env::temp_dir().join(format!("ca_bench_repro_{}", std::process::id()));
    let cli = Cli { quick: true, reference_calibration: true, scale: 0.02, out: out.clone(), ..Cli::default() };
    repro(&select(&[]).unwrap(), &cli).unwrap();

    for e in EXPERIMENTS {
        let Body::Sweep(s) = &e.body else { continue };
        let csv = std::fs::read_to_string(out.join(format!("{}.csv", e.id))).unwrap();
        let names: Vec<&str> = s.contenders.iter().map(|c| c.0).collect();
        assert_eq!(csv.lines().next().unwrap().split(',').skip(1).collect::<Vec<_>>(), names, "{}", e.id);
        assert_eq!(csv.lines().count(), 1 + s.quick_xs.len(), "{}", e.id);

        let json = std::fs::read_to_string(out.join(format!("{}.json", e.id))).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let columns = v["columns"].as_array().unwrap();
        assert_eq!(columns.iter().map(|c| c[0].as_str().unwrap()).collect::<Vec<_>>(), names, "{}", e.id);
        for c in columns {
            let vals = c[1].as_array().unwrap();
            assert_eq!(vals.len(), s.quick_xs.len());
            assert!(vals.iter().all(|g| g.as_f64().unwrap() > 0.0), "{}: {c}", e.id);
        }
    }
    for f in ["calibration.json", "fig3_trace.json", "fig4_trace.json"] {
        let text = std::fs::read_to_string(out.join(f)).unwrap();
        serde_json::from_str::<serde_json::Value>(&text).unwrap_or_else(|e| panic!("{f}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn ids_are_the_ones_design_md_indexes() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md")).unwrap();
    let index = design.split("\n## ").find(|s| s.starts_with("4. Per-experiment index")).unwrap();
    let indexed: Vec<&str> = index
        .split("`ca-bench repro ")
        .skip(1)
        .map(|rest| rest.split('`').next().unwrap())
        .collect();
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(indexed, ids, "DESIGN.md §4's last column and the experiment table disagree");
}

#[test]
fn malformed_command_lines_exit_2_with_usage_and_never_panic() {
    for args in [
        &[][..],
        &["fig5"],
        &["repro", "fig9"],
        &["repro", "--scale", "x"],
        &["repro", "--scale", "0"],
        &["repro", "--cores"],
        &["repro", "--cores", "0"],
        &["repro", "--threads", "-1"],
        &["repro", "fig5", "--out"],
        &["repro", "--full"],
        &["chaos-sweep", "fig5"],
        &["chaos_sweep"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_ca-bench")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ca-bench") && !stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
    let run = Command::new(env!("CARGO_BIN_EXE_ca-bench")).args(["repro", "fig9"]).output().unwrap();
    assert!(String::from_utf8_lossy(&run.stderr).contains("fig8 table1"), "an unknown ID lists the valid ones");
}

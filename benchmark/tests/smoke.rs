//! Runs the harness at `--smoke` size the way the driver runs it and checks
//! its output against `BENCHMARK.json`.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ca-benchmark");

fn contract() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array().expect("list").iter().map(|e| e["name"].as_str().expect("name").to_string()).collect()
}

/// The result object of one driver-style invocation.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(BIN)
        .args(["run", "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--smoke"])
        .output()
        .expect("spawn harness");
    assert!(out.status.success(), "{workload} --trace {trace}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str(stdout.lines().last().expect("a last line")).expect("last line is one JSON object")
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let contract = contract();
    for workload in names(&contract["workloads"]) {
        for (trace, listed) in [("0", &contract["end_to_end"]), ("1", &contract["per_layer"])] {
            let result = run(&workload, trace);
            let keys: Vec<&str> = result.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result["correct"], true, "{workload} --trace {trace}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            assert_eq!(result["failed"], 0);

            let metrics = result["metrics"].as_object().expect("metrics object");
            let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let mut want = names(listed);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{workload} --trace {trace}");
            for def in listed.as_array().expect("list") {
                let name = def["name"].as_str().expect("name");
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
                let m = &result["metrics"][name];
                assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{workload}: {name} = {}", m["value"]);
                assert_eq!(m["unit"], def["unit"], "{workload}: unit of {name}");
            }
        }
        let trace_file = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(trace_file).expect("trace file")).expect("trace parses");
        assert!(trace["traceEvents"].as_array().is_some_and(|e| !e.is_empty()), "{workload}: spans recorded");
    }
}

#[test]
fn run_all_writes_one_result_file_that_compares_clean_with_itself() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke-result.json");
    let status = Command::new(BIN).args(["run", "--smoke", "--out"]).arg(&out).status().expect("spawn harness");
    assert!(status.success());
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    // Every workload untraced, then traced.
    let runs: Vec<(&str, bool)> = doc["runs"]
        .as_array()
        .expect("runs")
        .iter()
        .map(|r| (r["workload"].as_str().expect("workload"), r["traced"] == true))
        .collect();
    let want: Vec<(&str, bool)> =
        ["square", "tall", "serve", "ooc"].into_iter().flat_map(|w| [(w, false), (w, true)]).collect();
    assert_eq!(runs, want);
    for key in
        ["git_commit", "rustc", "cpu_model", "nproc", "workers", "gemm_backend", "gemm_kernel", "release_profile"]
    {
        assert!(!doc["provenance"][key].is_null(), "provenance.{key}");
    }
    let status = Command::new(BIN).arg("compare").arg(&out).arg(&out).status().expect("spawn compare");
    assert_eq!(status.code(), Some(0), "a result never regresses against itself");
    let _ = std::fs::remove_file(out);
}

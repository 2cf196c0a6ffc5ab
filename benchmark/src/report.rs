//! Metric records, the `BENCHMARK.json` contract they are checked against,
//! provenance, the result file, and `compare`.

use crate::stats::Summary;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the result-file layout written by `--out`.
pub const SCHEMA: u64 = 1;

/// The contract is compiled in, so the harness cannot drift from the file
/// the driver reads.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const OWN_MANIFEST: &str = include_str!("../Cargo.toml");

/// `benchmark/`, where the harness keeps its scratch (`out/`) and history.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let defs = |key: &str| -> Vec<MetricDef> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| MetricDef {
                    name: m["name"].as_str().expect("metric name").to_string(),
                    unit: m["unit"].as_str().expect("metric unit").to_string(),
                    higher_is_better: m["better"] == "higher",
                    bound: m["bound"].as_f64(),
                })
                .collect()
        };
        Contract {
            workloads: doc["workloads"]
                .as_array()
                .expect("workload list")
                .iter()
                .map(|w| w["name"].as_str().expect("workload name").to_string())
                .collect(),
            run_seconds: doc["run_seconds"].as_f64().expect("run_seconds"),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }

    pub fn defs(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// First and third quartile of the samples behind `value`, when it is a
    /// median of repeated timings.
    pub quartiles: Option<(f64, f64)>,
    pub n: usize,
    pub note: String,
}

/// Where a run collects its metrics, in emission order.
#[derive(Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    /// A single measurement or an exact count.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, "");
    }

    pub fn put_noted(&mut self, name: &str, value: f64, note: &str) {
        self.list.push(Metric { name: name.to_string(), value, quartiles: None, n: 1, note: note.to_string() });
    }

    /// A median of `s.n` samples with its quartiles.
    pub fn put_summary(&mut self, name: &str, s: Summary) {
        self.list.push(Metric {
            name: name.to_string(),
            value: s.median,
            quartiles: Some((s.q1, s.q3)),
            n: s.n,
            note: String::new(),
        });
    }
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub workers: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Self time of the harness's spans per layer (traced runs).
    pub layer_self_s: BTreeMap<String, f64>,
}

impl RunResult {
    /// The run must emit exactly the metrics `BENCHMARK.json` lists for its
    /// mode, each a finite number.
    pub fn check_against(&self, contract: &Contract) -> Result<(), String> {
        let mut want: Vec<&str> = contract.defs(self.traced).iter().map(|d| d.name.as_str()).collect();
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
            let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
            return Err(format!(
                "metric names differ from BENCHMARK.json: missing {missing:?}, unlisted or repeated {extra:?}"
            ));
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not finite", m.name)),
            None => Ok(()),
        }
    }

    pub fn print_table(&self, contract: &Contract) {
        println!(
            "workload {} ({}), seed {}, {} worker(s): {} of {} operations failed",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.workers,
            self.failed,
            self.attempted,
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!("  {:<36} {:>14} {:<7} {:>14} {:>14} {:>6}  note", "metric", "value", "unit", "q1", "q3", "n");
        for m in &self.metrics {
            let unit = unit_of(contract, &m.name);
            let (q1, q3) = match m.quartiles {
                Some((a, b)) => (format!("{a:.6}"), format!("{b:.6}")),
                None => ("-".into(), "-".into()),
            };
            println!("  {:<36} {:>14.6} {:<7} {:>14} {:>14} {:>6}  {}", m.name, m.value, unit, q1, q3, m.n, m.note);
        }
        if !self.layer_self_s.is_empty() {
            let parts: Vec<String> = self.layer_self_s.iter().map(|(l, s)| format!("{l} {s:.3}s")).collect();
            println!("  span self time per layer: {}", parts.join(", "));
        }
    }

    /// The object the driver reads from the last line of standard output.
    pub fn contract_line(&self, contract: &Contract) -> String {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": unit_of(contract, &m.name) })))
            .collect();
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    fn to_json(&self, contract: &Contract) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let (q1, q3) = m.quartiles.map_or((Value::Null, Value::Null), |(a, b)| (a.into(), b.into()));
                let entry = json!({
                    "value": m.value,
                    "unit": unit_of(contract, &m.name),
                    "q1": q1,
                    "q3": q3,
                    "n": m.n,
                    "note": m.note.as_str(),
                });
                (m.name.clone(), entry)
            })
            .collect();
        let layers: Vec<(String, Value)> = self.layer_self_s.iter().map(|(l, s)| (l.clone(), (*s).into())).collect();
        json!({
            "workload": self.workload.as_str(),
            "traced": self.traced,
            "seed": self.seed,
            "seconds": self.seconds,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures.clone(),
            "metrics": Value::Object(metrics),
            "layer_self_s": Value::Object(layers),
        })
    }

    /// Writes the result file: provenance plus this run.
    pub fn write(&self, contract: &Contract, path: &Path) -> std::io::Result<()> {
        let doc = json!({
            "schema": SCHEMA,
            "provenance": provenance(self.workers),
            "runs": vec![self.to_json(contract)],
        });
        write_json(path, &doc)
    }
}

pub fn write_json(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, serde_json::to_string_pretty(doc).expect("value tree serializes") + "\n")
}

fn unit_of<'c>(contract: &'c Contract, name: &str) -> &'c str {
    contract.end_to_end.iter().chain(&contract.per_layer).find(|d| d.name == name).map_or("?", |d| d.unit.as_str())
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Repository discovery must not climb out of the checkout.
    let ceiling = bench_dir().parent().and_then(Path::parent).unwrap_or(Path::new("/"));
    std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result must carry to be compared with another: which code, built
/// how, ran on which machine.
fn provenance(workers: usize) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| t.lines().find(|l| l.starts_with("model name")).map(str::to_string))
        .and_then(|l| l.split(':').nth(1).map(|s| s.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "git_commit": command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        "rustc": command_line("rustc", &["--version"]),
        "cpu_model": cpu,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "workers": workers,
        "gemm_backend": ca_factor::kernels::gemm_backend(),
        "gemm_kernel": ca_factor::kernels::gemm_kernel_name::<f64>(),
        "release_profile": release_profile(OWN_MANIFEST),
    })
}

/// Merges the `runs` of several result files under the first one's header.
pub fn merge(parts: &[Value]) -> Value {
    let runs: Vec<Value> = parts.iter().flat_map(|p| p["runs"].as_array().cloned().unwrap_or_default()).collect();
    json!({
        "schema": SCHEMA,
        "provenance": parts.first().map_or(Value::Null, |p| p["provenance"].clone()),
        "runs": runs,
    })
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    /// One side's own inter-quartile range is wider than the bound.
    Unresolved,
}

/// Applies a metric's direction and bound to a baseline and a candidate,
/// each `(value, quartiles)`. Returns the verdict and the change in the
/// worse direction as a share of the baseline.
pub fn judge(def: &MetricDef, base: (f64, Option<(f64, f64)>), cand: (f64, Option<(f64, f64)>)) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let worse = if def.higher_is_better { base.0 - cand.0 } else { cand.0 - base.0 } / base.0.abs();
    let iqr_share = |(v, q): (f64, Option<(f64, f64)>)| q.map_or(0.0, |(a, b)| (b - a).abs() / v.abs());
    let verdict = if iqr_share(base) > bound || iqr_share(cand) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// Prints one row per (metric, workload) present in both result files and
/// returns the process exit code: 1 on a regression, 2 when the two results
/// are not comparable, otherwise 0. A candidate run with a failed operation
/// is a regression whatever its timings say: a result that missed its
/// correctness gate was not produced faster, it was not produced.
pub fn compare(contract: &Contract, base: &Value, cand: &Value) -> i32 {
    let differing: Vec<&str> = ["cpu_model", "nproc", "workers", "gemm_backend", "gemm_kernel", "release_profile"]
        .into_iter()
        .filter(|k| base["provenance"][*k] != cand["provenance"][*k])
        .collect();
    let comparable = differing.is_empty() && base["schema"] == cand["schema"];
    if !comparable {
        println!("NOT COMPARABLE: schema or provenance differs in {differing:?}; rows are shown without a verdict");
    }
    let reading = |m: &Value| (m["value"].as_f64(), m["q1"].as_f64().zip(m["q3"].as_f64()));
    let mut regressions = 0;
    println!(
        "{:<36} {:<8} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "baseline", "candidate", "worse by", "bound"
    );
    for run in base["runs"].as_array().into_iter().flatten() {
        let twin = cand["runs"].as_array().into_iter().flatten().find(|r| {
            r["workload"] == run["workload"] && r["traced"] == run["traced"] && r["seconds"] == run["seconds"]
        });
        let Some(twin) = twin else { continue };
        let workload = run["workload"].as_str().unwrap_or("?");
        let traced = run["traced"] == true;
        let failed = twin["failed"].as_u64().unwrap_or(u64::MAX);
        if failed > 0 || twin["correct"] != true {
            regressions += 1;
            let mode = if traced { "traced" } else { "untraced" };
            println!("{workload} ({mode}): candidate failed {failed} of {} operations  regression", twin["attempted"]);
        }
        for def in contract.defs(traced) {
            let ((Some(b), bq), (Some(c), cq)) =
                (reading(&run["metrics"][def.name.as_str()]), reading(&twin["metrics"][def.name.as_str()]))
            else {
                continue;
            };
            let (verdict, worse) = judge(def, (b, bq), (c, cq));
            let verdict = match (comparable, def.bound, verdict) {
                (false, _, _) => "not-comparable".to_string(),
                (true, None, _) => "layer".to_string(),
                (true, Some(_), v) => {
                    regressions += usize::from(v == Verdict::Regression);
                    format!("{v:?}").to_lowercase()
                }
            };
            println!(
                "{:<36} {:<8} {:>14.6} {:>14.6} {:>8.2}% {:>7}  {}",
                def.name,
                workload,
                b,
                c,
                worse * 100.0,
                def.bound.map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0)),
                verdict,
            );
        }
    }
    match (comparable, regressions) {
        (false, _) => 2,
        (true, 0) => 0,
        (true, n) => {
            println!("{n} regression(s): a metric beyond its bound, or a run with failed operations");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_matches_the_repository_manifest() {
        let root = std::fs::read_to_string(bench_dir().join("../Cargo.toml")).expect("root manifest");
        let own = release_profile(OWN_MANIFEST);
        assert!(!own.is_empty(), "benchmark manifest has a [profile.release] table");
        assert_eq!(own, release_profile(&root), "the benchmark must time the code cafactor ships");
    }

    fn def(higher: bool) -> MetricDef {
        MetricDef { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound: Some(0.10) }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        assert_eq!(judge(&def(true), (100.0, None), (95.0, None)).0, Verdict::Ok);
        assert_eq!(judge(&def(true), (100.0, None), (85.0, None)).0, Verdict::Regression);
        assert_eq!(judge(&def(true), (100.0, None), (115.0, None)).0, Verdict::Improved);
        assert_eq!(judge(&def(false), (100.0, None), (115.0, None)).0, Verdict::Regression);
        assert_eq!(judge(&def(false), (100.0, None), (85.0, None)).0, Verdict::Improved);
        // A side whose own quartiles span more than the bound decides nothing.
        assert_eq!(judge(&def(true), (100.0, Some((90.0, 105.0))), (50.0, None)).0, Verdict::Unresolved);
        assert_eq!(judge(&def(true), (100.0, Some((98.0, 103.0))), (50.0, None)).0, Verdict::Regression);
    }

    /// A result file with one untraced `square` run.
    fn result_on(nproc: u64, failed: u64, lu: [f64; 3]) -> Value {
        let metric = |[q1, value, q3]: [f64; 3]| json!({ "value": value, "q1": q1, "q3": q3 });
        json!({
            "schema": SCHEMA,
            "provenance": json!({ "cpu_model": "x", "nproc": nproc, "workers": 2 }),
            "runs": vec![json!({
                "workload": "square", "traced": false, "seconds": 20.0,
                "correct": failed == 0, "attempted": 40, "failed": failed,
                "metrics": json!({ "lu_gflops": metric(lu) }),
            })],
        })
    }

    fn result(failed: u64, lu: [f64; 3]) -> Value {
        result_on(2, failed, lu)
    }

    #[test]
    fn compare_exits_on_a_regression_and_on_failed_operations() {
        let c = Contract::load();
        let base = result(0, [39.0, 40.0, 41.0]);
        assert_eq!(compare(&c, &base, &result(0, [38.0, 39.0, 40.0])), 0);
        assert_eq!(compare(&c, &base, &result(0, [19.0, 20.0, 21.0])), 1, "half the rate");
        // A spread wider than the bound decides nothing, in either direction.
        assert_eq!(compare(&c, &base, &result(0, [10.0, 20.0, 30.0])), 0, "unresolved is not a regression");
        // Faster, but one operation missed its gate.
        assert_eq!(compare(&c, &base, &result(1, [49.0, 50.0, 51.0])), 1);
        assert_eq!(compare(&c, &base, &result_on(4, 0, [39.0, 40.0, 41.0])), 2, "another host");
    }

    #[test]
    fn contract_lists_unique_well_formed_names() {
        let c = Contract::load();
        assert_eq!(c.workloads, ["square", "tall", "serve", "ooc"]);
        let mut names: Vec<&str> = c.end_to_end.iter().chain(&c.per_layer).map(|d| d.name.as_str()).collect();
        assert!(names
            .iter()
            .all(|n| !n.is_empty() && n.chars().all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch))));
        assert!(c.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.end_to_end.iter().chain(&c.per_layer).all(|d| !d.unit.is_empty()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
    }
}

//! End-to-end tests of the always-on telemetry tier: every service must
//! expose the documented metric families with per-tenant labels, its
//! `ServiceStats` view and its exposition must agree (they read the same
//! series), and a `TelemetryConfig` must keep the periodic exposition files
//! parseable at any instant and bound the flight dumps.

use ca_factor::matrix::{random_uniform, seeded_rng};
use ca_factor::serve::{
    BatchConfig, ChaosConfig, ChaosProfile, RecoveryStats, Retry, RetryPolicy, SeriesValue,
    Service, ServiceConfig, SubmitOptions, TelemetryConfig,
};
use ca_factor::telemetry::RegistrySnapshot;
use ca_factor::CaParams;
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ca-telemetry-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn run_jobs(svc: &Service, n: usize, tenants: usize) {
    let mut rng = seeded_rng(11);
    let mut handles = Vec::new();
    for i in 0..n {
        let mut opts = SubmitOptions::default().with_params(CaParams::new(16, 2, 1)).unbatched();
        if tenants > 0 {
            opts = opts.with_tenant(format!("t{}", i % tenants));
        }
        let a = random_uniform(48, 48, &mut rng);
        handles.push(svc.submit_lu(a, opts).expect("admitted"));
    }
    for h in handles {
        h.wait().expect("completes");
    }
}

/// The families the serve tier documents; a snapshot after a successful run
/// must carry every one of them.
const EXPECTED_FAMILIES: &[&str] = &[
    "ca_serve_jobs_submitted_total",
    "ca_serve_jobs_completed_total",
    "ca_serve_jobs_failed_total",
    "ca_serve_jobs_shed_total",
    "ca_serve_deadline_missed_total",
    "ca_serve_retries_total",
    "ca_serve_queue_seconds",
    "ca_serve_exec_seconds",
    "ca_serve_flops",
    "ca_serve_active_jobs",
    "ca_serve_pool_occupancy",
    "ca_serve_workers",
    "ca_serve_gflops",
    "ca_serve_rejected_total",
    "ca_serve_job_retries_total",
    "ca_serve_flight_dumps_written_total",
    "ca_sched_tasks_dispatched_total",
    "ca_sched_jobs_completed_total",
    "ca_serve_task_retries_total",
];

/// Label-summed value of the counter family `name` (0 if absent).
fn counter_sum(snap: &RegistrySnapshot, name: &str) -> u64 {
    tenant_counter_sum(snap, name, None)
}

/// Value of the counter family `name` summed over the series of `tenant`
/// (over every series if `None`).
fn tenant_counter_sum(snap: &RegistrySnapshot, name: &str, tenant: Option<&str>) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .filter(|s| tenant.is_none_or(|t| s.labels.iter().any(|(k, v)| k == "tenant" && v == t)))
        .map(|s| match s.value {
            SeriesValue::Counter(c) => c,
            ref v => panic!("{name} must be a counter, got {v:?}"),
        })
        .sum()
}

/// Label-summed observation count of the histogram family `name`.
fn histogram_count(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .map(|s| match &s.value {
            SeriesValue::Histogram(h) => h.count,
            v => panic!("{name} must be a histogram, got {v:?}"),
        })
        .sum()
}

#[test]
fn metrics_snapshot_exposes_documented_families_with_tenant_labels() {
    assert_documented_families(ServiceConfig::new(2).with_telemetry(TelemetryConfig::default()));
}

/// The registry is not an option: a plain service exposes the same families.
#[test]
fn plain_service_exposes_the_documented_families_too() {
    assert_documented_families(ServiceConfig::new(2));
}

fn assert_documented_families(cfg: ServiceConfig) {
    let svc = Service::new(cfg);
    run_jobs(&svc, 6, 3);
    let snap = svc.metrics_snapshot();
    svc.shutdown();

    let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
    for want in EXPECTED_FAMILIES {
        assert!(names.contains(want), "missing family {want}; have {names:?}");
    }

    let submitted = snap
        .families
        .iter()
        .find(|f| f.name == "ca_serve_jobs_submitted_total")
        .expect("submitted family");
    // 3 tenants, one class each → 3 series, each counting 2 jobs.
    assert_eq!(submitted.series.len(), 3, "{submitted:?}");
    for s in &submitted.series {
        assert!(s.labels.iter().any(|(k, v)| k == "tenant" && v.starts_with('t')));
        assert!(s.labels.iter().any(|(k, v)| k == "class" && v == "lu"));
        match s.value {
            SeriesValue::Counter(c) => assert_eq!(c, 2),
            ref v => panic!("submitted must be a counter, got {v:?}"),
        }
    }

    // Completed jobs flowed through the exec-latency histogram.
    assert_eq!(histogram_count(&snap, "ca_serve_exec_seconds"), 6, "every completion observed once");

    // Prometheus rendering of the same snapshot is well-formed.
    let prom = snap.render_prometheus();
    assert!(prom.contains("# TYPE ca_serve_exec_seconds histogram"), "{prom}");
    assert!(prom.contains("le=\"+Inf\""), "{prom}");
}

/// `ServiceStats` and the exposition are two views of the same series, so
/// after any workload they must agree — including the cases where mirrored
/// stores used to drift: probe hits and whole-plan replays, tiny jobs on the
/// one-task route (each in its own tenant's series), and handles dropped
/// without a `wait` (an outcome and its recovery counts are recorded by the
/// completion hook, not by whoever happens to be waiting).
#[test]
fn service_stats_and_exposition_agree() {
    let tiny = CaParams::new(16, 2, 1);
    let quiet = ChaosProfile::quiet();
    // (what, config, jobs, dim, tenants, wait on the handles?)
    type Row = (&'static str, ServiceConfig, usize, usize, usize, bool);
    let rows: [Row; 4] = [
        (
            "every task corrupted, the probe catches it and one replay recovers",
            ServiceConfig::new(2)
                .with_retry(Retry::default())
                .with_chaos(ChaosConfig::seeded(13).with_profile(quiet.with_corrupt_rate(1.0))),
            1,
            64,
            0,
            true,
        ),
        (
            "seeded chaos drill, task + whole-plan replays, three tenants",
            ServiceConfig::new(2)
                .with_retry(Retry { policy: RetryPolicy::default().with_max_retries(1), replays: 3 })
                .with_chaos(ChaosConfig::seeded(7).with_profile(quiet.with_fail_rate(0.15))),
            9,
            64,
            3,
            true,
        ),
        (
            "tiny jobs on the one-task route, two tenants",
            ServiceConfig::new(2).with_batching(BatchConfig::up_to(64)),
            8,
            24,
            2,
            true,
        ),
        (
            "retry configured, handles dropped fire-and-forget",
            ServiceConfig::new(2).with_retry(Retry::default()),
            4,
            64,
            2,
            false,
        ),
    ];
    for (what, cfg, jobs, dim, tenants, wait) in rows {
        let tiny_route = cfg.batch.is_some();
        let svc = Service::new(cfg.with_params(tiny));
        let mut rng = seeded_rng(17);
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                let mut opts = SubmitOptions::default();
                if tenants > 0 {
                    opts = opts.with_tenant(format!("t{}", i % tenants));
                }
                svc.submit_lu(random_uniform(dim, dim, &mut rng), opts).expect("admitted")
            })
            .collect();
        let failures = if wait {
            handles.into_iter().map(|h| h.wait()).filter(Result::is_err).count()
        } else {
            drop(handles);
            while svc.active_jobs() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            0
        };
        let stats = svc.stats();
        let snap = svc.metrics_snapshot();
        svc.shutdown();

        let sum = |name: &str| counter_sum(&snap, name);
        let t = &stats.task_recovery;
        assert_eq!(sum("ca_serve_jobs_submitted_total"), stats.submitted, "{what}: submitted");
        assert_eq!(sum("ca_serve_jobs_completed_total"), stats.completed, "{what}: completed");
        assert_eq!(sum("ca_serve_jobs_failed_total"), stats.failed, "{what}: failed");
        assert_eq!(sum("ca_serve_jobs_cancelled_total"), stats.cancelled, "{what}: cancelled");
        assert_eq!(sum("ca_serve_retries_total"), t.replays, "{what}: retries");
        assert_eq!(sum("ca_serve_job_retries_total"), t.replays, "{what}: retries rollup");
        assert_eq!(
            histogram_count(&snap, "ca_serve_queue_seconds"),
            stats.queue_latency.count,
            "{what}: queue samples"
        );
        assert_eq!(
            histogram_count(&snap, "ca_serve_exec_seconds"),
            stats.exec_latency.count,
            "{what}: exec samples"
        );
        for (family, want) in RecoveryStats::NAMES.iter().zip(stats.task_recovery.counts()) {
            assert_eq!(sum(&format!("ca_serve_task_{family}_total")), want, "{what}: task {family}");
        }
        assert_eq!(sum("ca_serve_corruption_detected_total"), t.probe_failures, "{what}: probe hits");
        let per_series = (sum("ca_serve_retries_total"), sum("ca_serve_corruption_detected_total"));
        let task = (sum("ca_serve_task_replays_total"), sum("ca_serve_task_probe_failures_total"));
        assert_eq!(per_series, task, "{what}");
        // Every submitted job reached exactly one terminal outcome, and the
        // handles saw the same number of failures the series counted.
        assert_eq!(stats.submitted, jobs as u64, "{what}");
        assert_eq!(stats.completed + stats.failed + stats.cancelled, stats.submitted, "{what}");
        assert_eq!(stats.failed as usize, failures, "{what}: failures seen by the handles");
        // One latency sample per job: a replay runs inside it.
        assert_eq!(stats.exec_latency.count, stats.submitted, "{what}");
        // Every job is attributed to its own tenant, whichever route it took.
        for t in 0..tenants {
            let tenant = format!("t{t}");
            let mine = |name: &str| tenant_counter_sum(&snap, name, Some(&tenant));
            let share = (0..jobs).filter(|i| i % tenants == t).count() as u64;
            assert_eq!(mine("ca_serve_jobs_submitted_total"), share, "{what}: {tenant}");
            let ended = mine("ca_serve_jobs_completed_total")
                + mine("ca_serve_jobs_failed_total")
                + mine("ca_serve_jobs_cancelled_total");
            assert_eq!(ended, share, "{what}: {tenant} outcomes");
        }
        assert_eq!(stats.batched_jobs, if tiny_route { jobs as u64 } else { 0 }, "{what}");
    }
}

#[test]
fn periodic_exposition_files_parse_at_shutdown_and_midway() {
    let dir = temp_dir("expose");
    let path = dir.join("metrics.prom");
    let cfg = ServiceConfig::new(2).with_telemetry(
        TelemetryConfig::default()
            .with_metrics_file(&path)
            .with_interval(Duration::from_millis(20)),
    );
    let svc = Service::new(cfg);
    run_jobs(&svc, 4, 2);
    // Give the exposer at least one mid-run tick, then read while live: the
    // atomic-rename protocol means whatever we see must parse whole.
    std::thread::sleep(Duration::from_millis(60));
    let midway = std::fs::read_to_string(dir.join("metrics.prom.json"))
        .expect("mid-run snapshot exists");
    let _: RegistrySnapshot = serde_json::from_str(&midway).expect("mid-run snapshot parses");
    svc.shutdown();

    // Shutdown writes a final snapshot reflecting all four completions.
    let json = std::fs::read_to_string(dir.join("metrics.prom.json")).expect("final json");
    let snap: RegistrySnapshot = serde_json::from_str(&json).expect("final snapshot parses");
    let completed = counter_sum(&snap, "ca_serve_jobs_completed_total");
    assert_eq!(completed, 4, "final snapshot reflects every completion");
    let prom = std::fs::read_to_string(&path).expect("prom text");
    assert!(prom.contains("ca_serve_jobs_completed_total"), "{prom}");
    // No temp files left behind by the atomic writer.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|f| f.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "stray temp files: {stray:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_recorder_attaches_and_failure_dump_is_bounded_chrome_trace() {
    // Chaos at a high fail rate with no retries: jobs fail terminally, each
    // failure triggers a flight dump, and the cap bounds the files.
    let dir = temp_dir("dumps");
    let cfg = ServiceConfig::new(2)
        .with_chaos(ChaosConfig::seeded(5).with_profile(
            ChaosProfile::quiet().with_fail_rate(1.0),
        ))
        .with_telemetry(
            TelemetryConfig::default()
                .with_flight_recorder(64)
                .with_dump_dir(&dir)
                .with_max_dumps(2),
        );
    let svc = Service::new(cfg);
    let mut rng = seeded_rng(13);
    let mut handles = Vec::new();
    for _ in 0..5 {
        let opts = SubmitOptions::default().with_params(CaParams::new(16, 2, 1)).unbatched();
        handles.push(svc.submit_lu(random_uniform(48, 48, &mut rng), opts).expect("admitted"));
    }
    let failures = handles.into_iter().map(|h| h.wait()).filter(Result::is_err).count();
    let snap = svc.metrics_snapshot();
    svc.shutdown();
    assert!(failures > 2, "fail-rate 1.0 with no retry must fail jobs, got {failures}");

    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dump dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|f| f.starts_with("flight-"))
        .collect();
    assert_eq!(dumps.len(), 2, "cap must bound dumps: {dumps:?}");
    for f in &dumps {
        let raw = std::fs::read_to_string(dir.join(f)).expect("dump readable");
        let v: serde_json::Value = serde_json::from_str(&raw).expect("dump parses");
        assert_eq!(v["trigger"], "job-fail");
        let events = v["traceEvents"].as_array().expect("traceEvents");
        assert!(events.iter().any(|e| e["cat"] == "flight"), "{f} has no flight events");
    }
    // The suppression counter accounts for the failures past the cap.
    let suppressed = counter_sum(&snap, "ca_serve_flight_dumps_suppressed_total");
    assert_eq!(suppressed as usize, failures - 2, "suppressed = failures past the cap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probe_corruption_dump_holds_a_mark_naming_the_job() {
    // Every task corrupts an element it wrote and nothing is replayed: each
    // job's sink fails its integrity probe on a worker lane, and the hook
    // dumps the flight recorder. The dump must hold that job's own
    // `probe_corrupt` mark — two jobs, so the ids 0 and 1 are both named.
    let dir = temp_dir("probe-dumps");
    let cfg = ServiceConfig::new(2)
        .with_retry(Retry { replays: 0, ..Retry::default() })
        .with_chaos(ChaosConfig::seeded(9).with_profile(ChaosProfile::quiet().with_corrupt_rate(1.0)))
        .with_telemetry(TelemetryConfig::default().with_flight_recorder(256).with_dump_dir(&dir));
    let svc = Service::new(cfg);
    let mut rng = seeded_rng(17);
    for n in 0..2 {
        let opts = SubmitOptions::default().with_params(CaParams::new(16, 2, 1)).unbatched();
        let h = svc.submit_lu(random_uniform(48, 48, &mut rng), opts).expect("admitted");
        let id = h.id();
        assert!(h.wait().is_err(), "corrupted factors must not be returned");
        let path = dir.join(format!("flight-{n:03}-probe-corrupt.json"));
        let raw = std::fs::read_to_string(&path).expect("the probe hit dumped the recorder");
        let v: serde_json::Value = serde_json::from_str(&raw).expect("dump parses");
        let marks = v["traceEvents"]
            .as_array()
            .expect("traceEvents")
            .iter()
            .filter(|e| e["name"] == "probe_corrupt" && e["args"]["job"].as_u64() == Some(id))
            .count();
        assert_eq!(marks, 1, "job {id}: {raw}");
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

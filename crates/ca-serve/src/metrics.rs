//! The serve tier's one store of job-level facts: registry series, the
//! exposition built from them, and bounded flight-recorder failure dumps.
//!
//! Every [`crate::Service`] owns a [`ServeMetrics`]. Each job outcome,
//! latency sample, recovery count and rejection is written exactly once,
//! lock-free, to one of its registry series — per-`(tenant, class)`
//! [`TenantSeries`] for what a job does, unlabelled counters for what the
//! service does — by the completion hook or the submitting call, so a job
//! nobody waits on still counts. Everything else is a view computed when
//! read: [`crate::ServiceStats`] sums the series ([`ServeMetrics::fill`]);
//! the exposition refreshes its gauges and adds the derived rollup
//! ([`ServeMetrics::snapshot`]). The scheduler's process totals, stored
//! elsewhere, are *adopted* into the registry, which reads them live.

use crate::config::TelemetryConfig;
use crate::stats::ServiceStats;
use ca_sched::{FlightRecorder, RecoveryStats};
use ca_telemetry::{
    write_atomic, Counter, FamilySnapshot, Gauge, Histogram, MetricKind, Registry,
    RegistrySnapshot, SeriesSnapshot, SeriesValue, LATENCY_BOUNDS,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-free metric handles for one `(tenant, class)` label pair, resolved
/// once at first submission and cached for the service lifetime.
pub(crate) struct TenantSeries {
    /// Position in the series table: what a frontier job's tag carries so
    /// the completion hook finds these handles again.
    pub index: u32,
    pub submitted: Arc<Counter>,
    /// How jobs ended, counted by the completion hook.
    pub completed: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub cancelled: Arc<Counter>,
    pub shed: Arc<Counter>,
    pub deadline_missed: Arc<Counter>,
    /// Probes that found a job's factors corrupted.
    pub corruption_detected: Arc<Counter>,
    /// Whole-plan replays.
    pub retries: Arc<Counter>,
    pub queue_s: Arc<Histogram>,
    pub exec_s: Arc<Histogram>,
    pub total_s: Arc<Histogram>,
    /// Useful flops completed under this label pair (gauge: f64 cell).
    pub flops: Arc<Gauge>,
}

/// The `(tenant, class)` series, addressable by label pair (submission) and
/// by index (completion hook).
#[derive(Default)]
struct SeriesTable {
    by_label: HashMap<(String, &'static str), Arc<TenantSeries>>,
    all: Vec<Arc<TenantSeries>>,
}

/// The service's metric registry, cached per-tenant series handles, and the
/// bounded flight-dump writer.
pub(crate) struct ServeMetrics {
    registry: Registry,
    series: RwLock<SeriesTable>,
    // Service-wide facts, each written at its one site.
    pub(crate) rejected: Arc<Counter>,
    pub(crate) jobs_recovered: Arc<Counter>,
    pub(crate) batched_jobs: Arc<Counter>,
    /// Every job's [`RecoveryStats`], summed, one counter per
    /// [`RecoveryStats::NAMES`] entry.
    recovery: [Arc<Counter>; 12],
    // Gauges refreshed by `snapshot`.
    active_jobs: Arc<Gauge>,
    occupancy: Arc<Gauge>,
    workers: Arc<Gauge>,
    gflops: Arc<Gauge>,
    flops_total: Arc<Gauge>,
    // Flight-dump bookkeeping.
    dump_dir: Option<PathBuf>,
    max_dumps: u64,
    dump_seq: AtomicU64,
    dumps_written: Arc<Counter>,
    dumps_suppressed: Arc<Counter>,
}

/// Inserts into `snap`, at its sorted position, an unlabelled counter family
/// of value `n` computed at snapshot time (no counter is behind it).
fn add_view(snap: &mut RegistrySnapshot, name: &str, help: &str, n: u64) {
    let series = vec![SeriesSnapshot { labels: Vec::new(), value: SeriesValue::Counter(n) }];
    let (name, help) = (name.to_string(), help.to_string());
    let at = snap.families.partition_point(|f| f.name < name);
    snap.families.insert(at, FamilySnapshot { name, help, kind: MetricKind::Counter, series });
}

impl ServeMetrics {
    /// `cfg` decides only where (and whether) flight dumps are written.
    pub(crate) fn new(cfg: Option<&TelemetryConfig>) -> Self {
        let r = Registry::new();
        // Adopted, not copied: scheduler totals show up in every
        // exposition/`top`.
        ca_sched::register_sched_metrics(&r);
        let dump_dir = cfg.and_then(|cfg| {
            cfg.dump_dir.clone().or_else(|| {
                cfg.metrics_file.as_ref().map(|f| {
                    f.parent()
                        .filter(|p| !p.as_os_str().is_empty())
                        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
                })
            })
        });
        let counter = |name: &str, help: &str| r.counter(name, help, &[]);
        let gauge = |name: &str, help: &str| r.gauge(name, help, &[]);
        Self {
            series: RwLock::default(),
            rejected: counter("ca_serve_rejected_total", "Submissions refused at admission"),
            jobs_recovered: counter("ca_serve_jobs_recovered_total", "Jobs completed by a replay"),
            batched_jobs: counter("ca_serve_batched_jobs_total", "Jobs run as one sequential task"),
            recovery: RecoveryStats::NAMES.map(|name| {
                counter(&format!("ca_serve_task_{name}_total"), "Recovery inside jobs")
            }),
            active_jobs: gauge("ca_serve_active_jobs", "Jobs admitted and not yet finished"),
            occupancy: gauge("ca_serve_pool_occupancy", "Worker-pool utilization in [0,1]"),
            workers: gauge("ca_serve_workers", "Worker threads owned by the service"),
            gflops: gauge("ca_serve_gflops", "Achieved GFlop/s over worker busy time"),
            flops_total: gauge("ca_serve_flops_total", "Useful flops completed"),
            dump_dir,
            max_dumps: cfg.map_or(0, |cfg| cfg.max_dumps as u64),
            dump_seq: AtomicU64::new(0),
            dumps_written: counter("ca_serve_flight_dumps_written_total", "Flight dumps written"),
            dumps_suppressed: counter("ca_serve_flight_dumps_suppressed_total", "Dumps over cap"),
            registry: r,
        }
    }

    /// The cached series handles for `(tenant, class)`, registering the
    /// label pair's families on first use.
    pub(crate) fn series(&self, tenant: &str, class: &'static str) -> Arc<TenantSeries> {
        let key = (tenant.to_string(), class);
        if let Some(s) = self.series.read().by_label.get(&key) {
            return Arc::clone(s);
        }
        let mut table = self.series.write();
        if let Some(s) = table.by_label.get(&key) {
            return Arc::clone(s);
        }
        let labels = [("tenant", tenant), ("class", class)];
        let r = &self.registry;
        let counter = |name: &str, help: &str| r.counter(name, help, &labels);
        let latency = |name: &str, help: &str| r.histogram(name, help, &labels, LATENCY_BOUNDS);
        let s = Arc::new(TenantSeries {
            index: u32::try_from(table.all.len()).expect("fewer than 2^32 label pairs"),
            submitted: counter("ca_serve_jobs_submitted_total", "Jobs admitted"),
            completed: counter("ca_serve_jobs_completed_total", "Jobs completed"),
            failed: counter("ca_serve_jobs_failed_total", "Jobs failed"),
            cancelled: counter("ca_serve_jobs_cancelled_total", "Jobs cancelled"),
            shed: counter("ca_serve_jobs_shed_total", "Jobs evicted by shed-oldest admission"),
            deadline_missed: counter("ca_serve_deadline_missed_total", "Jobs past their deadline"),
            corruption_detected: counter("ca_serve_corruption_detected_total", "Probe hits"),
            retries: counter("ca_serve_retries_total", "Whole-plan replays"),
            queue_s: latency("ca_serve_queue_seconds", "Admission to first task dispatch"),
            exec_s: latency("ca_serve_exec_seconds", "First task dispatch to finalization"),
            total_s: latency("ca_serve_total_seconds", "Admission to finalization"),
            flops: r.gauge("ca_serve_flops", "Useful flops completed", &labels),
        });
        table.by_label.insert(key, Arc::clone(&s));
        table.all.push(Arc::clone(&s));
        s
    }

    /// Adds one finished job's recovery counts.
    pub(crate) fn add_recovery(&self, stats: &RecoveryStats) {
        for (counter, n) in self.recovery.iter().zip(stats.counts()) {
            counter.add(n);
        }
    }

    /// The series a frontier job's tag names.
    pub(crate) fn series_at(&self, index: u32) -> Arc<TenantSeries> {
        Arc::clone(&self.series.read().all[index as usize])
    }

    /// Fills in every field of `s` that is a view of this registry: label
    /// sums of the `(tenant, class)` series and the service-wide counters.
    pub(crate) fn fill(&self, s: &mut ServiceStats) {
        let empty = || Histogram::new(LATENCY_BOUNDS).snapshot();
        let (mut queue, mut exec, mut total) = (empty(), empty(), empty());
        for t in &self.series.read().all {
            s.submitted += t.submitted.get();
            s.completed += t.completed.get();
            s.failed += t.failed.get();
            s.cancelled += t.cancelled.get();
            s.shed += t.shed.get();
            s.deadline_missed += t.deadline_missed.get();
            queue.merge(&t.queue_s.snapshot());
            exec.merge(&t.exec_s.snapshot());
            total.merge(&t.total_s.snapshot());
        }
        s.queue_latency = queue.summary();
        s.exec_latency = exec.summary();
        s.total_latency = total.summary();
        s.rejected = self.rejected.get();
        s.batched_jobs = self.batched_jobs.get();
        s.jobs_recovered = self.jobs_recovered.get();
        s.task_recovery = RecoveryStats::from_counts(self.recovery.each_ref().map(|c| c.get()));
    }

    /// The exposition view of the service whose statistics are `s`: refreshes
    /// the gauges, snapshots the registry, and adds the replays rollup.
    pub(crate) fn snapshot(&self, s: &ServiceStats) -> RegistrySnapshot {
        let table = self.series.read();
        let flops: f64 = table.all.iter().map(|t| t.flops.get()).sum();
        self.active_jobs.set(s.active_jobs as f64);
        self.occupancy.set(s.occupancy);
        self.workers.set(s.workers as f64);
        self.flops_total.set(flops);
        if s.busy_s > 0.0 {
            self.gflops.set(flops / s.busy_s / 1e9);
        }
        let mut snap = self.registry.snapshot();
        let replays = s.task_recovery.replays;
        add_view(&mut snap, "ca_serve_job_retries_total", "Whole-plan replays", replays);
        snap
    }

    /// Dumps the flight recorder's current contents as a chrome-trace
    /// fragment named `flight-NNN-<trigger>.json`, atomically, honoring the
    /// lifetime cap on dump files. No-op (not even counted) when no dump
    /// directory could be resolved from the config.
    pub(crate) fn dump_flight(&self, recorder: &FlightRecorder, trigger: &str) {
        let Some(dir) = &self.dump_dir else { return };
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        if n >= self.max_dumps {
            self.dumps_suppressed.inc();
            return;
        }
        let path = dir.join(format!("flight-{n:03}-{trigger}.json"));
        let fragment = recorder.chrome_trace_fragment(trigger);
        match write_atomic(&path, fragment.as_bytes()) {
            Ok(()) => self.dumps_written.inc(),
            Err(e) => eprintln!("ca-serve: cannot write flight dump {}: {e}", path.display()),
        }
    }
}

/// Writes the exposition snapshot `snap` to `path` (Prometheus text
/// format) and `path.json` (the same snapshot as JSON), each via
/// write-to-temp + atomic rename so a scraper never sees a torn file.
pub(crate) fn write_snapshot(path: &Path, snap: &RegistrySnapshot) -> std::io::Result<()> {
    write_atomic(path, snap.render_prometheus().as_bytes())?;
    let json = serde_json::to_string(snap)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let sibling = PathBuf::from(format!("{}.json", path.display()));
    write_atomic(&sibling, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_dir(dir: &Path) -> TelemetryConfig {
        TelemetryConfig::default().with_dump_dir(dir).with_max_dumps(3)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ca-serve-metrics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn metrics(cfg: Option<&TelemetryConfig>) -> ServeMetrics {
        ServeMetrics::new(cfg)
    }

    /// Stats with just the fields the gauges read.
    fn live_stats() -> ServiceStats {
        ServiceStats {
            workers: 2,
            active_jobs: 1,
            occupancy: 0.25,
            busy_s: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn series_handles_are_cached_labeled_and_indexed() {
        let m = metrics(None);
        let a = m.series("acme", "lu");
        let b = m.series("acme", "lu");
        assert!(Arc::ptr_eq(&a, &b), "same label pair must reuse handles");
        a.submitted.inc();
        a.submitted.inc();
        let q = m.series("acme", "qr");
        q.submitted.inc();
        assert!(Arc::ptr_eq(&m.series_at(q.index), &q), "the tag index finds the series");
        let prom = m.snapshot(&live_stats()).render_prometheus();
        assert!(prom.contains("ca_serve_jobs_submitted_total{tenant=\"acme\",class=\"lu\"} 2"));
        assert!(prom.contains("ca_serve_jobs_submitted_total{tenant=\"acme\",class=\"qr\"} 1"));
    }

    #[test]
    fn stats_fields_are_label_sums_and_the_retries_rollup_sums_the_replays() {
        let m = metrics(None);
        for (tenant, class, replays) in [("a", "lu", 2), ("b", "qr", 3)] {
            // What the completion hook writes for a job that replayed.
            m.series(tenant, class).retries.add(replays);
            m.add_recovery(&RecoveryStats { replays, ..Default::default() });
        }
        m.series("a", "lu").exec_s.observe(0.01);
        m.series("b", "qr").exec_s.observe(0.02);
        m.series("b", "qr").flops.add(4e9);
        let mut s = live_stats();
        m.fill(&mut s);
        let counts = (s.task_recovery.replays, s.exec_latency.count, s.queue_latency.count);
        assert_eq!(counts, (5, 2, 0));
        let snap = m.snapshot(&s);
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "families stay sorted: {names:?}");
        let prom = snap.render_prometheus();
        assert!(prom.contains("ca_serve_job_retries_total 5"), "{prom}");
        assert!(prom.contains("ca_serve_flops_total 4000000000"), "{prom}");
        assert!(prom.contains("ca_serve_gflops 8"), "4 GFlop over 0.5 busy seconds: {prom}");
    }

    #[test]
    fn finished_jobs_recovery_sums_into_the_task_families() {
        let m = metrics(None);
        let replayed = RecoveryStats {
            attempts: 5,
            retries: 1,
            probes: 2,
            probe_failures: 1,
            replays: 1,
            ..Default::default()
        };
        m.add_recovery(&replayed);
        m.add_recovery(&RecoveryStats { attempts: 3, probes: 1, ..Default::default() });
        let mut s = live_stats();
        m.fill(&mut s);
        let want = RecoveryStats { attempts: 8, probes: 3, ..replayed };
        assert_eq!(s.task_recovery, want);
        assert_eq!(s.task_recovery.probes, 3, "the probes of both jobs");
        let prom = m.snapshot(&s).render_prometheus();
        for line in [
            "ca_serve_task_attempts_total 8",
            "ca_serve_task_probe_failures_total 1",
            "ca_serve_task_replays_total 1",
        ] {
            assert!(prom.contains(line), "missing {line:?} in {prom}");
        }
    }

    #[test]
    fn flight_dumps_are_capped() {
        let dir = temp_dir("cap");
        let m = metrics(Some(&cfg_with_dir(&dir)));
        let rec = FlightRecorder::new(2, 16);
        rec.record(0, ca_sched::FlightEventKind::TaskFail, 1, None);
        for _ in 0..10 {
            m.dump_flight(&rec, "shed");
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        assert_eq!(files.len(), 3, "cap must bound dump files, got {files:?}");
        assert!(files.iter().all(|f| f.starts_with("flight-") && f.ends_with("-shed.json")));
        assert_eq!(m.dumps_written.get(), 3);
        assert_eq!(m.dumps_suppressed.get(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_files_are_written_atomically_with_json_sibling() {
        let dir = temp_dir("snap");
        let m = metrics(None);
        m.series("t0", "lu").submitted.inc();
        let path = dir.join("metrics.prom");
        write_snapshot(&path, &m.snapshot(&live_stats())).expect("write snapshot");
        let prom = std::fs::read_to_string(&path).expect("prom file");
        assert!(prom.contains("# TYPE ca_serve_jobs_submitted_total counter"));
        let json = std::fs::read_to_string(dir.join("metrics.prom.json")).expect("json file");
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert!(v.get("families").is_some(), "snapshot json must carry families");
        // No stray temp files from the atomic-rename protocol.
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|f| f.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

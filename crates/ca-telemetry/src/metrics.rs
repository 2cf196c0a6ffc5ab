//! Atomic metric cells: counters, gauges, and log-scale histograms.
//!
//! Everything here is updated with `Relaxed` atomics — telemetry never
//! synchronizes application memory, it only has to be eventually consistent
//! with itself. A snapshot taken while updates are in flight may therefore
//! be momentarily off by in-flight increments (e.g. a histogram's `count`
//! can lead its bucket sum by the updates between the two loads); exposition
//! consumers must not assume exact cross-field invariants.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A settable `f64` gauge (occupancy, GF/s, queue depth, …).
///
/// The value is stored as its IEEE-754 bit pattern in an `AtomicU64`.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Adds `v` (compare-and-swap loop; gauges are not hot-path metrics).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// Default bucket upper bounds (seconds) for latency histograms.
///
/// Log-scale like the PR-2 `LatencyStats` dispatch histogram, but extended
/// above one second because job-level queue/total latencies under load
/// routinely exceed it. An implicit `+Inf` bucket follows the last bound.
pub const LATENCY_BOUNDS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 100.0,
];

/// A fixed-bucket histogram with atomic bucket counters.
///
/// `observe` is lock-free: one linear scan over the (static) bounds plus a
/// handful of `Relaxed` `fetch_add`/`fetch_max` operations. Quantiles are
/// estimated at snapshot time by linear interpolation inside the bucket
/// containing the requested rank, clamped to the observed `[min, max]`
/// range, so small samples still produce sane summaries.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// One slot per bound plus a trailing `+Inf` slot.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of observed values in nanoseconds (fits ~584 years of seconds).
    sum_ns: AtomicU64,
    /// Bit patterns of the min/max observed values. Non-negative IEEE-754
    /// doubles compare the same as their bit patterns, so `fetch_min`/
    /// `fetch_max` on the bits maintain the float extrema.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(LATENCY_BOUNDS)
    }
}

impl Histogram {
    /// Creates an empty histogram over `bounds` (strictly increasing upper
    /// bounds; an `+Inf` bucket is appended automatically).
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one observation. Negative or NaN values are clamped to zero
    /// (latencies are never negative; clock skew must not poison the state).
    #[inline]
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let slot = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[slot].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add((v * 1e9) as u64, Relaxed);
        let bits = v.to_bits();
        self.min_bits.fetch_min(bits, Relaxed);
        self.max_bits.fetch_max(bits, Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Consistent-enough point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count = counts.iter().sum();
        let min = f64::from_bits(self.min_bits.load(Relaxed));
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts,
            count,
            sum_s: self.sum_ns.load(Relaxed) as f64 / 1e9,
            min_s: if min.is_finite() { min } else { 0.0 },
            max_s: f64::from_bits(self.max_bits.load(Relaxed)),
        }
    }

    /// Five-number summary (count, mean, p50/p95/p99, max) via [`HistogramSnapshot`].
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds in seconds (exclusive of the trailing `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the last slot
    /// is the `+Inf` bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values in seconds.
    pub sum_s: f64,
    /// Smallest observed value (0 when empty).
    pub min_s: f64,
    /// Largest observed value (0 when empty).
    pub max_s: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0 < q <= 1`) by locating the bucket that
    /// contains the ceil(q·count)-th observation and interpolating linearly
    /// between its lower and upper bound. The estimate is clamped to the
    /// observed `[min, max]`, which makes single-bucket histograms exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() { self.bounds[i] } else { self.max_s };
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min_s, self.max_s);
            }
            seen += c;
        }
        self.max_s
    }

    /// Adds `other`'s observations to this snapshot — the label-summed view
    /// of a histogram family, whose quantiles equal those of one histogram
    /// that had observed every series' samples.
    ///
    /// # Panics
    /// If the two snapshots were taken over different bounds.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "merging histograms over different bounds");
        if other.count == 0 {
            return;
        }
        self.min_s = if self.count == 0 { other.min_s } else { self.min_s.min(other.min_s) };
        self.max_s = self.max_s.max(other.max_s);
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
    }

    /// Mean of the observed values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Five-number summary used by `ServiceStats`.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_s: self.mean(),
            p50_s: self.quantile(0.50),
            p95_s: self.quantile(0.95),
            p99_s: self.quantile(0.99),
            max_s: self.max_s,
        }
    }
}

/// Summary statistics derived from a [`HistogramSnapshot`].
///
/// Percentiles are bucket estimates (see [`HistogramSnapshot::quantile`]),
/// not exact order statistics; `count`, `mean_s` and `max_s` are exact.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact mean in seconds.
    pub mean_s: f64,
    /// Estimated median in seconds.
    pub p50_s: f64,
    /// Estimated 95th percentile in seconds.
    pub p95_s: f64,
    /// Estimated 99th percentile in seconds.
    pub p99_s: f64,
    /// Exact maximum in seconds.
    pub max_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(2.5);
        g.add(-0.5);
        assert!((g.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_partitions_and_summarizes() {
        let h = Histogram::default();
        for v in [5e-7, 5e-6, 2e-3, 0.3, 200.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.counts.iter().sum::<u64>(), 5);
        assert_eq!(*s.counts.last().unwrap(), 1, "200s lands in +Inf");
        assert!((s.max_s - 200.0).abs() < 1e-12);
        assert!((s.min_s - 5e-7).abs() < 1e-18);
        assert!(s.summary().p50_s <= s.summary().p99_s);
    }

    #[test]
    fn quantiles_are_bucket_bounded() {
        let h = Histogram::default();
        // 100 observations at 3 ms: every quantile must stay inside the
        // (2.5 ms, 5 ms] bucket, and the clamp makes min/max exact.
        for _ in 0..100 {
            h.observe(3e-3);
        }
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let est = s.quantile(q);
            assert!((est - 3e-3).abs() < 1e-12, "q={q} est={est}");
        }
        assert!((s.mean() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_across_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(1e-4); // (1e-5, 1e-4] bucket
        }
        for _ in 0..10 {
            h.observe(0.9); // (0.5, 1.0] bucket
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) <= 1e-4 + 1e-12);
        let p99 = s.quantile(0.99);
        assert!(p99 > 0.5 && p99 <= 0.9 + 1e-12, "p99={p99}");
    }

    #[test]
    fn merged_snapshots_summarize_like_one_histogram() {
        let (a, b, all) = (Histogram::default(), Histogram::default(), Histogram::default());
        for (i, v) in [5e-7, 2e-3, 3e-3, 0.3, 0.9, 200.0].into_iter().enumerate() {
            [&a, &b][i % 2].observe(v);
            all.observe(v);
        }
        let mut merged = Histogram::default().snapshot();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        let want = all.snapshot();
        assert_eq!(merged.counts, want.counts);
        assert_eq!((merged.count, merged.min_s, merged.max_s), (6, want.min_s, want.max_s));
        assert_eq!(merged.quantile(0.5), want.quantile(0.5));
        assert!((merged.mean() - want.mean()).abs() < 1e-9);
    }

    #[test]
    fn pathological_observations_are_clamped() {
        let h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(-3.0);
        h.observe(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts[0], 3, "all clamped to zero -> first bucket");
        assert_eq!(s.max_s, 0.0);
    }

    #[test]
    fn concurrent_observes_lose_nothing() {
        let h = std::sync::Arc::new(Histogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((t * 1000 + i) as f64 * 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 4000);
    }
}

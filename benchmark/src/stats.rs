//! Order statistics the benchmark reports: median, quartiles, and
//! percentiles that are only quoted when enough samples lie beyond them.

/// Median with quartiles and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Maps the three quantiles through `f` (e.g. seconds → ms). A
    /// decreasing `f` (seconds → GF/s) swaps the quartiles so `q1 <= q3`.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary { n: self.n, median: f(self.median), q1: a.min(b), q3: a.max(b) }
    }
}

/// Quantile `q ∈ [0, 1]` of an ascending series, linearly interpolated
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty series");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary { n: s.len(), median: quantile(&s, 0.5), q1: quantile(&s, 0.25), q3: quantile(&s, 0.75) }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// `work / seconds / 1e9` as a median with quartiles: GF/s or GB/s.
pub fn rate(work: f64, secs: &[f64]) -> Summary {
    summarize(secs).map(|t| work / t / 1e9)
}

/// Geometric mean of positive samples: every sample's relative change
/// counts the same, whatever its size.
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geometric mean of an empty series");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The smallest sample: the fastest repetition.
pub fn best(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// A percentile is quoted only when at least ten samples lie beyond it, so
/// one slow outlier cannot set the reported tail.
pub fn percentile_eligible(n: usize, p: f64) -> bool {
    // In hundredths of a sample, so that 100 samples at p90 count exactly ten.
    n as f64 * (100.0 - p) >= 1000.0
}

/// The `p`-th percentile, or the highest eligible one below it when the
/// series is too short (falling back to the median); returns the value and
/// the percentile actually used, which the report prints beside it.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64) {
    let s = sorted(samples);
    let used = [p, 95.0, 90.0, 75.0].into_iter().find(|&c| c <= p && percentile_eligible(s.len(), c)).unwrap_or(50.0);
    (quantile(&s, used / 100.0), used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { n: 4, median: 2.5, q1: 1.75, q3: 3.25 });
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn decreasing_map_keeps_quartiles_ordered() {
        let s = summarize(&[1.0, 2.0, 4.0]).map(|t| 8.0 / t);
        assert_eq!((s.q1, s.median, s.q3), (8.0 / 3.0, 4.0, 8.0 / 1.5));
    }

    #[test]
    fn rate_and_geomean() {
        let r = rate(8e9, &[1.0, 2.0, 4.0]);
        assert_eq!((r.q1, r.median, r.q3, r.n), (8.0 / 3.0, 4.0, 8.0 / 1.5, 3));
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile_eligible(1000, 99.0));
        assert!(!percentile_eligible(999, 99.0));
        assert!(percentile_eligible(100, 90.0));
        assert!(!percentile_eligible(15, 50.0));
    }

    #[test]
    fn tail_falls_back_to_an_eligible_percentile() {
        let long: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&long, 99.0).1, 99.0);
        assert!((tail(&long, 99.0).0 - 1979.01).abs() < 1e-9);
        let short: Vec<f64> = (0..200).map(f64::from).collect();
        // p99 needs 1000 samples; p95 has exactly ten beyond it at n = 200.
        assert_eq!(tail(&short, 99.0), (quantile(&short, 0.95), 95.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0], 99.0), (2.0, 50.0));
    }
}

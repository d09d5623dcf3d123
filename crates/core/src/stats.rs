//! Descriptive statistics used throughout the analysis engine.
//!
//! The paper's figures report means with error bars across runs (Fig. 3) and
//! compare scheduling orders across runs (§IV-D). This module provides the
//! numeric kernels: streaming mean/variance (Welford), percentiles, summary
//! records, and Kendall's tau for order-similarity comparisons.

use serde::Serialize;

/// Streaming mean / variance accumulator (Welford's algorithm).
///
/// ```
/// use dtf_core::stats::Welford;
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.std(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Coefficient of variation (std / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std() / m
        }
    }

    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            std: self.std(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Immutable summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut w = Welford::new();
        for &v in values {
            w.push(v);
        }
        w.summary()
    }

    /// Coefficient of variation (std / mean); 0 for a zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }
}

/// Percentile with linear interpolation (values need not be sorted).
/// `q` in `[0, 1]`. Returns 0 for an empty slice. NaN sorts above every
/// number.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Kendall's tau-a rank correlation between two equal-length sequences.
///
/// Used for the scheduling-order-similarity ablation: the two sequences are
/// the positions at which each task started in run A vs run B. Returns a
/// value in `[-1, 1]`; 1 means identical order. O(n^2) — fine for the tens
/// of thousands of tasks in the paper's workflows when sampled, and exact
/// for per-group comparisons.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "kendall_tau requires equal-length inputs");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant: i64 = 0;
    let mut discordant: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
            // ties contribute to neither (tau-a)
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Histogram over fixed-width bins of `[lo, hi)`; the last bin is inclusive
/// of `hi`. Out-of-range values are clamped into the edge bins. Used for the
/// warning-distribution figure (Fig. 7).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<u64>,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Self { lo, hi, counts: vec![0; bins] }
    }

    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let idx = (((x - self.lo) / w).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bin center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // sample std of this classic data set is ~2.138
        assert!((w.std() - 2.138089935299395).abs() < 1e-9, "std {}", w.std());
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std(), 0.0);
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.std(), 0.0);
    }

    #[test]
    fn percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn kendall_identical_and_reversed() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let rev = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        assert_eq!(kendall_tau(&a, &rev), -1.0);
    }

    #[test]
    fn kendall_partial() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 3.0, 2.0];
        // one discordant of three pairs -> (2-1)/3
        assert!((kendall_tau(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_trivial_lengths() {
        assert_eq!(kendall_tau(&[], &[]), 1.0);
        assert_eq!(kendall_tau(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(0.5); // bin 0
        h.push(9.99); // bin 4
        h.push(10.0); // clamped into bin 4
        h.push(-3.0); // clamped into bin 0
        h.push(5.0); // bin 2
        assert_eq!(h.counts, vec![2, 0, 1, 0, 2]);
        assert_eq!(h.total(), 5);
        assert!((h.center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }
}

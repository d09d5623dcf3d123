//! Cross-run variability metrics: which quantities vary, and by how much,
//! when the same workflow runs repeatedly in the same configuration —
//! the paper's central reproducibility question.

use serde::Serialize;

use dtf_core::stats::{percentile, Summary, Welford};

/// Variability of one metric across runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Variability {
    pub metric: String,
    pub summary: Summary,
    /// Coefficient of variation: std / mean.
    pub cv: f64,
    /// Relative range: (max - min) / mean.
    pub rel_range: f64,
    pub p05: f64,
    pub p95: f64,
}

impl Variability {
    pub fn of(metric: impl Into<String>, values: &[f64]) -> Self {
        let mut w = Welford::new();
        for &v in values {
            w.push(v);
        }
        let summary = w.summary();
        let mean = summary.mean;
        Self {
            metric: metric.into(),
            summary,
            cv: w.cv(),
            rel_range: if mean != 0.0 { (summary.max - summary.min) / mean } else { 0.0 },
            p05: percentile(values, 0.05),
            p95: percentile(values, 0.95),
        }
    }
}

/// Rank a set of metrics by how variable they are (largest CV first) —
/// "which tasks, task behaviors, and system characteristics are
/// responsible for the largest variations".
pub fn rank_by_cv(metrics: Vec<Variability>) -> Vec<Variability> {
    let mut m = metrics;
    m.sort_by(|a, b| b.cv.total_cmp(&a.cv));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variability_of_constant_is_zero() {
        let v = Variability::of("wall", &[5.0, 5.0, 5.0]);
        assert_eq!(v.cv, 0.0);
        assert_eq!(v.rel_range, 0.0);
        assert_eq!(v.summary.mean, 5.0);
    }

    #[test]
    fn variability_detects_spread() {
        let v = Variability::of("wall", &[90.0, 100.0, 110.0]);
        assert!(v.cv > 0.05);
        assert!((v.rel_range - 0.2).abs() < 1e-9);
        assert!(v.p05 < v.p95);
    }

    #[test]
    fn ranking_orders_by_cv_desc() {
        let stable = Variability::of("stable", &[10.0, 10.1, 9.9]);
        let noisy = Variability::of("noisy", &[1.0, 5.0, 9.0]);
        let ranked = rank_by_cv(vec![stable, noisy]);
        assert_eq!(ranked[0].metric, "noisy");
    }

    #[test]
    fn empty_values() {
        let v = Variability::of("x", &[]);
        assert_eq!(v.cv, 0.0);
        assert_eq!(v.summary.count, 0);
    }
}

//! §IV-D "comparison of scheduling strategies over runs": were tasks
//! scheduled in the same order from run to run?
//!
//! Each run records the order in which tasks started executing. Two runs
//! are compared by Kendall's tau over the start ranks of their common
//! tasks — 1.0 means identical order, 0 means unrelated. Dynamic
//! scheduling makes this similarity imperfect even under identical
//! configurations, which is one of the paper's irreproducibility sources.

use std::collections::HashMap;

use serde::Serialize;

use dtf_core::ids::TaskKey;
use dtf_core::stats::{kendall_tau, Summary};
use dtf_core::time::Time;

/// Order similarity between two runs.
///
/// For workflows with tens of thousands of tasks the exact O(n²) tau is
/// costly; `max_tasks` caps the comparison by striding uniformly over the
/// common keys (deterministic, no RNG).
pub fn order_similarity(a: &[(TaskKey, Time)], b: &[(TaskKey, Time)], max_tasks: usize) -> f64 {
    let rank_b: HashMap<&TaskKey, usize> = b.iter().enumerate().map(|(i, (k, _))| (k, i)).collect();
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .enumerate()
        .filter_map(|(i, (k, _))| rank_b.get(k).map(|&j| (i as f64, j as f64)))
        .collect();
    if pairs.len() < 2 {
        return 1.0;
    }
    if pairs.len() > max_tasks.max(2) {
        let stride = pairs.len() as f64 / max_tasks as f64;
        pairs = (0..max_tasks).map(|i| pairs[(i as f64 * stride) as usize]).collect();
    }
    let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    kendall_tau(&xs, &ys)
}

/// Pairwise order similarity across a campaign's runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OrderSimilarityMatrix {
    pub runs: usize,
    /// Upper-triangle pairwise taus, row-major (i < j).
    pub pairs: Vec<(usize, usize, f64)>,
    pub summary: Summary,
}

pub fn pairwise(orders: &[Vec<(TaskKey, Time)>], max_tasks: usize) -> OrderSimilarityMatrix {
    let mut pairs = Vec::new();
    let mut taus = Vec::new();
    for i in 0..orders.len() {
        for j in (i + 1)..orders.len() {
            let tau = order_similarity(&orders[i], &orders[j], max_tasks);
            pairs.push((i, j, tau));
            taus.push(tau);
        }
    }
    OrderSimilarityMatrix { runs: orders.len(), pairs, summary: Summary::of(&taus) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(keys: &[u32]) -> Vec<(TaskKey, Time)> {
        keys.iter().enumerate().map(|(i, &k)| (TaskKey::new("t", 0, k), Time(i as u64))).collect()
    }

    #[test]
    fn identical_orders_have_tau_one() {
        let a = order(&[0, 1, 2, 3, 4]);
        assert_eq!(order_similarity(&a, &a, 1000), 1.0);
    }

    #[test]
    fn reversed_orders_have_tau_minus_one() {
        let a = order(&[0, 1, 2, 3, 4]);
        let b = order(&[4, 3, 2, 1, 0]);
        assert_eq!(order_similarity(&a, &b, 1000), -1.0);
    }

    #[test]
    fn partial_shuffle_between() {
        let a = order(&[0, 1, 2, 3, 4, 5]);
        let b = order(&[1, 0, 2, 3, 5, 4]);
        let tau = order_similarity(&a, &b, 1000);
        assert!(tau > 0.5 && tau < 1.0, "tau {tau}");
    }

    #[test]
    fn disjoint_key_sets_are_trivially_similar() {
        let a = order(&[0, 1, 2]);
        let b: Vec<(TaskKey, Time)> = vec![(TaskKey::new("other", 9, 0), Time(0))];
        assert_eq!(order_similarity(&a, &b, 1000), 1.0);
    }

    #[test]
    fn sampling_cap_still_detects_similarity() {
        let n = 5000u32;
        let keys: Vec<u32> = (0..n).collect();
        let a = order(&keys);
        // a locally-jittered copy: swap adjacent pairs
        let mut jit = keys.clone();
        for i in (0..n as usize - 1).step_by(2) {
            jit.swap(i, i + 1);
        }
        let b = order(&jit);
        let tau = order_similarity(&a, &b, 300);
        assert!(tau > 0.9, "sampled tau {tau} should stay high");
    }

    #[test]
    fn pairwise_matrix_shape() {
        let orders = vec![order(&[0, 1, 2]), order(&[0, 2, 1]), order(&[2, 1, 0])];
        let m = pairwise(&orders, 1000);
        assert_eq!(m.runs, 3);
        assert_eq!(m.pairs.len(), 3);
        assert_eq!(m.summary.count, 3);
        assert!(m.summary.mean < 1.0);
    }
}

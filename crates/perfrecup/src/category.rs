//! Task-category analysis (paper §IV-D: "task category (type) analysis
//! within one or multiple runs — performance, variability, distribution,
//! I/O per task").
//!
//! Per task prefix: duration statistics, output sizes, thread spread, and
//! — through the pthread-id join — the I/O performed by tasks of that
//! category. The numbers come out of [`CategoryState`], the same derived
//! state the live engine keeps, so the two cannot disagree.

use serde::Serialize;

use dtf_core::stats::{Summary, Welford};
use dtf_wms::RunData;

use crate::state::CategoryState;

/// Statistics for one task category within one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CategoryStats {
    pub category: String,
    pub tasks: usize,
    pub duration: Summary,
    pub output_nbytes: Summary,
    /// Distinct threads that executed this category.
    pub threads: usize,
    /// Distinct workers that executed this category.
    pub workers: usize,
    /// I/O operations attributed to this category (pthread-id join).
    pub io_ops: u64,
    pub io_bytes: u64,
}

/// Per-category statistics for one run, sorted by mean duration desc.
pub fn per_category(data: &RunData) -> Vec<CategoryStats> {
    CategoryState::of(data).stats()
}

/// Cross-run variability of one category's mean duration (paper: which
/// task behaviours vary most across identical runs?).
pub fn category_variability(runs: &[&RunData], category: &str) -> Summary {
    let mut per_run_means = Vec::new();
    for data in runs {
        let mut w = Welford::new();
        for d in &data.task_done {
            if d.key.prefix == category {
                w.push(d.duration().as_secs_f64());
            }
        }
        if w.count() > 0 {
            per_run_means.push(w.mean());
        }
    }
    Summary::of(&per_run_means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};

    fn run(seed: u64) -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..6u32 {
            let load = b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(10.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), 0, 8192)],
                    output_nbytes: 1 << 20,
                    stall_rate: 0.0,
                },
            );
            b.add_sim(
                "slow-train",
                tok,
                i,
                vec![load],
                SimAction::compute_only(Dur::from_millis_f64(500.0), 4 << 20),
            );
        }
        let wf = SimWorkflow {
            name: "cat".into(),
            graphs: vec![b.build(&Default::default()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.5),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        SimCluster::new(SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() })
            .unwrap()
            .run(wf)
            .unwrap()
    }

    #[test]
    fn categories_ranked_by_duration_with_io_attribution() {
        let data = run(1);
        let stats = per_category(&data);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].category, "slow-train", "slowest first");
        assert_eq!(stats[0].tasks, 6);
        assert_eq!(stats[0].io_ops, 0, "train does no I/O");
        let load = &stats[1];
        assert_eq!(load.category, "load");
        assert_eq!(load.io_ops, 6, "each load read once");
        assert_eq!(load.io_bytes, 6 * 8192);
        assert!(load.duration.mean < stats[0].duration.mean);
        assert!(load.threads >= 1 && load.workers >= 1);
    }

    #[test]
    fn cross_run_variability_is_finite_and_positive() {
        let a = run(1);
        let b = run(2);
        let v = category_variability(&[&a, &b], "slow-train");
        assert_eq!(v.count, 2);
        assert!(v.mean > 0.4, "mean duration near the configured 0.5s");
        let none = category_variability(&[&a, &b], "nonexistent");
        assert_eq!(none.count, 0);
    }
}

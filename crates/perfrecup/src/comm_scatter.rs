//! Fig. 5: time spent in inter-worker communication vs. message size,
//! split intra-node / inter-node.
//!
//! The paper's observation on ResNet152: several communications near the
//! beginning of the workflow take disproportionately long despite being
//! small, split roughly evenly between intra- and inter-node. (In our
//! substrate the cause is explicit: lazy connection establishment on
//! first contact between worker pairs.)

use serde::Serialize;

use dtf_core::events::CommEvent;
use dtf_core::stats::percentile;
use dtf_core::table::{CellSink, Tabular};
use dtf_wms::RunData;

use crate::frame::DataFrame;

/// The scatter points: columns `nbytes, duration_s, same_node, start_s`.
pub fn points(data: &RunData) -> DataFrame {
    DataFrame::from_tabular(data.comms.iter().map(Point))
}

/// A transfer as a scatter point: the cells `CommEvent`'s own row holds
/// under these names.
struct Point<'a>(&'a CommEvent);

impl Tabular for Point<'_> {
    fn schema() -> Vec<&'static str> {
        vec!["nbytes", "duration_s", "same_node", "start_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.u64(self.0.nbytes);
        out.secs(self.0.duration().0);
        out.bool(self.0.same_node());
        out.secs(self.0.start.0);
    }
}

/// Summary of the slow-small-early anomaly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommSummary {
    pub total: usize,
    pub intra_node: usize,
    pub inter_node: usize,
    /// Median message size (bytes).
    pub median_bytes: f64,
    /// Median transfer duration (seconds).
    pub median_duration_s: f64,
    /// Communications that are small (<= median size) yet slow (> 10x the
    /// median duration) — the robust outlier criterion.
    pub slow_small: usize,
    /// ... of which within the first `early_window_s` of communication
    /// activity.
    pub slow_small_early: usize,
    /// Intra-node share among the slow-small-early set.
    pub slow_small_early_intra_share: f64,
    pub early_window_s: f64,
}

/// Multiplier over the median duration beyond which a transfer counts as
/// anomalously slow.
pub const SLOW_FACTOR: f64 = 10.0;

/// Analyze the anomaly with an early window of `early_window_s` seconds
/// after the first communication.
pub fn summary(data: &RunData, early_window_s: f64) -> CommSummary {
    let comms = &data.comms;
    let sizes: Vec<f64> = comms.iter().map(|c| c.nbytes as f64).collect();
    let durs: Vec<f64> = comms.iter().map(|c| c.duration().as_secs_f64()).collect();
    let median_bytes = percentile(&sizes, 0.5);
    let median_dur = percentile(&durs, 0.5);
    let t0 = comms.iter().map(|c| c.start.as_secs_f64()).fold(f64::INFINITY, f64::min);
    let mut slow_small = 0;
    let mut slow_small_early = 0;
    let mut early_intra = 0;
    let mut intra = 0;
    for c in comms {
        if c.same_node() {
            intra += 1;
        }
        let small = (c.nbytes as f64) <= median_bytes;
        let slow = c.duration().as_secs_f64() > SLOW_FACTOR * median_dur;
        if small && slow {
            slow_small += 1;
            if c.start.as_secs_f64() - t0 <= early_window_s {
                slow_small_early += 1;
                if c.same_node() {
                    early_intra += 1;
                }
            }
        }
    }
    CommSummary {
        total: comms.len(),
        intra_node: intra,
        inter_node: comms.len() - intra,
        median_bytes,
        median_duration_s: median_dur,
        slow_small,
        slow_small_early,
        slow_small_early_intra_share: if slow_small_early == 0 {
            0.0
        } else {
            early_intra as f64 / slow_small_early as f64
        },
        early_window_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::CommEvent;
    use dtf_core::ids::{NodeId, TaskKey, WorkerId};
    use dtf_core::time::Time;

    fn comm(from_node: u32, to_node: u32, nbytes: u64, start: f64, dur: f64) -> CommEvent {
        CommEvent {
            key: TaskKey::new("x", 0, 0),
            from: WorkerId::new(NodeId(from_node), 0),
            to: WorkerId::new(NodeId(to_node), 1),
            nbytes,
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(start + dur),
        }
    }

    fn run_with(comms: Vec<CommEvent>) -> RunData {
        // reuse the io_timeline test constructor shape via a minimal run
        let mut data = crate::io_timeline::tests_support::empty_run();
        data.comms = comms;
        data
    }

    #[test]
    fn summary_counts_slow_small_early() {
        let mut comms = Vec::new();
        // 50 normal comms: large-ish, fast, spread over time
        for i in 0..50 {
            comms.push(comm(0, 1, 1 << 20, 10.0 + i as f64, 0.01));
        }
        // 4 early anomalies: tiny but very slow, half intra-node
        comms.push(comm(0, 0, 100, 0.1, 0.9));
        comms.push(comm(0, 0, 100, 0.2, 0.8));
        comms.push(comm(0, 1, 100, 0.3, 0.7));
        comms.push(comm(0, 1, 100, 0.4, 0.95));
        let data = run_with(comms);
        let s = summary(&data, 5.0);
        assert_eq!(s.total, 54);
        assert_eq!(s.slow_small, 4, "all four anomalies exceed 10x median duration");
        assert_eq!(s.slow_small_early, 4);
        assert!((s.slow_small_early_intra_share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_run_summary_is_zero() {
        let data = run_with(vec![]);
        let s = summary(&data, 5.0);
        assert_eq!(s.total, 0);
        assert_eq!(s.slow_small, 0);
        assert_eq!(s.slow_small_early_intra_share, 0.0);
    }

    #[test]
    fn points_have_expected_columns() {
        let data = run_with(vec![comm(0, 1, 512, 1.0, 0.1)]);
        let df = points(&data);
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.names(), &["nbytes", "duration_s", "same_node", "start_s"]);
        assert_eq!(df.col("same_node").unwrap()[0].as_bool(), Some(false));
    }
}

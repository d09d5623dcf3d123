//! Fig. 7: distribution of runtime warnings over time, and their
//! correlation with long-running tasks.
//!
//! The paper counts 297 *unresponsive event loop* warnings in the first
//! 500 s of the XGBoost workflow and observes that they "correlate
//! perfectly" with the long `read_parquet-fused-assign` tasks. The
//! correlation here is computed directly: the fraction of warnings whose
//! timestamp falls inside the execution interval of a long task on the
//! same worker.

use serde::Serialize;

use dtf_core::events::WarningKind;
use dtf_core::stats::Histogram;
use dtf_wms::RunData;

/// The warning distribution and its task correlation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarningReport {
    pub total: usize,
    pub unresponsive: usize,
    pub gc: usize,
    /// Unresponsive-event-loop warnings in the first `early_window_s`.
    pub unresponsive_early: usize,
    pub early_window_s: f64,
    /// Histogram of warning times over the run (bin counts).
    pub histogram: Histogram,
    /// Fraction of warnings overlapping a long task's execution on the
    /// same worker.
    pub long_task_overlap: f64,
    /// The duration threshold (seconds) defining a "long" task.
    pub long_task_threshold_s: f64,
    /// Category of the long tasks most overlapped by warnings.
    pub dominant_category: Option<String>,
}

/// Analyze warnings with `bins` time bins, an early window (paper: 500 s),
/// and a long-task duration threshold.
pub fn report(
    data: &RunData,
    bins: usize,
    early_window_s: f64,
    long_task_threshold_s: f64,
) -> WarningReport {
    let horizon = data.wall_time.as_secs_f64().max(1.0);
    let mut histogram = Histogram::new(0.0, horizon, bins.max(1));
    let mut unresponsive = 0;
    let mut gc = 0;
    let mut unresponsive_early = 0;
    for w in &data.warnings {
        histogram.push(w.time.as_secs_f64());
        match w.kind {
            WarningKind::UnresponsiveEventLoop => {
                unresponsive += 1;
                if w.time.as_secs_f64() <= early_window_s {
                    unresponsive_early += 1;
                }
            }
            WarningKind::GcPause => gc += 1,
        }
    }

    // long tasks, indexed by worker
    let long_tasks: Vec<_> = data
        .task_done
        .iter()
        .filter(|d| d.duration().as_secs_f64() >= long_task_threshold_s)
        .collect();
    let mut overlap = 0usize;
    let mut by_cat: std::collections::HashMap<&str, usize> = Default::default();
    for w in &data.warnings {
        let hit = long_tasks.iter().find(|d| {
            w.worker.is_none_or(|ww| ww == d.worker) && d.start <= w.time && w.time <= d.stop
        });
        if let Some(d) = hit {
            overlap += 1;
            *by_cat.entry(d.key.prefix.as_str()).or_default() += 1;
        }
    }
    let dominant_category = by_cat.into_iter().max_by_key(|(_, n)| *n).map(|(c, _)| c.to_string());
    WarningReport {
        total: data.warnings.len(),
        unresponsive,
        gc,
        unresponsive_early,
        early_window_s,
        histogram,
        long_task_overlap: if data.warnings.is_empty() {
            0.0
        } else {
            overlap as f64 / data.warnings.len() as f64
        },
        long_task_threshold_s,
        dominant_category,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_timeline::tests_support::empty_run;
    use dtf_core::events::{TaskDoneEvent, WarningEvent};
    use dtf_core::ids::{GraphId, NodeId, TaskKey, ThreadId, WorkerId};
    use dtf_core::time::{Dur, Time};

    fn warn(kind: WarningKind, t: f64, worker: Option<WorkerId>) -> WarningEvent {
        WarningEvent { kind, worker, time: Time::from_secs_f64(t), duration: Dur(1) }
    }

    #[test]
    fn report_counts_and_correlates() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(1000.0);
        data.task_done = vec![TaskDoneEvent {
            key: TaskKey::new("read_parquet-fused-assign", 0, 0),
            graph: GraphId(0),
            worker: w0,
            thread: ThreadId(1),
            start: Time::from_secs_f64(10.0),
            stop: Time::from_secs_f64(210.0),
            nbytes: 300 << 20,
        }];
        data.warnings = vec![
            warn(WarningKind::UnresponsiveEventLoop, 50.0, Some(w0)), // inside
            warn(WarningKind::UnresponsiveEventLoop, 100.0, Some(w0)), // inside
            warn(WarningKind::GcPause, 150.0, Some(w0)),              // inside
            warn(WarningKind::UnresponsiveEventLoop, 600.0, Some(w0)), // outside
        ];
        let r = report(&data, 20, 500.0, 100.0);
        assert_eq!(r.total, 4);
        assert_eq!(r.unresponsive, 3);
        assert_eq!(r.gc, 1);
        assert_eq!(r.unresponsive_early, 2);
        assert!((r.long_task_overlap - 0.75).abs() < 1e-9);
        assert_eq!(r.dominant_category.as_deref(), Some("read_parquet-fused-assign"));
        assert_eq!(r.histogram.total(), 4);
    }

    #[test]
    fn warning_on_other_worker_does_not_overlap() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let w1 = WorkerId::new(NodeId(0), 1);
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(100.0);
        data.task_done = vec![TaskDoneEvent {
            key: TaskKey::new("slow", 0, 0),
            graph: GraphId(0),
            worker: w0,
            thread: ThreadId(1),
            start: Time::ZERO,
            stop: Time::from_secs_f64(100.0),
            nbytes: 1,
        }];
        data.warnings = vec![warn(WarningKind::UnresponsiveEventLoop, 50.0, Some(w1))];
        let r = report(&data, 10, 500.0, 10.0);
        assert_eq!(r.long_task_overlap, 0.0);
    }

    #[test]
    fn empty_run_report() {
        let r = report(&empty_run(), 10, 500.0, 10.0);
        assert_eq!(r.total, 0);
        assert_eq!(r.long_task_overlap, 0.0);
        assert_eq!(r.dominant_category, None);
    }
}

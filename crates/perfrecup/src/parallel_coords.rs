//! Fig. 6: parallel-coordinates view of tasks — elapsed time, task
//! category, executing thread, output size (MB), and duration (s).
//!
//! The paper's XGBoost reading: the longest tasks belong to the
//! `read_parquet-fused-assign` category (Dask's graph optimization fuses
//! I/O into consuming tasks for locality), and their outputs far exceed
//! the 128 MB the Dask developers recommend — a likely cause of
//! suboptimal, variable performance.

use serde::Serialize;

use dtf_core::table::Value;
use dtf_wms::RunData;

use crate::frame::{Agg, DataFrame};

/// Dask's recommended maximum chunk/output size: 128 MB.
pub const RECOMMENDED_NBYTES: u64 = 128 << 20;

/// The coordinates table: `elapsed_s, category, thread, output_mb,
/// duration_s`, one row per completed task.
pub fn coordinates(data: &RunData) -> DataFrame {
    let mut df = DataFrame::new(
        ["elapsed_s", "category", "thread", "output_mb", "duration_s"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for d in &data.task_done {
        df.push_row(vec![
            Value::F64(d.stop.as_secs_f64()),
            Value::Str(d.key.prefix.as_str().to_string()),
            Value::U64(d.thread.0),
            Value::F64(d.nbytes as f64 / (1 << 20) as f64),
            Value::F64(d.duration().as_secs_f64()),
        ])
        .expect("schema-conforming row");
    }
    df
}

/// Category-level reading of the figure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoordsSummary {
    /// Category with the largest mean duration.
    pub longest_category: String,
    pub longest_mean_duration_s: f64,
    /// Tasks whose output exceeds the 128 MB recommendation.
    pub oversized_tasks: usize,
    /// ... and the categories they belong to, sorted by count desc.
    pub oversized_categories: Vec<(String, usize)>,
    pub total_tasks: usize,
}

pub fn summary(data: &RunData) -> CoordsSummary {
    let df = coordinates(data);
    let longest = df.group_by("category", "duration_s", Agg::Mean).expect("group by category");
    let mut best = (String::new(), f64::NEG_INFINITY);
    let cats = longest.col("category").expect("category col");
    let means = longest.col_f64("duration_s_mean").expect("mean col");
    for (c, m) in cats.iter().zip(means) {
        if m > best.1 {
            best = (c.to_string(), m);
        }
    }
    let mut oversized_by_cat: std::collections::HashMap<String, usize> = Default::default();
    let mut oversized = 0;
    for d in &data.task_done {
        if d.nbytes > RECOMMENDED_NBYTES {
            oversized += 1;
            *oversized_by_cat.entry(d.key.prefix.as_str().to_string()).or_default() += 1;
        }
    }
    let mut oversized_categories: Vec<(String, usize)> = oversized_by_cat.into_iter().collect();
    oversized_categories.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    CoordsSummary {
        longest_category: best.0,
        longest_mean_duration_s: if best.1.is_finite() { best.1 } else { 0.0 },
        oversized_tasks: oversized,
        oversized_categories,
        total_tasks: data.task_done.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_timeline::tests_support::empty_run;
    use dtf_core::events::TaskDoneEvent;
    use dtf_core::ids::{GraphId, NodeId, TaskKey, ThreadId, WorkerId};
    use dtf_core::time::Time;

    fn done(prefix: &str, start: f64, dur: f64, nbytes: u64) -> TaskDoneEvent {
        TaskDoneEvent {
            key: TaskKey::new(prefix, 0, 0),
            graph: GraphId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(start + dur),
            nbytes,
        }
    }

    #[test]
    fn summary_identifies_longest_and_oversized() {
        let mut data = empty_run();
        data.task_done = vec![
            done("read_parquet-fused-assign", 0.0, 120.0, 340 << 20),
            done("read_parquet-fused-assign", 5.0, 90.0, 300 << 20),
            done("getitem", 130.0, 2.0, 50 << 20),
            done("getitem", 133.0, 3.0, 60 << 20),
        ];
        let s = summary(&data);
        assert_eq!(s.longest_category, "read_parquet-fused-assign");
        assert!(s.longest_mean_duration_s > 100.0);
        assert_eq!(s.oversized_tasks, 2);
        assert_eq!(s.oversized_categories[0].0, "read_parquet-fused-assign");
        assert_eq!(s.total_tasks, 4);
    }

    #[test]
    fn coordinates_shape() {
        let mut data = empty_run();
        data.task_done = vec![done("x", 0.0, 1.0, 1 << 20)];
        let df = coordinates(&data);
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.col_f64("output_mb").unwrap(), vec![1.0]);
    }

    #[test]
    fn empty_run_summary() {
        let s = summary(&empty_run());
        assert_eq!(s.total_tasks, 0);
        assert_eq!(s.oversized_tasks, 0);
        assert_eq!(s.longest_mean_duration_s, 0.0);
    }
}

//! Views: the fused task↔I/O view over one run.
//!
//! The load-bearing join (paper §III-E3, §V): Darshan DXT records carry
//! `(host, pthread id, timestamps)`; Dask task records carry
//! `(worker, pthread id, start, stop)`. An I/O record belongs to the task
//! that was executing on that thread at that moment. Without the authors'
//! pthread-id extension this join is impossible — `task_io` on a
//! vanilla-DXT run returns no matches, which is exactly the
//! interoperability gap the paper calls out. The rule itself lives in
//! [`ExecIndex::owner`]; [`TaskIoRow`] is its one rendering — a borrowed
//! `(record, owner)` pair in the common tabular format, which `task_io`
//! collects into a DataFrame and `export_run` streams into `task_io.csv`.

use dtf_core::events::IoRecord;
use dtf_core::table::{CellSink, Tabular};
use dtf_wms::RunData;

use crate::frame::DataFrame;
use crate::state::{CategoryState, Exec, ExecIndex};

/// One row of the fused task↔I/O view: a traced I/O operation and the
/// execution that owned its thread when it started, if any. The columns
/// are the I/O record's, then the owning task's `key` and `prefix` (null
/// for I/O no task owns).
#[derive(Debug, Clone, Copy)]
pub struct TaskIoRow<'a> {
    pub record: &'a IoRecord,
    pub owner: Option<&'a Exec>,
}

impl Tabular for TaskIoRow<'_> {
    fn schema() -> Vec<&'static str> {
        let mut names = IoRecord::schema();
        names.extend(["key", "prefix"]);
        names
    }

    fn cells(&self, out: &mut impl CellSink) {
        self.record.cells(out);
        match self.owner {
            Some(exec) => {
                out.display(exec.key);
                out.str(exec.key.prefix.as_str());
            }
            None => {
                out.null();
                out.null();
            }
        }
    }
}

/// The fused view's rows, one per Darshan record in `all_records` order,
/// each attributed through `execs` (the run's sealed [`ExecIndex`]).
pub fn task_io_rows<'a>(
    data: &'a RunData,
    execs: &'a ExecIndex,
) -> impl Iterator<Item = TaskIoRow<'a>> {
    data.darshan
        .all_records()
        .map(|record| TaskIoRow { record, owner: execs.owner(record.thread, record.start) })
}

/// The fused task↔I/O view over one run, built on demand.
pub struct RunViews<'a> {
    pub data: &'a RunData,
}

impl<'a> RunViews<'a> {
    pub fn new(data: &'a RunData) -> Self {
        Self { data }
    }

    /// The fused task↔I/O view: every traced I/O operation attributed to
    /// the task that issued it, joined on `(pthread id, time interval)`.
    /// I/O that matches no task (e.g. thread ids scrubbed by vanilla DXT)
    /// gets a `Null` key.
    pub fn task_io(&self) -> DataFrame {
        let execs = ExecIndex::of(&self.data.task_done);
        DataFrame::from_tabular(task_io_rows(self.data, &execs))
    }

    /// Fraction of traced I/O operations the join attributes to a task;
    /// 1.0 with the pthread-id extension, ~0 without.
    pub fn io_attribution_rate(&self) -> f64 {
        CategoryState::of(self.data).attribution_rate().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};
    use std::collections::HashSet;

    fn run_with_io(dxt: dtf_darshan::DxtConfig) -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..12u32 {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(30.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), i as u64 * 1024, 1024)],
                    output_nbytes: 1024,
                    stall_rate: 0.0,
                },
            );
        }
        let wf = SimWorkflow {
            name: "views-test".into(),
            graphs: vec![b.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(1.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        let cfg = SimConfig { run: RunId(0), dxt, ..Default::default() };
        SimCluster::new(cfg).unwrap().run(wf).unwrap()
    }

    #[test]
    fn task_io_attributes_every_op_with_thread_ids() {
        let data = run_with_io(dtf_darshan::DxtConfig::default());
        let v = RunViews::new(&data);
        assert!((v.io_attribution_rate() - 1.0).abs() < 1e-9);
        // reads map to load tasks
        let fused = v.task_io();
        let fused = fused.filter("op", |o| o.as_str() == Some("read")).unwrap();
        for p in fused.col("prefix").unwrap() {
            assert_eq!(p.as_str(), Some("load"));
        }
    }

    #[test]
    fn vanilla_dxt_breaks_the_join() {
        // the ablation the paper motivates: without pthread ids, Darshan
        // records cannot be correlated with tasks
        let data = run_with_io(dtf_darshan::DxtConfig::vanilla());
        let v = RunViews::new(&data);
        assert_eq!(v.io_attribution_rate(), 0.0);
    }
}

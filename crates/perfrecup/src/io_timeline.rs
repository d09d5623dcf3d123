//! Fig. 4: per-thread I/O over time, and burst-phase detection.
//!
//! The figure plots one horizontal segment per traced I/O operation
//! (x = elapsed time, y = thread, red = read, blue = write, opacity =
//! size). The analysis also clusters operations into activity *phases* by
//! time gaps; for ImageProcessing the expectation is three read phases —
//! one per sequentially submitted task graph — each ending in a burst of
//! small writes.

use serde::Serialize;

use dtf_core::events::{IoOp, IoRecord};
use dtf_core::table::{CellSink, Tabular};
use dtf_wms::RunData;

use crate::frame::DataFrame;

/// One detected activity phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IoPhase {
    pub start_s: f64,
    pub end_s: f64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl IoPhase {
    /// A phase "ends in writes" if its last operations are writes.
    pub fn read_dominant(&self) -> bool {
        self.read_ops > self.write_ops
    }
}

/// The per-thread segment view (the figure's raw marks): columns
/// `thread, op, start_s, stop_s, size`.
pub fn segments(data: &RunData) -> DataFrame {
    DataFrame::from_tabular(data.darshan.all_records().map(Segment))
}

/// An I/O record as a segment: the cells `IoRecord`'s own row holds under
/// these names.
struct Segment<'a>(&'a IoRecord);

impl Tabular for Segment<'_> {
    fn schema() -> Vec<&'static str> {
        vec!["thread", "op", "start_s", "stop_s", "size", "host"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.u64(self.0.thread.0);
        out.str(self.0.op.as_str());
        out.secs(self.0.start.0);
        out.secs(self.0.stop.0);
        out.u64(self.0.size);
        out.display(self.0.host);
    }
}

/// Cluster data operations (reads/writes) into phases separated by idle
/// gaps of at least `gap_s` seconds.
pub fn detect_phases(data: &RunData, gap_s: f64) -> Vec<IoPhase> {
    // (start, stop, is a read, size) of every read and write
    let mut ops: Vec<(f64, f64, bool, u64)> = data
        .darshan
        .all_records()
        .filter_map(|r| {
            let read = match r.op {
                IoOp::Read => true,
                IoOp::Write => false,
                _ => return None,
            };
            Some((r.start.as_secs_f64(), r.stop.as_secs_f64(), read, r.size))
        })
        .collect();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut phases: Vec<IoPhase> = Vec::new();
    let mut current: Option<(IoPhase, f64)> = None; // (phase, last stop)
    for (start, stop, read, size) in ops {
        let (p, last) = match current.take() {
            Some((p, last_stop)) if start - last_stop <= gap_s => current.insert((p, last_stop)),
            done => {
                phases.extend(done.map(|(p, _)| p));
                let phase = IoPhase {
                    start_s: start,
                    end_s: stop,
                    read_ops: 0,
                    write_ops: 0,
                    read_bytes: 0,
                    write_bytes: 0,
                };
                current.insert((phase, stop))
            }
        };
        p.end_s = p.end_s.max(stop);
        *last = last.max(stop);
        if read {
            p.read_ops += 1;
            p.read_bytes += size;
        } else {
            p.write_ops += 1;
            p.write_bytes += size;
        }
    }
    if let Some((p, _)) = current {
        phases.push(p);
    }
    phases
}

/// Whether each detected phase is read-dominant and also contains a
/// trailing write burst — the Fig. 4 ImageProcessing signature.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseSignature {
    pub phases: Vec<IoPhase>,
    pub read_phases: usize,
    pub phases_with_writes: usize,
}

pub fn signature(data: &RunData, gap_s: f64) -> PhaseSignature {
    let phases = detect_phases(data, gap_s);
    let read_phases = phases.iter().filter(|p| p.read_dominant()).count();
    let phases_with_writes = phases.iter().filter(|p| p.write_ops > 0).count();
    PhaseSignature { phases, read_phases, phases_with_writes }
}

/// Test-only constructors shared by the analysis modules' unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use dtf_core::events::{IoOp, IoRecord};
    use dtf_core::ids::{FileId, NodeId, RunId, ThreadId, WorkerId};
    use dtf_core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
    use dtf_core::time::{Dur, Time};
    use dtf_darshan::counters::PosixCounters;
    use dtf_darshan::log::{DarshanLog, LogHeader, LogSet};
    use dtf_wms::RunData;

    pub fn rec(op: IoOp, start: f64, dur: f64, size: u64) -> IoRecord {
        IoRecord {
            host: NodeId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            file: FileId(0),
            op,
            offset: 0,
            size,
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(start + dur),
        }
    }

    pub fn empty_run() -> RunData {
        run_with(vec![])
    }

    pub fn run_with(records: Vec<IoRecord>) -> RunData {
        let mut counters = PosixCounters::new();
        for r in &records {
            counters.record(r);
        }
        let worker = WorkerId::new(NodeId(0), 0);
        RunData {
            run: RunId(0),
            workflow: "t".into(),
            chart: ProvenanceChart {
                hardware: HardwareInfo::polaris_like(1),
                system: SystemInfo::synthetic(),
                job: JobInfo {
                    job_id: 0,
                    script: String::new(),
                    queue: "q".into(),
                    nodes_requested: 1,
                    allocated_nodes: vec![NodeId(0)],
                    submit_time: Time::ZERO,
                    start_time: Time::ZERO,
                    walltime_limit_s: 60,
                },
                wms_config: WmsConfig::default(),
                client_code_hash: 0,
                workflow_name: "t".into(),
            },
            meta: vec![],
            transitions: vec![],
            worker_transitions: vec![],
            task_done: vec![],
            comms: vec![],
            warnings: vec![],
            logs: vec![],
            proxies: vec![],
            online_io: vec![],
            darshan: LogSet::new(vec![DarshanLog {
                header: LogHeader {
                    run: RunId(0),
                    job_id: 0,
                    worker,
                    hostname: "nid0000".into(),
                    start: Time::ZERO,
                    end: Time::from_secs_f64(100.0),
                    dxt_truncated: false,
                    dxt_dropped: 0,
                },
                counters,
                dxt: records,
            }]),
            wall_time: Dur::from_secs_f64(100.0),
            start_order: vec![],
            steals: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{rec, run_with};
    use super::*;
    use dtf_core::events::IoRecord;

    #[test]
    fn three_bursts_detected() {
        let mut records = Vec::new();
        for phase in 0..3 {
            let t0 = phase as f64 * 30.0;
            for i in 0..10 {
                records.push(rec(IoOp::Read, t0 + i as f64 * 0.5, 0.3, 4 << 20));
            }
            records.push(rec(IoOp::Write, t0 + 6.0, 0.1, 8 << 10));
        }
        let data = run_with(records);
        let sig = signature(&data, 5.0);
        assert_eq!(sig.phases.len(), 3);
        assert_eq!(sig.read_phases, 3);
        assert_eq!(sig.phases_with_writes, 3);
        for p in &sig.phases {
            assert_eq!(p.read_ops, 10);
            assert_eq!(p.write_ops, 1);
            assert!(p.read_bytes > p.write_bytes);
        }
    }

    #[test]
    fn continuous_io_is_one_phase() {
        let records: Vec<IoRecord> =
            (0..50).map(|i| rec(IoOp::Read, i as f64 * 0.1, 0.09, 1024)).collect();
        let data = run_with(records);
        assert_eq!(detect_phases(&data, 2.0).len(), 1);
    }

    #[test]
    fn empty_run_has_no_phases() {
        let data = run_with(vec![]);
        assert!(detect_phases(&data, 2.0).is_empty());
    }

    #[test]
    fn opens_and_closes_do_not_form_phases() {
        let records = vec![rec(IoOp::Open, 0.0, 0.001, 0), rec(IoOp::Close, 10.0, 0.001, 0)];
        let data = run_with(records);
        assert!(detect_phases(&data, 2.0).is_empty());
    }

    #[test]
    fn segments_view_has_expected_columns() {
        let data = run_with(vec![rec(IoOp::Read, 1.0, 0.5, 4096)]);
        let df = segments(&data);
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.names(), &["thread", "op", "start_s", "stop_s", "size", "host"]);
    }
}

//! Log-analysis helpers, the PyDarshan analog (paper \[17\]): summaries
//! computed from parsed log sets — per-file tables, per-process tables,
//! access-size histograms, and time-binned activity for heatmap-style
//! views.

use serde::{Deserialize, Serialize};

use dtf_core::events::IoOp;
use dtf_core::ids::{FileId, WorkerId};
use dtf_core::time::Dur;

use crate::counters::SizeBucket;
use crate::log::LogSet;

/// Aggregate row of the per-file report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileReport {
    pub file: FileId,
    /// Processes (workers) that touched the file.
    pub processes: usize,
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub read_time: Dur,
    pub write_time: Dur,
}

/// Aggregate row of the per-process report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessReport {
    pub worker: WorkerId,
    pub files: usize,
    pub data_ops: u64,
    pub bytes: u64,
    pub io_time: Dur,
    pub dxt_truncated: bool,
}

/// Per-file summary across all processes, ordered by file id.
pub fn per_file(set: &LogSet) -> Vec<FileReport> {
    let mut map: std::collections::BTreeMap<FileId, FileReport> = Default::default();
    let mut touched: std::collections::HashMap<FileId, std::collections::HashSet<WorkerId>> =
        Default::default();
    for log in &set.logs {
        for (id, c) in log.counters.files() {
            let entry = map.entry(*id).or_insert_with(|| FileReport {
                file: *id,
                processes: 0,
                reads: 0,
                writes: 0,
                bytes_read: 0,
                bytes_written: 0,
                read_time: Dur::ZERO,
                write_time: Dur::ZERO,
            });
            entry.reads += c.reads;
            entry.writes += c.writes;
            entry.bytes_read += c.bytes_read;
            entry.bytes_written += c.bytes_written;
            entry.read_time += c.read_time;
            entry.write_time += c.write_time;
            touched.entry(*id).or_default().insert(log.header.worker);
        }
    }
    for (id, workers) in touched {
        if let Some(r) = map.get_mut(&id) {
            r.processes = workers.len();
        }
    }
    map.into_values().collect()
}

/// Per-process summary, in log order.
pub fn per_process(set: &LogSet) -> Vec<ProcessReport> {
    set.logs
        .iter()
        .map(|log| {
            let t = log.counters.totals();
            ProcessReport {
                worker: log.header.worker,
                files: log.counters.file_count(),
                data_ops: t.data_ops(),
                bytes: t.bytes_read + t.bytes_written,
                io_time: t.total_time(),
                dxt_truncated: log.header.dxt_truncated,
            }
        })
        .collect()
}

/// Access-size histogram folded across all processes (Darshan job-summary
/// style), indexed by [`SizeBucket::ALL`].
pub fn access_size_histogram(set: &LogSet) -> [u64; 10] {
    let mut out = [0u64; 10];
    for log in &set.logs {
        let t = log.counters.totals();
        for (slot, n) in out.iter_mut().zip(t.size_histogram) {
            *slot += n;
        }
    }
    out
}

/// Time-binned read/write operation counts from the DXT traces (the
/// heatmap view): `bins` windows over `[0, horizon_s]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityBins {
    pub horizon_s: f64,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
}

pub fn activity(set: &LogSet, bins: usize, horizon_s: f64) -> ActivityBins {
    assert!(bins > 0 && horizon_s > 0.0);
    let mut out = ActivityBins { horizon_s, reads: vec![0; bins], writes: vec![0; bins] };
    let w = horizon_s / bins as f64;
    for r in set.all_records() {
        let idx = ((r.start.as_secs_f64() / w) as usize).min(bins - 1);
        match r.op {
            IoOp::Read => out.reads[idx] += 1,
            IoOp::Write => out.writes[idx] += 1,
            _ => {}
        }
    }
    out
}

/// Largest access-size bucket that actually occurred (for report text).
pub fn dominant_bucket(set: &LogSet) -> Option<SizeBucket> {
    let hist = access_size_histogram(set);
    let (idx, n) = hist.iter().enumerate().max_by_key(|(_, n)| **n)?;
    if *n == 0 {
        None
    } else {
        Some(SizeBucket::ALL[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::PosixCounters;
    use crate::log::{DarshanLog, LogHeader};
    use dtf_core::events::IoRecord;
    use dtf_core::ids::{NodeId, RunId, ThreadId};
    use dtf_core::time::Time;

    fn rec(worker: WorkerId, file: u64, op: IoOp, size: u64, start: f64) -> IoRecord {
        IoRecord {
            host: worker.node,
            worker,
            thread: ThreadId(1),
            file: FileId(file),
            op,
            offset: 0,
            size,
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(start + 0.01),
        }
    }

    fn set() -> LogSet {
        let mut logs = Vec::new();
        for w in 0..2u32 {
            let worker = WorkerId::new(NodeId(0), w);
            let mut counters = PosixCounters::new();
            let records = vec![
                rec(worker, 0, IoOp::Read, 4 << 20, 1.0 + w as f64),
                rec(worker, w as u64, IoOp::Write, 8 << 10, 50.0 + w as f64),
            ];
            for r in &records {
                counters.record(r);
            }
            logs.push(DarshanLog {
                header: LogHeader {
                    run: RunId(0),
                    job_id: 1,
                    worker,
                    hostname: worker.node.hostname(),
                    start: Time::ZERO,
                    end: Time::from_secs_f64(100.0),
                    dxt_truncated: w == 1,
                    dxt_dropped: w as u64,
                },
                counters,
                dxt: records,
            });
        }
        LogSet::new(logs)
    }

    #[test]
    fn per_file_merges_processes() {
        let reports = per_file(&set());
        // files 0 (both workers) and 1 (worker 1 only)
        assert_eq!(reports.len(), 2);
        let f0 = &reports[0];
        assert_eq!(f0.file, FileId(0));
        assert_eq!(f0.processes, 2);
        assert_eq!(f0.reads, 2);
        assert_eq!(f0.writes, 1, "worker 0 wrote into file 0");
        let f1 = &reports[1];
        assert_eq!(f1.processes, 1);
        assert_eq!(f1.writes, 1);
    }

    #[test]
    fn per_process_summary() {
        let reports = per_process(&set());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].data_ops, 2);
        assert!(!reports[0].dxt_truncated);
        assert!(reports[1].dxt_truncated);
        assert!(reports[0].io_time > Dur::ZERO);
    }

    #[test]
    fn histogram_and_dominant_bucket() {
        let hist = access_size_histogram(&set());
        assert_eq!(hist.iter().sum::<u64>(), 4);
        // 2 ops in each of two buckets; ties resolve to the larger bucket
        let dom = dominant_bucket(&set()).unwrap();
        assert!(matches!(dom, SizeBucket::B1K_10K | SizeBucket::B4M_10M));
        assert_eq!(dominant_bucket(&LogSet::default()), None);
    }

    #[test]
    fn activity_bins_place_ops_in_time() {
        let a = activity(&set(), 10, 100.0);
        assert_eq!(a.reads.iter().sum::<u64>(), 2);
        assert_eq!(a.writes.iter().sum::<u64>(), 2);
        assert_eq!(a.reads[0], 2, "reads at t~1s land in the first bin");
        assert_eq!(a.writes[5], 2, "writes at t~50s land mid-run");
    }
}

//! The Darshan-analog binary log format.
//!
//! Real Darshan writes one compressed binary log per process at shutdown.
//! Our format is a fixed header (magic + version + payload length)
//! followed by a JSON payload — simple, versioned, and self-describing.
//! The export bundle writes one per worker.
//! A [`LogSet`] merges the per-worker logs of one run, the unit the
//! analysis engine consumes.
//!
//! Inside the `run-meta` archive document a [`LogSet`] is binary instead:
//! [`LogHeader`], [`DarshanLog`] and [`LogSet`] are declared through
//! [`dtf_core::wire_struct!`], so each goes on the wire as its fields in
//! declaration order — a log is its header, its counters, then its DXT
//! records as a count and that many `IoRecord`s.

use serde::Serialize;

use dtf_core::events::IoRecord;
use dtf_core::ids::{RunId, WorkerId};
use dtf_core::time::Time;

use crate::counters::PosixCounters;

const MAGIC: &[u8; 8] = b"DTFDARSH";
const VERSION: u32 = 1;
/// Magic + version + payload length.
const HEADER_LEN: usize = 20;

dtf_core::wire_struct! {
    /// Log header: identity of the process and trace-completeness flags.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct LogHeader {
        pub run: RunId,
        pub job_id: u64,
        pub worker: WorkerId,
        pub hostname: String,
        pub start: Time,
        pub end: Time,
        /// Whether the DXT trace overflowed its buffer (footnote-9 condition).
        pub dxt_truncated: bool,
        pub dxt_dropped: u64,
    }
}

dtf_core::wire_struct! {
    /// One per-process log: header + POSIX counters + DXT trace.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct DarshanLog {
        pub header: LogHeader,
        pub counters: PosixCounters,
        pub dxt: Vec<IoRecord>,
    }
}

impl DarshanLog {
    /// Serialize to the binary log format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // payload length, patched once the payload is behind the header
        out.extend_from_slice(&0u64.to_le_bytes());
        // the compact JSON of the value tree; printing it cannot fail
        out.extend_from_slice(self.to_content().to_string().as_bytes());
        let len = (out.len() - HEADER_LEN) as u64;
        out[12..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        out
    }
}

dtf_core::wire_struct! {
    /// All per-process logs of one run.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct LogSet {
        pub logs: Vec<DarshanLog>,
    }
}

impl LogSet {
    pub fn new(logs: Vec<DarshanLog>) -> Self {
        Self { logs }
    }

    /// All DXT records of the run, across workers.
    pub fn all_records(&self) -> impl Iterator<Item = &IoRecord> {
        self.logs.iter().flat_map(|l| l.dxt.iter())
    }

    /// Total I/O operations (reads + writes) from the *counters* modules —
    /// complete even when DXT truncated.
    pub fn total_data_ops(&self) -> u64 {
        self.logs.iter().map(|l| l.counters.totals().data_ops()).sum()
    }

    /// Total traced I/O operations in DXT (may undercount if truncated —
    /// the footnote-9 effect is the gap between this and
    /// [`Self::total_data_ops`]).
    pub fn traced_data_ops(&self) -> u64 {
        self.all_records()
            .filter(|r| {
                matches!(r.op, dtf_core::events::IoOp::Read | dtf_core::events::IoOp::Write)
            })
            .count() as u64
    }

    /// Distinct files touched across the run.
    pub fn distinct_files(&self) -> usize {
        let mut files: std::collections::HashSet<dtf_core::ids::FileId> =
            std::collections::HashSet::new();
        for l in &self.logs {
            files.extend(l.counters.files().map(|(id, _)| *id));
        }
        files.len()
    }

    /// Total time spent in I/O, summed over workers (paper Fig. 3's I/O bar).
    pub fn total_io_time(&self) -> dtf_core::time::Dur {
        let mut total = dtf_core::time::Dur::ZERO;
        for l in &self.logs {
            total += l.counters.totals().total_time();
        }
        total
    }

    pub fn any_truncated(&self) -> bool {
        self.logs.iter().any(|l| l.header.dxt_truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::binfmt::{self, put_varint};
    use dtf_core::events::IoOp;
    use dtf_core::ids::{FileId, NodeId, ThreadId};

    fn sample_log(truncated: bool) -> DarshanLog {
        let worker = WorkerId::new(NodeId(0), 0);
        let mut counters = PosixCounters::new();
        let rec = IoRecord {
            host: NodeId(0),
            worker,
            thread: ThreadId(42),
            file: FileId(7),
            op: IoOp::Read,
            offset: 0,
            size: 4096,
            start: Time(100),
            stop: Time(200),
        };
        counters.record(&rec);
        DarshanLog {
            header: LogHeader {
                run: RunId(3),
                job_id: 1001,
                worker,
                hostname: "nid0000".into(),
                start: Time(100),
                end: Time(200),
                dxt_truncated: truncated,
                dxt_dropped: u64::from(truncated) * 5,
            },
            counters,
            dxt: vec![rec],
        }
    }

    #[test]
    fn binary_layout() {
        let log = sample_log(false);
        let bytes = log.to_bytes();
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(bytes[8..12], VERSION.to_le_bytes());
        let len = (bytes.len() - HEADER_LEN) as u64;
        assert_eq!(bytes[12..HEADER_LEN], len.to_le_bytes());
        // the payload rendered behind the header is the standalone rendering
        assert_eq!(&bytes[HEADER_LEN..], serde_json::to_vec(&log).unwrap());
    }

    #[test]
    fn logset_binary_roundtrip() {
        let mut truncated = sample_log(true);
        truncated.header.hostname = "nœud-07 ノード".into();
        truncated.header.worker = WorkerId::new(NodeId(4096), 3);
        truncated.dxt.push(IoRecord {
            thread: ThreadId(0x7f00_dead_beef),
            file: FileId(u64::MAX),
            offset: 1 << 40,
            stop: Time(u64::MAX),
            ..truncated.dxt[0]
        });
        let mut no_trace = sample_log(false);
        no_trace.dxt.clear();
        for set in [LogSet::default(), LogSet::new(vec![sample_log(false), truncated, no_trace])] {
            let bytes = binfmt::encode(&set);
            let back: LogSet = binfmt::decode(&bytes).unwrap();
            assert_eq!(back, set);
            assert_eq!(binfmt::encode(&back), bytes, "re-encoding is byte-equal");
        }
    }

    #[test]
    fn logset_binary_rejects_truncation_and_forged_counts() {
        let decode = binfmt::decode::<LogSet>;
        let bytes = binfmt::encode(&LogSet::new(vec![sample_log(true)]));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
        // a log count of 2^40 is refused before anything is reserved
        let mut forged = Vec::new();
        put_varint(&mut forged, 1 << 40);
        forged.extend_from_slice(&bytes[1..]);
        assert!(decode(&forged).is_err());
        // so is a DXT record count past what the bytes left could hold
        let mut forged = bytes.clone();
        let at = forged.len()
            - 1
            - sample_log(true).dxt.iter().map(|r| binfmt::encode(r).len()).sum::<usize>();
        assert_eq!(forged[at], 1, "the record count sits before the one record");
        forged[at] = 100;
        assert!(decode(&forged).is_err());
        // and a dxt_truncated byte other than 0/1
        let mut flag = bytes;
        // logs, run, job 1001, worker, hostname, start 100, end 200
        let at = 1 + 1 + 2 + 2 + 1 + "nid0000".len() + 1 + 2;
        assert_eq!(flag[at], 1, "the dxt_truncated byte");
        flag[at] = 2;
        assert!(decode(&flag).is_err());
    }

    #[test]
    fn logset_aggregates() {
        let set = LogSet::new(vec![sample_log(false), sample_log(true)]);
        assert_eq!(set.total_data_ops(), 2);
        assert_eq!(set.traced_data_ops(), 2);
        assert_eq!(set.distinct_files(), 1);
        assert!(set.any_truncated());
        assert!(set.total_io_time() > dtf_core::time::Dur::ZERO);
    }

    #[test]
    fn truncation_gap_visible_between_counters_and_dxt() {
        // counters see the op, DXT dropped it
        let mut log = sample_log(true);
        log.dxt.clear();
        let set = LogSet::new(vec![log]);
        assert_eq!(set.total_data_ops(), 1);
        assert_eq!(set.traced_data_ops(), 0);
    }
}

//! DXT (Darshan eXtended Tracing) module: full per-operation traces.
//!
//! Two fidelity details from the paper are modelled explicitly:
//!
//! * **pthread ids** — vanilla DXT records process/rank only; the authors
//!   extended it to record the POSIX thread id of every operation
//!   (§III-E3) so traces join with Dask task records. The
//!   `record_thread_ids` switch selects vanilla vs extended behaviour;
//!   with it off, thread ids are scrubbed to 0 and task-level joins become
//!   impossible (the ablation demonstrates this).
//! * **bounded trace buffers** — Darshan caps per-process DXT memory; when
//!   the cap is hit, further records are silently dropped. The paper's
//!   footnote 9 reports ResNet152 I/O counts being incomplete for exactly
//!   this reason. [`DxtModule`] counts drops and flags truncation.

use dtf_core::events::IoRecord;
use dtf_core::ids::ThreadId;

dtf_core::wire_struct! {
    /// DXT configuration, archived with the run's simulator config in its
    /// `run-meta` document.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DxtConfig {
        /// Maximum records buffered per process; further records are
        /// dropped. Darshan's default DXT memory of 2 MiB holds on the
        /// order of a few tens of thousands of trace segments.
        pub max_records: usize,
        /// The paper's extension: record pthread ids. Off = vanilla DXT.
        pub record_thread_ids: bool,
    }
}

impl Default for DxtConfig {
    fn default() -> Self {
        Self { max_records: 32_768, record_thread_ids: true }
    }
}

impl DxtConfig {
    /// Vanilla Darshan DXT (no thread ids), for the ablation.
    pub fn vanilla() -> Self {
        Self { record_thread_ids: false, ..Self::default() }
    }

    /// A deliberately small buffer, reproducing the footnote-9 truncation.
    pub fn with_buffer(max_records: usize) -> Self {
        Self { max_records, ..Self::default() }
    }
}

/// The per-process DXT trace buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct DxtModule {
    cfg: DxtConfig,
    records: Vec<IoRecord>,
    dropped: u64,
}

impl DxtModule {
    pub fn new(cfg: DxtConfig) -> Self {
        Self { cfg, records: Vec::new(), dropped: 0 }
    }

    /// Trace one operation. Returns `false` if the buffer is full and the
    /// record was dropped (Darshan keeps the head of the trace).
    pub fn push(&mut self, mut rec: IoRecord) -> bool {
        if self.records.len() >= self.cfg.max_records {
            self.dropped += 1;
            return false;
        }
        if !self.cfg.record_thread_ids {
            rec.thread = ThreadId(0);
        }
        self.records.push(rec);
        true
    }

    pub fn records(&self) -> &[IoRecord] {
        &self.records
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the trace is incomplete (buffer overflowed at least once).
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::IoOp;

    use dtf_core::ids::{FileId, NodeId, WorkerId};
    use dtf_core::time::Time;

    fn rec(tid: u64) -> IoRecord {
        IoRecord {
            host: NodeId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(tid),
            file: FileId(0),
            op: IoOp::Read,
            offset: 0,
            size: 4096,
            start: Time(0),
            stop: Time(10),
        }
    }

    #[test]
    fn records_are_kept_in_push_order() {
        let mut dxt = DxtModule::new(DxtConfig::default());
        for i in 0..5 {
            assert!(dxt.push(rec(i)));
        }
        assert_eq!(dxt.len(), 5);
        let tids: Vec<u64> = dxt.records().iter().map(|r| r.thread.0).collect();
        assert_eq!(tids, vec![0, 1, 2, 3, 4]);
        assert!(!dxt.truncated());
    }

    #[test]
    fn buffer_overflow_truncates_and_counts_drops() {
        let mut dxt = DxtModule::new(DxtConfig::with_buffer(3));
        for i in 0..10 {
            dxt.push(rec(i));
        }
        assert_eq!(dxt.len(), 3);
        assert_eq!(dxt.dropped(), 7);
        assert!(dxt.truncated());
        // the first records survive (Darshan keeps the head of the trace)
        assert_eq!(dxt.records()[0].thread.0, 0);
        assert_eq!(dxt.records()[2].thread.0, 2);
    }

    #[test]
    fn vanilla_mode_scrubs_thread_ids() {
        let mut dxt = DxtModule::new(DxtConfig::vanilla());
        dxt.push(rec(0x7f00_1234));
        assert_eq!(dxt.records()[0].thread, ThreadId(0));
    }

    #[test]
    fn extended_mode_preserves_thread_ids() {
        let mut dxt = DxtModule::new(DxtConfig::default());
        dxt.push(rec(0x7f00_1234));
        assert_eq!(dxt.records()[0].thread, ThreadId(0x7f00_1234));
    }
}

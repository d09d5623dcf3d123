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

/// How the tracer reacts when its buffer budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Darshan's behaviour: silently drop further records (footnote 9).
    #[default]
    Truncate,
    /// The paper's future-work idea of "dynamically adjusting our data
    /// capture in response to changes in workflow behavior": once the
    /// budget is hit, halve the sampling rate (keep every 2nd, then every
    /// 4th, ... record) so the trace stays time-representative instead of
    /// stopping dead, while never exceeding ~2x the budget.
    Adaptive,
}

/// DXT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DxtConfig {
    /// Maximum records buffered per process before the overflow policy
    /// applies. Darshan's default DXT memory of 2 MiB holds on the order
    /// of a few tens of thousands of trace segments.
    pub max_records: usize,
    /// The paper's extension: record pthread ids. Off = vanilla DXT.
    pub record_thread_ids: bool,
    /// What to do on buffer exhaustion.
    pub overflow: OverflowPolicy,
}

impl Default for DxtConfig {
    fn default() -> Self {
        Self { max_records: 32_768, record_thread_ids: true, overflow: OverflowPolicy::Truncate }
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
    /// Adaptive mode: keep every `2^level`-th record once over budget.
    sample_level: u32,
    /// Operations seen since entering the current sampling level.
    seen_at_level: u64,
}

impl DxtModule {
    pub fn new(cfg: DxtConfig) -> Self {
        Self { cfg, records: Vec::new(), dropped: 0, sample_level: 0, seen_at_level: 0 }
    }

    /// Trace one operation. Returns `false` if the record was dropped
    /// (truncation or adaptive downsampling).
    pub fn push(&mut self, mut rec: IoRecord) -> bool {
        // adaptive mode: incoming operations are sampled at the current
        // stride, so the tail of the run stays represented
        if self.sample_level > 0 {
            let stride = 1u64 << self.sample_level.min(63);
            let keep = self.seen_at_level.is_multiple_of(stride);
            self.seen_at_level += 1;
            if !keep {
                self.dropped += 1;
                return false;
            }
        }
        if self.records.len() >= self.cfg.max_records {
            match self.cfg.overflow {
                OverflowPolicy::Truncate => {
                    self.dropped += 1;
                    return false;
                }
                OverflowPolicy::Adaptive => {
                    // decimate: drop every other stored record and halve the
                    // future capture rate; memory never exceeds the budget
                    // and the kept trace stays uniform over time
                    let mut i = 0usize;
                    let before = self.records.len();
                    self.records.retain(|_| {
                        i += 1;
                        i % 2 == 1
                    });
                    self.dropped += (before - self.records.len()) as u64;
                    self.sample_level += 1;
                    self.seen_at_level = 1; // this record counts as sampled
                }
            }
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

    fn adaptive(max_records: usize) -> DxtConfig {
        DxtConfig { overflow: OverflowPolicy::Adaptive, ..DxtConfig::with_buffer(max_records) }
    }

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

    #[test]
    fn adaptive_mode_downsamples_instead_of_stopping() {
        let mut dxt = DxtModule::new(adaptive(100));
        for i in 0..1000 {
            dxt.push(rec(i));
        }
        // memory never exceeds the budget; decimation keeps >= budget/2
        assert!(dxt.len() <= 100, "bounded by the budget: {}", dxt.len());
        assert!(dxt.len() >= 50, "decimation keeps at least half: {}", dxt.len());
        assert!(dxt.truncated(), "drops are still accounted");
        // crucially, the *tail* of the workload is still represented
        let max_tid = dxt.records().iter().map(|r| r.thread.0).max().unwrap();
        assert!(max_tid > 900, "late operations sampled, not cut off: {max_tid}");
        // and coverage is roughly uniform: records exist in every quarter
        for q in 0..4u64 {
            assert!(
                dxt.records().iter().any(|r| r.thread.0 >= q * 250 && r.thread.0 < (q + 1) * 250),
                "quarter {q} unrepresented"
            );
        }
    }

    #[test]
    fn adaptive_mode_below_budget_is_lossless() {
        let mut dxt = DxtModule::new(adaptive(100));
        for i in 0..100 {
            assert!(dxt.push(rec(i)));
        }
        assert_eq!(dxt.len(), 100);
        assert!(!dxt.truncated());
    }

    #[test]
    fn truncate_mode_loses_the_tail_adaptive_does_not() {
        let mut trunc = DxtModule::new(DxtConfig::with_buffer(50));
        let mut adapt = DxtModule::new(adaptive(50));
        for i in 0..500 {
            trunc.push(rec(i));
            adapt.push(rec(i));
        }
        let t_max = trunc.records().iter().map(|r| r.thread.0).max().unwrap();
        let a_max = adapt.records().iter().map(|r| r.thread.0).max().unwrap();
        assert_eq!(t_max, 49, "truncation keeps only the head");
        assert!(a_max > 400, "adaptive covers the whole run");
    }
}

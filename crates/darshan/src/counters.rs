//! POSIX counters module: aggregate per-file statistics, Darshan-style.
//!
//! Darshan's POSIX module keeps, per (process, file), operation counts,
//! byte totals, cumulative operation time, extremal access sizes, and a
//! histogram of access sizes. These aggregates are cheap enough to keep for
//! every file (unlike full traces) and are what most Darshan analyses start
//! from.
//!
//! Binary form (inside a `run-meta` log set): [`PosixCounters`] is its map,
//! a file count and then, in `FileId` order, each id followed by that
//! file's [`FileCounters`] fields in declaration order — `Option`s as
//! binfmt options, the ten histogram buckets last.

use serde::Serialize;
use std::collections::BTreeMap;

use dtf_core::events::{IoOp, IoRecord};
use dtf_core::ids::FileId;
use dtf_core::time::{Dur, Time};

/// Darshan-style access-size buckets.
#[allow(non_camel_case_types)] // names mirror Darshan's POSIX_SIZE_*_* counters
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SizeBucket {
    B0_100,
    B100_1K,
    B1K_10K,
    B10K_100K,
    B100K_1M,
    B1M_4M,
    B4M_10M,
    B10M_100M,
    B100M_1G,
    B1GPlus,
}

impl SizeBucket {
    pub fn of(size: u64) -> Self {
        match size {
            0..=100 => SizeBucket::B0_100,
            101..=1_000 => SizeBucket::B100_1K,
            1_001..=10_000 => SizeBucket::B1K_10K,
            10_001..=100_000 => SizeBucket::B10K_100K,
            100_001..=1_000_000 => SizeBucket::B100K_1M,
            1_000_001..=4_000_000 => SizeBucket::B1M_4M,
            4_000_001..=10_000_000 => SizeBucket::B4M_10M,
            10_000_001..=100_000_000 => SizeBucket::B10M_100M,
            100_000_001..=1_000_000_000 => SizeBucket::B100M_1G,
            _ => SizeBucket::B1GPlus,
        }
    }

    pub const ALL: [SizeBucket; 10] = [
        SizeBucket::B0_100,
        SizeBucket::B100_1K,
        SizeBucket::B1K_10K,
        SizeBucket::B10K_100K,
        SizeBucket::B100K_1M,
        SizeBucket::B1M_4M,
        SizeBucket::B4M_10M,
        SizeBucket::B10M_100M,
        SizeBucket::B100M_1G,
        SizeBucket::B1GPlus,
    ];

    /// Position in [`SizeBucket::ALL`]: the declaration order, which `ALL`
    /// lists.
    fn index(&self) -> usize {
        *self as usize
    }
}

dtf_core::wire_struct! {
    /// Aggregated counters for one file within one process.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct FileCounters {
        pub opens: u64,
        pub closes: u64,
        pub reads: u64,
        pub writes: u64,
        pub bytes_read: u64,
        pub bytes_written: u64,
        /// Cumulative time in read operations.
        pub read_time: Dur,
        /// Cumulative time in write operations.
        pub write_time: Dur,
        /// Cumulative time in metadata operations (open/close).
        pub meta_time: Dur,
        pub max_read_size: u64,
        pub max_write_size: u64,
        /// Slowest single operation observed.
        pub slowest_op: Dur,
        /// Timestamp of the first operation on this file.
        pub first_op: Option<Time>,
        /// Timestamp of the last operation's completion.
        pub last_op: Option<Time>,
        /// Access-size histogram over reads and writes (index = `SizeBucket`).
        pub size_histogram: [u64; 10],
    }
}

impl Default for FileCounters {
    fn default() -> Self {
        Self {
            opens: 0,
            closes: 0,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            read_time: Dur::ZERO,
            write_time: Dur::ZERO,
            meta_time: Dur::ZERO,
            max_read_size: 0,
            max_write_size: 0,
            slowest_op: Dur::ZERO,
            first_op: None,
            last_op: None,
            size_histogram: [0; 10],
        }
    }
}

impl FileCounters {
    fn update(&mut self, rec: &IoRecord) {
        let dur = rec.duration();
        match rec.op {
            IoOp::Open => {
                self.opens += 1;
                self.meta_time += dur;
            }
            IoOp::Close => {
                self.closes += 1;
                self.meta_time += dur;
            }
            IoOp::Read => {
                self.reads += 1;
                self.bytes_read += rec.size;
                self.read_time += dur;
                self.max_read_size = self.max_read_size.max(rec.size);
                self.size_histogram[SizeBucket::of(rec.size).index()] += 1;
            }
            IoOp::Write => {
                self.writes += 1;
                self.bytes_written += rec.size;
                self.write_time += dur;
                self.max_write_size = self.max_write_size.max(rec.size);
                self.size_histogram[SizeBucket::of(rec.size).index()] += 1;
            }
        }
        self.slowest_op = self.slowest_op.max(dur);
        self.first_op = Some(self.first_op.map_or(rec.start, |t| t.min(rec.start)));
        self.last_op = Some(self.last_op.map_or(rec.stop, |t| t.max(rec.stop)));
    }

    /// Total data operations (reads + writes) — the paper's Table I counts
    /// "I/O operations" at this granularity.
    pub fn data_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total time spent in I/O on this file (read + write + metadata).
    pub fn total_time(&self) -> Dur {
        self.read_time + self.write_time + self.meta_time
    }
}

dtf_core::wire_struct! {
    /// The per-process POSIX counters module.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct PosixCounters {
        per_file: BTreeMap<FileId, FileCounters>,
    }
}

impl PosixCounters {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, rec: &IoRecord) {
        self.per_file.entry(rec.file).or_default().update(rec);
    }

    pub fn file(&self, id: FileId) -> Option<&FileCounters> {
        self.per_file.get(&id)
    }

    pub fn files(&self) -> impl Iterator<Item = (&FileId, &FileCounters)> {
        self.per_file.iter()
    }

    pub fn file_count(&self) -> usize {
        self.per_file.len()
    }

    /// Process-wide totals, folded over files.
    pub fn totals(&self) -> FileCounters {
        let mut t = FileCounters::default();
        for c in self.per_file.values() {
            t.opens += c.opens;
            t.closes += c.closes;
            t.reads += c.reads;
            t.writes += c.writes;
            t.bytes_read += c.bytes_read;
            t.bytes_written += c.bytes_written;
            t.read_time += c.read_time;
            t.write_time += c.write_time;
            t.meta_time += c.meta_time;
            t.max_read_size = t.max_read_size.max(c.max_read_size);
            t.max_write_size = t.max_write_size.max(c.max_write_size);
            t.slowest_op = t.slowest_op.max(c.slowest_op);
            t.first_op = match (t.first_op, c.first_op) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            t.last_op = match (t.last_op, c.last_op) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            for i in 0..10 {
                t.size_histogram[i] += c.size_histogram[i];
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::binfmt::{self, put_varint};
    use dtf_core::ids::{NodeId, ThreadId, WorkerId};

    fn rec(file: u64, op: IoOp, size: u64, start: f64, stop: f64) -> IoRecord {
        IoRecord {
            host: NodeId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            file: FileId(file),
            op,
            offset: 0,
            size,
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(stop),
        }
    }

    #[test]
    fn buckets_cover_ranges() {
        assert_eq!(SizeBucket::of(0), SizeBucket::B0_100);
        assert_eq!(SizeBucket::of(100), SizeBucket::B0_100);
        assert_eq!(SizeBucket::of(101), SizeBucket::B100_1K);
        assert_eq!(SizeBucket::of(4 * 1024 * 1024), SizeBucket::B4M_10M);
        assert_eq!(SizeBucket::of(2_000_000_000), SizeBucket::B1GPlus);
        // a bucket's histogram slot is its place in ALL
        for (i, bucket) in SizeBucket::ALL.iter().enumerate() {
            assert_eq!(bucket.index(), i, "{bucket:?}");
        }
    }

    #[test]
    fn counters_accumulate_reads_and_writes() {
        let mut c = PosixCounters::new();
        c.record(&rec(1, IoOp::Open, 0, 0.0, 0.001));
        c.record(&rec(1, IoOp::Read, 4_000_000, 0.001, 0.101));
        c.record(&rec(1, IoOp::Read, 4_000_000, 0.101, 0.181));
        c.record(&rec(1, IoOp::Write, 1000, 0.2, 0.21));
        c.record(&rec(1, IoOp::Close, 0, 0.21, 0.2105));
        let f = c.file(FileId(1)).unwrap();
        assert_eq!((f.opens, f.closes, f.reads, f.writes), (1, 1, 2, 1));
        assert_eq!(f.bytes_read, 8_000_000);
        assert_eq!(f.bytes_written, 1000);
        assert_eq!(f.max_read_size, 4_000_000);
        assert_eq!(f.data_ops(), 3);
        assert!((f.read_time.as_secs_f64() - 0.18).abs() < 1e-9);
        assert_eq!(f.first_op, Some(Time::ZERO));
        assert_eq!(f.last_op, Some(Time::from_secs_f64(0.2105)));
        // histogram: two reads in 1M-4M, one write in 100-1K
        assert_eq!(f.size_histogram[SizeBucket::B1M_4M.index()], 2);
        assert_eq!(f.size_histogram[SizeBucket::B100_1K.index()], 1);
    }

    #[test]
    fn slowest_op_tracked() {
        let mut c = PosixCounters::new();
        c.record(&rec(1, IoOp::Read, 10, 0.0, 0.5));
        c.record(&rec(1, IoOp::Read, 10, 0.5, 0.6));
        assert!((c.file(FileId(1)).unwrap().slowest_op.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn totals_fold_across_files() {
        let mut c = PosixCounters::new();
        c.record(&rec(1, IoOp::Read, 100, 0.0, 0.1));
        c.record(&rec(2, IoOp::Write, 200, 1.0, 1.2));
        assert_eq!(c.file_count(), 2);
        let t = c.totals();
        assert_eq!(t.reads, 1);
        assert_eq!(t.writes, 1);
        assert_eq!(t.bytes_read, 100);
        assert_eq!(t.bytes_written, 200);
        assert_eq!(t.first_op, Some(Time::ZERO));
        assert_eq!(t.last_op, Some(Time::from_secs_f64(1.2)));
    }

    #[test]
    fn empty_totals_are_zero() {
        let t = PosixCounters::new().totals();
        assert_eq!(t.data_ops(), 0);
        assert_eq!(t.first_op, None);
        assert_eq!(t.total_time(), Dur::ZERO);
    }

    #[test]
    fn binary_roundtrip_keeps_every_field() {
        let mut c = PosixCounters::new();
        c.record(&rec(9, IoOp::Open, 0, 0.0, 0.001));
        c.record(&rec(9, IoOp::Write, 2_000_000_000, 0.1, 7.5));
        c.record(&rec(1 << 40, IoOp::Read, 64, 1.0, 1.25));
        // a file entry no timed op reached: first_op/last_op stay None
        c.per_file.insert(FileId(u64::MAX), FileCounters { opens: 3, ..Default::default() });
        for c in [PosixCounters::new(), c] {
            let bytes = binfmt::encode(&c);
            let back: PosixCounters = binfmt::decode(&bytes).unwrap();
            assert_eq!(back, c);
            assert_eq!(binfmt::encode(&back), bytes);
        }
    }

    #[test]
    fn binary_decode_rejects_unordered_files_and_forged_counts() {
        let decode = binfmt::decode::<PosixCounters>;
        let mut c = PosixCounters::new();
        c.record(&rec(1, IoOp::Read, 10, 0.0, 0.1));
        c.record(&rec(2, IoOp::Read, 10, 0.0, 0.1));
        let bytes = binfmt::encode(&c);
        // swap the two entries' file ids (each entry starts with its id)
        let entry = (bytes.len() - 1) / 2;
        let mut swapped = bytes.clone();
        swapped[1] = 2;
        swapped[1 + entry] = 1;
        assert!(decode(&swapped).is_err());
        let mut dup = bytes.clone();
        dup[1 + entry] = 1;
        assert!(decode(&dup).is_err());
        // a file count of 2^40 is refused before anything is reserved
        let mut forged = Vec::new();
        put_varint(&mut forged, 1 << 40);
        forged.extend_from_slice(&bytes[1..]);
        assert!(decode(&forged).is_err());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = PosixCounters::new();
        c.record(&rec(1, IoOp::Read, 100, 0.0, 0.1));
        let s = serde_json::to_string(&c).unwrap();
        assert_eq!(serde_json::from_str(&s).unwrap(), serde_json::to_value(&c).unwrap());
    }
}

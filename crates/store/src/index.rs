//! The indexed archive reader.
//!
//! [`LogReader`] opens a log directory by the log's own recovery scan
//! (`log::recover`) — the same walk, the same repairs and the same
//! [`RecoveryReport`] as [`crate::log::SegmentedLog::open`] — and keeps
//! from it, per segment, a **sparse index**: the byte offset of every
//! [`DEFAULT_STRIDE`]-th record. Point and range reads then seek to a
//! block instead of scanning the log from byte zero, through a
//! [`BlockCache`] of stride-sized blocks. The index lives in memory only;
//! nothing but segment files is on disk. No store of the Mofka analog
//! reads through it — Yokan, Warabi and the topic log all recover through
//! [`crate::log::SegmentedLog::open`] — so it serves the benchmark's
//! indexed-read rows alone.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use dtf_core::error::Result;

use crate::cache::{BlockCache, CacheStats, DEFAULT_CACHE_BYTES};
use crate::crc32::crc32;
use crate::log::{frame_len, le_u32, recover, KeptSegment, RecoveryReport, FRAME_OVERHEAD};

/// Records per sparse-index entry (and per cached block).
pub const DEFAULT_STRIDE: u32 = 64;

/// The sparse index of one segment the recovery scan kept. Entry `j` of
/// `offsets` is the byte offset (from the segment start, header included)
/// of record `first_record + j *` [`DEFAULT_STRIDE`].
#[derive(Debug)]
struct SegmentIndex {
    seg: KeptSegment,
    offsets: Vec<u32>,
}

impl SegmentIndex {
    /// The block holding record `rec` (global index): returns the block
    /// number and its byte span `[start, end)` within the segment.
    fn block_of(&self, rec: u64) -> Option<(u32, u32, u32)> {
        let seg = &self.seg;
        if rec < seg.first_record || rec >= seg.first_record + seg.records {
            return None;
        }
        let block = ((rec - seg.first_record) / DEFAULT_STRIDE as u64) as usize;
        let start = *self.offsets.get(block)?;
        let end = self.offsets.get(block + 1).copied().unwrap_or(seg.len as u32);
        Some((block as u32, start, end))
    }
}

/// Options for [`LogReader::open`]. None are left: every caller took the
/// same values, which are now fixed — a [`DEFAULT_CACHE_BYTES`] block
/// cache and a [`DEFAULT_STRIDE`]-record index stride.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderOptions;

/// Read-only indexed view of a segmented log directory.
///
/// Opening makes the recovery scan's repairs — a torn tail is truncated,
/// segments past a damaged header or a tear are dropped — and reads every
/// body to do so, so the reader holds exactly the records a reopening
/// writer would. A record whose bytes change on disk after the open reads
/// as `None` from [`LogReader::get`].
#[derive(Debug)]
pub struct LogReader {
    segs: Vec<SegmentIndex>,
    records: u64,
    cache: Mutex<BlockCache>,
}

impl LogReader {
    /// Open `dir` read-only (beyond recovery repairs; see type docs). A
    /// missing or empty directory is an empty reader, and nothing is
    /// created.
    pub fn open(dir: &Path, _opts: ReaderOptions) -> Result<(Self, RecoveryReport)> {
        let mut offsets = Vec::new();
        let (kept, report) = recover(dir, |nth, off, _| {
            if nth.is_multiple_of(DEFAULT_STRIDE as u64) {
                offsets.push(off as u32);
            }
        })?;
        // the walk visits segments in order: deal the offsets back out
        let mut offsets = offsets.into_iter();
        let segs = kept
            .into_iter()
            .map(|seg| SegmentIndex {
                offsets: offsets
                    .by_ref()
                    .take(seg.records.div_ceil(DEFAULT_STRIDE as u64) as usize)
                    .collect(),
                seg,
            })
            .collect();
        let cache = Mutex::new(BlockCache::new(DEFAULT_CACHE_BYTES));
        Ok((Self { segs, records: report.records, cache }, report))
    }

    /// Total records visible to this reader.
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// The block cache, taken as it stands if a thread panicked holding
    /// it: its map only ever holds whole blocks under their own keys, so a
    /// lookup never returns a torn one; at worst its LRU order is off.
    fn cache(&self) -> MutexGuard<'_, BlockCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Point read of record `idx` through the block cache. `None` for an
    /// index past the end *or* a record whose bytes no longer verify —
    /// the dangling-record semantics of a recovered store.
    pub fn get(&self, idx: u64) -> Option<Bytes> {
        let seg = self.seg_for(idx)?;
        let (block, start, end) = seg.block_of(idx)?;
        let data = self.block_bytes(seg, block, start, end)?;
        // hop the frames inside the block to the target record
        let skip = (idx - seg.seg.first_record) % DEFAULT_STRIDE as u64;
        let mut off = 0usize;
        for _ in 0..skip {
            let len = frame_len(&data, off)?;
            off += FRAME_OVERHEAD + len;
        }
        let len = frame_len(&data, off)?;
        let crc = le_u32(&data, off + 4)?;
        let payload = data.slice(off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len);
        (crc32(&payload) == crc).then_some(payload)
    }

    /// Range read of up to `n` records starting at `start`, stopping at
    /// the end of the log or the first unreadable record. Sequential
    /// block hops; each block is read (and cached) once.
    pub fn range(&self, start: u64, n: usize) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(n.min(4096));
        for idx in start..self.records.min(start.saturating_add(n as u64)) {
            match self.get(idx) {
                Some(b) => out.push(b),
                None => break,
            }
        }
        out
    }

    fn seg_for(&self, idx: u64) -> Option<&SegmentIndex> {
        if idx >= self.records {
            return None;
        }
        let at = self.segs.partition_point(|s| s.seg.first_record <= idx);
        self.segs.get(at.checked_sub(1)?)
    }

    fn block_bytes(&self, index: &SegmentIndex, block: u32, start: u32, end: u32) -> Option<Bytes> {
        let seg = &index.seg;
        if let Some(hit) = self.cache().get(seg.seqno, block) {
            return Some(hit);
        }
        let mut f = File::open(&seg.path).ok()?;
        f.seek(SeekFrom::Start(start as u64)).ok()?;
        let mut buf = vec![0u8; (end - start) as usize];
        f.read_exact(&mut buf).ok()?;
        let data = Bytes::from(buf);
        self.cache().insert(seg.seqno, block, data.clone());
        Some(data)
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use super::*;
    use crate::log::{segment_paths, FlushPolicy, LogConfig, SegmentedLog};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-index-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn build_log(dir: &Path, n: u64, seg_bytes: u64) {
        let cfg =
            LogConfig { segment_bytes: seg_bytes, flush: FlushPolicy::Manual, sync_data: false };
        let (mut log, _, _) = SegmentedLog::open(dir, cfg).unwrap();
        for i in 0..n {
            log.append(format!("record-{i:06}").as_bytes()).unwrap();
        }
        log.sync().unwrap();
    }

    #[test]
    fn reader_point_and_range_match_full_scan() {
        let dir = tmpdir("reader");
        build_log(&dir, 500, 512); // many segments
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert_eq!(reader.records(), 500);
        assert!(!report.torn);
        assert!(report.segments > 3);
        for idx in [0u64, 1, 63, 64, 250, 499] {
            assert_eq!(reader.get(idx).unwrap().as_ref(), format!("record-{idx:06}").as_bytes());
        }
        assert!(reader.get(500).is_none());
        let r = reader.range(100, 50);
        assert_eq!(r.len(), 50);
        assert_eq!(r[0].as_ref(), b"record-000100");
        assert_eq!(r[49].as_ref(), b"record-000149");
        let stats = reader.cache_stats();
        assert!(stats.hits > 0, "range reads inside one block must hit the cache");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_last_segment_is_repaired_at_open() {
        let dir = tmpdir("torn");
        build_log(&dir, 100, 1 << 20);
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 3).unwrap();
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert!(report.torn);
        assert_eq!(reader.records(), 99);
        assert!(reader.get(98).is_some());
        assert!(reader.get(99).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_an_empty_reader() {
        let dir = tmpdir("empty");
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert!(reader.is_empty() && report == RecoveryReport::default());
        assert!(!dir.exists(), "a missing directory stays missing");
        fs::create_dir_all(&dir).unwrap();
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert!(reader.is_empty());
        assert_eq!(report.records, 0);
        assert!(reader.get(0).is_none());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "an empty directory stays empty");
        fs::remove_dir_all(&dir).unwrap();
    }
}

//! Sparse per-segment indexes and the indexed archive reader.
//!
//! Every sealed segment `seg-<seqno>.dtl` can carry a sidecar
//! `seg-<seqno>.dti` holding a **sparse index**: the byte offset of every
//! `stride`-th record, so point and range lookups seek to a block instead
//! of scanning the log from byte zero. The writer seals one when it rolls
//! past a segment.
//!
//! Sidecars are **caches, never truth**. They are validated on load
//! (magic, CRC, seqno, first-record, and the exact segment byte length
//! they were built against) and rebuilt from the segment whenever they
//! are missing, stale, or corrupt; deleting every `.dti` merely costs the
//! rebuild. Durability never depends on them: the recovery scan ignores
//! them entirely.
//!
//! [`LogReader`] is the read-only archive view built on these sidecars: a
//! header-validated segment map where only the *last* segment's body is
//! scanned at open (the only place a torn tail can live), cold segments
//! are trusted via their CRC'd headers and sidecars, and reads go through
//! a [`BlockCache`] in stride-sized blocks. Every body it does scan goes
//! through the log's own frame scan (`scan_frames`). No
//! store of the Mofka analog reads through it — Yokan, Warabi and the
//! topic log all recover through [`crate::log::SegmentedLog::open`] — so
//! it serves the benchmark's indexed-read rows alone.

use std::fs::{self, File};
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bytes::Bytes;
use dtf_core::error::{DtfError, Result};

use crate::cache::{BlockCache, CacheStats, DEFAULT_CACHE_BYTES};
use crate::crc32::crc32;
use crate::log::{
    frame_len, header_fields, io_err, parse_seqno, scan_frames, segment_paths, truncate_segment,
    RecoveryReport, FRAME_OVERHEAD, HEADER_LEN,
};

/// Sidecar magic: 7 bytes + a version byte, mirroring the segment header.
const INDEX_MAGIC: &[u8; 7] = b"DTFIDX1";
const INDEX_VERSION: u8 = 1;
/// Records per sparse-index entry (and per cached block).
pub const DEFAULT_STRIDE: u32 = 64;
/// Fixed prefix of the sidecar before the entry array:
/// magic(7) + version(1) + seqno(8) + first_record(8) + records(4) +
/// seg_bytes(8) + stride(4) + has_keys(1, always 0) + n_entries(4).
const SIDECAR_FIXED: usize = 45;

/// The sparse index of one segment. Entry `j` is the byte offset (from
/// the segment start, header included) of record `first_record + j*stride`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    pub seqno: u64,
    pub first_record: u64,
    /// Records in this segment when the index was built.
    pub records: u32,
    /// Segment file length the index was built against — a cheap
    /// staleness check (appends and truncations both change it).
    pub seg_bytes: u64,
    pub stride: u32,
    pub offsets: Vec<u32>,
}

impl SegmentIndex {
    /// Sidecar path for a segment: `seg-<seqno>.dtl` → `seg-<seqno>.dti`.
    pub fn sidecar_path(seg: &Path) -> PathBuf {
        seg.with_extension("dti")
    }

    /// Index the segment at `seg` with the recovery scan's frame walk, at
    /// [`DEFAULT_STRIDE`]. Returns the index of its intact frame prefix
    /// and the bytes past that prefix: 0 for an intact segment, otherwise
    /// the tear recovery would cut. Only an unreadable file or a damaged
    /// header is an error.
    pub fn build(seg: &Path) -> Result<(Self, u64)> {
        let data = fs::read(seg).map_err(|e| io_err(seg, e))?;
        let (seqno, first_record) = header_fields(&data).ok_or_else(|| {
            DtfError::Io(
                ErrorKind::InvalidData,
                format!("{}: damaged segment header", seg.display()),
            )
        })?;
        let mut idx = Self {
            seqno,
            first_record,
            records: 0,
            seg_bytes: 0,
            stride: DEFAULT_STRIDE,
            offsets: Vec::new(),
        };
        let end = scan_frames(&data, |off, _| {
            if idx.records.is_multiple_of(DEFAULT_STRIDE) {
                idx.offsets.push(off as u32);
            }
            idx.records += 1;
        });
        idx.seg_bytes = end as u64;
        Ok((idx, (data.len() - end) as u64))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SIDECAR_FIXED + self.offsets.len() * 4 + 4);
        out.extend_from_slice(INDEX_MAGIC);
        out.push(INDEX_VERSION);
        out.extend_from_slice(&self.seqno.to_le_bytes());
        out.extend_from_slice(&self.first_record.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        out.extend_from_slice(&self.seg_bytes.to_le_bytes());
        out.extend_from_slice(&self.stride.to_le_bytes());
        out.push(0); // has_keys
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        for off in &self.offsets {
            out.extend_from_slice(&off.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(data: &[u8]) -> Option<Self> {
        if data.len() < SIDECAR_FIXED + 4 || &data[..7] != INDEX_MAGIC || data[7] != INDEX_VERSION {
            return None;
        }
        let body = &data[..data.len() - 4];
        let crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        if crc32(body) != crc {
            return None;
        }
        let seqno = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let first_record = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let records = u32::from_le_bytes(data[24..28].try_into().unwrap());
        let seg_bytes = u64::from_le_bytes(data[28..36].try_into().unwrap());
        let stride = u32::from_le_bytes(data[36..40].try_into().unwrap());
        let n = u32::from_le_bytes(data[41..45].try_into().unwrap()) as usize;
        // a keyed sidecar (has_keys set) is a layout nothing reads any more
        if stride == 0 || data[40] != 0 || body.len() != SIDECAR_FIXED + n * 4 {
            return None;
        }
        let offsets = body[SIDECAR_FIXED..]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Some(Self { seqno, first_record, records, seg_bytes, stride, offsets })
    }

    /// Load the sidecar next to `seg` and validate it against the segment
    /// as it exists *now*: same seqno, same first record, same byte
    /// length, expected record count. Any mismatch is `None` — the caller
    /// rebuilds.
    pub fn load_validated(seg: &Path, expect_first: u64, expect_records: u32) -> Option<Self> {
        let data = fs::read(Self::sidecar_path(seg)).ok()?;
        let idx = Self::decode(&data)?;
        let seg_len = fs::metadata(seg).ok()?.len();
        let expected_entries = (expect_records as usize).div_ceil(idx.stride.max(1) as usize);
        (Some(idx.seqno) == parse_seqno(seg)
            && idx.first_record == expect_first
            && idx.records == expect_records
            && idx.seg_bytes == seg_len
            && idx.offsets.len() == expected_entries)
            .then_some(idx)
    }

    /// Write the sidecar next to `seg`. Best-effort by contract: callers
    /// may ignore the error, since a missing sidecar only costs a rebuild.
    pub fn write(&self, seg: &Path) -> Result<()> {
        let path = Self::sidecar_path(seg);
        fs::write(&path, self.encode()).map_err(|e| io_err(&path, e))
    }

    /// The block holding record `rec` (global index): returns the block
    /// number and its byte span `[start, end)` within the segment.
    fn block_of(&self, rec: u64) -> Option<(u32, u32, u32)> {
        if rec < self.first_record || rec >= self.first_record + self.records as u64 {
            return None;
        }
        let block = ((rec - self.first_record) / self.stride as u64) as usize;
        let start = *self.offsets.get(block)?;
        let end = self.offsets.get(block + 1).copied().unwrap_or(self.seg_bytes as u32);
        Some((block as u32, start, end))
    }
}

/// Remove the sidecar of a segment, if present (used when recovery drops
/// or truncates the segment itself).
pub(crate) fn remove_sidecar(seg: &Path) {
    let _ = fs::remove_file(SegmentIndex::sidecar_path(seg));
}

/// Options for [`LogReader::open`]. None are left: every caller took the
/// same values, which are now fixed — a [`DEFAULT_CACHE_BYTES`] block
/// cache, [`DEFAULT_STRIDE`] for rebuilt sidecars, and rebuilt sidecars
/// persisted so the next open is cheap.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderOptions;

#[derive(Debug)]
struct SegMeta {
    path: PathBuf,
    index: SegmentIndex,
}

/// Read-only indexed view of a segmented log directory.
///
/// Opening performs the same *repairs* the recovery scan would make for
/// the damage classes it can see — a torn tail in the last segment is
/// truncated, segments past a damaged header are dropped — but bodies of
/// cold segments with valid sidecars are never read. Damage hiding in a
/// cold body surfaces as `None` from [`LogReader::get`] when (and only
/// when) that record is actually read, the same dangling semantics a
/// truncated store exposes.
#[derive(Debug)]
pub struct LogReader {
    segs: Vec<SegMeta>,
    records: u64,
    cache: Mutex<BlockCache>,
}

impl LogReader {
    /// Open `dir` read-only (beyond recovery repairs; see type docs).
    pub fn open(dir: &Path, _opts: ReaderOptions) -> Result<(Self, RecoveryReport)> {
        let paths = segment_paths(dir)?;
        let mut report = RecoveryReport::default();
        let mut survivors: Vec<(PathBuf, u64)> = Vec::new(); // path, first record
        let mut prev: Option<(u64, u64)> = None; // seqno, first_record
        let mut drop_from = None;
        for (i, path) in paths.iter().enumerate() {
            let head = read_header(path);
            let ok = head.is_some_and(|(seqno, first)| {
                Some(seqno) == parse_seqno(path)
                    && prev.map(|(ps, pf)| seqno == ps + 1 && first >= pf).unwrap_or(first == 0)
            });
            let Some((seqno, first)) = head.filter(|_| ok) else {
                drop_from = Some(i);
                break;
            };
            prev = Some((seqno, first));
            survivors.push((path.clone(), first));
        }
        if let Some(i) = drop_from {
            report.dropped_segments += paths.len() - i;
            for p in &paths[i..] {
                remove_sidecar(p);
                fs::remove_file(p).map_err(|e| io_err(p, e))?;
            }
        }

        let mut segs = Vec::with_capacity(survivors.len());
        let mut idx = 0usize;
        while idx < survivors.len() {
            let (path, first) = survivors[idx].clone();
            // a sealed segment's record count is fixed by its successor's
            // header; only the last segment's body is always scanned
            let sealed = survivors.get(idx + 1).map(|next| (next.1 - first) as u32);
            let index = match sealed.and_then(|n| SegmentIndex::load_validated(&path, first, n)) {
                Some(ix) => ix,
                None => {
                    let (ix, cut) = SegmentIndex::build(&path)?;
                    if cut == 0 && sealed.is_none_or(|n| ix.records == n) {
                        if sealed.is_some() {
                            let _ = ix.write(&path);
                        }
                    } else {
                        // a tear (or a record-count lie): recovery
                        // semantics — truncate here, drop the rest
                        truncate_segment(&path, ix.seg_bytes)?;
                        report.torn = true;
                        report.truncated_bytes += cut;
                        report.dropped_segments += survivors.len() - idx - 1;
                        for (p, _) in &survivors[idx + 1..] {
                            remove_sidecar(p);
                            fs::remove_file(p).map_err(|e| io_err(p, e))?;
                        }
                        survivors.truncate(idx + 1);
                    }
                    ix
                }
            };
            report.segments += 1;
            segs.push(SegMeta { path, index });
            idx += 1;
        }

        let records =
            segs.last().map(|s| s.index.first_record + s.index.records as u64).unwrap_or(0);
        report.records = records;
        let cache = Mutex::new(BlockCache::new(DEFAULT_CACHE_BYTES));
        Ok((Self { segs, records, cache }, report))
    }

    /// Total records visible to this reader.
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Point read of record `idx` through the block cache. `None` for an
    /// index past the end *or* a record whose bytes no longer verify —
    /// the dangling-record semantics of a recovered store.
    pub fn get(&self, idx: u64) -> Option<Bytes> {
        let seg = self.seg_for(idx)?;
        let (block, start, end) = seg.index.block_of(idx)?;
        let data = self.block_bytes(seg, block, start, end)?;
        // hop the frames inside the block to the target record
        let skip = (idx - seg.index.first_record) % seg.index.stride as u64;
        let mut off = 0usize;
        for _ in 0..skip {
            let len = frame_len(&data, off)?;
            off += FRAME_OVERHEAD + len;
        }
        let len = frame_len(&data, off)?;
        let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
        let payload = data.slice(off + 8..off + 8 + len);
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

    fn seg_for(&self, idx: u64) -> Option<&SegMeta> {
        if idx >= self.records {
            return None;
        }
        let at = self.segs.partition_point(|s| s.index.first_record <= idx);
        self.segs.get(at.checked_sub(1)?)
    }

    fn block_bytes(&self, seg: &SegMeta, block: u32, start: u32, end: u32) -> Option<Bytes> {
        let seqno = seg.index.seqno;
        if let Some(hit) = self.cache.lock().expect("cache lock").get(seqno, block) {
            return Some(hit);
        }
        let mut f = File::open(&seg.path).ok()?;
        f.seek(SeekFrom::Start(start as u64)).ok()?;
        let mut buf = vec![0u8; (end - start) as usize];
        f.read_exact(&mut buf).ok()?;
        let data = Bytes::from(buf);
        self.cache.lock().expect("cache lock").insert(seqno, block, data.clone());
        Some(data)
    }
}

/// Header fields of a segment file read without its body:
/// `(seqno, first_record)`. `None` when damaged.
fn read_header(path: &Path) -> Option<(u64, u64)> {
    let mut head = [0u8; HEADER_LEN];
    File::open(path).ok()?.read_exact(&mut head).ok()?;
    header_fields(&head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{FlushPolicy, LogConfig, SegmentedLog};

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
    fn sidecar_roundtrip_and_validation() {
        let dir = tmpdir("roundtrip");
        build_log(&dir, 100, 1 << 20);
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        let (built, cut) = SegmentIndex::build(&seg).unwrap();
        assert_eq!(cut, 0, "an intact segment");
        assert_eq!(built.records, 100);
        assert_eq!(built.offsets.len(), 2); // ceil(100/64)
        built.write(&seg).unwrap();
        let loaded = SegmentIndex::load_validated(&seg, 0, 100).unwrap();
        assert_eq!(loaded, built);
        // corrupt one byte: validation must reject, never misread
        let side = SegmentIndex::sidecar_path(&seg);
        let mut raw = fs::read(&side).unwrap();
        let at = raw.len() / 2;
        raw[at] ^= 0xff;
        fs::write(&side, &raw).unwrap();
        assert!(SegmentIndex::load_validated(&seg, 0, 100).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_sidecar_is_rejected_after_append() {
        let dir = tmpdir("stale");
        build_log(&dir, 10, 1 << 20);
        let seg = segment_paths(&dir).unwrap().pop().unwrap();
        SegmentIndex::build(&seg).unwrap().0.write(&seg).unwrap();
        // more appends change the segment length
        let cfg =
            LogConfig { segment_bytes: 1 << 20, flush: FlushPolicy::Manual, sync_data: false };
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg).unwrap();
        log.append(b"more").unwrap();
        log.sync().unwrap();
        drop(log);
        assert!(SegmentIndex::load_validated(&seg, 0, 10).is_none(), "stale by length");
        assert!(SegmentIndex::load_validated(&seg, 0, 11).is_none());
        fs::remove_dir_all(&dir).unwrap();
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
    fn deleting_sidecars_changes_nothing_but_rebuild_cost() {
        let dir = tmpdir("rebuild");
        build_log(&dir, 200, 512);
        let (reader, _) = LogReader::open(&dir, ReaderOptions).unwrap();
        let before: Vec<Bytes> = (0..200).map(|i| reader.get(i).unwrap()).collect();
        drop(reader);
        for seg in segment_paths(&dir).unwrap() {
            let _ = fs::remove_file(SegmentIndex::sidecar_path(&seg));
        }
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert_eq!(report.records, 200);
        for (i, b) in before.iter().enumerate() {
            assert_eq!(reader.get(i as u64).unwrap(), *b);
        }
        // rebuilt sidecars were persisted for the sealed segments
        let paths = segment_paths(&dir).unwrap();
        for seg in &paths[..paths.len() - 1] {
            assert!(SegmentIndex::sidecar_path(seg).exists(), "sidecar rebuilt and written");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sidecar_is_rebuilt_not_trusted() {
        let dir = tmpdir("corrupt-side");
        build_log(&dir, 200, 512);
        let paths = segment_paths(&dir).unwrap();
        let side = SegmentIndex::sidecar_path(&paths[0]);
        fs::write(&side, b"garbage that is not an index").unwrap();
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert_eq!(report.records, 200);
        assert_eq!(reader.get(0).unwrap().as_ref(), b"record-000000");
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
        fs::create_dir_all(&dir).unwrap();
        let (reader, report) = LogReader::open(&dir, ReaderOptions).unwrap();
        assert!(reader.is_empty());
        assert_eq!(report.records, 0);
        assert!(reader.get(0).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}

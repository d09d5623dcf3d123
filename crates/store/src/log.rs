//! The segmented append-only record log.
//!
//! On-disk layout: a directory of fixed-size segment files named
//! `seg-<seqno:016x>.dtl`. Each segment starts with a 28-byte header —
//! magic `DTFSEG1`, a format-version byte, the segment's sequence number,
//! the index of its first record, and a CRC32 of those 24 bytes —
//! followed by record frames: `len:u32le | crc32(payload):u32le |
//! payload`, with `len >= 1` — a zeroed frame would verify, so appends
//! refuse an empty payload and a scan treats length 0 as the tear. A
//! record never spans segments; a segment holds at least one
//! record even when the record alone exceeds the size cap (oversized
//! records simply get a segment to themselves).
//!
//! The version byte declares how record payloads are encoded; every
//! segment is stamped [`FORMAT_BINARY`], the one format this reader
//! understands. The log itself treats payloads as opaque; the byte exists
//! so a reader refuses a format it does not understand — the segment and
//! its successors are dropped like any damaged header — instead of
//! misparsing it.
//!
//! Appends accumulate in a memory buffer and reach the file as one write
//! (group commit) according to the [`FlushPolicy`]; `sync_data` is called
//! after each flush when [`LogConfig::sync_data`] is set. Dropping the log
//! flushes best-effort without fsync — the semantics of a clean process
//! exit. [`SegmentedLog::abandon`] discards the buffer instead, modelling
//! a hard crash for tests.
//!
//! **The failure rule.** The log keeps its first error. A failed append
//! (an empty record or one over [`MAX_RECORD_BYTES`] included), roll or
//! sync poisons
//! it: every later append is refused and every [`SegmentedLog::sync`]
//! returns that error, so nothing is logged after a lost record. Records
//! buffered before the poison are still written. A failed write or
//! `sync_data` discards the buffer, because part of it may already be on
//! disk, and writing it again would duplicate frames that recovery
//! accepts. Once poisoned, the only retry is a reopen, which recovers the
//! committed prefix.
//!
//! Opening a directory runs the recovery scan: segments are walked in
//! seqno order; a segment with a damaged header, a seqno gap, or a
//! first-record index that disagrees with the running count is dropped
//! along with everything after it; inside a segment, the first frame with
//! a bad length, a short read, or a CRC mismatch truncates the file at
//! that byte and drops all later segments. What survives is exactly the
//! committed prefix. The frame walk is `scan_frames`, the one scan every
//! reader of a segment runs.

use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use dtf_core::error::{DtfError, Result};

use crate::crc32::crc32;
use crate::index::{remove_sidecar, SegmentIndex, DEFAULT_STRIDE};

const MAGIC_PREFIX: &[u8; 7] = b"DTFSEG1";
/// Header byte 7: record payloads are binary-encoded (`dtf_core::binfmt`
/// for provenance records). A header carrying any other value is treated
/// as damaged and the segment (plus successors) is dropped.
pub const FORMAT_BINARY: u8 = 1;
/// Segment header length: magic(7) + format(1) + seqno(8) +
/// first_record(8) + crc(4).
pub const HEADER_LEN: usize = 28;
/// Frame overhead per record: len(4) + crc(4).
pub const FRAME_OVERHEAD: usize = 8;
/// Upper bound on one record's payload (a corrupted length field larger
/// than this is rejected without attempting the read).
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// When buffered appends are written (and optionally fsynced) to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every append — maximum durability, one I/O per record.
    EveryRecord,
    /// Group commit: flush once `n` records are pending.
    EveryN(u32),
    /// Only explicit [`SegmentedLog::sync`] calls flush.
    Manual,
}

/// Log tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Target segment size in bytes; a segment rolls when the next frame
    /// would exceed it (but always holds at least one record).
    pub segment_bytes: u64,
    pub flush: FlushPolicy,
    /// Call `sync_data` after each flush (fsync durability). Off, a flush
    /// reaches the OS page cache — durable across process death, not
    /// power loss.
    pub sync_data: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self { segment_bytes: 256 << 10, flush: FlushPolicy::EveryN(256), sync_data: true }
    }
}

/// What the recovery scan found and repaired while opening a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments that passed header validation.
    pub segments: usize,
    /// Records recovered (the committed prefix).
    pub records: u64,
    /// Bytes cut off a torn tail.
    pub truncated_bytes: u64,
    /// Segment files dropped (damaged header, seqno gap, or past a tear).
    pub dropped_segments: usize,
    /// Whether a torn/corrupt tail was found and truncated.
    pub torn: bool,
}

/// The writer's one I/O seam: the appends and data syncs of the active
/// segment. Production writes the segment's [`File`]; tests substitute one
/// that fails. Segment creation, recovery's truncation and the directory
/// fsync go to `std::fs` directly.
pub(crate) trait SegmentFile: std::fmt::Debug + Send + Sync {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;
    fn sync_data(&mut self) -> std::io::Result<()>;
}

impl SegmentFile for File {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        File::sync_data(self)
    }
}

/// A segmented append-only record log rooted at one directory.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    cfg: LogConfig,
    file: Box<dyn SegmentFile>,
    seg_seqno: u64,
    /// Bytes in the current segment, committed and pending.
    seg_len: u64,
    /// Records appended over the log's lifetime (committed and pending).
    records: u64,
    /// Records written to the file (the crash-durable prefix).
    committed: u64,
    pending: Vec<u8>,
    pending_records: u64,
    /// First record index of the current segment.
    seg_first: u64,
    /// Byte offsets of every [`DEFAULT_STRIDE`]-th record in the current
    /// segment, tracked while appending so sealing the segment writes its
    /// index sidecar without a rescan.
    seg_offsets: Vec<u32>,
    /// The first failed append, roll or sync (see the module docs).
    poison: Option<DtfError>,
}

pub(crate) fn io_err(path: &Path, e: std::io::Error) -> DtfError {
    DtfError::Io(e.kind(), format!("{}: {e}", path.display()))
}

pub(crate) fn segment_name(seqno: u64) -> String {
    format!("seg-{seqno:016x}.dtl")
}

fn header_bytes(seqno: u64, first_record: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..7].copy_from_slice(MAGIC_PREFIX);
    h[7] = FORMAT_BINARY;
    h[8..16].copy_from_slice(&seqno.to_le_bytes());
    h[16..24].copy_from_slice(&first_record.to_le_bytes());
    let crc = crc32(&h[..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validate a segment header's fixed fields (magic, known format, CRC)
/// and return `(seqno, first_record)`. `None` when damaged. The caller
/// still owns the chain checks (seqno matches the filename and the
/// previous segment, first_record matches the running count).
pub(crate) fn header_fields(data: &[u8]) -> Option<(u64, u64)> {
    let (fields, _) = data.split_first_chunk::<24>()?;
    let crc = le_u32(data, 24)?;
    let (magic, rest) = fields.split_first_chunk::<7>()?;
    let (format, rest) = rest.split_first()?;
    if magic != MAGIC_PREFIX || *format != FORMAT_BINARY || crc != crc32(fields) {
        return None;
    }
    Some((le_u64(rest, 0)?, le_u64(rest, 8)?))
}

/// The little-endian `u32` at `at` in `data`, when `data` holds one there.
fn le_u32(data: &[u8], at: usize) -> Option<u32> {
    data.get(at..)?.first_chunk().map(|b| u32::from_le_bytes(*b))
}

/// The little-endian `u64` at `at` in `data`, when `data` holds one there.
fn le_u64(data: &[u8], at: usize) -> Option<u64> {
    data.get(at..)?.first_chunk().map(|b| u64::from_le_bytes(*b))
}

/// The payload length of the frame at `off` in `data`, when its length
/// field is nonzero and fits both the bytes that remain and the record
/// cap. Checked before the payload is touched: a corrupted length must
/// end a scan here, never drive a slice (or, for a copying reader, a
/// multi-GB allocation). A zero length is the tear: no record is empty,
/// and a zeroed frame (length 0, `crc32("") == 0`) would otherwise verify.
pub(crate) fn frame_len(data: &[u8], off: usize) -> Option<usize> {
    let head = data.get(off..off.checked_add(FRAME_OVERHEAD)?)?;
    let len = le_u32(head, 0)? as usize;
    (len != 0 && len <= MAX_RECORD_BYTES && len <= data.len() - off - FRAME_OVERHEAD).then_some(len)
}

/// The one frame scan behind every reader of a segment: the recovery
/// scan, [`SegmentIndex::build`] and the archive reader. Walks the frames
/// of `data` — a whole segment file whose header the caller validated —
/// handing each verified frame's byte offset and payload length to `f`,
/// and returns where it stopped: `data.len()` for an intact segment, else
/// the first frame with a bad length, a short read or a CRC mismatch (the
/// tear).
pub(crate) fn scan_frames(data: &[u8], mut f: impl FnMut(usize, usize)) -> usize {
    let mut off = HEADER_LEN;
    while let Some(len) = frame_len(data, off) {
        // `frame_len` checked that the frame's head and payload are there
        let crc = le_u32(data, off + 4);
        if crc != Some(crc32(&data[off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len])) {
            break;
        }
        f(off, len);
        off += FRAME_OVERHEAD + len;
    }
    off
}

/// Recovery's repair of a tear: cut the segment back to `len` bytes and
/// drop its index sidecar, stale against the new length.
pub(crate) fn truncate_segment(path: &Path, len: u64) -> Result<()> {
    OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .map_err(|e| io_err(path, e))?;
    remove_sidecar(path);
    Ok(())
}

/// Fsync a directory, making file creations inside it power-loss
/// durable: POSIX only guarantees a new file survives power loss once its
/// directory entry is flushed — syncing the file alone is not enough.
fn fsync_dir(dir: &Path) -> Result<()> {
    File::open(dir).and_then(|f| f.sync_all()).map_err(|e| io_err(dir, e))
}

/// Segment files under `dir`, sorted by sequence number. Exposed so fault
/// injection (dtf-chaos) can aim at the tail segment of a store.
pub fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(hex) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".dtl")) {
            if let Ok(seqno) = u64::from_str_radix(hex, 16) {
                found.push((seqno, entry.path()));
            }
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, p)| p).collect())
}

/// The sequence number a segment file's name spells, `None` when the
/// name is not a segment's. Every path [`segment_paths`] yields has one.
pub(crate) fn parse_seqno(path: &Path) -> Option<u64> {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("seg-"))
        .and_then(|n| n.strip_suffix(".dtl"))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

impl SegmentedLog {
    /// Open (creating if absent) the log at `dir`, running the recovery
    /// scan. Returns the log positioned for appending, the recovered
    /// records in order, and the scan report. A bad frame truncates its
    /// file there, a bad header (or anything after a tear) drops the file
    /// — dropped and truncated segments also lose their index sidecars,
    /// which would otherwise go stale.
    pub fn open(dir: &Path, cfg: LogConfig) -> Result<(Self, Vec<Bytes>, RecoveryReport)> {
        // floor the segment size so a header plus one tiny frame always fits
        let cfg = LogConfig {
            segment_bytes: cfg.segment_bytes.max((HEADER_LEN + FRAME_OVERHEAD) as u64 + 8),
            ..cfg
        };
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let paths = segment_paths(dir)?;
        let mut report = RecoveryReport::default();
        let mut records: Vec<Bytes> = Vec::new();
        // (seqno, path, byte length) of the segment appends continue into
        let mut active: Option<(u64, PathBuf, u64)> = None;
        // first record index and sparse offsets of that segment
        let mut seg_first = 0u64;
        let mut seg_offsets: Vec<u32> = Vec::new();
        let mut drop_from: Option<usize> = None;
        let mut prev_seqno: Option<u64> = None;

        for (i, path) in paths.iter().enumerate() {
            // One read and one allocation per segment: recovered records
            // are zero-copy slices into this buffer.
            let data = Bytes::from(fs::read(path).map_err(|e| io_err(path, e))?);
            let header = header_fields(&data).filter(|&(seqno, first)| {
                Some(seqno) == parse_seqno(path)
                    && first == records.len() as u64
                    && prev_seqno.map(|p| seqno == p + 1).unwrap_or(true)
            });
            let Some((seqno, _)) = header else {
                drop_from = Some(i);
                break;
            };
            prev_seqno = Some(seqno);
            report.segments += 1;
            seg_first = records.len() as u64;
            seg_offsets.clear();
            let end = scan_frames(&data, |off, len| {
                if (records.len() as u64 - seg_first).is_multiple_of(DEFAULT_STRIDE as u64) {
                    seg_offsets.push(off as u32);
                }
                records.push(data.slice(off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len));
            });
            active = Some((seqno, path.clone(), end as u64));
            if end < data.len() {
                // torn tail: truncate here, drop everything after
                truncate_segment(path, end as u64)?;
                report.truncated_bytes += (data.len() - end) as u64;
                report.torn = true;
                drop_from = Some(i + 1);
                break;
            }
        }

        if let Some(i) = drop_from {
            report.dropped_segments = paths.len() - i;
            for path in &paths[i..] {
                remove_sidecar(path);
                fs::remove_file(path).map_err(|e| io_err(path, e))?;
            }
        }
        report.records = records.len() as u64;

        let (file, seg_seqno, seg_len) = match active {
            Some((seqno, path, len)) => {
                let file =
                    OpenOptions::new().append(true).open(&path).map_err(|e| io_err(&path, e))?;
                (file, seqno, len)
            }
            None => (Self::create_segment(dir, 0, 0)?, 0, HEADER_LEN as u64),
        };
        let log = Self {
            dir: dir.to_path_buf(),
            cfg,
            file: Box::new(file),
            seg_seqno,
            seg_len,
            records: report.records,
            committed: report.records,
            pending: Vec::new(),
            pending_records: 0,
            seg_first,
            seg_offsets,
            poison: None,
        };
        Ok((log, records, report))
    }

    /// Create segment `seqno` and write its header.
    fn create_segment(dir: &Path, seqno: u64, first_record: u64) -> Result<File> {
        let path = dir.join(segment_name(seqno));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Write::write_all(&mut file, &header_bytes(seqno, first_record))
            .map_err(|e| io_err(&path, e))?;
        Ok(file)
    }

    /// Append one record; returns its index (0-based over the log's life).
    /// Flushes per the configured policy. On a poisoned log, and for the
    /// append that poisons it, the error is the log's first.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        if payload.is_empty() || payload.len() > MAX_RECORD_BYTES {
            let why = match payload.len() {
                // an empty frame is all zeros, and zeros are what a torn
                // tail reads as
                0 => "an empty record cannot be told from a zeroed tail".to_string(),
                n => format!("record of {n} bytes exceeds the {MAX_RECORD_BYTES}-byte cap"),
            };
            return Err(self.fail(DtfError::Io(ErrorKind::InvalidInput, why)));
        }
        let frame = (FRAME_OVERHEAD + payload.len()) as u64;
        if self.seg_len + frame > self.cfg.segment_bytes && self.seg_len > HEADER_LEN as u64 {
            if let Err(e) = self.roll() {
                return Err(self.fail(e));
            }
        }
        let index = self.records;
        if (self.records - self.seg_first).is_multiple_of(DEFAULT_STRIDE as u64) {
            self.seg_offsets.push(self.seg_len as u32);
        }
        self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending_records += 1;
        self.records += 1;
        self.seg_len += frame;
        match self.cfg.flush {
            FlushPolicy::EveryRecord => self.sync()?,
            FlushPolicy::EveryN(n) => {
                if self.pending_records >= n.max(1) as u64 {
                    self.sync()?;
                }
            }
            FlushPolicy::Manual => {}
        }
        Ok(index)
    }

    /// Group commit: write everything pending in one `write`, then
    /// `sync_data` if configured. After this returns `Ok`, every appended
    /// record is committed; on a poisoned log it returns the first error.
    pub fn sync(&mut self) -> Result<()> {
        if !self.pending.is_empty() {
            let written = self.file.write_all(&self.pending).and_then(|()| {
                if self.cfg.sync_data {
                    self.file.sync_data()
                } else {
                    Ok(())
                }
            });
            // written or not, the buffer is done: after a failure part of
            // it may be on disk, and a second write would duplicate frames
            self.pending.clear();
            self.pending_records = 0;
            match written {
                Ok(()) => self.committed = self.records,
                Err(e) => {
                    let e = io_err(&self.dir, e);
                    self.fail(e);
                }
            }
        }
        self.poison.clone().map_or(Ok(()), Err)
    }

    /// Poison the log with `e` unless an earlier error already did, and
    /// return the poison.
    fn fail(&mut self, e: DtfError) -> DtfError {
        self.poison.get_or_insert(e).clone()
    }

    /// Flush the current segment and start the next one. The directory is
    /// fsynced after the new segment is created — without it, power loss
    /// can forget the file itself even though its writes were synced.
    /// Sealing a segment also writes its index sidecar from the offsets
    /// tracked during appends.
    fn roll(&mut self) -> Result<()> {
        self.sync()?;
        self.write_sidecar();
        let file = Self::create_segment(&self.dir, self.seg_seqno + 1, self.records)?;
        if self.cfg.sync_data {
            fsync_dir(&self.dir)?;
        }
        self.file = Box::new(file);
        self.seg_seqno += 1;
        self.seg_len = HEADER_LEN as u64;
        self.seg_first = self.records;
        Ok(())
    }

    /// Best-effort index sidecar for the segment being sealed, from the
    /// offsets tracked while appending — no rescan. Sidecars are a pure
    /// cache — a failed write only costs a later rebuild.
    fn write_sidecar(&mut self) {
        let idx = SegmentIndex {
            seqno: self.seg_seqno,
            first_record: self.seg_first,
            records: (self.records - self.seg_first) as u32,
            seg_bytes: self.seg_len,
            stride: DEFAULT_STRIDE,
            offsets: std::mem::take(&mut self.seg_offsets),
        };
        let _ = idx.write(&self.dir.join(segment_name(self.seg_seqno)));
    }

    /// Records appended (committed or still buffered).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records on disk — what a crash right now would preserve.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Number of segment files written so far.
    pub fn segments(&self) -> u64 {
        self.seg_seqno + 1
    }

    /// Drop the log as a hard crash would: buffered (uncommitted) records
    /// are discarded, not flushed. Test hook for crash-recovery scenarios.
    pub fn abandon(mut self) {
        self.pending.clear();
        self.pending_records = 0;
    }
}

impl Drop for SegmentedLog {
    fn drop(&mut self) {
        // clean-exit semantics: write what's buffered, skip the fsync (a
        // failed write already dropped its buffer, so nothing lands twice)
        if !self.pending.is_empty() {
            let _ = self.file.write_all(&self.pending);
            self.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(segment_bytes: u64, flush: FlushPolicy) -> LogConfig {
        LogConfig { segment_bytes, flush, sync_data: false }
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = tmpdir("roundtrip");
        let payloads: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        {
            let (mut log, recovered, report) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            assert!(recovered.is_empty());
            assert!(!report.torn);
            for (i, p) in payloads.iter().enumerate() {
                assert_eq!(log.append(p).unwrap(), i as u64);
            }
            assert_eq!(log.committed(), 100);
        }
        let (log, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(report.records, 100);
        assert!(!report.torn);
        assert_eq!(recovered.len(), 100);
        for (r, p) in recovered.iter().zip(&payloads) {
            assert_eq!(r.as_ref(), p.as_slice());
        }
        assert_eq!(log.records(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_headers_chain() {
        let dir = tmpdir("roll");
        {
            let (mut log, _, _) = SegmentedLog::open(&dir, cfg(128, FlushPolicy::Manual)).unwrap();
            for i in 0..50u8 {
                log.append(&[i; 40]).unwrap();
            }
            log.sync().unwrap();
            assert!(log.segments() > 1, "small segments must roll");
        }
        let paths = segment_paths(&dir).unwrap();
        assert!(paths.len() > 1);
        // headers: contiguous seqnos, first_record strictly increasing
        let mut prev_first = None;
        for (i, p) in paths.iter().enumerate() {
            let data = fs::read(p).unwrap();
            assert_eq!(&data[..7], MAGIC_PREFIX);
            assert_eq!(data[7], FORMAT_BINARY, "new segments carry the binary format byte");
            assert_eq!(u64::from_le_bytes(data[8..16].try_into().unwrap()), i as u64);
            let first = u64::from_le_bytes(data[16..24].try_into().unwrap());
            if let Some(pf) = prev_first {
                assert!(first > pf);
            }
            prev_first = Some(first);
        }
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(128, FlushPolicy::Manual)).unwrap();
        assert_eq!(recovered.len(), 50);
        assert_eq!(report.segments, paths.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every truncation of a valid header, and every single-byte overwrite
    /// of it with each value in `values(original byte)`.
    fn hostile_headers(header: &[u8], values: impl Fn(u8) -> Vec<u8>) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..header.len()).map(|cut| header[..cut].to_vec()).collect();
        for (at, &byte) in header.iter().enumerate() {
            for value in values(byte).into_iter().filter(|&v| v != byte) {
                let mut mutated = header.to_vec();
                mutated[at] = value;
                out.push(mutated);
            }
        }
        out
    }

    #[test]
    fn a_hostile_header_reads_as_damaged_or_as_itself() {
        let header = header_bytes(3, 1 << 40);
        assert_eq!(header_fields(&header), Some((3, 1 << 40)));
        for hostile in hostile_headers(&header, |_| (0..=u8::MAX).collect()) {
            let fields = header_fields(&hostile);
            assert!(fields.is_none() || fields == Some((3, 1 << 40)), "{hostile:?}: {fields:?}");
        }
    }

    /// A log whose segment `k` carries a hostile header opens without a
    /// panic: segment `k` and its successors are dropped and counted, every
    /// record of the segments before it is kept, and the log appends on.
    #[test]
    fn a_hostile_header_drops_its_segment_and_keeps_the_prefix() {
        let pristine = tmpdir("hostile-header-pristine");
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 40]).collect();
        {
            let (mut log, _, _) =
                SegmentedLog::open(&pristine, cfg(128, FlushPolicy::Manual)).unwrap();
            for p in &payloads {
                log.append(p).unwrap();
            }
            log.sync().unwrap();
        }
        let segments: Vec<Vec<u8>> =
            segment_paths(&pristine).unwrap().iter().map(|p| fs::read(p).unwrap()).collect();
        assert_eq!(segments.len(), 3, "two records per segment");
        let work = tmpdir("hostile-header");
        for (k, segment) in segments.iter().enumerate() {
            let (header, body) = segment.split_at(HEADER_LEN);
            let values = |b: u8| vec![b ^ 0xff, b ^ 0x01, 0x00, 0x80];
            for hostile in hostile_headers(header, values) {
                let _ = fs::remove_dir_all(&work);
                fs::create_dir_all(&work).unwrap();
                for entry in fs::read_dir(&pristine).unwrap() {
                    let entry = entry.unwrap();
                    fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
                }
                // a cut header leaves the file ending inside it
                let mut bytes = hostile.clone();
                if hostile.len() == HEADER_LEN {
                    bytes.extend_from_slice(body);
                }
                fs::write(work.join(segment_name(k as u64)), &bytes).unwrap();

                let intact = header_fields(&hostile) == header_fields(header);
                let kept = if intact { payloads.len() } else { 2 * k };
                let (mut log, recovered, report) =
                    SegmentedLog::open(&work, cfg(128, FlushPolicy::Manual)).unwrap();
                let recovered: Vec<&[u8]> = recovered.iter().map(|r| r.as_ref()).collect();
                let expected: Vec<&[u8]> = payloads[..kept].iter().map(|p| p.as_slice()).collect();
                assert_eq!(recovered, expected, "segment {k}, header {hostile:?}");
                assert_eq!(report.records, kept as u64);
                assert_eq!(report.segments, if intact { 3 } else { k });
                assert_eq!(report.dropped_segments, if intact { 0 } else { 3 - k });
                log.append(b"after").unwrap();
                log.sync().unwrap();
                drop(log);
                let (_, reopened, report) =
                    SegmentedLog::open(&work, cfg(128, FlushPolicy::Manual)).unwrap();
                assert_eq!(reopened.len(), kept + 1);
                assert_eq!(reopened[kept].as_ref(), b"after");
                assert_eq!(report.dropped_segments, 0);
            }
        }
        fs::remove_dir_all(&work).unwrap();
        fs::remove_dir_all(&pristine).unwrap();
    }

    #[test]
    fn oversized_record_gets_its_own_segment() {
        let dir = tmpdir("oversize");
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(64, FlushPolicy::EveryRecord)).unwrap();
        log.append(&[7u8; 500]).unwrap(); // far over the 64-byte target
        log.append(b"after").unwrap();
        drop(log);
        let (_, recovered, _) =
            SegmentedLog::open(&dir, cfg(64, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].len(), 500);
        assert_eq!(recovered[1].as_ref(), b"after");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_policies_gate_commit() {
        let dir = tmpdir("policies");
        let (mut log, _, _) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryN(10))).unwrap();
        for _ in 0..9 {
            log.append(b"x").unwrap();
        }
        assert_eq!(log.committed(), 0, "below the group threshold nothing is committed");
        log.append(b"x").unwrap();
        assert_eq!(log.committed(), 10, "the 10th append flushes the group");
        log.append(b"x").unwrap();
        assert_eq!(log.committed(), 10);
        log.sync().unwrap();
        assert_eq!(log.committed(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_uncommitted_records_never_surface() {
        let dir = tmpdir("abandon");
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::Manual)).unwrap();
        log.append(b"committed-1").unwrap();
        log.append(b"committed-2").unwrap();
        log.sync().unwrap();
        log.append(b"lost").unwrap();
        log.abandon(); // crash: the pending record must not be written
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::Manual)).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].as_ref(), b"committed-2");
        assert!(!report.torn, "a clean crash leaves no torn tail");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_committed_prefix() {
        let dir = tmpdir("torn");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            for i in 0..20u8 {
                log.append(&[i; 16]).unwrap();
            }
        }
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // cut mid-frame: the 20th record's payload loses its last byte
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 1).unwrap();
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(recovered.len(), 19);
        assert!(report.torn);
        assert!(report.truncated_bytes > 0);
        // reopen again: the repair is idempotent
        let (_, again, report2) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(again.len(), 19);
        assert!(!report2.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Zeros from a frame boundary on read as a tear, not as committed
    /// empty records (a length-0 frame with CRC 0 would verify, since
    /// `crc32("") == 0`).
    #[test]
    fn a_tail_zeroed_from_a_frame_boundary_is_a_tear() {
        let dir = tmpdir("zerotail");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            for i in 0..20u8 {
                log.append(&[i; 16]).unwrap();
            }
        }
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        let boundary = HEADER_LEN + 12 * (FRAME_OVERHEAD + 16);
        data[boundary..].fill(0);
        fs::write(&path, &data).unwrap();
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        let recovered: Vec<&[u8]> = recovered.iter().map(|r| r.as_ref()).collect();
        let expect: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 16]).collect();
        assert_eq!(recovered, expect, "exactly the prefix before the zeros");
        assert!(report.torn);
        assert_eq!(report.truncated_bytes, (data.len() - boundary) as u64);
        assert_eq!(fs::metadata(&path).unwrap().len(), boundary as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_truncates_at_the_damaged_record() {
        let dir = tmpdir("bitflip");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            for i in 0..10u8 {
                log.append(&[i; 32]).unwrap();
            }
        }
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        // flip one bit inside record 5's payload
        let target = HEADER_LEN + 5 * (FRAME_OVERHEAD + 32) + FRAME_OVERHEAD + 10;
        data[target] ^= 0x40;
        fs::write(&path, &data).unwrap();
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(recovered.len(), 5, "records before the flip survive, the rest drop");
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r.as_ref(), &[i as u8; 32]);
        }
        assert!(report.torn);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_header_drops_segment_and_successors() {
        let dir = tmpdir("header");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(256, FlushPolicy::EveryRecord)).unwrap();
            for i in 0..40u8 {
                log.append(&[i; 50]).unwrap();
            }
            assert!(log.segments() >= 3);
        }
        let paths = segment_paths(&dir).unwrap();
        let victim = &paths[1];
        let mut data = fs::read(victim).unwrap();
        data[3] ^= 0xff; // corrupt the magic of the middle segment
        fs::write(victim, &data).unwrap();
        let (mut log, recovered, report) =
            SegmentedLog::open(&dir, cfg(256, FlushPolicy::EveryRecord)).unwrap();
        let seg0_records = recovered.len();
        assert!(seg0_records > 0 && seg0_records < 40);
        assert_eq!(report.dropped_segments, paths.len() - 1);
        // the log continues appending after the surviving prefix
        log.append(b"continues").unwrap();
        drop(log);
        let (_, again, _) = SegmentedLog::open(&dir, cfg(256, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(again.len(), seg0_records + 1);
        assert_eq!(again.last().unwrap().as_ref(), b"continues");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_continues_after_recovery_truncation() {
        let dir = tmpdir("continue");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            for _ in 0..5 {
                log.append(b"old").unwrap();
            }
        }
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 2).unwrap();
        {
            let (mut log, recovered, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            assert_eq!(recovered.len(), 4);
            assert_eq!(
                log.append(b"new").unwrap(),
                4,
                "indices continue from the recovered prefix"
            );
        }
        let (_, recovered, _) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(recovered.len(), 5);
        assert_eq!(recovered[4].as_ref(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_frame_is_a_tear_not_an_allocation() {
        let dir = tmpdir("hugelen");
        {
            let (mut log, _, _) =
                SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
            for i in 0..8u8 {
                log.append(&[i; 16]).unwrap();
            }
        }
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        // record 4's length field claims u32::MAX bytes — far beyond both
        // the segment and MAX_RECORD_BYTES
        let target = HEADER_LEN + 4 * (FRAME_OVERHEAD + 16);
        data[target..target + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &data).unwrap();
        let (_, recovered, report) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryRecord)).unwrap();
        assert_eq!(recovered.len(), 4, "the oversized frame tears, the prefix survives");
        assert!(report.torn);
        assert_eq!(report.truncated_bytes, 4 * (FRAME_OVERHEAD + 16) as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrite a segment's header format byte, keeping the CRC valid —
    /// what a store written by some other reader version looks like.
    fn restamp_format(path: &Path, format: u8) {
        let mut data = fs::read(path).unwrap();
        data[7] = format;
        let crc = crc32(&data[..24]);
        data[24..28].copy_from_slice(&crc.to_le_bytes());
        fs::write(path, &data).unwrap();
    }

    #[test]
    fn future_format_versions_are_dropped_not_misread() {
        // a later version, and byte 0 — the retired JSON-era stamp
        for format in [FORMAT_BINARY + 1, 0] {
            let dir = tmpdir("futurefmt");
            {
                let (mut log, _, _) =
                    SegmentedLog::open(&dir, cfg(160, FlushPolicy::Manual)).unwrap();
                for i in 0..12u8 {
                    log.append(&[i; 40]).unwrap();
                }
                log.sync().unwrap();
                assert!(log.segments() >= 3);
            }
            let paths = segment_paths(&dir).unwrap();
            restamp_format(&paths[1], format);
            let (_, recovered, report) =
                SegmentedLog::open(&dir, cfg(160, FlushPolicy::Manual)).unwrap();
            assert!(recovered.len() < 12, "records past the unknown format are dropped");
            assert_eq!(report.dropped_segments, paths.len() - 1);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rolling_seals_segments_with_index_sidecars() {
        let dir = tmpdir("roll-sidecar");
        {
            let (mut log, _, _) = SegmentedLog::open(&dir, cfg(128, FlushPolicy::Manual)).unwrap();
            for i in 0..50u8 {
                log.append(&[i; 40]).unwrap();
            }
            log.sync().unwrap();
        }
        let paths = segment_paths(&dir).unwrap();
        let mut firsts: Vec<u64> = paths
            .iter()
            .map(|p| u64::from_le_bytes(fs::read(p).unwrap()[16..24].try_into().unwrap()))
            .collect();
        firsts.push(50);
        for (i, seg) in paths[..paths.len() - 1].iter().enumerate() {
            let expect = (firsts[i + 1] - firsts[i]) as u32;
            let idx = SegmentIndex::load_validated(seg, firsts[i], expect)
                .expect("sealed segment carries a valid sidecar");
            assert_eq!(idx.records, expect);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_empty_record_is_refused_and_poisons_the_log() {
        let dir = tmpdir("empty");
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::Manual)).unwrap();
        log.append(b"r0").unwrap();
        assert_eq!(err_kind(log.append(b"")), ErrorKind::InvalidInput);
        assert_poisoned(log, ErrorKind::InvalidInput, &[b"r0"]);
    }

    /// How the active segment fails once [`install`]ed.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// `write` fails with ENOSPC before a byte lands.
        NoSpace,
        /// The first `n` bytes land, then the device takes no more.
        Short(usize),
        /// Writes land; `sync_data` fails with EIO.
        SyncEio,
    }

    /// The active segment's file, failing per its [`Fault`].
    #[derive(Debug)]
    struct Faulty {
        file: File,
        fault: Fault,
    }

    impl SegmentFile for Faulty {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            match self.fault {
                Fault::NoSpace => Err(std::io::Error::from_raw_os_error(28)), // ENOSPC
                Fault::Short(n) => {
                    Write::write_all(&mut self.file, &buf[..n.min(buf.len())])?;
                    Err(ErrorKind::WriteZero.into())
                }
                Fault::SyncEio => Write::write_all(&mut self.file, buf),
            }
        }

        fn sync_data(&mut self) -> std::io::Result<()> {
            match self.fault {
                Fault::SyncEio => Err(std::io::Error::from_raw_os_error(5)), // EIO
                _ => self.file.sync_data(),
            }
        }
    }

    /// Put `fault` under the log's active segment.
    fn install(log: &mut SegmentedLog, fault: Fault) {
        let path = log.dir.join(segment_name(log.seg_seqno));
        let file = OpenOptions::new().append(true).open(path).unwrap();
        log.file = Box::new(Faulty { file, fault });
    }

    fn err_kind<T: std::fmt::Debug>(r: Result<T>) -> ErrorKind {
        match r {
            Err(DtfError::Io(kind, _)) => kind,
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    fn segment_bytes(dir: &Path) -> Vec<Vec<u8>> {
        segment_paths(dir).unwrap().iter().map(|p| fs::read(p).unwrap()).collect()
    }

    /// What a failure of `kind` must leave behind: every later append and
    /// every sync report it, `Drop` writes no frame, and a reopen recovers
    /// `expect` — the records whose frames reached the file, each once.
    fn assert_poisoned(mut log: SegmentedLog, kind: ErrorKind, expect: &[&[u8]]) {
        let dir = log.dir.clone();
        let cfg = log.cfg;
        for _ in 0..2 {
            assert_eq!(err_kind(log.append(b"later")), kind, "later appends are refused");
            assert_eq!(err_kind(log.sync()), kind, "every sync reports the first error");
        }
        let before = segment_bytes(&dir);
        drop(log);
        assert_eq!(segment_bytes(&dir), before, "Drop adds no frame");
        let (_, recovered, _) = SegmentedLog::open(&dir, cfg).unwrap();
        let recovered: Vec<&[u8]> = recovered.iter().map(|r| r.as_ref()).collect();
        assert_eq!(recovered, expect, "a reopen recovers the committed prefix, once");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_full_disk_poisons_the_log() {
        let dir = tmpdir("enospc");
        let (mut log, _, _) =
            SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::EveryN(2))).unwrap();
        log.append(b"r0").unwrap();
        log.append(b"r1").unwrap(); // the group commits
        install(&mut log, Fault::NoSpace);
        log.append(b"r2").unwrap();
        assert_eq!(err_kind(log.append(b"r3")), ErrorKind::StorageFull);
        assert_poisoned(log, ErrorKind::StorageFull, &[b"r0", b"r1"]);
    }

    #[test]
    fn a_short_write_poisons_the_log_and_recovery_cuts_its_frame() {
        let dir = tmpdir("short");
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::Manual)).unwrap();
        log.append(b"r0").unwrap();
        log.append(b"r1").unwrap();
        log.sync().unwrap();
        install(&mut log, Fault::Short(5));
        log.append(b"r2").unwrap();
        log.append(b"r3").unwrap();
        assert_eq!(err_kind(log.sync()), ErrorKind::WriteZero);
        assert_poisoned(log, ErrorKind::WriteZero, &[b"r0", b"r1"]);
    }

    #[test]
    fn a_failed_fsync_poisons_the_log_and_never_rewrites_its_group() {
        let dir = tmpdir("eio");
        let eio = std::io::Error::from_raw_os_error(5).kind();
        let cfg =
            LogConfig { segment_bytes: 1 << 20, flush: FlushPolicy::EveryN(2), sync_data: true };
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg).unwrap();
        log.append(b"r0").unwrap();
        log.append(b"r1").unwrap();
        install(&mut log, Fault::SyncEio);
        log.append(b"r2").unwrap();
        assert_eq!(err_kind(log.append(b"r3")), eio);
        // the group's write reached the file before its fsync failed
        assert_poisoned(log, eio, &[b"r0", b"r1", b"r2", b"r3"]);
    }

    #[test]
    fn an_oversized_record_poisons_the_log_after_what_was_buffered() {
        let dir = tmpdir("cap");
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(1 << 20, FlushPolicy::Manual)).unwrap();
        log.append(b"r0").unwrap();
        log.sync().unwrap();
        log.append(b"r1").unwrap();
        let huge = vec![0u8; MAX_RECORD_BYTES + 1];
        assert_eq!(err_kind(log.append(&huge)), ErrorKind::InvalidInput);
        // r1 was appended before the poison: sync still writes it
        assert_poisoned(log, ErrorKind::InvalidInput, &[b"r0", b"r1"]);
    }

    #[test]
    fn a_roll_onto_a_taken_segment_name_poisons_the_log() {
        let dir = tmpdir("taken");
        // header 28 + two 48-byte frames fit in 128 bytes, a third rolls
        let (mut log, _, _) = SegmentedLog::open(&dir, cfg(128, FlushPolicy::Manual)).unwrap();
        log.append(&[0; 40]).unwrap();
        log.append(&[1; 40]).unwrap();
        fs::write(dir.join(segment_name(1)), b"squatter").unwrap();
        assert_eq!(err_kind(log.append(&[2; 40])), ErrorKind::AlreadyExists);
        assert_poisoned(log, ErrorKind::AlreadyExists, &[&[0; 40][..], &[1; 40][..]]);
    }
}

//! Warabi-analog blob-store micro-service.
//!
//! Mofka stores raw event payloads in Warabi regions. Blobs are immutable
//! once written; readers get cheap `Bytes` clones (reference-counted), which
//! is what makes high-fan-out consumption of the same payload inexpensive.
//!
//! Like [`Yokan`](crate::yokan::Yokan), a Warabi can be **durable**:
//! [`Warabi::durable`] backs the store with a dtf-store
//! [`SegmentedLog`] in which blob id == log record index, so recovery
//! yields the committed blob prefix in order. The first write error
//! poisons the log — later blobs are not logged (one logged after a lost
//! one would sit an index below its id) and every [`Warabi::sync`] reports
//! it; [`Warabi::replay`] reopens read-only for archive
//! consumers — **lazily**, through an indexed [`LogReader`]: only segment
//! headers (and the torn-tail candidate) are read at open, and blob
//! payloads are fetched on demand via sparse-index seeks through a block
//! cache instead of materializing the whole blob log in memory. A
//! dangling [`BlobId`] (beyond the recovered prefix after a crash) is
//! simply `None` from [`Warabi::get`] — callers decide whether that is an
//! error or a truncation point; [`Warabi::contains`] answers the
//! existence question without ever touching payload bytes.

use bytes::Bytes;
use dtf_core::error::{DtfError, Result};
use dtf_store::{CacheStats, LogConfig, LogReader, ReaderOptions, RecoveryReport, SegmentedLog};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Handle to a stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlobId(pub u64);

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob-{}", self.0)
    }
}

#[derive(Debug)]
struct Wal {
    log: SegmentedLog,
    /// The first write error. It poisons the log: later blobs are not
    /// logged and every [`Warabi::sync`] reports it.
    error: Option<String>,
}

/// An append-only blob store with an optional durable log.
///
/// Three backings share one API: purely in-memory ([`Warabi::new`]),
/// durable write-through ([`Warabi::durable`] — blobs in memory *and* in
/// a log), and read-only archive ([`Warabi::replay`] — blobs stay on disk
/// behind an indexed reader; `blobs` then only holds post-archive puts,
/// addressed after the archived prefix).
#[derive(Debug, Default)]
pub struct Warabi {
    blobs: RwLock<Vec<Bytes>>,
    wal: Option<Mutex<Wal>>,
    archive: Option<LogReader>,
}

impl Warabi {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable blob store at `dir`; committed blobs
    /// are recovered in id order.
    pub fn durable(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (log, blobs, report) = SegmentedLog::open(dir, LogConfig::default())?;
        Ok((
            Self {
                blobs: RwLock::new(blobs),
                wal: Some(Mutex::new(Wal { log, error: None })),
                archive: None,
            },
            report,
        ))
    }

    /// Open the log at `dir` as a read-only archive (see `Yokan::replay`).
    /// Blobs are *not* loaded: an indexed [`LogReader`] serves them on
    /// demand through sidecar seeks and a block cache, so opening a
    /// GB-scale blob log costs headers plus one tail scan.
    pub fn replay(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (reader, report) = LogReader::open(dir, ReaderOptions::default())?;
        Ok((Self { blobs: RwLock::new(Vec::new()), wal: None, archive: Some(reader) }, report))
    }

    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Blobs served lazily from an archived log (0 unless opened by
    /// [`Warabi::replay`]); ids below this resolve through the reader.
    fn archived(&self) -> u64 {
        self.archive.as_ref().map(|r| r.records()).unwrap_or(0)
    }

    /// Store a blob, returning its id.
    pub fn put(&self, data: impl Into<Bytes>) -> BlobId {
        let data = data.into();
        let mut blobs = self.blobs.write();
        let id = BlobId(self.archived() + blobs.len() as u64);
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            if wal.error.is_none() {
                if let Err(e) = wal.log.append(&data) {
                    wal.error = Some(e.to_string());
                }
            }
        }
        blobs.push(data);
        id
    }

    /// Fetch a blob (cheap clone of a refcounted buffer; an archive read
    /// seeks to the blob's indexed block and caches it). `None` for an
    /// id past the end — reachable after crash recovery truncates the
    /// blob log, so callers must treat it as data loss, not a bug.
    pub fn get(&self, id: BlobId) -> Option<Bytes> {
        let archived = self.archived();
        if id.0 < archived {
            return self.archive.as_ref()?.get(id.0);
        }
        self.blobs.read().get((id.0 - archived) as usize).cloned()
    }

    /// Whether `id` names a stored blob — without reading its payload
    /// (an archive answers from the segment map alone).
    pub fn contains(&self, id: BlobId) -> bool {
        (id.0 as usize) < self.len()
    }

    /// Read a byte range of a blob.
    pub fn get_range(&self, id: BlobId, offset: usize, len: usize) -> Option<Bytes> {
        let blob = self.get(id)?;
        if offset.checked_add(len)? > blob.len() {
            return None;
        }
        Some(blob.slice(offset..offset + len))
    }

    pub fn len(&self) -> usize {
        (self.archived() as usize) + self.blobs.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes. For an archive this comes from the segment
    /// map — no payloads are read to answer it.
    pub fn total_bytes(&self) -> usize {
        let archived = self.archive.as_ref().map(|r| r.payload_bytes() as usize).unwrap_or(0);
        archived + self.blobs.read().iter().map(|b| b.len()).sum::<usize>()
    }

    /// Block-cache statistics of the archive reader, when this store was
    /// opened by [`Warabi::replay`].
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.archive.as_ref().map(|r| r.cache_stats())
    }

    /// Flush the blob log (group commit), surfacing the error that
    /// poisoned it if there is one. A no-op for in-memory stores.
    pub fn sync(&self) -> Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut wal = wal.lock();
        if wal.error.is_none() {
            if let Err(e) = wal.log.sync() {
                wal.error = Some(e.to_string());
            }
        }
        wal.error.clone().map_or(Ok(()), |e| Err(DtfError::Io(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let w = Warabi::new();
        let id = w.put(Bytes::from_static(b"hello"));
        assert_eq!(w.get(id).unwrap().as_ref(), b"hello");
        assert_eq!(w.len(), 1);
        assert_eq!(w.total_bytes(), 5);
    }

    #[test]
    fn ids_are_sequential() {
        let w = Warabi::new();
        let a = w.put(Bytes::from_static(b"a"));
        let b = w.put(Bytes::from_static(b"b"));
        assert_eq!(a, BlobId(0));
        assert_eq!(b, BlobId(1));
    }

    #[test]
    fn missing_blob_is_none() {
        let w = Warabi::new();
        assert!(w.get(BlobId(0)).is_none());
    }

    #[test]
    fn range_reads() {
        let w = Warabi::new();
        let id = w.put(Bytes::from_static(b"0123456789"));
        assert_eq!(w.get_range(id, 2, 3).unwrap().as_ref(), b"234");
        assert_eq!(w.get_range(id, 0, 10).unwrap().as_ref(), b"0123456789");
        assert!(w.get_range(id, 8, 3).is_none(), "past end");
        assert!(w.get_range(id, usize::MAX, 1).is_none(), "overflow");
    }

    #[test]
    fn concurrent_puts_all_retrievable() {
        use std::sync::Arc;
        let w = Arc::new(Warabi::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let w = w.clone();
                std::thread::spawn(move || {
                    (0..50)
                        .map(|j| (w.put(Bytes::from(vec![i, j])), vec![i, j]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (id, expect) in h.join().unwrap() {
                assert_eq!(w.get(id).unwrap().as_ref(), expect.as_slice());
            }
        }
        assert_eq!(w.len(), 200);
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-warabi-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_blobs_recover_in_id_order() {
        let dir = tmpdir("durable");
        {
            let (w, _) = Warabi::durable(&dir).unwrap();
            for i in 0..20u8 {
                assert_eq!(w.put(Bytes::from(vec![i; 4])), BlobId(i as u64));
            }
            w.sync().unwrap();
        }
        let (w, report) = Warabi::durable(&dir).unwrap();
        assert_eq!(report.records, 20);
        assert_eq!(w.len(), 20);
        for i in 0..20u8 {
            assert_eq!(w.get(BlobId(i as u64)).unwrap().as_ref(), &[i; 4]);
        }
        // ids keep counting from the recovered prefix
        assert_eq!(w.put(Bytes::from_static(b"next")), BlobId(20));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_id_after_truncation_is_none() {
        let dir = tmpdir("dangling");
        {
            let (w, _) = Warabi::durable(&dir).unwrap();
            w.put(Bytes::from_static(b"kept"));
            w.put(Bytes::from_static(b"torn"));
            w.sync().unwrap();
        }
        // tear the second blob's frame
        let seg = dtf_store::log::segment_paths(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 1).unwrap();
        let (w, report) = Warabi::replay(&dir).unwrap();
        assert!(report.torn);
        assert_eq!(w.get(BlobId(0)).unwrap().as_ref(), b"kept");
        assert!(w.get(BlobId(1)).is_none(), "dangling id maps to None, not a panic");
        assert!(!w.contains(BlobId(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_serves_blobs_lazily_through_the_index() {
        let dir = tmpdir("lazy");
        let n = 300u64;
        {
            // blob id == record index: small segments, written as the log
            let cfg = LogConfig { segment_bytes: 1 << 10, ..LogConfig::default() };
            let (mut log, _, _) = SegmentedLog::open(&dir, cfg).unwrap();
            for i in 0..n {
                log.append(format!("payload-{i:06}").as_bytes()).unwrap();
            }
            log.sync().unwrap();
        }
        let (w, report) = Warabi::replay(&dir).unwrap();
        assert_eq!(report.records, n);
        assert_eq!(w.len(), n as usize);
        assert!(!w.is_empty());
        // existence answers come from the segment map, not payload reads
        assert!(w.contains(BlobId(n - 1)));
        assert!(!w.contains(BlobId(n)));
        assert_eq!(w.cache_stats().unwrap().misses, 0, "contains/len read no blocks");
        for id in [0u64, 1, 150, n - 1] {
            assert_eq!(w.get(BlobId(id)).unwrap().as_ref(), format!("payload-{id:06}").as_bytes());
        }
        assert_eq!(w.get_range(BlobId(7), 8, 6).unwrap().as_ref(), b"000007");
        let stats = w.cache_stats().unwrap();
        assert!(stats.misses > 0, "point reads faulted blocks in");
        assert_eq!(w.total_bytes(), n as usize * "payload-000000".len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn puts_after_replay_chain_past_the_archived_prefix() {
        let dir = tmpdir("overlay");
        {
            let (w, _) = Warabi::durable(&dir).unwrap();
            w.put(Bytes::from_static(b"archived"));
            w.sync().unwrap();
        }
        let (w, _) = Warabi::replay(&dir).unwrap();
        let id = w.put(Bytes::from_static(b"fresh"));
        assert_eq!(id, BlobId(1), "ids keep counting past the archive");
        assert_eq!(w.get(BlobId(0)).unwrap().as_ref(), b"archived");
        assert_eq!(w.get(id).unwrap().as_ref(), b"fresh");
        assert_eq!(w.len(), 2);
        assert!(w.contains(id));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_log_error_poisons_the_log_and_keeps_ids_aligned() {
        let dir = tmpdir("poison");
        {
            let (w, _) = Warabi::durable(&dir).unwrap();
            assert_eq!(w.put(Bytes::from_static(b"kept")), BlobId(0));
            // over the log's record cap: rejected, but the id is handed out
            assert_eq!(w.put(vec![0u8; dtf_store::log::MAX_RECORD_BYTES + 1]), BlobId(1));
            assert_eq!(w.put(Bytes::from_static(b"after")), BlobId(2));
            assert!(w.sync().is_err());
            assert!(
                w.sync().is_err(),
                "the store is ahead of the log for good: every sync says so"
            );
        }
        let (w, report) = Warabi::durable(&dir).unwrap();
        assert_eq!(report.records, 1, "nothing is logged past the lost blob");
        assert_eq!(w.get(BlobId(0)).unwrap().as_ref(), b"kept");
        assert!(w.get(BlobId(1)).is_none(), "no later blob slid into the lost one's id");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

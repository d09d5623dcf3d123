//! Warabi-analog blob-store micro-service.
//!
//! Mofka stores raw event payloads in Warabi regions. Blobs are immutable
//! once written; readers get cheap `Bytes` clones (reference-counted), which
//! is what makes high-fan-out consumption of the same payload inexpensive.
//!
//! Like [`Yokan`](crate::yokan::Yokan), a Warabi can be **durable**:
//! [`Warabi::durable`] backs the store with a dtf-store
//! [`SegmentedLog`] in which blob id == log record index, so recovery
//! yields the committed blob prefix in order. The log keeps its first
//! write error — later blobs are not logged (one logged after a lost one
//! would sit an index below its id) and every [`Warabi::sync`] reports it.
//! [`Warabi::replay`] reopens read-only for archive consumers: the same
//! recovery scan, with the log handle dropped. Blobs are held in memory
//! either way; a persisted run's `warabi/` holds none (events carry no
//! payload, and the proxy plane keeps its own store). A dangling
//! [`BlobId`] (beyond the recovered prefix after a crash) is simply
//! `None` from [`Warabi::get`] — callers decide whether that is an error
//! or a truncation point.

use bytes::Bytes;
use dtf_core::error::Result;
use dtf_store::{LogConfig, RecoveryReport, SegmentedLog};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::fmt;
use std::path::Path;

/// Handle to a stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct BlobId(pub u64);

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blob-{}", self.0)
    }
}

/// An append-only blob store, in memory and optionally written through to
/// a durable log. A failed log write is not returned by [`Warabi::put`]:
/// the log keeps it and [`Warabi::sync`] reports it.
#[derive(Debug, Default)]
pub struct Warabi {
    blobs: RwLock<Vec<Bytes>>,
    log: Option<Mutex<SegmentedLog>>,
}

impl Warabi {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable blob store at `dir`; committed blobs
    /// are recovered in id order.
    pub fn durable(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (log, blobs, report) = SegmentedLog::open(dir, LogConfig::default())?;
        Ok((Self { blobs: RwLock::new(blobs), log: Some(Mutex::new(log)) }, report))
    }

    /// Recover the blobs at `dir` without keeping the log attached (see
    /// `Yokan::replay`): the archive-reader path.
    pub fn replay(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (log, blobs, report) = SegmentedLog::open(dir, LogConfig::default())?;
        drop(log);
        Ok((Self { blobs: RwLock::new(blobs), log: None }, report))
    }

    /// Store a blob, returning its id.
    pub fn put(&self, data: impl Into<Bytes>) -> BlobId {
        let data = data.into();
        let mut blobs = self.blobs.write();
        let id = BlobId(blobs.len() as u64);
        if let Some(log) = &self.log {
            let _ = log.lock().append(&data);
        }
        blobs.push(data);
        id
    }

    /// Fetch a blob (cheap clone of a refcounted buffer). `None` for an
    /// id past the end — reachable after crash recovery truncates the
    /// blob log, so callers must treat it as data loss, not a bug.
    pub fn get(&self, id: BlobId) -> Option<Bytes> {
        self.blobs.read().get(id.0 as usize).cloned()
    }

    /// Whether `id` names a stored blob.
    pub fn contains(&self, id: BlobId) -> bool {
        (id.0 as usize) < self.len()
    }

    pub fn len(&self) -> usize {
        self.blobs.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.blobs.read().iter().map(|b| b.len()).sum()
    }

    /// Flush the blob log (group commit), surfacing the error that
    /// poisoned it if there is one. A no-op for in-memory stores.
    pub fn sync(&self) -> Result<()> {
        self.log.as_ref().map_or(Ok(()), |log| log.lock().sync())
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

    /// `n` blobs `payload-<id>` written straight to the log at `dir`, in
    /// ~1 KiB segments (blob id == record index).
    fn multi_segment_blob_log(dir: &std::path::Path, n: u64) {
        let cfg = LogConfig { segment_bytes: 1 << 10, ..LogConfig::default() };
        let (mut log, _, _) = SegmentedLog::open(dir, cfg).unwrap();
        for i in 0..n {
            log.append(format!("payload-{i:06}").as_bytes()).unwrap();
        }
        log.sync().unwrap();
    }

    #[test]
    fn replay_serves_every_blob_of_a_multi_segment_log() {
        let dir = tmpdir("multi");
        let n = 300u64;
        multi_segment_blob_log(&dir, n);
        let (w, report) = Warabi::replay(&dir).unwrap();
        assert!(report.segments > 3);
        assert_eq!(report.records, n);
        assert_eq!(w.len(), n as usize);
        assert!(!w.is_empty());
        assert!(w.contains(BlobId(n - 1)));
        assert!(!w.contains(BlobId(n)));
        for id in [0u64, 1, 150, n - 1] {
            assert_eq!(w.get(BlobId(id)).unwrap().as_ref(), format!("payload-{id:06}").as_bytes());
        }
        assert_eq!(w.total_bytes(), n as usize * "payload-000000".len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One recovery rule: a flipped byte in the body of a sealed segment
    /// is a tear for the archive reopen exactly as for the writable one —
    /// the same blobs, byte for byte.
    #[test]
    fn replay_and_durable_recover_alike_past_a_damaged_sealed_segment() {
        use dtf_store::log::{segment_paths, FRAME_OVERHEAD, HEADER_LEN};
        let dir = tmpdir("sealed-flip");
        multi_segment_blob_log(&dir, 300);
        let segs = segment_paths(&dir).unwrap();
        assert!(segs.len() > 2);
        let sealed = &segs[1];
        let mut data = std::fs::read(sealed).unwrap();
        let kept = u64::from_le_bytes(data[16..24].try_into().unwrap()); // its first record
        data[HEADER_LEN + FRAME_OVERHEAD + 3] ^= 0x01; // inside that record's payload
        std::fs::write(sealed, &data).unwrap();
        // each reopen repairs: give each its own copy of the damaged log
        let copy = tmpdir("sealed-flip-copy");
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }

        let (replayed, replay_report) = Warabi::replay(&dir).unwrap();
        let (durable, durable_report) = Warabi::durable(&copy).unwrap();
        assert!(replay_report.torn && durable_report.torn);
        assert_eq!(replayed.len() as u64, kept, "nothing past the damaged record");
        assert_eq!(durable.len(), replayed.len());
        for id in 0..kept {
            let blob = replayed.get(BlobId(id));
            assert!(blob.is_some(), "blob {id} recovered");
            assert_eq!(blob, durable.get(BlobId(id)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
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

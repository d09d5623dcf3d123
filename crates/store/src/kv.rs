//! A write-ahead-logged key-value store on the segmented log, with
//! snapshot-bounded recovery and threshold compaction.
//!
//! Every mutation is one log record — `0x00 | klen:u32le | key | value`
//! for a put, `0x01 | klen:u32le | key` for a delete. The live map is
//! rebuilt on open; with a valid snapshot (see [`crate::snapshot`]) only
//! the log tail past the snapshot's watermark is replayed, so reopen cost
//! tracks the tail, not the log. The fallback chain keeps equivalence an
//! invariant: a snapshot that is missing, corrupt, or whose watermark the
//! (possibly truncated) log can no longer reach is discarded and the
//! store falls back to full replay — recovered state is always
//! byte-identical to a full replay of the same directory.
//!
//! Maintenance — periodic snapshots and threshold compaction — runs
//! inline in [`KvWal::maybe_maintain`], on the writer's thread: the map
//! this store backs is small (configs, cursors, run metadata), so the
//! O(live-set) work is cheap and a persisted run stays single-threaded.
//! Compaction rewrites the map as a snapshot of puts into a sibling
//! `<dir>.new` staging log and swaps with a rename-aside protocol:
//! `dir` → `<dir>.old`, `<dir>.new` → `dir`, fsync parent, remove
//! `<dir>.old`. An authoritative directory exists at every instant (the
//! old remove-then-rename swap had a window where a crash mid-removal
//! lost records); every crash state — stale staging left *before* any
//! rename, the aside/staging pair between renames, a leftover aside after
//! promotion — is repaired on open.
//!
//! [`KvWal`] is the log half only — the caller owns the map, so e.g. the
//! Yokan analog can keep its one `RwLock<BTreeMap>` and write through.
//! [`WalKv`] bundles both for standalone use (tests, benches).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use dtf_core::error::{DtfError, Result};

use crate::log::{fsync_dir, FlushPolicy, LogConfig, RecoveryReport, SegmentedLog};
use crate::snapshot;

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// KV tuning: the underlying log config plus maintenance triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvWalConfig {
    pub log: LogConfig,
    /// Compaction never fires below this many log records.
    pub compact_min_records: u64,
    /// …and only once records ≥ ratio × live keys (the log is mostly
    /// overwrites and deletes).
    pub compact_ratio: u64,
    /// Write a recovery snapshot every this many records (0 disables).
    /// Snapshots bound reopen cost; they are caches, never truth.
    pub snapshot_every: u64,
}

impl Default for KvWalConfig {
    fn default() -> Self {
        Self {
            log: LogConfig::default(),
            compact_min_records: 8192,
            compact_ratio: 4,
            snapshot_every: 8192,
        }
    }
}

fn encode_put(key: &str, value: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(5 + key.len() + value.len());
    rec.push(TAG_PUT);
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(key.as_bytes());
    rec.extend_from_slice(value);
    rec
}

fn encode_delete(key: &str) -> Vec<u8> {
    let mut rec = Vec::with_capacity(5 + key.len());
    rec.push(TAG_DELETE);
    rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
    rec.extend_from_slice(key.as_bytes());
    rec
}

fn apply_record(map: &mut BTreeMap<String, Bytes>, rec: &Bytes) -> Result<()> {
    let bad = |what: &str| DtfError::Io(format!("kv wal record: {what}"));
    if rec.len() < 5 {
        return Err(bad("shorter than tag + key length"));
    }
    let klen = u32::from_le_bytes(rec[1..5].try_into().unwrap()) as usize;
    if 5 + klen > rec.len() {
        return Err(bad("key length exceeds record"));
    }
    let key =
        std::str::from_utf8(&rec[5..5 + klen]).map_err(|_| bad("key is not utf-8"))?.to_string();
    match rec[0] {
        TAG_PUT => {
            map.insert(key, rec.slice(5 + klen..));
        }
        TAG_DELETE => {
            if rec.len() != 5 + klen {
                return Err(bad("delete record carries trailing bytes"));
            }
            map.remove(&key);
        }
        t => return Err(bad(&format!("unknown tag {t}"))),
    }
    Ok(())
}

fn sibling(dir: &Path, suffix: &str) -> PathBuf {
    let mut name = dir.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    dir.with_file_name(name)
}

fn sibling_new(dir: &Path) -> PathBuf {
    sibling(dir, ".new")
}

fn sibling_old(dir: &Path) -> PathBuf {
    sibling(dir, ".old")
}

fn dir_err(path: &Path, e: std::io::Error) -> DtfError {
    DtfError::Io(format!("{}: {e}", path.display()))
}

/// Repair an interrupted compaction swap before opening the log. Returns
/// whether a swapped store was promoted into place. The matrix covers
/// every crash point of the rename-aside protocol (and the legacy
/// remove-then-rename one):
///
/// - `<dir>` missing, `<dir>.new` present — crash between the renames
///   (or, legacy, after the removal): the staging is complete and
///   authoritative; promote it.
/// - `<dir>` missing, only `<dir>.old` present — should be unreachable
///   (staging only disappears by promotion), but the aside copy is a
///   complete store: restore it rather than lose it.
/// - `<dir>` present — it is authoritative. A `<dir>.new` beside it is
///   stale staging from a crash *before* any rename was attempted and is
///   removed; a `<dir>.old` is the
///   already-replaced original from a crash after promotion and is
///   removed too.
///
/// With `sync`, promotions fsync the parent directory — otherwise a power
/// loss could resurrect the half-swapped state this repair just resolved.
fn repair_compaction(dir: &Path, sync: bool) -> Result<bool> {
    let staging = sibling_new(dir);
    let aside = sibling_old(dir);
    let mut promoted = false;
    if !dir.exists() {
        let resurrect = if staging.exists() {
            Some(&staging)
        } else if aside.exists() {
            Some(&aside)
        } else {
            None
        };
        if let Some(src) = resurrect {
            fs::rename(src, dir).map_err(|e| dir_err(src, e))?;
            if sync {
                if let Some(parent) = dir.parent() {
                    fsync_dir(parent)?;
                }
            }
            promoted = true;
        }
    }
    if dir.exists() {
        for stale in [&staging, &aside] {
            if stale.exists() {
                fs::remove_dir_all(stale).map_err(|e| dir_err(stale, e))?;
            }
        }
    }
    Ok(promoted)
}

/// Write `map` as a snapshot of puts into the staging log at `staging`.
fn stage_snapshot(staging: &Path, map: &BTreeMap<String, Bytes>, cfg: LogConfig) -> Result<()> {
    if staging.exists() {
        fs::remove_dir_all(staging).map_err(|e| dir_err(staging, e))?;
    }
    let snap_cfg = LogConfig { flush: FlushPolicy::Manual, ..cfg };
    let (mut snap, _, _) = SegmentedLog::open(staging, snap_cfg)?;
    for (k, v) in map {
        snap.append(&encode_put(k, v))?;
    }
    snap.sync()?;
    drop(snap);
    if cfg.sync_data {
        // staging's directory entries must be durable before any rename
        // can make it authoritative
        fsync_dir(staging)?;
    }
    Ok(())
}

/// Crash points inside the compaction swap, for fault-injection tests:
/// [`KvWal::fail_compaction_at`] makes the swap stop (with the directory
/// in exactly that on-disk state) when it reaches the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactStep {
    /// Staging written: `<dir>.new` holds the snapshot, nothing renamed.
    Staged,
    /// Original renamed aside: `<dir>.old` + `<dir>.new`, no `<dir>`.
    OldAside,
    /// Staging promoted to `<dir>`; `<dir>.old` not yet removed.
    Promoted,
}

/// The WAL half of a durable KV: owns the log, not the map.
#[derive(Debug)]
pub struct KvWal {
    log: SegmentedLog,
    cfg: KvWalConfig,
    /// Records at the last snapshot (or compaction, which supersedes it).
    last_snapshot: u64,
    crash_at: Option<CompactStep>,
}

impl KvWal {
    /// Open the WAL at `dir`, repairing any interrupted compaction, and
    /// restore its map — from the newest valid snapshot plus a tail
    /// replay when possible, by full replay otherwise. Either path yields
    /// the identical map; `report.snapshot_records` says how many records'
    /// replay the snapshot saved, `report.skipped_segments` how many
    /// segment bodies were never read.
    pub fn open(
        dir: &Path,
        cfg: KvWalConfig,
    ) -> Result<(Self, BTreeMap<String, Bytes>, RecoveryReport)> {
        repair_compaction(dir, cfg.log.sync_data)?;
        let mut restored = None;
        if let Some((watermark, snap_map)) = snapshot::load_best(dir) {
            if watermark > 0 {
                match SegmentedLog::open_tail(dir, cfg.log, watermark)? {
                    Some((log, tail, mut report)) if report.records >= watermark => {
                        report.snapshot_records = watermark;
                        restored = Some((log, snap_map, tail, report, watermark));
                    }
                    _ => {
                        // the log no longer reaches the watermark (tear
                        // below it) or its header chain is broken: the
                        // snapshot would show state a full replay cannot —
                        // discard it, full replay is truth
                        snapshot::prune(dir, None);
                    }
                }
            }
        }
        let (log, map, report, last_snapshot) = match restored {
            Some((log, mut map, tail, report, watermark)) => {
                for rec in &tail {
                    apply_record(&mut map, rec)?;
                }
                (log, map, report, watermark)
            }
            None => {
                let (log, records, report) = SegmentedLog::open(dir, cfg.log)?;
                let mut map = BTreeMap::new();
                for rec in &records {
                    apply_record(&mut map, rec)?;
                }
                (log, map, report, 0)
            }
        };
        Ok((Self { log, cfg, last_snapshot, crash_at: None }, map, report))
    }

    /// Log a put. The caller applies the same mutation to its map.
    pub fn append_put(&mut self, key: &str, value: &[u8]) -> Result<()> {
        self.log.append(&encode_put(key, value))?;
        Ok(())
    }

    /// Log a delete. The caller applies the same mutation to its map.
    pub fn append_delete(&mut self, key: &str) -> Result<()> {
        self.log.append(&encode_delete(key))?;
        Ok(())
    }

    /// Flush pending records per [`SegmentedLog::sync`].
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Records in the log (live + superseded); the compaction input size.
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Test hook: make the compaction swap stop dead (directories left in
    /// exactly that state) when it reaches `step`. The store must be
    /// abandoned afterwards; reopening exercises crash repair.
    pub fn fail_compaction_at(&mut self, step: Option<CompactStep>) {
        self.crash_at = step;
    }

    fn check_crash(&self, step: CompactStep) -> Result<()> {
        if self.crash_at == Some(step) {
            return Err(DtfError::Io(format!("injected compaction crash at {step:?}")));
        }
        Ok(())
    }

    /// Drive maintenance: fire whichever trigger is due — compaction
    /// (records ≥ min and ≥ ratio × live) or, failing that, a periodic
    /// snapshot. Returns whether the log was compacted by this call. `map`
    /// must reflect every record already appended (the caller's
    /// write-through copy).
    pub fn maybe_maintain(&mut self, map: &BTreeMap<String, Bytes>) -> Result<bool> {
        let live = map.len() as u64;
        let records = self.log.records();
        if records >= self.cfg.compact_min_records
            && records >= self.cfg.compact_ratio * live.max(1)
        {
            self.compact(map)?;
            return Ok(true);
        }
        if self.cfg.snapshot_every > 0 && records - self.last_snapshot >= self.cfg.snapshot_every {
            self.snapshot_now(map)?;
        }
        Ok(false)
    }

    /// Write a recovery snapshot of `map` now (at the current committed
    /// watermark), regardless of cadence; returns once it is durable.
    pub fn snapshot_now(&mut self, map: &BTreeMap<String, Bytes>) -> Result<()> {
        self.log.sync()?; // the watermark must cover exactly what's on disk
        let watermark = self.log.records();
        self.last_snapshot = watermark;
        snapshot::write_snapshot(self.log.dir(), watermark, map, self.cfg.log.sync_data)?;
        snapshot::prune(self.log.dir(), Some(watermark));
        Ok(())
    }

    /// Compact: stage `map` as a log of puts, swap it in via rename-aside,
    /// and reattach the log without a replay. See the module docs for the
    /// crash-state matrix.
    fn compact(&mut self, map: &BTreeMap<String, Bytes>) -> Result<()> {
        let dir = self.log.dir().to_path_buf();
        let staging = sibling_new(&dir);
        let aside = sibling_old(&dir);
        stage_snapshot(&staging, map, self.cfg.log)?;
        self.check_crash(CompactStep::Staged)?;
        if aside.exists() {
            fs::remove_dir_all(&aside).map_err(|e| dir_err(&aside, e))?;
        }
        fs::rename(&dir, &aside).map_err(|e| dir_err(&dir, e))?;
        self.check_crash(CompactStep::OldAside)?;
        fs::rename(&staging, &dir).map_err(|e| dir_err(&staging, e))?;
        if self.cfg.log.sync_data {
            // the rename pair only survives power loss once the parent
            // directory is flushed
            if let Some(parent) = dir.parent() {
                fsync_dir(parent)?;
            }
        }
        self.check_crash(CompactStep::Promoted)?;
        fs::remove_dir_all(&aside).map_err(|e| dir_err(&aside, e))?;
        // the swapped directory was written by us this instant: reattach
        // at its end instead of replaying it
        self.log = SegmentedLog::attach_end(&dir, self.cfg.log)?;
        self.last_snapshot = self.log.records();
        Ok(())
    }

    /// Crash simulation: discard buffered records (see
    /// [`SegmentedLog::abandon`]).
    pub fn abandon(self) {
        self.log.abandon();
    }
}

/// A self-contained durable KV: [`KvWal`] plus its map. The convenience
/// form for tests and benches; the Mofka analogs use [`KvWal`] directly
/// under their own locks.
#[derive(Debug)]
pub struct WalKv {
    wal: KvWal,
    map: BTreeMap<String, Bytes>,
}

impl WalKv {
    pub fn open(dir: &Path, cfg: KvWalConfig) -> Result<(Self, RecoveryReport)> {
        let (wal, map, report) = KvWal::open(dir, cfg)?;
        Ok((Self { wal, map }, report))
    }

    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        let value = value.into();
        self.wal.append_put(&key, &value)?;
        self.map.insert(key, value);
        self.wal.maybe_maintain(&self.map)?;
        Ok(())
    }

    pub fn delete(&mut self, key: &str) -> Result<bool> {
        self.wal.append_delete(key)?;
        let existed = self.map.remove(key).is_some();
        self.wal.maybe_maintain(&self.map)?;
        Ok(existed)
    }

    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.map.get(key).cloned()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    pub fn map(&self) -> &BTreeMap<String, Bytes> {
        &self.map
    }

    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    pub fn wal(&mut self) -> &mut KvWal {
        &mut self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::segment_paths;
    use std::fs::OpenOptions;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-kv-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(sibling_new(&dir));
        let _ = fs::remove_dir_all(sibling_old(&dir));
        dir
    }

    /// No fsync: fast for tests.
    fn fast() -> KvWalConfig {
        KvWalConfig {
            log: LogConfig {
                flush: FlushPolicy::EveryRecord,
                sync_data: false,
                ..LogConfig::default()
            },
            ..KvWalConfig::default()
        }
    }

    #[test]
    fn puts_and_deletes_replay() {
        let dir = tmpdir("replay");
        {
            let (mut kv, _) = WalKv::open(&dir, fast()).unwrap();
            kv.put("a", &b"1"[..]).unwrap();
            kv.put("b", &b"2"[..]).unwrap();
            kv.put("a", &b"3"[..]).unwrap(); // overwrite
            kv.delete("b").unwrap();
            kv.put("c", &b"4"[..]).unwrap();
        }
        let (kv, report) = WalKv::open(&dir, fast()).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get("a").unwrap().as_ref(), b"3");
        assert!(kv.get("b").is_none());
        assert_eq!(kv.get("c").unwrap().as_ref(), b"4");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_map() {
        let dir = tmpdir("compact");
        let cfg = KvWalConfig { compact_min_records: 64, compact_ratio: 4, ..fast() };
        let (mut kv, _) = WalKv::open(&dir, cfg).unwrap();
        for round in 0..20u32 {
            for k in 0..10u32 {
                kv.put(format!("key-{k}"), format!("v{round}").into_bytes()).unwrap();
            }
        }
        assert_eq!(kv.len(), 10);
        assert!(kv.wal_records() < 64, "200 appends over 10 keys must have compacted");
        drop(kv);
        let (kv, _) = WalKv::open(&dir, cfg).unwrap();
        assert_eq!(kv.len(), 10);
        for k in 0..10u32 {
            assert_eq!(kv.get(&format!("key-{k}")).unwrap().as_ref(), b"v19");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bounds_reopen_to_the_tail() {
        let dir = tmpdir("snap-tail");
        let cfg = KvWalConfig {
            snapshot_every: 100,
            compact_min_records: u64::MAX, // isolate snapshotting
            log: LogConfig { segment_bytes: 1 << 10, ..fast().log },
            ..fast()
        };
        {
            let (mut kv, _) = WalKv::open(&dir, cfg).unwrap();
            for i in 0..230u32 {
                kv.put(format!("k-{}", i % 40), i.to_le_bytes().to_vec()).unwrap();
            }
            kv.sync().unwrap();
        }
        let (kv, report) = WalKv::open(&dir, cfg).unwrap();
        assert!(report.snapshot_records >= 100, "a snapshot pinned a watermark");
        assert!(report.skipped_segments > 0, "cold segment bodies were not read");
        assert_eq!(report.records, 230);
        assert_eq!(kv.len(), 40);
        for k in 0..40u32 {
            let want = (0..230u32).rfind(|i| i % 40 == k).unwrap();
            assert_eq!(kv.get(&format!("k-{k}")).unwrap().as_ref(), want.to_le_bytes());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreachable_watermark_discards_the_snapshot() {
        let dir = tmpdir("snap-unreach");
        let cfg = KvWalConfig { compact_min_records: u64::MAX, snapshot_every: 0, ..fast() };
        {
            let (mut kv, _) = WalKv::open(&dir, cfg).unwrap();
            for i in 0..50u32 {
                kv.put(format!("k-{i}"), vec![i as u8]).unwrap();
            }
            kv.sync().unwrap();
            let snap_map = kv.map.clone();
            kv.wal.snapshot_now(&snap_map).unwrap();
        }
        // hard-truncate the log below the watermark: drop the last bytes
        let path = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 40).unwrap();
        let (kv, report) = WalKv::open(&dir, cfg).unwrap();
        assert_eq!(report.snapshot_records, 0, "snapshot discarded, full replay is truth");
        assert!(report.records < 50);
        assert_eq!(kv.len(), report.records as usize);
        assert!(snapshot::snapshot_paths(&dir).is_empty(), "stale snapshot pruned");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_compaction_before_swap_is_discarded() {
        let dir = tmpdir("crash-pre");
        {
            let (mut kv, _) = WalKv::open(&dir, fast()).unwrap();
            kv.put("live", &b"yes"[..]).unwrap();
        }
        // simulate a crash after writing the snapshot but before any
        // rename: both <dir> and <dir>.new exist, <dir> is authoritative
        let new_dir = sibling_new(&dir);
        let (mut snap, _, _) = SegmentedLog::open(&new_dir, LogConfig::default()).unwrap();
        snap.append(&encode_put("stale", b"no")).unwrap();
        snap.sync().unwrap();
        drop(snap);
        let (kv, _) = WalKv::open(&dir, fast()).unwrap();
        assert_eq!(kv.len(), 1);
        assert!(kv.get("live").is_some());
        assert!(kv.get("stale").is_none());
        assert!(!new_dir.exists(), "leftover snapshot must be cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_compaction_after_removal_is_completed() {
        let dir = tmpdir("crash-post");
        // legacy crash state (remove-then-rename protocol): only
        // <dir>.new exists and must be promoted
        let new_dir = sibling_new(&dir);
        {
            let (mut snap, _, _) = SegmentedLog::open(&new_dir, LogConfig::default()).unwrap();
            snap.append(&encode_put("survivor", b"promoted")).unwrap();
            snap.sync().unwrap();
        }
        assert!(!dir.exists());
        let (kv, _) = WalKv::open(&dir, fast()).unwrap();
        assert_eq!(kv.get("survivor").unwrap().as_ref(), b"promoted");
        assert!(!new_dir.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aside_only_state_is_restored_not_lost() {
        let dir = tmpdir("crash-aside");
        let aside = sibling_old(&dir);
        {
            let (mut snap, _, _) = SegmentedLog::open(&aside, LogConfig::default()).unwrap();
            snap.append(&encode_put("kept", b"alive")).unwrap();
            snap.sync().unwrap();
        }
        let (kv, _) = WalKv::open(&dir, fast()).unwrap();
        assert_eq!(kv.get("kept").unwrap().as_ref(), b"alive");
        assert!(!aside.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_values_and_empty_values_roundtrip() {
        let dir = tmpdir("binary");
        {
            let (mut kv, _) = WalKv::open(&dir, fast()).unwrap();
            kv.put("zeros", vec![0u8; 256]).unwrap();
            kv.put("empty", Bytes::new()).unwrap();
            kv.put("utf8-key-π", &b"pi"[..]).unwrap();
        }
        let (kv, _) = WalKv::open(&dir, fast()).unwrap();
        assert_eq!(kv.get("zeros").unwrap().len(), 256);
        assert_eq!(kv.get("empty").unwrap().len(), 0);
        assert_eq!(kv.get("utf8-key-π").unwrap().as_ref(), b"pi");
        fs::remove_dir_all(&dir).unwrap();
    }
}

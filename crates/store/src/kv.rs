//! A write-ahead-logged key-value store on the segmented log.
//!
//! Every mutation is one log record, a [`KvRecord`] in its
//! `dtf_core::binfmt` form —
//!
//! ```text
//! record := 0x00 str(key) bytes(value)    put
//!         | 0x01 str(key)                 delete
//! ```
//!
//! — and opening the store replays the whole log into the map; a record
//! that does not decode is an error, not a skip. That is all the store's
//! traffic needs: the maps it backs hold what is key-value (topic
//! configs, group cursors, run metadata), under a hundred records per
//! run, so a full replay costs microseconds (DESIGN.md §16, *Why the KV
//! replays in full*).
//!
//! [`KvWal`] is the log half only — the caller owns the map, so the Yokan
//! analog keeps its one `RwLock<BTreeMap>` and writes through. Failures
//! follow the log's rule: the first failed append or sync poisons the
//! WAL, and every later append and [`KvWal::sync`] reports it.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::Path;

use bytes::Bytes;
use dtf_core::binfmt;
use dtf_core::error::{DtfError, Result};
use dtf_core::wire_enum;

use crate::log::{LogConfig, RecoveryReport, SegmentedLog};

wire_enum! {
    /// One mutation of a WAL-backed map: the only record the KV log holds.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum KvRecord("kv record") {
        Put(key: String, value: Bytes) = 0,
        Delete(key: String) = 1,
    }
}

impl KvRecord {
    fn apply(self, map: &mut BTreeMap<String, Bytes>) {
        match self {
            KvRecord::Put(key, value) => map.insert(key, value),
            KvRecord::Delete(key) => map.remove(&key),
        };
    }
}

/// The WAL half of a durable KV: owns the log, not the map.
#[derive(Debug)]
pub struct KvWal {
    log: SegmentedLog,
}

impl KvWal {
    /// Open the WAL at `dir` and restore its map by replaying every
    /// committed record in order.
    pub fn open(
        dir: &Path,
        cfg: LogConfig,
    ) -> Result<(Self, BTreeMap<String, Bytes>, RecoveryReport)> {
        let (log, records, report) = SegmentedLog::open(dir, cfg)?;
        let mut map = BTreeMap::new();
        for rec in &records {
            binfmt::decode::<KvRecord>(rec)
                .map_err(|e| DtfError::Io(ErrorKind::InvalidData, format!("kv wal record: {e}")))?
                .apply(&mut map);
        }
        Ok((Self { log }, map, report))
    }

    /// Log `rec`. The caller applies the same mutation to its map.
    pub fn append(&mut self, rec: &KvRecord) -> Result<()> {
        self.log.append(&binfmt::encode(rec))?;
        Ok(())
    }

    /// Flush pending records per [`SegmentedLog::sync`].
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FlushPolicy;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-kv-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(key: &str, value: &[u8]) -> KvRecord {
        KvRecord::Put(key.into(), Bytes::copy_from_slice(value))
    }

    /// No fsync: fast for tests.
    fn fast() -> LogConfig {
        LogConfig { flush: FlushPolicy::EveryRecord, sync_data: false, ..LogConfig::default() }
    }

    #[test]
    fn puts_and_deletes_replay() {
        let dir = tmpdir("replay");
        {
            let (mut wal, _, _) = KvWal::open(&dir, fast()).unwrap();
            wal.append(&put("a", b"1")).unwrap();
            wal.append(&put("b", b"2")).unwrap();
            wal.append(&put("a", b"3")).unwrap(); // overwrite
            wal.append(&KvRecord::Delete("b".into())).unwrap();
            wal.append(&put("c", b"4")).unwrap();
        }
        let (_, map, report) = KvWal::open(&dir, fast()).unwrap();
        assert_eq!(report.records, 5);
        assert_eq!(map.len(), 2);
        assert_eq!(map["a"].as_ref(), b"3");
        assert!(!map.contains_key("b"));
        assert_eq!(map["c"].as_ref(), b"4");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_values_and_empty_values_roundtrip() {
        let dir = tmpdir("binary");
        {
            let (mut wal, _, _) = KvWal::open(&dir, fast()).unwrap();
            wal.append(&put("zeros", &[0u8; 256])).unwrap();
            wal.append(&put("empty", b"")).unwrap();
            wal.append(&put("utf8-key-π", b"pi")).unwrap();
        }
        let (_, map, _) = KvWal::open(&dir, fast()).unwrap();
        assert_eq!(map["zeros"].len(), 256);
        assert_eq!(map["empty"].len(), 0);
        assert_eq!(map["utf8-key-π"].as_ref(), b"pi");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_that_does_not_decode_is_an_error() {
        let dir = tmpdir("garbage");
        for rec in [&[2, 1, b'k'][..], &[0, 1, b'k'], &[1, 1, b'k', 0]] {
            {
                let _ = fs::remove_dir_all(&dir);
                let (mut log, _, _) = SegmentedLog::open(&dir, fast()).unwrap();
                log.append(rec).unwrap();
            }
            let err = KvWal::open(&dir, fast()).unwrap_err().to_string();
            assert!(err.contains("kv wal record"), "{rec:?}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

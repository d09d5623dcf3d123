//! A write-ahead-logged key-value store on the segmented log.
//!
//! Every mutation is one log record — `0x00 | klen:u32le | key | value`
//! for a put, `0x01 | klen:u32le | key` for a delete — and opening the
//! store replays the whole log into the map. That is all the store's
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
use dtf_core::error::{DtfError, Result};

use crate::log::{LogConfig, RecoveryReport, SegmentedLog};

const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;

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
    let bad = |what: &str| DtfError::Io(ErrorKind::InvalidData, format!("kv wal record: {what}"));
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
            apply_record(&mut map, rec)?;
        }
        Ok((Self { log }, map, report))
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

    /// No fsync: fast for tests.
    fn fast() -> LogConfig {
        LogConfig { flush: FlushPolicy::EveryRecord, sync_data: false, ..LogConfig::default() }
    }

    #[test]
    fn puts_and_deletes_replay() {
        let dir = tmpdir("replay");
        {
            let (mut wal, _, _) = KvWal::open(&dir, fast()).unwrap();
            wal.append_put("a", b"1").unwrap();
            wal.append_put("b", b"2").unwrap();
            wal.append_put("a", b"3").unwrap(); // overwrite
            wal.append_delete("b").unwrap();
            wal.append_put("c", b"4").unwrap();
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
            wal.append_put("zeros", &[0u8; 256]).unwrap();
            wal.append_put("empty", b"").unwrap();
            wal.append_put("utf8-key-π", b"pi").unwrap();
        }
        let (_, map, _) = KvWal::open(&dir, fast()).unwrap();
        assert_eq!(map["zeros"].len(), 256);
        assert_eq!(map["empty"].len(), 0);
        assert_eq!(map["utf8-key-π"].as_ref(), b"pi");
        fs::remove_dir_all(&dir).unwrap();
    }
}

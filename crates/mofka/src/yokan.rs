//! Yokan-analog key/value micro-service.
//!
//! Mofka stores topic and consumer-group metadata in Yokan; so do we. The
//! store is a sorted map guarded by an `RwLock`, supporting point ops and
//! prefix listing (the operations Mofka's metadata layer uses). It holds
//! only what is key-value — topic configs (`topic-config/`), consumer-group
//! cursors (`group/`), the archived run's metadata — under a hundred log
//! records per run; the event stream itself is persisted as a log (see
//! [`crate::topic`]).
//!
//! A Yokan can optionally be **durable**: [`Yokan::durable`] attaches a
//! write-ahead log (dtf-store's [`KvWal`]) and every mutation is written
//! through to it under the map lock as one [`KvRecord`], so the on-disk
//! log always replays to the in-memory map; a [`Yokan::update`] that
//! leaves the value as it is writes nothing. Mutation signatures stay
//! infallible: the log's own failure rule keeps the first write error
//! (later mutations are not logged — a record after a lost one would
//! replay to a map that never existed) and every [`Yokan::sync`], the
//! commit point, reports it.
//! [`Yokan::replay`] reopens a directory read-only: the map is rebuilt
//! from the log and the log handle is dropped, so archive readers never
//! mutate the store beyond recovery's torn-tail repair.

use bytes::Bytes;
use dtf_core::error::Result;
use dtf_store::{KvRecord, KvWal, LogConfig, RecoveryReport};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::path::Path;

/// A sorted KV store with prefix queries and an optional write-ahead log.
/// A failed WAL write is not returned by the mutation: the WAL keeps it
/// and [`Yokan::sync`] reports it.
#[derive(Debug, Default)]
pub struct Yokan {
    map: RwLock<BTreeMap<String, Bytes>>,
    wal: Option<Mutex<KvWal>>,
}

impl Yokan {
    /// A purely in-memory store (the seed behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable store rooted at `dir`: the WAL is
    /// replayed into the map and every future mutation writes through.
    pub fn durable(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (kv, map, report) = KvWal::open(dir, LogConfig::default())?;
        Ok((Self { map: RwLock::new(map), wal: Some(Mutex::new(kv)) }, report))
    }

    /// Rebuild the map from the log at `dir` without keeping the log
    /// attached: reads only (after recovery's torn-tail repair). The
    /// archive-reader path — reopening the same directory twice is safe.
    pub fn replay(dir: &Path) -> Result<(Self, RecoveryReport)> {
        let (kv, map, report) = KvWal::open(dir, LogConfig::default())?;
        drop(kv);
        Ok((Self { map: RwLock::new(map), wal: None }, report))
    }

    pub fn put(&self, key: impl Into<String>, value: impl Into<Bytes>) {
        let key = key.into();
        let value = value.into();
        let mut map = self.map.write();
        self.log(|| KvRecord::Put(key.clone(), value.clone()));
        map.insert(key, value);
    }

    /// Write `rec` through to the WAL, if there is one; the caller holds
    /// the map lock, so the log's order is the map's.
    fn log(&self, rec: impl FnOnce() -> KvRecord) {
        if let Some(wal) = &self.wal {
            let _ = wal.lock().append(&rec());
        }
    }

    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.map.read().get(key).cloned()
    }

    pub fn delete(&self, key: &str) -> bool {
        let mut map = self.map.write();
        self.log(|| KvRecord::Delete(key.to_string()));
        map.remove(key).is_some()
    }

    pub fn contains(&self, key: &str) -> bool {
        self.map.read().contains_key(key)
    }

    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in key order.
    pub fn list_prefix(&self, prefix: &str) -> Vec<(String, Bytes)> {
        self.map
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Atomically update the value at `key` with `f`, which sees the
    /// current value (`None` if absent) and returns the new one, or `None`
    /// to leave the value — and the map and the WAL — untouched. An error
    /// from `f` is returned and changes nothing.
    pub fn update(
        &self,
        key: &str,
        f: impl FnOnce(Option<&Bytes>) -> Result<Option<Bytes>>,
    ) -> Result<()> {
        let mut map = self.map.write();
        let Some(new) = f(map.get(key))? else { return Ok(()) };
        self.log(|| KvRecord::Put(key.to_string(), new.clone()));
        match map.get_mut(key) {
            Some(value) => *value = new,
            None => {
                map.insert(key.to_string(), new);
            }
        }
        Ok(())
    }

    /// Flush the WAL (group commit), surfacing the error that poisoned it
    /// if there is one. A no-op for in-memory stores.
    pub fn sync(&self) -> Result<()> {
        self.wal.as_ref().map_or(Ok(()), |wal| wal.lock().sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::error::DtfError;

    #[test]
    fn put_get_delete() {
        let kv = Yokan::new();
        assert!(kv.is_empty());
        kv.put("a", Bytes::from_static(b"1"));
        assert_eq!(kv.get("a"), Some(Bytes::from_static(b"1")));
        assert!(kv.contains("a"));
        assert!(kv.delete("a"));
        assert!(!kv.delete("a"));
        assert_eq!(kv.get("a"), None);
    }

    #[test]
    fn overwrite_replaces() {
        let kv = Yokan::new();
        kv.put("k", Bytes::from_static(b"old"));
        kv.put("k", Bytes::from_static(b"new"));
        assert_eq!(kv.get("k"), Some(Bytes::from_static(b"new")));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn prefix_listing_is_ordered_and_exact() {
        let kv = Yokan::new();
        kv.put("topic/a/0", Bytes::from_static(b"x"));
        kv.put("topic/a/1", Bytes::from_static(b"y"));
        kv.put("topic/b/0", Bytes::from_static(b"z"));
        kv.put("topiz", Bytes::from_static(b"w"));
        let got = kv.list_prefix("topic/a/");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "topic/a/0");
        assert_eq!(got[1].0, "topic/a/1");
        assert!(kv.list_prefix("nope").is_empty());
    }

    #[test]
    fn update_inserts_and_mutates() {
        let kv = Yokan::new();
        kv.update("ctr", |old| {
            assert!(old.is_none());
            Ok(Some(Bytes::from_static(b"1")))
        })
        .unwrap();
        kv.update("ctr", |old| {
            assert_eq!(old.unwrap().as_ref(), b"1");
            Ok(Some(Bytes::from_static(b"2")))
        })
        .unwrap();
        assert_eq!(kv.get("ctr"), Some(Bytes::from_static(b"2")));
        // unchanged and failed updates leave the map alone
        kv.update("ctr", |_| Ok(None)).unwrap();
        kv.update("new", |_| Ok(None)).unwrap();
        assert!(kv.update("ctr", |_| Err(DtfError::Config("no".into()))).is_err());
        assert_eq!(kv.get("ctr"), Some(Bytes::from_static(b"2")));
        assert!(!kv.contains("new"));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let kv = Arc::new(Yokan::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        kv.put(format!("t{i}/{j}"), Bytes::from(vec![i as u8]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.len(), 800);
        assert_eq!(kv.list_prefix("t3/").len(), 100);
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-yokan-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_survives_reopen_and_replay_is_read_only() {
        let dir = tmpdir("durable");
        {
            let (kv, _) = Yokan::durable(&dir).unwrap();
            kv.put("a", Bytes::from_static(b"1"));
            kv.update("a", |_| Ok(Some(Bytes::from_static(b"2")))).unwrap();
            kv.update("a", |_| Ok(None)).unwrap();
            kv.put("gone", Bytes::from_static(b"x"));
            kv.delete("gone");
            kv.sync().unwrap();
        }
        let (kv, report) = Yokan::durable(&dir).unwrap();
        assert_eq!(report.records, 4, "an unchanged update logs nothing");
        assert_eq!(kv.get("a"), Some(Bytes::from_static(b"2")));
        assert!(kv.get("gone").is_none());
        drop(kv);
        // replay twice: read-only opens never change what is recovered
        for _ in 0..2 {
            let (ro, _) = Yokan::replay(&dir).unwrap();
            assert_eq!(ro.get("a"), Some(Bytes::from_static(b"2")));
            assert!(ro.sync().is_ok(), "sync is a no-op without a wal");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_wal_error_poisons_the_log() {
        let dir = tmpdir("poison");
        {
            let (kv, _) = Yokan::durable(&dir).unwrap();
            kv.put("before", Bytes::from_static(b"1"));
            // over the log's record cap: the WAL rejects it
            kv.put("huge", vec![0u8; dtf_store::log::MAX_RECORD_BYTES]);
            kv.put("after", Bytes::from_static(b"2"));
            assert!(kv.sync().is_err());
            assert!(kv.sync().is_err(), "the map is ahead of the log for good: every sync says so");
        }
        let (kv, report) = Yokan::replay(&dir).unwrap();
        assert_eq!(report.records, 1, "nothing is logged past the lost record");
        assert_eq!(kv.get("before"), Some(Bytes::from_static(b"1")));
        assert!(kv.get("after").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

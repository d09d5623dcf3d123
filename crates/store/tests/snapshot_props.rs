//! Snapshot-equivalence properties.
//!
//! The store's cache invariant, as properties over arbitrary schedules of
//! put / delete / sync / snapshot operations (with segment rolls and
//! threshold compactions firing naturally along the way):
//!
//! 1. Tail-only recovery (snapshot + tail replay) yields a map identical
//!    to full-replay recovery of the same directory.
//! 2. Deleting every sidecar — `.dti` indexes and `.dtk` snapshots —
//!    reproduces the identical state from the log alone.
//! 3. Both hold after a crash fault (torn tail bytes), including tears
//!    that cut below the snapshot watermark and force the fallback.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use dtf_store::kv::{KvWalConfig, WalKv};
use dtf_store::log::{segment_paths, FlushPolicy, LogConfig};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtf-snapprop-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Remove every cache artifact — index sidecars and snapshots — leaving
/// only the segment files (the truth).
fn strip_caches(dir: &Path) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("seg-") && name.ends_with(".dtl")) {
            fs::remove_file(&path).unwrap();
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Sync,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // the vendored proptest's prop_oneof! is uniform over its arms, so
    // puts are repeated to dominate the mix
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 24)),
        Just(Op::Sync),
        Just(Op::Snapshot),
    ]
}

fn small_cfg() -> KvWalConfig {
    KvWalConfig {
        // tiny segments force rolls; EveryRecord keeps committed == written
        log: LogConfig { segment_bytes: 128, flush: FlushPolicy::EveryRecord, sync_data: false },
        compact_min_records: 40,
        compact_ratio: 2,
        snapshot_every: 16,
    }
}

/// Execute a schedule into a fresh store; return the writer's final map.
fn run_schedule(dir: &Path, ops: &[Op]) -> BTreeMap<String, Bytes> {
    let (mut kv, _) = WalKv::open(dir, small_cfg()).unwrap();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                kv.put(format!("key-{k:02}"), vec![*v; (*v % 17) as usize + 1]).unwrap()
            }
            Op::Delete(k) => {
                kv.delete(&format!("key-{k:02}")).unwrap();
            }
            Op::Sync => kv.sync().unwrap(),
            Op::Snapshot => {
                let map = kv.map().clone();
                kv.wal().snapshot_now(&map).unwrap();
            }
        }
    }
    let map = kv.map().clone();
    // clean drop: EveryRecord means everything is already on disk
    drop(kv);
    map
}

fn recover(dir: &Path) -> (BTreeMap<String, Bytes>, u64, u64) {
    let (kv, report) = WalKv::open(dir, small_cfg()).unwrap();
    (kv.map().clone(), report.records, report.snapshot_records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean-shutdown equivalence: snapshot+tail recovery, cache-stripped
    /// full replay, and the writer's own map all agree.
    #[test]
    fn recovery_paths_agree_after_clean_shutdown(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let dir = scratch("clean");
        let written = run_schedule(&dir, &ops);

        let stripped = scratch("clean-stripped");
        copy_dir(&dir, &stripped);
        strip_caches(&stripped);

        let (tail_map, tail_records, _) = recover(&dir);
        let (full_map, full_records, full_snap) = recover(&stripped);
        prop_assert_eq!(full_snap, 0, "stripped store must have no snapshot to use");
        prop_assert_eq!(&tail_map, &written, "tail recovery diverged from the writer");
        prop_assert_eq!(&full_map, &written, "full replay diverged from the writer");
        prop_assert_eq!(tail_records, full_records);

        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&stripped).unwrap();
    }

    /// Crash equivalence: after tearing bytes off the committed tail —
    /// sometimes below the snapshot watermark — snapshot-aided recovery
    /// and cache-stripped full replay still agree exactly.
    #[test]
    fn recovery_paths_agree_after_a_torn_tail(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        cut in 1u64..300,
    ) {
        let dir = scratch("torn");
        run_schedule(&dir, &ops);

        // tear the last `cut` committed bytes off the log (clamped to the
        // final segment's frames; a big cut can gut it to its header)
        let victim = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&victim).unwrap().len();
        let new_len = len.saturating_sub(cut).max(28);
        OpenOptions::new().write(true).open(&victim).unwrap().set_len(new_len).unwrap();

        let stripped = scratch("torn-stripped");
        copy_dir(&dir, &stripped);
        strip_caches(&stripped);

        let (tail_map, tail_records, _) = recover(&dir);
        let (full_map, full_records, _) = recover(&stripped);
        prop_assert_eq!(&tail_map, &full_map, "damage broke recovery-path equivalence");
        prop_assert_eq!(tail_records, full_records);

        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&stripped).unwrap();
    }
}

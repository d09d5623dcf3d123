//! KV recovery properties, over arbitrary schedules of put / delete /
//! sync operations (with segment rolls firing naturally along the way)
//! followed by an arbitrary torn tail:
//!
//! 1. The reopened map equals a model fold of the schedule's first
//!    `report.records` mutations — recovery is the committed record
//!    prefix, replayed in order, and nothing else.
//! 2. Deleting every `.dti` index sidecar changes nothing recovered: the
//!    log alone is truth.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use dtf_store::kv::{KvRecord, KvWal};
use dtf_store::log::{segment_paths, FlushPolicy, LogConfig, HEADER_LEN};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtf-kvprop-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copy the segment files of `src` — the truth — and none of its index
/// sidecars.
fn copy_segments(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for seg in segment_paths(src).unwrap() {
        fs::copy(&seg, dst.join(seg.file_name().unwrap())).unwrap();
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Sync,
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
    ]
}

/// Tiny segments force rolls; `EveryRecord` keeps committed == written.
fn small_cfg() -> LogConfig {
    LogConfig { segment_bytes: 128, flush: FlushPolicy::EveryRecord, sync_data: false }
}

fn key(k: u8) -> String {
    format!("key-{k:02}")
}

fn value(v: u8) -> Vec<u8> {
    vec![v; (v % 17) as usize + 1]
}

/// Execute a schedule into a fresh store at `dir`.
fn run_schedule(dir: &Path, ops: &[Op]) {
    let (mut wal, _, _) = KvWal::open(dir, small_cfg()).unwrap();
    for op in ops {
        match op {
            Op::Put(k, v) => wal.append(&KvRecord::Put(key(*k), value(*v).into())).unwrap(),
            Op::Delete(k) => wal.append(&KvRecord::Delete(key(*k))).unwrap(),
            Op::Sync => wal.sync().unwrap(),
        }
    }
}

/// The map after the first `records` logged mutations of `ops` (a sync
/// logs nothing).
fn model(ops: &[Op], records: u64) -> BTreeMap<String, Bytes> {
    let mut map = BTreeMap::new();
    let mut logged = 0;
    for op in ops {
        if logged == records {
            break;
        }
        match op {
            Op::Put(k, v) => {
                map.insert(key(*k), Bytes::from(value(*v)));
            }
            Op::Delete(k) => {
                map.remove(&key(*k));
            }
            Op::Sync => continue,
        }
        logged += 1;
    }
    map
}

fn recover(dir: &Path) -> (BTreeMap<String, Bytes>, u64) {
    let (_, map, report) = KvWal::open(dir, small_cfg()).unwrap();
    (map, report.records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reopen_is_a_model_fold_over_the_surviving_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        // half the cases shut down clean
        cut in prop_oneof![Just(0u64), 1u64..300],
    ) {
        let dir = scratch("torn");
        run_schedule(&dir, &ops);
        let logged = ops.iter().filter(|op| !matches!(op, Op::Sync)).count() as u64;

        // tear the last `cut` committed bytes off the log (clamped to the
        // final segment's frames; a big cut can gut it to its header)
        let victim = segment_paths(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&victim).unwrap().len();
        let new_len = len.saturating_sub(cut).max(HEADER_LEN as u64);
        OpenOptions::new().write(true).open(&victim).unwrap().set_len(new_len).unwrap();

        let stripped = scratch("torn-stripped");
        copy_segments(&dir, &stripped);

        let (map, records) = recover(&dir);
        prop_assert!(records <= logged);
        if cut == 0 {
            prop_assert_eq!(records, logged, "a clean shutdown loses nothing");
        }
        prop_assert_eq!(&map, &model(&ops, records), "recovery is not the committed prefix");
        prop_assert_eq!(recover(&stripped), (map, records), "sidecars changed what recovered");

        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&stripped).unwrap();
    }
}

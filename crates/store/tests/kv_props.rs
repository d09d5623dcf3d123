//! Recovery properties of the store:
//!
//! 1. Over arbitrary schedules of KV put / delete / sync operations (with
//!    segment rolls firing naturally along the way) followed by an
//!    arbitrary torn tail, the reopened map equals a model fold of the
//!    schedule's first `report.records` mutations — recovery is the
//!    committed record prefix, replayed in order, and nothing else.
//! 2. One recovery rule: after one random damage to a multi-segment log,
//!    the archive reader (`LogReader::open`) and the writer
//!    (`SegmentedLog::open`) recover the same prefix — the same report,
//!    the same records, the same repaired files.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use dtf_store::kv::{KvRecord, KvWal};
use dtf_store::log::{segment_paths, FlushPolicy, LogConfig, FRAME_OVERHEAD, HEADER_LEN};
use dtf_store::{LogReader, ReaderOptions, SegmentedLog};

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

/// Copy every file of `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The bytes of each segment file of `dir`, in seqno order.
fn segment_bytes(dir: &Path) -> Vec<Vec<u8>> {
    segment_paths(dir).unwrap().iter().map(|p| fs::read(p).unwrap()).collect()
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

        let (map, records) = recover(&dir);
        prop_assert!(records <= logged);
        if cut == 0 {
            prop_assert_eq!(records, logged, "a clean shutdown loses nothing");
        }
        prop_assert_eq!(&map, &model(&ops, records), "recovery is not the committed prefix");

        fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_reader_and_the_writer_recover_the_same_prefix(
        records in 100u64..400,
        damage in damage_strategy(),
    ) {
        let dir = scratch("one-rule");
        let written = write_log(&dir, records);
        let segments = segment_paths(&dir).unwrap();
        prop_assert!(segments.len() >= 3, "{} segments", segments.len());
        damage.apply(&segments);

        let copy = scratch("one-rule-copy");
        copy_dir(&dir, &copy);
        let (reader, read_report) = LogReader::open(&dir, ReaderOptions).unwrap();
        let (log, recovered, log_report) = SegmentedLog::open(&copy, log_cfg()).unwrap();
        drop(log);
        prop_assert_eq!(read_report, log_report, "{:?}", damage);
        prop_assert_eq!(reader.records(), recovered.len() as u64);
        prop_assert_eq!(reader.range(0, recovered.len() + 1), recovered.clone(), "{:?}", damage);
        // the recovered records are a prefix of what was written
        prop_assert!(recovered.iter().zip(&written).all(|(r, w)| r.as_ref() == w.as_slice()));
        // and the repairs left the same files (a writer that kept no
        // segment starts a fresh one)
        if log_report.segments > 0 {
            prop_assert_eq!(segment_bytes(&dir), segment_bytes(&copy), "{:?}", damage);
        }

        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&copy).unwrap();
    }
}

/// Small segments force many rolls.
fn log_cfg() -> LogConfig {
    LogConfig { segment_bytes: 512, flush: FlushPolicy::Manual, sync_data: false }
}

/// Write `records` records of 1 to 60 bytes, so frame offsets vary; return
/// them.
fn write_log(dir: &Path, records: u64) -> Vec<Vec<u8>> {
    let (mut log, _, _) = SegmentedLog::open(dir, log_cfg()).unwrap();
    let written: Vec<Vec<u8>> =
        (0..records).map(|i| vec![i as u8; (i * 7 % 60 + 1) as usize]).collect();
    for record in &written {
        log.append(record).unwrap();
    }
    log.sync().unwrap();
    written
}

/// One damage to a multi-segment log. Indices are taken modulo what the
/// log has, so every draw lands.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut this many bytes off the last segment.
    TruncateTail(u64),
    /// Zero this many bytes at the end of the last segment.
    ZeroTail(u64),
    /// XOR `mask` into one byte past the header of segment `seg`.
    FlipBody { seg: usize, at: usize, mask: u8 },
    /// Overwrite the length field of frame `frame` of segment `seg`.
    ForgeLength { seg: usize, frame: usize, len: u32 },
    /// XOR `mask` into header byte `at` of a segment neither first nor last.
    MiddleHeader { seg: usize, at: usize, mask: u8 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (1u64..200).prop_map(Damage::TruncateTail),
        (1u64..200).prop_map(Damage::ZeroTail),
        (any::<usize>(), any::<usize>(), 1u8..255).prop_map(|(seg, at, mask)| Damage::FlipBody {
            seg,
            at,
            mask
        }),
        (any::<usize>(), any::<usize>(), any::<u32>())
            .prop_map(|(seg, frame, len)| Damage::ForgeLength { seg, frame, len }),
        (any::<usize>(), any::<usize>(), 1u8..255)
            .prop_map(|(seg, at, mask)| Damage::MiddleHeader { seg, at, mask }),
    ]
}

impl Damage {
    fn apply(&self, segments: &[PathBuf]) {
        let last = segments.len() - 1;
        let path = &segments[match *self {
            Damage::TruncateTail(_) | Damage::ZeroTail(_) => last,
            Damage::FlipBody { seg, .. } | Damage::ForgeLength { seg, .. } => seg % segments.len(),
            Damage::MiddleHeader { seg, .. } => 1 + seg % (last - 1),
        }];
        let mut data = fs::read(path).unwrap();
        match *self {
            Damage::TruncateTail(n) => data.truncate(data.len().saturating_sub(n as usize)),
            Damage::ZeroTail(n) => {
                let from = data.len().saturating_sub(n as usize);
                data[from..].fill(0);
            }
            Damage::FlipBody { at, mask, .. } => {
                let at = HEADER_LEN + at % (data.len() - HEADER_LEN);
                data[at] ^= mask;
            }
            Damage::ForgeLength { frame, len, .. } => {
                let frames = frame_offsets(&data);
                let at = frames[frame % frames.len()];
                data[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            Damage::MiddleHeader { at, mask, .. } => data[at % HEADER_LEN] ^= mask,
        }
        fs::write(path, &data).unwrap();
    }
}

/// The byte offset of each frame of an intact segment.
fn frame_offsets(segment: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut off = HEADER_LEN;
    while off < segment.len() {
        offsets.push(off);
        let len = u32::from_le_bytes(segment[off..off + 4].try_into().unwrap());
        off += FRAME_OVERHEAD + len as usize;
    }
    offsets
}

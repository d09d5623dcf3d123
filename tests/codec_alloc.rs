//! Decoding hostile bytes allocates in proportion to the bytes. For every
//! truncation, single-byte overwrite and forged 2^40 count of every
//! document in the hostile corpus (`tests/corpus`: a record of every
//! family, a Darshan log set, a `run-meta` document whose configuration
//! holds a fault of every family, topic configs, group cursors and the KV
//! records that carry them), a decode of `n` bytes allocates at most
//! `C·n + K` bytes, counted by this binary's global allocator on the
//! decoding thread — whether the decode succeeds or not.
//!
//! `C` is derived, not fitted: a decoder reserves for a count only after
//! checking that the bytes left can hold that many elements at their
//! `MIN_BYTES` each, so a collection of `E` costs at most
//! `size_of::<E>() / E::MIN_BYTES` bytes per input byte. A map's element is
//! its node: a one-entry `BTreeMap` holds a whole leaf of eleven slots.
//! Collections nest (a log set's logs hold traces and counter maps), and
//! each level reserves for the same input bytes again, so `C` is the
//! widest element's ratio times the deepest nesting.
//!
//! Nor does a seq read back from a topic log size anything: an archive
//! whose one event carries a seq near `u64::MAX` costs its drain what one
//! with a small seq does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::mem::size_of;

use bytes::Bytes;
use dtf::core::binfmt::{self, Wire};
use dtf::core::events::{IoRecord, ProvRecord};
use dtf::core::fault::{MofkaStall, StragglerFault};
use dtf::core::ids::{FileId, NodeId, TaskKey};
use dtf::core::time::Time;
use dtf::darshan::counters::FileCounters;
use dtf::darshan::log::DarshanLog;
use dtf::mofka::bedrock::{BedrockConfig, WMS_TOPICS};
use dtf::mofka::TopicConfig;
use dtf::store::{KvRecord, LogConfig, SegmentedLog};
use dtf::wms::rundata::ARCHIVE_META_KEY;
use dtf::wms::RunData;

mod corpus;

/// Counts the bytes every allocation on the current thread asks for; a
/// reallocation counts its new size in full.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Slots in a `BTreeMap` leaf (the standard library's `2B - 1`, `B = 6`).
const LEAF_SLOTS: usize = 11;

/// Bytes per input byte a collection of `E` can reserve.
fn ratio<E: Wire>() -> usize {
    size_of::<E>().div_ceil(E::MIN_BYTES)
}

/// Bytes per input byte a one-entry `BTreeMap<K, V>` costs: a whole leaf
/// (its slots and a header of two pointers' width) for one entry's bytes.
fn leaf_ratio<K: Wire, V: Wire>() -> usize {
    (2 * size_of::<usize>() + LEAF_SLOTS * (size_of::<K>() + size_of::<V>()))
        .div_ceil(K::MIN_BYTES + V::MIN_BYTES)
}

/// Collections inside collections in the corpus: a `run-meta` document's
/// log set holds logs, whose counters map and trace are the third level.
const NESTING: usize = 3;

/// Bytes a decode may allocate whatever its input: error messages, and
/// interning a task prefix the process has not seen.
const K: usize = 4096;

/// The bytes `decode::<T>(bytes)` allocates on this thread.
fn allocated_by<T: Wire + Debug>(bytes: &[u8]) -> usize {
    let before = ALLOCATED.with(Cell::get);
    let decoded = binfmt::decode::<T>(bytes);
    let after = ALLOCATED.with(Cell::get);
    drop(decoded);
    after - before
}

/// Every truncation, overwrite and forged count of `value`'s encoding,
/// each checked against `c·n + K`; returns the most bytes allocated per
/// input byte, over inputs of at least 64 bytes.
fn hostile_inputs_stay_linear<T: Wire + Debug>(value: &T, c: usize) -> f64 {
    let bytes = binfmt::encode(value);
    let corpus::Mutations { truncations, overwrites, forged } = corpus::mutations(&bytes);
    let inputs = truncations.iter().chain(&overwrites).chain(&forged);
    let mut widest: f64 = 0.0;
    for input in inputs {
        let n = input.len();
        let allocated = allocated_by::<T>(input);
        assert!(
            allocated <= c * n + K,
            "decoding {n} hostile bytes of {value:?} allocated {allocated} bytes, more than \
             {c}·n + {K}"
        );
        if n >= 64 {
            widest = widest.max(allocated as f64 / n as f64);
        }
    }
    widest
}

#[test]
fn decoding_hostile_bytes_allocates_at_most_c_n_plus_k() {
    let ratios = [
        ("TaskKey", ratio::<TaskKey>()),
        ("(TaskKey, Time)", ratio::<(TaskKey, Time)>()),
        ("NodeId", ratio::<NodeId>()),
        ("String", ratio::<String>()),
        ("IoRecord", ratio::<IoRecord>()),
        ("DarshanLog", ratio::<DarshanLog>()),
        ("MofkaStall", ratio::<MofkaStall>()),
        ("StragglerFault", ratio::<StragglerFault>()),
        ("map leaf <FileId, FileCounters>", leaf_ratio::<FileId, FileCounters>()),
        ("map leaf <String, String>", leaf_ratio::<String, String>()),
    ];
    let (widest_element, widest) = ratios.iter().max_by_key(|(_, r)| *r).unwrap();
    let c = widest * NESTING;
    eprintln!(
        "c = {c}: the widest element, {widest_element}, reserves {widest} bytes per input byte, \
         times {NESTING} levels of nesting"
    );

    let mut observed: f64 = 0.0;
    for rec in corpus::records() {
        observed = observed.max(hostile_inputs_stay_linear(&rec, c));
    }
    observed = observed.max(hostile_inputs_stay_linear(&corpus::log_set(), c));
    observed = observed.max(hostile_inputs_stay_linear(&corpus::archive_meta(), c));
    observed = observed.max(hostile_inputs_stay_linear(&TopicConfig { partitions: 300 }, c));
    observed = observed.max(hostile_inputs_stay_linear(&u64::MAX, c));
    let records = [
        KvRecord::Put("group/t/g/0".into(), binfmt::encode(&300u64).into()),
        KvRecord::Put("run-meta".into(), corpus::archive_meta().encode().into()),
        KvRecord::Put(String::new(), Bytes::new()),
        KvRecord::Delete("topic-config/logs".into()),
    ];
    for rec in &records {
        observed = observed.max(hostile_inputs_stay_linear(rec, c));
    }
    eprintln!("the most any input of 64 bytes or more allocated: {observed:.1} bytes per byte");
}

/// An archive of the WMS topics at a fresh path holding the corpus's
/// `run-meta` and one log line, logged as topic-log slot `seq`.
fn archive_of_one_line(seq: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dtf-alloc-seq-{seq}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = BedrockConfig::wms_default().bootstrap_with(Some(&dir)).unwrap();
    svc.yokan().put(ARCHIVE_META_KEY, corpus::archive_meta().encode());
    svc.sync().unwrap();
    drop(svc);
    let line = corpus::records().into_iter().find(|r| matches!(r, ProvRecord::Log(_))).unwrap();
    // a slot record: tag, topic id (the topic's row: the order the
    // deployment creates topics in), partition, offset, seq, no blob
    let topic = WMS_TOPICS.iter().position(|t| t.name == "logs").unwrap() as u32;
    let mut slot = vec![1u8];
    topic.put(&mut slot);
    0u32.put(&mut slot);
    0u64.put(&mut slot);
    seq.put(&mut slot);
    None::<u64>.put(&mut slot);
    line.put(&mut slot);
    let (mut log, _, _) = SegmentedLog::open(&dir.join("topics"), LogConfig::default()).unwrap();
    log.append(&slot).unwrap();
    log.sync().unwrap();
    dir
}

/// The bytes opening and draining the archive at `dir` allocates on this
/// thread, checking that it drained the one line.
fn allocated_by_open_archive(dir: &std::path::Path) -> usize {
    let before = ALLOCATED.with(Cell::get);
    let (data, _) = RunData::open_archive(dir).unwrap();
    let after = ALLOCATED.with(Cell::get);
    assert_eq!(data.logs.len(), 1, "the archive drains its one line");
    after - before
}

#[test]
fn a_seq_read_from_a_topic_log_sizes_no_allocation_of_the_drain() {
    let small = archive_of_one_line(1);
    let huge = archive_of_one_line(u64::MAX - 1);
    let (small_bytes, huge_bytes) =
        (allocated_by_open_archive(&small), allocated_by_open_archive(&huge));
    eprintln!("opening the archive allocated {small_bytes} bytes at seq 1, {huge_bytes} near 2^64");
    assert!(
        huge_bytes <= small_bytes + K,
        "a seq near 2^64 cost the drain {huge_bytes} bytes against {small_bytes}"
    );
    for dir in [small, huge] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

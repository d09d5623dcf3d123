//! Crash-point regression tests for the compaction swap.
//!
//! The rename-aside protocol (stage → `dir`→`.old` → `.new`→`dir` →
//! remove `.old`) must leave a recoverable store when interrupted at ANY
//! step. [`CompactStep`] injection stops the swap dead with the
//! directories in exactly that state; reopening must then repair and
//! yield the exact map the writer held at the crash — every mutation was
//! WAL-logged before the swap began, so nothing is ever lost, whichever
//! side of a rename the crash landed on.
//!
//! Also pins the stale-staging repair: a `<dir>.new` left by a crash
//! *before* any rename was attempted (including one holding arbitrary
//! garbage, not a valid log) is swept on open and never leaks state.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use dtf_store::kv::{CompactStep, KvWalConfig, WalKv};
use dtf_store::log::{FlushPolicy, LogConfig};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtf-compcrash-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(sibling(&dir, ".new"));
    let _ = fs::remove_dir_all(sibling(&dir, ".old"));
    dir
}

fn sibling(dir: &Path, suffix: &str) -> PathBuf {
    let mut name = dir.file_name().unwrap().to_os_string();
    name.push(suffix);
    dir.with_file_name(name)
}

fn cfg() -> KvWalConfig {
    KvWalConfig {
        log: LogConfig { segment_bytes: 256, flush: FlushPolicy::EveryRecord, sync_data: false },
        compact_min_records: 48,
        compact_ratio: 2,
        snapshot_every: 0, // isolate compaction
    }
}

/// Drive overwrites until the injected crash fires; return the map the
/// writer held at that instant.
fn drive_until_crash(kv: &mut WalKv) -> BTreeMap<String, Bytes> {
    for i in 0..10_000u32 {
        match kv.put(format!("key-{}", i % 8), i.to_le_bytes().to_vec()) {
            Ok(()) => {}
            Err(e) => {
                assert!(
                    e.to_string().contains("injected compaction crash"),
                    "unexpected error: {e}"
                );
                return kv.map().clone();
            }
        }
    }
    panic!("compaction never reached the injected crash point");
}

#[test]
fn crash_at_every_swap_step_recovers_the_exact_map() {
    for step in [CompactStep::Staged, CompactStep::OldAside, CompactStep::Promoted] {
        let dir = scratch("step");
        let (mut kv, _) = WalKv::open(&dir, cfg()).unwrap();
        kv.wal().fail_compaction_at(Some(step));
        let expected = drive_until_crash(&mut kv);
        drop(kv); // process death with the swap frozen mid-protocol

        let (kv, _) = WalKv::open(&dir, cfg()).unwrap();
        assert_eq!(kv.map(), &expected, "crash at {step:?} lost or resurrected state");
        assert!(!sibling(&dir, ".new").exists(), "staging swept after {step:?}");
        assert!(!sibling(&dir, ".old").exists(), "aside swept after {step:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stale_pre_rename_staging_is_swept_even_when_garbage() {
    let dir = scratch("garbage");
    {
        let (mut kv, _) = WalKv::open(&dir, cfg()).unwrap();
        for i in 0..10u32 {
            kv.put(format!("k-{i}"), vec![i as u8]).unwrap();
        }
    }
    // a crash before any rename can leave staging in ANY state — valid
    // log, partial segment, or plain garbage — and it must simply go
    let staging = sibling(&dir, ".new");
    fs::create_dir_all(staging.join("nested")).unwrap();
    fs::write(staging.join("seg-0000000000000000.dtl"), b"not a segment").unwrap();
    fs::write(staging.join("nested/junk"), b"junk").unwrap();

    let (kv, report) = WalKv::open(&dir, cfg()).unwrap();
    assert_eq!(report.records, 10);
    assert_eq!(kv.len(), 10);
    assert!(!staging.exists(), "pre-rename orphan staging must be removed");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_crashes_across_generations_stay_consistent() {
    // crash → repair → keep writing → crash again, across all steps in
    // sequence; state must track the writer map the whole way
    let dir = scratch("gens");
    let mut expected = BTreeMap::new();
    for step in [CompactStep::Promoted, CompactStep::OldAside, CompactStep::Staged] {
        let (mut kv, _) = WalKv::open(&dir, cfg()).unwrap();
        assert_eq!(kv.map(), &expected, "reopen diverged before {step:?}");
        kv.wal().fail_compaction_at(Some(step));
        expected = drive_until_crash(&mut kv);
        drop(kv);
    }
    let (kv, _) = WalKv::open(&dir, cfg()).unwrap();
    assert_eq!(kv.map(), &expected);
    fs::remove_dir_all(&dir).unwrap();
}

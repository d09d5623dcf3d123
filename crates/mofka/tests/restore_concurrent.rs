//! Topic restore versus the concurrent data plane: a persisted
//! directory must reopen to a clean committed prefix no matter what the
//! plane was doing — queued-unflushed batches are drained by `shutdown`
//! (never dropped), and a reopen racing a live service sees only
//! committed state, never a torn or reordered log.

use std::sync::atomic::{AtomicU64, Ordering};

use dtf_mofka::{
    ConsumerConfig, Event, MofkaService, ProducerConfig, ServiceConfig, ServiceMode, TopicConfig,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dtf-restore-concurrent-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_real_time(dir: &std::path::Path, shards: usize) -> MofkaService {
    MofkaService::with_config(&ServiceConfig {
        persist: Some(dir.to_path_buf()),
        mode: ServiceMode::RealTime { shards },
    })
    .unwrap()
}

mod common;

fn ev(seq: u64) -> Event {
    common::tagged(0, seq)
}

/// Every event handed to a producer `flush` before `shutdown` survives
/// the reopen — the shard queues are drained and synced, not dropped.
#[test]
fn shutdown_drains_queued_batches_before_reopen() {
    let dir = temp_dir("shutdown");
    const N: u64 = 1_000;
    {
        let svc = durable_real_time(&dir, 2);
        svc.create_topic("t", TopicConfig { partitions: 3 }).unwrap();
        let mut producer =
            svc.producer("t", ProducerConfig { batch_size: 64, ..Default::default() }).unwrap();
        for s in 0..N {
            producer.push(ev(s)).unwrap();
        }
        // flush hands the tail batches to the shard queues; no barrier —
        // shutdown below is what must drain them
        producer.flush().unwrap();
        svc.shutdown().unwrap();
    }
    let (svc, recovery) = MofkaService::reopen(&dir).unwrap();
    assert_eq!(recovery.restored_events, N, "queued batches were dropped, not drained");
    let mut consumer =
        svc.consumer("t", ConsumerConfig { group: "audit".into(), prefetch: 256 }).unwrap();
    let drained = consumer.drain_all().unwrap();
    assert_eq!(drained.len() as u64, N);
    let mut seqs: Vec<u64> = drained.iter().map(|se| common::tag(&se.event).1).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..N).collect::<Vec<_>>(), "restored stream lost or duplicated events");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reopening a directory while the producing service is still alive (its
/// plane mid-drain) is the archive path: it must succeed cleanly and see
/// a committed per-partition prefix — contiguous offsets from zero, no
/// gaps, no torn tail — never an error or a corrupt log.
#[test]
fn reopen_racing_a_live_plane_sees_a_clean_prefix() {
    let dir = temp_dir("racing");
    const N: u64 = 5_000;
    let svc = durable_real_time(&dir, 2);
    svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
    let mut producer =
        svc.producer("t", ProducerConfig { batch_size: 32, ..Default::default() }).unwrap();
    for s in 0..N {
        producer.push(ev(s)).unwrap();
        if s % 512 == 0 {
            // periodic commit points so the racing reopens have
            // something durable to see
            svc.sync().unwrap();
        }
    }
    producer.flush().unwrap();

    // while the plane may still hold queued batches, reopen the same
    // directory a few times: each must see a clean committed prefix
    let mut last_seen = 0u64;
    for _ in 0..3 {
        let (archive, recovery) = MofkaService::reopen(&dir).unwrap();
        assert!(recovery.restored_events <= N);
        let mut consumer =
            archive.consumer("t", ConsumerConfig { group: "probe".into(), prefetch: 256 }).unwrap();
        let drained = consumer.drain_all().unwrap();
        assert_eq!(drained.len() as u64, recovery.restored_events);
        // committed prefixes only grow (monotone across reopens)
        assert!(drained.len() as u64 >= last_seen, "committed prefix shrank");
        last_seen = drained.len() as u64;
        // per partition: offsets are the contiguous range 0..len
        let mut next: std::collections::HashMap<u32, u64> = Default::default();
        for se in &drained {
            let want = next.entry(se.id.partition).or_insert(0);
            assert_eq!(se.id.offset, *want, "gap in partition {}", se.id.partition);
            *want += 1;
        }
    }

    // after a graceful shutdown the full stream is visible
    svc.shutdown().unwrap();
    let (_, recovery) = MofkaService::reopen(&dir).unwrap();
    assert_eq!(recovery.restored_events, N);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Dropping a real-time service without `shutdown` still never corrupts:
/// whatever was committed reopens as a clean prefix, and a subsequent
/// reopen is deterministic (same committed state both times).
#[test]
fn ungraceful_drop_leaves_a_reopenable_store() {
    let dir = temp_dir("drop");
    const N: u64 = 2_000;
    {
        let svc = durable_real_time(&dir, 2);
        svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
        let mut producer =
            svc.producer("t", ProducerConfig { batch_size: 128, ..Default::default() }).unwrap();
        for s in 0..N {
            producer.push(ev(s)).unwrap();
        }
        producer.flush().unwrap();
        // no shutdown, no sync: the service (and its plane) just drops
    }
    let (_, first) = MofkaService::reopen(&dir).unwrap();
    let (_, second) = MofkaService::reopen(&dir).unwrap();
    assert!(first.restored_events <= N);
    assert_eq!(
        first.restored_events, second.restored_events,
        "reopen of a quiesced directory must be deterministic"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Topic restore versus concurrent producers: a persisted directory must
//! reopen to a clean committed prefix while producer threads are still
//! appending to the live service, and after the service is dropped
//! without a final sync — never a torn, gapped or reordered log.

use std::sync::atomic::{AtomicU64, Ordering};

use dtf_mofka::{ConsumerConfig, Event, MofkaService, ProducerConfig, TopicConfig};

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

fn durable(dir: &std::path::Path) -> MofkaService {
    MofkaService::durable(dir).unwrap()
}

mod common;

fn ev(seq: u64) -> Event {
    common::tagged(0, seq)
}

/// Producer threads append to a durable service while the main thread
/// commits and reopens the same directory three times. Every reopen is
/// the archive path: it must succeed cleanly and see a committed prefix
/// that only grows and holds everything flushed before the commit — per
/// partition, contiguous offsets from zero, and each producer's events in
/// push order. Each producer reports every flushed round on a channel,
/// and each reopen waits for another `PRODUCERS` reports, so it commits
/// while the producers are on later rounds. The producers append fewer records
/// than one topic-log group holds, so every file write is one of the main
/// thread's commits and a reopen never reads half a group.
#[test]
fn reopen_racing_a_live_plane_sees_a_clean_prefix() {
    let dir = temp_dir("racing");
    const PRODUCERS: u32 = 3;
    const ROUNDS: u64 = 4;
    const PER_ROUND: u64 = 500;
    let svc = durable(&dir);
    svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
    svc.sync().unwrap();
    let (flushed, reports) = std::sync::mpsc::channel();

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let (svc, flushed) = (&svc, flushed.clone());
            scope.spawn(move || {
                let mut producer = svc
                    .producer("t", ProducerConfig { batch_size: 32, ..Default::default() })
                    .unwrap();
                for round in 0..ROUNDS {
                    for s in round * PER_ROUND..(round + 1) * PER_ROUND {
                        producer.push(common::tagged(p, s)).unwrap();
                    }
                    producer.flush().unwrap();
                    // the receiver is gone only if the main thread failed
                    let _ = flushed.send(());
                }
            });
        }
        // a producer that panics hangs up instead of leaving `recv` waiting
        drop(flushed);

        let mut last_seen = 0u64;
        let mut rounds_flushed = 0u64;
        for _ in 1..ROUNDS {
            for _ in 0..PRODUCERS {
                reports.recv().unwrap();
                rounds_flushed += 1;
            }
            svc.sync().unwrap();
            let (archive, recovery) = MofkaService::reopen(&dir).unwrap();
            assert!(!recovery.topics.torn, "a committed group reopened torn");
            assert!(
                recovery.restored_events >= rounds_flushed * PER_ROUND,
                "a commit missed batches flushed before it"
            );
            let mut consumer = archive
                .consumer("t", ConsumerConfig { group: "probe".into(), prefetch: 256 })
                .unwrap();
            let drained = consumer.drain_all().unwrap();
            assert_eq!(drained.len() as u64, recovery.restored_events);
            // committed prefixes only grow (monotone across reopens)
            assert!(drained.len() as u64 >= last_seen, "committed prefix shrank");
            last_seen = drained.len() as u64;
            let mut next: std::collections::HashMap<u32, u64> = Default::default();
            let mut last_seq: std::collections::HashMap<(u32, u32), u64> = Default::default();
            for se in &drained {
                // per partition: offsets are the contiguous range 0..len
                let want = next.entry(se.id.partition).or_insert(0);
                assert_eq!(se.id.offset, *want, "gap in partition {}", se.id.partition);
                *want += 1;
                let (producer, seq) = common::tag(&se.event);
                if let Some(prev) = last_seq.insert((producer, se.id.partition), seq) {
                    assert!(seq > prev, "producer {producer} reordered in {}", se.id.partition);
                }
            }
        }
    });

    // once every producer has flushed, a commit makes the full stream visible
    svc.sync().unwrap();
    let (_, recovery) = MofkaService::reopen(&dir).unwrap();
    assert_eq!(recovery.restored_events, PRODUCERS as u64 * ROUNDS * PER_ROUND);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Dropping a durable service without `sync` still never corrupts:
/// whatever was committed reopens as a clean prefix, and a subsequent
/// reopen is deterministic (same committed state both times).
#[test]
fn ungraceful_drop_leaves_a_reopenable_store() {
    let dir = temp_dir("drop");
    const N: u64 = 2_000;
    {
        let svc = durable(&dir);
        svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
        let mut producer =
            svc.producer("t", ProducerConfig { batch_size: 128, ..Default::default() }).unwrap();
        for s in 0..N {
            producer.push(ev(s)).unwrap();
        }
        producer.flush().unwrap();
        // no sync: the service just drops
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

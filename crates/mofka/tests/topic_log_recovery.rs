//! The topic log at the Mofka level: what `MofkaService` recovers when the
//! log behind its partitions is torn, and what a writable reopen does
//! about state in the *other* logs that the tear left ahead of it.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use dtf_core::binfmt;
use dtf_mofka::{ConsumerConfig, Event, MofkaService, ProducerConfig, StoredEvent, TopicConfig};
use dtf_store::log::segment_paths;

mod common;
use common::{tag, tagged};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtf-topic-log-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> MofkaService {
    MofkaService::durable(dir).unwrap()
}

/// Every partition's visible stream, keyed by `(topic, partition)`.
fn streams(svc: &MofkaService) -> BTreeMap<(String, u32), Vec<StoredEvent>> {
    let mut out = BTreeMap::new();
    for name in svc.topic_names() {
        let topic = svc.topic(&name).unwrap();
        for p in 0..topic.num_partitions() {
            out.insert((name.clone(), p), topic.read(p, 0, usize::MAX >> 1).unwrap());
        }
    }
    out
}

/// For every byte the last topic-log segment can be cut at, a reopen
/// yields per-partition streams that are prefixes of the original with
/// contiguous offsets, and a second reopen sees the identical streams.
#[test]
fn every_truncation_point_reopens_to_contiguous_prefixes() {
    let store = scratch("cuts");
    {
        let svc = durable(&store);
        svc.create_topic("a", TopicConfig { partitions: 2 }).unwrap();
        svc.create_topic("b", TopicConfig { partitions: 3 }).unwrap();
        let mut pa =
            svc.producer("a", ProducerConfig { batch_size: 4, ..Default::default() }).unwrap();
        let mut pb =
            svc.producer("b", ProducerConfig { batch_size: 3, ..Default::default() }).unwrap();
        for i in 0..24u64 {
            // interleave topics, with and without blobs
            let blob = if i % 3 == 0 { Bytes::from(vec![i as u8; 5]) } else { Bytes::new() };
            pa.push(Event { data: blob, ..tagged(0, i) }).unwrap();
            pb.push(tagged(1, i)).unwrap();
            if i == 12 {
                pa.flush().unwrap();
                pb.flush().unwrap();
                // everything b/1 gets from here on is staged, never visible
                svc.stall_partition("b", 1).unwrap();
            }
        }
        pa.flush().unwrap();
        pb.flush().unwrap();
        assert!(svc.topic("b").unwrap().staged_len(1).unwrap() > 0);
        svc.sync().unwrap();
    }
    let (original, clean) = MofkaService::reopen(&store).unwrap();
    let original = streams(&original);
    assert_eq!(clean.restored_events, 48, "staged events surface after a reopen");
    assert_eq!(original.len(), 5);

    let segment = segment_paths(&store.join("topics")).unwrap().pop().unwrap();
    let whole_segment = fs::read(&segment).unwrap();
    let mut restored_by_cut = Vec::new();
    for cut in 0..whole_segment.len() {
        fs::write(&segment, &whole_segment[..cut]).unwrap();
        let (first, recovery) = MofkaService::reopen(&store).unwrap();
        let first = streams(&first);
        for (key, events) in &first {
            let whole = &original[key];
            assert!(events.len() <= whole.len(), "cut {cut}: {key:?} grew");
            for (i, (got, want)) in events.iter().zip(whole).enumerate() {
                assert_eq!(got.id.offset, i as u64, "cut {cut}: {key:?} offsets not contiguous");
                assert_eq!(got, want, "cut {cut}: {key:?} diverges at {i}");
            }
        }
        let total: usize = first.values().map(Vec::len).sum();
        assert_eq!(total as u64, recovery.restored_events);
        let (second, again) = MofkaService::reopen(&store).unwrap();
        assert_eq!(again.restored_events, recovery.restored_events, "cut {cut}");
        assert!(!again.topics.torn, "cut {cut}: the first reopen repaired the tear");
        assert_eq!(streams(&second), first, "cut {cut}: second reopen differs");
        restored_by_cut.push(recovery.restored_events);
    }
    assert!(restored_by_cut.windows(2).all(|w| w[0] <= w[1]), "a longer log never restores less");
    assert_eq!(restored_by_cut[0], 0);
    assert_eq!(*restored_by_cut.last().unwrap(), 47, "only the last record is lost at len-1");
    fs::remove_dir_all(&store).unwrap();
}

/// Group cursors (Yokan) and slots (topic log) are separate logs. Tear the
/// topic log behind a synced cursor: a writable reopen must pull the
/// cursor back to the restored partition end, or the group would silently
/// skip the next events appended there.
#[test]
fn cursor_ahead_of_a_torn_topic_log_is_clamped_on_writable_reopen() {
    let dir = scratch("clamp");
    let group = ConsumerConfig { group: "g".into(), prefetch: 64 };
    {
        let svc = durable(&dir);
        svc.create_topic("t", TopicConfig { partitions: 1 }).unwrap();
        let mut producer = svc.producer("t", ProducerConfig::default()).unwrap();
        for i in 0..20u64 {
            producer.push(tagged(0, i)).unwrap();
        }
        producer.flush().unwrap();
        let mut consumer = svc.consumer("t", group.clone()).unwrap();
        assert_eq!(consumer.drain_all().unwrap().len(), 20);
        svc.sync().unwrap(); // cursor = 20, durable
    }
    let segment = segment_paths(&dir.join("topics")).unwrap().pop().unwrap();
    let len = fs::metadata(&segment).unwrap().len();
    fs::OpenOptions::new().write(true).open(&segment).unwrap().set_len(len / 2).unwrap();

    let svc = durable(&dir);
    let restored = svc.topic("t").unwrap().partition_len(0).unwrap();
    assert!(restored > 0 && restored < 20, "the tear lost a suffix ({restored} left)");
    assert_eq!(svc.yokan().get("group/t/g/0").unwrap(), binfmt::encode(&restored));
    let mut producer = svc.producer("t", ProducerConfig::default()).unwrap();
    for i in 100..105u64 {
        producer.push(tagged(0, i)).unwrap();
    }
    producer.flush().unwrap();
    let mut consumer = svc.consumer("t", group).unwrap();
    let seen: Vec<u64> = consumer.drain_all().unwrap().iter().map(|e| tag(&e.event).1).collect();
    assert_eq!(seen, (100..105).collect::<Vec<_>>(), "the group must see every new event");
    // and the appends continued the restored log: a reopen sees both
    svc.sync().unwrap();
    drop((producer, consumer, svc));
    let (archive, recovery) = MofkaService::reopen(&dir).unwrap();
    assert_eq!(recovery.restored_events, restored + 5);
    assert_eq!(archive.topic("t").unwrap().partition_len(0).unwrap(), restored + 5);
    fs::remove_dir_all(&dir).unwrap();
}

/// A writable reopen resumes each topic's seqs above the highest it
/// restored: the restored events keep theirs, what is pushed next takes
/// the seqs after them, and a topic that restored nothing starts at 0. A
/// reopen of the result sees every topic's seqs as `0..n` in push order.
#[test]
fn a_writable_reopen_resumes_the_seqs_above_the_restored_ones() {
    let dir = scratch("seqs");
    {
        let svc = durable(&dir);
        svc.create_topic("t", TopicConfig { partitions: 3 }).unwrap();
        svc.create_topic("u", TopicConfig { partitions: 1 }).unwrap();
        let cfg = ProducerConfig { batch_size: 4, ..Default::default() };
        let mut producer = svc.producer("t", cfg).unwrap();
        for i in 0..10u64 {
            producer.push(tagged(0, i)).unwrap();
        }
        producer.flush().unwrap();
        svc.sync().unwrap();
    }
    {
        let svc = durable(&dir);
        let mut producer = svc.producer("t", ProducerConfig::default()).unwrap();
        for i in 10..15u64 {
            producer.push(tagged(0, i)).unwrap();
        }
        producer.flush().unwrap();
        svc.topic("u").unwrap().append_batch(0, vec![tagged(1, 0)]).unwrap();
        svc.sync().unwrap();
    }
    let (archive, recovery) = MofkaService::reopen(&dir).unwrap();
    assert_eq!(recovery.restored_events, 16);
    let streams = streams(&archive);
    let seqs = |topic: &str| {
        let events = streams.iter().filter(|((t, _), _)| t == topic).flat_map(|(_, e)| e);
        let mut seqs: Vec<(u64, u64)> = events.map(|e| (e.seq, tag(&e.event).1)).collect();
        seqs.sort_unstable();
        seqs
    };
    assert_eq!(seqs("t"), (0..15).map(|i| (i, i)).collect::<Vec<_>>(), "(seq, push index)");
    assert_eq!(seqs("u"), [(0, 0)]);
    fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a over every topic-log segment of `store`, in segment order.
fn topic_log_fnv64(store: &Path) -> u64 {
    let mut hash = dtf_core::FNV64_BASIS;
    for segment in segment_paths(&store.join("topics")).unwrap() {
        hash = dtf_core::fnv64_extend(hash, &fs::read(segment).unwrap());
    }
    hash
}

/// What the event path promises: a record read back *is* the record
/// pushed, with the seq it was pushed as — from the live service and from
/// a reopen of its store — and how a record is held in memory never
/// reaches the disk: the topic-log bytes of this push sequence are pinned.
#[test]
fn a_record_read_back_is_the_record_pushed_and_the_log_bytes_are_pinned() {
    use dtf_core::events::{
        LogEntry, LogLevel, LogSource, ProvRecord, TaskDoneEvent, TaskMetaEvent, WarningEvent,
        WarningKind,
    };
    use dtf_core::ids::{ClientId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
    use dtf_core::time::{Dur, Time};
    use dtf_mofka::producer::PartitionStrategy;

    let pushed: Vec<(ProvRecord, Bytes)> = (0..40u32)
        .map(|i| {
            let key = TaskKey::new("stage", i / 4, i % 4);
            let record: ProvRecord = match i % 4 {
                0 => TaskMetaEvent {
                    key,
                    graph: GraphId(i / 8),
                    client: ClientId(0),
                    deps: (0..i % 3).map(|d| TaskKey::new("stage", i / 4, 10 + d)).collect(),
                    submitted: Time(i as u64),
                }
                .into(),
                1 => TaskDoneEvent {
                    key,
                    graph: GraphId(i / 8),
                    worker: WorkerId::new(NodeId(i % 2), i % 3),
                    thread: ThreadId(i as u64),
                    start: Time(i as u64),
                    stop: Time(i as u64 + 5),
                    nbytes: 1 << (i % 20),
                }
                .into(),
                2 => LogEntry {
                    time: Time(i as u64),
                    level: LogLevel::Info,
                    source: LogSource::Scheduler,
                    message: format!("event {i} \"quoted\""),
                }
                .into(),
                _ => WarningEvent {
                    kind: WarningKind::GcPause,
                    worker: None,
                    time: Time(i as u64),
                    duration: Dur(i as u64),
                }
                .into(),
            };
            // every fifth event carries a payload: blob ids reach the log
            let payload = if i % 5 == 0 { Bytes::from(vec![i as u8; 3]) } else { Bytes::new() };
            (record, payload)
        })
        .collect();

    let store = scratch("pinned");
    let read_back = |svc: &MofkaService| -> Vec<(ProvRecord, Bytes)> {
        let mut events: Vec<StoredEvent> = streams(svc).into_values().flatten().collect();
        // every record carries its own push index in a time field
        let pushed_at = |e: &StoredEvent| match &e.event.record {
            ProvRecord::TaskMeta(e) => e.submitted,
            ProvRecord::TaskDone(e) => e.start,
            ProvRecord::Log(e) => e.time,
            ProvRecord::Warning(e) => e.time,
            other => panic!("no such family was pushed: {other:?}"),
        };
        events.sort_by_key(|e| e.seq);
        for (seq, e) in events.iter().enumerate() {
            assert_eq!((e.seq, pushed_at(e).0), (seq as u64, seq as u64), "seq is push order");
        }
        events.into_iter().map(|e| (e.event.record, e.event.data)).collect()
    };
    let expected = pushed.clone();
    {
        let svc = durable(&store);
        svc.create_topic("keyed", TopicConfig { partitions: 3 }).unwrap();
        let mut producer = svc
            .producer(
                "keyed",
                ProducerConfig {
                    batch_size: 7,
                    strategy: PartitionStrategy::HashKey("key".into()),
                },
            )
            .unwrap();
        for (record, data) in &pushed {
            producer.push(Event::new(record.clone(), data.clone())).unwrap();
        }
        producer.flush().unwrap();
        assert_eq!(read_back(&svc), expected, "live read-back");
        svc.sync().unwrap();
    }
    let (archive, recovery) = MofkaService::reopen(&store).unwrap();
    assert_eq!(recovery.restored_events, pushed.len() as u64);
    assert_eq!(read_back(&archive), expected, "read-back from the reopened store");
    assert_eq!(
        topic_log_fnv64(&store),
        PINNED_TOPIC_LOG_FNV64,
        "the topic log's bytes changed for an unchanged push sequence"
    );
    fs::remove_dir_all(&store).unwrap();
}

/// Written for the push sequence above by the change that declared the
/// slot record's header in binfmt, with the event's seq: the same events
/// in the same partitions and offsets, under varint headers.
const PINNED_TOPIC_LOG_FNV64: u64 = 0xc7e1_0e24_2607_b0fe;

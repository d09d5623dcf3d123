//! Property-based tests of the streaming service against naive models.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

use dtf_core::binfmt;
use dtf_core::events::{
    Location, LogEntry, LogLevel, LogSource, ProvEvent, ProvRecord, Stimulus, TaskState,
    TransitionEvent,
};
use dtf_core::ids::{GraphId, TaskKey};
use dtf_core::time::Time;
use dtf_mofka::consumer::ConsumerConfig;
use dtf_mofka::producer::{PartitionStrategy, ProducerConfig};
use dtf_mofka::topic::TopicConfig;
use dtf_mofka::yokan::Yokan;
use dtf_mofka::{Event, EventId, MofkaService};

mod common;
use common::tagged;

/// Transition `seq` of task `task`: the keyed record `HashKey` routes on.
fn transition(task: u32, seq: u64) -> TransitionEvent {
    TransitionEvent {
        key: TaskKey::new("task", task, 0),
        graph: GraphId(0),
        from: TaskState::Released,
        to: TaskState::Waiting,
        stimulus: Stimulus::GraphSubmitted,
        location: Location::Scheduler,
        time: Time(seq),
    }
}

/// Event `n` of a generated stream: a heap-owning or a plain-data record,
/// with or without a payload, all four combinations, recognisable by `n`.
fn mixed_event(n: u64) -> Event {
    let record: ProvRecord = if n.is_multiple_of(2) {
        LogEntry {
            time: Time(n),
            level: LogLevel::Info,
            source: LogSource::Scheduler,
            message: format!("event {n}"),
        }
        .into()
    } else {
        transition(n as u32, n).into()
    };
    let data = if n.is_multiple_of(3) {
        bytes::Bytes::from(n.to_le_bytes().to_vec())
    } else {
        Default::default()
    };
    Event::new(record, data)
}

/// The group's committed cursors, summed over `partitions`.
fn group_claimed(svc: &MofkaService, topic: &str, group: &str, partitions: u32) -> u64 {
    (0..partitions)
        .map(|p| {
            svc.yokan()
                .get(&format!("group/{topic}/{group}/{p}"))
                .map_or(0, |raw| binfmt::decode::<u64>(&raw).unwrap())
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yokan behaves exactly like a BTreeMap for any operation sequence.
    #[test]
    fn yokan_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..4, 0u8..16, any::<u8>()), 0..120)
    ) {
        let kv = Yokan::new();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (op, k, v) in ops {
            let key = format!("k{k:02}");
            match op {
                0 => {
                    kv.put(key.clone(), vec![v]);
                    model.insert(key, vec![v]);
                }
                1 => {
                    let got = kv.get(&key).map(|b| b.to_vec());
                    prop_assert_eq!(got, model.get(&key).cloned());
                }
                2 => {
                    let removed = kv.delete(&key);
                    prop_assert_eq!(removed, model.remove(&key).is_some());
                }
                _ => {
                    let prefix = format!("k{:01}", k % 2);
                    let got: Vec<String> =
                        kv.list_prefix(&prefix).into_iter().map(|(k, _)| k).collect();
                    let expect: Vec<String> = model
                        .range(prefix.clone()..)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, _)| k.clone())
                        .collect();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
    }

    /// Concurrent producers with key-hash partitioning: per-key order is
    /// preserved end to end, regardless of thread interleaving.
    #[test]
    fn per_key_order_survives_concurrency(
        n_keys in 1usize..6,
        per_key in 1usize..40,
        partitions in 1u32..5,
    ) {
        let svc = Arc::new(MofkaService::new());
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let handles: Vec<_> = (0..n_keys as u32)
            .map(|key| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let mut p = svc
                        .producer("t", ProducerConfig {
                            batch_size: 4,
                            strategy: PartitionStrategy::HashKey("key".into()),
                        })
                        .unwrap();
                    for seq in 0..per_key as u64 {
                        p.push(Event::typed(transition(key, seq))).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut consumer = svc
            .consumer("t", ConsumerConfig { group: "g".into(), prefetch: 8 })
            .unwrap();
        let events = consumer.drain_all().unwrap();
        prop_assert_eq!(events.len(), n_keys * per_key);
        // per key, seq numbers arrive in increasing order
        let mut last: std::collections::HashMap<u32, i64> = Default::default();
        for e in events {
            let tr = TransitionEvent::from_record_ref(&e.event.record).unwrap();
            let (key, seq) = (tr.key.token, tr.time.0 as i64);
            let prev = last.insert(key, seq).unwrap_or(-1);
            prop_assert!(seq > prev, "key {key}: seq {seq} after {prev}");
        }
    }

    /// Offsets are dense and unique per partition whatever the batch sizes.
    #[test]
    fn offsets_dense_per_partition(batches in proptest::collection::vec(1usize..20, 1..20)) {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions: 3 }).unwrap();
        let mut total = 0usize;
        for batch in &batches {
            let mut p = svc
                .producer("t", ProducerConfig {
                    batch_size: *batch,
                    strategy: PartitionStrategy::RoundRobin,
                })
                .unwrap();
            for i in 0..*batch {
                p.push(tagged(0, i as u64)).unwrap();
            }
            p.flush().unwrap();
            total += batch;
        }
        let topic = svc.topic("t").unwrap();
        let mut sum = 0;
        for part in 0..3 {
            let len = topic.partition_len(part).unwrap();
            sum += len;
            let events = topic.read(part, 0, usize::MAX >> 1).unwrap();
            prop_assert_eq!(events.len() as u64, len);
            for (i, e) in events.iter().enumerate() {
                prop_assert_eq!(e.id.offset, i as u64, "offsets are dense");
            }
        }
        prop_assert_eq!(sum, total as u64);
    }

    /// Visiting `[offset, offset + max)` yields exactly what `read` always
    /// returned — ids, records, payload bytes — for any interleaving of
    /// appends, stalls, unstalls and reads over events with and without
    /// payloads; staged slots stay invisible until the
    /// unstall. The model is the definition: a visible and a staged list
    /// per partition.
    #[test]
    fn visiting_a_range_yields_what_read_returns(
        ops in proptest::collection::vec((0u8..8, 0u32..2, 0u64..40, 0usize..12), 1..60)
    ) {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
        let topic = svc.topic("t").unwrap();
        // each event beside the seq the topic stamped it with
        let mut visible: [Vec<(u64, Event)>; 2] = Default::default();
        let mut staged: [Vec<(u64, Event)>; 2] = Default::default();
        let mut stalled = [false; 2];
        let mut next = 0u64;
        for (op, p, offset, n) in ops {
            let part = p as usize;
            match op {
                // append a batch of n events
                0..=3 => {
                    let batch: Vec<Event> = (next..next + n as u64).map(mixed_event).collect();
                    next += n as u64;
                    let base = (visible[part].len() + staged[part].len()) as u64;
                    prop_assert_eq!(topic.append_batch(p, batch.clone()).unwrap(), (base, n));
                    let list = if stalled[part] { &mut staged[part] } else { &mut visible[part] };
                    list.extend((next - n as u64..next).zip(batch));
                }
                4 => {
                    topic.stall(p).unwrap();
                    stalled[part] = true;
                }
                5 => {
                    topic.unstall(p).unwrap();
                    stalled[part] = false;
                    let drained = std::mem::take(&mut staged[part]);
                    visible[part].extend(drained);
                }
                // visit (and read) [offset, offset + n)
                _ => {
                    let mut seen: Vec<(EventId, u64, ProvRecord, bytes::Bytes)> = Vec::new();
                    let visited = topic
                        .visit(p, offset, n, |id, seq, record, data| {
                            seen.push((id, seq, record.clone(), data));
                            Ok(())
                        })
                        .unwrap();
                    let start = (offset as usize).min(visible[part].len());
                    let want = &visible[part][start..(start + n).min(visible[part].len())];
                    prop_assert_eq!(visited, want.len());
                    prop_assert_eq!(seen.len(), want.len());
                    for (i, ((id, seq, record, data), (want_seq, event))) in
                        seen.iter().zip(want).enumerate()
                    {
                        prop_assert_eq!(*id, EventId { partition: p, offset: (start + i) as u64 });
                        prop_assert_eq!(seq, want_seq);
                        prop_assert_eq!(record, &event.record);
                        prop_assert_eq!(data, &event.data);
                    }
                    let read = topic.read(p, offset, n).unwrap();
                    prop_assert_eq!(read.len(), seen.len());
                    for (stored, (id, seq, record, data)) in read.into_iter().zip(seen) {
                        prop_assert_eq!((stored.id, stored.seq), (id, seq));
                        prop_assert_eq!(stored.event, Event::new(record, data));
                    }
                }
            }
            prop_assert_eq!(topic.partition_len(p).unwrap(), visible[part].len() as u64);
            prop_assert_eq!(topic.staged_len(p).unwrap(), staged[part].len() as u64);
        }
    }

    /// Two members of one group, stepped by an arbitrary schedule: visiting
    /// claims and delivers exactly as pulling does — same events to the
    /// same member in the same order, step for step — each event reaches
    /// the group once, and whatever was claimed but not delivered when the
    /// members drop is counted, to the event.
    #[test]
    fn consumer_visits_deliver_what_pulls_deliver(
        events in 0u64..300,
        partitions in 1u32..4,
        prefetch in 1usize..24,
        schedule in proptest::collection::vec((any::<bool>(), 1usize..40), 0..40),
    ) {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let mut producer = svc.producer("t", ProducerConfig::default()).unwrap();
        for n in 0..events {
            producer.push(mixed_event(n)).unwrap();
        }
        producer.flush().unwrap();
        let member = |group: &str| {
            svc.consumer("t", ConsumerConfig { group: group.into(), prefetch }).unwrap()
        };
        let mut pulling = [member("pull"), member("pull")];
        let mut visiting = [member("visit"), member("visit")];
        let mut delivered = std::collections::HashSet::new();
        for (second, max) in schedule {
            let who = second as usize;
            let pulled: Vec<(EventId, u64, Event)> = pulling[who]
                .pull(max)
                .unwrap()
                .into_iter()
                .map(|se| (se.id, se.seq, se.event))
                .collect();
            let mut visited = Vec::new();
            let n = visiting[who]
                .visit(max, |id, seq, record, data| {
                    visited.push((id, seq, Event::new(record.clone(), data)));
                    Ok(())
                })
                .unwrap();
            prop_assert_eq!(n, visited.len());
            prop_assert_eq!(&visited, &pulled, "member {} diverged", who);
            for (id, _, _) in visited {
                prop_assert!(delivered.insert(id), "{} delivered twice", id);
            }
        }
        let tallies: Vec<_> =
            pulling.iter().chain(&visiting).map(|c| c.discarded_claims()).collect();
        drop((pulling, visiting));
        let discarded = |members: &[dtf_mofka::DiscardedClaims]| -> u64 {
            members.iter().map(|d| d.count()).sum()
        };
        prop_assert_eq!(discarded(&tallies[..2]), discarded(&tallies[2..]));
        for (group, tally) in [("pull", &tallies[..2]), ("visit", &tallies[2..])] {
            prop_assert_eq!(
                delivered.len() as u64 + discarded(tally),
                group_claimed(&svc, "t", group, partitions),
                "group {}: delivered + discarded must equal claimed", group
            );
        }
    }
}

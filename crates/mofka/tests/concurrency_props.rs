//! Concurrency properties of the data plane.
//!
//! Two invariants, property-tested over randomized shapes:
//!
//! 1. **Exactly-once per group** — however pulls interleave across the
//!    members of a consumer group, every event is delivered to exactly
//!    one member, and no event is lost.
//! 2. **No loss under concurrent flush/pull** — with real producer and
//!    consumer threads racing on one service, the group still drains
//!    exactly the produced set.

use proptest::prelude::*;

use dtf_mofka::{ConsumerConfig, MofkaService, ProducerConfig, TopicConfig};

mod common;
use common::{tag as key, tagged as ev};

proptest! {
    /// However pulls interleave across a group's members (decided by a
    /// randomized round-robin schedule), each event lands on exactly one
    /// member and none are lost.
    #[test]
    fn group_delivery_is_exactly_once_across_members(
        partitions in 1u32..4,
        members in 1usize..5,
        prefetch in 1usize..33,
        events in 1u64..300,
        pulls in proptest::collection::vec((0usize..4, 1usize..64), 1..48),
    ) {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let mut producer = svc.producer("t", ProducerConfig::default()).unwrap();
        for s in 0..events {
            producer.push(ev(0, s)).unwrap();
        }
        producer.flush().unwrap();

        let mut group: Vec<_> = (0..members)
            .map(|_| {
                svc.consumer("t", ConsumerConfig { group: "g".into(), prefetch }).unwrap()
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        fn deliver(
            batch: Vec<dtf_mofka::StoredEvent>,
            seen: &mut std::collections::HashSet<(u32, u64)>,
        ) {
            for se in batch {
                prop_assert!(seen.insert(key(&se.event)), "duplicate delivery {:?}", se.id);
            }
        }
        for (m, n) in pulls {
            let batch = group[m % members].pull(n).unwrap();
            deliver(batch, &mut seen);
        }
        // whatever the schedule left behind, the group can always finish
        for member in &mut group {
            let rest = member.drain_all().unwrap();
            deliver(rest, &mut seen);
        }
        prop_assert_eq!(seen.len() as u64, events, "events lost");
    }
}

proptest! {
    // real threads are slow; a handful of cases is still dozens of
    // distinct producer/consumer races per test run
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Real producer threads racing a consumer on one service: the group
    /// drains exactly the produced set.
    #[test]
    fn nothing_is_lost_under_concurrent_flush_and_pull(
        producers in 1usize..5,
        partitions in 1u32..4,
        batch in 1usize..33,
        per_producer in 1u64..200,
    ) {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let total = producers as u64 * per_producer;

        let consumed = std::thread::scope(|scope| {
            for p in 0..producers {
                let svc = &svc;
                scope.spawn(move || {
                    let mut producer = svc
                        .producer("t", ProducerConfig { batch_size: batch, ..Default::default() })
                        .unwrap();
                    for s in 0..per_producer {
                        producer.push(ev(p as u32, s)).unwrap();
                    }
                    producer.flush().unwrap();
                });
            }
            let mut consumer =
                svc.consumer("t", ConsumerConfig { group: "g".into(), prefetch: 32 }).unwrap();
            let mut seen = std::collections::HashSet::new();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while (seen.len() as u64) < total && std::time::Instant::now() < deadline {
                for se in consumer.pull(64).unwrap() {
                    assert!(seen.insert(key(&se.event)), "duplicate delivery {:?}", se.id);
                }
            }
            seen
        });
        prop_assert_eq!(consumed.len() as u64, total, "events lost in the race");
    }
}

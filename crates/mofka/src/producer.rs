//! Producers: batched, partitioned event injection.
//!
//! Producers buffer events locally and append them to partitions in
//! batches, amortizing synchronization — Mofka's "batching strategies"
//! (§III-B). Partition selection is either round-robin or by hashing the
//! record's task key, which keeps all events of one task in one partition
//! (preserving per-task ordering for consumers of a partition).
//!
//! **Routing decides where an event is kept, not where it goes in a
//! run.** `push` stamps each event with its topic's next sequence number
//! before it routes it, so a topic's emission order is the order events
//! were pushed in, whichever partition, strategy or batch size held them;
//! a drain orders equal-time events by that seq. The route therefore
//! decides the topic log's bytes and no drained or exported byte. It still
//! reads only values that are the same in every process (`route`), so the
//! log's bytes repeat too.
//!
//! `push` is the per-event hot path: it takes a seq from the topic's one
//! counter, builds the partition log's own element once, in the buffer of
//! the partition it routes to, and nothing is sized or serialized. A flush
//! moves each partition's batch into the log with one `Vec::append` and
//! keeps the buffer; there is no per-flush collection and no per-event
//! conversion between what a producer holds and what a partition holds.
//!
//! `flush` appends on the calling thread, under each partition's lock in
//! turn, so when it returns every buffered event is visible to consumers.
//! Concurrent producers on one topic contend only on the partitions they
//! share, once per batch.

use serde::Serialize;
use std::hash::Hasher;
use std::sync::Arc;

use dtf_core::error::Result;
use dtf_core::ids::{KeyHasher, TaskKey};

use crate::event::Event;
use crate::topic::{SlotBatch, Topic};

/// How a producer assigns events to partitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum PartitionStrategy {
    /// Cycle through partitions.
    RoundRobin,
    /// Hash the record's task key ([`ProvRecord::task_key`]) by its token
    /// and index; events with equal keys land in the same partition,
    /// preserving their relative order. Records *without* one (warnings,
    /// logs and I/O records, which are not task-scoped) all go to
    /// [`MISSING_KEY_PARTITION`]. The field name is not consulted.
    ///
    /// [`ProvRecord::task_key`]: dtf_core::events::ProvRecord::task_key
    HashKey(String),
}

/// Where `HashKey` routes events whose record has no task key. One
/// fixed partition keeps all key-less events of a topic mutually ordered,
/// which is all the routing contract promises for them.
pub const MISSING_KEY_PARTITION: u32 = 0;

/// Producer tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProducerConfig {
    /// Flush when this many events are buffered. 1 disables batching; 0 is
    /// refused by [`crate::MofkaService::producer`].
    pub batch_size: usize,
    pub strategy: PartitionStrategy,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self { batch_size: 64, strategy: PartitionStrategy::RoundRobin }
    }
}

/// The partition `HashKey` routes `key` to: [`KeyHasher`] over
/// `key.token` and `key.index`, modulo `partitions`.
///
/// The key itself is never hashed: `TaskKey`'s `Hash` writes the interned
/// prefix's *address*, which ASLR moves in every process, and the
/// partition an event lands in is written to the topic log, whose bytes
/// would then differ from run to run. Keys that differ only in their prefix
/// therefore share a partition. That is a matter of balance, not of
/// correctness: `(prefix, token)` names a group, and
/// `GraphBuilder::new_token` makes tokens globally distinct by folding in
/// the graph id, so two groups seldom share a token.
fn route(key: &TaskKey, partitions: u32) -> u32 {
    let mut h = KeyHasher::default();
    h.write_u32(key.token);
    h.write_u32(key.index);
    (h.finish() % partitions as u64) as u32
}

/// A producer handle bound to one topic. Not `Sync`: each producing thread
/// owns its producer (Mofka's nonblocking client model); the topic itself
/// is thread-safe.
#[derive(Debug)]
pub struct Producer {
    topic: Arc<Topic>,
    cfg: ProducerConfig,
    /// Per-partition pending buffers, in the partition log's element type.
    pending: Vec<SlotBatch>,
    /// Events buffered across `pending`, exactly.
    pending_count: usize,
    rr_next: u32,
}

impl Producer {
    pub(crate) fn new(topic: Arc<Topic>, cfg: ProducerConfig) -> Self {
        let parts = topic.num_partitions() as usize;
        Self {
            topic,
            cfg,
            pending: (0..parts).map(|_| SlotBatch::default()).collect(),
            pending_count: 0,
            rr_next: 0,
        }
    }

    fn select_partition(&mut self, event: &Event) -> u32 {
        match &self.cfg.strategy {
            PartitionStrategy::RoundRobin => {
                let p = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.topic.num_partitions();
                p
            }
            PartitionStrategy::HashKey(_) => match event.record.task_key() {
                Some(key) => route(key, self.topic.num_partitions()),
                None => MISSING_KEY_PARTITION,
            },
        }
    }

    /// Stamp one event with its topic's next seq and buffer it; flushes
    /// automatically when the batch fills.
    pub fn push(&mut self, event: Event) -> Result<()> {
        let seq = self.topic.stamp();
        let p = self.select_partition(&event);
        self.pending[p as usize].push(seq, event);
        self.pending_count += 1;
        if self.pending_count >= self.cfg.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Append all buffered events to their partitions, one append under
    /// the partition's lock per non-empty partition batch; each buffer
    /// keeps its capacity for the next batch. When this returns `Ok`, every
    /// buffered event is visible to consumers. On an error the failed batch
    /// and those after it stay buffered.
    pub fn flush(&mut self) -> Result<()> {
        for (p, buf) in self.pending.iter_mut().enumerate() {
            if !buf.is_empty() {
                let (_, n) = self.topic.append_slots(p as u32, buf)?;
                self.pending_count -= n;
            }
        }
        Ok(())
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // best-effort flush so dropped producers do not lose events
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::tagged;
    use crate::topic::TopicConfig;
    use crate::warabi::Warabi;
    use dtf_core::events::{Location, ProvEvent, Stimulus, TaskState, TransitionEvent};
    use dtf_core::ids::{GraphId, TaskKey};
    use dtf_core::time::Time;

    fn topic(parts: u32) -> Arc<Topic> {
        Arc::new(Topic::new("t", &TopicConfig { partitions: parts }, Arc::new(Warabi::new()), None))
    }

    /// A task-scoped record: `key`'s transition at `time`.
    fn transition(key: TaskKey, time: u64) -> TransitionEvent {
        TransitionEvent {
            key,
            graph: GraphId(1),
            from: TaskState::Released,
            to: TaskState::Waiting,
            stimulus: Stimulus::GraphSubmitted,
            location: Location::Scheduler,
            time: Time(time),
        }
    }

    #[test]
    fn batching_defers_appends_until_batch_full() {
        let t = topic(1);
        let mut p = Producer::new(
            t.clone(),
            ProducerConfig { batch_size: 4, strategy: PartitionStrategy::RoundRobin },
        );
        for i in 0..3 {
            p.push(tagged(0, i)).unwrap();
        }
        assert_eq!(t.total_len(), 0, "nothing flushed yet");
        p.push(tagged(0, 3)).unwrap();
        assert_eq!(t.total_len(), 4, "batch flushed at threshold");
        p.flush().unwrap();
        assert_eq!(t.total_len(), 4, "nothing left buffered");
    }

    #[test]
    fn explicit_flush_drains_partial_batch() {
        let t = topic(1);
        let mut p = Producer::new(t.clone(), ProducerConfig::default());
        p.push(tagged(0, 1)).unwrap();
        p.flush().unwrap();
        assert_eq!(t.total_len(), 1);
    }

    #[test]
    fn drop_flushes_pending() {
        let t = topic(1);
        {
            let mut p = Producer::new(t.clone(), ProducerConfig::default());
            p.push(tagged(0, 1)).unwrap();
        }
        assert_eq!(t.total_len(), 1);
    }

    #[test]
    fn round_robin_spreads_events() {
        let t = topic(4);
        let mut p = Producer::new(
            t.clone(),
            ProducerConfig { batch_size: 1, strategy: PartitionStrategy::RoundRobin },
        );
        for i in 0..8 {
            p.push(tagged(0, i)).unwrap();
        }
        for part in 0..4 {
            assert_eq!(t.partition_len(part).unwrap(), 2);
        }
    }

    #[test]
    fn hash_key_keeps_same_key_in_same_partition() {
        let t = topic(4);
        let mut p = Producer::new(
            t.clone(),
            ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("task".into()) },
        );
        let (a, b) = (TaskKey::new("A", 0, 0), TaskKey::new("B", 0, 0));
        for i in 0..20 {
            p.push(Event::typed(transition(a, i))).unwrap();
            p.push(Event::typed(transition(b, i))).unwrap();
        }
        // each key's events all in exactly one partition
        let mut parts_a = vec![];
        for part in 0..4 {
            let evs = t.read(part, 0, 1000).unwrap();
            let times: Vec<u64> = evs
                .iter()
                .filter_map(|e| TransitionEvent::from_record_ref(&e.event.record))
                .filter(|tr| tr.key == a)
                .map(|tr| tr.time.0)
                .collect();
            if !times.is_empty() {
                parts_a.push(part);
                assert!(times.windows(2).all(|w| w[0] < w[1]), "per-key order preserved");
            }
        }
        assert_eq!(parts_a.len(), 1, "key A must map to exactly one partition");
    }

    /// The route is pinned: six keys, each at 1, 4 and 7 partitions, map to
    /// these constants in every process and on every build. A changed rule
    /// moves events between partitions, and so the topic log's bytes, so
    /// it must fail here first, and deliberately.
    #[test]
    fn route_is_pinned() {
        let pins: [(TaskKey, [u32; 3]); 6] = [
            (TaskKey::new("task-a", 2, 0), [0, 3, 6]),
            (TaskKey::new("inc", 0x1_0003, 4), [0, 2, 2]),
            (TaskKey::new("", 0x2_0005, 1), [0, 1, 5]),
            (TaskKey::new("päth \"q\" →🦀", 7, 41), [0, 2, 3]),
            (TaskKey::new("load", u32::MAX, u32::MAX), [0, 2, 5]),
            // differs from the `inc` key only in its prefix: same partition
            (TaskKey::new("dec", 0x1_0003, 4), [0, 2, 2]),
        ];
        for (key, expected) in pins {
            let got = [1, 4, 7].map(|parts| route(&key, parts));
            assert_eq!(got, expected, "route of {key} drifted");
        }
    }

    proptest::proptest! {
        /// Every keyed family of one key lands in one partition, for any key
        /// and partition count: the key alone routes, never the family.
        #[test]
        fn every_family_of_a_key_shares_its_partition(
            prefix in "[a-z_\"\\\n\u{1}é→🦀 ]{0,12}",
            token in proptest::any::<u32>(),
            index in proptest::any::<u32>(),
            parts in 1u32..17,
        ) {
            use dtf_core::events::{
                CommEvent, ProvRecord, ProxyAction, ProxyEvent, TaskDoneEvent, TaskMetaEvent,
                WorkerTaskState, WorkerTransitionEvent,
            };
            use dtf_core::ids::{ClientId, NodeId, ThreadId, WorkerId};

            let key = TaskKey::new(prefix, token, index);
            let worker = WorkerId::new(NodeId(0), 0);
            let families: [ProvRecord; 6] = [
                TaskMetaEvent {
                    key,
                    graph: GraphId(1),
                    client: ClientId(0),
                    deps: vec![],
                    submitted: Time(0),
                }
                .into(),
                transition(key, 1).into(),
                WorkerTransitionEvent {
                    key,
                    graph: GraphId(1),
                    worker,
                    from: WorkerTaskState::Waiting,
                    to: WorkerTaskState::Ready,
                    time: Time(2),
                }
                .into(),
                TaskDoneEvent {
                    key,
                    graph: GraphId(1),
                    worker,
                    thread: ThreadId(1),
                    start: Time(2),
                    stop: Time(3),
                    nbytes: 8,
                }
                .into(),
                CommEvent {
                    key,
                    from: worker,
                    to: WorkerId::new(NodeId(1), 0),
                    nbytes: 8,
                    start: Time(3),
                    stop: Time(4),
                }
                .into(),
                ProxyEvent {
                    action: ProxyAction::Published,
                    key,
                    graph: GraphId(1),
                    size: 8,
                    owner: worker,
                    checksum: 0,
                    generation: 0,
                    worker: None,
                    time: Time(4),
                }
                .into(),
            ];
            let mut p = Producer::new(
                topic(parts),
                ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("key".into()) },
            );
            let expected = route(&key, parts);
            proptest::prop_assert!(expected < parts);
            for record in families {
                proptest::prop_assert_eq!(p.select_partition(&Event::typed(record)), expected);
            }
        }
    }

    /// 10 000 keys shaped like the generators' (tokens `k + g·0x1_0000`
    /// from `GraphBuilder::new_token`, indexes `0..n` within a group)
    /// spread over 4 partitions within ±2 % of a quarter each.
    #[test]
    fn route_balances_generator_shaped_keys() {
        let mut counts = [0u32; 4];
        let mut total = 0u32;
        'graphs: for g in 0u32.. {
            for k in 1..=8u32 {
                // groups of 1 to 64 chunks, as maps and reductions make them
                for index in 0..(1u32 << (k % 7)) {
                    counts[route(&TaskKey::new("t", k + g * 0x1_0000, index), 4) as usize] += 1;
                    total += 1;
                    if total == 10_000 {
                        break 'graphs;
                    }
                }
            }
        }
        for (part, &n) in counts.iter().enumerate() {
            let share = n as f64 / total as f64;
            assert!((share - 0.25).abs() <= 0.02 * 0.25, "partition {part} holds {share:.4}");
        }
    }

    #[test]
    fn missing_key_routes_to_documented_partition() {
        use dtf_core::events::{WarningEvent, WarningKind};
        use dtf_core::time::Dur;

        let t = topic(4);
        let mut p = Producer::new(
            t.clone(),
            ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("key".into()) },
        );
        // a record with no task key (warnings are not task-scoped)
        let warn = WarningEvent {
            kind: WarningKind::GcPause,
            worker: None,
            time: Time(1),
            duration: Dur(2),
        };
        assert_eq!(p.select_partition(&Event::typed(warn)), MISSING_KEY_PARTITION);
    }
}

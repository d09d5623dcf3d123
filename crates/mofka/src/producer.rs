//! Producers: batched, partitioned event injection.
//!
//! Producers buffer events locally and append them to partitions in
//! batches, amortizing synchronization — Mofka's "batching strategies"
//! (§III-B). Partition selection is either round-robin or by hashing the
//! record's task key, which keeps all events of one task in one partition
//! (preserving per-task ordering for consumers).
//!
//! The hash is SipHash over the key's compact JSON text
//! ([`TaskKey::write_json`]): partition assignment decides the order of
//! equal-time events at drain time and therefore exported bytes, so it
//! stays what it has always been. A record does not pay it every time: a
//! task's events arrive in bursts (its meta, its transitions, its
//! completion), so the producer keeps a small direct-mapped memo from
//! [`TaskKey`] — three machine words, compared by value — to the partition
//! it hashed to, and only renders and SipHashes a key the memo does not
//! hold. The memo stores what the hash returned, so the assignment is the
//! historic one bit for bit; it is a cache, never a second routing rule.
//!
//! `push` is the per-event hot path: it builds the partition log's own
//! element (a slot of a [`SlotBatch`]) once, in the buffer of the
//! partition it routes to, and nothing is sized or serialized. A flush
//! moves each partition's batch into the log with one `Vec::append` and
//! keeps the buffer; there is no per-flush collection and no per-event
//! conversion between what a producer holds and what a partition holds.
//!
//! `flush` appends on the calling thread, under each partition's lock in
//! turn, so when it returns every buffered event is visible to consumers.
//! Concurrent producers on one topic contend only on the partitions they
//! share, once per batch.

use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
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
    /// Hash the record's task key ([`ProvRecord::task_key`], rendered as
    /// JSON); events with equal keys land in the same partition, preserving
    /// their relative order. Records *without* one (warnings, logs and I/O
    /// records, which are not task-scoped) all go to
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
    /// Flush when this many events are buffered. 1 disables batching.
    pub batch_size: usize,
    pub strategy: PartitionStrategy,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        Self { batch_size: 64, strategy: PartitionStrategy::RoundRobin }
    }
}

/// Entries of a producer's partition memo: a power of two, 32 KiB per
/// keyed producer, fixed for the producer's life.
const MEMO_SLOTS: usize = 1024;

/// The memo entry `key` maps to (direct-mapped: one candidate, no probing).
fn memo_slot(key: &TaskKey) -> usize {
    let mut h = KeyHasher::default();
    key.hash(&mut h);
    h.finish() as usize & (MEMO_SLOTS - 1)
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
    /// JSON text of the task key of the event being routed (`HashKey`).
    key_text: String,
    /// `HashKey` assignments of recently routed task keys, indexed by
    /// [`memo_slot`]; empty under `RoundRobin`.
    memo: Vec<Option<(TaskKey, u32)>>,
}

impl Producer {
    pub(crate) fn new(topic: Arc<Topic>, cfg: ProducerConfig) -> Self {
        assert!(cfg.batch_size >= 1, "batch_size must be >= 1");
        let parts = topic.num_partitions() as usize;
        let memo = match cfg.strategy {
            PartitionStrategy::HashKey(_) => vec![None; MEMO_SLOTS],
            PartitionStrategy::RoundRobin => Vec::new(),
        };
        Self {
            topic,
            cfg,
            pending: (0..parts).map(|_| SlotBatch::default()).collect(),
            pending_count: 0,
            rr_next: 0,
            key_text: String::new(),
            memo,
        }
    }

    fn select_partition(&mut self, event: &Event) -> u32 {
        match &self.cfg.strategy {
            PartitionStrategy::RoundRobin => {
                let p = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.topic.num_partitions();
                p
            }
            // Records route on their task key, rendered as its JSON form —
            // once per memo residency, not once per event.
            PartitionStrategy::HashKey(_) => match event.record.task_key() {
                Some(key) => {
                    let slot = memo_slot(key);
                    if let Some((held, p)) = &self.memo[slot] {
                        if held == key {
                            return *p;
                        }
                    }
                    self.key_text.clear();
                    // writing into a `String` cannot fail
                    let _ = key.write_json(&mut self.key_text);
                    let p = self.hash_key_text();
                    self.memo[slot] = Some((*key, p));
                    p
                }
                None => MISSING_KEY_PARTITION,
            },
        }
    }

    /// The partition `key_text` hashes to. `str::hash`: the bytes, then a
    /// 0xff terminator — the historic stringify-then-hash assignment (same
    /// hash, same partition).
    fn hash_key_text(&self) -> u32 {
        let mut h = DefaultHasher::new();
        h.write(self.key_text.as_bytes());
        h.write_u8(0xff);
        (h.finish() % self.topic.num_partitions() as u64) as u32
    }

    /// Buffer one event; flushes automatically when the batch fills.
    pub fn push(&mut self, event: Event) -> Result<()> {
        let p = self.select_partition(&event);
        self.pending[p as usize].push(event);
        self.pending_count += 1;
        if self.pending_count >= self.cfg.batch_size {
            self.flush()?;
        }
        Ok(())
    }

    /// Append all buffered events to their partitions, one
    /// [`Topic::append_slots`] per non-empty partition batch; each buffer
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

    /// The historic assignment: stringify the field, hash the `String`.
    /// The streaming path must reproduce it exactly — a changed assignment
    /// would reorder equal-time events at drain time and break the
    /// byte-identity gate on exported artifacts.
    fn legacy_partition(meta: &serde_json::Value, field: &str, parts: u64) -> u32 {
        use std::hash::Hash;
        let keystr = meta.get(field).map(|v| v.to_string()).unwrap_or_default();
        let mut h = DefaultHasher::new();
        keystr.hash(&mut h);
        (h.finish() % parts) as u32
    }

    #[test]
    fn hash_key_matches_stringified_hash() {
        use dtf_core::events::TaskMetaEvent;
        use dtf_core::ids::ClientId;

        let t = topic(7);
        let mut p = Producer::new(
            t.clone(),
            ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("key".into()) },
        );
        let keys = [
            TaskKey::new("task-a", 0, 0),
            TaskKey::new("task-b", 0, 1),
            TaskKey::new("inc", 12, 3),
            TaskKey::new("", 0, 0),
            TaskKey::new("päth \"q\"\n", u32::MAX, 5),
        ];
        for (i, key) in keys.into_iter().enumerate() {
            let tr = transition(key, i as u64);
            let meta = TaskMetaEvent {
                key,
                graph: GraphId(1),
                client: ClientId(0),
                deps: vec![],
                submitted: Time(i as u64),
            };
            let expected = legacy_partition(&serde_json::to_value(&tr).unwrap(), "key", 7);
            assert_eq!(p.select_partition(&Event::typed(tr)), expected, "diverged for {key}");
            // the key alone routes: every family of one task co-locates
            assert_eq!(p.select_partition(&Event::typed(meta)), expected, "families split {key}");
        }
    }

    proptest::proptest! {
        /// The typed fast path (key rendered into the reused buffer, one
        /// hash `write`) assigns what stringify-then-hash assigned, for any
        /// key and any partition count — escapes and non-ASCII included.
        #[test]
        fn typed_fast_path_matches_legacy_partition(
            prefix in "[a-z_\"\\\n\t\u{1}\u{1f}é→🦀 ]{0,12}",
            token in proptest::any::<u32>(),
            index in proptest::any::<u32>(),
            parts in 1u32..17,
        ) {
            use dtf_core::events::CommEvent;
            use dtf_core::ids::{NodeId, WorkerId};

            let mut p = Producer::new(
                topic(parts),
                ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("key".into()) },
            );
            let comm = CommEvent {
                key: TaskKey::new(prefix, token, index),
                from: WorkerId::new(NodeId(0), 0),
                to: WorkerId::new(NodeId(1), 0),
                nbytes: 8,
                start: Time(1),
                stop: Time(2),
            };
            let json = serde_json::to_value(&comm).unwrap();
            let expected = legacy_partition(&json, "key", parts as u64);
            proptest::prop_assert_eq!(p.select_partition(&Event::typed(comm)), expected);
        }
    }

    /// Another key in `key`'s memo slot: routing it evicts `key`.
    fn memo_rival(key: &TaskKey) -> TaskKey {
        (1..)
            .map(|step| TaskKey { index: key.index.wrapping_add(step), ..*key })
            .find(|rival| memo_slot(rival) == memo_slot(key))
            .expect("some index shares the slot")
    }

    proptest::proptest! {
        /// The memo is a cache in front of the hash, never a second routing
        /// rule: through cold misses, hits, and evictions by keys forced
        /// into the same slot, every typed record lands where
        /// stringify-then-hash puts it, for any partition count.
        #[test]
        fn memoized_partition_matches_unmemoized(
            keys in proptest::collection::vec(("[a-z]{1,3}", 0u32..4, 0u32..4096), 1..12),
            picks in proptest::collection::vec((0usize..12, proptest::any::<bool>()), 1..120),
            parts in 0usize..7,
        ) {
            use dtf_core::events::TaskDoneEvent;
            use dtf_core::ids::{NodeId, ThreadId, WorkerId};

            let parts = [1u32, 2, 3, 5, 8, 13, 16][parts];

            let mut p = Producer::new(
                topic(parts),
                ProducerConfig { batch_size: 1, strategy: PartitionStrategy::HashKey("key".into()) },
            );
            let keys: Vec<TaskKey> = keys
                .into_iter()
                .map(|(prefix, token, index)| TaskKey::new(prefix, token, index))
                .collect();
            for (pick, rival) in picks {
                let key = keys[pick % keys.len()];
                let key = if rival { memo_rival(&key) } else { key };
                let done = TaskDoneEvent {
                    key,
                    graph: GraphId(0),
                    worker: WorkerId::new(NodeId(0), 0),
                    thread: ThreadId(1),
                    start: Time(0),
                    stop: Time(1),
                    nbytes: 0,
                };
                let expected =
                    legacy_partition(&serde_json::to_value(&done).unwrap(), "key", parts as u64);
                proptest::prop_assert_eq!(p.select_partition(&Event::typed(done)), expected);
            }
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

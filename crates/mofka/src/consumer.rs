//! Consumers: pull-based, prefetching, exactly-once-per-group delivery.
//!
//! A consumer belongs to a *consumer group*. Group progress (the next
//! unclaimed offset per partition) lives in the shared Yokan KV store, so
//! any number of consumers in one group divide the stream between them,
//! each event going to exactly one of them. Claiming is atomic
//! (reserve-then-read), and partition order is preserved within a claim.
//!
//! Because partition logs are persistent, a fresh group created after the
//! workflow finishes replays the whole stream — the paper's post-processing
//! mode — while a group created up front tails it in situ.
//!
//! Claiming *is* the group's commit point: events a consumer claimed
//! into its local buffer and never delivered are lost to the group when
//! it drops (the at-most-once window every prefetching consumer has), so
//! drain before dropping. The loss is *counted*, never silent: drop
//! tallies the undelivered events into a [`DiscardedClaims`] handle
//! (clone it via [`Consumer::discarded_claims`] before dropping), so
//! delivered + discarded always accounts for exactly what the group's
//! offsets say was claimed.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use dtf_core::error::Result;

use crate::event::StoredEvent;
use crate::topic::Topic;
use crate::yokan::Yokan;

/// A stored group cursor: the next offset to claim, as decimal text.
fn cursor_value(raw: &[u8]) -> Option<u64> {
    std::str::from_utf8(raw).ok()?.parse().ok()
}

/// Pull every cursor of `topic` that points past its partition's end back
/// to the end. Cursors live in Yokan and slots in the topic log, each
/// committing on its own between syncs, so after a crash a cursor can
/// outlive the events it counted; left alone it would skip that many
/// offsets once the partition grows again. Run on a writable reopen —
/// redelivery (at-least-once), never a silent skip.
pub(crate) fn clamp_cursors(topic: &Topic, yokan: &Yokan) {
    for (key, raw) in yokan.list_prefix(&format!("group/{}/", topic.name())) {
        let len = key.rsplit_once('/').and_then(|(_, p)| topic.partition_len(p.parse().ok()?).ok());
        if let (Some(len), Some(cursor)) = (len, cursor_value(&raw)) {
            if cursor > len {
                yokan.put(key, len.to_string());
            }
        }
    }
}

/// Running count of claimed-but-undelivered events a consumer discarded
/// at shutdown. The handle is cloneable and outlives the consumer —
/// claim-conservation audits read it after the drop that populates it:
/// events delivered + events discarded == offsets the group advanced.
#[derive(Debug, Clone, Default)]
pub struct DiscardedClaims(Arc<AtomicU64>);

impl DiscardedClaims {
    /// Events discarded so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::AcqRel);
    }
}

/// Consumer tuning parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsumerConfig {
    /// Consumer-group name; groups share progress through Yokan.
    pub group: String,
    /// How many events to claim per partition when the local buffer runs
    /// dry (Mofka's prefetching).
    pub prefetch: usize,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        Self { group: "default".into(), prefetch: 256 }
    }
}

/// A pull consumer bound to one topic.
#[derive(Debug)]
pub struct Consumer {
    topic: Arc<Topic>,
    yokan: Arc<Yokan>,
    cfg: ConsumerConfig,
    /// Locally claimed but not yet delivered events.
    buffer: std::collections::VecDeque<StoredEvent>,
    /// Next partition to claim from (round-robin fairness).
    next_partition: u32,
    /// Claimed-but-undelivered events discarded at drop (0 until then).
    discarded: DiscardedClaims,
}

impl Consumer {
    pub(crate) fn new(topic: Arc<Topic>, yokan: Arc<Yokan>, cfg: ConsumerConfig) -> Self {
        assert!(cfg.prefetch >= 1, "prefetch must be >= 1");
        Self {
            topic,
            yokan,
            cfg,
            buffer: std::collections::VecDeque::new(),
            next_partition: 0,
            discarded: DiscardedClaims::default(),
        }
    }

    /// Handle to this consumer's discarded-claims tally. Clone it before
    /// dropping the consumer: the final count — every claimed event that
    /// was buffered but never delivered — lands during drop.
    pub fn discarded_claims(&self) -> DiscardedClaims {
        self.discarded.clone()
    }

    /// Atomically claim up to `n` offsets in `partition`; returns the
    /// claimed half-open range.
    fn claim(&self, partition: u32, n: usize) -> Result<(u64, u64)> {
        let avail = self.topic.partition_len(partition)?;
        let mut claimed = (0, 0);
        let cursor = format!("group/{}/{}/{}", self.topic.name(), self.cfg.group, partition);
        self.yokan.update(&cursor, |old| {
            let cur = old.and_then(|b| cursor_value(b)).unwrap_or(0);
            let end = avail.min(cur + n as u64).max(cur);
            claimed = (cur, end);
            Bytes::from(end.to_string())
        });
        Ok(claimed)
    }

    /// Claim and read the next nonempty range, trying each partition once
    /// from where the last claim left off. `None`: every partition is
    /// drained for this group.
    fn claim_next(&mut self) -> Result<Option<Vec<StoredEvent>>> {
        let parts = self.topic.num_partitions();
        for _ in 0..parts {
            let p = self.next_partition;
            self.next_partition = (self.next_partition + 1) % parts;
            let (start, end) = self.claim(p, self.cfg.prefetch)?;
            if end > start {
                let events = self.topic.read(p, start, (end - start) as usize)?;
                debug_assert_eq!(events.len() as u64, end - start);
                return Ok(Some(events));
            }
        }
        Ok(None)
    }

    /// Pull up to `max` events. Returns fewer (possibly zero) if the stream
    /// is currently drained — nonblocking, like Mofka's pull API.
    pub fn pull(&mut self, max: usize) -> Result<Vec<StoredEvent>> {
        if self.buffer.len() < max {
            if let Some(events) = self.claim_next()? {
                self.buffer.extend(events);
            }
        }
        let take = max.min(self.buffer.len());
        Ok(self.buffer.drain(..take).collect())
    }

    /// Drain everything currently in the topic for this group. Delivery
    /// order is that of repeated [`Self::pull`]s — what is buffered, then
    /// claim after claim — but each claimed batch is appended whole
    /// instead of passing through the buffer event by event.
    pub fn drain_all(&mut self) -> Result<Vec<StoredEvent>> {
        let mut out = Vec::from(std::mem::take(&mut self.buffer));
        while let Some(mut batch) = self.claim_next()? {
            out.append(&mut batch);
        }
        Ok(out)
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // buffered events are claimed: the group's offsets have moved past
        // them, so they are counted as discarded, never silently dropped
        self.discarded.add(self.buffer.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::topic::TopicConfig;
    use crate::warabi::Warabi;
    use serde_json::json;
    use std::collections::HashSet;

    fn setup(parts: u32, n_events: u64) -> (Arc<Topic>, Arc<Yokan>) {
        let topic = Arc::new(Topic::new(
            "t",
            &TopicConfig { partitions: parts },
            Arc::new(Warabi::new()),
            None,
        ));
        for i in 0..n_events {
            topic
                .append_batch((i % parts as u64) as u32, vec![Event::meta_only(json!({ "i": i }))])
                .unwrap();
        }
        (topic, Arc::new(Yokan::new()))
    }

    fn consumer(topic: &Arc<Topic>, yokan: &Arc<Yokan>, group: &str) -> Consumer {
        Consumer::new(
            topic.clone(),
            yokan.clone(),
            ConsumerConfig { group: group.into(), prefetch: 16 },
        )
    }

    #[test]
    fn single_consumer_sees_every_event_once() {
        let (topic, yokan) = setup(4, 100);
        let mut c = consumer(&topic, &yokan, "g");
        let got = c.drain_all().unwrap();
        assert_eq!(got.len(), 100);
        let uniq: HashSet<u64> =
            got.iter().map(|e| e.event.metadata["i"].as_u64().unwrap()).collect();
        assert_eq!(uniq.len(), 100);
        // stream drained
        assert!(c.pull(10).unwrap().is_empty());
    }

    #[test]
    fn partition_order_preserved_within_group() {
        let (topic, yokan) = setup(2, 50);
        let mut c = consumer(&topic, &yokan, "g");
        let got = c.drain_all().unwrap();
        // per-partition offsets must be increasing in delivery order
        let mut last = std::collections::HashMap::new();
        for se in got {
            let prev = last.insert(se.id.partition, se.id.offset);
            if let Some(prev) = prev {
                assert!(se.id.offset > prev, "partition order violated");
            }
        }
    }

    #[test]
    fn two_groups_each_see_full_stream() {
        let (topic, yokan) = setup(2, 40);
        let mut a = consumer(&topic, &yokan, "analysis");
        let mut b = consumer(&topic, &yokan, "archive");
        assert_eq!(a.drain_all().unwrap().len(), 40);
        assert_eq!(b.drain_all().unwrap().len(), 40);
    }

    #[test]
    fn consumers_in_one_group_partition_the_stream() {
        let (topic, yokan) = setup(4, 200);
        let mut c1 = consumer(&topic, &yokan, "g");
        let mut c2 = consumer(&topic, &yokan, "g");
        let mut got = Vec::new();
        // interleave pulls
        loop {
            let a = c1.pull(7).unwrap();
            let b = c2.pull(5).unwrap();
            if a.is_empty() && b.is_empty() {
                break;
            }
            got.extend(a);
            got.extend(b);
        }
        assert_eq!(got.len(), 200, "no duplicates, no losses");
        let uniq: HashSet<u64> =
            got.iter().map(|e| e.event.metadata["i"].as_u64().unwrap()).collect();
        assert_eq!(uniq.len(), 200);
    }

    #[test]
    fn late_events_are_picked_up_in_situ() {
        let (topic, yokan) = setup(1, 5);
        let mut c = consumer(&topic, &yokan, "g");
        assert_eq!(c.drain_all().unwrap().len(), 5);
        // workflow continues producing
        topic.append_batch(0, vec![Event::meta_only(json!({ "i": 99 }))]).unwrap();
        let more = c.pull(10).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].event.metadata["i"], 99);
    }

    /// Offsets the group has committed past, summed over partitions.
    fn group_claimed(topic: &Arc<Topic>, yokan: &Arc<Yokan>, group: &str) -> u64 {
        (0..topic.num_partitions())
            .map(|p| {
                yokan
                    .get(&format!("group/{}/{}/{}", topic.name(), group, p))
                    .and_then(|b| String::from_utf8(b.to_vec()).ok())
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .sum()
    }

    #[test]
    fn dropped_consumer_counts_discarded_claims_exactly() {
        let (topic, yokan) = setup(2, 200);
        let mut c = consumer(&topic, &yokan, "g");
        // deliver a prefix, then drop: pull(10) claimed a 16-event batch
        // and buffered the rest of it
        let delivered = c.pull(10).unwrap().len() as u64;
        let discarded = c.discarded_claims();
        drop(c);
        let claimed = group_claimed(&topic, &yokan, "g");
        assert_eq!(discarded.count(), 6, "undelivered claims must be surfaced");
        assert_eq!(
            delivered + discarded.count(),
            claimed,
            "every claimed event is either delivered or counted as discarded"
        );
    }

    #[test]
    fn drained_consumer_discards_nothing() {
        let (topic, yokan) = setup(3, 90);
        let mut c = consumer(&topic, &yokan, "g");
        let got = c.drain_all().unwrap();
        assert_eq!(got.len(), 90);
        let discarded = c.discarded_claims();
        drop(c);
        assert_eq!(discarded.count(), 0, "a drained consumer has nothing to discard");
        assert_eq!(group_claimed(&topic, &yokan, "g"), 90);
    }

    #[test]
    fn concurrent_group_members_see_exactly_once() {
        let (topic, yokan) = setup(4, 1000);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let topic = topic.clone();
                let yokan = yokan.clone();
                std::thread::spawn(move || {
                    let mut c = Consumer::new(
                        topic,
                        yokan,
                        ConsumerConfig { group: "g".into(), prefetch: 8 },
                    );
                    c.drain_all().unwrap()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), 1000);
        let uniq: HashSet<(u32, u64)> = all.iter().map(|e| (e.id.partition, e.id.offset)).collect();
        assert_eq!(uniq.len(), 1000, "every event delivered exactly once across the group");
    }
}

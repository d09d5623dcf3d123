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
//! Delivery is claim-then-visit. A consumer holds the offset *ranges* it
//! has claimed, not copies of their events: the log is append-only, so a
//! claimed range stays where it is until the consumer gets to it, and
//! [`Consumer::visit`] walks it in place ([`Topic::visit`]) handing each
//! event to a callback by reference. [`Consumer::pull`] and
//! [`Consumer::drain_all`] are the owning forms for generic consumers —
//! the same visit with a clone per event — so every form claims in the
//! same order and a consumer may mix them.
//!
//! Claiming *is* the group's commit point: events a consumer claimed and
//! never delivered are lost to the group when it drops (the at-most-once
//! window every prefetching consumer has), so drain before dropping. The
//! loss is *counted*, never silent: drop tallies the undelivered events
//! into a [`DiscardedClaims`] handle (clone it via
//! [`Consumer::discarded_claims`] before dropping), so delivered +
//! discarded always accounts for exactly what the group's offsets say was
//! claimed.
//!
//! A group cursor is the Yokan value under `group/<topic>/<group>/<p>`:
//! the next offset to claim in partition `p`, as one `u64` varint (its
//! `dtf_core::binfmt` form). A claim that advances nothing writes nothing.
//! A cursor that does not decode is an error wherever it is read — a
//! claim, or the clamp on a writable reopen — never offset 0, which would
//! deliver the whole partition to the group again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use dtf_core::binfmt;
use dtf_core::error::{DtfError, Result};
use dtf_core::events::ProvRecord;

use crate::event::{EventId, StoredEvent};
use crate::topic::Topic;
use crate::yokan::Yokan;

/// The group cursor stored under `key`.
fn cursor_value(key: &str, raw: &[u8]) -> Result<u64> {
    binfmt::decode(raw).map_err(|e| DtfError::Serde(format!("group cursor {key}: {e}")))
}

/// Pull every cursor of `topic` that points past its partition's end back
/// to the end. Cursors live in Yokan and slots in the topic log, each
/// committing on its own between syncs, so after a crash a cursor can
/// outlive the events it counted; left alone it would skip that many
/// offsets once the partition grows again. Run on a writable reopen —
/// redelivery (at-least-once), never a silent skip.
pub(crate) fn clamp_cursors(topic: &Topic, yokan: &Yokan) -> Result<()> {
    for (key, raw) in yokan.list_prefix(&format!("group/{}/", topic.name())) {
        let cursor = cursor_value(&key, &raw)?;
        let len = key.rsplit_once('/').and_then(|(_, p)| topic.partition_len(p.parse().ok()?).ok());
        if let Some(len) = len.filter(|len| cursor > *len) {
            yokan.put(key, binfmt::encode(&len));
        }
    }
    Ok(())
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Offsets `start..end` of one partition, claimed for the group and not
/// yet delivered.
#[derive(Debug, Clone, Copy)]
struct Claim {
    partition: u32,
    start: u64,
    end: u64,
}

/// A pull consumer bound to one topic.
#[derive(Debug)]
pub struct Consumer {
    topic: Arc<Topic>,
    yokan: Arc<Yokan>,
    cfg: ConsumerConfig,
    /// The group's cursor key for each partition.
    cursors: Vec<String>,
    /// Claimed but not yet delivered ranges, oldest first.
    claims: std::collections::VecDeque<Claim>,
    /// Next partition to claim from (round-robin fairness).
    next_partition: u32,
    /// Claimed-but-undelivered events discarded at drop (0 until then).
    discarded: DiscardedClaims,
}

impl Consumer {
    pub(crate) fn new(topic: Arc<Topic>, yokan: Arc<Yokan>, cfg: ConsumerConfig) -> Self {
        assert!(cfg.prefetch >= 1, "prefetch must be >= 1");
        let cursors = (0..topic.num_partitions())
            .map(|p| format!("group/{}/{}/{p}", topic.name(), cfg.group))
            .collect();
        Self {
            topic,
            yokan,
            cfg,
            cursors,
            claims: std::collections::VecDeque::new(),
            next_partition: 0,
            discarded: DiscardedClaims::default(),
        }
    }

    /// Handle to this consumer's discarded-claims tally. Clone it before
    /// dropping the consumer: the final count — every claimed event that
    /// was never delivered — lands during drop.
    pub fn discarded_claims(&self) -> DiscardedClaims {
        self.discarded.clone()
    }

    /// Events claimed and not yet delivered.
    fn undelivered(&self) -> u64 {
        self.claims.iter().map(|c| c.end - c.start).sum()
    }

    /// Atomically claim up to `n` offsets in `partition`; returns the
    /// claimed half-open range. An empty range leaves the cursor alone.
    fn claim(&self, partition: u32, n: usize) -> Result<(u64, u64)> {
        let avail = self.topic.partition_len(partition)?;
        let key = &self.cursors[partition as usize];
        let mut claimed = (0, 0);
        self.yokan.update(key, |old| {
            let cur = old.map_or(Ok(0), |raw| cursor_value(key, raw))?;
            let end = avail.min(cur.saturating_add(n as u64)).max(cur);
            claimed = (cur, end);
            Ok((end > cur).then(|| Bytes::from(binfmt::encode(&end))))
        })?;
        Ok(claimed)
    }

    /// Claim the next nonempty range (up to `prefetch` events), trying
    /// each partition once from where the last claim left off. `false`:
    /// every partition is drained for this group.
    fn claim_next(&mut self) -> Result<bool> {
        let parts = self.topic.num_partitions();
        for _ in 0..parts {
            let partition = self.next_partition;
            self.next_partition = (self.next_partition + 1) % parts;
            let (start, end) = self.claim(partition, self.cfg.prefetch)?;
            if end > start {
                self.claims.push_back(Claim { partition, start, end });
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Hand up to `max` events to `f`, in place (see [`Topic::visit`] for
    /// what `f` may do). Claims one more range first if fewer than `max`
    /// events are claimed and waiting — so repeated visits claim exactly
    /// as repeated [`Self::pull`]s of the same sizes do. Returns how many
    /// events `f` accepted (possibly zero: the stream is currently
    /// drained). An event whose callback fails ends the visit with that
    /// error and stays claimed and undelivered, as does everything behind
    /// it.
    pub fn visit(
        &mut self,
        max: usize,
        mut f: impl FnMut(EventId, u64, &ProvRecord, Bytes) -> Result<()>,
    ) -> Result<usize> {
        if self.undelivered() < max as u64 {
            self.claim_next()?;
        }
        let mut delivered = 0;
        while delivered < max {
            let Some(claim) = self.claims.front_mut() else { break };
            let want = (max - delivered).min((claim.end - claim.start) as usize);
            let mut accepted = 0;
            let visited =
                self.topic.visit(claim.partition, claim.start, want, |id, seq, record, data| {
                    f(id, seq, record, data)?;
                    accepted += 1;
                    Ok(())
                });
            claim.start += accepted as u64;
            delivered += accepted;
            if claim.start == claim.end {
                self.claims.pop_front();
            }
            visited?;
            if accepted < want {
                // the log shows less than was claimed: nothing to walk on to
                break;
            }
        }
        Ok(delivered)
    }

    /// Pull up to `max` events. Returns fewer (possibly zero) if the stream
    /// is currently drained — nonblocking, like Mofka's pull API.
    pub fn pull(&mut self, max: usize) -> Result<Vec<StoredEvent>> {
        let mut out = Vec::new();
        self.visit(max, |id, seq, record, data| {
            out.push(StoredEvent::copy_of(id, seq, record, data));
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit everything currently in the topic for this group: what is
    /// claimed and waiting, then claim after claim until every partition
    /// is drained. Returns how many events `f` accepted.
    pub fn visit_all(
        &mut self,
        mut f: impl FnMut(EventId, u64, &ProvRecord, Bytes) -> Result<()>,
    ) -> Result<usize> {
        let mut total = 0;
        loop {
            let n = self.visit(usize::MAX, &mut f)?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Drain everything currently in the topic for this group, in the
    /// order repeated [`Self::pull`]s deliver it.
    pub fn drain_all(&mut self) -> Result<Vec<StoredEvent>> {
        let mut out = Vec::new();
        self.visit_all(|id, seq, record, data| {
            out.push(StoredEvent::copy_of(id, seq, record, data));
            Ok(())
        })?;
        Ok(out)
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // undelivered ranges are claimed: the group's offsets have moved
        // past them, so they are counted as discarded, never silently dropped
        self.discarded.add(self.undelivered());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::{tag, tagged};
    use crate::topic::TopicConfig;
    use crate::warabi::Warabi;
    use std::collections::HashSet;

    fn setup(parts: u32, n_events: u64) -> (Arc<Topic>, Arc<Yokan>) {
        let topic = Arc::new(Topic::new(
            "t",
            &TopicConfig { partitions: parts },
            Arc::new(Warabi::new()),
            None,
        ));
        for i in 0..n_events {
            topic.append_batch((i % parts as u64) as u32, vec![tagged(0, i)]).unwrap();
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
        let uniq: HashSet<u64> = got.iter().map(|e| tag(&e.event.record).1).collect();
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
        let uniq: HashSet<u64> = got.iter().map(|e| tag(&e.event.record).1).collect();
        assert_eq!(uniq.len(), 200);
    }

    #[test]
    fn late_events_are_picked_up_in_situ() {
        let (topic, yokan) = setup(1, 5);
        let mut c = consumer(&topic, &yokan, "g");
        assert_eq!(c.drain_all().unwrap().len(), 5);
        // workflow continues producing
        topic.append_batch(0, vec![tagged(0, 99)]).unwrap();
        let more = c.pull(10).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(tag(&more[0].event.record), (0, 99));
    }

    /// `prefetch: usize::MAX` means "claim everything"; the second claim
    /// starts from a non-zero cursor, and cursor + prefetch must not wrap.
    #[test]
    fn claim_everything_prefetch_reads_late_events() {
        let (topic, yokan) = setup(1, 10);
        let cfg = ConsumerConfig { group: "g".into(), prefetch: usize::MAX };
        let mut c = Consumer::new(topic.clone(), yokan, cfg);
        assert_eq!(c.drain_all().unwrap().len(), 10);
        topic.append_batch(0, (10..20).map(|i| tagged(0, i))).unwrap();
        let late: Vec<u64> =
            c.drain_all().unwrap().iter().map(|e| tag(&e.event.record).1).collect();
        assert_eq!(late, (10..20).collect::<Vec<_>>());
    }

    /// Offsets the group has committed past, summed over partitions.
    fn group_claimed(topic: &Arc<Topic>, yokan: &Arc<Yokan>, group: &str) -> u64 {
        (0..topic.num_partitions())
            .map(|p| {
                yokan
                    .get(&format!("group/{}/{}/{}", topic.name(), group, p))
                    .map_or(0, |b| binfmt::decode::<u64>(&b).unwrap())
            })
            .sum()
    }

    #[test]
    fn dropped_consumer_counts_discarded_claims_exactly() {
        let (topic, yokan) = setup(2, 200);
        let mut c = consumer(&topic, &yokan, "g");
        // deliver a prefix, then drop: pull(10) claimed a 16-event range
        // and left the rest of it undelivered
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

    /// A cursor that does not decode fails the claim; read as offset 0 it
    /// would hand the group the whole partition again.
    #[test]
    fn a_cursor_that_does_not_decode_fails_the_claim_and_delivers_nothing() {
        let (topic, yokan) = setup(1, 10);
        yokan.put("group/t/g/0", Bytes::from_static(b"not a cursor"));
        let mut c = consumer(&topic, &yokan, "g");
        let pulled = c.pull(10);
        assert!(pulled.is_err(), "delivered {} events", pulled.map_or(0, |e| e.len()));
        assert_eq!(c.drain_all().map_or(0, |e| e.len()), 0, "no event is delivered");
        assert_eq!(yokan.get("group/t/g/0").unwrap().as_ref(), b"not a cursor");
    }

    /// A claim that advances nothing writes no cursor.
    #[test]
    fn an_empty_claim_writes_nothing() {
        let (topic, yokan) = setup(2, 1);
        let mut c = consumer(&topic, &yokan, "g");
        assert_eq!(c.pull(10).unwrap().len(), 1);
        assert!(c.pull(10).unwrap().is_empty());
        assert_eq!(yokan.len(), 1, "only the partition that advanced has a cursor");
        assert_eq!(group_claimed(&topic, &yokan, "g"), 1);
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

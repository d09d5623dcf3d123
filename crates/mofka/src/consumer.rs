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
//! On a real-time service, [`crate::MofkaService::consumer_pipelined`]
//! opens a consumer whose claims run on a background *prefetch pipeline*:
//! a thread that keeps claiming and reading batches ahead of demand, up
//! to `depth` batches deep, so `pull` hands over staged events instead of
//! doing a claim round-trip in lockstep. All of a pipelined consumer's
//! claims go through that one thread (never `pull` directly), so
//! per-partition delivery order is identical to the synchronous path.
//! Claiming *is* the group's commit point: dropping a pipelined consumer
//! discards any claimed-but-undelivered batches still staged in its
//! pipeline (the group has moved past them), so drain before dropping —
//! the same at-most-once window every prefetching consumer has. The
//! discard is *counted*, never silent: drop drains the pipeline, tallies
//! every claimed-but-undelivered event into a [`DiscardedClaims`] handle
//! (clone it via [`Consumer::discarded_claims`] before dropping), and
//! logs the loss — so delivered + discarded always accounts for exactly
//! what the group's offsets say was claimed.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;
use dtf_core::error::Result;

use crate::event::StoredEvent;
use crate::topic::Topic;
use crate::yokan::Yokan;

/// Atomically claim up to `n` offsets of `partition` for `group`;
/// returns the claimed half-open range. Shared by synchronous consumers
/// and the prefetch pipeline — one commit protocol, two drivers.
fn claim_range(
    topic: &Topic,
    yokan: &Yokan,
    group: &str,
    partition: u32,
    n: usize,
) -> Result<(u64, u64)> {
    let avail = topic.partition_len(partition)?;
    let mut claimed = (0, 0);
    yokan.update(&format!("group/{}/{}/{}", topic.name(), group, partition), |old| {
        let cur = old.and_then(|b| cursor_value(b)).unwrap_or(0);
        let end = avail.min(cur + n as u64).max(cur);
        claimed = (cur, end);
        Bytes::from(end.to_string())
    });
    Ok(claimed)
}

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

/// The background half of a pipelined consumer: claims and reads batches
/// ahead of demand, staging them (bounded at `depth`) for `pull`.
#[derive(Debug)]
struct Prefetcher {
    stop: Arc<AtomicBool>,
    /// Set by the thread after a full claim round found nothing — the
    /// stream is drained *as of that round*; cleared when a claim lands.
    idle: Arc<AtomicBool>,
    rx: Option<mpsc::Receiver<Result<Vec<StoredEvent>>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Tally of staged events thrown away when this pipeline shut down.
    discarded: DiscardedClaims,
}

impl Prefetcher {
    fn spawn(
        topic: Arc<Topic>,
        yokan: Arc<Yokan>,
        group: String,
        prefetch: usize,
        depth: usize,
        discarded: DiscardedClaims,
    ) -> Result<Self> {
        let (tx, rx) = mpsc::sync_channel::<Result<Vec<StoredEvent>>>(depth);
        let stop = Arc::new(AtomicBool::new(false));
        let idle = Arc::new(AtomicBool::new(false));
        let (t_stop, t_idle) = (stop.clone(), idle.clone());
        let handle = std::thread::Builder::new()
            .name("mofka-prefetch".into())
            .spawn(move || {
                let parts = topic.num_partitions();
                let mut p = 0u32;
                let mut round_claimed = 0usize;
                let mut round_empty = 0u32;
                // accumulation backoff (doubles while rounds run small)
                let mut pause = Duration::from_millis(1);
                const MAX_PAUSE: Duration = Duration::from_millis(32);
                while !t_stop.load(Ordering::Acquire) {
                    let staged = claim_range(&topic, &yokan, &group, p, prefetch).and_then(
                        |(start, end)| {
                            if end > start {
                                topic.read(p, start, (end - start) as usize).map(Some)
                            } else {
                                Ok(None)
                            }
                        },
                    );
                    p = (p + 1) % parts;
                    match staged {
                        Ok(Some(events)) => {
                            round_claimed += events.len();
                            t_idle.store(false, Ordering::Release);
                            // blocks when `depth` batches are staged
                            // (backpressure); fails when the consumer
                            // dropped its receiver — time to exit
                            if tx.send(Ok(events)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => round_empty += 1,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                    if p == 0 {
                        // End of a claim round over every partition. When
                        // tailing live producers, claiming the instant
                        // events appear yields tiny batches whose fixed
                        // claim cost (two locks + a KV update + a channel
                        // wakeup) dwarfs the per-event work. After an
                        // underfull round, pause — doubling up to 20ms
                        // while rounds stay small — so the next round's
                        // batches accumulate: prefetch is batches ahead
                        // of demand, not latency. The decision is per
                        // round, not per claim, so one full partition
                        // can't reset the backoff the rest still need.
                        if round_empty >= parts {
                            // the whole round came up empty: report the
                            // stream drained so pulls stop waiting on us
                            t_idle.store(true, Ordering::Release);
                        }
                        if round_claimed < parts as usize * prefetch / 2 {
                            std::thread::sleep(pause);
                            pause = (pause * 2).min(MAX_PAUSE);
                        } else {
                            pause = Duration::from_millis(1);
                        }
                        round_claimed = 0;
                        round_empty = 0;
                    }
                }
            })
            .map_err(|e| dtf_core::error::DtfError::Io(format!("spawn prefetcher: {e}")))?;
        Ok(Self { stop, idle, rx: Some(rx), handle: Some(handle), discarded })
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Drain what the thread staged before the channel closes: these
        // batches are claimed — the group's offsets have moved past them
        // — so they are counted as discarded, never silently dropped.
        // Receiving unblocks a send in flight; the thread then observes
        // `stop`, exits, and drops its sender, ending the loop.
        let mut lost = 0u64;
        if let Some(rx) = self.rx.take() {
            while let Ok(batch) = rx.recv() {
                if let Ok(events) = batch {
                    lost += events.len() as u64;
                }
            }
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if lost > 0 {
            self.discarded.add(lost);
        }
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
    /// Background prefetch pipeline; `None` claims synchronously in
    /// `pull` (the deterministic path).
    pipeline: Option<Prefetcher>,
    /// Claimed-but-undelivered events discarded at drop (pipelined
    /// consumers only; stays 0 on the synchronous path until drop).
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
            pipeline: None,
            discarded: DiscardedClaims::default(),
        }
    }

    /// A consumer whose claims run on a background prefetch pipeline,
    /// `depth` claimed-batches ahead of demand. Real-time only — reach it
    /// through `MofkaService::consumer_pipelined`.
    pub(crate) fn pipelined(
        topic: Arc<Topic>,
        yokan: Arc<Yokan>,
        cfg: ConsumerConfig,
        depth: usize,
    ) -> Result<Self> {
        assert!(cfg.prefetch >= 1, "prefetch must be >= 1");
        assert!(depth >= 1, "pipeline depth must be >= 1");
        let discarded = DiscardedClaims::default();
        let pipeline = Prefetcher::spawn(
            topic.clone(),
            yokan.clone(),
            cfg.group.clone(),
            cfg.prefetch,
            depth,
            discarded.clone(),
        )?;
        Ok(Self {
            topic,
            yokan,
            cfg,
            buffer: std::collections::VecDeque::new(),
            next_partition: 0,
            pipeline: Some(pipeline),
            discarded,
        })
    }

    /// Handle to this consumer's discarded-claims tally. Clone it before
    /// dropping the consumer: the final count — every claimed event that
    /// was staged or buffered but never delivered — lands during drop.
    pub fn discarded_claims(&self) -> DiscardedClaims {
        self.discarded.clone()
    }

    /// Atomically claim up to `n` offsets in `partition`; returns the
    /// claimed half-open range.
    fn claim(&self, partition: u32, n: usize) -> Result<(u64, u64)> {
        claim_range(&self.topic, &self.yokan, &self.cfg.group, partition, n)
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

    /// Receive one staged batch from the prefetch thread, waiting out an
    /// in-flight claim if one is mid-read. Returns `None` once the stream
    /// is drained (idle prefetcher, nothing staged) or the pipeline ended.
    fn pipelined_recv(&mut self) -> Result<Option<Vec<StoredEvent>>> {
        let Some(pipe) = &self.pipeline else {
            return Ok(None);
        };
        let Some(rx) = &pipe.rx else { return Ok(None) };
        loop {
            match rx.try_recv() {
                Ok(batch) => return Ok(Some(batch?)),
                Err(mpsc::TryRecvError::Disconnected) => return Ok(None),
                Err(mpsc::TryRecvError::Empty) => {
                    // Nothing staged right now. Drained, or mid-claim?
                    if pipe.idle.load(Ordering::Acquire) {
                        return Ok(None); // drained as of the last claim round
                    }
                    // mid-claim: wait briefly for the in-flight batch,
                    // then re-check the idle flag
                    match rx.recv_timeout(Duration::from_millis(5)) {
                        Ok(batch) => return Ok(Some(batch?)),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(None),
                    }
                }
            }
        }
    }

    /// Move staged pipeline batches into the local buffer until `want`
    /// events are on hand or the prefetcher reports the stream drained.
    /// Claims never happen here — only the prefetch thread claims, so
    /// delivery order per partition matches the synchronous path.
    fn pipelined_fill(&mut self, want: usize) -> Result<()> {
        while self.buffer.len() < want {
            match self.pipelined_recv()? {
                Some(batch) => self.buffer.extend(batch),
                None => break,
            }
        }
        Ok(())
    }

    /// Pull up to `max` events. Returns fewer (possibly zero) if the stream
    /// is currently drained — nonblocking, like Mofka's pull API. (A
    /// pipelined consumer waits for claims already in flight on its
    /// prefetch thread before reporting the stream drained.)
    pub fn pull(&mut self, max: usize) -> Result<Vec<StoredEvent>> {
        if self.pipeline.is_some() {
            // Fast path: with nothing buffered, a staged batch that fits
            // under `max` is handed to the caller as-is — no per-event
            // shuffle through the VecDeque.
            if self.buffer.is_empty() {
                match self.pipelined_recv()? {
                    Some(batch) if batch.len() <= max => return Ok(batch),
                    Some(batch) => self.buffer.extend(batch),
                    None => return Ok(Vec::new()),
                }
            }
            self.pipelined_fill(max)?;
        } else if self.buffer.len() < max {
            if let Some(events) = self.claim_next()? {
                self.buffer.extend(events);
            }
        }
        let take = max.min(self.buffer.len());
        Ok(self.buffer.drain(..take).collect())
    }

    /// Discarded-claim diagnostics are opt-in via `DTF_MOFKA_VERBOSE`:
    /// drop-time discards are expected for mid-run subscribers (live-view
    /// feeds detach while producers are still appending), so the default
    /// is the silent counter behind [`Consumer::discarded_claims`].
    fn log_discard(&self, total: u64) {
        if std::env::var_os("DTF_MOFKA_VERBOSE").is_none() {
            return;
        }
        eprintln!(
            "mofka: consumer (group {:?}, topic {:?}) dropped with {total} \
             claimed-but-undelivered events; the group's offsets have moved \
             past them (see Consumer::discarded_claims)",
            self.cfg.group,
            self.topic.name()
        );
    }

    /// Drain everything currently in the topic for this group. Delivery
    /// order is that of repeated [`Self::pull`]s — what is buffered, then
    /// claim after claim — but each claimed batch is appended whole
    /// instead of passing through the buffer event by event.
    pub fn drain_all(&mut self) -> Result<Vec<StoredEvent>> {
        let mut out = Vec::from(std::mem::take(&mut self.buffer));
        loop {
            let claimed =
                if self.pipeline.is_some() { self.pipelined_recv()? } else { self.claim_next()? };
            match claimed {
                Some(mut batch) => out.append(&mut batch),
                None => return Ok(out),
            }
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        // locally buffered events are claimed too — count them with
        // whatever the pipeline drain finds
        let buffered = self.buffer.len() as u64;
        if buffered > 0 {
            self.discarded.add(buffered);
        }
        // Prefetcher::drop drains and tallies the staged batches
        self.pipeline.take();
        let total = self.discarded.count();
        if total > 0 {
            self.log_discard(total);
        }
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

    #[test]
    fn pipelined_consumer_sees_every_event_once() {
        let (topic, yokan) = setup(4, 500);
        let mut c = Consumer::pipelined(
            topic,
            yokan,
            ConsumerConfig { group: "g".into(), prefetch: 16 },
            4,
        )
        .unwrap();
        let got = c.drain_all().unwrap();
        assert_eq!(got.len(), 500);
        let uniq: HashSet<u64> =
            got.iter().map(|e| e.event.metadata["i"].as_u64().unwrap()).collect();
        assert_eq!(uniq.len(), 500);
        assert!(c.pull(10).unwrap().is_empty(), "drained");
    }

    #[test]
    fn pipelined_consumer_preserves_partition_order() {
        let (topic, yokan) = setup(3, 300);
        let mut c =
            Consumer::pipelined(topic, yokan, ConsumerConfig { group: "g".into(), prefetch: 8 }, 2)
                .unwrap();
        let got = c.drain_all().unwrap();
        assert_eq!(got.len(), 300);
        let mut last = std::collections::HashMap::new();
        for se in got {
            if let Some(prev) = last.insert(se.id.partition, se.id.offset) {
                assert!(se.id.offset > prev, "partition order violated");
            }
        }
    }

    #[test]
    fn pipelined_consumer_tails_late_events() {
        let (topic, yokan) = setup(1, 5);
        let mut c = Consumer::pipelined(
            topic.clone(),
            yokan,
            ConsumerConfig { group: "g".into(), prefetch: 4 },
            2,
        )
        .unwrap();
        assert_eq!(c.drain_all().unwrap().len(), 5);
        topic.append_batch(0, vec![Event::meta_only(json!({ "i": 99 }))]).unwrap();
        // the prefetch thread claims it on its next round
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut more = Vec::new();
        while more.is_empty() && std::time::Instant::now() < deadline {
            more = c.pull(10).unwrap();
        }
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].event.metadata["i"], 99);
    }

    #[test]
    fn pipelined_and_sync_members_split_one_group() {
        let (topic, yokan) = setup(4, 400);
        let mut piped = Consumer::pipelined(
            topic.clone(),
            yokan.clone(),
            ConsumerConfig { group: "g".into(), prefetch: 8 },
            2,
        )
        .unwrap();
        let mut sync = consumer(&topic, &yokan, "g");
        let mut got = Vec::new();
        loop {
            let a = piped.pull(16).unwrap();
            let b = sync.pull(16).unwrap();
            if a.is_empty() && b.is_empty() {
                break;
            }
            got.extend(a);
            got.extend(b);
        }
        assert_eq!(got.len(), 400, "no duplicates, no losses across member kinds");
        let uniq: HashSet<(u32, u64)> = got.iter().map(|e| (e.id.partition, e.id.offset)).collect();
        assert_eq!(uniq.len(), 400);
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
    fn dropped_pipeline_counts_discarded_claims_exactly() {
        let (topic, yokan) = setup(2, 200);
        let mut c = Consumer::pipelined(
            topic.clone(),
            yokan.clone(),
            ConsumerConfig { group: "g".into(), prefetch: 16 },
            4,
        )
        .unwrap();
        // deliver a prefix, then drop with batches still staged: pull(10)
        // buffers the rest of a 16-event batch, so something is always
        // left behind
        let delivered = c.pull(10).unwrap().len() as u64;
        let discarded = c.discarded_claims();
        drop(c);
        let claimed = group_claimed(&topic, &yokan, "g");
        assert!(discarded.count() > 0, "undelivered claims must be surfaced");
        assert_eq!(
            delivered + discarded.count(),
            claimed,
            "every claimed event is either delivered or counted as discarded"
        );
    }

    #[test]
    fn drained_consumer_discards_nothing() {
        let (topic, yokan) = setup(3, 90);
        let mut c = Consumer::pipelined(
            topic.clone(),
            yokan.clone(),
            ConsumerConfig { group: "g".into(), prefetch: 8 },
            2,
        )
        .unwrap();
        let got = c.drain_all().unwrap();
        assert_eq!(got.len(), 90);
        let discarded = c.discarded_claims();
        drop(c);
        assert_eq!(discarded.count(), 0, "a drained pipeline has nothing to discard");
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

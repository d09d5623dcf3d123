//! Topics and partitions.
//!
//! A topic is a set of append-only partitions. An event's provenance record
//! lives inline in the partition log, by value, so a partition is one
//! contiguous `Vec` of records, and non-empty payloads are stored in the
//! shared [`Warabi`] blob store and referenced by id, mirroring Mofka's
//! composition of micro-services.
//! Partition logs are persistent: consumers may replay from offset zero at
//! any time, which is what lets the same consumer API serve both in-situ
//! and post-hoc analysis (paper §III-B).
//!
//! Events come in as a batch of the partition's own element type, built
//! once by the producer, so an append is one `Vec::append` (a `memcpy`)
//! under the partition lock. Each event is stamped with the topic's next
//! sequence number when it is pushed, before it is routed, so the seqs of
//! a topic are `0..n` in emission order whatever the partitioning. They go
//! out through [`Topic::visit`], which walks a range *in place* under the
//! partition's read lock and hands each event, with its id and seq, to a
//! callback by reference; the owning [`Topic::read`] is that visitor with
//! a clone per event. A reader that wants every event of a topic at once
//! takes its partitions whole as [`PartitionEvents`]: copied by
//! [`Topic::partition_events`], or moved out of the logs of a service its
//! owner is done with (`MofkaService::into_partition_events`).
//!
//! **The visitor contract.** For a range without payloads (every
//! provenance topic) the callback runs while the partition's read lock is
//! held: it must not append to, stall or unstall that topic (a writer
//! queued behind a reader that waits for it is a deadlock), and it should
//! be short — appenders wait for it. Reading other partitions or topics,
//! and failing, are fine; a failed callback ends the visit with that
//! error. A range holding payloads is copied out and its blobs resolved
//! from Warabi with the lock released, so there the callback runs unlocked.
//!
//! A partition *is* a log, and a durable service persists it as one: every
//! appended slot is also appended, under the partition lock, to the
//! service's one `TopicLog` — a dtf-store [`SegmentedLog`] multiplexing
//! all partitions of all topics (the payload stays in Warabi; the record
//! carries the blob id). A log record is one header, declared in
//! `dtf_core::binfmt` the way dtf-store's `KvRecord` is; a slot's header
//! is followed by its record's binfmt, written from the slot by reference:
//!
//! ```text
//! declare := 0x00 varint(topic id) str(topic name)
//! slot    := 0x01 varint(topic id) varint(partition) varint(offset) varint(seq)
//!            option(varint(blob id)) record
//! ```
//!
//! A topic id is declared in-log before its first slot. `restore`
//! is one scan over the recovered records that routes slots to partitions;
//! the log's torn-tail rule already made them a committed prefix. Staged
//! (stalled) slots are persisted at append time too — durability is decided
//! at append, visibility at unstall — so a crash while stalled surfaces the
//! staged events after recovery. A failed append never fails the event
//! path: the log keeps its first error, logs nothing after it (a record
//! after a lost one could only be a gap) and reports it from every sync
//! (`MofkaService::sync`).

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtf_core::binfmt::{Reader, Wire};
use dtf_core::error::{DtfError, Result};
use dtf_core::events::ProvRecord;
use dtf_store::{FlushPolicy, LogConfig, RecoveryReport, SegmentedLog};
use std::io::ErrorKind;

use crate::event::{Event, EventId, StoredEvent};
use crate::warabi::{BlobId, Warabi};

dtf_core::wire_struct! {
    /// Topic creation parameters, persisted as this document under the
    /// topic's `topic-config/` Yokan key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TopicConfig {
        pub partitions: u32,
    }
}

impl Default for TopicConfig {
    fn default() -> Self {
        Self { partitions: 4 }
    }
}

impl TopicConfig {
    /// A config a topic can be built from: one partition at least. `what`
    /// names the config in the error.
    pub(crate) fn check(&self, what: &str) -> Result<()> {
        if self.partitions == 0 {
            return Err(DtfError::Config(format!("{what}: a topic needs at least one partition")));
        }
        Ok(())
    }
}

/// One stored event: the record, by value, its sequence number, and the
/// id of its payload's blob, [`NO_BLOB`] for none — never boxed or
/// re-serialized while it sits in the log. The blob id is the sentinel
/// the log writes rather than an `Option`, whose tag word the seq takes.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    record: ProvRecord,
    seq: u64,
    blob: u64,
}

impl Slot {
    fn payload(&self) -> Option<BlobId> {
        (self.blob != NO_BLOB).then_some(BlobId(self.blob))
    }
}

/// Events bound for one partition, already in the partition log's element
/// type: what a producer buffers and what [`Topic::append_slots`] moves
/// into the log with one `Vec::append`.
/// Payloads ride beside their slots until the append stores them — blob
/// ids are assigned there, in batch order, not when an event is buffered.
#[derive(Debug, Default)]
pub(crate) struct SlotBatch {
    slots: Vec<Slot>,
    /// Payloads not yet in Warabi: `(index into slots, bytes)`.
    payloads: Vec<(usize, Bytes)>,
}

impl SlotBatch {
    /// Buffer `event` as its topic's event `seq`.
    pub(crate) fn push(&mut self, seq: u64, event: Event) {
        if !event.data.is_empty() {
            self.payloads.push((self.slots.len(), event.data));
        }
        self.slots.push(Slot { record: event.record, seq, blob: NO_BLOB });
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A partition log plus its stall state. While stalled, appended events
/// are staged — durable but invisible to readers — and drain into the log
/// in arrival order when the stall lifts. Offsets are assigned at append
/// time (past the staged tail), so ids stay stable across the stall: a
/// stall delays visibility, it never loses, duplicates, or reorders.
#[derive(Debug, Default)]
struct PartitionState {
    slots: Vec<Slot>,
    staged: Vec<Slot>,
    stalled: bool,
}

#[derive(Debug, Default)]
struct Partition {
    state: RwLock<PartitionState>,
}

/// The blob id of a slot without a payload.
const NO_BLOB: u64 = u64::MAX;

/// One partition's events, taken whole in offset order: each event's seq
/// and record, by value. The slots are the partition log's own when they
/// were moved out of it, and their buffer is freed with the iterator.
#[derive(Debug)]
pub struct PartitionEvents {
    slots: std::vec::IntoIter<Slot>,
    seqs_ascending: bool,
}

impl PartitionEvents {
    /// Whether the partition's seqs ascend — as in every partition that
    /// one producer filled, since a producer stamps and flushes in push
    /// order. Producers whose flushes interleave in a partition break it.
    pub fn seqs_ascending(&self) -> bool {
        self.seqs_ascending
    }

    /// The seq of the next event, if there is one, without taking it.
    pub fn next_seq(&self) -> Option<u64> {
        self.slots.as_slice().first().map(|slot| slot.seq)
    }
}

impl Iterator for PartitionEvents {
    type Item = (u64, ProvRecord);

    fn next(&mut self) -> Option<Self::Item> {
        self.slots.next().map(|slot| (slot.seq, slot.record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for PartitionEvents {}

mod record {
    dtf_core::wire_enum! {
        /// The head of one topic-log record: a topic id's declaration, or
        /// where a slot goes, its seq and its blob id. A slot's header is
        /// followed by its record's binfmt, to the end of the log record.
        #[derive(Debug, PartialEq, Eq)]
        pub enum Header("topic log record") {
            Declare(id: u32, name: String) = 0,
            Slot(id: u32, partition: u32, offset: u64, seq: u64, blob: Option<u64>) = 1,
        }
    }
}
use record::Header;

/// Fewest slots a partition log grows by (~26 KiB).
const MIN_LOG_GROWTH: usize = 256;

/// How the topic log commits between explicit syncs. A slot record is
/// ~40 bytes framed, so the store's defaults (group commit every 256
/// records, 256 KiB segments) would wait on the device every 12 KiB and
/// seal a segment every 5k events: ~1200 `fdatasync`s for a 300k-event
/// run, half its wall and all of its run-to-run spread. Sized for small
/// records instead: a group commit is ~400 KiB, a segment ~90k events.
/// What a crash can lose is still bounded by the group, and
/// [`TopicLog::sync`] is still the commit point.
const LOG_CONFIG: LogConfig =
    LogConfig { segment_bytes: 4 << 20, flush: FlushPolicy::EveryN(8192), sync_data: true };

/// The durable log behind every partition of one persisted service's
/// topics (`<persist>/topics/`). See the module docs for the record layout.
#[derive(Debug)]
pub(crate) struct TopicLog {
    writer: Mutex<Writer>,
}

#[derive(Debug)]
struct Writer {
    log: SegmentedLog,
    /// Topic ids declared so far; the next declaration takes this id.
    /// [`restore`] sets it from the recovered declarations.
    declared: u32,
    /// Record encode buffer, reused across appends.
    buf: Vec<u8>,
}

impl TopicLog {
    /// Open (or create) the log at `dir` for appending. The recovered
    /// records go to [`restore`].
    pub(crate) fn open(dir: &Path) -> Result<(Self, Vec<Bytes>, RecoveryReport)> {
        let (log, records, report) = SegmentedLog::open(dir, LOG_CONFIG)?;
        let writer = Writer { log, declared: 0, buf: Vec::new() };
        Ok((Self { writer: Mutex::new(writer) }, records, report))
    }

    /// Recover the records at `dir` without keeping the log attached: reads
    /// only (after recovery's torn-tail repair) — the archive-reader path.
    pub(crate) fn replay(dir: &Path) -> Result<(Vec<Bytes>, RecoveryReport)> {
        let (log, records, report) = SegmentedLog::open(dir, LOG_CONFIG)?;
        drop(log);
        Ok((records, report))
    }

    /// Declare `name` under the next topic id. Every declaration takes a
    /// fresh id, so slots logged for an earlier topic of the same name can
    /// never be mistaken for this one's.
    fn declare(&self, name: &str) -> u32 {
        let w = &mut *self.writer.lock();
        let id = w.declared;
        w.declared += 1;
        w.buf.clear();
        Header::Declare(id, name.to_string()).put(&mut w.buf);
        let _ = w.log.append(&w.buf);
        id
    }

    /// Append `slots` as offsets `base..` of `partition` of topic `id`.
    fn append_slots(&self, id: u32, partition: u32, base: u64, slots: &[Slot]) {
        let w = &mut *self.writer.lock();
        for (i, slot) in slots.iter().enumerate() {
            encode_slot(&mut w.buf, id, partition, base + i as u64, slot);
            let _ = w.log.append(&w.buf);
        }
    }

    /// Flush the log (group commit), surfacing the error that poisoned it
    /// if there is one.
    pub(crate) fn sync(&self) -> Result<()> {
        self.writer.lock().log.sync()
    }
}

/// Write the `slot` record of `slot` at `offset` of `partition` of topic
/// `id` into `buf`, replacing its contents.
fn encode_slot(buf: &mut Vec<u8>, id: u32, partition: u32, offset: u64, slot: &Slot) {
    buf.clear();
    Header::Slot(id, partition, offset, slot.seq, slot.payload().map(|b| b.0)).put(buf);
    slot.record.put(buf);
}

fn malformed(what: impl std::fmt::Display) -> DtfError {
    DtfError::Io(ErrorKind::InvalidData, format!("malformed topic log record: {what}"))
}

/// Rebuild `topics` — freshly created from their persisted configs —
/// from the records recovered from the topic log, and, when `log` is given
/// (a writable reopen), bind them to it so appends continue where the
/// restored prefixes end, and each topic's seqs above the highest it
/// restored. Returns events restored.
///
/// Records arrive as a committed prefix of what was appended, so routing
/// is all that is left to do — except for two checks on each slot: a
/// partition stops at the first record whose stored offset is not its next
/// offset, or whose blob id Warabi does not hold (blob logs are flushed
/// before the topic log, so a recovered slot normally implies a recovered
/// blob; a tear in the blob log stops the partition here instead). Slots
/// of a topic with no persisted config are skipped, their headers read and
/// their records not. A record whose header does not decode, or a routed
/// slot whose record does not fill the rest of it, is an error: the log
/// holds one layout and no reader for another.
pub(crate) fn restore(
    topics: &mut [Topic],
    records: &[Bytes],
    log: Option<&Arc<TopicLog>>,
) -> Result<u64> {
    // topic id -> the topic it names, while no later id names the same one
    let mut ids: Vec<Option<usize>> = Vec::new();
    let mut stopped: Vec<Vec<bool>> =
        topics.iter().map(|t| vec![false; t.partitions.len()]).collect();
    for rec in records {
        let mut r = Reader::new(rec);
        match Header::get(&mut r).map_err(malformed)? {
            Header::Declare(id, name) => {
                r.finish().map_err(malformed)?;
                if id as usize != ids.len() {
                    return Err(malformed(format!("topic id {id} declared out of order")));
                }
                let t = topics.iter().position(|t| t.name == name);
                if let Some(t) = t {
                    // a re-declaration supersedes all that the older id logged
                    if let Some(old) = ids.iter_mut().find(|old| **old == Some(t)) {
                        *old = None;
                        stopped[t].fill(false);
                        for part in &mut topics[t].partitions {
                            part.state.get_mut().slots.clear();
                        }
                    }
                }
                ids.push(t);
            }
            Header::Slot(id, p, offset, seq, blob) => {
                let undeclared = || malformed(format!("slot of undeclared topic id {id}"));
                let Some(t) = *ids.get(id as usize).ok_or_else(undeclared)? else { continue };
                let Some(stop) = stopped[t].get_mut(p as usize).filter(|stop| !**stop) else {
                    continue;
                };
                let topic = &mut topics[t];
                let slots = &mut topic.partitions[p as usize].state.get_mut().slots;
                // the blob check asks Warabi's in-memory map whether the
                // id exists; no payload is read
                if offset != slots.len() as u64
                    || blob.is_some_and(|b| !topic.warabi.contains(BlobId(b)))
                {
                    *stop = true;
                    continue;
                }
                let record = ProvRecord::get(&mut r).map_err(malformed)?;
                r.finish().map_err(malformed)?;
                slots.push(Slot { record, seq, blob: blob.unwrap_or(NO_BLOB) });
            }
        }
    }
    for topic in topics.iter_mut() {
        let slots = topic.partitions.iter_mut().flat_map(|p| &p.state.get_mut().slots);
        // a seq read back is outside input: saturate rather than overflow
        *topic.next_seq.get_mut() = slots.map(|s| s.seq.saturating_add(1)).max().unwrap_or(0);
    }
    if let Some(log) = log {
        log.writer.lock().declared = ids.len() as u32;
        let mut superseded = false;
        for (t, topic) in topics.iter_mut().enumerate() {
            let id = match ids.iter().position(|named| *named == Some(t)) {
                Some(id) if !stopped[t].contains(&true) => id as u32,
                // Never declared, or a partition stopped short of records
                // the log still holds under the old id: take a fresh id
                // and log the surviving prefix under it.
                _ => {
                    let id = log.declare(&topic.name);
                    for (p, part) in topic.partitions.iter_mut().enumerate() {
                        log.append_slots(id, p as u32, 0, &part.state.get_mut().slots);
                    }
                    superseded = true;
                    id
                }
            };
            topic.persist = Some((log.clone(), id));
        }
        if superseded {
            // Must be durable before any new blob is: Warabi flushes first
            // and hands out again the ids of the blobs it lost, which the
            // superseded slots still name.
            log.sync()?;
        }
    }
    Ok(topics.iter().map(Topic::total_len).sum())
}

/// A named, partitioned, persistent event log.
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<Partition>,
    warabi: Arc<Warabi>,
    /// When set, slots are written through to this log, under this topic
    /// id, as they are appended.
    persist: Option<(Arc<TopicLog>, u32)>,
    /// The seq the next pushed event takes.
    next_seq: AtomicU64,
}

impl Topic {
    /// A new, empty topic; with `log`, declared in it and written through.
    /// Its callers have checked `cfg` ([`TopicConfig::check`]).
    pub(crate) fn new(
        name: impl Into<String>,
        cfg: &TopicConfig,
        warabi: Arc<Warabi>,
        log: Option<Arc<TopicLog>>,
    ) -> Self {
        let name = name.into();
        let persist = log.map(|log| {
            let id = log.declare(&name);
            (log, id)
        });
        Self {
            name,
            partitions: (0..cfg.partitions).map(|_| Partition::default()).collect(),
            warabi,
            persist,
            next_seq: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_partitions(&self) -> u32 {
        self.partitions.len() as u32
    }

    fn partition(&self, p: u32) -> Result<&Partition> {
        self.partitions
            .get(p as usize)
            .ok_or_else(|| DtfError::NotFound(format!("partition {p} of topic {}", self.name)))
    }

    /// Take the next seq of this topic's emission order: what an event is
    /// stamped with when it is pushed. `Relaxed` is enough: the counter
    /// publishes no other data, and every `fetch_add` still takes a value
    /// of its own.
    pub(crate) fn stamp(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a batch of events to one partition, stamping each with the
    /// topic's next seq in turn; returns the offset the first one took and
    /// how many there were (event `i` of the batch is `EventId {
    /// partition: p, offset: base + i }`). An unknown partition is an
    /// error that stamps nothing.
    pub fn append_batch(
        &self,
        p: u32,
        events: impl IntoIterator<Item = Event>,
    ) -> Result<(u64, usize)> {
        self.partition(p)?;
        let mut batch = SlotBatch::default();
        events.into_iter().for_each(|e| batch.push(self.stamp(), e));
        self.append_slots(p, &mut batch)
    }

    /// Move `batch` onto the end of partition `p`, leaving it empty with
    /// its capacity kept; returns the offset the first slot took and how
    /// many there were. One lock acquisition and one `Vec::append` per
    /// batch — this is the amortization producers' batching buys. A
    /// stalled partition stages the batch instead (offsets are still
    /// assigned, past the staged tail). An unknown partition is an error
    /// and leaves the batch as it was.
    pub(crate) fn append_slots(&self, p: u32, batch: &mut SlotBatch) -> Result<(u64, usize)> {
        let part = self.partition(p)?;
        // store payloads outside the partition lock
        for (i, data) in batch.payloads.drain(..) {
            batch.slots[i].blob = self.warabi.put(data).0;
        }
        let mut state = part.state.write();
        let base = (state.slots.len() + state.staged.len()) as u64;
        let n = batch.slots.len();
        // write-through while holding the partition lock, so persisted
        // offsets can never interleave with a concurrent batch
        if let Some((log, id)) = &self.persist {
            log.append_slots(*id, p, base, &batch.slots);
        }
        let state = &mut *state;
        let log = if state.stalled { &mut state.staged } else { &mut state.slots };
        // grow by a quarter, not by doubling: a log is long-lived and its
        // slots are ~104 bytes, so a doubling `Vec`'s slack is the largest
        // avoidable share of a run's resident memory
        if log.capacity() - log.len() < n {
            log.reserve_exact(n.max(log.len() / 4).max(MIN_LOG_GROWTH));
        }
        log.append(&mut batch.slots);
        Ok((base, n))
    }

    /// Stall partition `p`: subsequent appends are staged, invisible to
    /// readers, until [`Self::unstall`]. Idempotent.
    pub fn stall(&self, p: u32) -> Result<()> {
        self.partition(p)?.state.write().stalled = true;
        Ok(())
    }

    /// Lift a stall on partition `p`, draining staged events into the log
    /// in arrival order. Idempotent (a no-op on an unstalled partition).
    pub fn unstall(&self, p: u32) -> Result<()> {
        let part = self.partition(p)?;
        let mut state = part.state.write();
        state.stalled = false;
        let state = &mut *state;
        state.slots.append(&mut state.staged);
        Ok(())
    }

    /// Lift stalls on every partition of this topic.
    pub fn unstall_all(&self) {
        for p in 0..self.num_partitions() {
            let _ = self.unstall(p);
        }
    }

    /// Events staged behind a stall on partition `p`.
    pub fn staged_len(&self, p: u32) -> Result<u64> {
        Ok(self.partition(p)?.state.read().staged.len() as u64)
    }

    /// Number of events currently visible in partition `p`.
    pub fn partition_len(&self, p: u32) -> Result<u64> {
        Ok(self.partition(p)?.state.read().slots.len() as u64)
    }

    /// Total visible events across all partitions.
    pub fn total_len(&self) -> u64 {
        self.partitions.iter().map(|p| p.state.read().slots.len() as u64).sum()
    }

    /// Visit up to `max` events of partition `p` starting at `offset`, in
    /// offset order and in place: `f` gets each event's id, its seq, its
    /// record by reference, and its payload (empty for metadata-only
    /// events).
    /// Returns how many events it was handed; the first error `f` returns
    /// ends the visit. See the module docs for what `f` may do — for a
    /// payload-free range it runs under the partition's read lock.
    pub fn visit(
        &self,
        p: u32,
        offset: u64,
        max: usize,
        mut f: impl FnMut(EventId, u64, &ProvRecord, Bytes) -> Result<()>,
    ) -> Result<usize> {
        let part = self.partition(p)?;
        let id = |i: usize| EventId { partition: p, offset: i as u64 };
        // A range without payloads (every provenance topic) is walked where
        // it lies. Otherwise copy the slot range out and resolve payloads
        // unlocked: readers here can hold thousands of slots, and keeping
        // blob lookups inside the critical section stalls appenders (and
        // every reader queued behind them) for the whole walk.
        let (start, slots) = {
            let state = part.state.read();
            let log = &state.slots;
            let start = (offset as usize).min(log.len());
            let end = start.saturating_add(max).min(log.len());
            let range = &log[start..end];
            if range.iter().all(|slot| slot.blob == NO_BLOB) {
                for (i, slot) in range.iter().enumerate() {
                    f(id(start + i), slot.seq, &slot.record, Bytes::new())?;
                }
                return Ok(range.len());
            }
            (start, range.to_vec())
        };
        // every blob first: a dangling one fails the range before `f` has
        // seen any of it
        let mut payloads = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            payloads.push(match slot.payload() {
                Some(b) => self.warabi.get(b).ok_or_else(|| self.dangling(b, p, start + i))?,
                None => Bytes::new(),
            });
        }
        for (i, (slot, data)) in slots.iter().zip(payloads).enumerate() {
            f(id(start + i), slot.seq, &slot.record, data)?;
        }
        Ok(slots.len())
    }

    /// Read up to `max` events from partition `p` starting at `offset`:
    /// [`Self::visit`] with a clone of each event.
    pub fn read(&self, p: u32, offset: u64, max: usize) -> Result<Vec<StoredEvent>> {
        let available = self.partition_len(p)?.saturating_sub(offset);
        let mut out = Vec::with_capacity(max.min(available as usize));
        self.visit(p, offset, max, |id, seq, record, data| {
            out.push(StoredEvent::copy_of(id, seq, record, data));
            Ok(())
        })?;
        Ok(out)
    }

    /// Every visible event of each partition, copied out and the topic
    /// left as it was. A slot whose blob Warabi does not hold is an error,
    /// as it is for [`Self::visit`]; payloads are not handed out.
    pub fn partition_events(&self) -> Result<Vec<PartitionEvents>> {
        let copies = self.partitions.iter().map(|part| part.state.read().slots.clone());
        copies.enumerate().map(|(p, slots)| self.events(p as u32, slots)).collect()
    }

    /// Every event of each partition, moved out of the log: those staged
    /// behind a stall after the visible ones, as [`Self::unstall`] leaves
    /// them. Checked as [`Self::partition_events`] is.
    pub(crate) fn into_partition_events(mut self) -> Result<Vec<PartitionEvents>> {
        let partitions = std::mem::take(&mut self.partitions);
        let logs = partitions.into_iter().map(|part| {
            let PartitionState { mut slots, mut staged, .. } = part.state.into_inner();
            slots.append(&mut staged);
            slots
        });
        logs.enumerate().map(|(p, slots)| self.events(p as u32, slots)).collect()
    }

    /// `slots`, all of partition `p`, as its events, once Warabi holds
    /// every blob they name.
    fn events(&self, p: u32, slots: Vec<Slot>) -> Result<PartitionEvents> {
        // one pass: the blob check and the seq order
        let mut previous = None;
        let mut seqs_ascending = true;
        for (offset, slot) in slots.iter().enumerate() {
            if let Some(b) = slot.payload().filter(|b| !self.warabi.contains(*b)) {
                return Err(self.dangling(b, p, offset));
            }
            seqs_ascending &= previous < Some(slot.seq);
            previous = Some(slot.seq);
        }
        Ok(PartitionEvents { slots: slots.into_iter(), seqs_ascending })
    }

    /// The error for a slot whose blob `b` did not survive (reachable after
    /// a durable reopen): corruption, never silently empty bytes.
    fn dangling(&self, b: BlobId, p: u32, offset: usize) -> DtfError {
        DtfError::IllegalState(format!(
            "dangling {b} at offset {offset} of topic {} partition {p}",
            self.name
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::{tag, tagged};

    fn topic(parts: u32) -> Topic {
        Topic::new("test", &TopicConfig { partitions: parts }, Arc::new(Warabi::new()), None)
    }

    #[test]
    fn append_assigns_sequential_offsets() {
        let t = topic(2);
        let range = t.append_batch(0, vec![tagged(0, 1), tagged(0, 2)]).unwrap();
        assert_eq!(range, (0, 2));
        assert_eq!(t.append_batch(0, vec![tagged(0, 3)]).unwrap(), (2, 1));
        assert_eq!(t.partition_len(0).unwrap(), 3);
        assert_eq!(t.partition_len(1).unwrap(), 0);
        assert_eq!(t.total_len(), 3);
    }

    #[test]
    fn read_returns_events_in_order_with_ids() {
        let t = topic(1);
        for i in 0..10 {
            t.append_batch(0, vec![tagged(0, i)]).unwrap();
        }
        let got = t.read(0, 3, 4).unwrap();
        assert_eq!(got.len(), 4);
        for (k, se) in got.iter().enumerate() {
            assert_eq!(se.id.offset, 3 + k as u64);
            assert_eq!(tag(&se.event.record), (0, 3 + k as u64));
        }
        // reading past end is empty, not an error
        assert!(t.read(0, 100, 5).unwrap().is_empty());
    }

    #[test]
    fn payloads_roundtrip_through_warabi() {
        let t = topic(1);
        t.append_batch(0, vec![Event { data: Bytes::from_static(b"payload"), ..tagged(0, 1) }])
            .unwrap();
        let got = t.read(0, 0, 1).unwrap();
        assert_eq!(got[0].event.data.as_ref(), b"payload");
    }

    #[test]
    fn ranges_with_and_without_payloads_read_alike() {
        let t = topic(1);
        let payload = |i: u64| if i == 4 { Bytes::from_static(b"blob") } else { Bytes::new() };
        let event = |i: u64| Event { data: payload(i), ..tagged(0, i) };
        t.append_batch(0, (0..8).map(event)).unwrap();
        // [0, 4) holds no payload (built in one pass); [2, 8) holds one
        for (offset, max) in [(0, 4), (2, 6)] {
            let got = t.read(0, offset, max).unwrap();
            assert_eq!(got.len(), max);
            for (k, se) in got.iter().enumerate() {
                let i = offset + k as u64;
                assert_eq!(se.id, EventId { partition: 0, offset: i });
                assert_eq!(se.event, event(i));
            }
        }
    }

    #[test]
    fn unknown_partition_is_error() {
        let t = topic(2);
        assert!(t.append_batch(2, vec![]).is_err());
        assert!(t.read(5, 0, 1).is_err());
        assert!(t.partition_len(9).is_err());
    }

    #[test]
    fn stalled_partition_stages_and_drains_in_order() {
        let t = topic(2);
        t.append_batch(0, vec![tagged(0, 0)]).unwrap();
        t.stall(0).unwrap();
        let range = t.append_batch(0, vec![tagged(0, 1), tagged(0, 2)]).unwrap();
        // offsets assigned past the staged tail, but nothing visible yet
        assert_eq!(range, (1, 2));
        assert_eq!(t.partition_len(0).unwrap(), 1);
        assert_eq!(t.staged_len(0).unwrap(), 2);
        // other partitions unaffected
        t.append_batch(1, vec![tagged(0, 9)]).unwrap();
        assert_eq!(t.partition_len(1).unwrap(), 1);
        // reads see only the visible prefix
        assert_eq!(t.read(0, 0, 10).unwrap().len(), 1);
        t.unstall(0).unwrap();
        assert_eq!(t.staged_len(0).unwrap(), 0);
        let got = t.read(0, 0, 10).unwrap();
        assert_eq!(got.len(), 3);
        for (i, se) in got.iter().enumerate() {
            assert_eq!(se.id.offset, i as u64, "order preserved across the stall");
            assert_eq!(tag(&se.event.record), (0, i as u64));
        }
        // idempotent
        t.unstall(0).unwrap();
        t.unstall_all();
        assert_eq!(t.total_len(), 4);
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-topic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_log(dir: &Path) -> (Arc<TopicLog>, Vec<Bytes>) {
        let (log, records, _) = TopicLog::open(dir).unwrap();
        (Arc::new(log), records)
    }

    /// Read-only restore of one topic "t" from the log at `dir`.
    fn replayed(dir: &Path, cfg: &TopicConfig, warabi: &Arc<Warabi>) -> (Topic, u64) {
        let (records, _) = TopicLog::replay(dir).unwrap();
        let mut topics = vec![Topic::new("t", cfg, warabi.clone(), None)];
        let n = restore(&mut topics, &records, None).unwrap();
        (topics.pop().unwrap(), n)
    }

    fn slot(seq: u64, payload: Option<BlobId>) -> Slot {
        Slot { record: tagged(0, seq).record, seq, blob: payload.map_or(NO_BLOB, |b| b.0) }
    }

    #[test]
    fn slots_persist_and_restore_including_staged() {
        let dir = tmpdir("staged");
        let warabi = Arc::new(Warabi::new());
        let cfg = TopicConfig { partitions: 2 };
        let (log, _) = open_log(&dir);
        let t = Topic::new("t", &cfg, warabi.clone(), Some(log.clone()));
        t.append_batch(0, vec![Event { data: Bytes::from_static(b"blob"), ..tagged(0, 0) }])
            .unwrap();
        t.append_batch(1, vec![tagged(1, 1)]).unwrap();
        t.stall(0).unwrap();
        t.append_batch(0, vec![tagged(0, 2)]).unwrap();
        log.sync().unwrap();
        // durability is decided at append: the staged slot is persisted
        let (t2, n) = replayed(&dir, &cfg, &warabi);
        assert_eq!(n, 3);
        let p0 = t2.read(0, 0, 10).unwrap();
        assert_eq!(p0.len(), 2, "the staged event surfaces after restore");
        assert_eq!(p0[0].event.data.as_ref(), b"blob");
        assert_eq!(tag(&p0[0].event.record), (0, 0));
        assert_eq!(tag(&p0[1].event.record), (0, 2));
        assert_eq!(tag(&t2.read(1, 0, 10).unwrap()[0].event.record), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_stops_at_offset_gap_and_dangling_blob() {
        let dir = tmpdir("gap");
        let warabi = Arc::new(Warabi::new());
        let cfg = TopicConfig { partitions: 2 };
        let (log, _) = open_log(&dir);
        let id = log.declare("t");
        // partition 0: offset 2 is missing, so the prefix ends there
        log.append_slots(id, 0, 0, &[slot(0, None), slot(1, None)]);
        log.append_slots(id, 0, 3, &[slot(3, None)]);
        // partition 1: the second slot's blob never made it to warabi
        log.append_slots(id, 1, 0, &[slot(10, None), slot(11, Some(BlobId(99)))]);
        log.append_slots(id, 1, 2, &[slot(12, None)]);
        log.sync().unwrap();
        let (t, n) = replayed(&dir, &cfg, &warabi);
        assert_eq!(n, 3);
        assert_eq!(t.partition_len(0).unwrap(), 2);
        assert_eq!(t.partition_len(1).unwrap(), 1, "nothing past the dangling blob surfaces");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writable_restore_after_a_stop_keeps_later_appends() {
        let dir = tmpdir("stop-append");
        let warabi = Arc::new(Warabi::new());
        let cfg = TopicConfig { partitions: 1 };
        {
            let (log, _) = open_log(&dir);
            let id = log.declare("t");
            // seq 0 is kept, seq 1 lost its blob, seq 2 is behind the tear
            log.append_slots(id, 0, 0, &[slot(0, None), slot(1, Some(BlobId(0)))]);
            log.append_slots(id, 0, 2, &[slot(2, None)]);
            log.sync().unwrap();
        }
        {
            let (log, records) = open_log(&dir);
            let mut topics = vec![Topic::new("t", &cfg, warabi.clone(), None)];
            assert_eq!(restore(&mut topics, &records, Some(&log)).unwrap(), 1);
            // the blob store hands id 0 out again: the old slot naming it
            // must not come back to life with this payload
            topics[0]
                .append_batch(
                    0,
                    vec![Event { data: Bytes::from_static(b"payload"), ..tagged(1, 0) }],
                )
                .unwrap();
            log.sync().unwrap();
        }
        let (t, n) = replayed(&dir, &cfg, &warabi);
        assert_eq!(n, 2);
        let got = t.read(0, 0, 10).unwrap();
        assert_eq!(tag(&got[0].event.record), (0, 0), "the kept slot");
        assert_eq!(
            tag(&got[1].event.record),
            (1, 0),
            "the new one, not the slot that lost its blob"
        );
        assert_eq!(got[1].event.data.as_ref(), b"payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_recreated_topic_never_inherits_orphaned_slots() {
        let dir = tmpdir("orphan");
        let warabi = Arc::new(Warabi::new());
        let cfg = TopicConfig { partitions: 1 };
        {
            let (log, _) = open_log(&dir);
            let t = Topic::new("t", &cfg, warabi.clone(), Some(log.clone()));
            t.append_batch(0, vec![tagged(0, 0); 3]).unwrap();
            log.sync().unwrap();
        }
        {
            // the topic's config did not survive (Yokan flushes last), so
            // no topic claims the slots — and a new "t" starts empty
            let (log, records) = open_log(&dir);
            assert_eq!(restore(&mut [], &records, Some(&log)).unwrap(), 0);
            let t = Topic::new("t", &cfg, warabi.clone(), Some(log.clone()));
            t.append_batch(0, vec![tagged(1, 0)]).unwrap();
            log.sync().unwrap();
        }
        let (t, n) = replayed(&dir, &cfg, &warabi);
        assert_eq!(n, 1);
        assert_eq!(tag(&t.read(0, 0, 10).unwrap()[0].event.record), (1, 0), "the new topic's");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_blob_read_is_an_error_not_empty_bytes() {
        let t = topic(1);
        t.partitions[0].state.write().slots.push(slot(1, Some(BlobId(7))));
        match t.read(0, 0, 1) {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("blob-7")),
            other => panic!("expected IllegalState, got {other:?}"),
        }
    }

    /// Taking a partition whole, by copy or by move: its events in offset
    /// order with their seqs, the staged ones after the visible when moved,
    /// and a slot naming a blob Warabi does not hold fails either way.
    #[test]
    fn partitions_taken_whole_hold_every_event_and_refuse_a_dangling_blob() {
        let t = topic(2);
        t.append_batch(0, vec![tagged(0, 0), tagged(0, 1)]).unwrap();
        t.append_batch(1, vec![Event { data: Bytes::from_static(b"blob"), ..tagged(1, 2) }])
            .unwrap();
        t.stall(0).unwrap();
        t.append_batch(0, vec![tagged(0, 3)]).unwrap();
        let events = |parts: Vec<PartitionEvents>| -> Vec<Vec<(u64, (u32, u64))>> {
            parts.into_iter().map(|p| p.map(|(seq, r)| (seq, tag(&r))).collect()).collect()
        };
        let copied = t.partition_events().unwrap();
        assert!(copied.iter().all(PartitionEvents::seqs_ascending));
        assert_eq!(events(copied), [vec![(0, (0, 0)), (1, (0, 1))], vec![(2, (1, 2))]]);
        assert_eq!(t.total_len(), 3, "a copy leaves the topic as it was");
        let moved = events(t.into_partition_events().unwrap());
        assert_eq!(moved, [vec![(0, (0, 0)), (1, (0, 1)), (3, (0, 3))], vec![(2, (1, 2))]]);

        let t = topic(1);
        t.append_batch(0, vec![tagged(0, 0)]).unwrap();
        t.partitions[0].state.write().slots.push(slot(1, Some(BlobId(7))));
        for taken in [t.partition_events(), t.into_partition_events()] {
            match taken {
                Err(DtfError::IllegalState(msg)) => {
                    assert!(msg.contains("blob-7 at offset 1"), "{msg}")
                }
                other => panic!("expected IllegalState, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_slot_record_is_its_header_plus_the_binfmt_record() {
        let dir = tmpdir("typed");
        let warabi = Arc::new(Warabi::new());
        let cfg = TopicConfig { partitions: 1 };
        let (log, _) = open_log(&dir);
        let t = Topic::new("t", &cfg, warabi.clone(), Some(log.clone()));
        let event = tagged(3, 42);
        t.append_batch(0, vec![tagged(3, 41), event.clone()]).unwrap();
        log.sync().unwrap();

        let (raw, _) = TopicLog::replay(&dir).unwrap();
        assert_eq!(
            dtf_core::binfmt::decode::<Header>(&raw[0]).unwrap(),
            Header::Declare(0, "t".into())
        );
        let mut bytes = Vec::new();
        Header::Slot(0, 0, 1, 1, None).put(&mut bytes);
        assert_eq!(bytes, [1, 0, 0, 1, 1, 0], "tag, topic id, partition, offset, seq, no blob");
        event.record.encode_binary(&mut bytes);
        assert_eq!(raw[2][..], bytes[..]);

        let (t2, n) = replayed(&dir, &cfg, &warabi);
        assert_eq!(n, 2);
        let got = &t2.read(0, 1, 10).unwrap()[0];
        assert_eq!((got.seq, &got.event), (1, &event));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What [`restore`] makes of `records` for topics "a" (two partitions)
    /// and "b" (one), as one record list per partition.
    fn restored(records: &[Bytes]) -> Result<Vec<Vec<ProvRecord>>> {
        let warabi = Arc::new(Warabi::new());
        let mut topics = vec![
            Topic::new("a", &TopicConfig { partitions: 2 }, warabi.clone(), None),
            Topic::new("b", &TopicConfig { partitions: 1 }, warabi, None),
        ];
        restore(&mut topics, records, None)?;
        let stream = |t: &Topic, p| {
            t.read(p, 0, usize::MAX >> 1).unwrap().into_iter().map(|se| se.event.record).collect()
        };
        Ok(topics.iter().flat_map(|t| (0..t.num_partitions()).map(move |p| stream(t, p))).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The topic log's decode surface under structure-aware mutation:
        /// one slot of a valid record list gets every tag byte, every
        /// truncated header, every truncated record, trailing bytes, and
        /// a topic id and a partition past the end. Never a panic; a tag
        /// other than the slot's, a short header and an undeclared topic
        /// are errors; and whatever is accepted restores, per partition, at
        /// least what the records before the mutation restore and at most
        /// what the unmutated list does.
        #[test]
        fn restore_rejects_or_bounds_every_mutated_slot(
            appends in proptest::collection::vec((0usize..3, 0u32..2), 1..24),
            pick in proptest::any::<usize>(),
            past_end in 0u32..1000,
            trailing in proptest::collection::vec(proptest::any::<u8>(), 1..9),
        ) {
            // "ghost" is declared in the log but has no config: its slots
            // are skipped, yet must still be well-formed
            let topics = [("a", 2u32), ("ghost", 1), ("b", 1)];
            let mut buf = Vec::new();
            let mut valid: Vec<Bytes> = Vec::new();
            for (id, (name, _)) in topics.iter().enumerate() {
                valid.push(Bytes::from(dtf_core::binfmt::encode(&Header::Declare(
                    id as u32,
                    name.to_string(),
                ))));
            }
            let mut next = [[0u64; 2]; 3];
            for (seq, (t, p)) in appends.iter().enumerate() {
                let p = p % topics[*t].1;
                let offset = &mut next[*t][p as usize];
                encode_slot(&mut buf, *t as u32, p, *offset, &slot(seq as u64, None));
                *offset += 1;
                valid.push(Bytes::from(buf.clone()));
            }
            let at = topics.len() + pick % appends.len();
            let original = valid[at].to_vec();
            let header = Header::get(&mut Reader::new(&original)).unwrap();
            // an accepted value re-encodes to the bytes it was read from
            let header_len = dtf_core::binfmt::encode(&header).len();
            let Header::Slot(id, _, offset, seq, blob) = header else {
                panic!("record {at} is not a slot");
            };
            // the slot's record under a header naming topic `id`, partition `p`
            let moved = |id: u32, p: u32| {
                let mut bytes = dtf_core::binfmt::encode(&Header::Slot(id, p, offset, seq, blob));
                bytes.extend_from_slice(&original[header_len..]);
                bytes
            };
            let clean = restored(&valid).unwrap();
            let before = restored(&valid[..at]).unwrap();

            let mutated = |bytes: Vec<u8>| {
                let mut list = valid.clone();
                list[at] = Bytes::from(bytes);
                restored(&list)
            };
            let bounded = |got: Vec<Vec<ProvRecord>>, what: &str| {
                for ((lo, got), hi) in before.iter().zip(&got).zip(&clean) {
                    assert!(got.starts_with(lo) && hi.starts_with(got), "{what}: {got:?}");
                }
            };
            for tag in 0..=u8::MAX {
                let mut bytes = original.clone();
                bytes[0] = tag;
                match mutated(bytes) {
                    Ok(got) => {
                        assert_eq!(tag, original[0], "tag {tag} was accepted");
                        assert_eq!(got, clean);
                    }
                    Err(_) => assert_ne!(tag, original[0]),
                }
            }
            for len in 0..header_len {
                assert!(mutated(original[..len].to_vec()).is_err(), "{len}-byte header accepted");
            }
            for len in header_len..original.len() {
                if let Ok(got) = mutated(original[..len].to_vec()) {
                    bounded(got, "truncated record");
                }
            }
            if let Ok(got) = mutated([&original[..], &trailing[..]].concat()) {
                bounded(got, "extended record");
            }
            let undeclared = mutated(moved(topics.len() as u32 + past_end, 0));
            assert!(undeclared.is_err(), "undeclared topic id accepted");
            bounded(mutated(moved(id, 2 + past_end)).unwrap(), "partition past the end");
        }
    }

    #[test]
    fn concurrent_appends_preserve_all_events() {
        let t = Arc::new(topic(4));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for j in 0..250 {
                        t.append_batch(i % 4, vec![tagged(i, j)]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.total_len(), 2000);
        // every partition got the appends of its two writer threads
        for p in 0..4 {
            assert_eq!(t.partition_len(p).unwrap(), 500);
        }
    }
}

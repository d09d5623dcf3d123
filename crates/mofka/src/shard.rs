//! The sharded concurrent data plane — real-time / service mode.
//!
//! In virtual-time (simulation) mode every producer appends synchronously
//! under the partition lock, which is what keeps simulated runs
//! byte-identical. Service mode replaces that with shard ownership: each
//! `(topic, partition)` pair is owned by exactly one **shard**, a worker
//! thread with its own job queue. Producers hand whole batches to the
//! owning shard over the queue (one mutex hit per *batch*, never the
//! partition lock) and return immediately — Mofka's nonblocking client
//! model. The owning worker is the only writer of its partitions, so
//! concurrent producers never contend on a partition lock; readers still
//! take the partition `RwLock` read side as before.
//!
//! The handoff protocol:
//!
//! * `Append` jobs carry a batch for one partition — a [`SlotBatch`],
//!   the partition log's own element type, which the worker moves into
//!   the log with the same `Topic::append_slots` call a synchronous flush
//!   makes. Per-queue FIFO order plus single ownership gives the same
//!   guarantee as the synchronous path: one producer's batches land in a
//!   partition in flush order.
//! * `Barrier` jobs ack when processed. Because the queue is FIFO, an
//!   ack proves every job enqueued *before* the barrier has been applied.
//!   [`DataPlane::barrier`] fans a barrier to every shard and waits for
//!   all acks — the flush/visibility point for
//!   [`Producer::sync`](crate::producer::Producer::sync) and
//!   `MofkaService::sync`.
//! * Append errors are deferred (enqueue is infallible) and surfaced by
//!   the next `barrier()` or `shutdown()`, mirroring how the durable KV
//!   defers WAL errors to its `sync()` commit point.
//! * Shutdown **drains before stopping**: a stopping shard keeps applying
//!   queued jobs until its queue is empty and only then exits, so queued
//!   batches are never silently dropped (see the restore/queued-append
//!   tests). Dropping the last handle to the plane joins the workers.
//!
//! The plane can also be built **manual** (no worker threads): jobs
//! queue up and the caller applies them one at a time with
//! [`DataPlane::step_shard`]. That is the deterministic spine of the
//! seeded-schedule interleaving harness (`tests/interleave.rs`) and the
//! concurrency property tests — every interleaving of "producer enqueues"
//! and "shard applies" steps is reachable and reproducible from a seed.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use dtf_core::error::{DtfError, Result};

use crate::topic::{SlotBatch, Topic};

/// Soft bound on queued jobs per shard: producers enqueueing into a
/// spawned (threaded) plane block once the owning shard is this far
/// behind — backpressure instead of unbounded memory. Manual planes are
/// never bounded (the harness controls every step; blocking would
/// deadlock it).
const MAX_QUEUED_JOBS: usize = 1024;

/// One unit of work for a shard worker.
enum Job {
    /// Append `batch` to `partition` of `topic` (the shard owns that
    /// partition, so applying it never races another writer). The batch is
    /// the one a synchronous flush would have appended itself: both planes
    /// end in [`Topic::append_slots`].
    Append { topic: Arc<Topic>, partition: u32, batch: SlotBatch },
    /// Ack when reached; FIFO order makes the ack a completion proof for
    /// everything enqueued before it.
    Barrier(mpsc::Sender<()>),
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Job::Append { topic, partition, batch } => f
                .debug_struct("Append")
                .field("topic", &topic.name())
                .field("partition", partition)
                .field("events", &batch.len())
                .finish(),
            Job::Barrier(_) => f.write_str("Barrier"),
        }
    }
}

#[derive(Debug, Default)]
struct ShardState {
    jobs: VecDeque<Job>,
    stopping: bool,
    /// First append error since the last barrier/shutdown that surfaced it.
    error: Option<DtfError>,
}

/// Append-activity signal shared by every shard of one plane: a sequence
/// number bumped after each applied append batch, with a condvar so
/// subscription feeds ([`crate::feed::GroupFeed`]) can sleep until new
/// events land instead of spinning on empty claims. Readers remember the
/// last sequence they acted on and wait for it to move.
#[derive(Default)]
pub struct Activity {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl std::fmt::Debug for Activity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Activity").field("seq", &self.seq()).finish()
    }
}

impl Activity {
    /// Current activity sequence (monotone; bumped per applied batch).
    pub fn seq(&self) -> u64 {
        *self.seq.lock()
    }

    fn bump(&self) {
        *self.seq.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the sequence moves past `seen` or `timeout` elapses;
    /// returns the latest sequence either way.
    pub fn wait_past(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut seq = self.seq.lock();
        while *seq <= seen {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            if self.cv.wait_for(&mut seq, deadline - now).timed_out() {
                break;
            }
        }
        *seq
    }
}

/// One shard: a FIFO job queue plus the condvars that coordinate its
/// worker (when spawned) and producer backpressure.
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Signaled when a job arrives or the shard starts stopping.
    ready: Condvar,
    /// Signaled when the worker pops a job (space for blocked producers).
    space: Condvar,
    /// Plane-wide append signal (shared by all shards of one plane).
    activity: Arc<Activity>,
}

impl Shard {
    fn with_activity(activity: Arc<Activity>) -> Self {
        Self { activity, ..Default::default() }
    }
    /// Enqueue a job. `bounded` engages producer backpressure (spawned
    /// planes only); a stopping shard accepts no new jobs.
    fn push(&self, job: Job, bounded: bool) -> Result<()> {
        let mut st = self.state.lock();
        while bounded && st.jobs.len() >= MAX_QUEUED_JOBS && !st.stopping {
            self.space.wait(&mut st);
        }
        if st.stopping {
            return Err(DtfError::IllegalState("data plane is shut down".into()));
        }
        st.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Apply one queued job if any; returns whether a job ran. This is
    /// the single-step state transition the interleaving harness drives.
    fn step(&self) -> bool {
        let job = {
            let mut st = self.state.lock();
            let job = st.jobs.pop_front();
            if job.is_some() {
                self.space.notify_one();
            }
            job
        };
        match job {
            Some(job) => {
                self.apply(job);
                true
            }
            None => false,
        }
    }

    fn apply(&self, job: Job) {
        match job {
            Job::Append { topic, partition, mut batch } => {
                if let Err(e) = topic.append_slots(partition, &mut batch) {
                    self.state.lock().error.get_or_insert(e);
                } else {
                    // wake subscription feeds sleeping on plane activity
                    self.activity.bump();
                }
            }
            Job::Barrier(ack) => {
                // the waiter may have given up (barrier error path); a
                // dead receiver is fine
                let _ = ack.send(());
            }
        }
    }

    /// Worker loop: apply jobs until told to stop, then drain whatever
    /// is still queued before exiting (drain-then-stop).
    fn run(&self) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        self.space.notify_one();
                        break Some(job);
                    }
                    if st.stopping {
                        break None;
                    }
                    self.ready.wait(&mut st);
                }
            };
            match job {
                Some(job) => self.apply(job),
                None => return,
            }
        }
    }

    fn begin_stop(&self) {
        let mut st = self.state.lock();
        st.stopping = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    fn take_error(&self) -> Option<DtfError> {
        self.state.lock().error.take()
    }

    fn queued(&self) -> usize {
        self.state.lock().jobs.len()
    }
}

/// The data plane: every topic partition mapped to an owning shard.
///
/// Spawned planes run one worker thread per shard; manual planes are
/// stepped explicitly (tests). Cheap to share: the service holds one
/// `Arc<DataPlane>` and hands clones to producers.
pub struct DataPlane {
    shards: Vec<Arc<Shard>>,
    /// Worker handles, joined exactly once (by `shutdown` or `Drop`).
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Whether `push` applies backpressure (spawned planes only).
    bounded: bool,
    /// Plane-wide append signal, shared with subscription feeds.
    activity: Arc<Activity>,
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane")
            .field("shards", &self.shards.len())
            .field("bounded", &self.bounded)
            .finish_non_exhaustive()
    }
}

impl DataPlane {
    /// A plane with `shards` worker threads (0 = auto: the machine's
    /// available parallelism, at least 2 so handoff is exercised even on
    /// one core).
    pub fn spawned(shards: usize) -> Arc<Self> {
        let n = if shards == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).max(2)
        } else {
            shards
        };
        let activity = Arc::new(Activity::default());
        let shards: Vec<Arc<Shard>> =
            (0..n).map(|_| Arc::new(Shard::with_activity(activity.clone()))).collect();
        let workers = shards
            .iter()
            .map(|s| {
                let shard = s.clone();
                std::thread::Builder::new()
                    .name("mofka-shard".into())
                    .spawn(move || shard.run())
                    .expect("spawn shard worker")
            })
            .collect();
        Arc::new(Self { shards, workers: Mutex::new(workers), bounded: true, activity })
    }

    /// A plane with no worker threads: jobs queue until the caller
    /// applies them with [`Self::step_shard`]. Deterministic — the
    /// interleaving-test mode.
    pub fn manual(shards: usize) -> Arc<Self> {
        assert!(shards >= 1, "a plane needs at least one shard");
        let activity = Arc::new(Activity::default());
        Arc::new(Self {
            shards: (0..shards).map(|_| Arc::new(Shard::with_activity(activity.clone()))).collect(),
            workers: Mutex::new(Vec::new()),
            bounded: false,
            activity,
        })
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The plane's append-activity signal: bumped after every applied
    /// append batch, waitable by subscription feeds.
    pub fn activity(&self) -> Arc<Activity> {
        self.activity.clone()
    }

    /// The shard owning `(topic, partition)`. FNV over the topic name,
    /// then consecutive partitions on consecutive shards — distinct
    /// partitions of one topic land on distinct shards whenever there
    /// are at least as many shards as partitions.
    pub fn shard_for(&self, topic: &str, partition: u32) -> usize {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in topic.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h.wrapping_add(partition as u64) % self.shards.len() as u64) as usize
    }

    /// Hand a batch to the owning shard. Nonblocking apart from
    /// backpressure; append errors surface at the next [`Self::barrier`]
    /// or [`Self::shutdown`]. Errors immediately only if the plane is
    /// already shut down.
    pub fn enqueue_append(
        &self,
        topic: &Arc<Topic>,
        partition: u32,
        batch: SlotBatch,
    ) -> Result<()> {
        let shard = &self.shards[self.shard_for(topic.name(), partition)];
        shard.push(Job::Append { topic: topic.clone(), partition, batch }, self.bounded)
    }

    /// Apply one queued job on shard `i`; returns whether one ran.
    /// (Manual planes; harmless but pointless on spawned planes.)
    pub fn step_shard(&self, i: usize) -> bool {
        self.shards[i].step()
    }

    /// Jobs currently queued on shard `i`.
    pub fn queued_jobs(&self, i: usize) -> usize {
        self.shards[i].queued()
    }

    /// Wait until every job enqueued before this call has been applied,
    /// then surface any append error deferred since the last barrier.
    /// On a manual plane this drains every queue inline instead.
    pub fn barrier(&self) -> Result<()> {
        if self.workers.lock().is_empty() {
            while self.shards.iter().any(|s| s.step()) {}
        } else {
            let (tx, rx) = mpsc::channel();
            let mut expected = 0usize;
            for shard in &self.shards {
                // a stopping shard has already drained (or will, before
                // its worker exits); skip rather than error so barriers
                // racing shutdown stay benign
                if shard.push(Job::Barrier(tx.clone()), self.bounded).is_ok() {
                    expected += 1;
                }
            }
            drop(tx);
            for _ in 0..expected {
                rx.recv().map_err(|_| {
                    DtfError::IllegalState("shard worker died before barrier ack".into())
                })?;
            }
        }
        self.collect_errors()
    }

    fn collect_errors(&self) -> Result<()> {
        for shard in &self.shards {
            if let Some(e) = shard.take_error() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Drain every queue, stop the workers, and surface deferred errors.
    /// Idempotent; `Drop` calls it best-effort.
    pub fn shutdown(&self) -> Result<()> {
        for shard in &self.shards {
            shard.begin_stop();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
        // manual planes (and any jobs enqueued after the workers left,
        // which push() now rejects): apply what is left inline
        while self.shards.iter().any(|s| s.step()) {}
        self.collect_errors()
    }
}

impl Drop for DataPlane {
    fn drop(&mut self) {
        // drain-then-stop: queued batches are applied, never dropped
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::{tag, tagged};
    use crate::topic::TopicConfig;
    use crate::warabi::Warabi;

    /// A one-event batch tagged `(producer, seq)`.
    fn one(producer: u32, seq: u64) -> SlotBatch {
        std::iter::once(tagged(producer, seq)).collect()
    }

    fn topic(name: &str, parts: u32) -> Arc<Topic> {
        Arc::new(Topic::new(
            name,
            &TopicConfig { partitions: parts },
            Arc::new(Warabi::new()),
            None,
        ))
    }

    #[test]
    fn spawned_plane_applies_batches_and_barrier_waits() {
        let plane = DataPlane::spawned(3);
        let t = topic("t", 4);
        for p in 0..4 {
            plane.enqueue_append(&t, p, one(0, p as u64)).unwrap();
        }
        plane.barrier().unwrap();
        assert_eq!(t.total_len(), 4);
    }

    #[test]
    fn manual_plane_holds_jobs_until_stepped() {
        let plane = DataPlane::manual(2);
        let t = topic("t", 2);
        plane.enqueue_append(&t, 0, one(0, 0)).unwrap();
        plane.enqueue_append(&t, 1, one(0, 1)).unwrap();
        assert_eq!(t.total_len(), 0, "nothing applied before stepping");
        let s0 = plane.shard_for("t", 0);
        assert!(plane.step_shard(s0));
        assert_eq!(t.partition_len(0).unwrap(), 1);
        // a barrier on a manual plane drains everything inline
        plane.barrier().unwrap();
        assert_eq!(t.total_len(), 2);
        assert!(!plane.step_shard(s0), "queues empty");
    }

    #[test]
    fn partitions_of_one_topic_spread_over_shards() {
        let plane = DataPlane::manual(4);
        let owners: std::collections::HashSet<usize> =
            (0..4).map(|p| plane.shard_for("events", p)).collect();
        assert_eq!(owners.len(), 4, "4 partitions over 4 shards must use all shards");
    }

    #[test]
    fn append_errors_are_deferred_to_the_barrier() {
        let plane = DataPlane::spawned(2);
        let t = topic("t", 1);
        plane.enqueue_append(&t, 7, one(0, 1)).unwrap();
        let err = plane.barrier().unwrap_err();
        assert!(matches!(&err, DtfError::NotFound(m) if m.contains("partition 7")), "got: {err:?}");
        // the error was taken; a clean barrier follows
        plane.barrier().unwrap();
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_stopping() {
        let t = topic("t", 1);
        let plane = DataPlane::manual(1);
        for i in 0..10 {
            plane.enqueue_append(&t, 0, one(0, i as u64)).unwrap();
        }
        assert_eq!(t.total_len(), 0);
        plane.shutdown().unwrap();
        assert_eq!(t.total_len(), 10, "drain-then-stop");
        // post-shutdown enqueues error cleanly instead of vanishing
        let err = plane.enqueue_append(&t, 0, one(0, 99)).unwrap_err();
        assert!(err.to_string().contains("shut down"));
    }

    #[test]
    fn dropping_the_plane_drains_queued_jobs() {
        let t = topic("t", 2);
        {
            let plane = DataPlane::manual(2);
            for i in 0..6 {
                plane.enqueue_append(&t, i % 2, one(0, i as u64)).unwrap();
            }
        } // Drop
        assert_eq!(t.total_len(), 6, "queued batches survive Drop");
    }

    #[test]
    fn concurrent_producers_one_owner_per_partition() {
        let plane = DataPlane::spawned(4);
        let t = topic("t", 4);
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let plane = plane.clone();
                let t = t.clone();
                std::thread::spawn(move || {
                    for j in 0..100u64 {
                        plane.enqueue_append(&t, i % 4, one(i, j)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        plane.barrier().unwrap();
        assert_eq!(t.total_len(), 800);
        // per-producer order within each partition (FIFO queue + single owner)
        for p in 0..4 {
            let evs = t.read(p, 0, 10_000).unwrap();
            let mut last: std::collections::HashMap<u32, u64> = Default::default();
            for e in &evs {
                let (producer, j) = tag(&e.event.record);
                if let Some(prev) = last.insert(producer, j) {
                    assert!(j > prev, "producer {producer} reordered in partition {p}");
                }
            }
        }
    }
}

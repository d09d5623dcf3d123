//! The assembled Mofka service: topics + micro-services, thread-safe.
//!
//! A service is in-memory by default; [`MofkaService::durable`] roots it
//! in a store directory of three dtf-store logs: `yokan/` for key-value
//! metadata (each topic's [`TopicConfig`] under `topic-config/<topic>` and
//! group cursors, in their `dtf_core::binfmt` form), `warabi/` for blob
//! payloads, `topics/` for the partition logs. [`MofkaService::reopen`] opens such a
//! directory read-only — the archive path: recovery repairs any torn tail,
//! topics are rebuilt to their committed prefixes, and the regular
//! consumer API drains them exactly as an in-situ analysis would.
//!
//! A caller done with a service takes its events out by value
//! ([`MofkaService::into_partition_events`]), moved out of the partition
//! logs rather than copied; a durable service's directory keeps them.
//!
//! Producers append (under the partition lock) and consumers claim on the
//! calling thread; the service runs no threads of its own. The topic map
//! is striped for concurrent lookups (lookup-only — it cannot affect event
//! order).

use bytes::Bytes;
use dtf_store::RecoveryReport;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use dtf_core::binfmt;
use dtf_core::error::{DtfError, Result};

use crate::consumer::{clamp_cursors, Consumer, ConsumerConfig};
use crate::feed::GroupFeed;
use crate::producer::{Producer, ProducerConfig};
use crate::topic::{self, PartitionEvents, Topic, TopicConfig, TopicLog};
use crate::warabi::Warabi;
use crate::yokan::Yokan;

/// What recovery found when a persisted service directory was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceRecovery {
    pub yokan: RecoveryReport,
    pub warabi: RecoveryReport,
    pub topics: RecoveryReport,
    /// Events restored into topic partitions (committed prefixes).
    pub restored_events: u64,
}

/// Shards of the topic map. Topic lookup is read-mostly and per-client;
/// sharding the map keeps `topic()` calls from hundreds of concurrent
/// clients off one global lock. Must be a power of two (mask indexing).
const TOPIC_MAP_SHARDS: usize = 16;

/// One shard of the topic map: a plain map under its own lock.
type TopicMapShard = RwLock<HashMap<String, Arc<Topic>>>;

/// A sharded `name -> Topic` map: each name hashes to one shard with its
/// own `RwLock`. Lookup-only concurrency — which shard a name lands on
/// can never affect event content or order.
#[derive(Debug)]
struct TopicMap {
    shards: Box<[TopicMapShard]>,
}

impl TopicMap {
    fn new() -> Self {
        Self { shards: (0..TOPIC_MAP_SHARDS).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard(&self, name: &str) -> &TopicMapShard {
        let h = dtf_core::fnv64(name.as_bytes());
        &self.shards[(h as usize) & (TOPIC_MAP_SHARDS - 1)]
    }

    fn get(&self, name: &str) -> Option<Arc<Topic>> {
        self.shard(name).read().get(name).cloned()
    }

    /// Insert under the shard's write lock, calling `make` only if the
    /// name is free — `make`'s side effects (recording the config in
    /// Yokan) stay atomic with the reservation, as they were under the
    /// old global lock.
    fn try_insert(
        &self,
        name: &str,
        make: impl FnOnce() -> Arc<Topic>,
    ) -> std::result::Result<(), ()> {
        let mut shard = self.shard(name).write();
        if shard.contains_key(name) {
            return Err(());
        }
        shard.insert(name.to_string(), make());
        Ok(())
    }

    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in self.shards.iter() {
            names.extend(shard.read().keys().cloned());
        }
        names.sort();
        names
    }

    fn all(&self) -> Vec<Arc<Topic>> {
        let mut topics = Vec::new();
        for shard in self.shards.iter() {
            topics.extend(shard.read().values().cloned());
        }
        topics
    }

    fn into_all(self) -> impl Iterator<Item = Arc<Topic>> {
        self.shards.into_vec().into_iter().flat_map(|shard| shard.into_inner().into_values())
    }
}

/// A running Mofka service instance. Cloneable handle semantics via `Arc`
/// are left to the caller; the service itself is `Send + Sync`.
///
/// ```
/// use dtf_core::events::{LogEntry, LogLevel, LogSource, ProvRecord};
/// use dtf_core::time::Time;
/// use dtf_mofka::{Event, MofkaService, TopicConfig, ConsumerConfig};
/// use dtf_mofka::producer::ProducerConfig;
///
/// let svc = MofkaService::new();
/// svc.create_topic("logs", TopicConfig { partitions: 2 }).unwrap();
/// let mut producer = svc.producer("logs", ProducerConfig::default()).unwrap();
/// let line = LogEntry {
///     time: Time(1),
///     level: LogLevel::Info,
///     source: LogSource::Scheduler,
///     message: "sample".into(),
/// };
/// producer.push(Event::typed(line.clone())).unwrap();
/// producer.flush().unwrap();
///
/// let mut consumer = svc.consumer("logs", ConsumerConfig::default()).unwrap();
/// let events = consumer.drain_all().unwrap();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].event.record, ProvRecord::Log(line));
/// ```
#[derive(Debug)]
pub struct MofkaService {
    yokan: Arc<Yokan>,
    warabi: Arc<Warabi>,
    /// The durable log behind every topic partition; `None` in memory and
    /// for read-only archive reopens.
    topic_log: Option<Arc<TopicLog>>,
    topics: TopicMap,
}

impl Default for MofkaService {
    fn default() -> Self {
        Self::new()
    }
}

impl MofkaService {
    pub fn new() -> Self {
        Self {
            yokan: Arc::new(Yokan::new()),
            warabi: Arc::new(Warabi::new()),
            topic_log: None,
            topics: TopicMap::new(),
        }
    }

    /// A durable service rooted in `dir`: any state already there is
    /// recovered and its topics restored, and everything produced from
    /// now on is written through to it.
    pub fn durable(dir: &Path) -> Result<Self> {
        let (yokan, _) = Yokan::durable(&dir.join("yokan"))?;
        let (warabi, _) = Warabi::durable(&dir.join("warabi"))?;
        let (log, records, _) = TopicLog::open(&dir.join("topics"))?;
        let svc = Self {
            yokan: Arc::new(yokan),
            warabi: Arc::new(warabi),
            topic_log: Some(Arc::new(log)),
            topics: TopicMap::new(),
        };
        svc.restore_topics(&records)?;
        Ok(svc)
    }

    /// Open a persisted service directory **read-only** — the archive
    /// path. Recovery repairs torn tails on disk (the only mutation);
    /// the returned service holds no log handles, so reopening the same
    /// directory any number of times yields the same committed state.
    /// Reopening while the producing service is still appending is safe:
    /// this sees the committed prefix as of its last [`Self::sync`].
    pub fn reopen(dir: &Path) -> Result<(Self, ServiceRecovery)> {
        let (yokan, yokan_report) = Yokan::replay(&dir.join("yokan"))?;
        let (warabi, warabi_report) = Warabi::replay(&dir.join("warabi"))?;
        let (records, topics_report) = TopicLog::replay(&dir.join("topics"))?;
        let svc = Self {
            yokan: Arc::new(yokan),
            warabi: Arc::new(warabi),
            topic_log: None,
            topics: TopicMap::new(),
        };
        let restored_events = svc.restore_topics(&records)?;
        let recovery = ServiceRecovery {
            yokan: yokan_report,
            warabi: warabi_report,
            topics: topics_report,
            restored_events,
        };
        Ok((svc, recovery))
    }

    /// Rebuild every topic recorded under `topic-config/` from the
    /// recovered topic-log `records` (committed prefixes only; see
    /// [`topic::restore`]). On a writable reopen the topics continue
    /// appending to the log, and group cursors are clamped to them.
    fn restore_topics(&self, records: &[Bytes]) -> Result<u64> {
        let mut topics = Vec::new();
        for (key, raw) in self.yokan.list_prefix("topic-config/") {
            let cfg: TopicConfig = binfmt::decode(&raw)
                .map_err(|e| DtfError::Serde(format!("topic config {key}: {e}")))?;
            cfg.check(&key)?;
            let name = &key["topic-config/".len()..];
            topics.push(Topic::new(name, &cfg, self.warabi.clone(), None));
        }
        let restored = topic::restore(&mut topics, records, self.topic_log.as_ref())?;
        for topic in topics {
            if self.topic_log.is_some() {
                clamp_cursors(&topic, &self.yokan)?;
            }
            let name = topic.name().to_string();
            let _ = self.topics.try_insert(&name, || Arc::new(topic));
        }
        Ok(restored)
    }

    /// Flush durable state (group commit): every batch a producer flushed
    /// before this call is committed. The order is blobs, then the topic
    /// log, then Yokan, so
    /// what a sync commits is closed under reference — a crash between
    /// two of the flushes leaves orphan blobs (harmless) rather than slots
    /// naming missing blobs, and group cursors behind the slots they
    /// count rather than past them.
    pub fn sync(&self) -> Result<()> {
        self.warabi.sync()?;
        if let Some(log) = &self.topic_log {
            log.sync()?;
        }
        self.yokan.sync()
    }

    /// Create a topic. Errors if it already exists; a config of zero
    /// partitions is a [`DtfError::Config`].
    pub fn create_topic(&self, name: &str, cfg: TopicConfig) -> Result<()> {
        cfg.check(&format!("topic {name}"))?;
        self.topics
            .try_insert(name, || {
                // record the topic config in Yokan, as Mofka does —
                // under the map-shard lock, atomic with the reservation
                self.yokan.put(format!("topic-config/{name}"), binfmt::encode(&cfg));
                Arc::new(Topic::new(name, &cfg, self.warabi.clone(), self.topic_log.clone()))
            })
            .map_err(|()| DtfError::IllegalState(format!("topic {name} already exists")))
    }

    pub fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics.get(name).ok_or_else(|| DtfError::NotFound(format!("topic {name}")))
    }

    pub fn topic_names(&self) -> Vec<String> {
        self.topics.names()
    }

    /// Open a producer on `topic`. A `batch_size` of 0 is a
    /// [`DtfError::Config`]: the smallest batch is one event.
    pub fn producer(&self, topic: &str, cfg: ProducerConfig) -> Result<Producer> {
        if cfg.batch_size == 0 {
            return Err(DtfError::Config(format!("producer on {topic}: batch_size must be >= 1")));
        }
        Ok(Producer::new(self.topic(topic)?, cfg))
    }

    /// Open a consumer on `topic`. A `prefetch` of 0 is a
    /// [`DtfError::Config`]: the smallest claim is one event.
    pub fn consumer(&self, topic: &str, cfg: ConsumerConfig) -> Result<Consumer> {
        if cfg.prefetch == 0 {
            return Err(DtfError::Config(format!("consumer on {topic}: prefetch must be >= 1")));
        }
        Ok(Consumer::new(self.topic(topic)?, self.yokan.clone(), cfg))
    }

    /// Open a [`crate::feed::GroupFeed`]: one consumer per listed topic,
    /// all under `cfg.group`, visited as a single stream.
    pub fn group_feed(&self, topics: &[&str], cfg: ConsumerConfig) -> Result<GroupFeed> {
        GroupFeed::new(self, topics, cfg)
    }

    /// Stall one partition of `topic` (fault injection): appends stage
    /// invisibly until the stall lifts.
    pub fn stall_partition(&self, topic: &str, partition: u32) -> Result<()> {
        self.topic(topic)?.stall(partition)
    }

    /// Lift a stall on one partition of `topic`, draining staged events.
    pub fn unstall_partition(&self, topic: &str, partition: u32) -> Result<()> {
        self.topic(topic)?.unstall(partition)
    }

    /// Lift every stall on every topic (end of run: nothing may stay
    /// invisible when the post-run consumers drain).
    pub fn unstall_all(&self) {
        for t in self.topics.all() {
            t.unstall_all();
        }
    }

    /// The shared KV micro-service (exposed for group-offset inspection and
    /// for components that need durable metadata, e.g. Bedrock).
    pub fn yokan(&self) -> &Arc<Yokan> {
        &self.yokan
    }

    /// The shared blob micro-service.
    pub fn warabi(&self) -> &Arc<Warabi> {
        &self.warabi
    }

    /// Close the service and hand over every topic's events by name,
    /// moved out of the partition logs, not copied: what a caller done
    /// with the service drains, so the run is never held twice. Each
    /// topic's staged events come after its visible ones, as an unstall
    /// leaves them. A topic a producer or consumer still holds is a
    /// [`DtfError::IllegalState`] (what it went on to append would be
    /// lost), and so is a slot whose blob Warabi does not hold. Claims no
    /// group cursor; a durable service's directory keeps everything.
    pub fn into_partition_events(self) -> Result<BTreeMap<String, Vec<PartitionEvents>>> {
        let mut out = BTreeMap::new();
        for topic in self.topics.into_all() {
            let topic = Arc::try_unwrap(topic).map_err(|topic| {
                DtfError::IllegalState(format!(
                    "topic {} is still open: a producer or consumer holds it",
                    topic.name()
                ))
            })?;
            out.insert(topic.name().to_string(), topic.into_partition_events()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::{tag, tagged};
    use crate::event::Event;

    #[test]
    fn create_produce_consume_roundtrip() {
        let svc = MofkaService::new();
        svc.create_topic("task-events", TopicConfig { partitions: 2 }).unwrap();
        let mut p = svc.producer("task-events", ProducerConfig::default()).unwrap();
        for i in 0..10 {
            p.push(tagged(0, i)).unwrap();
        }
        p.flush().unwrap();
        let mut c = svc.consumer("task-events", ConsumerConfig::default()).unwrap();
        assert_eq!(c.drain_all().unwrap().len(), 10);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig::default()).unwrap();
        assert!(svc.create_topic("t", TopicConfig::default()).is_err());
    }

    #[test]
    fn zero_batch_size_is_a_config_error() {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig::default()).unwrap();
        let cfg = ProducerConfig { batch_size: 0, ..ProducerConfig::default() };
        assert!(matches!(svc.producer("t", cfg), Err(DtfError::Config(_))));
    }

    #[test]
    fn zero_partitions_and_zero_prefetch_are_config_errors() {
        let svc = MofkaService::new();
        let none = TopicConfig { partitions: 0 };
        assert!(matches!(svc.create_topic("t", none), Err(DtfError::Config(_))));
        assert!(svc.topic("t").is_err() && svc.yokan().is_empty(), "nothing was created");
        svc.create_topic("t", TopicConfig::default()).unwrap();
        let cfg = ConsumerConfig { prefetch: 0, ..ConsumerConfig::default() };
        assert!(matches!(svc.consumer("t", cfg.clone()), Err(DtfError::Config(_))));
        assert!(matches!(svc.group_feed(&["t"], cfg), Err(DtfError::Config(_))));
    }

    /// A persisted topic config of zero partitions fails a reopen and a
    /// durable open, naming its key.
    #[test]
    fn a_persisted_zero_partition_config_fails_the_reopen() {
        let dir = std::env::temp_dir().join(format!("dtf-svc-zero-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let svc = MofkaService::durable(&dir).unwrap();
            let none = binfmt::encode(&TopicConfig { partitions: 0 });
            svc.yokan().put("topic-config/events", none);
            svc.sync().unwrap();
        }
        let reopened = MofkaService::reopen(&dir).map(|_| ());
        let durable = MofkaService::durable(&dir).map(|_| ());
        for err in [reopened, durable] {
            match err {
                Err(DtfError::Config(msg)) => assert!(msg.contains("topic-config/events"), "{msg}"),
                other => panic!("expected a config error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A closed service hands its events over by move; a topic a producer
    /// still holds refuses.
    #[test]
    fn into_partition_events_takes_every_topic_and_refuses_an_open_one() {
        let svc = MofkaService::new();
        svc.create_topic("a", TopicConfig { partitions: 2 }).unwrap();
        svc.create_topic("b", TopicConfig { partitions: 1 }).unwrap();
        svc.topic("a").unwrap().append_batch(1, vec![tagged(0, 0), tagged(0, 1)]).unwrap();
        let taken = svc.into_partition_events().unwrap();
        let lens: Vec<(&str, Vec<usize>)> = taken
            .iter()
            .map(|(name, parts)| (name.as_str(), parts.iter().map(|p| p.len()).collect()))
            .collect();
        assert_eq!(lens, [("a", vec![0, 2]), ("b", vec![0])]);

        let svc = MofkaService::new();
        svc.create_topic("a", TopicConfig::default()).unwrap();
        let producer = svc.producer("a", ProducerConfig::default()).unwrap();
        match svc.into_partition_events() {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("topic a"), "{msg}"),
            other => panic!("expected IllegalState, got {other:?}"),
        }
        drop(producer);
    }

    #[test]
    fn unknown_topic_errors() {
        let svc = MofkaService::new();
        assert!(svc.producer("nope", ProducerConfig::default()).is_err());
        assert!(svc.consumer("nope", ConsumerConfig::default()).is_err());
        assert!(svc.topic("nope").is_err());
    }

    #[test]
    fn topic_config_recorded_in_yokan() {
        let svc = MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions: 7 }).unwrap();
        let raw = svc.yokan().get("topic-config/t").unwrap();
        assert_eq!(binfmt::decode::<TopicConfig>(&raw).unwrap(), TopicConfig { partitions: 7 });
    }

    /// A persisted topic config or group cursor that does not decode fails
    /// the reopen that reads it.
    #[test]
    fn undecodable_metadata_fails_the_reopen() {
        let dir = std::env::temp_dir().join(format!("dtf-svc-bad-{}", std::process::id()));
        for (key, garbage) in [("group/events/g/0", &b"\x80"[..]), ("topic-config/events", b"{}")] {
            let _ = std::fs::remove_dir_all(&dir);
            {
                let svc = MofkaService::durable(&dir).unwrap();
                svc.create_topic("events", TopicConfig { partitions: 2 }).unwrap();
                svc.yokan().put(key, Bytes::from_static(garbage));
                svc.sync().unwrap();
            }
            let err = MofkaService::durable(&dir).unwrap_err().to_string();
            assert!(err.contains(key), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_service_reopens_to_committed_state() {
        let dir = std::env::temp_dir().join(format!("dtf-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let svc = MofkaService::durable(&dir).unwrap();
            svc.create_topic("events", TopicConfig { partitions: 2 }).unwrap();
            let mut p = svc.producer("events", ProducerConfig::default()).unwrap();
            for i in 0..20 {
                p.push(Event { data: bytes::Bytes::from(vec![i as u8; 8]), ..tagged(0, i) })
                    .unwrap();
            }
            p.flush().unwrap();
            svc.sync().unwrap();
        }
        let (svc, recovery) = MofkaService::reopen(&dir).unwrap();
        assert_eq!(recovery.restored_events, 20);
        assert!(!recovery.yokan.torn && !recovery.warabi.torn);
        let mut c = svc.consumer("events", ConsumerConfig::default()).unwrap();
        let events = c.drain_all().unwrap();
        assert_eq!(events.len(), 20);
        for e in &events {
            let i = tag(&e.event.record).1;
            assert_eq!(e.event.data.as_ref(), vec![i as u8; 8].as_slice());
        }
        // reopen is read-only: a second open sees identical state
        let (svc2, recovery2) = MofkaService::reopen(&dir).unwrap();
        assert_eq!(recovery2.restored_events, 20);
        assert_eq!(svc2.topic("events").unwrap().total_len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn topic_names_sorted() {
        let svc = MofkaService::new();
        svc.create_topic("b", TopicConfig::default()).unwrap();
        svc.create_topic("a", TopicConfig::default()).unwrap();
        assert_eq!(svc.topic_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn sharded_topic_map_serves_many_topics() {
        let svc = MofkaService::new();
        let names: Vec<String> = (0..64).map(|i| format!("topic-{i:02}")).collect();
        for n in &names {
            svc.create_topic(n, TopicConfig { partitions: 1 }).unwrap();
        }
        assert_eq!(svc.topic_names(), names, "sorted across map shards");
        for n in &names {
            assert_eq!(svc.topic(n).unwrap().name(), n);
        }
    }
}

//! Everything collected from one run, fused from its sources.
//!
//! The paper's data path is: WMS plugins → Mofka topics (in situ), Darshan →
//! per-process binary logs (at shutdown), job/system metadata → provenance
//! chart. The drain replays the Mofka topics after the run — the
//! post-processing consumer mode — and fuses them with the facts every
//! run has besides its topics ([`RunFacts`]: run id, workflow, chart,
//! Darshan log set, wall time, steals) into one record the analysis
//! engine consumes. The simulator's [`SimConfig`] is not one of those
//! facts: only a persisted simulated run's `run-meta` ([`ArchiveMeta`])
//! carries it, beside them.
//!
//! The drain takes each topic's partitions whole
//! ([`dtf_mofka::PartitionEvents`]) from one of two sources. A simulated
//! run, a real executor run ([`crate::LocalCluster::finish`]) and
//! [`RunData::open_archive`] own their service and are done with it, so
//! they hand it over by value and the records are *moved* out of the
//! partition logs ([`MofkaService::into_partition_events`]), each event
//! unwrapped from its record ([`ProvEvent::from_record`]) into a vector
//! of exactly the family's length: the run is never held twice.
//! [`RunData::drain_from_mofka`] borrows its service and drains copies
//! of the partitions ([`dtf_mofka::topic::Topic::partition_events`]),
//! leaving the service as it was. Neither claims through a consumer
//! group, so neither writes a group cursor.
//!
//! **One order rule.** Each family is sorted on `(its time field, seq)`:
//! the time the family is ordered by (`submitted`, `time`, `stop` for
//! completions, `start` for transfers and I/O records), then the seq its
//! topic stamped when the event was pushed. The seq is unique in a topic
//! and set in emission order, so this is a total order and a function of
//! the run alone: equal-time events come out in the order they were
//! emitted, whatever the partition counts or the routing were. One
//! implementation orders both sources: the partitions are merged on seq
//! (emission order, when each partition's seqs ascend, as one producer
//! leaves them), and a stable sort on the time alone runs only when that
//! order is not already sorted on it. A partition whose seqs do not
//! ascend (producers whose flushes interleaved) is sorted on
//! `(time, seq)` pairs instead. `RunData` keeps no seq.
//!
//! For persistent runs the same drain works post-hoc from disk:
//! [`RunData::open_archive`] reopens a store directory read-only and
//! drains the recovered topics through the identical path, so a
//! reconstructed `RunData` is equal to the in-memory one for the
//! committed prefix. The
//! non-Mofka half of the record — chart, Darshan logs, wall time — is
//! persisted at finalize under the [`ARCHIVE_META_KEY`] Yokan key, as the
//! binary document [`ArchiveMeta::encode`] writes.

use serde::Serialize;
use std::path::Path;

use dtf_core::binfmt::{self, Reader, Wire};
use dtf_core::error::DtfError;
use dtf_core::events::{
    CommEvent, IoRecord, LogEntry, ProvEvent, ProxyEvent, TaskDoneEvent, TaskMetaEvent,
    TransitionEvent, WarningEvent, WorkerTaskState, WorkerTransitionEvent,
};
use dtf_core::fault::FaultSchedule;
use dtf_core::ids::{RunId, TaskKey};
use dtf_core::provenance::ProvenanceChart;
use dtf_core::time::{Dur, Time};
use dtf_darshan::log::LogSet;
use dtf_darshan::DxtConfig;
use dtf_mofka::bedrock::{WmsFamily, WMS_TOPICS};
use dtf_mofka::{MofkaService, PartitionEvents, ServiceRecovery};
use dtf_proxystore::ProxyConfig;

use crate::sim::SimConfig;

/// Yokan key under which a persistent run archives its non-Mofka data.
pub const ARCHIVE_META_KEY: &str = "run-meta";

/// First bytes of an encoded [`ArchiveMeta`]: magic, then the version
/// (DESIGN.md §13 says what the refused versions held).
const META_MAGIC: &[u8; 7] = b"DTFMETA";
const META_VERSION: u8 = 6;

/// The facts every run has besides its Mofka topics, whichever engine
/// ran it: what the drain fuses with the topics into a [`RunData`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunFacts {
    pub run: RunId,
    pub workflow: String,
    pub chart: ProvenanceChart,
    pub darshan: LogSet,
    pub wall_time: Dur,
    pub steals: u64,
}

/// The non-Mofka half of a simulated run's record, persisted at finalize
/// so an archive reopen can rebuild a full [`RunData`] from disk alone:
/// the run's [`RunFacts`], and the configuration the run ran on, so the
/// archive alone can run it again. The config's `run` is the facts' run
/// id.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveMeta {
    /// The run's configuration. `persist_dir`, `invariant_checks` and
    /// `mofka_batch` change no output and are not archived (they decode
    /// as their defaults); `wms` is archived once, as the chart's
    /// `wms_config`, and decodes from there.
    pub config: SimConfig,
    pub workflow: String,
    pub chart: ProvenanceChart,
    pub darshan: LogSet,
    pub wall_time: Dur,
    pub steals: u64,
}

impl ArchiveMeta {
    /// The binary `run-meta` document (DESIGN.md §13 has the table).
    pub fn encode(&self) -> Vec<u8> {
        binfmt::encode(self)
    }

    /// Decode a `run-meta` document, naming the format in the error when
    /// it is the JSON one that came before it.
    pub fn decode(bytes: &[u8]) -> dtf_core::Result<Self> {
        if bytes.first() == Some(&b'{') {
            return Err(DtfError::Serde(format!(
                "{ARCHIVE_META_KEY} is a JSON document, the format before binary \
                 {ARCHIVE_META_KEY}; this build reads only binary version {META_VERSION}"
            )));
        }
        binfmt::decode(bytes).map_err(|e| match e {
            DtfError::Serde(m) => DtfError::Serde(format!("{ARCHIVE_META_KEY}: {m}")),
            other => other,
        })
    }

    /// Reopen the archive at `dir` read-only and decode its `run-meta`.
    pub fn open(dir: &Path) -> dtf_core::Result<Self> {
        let (svc, _) = MofkaService::reopen(dir)?;
        Self::of(&svc, dir)
    }

    /// The `run-meta` document of `svc`, the service reopened from `dir`.
    fn of(svc: &MofkaService, dir: &Path) -> dtf_core::Result<Self> {
        let raw = svc.yokan().get(ARCHIVE_META_KEY).ok_or_else(|| {
            DtfError::NotFound(format!("{ARCHIVE_META_KEY} in archive {}", dir.display()))
        })?;
        Self::decode(&raw)
    }

    /// The run's facts, the simulator's config left behind.
    pub(crate) fn into_facts(self) -> RunFacts {
        let Self { config, workflow, chart, darshan, wall_time, steals } = self;
        RunFacts { run: config.run, workflow, chart, darshan, wall_time, steals }
    }
}

/// The document's layout:
///
/// ```text
/// "DTFMETA" version:u8
///   campaign_seed run dxt online_darshan proxy faults
///   workflow chart darshan wall_time steals
/// ```
///
/// Every field is its [`Wire`] form: the first six are the run's
/// [`SimConfig`], whose `wms` is the chart's `wms_config`; `chart` is the
/// `ProvenanceChart`'s declared layout and `darshan` the `LogSet`'s. The
/// start order is not archived: the drain derives it from the worker
/// transitions the topic log holds.
impl Wire for ArchiveMeta {
    /// Magic, version and a byte for each field but the config's three
    /// structs and the chart, whose minimums are their own.
    const MIN_BYTES: usize = META_MAGIC.len()
        + 1
        + 8
        + DxtConfig::MIN_BYTES
        + ProxyConfig::MIN_BYTES
        + FaultSchedule::MIN_BYTES
        + ProvenanceChart::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(META_MAGIC);
        out.push(META_VERSION);
        let c = &self.config;
        c.campaign_seed.put(out);
        c.run.put(out);
        c.dxt.put(out);
        c.online_darshan.put(out);
        c.proxy.put(out);
        c.faults.put(out);
        self.workflow.put(out);
        self.chart.put(out);
        self.darshan.put(out);
        self.wall_time.put(out);
        self.steals.put(out);
    }

    fn get(r: &mut Reader<'_>) -> dtf_core::Result<Self> {
        for &m in META_MAGIC {
            if r.u8().ok() != Some(m) {
                return Err(DtfError::Serde("bad magic".into()));
            }
        }
        match r.u8() {
            Ok(META_VERSION) => {}
            Ok(v) => {
                return Err(DtfError::Serde(format!(
                    "unsupported version {v} (this build reads {META_VERSION})"
                )))
            }
            Err(_) => return Err(DtfError::Serde("truncated".into())),
        }
        let config = SimConfig {
            campaign_seed: Wire::get(r)?,
            run: Wire::get(r)?,
            dxt: Wire::get(r)?,
            online_darshan: Wire::get(r)?,
            proxy: Wire::get(r)?,
            faults: Wire::get(r)?,
            ..SimConfig::default()
        };
        let workflow = Wire::get(r)?;
        let chart: ProvenanceChart = Wire::get(r)?;
        Ok(Self {
            config: SimConfig { wms: chart.wms_config.clone(), ..config },
            workflow,
            chart,
            darshan: Wire::get(r)?,
            wall_time: Wire::get(r)?,
            steals: Wire::get(r)?,
        })
    }
}

/// All data collected from a single run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunData {
    pub run: RunId,
    pub workflow: String,
    pub chart: ProvenanceChart,
    pub meta: Vec<TaskMetaEvent>,
    pub transitions: Vec<TransitionEvent>,
    pub worker_transitions: Vec<WorkerTransitionEvent>,
    pub task_done: Vec<TaskDoneEvent>,
    pub comms: Vec<CommEvent>,
    pub warnings: Vec<WarningEvent>,
    pub logs: Vec<LogEntry>,
    /// Proxy-plane lifecycle records (empty when the out-of-band data
    /// plane is disabled — the default).
    pub proxies: Vec<ProxyEvent>,
    pub darshan: LogSet,
    /// I/O records streamed online through Mofka (empty unless the run was
    /// configured with `online_darshan`; never subject to DXT truncation).
    pub online_io: Vec<IoRecord>,
    /// End-to-end wall time of the workflow (incl. coordination).
    pub wall_time: Dur,
    /// Order in which tasks began executing: each `ready → executing`
    /// worker transition's key and time, in drained order.
    pub start_order: Vec<(TaskKey, Time)>,
    /// Number of work-stealing moves during the run.
    pub steals: u64,
}

/// Every event of `T`'s topic, from its partitions, sorted on
/// `(time(e), seq)` (the module docs give the rule).
fn family<T: ProvEvent + WmsFamily>(
    partitions: &mut impl FnMut(&str) -> dtf_core::Result<Vec<PartitionEvents>>,
    time: fn(&T) -> Time,
) -> dtf_core::Result<Vec<T>> {
    let topic = WMS_TOPICS[T::TOPIC].name;
    let mut parts = partitions(topic)?;
    let event = |record| {
        T::from_record(record).ok_or_else(|| {
            DtfError::IllegalState(format!("topic {topic} carried a record of the wrong family"))
        })
    };
    let len = parts.iter().map(ExactSizeIterator::len).sum();
    if !parts.iter().all(PartitionEvents::seqs_ascending) {
        // producers whose flushes interleaved: merging on seq would not
        // give emission order, so sort on the pairs (every key is
        // distinct, so a stable sort orders as an unstable one would)
        let mut pairs = Vec::with_capacity(len);
        for (seq, record) in parts.into_iter().flatten() {
            pairs.push((event(record)?, seq));
        }
        pairs.sort_by_key(|(e, seq)| (time(e), *seq));
        return Ok(pairs.into_iter().map(|(e, _)| e).collect());
    }
    // merge on seq: emission order, straight into the family's vector
    let mut events = Vec::with_capacity(len);
    let next = |parts: &[PartitionEvents]| {
        parts.iter().enumerate().filter_map(|(p, part)| Some((part.next_seq()?, p))).min()
    };
    while let Some((_, p)) = next(&parts) {
        if let Some((_, record)) = parts[p].next() {
            events.push(event(record)?);
        }
    }
    // a stable sort of emission order on the time alone is the sort on
    // `(time, seq)`; most families are in time order already
    if !events.windows(2).all(|w| time(&w[0]) <= time(&w[1])) {
        events.sort_by_key(time);
    }
    Ok(events)
}

/// The start order a run's drained worker transitions hold: each
/// transition into `executing` as `(key, time)`, in their order. A task
/// starts exactly when its worker moves it `ready → executing`, so this is
/// the order the scheduler started tasks in, ties included.
pub(crate) fn started(worker_transitions: &[WorkerTransitionEvent]) -> Vec<(TaskKey, Time)> {
    worker_transitions
        .iter()
        .filter(|w| w.to == WorkerTaskState::Executing)
        .map(|w| (w.key, w.time))
        .collect()
}

impl RunData {
    /// Drain the standard WMS topics of `svc` into typed event vectors,
    /// sorted by time, leaving `svc` as it was: the drain copies each
    /// topic's partitions. A simulated or executor run drains the service
    /// it owns, by move; this form is for services filled by hand and
    /// still in use.
    ///
    /// `_start_order` is ignored: the start order is derived from the
    /// drained worker transitions, as for every drain.
    #[allow(clippy::too_many_arguments)] // one parameter per fused data source
    pub fn drain_from_mofka(
        svc: &MofkaService,
        run: RunId,
        workflow: String,
        chart: ProvenanceChart,
        darshan: LogSet,
        wall_time: Dur,
        _start_order: Vec<(TaskKey, Time)>,
        steals: u64,
    ) -> dtf_core::Result<Self> {
        let facts = RunFacts { run, workflow, chart, darshan, wall_time, steals };
        Self::fuse(facts, |topic| svc.topic(topic)?.partition_events())
    }

    /// Rebuild a run record from a persisted store directory, read-only:
    /// the reopened service is drained by move, as a simulated run's own
    /// is, so the record is equal to the live run's for the committed
    /// prefix. Also returns what recovery found on the way in.
    pub fn open_archive(dir: &Path) -> dtf_core::Result<(Self, ServiceRecovery)> {
        let (svc, recovery) = MofkaService::reopen(dir)?;
        let facts = ArchiveMeta::of(&svc, dir)?.into_facts();
        Ok((Self::drain(svc, facts)?, recovery))
    }

    /// Drain a service its caller is done with: every record is moved out
    /// of the partition logs, and each family's slots are freed as the
    /// family is drained. A topic a producer or consumer still holds is
    /// an [`DtfError::IllegalState`].
    pub(crate) fn drain(svc: MofkaService, facts: RunFacts) -> dtf_core::Result<Self> {
        let mut topics = svc.into_partition_events()?;
        Self::fuse(facts, |topic| {
            topics.remove(topic).ok_or_else(|| DtfError::NotFound(format!("topic {topic}")))
        })
    }

    /// The one drain both sources share — any divergence here would break
    /// byte-identical replay: every family of `partitions`, each topic's
    /// taken whole, fused with `facts`.
    fn fuse(
        facts: RunFacts,
        mut partitions: impl FnMut(&str) -> dtf_core::Result<Vec<PartitionEvents>>,
    ) -> dtf_core::Result<Self> {
        let RunFacts { run, workflow, chart, darshan, wall_time, steals } = facts;
        let meta = family(&mut partitions, |e: &TaskMetaEvent| e.submitted)?;
        let transitions = family(&mut partitions, |e: &TransitionEvent| e.time)?;
        let worker_transitions = family(&mut partitions, |e: &WorkerTransitionEvent| e.time)?;
        let start_order = started(&worker_transitions);
        let task_done = family(&mut partitions, |e: &TaskDoneEvent| e.stop)?;
        let comms = family(&mut partitions, |e: &CommEvent| e.start)?;
        let warnings = family(&mut partitions, |e: &WarningEvent| e.time)?;
        let logs = family(&mut partitions, |e: &LogEntry| e.time)?;
        let online_io = family(&mut partitions, |e: &IoRecord| e.start)?;
        let proxies = family(&mut partitions, |e: &ProxyEvent| e.time)?;
        Ok(Self {
            run,
            workflow,
            chart,
            meta,
            transitions,
            worker_transitions,
            task_done,
            comms,
            warnings,
            logs,
            proxies,
            darshan,
            online_io,
            wall_time,
            start_order,
            steals,
        })
    }

    /// Number of distinct tasks that completed at least once.
    pub fn distinct_tasks(&self) -> usize {
        let keys: std::collections::HashSet<&TaskKey> =
            self.task_done.iter().map(|d| &d.key).collect();
        keys.len()
    }

    /// Distinct task graphs observed.
    pub fn task_graphs(&self) -> usize {
        let ids: std::collections::HashSet<u32> =
            self.task_done.iter().map(|d| d.graph.0).collect();
        ids.len()
    }

    /// Distinct files touched (from Darshan counters — complete even under
    /// DXT truncation).
    pub fn distinct_files(&self) -> usize {
        self.darshan.distinct_files()
    }

    /// I/O operations traced by DXT (the quantity the paper's Table I
    /// reports; undercounts when buffers truncated — footnote 9).
    pub fn io_ops(&self) -> u64 {
        self.darshan.traced_data_ops()
    }

    /// Complete I/O operation count from the counters module.
    pub fn io_ops_complete(&self) -> u64 {
        self.darshan.total_data_ops()
    }

    /// Number of inter-worker communications.
    pub fn comm_count(&self) -> usize {
        self.comms.len()
    }

    /// Sum of time spent in I/O operations (Fig. 3 "I/O" bar).
    pub fn io_time(&self) -> Dur {
        self.darshan.total_io_time()
    }

    /// Sum of time spent in incoming communications (Fig. 3 "comm" bar).
    pub fn comm_time(&self) -> Dur {
        let mut t = Dur::ZERO;
        for c in &self.comms {
            t += c.duration();
        }
        t
    }

    /// Sum of task execution time (Fig. 3 "compute" bar). Task execution
    /// includes its in-task I/O; the paper notes the phases are
    /// non-exclusive and may overlap.
    pub fn compute_time(&self) -> Dur {
        let mut t = Dur::ZERO;
        for d in &self.task_done {
            t += d.duration();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{Location, Stimulus, TaskState};
    use dtf_core::ids::{GraphId, NodeId, ThreadId, WorkerId};
    use dtf_core::provenance::{HardwareInfo, JobInfo, SystemInfo, WmsConfig};
    use dtf_mofka::bedrock::BedrockConfig;
    use dtf_mofka::producer::ProducerConfig;
    use dtf_mofka::ConsumerConfig;

    fn chart() -> ProvenanceChart {
        ProvenanceChart {
            hardware: HardwareInfo::polaris_like(2),
            system: SystemInfo::synthetic(),
            job: JobInfo {
                job_id: 1,
                script: String::new(),
                queue: "q".into(),
                nodes_requested: 2,
                allocated_nodes: vec![NodeId(0), NodeId(1)],
                submit_time: Time::ZERO,
                start_time: Time::ZERO,
                walltime_limit_s: 60,
            },
            wms_config: WmsConfig::default(),
            client_code_hash: 0,
            workflow_name: "test".into(),
        }
    }

    #[test]
    fn drain_from_mofka_fuses_and_sorts() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        {
            use crate::plugins::{MofkaPlugin, WmsPlugin};
            let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
            let w = WorkerId::new(NodeId(0), 0);
            for (i, t) in [5u64, 2, 9].iter().enumerate() {
                plugin.on_record(
                    TransitionEvent {
                        key: TaskKey::new("x", 0, i as u32),
                        graph: GraphId(0),
                        from: TaskState::Released,
                        to: TaskState::Waiting,
                        stimulus: Stimulus::GraphSubmitted,
                        location: Location::Scheduler,
                        time: Time(*t),
                    }
                    .into(),
                );
            }
            plugin.on_record(
                TaskDoneEvent {
                    key: TaskKey::new("x", 0, 0),
                    graph: GraphId(0),
                    worker: w,
                    thread: ThreadId(1),
                    start: Time(0),
                    stop: Time(10),
                    nbytes: 4,
                }
                .into(),
            );
            plugin.flush();
        }
        let data = RunData::drain_from_mofka(
            &svc,
            RunId(0),
            "test".into(),
            chart(),
            LogSet::default(),
            Dur::from_secs_f64(1.0),
            vec![],
            0,
        )
        .unwrap();
        assert_eq!(data.transitions.len(), 3);
        let times: Vec<u64> = data.transitions.iter().map(|t| t.time.0).collect();
        assert_eq!(times, vec![2, 5, 9], "sorted by time");
        assert_eq!(data.task_done.len(), 1);
        assert_eq!(data.distinct_tasks(), 1);
        assert_eq!(data.task_graphs(), 1);
        assert!(data.compute_time() > Dur::ZERO);
    }

    /// A record on a topic of another family is an error, not a skipped or
    /// reinterpreted event.
    #[test]
    fn a_record_of_the_wrong_family_fails_the_drain() {
        use dtf_core::events::{LogEntry, LogLevel, LogSource};
        use dtf_mofka::Event;
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let entry = LogEntry {
            time: Time(321),
            level: LogLevel::Error,
            source: LogSource::Scheduler,
            message: "a log line on the task-done topic".into(),
        };
        svc.topic("task-done").unwrap().append_batch(0, vec![Event::typed(entry)]).unwrap();
        let drained = RunData::drain_from_mofka(
            &svc,
            RunId(2),
            "wrong-family".into(),
            chart(),
            LogSet::default(),
            Dur::ZERO,
            vec![],
            0,
        );
        match drained {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("task-done"), "{msg}"),
            other => panic!("expected IllegalState, got {other:?}"),
        }
    }

    /// Every record of `topic`, read through a fresh consumer group.
    fn records_of(svc: &MofkaService, topic: &str, group: &str) -> Vec<dtf_mofka::StoredEvent> {
        svc.consumer(topic, ConsumerConfig { group: group.into(), prefetch: 3 })
            .unwrap()
            .drain_all()
            .unwrap()
    }

    /// The drain reads records the partition logs still hold, by
    /// reference: a mixed stream (records of three families, deps
    /// included) comes out as exactly the events that went in, in drain
    /// order, and the topics' records are the same afterwards.
    #[test]
    fn drain_reads_shared_records_in_place() {
        use crate::plugins::{MofkaPlugin, WmsPlugin};
        use dtf_core::events::TaskMetaEvent;

        let key = |i: u32| TaskKey::new("stage", 7, i);
        let meta = |i: u32, deps: Vec<TaskKey>, at: u64| TaskMetaEvent {
            key: key(i),
            graph: GraphId(0),
            client: dtf_core::ids::ClientId(0),
            deps,
            submitted: Time(at),
        };
        let transition = |i: u32, at: u64| TransitionEvent {
            key: key(i),
            graph: GraphId(0),
            from: TaskState::Released,
            to: TaskState::Waiting,
            stimulus: Stimulus::GraphSubmitted,
            location: Location::Scheduler,
            time: Time(at),
        };
        let done = |i: u32, start: u64, stop: u64| TaskDoneEvent {
            key: key(i),
            graph: GraphId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            start: Time(start),
            stop: Time(stop),
            nbytes: 4,
        };

        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
        plugin.on_record(meta(1, vec![key(0)], 5).into());
        plugin.on_record(meta(2, vec![key(0), key(1)], 5).into());
        plugin.on_record(meta(0, vec![], 1).into());
        plugin.on_record(transition(0, 9).into());
        plugin.on_record(transition(1, 2).into());
        plugin.on_record(transition(2, 6).into());
        plugin.on_record(done(1, 4, 8).into());
        plugin.on_record(done(0, 1, 3).into());
        plugin.flush();

        let topics = ["task-meta", "task-transitions", "task-done"];
        let before: Vec<_> = topics.iter().map(|t| records_of(&svc, t, "before")).collect();
        assert_eq!(before.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 2]);

        let data = RunData::drain_from_mofka(
            &svc,
            RunId(3),
            "mixed".into(),
            chart(),
            LogSet::default(),
            Dur::ZERO,
            vec![],
            0,
        )
        .unwrap();
        assert_eq!(
            data.meta,
            vec![meta(0, vec![], 1), meta(1, vec![key(0)], 5), meta(2, vec![key(0), key(1)], 5)]
        );
        assert_eq!(data.transitions, vec![transition(1, 2), transition(2, 6), transition(0, 9)]);
        assert_eq!(data.task_done, vec![done(0, 1, 3), done(1, 4, 8)]);

        let after: Vec<_> = topics.iter().map(|t| records_of(&svc, t, "after")).collect();
        assert_eq!(after, before, "draining left the topics' records as they were");
    }

    /// The non-Mofka half of a hand-built run.
    fn hand_built(run: u32) -> RunFacts {
        let (workflow, darshan) = ("hand-built".to_string(), LogSet::default());
        RunFacts {
            run: RunId(run),
            workflow,
            chart: chart(),
            darshan,
            wall_time: Dur::ZERO,
            steals: 0,
        }
    }

    /// What [`RunData::drain_from_mofka`] makes of `svc` with `meta`.
    fn borrowed_drain(svc: &MofkaService, meta: &RunFacts) -> dtf_core::Result<RunData> {
        let m = meta.clone();
        RunData::drain_from_mofka(
            svc,
            m.run,
            m.workflow,
            m.chart,
            m.darshan,
            m.wall_time,
            vec![],
            0,
        )
    }

    /// Two producers whose flushes interleave leave a partition whose
    /// seqs do not ascend; it still drains in `(time, seq)` order, the
    /// same by move as borrowed.
    #[test]
    fn a_partition_of_interleaved_flushes_drains_in_time_and_seq_order() {
        use dtf_core::events::{LogLevel, LogSource};
        use dtf_mofka::Event;
        let line = |time: u64, message: &str| LogEntry {
            time: Time(time),
            level: LogLevel::Info,
            source: LogSource::Scheduler,
            message: message.into(),
        };
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let topic = WMS_TOPICS[LogEntry::TOPIC].name;
        assert_eq!(svc.topic(topic).unwrap().num_partitions(), 1);
        let mut a = svc.producer(topic, ProducerConfig::default()).unwrap();
        let mut b = svc.producer(topic, ProducerConfig::default()).unwrap();
        a.push(Event::typed(line(5, "a0"))).unwrap(); // seq 0
        a.push(Event::typed(line(3, "a1"))).unwrap(); // seq 1
        b.push(Event::typed(line(3, "b2"))).unwrap(); // seq 2
        b.push(Event::typed(line(1, "b3"))).unwrap(); // seq 3
        b.flush().unwrap();
        a.flush().unwrap();
        drop((a, b));
        let logged = svc.topic(topic).unwrap().partition_events().unwrap();
        assert!(!logged[0].seqs_ascending(), "the partition holds seqs 2, 3, 0, 1");

        let want = vec![line(1, "b3"), line(3, "a1"), line(3, "b2"), line(5, "a0")];
        let meta = hand_built(4);
        let borrowed = borrowed_drain(&svc, &meta).unwrap();
        assert_eq!(borrowed.logs, want);
        let moved = RunData::drain(svc, meta).unwrap();
        assert_eq!(moved, borrowed);
    }

    /// The drain by move gives the records the borrowed drain does, and a
    /// borrowed drain leaves its service as it was: a second one gives
    /// them again. A topic a producer still holds is refused by move.
    #[test]
    fn the_drain_by_move_equals_the_borrowed_drain() {
        use crate::plugins::{MofkaPlugin, WmsPlugin};
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
        for (i, t) in [5u64, 2, 9, 2, 7].iter().enumerate() {
            plugin.on_record(
                TransitionEvent {
                    key: TaskKey::new("x", 0, i as u32),
                    graph: GraphId(0),
                    from: TaskState::Released,
                    to: TaskState::Waiting,
                    stimulus: Stimulus::GraphSubmitted,
                    location: Location::Scheduler,
                    time: Time(*t),
                }
                .into(),
            );
        }
        plugin.flush();
        let meta = hand_built(5);
        let first = borrowed_drain(&svc, &meta).unwrap();
        assert_eq!(first.transitions.len(), 5);
        assert_eq!(borrowed_drain(&svc, &meta).unwrap(), first, "the service is intact");
        match RunData::drain(svc, meta.clone()) {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("still open"), "{msg}"),
            other => panic!("expected IllegalState, got {other:?}"),
        }

        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
        for t in &first.transitions {
            plugin.on_record(t.clone().into());
        }
        drop(plugin);
        assert_eq!(RunData::drain(svc, meta).unwrap(), first);
    }

    #[test]
    fn metrics_on_empty_run_are_zero() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let data = RunData::drain_from_mofka(
            &svc,
            RunId(1),
            "empty".into(),
            chart(),
            LogSet::default(),
            Dur::ZERO,
            vec![],
            0,
        )
        .unwrap();
        assert_eq!(data.distinct_tasks(), 0);
        assert_eq!(data.io_ops(), 0);
        assert_eq!(data.comm_count(), 0);
        assert_eq!(data.comm_time(), Dur::ZERO);
    }
}

//! Everything collected from one run, fused from its sources.
//!
//! The paper's data path is: WMS plugins → Mofka topics (in situ), Darshan →
//! per-process binary logs (at shutdown), job/system metadata → provenance
//! chart. [`RunData::drain_from_mofka`] replays the Mofka topics after the
//! run — the post-processing consumer mode — and fuses them with the
//! Darshan log set into one record the analysis engine consumes.
//!
//! The drain reads each record where the partition log holds it: topics
//! are persistent, so the log keeps every record for as long as the
//! service lives, and the drain visits them in place
//! ([`dtf_mofka::Consumer::visit_all`]) and clones the one event it wants
//! out by reference ([`ProvEvent::from_record_ref`]) — once, straight into
//! a vector sized from the partition lengths.
//!
//! **One order rule.** Each family is sorted on `(its time field, seq)`:
//! the time the family is ordered by (`submitted`, `time`, `stop` for
//! completions, `start` for transfers and I/O records), then the seq its
//! topic stamped when the event was pushed. The seq is unique in a topic
//! and set in emission order, so this is a total order and a function of
//! the run alone: equal-time events come out in the order they were
//! emitted, whatever the partition counts, the routing or the consumer's
//! claims were. `RunData` keeps no seq; the sort drops it.
//!
//! For persistent runs the same drain works post-hoc from disk:
//! [`RunData::open_archive`] reopens a store directory read-only and
//! replays the recovered topics through the identical consumer path
//! (same prefetch, fresh consumer group), so a reconstructed `RunData`
//! is byte-identical to the in-memory one for the committed prefix. The
//! non-Mofka half of the record — chart, Darshan logs, wall time — is
//! persisted at finalize under the [`ARCHIVE_META_KEY`] Yokan key, as the
//! binary document [`ArchiveMeta::encode`] writes.

use serde::Serialize;
use std::path::Path;

use dtf_core::binfmt::{self, Reader, Wire};
use dtf_core::error::DtfError;
use dtf_core::events::{
    CommEvent, IoRecord, LogEntry, ProvEvent, ProxyEvent, TaskDoneEvent, TaskMetaEvent,
    TransitionEvent, WarningEvent, WorkerTransitionEvent,
};
use dtf_core::ids::{RunId, TaskKey};
use dtf_core::provenance::ProvenanceChart;
use dtf_core::time::{Dur, Time};
use dtf_darshan::log::LogSet;
use dtf_mofka::bedrock::{WmsFamily, WMS_TOPICS};
use dtf_mofka::{ConsumerConfig, MofkaService, ServiceRecovery};

/// Yokan key under which a persistent run archives its non-Mofka data.
pub const ARCHIVE_META_KEY: &str = "run-meta";

/// First bytes of an encoded [`ArchiveMeta`]: magic, then the version
/// (DESIGN.md §13 says what the refused versions held).
const META_MAGIC: &[u8; 7] = b"DTFMETA";
const META_VERSION: u8 = 4;

/// The non-Mofka half of a run record, persisted at finalize so an
/// archive reopen can rebuild a full [`RunData`] from disk alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveMeta {
    pub run: RunId,
    pub workflow: String,
    pub chart: ProvenanceChart,
    pub darshan: LogSet,
    pub wall_time: Dur,
    pub start_order: Vec<(TaskKey, Time)>,
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
}

/// The document's layout:
///
/// ```text
/// "DTFMETA" version:u8 run workflow chart darshan wall_time start_order steals
/// ```
///
/// Every field is its [`Wire`] form: `chart` is the `ProvenanceChart`'s
/// declared layout, `darshan` the `LogSet`'s, and `start_order` keeps
/// stored order, so same-instant ties come back as they went in.
impl Wire for ArchiveMeta {
    /// Magic, version and a byte for each field but the chart, whose
    /// minimum is its own.
    const MIN_BYTES: usize = META_MAGIC.len() + 1 + 6 + ProvenanceChart::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(META_MAGIC);
        out.push(META_VERSION);
        self.run.put(out);
        self.workflow.put(out);
        self.chart.put(out);
        self.darshan.put(out);
        self.wall_time.put(out);
        self.start_order.put(out);
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
        Ok(Self {
            run: Wire::get(r)?,
            workflow: Wire::get(r)?,
            chart: Wire::get(r)?,
            darshan: Wire::get(r)?,
            wall_time: Wire::get(r)?,
            start_order: Wire::get(r)?,
            steals: Wire::get(r)?,
        })
    }
}

/// All data collected from a single run.
#[derive(Debug, Clone, Serialize)]
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
    /// Order in which tasks began executing.
    pub start_order: Vec<(TaskKey, Time)>,
    /// Number of work-stealing moves during the run.
    pub steals: u64,
}

impl RunData {
    /// Drain the standard WMS topics of `svc` (consumer group
    /// `"analysis-<run>"`) into typed event vectors, sorted by time.
    #[allow(clippy::too_many_arguments)] // one parameter per fused data source
    pub fn drain_from_mofka(
        svc: &MofkaService,
        run: RunId,
        workflow: String,
        chart: ProvenanceChart,
        darshan: LogSet,
        wall_time: Dur,
        start_order: Vec<(TaskKey, Time)>,
        steals: u64,
    ) -> dtf_core::Result<Self> {
        let group = format!("analysis-{run}");
        let meta = ArchiveMeta { run, workflow, chart, darshan, wall_time, start_order, steals };
        Self::drain_with_group(svc, &group, meta)
    }

    /// Rebuild a run record from a persisted store directory, read-only.
    /// The drain uses a fresh consumer group (`"archive-<run>"` — the
    /// original run's group offsets are themselves persisted) but the
    /// same consumer configuration as the in-situ path, so event order is
    /// identical. Also returns what recovery found on the way in.
    pub fn open_archive(dir: &Path) -> dtf_core::Result<(Self, ServiceRecovery)> {
        let (svc, recovery) = MofkaService::reopen(dir)?;
        let raw = svc.yokan().get(ARCHIVE_META_KEY).ok_or_else(|| {
            DtfError::NotFound(format!("{ARCHIVE_META_KEY} in archive {}", dir.display()))
        })?;
        let meta = ArchiveMeta::decode(&raw)?;
        let group = format!("archive-{}", meta.run);
        let data = Self::drain_with_group(&svc, &group, meta)?;
        Ok((data, recovery))
    }

    /// The one drain implementation both the in-situ and archive paths
    /// share — any divergence here would break byte-identical replay.
    fn drain_with_group(
        svc: &MofkaService,
        group: &str,
        archive: ArchiveMeta,
    ) -> dtf_core::Result<Self> {
        let ArchiveMeta { run, workflow, chart, darshan, wall_time, start_order, steals } = archive;
        /// Every event of `T`'s topic, sorted on `(time(e), seq)`.
        fn drain<T: ProvEvent + WmsFamily + Clone>(
            svc: &MofkaService,
            group: &str,
            time: fn(&T) -> Time,
        ) -> dtf_core::Result<Vec<T>> {
            let topic = WMS_TOPICS[T::TOPIC].name;
            let mut consumer =
                svc.consumer(topic, ConsumerConfig { group: group.to_string(), prefetch: 4096 })?;
            let mut out = Vec::with_capacity(svc.topic(topic)?.total_len() as usize);
            // copy the event out of the record, which the partition log
            // goes on holding
            consumer.visit_all(|_, seq, record, _| {
                let event = T::from_record_ref(record).ok_or_else(|| {
                    DtfError::IllegalState(format!(
                        "topic {topic} carried a record of the wrong family"
                    ))
                })?;
                out.push((event.clone(), seq));
                Ok(())
            })?;
            // every key is distinct, so a stable sort orders exactly as an
            // unstable one would; it is the one that finds the runs each
            // partition already holds (2x faster here, measured)
            out.sort_by_key(|(e, seq)| (time(e), *seq));
            // collected in place, into the sorted pairs' own buffer
            let mut events: Vec<T> = out.into_iter().map(|(e, _)| e).collect();
            events.shrink_to_fit();
            Ok(events)
        }
        // this order fixes the order the group's cursors are written in
        let meta = drain(svc, group, |e: &TaskMetaEvent| e.submitted)?;
        let transitions = drain(svc, group, |e: &TransitionEvent| e.time)?;
        let worker_transitions = drain(svc, group, |e: &WorkerTransitionEvent| e.time)?;
        let task_done = drain(svc, group, |e: &TaskDoneEvent| e.stop)?;
        let comms = drain(svc, group, |e: &CommEvent| e.start)?;
        let warnings = drain(svc, group, |e: &WarningEvent| e.time)?;
        let logs = drain(svc, group, |e: &LogEntry| e.time)?;
        let online_io = drain(svc, group, |e: &IoRecord| e.start)?;
        let proxies = drain(svc, group, |e: &ProxyEvent| e.time)?;
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

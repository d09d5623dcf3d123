//! Instrumentation plugins (paper §III-E2).
//!
//! The paper extends Dask with scheduler and worker plugins that intercept
//! state transitions, completions, transfers, and log events, and stream
//! them to Mofka. [`WmsPlugin`] is that interception surface: the
//! scheduler, the simulator and the real executor build each observable
//! event as a [`ProvRecord`] and move it into [`WmsPlugin::on_record`].
//! Plugins must not influence scheduling — they take the record and
//! return nothing.
//!
//! A scheduler holds exactly one plugin. Both engines give it a
//! [`MofkaPlugin`], which streams each record into its family's Mofka
//! topic, the row [`topic_of`] names in [`WMS_TOPICS`] — the paper's
//! actual data path — and both end a run by draining that service into a
//! [`RunData`](crate::RunData). The trait stays so a test or a bench can
//! put a sink of its own in the plugin's place.

use dtf_core::events::{
    CommEvent, LogEntry, ProvRecord, ProxyEvent, TaskDoneEvent, TaskMetaEvent, TransitionEvent,
    WarningEvent, WorkerTransitionEvent,
};
use dtf_mofka::bedrock::{topic_of, WMS_TOPICS};
use dtf_mofka::producer::ProducerConfig;
use dtf_mofka::{Event, MofkaService, Producer};

/// Interception surface for WMS instrumentation.
pub trait WmsPlugin: Send {
    /// One provenance record, moved in: the plugin keeps it or drops it.
    fn on_record(&mut self, record: ProvRecord);
    /// Flush any buffered telemetry (end of run).
    fn flush(&mut self) {}
}

/// Streams every record into its Mofka topic (created by
/// [`dtf_mofka::bedrock::BedrockConfig::wms_default`]).
pub struct MofkaPlugin {
    /// One producer per row of [`WMS_TOPICS`], flushed in row order.
    producers: Vec<Producer>,
}

impl MofkaPlugin {
    /// One producer per topic, each routing by `producer_cfg`: a topic
    /// orders its events by the seq stamped at push, so no topic needs a
    /// route of its own.
    pub fn new(service: &MofkaService, producer_cfg: ProducerConfig) -> dtf_core::Result<Self> {
        let producers = WMS_TOPICS
            .iter()
            .map(|topic| service.producer(topic.name, producer_cfg.clone()))
            .collect::<dtf_core::Result<_>>()?;
        Ok(Self { producers })
    }
}

/// Typed entry points for callers that hold a borrowed event: each clones
/// it into [`WmsPlugin::on_record`].
macro_rules! typed_hooks {
    ($($hook:ident($ty:ty)),* $(,)?) => {
        impl MofkaPlugin {
            $(pub fn $hook(&mut self, event: &$ty) {
                self.on_record(event.clone().into());
            })*
        }
    };
}

typed_hooks!(
    on_task_meta(TaskMetaEvent),
    on_transition(TransitionEvent),
    on_worker_transition(WorkerTransitionEvent),
    on_task_done(TaskDoneEvent),
    on_comm(CommEvent),
    on_warning(WarningEvent),
    on_log(LogEntry),
    on_proxy(ProxyEvent),
);

impl WmsPlugin for MofkaPlugin {
    fn on_record(&mut self, record: ProvRecord) {
        // The record moves into the producer's buffer and from there into
        // the partition log; JSON is rendered lazily at export boundaries.
        // A full topic only errors on misconfiguration, which bootstrap
        // validated; instrumentation must not take down the workflow.
        let _ = self.producers[topic_of(&record)].push(Event::typed(record));
    }

    fn flush(&mut self) {
        for producer in &mut self.producers {
            let _ = producer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{
        IoOp, IoRecord, Location, LogLevel, LogSource, ProxyAction, Stimulus, TaskState,
        WarningKind, WorkerTaskState,
    };
    use dtf_core::ids::{ClientId, FileId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
    use dtf_core::time::{Dur, Time};
    use dtf_mofka::bedrock::BedrockConfig;
    use dtf_mofka::ConsumerConfig;

    fn transition() -> TransitionEvent {
        TransitionEvent {
            key: TaskKey::new("inc", 1, 0),
            graph: GraphId(0),
            from: TaskState::Waiting,
            to: TaskState::Processing,
            stimulus: Stimulus::Dispatched,
            location: Location::Scheduler,
            time: Time(5),
        }
    }

    fn done() -> TaskDoneEvent {
        TaskDoneEvent {
            key: TaskKey::new("inc", 1, 0),
            graph: GraphId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            start: Time(0),
            stop: Time(10),
            nbytes: 64,
        }
    }

    /// One record of each of the nine families.
    fn one_of_each() -> Vec<ProvRecord> {
        let key = TaskKey::new("inc", 1, 0);
        let worker = WorkerId::new(NodeId(0), 0);
        vec![
            TaskMetaEvent {
                key,
                graph: GraphId(0),
                client: ClientId(0),
                deps: vec![TaskKey::new("load", 1, 0)],
                submitted: Time(1),
            }
            .into(),
            transition().into(),
            WorkerTransitionEvent {
                key,
                graph: GraphId(0),
                worker,
                from: WorkerTaskState::Ready,
                to: WorkerTaskState::Executing,
                time: Time(6),
            }
            .into(),
            done().into(),
            CommEvent { key, from: worker, to: worker, nbytes: 8, start: Time(2), stop: Time(4) }
                .into(),
            WarningEvent {
                kind: WarningKind::GcPause,
                worker: None,
                time: Time(1),
                duration: Dur(5),
            }
            .into(),
            LogEntry {
                time: Time(9),
                level: LogLevel::Info,
                source: LogSource::Scheduler,
                message: "a line".into(),
            }
            .into(),
            IoRecord {
                host: NodeId(0),
                worker,
                thread: ThreadId(1),
                file: FileId(0),
                op: IoOp::Read,
                offset: 0,
                size: 4096,
                start: Time(3),
                stop: Time(4),
            }
            .into(),
            ProxyEvent {
                action: ProxyAction::Published,
                key,
                graph: GraphId(0),
                size: 1 << 20,
                owner: worker,
                checksum: 7,
                generation: 0,
                worker: None,
                time: Time(10),
            }
            .into(),
        ]
    }

    /// Each family lands on its own table row's topic, as the record that
    /// went in, and on no other topic.
    #[test]
    fn mofka_plugin_streams_to_topics() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let records = one_of_each();
        {
            let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
            for record in &records {
                plugin.on_record(record.clone());
            }
            plugin.flush();
        }
        let mut rows: Vec<usize> = records.iter().map(topic_of).collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..WMS_TOPICS.len()).collect::<Vec<_>>(), "one family per row");
        for record in &records {
            let topic = WMS_TOPICS[topic_of(record)].name;
            let cfg = ConsumerConfig { group: "t".into(), prefetch: 16 };
            let events = svc.consumer(topic, cfg).unwrap().drain_all().unwrap();
            assert_eq!(events.len(), 1, "{topic}");
            // the event's record is the one pushed — no JSON round-trip
            assert_eq!(events[0].event.record, *record, "{topic}");
        }
        // and its lazy JSON rendering still matches eager serialization
        assert_eq!(
            serde_json::to_string(&ProvRecord::from(transition())).unwrap(),
            serde_json::to_string(&transition()).unwrap()
        );
    }
}

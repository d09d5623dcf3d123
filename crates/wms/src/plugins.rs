//! Instrumentation plugins (paper §III-E2).
//!
//! The paper extends Dask with scheduler and worker plugins that intercept
//! state transitions, completions, transfers, and log events, and stream
//! them to Mofka. [`WmsPlugin`] is that interception surface; the scheduler
//! and simulator invoke it at every observable event. Plugins must not
//! influence scheduling — they receive `&` references and return nothing.
//!
//! * [`CollectorPlugin`] buffers events in memory (useful in tests and for
//!   direct analysis).
//! * [`MofkaPlugin`] streams each record into the corresponding Mofka topic,
//!   which is the paper's actual data path.

use parking_lot::Mutex;
use std::sync::Arc;

use dtf_core::events::{
    CommEvent, LogEntry, ProvRecord, ProxyEvent, TaskDoneEvent, TaskMetaEvent, TransitionEvent,
    WarningEvent, WorkerTransitionEvent,
};
use dtf_mofka::producer::{PartitionStrategy, ProducerConfig};
use dtf_mofka::{Event, MofkaService, Producer};

/// Partitioning used for task-scoped topics: hash the serialized task key.
pub(crate) fn key_strategy() -> PartitionStrategy {
    PartitionStrategy::HashKey("key".to_string())
}

/// Interception surface for WMS instrumentation. All methods have empty
/// default bodies, so a plugin implements only what it needs.
pub trait WmsPlugin: Send {
    fn on_task_meta(&mut self, _event: &TaskMetaEvent) {}
    fn on_transition(&mut self, _event: &TransitionEvent) {}
    fn on_worker_transition(&mut self, _event: &WorkerTransitionEvent) {}
    fn on_task_done(&mut self, _event: &TaskDoneEvent) {}
    fn on_comm(&mut self, _event: &CommEvent) {}
    fn on_warning(&mut self, _event: &WarningEvent) {}
    fn on_log(&mut self, _entry: &LogEntry) {}
    /// Proxy-plane lifecycle records (publish/resolve/evict/re-source).
    fn on_proxy(&mut self, _event: &ProxyEvent) {}
    /// Flush any buffered telemetry (end of run).
    fn flush(&mut self) {}
}

/// In-memory event collector; shared buffers so the caller can inspect the
/// stream while the run proceeds.
#[derive(Debug, Default, Clone)]
pub struct CollectorPlugin {
    inner: Arc<Mutex<CollectedEvents>>,
}

/// Everything a collector plugin gathered.
#[derive(Debug, Default)]
pub struct CollectedEvents {
    pub meta: Vec<TaskMetaEvent>,
    pub transitions: Vec<TransitionEvent>,
    pub worker_transitions: Vec<WorkerTransitionEvent>,
    pub task_done: Vec<TaskDoneEvent>,
    pub comms: Vec<CommEvent>,
    pub warnings: Vec<WarningEvent>,
    pub logs: Vec<LogEntry>,
    pub proxies: Vec<ProxyEvent>,
}

impl CollectorPlugin {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take ownership of everything collected so far.
    pub fn take(&self) -> CollectedEvents {
        std::mem::take(&mut self.inner.lock())
    }
}

impl WmsPlugin for CollectorPlugin {
    fn on_task_meta(&mut self, event: &TaskMetaEvent) {
        self.inner.lock().meta.push(event.clone());
    }

    fn on_transition(&mut self, event: &TransitionEvent) {
        self.inner.lock().transitions.push(event.clone());
    }

    fn on_worker_transition(&mut self, event: &WorkerTransitionEvent) {
        self.inner.lock().worker_transitions.push(event.clone());
    }

    fn on_task_done(&mut self, event: &TaskDoneEvent) {
        self.inner.lock().task_done.push(event.clone());
    }

    fn on_comm(&mut self, event: &CommEvent) {
        self.inner.lock().comms.push(event.clone());
    }

    fn on_warning(&mut self, event: &WarningEvent) {
        self.inner.lock().warnings.push(event.clone());
    }

    fn on_log(&mut self, entry: &LogEntry) {
        self.inner.lock().logs.push(entry.clone());
    }

    fn on_proxy(&mut self, event: &ProxyEvent) {
        self.inner.lock().proxies.push(event.clone());
    }
}

/// Streams every record into Mofka topics (created by
/// [`dtf_mofka::bedrock::BedrockConfig::wms_default`]).
pub struct MofkaPlugin {
    meta: Producer,
    transitions: Producer,
    worker_transitions: Producer,
    task_done: Producer,
    comms: Producer,
    warnings: Producer,
    logs: Producer,
    proxies: Producer,
}

impl MofkaPlugin {
    /// Topic names used by the plugin.
    pub const TOPICS: [&'static str; 8] = [
        "task-meta",
        "task-transitions",
        "worker-transitions",
        "task-done",
        "comm-events",
        "warnings",
        "logs",
        "proxy-events",
    ];

    pub fn new(service: &MofkaService, producer_cfg: ProducerConfig) -> dtf_core::Result<Self> {
        // task-scoped topics partition by task key so one task's events
        // stay in one partition, preserving their relative order end to end
        let by_key = |cfg: &ProducerConfig| ProducerConfig {
            batch_size: cfg.batch_size,
            strategy: crate::plugins::key_strategy(),
        };
        Ok(Self {
            meta: service.producer("task-meta", by_key(&producer_cfg))?,
            transitions: service.producer("task-transitions", by_key(&producer_cfg))?,
            worker_transitions: service.producer("worker-transitions", by_key(&producer_cfg))?,
            task_done: service.producer("task-done", by_key(&producer_cfg))?,
            comms: service.producer("comm-events", by_key(&producer_cfg))?,
            proxies: service.producer("proxy-events", by_key(&producer_cfg))?,
            warnings: service.producer("warnings", producer_cfg.clone())?,
            logs: service.producer("logs", producer_cfg)?,
        })
    }

    fn push<T: Clone + Into<ProvRecord>>(producer: &mut Producer, value: &T) {
        // This clone of the record is what the partition log will hold — Mofka moves it by value from the producer's
        // buffer into the log, and JSON is rendered lazily at export
        // boundaries. A full topic only errors on misconfiguration, which
        // bootstrap validated; instrumentation must not take down the
        // workflow.
        let _ = producer.push(Event::typed(value.clone()));
    }
}

impl WmsPlugin for MofkaPlugin {
    fn on_task_meta(&mut self, event: &TaskMetaEvent) {
        Self::push(&mut self.meta, event);
    }

    fn on_transition(&mut self, event: &TransitionEvent) {
        Self::push(&mut self.transitions, event);
    }

    fn on_worker_transition(&mut self, event: &WorkerTransitionEvent) {
        Self::push(&mut self.worker_transitions, event);
    }

    fn on_task_done(&mut self, event: &TaskDoneEvent) {
        Self::push(&mut self.task_done, event);
    }

    fn on_comm(&mut self, event: &CommEvent) {
        Self::push(&mut self.comms, event);
    }

    fn on_warning(&mut self, event: &WarningEvent) {
        Self::push(&mut self.warnings, event);
    }

    fn on_log(&mut self, entry: &LogEntry) {
        Self::push(&mut self.logs, entry);
    }

    fn on_proxy(&mut self, event: &ProxyEvent) {
        Self::push(&mut self.proxies, event);
    }

    fn flush(&mut self) {
        let _ = self.meta.flush();
        let _ = self.transitions.flush();
        let _ = self.worker_transitions.flush();
        let _ = self.task_done.flush();
        let _ = self.comms.flush();
        let _ = self.proxies.flush();
        let _ = self.warnings.flush();
        let _ = self.logs.flush();
    }
}

/// A fan-out plugin set, invoked in registration order.
#[derive(Default)]
pub struct PluginSet {
    plugins: Vec<Box<dyn WmsPlugin>>,
}

impl PluginSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, plugin: Box<dyn WmsPlugin>) {
        self.plugins.push(plugin);
    }

    pub fn is_empty(&self) -> bool {
        self.plugins.is_empty()
    }
}

impl WmsPlugin for PluginSet {
    fn on_task_meta(&mut self, event: &TaskMetaEvent) {
        for p in &mut self.plugins {
            p.on_task_meta(event);
        }
    }

    fn on_transition(&mut self, event: &TransitionEvent) {
        for p in &mut self.plugins {
            p.on_transition(event);
        }
    }

    fn on_worker_transition(&mut self, event: &WorkerTransitionEvent) {
        for p in &mut self.plugins {
            p.on_worker_transition(event);
        }
    }

    fn on_task_done(&mut self, event: &TaskDoneEvent) {
        for p in &mut self.plugins {
            p.on_task_done(event);
        }
    }

    fn on_comm(&mut self, event: &CommEvent) {
        for p in &mut self.plugins {
            p.on_comm(event);
        }
    }

    fn on_warning(&mut self, event: &WarningEvent) {
        for p in &mut self.plugins {
            p.on_warning(event);
        }
    }

    fn on_log(&mut self, entry: &LogEntry) {
        for p in &mut self.plugins {
            p.on_log(entry);
        }
    }

    fn on_proxy(&mut self, event: &ProxyEvent) {
        for p in &mut self.plugins {
            p.on_proxy(event);
        }
    }

    fn flush(&mut self) {
        for p in &mut self.plugins {
            p.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{Location, Stimulus, TaskState};
    use dtf_core::ids::{GraphId, NodeId, TaskKey, ThreadId, WorkerId};
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

    #[test]
    fn collector_gathers_all_kinds() {
        let collector = CollectorPlugin::new();
        let mut plugin: Box<dyn WmsPlugin> = Box::new(collector.clone());
        plugin.on_transition(&transition());
        plugin.on_task_done(&done());
        plugin.on_warning(&WarningEvent {
            kind: dtf_core::events::WarningKind::GcPause,
            worker: None,
            time: Time(1),
            duration: Dur(5),
        });
        let events = collector.take();
        assert_eq!(events.transitions.len(), 1);
        assert_eq!(events.task_done.len(), 1);
        assert_eq!(events.warnings.len(), 1);
        // take() drains
        assert_eq!(collector.take().transitions.len(), 0);
    }

    #[test]
    fn mofka_plugin_streams_to_topics() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        {
            let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
            plugin.on_transition(&transition());
            plugin.on_transition(&transition());
            plugin.on_task_done(&done());
            plugin.flush();
        }
        let mut c = svc
            .consumer("task-transitions", ConsumerConfig { group: "t".into(), prefetch: 16 })
            .unwrap();
        let events = c.drain_all().unwrap();
        assert_eq!(events.len(), 2);
        // the event's record is the TransitionEvent — no JSON round-trip
        let rec = &events[0].event.record;
        assert_eq!(*rec, ProvRecord::Transition(transition()));
        // and its lazy JSON rendering still matches eager serialization
        assert_eq!(
            serde_json::to_string(rec).unwrap(),
            serde_json::to_string(&transition()).unwrap()
        );
        let mut c =
            svc.consumer("task-done", ConsumerConfig { group: "t".into(), prefetch: 16 }).unwrap();
        assert_eq!(c.drain_all().unwrap().len(), 1);
    }

    #[test]
    fn plugin_set_fans_out() {
        let a = CollectorPlugin::new();
        let b = CollectorPlugin::new();
        let mut set = PluginSet::new();
        set.register(Box::new(a.clone()));
        set.register(Box::new(b.clone()));
        set.on_transition(&transition());
        assert_eq!(a.take().transitions.len(), 1);
        assert_eq!(b.take().transitions.len(), 1);
    }
}

//! The event schema of the characterization framework.
//!
//! These are the records the WMS plugins stream into the event service
//! (paper §III-E2) and that the I/O layer logs (§III-E3). Each record type
//! carries the shared identifiers (task key, worker address, pthread id,
//! timestamps) that make multi-source joins possible at analysis time.

use serde::Serialize;

use crate::ids::{ClientId, FileId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
use crate::table::{CellSink, Tabular};
use crate::time::{Dur, Time};
use crate::wire_enum;

wire_enum! {
    /// Scheduler-side task states, mirroring Dask's scheduler state machine.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum TaskState("task state") {
        /// Known but not yet wanted (dependencies of the graph being built).
        Released = 0 => "released",
        /// Waiting on one or more dependencies.
        Waiting = 1 => "waiting",
        /// Runnable but no worker satisfies its restrictions / all saturated.
        NoWorker = 2 => "no-worker",
        /// Runnable and queued on the scheduler (no worker slot yet).
        Queued = 3 => "queued",
        /// Assigned to a worker and (about to be) executing.
        Processing = 4 => "processing",
        /// Finished; result resident in some worker's memory.
        Memory = 5 => "memory",
        /// Execution raised an error.
        Erred = 6 => "erred",
        /// All clients released it; removed from scheduler tables.
        Forgotten = 7 => "forgotten",
    }
}

impl TaskState {
    /// Whether `self -> to` is a legal transition of the scheduler state
    /// machine. Mirrors `dask.distributed`'s allowed transition table.
    pub fn can_transition_to(&self, to: TaskState) -> bool {
        use TaskState::*;
        matches!(
            (*self, to),
            (Released, Waiting)
                | (Released, Forgotten)
                | (Waiting, Queued)
                | (Waiting, Processing)
                | (Waiting, NoWorker)
                | (Waiting, Released)
                | (Waiting, Erred)
                | (NoWorker, Processing)
                | (NoWorker, Queued)
                | (NoWorker, Released)
                | (Queued, Processing)
                | (Queued, Released)
                | (Processing, Processing) // work stealing: reassigned to another worker
                | (Processing, Memory)
                | (Processing, Erred)
                | (Processing, Released)
                | (Processing, Waiting) // worker lost; must be rescheduled
                | (Memory, Released)
                | (Memory, Forgotten)
                | (Erred, Released)
                | (Erred, Forgotten)
        )
    }

    /// Terminal states from the scheduler's perspective.
    pub fn is_terminal(&self) -> bool {
        matches!(self, TaskState::Memory | TaskState::Erred | TaskState::Forgotten)
    }
}

wire_enum! {
    /// Worker-side task states, mirroring Dask's worker state machine.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum WorkerTaskState("worker task state") {
        /// Arrived at the worker, dependencies not yet local.
        Waiting = 0 => "waiting",
        /// Dependency data scheduled to be fetched from a peer.
        Fetch = 1 => "fetch",
        /// Dependency data in flight from a peer.
        Flight = 2 => "flight",
        /// All inputs local; in the worker's ready heap.
        Ready = 3 => "ready",
        /// Running on a worker thread.
        Executing = 4 => "executing",
        /// Finished on this worker; output in worker memory.
        Memory = 5 => "memory",
        /// Raised during execution.
        Error = 6 => "error",
        /// Released by the scheduler.
        Released = 7 => "released",
    }
}

impl WorkerTaskState {
    /// Legal transitions of the worker-side machine.
    pub fn can_transition_to(&self, to: WorkerTaskState) -> bool {
        use WorkerTaskState::*;
        matches!(
            (*self, to),
            (Waiting, Fetch)
                | (Waiting, Ready)
                | (Fetch, Flight)
                | (Fetch, Ready)
                | (Flight, Ready)
                | (Ready, Executing)
                | (Executing, Memory)
                | (Executing, Error)
                | (Waiting, Released)
                | (Fetch, Released)
                | (Flight, Released)
                | (Ready, Released)
                | (Memory, Released)
        )
    }
}

crate::wire_struct! {
    /// A worker-side task state transition (paper §III-E1: "we gather task
    /// state transitions in the worker to identify the time spent in a worker
    /// before execution").
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct WorkerTransitionEvent {
        pub key: TaskKey,
        pub graph: GraphId,
        pub worker: WorkerId,
        pub from: WorkerTaskState,
        pub to: WorkerTaskState,
        pub time: Time,
    }
}

impl Tabular for WorkerTransitionEvent {
    fn schema() -> Vec<&'static str> {
        vec!["key", "prefix", "graph", "worker", "from", "to", "time_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.key);
        out.str(self.key.prefix.as_str());
        out.u64(self.graph.0 as u64);
        out.display(self.worker);
        out.str(self.from.as_str());
        out.str(self.to.as_str());
        out.secs(self.time.0);
    }
}

wire_enum! {
    /// What caused a state transition — the "stimuli" captured by the plugins.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum Stimulus("stimulus") {
        /// Client submitted the graph containing this task.
        GraphSubmitted = 0 => "graph-submitted",
        /// The last outstanding dependency entered memory.
        DependenciesMet = 1 => "dependencies-met",
        /// Scheduler chose a worker and dispatched the task.
        Dispatched = 2 => "dispatched",
        /// A worker thread began executing.
        ComputeStarted = 3 => "compute-started",
        /// Worker reported successful completion.
        ComputeFinished = 4 => "compute-finished",
        /// Worker reported an error.
        ComputeErred = 5 => "compute-erred",
        /// An idle worker stole this task from a busy peer.
        WorkStolen = 6 => "work-stolen",
        /// The worker running/holding this task died.
        WorkerLost = 7 => "worker-lost",
        /// All clients released their interest.
        ClientReleased = 8 => "client-released",
        /// Scheduler decided no worker can run it right now.
        NoWorkerAvailable = 9 => "no-worker-available",
        /// Scheduler queue admitted the task.
        Queue = 10 => "queued",
    }
}

wire_enum! {
    /// Where a transition was observed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum Location("location tag") {
        Scheduler = 0,
        Worker(w: WorkerId) = 1,
    }
}

crate::wire_struct! {
    /// A task state transition, the core provenance record (paper §III-E2:
    /// "task key, group, prefix, initial state, final state, timestamp, and the
    /// stimuli that triggered this transition").
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct TransitionEvent {
        pub key: TaskKey,
        pub graph: GraphId,
        pub from: TaskState,
        pub to: TaskState,
        pub stimulus: Stimulus,
        pub location: Location,
        pub time: Time,
    }
}

crate::wire_struct! {
    /// Emitted once per task when its graph arrives at the scheduler (paper
    /// §III-E1: "we extract all task-related data, such as task keys, groups,
    /// prefixes, and dependencies").
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct TaskMetaEvent {
        pub key: TaskKey,
        pub graph: GraphId,
        pub client: ClientId,
        pub deps: Vec<TaskKey>,
        pub submitted: Time,
    }
}

impl Tabular for TaskMetaEvent {
    fn schema() -> Vec<&'static str> {
        vec!["key", "group", "prefix", "graph", "client", "n_deps", "submitted_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.key);
        out.display(self.key.group_name());
        out.str(self.key.prefix.as_str());
        out.u64(self.graph.0 as u64);
        out.display(self.client);
        out.u64(self.deps.len() as u64);
        out.secs(self.submitted.0);
    }
}

crate::wire_struct! {
    /// Emitted when a task completes on a worker (paper: "IP address of the
    /// worker where the task was executed, the thread ID, start and end times,
    /// and the size of the task result").
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct TaskDoneEvent {
        pub key: TaskKey,
        pub graph: GraphId,
        pub worker: WorkerId,
        pub thread: ThreadId,
        pub start: Time,
        pub stop: Time,
        /// Size of the task's output, in bytes (Dask's "nbytes").
        pub nbytes: u64,
    }
}

impl TaskDoneEvent {
    pub fn duration(&self) -> Dur {
        self.stop - self.start
    }
}

crate::wire_struct! {
    /// An inter-worker data transfer (dependency fetch or steal movement).
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct CommEvent {
        /// The data item being moved (output of this task).
        pub key: TaskKey,
        pub from: WorkerId,
        pub to: WorkerId,
        pub nbytes: u64,
        pub start: Time,
        pub stop: Time,
    }
}

impl CommEvent {
    pub fn duration(&self) -> Dur {
        self.stop - self.start
    }

    /// Whether the transfer stayed within one node (paper Fig. 5 colours).
    pub fn same_node(&self) -> bool {
        self.from.node == self.to.node
    }
}

wire_enum! {
    /// I/O operation type, as recorded by the DXT-analog tracer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum IoOp("io op") {
        Open = 0 => "open",
        Read = 1 => "read",
        Write = 2 => "write",
        Close = 3 => "close",
    }
}

crate::wire_struct! {
    /// One traced I/O operation. This is the record format shared between the
    /// Darshan-analog collector and the analysis engine; `host` + `thread` +
    /// timestamps are the join keys against task records.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct IoRecord {
        pub host: NodeId,
        /// Worker process that issued the I/O.
        pub worker: WorkerId,
        /// POSIX thread id — the authors' DXT extension (§III-E3).
        pub thread: ThreadId,
        pub file: FileId,
        pub op: IoOp,
        pub offset: u64,
        pub size: u64,
        pub start: Time,
        pub stop: Time,
    }
}

impl IoRecord {
    pub fn duration(&self) -> Dur {
        self.stop - self.start
    }
}

wire_enum! {
    /// Kinds of runtime warnings mined from scheduler/worker logs (Fig. 7).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum WarningKind("warning kind") {
        /// Tornado-style "event loop was unresponsive for X s".
        UnresponsiveEventLoop = 0 => "unresponsive-event-loop",
        /// "full garbage collections took X% CPU time recently".
        GcPause = 1 => "gc-pause",
    }
}

crate::wire_struct! {
    /// A runtime warning emitted by a worker or the scheduler.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct WarningEvent {
        pub kind: WarningKind,
        pub worker: Option<WorkerId>,
        pub time: Time,
        /// Duration of the stall/pause being warned about.
        pub duration: Dur,
    }
}

wire_enum! {
    /// Log severity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
    pub enum LogLevel("log level") {
        Debug = 0,
        Info = 1,
        Warning = 2,
        Error = 3,
    }
}

wire_enum! {
    /// Origin of a log line.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum LogSource("log source tag") {
        Client(c: ClientId) = 1,
        Scheduler = 0,
        Worker(w: WorkerId) = 2,
    }
}

crate::wire_struct! {
    /// One log line from any component.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct LogEntry {
        pub time: Time,
        pub level: LogLevel,
        pub source: LogSource,
        pub message: String,
    }
}

// ---------------------------------------------------------------------------
// Tabular projections: the "common tabular format" (§V).
// ---------------------------------------------------------------------------

impl Tabular for TransitionEvent {
    fn schema() -> Vec<&'static str> {
        vec!["key", "group", "prefix", "graph", "from", "to", "stimulus", "location", "time_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.key);
        out.display(self.key.group_name());
        out.str(self.key.prefix.as_str());
        out.u64(self.graph.0 as u64);
        out.str(self.from.as_str());
        out.str(self.to.as_str());
        out.str(self.stimulus.as_str());
        match self.location {
            Location::Scheduler => out.str("scheduler"),
            Location::Worker(w) => out.display(w),
        }
        out.secs(self.time.0);
    }
}

impl Tabular for TaskDoneEvent {
    fn schema() -> Vec<&'static str> {
        vec![
            "key",
            "group",
            "prefix",
            "graph",
            "worker",
            "host",
            "thread",
            "start_s",
            "stop_s",
            "duration_s",
            "nbytes",
        ]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.key);
        out.display(self.key.group_name());
        out.str(self.key.prefix.as_str());
        out.u64(self.graph.0 as u64);
        out.display(self.worker);
        out.display(self.worker.node);
        out.u64(self.thread.0);
        out.secs(self.start.0);
        out.secs(self.stop.0);
        out.secs(self.duration().0);
        out.u64(self.nbytes);
    }
}

impl Tabular for CommEvent {
    fn schema() -> Vec<&'static str> {
        vec!["key", "from", "to", "same_node", "nbytes", "start_s", "stop_s", "duration_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.key);
        out.display(self.from);
        out.display(self.to);
        out.bool(self.same_node());
        out.u64(self.nbytes);
        out.secs(self.start.0);
        out.secs(self.stop.0);
        out.secs(self.duration().0);
    }
}

impl Tabular for IoRecord {
    fn schema() -> Vec<&'static str> {
        vec![
            "host",
            "worker",
            "thread",
            "file",
            "op",
            "offset",
            "size",
            "start_s",
            "stop_s",
            "duration_s",
        ]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.display(self.host);
        out.display(self.worker);
        out.u64(self.thread.0);
        out.u64(self.file.0);
        out.str(self.op.as_str());
        out.u64(self.offset);
        out.u64(self.size);
        out.secs(self.start.0);
        out.secs(self.stop.0);
        out.secs(self.duration().0);
    }
}

impl Tabular for WarningEvent {
    fn schema() -> Vec<&'static str> {
        vec!["kind", "worker", "time_s", "duration_s"]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.str(self.kind.as_str());
        match self.worker {
            Some(w) => out.display(w),
            None => out.str("scheduler"),
        }
        out.secs(self.time.0);
        out.secs(self.duration.0);
    }
}

wire_enum! {
    /// Lifecycle step of an out-of-band proxy (the ProxyStore-style data
    /// plane): large task outputs are published to the blob plane and move
    /// peer-to-peer, with only a small typed reference travelling through the
    /// scheduler. Each step is recorded so lineage over the out-of-band path
    /// stays as complete as the in-band one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
    pub enum ProxyAction("proxy action") {
        /// Output crossed the threshold; its ref entered the plane.
        Published = 0 => "published",
        /// Generation bump on a known key: a dangling payload repaired from
        /// its live owner, or the output published again after a recompute.
        Republished = 1 => "republished",
        /// A dependent materialized the payload on first use.
        Resolved = 2 => "resolved",
        /// Resolver-cache entry dropped to stay within the byte budget.
        Evicted = 3 => "evicted",
        /// Ownership moved to a surviving replica after the owner died.
        Resourced = 4 => "resourced",
        /// Owner died before any resolve and no replica survives; dependents
        /// fall back to the recompute path.
        Orphaned = 5 => "orphaned",
    }
}

crate::wire_struct! {
    /// One proxy-plane lifecycle record (topic `proxy-events`). `owner` is
    /// the worker holding the payload when the record was emitted; `worker`
    /// is the counterparty where the action has one (the resolving dependent
    /// worker, the cache doing the eviction), `None` for publish/orphan.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct ProxyEvent {
        pub action: ProxyAction,
        /// Task whose output the proxy stands for.
        pub key: TaskKey,
        pub graph: GraphId,
        /// Payload size in bytes (what stays out-of-band).
        pub size: u64,
        pub owner: WorkerId,
        /// Content checksum carried by the `ProxyRef` (verified on resolve).
        pub checksum: u64,
        /// Manifest generation; bumped by every republish/re-source.
        pub generation: u32,
        pub worker: Option<WorkerId>,
        pub time: Time,
    }
}

impl Tabular for ProxyEvent {
    fn schema() -> Vec<&'static str> {
        vec![
            "action",
            "key",
            "prefix",
            "graph",
            "size",
            "owner",
            "checksum",
            "generation",
            "worker",
            "time_s",
        ]
    }

    fn cells(&self, out: &mut impl CellSink) {
        out.str(self.action.as_str());
        out.display(self.key);
        out.str(self.key.prefix.as_str());
        out.u64(self.graph.0 as u64);
        out.u64(self.size);
        out.display(self.owner);
        out.u64(self.checksum);
        out.u64(self.generation as u64);
        match self.worker {
            Some(w) => out.display(w),
            None => out.str("-"),
        }
        out.secs(self.time.0);
    }
}

// ---------------------------------------------------------------------------
// ProvRecord: the typed union the provenance pipeline carries end to end.
// ---------------------------------------------------------------------------

wire_enum! {
    /// One provenance record of any family — the typed payload that flows
    /// from the WMS plugins through Mofka into `RunData` without ever being
    /// rendered to JSON on the hot path. Serialization is *untagged*: a
    /// `ProvRecord` renders as exactly the JSON of its inner record, so the
    /// bytes emitted at export/replay boundaries are identical to what the
    /// eager-JSON pipeline produced (the family is implied by the topic).
    /// The binary encoding is the family tag, then the record's fields.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProvRecord("family tag") {
        TaskMeta(e: TaskMetaEvent) = 0,
        Transition(e: TransitionEvent) = 1,
        WorkerTransition(e: WorkerTransitionEvent) = 2,
        TaskDone(e: TaskDoneEvent) = 3,
        Comm(e: CommEvent) = 4,
        Warning(e: WarningEvent) = 5,
        Log(e: LogEntry) = 6,
        Io(e: IoRecord) = 7,
        Proxy(e: ProxyEvent) = 8,
    }
}

impl ProvRecord {
    /// Render to the JSON value tree (untagged). This is the lazy-render
    /// boundary: only export, archive, and generic-JSON consumers pay it.
    pub fn to_value(&self) -> serde_json::Value {
        match self {
            ProvRecord::TaskMeta(e) => e.to_content(),
            ProvRecord::Transition(e) => e.to_content(),
            ProvRecord::WorkerTransition(e) => e.to_content(),
            ProvRecord::TaskDone(e) => e.to_content(),
            ProvRecord::Comm(e) => e.to_content(),
            ProvRecord::Warning(e) => e.to_content(),
            ProvRecord::Log(e) => e.to_content(),
            ProvRecord::Io(e) => e.to_content(),
            ProvRecord::Proxy(e) => e.to_content(),
        }
    }

    /// The task key this record is scoped to, if its family has one —
    /// the field hash-partitioning routes on. Warnings, logs, and I/O
    /// records are not task-scoped.
    pub fn task_key(&self) -> Option<&TaskKey> {
        match self {
            ProvRecord::TaskMeta(e) => Some(&e.key),
            ProvRecord::Transition(e) => Some(&e.key),
            ProvRecord::WorkerTransition(e) => Some(&e.key),
            ProvRecord::TaskDone(e) => Some(&e.key),
            ProvRecord::Comm(e) => Some(&e.key),
            ProvRecord::Proxy(e) => Some(&e.key),
            ProvRecord::Warning(_) | ProvRecord::Log(_) | ProvRecord::Io(_) => None,
        }
    }
}

impl serde::Serialize for ProvRecord {
    fn to_content(&self) -> serde_json::Value {
        self.to_value()
    }
}

/// Conversion between a concrete record family and [`ProvRecord`]; what
/// lets the Mofka plugin push and `RunData` drain stay generic over the
/// family without a JSON round-trip.
pub trait ProvEvent: Sized {
    fn into_record(self) -> ProvRecord;
    /// The event inside a record, by reference: consumers read a record
    /// where it is, because the partition log still shares it.
    fn from_record_ref(rec: &ProvRecord) -> Option<&Self>;
    /// The event inside a record, by value: a drain that owns the record
    /// moves the event out of it.
    fn from_record(rec: ProvRecord) -> Option<Self>;
}

macro_rules! impl_prov_event {
    ($($ty:ty => $variant:ident),* $(,)?) => {$(
        impl ProvEvent for $ty {
            fn into_record(self) -> ProvRecord {
                ProvRecord::$variant(self)
            }
            fn from_record_ref(rec: &ProvRecord) -> Option<&Self> {
                match rec {
                    ProvRecord::$variant(e) => Some(e),
                    _ => None,
                }
            }
            fn from_record(rec: ProvRecord) -> Option<Self> {
                match rec {
                    ProvRecord::$variant(e) => Some(e),
                    _ => None,
                }
            }
        }
        impl From<$ty> for ProvRecord {
            fn from(e: $ty) -> Self {
                ProvRecord::$variant(e)
            }
        }
    )*};
}
impl_prov_event!(
    TaskMetaEvent => TaskMeta,
    TransitionEvent => Transition,
    WorkerTransitionEvent => WorkerTransition,
    TaskDoneEvent => TaskDone,
    CommEvent => Comm,
    WarningEvent => Warning,
    LogEntry => Log,
    IoRecord => Io,
    ProxyEvent => Proxy,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::table::Value;

    fn key() -> TaskKey {
        TaskKey::new("inc", 1, 0)
    }

    #[test]
    fn legal_transitions_follow_dask_table() {
        use TaskState::*;
        assert!(Released.can_transition_to(Waiting));
        assert!(Waiting.can_transition_to(Processing));
        assert!(Processing.can_transition_to(Memory));
        assert!(Memory.can_transition_to(Forgotten));
        // illegal ones
        assert!(!Memory.can_transition_to(Processing));
        assert!(!Released.can_transition_to(Memory));
        assert!(!Forgotten.can_transition_to(Waiting));
        assert!(!Processing.can_transition_to(Queued));
    }

    #[test]
    fn terminal_states() {
        assert!(TaskState::Memory.is_terminal());
        assert!(TaskState::Erred.is_terminal());
        assert!(!TaskState::Processing.is_terminal());
    }

    #[test]
    fn comm_same_node_detection() {
        let a = WorkerId::new(NodeId(0), 0);
        let b = WorkerId::new(NodeId(0), 1);
        let c = WorkerId::new(NodeId(1), 0);
        let e1 =
            CommEvent { key: key(), from: a, to: b, nbytes: 10, start: Time(0), stop: Time(5) };
        let e2 =
            CommEvent { key: key(), from: a, to: c, nbytes: 10, start: Time(0), stop: Time(5) };
        assert!(e1.same_node());
        assert!(!e2.same_node());
    }

    #[test]
    fn durations() {
        let a = WorkerId::new(NodeId(0), 0);
        let done = TaskDoneEvent {
            key: key(),
            graph: GraphId(0),
            worker: a,
            thread: ThreadId(1),
            start: Time::from_secs_f64(1.0),
            stop: Time::from_secs_f64(3.5),
            nbytes: 100,
        };
        assert_eq!(done.duration(), Dur::from_secs_f64(2.5));
    }

    /// The literal rows of one event per `Tabular` type, written down from
    /// the hand-built `row()` bodies before `cells()` replaced them: the
    /// `Vec<Value>` sink must keep every cell's variant and rendering.
    #[test]
    fn tabular_rows_are_pinned_cell_by_cell() {
        fn s(v: &str) -> Value {
            Value::Str(v.to_string())
        }
        fn pinned<T: Tabular>(event: &T, expect: Vec<Value>) {
            assert_eq!(event.row(), expect);
            assert_eq!(expect.len(), T::schema().len());
        }
        let k = TaskKey::new("inc", 0x2a, 3);
        let a = WorkerId::new(NodeId(3), 1);
        let b = WorkerId::new(NodeId(260), 0);
        pinned(
            &TransitionEvent {
                key: k,
                graph: GraphId(2),
                from: TaskState::Waiting,
                to: TaskState::Processing,
                stimulus: Stimulus::Dispatched,
                location: Location::Scheduler,
                time: Time(1_500_000_000),
            },
            vec![
                s("('inc-00002a', 3)"),
                s("inc-00002a"),
                s("inc"),
                Value::U64(2),
                s("waiting"),
                s("processing"),
                s("dispatched"),
                s("scheduler"),
                Value::F64(1.5),
            ],
        );
        pinned(
            &TransitionEvent {
                key: k,
                graph: GraphId(2),
                from: TaskState::Processing,
                to: TaskState::Memory,
                stimulus: Stimulus::ComputeFinished,
                location: Location::Worker(b),
                time: Time(u64::MAX),
            },
            vec![
                s("('inc-00002a', 3)"),
                s("inc-00002a"),
                s("inc"),
                Value::U64(2),
                s("processing"),
                s("memory"),
                s("compute-finished"),
                s("10.0.1.4:40000"),
                Value::F64(u64::MAX as f64 / 1e9),
            ],
        );
        pinned(
            &WorkerTransitionEvent {
                key: k,
                graph: GraphId(0),
                worker: a,
                from: WorkerTaskState::Ready,
                to: WorkerTaskState::Executing,
                time: Time(250_000_000),
            },
            vec![
                s("('inc-00002a', 3)"),
                s("inc"),
                Value::U64(0),
                s("10.0.0.3:40001"),
                s("ready"),
                s("executing"),
                Value::F64(0.25),
            ],
        );
        pinned(
            &TaskMetaEvent {
                key: k,
                graph: GraphId(1),
                client: ClientId(4),
                deps: vec![TaskKey::new("load", 1, 0), TaskKey::new("load", 1, 1)],
                submitted: Time(0),
            },
            vec![
                s("('inc-00002a', 3)"),
                s("inc-00002a"),
                s("inc"),
                Value::U64(1),
                s("client-4"),
                Value::U64(2),
                Value::F64(0.0),
            ],
        );
        pinned(
            &TaskDoneEvent {
                key: k,
                graph: GraphId(1),
                worker: a,
                thread: ThreadId(0x7f00_0000_1001),
                start: Time(1_000_000_000),
                stop: Time(3_500_000_000),
                nbytes: 4096,
            },
            vec![
                s("('inc-00002a', 3)"),
                s("inc-00002a"),
                s("inc"),
                Value::U64(1),
                s("10.0.0.3:40001"),
                s("nid0003"),
                Value::U64(0x7f00_0000_1001),
                Value::F64(1.0),
                Value::F64(3.5),
                Value::F64(2.5),
                Value::U64(4096),
            ],
        );
        pinned(
            &CommEvent {
                key: k,
                from: a,
                to: b,
                nbytes: 1 << 20,
                start: Time(2_000_000_000),
                stop: Time(2_125_000_000),
            },
            vec![
                s("('inc-00002a', 3)"),
                s("10.0.0.3:40001"),
                s("10.0.1.4:40000"),
                Value::Bool(false),
                Value::U64(1 << 20),
                Value::F64(2.0),
                Value::F64(2.125),
                Value::F64(0.125),
            ],
        );
        pinned(
            &IoRecord {
                host: NodeId(3),
                worker: a,
                thread: ThreadId(7),
                file: FileId(9),
                op: IoOp::Write,
                offset: 512,
                size: 4096,
                start: Time(4_000_000_000),
                stop: Time(4_500_000_000),
            },
            vec![
                s("nid0003"),
                s("10.0.0.3:40001"),
                Value::U64(7),
                Value::U64(9),
                s("write"),
                Value::U64(512),
                Value::U64(4096),
                Value::F64(4.0),
                Value::F64(4.5),
                Value::F64(0.5),
            ],
        );
        pinned(
            &WarningEvent {
                kind: WarningKind::GcPause,
                worker: Some(a),
                time: Time(9_000_000_000),
                duration: Dur(750_000_000),
            },
            vec![s("gc-pause"), s("10.0.0.3:40001"), Value::F64(9.0), Value::F64(0.75)],
        );
        pinned(
            &WarningEvent {
                kind: WarningKind::UnresponsiveEventLoop,
                worker: None,
                time: Time(0),
                duration: Dur(u64::MAX),
            },
            vec![
                s("unresponsive-event-loop"),
                s("scheduler"),
                Value::F64(0.0),
                Value::F64(u64::MAX as f64 / 1e9),
            ],
        );
        pinned(
            &ProxyEvent {
                action: ProxyAction::Resolved,
                key: k,
                graph: GraphId(5),
                size: 1 << 21,
                owner: a,
                checksum: u64::MAX,
                generation: 2,
                worker: Some(b),
                time: Time(11_000_000_000),
            },
            vec![
                s("resolved"),
                s("('inc-00002a', 3)"),
                s("inc"),
                Value::U64(5),
                Value::U64(1 << 21),
                s("10.0.0.3:40001"),
                Value::U64(u64::MAX),
                Value::U64(2),
                s("10.0.1.4:40000"),
                Value::F64(11.0),
            ],
        );
        pinned(
            &ProxyEvent {
                action: ProxyAction::Published,
                key: k,
                graph: GraphId(5),
                size: 0,
                owner: a,
                checksum: 0,
                generation: 0,
                worker: None,
                time: Time(0),
            },
            vec![
                s("published"),
                s("('inc-00002a', 3)"),
                s("inc"),
                Value::U64(5),
                Value::U64(0),
                s("10.0.0.3:40001"),
                Value::U64(0),
                Value::U64(0),
                s("-"),
                Value::F64(0.0),
            ],
        );
    }

    #[test]
    fn events_serde_roundtrip() {
        let e = TransitionEvent {
            key: key(),
            graph: GraphId(2),
            from: TaskState::Waiting,
            to: TaskState::Processing,
            stimulus: Stimulus::Dispatched,
            location: Location::Worker(WorkerId::new(NodeId(1), 2)),
            time: Time(123),
        };
        // the printed text parses back to the tree it was printed from
        let s = serde_json::to_string(&e).unwrap();
        assert_eq!(serde_json::from_str(&s).unwrap(), serde_json::to_value(&e).unwrap());
    }

    #[test]
    fn prov_event_roundtrips_through_record() {
        let e = TransitionEvent {
            key: key(),
            graph: GraphId(2),
            from: TaskState::Waiting,
            to: TaskState::Processing,
            stimulus: Stimulus::Dispatched,
            location: Location::Scheduler,
            time: Time(1),
        };
        let rec = e.clone().into_record();
        assert_eq!(rec.task_key(), Some(&e.key));
        assert_eq!(TransitionEvent::from_record_ref(&rec), Some(&e));
        assert_eq!(TaskMetaEvent::from_record_ref(&rec), None);
    }
}

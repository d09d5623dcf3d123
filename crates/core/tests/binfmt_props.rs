//! Property tests for the binary record encoding: an arbitrary
//! [`ProvRecord`] of any family, with arbitrary identifiers, timestamps,
//! and strings, must survive encode→decode exactly — and render the same
//! JSON value tree afterwards (the export boundary the FNV goldens pin).

use dtf_core::events::{
    CommEvent, IoOp, IoRecord, Location, LogEntry, LogLevel, LogSource, ProvRecord, Stimulus,
    TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent, WarningEvent, WarningKind,
    WorkerTaskState, WorkerTransitionEvent,
};
use dtf_core::ids::{ClientId, FileId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
use dtf_core::time::{Dur, Time};
use proptest::prelude::*;

const TASK_STATES: [TaskState; 8] = [
    TaskState::Released,
    TaskState::Waiting,
    TaskState::NoWorker,
    TaskState::Queued,
    TaskState::Processing,
    TaskState::Memory,
    TaskState::Erred,
    TaskState::Forgotten,
];

const WORKER_STATES: [WorkerTaskState; 8] = [
    WorkerTaskState::Waiting,
    WorkerTaskState::Fetch,
    WorkerTaskState::Flight,
    WorkerTaskState::Ready,
    WorkerTaskState::Executing,
    WorkerTaskState::Memory,
    WorkerTaskState::Error,
    WorkerTaskState::Released,
];

const STIMULI: [Stimulus; 11] = [
    Stimulus::GraphSubmitted,
    Stimulus::DependenciesMet,
    Stimulus::Dispatched,
    Stimulus::ComputeStarted,
    Stimulus::ComputeFinished,
    Stimulus::ComputeErred,
    Stimulus::WorkStolen,
    Stimulus::WorkerLost,
    Stimulus::ClientReleased,
    Stimulus::NoWorkerAvailable,
    Stimulus::Queue,
];

const IO_OPS: [IoOp; 4] = [IoOp::Open, IoOp::Read, IoOp::Write, IoOp::Close];
const WARNING_KINDS: [WarningKind; 2] = [WarningKind::UnresponsiveEventLoop, WarningKind::GcPause];
const LOG_LEVELS: [LogLevel; 4] =
    [LogLevel::Debug, LogLevel::Info, LogLevel::Warning, LogLevel::Error];

fn key() -> impl Strategy<Value = TaskKey> {
    ("[a-z0-9_-]{0,16}", any::<u32>(), any::<u32>())
        .prop_map(|(p, token, index)| TaskKey::new(p.as_str(), token, index))
}

fn worker() -> impl Strategy<Value = WorkerId> {
    (any::<u32>(), any::<u32>()).prop_map(|(n, s)| WorkerId::new(NodeId(n), s))
}

fn location() -> impl Strategy<Value = Location> {
    prop_oneof![Just(Location::Scheduler), worker().prop_map(Location::Worker)]
}

fn source() -> impl Strategy<Value = LogSource> {
    prop_oneof![
        Just(LogSource::Scheduler),
        any::<u32>().prop_map(|c| LogSource::Client(ClientId(c))),
        worker().prop_map(LogSource::Worker),
    ]
}

fn record() -> impl Strategy<Value = ProvRecord> {
    prop_oneof![
        (key(), any::<u32>(), any::<u32>(), proptest::collection::vec(key(), 0..5), any::<u64>())
            .prop_map(|(key, graph, client, deps, submitted)| {
                ProvRecord::TaskMeta(TaskMetaEvent {
                    key,
                    graph: GraphId(graph),
                    client: ClientId(client),
                    deps,
                    submitted: Time(submitted),
                })
            }),
        ((key(), any::<u32>(), 0usize..8, 0usize..8), (0usize..11, location(), any::<u64>()))
            .prop_map(|((key, graph, from, to), (stim, location, time))| {
                ProvRecord::Transition(TransitionEvent {
                    key,
                    graph: GraphId(graph),
                    from: TASK_STATES[from],
                    to: TASK_STATES[to],
                    stimulus: STIMULI[stim],
                    location,
                    time: Time(time),
                })
            }),
        (key(), any::<u32>(), worker(), 0usize..8, 0usize..8, any::<u64>()).prop_map(
            |(key, graph, worker, from, to, time)| {
                ProvRecord::WorkerTransition(WorkerTransitionEvent {
                    key,
                    graph: GraphId(graph),
                    worker,
                    from: WORKER_STATES[from],
                    to: WORKER_STATES[to],
                    time: Time(time),
                })
            }
        ),
        ((key(), any::<u32>(), worker(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>()))
            .prop_map(|((key, graph, worker, thread), (start, stop, nbytes))| {
                ProvRecord::TaskDone(TaskDoneEvent {
                    key,
                    graph: GraphId(graph),
                    worker,
                    thread: ThreadId(thread),
                    start: Time(start),
                    stop: Time(stop),
                    nbytes,
                })
            }),
        (key(), worker(), worker(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(key, from, to, nbytes, start, stop)| {
                ProvRecord::Comm(CommEvent {
                    key,
                    from,
                    to,
                    nbytes,
                    start: Time(start),
                    stop: Time(stop),
                })
            }
        ),
        (0usize..2, prop_oneof![Just(None), worker().prop_map(Some)], any::<u64>(), any::<u64>())
            .prop_map(|(kind, worker, time, duration)| {
                ProvRecord::Warning(WarningEvent {
                    kind: WARNING_KINDS[kind],
                    worker,
                    time: Time(time),
                    duration: Dur(duration),
                })
            }),
        (any::<u64>(), 0usize..4, source(), "[ -~πλ\u{1}]{0,48}").prop_map(
            |(time, level, source, message)| {
                ProvRecord::Log(LogEntry {
                    time: Time(time),
                    level: LOG_LEVELS[level],
                    source,
                    message,
                })
            }
        ),
        (
            (any::<u32>(), worker(), any::<u64>(), any::<u64>(), 0usize..4),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        )
            .prop_map(|((host, worker, thread, file, op), (offset, size, start, stop))| {
                ProvRecord::Io(IoRecord {
                    host: NodeId(host),
                    worker,
                    thread: ThreadId(thread),
                    file: FileId(file),
                    op: IO_OPS[op],
                    offset,
                    size,
                    start: Time(start),
                    stop: Time(stop),
                })
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_records_roundtrip_exactly(rec in record()) {
        let mut bytes = Vec::new();
        rec.encode_binary(&mut bytes);
        let back = ProvRecord::decode_binary(&bytes).unwrap();
        prop_assert_eq!(&rec, &back);
        // the export boundary (JSON value tree) is unchanged by the trip
        prop_assert_eq!(rec.to_value(), back.to_value());
    }

    #[test]
    fn arbitrary_records_reject_every_truncation(rec in record()) {
        let mut bytes = Vec::new();
        rec.encode_binary(&mut bytes);
        // decoding any strict prefix must error, never panic or succeed
        for cut in [0, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            if cut < bytes.len() {
                prop_assert!(ProvRecord::decode_binary(&bytes[..cut]).is_err());
            }
        }
        // and trailing garbage is rejected too
        let mut padded = bytes.clone();
        padded.push(0x7f);
        prop_assert!(ProvRecord::decode_binary(&padded).is_err());
    }
}

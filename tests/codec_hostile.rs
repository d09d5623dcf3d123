//! One hostile-bytes harness over every binary document's decoder, after
//! the evtx parser's rule: assume every length field lies. For every
//! truncation, every single-byte overwrite and a count of 2^40 forged at
//! every varint position, decoding either fails or yields a value that
//! re-encodes to exactly the bytes it was given — never a panic, and never
//! an allocation sized by a count the bytes left cannot hold.

use std::collections::BTreeMap;
use std::fmt::Debug;

use bytes::Bytes;
use dtf::core::binfmt::{self, put_varint, Wire};
use dtf::core::events::{
    CommEvent, IoOp, IoRecord, Location, LogEntry, LogLevel, LogSource, ProvRecord, ProxyAction,
    ProxyEvent, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent, WarningEvent,
    WarningKind, WorkerTaskState, WorkerTransitionEvent,
};
use dtf::core::ids::{ClientId, FileId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf::core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf::core::time::{Dur, Time};
use dtf::darshan::counters::{FileCounters, PosixCounters};
use dtf::darshan::log::{DarshanLog, LogHeader, LogSet};
use dtf::mofka::TopicConfig;
use dtf::store::KvRecord;
use dtf::wms::rundata::ArchiveMeta;

/// Whether `bytes` decoded; a value it decodes to must re-encode to it.
fn decodes<T: Wire + Debug>(bytes: &[u8]) -> bool {
    match binfmt::decode::<T>(bytes) {
        Ok(value) => {
            assert_eq!(binfmt::encode(&value), bytes, "accepted bytes that re-encode otherwise");
            true
        }
        Err(_) => false,
    }
}

/// The length of the varint at the start of `bytes`, if one starts there.
fn varint_len(bytes: &[u8]) -> Option<usize> {
    bytes.iter().take(10).position(|b| b & 0x80 == 0).map(|last| last + 1)
}

/// Runs `value`'s encoding through every truncation, overwrite and forged
/// count; returns how many of the forged counts were refused.
fn hostile<T: Wire + PartialEq + Debug>(value: &T) -> usize {
    let bytes = binfmt::encode(value);
    assert_eq!(&binfmt::decode::<T>(&bytes).unwrap(), value);
    for cut in 0..bytes.len() {
        assert!(!decodes::<T>(&bytes[..cut]), "a {cut}-byte prefix of {value:?} decoded");
    }
    let mut refused = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        for overwrite in [byte ^ 0xff, byte ^ 0x01, 0x00, 0x80] {
            if overwrite != byte {
                let mut mutated = bytes.clone();
                mutated[at] = overwrite;
                decodes::<T>(&mutated);
            }
        }
        if let Some(len) = varint_len(&bytes[at..]) {
            let mut forged = bytes[..at].to_vec();
            put_varint(&mut forged, 1 << 40);
            forged.extend_from_slice(&bytes[at + len..]);
            refused += usize::from(!decodes::<T>(&forged));
        }
    }
    refused
}

fn worker() -> WorkerId {
    WorkerId::new(NodeId(300), 7)
}

/// One record of every family, with both arms of every `Option` and
/// every `Location` and `LogSource` arm.
fn records() -> Vec<ProvRecord> {
    let w = worker();
    let k = TaskKey::new("load-image", 42, 1000);
    vec![
        ProvRecord::TaskMeta(TaskMetaEvent {
            key: k,
            graph: GraphId(7),
            client: ClientId(3),
            deps: vec![TaskKey::new("a", 0, 1), TaskKey::new("π", u32::MAX, 0)],
            submitted: Time(1_234_567_890),
        }),
        ProvRecord::Transition(TransitionEvent {
            key: k,
            graph: GraphId(2),
            from: TaskState::NoWorker,
            to: TaskState::Processing,
            stimulus: Stimulus::Dispatched,
            location: Location::Worker(w),
            time: Time(u64::MAX),
        }),
        ProvRecord::Transition(TransitionEvent {
            key: k,
            graph: GraphId(2),
            from: TaskState::Waiting,
            to: TaskState::Queued,
            stimulus: Stimulus::Queue,
            location: Location::Scheduler,
            time: Time(5),
        }),
        ProvRecord::WorkerTransition(WorkerTransitionEvent {
            key: k,
            graph: GraphId(1),
            worker: w,
            from: WorkerTaskState::Ready,
            to: WorkerTaskState::Executing,
            time: Time(456),
        }),
        ProvRecord::TaskDone(TaskDoneEvent {
            key: k,
            graph: GraphId(1),
            worker: w,
            thread: ThreadId(0x7f00_0000_1001),
            start: Time(10),
            stop: Time(20),
            nbytes: 1 << 40,
        }),
        ProvRecord::Comm(CommEvent {
            key: k,
            from: w,
            to: WorkerId::new(NodeId(0), 0),
            nbytes: 4096,
            start: Time(5),
            stop: Time(6),
        }),
        ProvRecord::Warning(WarningEvent {
            kind: WarningKind::GcPause,
            worker: None,
            time: Time(9),
            duration: Dur(0),
        }),
        ProvRecord::Warning(WarningEvent {
            kind: WarningKind::UnresponsiveEventLoop,
            worker: Some(w),
            time: Time(9),
            duration: Dur(750_000_000),
        }),
        ProvRecord::Log(LogEntry {
            time: Time(77),
            level: LogLevel::Warning,
            source: LogSource::Client(ClientId(4)),
            message: "odd \"quoted\"\npath π".into(),
        }),
        ProvRecord::Log(LogEntry {
            time: Time(78),
            level: LogLevel::Info,
            source: LogSource::Scheduler,
            message: String::new(),
        }),
        ProvRecord::Log(LogEntry {
            time: Time(79),
            level: LogLevel::Error,
            source: LogSource::Worker(w),
            message: "x".into(),
        }),
        ProvRecord::Io(IoRecord {
            host: NodeId(300),
            worker: w,
            thread: ThreadId(7),
            file: FileId(12),
            op: IoOp::Write,
            offset: 65_536,
            size: 4096,
            start: Time(100),
            stop: Time(200),
        }),
        ProvRecord::Proxy(ProxyEvent {
            action: ProxyAction::Published,
            key: k,
            graph: GraphId(7),
            size: 1 << 28,
            owner: w,
            checksum: u64::MAX,
            generation: 0,
            worker: None,
            time: Time(314),
        }),
        ProvRecord::Proxy(ProxyEvent {
            action: ProxyAction::Resolved,
            key: k,
            graph: GraphId(0),
            size: 0,
            owner: WorkerId::new(NodeId(0), 0),
            checksum: 0,
            generation: 300,
            worker: Some(w),
            time: Time(1),
        }),
    ]
}

/// `PosixCounters` keeps its map private; its wire form is that map, the
/// way to hold an entry `record` never makes (`first_op: None`).
fn counters_from(files: BTreeMap<FileId, FileCounters>) -> PosixCounters {
    binfmt::decode(&binfmt::encode(&files)).unwrap()
}

/// Two logs: one with an untimed counters entry and a dropped trace, one
/// with two files and two traced operations.
fn log_set() -> LogSet {
    let untimed = FileCounters { closes: 2, last_op: Some(Time(300)), ..Default::default() };
    let first = DarshanLog {
        header: LogHeader {
            run: RunId(3),
            job_id: 1001,
            worker: worker(),
            hostname: "nœud-07 ノード".into(),
            start: Time(100),
            end: Time(200),
            dxt_truncated: true,
            dxt_dropped: 1 << 33,
        },
        counters: counters_from(BTreeMap::from([(FileId(u64::MAX), untimed)])),
        dxt: vec![],
    };
    let w = WorkerId::new(NodeId(1), 0);
    let ops: Vec<IoRecord> = [(7, IoOp::Read, 4096), (1 << 40, IoOp::Write, 1 << 30)]
        .into_iter()
        .map(|(file, op, size)| IoRecord {
            host: NodeId(1),
            worker: w,
            thread: ThreadId(42),
            file: FileId(file),
            op,
            offset: 0,
            size,
            start: Time(100),
            stop: Time(200),
        })
        .collect();
    let mut counters = PosixCounters::new();
    ops.iter().for_each(|op| counters.record(op));
    let second = DarshanLog {
        header: LogHeader {
            run: RunId(3),
            job_id: 0,
            worker: w,
            hostname: "nid0001".into(),
            start: Time(0),
            end: Time(1),
            dxt_truncated: false,
            dxt_dropped: 0,
        },
        counters,
        dxt: ops,
    };
    LogSet::new(vec![first, second])
}

fn archive_meta() -> ArchiveMeta {
    ArchiveMeta {
        run: RunId(2),
        workflow: "画像処理-étape".into(),
        chart: ProvenanceChart {
            hardware: HardwareInfo::polaris_like(1),
            system: SystemInfo::synthetic(),
            job: JobInfo {
                job_id: 9,
                script: "#!/bin/bash".into(),
                queue: "debug".into(),
                nodes_requested: 1,
                allocated_nodes: vec![NodeId(0)],
                submit_time: Time(0),
                start_time: Time(1),
                walltime_limit_s: 60,
            },
            wms_config: WmsConfig::default(),
            client_code_hash: 17,
            workflow_name: "画像処理-étape".into(),
        },
        darshan: log_set(),
        wall_time: Dur(u64::MAX),
        start_order: vec![
            (TaskKey::new("b", 0, 1), Time(7)),
            (TaskKey::new("a", 0, 0), Time(7)),
            (TaskKey::new("π", u32::MAX, u32::MAX), Time(0)),
        ],
        steals: 3,
    }
}

#[test]
fn every_record_family_survives_hostile_bytes() {
    for rec in records() {
        // every family has a length, a tag or a u32 a forged count overflows
        assert!(hostile(&rec) > 0, "no forged count was refused in {rec:?}");
    }
}

#[test]
fn a_log_set_survives_hostile_bytes() {
    assert!(hostile(&log_set()) > 0, "no forged count was refused");
    assert!(hostile(&LogSet::default()) > 0);
}

#[test]
fn the_run_meta_document_survives_hostile_bytes() {
    assert!(hostile(&archive_meta()) > 0, "no forged count was refused");
}

/// What the durable store's Yokan log holds besides `run-meta`: topic
/// configs, group cursors, and the KV records that carry them.
#[test]
fn the_durable_metadata_survives_hostile_bytes() {
    assert!(hostile(&TopicConfig { partitions: 300 }) > 0, "a u32 overflows");
    // a cursor is one varint: a count forged into it is just another cursor
    hostile(&0u64);
    hostile(&u64::MAX);
    assert!(hostile(&archive_meta().chart) > 0, "no forged count was refused");
    let records = [
        KvRecord::Put("group/t/g/0".into(), binfmt::encode(&300u64).into()),
        KvRecord::Put("run-meta".into(), archive_meta().encode().into()),
        KvRecord::Put(String::new(), Bytes::new()),
        KvRecord::Delete("topic-config/logs".into()),
    ];
    for rec in &records {
        assert!(hostile(rec) > 0, "no forged count was refused in {rec:?}");
    }
}

/// Each struct's derived `MIN_BYTES` is the length of its smallest
/// encoding, and the bounds the decoders used to spell out by hand — a
/// counters entry 25, a log 11, an I/O record 10, a start-order entry 4, a
/// task key 3 — come out of the declarations unchanged.
#[test]
fn each_min_bytes_is_the_length_of_the_smallest_encoding() {
    fn smallest<T: Wire + Debug>(value: T) -> usize {
        let len = binfmt::encode(&value).len();
        assert_eq!(T::MIN_BYTES, len, "{value:?}");
        len
    }
    let key = TaskKey::new("", 0, 0);
    let w = WorkerId::new(NodeId(0), 0);
    let header = LogHeader {
        run: RunId(0),
        job_id: 0,
        worker: w,
        hostname: String::new(),
        start: Time(0),
        end: Time(0),
        dxt_truncated: false,
        dxt_dropped: 0,
    };
    let io = IoRecord {
        host: NodeId(0),
        worker: w,
        thread: ThreadId(0),
        file: FileId(0),
        op: IoOp::Open,
        offset: 0,
        size: 0,
        start: Time(0),
        stop: Time(0),
    };
    let log = DarshanLog { header: header.clone(), counters: PosixCounters::new(), dxt: vec![] };
    assert_eq!(smallest((FileId(0), FileCounters::default())), 25);
    assert_eq!(smallest(log), 11);
    assert_eq!(smallest(io.clone()), 10);
    assert_eq!(smallest((key, Time(0))), 4);
    assert_eq!(smallest(key), 3);

    smallest(w);
    smallest(header);
    smallest(FileCounters::default());
    smallest(PosixCounters::new());
    smallest(LogSet::default());
    smallest(TaskMetaEvent {
        key,
        graph: GraphId(0),
        client: ClientId(0),
        deps: vec![],
        submitted: Time(0),
    });
    smallest(TransitionEvent {
        key,
        graph: GraphId(0),
        from: TaskState::Released,
        to: TaskState::Released,
        stimulus: Stimulus::Queue,
        location: Location::Scheduler,
        time: Time(0),
    });
    smallest(WorkerTransitionEvent {
        key,
        graph: GraphId(0),
        worker: w,
        from: WorkerTaskState::Waiting,
        to: WorkerTaskState::Waiting,
        time: Time(0),
    });
    smallest(TaskDoneEvent {
        key,
        graph: GraphId(0),
        worker: w,
        thread: ThreadId(0),
        start: Time(0),
        stop: Time(0),
        nbytes: 0,
    });
    smallest(CommEvent { key, from: w, to: w, nbytes: 0, start: Time(0), stop: Time(0) });
    smallest(WarningEvent {
        kind: WarningKind::GcPause,
        worker: None,
        time: Time(0),
        duration: Dur(0),
    });
    let log_entry = LogEntry {
        time: Time(0),
        level: LogLevel::Debug,
        source: LogSource::Scheduler,
        message: String::new(),
    };
    smallest(log_entry.clone());
    smallest(ProxyEvent {
        action: ProxyAction::Evicted,
        key,
        graph: GraphId(0),
        size: 0,
        owner: w,
        checksum: 0,
        generation: 0,
        worker: None,
        time: Time(0),
    });
    smallest(TopicConfig { partitions: 0 });
    smallest(0u64);
    // an enum's minimum is its tag plus its smallest variant's payload
    assert_eq!(smallest(KvRecord::Delete(String::new())), 2);
    smallest(Location::Scheduler);
    smallest(LogSource::Scheduler);
    assert_eq!(smallest(ProvRecord::Log(log_entry)), 5);
}

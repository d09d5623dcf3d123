//! The values the hostile-bytes suites decode: one record of every
//! family, a Darshan log set and a `run-meta` document whose configuration
//! carries a fault of every family. `tests/codec_hostile.rs` mutates their
//! encodings; `tests/codec_alloc.rs` counts what decoding the mutations
//! allocates.
#![allow(dead_code)]

use std::collections::BTreeMap;

use dtf::core::binfmt::{self, put_varint};
use dtf::core::events::{
    CommEvent, IoOp, IoRecord, Location, LogEntry, LogLevel, LogSource, ProvRecord, ProxyAction,
    ProxyEvent, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent, WarningEvent,
    WarningKind, WorkerTaskState, WorkerTransitionEvent,
};
use dtf::core::fault::{
    DanglingProxy, FaultSchedule, FetchFault, HeartbeatDrop, HotspotFault, InterferenceBurst,
    MofkaStall, SlowResolve, StragglerFault, WorkerDeath,
};
use dtf::core::ids::{ClientId, FileId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf::core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf::core::time::{Dur, Time};
use dtf::darshan::counters::{FileCounters, PosixCounters};
use dtf::darshan::log::{DarshanLog, LogHeader, LogSet};
use dtf::darshan::DxtConfig;
use dtf::proxystore::ProxyConfig;
use dtf::wms::rundata::ArchiveMeta;
use dtf::wms::sim::SimConfig;

/// The hostile variants of an encoding, after the evtx parser's rule that
/// every length field lies.
pub struct Mutations {
    /// Every proper prefix.
    pub truncations: Vec<Vec<u8>>,
    /// Every byte overwritten with its complement, its low bit flipped,
    /// `0x00` and `0x80`, where that changes it.
    pub overwrites: Vec<Vec<u8>>,
    /// A count of 2^40 forged in place of the varint at each position.
    pub forged: Vec<Vec<u8>>,
}

pub fn mutations(bytes: &[u8]) -> Mutations {
    let truncations = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    let (mut overwrites, mut forged) = (Vec::new(), Vec::new());
    for (at, &byte) in bytes.iter().enumerate() {
        for overwrite in [byte ^ 0xff, byte ^ 0x01, 0x00, 0x80] {
            if overwrite != byte {
                let mut mutated = bytes.to_vec();
                mutated[at] = overwrite;
                overwrites.push(mutated);
            }
        }
        // the length of the varint starting here, if one does
        if let Some(last) = bytes[at..].iter().take(10).position(|b| b & 0x80 == 0) {
            let mut mutated = bytes[..at].to_vec();
            put_varint(&mut mutated, 1 << 40);
            mutated.extend_from_slice(&bytes[at + last + 1..]);
            forged.push(mutated);
        }
    }
    Mutations { truncations, overwrites, forged }
}

pub fn worker() -> WorkerId {
    WorkerId::new(NodeId(300), 7)
}

/// One record of every family, with both arms of every `Option` and
/// every `Location` and `LogSource` arm.
pub fn records() -> Vec<ProvRecord> {
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
pub fn counters_from(files: BTreeMap<FileId, FileCounters>) -> PosixCounters {
    binfmt::decode(&binfmt::encode(&files)).unwrap()
}

/// Two logs: one with an untimed counters entry and a dropped trace, one
/// with two files and two traced operations.
pub fn log_set() -> LogSet {
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

/// One fault of every family, with the hot spot set, each value chosen to
/// put a multi-byte varint or an f64 on the wire.
pub fn schedule() -> FaultSchedule {
    FaultSchedule {
        seed: u64::MAX,
        deaths: vec![WorkerDeath { worker: 7, time: Time(2_500_000_000) }],
        fetch_faults: vec![FetchFault { index: 300, extra_delay: Dur(1 << 30), duplicate: true }],
        heartbeat_drops: vec![HeartbeatDrop { worker: 1, start: Time(5), stop: Time(6) }],
        mofka_stalls: vec![MofkaStall {
            topic: "task-transitions".into(),
            partition: 3,
            start: Time(0),
            stop: Time(9),
        }],
        pfs_bursts: vec![InterferenceBurst { start: Time(0), stop: Time(3), factor: 4.5 }],
        stragglers: vec![StragglerFault { worker: 2, factor: 2.5, start: Time(1), stop: Time(2) }],
        hotspot: Some(HotspotFault { worker: 1, weight: 0.25 }),
        dangling_proxies: vec![DanglingProxy { index: 2 }],
        slow_resolves: vec![SlowResolve { index: 0, extra_delay: Dur(7) }],
    }
}

/// A `run-meta` document whose configuration sets every archived field
/// away from its default (the producer batch is not archived).
pub fn archive_meta() -> ArchiveMeta {
    let wms_config = WmsConfig { assumed_bandwidth: 180_000_000, ..WmsConfig::default() };
    ArchiveMeta {
        config: SimConfig {
            campaign_seed: 20_240_806,
            run: RunId(2),
            wms: wms_config.clone(),
            dxt: DxtConfig { max_records: 300, record_thread_ids: false },
            online_darshan: true,
            faults: schedule(),
            proxy: ProxyConfig { enabled: true, threshold: 1 << 18, resolver_cache_bytes: 0 },
            ..SimConfig::default()
        },
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
            wms_config,
            client_code_hash: 17,
            workflow_name: "画像処理-étape".into(),
        },
        darshan: log_set(),
        wall_time: Dur(u64::MAX),
        steals: 3,
    }
}

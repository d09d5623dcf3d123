//! Byte pins for every binary document `dtf` writes: one fixed value of
//! each, with its exact encoding spelled out as hex, and every variant of
//! every closed enum as a literal `(variant, tag, name)` row. That covers
//! every value the durable store holds: topic-log records, `run-meta` and
//! its chart, topic configs, group cursors and the KV WAL's records.
//!
//! The round-trip tests cannot catch a layout drift that changes the
//! encoder and the decoder the same way; these can. A failure here is a
//! format break: it needs a new format version, not a new pin.

use std::collections::BTreeMap;

use bytes::Bytes;
use dtf::core::binfmt;
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
use dtf::mofka::TopicConfig;
use dtf::proxystore::{ProxyConfig, ProxyRef};
use dtf::store::KvRecord;
use dtf::wms::rundata::ArchiveMeta;
use dtf::wms::sim::SimConfig;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encode(rec: &ProvRecord) -> Vec<u8> {
    let mut out = Vec::new();
    rec.encode_binary(&mut out);
    out
}

/// A worker whose node id needs a two-byte varint.
fn worker() -> WorkerId {
    WorkerId::new(NodeId(300), 7)
}

fn key() -> TaskKey {
    TaskKey::new("inc", 0x2a, 200)
}

#[test]
fn every_record_family_encodes_to_its_pinned_bytes() {
    let w = worker();
    let k = key();
    // key = str("inc") varint(42) varint(200); worker = varint(300) varint(7)
    let cases: Vec<(ProvRecord, &str)> = vec![
        (
            ProvRecord::TaskMeta(TaskMetaEvent {
                key: k,
                graph: GraphId(7),
                client: ClientId(3),
                deps: vec![TaskKey::new("a", 0, 1), TaskKey::new("", u32::MAX, 0)],
                submitted: Time(1_000_000_007),
            }),
            "0003696e632ac8010703020161000100ffffffff0f008794ebdc03",
        ),
        (
            ProvRecord::Transition(TransitionEvent {
                key: k,
                graph: GraphId(2),
                from: TaskState::Waiting,
                to: TaskState::Processing,
                stimulus: Stimulus::Dispatched,
                location: Location::Scheduler,
                time: Time(128),
            }),
            "0103696e632ac80102010402008001",
        ),
        (
            ProvRecord::Transition(TransitionEvent {
                key: k,
                graph: GraphId(2),
                from: TaskState::Processing,
                to: TaskState::Memory,
                stimulus: Stimulus::ComputeFinished,
                location: Location::Worker(w),
                time: Time(u64::MAX),
            }),
            "0103696e632ac8010204050401ac0207ffffffffffffffffff01",
        ),
        (
            ProvRecord::WorkerTransition(WorkerTransitionEvent {
                key: k,
                graph: GraphId(1),
                worker: w,
                from: WorkerTaskState::Ready,
                to: WorkerTaskState::Executing,
                time: Time(16_384),
            }),
            "0203696e632ac80101ac02070304808001",
        ),
        (
            ProvRecord::TaskDone(TaskDoneEvent {
                key: k,
                graph: GraphId(1),
                worker: w,
                thread: ThreadId(0x7f00_0000_1001),
                start: Time(10),
                stop: Time(20),
                nbytes: 1 << 40,
            }),
            "0303696e632ac80101ac020781a0808080e01f0a14808080808020",
        ),
        (
            ProvRecord::Comm(CommEvent {
                key: k,
                from: w,
                to: WorkerId::new(NodeId(0), 0),
                nbytes: 4096,
                start: Time(5),
                stop: Time(6),
            }),
            "0403696e632ac801ac0207000080200506",
        ),
        (
            ProvRecord::Warning(WarningEvent {
                kind: WarningKind::GcPause,
                worker: None,
                time: Time(9),
                duration: Dur(0),
            }),
            "0501000900",
        ),
        (
            ProvRecord::Warning(WarningEvent {
                kind: WarningKind::UnresponsiveEventLoop,
                worker: Some(w),
                time: Time(9),
                duration: Dur(750_000_000),
            }),
            "050001ac02070980afd0e502",
        ),
        (
            ProvRecord::Log(LogEntry {
                time: Time(77),
                level: LogLevel::Warning,
                source: LogSource::Client(ClientId(4)),
                message: "π \"q\"\n".into(),
            }),
            "064d02010407cf80202271220a",
        ),
        (
            ProvRecord::Log(LogEntry {
                time: Time(78),
                level: LogLevel::Debug,
                source: LogSource::Scheduler,
                message: String::new(),
            }),
            "064e000000",
        ),
        (
            ProvRecord::Log(LogEntry {
                time: Time(79),
                level: LogLevel::Error,
                source: LogSource::Worker(w),
                message: "x".into(),
            }),
            "064f0302ac02070178",
        ),
        (
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
            "07ac02ac0207070c02808004802064c801",
        ),
        (
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
            "080003696e632ac801078080808001ac0207ffffffffffffffffff010000ba02",
        ),
        (
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
            "080203696e632ac8010000000000ac0201ac020701",
        ),
    ];
    for (rec, expect) in &cases {
        let bytes = encode(rec);
        assert_eq!(hex(&bytes), *expect, "{rec:?}");
        assert_eq!(&ProvRecord::decode_binary(&bytes).unwrap(), rec);
    }
}

fn transition(from: TaskState, stimulus: Stimulus) -> ProvRecord {
    ProvRecord::Transition(TransitionEvent {
        key: TaskKey::new("k", 0, 0),
        graph: GraphId(0),
        from,
        to: from,
        stimulus,
        location: Location::Scheduler,
        time: Time(0),
    })
}

/// Encodes `rec`, checks the byte at `at` is `tag`, that the record
/// decodes back, and that every byte past the vocabulary's last tag is
/// rejected there.
fn assert_tag(rec: ProvRecord, at: usize, tag: u8, vocabulary: usize) {
    let bytes = encode(&rec);
    assert_eq!(bytes[at], tag, "{rec:?}");
    assert_eq!(ProvRecord::decode_binary(&bytes).unwrap(), rec);
    let mut unknown = bytes;
    for byte in vocabulary as u8..=u8::MAX {
        unknown[at] = byte;
        assert!(ProvRecord::decode_binary(&unknown).is_err(), "{rec:?} with byte {byte}");
    }
}

#[test]
fn every_closed_enum_variant_has_its_pinned_tag_and_name() {
    let task_states = [
        (TaskState::Released, 0, "released"),
        (TaskState::Waiting, 1, "waiting"),
        (TaskState::NoWorker, 2, "no-worker"),
        (TaskState::Queued, 3, "queued"),
        (TaskState::Processing, 4, "processing"),
        (TaskState::Memory, 5, "memory"),
        (TaskState::Erred, 6, "erred"),
        (TaskState::Forgotten, 7, "forgotten"),
    ];
    // family(1) key(4: "k" 0 0) graph(1), then from, to, stimulus
    for (state, tag, name) in task_states {
        assert_eq!(state.as_str(), name);
        assert_tag(transition(state, Stimulus::Queue), 6, tag, task_states.len());
        assert_tag(transition(state, Stimulus::Queue), 7, tag, task_states.len());
    }
    let stimuli = [
        (Stimulus::GraphSubmitted, 0, "graph-submitted"),
        (Stimulus::DependenciesMet, 1, "dependencies-met"),
        (Stimulus::Dispatched, 2, "dispatched"),
        (Stimulus::ComputeStarted, 3, "compute-started"),
        (Stimulus::ComputeFinished, 4, "compute-finished"),
        (Stimulus::ComputeErred, 5, "compute-erred"),
        (Stimulus::WorkStolen, 6, "work-stolen"),
        (Stimulus::WorkerLost, 7, "worker-lost"),
        (Stimulus::ClientReleased, 8, "client-released"),
        (Stimulus::NoWorkerAvailable, 9, "no-worker-available"),
        (Stimulus::Queue, 10, "queued"),
    ];
    for (stimulus, tag, name) in stimuli {
        assert_eq!(stimulus.as_str(), name);
        assert_tag(transition(TaskState::Waiting, stimulus), 8, tag, stimuli.len());
    }
    let worker_states = [
        (WorkerTaskState::Waiting, 0, "waiting"),
        (WorkerTaskState::Fetch, 1, "fetch"),
        (WorkerTaskState::Flight, 2, "flight"),
        (WorkerTaskState::Ready, 3, "ready"),
        (WorkerTaskState::Executing, 4, "executing"),
        (WorkerTaskState::Memory, 5, "memory"),
        (WorkerTaskState::Error, 6, "error"),
        (WorkerTaskState::Released, 7, "released"),
    ];
    for (state, tag, name) in worker_states {
        assert_eq!(state.as_str(), name);
        let rec = ProvRecord::WorkerTransition(WorkerTransitionEvent {
            key: TaskKey::new("k", 0, 0),
            graph: GraphId(0),
            worker: WorkerId::new(NodeId(0), 0),
            from: state,
            to: state,
            time: Time(0),
        });
        // family(1) key(4) graph(1) worker(2), then from, to
        assert_tag(rec.clone(), 8, tag, worker_states.len());
        assert_tag(rec, 9, tag, worker_states.len());
    }
    let io_ops = [
        (IoOp::Open, 0, "open"),
        (IoOp::Read, 1, "read"),
        (IoOp::Write, 2, "write"),
        (IoOp::Close, 3, "close"),
    ];
    for (op, tag, name) in io_ops {
        assert_eq!(op.as_str(), name);
        let rec = ProvRecord::Io(IoRecord {
            host: NodeId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(0),
            file: FileId(0),
            op,
            offset: 0,
            size: 0,
            start: Time(0),
            stop: Time(0),
        });
        // family(1) host(1) worker(2) thread(1) file(1), then op
        assert_tag(rec, 6, tag, io_ops.len());
    }
    let warning_kinds = [
        (WarningKind::UnresponsiveEventLoop, 0, "unresponsive-event-loop"),
        (WarningKind::GcPause, 1, "gc-pause"),
    ];
    for (kind, tag, name) in warning_kinds {
        assert_eq!(kind.as_str(), name);
        let rec = ProvRecord::Warning(WarningEvent {
            kind,
            worker: None,
            time: Time(0),
            duration: Dur(0),
        });
        assert_tag(rec, 1, tag, warning_kinds.len());
    }
    // log levels have no name: their text is only their serde spelling
    let log_levels =
        [(LogLevel::Debug, 0), (LogLevel::Info, 1), (LogLevel::Warning, 2), (LogLevel::Error, 3)];
    for (level, tag) in log_levels {
        let rec = ProvRecord::Log(LogEntry {
            time: Time(0),
            level,
            source: LogSource::Scheduler,
            message: String::new(),
        });
        assert_tag(rec, 2, tag, log_levels.len());
    }
    let proxy_actions = [
        (ProxyAction::Published, 0, "published"),
        (ProxyAction::Republished, 1, "republished"),
        (ProxyAction::Resolved, 2, "resolved"),
        (ProxyAction::Evicted, 3, "evicted"),
        (ProxyAction::Resourced, 4, "resourced"),
        (ProxyAction::Orphaned, 5, "orphaned"),
    ];
    for (action, tag, name) in proxy_actions {
        assert_eq!(action.as_str(), name);
        let rec = ProvRecord::Proxy(ProxyEvent {
            action,
            key: TaskKey::new("k", 0, 0),
            graph: GraphId(0),
            size: 0,
            owner: WorkerId::new(NodeId(0), 0),
            checksum: 0,
            generation: 0,
            worker: None,
            time: Time(0),
        });
        assert_tag(rec, 1, tag, proxy_actions.len());
    }
}

/// `PosixCounters` keeps its map private; its wire form is that map, the
/// way to hold an entry `record` never makes (`first_op: None`).
fn counters_from(files: BTreeMap<FileId, FileCounters>) -> PosixCounters {
    binfmt::decode(&binfmt::encode(&files)).unwrap()
}

fn two_log_set() -> LogSet {
    let untimed = FileCounters {
        opens: 1,
        closes: 2,
        reads: 3,
        writes: 4,
        bytes_read: 5,
        bytes_written: 6,
        read_time: Dur(7),
        write_time: Dur(8),
        meta_time: Dur(9),
        max_read_size: 10,
        max_write_size: 11,
        slowest_op: Dur(12),
        first_op: None,
        last_op: Some(Time(300)),
        size_histogram: [1, 2, 3, 4, 5, 6, 7, 8, 9, 128],
    };
    let first = DarshanLog {
        header: LogHeader {
            run: RunId(3),
            job_id: 1001,
            worker: worker(),
            hostname: "nid0300".into(),
            start: Time(100),
            end: Time(200),
            dxt_truncated: true,
            dxt_dropped: 5,
        },
        counters: counters_from(BTreeMap::from([(FileId(1 << 40), untimed)])),
        dxt: vec![],
    };
    let w = WorkerId::new(NodeId(1), 0);
    let op = IoRecord {
        host: NodeId(1),
        worker: w,
        thread: ThreadId(42),
        file: FileId(7),
        op: IoOp::Read,
        offset: 0,
        size: 4096,
        start: Time(100),
        stop: Time(200),
    };
    let mut counters = PosixCounters::new();
    counters.record(&op);
    let second = DarshanLog {
        header: LogHeader {
            run: RunId(3),
            job_id: 0,
            worker: w,
            hostname: String::new(),
            start: Time(0),
            end: Time(1),
            dxt_truncated: false,
            dxt_dropped: 0,
        },
        counters,
        dxt: vec![op],
    };
    LogSet::new(vec![first, second])
}

/// A chart whose strings are short enough to spell out.
fn chart() -> ProvenanceChart {
    let packages = BTreeMap::from([("a".into(), "1".into()), ("b".into(), "2".into())]);
    ProvenanceChart {
        hardware: HardwareInfo {
            cpu_model: "c".into(),
            cores_per_node: 32,
            memory_gb_per_node: 512,
            gpus_per_node: 4,
            nics_per_node: 2,
            node_count: 300,
            network: "n".into(),
            pfs: String::new(),
        },
        system: SystemInfo {
            os: "o".into(),
            kernel: "k".into(),
            loaded_modules: vec!["m".into()],
            packages,
        },
        job: JobInfo {
            job_id: 9,
            script: "s".into(),
            queue: "q".into(),
            nodes_requested: 1,
            allocated_nodes: vec![NodeId(0), NodeId(300)],
            submit_time: Time(0),
            start_time: Time(1),
            walltime_limit_s: 60,
        },
        wms_config: WmsConfig::default(),
        client_code_hash: 17,
        workflow_name: "w".into(),
    }
}

/// The chart's segments, in declaration order.
const CHART: [(&str, &str); 6] = [
    ("hardware", "01632080040402ac02016e00"),
    ("system", "016f016b01016d020161013101620132"),
    ("job", "0901730171010200ac0200013c"),
    (
        "wms config: 4 workers, 8 threads, 500 ms, 3000 ms, stealing, 100 ms, 400e6 B/s, 1.5, 0.5 s",
        "0408f403b81701648088debe01000000000000f83f000000000000e03f",
    ),
    ("client code hash", "11"),
    ("workflow name", "0177"),
];

/// Checks `bytes` against labelled hex segments, in order, to the end.
fn assert_segments(bytes: &[u8], segments: &[(&str, String)]) {
    let actual = hex(bytes);
    let mut at = 0;
    for (what, expect) in segments {
        let end = (at + expect.len()).min(actual.len());
        assert_eq!(&actual[at..end], expect, "segment `{what}` at byte {}", at / 2);
        at = end;
    }
    assert_eq!(at, actual.len(), "bytes past the last segment");
}

#[test]
fn a_provenance_chart_encodes_to_its_pinned_bytes() {
    let segments: Vec<_> = CHART.iter().map(|(what, hex)| (*what, hex.to_string())).collect();
    let bytes = binfmt::encode(&chart());
    assert_segments(&bytes, &segments);
    assert_eq!(binfmt::decode::<ProvenanceChart>(&bytes).unwrap(), chart());
}

/// An `f64` is its IEEE-754 bits, eight bytes little-endian, whatever the
/// value: signed zero, infinities and NaN payloads included.
#[test]
fn an_f64_encodes_to_its_pinned_bytes() {
    let cases = [
        (0.0, "0000000000000000"),
        (-0.0, "0000000000000080"),
        (1.5, "000000000000f83f"),
        (0.62, "d7a3703d0ad7e33f"),
        (180e6, "000000002a75a541"),
        (f64::INFINITY, "000000000000f07f"),
        (f64::from_bits(0x7ff8_0000_0000_0001), "010000000000f87f"),
    ];
    for (value, pinned) in cases {
        let bytes = binfmt::encode(&value);
        assert_eq!(hex(&bytes), pinned, "{value}");
        assert_eq!(binfmt::decode::<f64>(&bytes).unwrap().to_bits(), value.to_bits());
    }
    assert_eq!(<f64 as binfmt::Wire>::MIN_BYTES, 8);
}

/// The metadata the Mofka service keeps in Yokan: a topic's config and a
/// group cursor, and the KV WAL record each is logged in.
#[test]
fn topic_configs_cursors_and_kv_records_encode_to_their_pinned_bytes() {
    assert_eq!(hex(&binfmt::encode(&TopicConfig { partitions: 4 })), "04");
    assert_eq!(hex(&binfmt::encode(&TopicConfig { partitions: 300 })), "ac02");
    // a cursor is the next offset to claim, one varint
    assert_eq!(hex(&binfmt::encode(&0u64)), "00");
    assert_eq!(hex(&binfmt::encode(&300u64)), "ac02");
    assert_eq!(hex(&binfmt::encode(&u64::MAX)), "ffffffffffffffffff01");
    let records = [
        (
            KvRecord::Put("group/t/g/0".into(), Bytes::from_static(&[0xac, 0x02])),
            "000b67726f75702f742f672f3002ac02",
        ),
        (KvRecord::Put("k".into(), Bytes::new()), "00016b00"),
        (KvRecord::Delete("k".into()), "01016b"),
    ];
    for (rec, pinned) in records {
        let bytes = binfmt::encode(&rec);
        assert_eq!(hex(&bytes), pinned, "{rec:?}");
        assert_eq!(binfmt::decode::<KvRecord>(&bytes).unwrap(), rec);
    }
}

/// A configuration whose fault schedule holds one fault of every family.
fn config() -> SimConfig {
    let faults = FaultSchedule {
        seed: 7,
        deaths: vec![WorkerDeath { worker: 1, time: Time(2) }],
        fetch_faults: vec![FetchFault { index: 3, extra_delay: Dur(4), duplicate: true }],
        heartbeat_drops: vec![HeartbeatDrop { worker: 1, start: Time(5), stop: Time(6) }],
        mofka_stalls: vec![MofkaStall {
            topic: "t".into(),
            partition: 2,
            start: Time(0),
            stop: Time(9),
        }],
        pfs_bursts: vec![InterferenceBurst { start: Time(0), stop: Time(3), factor: 1.5 }],
        stragglers: vec![StragglerFault { worker: 2, factor: 1.5, start: Time(0), stop: Time(9) }],
        hotspot: Some(HotspotFault { worker: 1, weight: 1.5 }),
        dangling_proxies: vec![DanglingProxy { index: 2 }],
        slow_resolves: vec![SlowResolve { index: 0, extra_delay: Dur(7) }],
    };
    SimConfig {
        campaign_seed: 300,
        run: RunId(300),
        wms: chart().wms_config,
        dxt: DxtConfig { max_records: 4, record_thread_ids: true },
        mofka_batch: 64,
        online_darshan: true,
        faults,
        proxy: ProxyConfig { enabled: true, threshold: 300, resolver_cache_bytes: 0 },
        ..SimConfig::default()
    }
}

#[test]
fn the_run_meta_document_and_its_darshan_logs_encode_to_their_pinned_bytes() {
    let meta = ArchiveMeta {
        config: config(),
        workflow: "wf".into(),
        chart: chart(),
        darshan: two_log_set(),
        wall_time: Dur(1_000_000_007),
        steals: 2,
    };
    let mut segments: Vec<(&str, String)> = [
        ("magic, version", "4454464d45544106"),
        ("campaign seed, run", "ac02ac02"),
        ("dxt: 4 records, thread ids", "0401"),
        ("online darshan", "01"),
        ("proxy: on, 300 B, 0 B", "01ac0200"),
        ("faults: seed", "07"),
        ("deaths", "010102"),
        ("fetch faults", "01030401"),
        ("heartbeat drops", "01010506"),
        ("mofka stalls", "010174020009"),
        ("pfs bursts", "010003000000000000f83f"),
        ("stragglers", "0102000000000000f83f0009"),
        ("hotspot", "0101000000000000f83f"),
        ("dangling proxies", "0102"),
        ("slow resolves", "010007"),
        ("workflow", "027766"),
    ]
    .iter()
    .map(|(what, hex)| (*what, hex.to_string()))
    .collect();
    segments.extend(CHART.iter().map(|(what, hex)| (*what, hex.to_string())));
    segments.extend([
        ("log count", "02".to_string()),
        ("log 1 header", "03e907ac0207076e69643033303064c8010105".to_string()),
        (
            "log 1 counters: one untimed file, full histogram",
            "018080808080200102030405060708090a0b0c0001ac020102030405060708098001".to_string(),
        ),
        ("log 1 dxt: empty", "00".to_string()),
        ("log 2 header", "030001000000010000".to_string()),
        (
            "log 2 counters: one timed file",
            "01070000010080200064000080200064016401c80100000100000000000000".to_string(),
        ),
        ("log 2 dxt: one record", "010101002a070100802064c801".to_string()),
        ("wall time", "8794ebdc03".to_string()),
        ("steals", "02".to_string()),
    ]);
    let bytes = meta.encode();
    assert_segments(&bytes, &segments);
    assert_eq!(ArchiveMeta::decode(&bytes).unwrap(), meta);
}

#[test]
fn a_proxy_ref_encodes_to_its_pinned_bytes() {
    let r = ProxyRef {
        key: key(),
        graph: GraphId(7),
        size: 64 << 20,
        owner: worker(),
        checksum: u64::MAX,
        generation: 300,
    };
    assert_eq!(hex(&r.to_bytes()), "03696e632ac8010780808020ac0207ffffffffffffffffff01ac02");
    assert_eq!(r.wire_size(), r.to_bytes().len() as u64);
}

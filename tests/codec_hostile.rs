//! One hostile-bytes harness over every binary document's decoder, after
//! the evtx parser's rule: assume every length field lies. For every
//! truncation, every single-byte overwrite and a count of 2^40 forged at
//! every varint position, decoding either fails or yields a value that
//! re-encodes to exactly the bytes it was given — never a panic, and never
//! an allocation sized by a count the bytes left cannot hold.

use std::fmt::Debug;

use bytes::Bytes;
use dtf::core::binfmt::{self, Wire};
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
use dtf::core::time::{Dur, Time};
use dtf::darshan::counters::{FileCounters, PosixCounters};
use dtf::darshan::log::{DarshanLog, LogHeader, LogSet};
use dtf::darshan::DxtConfig;
use dtf::mofka::TopicConfig;
use dtf::proxystore::ProxyConfig;
use dtf::store::KvRecord;

mod corpus;
use corpus::{archive_meta, log_set, records};

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

/// Runs `value`'s encoding through every truncation, overwrite and forged
/// count; returns how many of the forged counts were refused.
fn hostile<T: Wire + PartialEq + Debug>(value: &T) -> usize {
    let bytes = binfmt::encode(value);
    assert_eq!(&binfmt::decode::<T>(&bytes).unwrap(), value);
    let mutations = corpus::mutations(&bytes);
    for cut in &mutations.truncations {
        assert!(!decodes::<T>(cut), "a {}-byte prefix of {value:?} decoded", cut.len());
    }
    for overwritten in &mutations.overwrites {
        decodes::<T>(overwritten);
    }
    mutations.forged.iter().filter(|forged| !decodes::<T>(forged)).count()
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

/// A `run-meta` document whose configuration holds a fault of every
/// family: every truncation and overwrite is refused or re-encodes to
/// itself.
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
    smallest(0usize);
    // the run configuration's layouts, as `run-meta` archives them
    smallest(DxtConfig { max_records: 0, record_thread_ids: false });
    smallest(ProxyConfig { enabled: false, threshold: 0, resolver_cache_bytes: 0 });
    assert_eq!(smallest(FaultSchedule::default()), 10);
    smallest(WorkerDeath { worker: 0, time: Time(0) });
    smallest(FetchFault { index: 0, extra_delay: Dur(0), duplicate: false });
    smallest(HeartbeatDrop { worker: 0, start: Time(0), stop: Time(0) });
    smallest(MofkaStall { topic: String::new(), partition: 0, start: Time(0), stop: Time(0) });
    smallest(InterferenceBurst { start: Time(0), stop: Time(0), factor: 0.0 });
    smallest(StragglerFault { worker: 0, factor: 0.0, start: Time(0), stop: Time(0) });
    smallest(HotspotFault { worker: 0, weight: 0.0 });
    smallest(DanglingProxy { index: 0 });
    smallest(SlowResolve { index: 0, extra_delay: Dur(0) });
    // an enum's minimum is its tag plus its smallest variant's payload
    assert_eq!(smallest(KvRecord::Delete(String::new())), 2);
    smallest(Location::Scheduler);
    smallest(LogSource::Scheduler);
    assert_eq!(smallest(ProvRecord::Log(log_entry)), 5);
}

//! The binary `run-meta` document ([`ArchiveMeta::encode`] /
//! [`ArchiveMeta::decode`]): arbitrary documents round-trip to an equal
//! value and byte-equal re-encoding; hostile bytes — every truncation,
//! single-byte overwrites, forged counts, a JSON-era value — are an `Err`,
//! never a panic and never an allocation sized by a lying count.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dtf_core::binfmt::{self, put_str, put_varint, Wire};
use dtf_core::events::{IoOp, IoRecord};
use dtf_core::fault::{
    DanglingProxy, FaultSchedule, FetchFault, HeartbeatDrop, HotspotFault, InterferenceBurst,
    MofkaStall, SlowResolve, StragglerFault, WorkerDeath,
};
use dtf_core::ids::{FileId, NodeId, RunId, ThreadId, WorkerId};
use dtf_core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf_core::time::{Dur, Time};
use dtf_darshan::counters::{FileCounters, PosixCounters};
use dtf_darshan::log::{DarshanLog, LogHeader, LogSet};
use dtf_darshan::DxtConfig;
use dtf_proxystore::ProxyConfig;
use dtf_wms::rundata::ArchiveMeta;
use dtf_wms::sim::SimConfig;

const NAMES: [&str; 5] = ["load-image", "ResNet152", "étape-π", "画像処理", "xgb🦀"];

/// Any `WmsConfig`: the chart archives it, and the config reads it back.
fn wms_config(rng: &mut SmallRng) -> WmsConfig {
    WmsConfig {
        workers_per_node: rng.gen_range(1..9),
        threads_per_worker: rng.gen_range(1..65),
        heartbeat_interval_ms: wide(rng),
        worker_ttl_ms: wide(rng),
        work_stealing: rng.gen(),
        steal_interval_ms: wide(rng),
        assumed_bandwidth: wide(rng),
        queue_factor: rng.gen::<f64>() * 4.0,
        est_task_duration_s: f64::from_bits(rng.gen()),
    }
}

fn chart(rng: &mut SmallRng, workflow: &str) -> ProvenanceChart {
    let nodes = rng.gen_range(1..5u32);
    ProvenanceChart {
        hardware: HardwareInfo::polaris_like(nodes),
        system: SystemInfo::synthetic(),
        job: JobInfo {
            job_id: rng.gen(),
            script: format!("#!/bin/bash\n# {workflow} \"quoted\"\\ \t\n"),
            queue: "débogage".into(),
            nodes_requested: nodes,
            allocated_nodes: (0..nodes).map(NodeId).collect(),
            submit_time: Time(rng.gen()),
            start_time: Time(rng.gen()),
            walltime_limit_s: rng.gen(),
        },
        wms_config: wms_config(rng),
        client_code_hash: rng.gen(),
        workflow_name: workflow.into(),
    }
}

/// A value with a wide spread of varint lengths.
fn wide(rng: &mut SmallRng) -> u64 {
    rng.gen::<u64>() >> rng.gen_range(0..64u32)
}

fn io_record(rng: &mut SmallRng, worker: WorkerId, file: FileId) -> IoRecord {
    // sizes and durations below 2^56, so the counters' sums never overflow
    let start = wide(rng) >> 1;
    IoRecord {
        host: worker.node,
        worker,
        thread: ThreadId(wide(rng)),
        file,
        op: [IoOp::Open, IoOp::Read, IoOp::Write, IoOp::Close][rng.gen_range(0..4usize)],
        offset: wide(rng),
        size: wide(rng) >> 8,
        start: Time(start),
        stop: Time(start + (wide(rng) >> 8)),
    }
}

/// `PosixCounters` keeps its map private; its wire form is that map, the
/// way to hold entries `record` never makes (no timed op: `first_op: None`).
fn counters_from(files: BTreeMap<FileId, FileCounters>) -> PosixCounters {
    binfmt::decode(&binfmt::encode(&files)).unwrap()
}

fn darshan_log(rng: &mut SmallRng, run: RunId) -> DarshanLog {
    let worker = WorkerId::new(NodeId(rng.gen_range(0..3000)), rng.gen_range(0..8));
    let files: Vec<FileId> = (0..rng.gen_range(0..6)).map(|_| FileId(wide(rng))).collect();
    let mut counters = PosixCounters::new();
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(0..24) {
        if files.is_empty() {
            break;
        }
        let file = files[rng.gen_range(0..files.len())];
        let rec = io_record(rng, worker, file);
        counters.record(&rec);
        ops.push(rec);
    }
    if rng.gen_bool(0.4) {
        let mut map: BTreeMap<FileId, FileCounters> =
            counters.files().map(|(id, c)| (*id, c.clone())).collect();
        map.insert(FileId(wide(rng)), FileCounters { opens: wide(rng), ..Default::default() });
        counters = counters_from(map);
    }
    // DXT keeps a head of the trace; the rest is dropped (footnote 9)
    let kept = rng.gen_range(0..=ops.len());
    let dxt_dropped = (ops.len() - kept) as u64;
    ops.truncate(kept);
    let hostnames = ["nid0000".to_string(), format!("nœud-{}", worker.node.0), "ホスト".into()];
    DarshanLog {
        header: LogHeader {
            run,
            job_id: wide(rng),
            worker,
            hostname: hostnames[rng.gen_range(0..hostnames.len())].clone(),
            start: Time(wide(rng)),
            end: Time(wide(rng)),
            dxt_truncated: dxt_dropped > 0,
            dxt_dropped,
        },
        counters,
        dxt: ops,
    }
}

/// `1..=4` of `make`'s values: every fault family is non-empty.
fn some<T>(rng: &mut SmallRng, mut make: impl FnMut(&mut SmallRng) -> T) -> Vec<T> {
    (0..rng.gen_range(1..=4)).map(|_| make(rng)).collect()
}

/// A schedule with every family non-empty; the hot spot is set or not.
fn schedule(rng: &mut SmallRng) -> FaultSchedule {
    let time = |rng: &mut SmallRng| Time(wide(rng));
    let factor = |rng: &mut SmallRng| f64::from_bits(rng.gen());
    FaultSchedule {
        seed: rng.gen(),
        deaths: some(rng, |r| WorkerDeath { worker: r.gen(), time: time(r) }),
        fetch_faults: some(rng, |r| FetchFault {
            index: wide(r),
            extra_delay: Dur(wide(r)),
            duplicate: r.gen(),
        }),
        heartbeat_drops: some(rng, |r| HeartbeatDrop {
            worker: r.gen(),
            start: time(r),
            stop: time(r),
        }),
        mofka_stalls: some(rng, |r| MofkaStall {
            topic: NAMES[r.gen_range(0..NAMES.len())].into(),
            partition: r.gen(),
            start: time(r),
            stop: time(r),
        }),
        pfs_bursts: some(rng, |r| InterferenceBurst {
            start: time(r),
            stop: time(r),
            factor: factor(r),
        }),
        stragglers: some(rng, |r| StragglerFault {
            worker: r.gen(),
            factor: factor(r),
            start: time(r),
            stop: time(r),
        }),
        hotspot: rng.gen_bool(0.5).then(|| HotspotFault { worker: rng.gen(), weight: factor(rng) }),
        dangling_proxies: some(rng, |r| DanglingProxy { index: wide(r) }),
        slow_resolves: some(rng, |r| SlowResolve { index: wide(r), extra_delay: Dur(wide(r)) }),
    }
}

/// Arbitrary archived settings; `wms` is the chart's, as in every run,
/// and the settings the document does not hold keep their defaults.
fn config(rng: &mut SmallRng, run: RunId, chart: &ProvenanceChart) -> SimConfig {
    SimConfig {
        campaign_seed: rng.gen(),
        run,
        wms: chart.wms_config.clone(),
        dxt: DxtConfig { max_records: wide(rng) as usize, record_thread_ids: rng.gen() },
        online_darshan: rng.gen(),
        faults: schedule(rng),
        proxy: ProxyConfig {
            enabled: rng.gen(),
            threshold: wide(rng),
            resolver_cache_bytes: wide(rng),
        },
        ..SimConfig::default()
    }
}

fn arbitrary_meta(seed: u64) -> ArchiveMeta {
    let mut rng = SmallRng::seed_from_u64(seed);
    let run = RunId(rng.gen_range(0..1000));
    let workflow = format!("{}-{}", NAMES[rng.gen_range(0..NAMES.len())], rng.gen::<u16>());
    let chart = chart(&mut rng, &workflow);
    let config = config(&mut rng, run, &chart);
    let logs = (0..rng.gen_range(0..4)).map(|_| darshan_log(&mut rng, run)).collect();
    ArchiveMeta {
        config,
        workflow,
        chart,
        darshan: LogSet::new(logs),
        wall_time: Dur(wide(&mut rng)),
        steals: wide(&mut rng),
    }
}

/// One document holding every edge the format has to carry: an empty log,
/// a truncated trace, a file entry with no timestamps and non-ASCII text.
fn edge_meta() -> ArchiveMeta {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut truncated = darshan_log(&mut rng, RunId(2));
    while truncated.dxt.len() < 3 {
        truncated = darshan_log(&mut rng, RunId(2));
    }
    truncated.dxt.truncate(1);
    truncated.header.dxt_truncated = true;
    truncated.header.dxt_dropped = 1 << 33;
    truncated.header.hostname = "nœud-0 ノード".into();
    let mut files: BTreeMap<FileId, FileCounters> =
        truncated.counters.files().map(|(id, c)| (*id, c.clone())).collect();
    files.insert(FileId(u64::MAX), FileCounters { closes: 1, ..Default::default() });
    truncated.counters = counters_from(files);
    let empty = DarshanLog {
        header: LogHeader {
            run: RunId(2),
            job_id: 0,
            worker: WorkerId::new(NodeId(0), 0),
            hostname: String::new(),
            start: Time::ZERO,
            end: Time::ZERO,
            dxt_truncated: false,
            dxt_dropped: 0,
        },
        counters: PosixCounters::new(),
        dxt: vec![],
    };
    let chart = chart(&mut rng, "画像処理-étape");
    ArchiveMeta {
        config: config(&mut rng, RunId(2), &chart),
        workflow: "画像処理-étape".into(),
        chart,
        darshan: LogSet::new(vec![empty, truncated]),
        wall_time: Dur(u64::MAX),
        steals: 3,
    }
}

fn assert_roundtrips(meta: &ArchiveMeta) {
    let bytes = meta.encode();
    let back = ArchiveMeta::decode(&bytes).unwrap();
    assert_eq!(&back, meta);
    assert_eq!(back.encode(), bytes, "re-encoding is byte-equal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_documents_roundtrip(seed in any::<u64>()) {
        assert_roundtrips(&arbitrary_meta(seed));
    }
}

#[test]
fn the_edges_roundtrip() {
    let meta = edge_meta();
    assert!(meta.darshan.logs[0].dxt.is_empty() && meta.darshan.logs[1].header.dxt_dropped > 0);
    let no_first_op = meta.darshan.logs[1].counters.file(FileId(u64::MAX)).unwrap();
    assert_eq!(no_first_op.first_op, None);
    assert_roundtrips(&meta);
    assert_roundtrips(&ArchiveMeta { darshan: LogSet::default(), ..meta });
}

/// The producer batch, the store directory and the live invariant checks
/// change no output, so the document does not hold them: a document
/// written with them set is the one written with their defaults, and
/// decodes to those.
#[test]
fn settings_that_change_no_output_are_not_archived() {
    let meta = edge_meta();
    let mut set = meta.clone();
    set.config.mofka_batch = 1;
    set.config.persist_dir = Some("/tmp/store".into());
    set.config.invariant_checks = true;
    assert_eq!(set.encode(), meta.encode());
    assert_eq!(ArchiveMeta::decode(&set.encode()).unwrap(), meta);
}

/// Decoding hostile bytes either yields a document that re-encodes to
/// exactly those bytes, or an error.
fn decode_or_reject(bytes: &[u8]) -> bool {
    match ArchiveMeta::decode(bytes) {
        Ok(meta) => {
            assert_eq!(meta.encode(), bytes, "accepted bytes that do not re-encode to themselves");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_truncation_is_an_error() {
    let bytes = edge_meta().encode();
    for cut in 0..bytes.len() {
        assert!(!decode_or_reject(&bytes[..cut]), "a {cut}-byte prefix decoded");
    }
}

#[test]
fn single_byte_overwrites_decode_to_themselves_or_fail() {
    let bytes = edge_meta().encode();
    // every offset of a few-KB document: header, config, chart, logs
    assert!(bytes.len() >= 64);
    let mut accepted = 0;
    for at in 0..bytes.len() {
        for value in [bytes[at] ^ 0xff, bytes[at] ^ 0x01, 0x00, 0x80, b'{'] {
            if value == bytes[at] {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[at] = value;
            accepted += decode_or_reject(&mutated) as usize;
        }
    }
    // a flipped low bit of a counter is still a document, just another one
    assert!(accepted > 0, "no overwrite decoded: the loop never reached a varint");
}

#[test]
fn forged_counts_fail_before_allocating() {
    let meta = edge_meta();
    let bytes = meta.encode();
    // the workflow name's byte count follows the configuration
    let mut head = b"DTFMETA\x06".to_vec();
    let c = &meta.config;
    put_varint(&mut head, c.campaign_seed);
    put_varint(&mut head, c.run.0 as u64);
    c.dxt.put(&mut head);
    c.online_darshan.put(&mut head);
    c.proxy.put(&mut head);
    c.faults.put(&mut head);
    let name_at = head.len();
    assert_eq!(bytes[name_at], meta.workflow.len() as u8);
    let mut forged = head.clone();
    put_varint(&mut forged, 1 << 40);
    forged.extend_from_slice(&bytes[name_at + 1..]);
    assert!(ArchiveMeta::decode(&forged).is_err());

    // the LogSet's log count follows the chart
    put_str(&mut head, &meta.workflow);
    meta.chart.put(&mut head);
    assert!(bytes.starts_with(&head));
    let logs_at = head.len();
    assert_eq!(bytes[logs_at], meta.darshan.logs.len() as u8);
    let mut forged = head;
    put_varint(&mut forged, 1 << 40);
    forged.extend_from_slice(&bytes[logs_at + 1..]);
    assert!(ArchiveMeta::decode(&forged).is_err());
}

#[test]
fn a_json_era_document_is_an_error_naming_the_format() {
    let json = br#"{"run":0,"workflow":"w","chart":{},"darshan":{"logs":[]},"wall_time":0,"start_order":[],"steals":0}"#;
    let err = ArchiveMeta::decode(json).unwrap_err().to_string();
    assert!(err.contains("JSON"), "{err}");
    assert!(ArchiveMeta::decode(b"{").is_err());
    let mut bytes = edge_meta().encode();
    assert!(ArchiveMeta::decode(&bytes[..7]).is_err(), "magic without a version");
    // a version-1 document (the chart as JSON), a version-2 one (the
    // chart's older WMS layout), a version-3 one (the chart without the
    // worker TTL and the stealing period), a version-4 one (no run
    // configuration) and a version-5 one (the start order archived) are
    // refused by their version byte
    for old in [1, 2, 3, 4, 5] {
        bytes[7] = old;
        let err = ArchiveMeta::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains(&format!("version {old}")), "{err}");
    }
    bytes[0] = b'X';
    assert!(ArchiveMeta::decode(&bytes).is_err(), "bad magic");
}

//! Storage micro-benchmarks: append throughput per flush policy and the
//! recovery-scan rate of the segmented log — the `storage` section of
//! `BENCH_repro.json`.
//!
//! Three append configurations bracket the durability/throughput
//! trade-off dtf-store exposes:
//!
//! * `every_record` — fsync after each record (strict durability floor),
//! * `group_commit_256` — the default group-commit batch (`EveryN(256)`),
//! * `manual` — buffered writes, one fsync at the end (throughput ceiling).
//!
//! The recovery number re-opens the group-commit log and times the full
//! checksum scan, since that is what every durable reopen pays.
//!
//! The `codec` subsection measures the binary record format: pure
//! encode/decode throughput over a mixed-family record corpus, and the
//! end-to-end replay (service reopen + read of every record) of a
//! persisted store, which is the wall time `open_archive` pays.
//!
//! The `scale` subsection measures what the sparse indexes buy at size:
//! indexed point/range reads against the full-scan alternative.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;

use dtf_core::events::{LogEntry, LogLevel, LogSource, ProvRecord, TaskDoneEvent, TransitionEvent};
use dtf_core::ids::{ClientId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
use dtf_core::time::Time;
use dtf_mofka::{Event, MofkaService, TopicConfig};
use dtf_store::index::DEFAULT_STRIDE;
use dtf_store::{FlushPolicy, LogConfig, LogReader, ReaderOptions, SegmentedLog};

/// The `storage` section of the artifact.
#[derive(Debug, Serialize)]
pub struct StorageBench {
    /// Payload size of every appended record.
    pub record_bytes: usize,
    pub append: AppendPolicies,
    pub recovery: RecoveryBench,
    pub codec: CodecBench,
    pub scale: ScaleBench,
}

/// One append row per flush policy, keyed by policy so a gate path names it.
#[derive(Debug, Serialize)]
pub struct AppendPolicies {
    pub every_record: AppendBench,
    pub group_commit_256: AppendBench,
    pub manual: AppendBench,
}

#[derive(Debug, Serialize)]
pub struct AppendBench {
    pub records: u64,
    pub wall_s: f64,
    pub records_per_s: f64,
    pub bytes_per_s: f64,
}

#[derive(Debug, Serialize)]
pub struct RecoveryBench {
    pub records: u64,
    pub segments: u64,
    pub wall_s: f64,
    pub records_per_s: f64,
}

/// Binary record-format measurements (schema 4).
#[derive(Debug, Serialize)]
pub struct CodecBench {
    /// Records in the encode/decode corpus (mixed event families).
    pub records: u64,
    /// Corpus size in its binary encoding.
    pub binary_bytes: u64,
    /// The same corpus rendered as compact JSON (its size at export).
    pub json_bytes: u64,
    /// Binary encode throughput, MiB of encoded output per second.
    pub encode_mib_s: f64,
    /// Binary decode throughput, MiB of encoded input per second.
    pub decode_mib_s: f64,
    /// Events in each replay store.
    pub replay_events: u64,
    /// End-to-end reopen + read of every record of the replay store.
    pub replay_binary_ms: f64,
}

/// At-size behaviour measurements: indexed reads.
#[derive(Debug, Serialize)]
pub struct ScaleBench {
    pub indexed: IndexedBench,
}

/// Indexed archive reads vs the full-scan alternative on one log.
#[derive(Debug, Serialize)]
pub struct IndexedBench {
    pub records: u64,
    pub record_bytes: usize,
    /// Records per sparse-index entry (and per cached block).
    pub stride: u32,
    /// Wall of a full `SegmentedLog::open` body scan — what answering any
    /// point query costs without an index.
    pub full_scan_ms: f64,
    /// `LogReader::open` wall (header walk + tail scan; no cold bodies).
    pub reader_open_ms: f64,
    pub point_lookups: u64,
    /// Mean wall of one indexed point read (cold cache at first touch).
    pub point_avg_us: f64,
    /// Wall of one indexed 256-record range read mid-log.
    pub range_ms: f64,
    /// `full_scan / point_avg` — an indexed point read replaces a scan.
    pub point_speedup: f64,
    /// `full_scan / range` — same for the range read.
    pub range_speedup: f64,
    /// Block-cache hits/misses across the point-read pass (schema 7) —
    /// spread lookups mostly miss; same-block neighbours hit.
    pub point_cache_hits: u64,
    pub point_cache_misses: u64,
    /// Same counters for the range read on its fresh reader: one miss per
    /// block touched, hits for every record after the first in a block.
    pub range_cache_hits: u64,
    pub range_cache_misses: u64,
}

/// A fresh directory, unique per call: two sweeps in one process (the
/// unit tests run in parallel) must not share one.
fn scratch(label: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("dtf-store-bench-{pid}-{n}-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trials per measurement; the fastest is reported. fsync-bound wall
/// times are noisy in one direction only (interference slows, nothing
/// speeds up), so best-of-N narrows the spread the gate bounds are set from.
const TRIALS: u32 = 3;

/// Append `records` payloads under `flush` into a fresh dir, ending with
/// one explicit `sync` so every configuration measures time-to-durable.
/// Returns the wall time of this trial.
fn append_trial(dir: &Path, flush: FlushPolicy, records: u64, payload: &[u8]) -> f64 {
    let cfg = LogConfig { flush, ..Default::default() };
    let (mut log, existing, _) = SegmentedLog::open(dir, cfg).expect("open bench log");
    assert!(existing.is_empty(), "bench log directory must start empty");
    let t0 = Instant::now();
    for _ in 0..records {
        log.append(payload).expect("append");
    }
    log.sync().expect("sync");
    t0.elapsed().as_secs_f64()
}

/// Best-of-[`TRIALS`] append measurement. The last trial's directory is
/// left in place (its path is returned) so the recovery scan can reopen a
/// fully-committed log.
fn bench_append(
    policy: &str,
    flush: FlushPolicy,
    records: u64,
    payload: &[u8],
) -> (AppendBench, PathBuf) {
    let mut best = f64::INFINITY;
    let mut dir = PathBuf::new();
    for trial in 0..TRIALS {
        if trial > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = scratch(&format!("{policy}-{trial}"));
        best = best.min(append_trial(&dir, flush, records, payload));
    }
    let bench = AppendBench {
        records,
        wall_s: best,
        records_per_s: records as f64 / best.max(1e-12),
        bytes_per_s: (records as usize * payload.len()) as f64 / best.max(1e-12),
    };
    (bench, dir)
}

/// Deterministic mixed-family corpus for the codec rows: three of the
/// hottest record families in realistic proportion (transitions dominate a
/// run's stream, then task-done, then logs), with index-derived values so
/// no RNG is involved.
fn codec_corpus(n: u64) -> Vec<ProvRecord> {
    use dtf_core::events::{Location, Stimulus, TaskState};
    (0..n)
        .map(|i| {
            let key = TaskKey::new("bench-task", (i % 64) as u32, (i / 64) as u32);
            let worker = WorkerId::new(NodeId((i % 8) as u32), (i % 4) as u32);
            match i % 4 {
                0 | 1 => ProvRecord::Transition(TransitionEvent {
                    key,
                    graph: GraphId((i % 3) as u32),
                    from: TaskState::Queued,
                    to: TaskState::Processing,
                    stimulus: Stimulus::Dispatched,
                    location: Location::Worker(worker),
                    time: Time(1_000_000 + i * 17),
                }),
                2 => ProvRecord::TaskDone(TaskDoneEvent {
                    key,
                    graph: GraphId((i % 3) as u32),
                    worker,
                    thread: ThreadId(i % 16),
                    start: Time(1_000_000 + i * 17),
                    stop: Time(1_000_500 + i * 17),
                    nbytes: (i * 4096) % (1 << 30),
                }),
                _ => ProvRecord::Log(LogEntry {
                    time: Time(1_000_000 + i * 17),
                    level: LogLevel::Info,
                    source: LogSource::Client(ClientId((i % 5) as u32)),
                    message: format!("progress update {i} for graph {}", i % 3),
                }),
            }
        })
        .collect()
}

/// The replay store: the corpus pushed into a persisted "logs"-style topic.
fn build_replay_store(dir: &Path, corpus: &[ProvRecord]) {
    let svc = MofkaService::durable(dir).expect("replay store");
    svc.create_topic("events", TopicConfig { partitions: 1 }).expect("topic");
    let t = svc.topic("events").expect("topic handle");
    for rec in corpus {
        t.append_batch(0, vec![Event::typed(rec.clone())]).expect("append");
    }
    svc.sync().expect("sync");
}

/// Reopen the replay store and read every record back — the
/// `open_archive` read path. Returns this trial's wall time.
fn replay_trial(dir: &Path, expect: u64) -> f64 {
    let t0 = Instant::now();
    let (svc, recovery) = MofkaService::reopen(dir).expect("replay reopen");
    assert_eq!(recovery.restored_events, expect, "replay store must recover fully");
    let t = svc.topic("events").expect("topic");
    let mut sink = 0u64;
    for stored in t.read(0, 0, usize::MAX >> 1).expect("read") {
        if let Some(k) = stored.event.record.task_key() {
            sink = sink.wrapping_add(k.token as u64);
        }
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}

/// Codec sweep: pure encode/decode throughput plus the end-to-end replay
/// of a persisted store.
fn codec_bench() -> CodecBench {
    const CODEC_RECORDS: u64 = 32_768;
    const REPLAY_EVENTS: u64 = 8_192;
    let corpus = codec_corpus(CODEC_RECORDS);

    // pure encode: one growing buffer, frame boundaries remembered
    let mut encode_s = f64::INFINITY;
    let mut buf = Vec::new();
    let mut bounds = Vec::with_capacity(corpus.len());
    for _ in 0..TRIALS {
        buf.clear();
        bounds.clear();
        let t0 = Instant::now();
        for rec in &corpus {
            rec.encode_binary(&mut buf);
            bounds.push(buf.len());
        }
        encode_s = encode_s.min(t0.elapsed().as_secs_f64());
    }
    let binary_bytes = buf.len() as u64;
    let json_bytes: u64 =
        corpus.iter().map(|r| serde_json::to_vec(r).expect("record renders").len() as u64).sum();

    // pure decode, straight off the encoded buffer slices
    let mut decode_s = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let mut start = 0usize;
        let mut sink = 0u64;
        for &end in &bounds {
            let rec = ProvRecord::decode_binary(&buf[start..end]).expect("corpus decodes");
            if let Some(k) = rec.task_key() {
                sink = sink.wrapping_add(k.index as u64);
            }
            start = end;
        }
        std::hint::black_box(sink);
        decode_s = decode_s.min(t0.elapsed().as_secs_f64());
    }

    // end-to-end replay
    let bin_dir = scratch("replay-binary");
    build_replay_store(&bin_dir, &codec_corpus(REPLAY_EVENTS));
    let mut replay_binary_s = f64::INFINITY;
    for _ in 0..TRIALS {
        replay_binary_s = replay_binary_s.min(replay_trial(&bin_dir, REPLAY_EVENTS));
    }
    let _ = std::fs::remove_dir_all(&bin_dir);

    let mib = binary_bytes as f64 / (1u64 << 20) as f64;
    CodecBench {
        records: CODEC_RECORDS,
        binary_bytes,
        json_bytes,
        encode_mib_s: mib / encode_s.max(1e-12),
        decode_mib_s: mib / decode_s.max(1e-12),
        replay_events: REPLAY_EVENTS,
        replay_binary_ms: replay_binary_s * 1e3,
    }
}

/// Indexed archive reads vs the full-scan alternative over one log of
/// `records` 1 KiB payloads.
fn indexed_bench(records: u64) -> IndexedBench {
    const REC_BYTES: usize = 1024;
    const POINTS: u64 = 256;
    let dir = scratch("indexed");
    let cfg = LogConfig { flush: FlushPolicy::Manual, sync_data: false, ..Default::default() };
    {
        let (mut log, existing, _) = SegmentedLog::open(&dir, cfg).expect("indexed log");
        assert!(existing.is_empty());
        let mut payload = vec![0u8; REC_BYTES];
        for i in 0..records {
            payload[..8].copy_from_slice(&i.to_le_bytes());
            log.append(&payload).expect("append");
        }
        log.sync().expect("sync");
    }

    // the full-scan alternative: every body read and checksummed
    let mut full_scan_s = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let (log, recovered, _) = SegmentedLog::open(&dir, cfg).expect("full scan");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(recovered.len() as u64, records);
        log.abandon();
        full_scan_s = full_scan_s.min(wall);
    }

    let t0 = Instant::now();
    let (reader, report) = LogReader::open(&dir, ReaderOptions).expect("reader open");
    let reader_open_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.records, records);

    // point reads spread across the log, cold cache at first touch
    let t0 = Instant::now();
    for j in 0..POINTS {
        let idx = (j * records / POINTS + j % 17) % records;
        let rec = reader.get(idx).expect("indexed point read");
        assert_eq!(&rec[..8], &idx.to_le_bytes());
    }
    let point_avg_s = t0.elapsed().as_secs_f64() / POINTS as f64;
    let point_cache = reader.cache_stats();

    // range read mid-log on a fresh reader (fresh cache)
    let (reader2, _) = LogReader::open(&dir, ReaderOptions).expect("reader reopen");
    let want = 256usize.min(records as usize / 2);
    let t0 = Instant::now();
    let got = reader2.range(records / 2, want);
    let range_s = t0.elapsed().as_secs_f64();
    assert_eq!(got.len(), want);
    let range_cache = reader2.cache_stats();

    let _ = std::fs::remove_dir_all(&dir);
    IndexedBench {
        records,
        record_bytes: REC_BYTES,
        stride: DEFAULT_STRIDE,
        full_scan_ms: full_scan_s * 1e3,
        reader_open_ms: reader_open_s * 1e3,
        point_lookups: POINTS,
        point_avg_us: point_avg_s * 1e6,
        range_ms: range_s * 1e3,
        point_speedup: full_scan_s / point_avg_s.max(1e-12),
        range_speedup: full_scan_s / range_s.max(1e-12),
        point_cache_hits: point_cache.hits,
        point_cache_misses: point_cache.misses,
        range_cache_hits: range_cache.hits,
        range_cache_misses: range_cache.misses,
    }
}

/// Run the storage sweep at the reference size.
pub fn storage_bench() -> StorageBench {
    storage_bench_sized(65_536)
}

/// Run the storage sweep with an `indexed_records`-record log behind the
/// indexed rows. `every_record` appends fewer records than the
/// batched policies because each one costs an fsync; rates are still
/// directly comparable since everything is reported per second.
pub fn storage_bench_sized(indexed_records: u64) -> StorageBench {
    const RECORD_BYTES: usize = 256;
    const BATCHED_RECORDS: u64 = 16_384;
    let payload = vec![0xa5u8; RECORD_BYTES];
    let (every_record, dir) = bench_append("every_record", FlushPolicy::EveryRecord, 512, &payload);
    let _ = std::fs::remove_dir_all(&dir);
    let (group_commit_256, group) =
        bench_append("group_commit_256", FlushPolicy::EveryN(256), BATCHED_RECORDS, &payload);
    let (manual, dir) = bench_append("manual", FlushPolicy::Manual, BATCHED_RECORDS, &payload);
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery scan: reopen the group-commit log (many segments, all
    // committed) and time the checksum pass, again best-of-TRIALS.
    let mut recovery =
        RecoveryBench { records: 0, segments: 0, wall_s: f64::INFINITY, records_per_s: 0.0 };
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        let (log, recovered, report) =
            SegmentedLog::open(&group, LogConfig::default()).expect("reopen bench log");
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(recovered.len() as u64, BATCHED_RECORDS, "clean reopen recovers every record");
        assert!(!report.torn, "clean reopen reports no tear");
        log.abandon(); // nothing appended; reopen must leave the log as-is
        if wall_s < recovery.wall_s {
            recovery = RecoveryBench {
                records: recovered.len() as u64,
                segments: report.segments as u64,
                wall_s,
                records_per_s: recovered.len() as f64 / wall_s.max(1e-12),
            };
        }
    }
    let _ = std::fs::remove_dir_all(&group);
    StorageBench {
        record_bytes: RECORD_BYTES,
        append: AppendPolicies { every_record, group_commit_256, manual },
        recovery,
        codec: codec_bench(),
        scale: ScaleBench { indexed: indexed_bench(indexed_records) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_sweep_measures_all_policies() {
        // a 1/16-size indexed log keeps the unit test fast; the artifact
        // is taken by `repro bench storage` at the reference size
        let b = storage_bench_sized(4096);
        assert_eq!(b.record_bytes, 256);
        let a = &b.append;
        for (policy, rate) in [
            ("every_record", a.every_record.records_per_s),
            ("group_commit_256", a.group_commit_256.records_per_s),
            ("manual", a.manual.records_per_s),
        ] {
            assert!(rate > 0.0, "{policy}: rate must be positive");
        }
        assert_eq!(b.recovery.records, 16_384);
        assert!(b.recovery.segments >= 1);
        assert!(b.recovery.records_per_s > 0.0);
        assert!(b.codec.records > 0 && b.codec.replay_events > 0);
        assert!(
            b.codec.binary_bytes < b.codec.json_bytes,
            "binary encoding must be smaller than JSON ({} vs {})",
            b.codec.binary_bytes,
            b.codec.json_bytes
        );
        assert!(b.codec.encode_mib_s > 0.0 && b.codec.decode_mib_s > 0.0);
        assert!(b.codec.replay_binary_ms > 0.0);
        // indexed rows: structural soundness here; the ≥10x floors are
        // gate rows, judged by `repro check storage` at the reference size
        let idx = &b.scale.indexed;
        assert_eq!(idx.records, 4096);
        assert!(idx.full_scan_ms > 0.0 && idx.reader_open_ms > 0.0);
        assert!(idx.point_avg_us > 0.0 && idx.range_ms > 0.0);
        assert!(
            idx.point_speedup > 1.0,
            "an indexed point read must beat a full scan (speedup {})",
            idx.point_speedup
        );
        assert!(idx.range_speedup > 1.0, "range speedup {}", idx.range_speedup);
        assert!(
            idx.point_cache_hits + idx.point_cache_misses > 0,
            "point reads must touch the block cache"
        );
        assert!(idx.range_cache_misses > 0, "a fresh-cache range read must miss at least once");
    }
}

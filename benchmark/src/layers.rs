//! Per-layer numbers: each layer exercised alone on the events the
//! workload's cycle carries.
//!
//! Most layers are only reachable inside `SimCluster::run` or
//! `ArchivedRun::open`, so a span around those calls cannot tell them
//! apart. After the traced cycles, [`replay`] takes each of the
//! workload's subject runs (see `Pipeline::subjects`) and drives every
//! layer by itself through its public API, inside [`Kind::Replay`] spans.
//! Times and counts are summed over the subject runs; rates are total
//! work over total time.
//!
//! [`Kind::Replay`]: crate::trace::Kind::Replay

use std::collections::BTreeMap;
use std::path::Path;

use dtf::core::events::{ProvRecord, ProxyAction};
use dtf::core::stats::percentile;
use dtf::mofka::bedrock::BedrockConfig;
use dtf::mofka::producer::PartitionStrategy;
use dtf::mofka::{ConsumerConfig, Event, MofkaService, ProducerConfig};
use dtf::perfrecup::archive::ArchivedRun;
use dtf::perfrecup::{data_movement, export, lineage};
use dtf::store::{FlushPolicy, LogConfig, LogReader, ReaderOptions, SegmentedLog};
use dtf::wms::plugins::MofkaPlugin;
use dtf::wms::rundata::ARCHIVE_META_KEY;
use dtf::wms::RunData;
use dtf::workflows::RunSummary;

use crate::trace::Tracer;
use crate::workloads::{
    dispatch, event_count, follow, run_kernels, simulate, Features, RecordedRun, RunSpec,
};

/// Point reads timed against the indexed log reader, per subject run.
const POINT_READS: u64 = 2000;

const MIB: f64 = (1 << 20) as f64;

/// The nine WMS topics, task-scoped ones first (they partition by task
/// key, as `MofkaPlugin` and the simulator's Darshan sink set them up).
const TOPICS: [(&str, bool); 9] = [
    ("task-meta", true),
    ("task-transitions", true),
    ("worker-transitions", true),
    ("task-done", true),
    ("comm-events", true),
    ("proxy-events", true),
    ("warnings", false),
    ("logs", false),
    ("io-records", false),
];

fn topic_of(record: &ProvRecord) -> usize {
    match record {
        ProvRecord::TaskMeta(_) => 0,
        ProvRecord::Transition(_) => 1,
        ProvRecord::WorkerTransition(_) => 2,
        ProvRecord::TaskDone(_) => 3,
        ProvRecord::Comm(_) => 4,
        ProvRecord::Proxy(_) => 5,
        ProvRecord::Warning(_) => 6,
        ProvRecord::Log(_) => 7,
        ProvRecord::Io(_) => 8,
    }
}

/// Every event of a run as a typed record, topic by topic.
fn records_of(data: &RunData) -> Vec<ProvRecord> {
    let mut out: Vec<ProvRecord> = Vec::with_capacity(event_count(data) as usize);
    out.extend(data.meta.iter().cloned().map(ProvRecord::from));
    out.extend(data.transitions.iter().cloned().map(ProvRecord::from));
    out.extend(data.worker_transitions.iter().cloned().map(ProvRecord::from));
    out.extend(data.task_done.iter().cloned().map(ProvRecord::from));
    out.extend(data.comms.iter().cloned().map(ProvRecord::from));
    out.extend(data.proxies.iter().cloned().map(ProvRecord::from));
    out.extend(data.warnings.iter().cloned().map(ProvRecord::from));
    out.extend(data.logs.iter().cloned().map(ProvRecord::from));
    out.extend(data.online_io.iter().cloned().map(ProvRecord::from));
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.filter_map(|e| e.ok()?.metadata().ok()).filter(|m| m.is_file()).map(|m| m.len()).sum()
}

fn fresh_service() -> MofkaService {
    BedrockConfig::wms_default().bootstrap().expect("service bootstraps")
}

#[derive(Default)]
struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One simulated run inside a replay span: the record it produced and
/// the walls of its `generate`, `SimCluster::new` and `run` calls.
fn timed_sim(
    t: &mut Tracer,
    name: &'static str,
    spec: RunSpec,
    features: Features,
    persist: Option<&Path>,
) -> (RunData, [f64; 3]) {
    let mark = t.mark();
    let (data, _) = t.replay(name, |t| simulate(t, spec, features, persist));
    let walls =
        ["workflows.generate", "wms.cluster_new", "wms.run"].map(|n| t.total_since(mark, n));
    (data, walls)
}

/// Drive every layer alone on each subject run. `durable` says whether
/// the workload's own runs persist (its `wms.run_s` is then the persisted,
/// all-on run; otherwise the plain in-memory one).
pub fn replay(
    t: &mut Tracer,
    subjects: &[RunSpec],
    durable: bool,
    seed: u64,
    dir: &Path,
) -> BTreeMap<&'static str, f64> {
    // `s`: declared metrics that are plain sums over the subject runs;
    // `aux`: sums the derived metrics below are computed from
    let (mut s, mut aux) = (Sums::default(), Sums::default());
    let mut refreshes: Vec<f64> = Vec::new();
    let (mut events, mut encoded_bytes) = (0u64, 0u64);
    // `[open wall, reopen wall, run-meta bytes]` of the one archive that
    // is opened in full
    let archived = RunSpec::archived(seed);
    let mut archive = None;
    for &spec in subjects {
        let store = dir.join("replay-store");
        let _ = std::fs::remove_dir_all(&store);

        // the same run five ways; differences of `wms.run` walls isolate
        // the store's write-through, the proxy plane and the online
        // Darshan sink
        let (persisted, p) = timed_sim(t, "sim.persisted", spec, Features::ON, Some(&store));
        let (all_on, a) = timed_sim(t, "sim.all_on", spec, Features::ON, None);
        let no_proxy = Features { proxy: false, ..Features::ON };
        let (_, b) = timed_sim(t, "sim.no_proxy", spec, no_proxy, None);
        let no_darshan = Features { online_darshan: false, ..Features::ON };
        let (_, c) = timed_sim(t, "sim.no_online_darshan", spec, no_darshan, None);
        let (plain, d) = timed_sim(t, "sim.plain", spec, Features::OFF, None);
        s.add("store.write_through_s", p[2] - a[2]);
        s.add("proxystore.delta_s", a[2] - b[2]);
        s.add("darshan.online_delta_s", a[2] - c[2]);

        let published = |e: &&dtf::core::events::ProxyEvent| {
            matches!(e.action, ProxyAction::Published | ProxyAction::Republished)
        };
        s.add("proxystore.published", all_on.proxies.iter().filter(published).count() as f64);
        let resolved = all_on.proxies.iter().filter(|e| e.action == ProxyAction::Resolved).count();
        s.add("proxystore.resolved", resolved as f64);
        let moved = data_movement::summary(&all_on);
        s.add("proxystore.in_band_bytes", moved.in_band_bytes as f64);
        s.add("proxystore.out_of_band_bytes", moved.out_of_band_bytes as f64);
        s.add("darshan.io_records", all_on.online_io.len() as f64);
        drop(all_on);

        let (own, own_walls) = if durable { (persisted, p) } else { (plain, d) };
        s.add("workflows.generate_s", own_walls[0]);
        s.add("wms.cluster_new_s", own_walls[1]);
        s.add("wms.run_s", own_walls[2]);
        s.add("workflows.tasks", own.distinct_tasks() as f64);
        s.add("wms.summary_s", t.replay("wms.summary", |_| RunSummary::of(&own, false)).1);

        let ((svc, recovery), reopen_s) =
            t.replay("mofka.reopen", |_| MofkaService::reopen(&store).expect("store reopens"));
        s.add("mofka.reopen_s", reopen_s);
        s.add("mofka.restored_events", recovery.restored_events as f64);
        // archive → run record: taken on the run `archive_analyze` archives
        // alone; the two other workloads' archives take 13 s and 45 s to
        // open. Nearly all of an open is parsing the `run-meta` document,
        // whose size moves with the seed's I/O count.
        if spec == archived {
            let run_meta = svc.yokan().get(ARCHIVE_META_KEY).expect("archive holds run-meta");
            let (_, open_s) = t.replay("perfrecup.open_archive", |_| {
                ArchivedRun::open(&store).expect("archive opens")
            });
            archive = Some([open_s, reopen_s, run_meta.len() as f64]);
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(&store);

        let records = records_of(&own);
        events += records.len() as u64;

        // plugin fan-out and drain: what `SimCluster::run` spends getting
        // its events into Mofka and back out as a `RunData`
        let svc = fresh_service();
        let (_, fanout_s) = t.replay("wms.plugin_fanout", |_| {
            let mut plugin =
                MofkaPlugin::new(&svc, ProducerConfig::default()).expect("plugin connects");
            for record in &records {
                dispatch(&mut plugin, record);
            }
            dtf::wms::WmsPlugin::flush(&mut plugin);
        });
        let mut io = svc.producer("io-records", ProducerConfig::default()).expect("io producer");
        for record in records.iter().filter(|r| matches!(r, ProvRecord::Io(_))) {
            io.push(Event::typed(record.clone())).expect("io record appends");
        }
        io.flush().expect("io records flush");
        let (workflow, chart, darshan, start_order) =
            (own.workflow.clone(), own.chart.clone(), own.darshan.clone(), own.start_order.clone());
        let (drained, drain_s) = t.replay("wms.drain", |_| {
            RunData::drain_from_mofka(
                &svc,
                own.run,
                workflow,
                chart,
                darshan,
                own.wall_time,
                start_order,
                own.steals,
            )
            .expect("drain succeeds")
        });
        assert_eq!(event_count(&drained), records.len() as u64, "drain returns every event");
        drop((drained, svc));
        s.add("wms.plugin_fanout_s", fanout_s);
        s.add("wms.drain_s", drain_s);

        // the producer → topic → consumer hop, without the plugin's clone
        let svc = fresh_service();
        let mut producers: Vec<_> = TOPICS
            .iter()
            .map(|&(topic, by_key)| {
                let strategy = if by_key {
                    PartitionStrategy::HashKey("key".into())
                } else {
                    PartitionStrategy::RoundRobin
                };
                svc.producer(topic, ProducerConfig { strategy, ..Default::default() })
                    .expect("producer connects")
            })
            .collect();
        let typed: Vec<(usize, Event)> =
            records.iter().map(|r| (topic_of(r), Event::typed(r.clone()))).collect();
        let (_, produce_s) = t.replay("mofka.produce", |_| {
            for (topic, event) in typed {
                producers[topic].push(event).expect("event appends");
            }
            for producer in &mut producers {
                producer.flush().expect("batch flushes");
            }
        });
        let (consumed, consume_s) = t.replay("mofka.consume", |_| {
            let mut consumed = 0;
            for (topic, _) in TOPICS {
                let cfg = ConsumerConfig { group: "replay".into(), prefetch: 4096 };
                let mut consumer = svc.consumer(topic, cfg).expect("consumer connects");
                consumed += consumer.drain_all().expect("topic drains").len();
            }
            consumed
        });
        assert_eq!(consumed, records.len(), "consumers see every produced event");
        drop((producers, svc));
        s.add("mofka.produce_s", produce_s);
        s.add("mofka.consume_s", consume_s);

        // binary codec, then the segmented log under the default
        // group-commit policy
        let mut buf: Vec<u8> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(records.len());
        let (_, encode_s) = t.replay("core.encode", |_| {
            for record in &records {
                record.encode_binary(&mut buf);
                ends.push(buf.len());
            }
        });
        aux.add("core.encode_s", encode_s);
        encoded_bytes += buf.len() as u64;

        let log_dir = dir.join("replay-log");
        let _ = std::fs::remove_dir_all(&log_dir);
        let cfg = LogConfig { flush: FlushPolicy::EveryN(256), ..LogConfig::default() };
        let (mut log, _, _) = SegmentedLog::open(&log_dir, cfg).expect("log opens");
        let (_, append_s) = t.replay("store.append", |_| {
            let mut start = 0;
            for &end in &ends {
                log.append(&buf[start..end]).expect("record appends");
                start = end;
            }
            log.sync().expect("log syncs");
        });
        s.add("store.append_s", append_s);
        s.add("store.segments", log.segments() as f64);
        drop(log);
        aux.add("store.disk_bytes", dir_bytes(&log_dir) as f64);
        let (recovered, recover_s) = t.replay("store.recover", |_| {
            SegmentedLog::open(&log_dir, cfg).expect("log recovers").2.records
        });
        assert_eq!(recovered, records.len() as u64, "recovery finds every record");
        s.add("store.recover_s", recover_s);

        let (reader, _) =
            LogReader::open(&log_dir, ReaderOptions::default()).expect("reader opens");
        let mut at = spec.seed | 1;
        let (_, point_s) = t.replay("store.point_read", |_| {
            for _ in 0..POINT_READS {
                // Knuth's MMIX LCG; any fixed scatter over the log will do
                at = at.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let idx = (at >> 33) % records.len() as u64;
                std::hint::black_box(reader.get(idx).expect("record reads back"));
            }
        });
        aux.add("store.point_read_s", point_s);
        let (payloads, range_s) = t.replay("store.range_read", |_| reader.range(0, records.len()));
        aux.add("store.range_read_s", range_s);
        let cache = reader.cache_stats();
        aux.add("store.cache_hits", cache.hits as f64);
        aux.add("store.cache_lookups", (cache.hits + cache.misses) as f64);
        let (decoded, decode_s) = t.replay("core.decode", |_| {
            payloads.iter().filter(|p| ProvRecord::decode_binary(p).is_ok()).count()
        });
        assert_eq!(decoded, records.len(), "every stored record decodes");
        aux.add("core.decode_s", decode_s);
        drop((payloads, reader, records, buf));
        let _ = std::fs::remove_dir_all(&log_dir);

        // post-hoc PERFRECUP over the run record
        let mark = t.mark();
        s.add(
            "perfrecup.kernels_s",
            t.replay("kernels", |t| run_kernels(t, "perfrecup.kernels", &own)).1,
        );
        s.add("perfrecup.task_io_join_s", t.total_since(mark, "perfrecup.task_io_join"));
        let (lineages, lineage_s) =
            t.replay("perfrecup.lineage", |_| lineage::build_all(&own).len());
        s.add("perfrecup.lineage_s", lineage_s);
        aux.add("perfrecup.lineages", lineages as f64);
        let export_dir = dir.join("replay-export");
        let (_, export_s) = t
            .replay("perfrecup.export", |_| export::export_run(&own, &export_dir).expect("export"));
        s.add("perfrecup.export_s", export_s);
        s.add("perfrecup.export_bytes", dir_bytes(&export_dir) as f64);
        let _ = std::fs::remove_dir_all(&export_dir);

        // the online engine over the same events
        let recorded = RecordedRun::of(own);
        let mark = t.mark();
        let last = recorded.last.clone();
        let ((_, _, walls), _) = t.replay("live", |t| follow(t, &recorded, last, "replay"));
        for (metric, span) in [
            ("perfrecup.live_feed_s", "perfrecup.live_feed"),
            ("perfrecup.live_pump_s", "perfrecup.live_pump"),
            ("perfrecup.live_publish_s", "perfrecup.live_publish"),
            ("perfrecup.live_finalize_s", "perfrecup.live_finalize"),
        ] {
            s.add(metric, t.total_since(mark, span));
        }
        refreshes.extend(walls);
    }

    let [open_s, reopen_s, run_meta_bytes] =
        archive.expect("the archived run is among every workload's subject runs");
    let mut out = s.0.clone();
    let n = events as f64;
    // what is left of the run once its telemetry path (and, for a durable
    // run, the store's write-through) is taken out: scheduler + platform
    let telemetry = s.get("wms.plugin_fanout_s") + s.get("wms.drain_s");
    let write_through = if durable { s.get("store.write_through_s") } else { 0.0 };
    out.insert("wms.sim_self_s", s.get("wms.run_s") - telemetry - write_through);
    out.insert("wms.tasks_per_s", s.get("workflows.tasks") / s.get("wms.run_s"));
    out.insert("mofka.produce_events_per_s", n / s.get("mofka.produce_s"));
    out.insert("store.append_records_per_s", n / s.get("store.append_s"));
    out.insert("store.bytes_per_event", aux.get("store.disk_bytes") / n);
    out.insert(
        "store.point_read_us",
        aux.get("store.point_read_s") * 1e6 / (POINT_READS * subjects.len() as u64) as f64,
    );
    out.insert("store.range_read_ms", aux.get("store.range_read_s") * 1e3);
    out.insert(
        "store.cache_hit_ratio",
        aux.get("store.cache_hits") / aux.get("store.cache_lookups"),
    );
    out.insert("core.encode_mib_s", encoded_bytes as f64 / MIB / aux.get("core.encode_s"));
    out.insert("core.decode_mib_s", encoded_bytes as f64 / MIB / aux.get("core.decode_s"));
    out.insert("core.binary_bytes_per_event", encoded_bytes as f64 / n);
    out.insert("perfrecup.open_archive_s", open_s);
    out.insert("perfrecup.archive_drain_s", open_s - reopen_s);
    out.insert("perfrecup.run_meta_bytes", run_meta_bytes);
    out.insert(
        "perfrecup.lineage_tasks_per_s",
        aux.get("perfrecup.lineages") / s.get("perfrecup.lineage_s"),
    );
    out.insert("perfrecup.live_refreshes", refreshes.len() as f64);
    out.insert("perfrecup.live_refresh_p50_ms", percentile(&refreshes, 0.50) * 1e3);
    out.insert("perfrecup.live_refresh_p95_ms", percentile(&refreshes, 0.95) * 1e3);
    out
}

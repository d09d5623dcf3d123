//! Durable-store archive gates: the fixed-seed acceptance criteria of the
//! dtf-store subsystem, pinned against golden fingerprints.
//!
//! Three properties are gated here:
//!
//! 1. Turning persistence on must not perturb the simulation — a
//!    fixed-seed persistent run's export bundle must match the *same*
//!    golden (`export_fnv64.txt`) the non-durable pipeline is pinned to.
//! 2. A fresh-process archive reopen ([`RunData::open_archive`]) must
//!    reconstruct the event stream byte-identically: export bundles of
//!    the live and the archived run are compared file-for-file.
//! 3. After a fixed tail corruption of the topic log, reopen recovers
//!    exactly the committed prefix: the recovery oracle passes and the
//!    recovered stream's fingerprint is pinned (`store_recovery_fnv64.txt`).
//!
//! Regenerate goldens (only deliberately) with:
//!
//! ```text
//! DTF_UPDATE_GOLDEN=1 cargo test --release --test store_archive
//! ```

use std::path::{Path, PathBuf};

use std::collections::HashSet;

use dtf::chaos::{
    copy_store, generate, recovery_oracle, schedule_seed, CrashFault, CrashKind, CrashTarget,
};
use dtf::core::fault::InterferenceBurst;
use dtf::core::fnv64;
use dtf::core::ids::{GraphId, RunId};
use dtf::core::rngx::RunRng;
use dtf::core::time::{Dur, Time};
use dtf::mofka::MofkaService;
use dtf::perfrecup::archive::ArchivedRun;
use dtf::perfrecup::export::export_run;
use dtf::wms::rundata::{ArchiveMeta, ARCHIVE_META_KEY};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::{GraphBuilder, RunData, SimAction};
use dtf::workflows::{replay, Workload};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_golden() -> bool {
    std::env::var_os("DTF_UPDATE_GOLDEN").is_some()
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if update_golden() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} missing ({e}); see module docs", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden fingerprint (regenerate deliberately \
         with DTF_UPDATE_GOLDEN=1)"
    );
}

fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dtf-store-archive-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same fixed-seed run `tests/wire_format.rs` pins its goldens to —
/// campaign seed 13, run 0, ImageProcessing, online Darshan — but with
/// persistence pointed at `store`.
fn persistent_fixed_seed_run(store: &Path) -> RunData {
    persistent_run(Workload::ImageProcessing, store, features(13, false, true))
}

/// Run 0 of `seed`; `proxy` turns the out-of-band plane on and
/// `online_darshan` the online Darshan stream (both on is what the
/// benchmark's `campaign_durable` persists).
fn features(seed: u64, proxy: bool, online_darshan: bool) -> SimConfig {
    let mut cfg =
        SimConfig { campaign_seed: seed, run: RunId(0), online_darshan, ..Default::default() };
    cfg.proxy.enabled = proxy;
    cfg
}

/// `workload` on `cfg`, adjusted for the workload and persisted to
/// `store`.
fn persistent_run(workload: Workload, store: &Path, cfg: SimConfig) -> RunData {
    let mut cfg = SimConfig { persist_dir: Some(store.to_string_lossy().into_owned()), ..cfg };
    workload.adjust(&mut cfg);
    let rr = RunRng::new(cfg.campaign_seed, cfg.run);
    SimCluster::new(cfg).unwrap().run(workload.generate(&rr)).unwrap()
}

/// Export `data` into a fresh dir and fingerprint every file, in the same
/// `{name} {fnv:016x} {len}` shape as the wire-format golden.
fn export_fingerprint(data: &RunData, dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    export_run(data, dir).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut fingerprint = String::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        fingerprint.push_str(&format!("{name} {:016x} {}\n", fnv64(&bytes), bytes.len()));
    }
    let _ = std::fs::remove_dir_all(dir);
    fingerprint
}

/// Canonical text rendering of everything a reopened service exposes:
/// topics sorted, partitions in order, one line per stored event, with its
/// id and seq.
fn stream_text(svc: &MofkaService) -> String {
    let mut out = String::new();
    for name in svc.topic_names() {
        let topic = svc.topic(&name).unwrap();
        for p in 0..topic.num_partitions() {
            for (i, e) in topic.read(p, 0, usize::MAX >> 1).unwrap().iter().enumerate() {
                out.push_str(&format!(
                    "{name}/{p}/{i} {} {} {} {}\n",
                    e.id,
                    e.seq,
                    e.event.data.len(),
                    e.event.record.to_value()
                ));
            }
        }
    }
    out
}

/// Gate 1: persistence is a pure tap on the event path. The export bundle
/// of a persistent fixed-seed run must match the golden captured from the
/// non-durable pipeline — byte for byte, same golden file.
#[test]
fn persistent_run_export_matches_the_non_durable_golden() {
    let store = scratch("perturb");
    let data = persistent_fixed_seed_run(&store);
    let fingerprint = export_fingerprint(&data, &scratch("perturb-export"));
    std::fs::remove_dir_all(&store).unwrap();
    check_golden("export_fnv64.txt", &fingerprint);
}

/// Gate 2: a fresh-process reopen of the store directory reconstructs the
/// run — for every paper workload, persisted with the proxy plane and
/// online Darshan on. The binary `run-meta` document loses nothing (chart,
/// Darshan logs, start order with its same-instant ties, wall time and
/// steals equal the live run's), the export bundle is the live one byte
/// for byte, no repair is needed, and the perfrecup views build from it.
#[test]
fn archive_reopen_reconstructs_the_export_byte_identically() {
    let mut proxy_events = 0;
    for workload in Workload::ALL {
        let store = scratch("reopen");
        let live = persistent_run(workload, &store, features(13, true, true));
        proxy_events += live.proxies.len();
        let live_print = export_fingerprint(&live, &scratch("reopen-live"));

        let archived = ArchivedRun::open(&store).unwrap();
        assert!(!archived.was_repaired(), "clean shutdown needs no repair");
        assert!(archived.recovery.restored_events > 0, "the archive holds the event stream");
        let data = &archived.data;
        assert_eq!(data.chart, live.chart, "{workload:?}");
        assert_eq!(data.darshan, live.darshan, "{workload:?}");
        assert_eq!(data.start_order, live.start_order, "{workload:?}");
        assert_eq!(data.wall_time, live.wall_time, "{workload:?}");
        assert_eq!(data.steals, live.steals, "{workload:?}");
        let arch_print = export_fingerprint(data, &scratch("reopen-arch"));
        assert_eq!(live_print, arch_print, "{workload:?}: archived export must be live's");

        assert!(!data.task_done.is_empty(), "the archived run holds its task records");

        // reopening is read-only: a second open sees the identical stream
        let again = ArchivedRun::open(&store).unwrap();
        assert_eq!(again.recovery.restored_events, archived.recovery.restored_events);
        std::fs::remove_dir_all(&store).unwrap();
    }
    assert!(proxy_events > 0, "the proxy plane engaged");
}

/// Gate 4: the archive is the run's specification. Every cell —
/// workload × {seed 13 run 0, seed 42 run 1} × {no faults, a generated
/// schedule} × {proxy plane and online Darshan both off, both on}, and
/// one run with a producer batch of one — is persisted, then re-run
/// through [`replay`] from its archive alone, and every file of the
/// replay's export bundle is the archive's, as are its start order, proxy
/// lifecycle and online I/O records, which the bundle does not hold. A setting the
/// archive did not hold would replay at its default and move a file or a
/// record. The batch is such a setting on purpose: its cell replays at
/// the default 64 to the same bytes, which is why `run-meta` leaves it
/// out.
#[test]
fn every_archived_run_replays_to_its_own_export_bundle() {
    let mut cells = Vec::new();
    for workload in Workload::ALL {
        for (seed, run) in [(13, 0), (42, 1)] {
            for faulted in [false, true] {
                for on in [false, true] {
                    let mut cfg = SimConfig { run: RunId(run), ..features(seed, on, on) };
                    if faulted {
                        cfg.faults = generate(schedule_seed(seed, 0));
                    }
                    cells.push((workload, cfg));
                }
            }
        }
    }
    cells.push((Workload::Xgboost, SimConfig { mofka_batch: 1, ..features(42, true, true) }));
    for (workload, cfg) in cells {
        let cell = format!(
            "{workload:?} seed {} run {} faults {} proxy {} online {} batch {}",
            cfg.campaign_seed,
            cfg.run,
            cfg.faults.len(),
            cfg.proxy.enabled,
            cfg.online_darshan,
            cfg.mofka_batch
        );
        let store = scratch("replay");
        persistent_run(workload, &store, cfg);
        let archived = ArchivedRun::open(&store).unwrap().data;
        let replayed = replay(&store).unwrap_or_else(|e| panic!("{cell}: {e}"));
        // the bundle holds neither stream nor the start order: compare
        // them as records
        assert_eq!(replayed.start_order, archived.start_order, "{cell}: other start order");
        assert_eq!(replayed.proxies, archived.proxies, "{cell}: other proxy records");
        assert_eq!(replayed.online_io, archived.online_io, "{cell}: other online I/O records");
        let archived = export_fingerprint(&archived, &scratch("replay-archived"));
        let replayed = export_fingerprint(&replayed, &scratch("replay-replayed"));
        assert_eq!(replayed, archived, "{cell}: the replay exports other bytes");
        std::fs::remove_dir_all(&store).unwrap();
    }
}

/// A hand-built workflow persisted as `name`: eight independent tasks.
fn persist_hand_built(name: &str, store: &Path) {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for i in 0..8 {
        b.add_sim("hand", tok, i, vec![], SimAction::compute_only(Dur::from_secs_f64(0.5), 64));
    }
    let workflow = SimWorkflow {
        name: name.into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    };
    let cfg = SimConfig {
        persist_dir: Some(store.to_string_lossy().into_owned()),
        ..features(13, false, false)
    };
    SimCluster::new(cfg).unwrap().run(workflow).unwrap();
}

/// The replay refuses what it cannot regenerate, by name and before it
/// simulates: a workflow that is not a paper workload, and a workflow
/// named after one whose graphs its generator does not build.
#[test]
fn replay_refuses_an_unknown_workflow_and_a_drifted_generator() {
    let store = scratch("replay-unknown");
    persist_hand_built("hand-built", &store);
    let err = replay(&store).unwrap_err().to_string();
    assert!(err.contains("\"hand-built\" is not a paper workload"), "{err}");
    std::fs::remove_dir_all(&store).unwrap();

    let store = scratch("replay-drifted");
    persist_hand_built("ImageProcessing", &store);
    let err = replay(&store).unwrap_err().to_string();
    assert!(err.contains("generator drifted: ImageProcessing regenerates as"), "{err}");
    std::fs::remove_dir_all(&store).unwrap();
}

/// A hostile archive is refused, not run: its `run-meta` decodes with a
/// PFS burst whose factor is NaN, and the replay returns the config error
/// that names the burst instead of panicking in the load model.
#[test]
fn replay_refuses_an_archived_setting_the_simulator_cannot_run() {
    let store = scratch("replay-hostile");
    persistent_run(Workload::ImageProcessing, &store, features(42, false, false));
    let svc = MofkaService::durable(&store).unwrap();
    let mut meta = ArchiveMeta::decode(&svc.yokan().get(ARCHIVE_META_KEY).unwrap()).unwrap();
    let nan = InterferenceBurst { start: Time::ZERO, stop: Time(1), factor: f64::NAN };
    meta.config.faults.pfs_bursts.push(nan);
    svc.yokan().put(ARCHIVE_META_KEY, meta.encode());
    svc.sync().unwrap();
    drop(svc);
    let err = replay(&store).unwrap_err().to_string();
    assert!(err.contains("faults.pfs_bursts[0]"), "{err}");
    std::fs::remove_dir_all(&store).unwrap();
}

/// Gate 3: a fixed tail corruption of the topic log recovers exactly
/// the committed prefix — the oracle passes, the loss is visible in the
/// recovery report, and the recovered stream is pinned by fingerprint.
#[test]
fn corrupted_tail_recovers_committed_prefix_to_golden() {
    let store = scratch("corrupt");
    let _live = persistent_fixed_seed_run(&store);
    let (pristine, clean) = MofkaService::reopen(&store).unwrap();
    assert!(!clean.yokan.torn && !clean.warabi.torn && !clean.topics.torn);

    // Fixed fault, not seed-generated: the gate must always hit the
    // topic log's tail, whatever CrashFault::generate(seed) would pick.
    let fault =
        CrashFault { target: CrashTarget::TopicLog, kind: CrashKind::TruncateTail, seed: 0xD7F5 };
    let victim = scratch("corrupt-victim");
    copy_store(&store, &victim).unwrap();
    let (_file, at) = fault.apply(&victim).unwrap();
    assert!(at > 0);

    let (recovered, recovery) = MofkaService::reopen(&victim).unwrap();
    assert!(recovery.topics.torn, "the tear must be detected and reported");
    assert!(
        recovery.restored_events <= clean.restored_events,
        "recovery can only lose events past the cut, never invent them"
    );
    let violations = recovery_oracle(&pristine, &recovered);
    assert!(violations.is_empty(), "recovery oracle violations: {violations:?}");

    // The recovered stream is a deterministic function of (seed 13, fault
    // 0xD7F5): pin it. The full text is fingerprinted, not stored.
    let text = stream_text(&recovered);
    let fingerprint = format!(
        "{:016x} {} events {} bytes\n",
        fnv64(text.as_bytes()),
        recovery.restored_events,
        text.len()
    );
    std::fs::remove_dir_all(&victim).unwrap();
    std::fs::remove_dir_all(&store).unwrap();
    check_golden("store_recovery_fnv64.txt", &fingerprint);
}

/// The traffic of a persisted run. Yokan holds what is key-value — topic
/// configs, group cursors, run metadata — and stays small however long
/// the run; Warabi holds nothing, since events carry no payload and the
/// proxy plane keeps its blobs in a store of its own. The event stream is
/// in the topic log, never under per-slot keys or blobs. That traffic is
/// what lets the KV replay its whole log on every open, and the blob
/// store reopen by the same full scan; route a stream through either and
/// this fails before a profile has to find it.
#[test]
fn persisted_run_keeps_the_event_stream_out_of_yokan() {
    for workload in Workload::ALL {
        // the proxy plane and online Darshan both off, then both on
        for on in [false, true] {
            let store = scratch("kv-size");
            let data = persistent_run(workload, &store, features(13, on, on));
            assert!(data.transitions.len() > 10_000, "a run big enough to tell a log from a map");
            let (yokan, report) = dtf::mofka::yokan::Yokan::replay(&store.join("yokan")).unwrap();
            assert!(yokan.len() < 200, "{workload:?}/{on}: yokan holds {} keys", yokan.len());
            assert!(yokan.list_prefix("topic-log/").is_empty());
            assert!(
                report.records < 256,
                "{workload:?}/{on}: yokan's log holds {}",
                report.records
            );
            for entry in std::fs::read_dir(store.join("yokan")).unwrap() {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                assert!(
                    name.starts_with("seg-") && (name.ends_with(".dtl") || name.ends_with(".dti")),
                    "{workload:?}/{on}: yokan/ holds {name}"
                );
            }
            let (_, blobs) = dtf::mofka::warabi::Warabi::replay(&store.join("warabi")).unwrap();
            assert_eq!(blobs.records, 0, "{workload:?}/{on}: warabi/ holds blobs");
            std::fs::remove_dir_all(&store).unwrap();
        }
    }
}

/// The frame checksum's value is the contract, not its loop: a store
/// written when `crc32` still walked one byte at a time
/// (`tests/fixtures/bytewise_crc_archive`, 12 events over two partitions
/// and one Yokan key, produced at the commit before slicing-by-8) must
/// verify frame for frame through dtf-store — nothing torn, nothing
/// dropped, every record back. Its Yokan records are in the hand-coded KV
/// layout before the declared `KvRecord`, and its slots are JSON-era
/// (metadata kind 0): layouts the store no longer holds, so the service
/// refuses the store — the KV replay first — rather than skipping or
/// misreading them.
#[test]
fn archive_written_with_the_bytewise_crc_reopens_clean() {
    use dtf::store::{LogConfig, SegmentedLog};

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bytewise_crc_archive");
    // recovery may repair on disk; never let it touch the committed fixture
    let store = scratch("bytewise-crc");
    copy_store(&fixture, &store).unwrap();

    let mut recovered = Vec::new();
    for (name, records) in [("yokan", 2), ("warabi", 0), ("topics", 13)] {
        let (log, frames, report) =
            SegmentedLog::open(&store.join(name), LogConfig::default()).unwrap();
        drop(log);
        assert!(!report.torn, "{name}: a frame failed its checksum");
        assert_eq!(report.dropped_segments, 0, "{name}: a segment header failed its checksum");
        assert_eq!(report.truncated_bytes, 0, "{name}");
        assert_eq!(report.segments, 1, "{name}");
        assert_eq!(report.records, records, "{name}");
        assert_eq!(frames.len() as u64, records, "{name}");
        recovered.push(frames);
    }
    let holds = |frames: &[bytes::Bytes], needle: &str| {
        frames.iter().any(|f| f.windows(needle.len()).any(|w| w == needle.as_bytes()))
    };
    assert!(holds(&recovered[0], "fixture/meta") && holds(&recovered[0], "bytewise"));
    for i in 0..12 {
        assert!(
            holds(&recovered[2], &format!("\"i\":{i},")),
            "event {i} missing from the topic log"
        );
    }

    let refused = MofkaService::reopen(&store).unwrap_err().to_string();
    assert!(refused.contains("kv wal record"), "{refused}");
    std::fs::remove_dir_all(&store).unwrap();
}

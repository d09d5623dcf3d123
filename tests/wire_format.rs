//! Wire-format gates for the typed provenance pipeline.
//!
//! Provenance records flow typed from the WMS plugins through Mofka into
//! `RunData`; JSON is rendered only at the export/replay boundaries. These
//! tests pin those boundaries byte-for-byte against golden fingerprints
//! captured from the eager-JSON pipeline, so any refactor of the event
//! path that changes an exported artifact — or the replay behavior of an
//! archived chaos schedule — fails loudly.
//!
//! Regenerate the goldens (only when an output change is intended and
//! documented) with:
//!
//! ```text
//! DTF_UPDATE_GOLDEN=1 cargo test --release --test wire_format
//! ```

use std::path::{Path, PathBuf};

use dtf::chaos::{generate, run_faults, schedule_seed, transition_log, workers};
use dtf::core::events::TaskState;
use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::core::{fnv64, fnv64_extend};
use dtf::perfrecup::export::export_run;
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::wms::RunData;
use dtf::workflows::Workload;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_golden() -> bool {
    std::env::var_os("DTF_UPDATE_GOLDEN").is_some()
}

/// Compare `actual` against the golden file, or rewrite it in update mode.
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
        "{name} drifted from the golden fingerprint: an export/replay boundary \
         changed its bytes (regenerate deliberately with DTF_UPDATE_GOLDEN=1)"
    );
}

/// The fixed-seed run every export fingerprint derives from. Online
/// Darshan is enabled so the streamed io-records leg of the pipeline is
/// inside the gate too.
fn fixed_seed_run() -> RunData {
    let workload = Workload::ImageProcessing;
    let mut cfg =
        SimConfig { campaign_seed: 13, run: RunId(0), online_darshan: true, ..Default::default() };
    workload.adjust(&mut cfg);
    let rr = RunRng::new(13, RunId(0));
    SimCluster::new(cfg).unwrap().run(workload.generate(&rr)).unwrap()
}

/// A file's rows as a set: the FNV-64 of its lines (each with its
/// terminator) sorted bytewise, then the line count. It holds still when
/// only the order of rows moves, e.g. the drain order of equal-time events.
fn rows_fingerprint(bytes: &[u8]) -> String {
    let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    lines.sort_unstable();
    let sorted: Vec<u8> = lines.concat();
    format!("{:016x} {}", fnv64(&sorted), lines.len())
}

/// Every file of a fixed-seed perfrecup export bundle — CSV views, the
/// provenance chart, the manifest, the binary Darshan logs — must be
/// byte-identical to the golden bundle. The rows golden is checked first:
/// a change that only reorders rows fails the byte golden alone.
#[test]
fn export_bundle_is_byte_identical_to_golden() {
    let data = fixed_seed_run();
    let dir = std::env::temp_dir().join(format!("dtf-wire-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = export_run(&data, &dir).unwrap();
    assert!(n >= 18, "export bundle unexpectedly small: {n} files");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut fingerprint = String::new();
    let mut rows = String::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        // why quoting `\r` fields (RFC 4180) moved no pinned byte: the
        // golden bundle's CSVs hold no carriage return to quote
        assert!(!name.ends_with(".csv") || !bytes.contains(&b'\r'), "{name} holds a CR");
        fingerprint.push_str(&format!("{name} {:016x} {}\n", fnv64(&bytes), bytes.len()));
        rows.push_str(&format!("{name} {}\n", rows_fingerprint(&bytes)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    check_golden("export_rows_fnv64.txt", &rows);
    check_golden("export_fnv64.txt", &fingerprint);
}

/// An archived chaos schedule must still parse to the schedule its seed
/// generates, and that schedule replay (as a chaos run: proxy plane on) to
/// the same canonical transition log, deterministically.
#[test]
fn archived_chaos_schedule_replays_identically() {
    let schedule_path = golden_dir().join("chaos_schedule.json");
    let seed = schedule_seed(42, 7);
    if update_golden() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&schedule_path, generate(seed, workers()).to_json().unwrap()).unwrap();
        eprintln!("updated golden {}", schedule_path.display());
    }
    let archived = std::fs::read_to_string(&schedule_path)
        .unwrap_or_else(|e| panic!("golden {} missing ({e})", schedule_path.display()));
    let archived = serde_json::from_str(&archived).expect("archived schedule parses");
    let faults = generate(seed, workers());
    assert_eq!(serde_json::to_value(&faults).unwrap(), archived, "the archive is the seed's");
    assert_eq!(archived["seed"], seed, "archive carries its generating seed");

    let first = run_faults(seed, 7, &faults).unwrap();
    let second = run_faults(seed, 7, &faults).unwrap();
    let log = transition_log(&first);
    assert_eq!(log, transition_log(&second), "replay must be deterministic");
    let fingerprint = format!("{:016x} {}\n", fnv64(log.as_bytes()), log.len());
    check_golden("chaos_transition_fnv64.txt", &fingerprint);
}

/// Chaos campaign 20240806's schedules 0..200, each run once: their
/// canonical transition logs in index order, the FNV-64 and length of
/// their start orders in index order, and how many worker deaths,
/// duplicated fetches and recomputes they hold. Run once per test binary;
/// the three campaign pins read it.
struct Campaign {
    logs: Vec<String>,
    start_orders: (u64, usize),
    deaths: usize,
    duplicates: usize,
    recomputes: usize,
}

/// Extend the `(FNV-64, entries)` fingerprint `(h, n)` with a run's start
/// order, one `key ns` line per entry.
fn start_order_fold((h, n): (u64, usize), data: &RunData) -> (u64, usize) {
    let text: String = data.start_order.iter().map(|(k, t)| format!("{k} {}\n", t.0)).collect();
    (fnv64_extend(h, text.as_bytes()), n + data.start_order.len())
}

const CAMPAIGN_SEED: u64 = 20240806;

fn campaign() -> &'static Campaign {
    static CAMPAIGN: std::sync::OnceLock<Campaign> = std::sync::OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let mut c = Campaign {
            logs: Vec::new(),
            start_orders: (fnv64(&[]), 0),
            deaths: 0,
            duplicates: 0,
            recomputes: 0,
        };
        for index in 0..200 {
            let seed = schedule_seed(CAMPAIGN_SEED, index);
            let faults = generate(seed, workers());
            c.deaths += faults.deaths.len();
            c.duplicates += faults.fetch_faults.iter().filter(|f| f.duplicate).count();
            let data = run_faults(seed, index, &faults).unwrap();
            c.recomputes += data
                .transitions
                .iter()
                .filter(|t| t.from == TaskState::Memory && t.to == TaskState::Released)
                .count();
            c.logs.push(transition_log(&data));
            c.start_orders = start_order_fold(c.start_orders, &data);
        }
        c
    })
}

/// Schedules 0..200 of chaos campaign 20240806, each run once: one FNV-64
/// over their canonical transition logs in index order. `repro
/// chaos-replay` prints a schedule and a verdict, not the transitions, so
/// this is the gate that the scheduler's schedule — every transition,
/// worker transition and completion, in order — did not move. The set
/// holds worker deaths, duplicated fetches and recomputes, whose order
/// follows the scheduler's key-ordered walks.
#[test]
fn chaos_campaign_transitions_are_pinned() {
    let c = campaign();
    let h = c.logs.iter().fold(fnv64(&[]), |h, log| fnv64_extend(h, log.as_bytes()));
    let log_bytes: usize = c.logs.iter().map(String::len).sum();
    assert!(
        !generate(schedule_seed(CAMPAIGN_SEED, 54), workers()).deaths.is_empty(),
        "index 54 kills"
    );
    assert!(c.deaths > 0 && c.duplicates > 0 && c.recomputes > 0, "the set holds every fault");
    check_golden("chaos_campaign_fnv64.txt", &format!("{h:016x} {log_bytes}\n"));
}

/// The same 200 logs as rows: one FNV-64 over each log's lines sorted
/// bytewise, in index order, then the line count. It holds still when only
/// the order of equal-time records moves, so beside the pin above it tells
/// a reordering from a changed schedule.
#[test]
fn chaos_campaign_transition_rows_are_pinned() {
    let (mut h, mut rows) = (fnv64(&[]), 0usize);
    for log in &campaign().logs {
        let mut lines: Vec<&str> = log.split_inclusive('\n').collect();
        lines.sort_unstable();
        rows += lines.len();
        h = lines.iter().fold(h, |h, line| fnv64_extend(h, line.as_bytes()));
    }
    check_golden("chaos_campaign_rows_fnv64.txt", &format!("{h:016x} {rows}\n"));
}

/// The order tasks began executing in: the 200 campaign runs above, then
/// run 0 of each paper workload at campaign seed 42. One `label FNV-64
/// entries` line each, over `key ns` lines in stored order, so a moved
/// start, a moved instant or a reordered tie all show.
#[test]
fn start_orders_are_pinned() {
    let (h, n) = campaign().start_orders;
    let mut pin = format!("chaos-{CAMPAIGN_SEED}-0..200 {h:016x} {n}\n");
    for workload in Workload::ALL {
        let mut cfg = SimConfig { campaign_seed: 42, run: RunId(0), ..Default::default() };
        workload.adjust(&mut cfg);
        let rr = RunRng::new(42, RunId(0));
        let data = SimCluster::new(cfg).unwrap().run(workload.generate(&rr)).unwrap();
        let (h, n) = start_order_fold((fnv64(&[]), 0), &data);
        pin.push_str(&format!("{}-42-0 {h:016x} {n}\n", workload.name()));
    }
    check_golden("start_order_fnv64.txt", &pin);
}

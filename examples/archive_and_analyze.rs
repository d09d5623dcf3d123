//! Run a workload with durable persistence, then analyze it *post hoc*:
//! reopen the on-disk store as a fresh process would, rebuild the run
//! record from the recovered event stream, and run the same analyses —
//! plus the FAIR tabular export — from the archive alone.
//!
//! ```sh
//! cargo run --release --example archive_and_analyze [output-dir]
//! ```
//!
//! `output-dir` holds two things afterwards: `store/` (the dtf-store
//! segment files Yokan/Warabi wrote during the run) and `export/` (the
//! CSV/JSON bundle exported from the *reopened* archive, not the live
//! run).

use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::core::time::Time;
use dtf::perfrecup::archive::ArchivedRun;
use dtf::perfrecup::{category, export, utilization, zoom};
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::workflows::Workload;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "dtf-archive".to_string());
    let out = std::path::PathBuf::from(&out_dir);
    let store = out.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let workload = Workload::ImageProcessing;
    let seed = 21;

    // 1. simulate with persistence on: every Mofka topic writes through
    //    Yokan (metadata WAL) and Warabi (blob log) into `store/`.
    let rr = RunRng::new(seed, RunId(0));
    let workflow = workload.generate(&rr);
    let mut cfg = SimConfig {
        campaign_seed: seed,
        run: RunId(0),
        persist_dir: Some(store.to_string_lossy().into_owned()),
        ..Default::default()
    };
    workload.adjust(&mut cfg);
    println!("simulating {} (persisting to {}) ...", workload.name(), store.display());
    let live = SimCluster::new(cfg).expect("cluster").run(workflow).expect("run");
    let live_tasks = live.distinct_tasks();
    drop(live); // from here on, the store directory is the only source

    // 2. reopen as a fresh process image would: replay the WALs, trim to
    //    the committed prefix, rebuild the RunData from the event stream.
    let archived = ArchivedRun::open(&store).expect("archive opens");
    println!(
        "reopened archive: {} events restored across {} yokan + {} warabi + {} topic-log segments{}",
        archived.recovery.restored_events,
        archived.recovery.yokan.segments,
        archived.recovery.warabi.segments,
        archived.recovery.topics.segments,
        if archived.was_repaired() { " (repaired a torn tail)" } else { "" }
    );
    let data = &archived.data;
    assert_eq!(data.distinct_tasks(), live_tasks, "archive reconstructs every task");

    // 3. FAIR tabular export — from the archive, not the live run
    let export_dir = out.join("export");
    let n = export::export_run(data, &export_dir).expect("export");
    println!("archived {n} files to {}/", export_dir.display());

    // 4. per-category statistics (which task types dominate?)
    println!("\ntop task categories by mean duration:");
    for stat in category::per_category(data).into_iter().take(5) {
        println!(
            "  {:<22} {:>5} tasks  mean {:>7.3}s  io {:>5} ops / {:>8.1} MB",
            stat.category,
            stat.tasks,
            stat.duration.mean,
            stat.io_ops,
            stat.io_bytes as f64 / (1 << 20) as f64
        );
    }

    // 5. zoom into the middle of the run
    let t0 = Time::from_secs_f64(data.wall_time.as_secs_f64() * 0.4);
    let t1 = Time::from_secs_f64(data.wall_time.as_secs_f64() * 0.6);
    let w = zoom::stats(data, t0, t1);
    println!(
        "\nzoom [{:.0}s..{:.0}s]: {} tasks active ({} started, {} finished), \
         {} comms, {} I/O ops, {} warnings",
        w.t0.as_secs_f64(),
        w.t1.as_secs_f64(),
        w.tasks_active,
        w.tasks_started,
        w.tasks_finished,
        w.comms_active,
        w.io_ops,
        w.warnings
    );

    // 6. utilization: was the cluster balanced?
    let threads = data.chart.wms_config.threads_per_worker;
    let utils = utilization::per_worker(data, 12, threads);
    let imbalance = utilization::imbalance(&utils);
    println!("\nper-window mean utilization / imbalance:");
    for (i, im) in imbalance.iter().enumerate() {
        let mean: f64 = utils.iter().map(|u| u.busy[i]).sum::<f64>() / utils.len() as f64;
        println!("  window {i:>2}: {:>4.0}% busy, {:>4.0}% imbalance", mean * 100.0, im * 100.0);
    }

    println!("\nreload check: the archived CSVs and manifests are plain files —");
    let manifest = std::fs::read_to_string(export_dir.join("manifest.json")).expect("manifest");
    let parsed: serde_json::Value = serde_json::from_str(&manifest).expect("valid json");
    println!(
        "  manifest says {} tasks over {} graphs, wall {:.1}s",
        parsed["distinct_tasks"], parsed["task_graphs"], parsed["wall_time_s"]
    );
}

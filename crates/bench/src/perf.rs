//! Machine-readable performance artifact: `BENCH_repro.json`.
//!
//! One `repro bench` invocation measures the numbers the perf trajectory
//! tracks across PRs — per-workflow campaign wall time (sequential vs the
//! parallel pool), runs/sec, the scheduler-throughput number and the
//! DataFrame kernel throughputs — and serializes them as one JSON
//! document (schema 10: `storage.scale` holds the indexed-read rows only;
//! the KV snapshot-recovery rows went with the snapshots).

use std::time::Instant;

use serde::Serialize;

use dtf_core::ids::{GraphId, NodeId, ThreadId, WorkerId};
use dtf_core::table::Value;
use dtf_core::time::{Dur, Time};
use dtf_perfrecup::frame::{Agg, DataFrame};
use dtf_wms::graph::{GraphBuilder, SimAction, TaskGraph};
use dtf_wms::plugins::PluginSet;
use dtf_wms::scheduler::{Scheduler, SchedulerConfig};
use dtf_workflows::{Campaign, Workload};

/// The `BENCH_repro.json` document. Field names are the public contract:
/// CI uploads this artifact and cross-PR tooling diffs it.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    pub schema: u32,
    pub seed: u64,
    /// Logical cores the measurement ran on (speedups are bounded by it).
    pub cores: usize,
    /// Pool size used for the parallel campaign measurements.
    pub parallel_jobs: usize,
    pub scheduler_throughput: SchedulerThroughput,
    pub frame_kernels: FrameKernels,
    /// Events/s through plugin → producer → topic → `RunData` ingest.
    pub provenance_pipeline: crate::provenance::ProvenancePipeline,
    /// dtf-store append throughput per flush policy, recovery-scan rate,
    /// codec rows, and the indexed-read rows (schema 6).
    pub storage: crate::storage::StorageBench,
    /// Many-client aggregate throughput through the sharded real-time
    /// data plane (schema 5).
    pub stress: crate::stress::StressBench,
    /// Incremental live-view maintenance vs full recompute, with the
    /// live/post-hoc equivalence verdict (schema 7).
    pub views: crate::liveviews::ViewBench,
    /// Out-of-band proxy-plane ablation: scheduler-mediated byte reduction
    /// on a data-heavy workflow plus resolver fast-path latency (schema 8).
    pub proxy: crate::proxy::ProxyBench,
    pub campaigns: Vec<CampaignBench>,
}

#[derive(Debug, Serialize)]
pub struct SchedulerThroughput {
    pub tasks: u64,
    pub wall_s: f64,
    pub tasks_per_s: f64,
}

#[derive(Debug, Serialize)]
pub struct FrameKernels {
    pub rows: u64,
    pub group_by_s: f64,
    pub group_by_rows_per_s: f64,
    pub sort_by_s: f64,
}

#[derive(Debug, Serialize)]
pub struct CampaignBench {
    pub workload: String,
    pub runs: u32,
    pub sequential_wall_s: f64,
    pub parallel_wall_s: f64,
    pub speedup: f64,
    /// Runs per second of real time under the parallel pool.
    pub runs_per_s: f64,
    /// Mean *simulated* wall time per run (the paper-facing quantity;
    /// must be identical under both pool sizes).
    pub mean_sim_wall_s: f64,
}

/// Drive a wide graph to completion against the bare scheduler —
/// the same loop as the `scheduler_throughput` Criterion bench, timed
/// with a single wall clock so the number lands in the artifact.
fn drive_wide(n: u32) -> f64 {
    const WORKERS: u32 = 32;
    const THREADS: u32 = 4;
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for i in 0..n {
        b.add_sim("w", tok, i, vec![], SimAction::compute_only(Dur(1_000), 64));
    }
    let graph: TaskGraph = b.build(&Default::default()).unwrap();
    let t0 = Instant::now();
    let mut s = Scheduler::new(SchedulerConfig::default(), PluginSet::new());
    for w in 0..WORKERS {
        s.add_worker(WorkerId::new(NodeId(w / 4), w % 4), THREADS);
    }
    let mut actions = s.submit_graph(graph, Time::ZERO).unwrap();
    let mut t = 0u64;
    loop {
        let mut progressed = false;
        while let Some(a) = actions.pop() {
            let dtf_wms::scheduler::Action::Fetch { dep, to, .. } = a;
            progressed = true;
            s.fetch_done(&dep, to, Time(t));
        }
        for w in s.worker_ids() {
            while let Some(key) = s.try_start(w, Time(t)) {
                progressed = true;
                t += 1;
                actions.extend(s.task_finished(&key, w, ThreadId(1), Time(t - 1), Time(t), 64));
            }
        }
        actions.extend(s.rebalance(Time(t)));
        if !progressed && actions.is_empty() {
            break;
        }
    }
    assert_eq!(s.unfinished(), 0, "benchmark graph must drain completely");
    t0.elapsed().as_secs_f64()
}

/// The DataFrame kernel measurement: `group_by` and `sort_by` over a
/// 100k-row frame.
fn frame_kernels(rows: u64) -> FrameKernels {
    let mut left = DataFrame::new(vec!["k".into(), "x".into()]);
    left.reserve(rows as usize);
    for i in 0..rows {
        left.push_row(vec![Value::U64(i % 4096), Value::F64(i as f64)]).unwrap();
    }
    let reps = 5u32;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(left.group_by("k", "x", Agg::Mean).unwrap().n_rows());
    }
    let group_by_s = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(left.sort_by("x").unwrap().n_rows());
    }
    let sort_by_s = t0.elapsed().as_secs_f64() / reps as f64;
    FrameKernels {
        rows,
        group_by_s,
        group_by_rows_per_s: rows as f64 / group_by_s.max(1e-12),
        sort_by_s,
    }
}

fn campaign_bench(workload: Workload, seed: u64, runs: u32, jobs: usize) -> CampaignBench {
    let mut base = Campaign::paper(workload, seed).with_jobs(1);
    base.runs = runs;
    base.keep_first = false;
    let t0 = Instant::now();
    let seq = base.execute().expect("sequential campaign");
    let sequential_wall_s = t0.elapsed().as_secs_f64();
    let par_campaign = base.clone().with_jobs(jobs);
    let t0 = Instant::now();
    let par = par_campaign.execute().expect("parallel campaign");
    let parallel_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        serde_json::to_string(&seq.summaries).unwrap(),
        serde_json::to_string(&par.summaries).unwrap(),
        "parallel campaign output must be byte-identical to sequential"
    );
    CampaignBench {
        workload: workload.name().to_string(),
        runs,
        sequential_wall_s,
        parallel_wall_s,
        speedup: sequential_wall_s / parallel_wall_s.max(1e-12),
        runs_per_s: runs as f64 / parallel_wall_s.max(1e-12),
        mean_sim_wall_s: par.mean_wall().as_secs_f64(),
    }
}

/// Run every measurement and build the report. `jobs` defaults to
/// `DTF_JOBS`, then `available_parallelism`.
pub fn bench_report(seed: u64, runs: u32, jobs: Option<usize>) -> BenchReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel_jobs = jobs
        .or_else(|| std::env::var("DTF_JOBS").ok().and_then(|s| s.parse().ok()))
        .filter(|&n| n >= 1)
        .unwrap_or(cores);
    const WIDE: u32 = 100_000;
    let wall_s = drive_wide(WIDE);
    let scheduler_throughput = SchedulerThroughput {
        tasks: WIDE as u64,
        wall_s,
        tasks_per_s: WIDE as f64 / wall_s.max(1e-12),
    };
    let frame = frame_kernels(100_000);
    let provenance = crate::provenance::provenance_pipeline(2_000, 3);
    let storage = crate::storage::storage_bench();
    let stress = crate::stress::stress_bench(&crate::stress::StressConfig::full());
    assert!(
        stress.violations.is_empty(),
        "stress run reported delivery violations: {:?}",
        stress.violations
    );
    let views = crate::liveviews::view_bench();
    assert!(views.equivalent, "live views diverged from the post-hoc kernels");
    let proxy = crate::proxy::proxy_bench();
    assert!(proxy.identical, "proxy plane perturbed the schedule");
    let campaigns =
        Workload::ALL.iter().map(|&w| campaign_bench(w, seed, runs, parallel_jobs)).collect();
    BenchReport {
        schema: 10,
        seed,
        cores,
        parallel_jobs,
        scheduler_throughput,
        frame_kernels: frame,
        provenance_pipeline: provenance,
        storage,
        stress: stress.bench,
        views,
        proxy,
        campaigns,
    }
}

/// Render the report as the `BENCH_repro.json` document plus a short
/// human-readable summary for the console.
pub fn bench_artifact(seed: u64, runs: u32, jobs: Option<usize>) -> (String, String) {
    let report = bench_report(seed, runs, jobs);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let mut text = String::new();
    use std::fmt::Write as _;
    writeln!(
        text,
        "scheduler throughput: {:.0} tasks/s ({} tasks in {:.2}s)",
        report.scheduler_throughput.tasks_per_s,
        report.scheduler_throughput.tasks,
        report.scheduler_throughput.wall_s
    )
    .unwrap();
    writeln!(
        text,
        "frame kernels ({} rows): group_by {:.1}ms, sort {:.1}ms",
        report.frame_kernels.rows,
        report.frame_kernels.group_by_s * 1e3,
        report.frame_kernels.sort_by_s * 1e3
    )
    .unwrap();
    writeln!(
        text,
        "provenance pipeline: {:.0} events/s ({} events in {:.2}s)",
        report.provenance_pipeline.events_per_s,
        report.provenance_pipeline.events,
        report.provenance_pipeline.wall_s
    )
    .unwrap();
    for a in &report.storage.append {
        writeln!(
            text,
            "store append [{}]: {:.0} records/s ({:.1} MiB/s, {} x {}B)",
            a.policy,
            a.records_per_s,
            a.bytes_per_s / (1024.0 * 1024.0),
            a.records,
            report.storage.record_bytes
        )
        .unwrap();
    }
    writeln!(
        text,
        "store recovery: {:.0} records/s ({} records, {} segments in {:.3}s)",
        report.storage.recovery.records_per_s,
        report.storage.recovery.records,
        report.storage.recovery.segments,
        report.storage.recovery.wall_s
    )
    .unwrap();
    writeln!(
        text,
        "store codec: encode {:.0} MiB/s, decode {:.0} MiB/s, replay {:.1}ms",
        report.storage.codec.encode_mib_s,
        report.storage.codec.decode_mib_s,
        report.storage.codec.replay_binary_ms
    )
    .unwrap();
    writeln!(
        text,
        "stress plane: {:.2}M events/s aggregate ({} producers x {} events, {} groups, \
         {:.2}s wall)",
        report.stress.aggregate_events_per_s / 1e6,
        report.stress.producers,
        report.stress.events_per_producer,
        report.stress.consumer_groups,
        report.stress.wall_s
    )
    .unwrap();
    writeln!(
        text,
        "live views: Δ-refresh {:.2}ms vs recompute {:.1}ms ({:.0}x, {} events, \
         equivalent: {})",
        report.views.delta_refresh_ms,
        report.views.recompute_ms,
        report.views.speedup,
        report.views.events,
        report.views.equivalent
    )
    .unwrap();
    writeln!(
        text,
        "proxy plane: in-band {:.1} MiB -> {:.3} MiB ({:.0}x reduction, {} transfers, \
         resolve {:.0}ns, identical: {})",
        report.proxy.in_band_bytes_off as f64 / (1024.0 * 1024.0),
        report.proxy.in_band_bytes_on as f64 / (1024.0 * 1024.0),
        report.proxy.scheduler_bytes_reduction,
        report.proxy.transfers,
        report.proxy.resolve_ns,
        report.proxy.identical
    )
    .unwrap();
    for c in &report.campaigns {
        writeln!(
            text,
            "{}: {} runs, sequential {:.2}s, parallel({} jobs) {:.2}s, speedup {:.2}x ({} cores)",
            c.workload,
            c.runs,
            c.sequential_wall_s,
            report.parallel_jobs,
            c.parallel_wall_s,
            c.speedup,
            report.cores
        )
        .unwrap();
    }
    (json, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kernel_measurement_is_sane() {
        let k = frame_kernels(10_000);
        assert!(k.group_by_rows_per_s > 0.0);
        assert!(k.sort_by_s > 0.0);
    }
}

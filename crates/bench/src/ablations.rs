//! Ablations of the design choices DESIGN.md calls out.

use std::fmt::Write as _;

use dtf_core::ids::RunId;
use dtf_core::rngx::RunRng;
use dtf_darshan::DxtConfig;
use dtf_perfrecup::schedule_order;
use dtf_wms::sim::{SimCluster, SimConfig};
use dtf_workflows::{Campaign, Workload};

/// A deliberately imbalanced workflow: per-worker root datasets of very
/// different fan-out, with children pinned to their root's worker by a
/// huge (expensive-to-move) dependency. This is the regime in which Dask's
/// work stealing engages: locality concentrates ready backlogs on a few
/// workers while others idle (paper §V calls stealing out as a runtime
/// decision with data-movement costs).
fn skewed_workflow() -> dtf_wms::sim::SimWorkflow {
    use dtf_core::ids::GraphId;
    use dtf_core::time::Dur;
    use dtf_wms::{GraphBuilder, SimAction};
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for root_idx in 0..8u32 {
        let root = b.add_sim(
            "shard",
            tok,
            root_idx,
            vec![],
            // 8 GB shard: children stay put unless stolen
            SimAction::compute_only(Dur::from_secs_f64(1.0), 8 << 30),
        );
        // skewed fan-out: shard k has 12k children
        for c in 0..(12 * root_idx) {
            b.add_sim(
                "analyze",
                tok + 1 + root_idx,
                c,
                vec![root],
                SimAction::compute_only(Dur::from_secs_f64(2.0), 1 << 20),
            );
        }
    }
    dtf_wms::sim::SimWorkflow {
        name: "skewed".into(),
        graphs: vec![b.build(&Default::default()).expect("valid graph")],
        submit: dtf_wms::sim::SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

/// Work stealing on/off (paper §V: stealing is a runtime decision that may
/// hurt via data movement).
pub fn stealing(seed: u64, runs: u32) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "ABLATION: work stealing on/off (skewed shard-analysis workflow, {runs} runs each)"
    )
    .unwrap();
    writeln!(out, "  (eager dispatch; per-shard fan-out skew pins uneven backlogs to workers)")
        .unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    for enabled in [true, false] {
        let mut walls = Vec::new();
        let mut comms = Vec::new();
        let mut steals = 0u64;
        for run in 0..runs {
            let mut cfg = SimConfig { campaign_seed: seed, run: RunId(run), ..Default::default() };
            cfg.wms.queue_factor = 1e9; // eager dispatch
            cfg.wms.work_stealing = enabled;
            let data = SimCluster::new(cfg).expect("cluster").run(skewed_workflow()).expect("run");
            walls.push(data.wall_time.as_secs_f64());
            comms.push(data.comm_count() as f64);
            steals += data.steals;
        }
        let w = dtf_core::stats::Summary::of(&walls);
        let cm = dtf_core::stats::Summary::of(&comms);
        writeln!(
            out,
            "  stealing={:<5} wall {:.1}s +/- {:.1}s   comms {:.0} +/- {:.0}   steals/run {:.0}",
            enabled,
            w.mean,
            w.std,
            cm.mean,
            cm.std,
            steals as f64 / runs as f64
        )
        .unwrap();
    }
    writeln!(out, "  Expectation: stealing trades extra data movement (more comms, each").unwrap();
    writeln!(out, "  dragging an 8 GB shard) for load balance (shorter wall time) — the").unwrap();
    writeln!(out, "  trade-off the paper flags as a variability source.").unwrap();
    out
}

/// DXT buffer-size sweep: reproduces footnote 9 (ResNet152 trace
/// truncation) and shows when the trace becomes complete.
pub fn dxt_buffer(seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "ABLATION: Darshan DXT buffer limit (ResNet152, 1 run each)").unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    writeln!(
        out,
        "{:>14} {:>12} {:>12} {:>11}",
        "buffer/worker", "traced ops", "actual ops", "truncated"
    )
    .unwrap();
    for buf in [256usize, 820, 2048, 8192, 32768] {
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        cfg.dxt = DxtConfig::with_buffer(buf);
        let rr = RunRng::new(seed, RunId(0));
        let wf = Workload::ResNet152.generate(&rr);
        let data = SimCluster::new(cfg).expect("cluster").run(wf).expect("run");
        writeln!(
            out,
            "{:>14} {:>12} {:>12} {:>11}",
            buf,
            data.io_ops(),
            data.io_ops_complete(),
            data.darshan.any_truncated()
        )
        .unwrap();
    }
    writeln!(out, "  Paper footnote 9: default buffers truncate the ResNet152 trace").unwrap();
    writeln!(out, "  (2057-2302 of 3929 reads); larger buffers recover the full trace.").unwrap();
    out
}

/// Vanilla vs extended DXT: the pthread-id extension is what makes the
/// task<->I/O join possible at all.
pub fn dxt_thread_ids(seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "ABLATION: DXT pthread-id extension (ImageProcessing, 1 run each)").unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    for (label, dxt) in
        [("vanilla DXT", DxtConfig::vanilla()), ("extended DXT", DxtConfig::default())]
    {
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        cfg.dxt = dxt;
        let rr = RunRng::new(seed, RunId(0));
        let wf = Workload::ImageProcessing.generate(&rr);
        let data = SimCluster::new(cfg).expect("cluster").run(wf).expect("run");
        let views = dtf_perfrecup::RunViews::new(&data);
        writeln!(
            out,
            "  {:<14} I/O-to-task attribution rate: {:>5.1}%",
            label,
            views.io_attribution_rate() * 100.0
        )
        .unwrap();
    }
    writeln!(out, "  The paper's extension (§III-E3) records pthread ids in DXT; without").unwrap();
    writeln!(out, "  them no I/O record can be correlated with its task.").unwrap();
    out
}

/// Scheduling-order similarity across runs (§IV-D).
pub fn schedule_order_similarity(seed: u64, runs: u32) -> String {
    let mut c = Campaign::paper(Workload::ImageProcessing, seed);
    c.runs = runs;
    c.keep_order = true;
    let r = c.execute().expect("campaign executes");
    let orders: Vec<_> = r.summaries.iter().filter_map(|s| s.start_order.clone()).collect();
    let m = schedule_order::pairwise(&orders, 400);
    let mut out = String::new();
    writeln!(out, "ABLATION: scheduling-order similarity across runs (ImageProcessing)").unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    writeln!(
        out,
        "  {} runs, pairwise Kendall tau: mean {:.3}, min {:.3}, max {:.3}",
        m.runs, m.summary.mean, m.summary.min, m.summary.max
    )
    .unwrap();
    writeln!(out, "  Dynamic scheduling keeps the order similar (submission priority) but")
        .unwrap();
    writeln!(out, "  never identical run to run — one of the paper's variability sources.")
        .unwrap();
    out
}

/// Mofka producer batch-size sweep: measured wall-clock cost of streaming
/// one run's full instrumentation through the event service.
pub fn mofka_batch(seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "ABLATION: Mofka producer batch size (ImageProcessing, 1 run each)").unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    writeln!(out, "{:>11} {:>14} {:>14}", "batch size", "events", "harness time").unwrap();
    for batch in [1usize, 16, 64, 256, 1024] {
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        cfg.mofka_batch = batch;
        let rr = RunRng::new(seed, RunId(0));
        let wf = Workload::ImageProcessing.generate(&rr);
        let t0 = std::time::Instant::now();
        let data = SimCluster::new(cfg).expect("cluster").run(wf).expect("run");
        let elapsed = t0.elapsed();
        let events =
            data.transitions.len() + data.task_done.len() + data.comms.len() + data.meta.len();
        writeln!(out, "{:>11} {:>14} {:>11.0} ms", batch, events, elapsed.as_secs_f64() * 1e3)
            .unwrap();
    }
    writeln!(out, "  Batching amortizes per-event synchronization in the streaming service")
        .unwrap();
    writeln!(out, "  (harness time includes the simulation itself; deltas are Mofka cost).")
        .unwrap();
    out
}

/// The executor's overhead (paper §VI future work: "a thorough
/// performance characterization of the overhead of Darshan and Mofka
/// within Dask workflows"), by *Runtime vs Scheduler*'s method: the same
/// closures run on `workers × threads` plain OS threads ("bare threads")
/// and on the streaming `LocalCluster` ("executor"), and the difference is
/// the executor's own cost per task — scheduler, locks, wake-ups and the
/// Mofka stream together. The executor always streams, so it has no row
/// without instrumentation.
pub fn instrumentation_overhead(repetitions: u32) -> String {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Instant;

    use dtf_core::provenance::WmsConfig;
    use dtf_wms::exec::LocalCluster;
    use dtf_wms::graph::TaskValue;
    use dtf_wms::Delayed;

    const TASKS: u32 = 600;
    const WORKERS: u32 = 2;
    const THREADS: u32 = 2;

    /// One task's body: `iters` multiply-adds, its result the value.
    fn task(iters: u64) -> TaskValue {
        let mut acc = 1u64;
        for i in 1..iters {
            acc = acc.wrapping_mul(i | 1);
        }
        TaskValue::new(acc, 8)
    }

    /// Wall time of `TASKS` bodies on `WORKERS × THREADS` threads that
    /// take the next task from one counter.
    fn bare_threads(iters: u64) -> f64 {
        let next = AtomicU32::new(0);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS * THREADS {
                scope.spawn(|| {
                    while next.fetch_add(1, Ordering::Relaxed) < TASKS {
                        std::hint::black_box(task(iters));
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64()
    }

    /// Wall time from the first submission to the last completion of
    /// `TASKS` bodies on the executor; the drain after it is not timed.
    fn executor(iters: u64) -> f64 {
        let cfg = WmsConfig {
            workers_per_node: WORKERS,
            threads_per_worker: THREADS,
            ..Default::default()
        };
        let cluster = LocalCluster::start(cfg).expect("a 2x2 cluster starts");
        let mut client = Delayed::new(&cluster);
        let t0 = Instant::now();
        for _ in 0..TASKS {
            client.delayed("work", vec![], move |_| task(iters));
        }
        client.compute().expect("submit");
        cluster.wait_all();
        let elapsed = t0.elapsed().as_secs_f64();
        let data = cluster.finish("overhead").expect("the run drains");
        assert_eq!(data.task_done.len(), TASKS as usize, "every task completed once");
        elapsed
    }

    let mut out = String::new();
    writeln!(
        out,
        "OVERHEAD: the executor on real threads ({TASKS} tasks, {WORKERS} workers x {THREADS} \
         threads, {repetitions} reps)"
    )
    .unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    for (granularity, iters) in
        [("micro-tasks (~40us)", 40_000u64), ("realistic tasks (~2ms)", 2_000_000u64)]
    {
        writeln!(out, "  task granularity: {granularity}").unwrap();
        let mut row = |label: &str, run: fn(u64) -> f64| {
            let walls: Vec<f64> = (0..repetitions).map(|_| run(iters)).collect();
            let s = dtf_core::stats::Summary::of(&walls);
            let (mean, sd) = (s.mean * 1e3, s.std * 1e3);
            writeln!(out, "    {label:<18} wall {mean:>8.1} ms +/- {sd:>5.1} ms").unwrap();
            s.mean
        };
        let bare = row("bare threads", bare_threads);
        let exec = row("executor", executor);
        writeln!(
            out,
            "    executor cost: {:+.1} us per task ({:+.1}% over bare threads)",
            (exec - bare) * 1e6 / f64::from(TASKS),
            (exec / bare - 1.0) * 100.0
        )
        .unwrap();
    }
    writeln!(out, "  The executor's cost is per task, so its relative weight depends on task")
        .unwrap();
    writeln!(out, "  granularity: visible for microsecond tasks, inside the spread at the")
        .unwrap();
    writeln!(out, "  millisecond-and-up granularity of the paper's workloads.").unwrap();
    out
}

/// Which task categories are responsible for the largest run-to-run
/// variations (the paper's central §I question, answered with the
/// per-category analysis).
pub fn category_variability(seed: u64, runs: u32, workload: Workload) -> String {
    use std::collections::HashMap;
    let mut per_cat: HashMap<String, Vec<f64>> = HashMap::new();
    for run in 0..runs {
        let mut cfg = SimConfig { campaign_seed: seed, run: RunId(run), ..Default::default() };
        workload.adjust(&mut cfg);
        let rr = RunRng::new(seed, RunId(run));
        let data = SimCluster::new(cfg).expect("cluster").run(workload.generate(&rr)).expect("run");
        for stat in dtf_perfrecup::category::per_category(&data) {
            per_cat.entry(stat.category).or_default().push(stat.duration.mean);
        }
    }
    let mut rows: Vec<(String, dtf_core::stats::Summary, f64)> = per_cat
        .into_iter()
        .map(|(cat, means)| {
            let s = dtf_core::stats::Summary::of(&means);
            let cv = if s.mean > 0.0 { s.std / s.mean } else { 0.0 };
            (cat, s, cv)
        })
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite cv"));
    let mut out = String::new();
    writeln!(
        out,
        "CATEGORY VARIABILITY: per-category mean duration across {} {} runs",
        runs,
        workload.name()
    )
    .unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    writeln!(out, "  {:<30} {:>12} {:>10} {:>18}", "category", "mean dur", "cv", "range").unwrap();
    for (cat, s, cv) in rows.iter().take(10) {
        writeln!(out, "  {:<30} {:>10.3}s {:>10.3} {:>8.3}..{:.3}s", cat, s.mean, cv, s.min, s.max)
            .unwrap();
    }
    writeln!(out, "  Categories whose duration varies most across identical runs are the").unwrap();
    writeln!(out, "  prime suspects for irreproducible performance (paper §I).").unwrap();
    out
}

/// Utilization timeline: per-window cluster activity and worker imbalance
/// (the system-level view an LDMS-class service would provide).
pub fn utilization_timeline(seed: u64, workload: Workload) -> String {
    let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
    workload.adjust(&mut cfg);
    let rr = RunRng::new(seed, RunId(0));
    let data = SimCluster::new(cfg).expect("cluster").run(workload.generate(&rr)).expect("run");
    let bins = 16;
    let threads = data.chart.wms_config.threads_per_worker;
    let utils = dtf_perfrecup::utilization::per_worker(&data, bins, threads);
    let imbalance = dtf_perfrecup::utilization::imbalance(&utils);
    let windows = dtf_perfrecup::zoom::timeline(&data, bins);
    let mut out = String::new();
    writeln!(
        out,
        "UTILIZATION TIMELINE: {} ({} workers, {bins} windows)",
        workload.name(),
        utils.len()
    )
    .unwrap();
    writeln!(out, "{:-<84}", "").unwrap();
    writeln!(
        out,
        "  {:>9} {:>9} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "window", "tasks", "comms", "io ops", "warns", "mean util", "imbalance"
    )
    .unwrap();
    for (i, w) in windows.iter().enumerate() {
        let mean_util: f64 =
            utils.iter().map(|u| u.busy[i]).sum::<f64>() / utils.len().max(1) as f64;
        writeln!(
            out,
            "  {:>4.0}-{:<4.0} {:>9} {:>8} {:>8} {:>8} {:>9.0}% {:>8.0}%",
            w.t0.as_secs_f64(),
            w.t1.as_secs_f64(),
            w.tasks_active,
            w.comms_active,
            w.io_ops,
            w.warnings,
            mean_util * 100.0,
            imbalance[i] * 100.0
        )
        .unwrap();
    }
    out
}

//! FAIR-interoperability integration tests (paper §V): every pair of data
//! sources shares at least one identifier, and the cross-source joins that
//! depend on those identifiers actually work — or demonstrably break when
//! the identifier is removed (vanilla DXT).

use std::collections::HashSet;

use dtf::core::ids::{GraphId, RunId};
use dtf::core::time::Dur;
use dtf::darshan::DxtConfig;
use dtf::perfrecup::RunViews;
use dtf::wms::graph::{GraphBuilder, IoCall, SimAction};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::RunData;
use dtf::workflows::Workload;

fn io_workflow() -> SimWorkflow {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for i in 0..24u32 {
        b.add_sim(
            "load",
            tok,
            i,
            vec![],
            SimAction {
                compute: Dur::from_millis_f64(25.0),
                io: vec![IoCall::read(dtf::core::ids::FileId((i % 3) as u64), 0, 64 * 1024)],
                output_nbytes: 4096,
                stall_rate: 0.0,
            },
        );
    }
    SimWorkflow {
        name: "fair-test".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![
            ("/a".into(), 1 << 20, 1),
            ("/b".into(), 1 << 20, 1),
            ("/c".into(), 1 << 20, 1),
        ],
    }
}

fn run_with(cfg: SimConfig) -> RunData {
    SimCluster::new(cfg).unwrap().run(io_workflow()).unwrap()
}

fn run(dxt: DxtConfig) -> RunData {
    run_with(SimConfig { campaign_seed: 2, run: RunId(0), dxt, ..Default::default() })
}

#[test]
fn shared_identifiers_exist_between_every_source_pair() {
    let data = run(DxtConfig::default());

    // tasks <-> transitions: task key
    let done_keys: HashSet<_> = data.task_done.iter().map(|d| d.key).collect();
    let transition_keys: HashSet<_> = data.transitions.iter().map(|t| t.key).collect();
    assert!(done_keys.is_subset(&transition_keys));

    // tasks <-> meta: task key
    let meta_keys: HashSet<_> = data.meta.iter().map(|m| m.key).collect();
    assert_eq!(done_keys, meta_keys);

    // tasks <-> I/O: pthread id and host
    let task_threads: HashSet<_> = data.task_done.iter().map(|d| d.thread).collect();
    for rec in data.darshan.all_records() {
        assert!(task_threads.contains(&rec.thread), "I/O thread unknown to task records");
    }
    let task_hosts: HashSet<_> = data.task_done.iter().map(|d| d.worker.node).collect();
    for rec in data.darshan.all_records() {
        assert!(task_hosts.contains(&rec.host));
    }

    // comms <-> workers: worker addresses
    let worker_set: HashSet<_> = data.task_done.iter().map(|d| d.worker).collect();
    for c in &data.comms {
        assert!(worker_set.contains(&c.from) || worker_set.contains(&c.to));
    }

    // job <-> everything: allocated nodes cover every observed host
    let allocated: HashSet<_> = data.chart.job.allocated_nodes.iter().copied().collect();
    for d in &data.task_done {
        assert!(allocated.contains(&d.worker.node));
    }
}

#[test]
fn io_joins_work_with_extension_and_break_without() {
    let with = run(DxtConfig::default());
    let without = run(DxtConfig::vanilla());
    assert!((RunViews::new(&with).io_attribution_rate() - 1.0).abs() < 1e-9);
    assert_eq!(RunViews::new(&without).io_attribution_rate(), 0.0);
}

#[test]
fn darshan_logs_roundtrip_through_binary_format() {
    // the log format: 8-byte magic, u32 version, u64 payload length, JSON
    fn read_log(bytes: &[u8]) -> serde_json::Value {
        assert_eq!(&bytes[..8], b"DTFDARSH");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        assert_eq!(bytes.len(), 20 + len);
        serde_json::from_slice(&bytes[20..]).unwrap()
    }

    let data = run(DxtConfig::default());
    for log in &data.darshan.logs {
        let bytes = log.to_bytes();
        assert_eq!(read_log(&bytes), serde_json::to_value(log).unwrap());
    }
}

#[test]
fn rundata_serializes_for_archival() {
    // the "common tabular format" must be storable: the whole run record
    // prints as JSON text that parses back to the tree it was printed from
    let data = run(DxtConfig::default());
    let json = serde_json::to_string(&data).unwrap();
    let back = serde_json::from_str(&json).unwrap();
    assert_eq!(back, serde_json::to_value(&data).unwrap());
    assert_eq!(back["task_done"].as_array().unwrap().len(), data.task_done.len());
    assert_eq!(back["chart"], serde_json::to_value(&data.chart).unwrap());
    assert_eq!(back["wall_time"], data.wall_time.0);
}

#[test]
fn provenance_chart_captures_all_layers() {
    let data = run(DxtConfig::default());
    let chart = &data.chart;
    // hardware layer
    assert!(chart.hardware.node_count > 0);
    assert!(!chart.hardware.pfs.is_empty());
    // system software layer
    assert!(!chart.system.packages.is_empty());
    // job configuration layer
    assert!(!chart.job.script.is_empty());
    assert_eq!(chart.job.allocated_nodes.len(), chart.job.nodes_requested as usize);
    // WMS configuration (the distributed.yaml analog)
    assert_eq!(chart.wms_config.workers_per_node, 4);
    assert_eq!(chart.wms_config.threads_per_worker, 8);
    assert_eq!(chart.workflow_name, "fair-test");
}

/// The chart records the WMS configuration the scheduler ran on, not a
/// default beside it: each workload's placement constants after
/// `Workload::adjust`, the stealing period and worker TTL the simulator's
/// event loop runs on, and a stealing-off run's settings.
#[test]
fn the_chart_records_the_wms_config_the_run_ran_with() {
    let pinned = [
        (Workload::ImageProcessing, 180_000_000, 0.62),
        (Workload::ResNet152, 800_000_000, 1.0),
        (Workload::Xgboost, 400_000_000, 0.5),
    ];
    for (workload, bandwidth, est_task_duration_s) in pinned {
        let mut cfg = SimConfig { campaign_seed: 2, run: RunId(0), ..Default::default() };
        workload.adjust(&mut cfg);
        let recorded = run_with(cfg.clone()).chart.wms_config;
        assert_eq!(recorded, cfg.wms, "{}", workload.name());
        assert_eq!(recorded.assumed_bandwidth, bandwidth, "{}", workload.name());
        assert_eq!(recorded.est_task_duration_s, est_task_duration_s, "{}", workload.name());
        // the two Dask periods the simulator's event loop reads
        assert_eq!(recorded.steal_interval_ms, 100, "{}", workload.name());
        assert_eq!(recorded.worker_ttl_ms, 3000, "{}", workload.name());
    }
    let mut cfg = SimConfig { campaign_seed: 2, run: RunId(0), ..Default::default() };
    cfg.wms.work_stealing = false;
    cfg.wms.steal_interval_ms = 250;
    let recorded = run_with(cfg).chart.wms_config;
    assert!(!recorded.work_stealing);
    assert_eq!(recorded.steal_interval_ms, 250);
}

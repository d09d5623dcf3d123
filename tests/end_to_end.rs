//! End-to-end integration: each paper workload simulated once, with the
//! full data path (plugins -> Mofka -> drain; instrumented I/O -> Darshan
//! logs; platform -> provenance chart) and the analysis layer on top.

use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::perfrecup::{io_timeline, lineage, parallel_coords, warnings_dist, RunViews};
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::wms::RunData;
use dtf::workflows::Workload;

fn run_once(workload: Workload, seed: u64) -> RunData {
    let rr = RunRng::new(seed, RunId(0));
    let workflow = workload.generate(&rr);
    let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
    workload.adjust(&mut cfg);
    SimCluster::new(cfg).expect("cluster").run(workflow).expect("run completes")
}

#[test]
fn imageprocessing_full_pipeline() {
    let data = run_once(Workload::ImageProcessing, 5);
    // Table I structure
    assert_eq!(data.task_graphs(), 3);
    assert_eq!(data.distinct_tasks(), 5440);
    assert_eq!(data.distinct_files(), 154); // 151 images + 3 stores
    assert!((5283..=5310).contains(&data.io_ops()), "io ops {}", data.io_ops());
    assert!(!data.darshan.any_truncated());

    // every event source populated
    assert_eq!(data.meta.len(), 5440);
    assert_eq!(data.task_done.len(), 5440);
    assert!(data.transitions.len() >= 3 * 5440);
    assert!(!data.comms.is_empty());
    assert!(!data.logs.is_empty());

    // Fig. 4 signature: three read phases, each with a write burst
    let sig = io_timeline::signature(&data, 2.0);
    assert_eq!(sig.phases.len(), 3);
    assert_eq!(sig.read_phases, 3);
    assert_eq!(sig.phases_with_writes, 3);

    // full I/O attribution through the pthread-id join
    let views = RunViews::new(&data);
    assert!((views.io_attribution_rate() - 1.0).abs() < 1e-9);
}

#[test]
fn resnet_full_pipeline_with_truncation() {
    let data = run_once(Workload::ResNet152, 5);
    assert_eq!(data.task_graphs(), 1);
    assert_eq!(data.distinct_tasks(), 8645);
    assert_eq!(data.distinct_files(), 3929);

    // footnote 9: DXT truncated, counters complete
    assert!(data.darshan.any_truncated());
    assert!(data.io_ops() < data.io_ops_complete());
    assert!(
        (1900..=2600).contains(&data.io_ops()),
        "traced ops {} outside expected truncation window",
        data.io_ops()
    );

    // a predict task's lineage has its 4-5 transform dependencies
    let key = data
        .meta
        .iter()
        .find(|m| m.key.prefix == "predict")
        .map(|m| m.key)
        .expect("predicts exist");
    let l = lineage::build(&data, &key).unwrap();
    assert!(l.dependencies.len() >= 4);
    assert!(l.is_consistent());
}

#[test]
fn xgboost_full_pipeline() {
    let data = run_once(Workload::Xgboost, 5);
    assert_eq!(data.task_graphs(), 74);
    assert_eq!(data.distinct_tasks(), 10348);
    assert_eq!(data.distinct_files(), 61);
    assert!((854..=1700).contains(&data.io_ops()), "io ops {}", data.io_ops());

    // Fig. 6: the longest category is the fused read; outputs exceed 128MB
    let s = parallel_coords::summary(&data);
    assert_eq!(s.longest_category, "read_parquet-fused-assign");
    assert!(s.oversized_tasks >= 61);
    assert_eq!(s.oversized_categories[0].0, "repartition");

    // Fig. 7: warnings exist, concentrated early, and overlap long tasks
    let rep = warnings_dist::report(&data, 12, 500.0, 60.0);
    assert!(rep.unresponsive > 100, "unresponsive warnings {}", rep.unresponsive);
    assert!(
        rep.unresponsive_early as f64 >= 0.7 * rep.unresponsive as f64,
        "warnings should concentrate in the first 500s"
    );
    assert!(rep.long_task_overlap > 0.9);
    assert_eq!(rep.dominant_category.as_deref(), Some("read_parquet-fused-assign"));

    // Fig. 8: the paper's example key class exists and builds a lineage
    let key = data
        .meta
        .iter()
        .find(|m| m.key.prefix == "getitem__get_categories" && m.key.index == 63)
        .map(|m| m.key)
        .expect("getitem__get_categories tasks exist");
    let l = lineage::build(&data, &key).unwrap();
    assert!(l.is_consistent());
    assert!(!l.dependencies.is_empty());
    assert!(!l.dependents.is_empty());
    assert!(l.output_nbytes.unwrap() > 0);
}

#[test]
fn transitions_are_legal_and_time_ordered_for_all_workloads() {
    for workload in [Workload::ImageProcessing, Workload::ResNet152] {
        let data = run_once(workload, 9);
        for w in data.transitions.windows(2) {
            assert!(w[0].time <= w[1].time, "transition stream must be time-sorted");
        }
        for t in &data.transitions {
            assert!(
                t.from.can_transition_to(t.to) || t.from == t.to,
                "illegal transition {} -> {} in {}",
                t.from.as_str(),
                t.to.as_str(),
                workload.name()
            );
        }
        // every completed task's final state is memory
        for d in &data.task_done {
            let last = data
                .transitions
                .iter()
                .rfind(|t| t.key == d.key)
                .expect("completed task has transitions");
            assert_eq!(last.to, dtf::core::events::TaskState::Memory);
        }
    }
}

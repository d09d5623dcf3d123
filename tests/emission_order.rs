//! One emission order: a drained run is a function of the run, not of the
//! transport that carried it.
//!
//! Every topic stamps each event with a sequence number when it is pushed,
//! and the drain sorts each record family on `(its time field, seq)`. So
//! neither the partition count of a topic, nor the producers' routing, nor
//! the order a consumer's claims visit partitions in may move a drained
//! record or an exported byte; and every topic's seqs are `0..n`, with no
//! gap and no repeat, whether the run stayed in memory, was reopened from
//! its archive, or ran under Mofka partition stalls.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dtf::chaos::runner::chaos_workflow;
use dtf::chaos::{generate, schedule_seed, workers};
use dtf::core::ids::RunId;
use dtf::core::provenance::WmsConfig;
use dtf::core::rngx::RunRng;
use dtf::mofka::bedrock::{BedrockConfig, TopicSpec, WMS_TOPICS};
use dtf::mofka::producer::{PartitionStrategy, ProducerConfig};
use dtf::mofka::MofkaService;
use dtf::perfrecup::export::export_run;
use dtf::perfrecup::live::republish;
use dtf::wms::exec::LocalCluster;
use dtf::wms::graph::TaskValue;
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::wms::{Delayed, RunData};
use dtf::workflows::Workload;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtf-emission-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run 0 of campaign seed 42, XGBoost (its stalls raise warnings), with
/// the proxy plane and online Darshan on: every one of the nine record
/// families is populated. Persisted to `store` when one is given.
fn seed_42_run(store: Option<&Path>) -> RunData {
    let workload = Workload::Xgboost;
    let mut cfg = SimConfig {
        campaign_seed: 42,
        run: RunId(0),
        online_darshan: true,
        persist_dir: store.map(|s| s.to_string_lossy().into_owned()),
        ..Default::default()
    };
    cfg.proxy.enabled = true;
    workload.adjust(&mut cfg);
    SimCluster::new(cfg).unwrap().run(workload.generate(&RunRng::new(42, RunId(0)))).unwrap()
}

/// Every file of `data`'s export bundle, by name.
fn export_bytes(data: &RunData, label: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = scratch(label);
    export_run(data, &dir).unwrap();
    let files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

/// Assert that every topic of `svc` holds the seqs `0..n`, each once.
fn assert_seqs_complete(svc: &MofkaService, what: &str) {
    for name in svc.topic_names() {
        let topic = svc.topic(&name).unwrap();
        let mut seqs = Vec::new();
        for p in 0..topic.num_partitions() {
            topic
                .visit(p, 0, usize::MAX, |_, seq, _, _| {
                    seqs.push(seq);
                    Ok(())
                })
                .unwrap();
        }
        seqs.sort_unstable();
        let n = seqs.len() as u64;
        assert!(seqs.into_iter().eq(0..n), "{what}: topic {name}'s seqs are not 0..{n}");
    }
}

/// Assert that the nine record families of `got` are `want`'s (naming the
/// one that differs, not printing a run's worth of records).
fn assert_same_records(got: &RunData, want: &RunData, what: &str) {
    assert!(got.meta == want.meta, "{what}: task metadata moved");
    assert!(got.transitions == want.transitions, "{what}: transitions moved");
    assert!(got.worker_transitions == want.worker_transitions, "{what}: worker transitions moved");
    assert!(got.task_done == want.task_done, "{what}: completions moved");
    assert!(got.comms == want.comms, "{what}: transfers moved");
    assert!(got.warnings == want.warnings, "{what}: warnings moved");
    assert!(got.logs == want.logs, "{what}: logs moved");
    assert!(got.proxies == want.proxies, "{what}: proxy events moved");
    assert!(got.online_io == want.online_io, "{what}: online I/O records moved");
}

/// One run republished into services of 1, 2 and 7 partitions per topic,
/// under each partitioning strategy, drains to the same `RunData` and the
/// same export bundle, byte for byte; each of those services' topics
/// holds the seqs `0..n`.
#[test]
fn a_drained_run_does_not_depend_on_partitions_or_routing() {
    let data = seed_42_run(None);
    let populated = [
        data.meta.len(),
        data.transitions.len(),
        data.worker_transitions.len(),
        data.task_done.len(),
        data.comms.len(),
        data.warnings.len(),
        data.logs.len(),
        data.proxies.len(),
        data.online_io.len(),
    ];
    assert!(populated.iter().all(|&n| n > 0), "every family is populated: {populated:?}");
    let exported = export_bytes(&data, "original");

    for partitions in [1, 2, 7] {
        for strategy in [PartitionStrategy::RoundRobin, PartitionStrategy::HashKey("key".into())] {
            let what = format!("{partitions} partitions, {strategy:?}");
            let topics =
                WMS_TOPICS.iter().map(|t| TopicSpec { name: t.name.into(), partitions }).collect();
            let svc = BedrockConfig { topics }.bootstrap().unwrap();
            republish(&data, &svc, ProducerConfig { strategy, ..Default::default() }).unwrap();
            assert_seqs_complete(&svc, &what);
            let again = RunData::drain_from_mofka(
                &svc,
                data.run,
                data.workflow.clone(),
                data.chart.clone(),
                data.darshan.clone(),
                data.wall_time,
                Vec::new(), // ignored: the drain derives the start order
                data.steals,
            )
            .unwrap();
            assert_same_records(&again, &data, &what);
            assert!(export_bytes(&again, "republished") == exported, "{what}: export moved");
        }
    }
}

/// A persisted run reopened from its archive, and chaos runs whose fault
/// schedules stall Mofka partitions (persisted, so the staged events are
/// on disk too): every topic holds the seqs `0..n`, and the archive
/// drains to the live run's records.
#[test]
fn every_topic_of_an_archived_or_stalled_run_holds_the_seqs_0_to_n() {
    let store = scratch("archive");
    let live = seed_42_run(Some(&store));
    let (archive, _) = MofkaService::reopen(&store).unwrap();
    assert_seqs_complete(&archive, "seed 42 archive");
    let (reopened, _) = RunData::open_archive(&store).unwrap();
    assert_same_records(&reopened, &live, "seed 42 archive");
    std::fs::remove_dir_all(&store).unwrap();

    let mut stalled = 0;
    for index in 0..40 {
        let seed = schedule_seed(20240806, index);
        let faults = generate(seed, workers());
        if faults.mofka_stalls.is_empty() {
            continue;
        }
        let store = scratch("stalled");
        let mut cfg = SimConfig {
            campaign_seed: seed,
            run: RunId(index as u32),
            faults,
            invariant_checks: true,
            persist_dir: Some(store.to_string_lossy().into_owned()),
            ..Default::default()
        };
        cfg.proxy.enabled = true;
        let data = SimCluster::new(cfg).unwrap().run(chaos_workflow(seed).unwrap()).unwrap();
        assert!(!data.transitions.is_empty());
        let (archive, _) = MofkaService::reopen(&store).unwrap();
        assert_seqs_complete(&archive, &format!("chaos schedule {index}"));
        std::fs::remove_dir_all(&store).unwrap();
        stalled += 1;
    }
    assert!(stalled >= 3, "only {stalled} schedules stalled a partition");
}

/// The drain by move and the borrowed drain give the same run: for each
/// paper workload at seed 42, with the proxy plane and online Darshan off
/// and on, the run's own drain (by move, at finalize), the archive's (by
/// move, `open_archive`) and a borrowed drain of the reopened archive
/// (`drain_from_mofka`, a copy of the run's service) are equal, and a
/// second borrowed drain of that service gives it again.
#[test]
fn the_drain_by_move_and_the_borrowed_drain_give_the_same_run() {
    for workload in Workload::ALL {
        for on in [false, true] {
            let what = format!("{workload:?}, features {}", if on { "on" } else { "off" });
            let store = scratch("owned");
            let mut cfg = SimConfig {
                campaign_seed: 42,
                run: RunId(0),
                online_darshan: on,
                persist_dir: Some(store.to_string_lossy().into_owned()),
                ..Default::default()
            };
            cfg.proxy.enabled = on;
            workload.adjust(&mut cfg);
            let rr = RunRng::new(42, RunId(0));
            let live = SimCluster::new(cfg).unwrap().run(workload.generate(&rr)).unwrap();
            let (archived, _) = RunData::open_archive(&store).unwrap();
            assert!(archived == live, "{what}: the archive's drain is not the run's");
            let (svc, _) = MofkaService::reopen(&store).unwrap();
            let borrowed = || {
                let l = live.clone();
                RunData::drain_from_mofka(
                    &svc,
                    l.run,
                    l.workflow,
                    l.chart,
                    l.darshan,
                    l.wall_time,
                    Vec::new(),
                    l.steals,
                )
                .unwrap()
            };
            let first = borrowed();
            assert!(first == live, "{what}: the borrowed drain is not the run's");
            assert!(borrowed() == first, "{what}: a borrowed drain changed its service");
            std::fs::remove_dir_all(&store).unwrap();
        }
    }
}

/// An in-memory run on the real executor, its records pushed from the
/// worker threads through the cluster's one plugin: every topic holds the
/// seqs `0..n`.
#[test]
fn every_topic_of_a_real_executor_run_holds_the_seqs_0_to_n() {
    let wms = WmsConfig { workers_per_node: 2, threads_per_worker: 2, ..Default::default() };
    let cluster = LocalCluster::start(wms).unwrap();
    let mut client = Delayed::new(&cluster);
    let leaves: Vec<_> =
        (0..24u64).map(|i| client.delayed("leaf", vec![], move |_| TaskValue::new(i, 8))).collect();
    let sum = client.delayed("sum", leaves, |inputs| {
        TaskValue::new(inputs.iter().map(|v| *v.downcast_ref::<u64>().unwrap()).sum::<u64>(), 8)
    });
    let total = *client.gather(&sum).unwrap().downcast_ref::<u64>().unwrap();
    assert_eq!(total, (0..24).sum::<u64>());
    cluster.wait_all();
    let svc = cluster.service();
    assert_eq!(svc.topic("task-done").unwrap().total_len(), 25);
    assert_seqs_complete(svc, "real executor");
}

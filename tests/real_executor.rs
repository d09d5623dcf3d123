//! Integration tests of the real multi-threaded executor: genuine
//! closures, real data flow, instrumentation identical to the simulator's.
//! Every run ends in `finish`, the drain every run ends in, and its
//! `RunData` passes every chaos oracle (`check_run`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use dtf::chaos::check_run;
use dtf::core::error::DtfError;
use dtf::core::events::{LogEntry, LogLevel, LogSource, TaskState, WorkerTaskState};
use dtf::core::ids::{GraphId, TaskKey};
use dtf::core::provenance::WmsConfig;
use dtf::perfrecup::export::{export_run, CSV_VIEWS};
use dtf::wms::exec::LocalCluster;
use dtf::wms::graph::{GraphBuilder, Payload, TaskValue};
use dtf::wms::{Delayed, RunData};

fn cluster(workers: u32, threads: u32) -> LocalCluster {
    LocalCluster::start(WmsConfig {
        workers_per_node: workers,
        threads_per_worker: threads,
        ..Default::default()
    })
    .unwrap()
}

/// End the run and judge its record with every chaos oracle.
fn finish_clean(cluster: LocalCluster, workflow: &str) -> RunData {
    let data = cluster.finish(workflow).unwrap();
    let violations = check_run(&data);
    assert!(violations.is_empty(), "{workflow}: {violations:?}");
    data
}

/// A cluster of no workers, or of workers with no threads, is a config
/// error from `start`, not an assertion inside it.
#[test]
fn zero_workers_or_threads_is_a_config_error() {
    for (workers, threads) in [(0, 2), (2, 0)] {
        let cfg = WmsConfig {
            workers_per_node: workers,
            threads_per_worker: threads,
            ..Default::default()
        };
        let err = LocalCluster::start(cfg).err().expect("a zero size is refused");
        assert!(matches!(err, DtfError::Config(_)), "{workers}x{threads}: {err}");
    }
}

#[test]
fn two_level_reduction_computes_correctly() {
    let cluster = cluster(3, 2);
    let mut client = Delayed::new(&cluster);
    // 60 leaves -> 6 partial sums -> 1 total
    let leaves: Vec<TaskKey> =
        (0..60i64).map(|i| client.delayed("leaf", vec![], move |_| TaskValue::new(i, 8))).collect();
    let partials: Vec<TaskKey> = leaves
        .chunks(10)
        .map(|chunk| {
            client.delayed("partial", chunk.to_vec(), |deps| {
                let s: i64 = deps.iter().map(|d| *d.downcast_ref::<i64>().unwrap()).sum();
                TaskValue::new(s, 8)
            })
        })
        .collect();
    let total = client.delayed("total", partials, |deps| {
        let s: i64 = deps.iter().map(|d| *d.downcast_ref::<i64>().unwrap()).sum();
        TaskValue::new(s, 8)
    });
    let v = client.gather(&total).unwrap();
    assert_eq!(*v.downcast_ref::<i64>().unwrap(), (0..60).sum::<i64>());
    let events = finish_clean(cluster, "reduction");
    assert_eq!(events.task_done.len(), 67);
    assert_eq!(events.meta.len(), 67);
    // dependencies recorded in metadata
    let total_meta = events.meta.iter().find(|m| m.key.prefix == "total").unwrap();
    assert_eq!(total_meta.deps.len(), 6);
    // real monotone timestamps
    for d in &events.task_done {
        assert!(d.stop >= d.start);
    }
}

#[test]
fn dependencies_execute_before_dependents() {
    let cluster = cluster(2, 2);
    let mut client = Delayed::new(&cluster);
    let order = Arc::new(AtomicUsize::new(0));
    let o1 = order.clone();
    let a = client.delayed("first", vec![], move |_| {
        let seq = o1.fetch_add(1, Ordering::SeqCst);
        TaskValue::new(seq, 8)
    });
    let o2 = order.clone();
    let b = client.delayed("second", vec![a], move |deps| {
        let first_seq = *deps[0].downcast_ref::<usize>().unwrap();
        let seq = o2.fetch_add(1, Ordering::SeqCst);
        assert!(seq > first_seq, "dependent ran before dependency");
        TaskValue::new(seq, 8)
    });
    client.gather(&b).unwrap();
    let events = finish_clean(cluster, "ordered");
    let first = events.task_done.iter().find(|d| d.key.prefix == "first").unwrap();
    let second = events.task_done.iter().find(|d| d.key.prefix == "second").unwrap();
    assert!(second.start >= first.stop);
}

#[test]
fn stealing_disabled_cluster_still_completes() {
    let cluster = LocalCluster::start(WmsConfig {
        workers_per_node: 2,
        threads_per_worker: 1,
        work_stealing: false,
        ..Default::default()
    })
    .unwrap();
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for i in 0..30 {
        b.add(
            TaskKey::new("t", tok, i),
            vec![],
            Payload::Real(Arc::new(|_: &[Arc<TaskValue>]| TaskValue::new(1u8, 1))),
        );
    }
    cluster.submit(b.build(&Default::default()).unwrap()).unwrap();
    assert_eq!(finish_clean(cluster, "no-stealing").task_done.len(), 30);
}

#[test]
fn many_small_graphs_chain_like_xgboost() {
    let cluster = cluster(2, 2);
    let mut client = Delayed::new(&cluster);
    let mut prev: Option<TaskKey> = None;
    for step in 0..20u64 {
        let deps: Vec<TaskKey> = prev.iter().cloned().collect();
        let key = client.delayed("step", deps, move |inputs| {
            let base = inputs.first().map(|d| *d.downcast_ref::<u64>().unwrap()).unwrap_or(0);
            TaskValue::new(base + step, 8)
        });
        client.compute().unwrap(); // one graph per step, like xgboost's 74
        prev = Some(key);
    }
    let v = cluster.gather(prev.as_ref().unwrap()).unwrap();
    assert_eq!(*v.downcast_ref::<u64>().unwrap(), (0..20).sum::<u64>());
    let events = finish_clean(cluster, "chain");
    let graphs: std::collections::HashSet<u32> =
        events.task_done.iter().map(|d| d.graph.0).collect();
    assert_eq!(graphs.len(), 20, "each compute() submitted its own graph");
}

#[test]
fn values_larger_than_threshold_still_pass_between_workers() {
    let cluster = cluster(2, 1);
    let mut client = Delayed::new(&cluster);
    let big = client.delayed("big", vec![], |_| TaskValue::new(vec![7u8; 1 << 20], 1 << 20));
    let len = client.delayed("len", vec![big], |deps| {
        let v = deps[0].downcast_ref::<Vec<u8>>().unwrap();
        TaskValue::new(v.len() as u64, 8)
    });
    let v = client.gather(&len).unwrap();
    assert_eq!(*v.downcast_ref::<u64>().unwrap(), 1 << 20);
    finish_clean(cluster, "large-values");
}

/// Run `body` on its own thread and fail, rather than hang, if it has not
/// returned within a minute: the executor's waits have no timeout, so a
/// lost wake-up would otherwise block the test forever.
fn within_a_minute(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
        panic!("no progress within 60 s: a wake-up was lost");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn submit_wakes_a_cluster_whose_threads_all_sleep() {
    within_a_minute(|| {
        let cluster = cluster(2, 2);
        for round in 0..200u32 {
            let mut b = GraphBuilder::new(GraphId(round));
            let tok = b.new_token();
            let key = b.add(
                TaskKey::new("tiny", tok, round),
                vec![],
                Payload::Real(Arc::new(move |_: &[Arc<TaskValue>]| TaskValue::new(round, 4))),
            );
            cluster.submit(b.build(&Default::default()).unwrap()).unwrap();
            let v = cluster.gather(&key).unwrap();
            assert_eq!(*v.downcast_ref::<u32>().unwrap(), round);
            if round % 2 == 0 {
                // give every thread time to reach its wait before the next submit
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(finish_clean(cluster, "rounds").task_done.len(), 200);
    });
}

#[test]
fn a_steal_wakes_the_sleeping_thief() {
    within_a_minute(|| {
        let cluster = cluster(2, 1);
        let mut client = Delayed::new(&cluster);
        // a 32 GB declared output pins every child to the root's worker by
        // locality; only a steal moves one to the other, sleeping worker
        let root = client.delayed("root", vec![], |_| TaskValue::new(0u8, 32 << 30));
        let children: Vec<TaskKey> = (0..8)
            .map(|_| {
                client.delayed("child", vec![root], |_| {
                    std::thread::sleep(Duration::from_millis(10));
                    TaskValue::new(1u8, 1)
                })
            })
            .collect();
        client.compute().unwrap();
        for c in &children {
            cluster.gather(c).unwrap();
        }
        let data = finish_clean(cluster, "steal");
        let workers: HashSet<_> =
            data.task_done.iter().filter(|d| d.key.prefix == "child").map(|d| d.worker).collect();
        assert_eq!(workers.len(), 2, "children ran on both workers");
    });
}

/// A closure that panics errs its task, and every task waiting on it errs
/// after it: `gather` returns the error instead of waiting for ever,
/// `wait_all` returns, every task keeps its metadata and transitions, and
/// the same threads run the next graph.
#[test]
fn a_panicking_closure_errs_its_dependents_and_the_cluster_runs_on() {
    within_a_minute(|| {
        let cluster = cluster(2, 2);
        let mut client = Delayed::new(&cluster);
        let ok = client.delayed("ok", vec![], |_| TaskValue::new(1u8, 1));
        let boom = client.delayed("boom", vec![], |_| panic!("a task body failed"));
        let after = client.delayed("after", vec![boom, ok], |_| TaskValue::new(2u8, 1));
        let last = client.delayed("last", vec![after], |_| TaskValue::new(3u8, 1));
        client.compute().unwrap();
        for key in [boom, after, last] {
            let err = cluster.gather(&key).expect_err("an erred task has no value");
            assert!(matches!(err, DtfError::IllegalState(_)), "{key}: {err}");
        }
        assert_eq!(*cluster.gather(&ok).unwrap().downcast_ref::<u8>().unwrap(), 1);
        cluster.wait_all();
        let next = client.delayed("next", vec![ok], |d| {
            TaskValue::new(d[0].downcast_ref::<u8>().unwrap() + 3, 1)
        });
        assert_eq!(*client.gather(&next).unwrap().downcast_ref::<u8>().unwrap(), 4);
        let events = finish_clean(cluster, "panic");
        assert_eq!(events.meta.len(), 5, "every task keeps its metadata");
        let erred: HashSet<(TaskKey, TaskState)> = events
            .transitions
            .iter()
            .filter(|t| t.to == TaskState::Erred)
            .map(|t| (t.key, t.from))
            .collect();
        let expected = [
            (boom, TaskState::Processing),
            (after, TaskState::Waiting),
            (last, TaskState::Waiting),
        ];
        assert_eq!(erred, expected.into_iter().collect());
        let done: HashSet<TaskKey> = events.task_done.iter().map(|d| d.key).collect();
        assert_eq!(done, [ok, next].into_iter().collect());
        // the cause is kept: one error line from the worker the panic was
        // caught on, naming the task and the panic's message
        let failed = events
            .worker_transitions
            .iter()
            .find(|w| w.key == boom && w.to == WorkerTaskState::Error)
            .expect("boom's worker records the error");
        let line = LogEntry {
            time: failed.time,
            level: LogLevel::Error,
            source: LogSource::Worker(failed.worker),
            message: format!("task {boom} erred: a task body failed"),
        };
        assert_eq!(events.logs, [line]);
    });
}

/// A cluster dropped without `finish` stops and joins its threads. They
/// hold the scheduler, and through it every submitted closure, so a
/// thread left asleep would keep what the closures captured for ever.
#[test]
fn a_dropped_cluster_stops_its_threads() {
    let token = Arc::new(());
    let cluster = cluster(2, 2);
    let mut client = Delayed::new(&cluster);
    let held = token.clone();
    client.delayed("hold", vec![], move |_| TaskValue::new(Arc::strong_count(&held), 8));
    client.compute().unwrap();
    cluster.wait_all();
    drop(client);
    drop(cluster);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(Arc::strong_count(&token), 1, "a worker thread still holds the closure");
}

/// An executor run exports like a simulated one: `tasks.csv` has one row
/// per completion, and the bundle is every file `export_run` writes.
#[test]
fn an_executor_run_writes_an_export_bundle() {
    let cluster = cluster(2, 2);
    let mut client = Delayed::new(&cluster);
    let leaves: Vec<TaskKey> =
        (0..12u64).map(|i| client.delayed("leaf", vec![], move |_| TaskValue::new(i, 8))).collect();
    let sum = client.delayed("sum", leaves, |deps| {
        TaskValue::new(deps.iter().map(|d| *d.downcast_ref::<u64>().unwrap()).sum::<u64>(), 8)
    });
    assert_eq!(*client.gather(&sum).unwrap().downcast_ref::<u64>().unwrap(), 66);
    let data = finish_clean(cluster, "export");
    assert_eq!(data.task_done.len(), 13);

    let dir = std::env::temp_dir().join(format!("dtf-executor-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = export_run(&data, &dir).unwrap();
    let tasks = std::fs::read_to_string(dir.join("tasks.csv")).unwrap();
    assert_eq!(tasks.lines().count(), 1 + data.task_done.len(), "a header and a row per task");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let manifest: serde_json::Value = serde_json::from_str(&manifest).unwrap();
    assert_eq!(manifest["workflow"].as_str(), Some("export"));
    assert_eq!(manifest["distinct_tasks"].as_u64(), Some(13));
    assert_eq!(manifest["steals"].as_u64(), Some(data.steals));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = CSV_VIEWS
        .iter()
        .chain(&["task_io.csv", "provenance_chart.json", "manifest.json"])
        .map(|f| f.to_string())
        .collect();
    expected.sort();
    assert_eq!(files, expected, "no Darshan log: the executor does no instrumented I/O");
    assert_eq!(written, expected.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

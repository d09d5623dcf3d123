//! In-situ analysis (paper §III-B): the event-streaming model lets a
//! consumer process telemetry *while the workflow runs*, with the same
//! API later used for post-hoc replay. This test runs real tasks on the
//! local cluster, which streams into its own Mofka service, and tails
//! that service from a concurrent analysis thread.

use std::sync::atomic::{AtomicBool, Ordering};

use dtf::core::provenance::WmsConfig;
use dtf::mofka::ConsumerConfig;
use dtf::wms::exec::LocalCluster;
use dtf::wms::graph::TaskValue;
use dtf::wms::Delayed;

#[test]
fn live_consumer_sees_events_during_the_run() {
    let cluster = LocalCluster::start(WmsConfig {
        workers_per_node: 2,
        threads_per_worker: 2,
        ..Default::default()
    })
    .unwrap();
    let svc = cluster.service();

    let stop = AtomicBool::new(false);
    let (live_seen, total_seen) = std::thread::scope(|scope| {
        // concurrent in-situ analyst: tails task-done while the workflow runs
        let analyst = scope.spawn(|| {
            let mut consumer = svc
                .consumer("task-done", ConsumerConfig { group: "live".into(), prefetch: 16 })
                .unwrap();
            let mut seen = 0usize;
            let mut seen_before_stop = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let batch = consumer.pull(32).unwrap();
                seen += batch.len();
                seen_before_stop = seen;
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            // drain the tail after the workflow finished (post-hoc mode,
            // same API)
            seen += consumer.drain_all().unwrap().len();
            (seen_before_stop, seen)
        });

        // the workflow: 40 tasks with real work
        let mut client = Delayed::new(&cluster);
        for _ in 0..40 {
            client.delayed("work", vec![], |_| {
                let mut acc = 1u64;
                for i in 1..150_000u64 {
                    acc = acc.wrapping_mul(i | 1);
                }
                TaskValue::new(acc, 8)
            });
        }
        client.compute().unwrap();
        cluster.wait_all();
        // give the analyst a moment to observe completions while still "live"
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        analyst.join().unwrap()
    });

    assert_eq!(total_seen, 40, "in-situ + post-hoc consumption covers every event");
    assert!(live_seen > 0, "the analyst observed completions while the workflow was still live");

    // a second, fresh consumer group replays everything post-hoc
    let mut replay = svc
        .consumer("task-done", ConsumerConfig { group: "posthoc".into(), prefetch: 64 })
        .unwrap();
    assert_eq!(replay.drain_all().unwrap().len(), 40, "persistent stream replays from zero");
    drop(replay);

    // the consumers are gone, so the run drains into its record
    let data = cluster.finish("in-situ").unwrap();
    assert_eq!(data.task_done.len(), 40);
}

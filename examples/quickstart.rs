//! Quickstart: run a real task graph on the local cluster with full
//! instrumentation, then inspect the collected provenance.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This is the "downstream user" path: your own Rust closures execute on
//! real worker threads under the same scheduler (placement heuristic,
//! queuing, work stealing) the paper studies, and every task transition,
//! completion, and transfer is captured by plugins without touching your
//! workload code.

use std::sync::Arc;

use dtf::core::provenance::WmsConfig;
use dtf::wms::exec::LocalCluster;
use dtf::wms::graph::TaskValue;
use dtf::wms::plugins::PluginSet;
use dtf::wms::{CollectorPlugin, Delayed};

fn main() {
    // 1. start a local "cluster": 2 emulated workers x 2 threads,
    //    instrumented with an in-memory collector plugin
    let collector = CollectorPlugin::new();
    let mut plugins = PluginSet::new();
    plugins.register(Box::new(collector.clone()));
    let cluster = LocalCluster::start(
        WmsConfig { workers_per_node: 2, threads_per_worker: 2, ..Default::default() },
        plugins,
    )
    .expect("a 2x2 cluster starts");

    // 2. build a little map-reduce with the dask.delayed-style client
    let mut client = Delayed::new(&cluster);
    let parts: Vec<_> = (0..8u64)
        .map(|i| {
            client.delayed("square", vec![], move |_| {
                let v = i * i;
                TaskValue::new(v, 8)
            })
        })
        .collect();
    let total = client.delayed("sum", parts, |deps| {
        let s: u64 = deps.iter().map(|d| *d.downcast_ref::<u64>().unwrap()).sum();
        TaskValue::new(s, 8)
    });

    // 3. compute and gather
    let result = client.gather(&total).expect("graph executes");
    println!("sum of squares 0..8 = {}", result.downcast_ref::<u64>().unwrap());
    assert_eq!(*result.downcast_ref::<u64>().unwrap(), 140);

    cluster.wait_all();
    cluster.shutdown();

    // 4. inspect what the instrumentation saw
    let events = collector.take();
    println!("\ncollected provenance:");
    println!("  task metadata records : {}", events.meta.len());
    println!("  state transitions     : {}", events.transitions.len());
    println!("  task completions      : {}", events.task_done.len());
    println!("  inter-worker transfers: {}", events.comms.len());
    for done in events.task_done.iter().take(4) {
        println!(
            "  {} ran on {} thread {:#x} in {:.3} ms",
            done.key,
            done.worker,
            done.thread.0,
            done.duration().as_millis_f64()
        );
    }
    let workers: std::collections::HashSet<_> = events.task_done.iter().map(|d| d.worker).collect();
    println!("  distinct workers used : {}", workers.len());
    let _ = Arc::strong_count(&result);
}

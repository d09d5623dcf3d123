//! Quickstart: run a real task graph on the local cluster with full
//! instrumentation, then inspect the run's provenance record.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This is the "downstream user" path: your own Rust closures execute on
//! real worker threads under the same scheduler (placement heuristic,
//! queuing, work stealing) the paper studies, and every task transition,
//! completion, and transfer streams into the cluster's own Mofka service
//! without touching your workload code. `finish` drains it into the same
//! `RunData` a simulated run yields, so the chaos oracles, the export and
//! every view read it too.

use dtf::chaos::check_run;
use dtf::core::provenance::WmsConfig;
use dtf::wms::exec::LocalCluster;
use dtf::wms::graph::TaskValue;
use dtf::wms::Delayed;

fn main() {
    // 1. start a local "cluster": 2 emulated workers x 2 threads
    let cluster = LocalCluster::start(WmsConfig {
        workers_per_node: 2,
        threads_per_worker: 2,
        ..Default::default()
    })
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

    // 4. end the run and inspect what the instrumentation saw
    let data = cluster.finish("quickstart").expect("the run drains");
    let violations = check_run(&data);
    assert!(violations.is_empty(), "oracle violations: {violations:?}");
    println!("\nprovenance record (every chaos oracle clean):");
    println!("  task metadata records : {}", data.meta.len());
    println!("  state transitions     : {}", data.transitions.len());
    println!("  task completions      : {}", data.task_done.len());
    println!("  inter-worker transfers: {}", data.comms.len());
    println!("  wall time             : {:.3} ms", data.wall_time.as_millis_f64());
    for done in data.task_done.iter().take(4) {
        println!(
            "  {} ran on {} thread {:#x} in {:.3} ms",
            done.key,
            done.worker,
            done.thread.0,
            done.duration().as_millis_f64()
        );
    }
    let workers: std::collections::HashSet<_> = data.task_done.iter().map(|d| d.worker).collect();
    println!("  distinct workers used : {}", workers.len());
}

//! Provenance lineage explorer: run ResNet152 once, pick tasks, and print
//! their full multi-source lineage (Fig. 8) — dependencies, state
//! transitions, locations, data movements, and the I/O they performed,
//! all reconstructed by joining Mofka-streamed WMS events with
//! Darshan-traced I/O on shared identifiers.
//!
//! ```sh
//! cargo run --release --example provenance_explorer [task-prefix]
//! ```

use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::perfrecup::lineage;
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::workflows::Workload;

fn main() {
    let prefix = std::env::args().nth(1).unwrap_or_else(|| "predict".to_string());
    let workload = Workload::ResNet152;
    let seed = 3;

    let rr = RunRng::new(seed, RunId(0));
    let workflow = workload.generate(&rr);
    let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
    workload.adjust(&mut cfg);
    println!("simulating {} ...", workload.name());
    let data = SimCluster::new(cfg).expect("cluster").run(workflow).expect("run");

    // find a few tasks of the requested category
    let keys: Vec<_> =
        data.meta.iter().filter(|m| m.key.prefix == prefix).map(|m| m.key).take(2).collect();
    if keys.is_empty() {
        let mut prefixes: Vec<&str> = data.meta.iter().map(|m| m.key.prefix.as_str()).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        println!("no tasks with prefix '{prefix}'; available: {prefixes:?}");
        return;
    }

    for key in keys {
        let l = lineage::build(&data, &key).expect("lineage builds");
        assert!(l.is_consistent(), "lineage state chain is ordered and linked");
        println!("\n=== provenance of {key} ===");
        println!("  graph {} submitted at {}", l.graph.unwrap(), l.submitted.unwrap());
        println!("  {} dependencies, {} dependents", l.dependencies.len(), l.dependents.len());
        println!("  state transitions:");
        for s in &l.states {
            println!(
                "    {:>10} -> {:<10} ({:?}) at {}",
                s.from.as_str(),
                s.to.as_str(),
                s.stimulus,
                s.time
            );
        }
        println!("  locations in distributed memory:");
        for loc in &l.locations {
            match loc.thread {
                Some(t) => {
                    println!("    {} (computed on thread {t}) since {}", loc.worker, loc.since)
                }
                None => println!("    {} (replica via transfer) since {}", loc.worker, loc.since),
            }
        }
        println!("  data movements: {}", l.movements.len());
        println!("  I/O operations during execution: {}", l.io.len());
        if let (Some(start), Some(stop)) = (l.start, l.stop) {
            println!("  executed {start} .. {stop} ({})", stop - start);
        }
        if let Some(n) = l.output_nbytes {
            println!("  output size: {:.1} KB", n as f64 / 1024.0);
        }
    }

    println!("\nfull-JSON form of one lineage (what Fig. 8 renders):");
    let any = data.meta.iter().find(|m| m.key.prefix == prefix).unwrap();
    let l = lineage::build(&data, &any.key).unwrap();
    let json = l.to_pretty_json().unwrap();
    // print just the head to keep the demo readable
    for line in json.lines().take(25) {
        println!("  {line}");
    }
    println!("  ...");
}

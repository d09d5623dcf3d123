//! The XGBoost trip-duration regression workflow (paper §IV-B).
//!
//! Trains a regression model on NYC High-Volume For-Hire-Vehicle trip
//! records: 61 parquet files (~20 GiB) read through
//! `read_parquet-fused-assign` tasks (Dask's graph optimization fuses the
//! I/O with its consumer, producing task outputs far above the recommended
//! 128 MB — the Fig. 6 observation), a long chain of dataframe-preparation
//! graphs (`getitem`, `random_split_take`, `drop_by_shallow_copy`, …),
//! distributed training, and batch prediction. 74 graphs are submitted
//! step by step, mirroring `xgboost.dask.train` / `predict` driving Dask
//! collections.
//!
//! Calibration (Table I): 74 graphs, 10348 distinct tasks, 61 files,
//! 867–1670 I/O operations (per-run parquet row-group chunking varies),
//! 1464–2027 communications. The long fused-read tasks carry a high
//! event-loop stall rate, producing ≈300 unresponsive-event-loop warnings
//! in the first 500 s (Fig. 7).

use rand::Rng;

use dtf_core::ids::{FileId, GraphId, TaskKey};
use dtf_core::time::Dur;
use dtf_wms::sim::{SimWorkflow, SubmitPolicy};
use dtf_wms::{GraphBuilder, IoCall, SimAction};

/// Monthly parquet files, 2019–2024 subset.
pub const FILES: u32 = 61;
/// Total dataset size: 20 GiB.
pub const TOTAL_BYTES: u64 = 20 << 30;
/// Dataframe partitions after repartitioning (~141 MB each).
pub const PARTITIONS: u32 = 144;
/// Dataframe-operation graphs between preparation and training.
const OP_GRAPHS: u32 = 67;
/// Training tasks: one long-running task per worker plus a finalizer.
const TRAIN_TASKS: u32 = 9;

const MB: u64 = 1 << 20;

/// Build the XGBoost workflow for one run. Per-run randomness: parquet
/// row-group read granularity (drives the wide Table I I/O range) and read
/// compute skew.
pub fn build<R: Rng + ?Sized>(rng: &mut R) -> SimWorkflow {
    let file_bytes = TOTAL_BYTES / FILES as u64;
    let dataset: Vec<(String, u64, u32)> = (0..FILES)
        .map(|i| {
            let (y, m) = (2019 + i / 12, 1 + i % 12);
            (format!("/nyc-fhv/fhvhv_tripdata_{y}-{m:02}.parquet"), file_bytes, 8)
        })
        .collect();

    // this run's parquet read granularity: the dataframe layer picks one
    // row-group batching for the whole collection (correlated across
    // files), with +/-1 per-file jitter -- this is what spreads Table I's
    // 867-1670 I/O range across runs
    let base_reads: i64 = rng.gen_range(15..=26);
    let reads_per_file: Vec<u64> =
        (0..FILES).map(|_| (base_reads + rng.gen_range(-1i64..=1)) as u64).collect();

    let mut graphs = Vec::new();
    let mut external: std::collections::HashSet<TaskKey> = std::collections::HashSet::new();
    let finish = |b: GraphBuilder, external: &mut std::collections::HashSet<TaskKey>| {
        let g = b.build(external).expect("xgboost graph valid");
        for t in &g.tasks {
            external.insert(t.key);
        }
        g
    };

    // --- graph 0: read_parquet-fused-assign (61 long, heavy tasks)
    let mut g0 = GraphBuilder::new(GraphId(0));
    let t_read = g0.new_token();
    let mut read_keys = Vec::new();
    for i in 0..FILES {
        let n = reads_per_file[i as usize];
        let chunk = file_bytes / n;
        let io: Vec<IoCall> =
            (0..n).map(|c| IoCall::read(FileId(i as u64), c * chunk, chunk)).collect();
        // long fused decode+assign; heavy skew across files
        let compute = 140.0 + rng.gen::<f64>() * 160.0;
        read_keys.push(g0.add_sim(
            "read_parquet-fused-assign",
            t_read,
            i,
            vec![],
            SimAction {
                compute: Dur::from_secs_f64(compute),
                io,
                output_nbytes: file_bytes, // ~340 MB, far above 128 MB
                stall_rate: 0.033,
            },
        ));
    }
    graphs.push(finish(g0, &mut external));

    // --- graph 1: repartition 61 -> 144 (shuffle: inter-partition deps)
    let mut g1 = GraphBuilder::new(GraphId(1));
    let t_rep = g1.new_token();
    let mut part_keys = Vec::new();
    for p in 0..PARTITIONS {
        // each new partition draws from 2 neighbouring input files
        let a = (p * FILES / PARTITIONS) % FILES;
        let b = (a + 1) % FILES;
        part_keys.push(g1.add_sim(
            "repartition",
            t_rep,
            p,
            vec![read_keys[a as usize], read_keys[b as usize]],
            SimAction {
                compute: Dur::from_secs_f64(2.2),
                io: vec![],
                output_nbytes: TOTAL_BYTES / PARTITIONS as u64, // ~142 MB
                stall_rate: 0.002,
            },
        ));
    }
    graphs.push(finish(g1, &mut external));

    // --- graph 2: getitem__get_categories (category-dtype discovery)
    let mut gc = GraphBuilder::new(GraphId(2));
    let t_cat = gc.new_token();
    let mut cat_keys = Vec::new();
    for p in 0..PARTITIONS {
        cat_keys.push(gc.add_sim(
            "getitem__get_categories",
            t_cat,
            p,
            vec![part_keys[p as usize]],
            SimAction {
                compute: Dur::from_secs_f64(1.4),
                io: vec![],
                output_nbytes: 110 * MB,
                stall_rate: 0.0,
            },
        ));
    }
    graphs.push(finish(gc, &mut external));

    // --- graph 3: random_split_take (2 outputs per partition: train/test)
    let mut g2 = GraphBuilder::new(GraphId(3));
    let t_split = g2.new_token();
    let mut train_parts = Vec::new();
    let mut test_parts = Vec::new();
    for p in 0..PARTITIONS {
        let dep = vec![cat_keys[p as usize]];
        train_parts.push(g2.add_sim(
            "random_split_take",
            t_split,
            2 * p,
            dep.clone(),
            SimAction {
                compute: Dur::from_secs_f64(1.8),
                io: vec![],
                output_nbytes: 100 * MB,
                stall_rate: 0.0,
            },
        ));
        test_parts.push(g2.add_sim(
            "random_split_take",
            t_split,
            2 * p + 1,
            dep,
            SimAction {
                compute: Dur::from_secs_f64(0.9),
                io: vec![],
                output_nbytes: 40 * MB,
                stall_rate: 0.0,
            },
        ));
    }
    graphs.push(finish(g2, &mut external));

    // --- graphs 4..(4+67): dataframe-operation chain on the train split
    let op_prefixes = [
        "getitem__get_categories",
        "getitem",
        "assign",
        "drop_by_shallow_copy",
        "astype",
        "fillna",
        "getitem",
    ];
    let mut chain = train_parts.clone();
    for op in 0..OP_GRAPHS {
        let mut g = GraphBuilder::new(GraphId(4 + op));
        let tok = g.new_token();
        let prefix = op_prefixes[(op as usize) % op_prefixes.len()];
        // every 9th op re-aligns partitions (windowed deps -> shuffles)
        let windowed = op % 9 == 4;
        let mut next = Vec::with_capacity(PARTITIONS as usize);
        for p in 0..PARTITIONS {
            let mut deps = vec![chain[p as usize]];
            if windowed {
                deps.push(chain[((p + 1) % PARTITIONS) as usize]);
            }
            next.push(g.add_sim(
                prefix,
                tok,
                p,
                deps,
                SimAction {
                    compute: Dur::from_secs_f64(1.6 + 0.9 * ((op % 3) as f64)),
                    io: vec![],
                    // shrinking outputs as columns are dropped (< 128 MB)
                    output_nbytes: (90 - (op as u64)) * MB,
                    stall_rate: 0.0,
                },
            ));
        }
        chain = next;
        graphs.push(finish(g, &mut external));
    }

    // --- training graph: one long-running task per worker + finalize
    let mut gt = GraphBuilder::new(GraphId(4 + OP_GRAPHS));
    let t_train = gt.new_token();
    let workers = (TRAIN_TASKS - 1) as usize;
    let mut train_keys = Vec::new();
    for w in 0..workers {
        // each train task gathers its share of partitions
        let deps: Vec<TaskKey> =
            chain.iter().enumerate().filter(|(p, _)| p % workers == w).map(|(_, k)| *k).collect();
        train_keys.push(gt.add_sim(
            "xgboost-train",
            t_train,
            w as u32,
            deps,
            SimAction {
                compute: Dur::from_secs_f64(110.0),
                io: vec![],
                output_nbytes: 24 * MB, // boosted-model shard
                stall_rate: 0.012,
            },
        ));
    }
    let model = gt.add_sim(
        "xgboost-model",
        t_train,
        workers as u32,
        train_keys,
        SimAction::compute_only(Dur::from_secs_f64(4.0), 24 * MB),
    );
    graphs.push(finish(gt, &mut external));

    // --- prediction: 44 partition predicts, then 10 gathers
    let mut gp = GraphBuilder::new(GraphId(5 + OP_GRAPHS));
    let t_pred = gp.new_token();
    let mut preds = Vec::new();
    for p in 0..44u32 {
        preds.push(gp.add_sim(
            "predict",
            t_pred,
            p,
            vec![model, test_parts[(p as usize) * test_parts.len() / 44]],
            SimAction {
                compute: Dur::from_secs_f64(2.4),
                io: vec![],
                output_nbytes: 6 * MB,
                stall_rate: 0.0,
            },
        ));
    }
    graphs.push(finish(gp, &mut external));

    let mut gg = GraphBuilder::new(GraphId(6 + OP_GRAPHS));
    let t_gather = gg.new_token();
    for i in 0..10u32 {
        let deps: Vec<TaskKey> = preds.iter().skip(i as usize * 4).take(5).cloned().collect();
        gg.add_sim(
            "gather-metrics",
            t_gather,
            i,
            deps,
            SimAction::compute_only(Dur::from_secs_f64(0.8), MB),
        );
    }
    graphs.push(finish(gg, &mut external));

    SimWorkflow {
        name: "XGBOOST".into(),
        graphs,
        submit: SubmitPolicy::Sequential,
        startup: Dur::from_secs_f64(14.0),
        inter_graph: Dur::from_secs_f64(1.2),
        shutdown: Dur::from_secs_f64(5.0),
        dataset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn total_tasks(wf: &SimWorkflow) -> usize {
        wf.graphs.iter().map(|g| g.len()).sum()
    }

    #[test]
    fn matches_table1_structure() {
        let mut rng = SmallRng::seed_from_u64(1);
        let wf = build(&mut rng);
        assert_eq!(wf.graphs.len(), 74, "Table I: 74 task graphs");
        assert_eq!(total_tasks(&wf), 10348, "Table I: 10348 distinct tasks");
        assert_eq!(wf.dataset.len(), 61, "Table I: 61 distinct files");
        assert_eq!(wf.submit, SubmitPolicy::Sequential);
    }

    #[test]
    fn io_ops_within_table1_band_across_runs() {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let wf = build(&mut rng);
            let ops: u64 = wf
                .graphs
                .iter()
                .flat_map(|g| &g.tasks)
                .filter_map(|t| match &t.payload {
                    dtf_wms::Payload::Sim(a) => Some(a.io.len() as u64),
                    _ => None,
                })
                .sum();
            assert!((854..=1647).contains(&ops), "seed {seed}: {ops} reads");
        }
    }

    #[test]
    fn io_ops_actually_vary_across_runs() {
        let count = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            build(&mut rng)
                .graphs
                .iter()
                .flat_map(|g| &g.tasks)
                .filter_map(|t| match &t.payload {
                    dtf_wms::Payload::Sim(a) => Some(a.io.len()),
                    _ => None,
                })
                .sum::<usize>()
        };
        let counts: std::collections::HashSet<usize> = (0..10).map(count).collect();
        assert!(counts.len() >= 5, "chunking should vary widely run to run");
    }

    #[test]
    fn fused_read_outputs_exceed_128mb() {
        let mut rng = SmallRng::seed_from_u64(2);
        let wf = build(&mut rng);
        for t in &wf.graphs[0].tasks {
            if let dtf_wms::Payload::Sim(a) = &t.payload {
                assert!(t.key.prefix == "read_parquet-fused-assign");
                assert!(a.output_nbytes > 128 * MB, "fused read output too small");
                assert!(a.stall_rate > 0.0, "long fused tasks pressure the event loop");
            }
        }
    }

    #[test]
    fn reads_stay_within_file_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let wf = build(&mut rng);
        for t in &wf.graphs[0].tasks {
            if let dtf_wms::Payload::Sim(a) = &t.payload {
                for c in &a.io {
                    let (_, size, _) = &wf.dataset[c.file.0 as usize];
                    assert!(c.offset + c.size <= *size);
                }
            }
        }
    }

    #[test]
    fn graphs_chain_on_external_keys() {
        // later graphs depend on earlier graphs' outputs: building them with
        // the accumulated external set must succeed (it did in build), and
        // the repartition graph must reference graph 0 keys
        let mut rng = SmallRng::seed_from_u64(4);
        let wf = build(&mut rng);
        let g0_keys: std::collections::HashSet<&TaskKey> =
            wf.graphs[0].tasks.iter().map(|t| &t.key).collect();
        let refs =
            wf.graphs[1].tasks.iter().flat_map(|t| &t.deps).filter(|d| g0_keys.contains(d)).count();
        assert!(refs > 0, "repartition must consume read outputs");
    }

    #[test]
    fn category_mix_matches_fig6() {
        let mut rng = SmallRng::seed_from_u64(5);
        let wf = build(&mut rng);
        let prefixes: std::collections::HashSet<&str> =
            wf.graphs.iter().flat_map(|g| &g.tasks).map(|t| t.key.prefix.as_str()).collect();
        for expected in [
            "read_parquet-fused-assign",
            "getitem",
            "random_split_take",
            "drop_by_shallow_copy",
            "getitem__get_categories",
        ] {
            assert!(prefixes.contains(expected), "missing category {expected}");
        }
    }
}

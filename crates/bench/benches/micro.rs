//! Micro-benchmarks of the individual substrates: event streaming
//! throughput, scheduler dispatch, PFS cost-model evaluation, and
//! DataFrame kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dtf_core::events::{WarningEvent, WarningKind};
use dtf_core::table::Value;
use dtf_core::time::{Dur, Time};
use dtf_mofka::producer::{PartitionStrategy, ProducerConfig};
use dtf_mofka::{ConsumerConfig, Event, MofkaService, TopicConfig};
use dtf_perfrecup::frame::{Agg, DataFrame};
use dtf_platform::{LoadProcess, Pfs, PfsConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Mofka: produce+consume 10k metadata events at different batch sizes.
fn bench_mofka_throughput(c: &mut Criterion) {
    const N: usize = 10_000;
    let mut g = c.benchmark_group("mofka_throughput");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for batch in [1usize, 64, 512] {
        g.bench_function(format!("produce_consume_batch_{batch}"), |b| {
            b.iter(|| {
                let svc = MofkaService::new();
                svc.create_topic("t", TopicConfig { partitions: 4 }).unwrap();
                let mut p = svc
                    .producer(
                        "t",
                        ProducerConfig {
                            batch_size: batch,
                            strategy: PartitionStrategy::RoundRobin,
                        },
                    )
                    .unwrap();
                for i in 0..N {
                    p.push(Event::typed(WarningEvent {
                        kind: WarningKind::GcPause,
                        worker: None,
                        time: Time(i as u64),
                        duration: Dur(1),
                    }))
                    .unwrap();
                }
                p.flush().unwrap();
                let mut consumer = svc
                    .consumer("t", ConsumerConfig { group: "g".into(), prefetch: 1024 })
                    .unwrap();
                black_box(consumer.drain_all().unwrap().len())
            })
        });
    }
    g.finish();
}

/// Scheduler: submit and drive a 2k-task embarrassingly parallel graph.
fn bench_scheduler_dispatch(c: &mut Criterion) {
    use dtf_core::ids::{GraphId, NodeId, ThreadId, WorkerId};
    use dtf_core::time::{Dur, Time};
    use dtf_wms::graph::{GraphBuilder, SimAction};
    use dtf_wms::plugins::PluginSet;
    use dtf_wms::scheduler::{Scheduler, SchedulerConfig};

    let mut g = c.benchmark_group("scheduler");
    g.throughput(Throughput::Elements(2000));
    g.sample_size(20);
    g.bench_function("dispatch_2k_tasks", |b| {
        b.iter(|| {
            let mut s = Scheduler::new(SchedulerConfig::default(), PluginSet::new());
            for w in 0..8 {
                s.add_worker(WorkerId::new(NodeId(w / 4), w % 4), 8);
            }
            let mut builder = GraphBuilder::new(GraphId(0));
            let tok = builder.new_token();
            for i in 0..2000 {
                builder.add_sim("t", tok, i, vec![], SimAction::compute_only(Dur(1), 64));
            }
            let graph = builder.build(&Default::default()).unwrap();
            let mut actions = s.submit_graph(graph, Time::ZERO).unwrap();
            let mut t = 0u64;
            loop {
                actions.clear();
                let mut progressed = false;
                for w in s.worker_ids() {
                    while let Some(key) = s.try_start(w, Time(t)) {
                        progressed = true;
                        t += 1;
                        actions.extend(s.task_finished(
                            &key,
                            w,
                            ThreadId(1),
                            Time(t - 1),
                            Time(t),
                            64,
                        ));
                    }
                }
                if !progressed {
                    break;
                }
            }
            black_box(s.unfinished())
        })
    });
    g.finish();
}

/// PFS cost model: 10k read-cost evaluations under interference.
fn bench_pfs_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("pfs_cost_model");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("reads_10k", |b| {
        let mut pfs = Pfs::new(PfsConfig::default(), LoadProcess::pfs_default(1));
        let id = pfs.create("/f", 1 << 30, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            let mut total = dtf_core::time::Dur::ZERO;
            for i in 0..10_000u64 {
                total += pfs
                    .read(id, (i % 256) * 4096, 4096, dtf_core::time::Time(i * 1000), &mut rng)
                    .unwrap();
            }
            black_box(total)
        })
    });
    g.finish();
}

/// End-to-end typed provenance pipeline: WMS plugin push → Mofka topics →
/// RunData drain, the path the zero-copy metadata work targets.
fn bench_provenance_pipeline(c: &mut Criterion) {
    const TASKS: u32 = 500;
    // same per-task event mix as `dtf_bench::provenance_pipeline`
    let events = (TASKS * 8 + TASKS / 2 + TASKS / 64 + TASKS / 16) as u64;
    let mut g = c.benchmark_group("provenance_pipeline");
    g.throughput(Throughput::Elements(events));
    g.sample_size(20);
    g.bench_function(format!("push_drain_{TASKS}_tasks"), |b| {
        b.iter(|| {
            let report = dtf_bench::provenance_pipeline(TASKS, 1);
            black_box(report.events)
        })
    });
    g.finish();
}

/// DataFrame kernels over 50k rows.
fn bench_dataframe(c: &mut Criterion) {
    const N: usize = 50_000;
    let mut left = DataFrame::new(vec!["k".into(), "x".into()]);
    for i in 0..N {
        left.push_row(vec![Value::U64((i % 1000) as u64), Value::F64(i as f64)]).unwrap();
    }
    let mut g = c.benchmark_group("dataframe");
    g.sample_size(20);
    g.bench_function("group_by_50k", |b| {
        b.iter(|| black_box(left.group_by("k", "x", Agg::Mean).unwrap()))
    });
    g.bench_function("sort_50k", |b| b.iter(|| black_box(left.sort_by("x").unwrap())));
    g.bench_function("filter_50k", |b| {
        b.iter(|| black_box(left.filter("k", |v| v.as_u64() == Some(7)).unwrap()))
    });
    g.finish();
}

criterion_group!(
    micro,
    bench_mofka_throughput,
    bench_scheduler_dispatch,
    bench_pfs_model,
    bench_provenance_pipeline,
    bench_dataframe
);
criterion_main!(micro);

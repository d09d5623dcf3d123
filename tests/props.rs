//! Property-based tests over the core invariants, driven by proptest.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use dtf::core::events::{Stimulus, TaskState};
use dtf::core::fault::{
    FaultSchedule, FetchFault, HeartbeatDrop, InterferenceBurst, MofkaStall, WorkerDeath,
};
use dtf::core::ids::{GraphId, RunId, TaskKey};
use dtf::core::stats::kendall_tau;
use dtf::core::time::{Dur, Time};
use dtf::mofka::bedrock::BedrockConfig;
use dtf::mofka::producer::{PartitionStrategy, ProducerConfig};
use dtf::mofka::{ConsumerConfig, TopicConfig};
use dtf::perfrecup::frame::{Agg, DataFrame};
use dtf::wms::graph::{GraphBuilder, SimAction, TaskGraph};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};

mod common;
use common::{tag, tagged};

/// Build a random layered DAG: `layers` layers of up to `width` tasks,
/// each task depending on a random subset of the previous layer.
fn random_dag(layers: usize, width: usize, edges: Vec<u8>) -> TaskGraph {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    let mut edge_iter = edges.into_iter().cycle();
    for layer in 0..layers {
        let mut current = Vec::new();
        for i in 0..width {
            let deps: Vec<TaskKey> = prev
                .iter()
                .filter(|_| edge_iter.next().unwrap_or(0).is_multiple_of(3))
                .cloned()
                .collect();
            current.push(b.add_sim(
                "node",
                tok,
                (layer * width + i) as u32,
                deps,
                SimAction::compute_only(Dur::from_millis_f64(5.0), 1024),
            ));
        }
        prev = current;
    }
    b.build(&HashSet::new()).expect("layered DAG is acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any layered DAG executes to completion, never violating dependency
    /// order, with every task reaching Memory exactly once.
    #[test]
    fn random_dags_schedule_correctly(
        layers in 1usize..5,
        width in 1usize..10,
        edges in proptest::collection::vec(any::<u8>(), 1..64),
        seed in 0u64..1000,
    ) {
        let graph = random_dag(layers, width, edges);
        let n_tasks = graph.len();
        let deps: HashMap<TaskKey, Vec<TaskKey>> =
            graph.tasks.iter().map(|t| (t.key, t.deps.clone())).collect();
        let wf = SimWorkflow {
            name: "prop".into(),
            graphs: vec![graph],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.5),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![],
        };
        let cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        let data = SimCluster::new(cfg).unwrap().run(wf).unwrap();

        // every task completed exactly once
        prop_assert_eq!(data.task_done.len(), n_tasks);
        let mut finish = HashMap::new();
        for d in &data.task_done {
            prop_assert!(finish.insert(d.key, d.stop).is_none(), "double completion");
        }
        // dependencies finished before dependents started
        for d in &data.task_done {
            for dep in &deps[&d.key] {
                prop_assert!(finish[dep] <= d.start, "dependency violation");
            }
        }
        // every transition legal; every task ends in Memory
        for t in &data.transitions {
            prop_assert!(t.from.can_transition_to(t.to) || t.from == t.to);
        }
        for key in finish.keys() {
            let last = data.transitions.iter().rfind(|t| &t.key == key).unwrap();
            prop_assert_eq!(last.to, TaskState::Memory);
        }
    }

    /// Mofka delivers every produced event exactly once per consumer
    /// group, in per-partition order, for any batch size / partition count.
    #[test]
    fn mofka_exactly_once_any_configuration(
        partitions in 1u32..6,
        batch in 1usize..50,
        n_events in 1usize..300,
        prefetch in 1usize..64,
    ) {
        let svc = dtf::mofka::MofkaService::new();
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let mut producer = svc
            .producer("t", ProducerConfig { batch_size: batch, strategy: PartitionStrategy::RoundRobin })
            .unwrap();
        for i in 0..n_events {
            producer.push(tagged(0, i as u64)).unwrap();
        }
        producer.flush().unwrap();
        let mut consumer = svc
            .consumer("t", ConsumerConfig { group: "g".into(), prefetch })
            .unwrap();
        let got = consumer.drain_all().unwrap();
        prop_assert_eq!(got.len(), n_events);
        let ids: HashSet<u64> = got.iter().map(|e| tag(&e.event).1).collect();
        prop_assert_eq!(ids.len(), n_events);
        // per-partition order preserved
        let mut last_offset: HashMap<u32, u64> = HashMap::new();
        for e in &got {
            if let Some(prev) = last_offset.insert(e.id.partition, e.id.offset) {
                prop_assert!(e.id.offset > prev);
            }
        }
    }

    /// DataFrame group-by sums match a naive computation.
    #[test]
    fn dataframe_groupby_invariants(
        rows in proptest::collection::vec((0u8..5, -100i64..100), 0..60),
    ) {
        use dtf::core::table::Value;
        let mut df = DataFrame::new(vec!["k".into(), "v".into()]);
        let mut naive: HashMap<u8, (f64, usize)> = HashMap::new();
        for (k, v) in &rows {
            df.push_row(vec![Value::U64(*k as u64), Value::I64(*v)]).unwrap();
            let e = naive.entry(*k).or_insert((0.0, 0));
            e.0 += *v as f64;
            e.1 += 1;
        }
        let grouped = df.group_by("k", "v", Agg::Sum).unwrap();
        prop_assert_eq!(grouped.n_rows(), naive.len());
        let keys = grouped.col("k").unwrap().to_vec();
        let sums = grouped.col_f64("v_sum").unwrap();
        for (key, sum) in keys.iter().zip(sums) {
            let k: u8 = key.as_u64().unwrap() as u8;
            prop_assert!((naive[&k].0 - sum).abs() < 1e-9);
        }
    }

    /// Kendall tau is symmetric, bounded, and 1 on identical sequences.
    #[test]
    fn kendall_tau_properties(xs in proptest::collection::vec(-1000f64..1000.0, 2..40)) {
        let ranks: Vec<f64> = (0..xs.len()).map(|i| i as f64).collect();
        let tau = kendall_tau(&ranks, &xs);
        let tau_rev = kendall_tau(&xs, &ranks);
        prop_assert!((-1.0..=1.0).contains(&tau));
        prop_assert!((tau - tau_rev).abs() < 1e-12, "symmetric");
        prop_assert!((kendall_tau(&xs, &xs) - 1.0).abs() < 1e-12 || xs.windows(2).all(|w| w[0] == w[1]));
    }

    /// The common tabular format: every event row matches its schema width
    /// for arbitrary simulated content.
    #[test]
    fn tabular_rows_always_match_schema(seed in 0u64..50) {
        let graph = random_dag(2, 4, vec![seed as u8, 1, 2]);
        let wf = SimWorkflow {
            name: "prop".into(),
            graphs: vec![graph],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.2),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![],
        };
        let cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        let data = SimCluster::new(cfg).unwrap().run(wf).unwrap();
        use dtf::core::table::Tabular;
        use dtf::core::events::{TaskDoneEvent, TransitionEvent};
        for d in &data.task_done {
            prop_assert_eq!(d.row().len(), TaskDoneEvent::schema().len());
        }
        for t in &data.transitions {
            prop_assert_eq!(t.row().len(), TransitionEvent::schema().len());
        }
    }
}

/// Like [`random_dag`], but with task durations (60–500 ms) and dependency
/// edges both drawn from the byte stream, and 1 MiB outputs so dependency
/// transfers actually cross workers. Faults land mid-run instead of after
/// the whole graph has drained.
fn random_dag_heavy(layers: usize, width: usize, bytes: Vec<u8>) -> TaskGraph {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    let mut byte_iter = bytes.into_iter().cycle();
    for layer in 0..layers {
        let mut current = Vec::new();
        for i in 0..width {
            let deps: Vec<TaskKey> = prev
                .iter()
                .filter(|_| byte_iter.next().unwrap_or(0).is_multiple_of(3))
                .cloned()
                .collect();
            let ms = 60.0 + 4.0 * (byte_iter.next().unwrap_or(0) % 110) as f64;
            current.push(b.add_sim(
                "node",
                tok,
                (layer * width + i) as u32,
                deps,
                SimAction::compute_only(Dur::from_millis_f64(ms), 1 << 20),
            ));
        }
        prev = current;
    }
    b.build(&HashSet::new()).expect("layered DAG is acyclic")
}

fn workflow_of(graph: TaskGraph) -> SimWorkflow {
    SimWorkflow {
        name: "prop".into(),
        graphs: vec![graph],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

/// Strategy over arbitrary [`FaultSchedule`] values for the default
/// 8-worker cluster: up to two deaths and heartbeat-suppression windows
/// (never ordinal 0 — someone must survive), up to six perturbed
/// transfers, plus Mofka partition stalls and forced PFS bursts. Fault
/// times are fractions of `horizon_s`, which should roughly match the
/// run length so the perturbations land mid-run.
fn fault_schedule_strategy(horizon_s: f64) -> impl Strategy<Value = FaultSchedule> {
    let deaths = proptest::collection::vec((1u32..8, 0.1f64..0.9), 0..3).prop_map(move |ds| {
        let mut out: Vec<WorkerDeath> = Vec::new();
        for (worker, frac) in ds {
            if out.iter().all(|d| d.worker != worker) {
                out.push(WorkerDeath { worker, time: Time::from_secs_f64(horizon_s * frac) });
            }
        }
        out
    });
    let fetches =
        proptest::collection::vec((0u64..48, 0.0f64..6.0, any::<bool>()), 0..7).prop_map(|fs| {
            let mut out: Vec<FetchFault> = Vec::new();
            for (index, delay, duplicate) in fs {
                if out.iter().all(|f| f.index != index) {
                    out.push(FetchFault {
                        index,
                        extra_delay: Dur::from_secs_f64(delay),
                        duplicate,
                    });
                }
            }
            out
        });
    let drops =
        proptest::collection::vec((1u32..8, 0.0f64..0.8, 0.5f64..6.0), 0..3).prop_map(move |ds| {
            ds.into_iter()
                .map(|(worker, frac, len)| HeartbeatDrop {
                    worker,
                    start: Time::from_secs_f64(horizon_s * frac),
                    stop: Time::from_secs_f64(horizon_s * frac + len),
                })
                .collect::<Vec<_>>()
        });
    let stalls = proptest::collection::vec((0usize..6, 0u32..4, 0.0f64..0.9, 1.0f64..15.0), 0..3)
        .prop_map(move |ss| {
            ss.into_iter()
                .map(|(topic, partition, frac, len)| MofkaStall {
                    topic: dtf::chaos::STALLABLE_TOPICS[topic].into(),
                    partition,
                    start: Time::from_secs_f64(horizon_s * frac),
                    stop: Time::from_secs_f64(horizon_s * frac + len),
                })
                .collect::<Vec<_>>()
        });
    let bursts = proptest::collection::vec((0.0f64..0.9, 1.0f64..5.0, 1.5f64..8.0), 0..3).prop_map(
        move |bs| {
            bs.into_iter()
                .map(|(frac, len, factor)| InterferenceBurst {
                    start: Time::from_secs_f64(horizon_s * frac),
                    stop: Time::from_secs_f64(horizon_s * frac + len),
                    factor,
                })
                .collect::<Vec<_>>()
        },
    );
    (deaths, fetches, drops, stalls, bursts).prop_map(
        |(deaths, fetch_faults, heartbeat_drops, mofka_stalls, pfs_bursts)| FaultSchedule {
            seed: 0,
            deaths,
            fetch_faults,
            heartbeat_drops,
            mofka_stalls,
            pfs_bursts,
            ..Default::default()
        },
    )
}

proptest! {
    // the chaos cases run each schedule twice (replay gate), so keep the
    // case count modest
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos soundness: any fault schedule over any layered DAG completes
    /// every task, passes the live scheduler invariants and every post-run
    /// oracle, and replays byte-identically.
    #[test]
    fn arbitrary_fault_schedules_uphold_all_oracles(
        layers in 2usize..4,
        width in 2usize..6,
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        faults in fault_schedule_strategy(4.0),
        seed in 0u64..500,
    ) {
        let graph = random_dag_heavy(layers, width, bytes);
        let n_tasks = graph.len();
        let wf = workflow_of(graph);
        let cfg = SimConfig {
            campaign_seed: seed,
            run: RunId(0),
            faults,
            invariant_checks: true,
            ..Default::default()
        };
        // invariant_checks makes the run itself fail on the first live
        // structural violation, so the unwrap is part of the property
        let data = SimCluster::new(cfg.clone()).unwrap().run(wf.clone()).unwrap();
        prop_assert_eq!(data.distinct_tasks(), n_tasks, "every task completes");
        let violations = dtf::chaos::check_run(&data);
        prop_assert!(violations.is_empty(), "oracle violations: {violations:?}");
        // replay gate: the same seed + schedule is byte-identical
        let again = SimCluster::new(cfg).unwrap().run(wf).unwrap();
        prop_assert_eq!(
            dtf::chaos::transition_log(&data),
            dtf::chaos::transition_log(&again),
            "fault schedule must replay deterministically"
        );
    }

    /// Work stealing never violates dependency order, and the accounting
    /// agrees everywhere: `RunData::steals` equals the number of
    /// WorkStolen transitions, and is zero when stealing is disabled.
    #[test]
    fn work_stealing_safe_and_accounted(
        layers in 1usize..4,
        width in 2usize..10,
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        seed in 0u64..500,
        stealing in any::<bool>(),
    ) {
        let graph = random_dag_heavy(layers, width, bytes);
        let n_tasks = graph.len();
        let deps: HashMap<TaskKey, Vec<TaskKey>> =
            graph.tasks.iter().map(|t| (t.key, t.deps.clone())).collect();
        let mut cfg = SimConfig {
            campaign_seed: seed,
            run: RunId(0),
            invariant_checks: true,
            ..Default::default()
        };
        cfg.wms.work_stealing = stealing;
        let data = SimCluster::new(cfg).unwrap().run(workflow_of(graph)).unwrap();
        prop_assert_eq!(data.task_done.len(), n_tasks);
        let finish: HashMap<TaskKey, Time> =
            data.task_done.iter().map(|d| (d.key, d.stop)).collect();
        for d in &data.task_done {
            for dep in &deps[&d.key] {
                prop_assert!(
                    finish[dep] <= d.start,
                    "stolen or not, a task never starts before its deps are in memory"
                );
            }
        }
        let stolen =
            data.transitions.iter().filter(|t| t.stimulus == Stimulus::WorkStolen).count() as u64;
        prop_assert_eq!(data.steals, stolen, "steal counter matches WorkStolen transitions");
        if !stealing {
            prop_assert_eq!(data.steals, 0, "stealing off means no steals");
        }
    }
}

/// Companion to [`work_stealing_safe_and_accounted`]: on a deliberately
/// skewed workload stealing actually engages, so the property above is not
/// vacuously true.
#[test]
fn stealing_engages_on_skewed_load() {
    use dtf::wms::sim::SimCluster;
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for root_idx in 0..4u32 {
        let root = b.add_sim(
            "shard",
            tok,
            root_idx,
            vec![],
            SimAction::compute_only(Dur::from_secs_f64(1.0), 8 << 30),
        );
        // skewed fan-out: shard k has 10k children, pinned by an 8 GB dep
        for c in 0..(10 * root_idx) {
            b.add_sim(
                "analyze",
                tok + 1 + root_idx,
                c,
                vec![root],
                SimAction::compute_only(Dur::from_secs_f64(2.0), 1 << 20),
            );
        }
    }
    let graph = b.build(&HashSet::new()).unwrap();
    let run = |stealing: bool| {
        let mut cfg = SimConfig { campaign_seed: 7, run: RunId(0), ..Default::default() };
        cfg.wms.work_stealing = stealing;
        SimCluster::new(cfg).unwrap().run(workflow_of(graph.clone())).unwrap()
    };
    let on = run(true);
    let off = run(false);
    assert!(on.steals > 0, "skewed load must trigger stealing");
    assert_eq!(
        on.steals,
        on.transitions.iter().filter(|t| t.stimulus == Stimulus::WorkStolen).count() as u64
    );
    assert_eq!(off.steals, 0);
    assert_eq!(on.distinct_tasks(), off.distinct_tasks());
}

#[test]
fn bedrock_default_supports_every_plugin_topic() {
    // not property-based but belongs with the invariants: the default
    // deployment must create every topic of the table, as the table sizes it
    let svc = BedrockConfig::wms_default().bootstrap().unwrap();
    for topic in dtf::mofka::bedrock::WMS_TOPICS {
        let created = svc.topic(topic.name).unwrap_or_else(|_| panic!("missing {}", topic.name));
        assert_eq!(created.num_partitions(), topic.partitions, "{}", topic.name);
    }
    assert_eq!(svc.topic_names().len(), dtf::mofka::bedrock::WMS_TOPICS.len());
}

// ---------------------------------------------------------------------------
// The common tabular format: one projection, three renderings that agree.
// ---------------------------------------------------------------------------

/// The CSV rendering written the slow, obvious way — every cell boxed,
/// rendered to its own `String`, quoted per RFC 4180, joined — as the
/// exporter did before it streamed.
fn reference_csv(names: &[&str], rows: Vec<Vec<dtf::core::table::Value>>) -> String {
    fn field(s: String) -> String {
        if s.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s
        }
    }
    let mut out = names.iter().map(|n| field(n.to_string())).collect::<Vec<_>>().join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|v| field(v.to_string())).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Streamed rows and the reference print the same bytes.
fn assert_one_csv<T: dtf::core::table::Tabular>(events: &[T]) {
    let mut streamed = dtf::perfrecup::frame::CsvWriter::default();
    streamed.header(&T::schema());
    for e in events {
        streamed.row(e);
    }
    let reference = reference_csv(&T::schema(), events.iter().map(|e| e.row()).collect());
    assert_eq!(streamed.as_str(), reference);
}

/// Times that stress the `{:.6}` float form the integer seconds writer
/// must reproduce: both ends of `u64`, ordinary run-length instants, exact
/// half-microsecond ties, and the edge of f64's exact integers (2^53),
/// where the writer hands over to the float path. Whole microseconds are
/// in the mix so that a tie minus one of them is a tie duration.
fn time_strategy() -> impl Strategy<Value = Time> {
    const EXACT: u64 = 1 << 53;
    prop_oneof![
        Just(Time(0)),
        Just(Time(u64::MAX)),
        any::<u64>().prop_map(Time),
        (0u64..4_000_000_000_000).prop_map(Time),
        (0u64..4_000_000_000).prop_map(|k| Time(k * 1000 + 500)),
        (0u64..4_000_000_000).prop_map(|k| Time(k * 1000)),
        prop_oneof![Just(EXACT - 1), Just(EXACT), Just(EXACT + 1)].prop_map(Time),
    ]
}

proptest! {
    /// For arbitrary events of every `Tabular` type — prefixes that need
    /// quoting or are not ASCII, times at the `u64` extremes, at exact
    /// half-microsecond ties and around 2^53, optional workers both ways,
    /// empty slices — the streamed CSV and the reference rendering are one
    /// text: the integer seconds writer against `Value`'s `{:.6}`.
    #[test]
    fn streamed_csv_equals_the_frame_csv_for_every_tabular_type(
        shapes in proptest::collection::vec(
            (
                ("[ab,\"\n\ré✓_]{0,5}", any::<u32>(), any::<u32>()),
                (0u32..70_000, 0u32..4, any::<bool>()),
                (time_strategy(), time_strategy()),
                (any::<u64>(), 0u8..12),
            ),
            0..4,
        ),
    ) {
        use dtf::core::events::*;
        use dtf::core::ids::{ClientId, FileId, NodeId, ThreadId, WorkerId};

        let mut transitions = Vec::new();
        let mut worker_transitions = Vec::new();
        let mut meta = Vec::new();
        let mut done = Vec::new();
        let mut comms = Vec::new();
        let mut io = Vec::new();
        let mut warnings = Vec::new();
        let mut proxies = Vec::new();
        for ((prefix, token, index), (node, slot, has_worker), (start, stop), (n, pick)) in shapes {
            let key = TaskKey::new(prefix.as_str(), token, index);
            let graph = GraphId(token % 100);
            let worker = WorkerId::new(NodeId(node), slot);
            let peer = WorkerId::new(NodeId(node / 2), slot + 1);
            let maybe_worker = has_worker.then_some(worker);
            let thread = ThreadId(n);
            transitions.push(TransitionEvent {
                key,
                graph,
                from: TaskState::Waiting,
                to: [TaskState::Processing, TaskState::NoWorker][pick as usize % 2],
                stimulus: [Stimulus::Dispatched, Stimulus::NoWorkerAvailable][pick as usize % 2],
                location: maybe_worker.map_or(Location::Scheduler, Location::Worker),
                time: start,
            });
            worker_transitions.push(WorkerTransitionEvent {
                key,
                graph,
                worker,
                from: WorkerTaskState::Ready,
                to: WorkerTaskState::Executing,
                time: stop,
            });
            meta.push(TaskMetaEvent {
                key,
                graph,
                client: ClientId(slot),
                deps: vec![key; pick as usize % 3],
                submitted: start,
            });
            done.push(TaskDoneEvent { key, graph, worker, thread, start, stop, nbytes: n });
            comms.push(CommEvent { key, from: worker, to: peer, nbytes: n, start, stop });
            io.push(IoRecord {
                host: worker.node,
                worker,
                thread,
                file: FileId(n >> 3),
                op: [IoOp::Open, IoOp::Read, IoOp::Write, IoOp::Close][pick as usize % 4],
                offset: n,
                size: n >> 7,
                start,
                stop,
            });
            warnings.push(WarningEvent {
                kind: [WarningKind::GcPause, WarningKind::UnresponsiveEventLoop][pick as usize % 2],
                worker: maybe_worker,
                time: start,
                duration: stop - start,
            });
            proxies.push(ProxyEvent {
                action: [ProxyAction::Published, ProxyAction::Resolved, ProxyAction::Orphaned]
                    [pick as usize % 3],
                key,
                graph,
                size: n,
                owner: peer,
                checksum: !n,
                generation: slot,
                worker: maybe_worker,
                time: stop,
            });
        }
        assert_one_csv(&transitions);
        assert_one_csv(&worker_transitions);
        assert_one_csv(&meta);
        assert_one_csv(&done);
        assert_one_csv(&comms);
        assert_one_csv(&io);
        assert_one_csv(&warnings);
        assert_one_csv(&proxies);
    }
}

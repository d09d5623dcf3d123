//! The derived run state (`dtf::perfrecup::state`) against what it must be
//! insensitive to and against independent definitions of what it computes.
//!
//! * **Order and chunking.** One multiset of task-done and communication
//!   events plus a Darshan log set, fed in arbitrary permutations with
//!   reads in between, renders byte-identical views — and so does a live
//!   engine over a topic partition longer than any prefetch window, full
//!   of events tied in the post-hoc sort key.
//! * **Reference definitions.** The naive forms of the three kernels —
//!   collect a category's samples and summarize them with Welford, the
//!   `f64` overlap loop per worker, a scan of the whole run per lineage —
//!   live here as the independent reference. The state must agree with
//!   them exactly on everything integral and within 1e-9 on the floats,
//!   over simulated runs and chaos schedules that recompute keys.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dtf::chaos::{run_faults, run_schedule, schedule_seed};
use dtf::core::events::{CommEvent, IoOp, IoRecord, TaskDoneEvent};
use dtf::core::fault::{FaultSchedule, WorkerDeath};
use dtf::core::ids::{FileId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf::core::provenance::{LineageLocation, LineageTransition, TaskLineage};
use dtf::core::stats::Summary;
use dtf::core::time::{Dur, Time};
use dtf::darshan::counters::PosixCounters;
use dtf::darshan::log::{DarshanLog, LogHeader, LogSet};
use dtf::mofka::bedrock::BedrockConfig;
use dtf::mofka::{Event, MofkaService, ProducerConfig, TopicConfig};
use dtf::perfrecup::category::{per_category, CategoryStats};
use dtf::perfrecup::lineage;
use dtf::perfrecup::live::{phase_sample, LiveConfig, LiveViews, RunFinal, ViewSnapshot};
use dtf::perfrecup::state::RunState;
use dtf::perfrecup::utilization::{per_worker, WorkerUtilization};
use dtf::wms::rundata::RunData;
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::{GraphBuilder, IoCall, SimAction};

// ------------------------------------------------------------ generators

/// Quarter-second ticks: coarse enough that starts, stops and I/O instants
/// collide all the time (tied sort keys, shared endpoints), long enough
/// that a few dozen of them outgrow several provisional horizons.
const TICK: u64 = 250_000_000;

fn worker(slot: u32) -> WorkerId {
    WorkerId::new(NodeId(slot / 2), slot % 2)
}

fn done((cat, slot, lane, start, len, nbytes): (u32, u32, u32, u64, u64, u64)) -> TaskDoneEvent {
    TaskDoneEvent {
        key: TaskKey::new(format!("cat{cat}").as_str(), cat, (start * 7 + len) as u32 % 5),
        graph: GraphId(0),
        worker: worker(slot),
        thread: ThreadId::synth(worker(slot), lane),
        start: Time(start * TICK),
        stop: Time((start + len) * TICK),
        nbytes,
    }
}

fn arb_done() -> impl Strategy<Value = TaskDoneEvent> {
    let nbytes = prop_oneof![Just(0u64), 1u64..1 << 40, Just(u64::MAX)];
    (0u32..4, 0u32..5, 0u32..2, 0u64..60, 0u64..6, nbytes).prop_map(done)
}

fn arb_comm() -> impl Strategy<Value = CommEvent> {
    (0u32..4, 0u32..5, 0u64..60, 0u64..4).prop_map(|(cat, slot, start, len)| CommEvent {
        key: TaskKey::new(format!("cat{cat}").as_str(), cat, 0),
        from: worker(slot),
        to: worker((slot + 1) % 5),
        nbytes: 1 << 20,
        start: Time(start * TICK),
        stop: Time((start + len) * TICK),
    })
}

fn arb_io() -> impl Strategy<Value = IoRecord> {
    let op = prop_oneof![Just(IoOp::Read), Just(IoOp::Write), Just(IoOp::Open)];
    (0u32..6, 0u32..2, 0u64..70, op, 0u64..1 << 30).prop_map(|(slot, lane, start, op, size)| {
        IoRecord {
            host: worker(slot).node,
            worker: worker(slot),
            thread: ThreadId::synth(worker(slot), lane),
            file: FileId(0),
            op,
            offset: 0,
            size,
            start: Time(start * TICK),
            stop: Time(start * TICK + 1_000),
        }
    })
}

/// One Darshan log holding `records`, counters included.
fn log_set(records: Vec<IoRecord>) -> LogSet {
    let mut counters = PosixCounters::new();
    for r in &records {
        counters.record(r);
    }
    let header = LogHeader {
        run: RunId(0),
        job_id: 0,
        worker: worker(0),
        hostname: "nid0000".into(),
        start: Time::ZERO,
        end: Time(80 * TICK),
        dxt_truncated: false,
        dxt_dropped: 0,
    };
    LogSet::new(vec![DarshanLog { header, counters, dxt: records }])
}

/// Everything a snapshot publishes, serialized: equal bytes, equal views.
fn rendered(state: &RunState, bins: usize) -> String {
    serde_json::json!({
        "categories": state.categories(),
        "utilization": state.utilization(bins, 2),
        "phases": state.phases(),
        "attribution_rate": state.attribution_rate(),
    })
    .to_string()
}

enum Fed {
    Done(TaskDoneEvent),
    Comm(CommEvent),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same multiset in two orders — one of them read after every
    /// chunk, which is when maintained bins and provisional horizons are
    /// exercised — renders the same bytes, mid-run reads included once the
    /// multisets agree, and the maintained bins equal bins made on demand.
    #[test]
    fn any_order_and_chunking_renders_the_same_bytes(
        dones in proptest::collection::vec(arb_done(), 1..120),
        comms in proptest::collection::vec(arb_comm(), 0..30),
        ios in proptest::collection::vec(arb_io(), 0..60),
        shuffle in any::<u64>(),
        chunk in 1usize..40,
        bins in 1usize..24,
    ) {
        let logs = log_set(ios);
        let wall = Dur(70 * TICK + 12_345);
        let mut events: Vec<Fed> =
            dones.into_iter().map(Fed::Done).chain(comms.into_iter().map(Fed::Comm)).collect();
        let feed = |state: &mut RunState, e: &Fed| match e {
            Fed::Done(d) => state.task_done(d),
            Fed::Comm(c) => state.comm(c),
        };

        let mut in_order = RunState::with_bins(bins);
        let mut on_demand = RunState::default();
        for e in &events {
            feed(&mut in_order, e);
            feed(&mut on_demand, e);
        }
        let mid_run = rendered(&in_order, bins);
        prop_assert_eq!(&mid_run, &rendered(&on_demand, bins), "maintained bins, mid-run");

        events.shuffle(&mut SmallRng::seed_from_u64(shuffle));
        let mut shuffled = RunState::with_bins(bins);
        for batch in events.chunks(chunk) {
            for e in batch {
                feed(&mut shuffled, e);
            }
            std::hint::black_box(rendered(&shuffled, bins));
        }
        prop_assert_eq!(&mid_run, &rendered(&shuffled, bins), "arrival order, mid-run");

        for state in [&mut in_order, &mut on_demand, &mut shuffled] {
            state.set_wall(wall);
            state.join_io(&logs);
        }
        let finished = rendered(&in_order, bins);
        prop_assert_eq!(&finished, &rendered(&shuffled, bins), "arrival order, finished");
        prop_assert_eq!(&finished, &rendered(&on_demand, bins), "maintained bins, finished");
    }
}

/// The WMS deployment's topics, each one partition, so a stream of any
/// length sits in a single partition log.
fn one_partition_service() -> MofkaService {
    let svc = MofkaService::new();
    for topic in BedrockConfig::wms_default().topics {
        svc.create_topic(&topic.name, TopicConfig { partitions: 1 }).expect("topic");
    }
    svc
}

/// Follow `dones` (produced in the given order) live, pumping `chunk`
/// events per refresh, and return the finalized snapshot with its
/// service.
fn follow(dones: &[TaskDoneEvent], chunk: usize, fin: &RunFinal) -> (MofkaService, ViewSnapshot) {
    let svc = one_partition_service();
    let mut producer = svc.producer("task-done", ProducerConfig::default()).expect("producer");
    for d in dones {
        producer.push(Event::typed(d.clone())).expect("push");
    }
    producer.flush().expect("flush");
    let cfg = LiveConfig { group: "one-partition".into(), bins: 16, threads_per_worker: 2 };
    let mut live = LiveViews::attach(&svc, cfg).expect("attach");
    while live.pump(chunk).expect("pump") > 0 {
        live.publish();
    }
    let snap = live.finalize(fin.clone()).expect("finalize");
    (svc, ViewSnapshot { version: 0, ..(*snap).clone() })
}

/// The two situations ordered replay had to exclude, at once: one
/// partition holding more task-done events than a prefetch window (4096),
/// and events tied in `(stop, start)` that differ in everything else.
#[test]
fn one_partition_past_the_prefetch_window_with_tied_sort_keys() {
    let mut rng = SmallRng::seed_from_u64(20);
    let mut dones: Vec<TaskDoneEvent> = (0..5_000u64)
        .map(|i| {
            // ten events share each (start, stop); nothing else is shared
            let start = i / 10;
            done(((i % 4) as u32, (i % 5) as u32, (i % 2) as u32, start, 2, i * 4096 + 1))
        })
        .collect();
    let ios: Vec<IoRecord> = (0..600).map(|_| arb_io().generate(&mut rng)).collect();
    let fin = RunFinal { darshan: log_set(ios), wall_time: Dur(600 * TICK) };

    let (svc, forward) = follow(&dones, 4096, &fin);
    dones.shuffle(&mut rng);
    let (_, shuffled) = follow(&dones, 333, &fin);
    assert_eq!(
        serde_json::to_string(&forward).unwrap(),
        serde_json::to_string(&shuffled).unwrap(),
        "arrival order and chunking reached a finalized snapshot"
    );

    let oracle = RunData::drain_from_mofka(
        &svc,
        RunId(1),
        "one-partition".into(),
        sim_run(1, 1, 1).chart,
        fin.darshan.clone(),
        fin.wall_time,
        Vec::new(),
        0,
    )
    .expect("drain");
    assert_eq!(oracle.task_done.len(), 5_000);
    assert_eq!(forward.categories, per_category(&oracle));
    assert_eq!(forward.utilization, per_worker(&oracle, 16, 2));
    assert_eq!(forward.phases, phase_sample(&oracle));
    assert!(forward.attribution_rate.unwrap() > 0.0);
}

// ------------------------------------------------- reference definitions

/// The join, naively: every execution is a candidate for every record.
fn naive_owner<'a>(data: &'a RunData, rec: &IoRecord) -> Option<&'a TaskDoneEvent> {
    data.task_done
        .iter()
        .filter(|d| d.thread == rec.thread && d.start <= rec.start && rec.start <= d.stop)
        .max_by_key(|d| (d.start, d.stop, d.key))
}

/// The category view, naively: collect each category's samples, summarize
/// them with Welford, attribute I/O through the naive join.
fn naive_categories(data: &RunData) -> BTreeMap<String, CategoryStats> {
    #[derive(Default)]
    struct Samples {
        durations: Vec<f64>,
        nbytes: Vec<f64>,
        threads: HashSet<u64>,
        workers: HashSet<String>,
        io_ops: u64,
        io_bytes: u64,
    }
    let mut cats: BTreeMap<String, Samples> = BTreeMap::new();
    for d in &data.task_done {
        let s = cats.entry(d.key.prefix.as_str().to_string()).or_default();
        s.durations.push(d.duration().as_secs_f64());
        s.nbytes.push(d.nbytes as f64);
        s.threads.insert(d.thread.0);
        s.workers.insert(d.worker.address());
    }
    for rec in data.darshan.all_records() {
        if let (Some(owner), IoOp::Read | IoOp::Write) = (naive_owner(data, rec), rec.op) {
            let s = cats.get_mut(owner.key.prefix.as_str()).expect("owner's category");
            s.io_ops += 1;
            s.io_bytes += rec.size;
        }
    }
    cats.into_iter()
        .map(|(category, s)| {
            let stats = CategoryStats {
                category: category.clone(),
                tasks: s.durations.len(),
                duration: Summary::of(&s.durations),
                output_nbytes: Summary::of(&s.nbytes),
                threads: s.threads.len(),
                workers: s.workers.len(),
                io_ops: s.io_ops,
                io_bytes: s.io_bytes,
            };
            (category, stats)
        })
        .collect()
}

/// The utilization view, naively: `f64` seconds, one overlap at a time.
fn naive_per_worker(data: &RunData, bins: usize, threads: u32) -> Vec<WorkerUtilization> {
    let horizon = data.wall_time.as_secs_f64().max(1e-9);
    let w = horizon / bins as f64;
    let mut map: BTreeMap<WorkerId, Vec<f64>> = BTreeMap::new();
    for d in &data.task_done {
        let busy = map.entry(d.worker).or_insert_with(|| vec![0.0; bins]);
        let (s, e) = (d.start.as_secs_f64(), d.stop.as_secs_f64());
        let first = ((s / w) as usize).min(bins - 1);
        let last = ((e / w) as usize).min(bins - 1);
        for (bin, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
            let b0 = bin as f64 * w;
            *slot += (e.min(b0 + w) - s.max(b0)).max(0.0);
        }
    }
    let cap = w * threads as f64;
    map.into_iter()
        .map(|(worker, busy)| WorkerUtilization {
            worker,
            busy: busy.into_iter().map(|b| (b / cap).min(1.0)).collect(),
        })
        .collect()
}

/// A lineage, naively: scan every stream of the run for one key.
fn naive_lineage(data: &RunData, key: &TaskKey) -> Option<TaskLineage> {
    let meta = data.meta.iter().find(|m| &m.key == key)?;
    let done = data.task_done.iter().rfind(|d| &d.key == key);
    let movements: Vec<CommEvent> = data.comms.iter().filter(|c| &c.key == key).cloned().collect();
    let mut locations: Vec<LineageLocation> = done
        .iter()
        .map(|d| LineageLocation { worker: d.worker, thread: Some(d.thread), since: d.stop })
        .collect();
    locations.extend(movements.iter().map(|m| LineageLocation {
        worker: m.to,
        thread: None,
        since: m.stop,
    }));
    let execution = |d: &TaskDoneEvent| (d.thread, d.start, d.stop, d.key);
    Some(TaskLineage {
        key: Some(*key),
        graph: Some(meta.graph),
        client: Some(meta.client),
        submitted: Some(meta.submitted),
        dependencies: meta.deps.clone(),
        dependents: data.meta.iter().filter(|m| m.deps.contains(key)).map(|m| m.key).collect(),
        states: data
            .transitions
            .iter()
            .filter(|t| &t.key == key && t.from != t.to)
            .map(|t| LineageTransition {
                from: t.from,
                to: t.to,
                stimulus: t.stimulus,
                location: t.location,
                time: t.time,
            })
            .collect(),
        locations,
        movements,
        io: data
            .darshan
            .all_records()
            .filter(|r| {
                done.is_some() && naive_owner(data, r).map(execution) == done.map(execution)
            })
            .cloned()
            .collect(),
        output_nbytes: done.map(|d| d.nbytes),
        start: done.map(|d| d.start),
        stop: done.map(|d| d.stop),
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

fn assert_summary(got: &Summary, want: &Summary, what: &str) {
    assert_eq!((got.count, got.min, got.max), (want.count, want.min, want.max), "{what}");
    assert!(close(got.mean, want.mean), "{what} mean {} vs {}", got.mean, want.mean);
    assert!(close(got.std, want.std), "{what} std {} vs {}", got.std, want.std);
}

/// Hold the kernels (and so the shared state) to the naive definitions.
fn check_against_references(data: &RunData) {
    let mut want = naive_categories(data);
    for got in per_category(data) {
        let want = want.remove(&got.category).expect("a category the run has");
        let what = &got.category;
        assert_eq!(
            (got.tasks, got.threads, got.workers, got.io_ops, got.io_bytes),
            (want.tasks, want.threads, want.workers, want.io_ops, want.io_bytes),
            "{what}"
        );
        assert_summary(&got.duration, &want.duration, &format!("{what} duration"));
        assert_summary(&got.output_nbytes, &want.output_nbytes, &format!("{what} nbytes"));
    }
    assert!(want.is_empty(), "categories the kernel missed: {:?}", want.keys());

    for (bins, threads) in [(1, 1), (7, 2), (20, 8)] {
        let (got, want) = (per_worker(data, bins, threads), naive_per_worker(data, bins, threads));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.worker, w.worker);
            for (a, b) in g.busy.iter().zip(&w.busy) {
                assert!(close(*a, *b), "{} bins {bins}: {a} vs {b}", g.worker);
            }
        }
    }

    let all = lineage::build_all(data);
    let submitted: BTreeSet<TaskKey> = data.meta.iter().map(|m| m.key).collect();
    assert_eq!(all.keys().copied().collect::<BTreeSet<_>>(), submitted);
    for key in &submitted {
        let want = naive_lineage(data, key).expect("submitted");
        assert_eq!(all[key], want, "build_all of {key}");
        assert_eq!(lineage::build(data, key).expect("submitted"), want, "build of {key}");
    }
    assert!(lineage::build(data, &TaskKey::new("never-submitted", 0, 0)).is_err());
}

/// A seed-derived layered workflow run to completion under virtual time;
/// the first layer reads, so the join has something to attribute.
fn sim_run(seed: u64, layers: usize, width: usize) -> RunData {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    for layer in 0..layers {
        let mut cur = Vec::new();
        for i in 0..width {
            let mut action = SimAction::compute_only(
                Dur::from_millis_f64(8.0 + ((seed >> (i % 8)) % 40) as f64),
                1 << (10 + (i % 12)),
            );
            let deps = if prev.is_empty() {
                action.io.push(IoCall::read(FileId(0), (i as u64 % 128) * 8192, 8192));
                Vec::new()
            } else {
                vec![prev[i % prev.len()], prev[(i + 1) % prev.len()]]
            };
            cur.push(b.add_sim(&format!("layer{layer}"), tok, i as u32, deps, action));
        }
        prev = cur;
    }
    let wf = SimWorkflow {
        name: format!("derived-state-{seed}"),
        graphs: vec![b.build(&HashSet::new()).expect("layered DAG is valid")],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(0.5),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/derived.dat".into(), 1 << 20, 1)],
    };
    SimCluster::new(SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() })
        .expect("cluster")
        .run(wf)
        .expect("run")
}

#[test]
fn kernels_agree_with_the_naive_definitions_on_simulated_runs() {
    for (seed, layers, width) in [(1, 1, 1), (2, 3, 40), (3, 5, 64), (4, 2, 200)] {
        check_against_references(&sim_run(seed, layers, width));
    }
}

#[test]
fn kernels_agree_with_the_naive_definitions_under_chaos_schedules() {
    // the generated mix of faults, then hand-built schedules where three
    // workers certainly die mid-run: a death that takes a needed output
    // with it recomputes keys
    let mut runs = Vec::new();
    for index in 0..8 {
        let (outcome, data) = run_schedule(20240806, index);
        runs.push(data.unwrap_or_else(|| panic!("{}", outcome.describe())));
    }
    for index in 0..16u32 {
        let deaths = (0..3u32)
            .map(|k| WorkerDeath {
                worker: 1 + (index + 2 * k) % 7,
                time: Time::from_secs_f64(2.0 + k as f64 + 0.1 * index as f64),
            })
            .collect();
        let faults = FaultSchedule { deaths, ..Default::default() };
        let seed = schedule_seed(20240806, index as u64);
        runs.push(run_faults(seed, index as u64, &faults).expect("chaos run"));
    }
    let mut recomputed = 0;
    for data in &runs {
        let distinct: HashSet<TaskKey> = data.task_done.iter().map(|d| d.key).collect();
        recomputed += data.task_done.len() - distinct.len();
        check_against_references(data);
    }
    assert!(recomputed >= 3, "too few recomputed keys to test the last-completion rule");
}

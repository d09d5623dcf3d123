//! Explicit fault schedules pinning the fetch-lifecycle fixes (PR 1) and
//! the Mofka stall semantics under the chaos harness.
//!
//! Each test runs a fixed-seed schedule under virtual time with the
//! scheduler's live invariant checks enabled, judges the run with every
//! post-run oracle, and (where the scenario is about replay) runs the
//! schedule twice and diffs the canonical transition logs byte-for-byte.
//! Where a scenario needs to kill "the worker that ran task X", an
//! unfaulted probe run with the same seed discovers the placement first —
//! placement is a pure function of the seed, so the probe is exact.

use std::collections::{HashMap, HashSet};

use dtf::chaos::runner::{chaos_workflow, sim_config};
use dtf::chaos::{check_run, generate, run_faults, schedule_seed, transition_log};
use dtf::core::events::{Stimulus, TaskState};
use dtf::core::fault::{
    FaultSchedule, FetchFault, HeartbeatDrop, InterferenceBurst, MofkaStall, WorkerDeath,
};
use dtf::core::ids::{GraphId, RunId, TaskKey, WorkerId};
use dtf::core::provenance::WmsConfig;
use dtf::core::time::{Dur, Time};
use dtf::wms::graph::{GraphBuilder, SimAction};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::RunData;

mod common;

/// `n_prod` one-second producers feeding `n_cons` consumers that each
/// depend on every producer — every consumer placed off a producer's
/// worker must fetch, so the run exercises the full fetch lifecycle.
fn fan_workflow(n_prod: u32, n_cons: u32) -> SimWorkflow {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prods = Vec::new();
    for i in 0..n_prod {
        prods.push(b.add_sim(
            "prod",
            tok,
            i,
            vec![],
            SimAction::compute_only(Dur::from_secs_f64(1.0), 4 << 20),
        ));
    }
    for i in 0..n_cons {
        b.add_sim(
            "cons",
            tok + 1,
            i,
            prods.clone(),
            SimAction::compute_only(Dur::from_secs_f64(0.5), 1 << 10),
        );
    }
    SimWorkflow {
        name: "chaos-regression".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

/// Base config: the run's seed, oracle on.
fn base_cfg(seed: u64) -> SimConfig {
    SimConfig { campaign_seed: seed, run: RunId(0), invariant_checks: true, ..Default::default() }
}

fn run(cfg: SimConfig, wf: SimWorkflow) -> RunData {
    SimCluster::new(cfg).unwrap().run(wf).unwrap()
}

/// Ordinal of `worker` in the simulator's worker list (the index fault
/// schedules address workers by).
fn ordinal(data: &RunData, worker: WorkerId) -> u32 {
    let per_node = data.chart.wms_config.workers_per_node;
    let node_pos = data
        .chart
        .job
        .allocated_nodes
        .iter()
        .position(|n| *n == worker.node)
        .expect("worker node allocated") as u32;
    // node 0 hosts scheduler+client; workers start on allocated_nodes[1]
    (node_pos - 1) * per_node + worker.slot
}

fn completions(data: &RunData) -> HashMap<&TaskKey, usize> {
    let mut m = HashMap::new();
    for d in &data.task_done {
        *m.entry(&d.key).or_insert(0) += 1;
    }
    m
}

fn assert_clean(data: &RunData) {
    let v = check_run(data);
    assert!(v.is_empty(), "oracle violations: {v:?}");
}

/// PR 1 regression: a duplicated `FetchDone` (network-level replay of a
/// transfer completion) must be idempotent — the consumer still runs
/// exactly once and the run replays byte-identically.
#[test]
fn duplicated_fetch_done_is_idempotent() {
    const SEED: u64 = 0xFE7C_0001;
    let faults = FaultSchedule {
        seed: SEED,
        fetch_faults: (0..32)
            .map(|index| FetchFault { index, extra_delay: Dur::ZERO, duplicate: true })
            .collect(),
        ..Default::default()
    };
    let cfg = SimConfig { faults, ..base_cfg(SEED) };
    let first = run(cfg.clone(), fan_workflow(8, 3));
    let second = run(cfg, fan_workflow(8, 3));
    let clean = run(base_cfg(SEED), fan_workflow(8, 3));
    assert!(!clean.comms.is_empty(), "scenario must involve transfers");
    assert!(
        first.comms.len() > clean.comms.len(),
        "duplicated FetchDone events must surface as extra comm records \
         ({} vs {})",
        first.comms.len(),
        clean.comms.len()
    );
    assert_eq!(first.distinct_tasks(), 11);
    for (key, n) in completions(&first) {
        assert_eq!(n, 1, "{key} completed {n} times under duplicated FetchDone");
    }
    assert_clean(&first);
    assert_eq!(transition_log(&first), transition_log(&second), "replay must be byte-identical");
}

/// One 4 MiB "small" producer shared by every consumer, plus one 512 MiB
/// "big" producer *per* consumer. The placement cost model pins each
/// consumer to its own big dep's worker (fetching 4 MiB beats fetching
/// 512 MiB), so every consumer must pull `small` over the network from
/// wherever it ran — the transfers the death scenarios perturb.
fn anchored_workflow(consumers: u32) -> SimWorkflow {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let small = b.add_sim(
        "small",
        tok,
        0,
        vec![],
        SimAction::compute_only(Dur::from_secs_f64(1.0), 4 << 20),
    );
    for i in 0..consumers {
        let big = b.add_sim(
            "big",
            tok,
            i,
            vec![],
            SimAction::compute_only(Dur::from_secs_f64(1.0), 512 << 20),
        );
        b.add_sim(
            "cons",
            tok + 1,
            i,
            vec![big, small],
            SimAction::compute_only(Dur::from_secs_f64(0.5), 1 << 10),
        );
    }
    SimWorkflow {
        name: "chaos-anchored".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

fn worker_of(data: &RunData, prefix: &str, index: u32) -> WorkerId {
    data.task_done
        .iter()
        .find(|d| d.key.prefix == prefix && d.key.index == index)
        .expect("task completed")
        .worker
}

/// PR 1 regression: a transfer in flight from a worker that dies is
/// re-issued from a surviving replica when one exists — no recompute, and
/// the delayed consumer completes promptly instead of waiting out the
/// stalled transfer.
#[test]
fn dead_source_reissues_from_surviving_replica() {
    const SEED: u64 = 0xFE7C_0002;
    // Probe (same seed, no faults): placement is a pure function of the
    // seed and nothing perturbs the run before dispatch, so the faulted
    // run places identically.
    let probe = run(base_cfg(SEED), anchored_workflow(2));
    let p = worker_of(&probe, "small", 0);
    let c0 = worker_of(&probe, "cons", 0);
    let c1 = worker_of(&probe, "cons", 1);
    assert!(p != c0 && p != c1, "both consumers must fetch from small's worker");
    assert_ne!(c0, c1, "consumers must fetch to two different workers");
    // Both fetches of `small` issue together when the producers complete
    // (~2 s). Delay the second 10 s; the first lands promptly and becomes
    // the surviving replica. Kill small's worker at 3 s, mid-flight.
    let victim = ordinal(&probe, p);
    let faults = FaultSchedule {
        seed: SEED,
        deaths: vec![WorkerDeath { worker: victim, time: Time::from_secs_f64(3.0) }],
        fetch_faults: vec![FetchFault {
            index: 1,
            extra_delay: Dur::from_secs_f64(10.0),
            duplicate: false,
        }],
        ..Default::default()
    };
    let data = run(SimConfig { faults, ..base_cfg(SEED) }, anchored_workflow(2));
    assert_eq!(data.distinct_tasks(), 5, "all tasks complete despite the death");
    // no WorkerLost *transition* is expected — the dead worker was idle,
    // only a transfer was in flight from it — but the loss is logged and
    // the re-issued transfer's comm record points at the replica holder
    assert!(
        data.logs.iter().any(|l| l.message.contains("lost") || l.message.contains("terminated")),
        "the death was observed"
    );
    let to_c1 = data
        .comms
        .iter()
        .find(|c| c.key.prefix == "small" && c.to == c1)
        .expect("the delayed consumer still fetched `small`");
    assert_eq!(
        to_c1.from, c0,
        "the re-issued transfer must come from the surviving replica, not {p:?}"
    );
    // the distinguishing pair of assertions vs. the no-replica scenario:
    // the producer never re-ran, and the consumer did not wait out the
    // 10 s stall — its data came from the replica right after the death
    for (key, n) in completions(&data) {
        assert_eq!(n, 1, "{key} completed {n} times; replica should prevent recompute");
    }
    assert!(
        data.wall_time.as_secs_f64() < 8.0,
        "re-issue from the replica should beat the 10 s delayed transfer \
         (wall time {})",
        data.wall_time.as_secs_f64()
    );
    assert_clean(&data);
}

/// PR 1 regression: when the dead worker held the *only* replica of a dep
/// whose transfer was in flight, the waiter goes back to waiting and the
/// dep is recomputed — the run still completes, with 2 completions for the
/// recomputed producer.
#[test]
fn dead_source_without_replica_triggers_recompute() {
    const SEED: u64 = 0xFE7C_0003;
    // ONE consumer: no second copy of `small` ever exists. Delay its only
    // fetch 10 s and kill the source mid-flight.
    let probe = run(base_cfg(SEED), anchored_workflow(1));
    let p = worker_of(&probe, "small", 0);
    assert_ne!(p, worker_of(&probe, "cons", 0), "the consumer must fetch remotely");
    let victim = ordinal(&probe, p);
    let faults = FaultSchedule {
        seed: SEED,
        deaths: vec![WorkerDeath { worker: victim, time: Time::from_secs_f64(3.0) }],
        fetch_faults: vec![FetchFault {
            index: 0,
            extra_delay: Dur::from_secs_f64(10.0),
            duplicate: false,
        }],
        ..Default::default()
    };
    let data = run(SimConfig { faults, ..base_cfg(SEED) }, anchored_workflow(1));
    assert_eq!(data.distinct_tasks(), 3, "all tasks complete despite the death");
    let counts = completions(&data);
    let small_runs = counts.iter().find(|(k, _)| k.prefix == "small").map(|(_, n)| *n).unwrap_or(0);
    assert_eq!(small_runs, 2, "the producer's only replica died mid-transfer; it must run again");
    assert_clean(&data);
}

/// Campaign 20240806, schedule 1514, base families as generated: an
/// early heartbeat gap evicts worker 2, taking with it an output nothing
/// still needed; worker 4's death later sends one of that output's
/// dependents back to recompute. The lost input read `memory` with no
/// replica, the dependent was dispatched, and placement panicked with
/// "runnable task has all inputs somewhere". The input must be recomputed
/// with its dependent.
#[test]
fn recompute_brings_back_an_input_lost_while_unneeded() {
    const SEED: u64 = 12_938_018_853_614_767_132;
    let t = |ns: u64| Time(ns);
    let faults = FaultSchedule {
        seed: SEED,
        deaths: vec![WorkerDeath { worker: 4, time: t(3_097_306_151) }],
        fetch_faults: vec![
            FetchFault { index: 2, extra_delay: Dur(5_780_256_890), duplicate: true },
            FetchFault { index: 28, extra_delay: Dur(5_410_002_687), duplicate: true },
            FetchFault { index: 37, extra_delay: Dur(3_000_220_361), duplicate: false },
        ],
        heartbeat_drops: vec![HeartbeatDrop {
            worker: 2,
            start: t(686_099_225),
            stop: t(4_409_999_930),
        }],
        mofka_stalls: vec![MofkaStall {
            topic: "worker-transitions".into(),
            partition: 0,
            start: t(5_268_513_321),
            stop: t(11_804_484_693),
        }],
        pfs_bursts: vec![InterferenceBurst {
            start: t(13_181_256_890),
            stop: t(18_505_188_465),
            factor: 6.858_872_570_013_642,
        }],
        ..Default::default()
    };
    let first = run_faults(SEED, 1514, &faults).unwrap();
    let second = run_faults(SEED, 1514, &faults).unwrap();
    assert_eq!(first.distinct_tasks(), chaos_workflow(SEED).unwrap().graphs[0].len());
    assert!(first.task_done.len() > first.distinct_tasks(), "the scenario recomputes");
    assert_clean(&first);
    assert_eq!(transition_log(&first), transition_log(&second));
}

/// A Mofka partition stalled across the whole run releases its staged
/// events at finalize — the post-run drain still sees exactly-once
/// delivery (the delivery oracle would flag any loss or duplication).
#[test]
fn mofka_stall_over_run_end_loses_nothing() {
    const SEED: u64 = 0xFE7C_0004;
    let faults = FaultSchedule {
        seed: SEED,
        mofka_stalls: vec![MofkaStall {
            topic: "task-transitions".into(),
            partition: 0,
            start: Time::from_secs_f64(0.5),
            stop: Time::from_secs_f64(10_000.0), // beyond the run's end
        }],
        ..Default::default()
    };
    let cfg = SimConfig { faults, ..base_cfg(SEED) };
    let stalled = run(cfg, fan_workflow(8, 3));
    let clean = run(base_cfg(SEED), fan_workflow(8, 3));
    assert_clean(&stalled);
    assert_eq!(
        stalled.transitions.len(),
        clean.transitions.len(),
        "stall must not lose or duplicate transition records"
    );
}

/// dtf-store crash faults, every kind against every target, fixed seeds:
/// a payload-carrying persisted service is damaged on a scratch copy and
/// reopened. Recovery must always surface a committed prefix (the oracle)
/// and must be deterministic — the same fault on a fresh copy recovers
/// the identical stream.
#[test]
fn crash_faults_recover_committed_prefixes_deterministically() {
    use dtf::chaos::{copy_store, recovery_oracle, CrashFault, CrashKind, CrashTarget};
    use dtf::mofka::producer::ProducerConfig;
    use dtf::mofka::{Event, MofkaService, TopicConfig};

    let base = std::env::temp_dir().join(format!("dtf-chaos-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let golden = base.join("golden");
    {
        let svc = MofkaService::durable(&golden).unwrap();
        svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
        let mut p = svc.producer("t", ProducerConfig::default()).unwrap();
        for i in 0..300u64 {
            let data = bytes::Bytes::from(vec![(i % 251) as u8; 32]);
            p.push(Event { data, ..common::tagged(0, i) }).unwrap();
        }
        p.flush().unwrap();
        svc.sync().unwrap();
    }
    let (pristine, _) = MofkaService::reopen(&golden).unwrap();

    let faults = [
        (CrashTarget::YokanWal, CrashKind::TruncateTail, 0xC0A1u64),
        (CrashTarget::YokanWal, CrashKind::ZeroTail, 0xC0A2),
        (CrashTarget::YokanWal, CrashKind::BitFlip, 0xC0A3),
        (CrashTarget::WarabiLog, CrashKind::TruncateTail, 0xC0A4),
        (CrashTarget::WarabiLog, CrashKind::ZeroTail, 0xC0A5),
        (CrashTarget::WarabiLog, CrashKind::BitFlip, 0xC0A6),
        (CrashTarget::TopicLog, CrashKind::TruncateTail, 0xC0A7),
        (CrashTarget::TopicLog, CrashKind::ZeroTail, 0xC0A8),
        (CrashTarget::TopicLog, CrashKind::BitFlip, 0xC0A9),
    ];
    for (target, kind, seed) in faults {
        let fault = CrashFault { target, kind, seed };
        let recover = |label: &str| {
            let victim = base.join(format!("victim-{seed:x}-{label}"));
            copy_store(&golden, &victim).unwrap();
            fault.apply(&victim).unwrap();
            let (svc, recovery) = MofkaService::reopen(&victim).unwrap();
            (svc, recovery.restored_events, victim)
        };
        let (first, n1, victim_a) = recover("a");
        let violations = recovery_oracle(&pristine, &first);
        assert!(violations.is_empty(), "{fault:?} violated recovery: {violations:?}");
        let (second, n2, victim_b) = recover("b");
        assert_eq!(n1, n2, "{fault:?}: recovery must be deterministic from the seed");
        assert!(
            recovery_oracle(&first, &second).is_empty()
                && recovery_oracle(&second, &first).is_empty(),
            "{fault:?}: both recoveries must expose the identical stream"
        );
        drop(first);
        drop(second);
        std::fs::remove_dir_all(&victim_a).unwrap();
        std::fs::remove_dir_all(&victim_b).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Service-level exactly-once under a stall: events produced into a
/// stalled partition become visible only after unstall, in order, exactly
/// once across incremental drains of one consumer group.
#[test]
fn mofka_stall_preserves_exactly_once_in_order() {
    use dtf::mofka::producer::{PartitionStrategy, ProducerConfig};
    use dtf::mofka::{ConsumerConfig, MofkaService, TopicConfig};

    let svc = MofkaService::new();
    svc.create_topic("t", TopicConfig { partitions: 1 }).unwrap();
    let mut producer = svc
        .producer("t", ProducerConfig { batch_size: 1, strategy: PartitionStrategy::RoundRobin })
        .unwrap();
    for i in 0..50u64 {
        producer.push(common::tagged(0, i)).unwrap();
    }
    producer.flush().unwrap();
    svc.stall_partition("t", 0).unwrap();
    for i in 50..100u64 {
        producer.push(common::tagged(0, i)).unwrap();
    }
    producer.flush().unwrap();

    let mut consumer =
        svc.consumer("t", ConsumerConfig { group: "g".into(), prefetch: 16 }).unwrap();
    let before: Vec<u64> =
        consumer.drain_all().unwrap().iter().map(|e| common::tag(&e.event).1).collect();
    assert_eq!(before, (0..50).collect::<Vec<u64>>(), "stalled events must not be visible");

    svc.unstall_partition("t", 0).unwrap();
    let after: Vec<u64> =
        consumer.drain_all().unwrap().iter().map(|e| common::tag(&e.event).1).collect();
    assert_eq!(after, (50..100).collect::<Vec<u64>>(), "exactly the staged events, in order");
}

/// The chaos campaign's own cluster (8 workers of 8 threads, layers at
/// most 5 wide) never saturates, so none of its runs queues a task and
/// its worker deaths never meet the scheduler's queue. Two one-thread
/// workers at a queue factor of 1 do: the first 200 schedules of the
/// campaign, each drawn for two workers and run on its own seed-derived
/// workflow, must all complete with every oracle clean — the live one
/// included, which holds that a task waits in `queued` only while every
/// live worker is saturated — and some of them must both queue a task and
/// lose a worker's work.
#[test]
fn queued_tasks_survive_worker_loss_on_a_saturated_cluster() {
    const CAMPAIGN: u64 = 20_240_806;
    let wms = WmsConfig {
        workers_per_node: 1,
        threads_per_worker: 1,
        queue_factor: 1.0,
        ..Default::default()
    };
    let mut reached = 0;
    for index in 0..200 {
        let seed = schedule_seed(CAMPAIGN, index);
        let cfg = SimConfig { wms: wms.clone(), ..sim_config(seed, index, generate(seed, 2)) };
        let data = SimCluster::new(cfg)
            .and_then(|sim| sim.run(chaos_workflow(seed)?))
            .unwrap_or_else(|e| panic!("schedule {index}: {e}"));
        let v = check_run(&data);
        assert!(v.is_empty(), "schedule {index}: oracle violations: {v:?}");
        let queued = data.transitions.iter().any(|t| t.to == TaskState::Queued);
        let lost = data.transitions.iter().any(|t| t.stimulus == Stimulus::WorkerLost);
        reached += usize::from(queued && lost);
    }
    assert!(reached > 0, "no schedule both queued a task and lost a worker's work");
}

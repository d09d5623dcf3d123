//! Failure injection across the stack: worker death with recompute, PFS
//! interference, and DXT buffer exhaustion.

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::Duration;

use dtf::core::error::DtfError;
use dtf::core::fault::{FaultSchedule, InterferenceBurst, StragglerFault, WorkerDeath};
use dtf::core::ids::{GraphId, RunId, WorkerId};
use dtf::core::rngx::RunRng;
use dtf::core::time::{Dur, Time};
use dtf::darshan::DxtConfig;
use dtf::wms::graph::{GraphBuilder, IoCall, SimAction};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::workflows::Workload;

/// Kill each `(worker ordinal, seconds)` pair's worker at that time.
fn deaths(kills: &[(u32, f64)]) -> FaultSchedule {
    let deaths = kills
        .iter()
        .map(|&(worker, t)| WorkerDeath { worker, time: Time::from_secs_f64(t) })
        .collect();
    FaultSchedule { deaths, ..Default::default() }
}

fn long_workflow(tasks: u32, task_secs: f64, with_io: bool) -> SimWorkflow {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut roots = Vec::new();
    for i in 0..tasks {
        let action = SimAction {
            compute: Dur::from_secs_f64(task_secs),
            io: if with_io {
                vec![IoCall::read(dtf::core::ids::FileId(0), (i as u64 % 16) * 4096, 4096)]
            } else {
                vec![]
            },
            output_nbytes: 1 << 16,
            stall_rate: 0.0,
        };
        roots.push(b.add_sim("work", tok, i, vec![], action));
    }
    // a reduction so lost outputs matter
    for (i, r) in roots.iter().enumerate() {
        b.add_sim(
            "consume",
            tok + 1,
            i as u32,
            vec![*r],
            SimAction::compute_only(Dur::from_secs_f64(task_secs / 2.0), 128),
        );
    }
    SimWorkflow {
        name: "failure-test".into(),
        graphs: vec![b.build(&HashSet::new()).unwrap()],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/data".into(), 1 << 20, 1)],
    }
}

#[test]
fn worker_death_recovers_and_completes() {
    let cfg = SimConfig {
        campaign_seed: 3,
        run: RunId(0),
        faults: deaths(&[(2, 3.0)]),
        ..Default::default()
    };
    let data = SimCluster::new(cfg).unwrap().run(long_workflow(96, 3.0, false)).unwrap();
    assert_eq!(data.distinct_tasks(), 192, "all tasks eventually complete");
    // fault detection logged the loss
    assert!(data.logs.iter().any(|l| l.message.contains("lost")));
    // some tasks were re-run: total completions exceed distinct tasks OR
    // the run simply rescheduled in-flight ones; either way, the dead
    // worker has no completions after the death + detection window
    let dead_node = data.chart.job.allocated_nodes[1];
    let dead_worker = WorkerId::new(dead_node, 2);
    let detection_deadline = Time::from_secs_f64(3.0 + 4.0);
    assert!(
        data.task_done
            .iter()
            .filter(|d| d.worker == dead_worker)
            .all(|d| d.stop <= detection_deadline),
        "no completions on the dead worker after detection"
    );
}

/// Two workers that die at one instant are evicted by one fault check,
/// and their "lost" lines come in ascending address spelling, not in
/// worker order. At campaign seed 6 the worker nodes are 320 and 382, so
/// worker 5 (`10.0.1.126:40001`, node 382) spells before worker 1
/// (`10.0.1.64:40001`, node 320).
#[test]
fn workers_lost_at_one_check_are_logged_in_address_order() {
    let cfg = SimConfig {
        campaign_seed: 6,
        run: RunId(0),
        faults: deaths(&[(1, 2.0), (5, 2.0)]),
        ..Default::default()
    };
    let data = SimCluster::new(cfg).unwrap().run(long_workflow(64, 4.0, false)).unwrap();
    let nodes = &data.chart.job.allocated_nodes;
    let worker_1 = WorkerId::new(nodes[1], 1).address();
    let worker_5 = WorkerId::new(nodes[2], 1).address();
    assert!(worker_5 < worker_1, "address order differs from worker order at this seed");
    let lost: Vec<_> =
        data.logs.iter().filter(|l| l.message.ends_with("lost (missed heartbeats)")).collect();
    assert_eq!(lost.len(), 2, "both deaths are detected");
    assert_eq!(lost[0].time, lost[1].time, "one fault check evicts both");
    assert_eq!(lost[0].message, format!("worker {worker_5} lost (missed heartbeats)"));
    assert_eq!(lost[1].message, format!("worker {worker_1} lost (missed heartbeats)"));
}

#[test]
fn worker_death_transitions_carry_worker_lost_stimulus() {
    let cfg = SimConfig {
        campaign_seed: 4,
        run: RunId(0),
        faults: deaths(&[(0, 2.0)]),
        ..Default::default()
    };
    let data = SimCluster::new(cfg).unwrap().run(long_workflow(96, 3.0, false)).unwrap();
    let lost = data
        .transitions
        .iter()
        .filter(|t| t.stimulus == dtf::core::events::Stimulus::WorkerLost)
        .count();
    assert!(lost > 0, "WorkerLost transitions recorded");
}

/// Every simulated run reads through a PFS under background load
/// (`LoadProcess::pfs_default`, which `SimCluster::new` always builds), so
/// the variability signature is checked on the model the runs use, against
/// the same PFS with no load: seeded 12-run sets per arm, each run seeded
/// the way the simulator seeds it, and load must raise not just the mean
/// I/O time but its run-to-run coefficient of variation — the paper's
/// variability signature — and every run must be deterministic given
/// (seed, run, arm).
///
/// The workload gives the load model something to bite on: 8 MiB reads
/// are bandwidth-bound (the windowed load factor scales the bandwidth
/// term, not the fixed latency), and 320 reads two seconds apart stretch
/// each run across many 5 s load windows so bursts can land.
#[test]
fn interference_increases_io_time_variability() {
    use dtf::core::rngx::RunRng;
    use dtf::platform::{LoadProcess, Pfs, PfsConfig};
    use rand::Rng;

    let io_time = |loaded: bool, run: u32| -> f64 {
        let rr = RunRng::new(5, RunId(run));
        let seed = rr.stream("interference").gen::<u64>();
        let load = if loaded { LoadProcess::pfs_default(seed) } else { LoadProcess::none(seed) };
        let mut pfs = Pfs::new(PfsConfig::default(), load);
        let file = pfs.create("/data", 1 << 30, 4);
        let mut rng = rr.stream("io");
        (0..320u64)
            .map(|i| {
                let at = Time::from_secs_f64(1.0 + 2.0 * i as f64);
                pfs.read(file, (i % 16) * (8 << 20), 8 << 20, at, &mut rng).unwrap().as_secs_f64()
            })
            .sum()
    };
    let io_times = |loaded: bool| -> Vec<f64> {
        let times: Vec<f64> = (0..12).map(|run| io_time(loaded, run)).collect();
        assert_eq!(times[3], io_time(loaded, 3), "a run is a function of (seed, run, arm)");
        times
    };
    let quiet = dtf::core::stats::Summary::of(&io_times(false));
    let noisy = dtf::core::stats::Summary::of(&io_times(true));
    assert!(
        noisy.mean > quiet.mean,
        "background interference should increase mean I/O time ({} vs {})",
        noisy.mean,
        quiet.mean
    );
    assert!(
        noisy.cv() > quiet.cv(),
        "background interference should increase run-to-run I/O variability \
         (CV {} vs {})",
        noisy.cv(),
        quiet.cv()
    );
    // the burst regime dominates the quiet arm's residual noise
    assert!(
        noisy.cv() > 1.5 * quiet.cv(),
        "interference CV should clearly dominate the quiet arm ({} vs {})",
        noisy.cv(),
        quiet.cv()
    );
}

#[test]
fn dxt_exhaustion_truncates_but_counters_stay_complete() {
    let cfg = SimConfig {
        campaign_seed: 6,
        run: RunId(0),
        dxt: DxtConfig::with_buffer(4),
        ..Default::default()
    };
    let data = SimCluster::new(cfg).unwrap().run(long_workflow(64, 0.05, true)).unwrap();
    assert!(data.darshan.any_truncated());
    assert!(data.io_ops() < data.io_ops_complete());
    assert_eq!(data.io_ops_complete(), 64, "counters module sees every read");
    // the truncation is flagged per process in the log header
    assert!(data.darshan.logs.iter().any(|l| l.header.dxt_dropped > 0));
}

#[test]
fn death_of_every_worker_but_one_still_completes() {
    // harsher scenario: of the cluster's 8 workers (2 nodes of 4), kill 7
    // in sequence; the last one keeps going
    let kills: Vec<(u32, f64)> = (1..8).map(|w| (w, 1.0 + w as f64)).collect();
    let cfg =
        SimConfig { campaign_seed: 7, run: RunId(0), faults: deaths(&kills), ..Default::default() };
    let data = SimCluster::new(cfg).unwrap().run(long_workflow(48, 2.0, false)).unwrap();
    assert_eq!(data.distinct_tasks(), 96);
    let after_last_kill =
        |d: &&dtf::core::events::TaskDoneEvent| d.start > Time::from_secs_f64(8.0);
    let survivors: HashSet<WorkerId> =
        data.task_done.iter().filter(after_last_kill).map(|d| d.worker).collect();
    assert_eq!(survivors.len(), 1, "only the one survivor starts work after the last kill");
}

/// A PFS burst over `[start, stop)` seconds.
fn burst(start: f64, stop: f64, factor: f64) -> InterferenceBurst {
    InterferenceBurst { start: Time::from_secs_f64(start), stop: Time::from_secs_f64(stop), factor }
}

/// Run ImageProcessing at seed 42 with `set` applied to its configuration,
/// on a thread of its own, and require a config error naming `field`
/// within 20 s: a run that spins would never answer, and one that panics
/// drops its sender.
fn refused(field: &str, set: fn(&mut SimConfig)) {
    let mut cfg = SimConfig { campaign_seed: 42, run: RunId(0), ..Default::default() };
    Workload::ImageProcessing.adjust(&mut cfg);
    set(&mut cfg);
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let workflow = Workload::ImageProcessing.generate(&RunRng::new(42, RunId(0)));
        let _ = tx.send(SimCluster::new(cfg).and_then(|c| c.run(workflow)).err());
    });
    let err = rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{field}: the run panicked or spun ({e})"))
        .unwrap_or_else(|| panic!("{field}: the run completed"));
    run.join().expect("the run's thread ends once it has answered");
    assert!(matches!(&err, DtfError::Config(m) if m.contains(field)), "{field}: {err}");
}

/// A zero `worker-ttl` is refused; the eviction check would re-arm at one
/// instant for ever.
#[test]
fn a_zero_worker_ttl_is_a_config_error() {
    refused("wms.worker_ttl_ms", |c| c.wms.worker_ttl_ms = 0);
}

/// A zero heartbeat period is refused; each beat would re-arm at one
/// instant for ever.
#[test]
fn a_zero_heartbeat_interval_is_a_config_error() {
    refused("wms.heartbeat_interval_ms", |c| c.wms.heartbeat_interval_ms = 0);
}

/// A zero stealing period is refused; the rebalance would re-arm at one
/// instant for ever.
#[test]
fn a_zero_steal_interval_is_a_config_error() {
    refused("wms.steal_interval_ms", |c| c.wms.steal_interval_ms = 0);
}

/// A PFS burst over an empty window is refused.
#[test]
fn an_empty_pfs_burst_window_is_a_config_error() {
    refused("faults.pfs_bursts[0]", |c| c.faults.pfs_bursts = vec![burst(2.0, 2.0, 3.0)]);
}

/// A PFS burst whose factor is NaN is refused.
#[test]
fn a_nan_pfs_burst_factor_is_a_config_error() {
    refused("faults.pfs_bursts[0]", |c| c.faults.pfs_bursts = vec![burst(0.0, 9.0, f64::NAN)]);
}

/// A PFS burst that would speed the file system up is refused.
#[test]
fn a_pfs_burst_factor_below_one_is_a_config_error() {
    refused("faults.pfs_bursts[0]", |c| c.faults.pfs_bursts = vec![burst(0.0, 9.0, 0.5)]);
}

/// A straggler whose factor is NaN is refused before any task is scaled
/// by it.
#[test]
fn a_nan_straggler_factor_is_a_config_error() {
    refused("faults.stragglers[0]", |c| {
        let (start, stop) = (Time::ZERO, Time::from_secs_f64(1e4));
        c.faults.stragglers = vec![StragglerFault { worker: 0, factor: f64::NAN, start, stop }]
    });
}

/// A burst factor too large to scale a transfer by is refused; a scaled
/// time past the end of `Time` panics or wraps.
#[test]
fn a_huge_pfs_burst_factor_is_a_config_error() {
    refused("faults.pfs_bursts[0]", |c| c.faults.pfs_bursts = vec![burst(0.0, 9.0, 1e300)]);
}

/// A straggler factor too large to scale a task by is refused, as are
/// factors within the bound one by one that multiply past it where one
/// worker's windows overlap.
#[test]
fn a_huge_straggler_slowdown_is_a_config_error() {
    refused("faults.stragglers[0]", |c| {
        let (start, stop) = (Time::ZERO, Time::from_secs_f64(1e4));
        c.faults.stragglers = vec![StragglerFault { worker: 0, factor: 1e300, start, stop }]
    });
    refused("faults.stragglers[1]", |c| {
        let (start, stop) = (Time::ZERO, Time::from_secs_f64(1e4));
        let window = StragglerFault { worker: 0, factor: 40.0, start, stop };
        c.faults.stragglers = vec![window, window]
    });
}

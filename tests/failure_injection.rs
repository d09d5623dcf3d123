//! Failure injection across the stack: worker death with recompute, PFS
//! interference, and DXT buffer exhaustion.

use std::collections::HashSet;

use dtf::core::fault::{FaultSchedule, WorkerDeath};
use dtf::core::ids::{GraphId, RunId, WorkerId};
use dtf::core::time::{Dur, Time};
use dtf::darshan::DxtConfig;
use dtf::wms::graph::{GraphBuilder, IoCall, SimAction};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};

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

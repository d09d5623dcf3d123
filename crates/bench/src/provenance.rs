//! Provenance-pipeline micro-bench: events/s through the paper's data
//! path — WMS plugin → Mofka producer → topic → `RunData` ingest.
//!
//! This is the measurement behind `provenance_events_per_s` in
//! `BENCH_repro.json`. It synthesizes a deterministic stream of every
//! record family the plugins emit (task meta, scheduler and worker
//! transitions, completions, comms, warnings, logs), pushes them through
//! a real `MofkaPlugin` against a freshly bootstrapped service, and then
//! drains the topics back into typed vectors the way `SimCluster::finalize`
//! does. The clock covers the whole pipeline, so both the produce-side
//! cost (serialization, partitioning, batching) and the ingest-side cost
//! (claiming, decoding, sorting) land in the number.

use std::time::Instant;

use serde::Serialize;

use dtf_core::events::{
    CommEvent, Location, LogEntry, LogLevel, LogSource, Stimulus, TaskDoneEvent, TaskMetaEvent,
    TaskState, TransitionEvent, WarningEvent, WarningKind, WorkerTaskState, WorkerTransitionEvent,
};
use dtf_core::ids::{ClientId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf_core::time::{Dur, Time};
use dtf_darshan::log::LogSet;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_mofka::producer::ProducerConfig;
use dtf_wms::plugins::{MofkaPlugin, WmsPlugin};
use dtf_wms::RunData;

/// The `provenance_pipeline` section of `BENCH_repro.json`.
#[derive(Debug, Serialize)]
pub struct ProvenancePipeline {
    /// Events pushed through the pipeline (all record families).
    pub events: u64,
    pub wall_s: f64,
    pub events_per_s: f64,
}

fn chart() -> ProvenanceChart {
    ProvenanceChart {
        hardware: HardwareInfo::polaris_like(2),
        system: SystemInfo::synthetic(),
        job: JobInfo {
            job_id: 1,
            script: String::new(),
            queue: "bench".into(),
            nodes_requested: 2,
            allocated_nodes: vec![NodeId(0), NodeId(1)],
            submit_time: Time::ZERO,
            start_time: Time::ZERO,
            walltime_limit_s: 60,
        },
        wms_config: WmsConfig::default(),
        client_code_hash: 0,
        workflow_name: "provenance-bench".into(),
    }
}

/// One rep: push `tasks` tasks' worth of provenance through a fresh
/// service and drain it back. Returns the number of events pushed.
fn one_rep(tasks: u32) -> u64 {
    const PREFIXES: [&str; 4] = ["inc", "double", "sum", "load"];
    let svc = BedrockConfig::wms_default().bootstrap().expect("bootstrap");
    let mut plugin =
        MofkaPlugin::new(&svc, ProducerConfig::default()).expect("plugin against default topics");
    let mut events = 0u64;
    for i in 0..tasks {
        let key = TaskKey::new(PREFIXES[(i % 4) as usize], i % 16, i);
        let worker = WorkerId::new(NodeId(i % 2), i % 4);
        let deps = if i == 0 {
            vec![]
        } else {
            vec![TaskKey::new(PREFIXES[((i - 1) % 4) as usize], (i - 1) % 16, i - 1)]
        };
        let t0 = Time(i as u64 * 1_000);
        plugin.on_task_meta(&TaskMetaEvent {
            key,
            graph: GraphId(0),
            client: ClientId(0),
            deps,
            submitted: t0,
        });
        events += 1;
        for (from, to, stimulus, dt) in [
            (TaskState::Released, TaskState::Waiting, Stimulus::GraphSubmitted, 0),
            (TaskState::Waiting, TaskState::Processing, Stimulus::Dispatched, 10),
            (TaskState::Processing, TaskState::Memory, Stimulus::ComputeFinished, 110),
        ] {
            plugin.on_transition(&TransitionEvent {
                key,
                graph: GraphId(0),
                from,
                to,
                stimulus,
                location: Location::Scheduler,
                time: t0 + Dur(dt),
            });
            events += 1;
        }
        for (from, to, dt) in [
            (WorkerTaskState::Waiting, WorkerTaskState::Ready, 20u64),
            (WorkerTaskState::Ready, WorkerTaskState::Executing, 30),
            (WorkerTaskState::Executing, WorkerTaskState::Memory, 100),
        ] {
            plugin.on_worker_transition(&WorkerTransitionEvent {
                key,
                graph: GraphId(0),
                worker,
                from,
                to,
                time: t0 + Dur(dt),
            });
            events += 1;
        }
        plugin.on_task_done(&TaskDoneEvent {
            key,
            graph: GraphId(0),
            worker,
            thread: ThreadId(1 + (i % 4) as u64),
            start: t0 + Dur(30),
            stop: t0 + Dur(100),
            nbytes: 4096,
        });
        events += 1;
        if i % 2 == 0 {
            plugin.on_comm(&CommEvent {
                key,
                from: worker,
                to: WorkerId::new(NodeId((i + 1) % 2), i % 4),
                nbytes: 4096,
                start: t0 + Dur(100),
                stop: t0 + Dur(150),
            });
            events += 1;
        }
        if i % 64 == 0 {
            plugin.on_warning(&WarningEvent {
                kind: WarningKind::GcPause,
                worker: Some(worker),
                time: t0,
                duration: Dur(500),
            });
            events += 1;
        }
        if i % 16 == 0 {
            plugin.on_log(&LogEntry {
                time: t0,
                level: LogLevel::Info,
                source: LogSource::Worker(worker),
                message: format!("task {key} dispatched"),
            });
            events += 1;
        }
    }
    plugin.flush();
    let data = RunData::drain_from_mofka(
        &svc,
        RunId(0),
        "provenance-bench".into(),
        chart(),
        LogSet::default(),
        Dur::from_secs_f64(1.0),
        vec![],
        0,
    )
    .expect("drain");
    let drained = (data.meta.len()
        + data.transitions.len()
        + data.worker_transitions.len()
        + data.task_done.len()
        + data.comms.len()
        + data.warnings.len()
        + data.logs.len()) as u64;
    assert_eq!(drained, events, "ingest must recover every pushed event");
    events
}

/// Measure the pipeline: `reps` repetitions of `tasks` tasks each, one
/// wall clock over everything.
pub fn provenance_pipeline(tasks: u32, reps: u32) -> ProvenancePipeline {
    // warm-up rep outside the clock (first-touch allocations, lazy statics)
    one_rep(tasks.min(256));
    let t0 = Instant::now();
    let mut events = 0u64;
    for _ in 0..reps {
        events += one_rep(tasks);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ProvenancePipeline { events, wall_s, events_per_s: events as f64 / wall_s.max(1e-12) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_bench_pushes_and_recovers_all_records() {
        let p = provenance_pipeline(256, 1);
        // 256 tasks x (1 meta + 3 transitions + 3 worker transitions +
        // 1 done) + 128 comms + 4 warnings + 16 logs
        assert_eq!(p.events, 256 * 8 + 128 + 4 + 16);
        assert!(p.events_per_s > 0.0);
    }
}

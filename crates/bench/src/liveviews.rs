//! Live-view maintenance benchmark: the `views` section of
//! `BENCH_repro.json` (schema 7).
//!
//! One synthetic run's task-done stream (category waves over a fixed
//! worker pool, with tied `(stop, start)` pairs on purpose: no order of
//! equal-keyed events may reach a view) is produced into a Mofka service
//! and consumed two ways:
//!
//! * **incremental** — a [`dtf_perfrecup::live::LiveViews`] engine pumps
//!   the stream in Δ-sized batches and publishes a fresh snapshot after
//!   each one, with subscriber threads blocked on versioned handles. The
//!   reported `delta_refresh_ms` is the best of several *timed* Δ-batches
//!   appended once the engine already holds the full run — the marginal
//!   cost of keeping the views fresh at size.
//! * **recompute** — the non-incremental alternative a dashboard would
//!   otherwise pay per refresh: re-drain the stream from the service
//!   (fresh consumer group) and re-run the post-hoc kernels
//!   (`per_category` + `per_worker` + `phase_sample`) over everything.
//!
//! `speedup = recompute / delta_refresh` is what `repro check views` gates
//! (≥10x), alongside `equivalent`: the finalized live snapshot must be
//! value-identical to the post-hoc kernels over the drained record.

use std::time::{Duration, Instant};

use serde::Serialize;

use dtf_core::events::TaskDoneEvent;
use dtf_core::ids::{GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf_core::time::{Dur, Time};
use dtf_darshan::log::LogSet;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_mofka::{Event, ProducerConfig};
use dtf_perfrecup::category::per_category;
use dtf_perfrecup::live::{phase_sample, LiveConfig, LiveViews, RunFinal};
use dtf_perfrecup::utilization::per_worker;
use dtf_wms::RunData;

/// The `views` section of the artifact.
#[derive(Debug, Serialize)]
pub struct ViewBench {
    /// Task-done events in the synthetic stream.
    pub events: u64,
    /// Δ: events per live refresh (pump + publish).
    pub batch: u64,
    /// Distinct task categories (arriving in waves, as workflow layers do).
    pub categories: u64,
    /// Workers the stream round-robins over.
    pub workers: u64,
    /// Utilization bins the live config maintains.
    pub bins: u64,
    /// Publishes performed while ingesting the stream.
    pub refreshes: u64,
    /// Total live-path wall: every pump + publish, plus finalize.
    pub ingest_ms: f64,
    /// Best timed Δ-refresh with the full run already ingested.
    pub delta_refresh_ms: f64,
    /// One post-hoc drain of the stream (fresh consumer group).
    pub drain_ms: f64,
    /// Post-hoc kernels over the drained record.
    pub kernels_ms: f64,
    /// `drain + kernels` — the non-incremental refresh.
    pub recompute_ms: f64,
    /// `recompute / delta_refresh` — gated ≥ 10 by `repro check views`.
    pub speedup: f64,
    /// Finalized live snapshot is value-identical to the post-hoc kernels.
    pub equivalent: bool,
    /// Subscriber threads that observed a published version during ingest.
    pub subscribers: u64,
    /// Snapshot version after finalize.
    pub final_version: u64,
}

const CATEGORIES: u64 = 64;
const WORKERS: u64 = 16;
const BINS: usize = 20;
/// Timed Δ-refresh rounds appended at full size; the best is reported.
const TAIL_ROUNDS: u64 = 5;
/// Post-hoc trials (drain + kernels); the best of each is reported.
const TRIALS: u64 = 3;

/// Event `i` of `n`: categories arrive in waves (`i * CATEGORIES / n`,
/// the shape workflow layers produce) and workers round-robin. Events
/// come in pairs sharing one `(start, stop)` on two workers, so the
/// stream is full of ties in the post-hoc sort key.
fn synth_event(i: u64, n: u64) -> TaskDoneEvent {
    let c = (i * CATEGORIES / n.max(1)).min(CATEGORIES - 1);
    let w = i % WORKERS;
    let start = 1_000_000 + (i / 2) * 2_000;
    TaskDoneEvent {
        key: TaskKey::new(format!("view{c:03}").as_str(), c as u32, i as u32),
        graph: GraphId((i % 3) as u32),
        worker: WorkerId::new(NodeId((w / 4) as u32), (w % 4) as u32),
        thread: ThreadId(w),
        start: Time(start),
        stop: Time(start + 640 + ((i / 2) % 251)),
        nbytes: (i * 4096) % (1 << 24),
    }
}

/// Static chart for the drain plumbing (the view kernels never read it).
fn bench_chart() -> ProvenanceChart {
    ProvenanceChart {
        hardware: HardwareInfo::polaris_like(1),
        system: SystemInfo::synthetic(),
        job: JobInfo {
            job_id: 1,
            script: "#!/bin/bash\nrepro view-bench".into(),
            queue: "debug".into(),
            nodes_requested: 1,
            allocated_nodes: vec![NodeId(0)],
            submit_time: Time(0),
            start_time: Time(0),
            walltime_limit_s: 3600,
        },
        wms_config: WmsConfig::default(),
        client_code_hash: 0x7fec,
        workflow_name: "view-bench".into(),
    }
}

/// Run the sweep at the reference size: 100k events, Δ = 1000.
pub fn view_bench() -> ViewBench {
    view_bench_sized(100_000, 1_000)
}

/// Run the sweep over `events` task-done events in Δ = `batch` refreshes.
pub fn view_bench_sized(events: u64, batch: u64) -> ViewBench {
    assert!(events > TAIL_ROUNDS * batch, "stream must be larger than the timed tail");
    let svc = BedrockConfig::wms_default().bootstrap().expect("view-bench service");
    let wall_time = Dur(1_000_000 + events * 1_000 + 1_000);
    let head = events - TAIL_ROUNDS * batch;

    let mut producer = svc.producer("task-done", ProducerConfig::default()).expect("producer");
    for i in 0..head {
        producer.push(Event::typed(synth_event(i, events))).expect("push");
    }
    producer.flush().expect("flush");
    svc.sync().expect("sync");

    let cfg = LiveConfig { group: "view-bench".into(), bins: BINS, threads_per_worker: 1 };
    let mut live = LiveViews::attach(&svc, cfg).expect("attach");
    let subscribers: Vec<_> = (0..4)
        .map(|_| {
            let sub = live.subscribe();
            std::thread::spawn(move || sub.wait_newer(0, Duration::from_secs(120)).version)
        })
        .collect();

    // ingest the head of the stream, one publish per Δ-batch
    let mut ingest_s = 0.0;
    let mut refreshes = 0u64;
    let deadline = Instant::now() + Duration::from_secs(300);
    let t0 = Instant::now();
    while live.progress().task_done < head {
        if live.pump(batch as usize).expect("pump") > 0 {
            live.publish();
            refreshes += 1;
        }
        assert!(Instant::now() < deadline, "live ingest stalled");
    }
    ingest_s += t0.elapsed().as_secs_f64();

    // timed Δ-refreshes with the full run already held: produce one more
    // batch, then time exactly the live path that absorbs it
    let mut delta_s = f64::INFINITY;
    for round in 0..TAIL_ROUNDS {
        let hi = head + (round + 1) * batch;
        for i in (hi - batch)..hi {
            producer.push(Event::typed(synth_event(i, events))).expect("push");
        }
        producer.flush().expect("flush");
        svc.sync().expect("sync");
        let t = Instant::now();
        while live.progress().task_done < hi {
            live.pump(batch as usize).expect("pump");
            assert!(Instant::now() < deadline, "live ingest stalled");
        }
        live.publish();
        let round_s = t.elapsed().as_secs_f64();
        ingest_s += round_s;
        delta_s = delta_s.min(round_s);
        refreshes += 1;
    }

    let t = Instant::now();
    let snap = live.finalize(RunFinal { darshan: LogSet::default(), wall_time }).expect("finalize");
    ingest_s += t.elapsed().as_secs_f64();

    // the non-incremental alternative: re-drain the stream and re-run the
    // post-hoc kernels over everything, best-of-TRIALS
    let chart = bench_chart();
    let mut drain_s = f64::INFINITY;
    let mut kernels_s = f64::INFINITY;
    let mut equivalent = false;
    for trial in 0..TRIALS {
        let t = Instant::now();
        let data = RunData::drain_from_mofka(
            &svc,
            RunId(900 + trial as u32), // fresh consumer group per trial
            "view-bench".into(),
            chart.clone(),
            LogSet::default(),
            wall_time,
            Vec::new(),
            0,
        )
        .expect("post-hoc drain");
        drain_s = drain_s.min(t.elapsed().as_secs_f64());
        assert_eq!(data.task_done.len() as u64, events, "drain must see the whole stream");
        let t = Instant::now();
        let cats = per_category(&data);
        let util = per_worker(&data, BINS, 1);
        let phases = phase_sample(&data);
        kernels_s = kernels_s.min(t.elapsed().as_secs_f64());
        equivalent = snap.categories == cats && snap.utilization == util && snap.phases == phases;
    }

    // every subscriber saw a published version (the first publish happened
    // long before this join, so these return immediately)
    let live_subscribers = subscribers
        .into_iter()
        .filter_map(|h| h.join().ok())
        .filter(|version| *version >= 1)
        .count() as u64;

    let recompute_s = drain_s + kernels_s;
    ViewBench {
        events,
        batch,
        categories: CATEGORIES,
        workers: WORKERS,
        bins: BINS as u64,
        refreshes,
        ingest_ms: ingest_s * 1e3,
        delta_refresh_ms: delta_s * 1e3,
        drain_ms: drain_s * 1e3,
        kernels_ms: kernels_s * 1e3,
        recompute_ms: recompute_s * 1e3,
        speedup: recompute_s / delta_s.max(1e-12),
        equivalent,
        subscribers: live_subscribers,
        final_version: snap.version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_bench_is_equivalent_and_sane() {
        // small stream keeps the unit test fast; the reference artifact is
        // taken by `repro bench views` at 100k events
        let b = view_bench_sized(4_000, 200);
        assert_eq!(b.events, 4_000);
        assert!(b.refreshes >= TAIL_ROUNDS, "every Δ-batch published");
        assert!(b.equivalent, "live snapshot must equal the post-hoc kernels");
        assert!(b.delta_refresh_ms > 0.0 && b.recompute_ms > 0.0);
        assert!(b.speedup > 0.0);
        assert_eq!(b.subscribers, 4);
        assert!(b.final_version >= 1);
    }
}

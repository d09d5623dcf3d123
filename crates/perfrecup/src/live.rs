//! Online view maintenance: the live counterpart of the post-hoc
//! analyses, updated in O(Δ) per consumed batch.
//!
//! [`LiveViews`] attaches to a Mofka service as its own consumer group
//! (one [`dtf_mofka::GroupFeed`] over every row of [`WMS_TOPICS`]) and
//! feeds every event it consumes to a [`RunState`] — the same view states
//! the post-hoc kernels ([`per_category`], [`per_worker`], [`phase_sample`])
//! feed a drained [`RunData`] to. Events are visited where the partition
//! logs hold them ([`dtf_mofka::GroupFeed::visit`]): the engine reads each
//! record by reference, dispatches on its variant, and clones none; a
//! record whose family is not its topic's ([`topic_of`]) fails the pump.
//! Proxy-plane records feed no view. This module owns the feed,
//! the publication slot, the subscriptions and the query surface; it
//! accumulates nothing itself.
//!
//! ## Equivalence with the post-hoc kernels
//!
//! A finalized snapshot is value-identical — bit for bit — to the post-hoc
//! kernels over the same drained record because both are one
//! implementation fed the same multiset of events, and every accumulator
//! of [`RunState`] is an integer sum, extremum or set: arrival order,
//! chunking, partition and offset cannot reach the result (see
//! [`crate::state`]). Ingesting Δ events costs O(Δ); a publish costs
//! O(categories + workers · bins) whatever the engine already holds.
//!
//! Darshan log sets only exist once a run shuts down, so the I/O half of
//! the task↔I/O join arrives through [`LiveViews::finalize`] together
//! with the exact wall time. Mid-run snapshots use the latest event time
//! as the provisional wall clock and a power-of-two horizon for the
//! utilization bins; outgrowing it, like finalize replacing it, re-bins
//! the executions held once (O(executions)).
//!
//! ## Subscriptions
//!
//! [`LiveViews::subscribe`] hands out versioned snapshot handles: every
//! [`LiveViews::publish`] swaps one `Arc<ViewSnapshot>` under a mutex and
//! notifies a condvar, so any number of concurrent readers poll or block
//! ([`ViewSubscription::wait_newer`]) without ever touching ingest state.
//!
//! [`ViewQuery`] unifies hot and cold: the same query answers from live
//! state for an active run and from [`crate::archive::ArchivedRun`] (or
//! any drained [`RunData`]) for history.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use serde::Serialize;

use dtf_core::error::DtfError;
use dtf_core::events::ProvRecord;
use dtf_core::time::Dur;
use dtf_darshan::log::LogSet;
use dtf_mofka::bedrock::{topic_of, WMS_TOPICS};
use dtf_mofka::{ConsumerConfig, GroupFeed, MofkaService, ProducerConfig};
use dtf_wms::plugins::{MofkaPlugin, WmsPlugin};
use dtf_wms::RunData;

use crate::category::{per_category, CategoryStats};
use crate::phases::PhaseSample;
use crate::state::{PhaseState, RunState};
use crate::utilization::{per_worker, WorkerUtilization};

/// How a live engine attaches to a service.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Consumer group (one group per live engine; a second engine under a
    /// different group sees the full stream independently).
    pub group: String,
    /// Utilization bins maintained incrementally.
    pub bins: usize,
    /// Thread cap per worker for the utilization view.
    pub threads_per_worker: u32,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self { group: "live".into(), bins: 20, threads_per_worker: 1 }
    }
}

/// Ingest counters, by topic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LiveProgress {
    pub meta: u64,
    pub transitions: u64,
    pub worker_transitions: u64,
    pub task_done: u64,
    pub comms: u64,
    pub warnings: u64,
    pub logs: u64,
    pub io_records: u64,
}

impl LiveProgress {
    pub fn total(&self) -> u64 {
        self.meta
            + self.transitions
            + self.worker_transitions
            + self.task_done
            + self.comms
            + self.warnings
            + self.logs
            + self.io_records
    }
}

/// One immutable published view state. Readers hold it by `Arc`; a new
/// publish never mutates an outstanding snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViewSnapshot {
    /// Monotone publish counter (0 = nothing published yet).
    pub version: u64,
    /// Whether [`LiveViews::finalize`] has run; only finalized snapshots
    /// are equivalence-gated against the post-hoc kernels.
    pub finalized: bool,
    pub progress: LiveProgress,
    /// Per-category statistics, sorted like `per_category` (mean duration
    /// desc, then category).
    pub categories: Vec<CategoryStats>,
    /// Per-worker utilization, sorted by worker id. Mid-run bins span a
    /// quantized horizon; finalized bins span the exact wall time.
    pub utilization: Vec<WorkerUtilization>,
    /// Phase totals; `io_s` is 0 until finalize delivers the Darshan logs,
    /// `wall_s` is the latest event time until finalize pins it.
    pub phases: PhaseSample,
    /// Fraction of Darshan records attributed to a task (`None` before
    /// finalize; cf. `RunViews::io_attribution_rate`).
    pub attribution_rate: Option<f64>,
}

impl ViewSnapshot {
    fn empty() -> Self {
        Self {
            version: 0,
            finalized: false,
            progress: LiveProgress::default(),
            categories: Vec::new(),
            utilization: Vec::new(),
            phases: PhaseSample { wall_s: 0.0, io_s: 0.0, comm_s: 0.0, compute_s: 0.0 },
            attribution_rate: None,
        }
    }
}

/// Shared publish slot: latest snapshot + wakeup for blocked subscribers.
#[derive(Debug)]
struct Published {
    snap: Mutex<Arc<ViewSnapshot>>,
    cv: Condvar,
}

impl Published {
    /// The publish slot, locked. A slot poisoned by a panicking holder is
    /// taken as it is: it only ever holds a whole snapshot, replaced in
    /// one store, so the last one published is still a consistent view.
    fn slot(&self) -> MutexGuard<'_, Arc<ViewSnapshot>> {
        self.snap.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A subscriber handle. Cheap to clone and fully decoupled from ingest:
/// reading (or blocking on) snapshots never contends with `pump`.
#[derive(Debug, Clone)]
pub struct ViewSubscription {
    shared: Arc<Published>,
}

impl ViewSubscription {
    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<ViewSnapshot> {
        self.shared.slot().clone()
    }

    /// Block until a snapshot newer than `seen` is published or `timeout`
    /// elapses; returns the newest snapshot either way.
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> Arc<ViewSnapshot> {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.shared.slot();
        while guard.version <= seen {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let waited = self.shared.cv.wait_timeout(guard, deadline - now);
            let (g, t) = waited.unwrap_or_else(PoisonError::into_inner);
            guard = g;
            if t.timed_out() {
                break;
            }
        }
        guard.clone()
    }
}

/// One query shape answered identically by live state and archives.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ViewQuery {
    Categories,
    Utilization { bins: usize, threads_per_worker: u32 },
    Phases,
}

/// A query answer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ViewResult {
    Categories(Vec<CategoryStats>),
    Utilization(Vec<WorkerUtilization>),
    Phases(PhaseSample),
}

/// Phase totals of a drained run — the cold-path `Phases` answer.
pub fn phase_sample(data: &RunData) -> PhaseSample {
    PhaseState::of(data).sample()
}

/// Answer a [`ViewQuery`] from a drained run record (the cold path; see
/// [`crate::archive::ArchivedRun::query`]).
pub fn query_rundata(data: &RunData, q: &ViewQuery) -> ViewResult {
    match q {
        ViewQuery::Categories => ViewResult::Categories(per_category(data)),
        ViewQuery::Utilization { bins, threads_per_worker } => {
            ViewResult::Utilization(per_worker(data, *bins, *threads_per_worker))
        }
        ViewQuery::Phases => ViewResult::Phases(phase_sample(data)),
    }
}

/// Everything the run hands over when it ends: the sources that only
/// exist at shutdown.
#[derive(Debug, Clone)]
pub struct RunFinal {
    pub darshan: LogSet,
    pub wall_time: Dur,
}

/// Feed one event of feed topic `topic` (a row of [`WMS_TOPICS`]) to the
/// view state, borrowed from the record (which the partition log goes on
/// holding).
fn apply(
    state: &mut RunState,
    progress: &mut LiveProgress,
    topic: usize,
    record: &ProvRecord,
) -> dtf_core::Result<()> {
    if topic_of(record) != topic {
        return Err(DtfError::IllegalState(format!(
            "live topic {} carried a wrong-family record",
            WMS_TOPICS[topic].name
        )));
    }
    match record {
        ProvRecord::TaskMeta(e) => {
            state.observe(e.submitted);
            progress.meta += 1;
        }
        ProvRecord::Transition(e) => {
            state.observe(e.time);
            progress.transitions += 1;
        }
        ProvRecord::WorkerTransition(e) => {
            state.observe(e.time);
            progress.worker_transitions += 1;
        }
        ProvRecord::TaskDone(e) => {
            state.task_done(e);
            progress.task_done += 1;
        }
        ProvRecord::Comm(e) => {
            state.comm(e);
            progress.comms += 1;
        }
        ProvRecord::Warning(e) => {
            state.observe(e.time);
            progress.warnings += 1;
        }
        ProvRecord::Log(e) => {
            state.observe(e.time);
            progress.logs += 1;
        }
        ProvRecord::Io(e) => {
            state.observe(e.stop);
            progress.io_records += 1;
        }
        // proxy-plane lifecycle records feed no view
        ProvRecord::Proxy(_) => {}
    }
    Ok(())
}

/// The live view engine. See the module docs.
pub struct LiveViews {
    feed: GroupFeed,
    cfg: LiveConfig,
    state: RunState,
    progress: LiveProgress,
    finalized: bool,

    // ---- publication ----
    published: Arc<Published>,
    version: u64,
}

impl LiveViews {
    /// Attach to `svc` as consumer group `cfg.group` over every topic of
    /// [`WMS_TOPICS`].
    pub fn attach(svc: &MofkaService, cfg: LiveConfig) -> dtf_core::Result<Self> {
        let topics = WMS_TOPICS.map(|t| t.name);
        let feed =
            svc.group_feed(&topics, ConsumerConfig { group: cfg.group.clone(), prefetch: 4096 })?;
        Ok(Self {
            feed,
            state: RunState::with_bins(cfg.bins),
            cfg,
            progress: LiveProgress::default(),
            finalized: false,
            published: Arc::new(Published {
                snap: Mutex::new(Arc::new(ViewSnapshot::empty())),
                cv: Condvar::new(),
            }),
            version: 0,
        })
    }

    /// A new subscriber handle (any number may exist concurrently; handles
    /// stay valid for the engine's lifetime and beyond).
    pub fn subscribe(&self) -> ViewSubscription {
        ViewSubscription { shared: self.published.clone() }
    }

    /// One pass over the feed: ingest whatever arrived, up to
    /// `max_per_topic` events per topic, in place. Returns events
    /// ingested. O(Δ).
    pub fn pump(&mut self, max_per_topic: usize) -> dtf_core::Result<u64> {
        let Self { feed, state, progress, .. } = self;
        feed.visit(max_per_topic, |topic, _, _, record, _| apply(state, progress, topic, record))
    }

    /// Pump until the feed runs dry. Returns events ingested.
    pub fn pump_all(&mut self) -> dtf_core::Result<u64> {
        let mut total = 0;
        loop {
            let n = self.pump(4096)?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }

    /// Drain the feed, hand the state the shutdown-only sources (Darshan
    /// logs for the task↔I/O join, the exact wall time), and publish the
    /// finalized snapshot — the one that equals the post-hoc kernels.
    pub fn finalize(&mut self, fin: RunFinal) -> dtf_core::Result<Arc<ViewSnapshot>> {
        self.pump_all()?;
        self.state.set_wall(fin.wall_time);
        self.state.join_io(&fin.darshan);
        self.finalized = true;
        Ok(self.publish())
    }

    /// Publish a new snapshot of the current state. Costs O(categories +
    /// workers · bins), whatever the engine holds.
    pub fn publish(&mut self) -> Arc<ViewSnapshot> {
        self.version += 1;
        let snap = Arc::new(ViewSnapshot {
            version: self.version,
            finalized: self.finalized,
            progress: self.progress,
            categories: self.state.categories(),
            utilization: self.state.utilization(self.cfg.bins, self.cfg.threads_per_worker),
            phases: self.state.phases(),
            attribution_rate: self.state.attribution_rate(),
        });
        let mut slot = self.published.slot();
        *slot = snap.clone();
        self.published.cv.notify_all();
        snap
    }

    /// Answer a [`ViewQuery`] from live state (the hot path). A
    /// utilization query at a bin count other than the configured one
    /// bins the held executions on the spot.
    pub fn query(&self, q: &ViewQuery) -> ViewResult {
        match q {
            ViewQuery::Categories => ViewResult::Categories(self.state.categories()),
            ViewQuery::Utilization { bins, threads_per_worker } => {
                ViewResult::Utilization(self.state.utilization(*bins, *threads_per_worker))
            }
            ViewQuery::Phases => ViewResult::Phases(self.state.phases()),
        }
    }

    pub fn progress(&self) -> LiveProgress {
        self.progress
    }
}

/// Push every event of a drained run record back into `svc`'s topics
/// through a [`MofkaPlugin`] routing by `producer`, family by family in
/// drained order. This is the replay harness the equivalence tests feed
/// live engines with: drain a simulated run once, republish it into a
/// fresh service, and pump it through [`LiveViews`] in whatever chunking
/// the test wants. Each family is pushed in the order the drain sorts it
/// in, so a drain of the republished service returns the same run
/// whatever `svc`'s partition counts and `producer`'s routing.
pub fn republish(
    data: &RunData,
    svc: &MofkaService,
    producer: ProducerConfig,
) -> dtf_core::Result<()> {
    let mut plugin = MofkaPlugin::new(svc, producer)?;
    let records = (data.meta.iter().cloned().map(ProvRecord::from))
        .chain(data.transitions.iter().cloned().map(ProvRecord::from))
        .chain(data.worker_transitions.iter().cloned().map(ProvRecord::from))
        .chain(data.task_done.iter().cloned().map(ProvRecord::from))
        .chain(data.comms.iter().cloned().map(ProvRecord::from))
        .chain(data.online_io.iter().cloned().map(ProvRecord::from))
        .chain(data.proxies.iter().cloned().map(ProvRecord::from))
        .chain(data.warnings.iter().cloned().map(ProvRecord::from))
        .chain(data.logs.iter().cloned().map(ProvRecord::from));
    for record in records {
        plugin.on_record(record);
    }
    plugin.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{CommEvent, LogEntry, TaskDoneEvent, TaskMetaEvent};
    use dtf_core::ids::{GraphId, RunId, ThreadId, WorkerId};
    use dtf_core::time::Time;
    use dtf_mofka::bedrock::BedrockConfig;
    use dtf_mofka::Event;
    use dtf_proxystore::ProxyConfig;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};

    fn sim_run(seed: u64) -> RunData {
        sim_run_with(SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() })
    }

    fn sim_run_with(cfg: SimConfig) -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..8u32 {
            let load = b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(20.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), i as u64 * 4096, 4096)],
                    output_nbytes: 1 << 16,
                    stall_rate: 0.0,
                },
            );
            b.add_sim(
                "train",
                tok,
                i,
                vec![load],
                SimAction::compute_only(Dur::from_millis_f64(120.0), 1 << 20),
            );
        }
        let wf = SimWorkflow {
            name: "live-test".into(),
            graphs: vec![b.build(&Default::default()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.5),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        SimCluster::new(cfg).unwrap().run(wf).unwrap()
    }

    /// Drain `svc` (fresh group) exactly as the post-hoc analysis would,
    /// reusing the non-Mofka half of `orig`.
    fn drain_again(svc: &MofkaService, orig: &RunData, group_tag: u64) -> RunData {
        RunData::drain_from_mofka(
            svc,
            RunId(group_tag as u32 + 100),
            orig.workflow.clone(),
            orig.chart.clone(),
            orig.darshan.clone(),
            orig.wall_time,
            orig.start_order.clone(),
            orig.steals,
        )
        .unwrap()
    }

    /// A live engine pumped in small chunks ends bit-identical to the
    /// post-hoc kernels over the same drained events.
    #[test]
    fn live_views_equal_post_hoc_kernels() {
        let data = sim_run(7);
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        republish(&data, &svc, ProducerConfig::default()).unwrap();
        let cfg = LiveConfig { group: "live-eq".into(), bins: 16, threads_per_worker: 1 };
        let mut live = LiveViews::attach(&svc, cfg).unwrap();
        // pump in deliberately small chunks to exercise incremental paths
        while live.pump(3).unwrap() > 0 {
            live.publish();
        }
        let snap = live
            .finalize(RunFinal { darshan: data.darshan.clone(), wall_time: data.wall_time })
            .unwrap();
        let oracle = drain_again(&svc, &data, 1);
        assert_eq!(snap.categories, per_category(&oracle), "categories bit-identical");
        assert_eq!(snap.utilization, per_worker(&oracle, 16, 1), "utilization bit-identical");
        assert_eq!(snap.phases, phase_sample(&oracle), "phases bit-identical");
        assert_eq!(snap.attribution_rate, Some(1.0), "thread ids present: full attribution");
        assert!(snap.finalized);
        assert_eq!(snap.progress.task_done, oracle.task_done.len() as u64);
    }

    #[test]
    fn view_query_unifies_hot_and_cold() {
        let data = sim_run(9);
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        republish(&data, &svc, ProducerConfig::default()).unwrap();
        let mut live = LiveViews::attach(&svc, LiveConfig::default()).unwrap();
        live.pump_all().unwrap();
        live.finalize(RunFinal { darshan: data.darshan.clone(), wall_time: data.wall_time })
            .unwrap();
        let oracle = drain_again(&svc, &data, 2);
        for q in [
            ViewQuery::Categories,
            ViewQuery::Utilization { bins: 20, threads_per_worker: 1 },
            // non-configured bins: binned from the held executions
            ViewQuery::Utilization { bins: 7, threads_per_worker: 2 },
            ViewQuery::Phases,
        ] {
            assert_eq!(live.query(&q), query_rundata(&oracle, &q), "{q:?}");
        }
    }

    /// The engine ingests records the partition logs still hold, by
    /// reference: a mixed stream (records of four families) produces
    /// exactly the state its fields spell out, and the topics' records are
    /// the same afterwards.
    #[test]
    fn ingest_reads_shared_records_in_place() {
        use dtf_core::ids::{ClientId, NodeId, TaskKey};
        use dtf_core::stats::Summary;

        let sec = |s: u64| Time(s * 1_000_000_000);
        let worker = |slot: u32| WorkerId::new(NodeId(0), slot);
        let done = |prefix: &str, index: u32, slot: u32, start: u64, stop: u64| TaskDoneEvent {
            key: TaskKey::new(prefix, 1, index),
            graph: GraphId(0),
            worker: worker(slot),
            thread: ThreadId(slot as u64),
            start: sec(start),
            stop: sec(stop),
            nbytes: 8,
        };
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut plugin = MofkaPlugin::new(&svc, ProducerConfig::default()).unwrap();
        let records: [ProvRecord; 6] = [
            TaskMetaEvent {
                key: TaskKey::new("fit", 1, 0),
                graph: GraphId(0),
                client: ClientId(0),
                deps: vec![TaskKey::new("load", 1, 0)],
                submitted: sec(0),
            }
            .into(),
            done("load", 0, 0, 0, 2).into(),
            done("fit", 0, 0, 2, 3).into(),
            CommEvent {
                key: TaskKey::new("load", 1, 0),
                from: worker(0),
                to: worker(1),
                nbytes: 8,
                start: sec(2),
                stop: sec(4),
            }
            .into(),
            LogEntry {
                time: sec(9),
                level: dtf_core::events::LogLevel::Info,
                source: dtf_core::events::LogSource::Scheduler,
                message: "last event of the run".into(),
            }
            .into(),
            done("fit", 1, 1, 4, 7).into(),
        ];
        for record in records {
            plugin.on_record(record);
        }
        plugin.flush();

        let records = |group: &str| -> Vec<Vec<dtf_mofka::StoredEvent>> {
            WMS_TOPICS
                .iter()
                .map(|t| {
                    let cfg = ConsumerConfig { group: group.into(), prefetch: 3 };
                    svc.consumer(t.name, cfg).unwrap().drain_all().unwrap()
                })
                .collect()
        };
        let before = records("before");
        assert_eq!(before.iter().map(Vec::len).collect::<Vec<_>>(), [1, 0, 0, 3, 1, 0, 0, 0, 1]);

        let mut live = LiveViews::attach(&svc, LiveConfig::default()).unwrap();
        assert_eq!(live.pump_all().unwrap(), 6);
        let snap = live.publish();
        let expected =
            LiveProgress { meta: 1, task_done: 3, comms: 1, logs: 1, ..Default::default() };
        assert_eq!(snap.progress, expected);
        assert_eq!(
            snap.phases,
            PhaseSample { wall_s: 9.0, io_s: 0.0, comm_s: 2.0, compute_s: 6.0 }
        );
        let category = |name: &str, durations: &[f64], spread: usize| CategoryStats {
            category: name.into(),
            tasks: durations.len(),
            duration: Summary::of(durations),
            output_nbytes: Summary::of(&vec![8.0; durations.len()]),
            threads: spread,
            workers: spread,
            io_ops: 0,
            io_bytes: 0,
        };
        assert_eq!(
            snap.categories,
            vec![category("fit", &[1.0, 3.0], 2), category("load", &[2.0], 1)],
            "same mean: name order"
        );
        assert_eq!(
            snap.utilization.iter().map(|u| u.worker).collect::<Vec<_>>(),
            [worker(0), worker(1)]
        );

        assert_eq!(records("after"), before, "ingesting left the topics' records as they were");
    }

    /// Republishing a run puts every family back — the proxy lifecycle
    /// stream and the online I/O records too — so a drain of the
    /// republished service equals the original record.
    #[test]
    fn republish_carries_every_family() {
        let data = sim_run_with(SimConfig {
            campaign_seed: 5,
            run: RunId(0),
            online_darshan: true,
            proxy: ProxyConfig { enabled: true, threshold: 1 << 15, resolver_cache_bytes: 8 << 20 },
            ..Default::default()
        });
        assert!(!data.proxies.is_empty(), "the proxy plane published");
        assert!(!data.online_io.is_empty(), "Darshan streamed online");
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        republish(&data, &svc, ProducerConfig::default()).unwrap();
        let again = drain_again(&svc, &data, 3);
        assert_eq!(again.proxies, data.proxies);
        assert_eq!(again.online_io, data.online_io);
        assert_eq!(again.meta, data.meta);
        assert_eq!(again.task_done, data.task_done);
        assert_eq!(again.comms, data.comms);
        assert_eq!(again.logs, data.logs);
        assert_eq!(again.warnings, data.warnings);
        assert_eq!(again.transitions, data.transitions);
        assert_eq!(again.worker_transitions, data.worker_transitions);
    }

    #[test]
    fn a_record_of_the_wrong_family_fails_the_pump() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let line = LogEntry {
            time: Time(1),
            level: dtf_core::events::LogLevel::Info,
            source: dtf_core::events::LogSource::Scheduler,
            message: "a log line on the task-done topic".into(),
        };
        svc.topic("task-done").unwrap().append_batch(0, vec![Event::typed(line)]).unwrap();
        let mut live = LiveViews::attach(&svc, LiveConfig::default()).unwrap();
        match live.pump_all() {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("wrong-family"), "{msg}"),
            other => panic!("expected IllegalState, got {other:?}"),
        }
    }

    #[test]
    fn subscribers_see_versioned_snapshots() {
        let data = sim_run(11);
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        republish(&data, &svc, ProducerConfig::default()).unwrap();
        let mut live = LiveViews::attach(&svc, LiveConfig::default()).unwrap();
        let sub = live.subscribe();
        assert_eq!(sub.latest().version, 0, "nothing published yet");
        live.pump(5).unwrap();
        let s1 = live.publish();
        assert_eq!(sub.latest().version, s1.version);
        live.pump_all().unwrap();
        let s2 = live.publish();
        assert!(s2.version > s1.version);
        // wait_newer returns immediately when a newer snapshot exists
        let got = sub.wait_newer(s1.version, Duration::from_secs(5));
        assert_eq!(got.version, s2.version);
        // and times out (returning the latest) when nothing newer comes
        let got = sub.wait_newer(s2.version, Duration::from_millis(20));
        assert_eq!(got.version, s2.version);
    }

    /// Concurrent subscriptions while a producer thread streams events:
    /// the engine polls the feed, and several subscriber threads block for
    /// fresh versions.
    #[test]
    fn concurrent_subscriptions_on_realtime_plane() {
        use dtf_core::ids::{NodeId, TaskKey};
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut live =
            LiveViews::attach(&svc, LiveConfig { group: "rt-subs".into(), ..Default::default() })
                .unwrap();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let sub = live.subscribe();
                std::thread::spawn(move || {
                    let snap = sub.wait_newer(0, Duration::from_secs(30));
                    (snap.version, snap.progress.task_done)
                })
            })
            .collect();
        let n_events = 64u64;
        std::thread::scope(|scope| {
            let svc = &svc;
            scope.spawn(move || {
                let mut producer = svc
                    .producer("task-done", ProducerConfig { batch_size: 8, ..Default::default() })
                    .unwrap();
                for i in 0..n_events {
                    producer
                        .push(Event::typed(TaskDoneEvent {
                            key: TaskKey::new("t", 0, i as u32),
                            graph: GraphId(0),
                            worker: WorkerId::new(NodeId(0), (i % 4) as u32),
                            thread: ThreadId(i % 4),
                            start: Time(i * 1_000_000),
                            stop: Time((i + 1) * 1_000_000),
                            nbytes: 64,
                        }))
                        .unwrap();
                }
                producer.flush().unwrap();
            });
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while live.progress().task_done < n_events {
                if live.pump(4096).unwrap() == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                } else {
                    live.publish();
                }
                assert!(std::time::Instant::now() < deadline, "ingest stalled");
            }
        });
        live.publish();
        for r in readers {
            let (version, seen) = r.join().unwrap();
            assert!(version >= 1);
            assert!(seen > 0, "subscribers observed live progress");
        }
        assert_eq!(live.progress().task_done, n_events);
    }
}

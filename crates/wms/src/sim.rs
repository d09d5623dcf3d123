//! The discrete-event cluster simulator.
//!
//! Drives the [`Scheduler`] under virtual time
//! against the `dtf-platform` cost models: task compute times (node profile
//! × stochastic jitter), in-task I/O through the Darshan-instrumented PFS,
//! dependency transfers through the network model, work-stealing
//! rebalances, heartbeat-based fault detection, and the event-loop /GC
//! stall process that produces the paper's Fig. 7 warnings.
//!
//! One [`SimCluster::run`] call executes one complete workflow run — job
//! allocation, worker startup, graph submission (all-at-once or
//! sequential), execution, shutdown — and returns the fused [`RunData`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use dtf_core::binfmt::Wire;
use dtf_core::dist::{Exponential, Jitter, LogNormal, Sample};
use dtf_core::error::{DtfError, Result};
use dtf_core::events::{
    CommEvent, IoRecord, LogEntry, LogLevel, LogSource, WarningEvent, WarningKind,
};
use dtf_core::fault::FaultSchedule;
use dtf_core::ids::{ClientId, FileId, RunId, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::WmsConfig;
use dtf_core::rngx::RunRng;
use dtf_core::time::{Dur, Time};
use dtf_core::{fnv64_extend, FNV64_BASIS};
use dtf_darshan::log::LogSet;
use dtf_darshan::{DarshanRuntime, DxtConfig, InstrumentedPfs};
use dtf_mofka::bedrock::{BedrockConfig, WmsFamily, WMS_TOPICS};
use dtf_mofka::producer::ProducerConfig;
use dtf_mofka::MofkaService;
use dtf_platform::job::{JobRequest, JobScheduler};
use dtf_platform::{ClusterTopology, LoadProcess, NetworkConfig, NetworkModel, Pfs, PfsConfig};
use dtf_proxystore::{ProxyConfig, ProxyPlane};

use crate::graph::{IoCall, Payload, TaskGraph};
use crate::plugins::MofkaPlugin;
use crate::rundata::{ArchiveMeta, RunData, ARCHIVE_META_KEY};
use crate::scheduler::{nonzero, Fetch, Scheduler};

dtf_core::wire_enum! {
    /// How the client submits its graphs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SubmitPolicy("submit policy") {
        /// Everything up front (ResNet152 — one graph; XGBoost could too).
        AllAtOnce = 0,
        /// Next graph only after the previous completed (ImageProcessing's
        /// step-by-step pipeline; XGBoost's 74 chained graphs).
        Sequential = 1,
    }
}

/// A workflow handed to the simulator: graphs + dataset + client behaviour.
#[derive(Debug, Clone)]
pub struct SimWorkflow {
    pub name: String,
    pub graphs: Vec<TaskGraph>,
    pub submit: SubmitPolicy,
    /// Coordination before the first submission (connect to scheduler,
    /// wait for workers, build the first graph).
    pub startup: Dur,
    /// Client-side graph-construction time between sequential graphs.
    pub inter_graph: Dur,
    /// Teardown after the last task completes.
    pub shutdown: Dur,
    /// Files created on the PFS before the run: `(path, size, stripes)`.
    /// `FileId`s are assigned in order (0, 1, 2, …), so generators can
    /// reference them by index.
    pub dataset: Vec<(String, u64, u32)>,
}

impl SimWorkflow {
    /// The workflow's fingerprint, which a run's provenance chart records
    /// as `client_code_hash`: FNV-64 over the binfmt encoding of everything
    /// [`SimCluster::run`] reads of it — the graph count, each graph as
    /// [`TaskGraph::extend_hash`] encodes it (id and tasks: key, deps and
    /// cost model), the dataset, the submit policy and the startup,
    /// inter-graph and shutdown durations. Counts precede lists, so no two
    /// workflows share an encoding. The name is left out: the chart holds
    /// it beside the hash. Hashed item by item through one buffer that
    /// never holds more than one task or file.
    pub fn code_hash(&self) -> u64 {
        let mut buf = Vec::new();
        self.graphs.len().put(&mut buf);
        let mut hash = fnv64_extend(FNV64_BASIS, &buf);
        buf.clear();
        for graph in &self.graphs {
            hash = graph.extend_hash(hash);
        }
        self.dataset.len().put(&mut buf);
        for (path, size, stripes) in &self.dataset {
            path.put(&mut buf);
            size.put(&mut buf);
            stripes.put(&mut buf);
            hash = fnv64_extend(hash, &buf);
            buf.clear();
        }
        self.submit.put(&mut buf);
        self.startup.put(&mut buf);
        self.inter_graph.put(&mut buf);
        self.shutdown.put(&mut buf);
        fnv64_extend(hash, &buf)
    }
}

/// Worker nodes a simulated run allocates; the scheduler and client live
/// on one more. Every run uses two.
pub const WORKER_NODES: u32 = 2;

/// Log-scale sigma of the per-task compute jitter every simulated run
/// draws (the jitter's tail is cut at 3 sigma).
pub const COMPUTE_JITTER_SIGMA: f64 = 0.08;

/// Simulator configuration (platform + WMS + instrumentation). The part
/// the paper collects as provenance (§III-E1) is `wms`: the scheduler,
/// the heartbeats, the eviction timeout and the stealing period run on
/// it, and the run's
/// [`ProvenanceChart`](dtf_core::provenance::ProvenanceChart) records it.
///
/// A persisted run archives the whole configuration in its `run-meta`
/// document ([`ArchiveMeta`]), so the archive alone says how to run it
/// again: every field but `persist_dir`, `invariant_checks` and
/// `mofka_batch`, which change no output, and `wms`, which the chart
/// already holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    pub campaign_seed: u64,
    pub run: RunId,
    pub wms: WmsConfig,
    pub dxt: DxtConfig,
    /// Mofka producer batch size (ablation knob); 0 is a config error.
    /// It moves when records reach a partition, never which are drained
    /// or in what order, so no output byte depends on it.
    pub mofka_batch: usize,
    /// Stream every Darshan record into the Mofka `io-records` topic at
    /// record time (the paper's future-work "fully online system"). Online
    /// records bypass DXT buffer limits.
    pub online_darshan: bool,
    /// Fault schedule applied to this run (chaos testing). The default
    /// (empty) schedule perturbs nothing.
    pub faults: FaultSchedule,
    /// Evaluate the scheduler's structural invariants after every event and
    /// fail the run on the first violation (chaos testing; off by default —
    /// the check scans the whole task table).
    pub invariant_checks: bool,
    /// Root directory for durable Mofka state (dtf-store backed). `None`
    /// (the default) keeps the run in-memory, exactly as before; set, the
    /// run's event stream and archive metadata survive the process and
    /// can be reopened with `RunData::open_archive`.
    pub persist_dir: Option<String>,
    /// Out-of-band proxy data plane for large task outputs. Disabled by
    /// default; enabling it never changes the schedule — only byte
    /// attribution (in-band refs vs out-of-band payloads) and the
    /// provenance stream gain records.
    pub proxy: ProxyConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            campaign_seed: 0,
            run: RunId(0),
            wms: WmsConfig::default(),
            dxt: DxtConfig::default(),
            mofka_batch: 64,
            online_darshan: false,
            faults: FaultSchedule::default(),
            invariant_checks: false,
            persist_dir: None,
            proxy: ProxyConfig::default(),
        }
    }
}

#[derive(Debug)]
enum Ev {
    Submit(usize),
    FetchDone {
        dep: TaskKey,
        from: usize,
        to: usize,
        nbytes: u64,
        start: Time,
    },
    TaskDone {
        key: TaskKey,
        worker: usize,
        slot: usize,
        start: Time,
        nbytes: u64,
    },
    Rebalance,
    Heartbeat {
        worker: usize,
    },
    FaultCheck,
    Kill {
        worker: usize,
    },
    MofkaStall {
        topic: String,
        partition: u32,
    },
    MofkaUnstall {
        topic: String,
        partition: u32,
    },
    /// Deferred proxy resolution (slow-resolver fault): the transfer
    /// finished earlier but the payload materializes only now.
    ProxyResolve {
        dep: TaskKey,
        to: usize,
    },
}

struct Queued {
    time: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A `WmsConfig` period in milliseconds as a virtual duration.
fn millis(ms: u64) -> Dur {
    Dur::from_millis_f64(ms as f64)
}

/// Refuse a zero heartbeat, rebalance or eviction period: its event would
/// re-arm at the same instant for ever.
fn check_periods(wms: &WmsConfig) -> Result<()> {
    for (what, ms) in [
        ("heartbeat_interval_ms", wms.heartbeat_interval_ms),
        ("worker_ttl_ms", wms.worker_ttl_ms),
        ("steal_interval_ms", wms.steal_interval_ms),
    ] {
        if ms == 0 {
            return Err(DtfError::Config(format!("wms.{what} is 0; a period must be positive")));
        }
    }
    Ok(())
}

/// The most a fault schedule may slow one thing down: the product of the
/// PFS burst factors, and of one worker's straggler factors, that a single
/// instant can see. The chaos campaign stays under 100; a bound keeps a
/// scaled duration far inside the range of [`Time`].
const MAX_FAULT_SLOWDOWN: f64 = 1000.0;

/// Refuse a fault the run cannot apply: a death, heartbeat drop,
/// straggler or hotspot aimed at a worker ordinal the cluster of
/// `workers` does not have, a PFS burst whose window is empty, a burst or
/// straggler factor below 1 or NaN (a fault slows things down), and
/// factors that multiply past [`MAX_FAULT_SLOWDOWN`]. Windows may
/// overlap, so the bound is on the product of every burst's factor and of
/// every straggler factor of one worker.
fn check_faults(faults: &FaultSchedule, workers: u32) -> Result<()> {
    let mut aimed = (faults.deaths.iter().map(|d| ("deaths", d.worker)).enumerate())
        .chain(faults.heartbeat_drops.iter().map(|d| ("heartbeat_drops", d.worker)).enumerate())
        .chain(faults.stragglers.iter().map(|f| ("stragglers", f.worker)).enumerate());
    let beyond = |worker| format!("worker {worker}, but the cluster has {workers} workers");
    if let Some((i, (field, worker))) = aimed.find(|(_, (_, w))| *w >= workers) {
        return Err(DtfError::Config(format!("faults.{field}[{i}]: {}", beyond(worker))));
    }
    if let Some(h) = faults.hotspot.as_ref().filter(|h| h.worker >= workers) {
        return Err(DtfError::Config(format!("faults.hotspot: {}", beyond(h.worker))));
    }
    let slows = |f: f64, product: &mut f64| {
        *product *= f;
        f >= 1.0 && *product <= MAX_FAULT_SLOWDOWN
    };
    let mut bursts = 1.0;
    for (i, b) in faults.pfs_bursts.iter().enumerate() {
        if b.stop <= b.start || !slows(b.factor, &mut bursts) {
            return Err(DtfError::Config(format!(
                "faults.pfs_bursts[{i}]: window {}..{} with factor {}; a burst needs a \
                 non-empty window and a factor of at least 1, and the burst factors may \
                 multiply to at most {MAX_FAULT_SLOWDOWN}",
                b.start, b.stop, b.factor
            )));
        }
    }
    let mut per_worker = std::collections::BTreeMap::new();
    for (i, s) in faults.stragglers.iter().enumerate() {
        if !slows(s.factor, per_worker.entry(s.worker).or_insert(1.0)) {
            return Err(DtfError::Config(format!(
                "faults.stragglers[{i}]: factor {}; a straggler needs a factor of at least 1, \
                 and one worker's straggler factors may multiply to at most \
                 {MAX_FAULT_SLOWDOWN}",
                s.factor
            )));
        }
    }
    Ok(())
}

/// The simulated cluster. Build once per run; call [`Self::run`].
///
/// ```
/// use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
/// use dtf_wms::{GraphBuilder, SimAction};
/// use dtf_core::ids::GraphId;
/// use dtf_core::time::Dur;
///
/// let mut b = GraphBuilder::new(GraphId(0));
/// let tok = b.new_token();
/// let root = b.add_sim("load", tok, 0, vec![],
///     SimAction::compute_only(Dur::from_millis_f64(10.0), 1024));
/// b.add_sim("use", tok, 1, vec![root],
///     SimAction::compute_only(Dur::from_millis_f64(5.0), 64));
/// let workflow = SimWorkflow {
///     name: "doc".into(),
///     graphs: vec![b.build(&Default::default()).unwrap()],
///     submit: SubmitPolicy::AllAtOnce,
///     startup: Dur::from_secs_f64(0.1),
///     inter_graph: Dur::ZERO,
///     shutdown: Dur::ZERO,
///     dataset: vec![],
/// };
/// let data = SimCluster::new(SimConfig::default()).unwrap().run(workflow).unwrap();
/// assert_eq!(data.distinct_tasks(), 2);
/// ```
pub struct SimCluster {
    cfg: SimConfig,
    topo: ClusterTopology,
    job: dtf_core::provenance::JobInfo,
    /// Worker ids by scheduler index.
    worker_ids: Vec<WorkerId>,
    scheduler: Scheduler,
    net: NetworkModel,
    io: Vec<InstrumentedPfs>,
    runtimes: Vec<Arc<DarshanRuntime>>,
    mofka: MofkaService,
    // RNG streams
    rng_io: SmallRng,
    rng_net: SmallRng,
    rng_compute: SmallRng,
    rng_stall: SmallRng,
    // event queue
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    now: Time,
    /// Dependency transfers issued so far, in issue order — the index the
    /// fault schedule's fetch faults key on.
    fetch_seq: u64,
    /// Out-of-band data plane (no-op when disabled).
    proxy: ProxyPlane,
    /// Proxy resolutions attempted so far, in attempt order — the index
    /// the fault schedule's slow-resolve faults key on.
    proxy_resolve_seq: u64,
    // per-worker thread slots (None = free)
    slots: Vec<Vec<Option<TaskKey>>>,
    /// Per worker: killed by the fault schedule, or evicted.
    dead: Vec<bool>,
    /// Per worker: its last delivered heartbeat (its join time until the
    /// first), `None` once it is evicted — Dask's `worker-ttl` check reads
    /// nothing else.
    last_beat: Vec<Option<Time>>,
    /// Files the task in [`Self::execute`] has open, reused across tasks.
    opened: Vec<FileId>,
    last_done: Time,
    compute_jitter: Jitter,
    stall_dur: LogNormal,
}

impl SimCluster {
    /// Allocate a cluster and wire all services for one run. A setting
    /// the run could not go through is a config error naming its field: a
    /// cluster with no workers or threads, a zero period, and a fault the
    /// run cannot apply (one aimed at a worker the cluster lacks, or one
    /// the cost models cannot scale by).
    pub fn new(cfg: SimConfig) -> Result<Self> {
        nonzero("workers_per_node", cfg.wms.workers_per_node)?;
        nonzero("threads_per_worker", cfg.wms.threads_per_worker)?;
        check_periods(&cfg.wms)?;
        check_faults(&cfg.faults, WORKER_NODES * cfg.wms.workers_per_node)?;
        let rr = RunRng::new(cfg.campaign_seed, cfg.run);
        let mut rng_topo = rr.stream("topology");
        let topo = ClusterTopology::polaris_like(&mut rng_topo);
        let mut js = JobScheduler::new();
        let req =
            JobRequest { nodes: WORKER_NODES + 1, walltime_limit_s: 3600, queue: "prod".into() };
        let mut rng_alloc = rr.stream("alloc");
        let job = js.allocate(&topo, &req, Time::ZERO, &mut rng_alloc)?;

        // node 0 of the allocation hosts scheduler+client; the rest host
        // workers
        let mut worker_ids = Vec::new();
        for node in job.allocated_nodes.iter().skip(1) {
            for slot in 0..cfg.wms.workers_per_node {
                worker_ids.push(WorkerId::new(*node, slot));
            }
        }

        // background load from co-running jobs on the PFS and the network
        let interference_seed = rr.stream("interference").gen::<u64>();
        let mut pfs_load = LoadProcess::pfs_default(interference_seed);
        if !cfg.faults.pfs_bursts.is_empty() {
            pfs_load = pfs_load.with_forced_bursts(
                cfg.faults.pfs_bursts.iter().map(|b| (b.start, b.stop, b.factor)).collect(),
            );
        }
        let net_load = LoadProcess::network_default(interference_seed ^ 0x5a5a);
        let pfs = Arc::new(Mutex::new(Pfs::new(PfsConfig::default(), pfs_load)));
        let net = NetworkModel::new(NetworkConfig::default(), net_load);

        let mut runtimes = Vec::new();
        let mut io = Vec::new();
        for w in &worker_ids {
            let rt = Arc::new(DarshanRuntime::new(*w, cfg.dxt));
            io.push(InstrumentedPfs::new(pfs.clone(), rt.clone()));
            runtimes.push(rt);
        }

        let mofka = BedrockConfig::wms_default()
            .bootstrap_with(cfg.persist_dir.as_deref().map(Path::new))?;
        if cfg.online_darshan {
            // fully online system: every I/O record streams straight into
            // Mofka as it is captured, independent of the DXT buffers. Each
            // emitter owns its producer (the sink is FnMut behind the
            // runtime's own lock), so records go typed into the batch buffer
            // with no JSON rendering and no extra mutex on the I/O path.
            for rt in &runtimes {
                let mut producer = mofka.producer(
                    WMS_TOPICS[IoRecord::TOPIC].name,
                    ProducerConfig { batch_size: cfg.mofka_batch, ..Default::default() },
                )?;
                rt.set_sink(Box::new(move |rec| {
                    let _ = producer.push(dtf_mofka::Event::typed(rec.clone()));
                }));
            }
        }
        let plugin = MofkaPlugin::new(
            &mofka,
            ProducerConfig { batch_size: cfg.mofka_batch, ..Default::default() },
        )?;
        let mut scheduler = Scheduler::new(cfg.wms.clone(), cfg.faults.hotspot, Box::new(plugin));
        for w in &worker_ids {
            scheduler.add_worker(*w, cfg.wms.threads_per_worker);
        }

        let slots =
            worker_ids.iter().map(|_| vec![None; cfg.wms.threads_per_worker as usize]).collect();
        let n_workers = worker_ids.len();
        let proxy = ProxyPlane::new(cfg.proxy.clone());
        Ok(Self {
            rng_io: rr.stream("io"),
            rng_net: rr.stream("net"),
            rng_compute: rr.stream("compute"),
            rng_stall: rr.stream("stall"),
            cfg,
            topo,
            job,
            worker_ids,
            scheduler,
            net,
            io,
            runtimes,
            mofka,
            queue: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            fetch_seq: 0,
            proxy,
            proxy_resolve_seq: 0,
            slots,
            dead: vec![false; n_workers],
            last_beat: vec![None; n_workers],
            opened: Vec::new(),
            last_done: Time::ZERO,
            compute_jitter: Jitter::new(COMPUTE_JITTER_SIGMA, 3.0),
            stall_dur: LogNormal::new(-0.2, 0.6), // median ~0.8 s stalls
        })
    }

    fn heartbeat_interval(&self) -> Dur {
        millis(self.cfg.wms.heartbeat_interval_ms)
    }

    fn push(&mut self, time: Time, ev: Ev) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.seq += 1;
        self.queue.push(Reverse(Queued { time, seq: self.seq, ev }));
    }

    fn log(&mut self, level: LogLevel, source: LogSource, message: String) {
        self.scheduler
            .plugin_mut()
            .on_record(LogEntry { time: self.now, level, source, message }.into());
    }

    /// Execute one complete workflow run.
    pub fn run(mut self, workflow: SimWorkflow) -> Result<RunData> {
        let code_hash = workflow.code_hash();
        // create the dataset; FileIds are sequential
        {
            let mut pfs = self.io[0].pfs().lock();
            for (path, size, stripes) in &workflow.dataset {
                pfs.create(path.clone(), *size, *stripes);
            }
        }
        self.log(LogLevel::Info, LogSource::Scheduler, "scheduler started".into());

        // workers connect, staggered through the startup window
        let startup = workflow.startup;
        for i in 0..self.worker_ids.len() {
            let frac = 0.3 + 0.6 * (i as f64 / self.worker_ids.len().max(1) as f64);
            let t = Time::ZERO + startup.scale(frac);
            self.last_beat[i] = Some(t);
            self.push(t + self.heartbeat_interval(), Ev::Heartbeat { worker: i });
        }
        self.push(Time::ZERO + startup, Ev::Submit(0));
        self.push(Time::ZERO + startup, Ev::Rebalance);
        self.push(Time::ZERO + startup, Ev::FaultCheck);
        // the fault schedule's perturbations all become ordinary queue
        // events, so they replay under the same virtual clock as the run
        let faults = self.cfg.faults.clone();
        for d in &faults.deaths {
            self.push(d.time, Ev::Kill { worker: d.worker as usize });
        }
        for s in &faults.mofka_stalls {
            self.push(s.start, Ev::MofkaStall { topic: s.topic.clone(), partition: s.partition });
            self.push(s.stop, Ev::MofkaUnstall { topic: s.topic.clone(), partition: s.partition });
        }

        // the run's progress is the scheduler's count of unfinished tasks:
        // the periodic events re-arm while it is nonzero or a graph is still
        // to come, and a sequential client submits its next graph when it
        // reaches zero. A recompute is only planned for an output some
        // never-completed task needs, so the count cannot reach zero while
        // lost work is outstanding.
        let mut graphs: Vec<Option<TaskGraph>> = workflow.graphs.into_iter().map(Some).collect();
        let total_graphs = graphs.len();
        let mut submitted = 0usize;

        while let Some(Reverse(q)) = self.queue.pop() {
            self.now = q.time;
            match q.ev {
                Ev::Submit(idx) => {
                    let Some(graph) = graphs.get_mut(idx).and_then(Option::take) else {
                        continue;
                    };
                    let gid = graph.id;
                    self.log(
                        LogLevel::Info,
                        LogSource::Client(ClientId(0)),
                        format!("submitting graph {gid} ({} tasks)", graph.len()),
                    );
                    self.scheduler.submit_graph(graph, self.now)?;
                    self.process_fetches();
                    submitted += 1;
                    if submitted < total_graphs
                        && (workflow.submit == SubmitPolicy::AllAtOnce
                            || self.scheduler.unfinished() == 0)
                    {
                        self.push(self.now, Ev::Submit(submitted));
                    }
                    self.try_start_all()?;
                }
                Ev::FetchDone { dep, from, to, nbytes, start } => {
                    if self.dead[to] || self.dead[from] {
                        // destination gone, or the source died mid-transfer
                        // (the scheduler re-issued it from a live replica)
                        continue;
                    }
                    self.scheduler.plugin_mut().on_record(
                        CommEvent {
                            key: dep,
                            from: self.worker_ids[from],
                            to: self.worker_ids[to],
                            nbytes,
                            start,
                            stop: self.now,
                        }
                        .into(),
                    );
                    // proxied dependency: the transfer moved out-of-band;
                    // the payload must resolve before the dependent can use
                    // it. A slow-resolver fault defers both the resolution
                    // and the readiness signal.
                    if self.proxy.proxy_ref(&dep).is_some() {
                        let ridx = self.proxy_resolve_seq;
                        self.proxy_resolve_seq += 1;
                        if let Some(f) = self.cfg.faults.slow_resolve(ridx).copied() {
                            self.push(self.now + f.extra_delay, Ev::ProxyResolve { dep, to });
                            continue;
                        }
                        self.resolve_proxy(&dep, to);
                    }
                    self.scheduler.fetch_done(&dep, to, self.now);
                    self.try_start_all()?;
                }
                Ev::ProxyResolve { dep, to } => {
                    if self.dead[to] {
                        continue;
                    }
                    self.resolve_proxy(&dep, to);
                    self.scheduler.fetch_done(&dep, to, self.now);
                    self.try_start_all()?;
                }
                Ev::TaskDone { key, worker, slot, start, nbytes } => {
                    if self.dead[worker] {
                        continue; // worker died mid-task; scheduler re-planned
                    }
                    debug_assert_eq!(self.slots[worker][slot].as_ref(), Some(&key));
                    self.slots[worker][slot] = None;
                    let wid = self.worker_ids[worker];
                    let thread = ThreadId::synth(wid, slot as u32);
                    self.scheduler.task_finished(&key, worker, thread, start, self.now, nbytes);
                    // outputs crossing the threshold publish to the proxy
                    // plane before any dependent fetch completes
                    if self.proxy.should_proxy(nbytes) {
                        let graph =
                            self.scheduler.task_graph(&key).unwrap_or(dtf_core::ids::GraphId(0));
                        let pidx = self.proxy.publish_count();
                        let (_r, ev) = self.proxy.publish(&key, graph, wid, nbytes, self.now);
                        self.scheduler.plugin_mut().on_record(ev.into());
                        if self.cfg.faults.dangling_proxy(pidx) {
                            self.proxy.damage(&key);
                        }
                    }
                    self.process_fetches();
                    self.last_done = self.now;
                    // sequential submission: next graph when this one drains
                    if workflow.submit == SubmitPolicy::Sequential
                        && submitted < total_graphs
                        && self.scheduler.unfinished() == 0
                    {
                        self.push(self.now + workflow.inter_graph, Ev::Submit(submitted));
                    }
                    self.try_start_all()?;
                }
                Ev::Rebalance => {
                    self.scheduler.rebalance(self.now);
                    self.process_fetches();
                    self.try_start_all()?;
                    if self.scheduler.unfinished() > 0 || submitted < total_graphs {
                        let t = self.now + millis(self.cfg.wms.steal_interval_ms);
                        self.push(t, Ev::Rebalance);
                    }
                }
                Ev::Heartbeat { worker } => {
                    if self.dead[worker] {
                        continue;
                    }
                    // a suppression window swallows the beat but the worker
                    // keeps its schedule — the "stalled event loop" fault:
                    // the process is healthy yet looks dead to the scheduler
                    if !self.cfg.faults.heartbeat_dropped(worker as u32, self.now) {
                        if let Some(t) = &mut self.last_beat[worker] {
                            *t = (*t).max(self.now);
                        }
                    }
                    if self.scheduler.unfinished() > 0 || submitted < total_graphs {
                        let t = self.now + self.heartbeat_interval();
                        self.push(t, Ev::Heartbeat { worker });
                    }
                }
                Ev::FaultCheck => {
                    // Dask's `worker-ttl` check: evict every worker whose
                    // last heartbeat is older than the timeout, in
                    // ascending address spelling
                    let ttl = millis(self.cfg.wms.worker_ttl_ms);
                    let mut lost: Vec<usize> = (0..self.last_beat.len())
                        .filter(|&w| self.last_beat[w].is_some_and(|t| self.now.since(t) > ttl))
                        .collect();
                    lost.sort_by_cached_key(|&w| self.worker_ids[w].address());
                    for widx in lost {
                        self.last_beat[widx] = None;
                        let addr = self.worker_ids[widx];
                        self.log(
                            LogLevel::Warning,
                            LogSource::Scheduler,
                            format!("worker {addr} lost (missed heartbeats)"),
                        );
                        // fence the evicted worker: even if its process is
                        // actually healthy (heartbeat suppression), the
                        // scheduler has re-planned its work, so any
                        // completion it still delivers must be ignored (we
                        // do not model reconnection)
                        self.dead[widx] = true;
                        // free its slots
                        for s in self.slots[widx].iter_mut() {
                            *s = None;
                        }
                        self.scheduler.worker_died(widx, self.now);
                        // re-source or orphan the proxies the dead worker
                        // owned
                        for ev in self.proxy.worker_died(self.worker_ids[widx], self.now) {
                            self.scheduler.plugin_mut().on_record(ev.into());
                        }
                        self.process_fetches();
                    }
                    self.try_start_all()?;
                    self.check_progress()?;
                    if self.scheduler.unfinished() > 0 || submitted < total_graphs {
                        self.push(self.now + ttl.scale(0.5), Ev::FaultCheck);
                    }
                }
                Ev::Kill { worker } => {
                    self.dead[worker] = true;
                    let addr = self.worker_ids[worker].address();
                    self.log(
                        LogLevel::Error,
                        LogSource::Worker(self.worker_ids[worker]),
                        format!("worker {addr} terminated"),
                    );
                    // it stops heartbeating; FaultCheck will evict it
                }
                Ev::MofkaStall { topic, partition } => {
                    // stall injection: appends to the partition stage
                    // invisibly until the matching unstall
                    let _ = self.mofka.stall_partition(&topic, partition);
                }
                Ev::MofkaUnstall { topic, partition } => {
                    let _ = self.mofka.unstall_partition(&topic, partition);
                }
            }
            if self.scheduler.unfinished() > 0 && self.dead.iter().all(|d| *d) {
                return Err(DtfError::IllegalState(
                    "fault schedule killed every worker with tasks outstanding".into(),
                ));
            }
            if self.cfg.invariant_checks {
                let violations = self.scheduler.invariant_violations();
                if !violations.is_empty() {
                    return Err(DtfError::IllegalState(format!(
                        "scheduler invariant violated at {}: {}",
                        self.now,
                        violations.join("; ")
                    )));
                }
            }
        }
        if self.scheduler.unfinished() > 0 {
            return Err(DtfError::IllegalState(format!(
                "simulation deadlocked with {} unfinished tasks",
                self.scheduler.unfinished()
            )));
        }

        let wall_time = (self.last_done + workflow.shutdown) - Time::ZERO;
        self.finalize(workflow.name, code_hash, wall_time)
    }

    /// Fail a run that can no longer make progress: tasks are unfinished,
    /// yet no queued event can change the scheduler's state (a completion,
    /// a transfer, a proxy resolution, a submission or a kill), and every
    /// killed worker has been evicted, so no eviction is coming either.
    /// Only the periodic events are left, and they would re-arm for ever: a
    /// rebalance never dispatches from the scheduler's queue, which holds
    /// tasks only while every live worker is saturated.
    fn check_progress(&self) -> Result<()> {
        let unfinished = self.scheduler.unfinished();
        let evictions_due = self.dead.iter().zip(&self.last_beat).any(|(d, b)| *d && b.is_some());
        let moves = |q: &Reverse<Queued>| {
            matches!(
                q.0.ev,
                Ev::TaskDone { .. }
                    | Ev::FetchDone { .. }
                    | Ev::ProxyResolve { .. }
                    | Ev::Submit(_)
                    | Ev::Kill { .. }
            )
        };
        if unfinished == 0 || evictions_due || self.queue.iter().any(moves) {
            return Ok(());
        }
        Err(DtfError::IllegalState(format!(
            "run stuck at {}: {unfinished} unfinished tasks and no queued event can move them",
            self.now
        )))
    }

    /// Charge network cost for every transfer the scheduler issued since
    /// the last call and schedule its completion.
    fn process_fetches(&mut self) {
        for Fetch { dep, from, to, nbytes } in self.scheduler.take_fetches() {
            let (src, dst) = (self.worker_ids[from], self.worker_ids[to]);
            let (mut dur, _first) = self.net.transfer_time(
                &self.topo,
                hash_addr(src),
                src.node,
                hash_addr(dst),
                dst.node,
                nbytes,
                self.now,
                &mut self.rng_net,
            );
            // fetch faults key on issue order: delay stretches the
            // transfer, duplicate replays its completion (which the
            // scheduler must absorb as a no-op)
            let fault = self.cfg.faults.fetch_fault(self.fetch_seq).copied();
            self.fetch_seq += 1;
            if let Some(f) = &fault {
                dur += f.extra_delay;
            }
            let start = self.now;
            let done = self.now + dur;
            self.push(done, Ev::FetchDone { dep, from, to, nbytes, start });
            if fault.map(|f| f.duplicate).unwrap_or(false) {
                self.push(done, Ev::FetchDone { dep, from, to, nbytes, start });
            }
        }
    }

    /// Resolve a proxied dependency for `to` and emit the plane's
    /// lifecycle records. A plane-level failure (dangling blob whose owner
    /// died) is surfaced as a log warning — by then the scheduler has
    /// already re-planned the data via recompute, so the run proceeds.
    fn resolve_proxy(&mut self, dep: &TaskKey, to: usize) {
        match self.proxy.resolve(dep, self.worker_ids[to], self.now) {
            Ok((_outcome, events)) => {
                for ev in events {
                    self.scheduler.plugin_mut().on_record(ev.into());
                }
            }
            Err(e) => {
                self.log(
                    LogLevel::Warning,
                    LogSource::Scheduler,
                    format!("proxy resolution failed: {e}"),
                );
            }
        }
    }

    /// Start every startable task on every live worker. Only workers the
    /// scheduler marked since the last pass can have one — the rest were
    /// left with no free thread or nothing ready, and nothing changed for
    /// them — and they are visited in ascending index order, as a scan of
    /// all workers would, so starts (and the RNG draws they make) keep
    /// their order. A start on a worker with no free thread slot is an
    /// error: the scheduler broke its thread limit.
    fn try_start_all(&mut self) -> Result<()> {
        for widx in 0..self.worker_ids.len() {
            if !self.scheduler.take_startable(widx) || self.dead[widx] {
                continue;
            }
            while let Some(key) = self.scheduler.try_start(widx, self.now) {
                let slot = self.slots[widx].iter().position(|s| s.is_none()).ok_or_else(|| {
                    DtfError::IllegalState(format!(
                        "{key} started on worker {widx}, whose threads are all busy"
                    ))
                })?;
                self.slots[widx][slot] = Some(key);
                self.execute(key, widx, slot)?;
            }
        }
        Ok(())
    }

    /// Charge a task's full cost model and schedule its completion. An I/O
    /// call the cost model refuses is a config error: a workload that
    /// touches a file its dataset does not hold is a generator bug, not a
    /// runtime condition.
    fn execute(&mut self, key: TaskKey, widx: usize, slot: usize) -> Result<()> {
        // the I/O list is borrowed from the scheduler's task table, which
        // the I/O loop below never touches; the stall loop needs the
        // scheduler mutably, so only the scalars are copied out
        let (io, compute, stall_rate, nbytes): (&[IoCall], _, _, _) =
            match self.scheduler.payload(&key) {
                Some(Payload::Sim(a)) => (&a.io, a.compute, a.stall_rate, a.output_nbytes),
                // real payloads cannot run under virtual time; model them as
                // zero-cost so mixed graphs still complete
                Some(Payload::Real(_)) | None => (&[], Dur::ZERO, 0.0, 0),
            };
        let start = self.now;
        let wid = self.worker_ids[widx];
        let thread = ThreadId::synth(wid, slot as u32);

        // --- in-task I/O, sequential from task start
        let mut elapsed = Dur::ZERO;
        let opened = &mut self.opened;
        opened.clear();
        for call in io {
            let at = start + elapsed;
            if !opened.contains(&call.file) {
                if let Ok(d) = self.io[widx].open(thread, call.file, at, &mut self.rng_io) {
                    elapsed += d;
                    opened.push(call.file);
                }
            }
            let at = start + elapsed;
            let res = if call.write {
                self.io[widx].write(thread, call.file, call.offset, call.size, at, &mut self.rng_io)
            } else {
                self.io[widx].read(thread, call.file, call.offset, call.size, at, &mut self.rng_io)
            };
            match res {
                Ok(d) => elapsed += d,
                Err(e) => {
                    return Err(DtfError::Config(format!("simulated I/O failed for {key}: {e}")))
                }
            }
        }
        for &file in opened.iter() {
            let at = start + elapsed;
            if let Ok(d) = self.io[widx].close(thread, file, at, &mut self.rng_io) {
                elapsed += d;
            }
        }

        // --- compute, scaled by node profile, jitter, and any straggler
        // windows covering the task start (the jitter draw always happens,
        // keeping the RNG stream identical with and without fault schedules)
        let profile = self.topo.profile(wid.node);
        let jitter = self.compute_jitter.factor(&mut self.rng_compute);
        let straggle = self.cfg.faults.straggler_factor(widx as u32, start);
        let compute = compute.scale(profile.compute_factor).scale(jitter).scale(straggle);
        elapsed += compute;

        // --- event-loop / GC stalls (Fig. 7 warning model)
        if stall_rate > 0.0 {
            let exec_secs = elapsed.as_secs_f64();
            let gap = Exponential::new(stall_rate);
            let mut t = gap.sample(&mut self.rng_stall);
            let mut stall_total = Dur::ZERO;
            while t < exec_secs {
                let dur = Dur::from_secs_f64(self.stall_dur.sample(&mut self.rng_stall));
                let kind = if self.rng_stall.gen::<f64>() < 0.7 {
                    WarningKind::UnresponsiveEventLoop
                } else {
                    WarningKind::GcPause
                };
                let time = start + Dur::from_secs_f64(t);
                let warn = WarningEvent { kind, worker: Some(wid), time, duration: dur };
                self.scheduler.plugin_mut().on_record(warn.into());
                self.log(
                    LogLevel::Warning,
                    LogSource::Worker(wid),
                    format!("event loop unresponsive for {dur}"),
                );
                stall_total += dur;
                t += gap.sample(&mut self.rng_stall);
            }
            elapsed += stall_total;
        }

        self.push(start + elapsed, Ev::TaskDone { key, worker: widx, slot, start, nbytes });
        Ok(())
    }

    /// Finalize Darshan logs and drain Mofka into the run record.
    fn finalize(mut self, workflow: String, code_hash: u64, wall_time: Dur) -> Result<RunData> {
        self.scheduler.plugin_mut().flush();
        for rt in &self.runtimes {
            rt.clear_sink(); // drops (and thereby flushes) online producers
        }
        // stalls whose windows outlived the run must not hide events from
        // the post-run drain
        self.mofka.unstall_all();
        let logs: Vec<_> =
            self.runtimes.iter().map(|rt| rt.finalize(self.cfg.run, self.job.job_id)).collect();
        let darshan = LogSet::new(logs);
        let chart = dtf_platform::sysprov::capture_chart(
            &self.topo,
            self.job.clone(),
            self.cfg.wms.clone(),
            &workflow,
            code_hash,
        );
        let steals = self.scheduler.steal_count();
        let meta = ArchiveMeta {
            config: std::mem::take(&mut self.cfg),
            workflow,
            chart,
            darshan,
            wall_time,
            steals,
        };
        if meta.config.persist_dir.is_some() {
            // archive the non-Mofka half of the run record, then group-
            // commit everything: past this point the run is recoverable
            self.mofka.yokan().put(ARCHIVE_META_KEY, meta.encode());
            self.mofka.sync()?;
        }
        // the scheduler's plugin holds producers, which would keep the
        // topics open; the drain takes the service whole
        drop(self.scheduler);
        RunData::drain(self.mofka, meta.into_facts())
    }
}

fn hash_addr(w: WorkerId) -> u64 {
    (w.node.0 as u64) << 32 | w.slot as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, SimAction};
    use dtf_core::events::{Stimulus, TransitionEvent};
    use dtf_core::fault::WorkerDeath;
    use dtf_core::ids::GraphId;
    use std::collections::HashSet;

    fn small_workflow(io: bool) -> SimWorkflow {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let mut roots = Vec::new();
        for i in 0..8 {
            let action = SimAction {
                compute: Dur::from_millis_f64(50.0),
                io: if io {
                    vec![IoCall::read(FileId(0), (i as u64) * (4 << 20), 4 << 20)]
                } else {
                    vec![]
                },
                output_nbytes: 1 << 20,
                stall_rate: 0.0,
            };
            roots.push(b.add_sim("load", tok, i, vec![], action));
        }
        let mut b2 = b;
        for (i, r) in roots.iter().enumerate() {
            b2.add_sim(
                "reduce",
                tok + 1,
                i as u32,
                vec![*r],
                SimAction::compute_only(Dur::from_millis_f64(20.0), 100),
            );
        }
        SimWorkflow {
            name: "unit".into(),
            graphs: vec![b2.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(2.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::from_secs_f64(1.0),
            dataset: vec![("/data/input.bin".into(), 64 << 20, 4)],
        }
    }

    #[test]
    fn small_workflow_completes_with_all_events() {
        let sim = SimCluster::new(SimConfig::default()).unwrap();
        let data = sim.run(small_workflow(true)).unwrap();
        assert_eq!(data.distinct_tasks(), 16);
        assert_eq!(data.task_done.len(), 16);
        // 8 reads traced with thread ids
        assert_eq!(data.io_ops(), 8);
        assert!(data.darshan.all_records().all(|r| r.thread.0 != 0));
        // wall time includes startup + shutdown
        assert!(data.wall_time > Dur::from_secs_f64(3.0));
        // transitions are time-sorted and legal
        for w in data.transitions.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert_eq!(data.task_graphs(), 1);
    }

    /// A zero size is a config error, not a panic in the scheduler, an
    /// empty run or a silent batch of one: the cluster's workers and
    /// threads are refused before anything is allocated, and
    /// a zero batch by both producers the cluster opens.
    #[test]
    fn zero_sizes_are_config_errors() {
        let zeroed: [fn(&mut SimConfig); 4] = [
            |c| c.wms.workers_per_node = 0,
            |c| c.wms.threads_per_worker = 0,
            |c| c.mofka_batch = 0,
            |c| {
                c.mofka_batch = 0;
                c.online_darshan = true;
            },
        ];
        for zero in zeroed {
            let mut cfg = SimConfig::default();
            zero(&mut cfg);
            let err = SimCluster::new(cfg).err().expect("a zero size is refused");
            assert!(matches!(err, DtfError::Config(_)), "{err}");
        }
    }

    /// A fault aimed at a worker the cluster does not have is a config
    /// error naming its field, not a fault the run silently drops.
    #[test]
    fn a_death_of_a_worker_the_cluster_lacks_is_a_config_error() {
        let wms = WmsConfig { workers_per_node: 1, ..Default::default() };
        let faults = FaultSchedule {
            deaths: vec![WorkerDeath { worker: 5, time: Time::from_secs_f64(1.0) }],
            ..Default::default()
        };
        let err = SimCluster::new(SimConfig { wms, faults, ..Default::default() })
            .err()
            .expect("a death of worker 5 on a 2-worker cluster is refused");
        let DtfError::Config(m) = &err else { panic!("{err}") };
        assert!(m.starts_with("faults.deaths[0]: worker 5"), "{m}");
    }

    /// A run that can no longer make progress fails at its next fault check
    /// instead of re-arming its periodic events for ever. The work is
    /// stranded through private state: the scheduler is handed the graph
    /// and starts one task, but the simulator never queues that task's
    /// completion, so the task and its dependent stay unfinished with no
    /// event left that could finish them. The run gets a bounded wait on a
    /// thread of its own, since without the check it would never return.
    #[test]
    fn a_run_that_cannot_progress_fails_at_the_next_fault_check() {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let mut sim = SimCluster::new(SimConfig::default()).unwrap();
            let mut workflow = small_workflow(false);
            let graph = workflow.graphs.remove(0);
            sim.scheduler.submit_graph(graph, Time::ZERO).unwrap();
            let workers = sim.worker_ids.len();
            let stranded = (0..workers).find_map(|w| sim.scheduler.try_start(w, Time::ZERO));
            assert!(stranded.is_some(), "a task starts");
            let _ = tx.send(sim.run(workflow).err());
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the run returns")
            .expect("the run fails");
        run.join().expect("the run's thread ends once it has answered");
        let DtfError::IllegalState(m) = &err else { panic!("{err}") };
        assert!(m.starts_with("run stuck at ") && m.contains(": 2 unfinished tasks"), "{m}");
    }

    /// A recompute queued on the scheduler while every live worker is
    /// saturated is dispatched as soon as the eviction that queued it
    /// frees a thread, not at the next rebalance. One thread per worker
    /// and a queue factor of 1 saturate both workers with a fan-out
    /// input's first dependents; the worker that holds the input is killed
    /// just after it finishes. Its eviction queues the input's recompute
    /// while the other worker still waits on its orphaned fetch, and once
    /// that fetch drops out the other worker is idle: the recompute starts
    /// there at the eviction's instant.
    #[test]
    fn a_recompute_queued_at_an_eviction_is_dispatched_at_the_eviction() {
        let wms = WmsConfig {
            workers_per_node: 1,
            threads_per_worker: 1,
            queue_factor: 1.0,
            // off the fault checks' 1.5 s grid, so that a recompute left
            // for the rebalance would start after the eviction
            steal_interval_ms: 70,
            ..Default::default()
        };
        let workflow = || {
            let mut b = GraphBuilder::new(GraphId(0));
            let tok = b.new_token();
            let load = b.add_sim(
                "load",
                tok,
                0,
                vec![],
                SimAction::compute_only(Dur::from_millis_f64(50.0), 64 << 20),
            );
            for i in 0..6 {
                b.add_sim(
                    "use",
                    tok + 1,
                    i,
                    vec![load],
                    SimAction::compute_only(Dur::from_millis_f64(20.0), 100),
                );
            }
            SimWorkflow {
                name: "requeue".into(),
                graphs: vec![b.build(&HashSet::new()).unwrap()],
                submit: SubmitPolicy::AllAtOnce,
                startup: Dur::from_secs_f64(1.0),
                inter_graph: Dur::ZERO,
                shutdown: Dur::ZERO,
                dataset: vec![],
            }
        };
        // a run without faults shows where and when the input finishes
        let cfg = SimConfig { wms: wms.clone(), ..Default::default() };
        let clean = SimCluster::new(cfg).unwrap().run(workflow()).unwrap();
        let load = clean.task_done.iter().find(|d| d.key.prefix == "load").unwrap();
        let nodes = &clean.chart.job.allocated_nodes[1..];
        let holder = nodes.iter().position(|n| *n == load.worker.node).unwrap() as u32;
        let death = WorkerDeath { worker: holder, time: load.stop + Dur(1) };
        let faults = FaultSchedule { deaths: vec![death], ..Default::default() };
        let cfg = SimConfig { wms, faults, invariant_checks: true, ..Default::default() };
        let data = SimCluster::new(cfg).unwrap().run(workflow()).unwrap();
        assert_eq!(data.distinct_tasks(), 7);
        let loads: Vec<_> = data.task_done.iter().filter(|d| d.key.prefix == "load").collect();
        assert_eq!(loads.len(), 2, "the input was recomputed after its only holder died");
        let lost =
            |t: &&TransitionEvent| t.key.prefix == "load" && t.stimulus == Stimulus::WorkerLost;
        let evicted = data.transitions.iter().find(lost).expect("the input was lost").time;
        assert_eq!(loads[1].start, evicted, "the recompute starts at the eviction");
    }

    /// The chart's `client_code_hash` fingerprints the submitted workflow:
    /// one workflow keeps one hash under two campaign seeds, and one
    /// task's compute time moves it.
    #[test]
    fn the_code_hash_fingerprints_the_workflow_not_the_seed() {
        let hash = |seed: u64, workflow: SimWorkflow| {
            let cfg = SimConfig { campaign_seed: seed, ..Default::default() };
            SimCluster::new(cfg).unwrap().run(workflow).unwrap().chart.client_code_hash
        };
        let one = hash(7, small_workflow(true));
        assert_eq!(one, hash(8, small_workflow(true)), "the seed is not the workflow");
        assert_eq!(one, small_workflow(true).code_hash());
        let mut slower = small_workflow(true);
        let Payload::Sim(action) = &mut slower.graphs[0].tasks[9].payload else {
            panic!("a simulated task")
        };
        action.compute += Dur(1);
        assert_ne!(one, hash(7, slower), "one task's compute time is part of the workflow");
    }

    /// A workload that reads a file its dataset does not hold is refused
    /// from `run` as a config error, not a panic mid-run.
    #[test]
    fn reading_a_file_outside_the_dataset_is_a_config_error() {
        let workflow = SimWorkflow { dataset: vec![], ..small_workflow(true) };
        let err = SimCluster::new(SimConfig::default()).unwrap().run(workflow).err();
        let err = err.expect("the missing file is refused");
        assert!(matches!(&err, DtfError::Config(m) if m.contains("simulated I/O")), "{err}");
    }

    #[test]
    fn same_seed_same_run_is_reproducible() {
        let cfg = SimConfig { campaign_seed: 7, run: RunId(3), ..Default::default() };
        let a = SimCluster::new(cfg.clone()).unwrap().run(small_workflow(true)).unwrap();
        let b = SimCluster::new(cfg).unwrap().run(small_workflow(true)).unwrap();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.comms.len(), b.comms.len());
        let oa: Vec<_> = a.start_order.iter().map(|(k, _)| *k).collect();
        let ob: Vec<_> = b.start_order.iter().map(|(k, _)| *k).collect();
        assert_eq!(oa, ob, "identical schedule for identical seed");
    }

    #[test]
    fn different_runs_vary() {
        let a =
            SimCluster::new(SimConfig { campaign_seed: 7, run: RunId(0), ..Default::default() })
                .unwrap()
                .run(small_workflow(true))
                .unwrap();
        let b =
            SimCluster::new(SimConfig { campaign_seed: 7, run: RunId(1), ..Default::default() })
                .unwrap()
                .run(small_workflow(true))
                .unwrap();
        assert_ne!(a.wall_time, b.wall_time, "runs should exhibit variability");
    }

    #[test]
    fn dependencies_never_violated() {
        let sim = SimCluster::new(SimConfig::default()).unwrap();
        let data = sim.run(small_workflow(false)).unwrap();
        // reduce-i must start after load-i finished
        let mut finish: std::collections::HashMap<TaskKey, Time> = Default::default();
        for d in &data.task_done {
            finish.insert(d.key, d.stop);
        }
        for d in &data.task_done {
            if d.key.prefix == "reduce" {
                let dep = data
                    .task_done
                    .iter()
                    .find(|x| x.key.prefix == "load" && x.key.index == d.key.index)
                    .unwrap();
                assert!(d.start >= dep.stop, "reduce started before its load finished");
            }
        }
    }

    #[test]
    fn worker_death_mid_run_still_completes() {
        // long tasks so the kill lands mid-execution and fault detection
        // (heartbeat timeout) has to recover the work
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..80 {
            b.add_sim(
                "slow",
                tok,
                i,
                vec![],
                SimAction::compute_only(Dur::from_secs_f64(4.0), 100),
            );
        }
        let wf = SimWorkflow {
            name: "death".into(),
            graphs: vec![b.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(2.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![],
        };
        let death = WorkerDeath { worker: 0, time: Time::from_secs_f64(2.5) };
        let faults = FaultSchedule { deaths: vec![death], ..Default::default() };
        let cfg = SimConfig { faults, ..Default::default() };
        let sim = SimCluster::new(cfg).unwrap();
        let data = sim.run(wf).unwrap();
        assert_eq!(data.distinct_tasks(), 80);
        // the lost-worker warning shows up in the logs
        assert!(data.logs.iter().any(|l| l.message.contains("lost")));
        // tasks dispatched to the dead worker were re-run elsewhere
        let dead_worker = data.chart.job.allocated_nodes[1];
        let late_on_dead = data
            .task_done
            .iter()
            .filter(|d| d.worker == WorkerId::new(dead_worker, 0))
            .filter(|d| d.stop > Time::from_secs_f64(2.5))
            .count();
        assert_eq!(late_on_dead, 0, "no completions on the dead worker after the kill");
    }

    #[test]
    fn stall_rate_produces_warnings() {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        b.add_sim(
            "read_parquet-fused-assign",
            tok,
            0,
            vec![],
            SimAction {
                compute: Dur::from_secs_f64(30.0),
                io: vec![],
                output_nbytes: 300 << 20,
                stall_rate: 0.5,
            },
        );
        let wf = SimWorkflow {
            name: "stalls".into(),
            graphs: vec![b.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(1.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![],
        };
        let data = SimCluster::new(SimConfig::default()).unwrap().run(wf).unwrap();
        assert!(!data.warnings.is_empty(), "long stall-prone task should warn");
        // warnings fall within the run window
        for w in &data.warnings {
            assert!(w.time.as_secs_f64() >= 1.0);
        }
    }

    #[test]
    fn proxy_plane_is_schedule_neutral() {
        // enabling the out-of-band plane must not move a single event:
        // same wall time, same start order, same transfers — only the
        // proxy lifecycle stream appears
        let off_cfg = SimConfig { campaign_seed: 11, run: RunId(2), ..Default::default() };
        let mut on_cfg = off_cfg.clone();
        on_cfg.proxy =
            ProxyConfig { enabled: true, threshold: 1 << 18, resolver_cache_bytes: 8 << 20 };
        let off = SimCluster::new(off_cfg).unwrap().run(small_workflow(true)).unwrap();
        let on = SimCluster::new(on_cfg).unwrap().run(small_workflow(true)).unwrap();
        assert_eq!(off.wall_time, on.wall_time);
        assert_eq!(off.start_order, on.start_order);
        assert_eq!(
            serde_json::to_string(&off.comms).unwrap(),
            serde_json::to_string(&on.comms).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&off.transitions).unwrap(),
            serde_json::to_string(&on.transitions).unwrap()
        );
        assert!(off.proxies.is_empty(), "disabled plane must stay silent");
        // the 1 MiB load outputs crossed the 256 KiB threshold
        use dtf_core::events::ProxyAction;
        assert!(on.proxies.iter().any(|p| p.action == ProxyAction::Published));
        assert!(
            on.proxies.iter().all(|p| p.key.prefix == "load"),
            "only above-threshold outputs publish"
        );
    }

    #[test]
    fn sequential_graphs_submit_in_order() {
        let mut graphs = Vec::new();
        let mut ext = HashSet::new();
        for g in 0..3 {
            let mut b = GraphBuilder::new(GraphId(g));
            let tok = b.new_token();
            for i in 0..4 {
                b.add_sim(
                    "step",
                    tok,
                    i,
                    vec![],
                    SimAction::compute_only(Dur::from_millis_f64(10.0), 10),
                );
            }
            let built = b.build(&ext).unwrap();
            for t in &built.tasks {
                ext.insert(t.key);
            }
            graphs.push(built);
        }
        let wf = SimWorkflow {
            name: "seq".into(),
            graphs,
            submit: SubmitPolicy::Sequential,
            startup: Dur::from_secs_f64(1.0),
            inter_graph: Dur::from_secs_f64(0.5),
            shutdown: Dur::ZERO,
            dataset: vec![],
        };
        let data = SimCluster::new(SimConfig::default()).unwrap().run(wf).unwrap();
        assert_eq!(data.task_graphs(), 3);
        // graph 1 tasks all start after graph 0 tasks all finished
        let g_end = |g: u32| {
            data.task_done.iter().filter(|d| d.graph.0 == g).map(|d| d.stop).max().unwrap()
        };
        let g_start = |g: u32| {
            data.task_done.iter().filter(|d| d.graph.0 == g).map(|d| d.start).min().unwrap()
        };
        assert!(g_start(1) >= g_end(0));
        assert!(g_start(2) >= g_end(1));
    }
}

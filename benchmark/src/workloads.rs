//! The four workloads. Each is a [`Pipeline`]: set-up builds it from the
//! seed, `cycle` is the timed unit of work, and `check` — outside the
//! clock — verifies what the cycle produced and clears the way for the
//! next one. Every call into a crate's public function sits in a
//! [`Tracer`] span named `<crate>.<function>`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dtf::core::events::ProvRecord;
use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::core::time::Time;
use dtf::mofka::bedrock::BedrockConfig;
use dtf::mofka::{MofkaService, ProducerConfig};
use dtf::perfrecup::archive::ArchivedRun;
use dtf::perfrecup::category::CategoryStats;
use dtf::perfrecup::live::{
    phase_sample, query_rundata, LiveConfig, LiveViews, RunFinal, ViewQuery, ViewResult,
    ViewSnapshot,
};
use dtf::perfrecup::{
    category, comm_scatter, data_movement, export, io_timeline, lineage, utilization, warnings_dist,
};
use dtf::wms::plugins::{MofkaPlugin, WmsPlugin};
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::wms::RunData;
use dtf::workflows::{RunSummary, Workload};

use crate::trace::Tracer;

/// Runs of each paper workload in one `campaign_insitu` cycle.
const INSITU_RUNS: u32 = 3;
/// Events fed between two live refreshes (`live_follow`).
pub const LIVE_CHUNK: usize = 1000;
/// Utilization bins the kernels and the live engine maintain.
pub const BINS: usize = 20;

pub const NAMES: [&str; 4] =
    ["campaign_insitu", "campaign_durable", "archive_analyze", "live_follow"];

/// One simulated run, fully determined by its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub run: u32,
}

impl RunSpec {
    /// The run `archive_analyze` archives: XGBoost, the largest event
    /// stream of the three paper workloads and the only one whose archive
    /// reopens fast enough to repeat inside a run (README, "Workloads").
    pub fn archived(seed: u64) -> Self {
        Self { workload: Workload::Xgboost, seed, run: 0 }
    }

    /// Run 0 of each paper workload: what `live_follow` follows, and what
    /// its trace and the campaigns' replay single layers on.
    pub fn first_of_each(seed: u64) -> Vec<Self> {
        Workload::ALL.iter().map(|&workload| Self { workload, seed, run: 0 }).collect()
    }
}

/// The optional subsystems of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    pub proxy: bool,
    pub online_darshan: bool,
}

impl Features {
    pub const OFF: Self = Self { proxy: false, online_darshan: false };
    pub const ON: Self = Self { proxy: true, online_darshan: true };
}

/// `Workload::generate` → `SimCluster::new` → `SimCluster::run`.
pub fn simulate(
    t: &mut Tracer,
    spec: RunSpec,
    features: Features,
    persist: Option<&Path>,
) -> RunData {
    let run = RunId(spec.run);
    let workflow =
        t.call("workflows.generate", |_| spec.workload.generate(&RunRng::new(spec.seed, run)));
    let mut cfg = SimConfig {
        campaign_seed: spec.seed,
        run,
        persist_dir: persist.map(|p| p.to_string_lossy().into_owned()),
        online_darshan: features.online_darshan,
        ..Default::default()
    };
    cfg.proxy.enabled = features.proxy;
    spec.workload.adjust(&mut cfg);
    let cluster = t.call("wms.cluster_new", |_| SimCluster::new(cfg)).expect("cluster allocates");
    t.call("wms.run", |_| cluster.run(workflow)).expect("simulated run completes")
}

/// Provenance events a run carried through Mofka.
pub fn event_count(data: &RunData) -> u64 {
    (data.meta.len()
        + data.transitions.len()
        + data.worker_transitions.len()
        + data.task_done.len()
        + data.comms.len()
        + data.warnings.len()
        + data.logs.len()
        + data.proxies.len()
        + data.online_io.len()) as u64
}

pub fn fnv64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

pub const FNV_SEED: u64 = 0xcbf29ce484222325;

fn fnv_json<T: serde::Serialize>(value: &T) -> u64 {
    fnv64(FNV_SEED, serde_json::to_string(value).expect("output serializes").as_bytes())
}

/// A workload between set-up and exit.
pub trait Pipeline {
    /// One cycle, on the clock. Returns the provenance events it carried.
    fn cycle(&mut self, t: &mut Tracer) -> u64;
    /// Off the clock: verify the cycle's outputs, return their FNV-64,
    /// and remove whatever the next cycle must not find.
    fn check(&mut self) -> Result<u64, String>;
    /// The simulated runs whose events this workload's cycle carries —
    /// what the trace replays single layers on.
    fn subjects(&self) -> Vec<RunSpec>;
    /// Whether the cycle's own runs go through `dtf-store`.
    fn durable(&self) -> bool;
}

/// Generate inputs from `seed` and build the named workload under `dir`.
pub fn setup(
    name: &str,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
) -> Result<Box<dyn Pipeline>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(match name {
        "campaign_insitu" => Box::new(Campaign::new(seed, None)),
        "campaign_durable" => Box::new(Campaign::new(seed, Some(dir.to_path_buf()))),
        "archive_analyze" => Box::new(ArchiveAnalyze::new(seed, dir, t)?),
        "live_follow" => Box::new(LiveFollow::new(seed, t)),
        _ => return Err(format!("unknown workload {name:?}; expected one of {NAMES:?}")),
    })
}

/// `campaign_insitu` and `campaign_durable`: simulate runs of the three
/// paper workloads and summarize each.
struct Campaign {
    seed: u64,
    /// `Some`: one all-on run per workload persisted under this directory;
    /// `None`: three plain in-memory runs per workload.
    store_root: Option<PathBuf>,
    summaries: Vec<RunSummary>,
}

impl Campaign {
    fn new(seed: u64, store_root: Option<PathBuf>) -> Self {
        Self { seed, store_root, summaries: Vec::new() }
    }

    fn runs(&self) -> u32 {
        if self.store_root.is_some() {
            1
        } else {
            INSITU_RUNS
        }
    }
}

impl Pipeline for Campaign {
    fn cycle(&mut self, t: &mut Tracer) -> u64 {
        let mut events = 0;
        for workload in Workload::ALL {
            for run in 0..self.runs() {
                let spec = RunSpec { workload, seed: self.seed, run };
                let data = match &self.store_root {
                    Some(root) => {
                        simulate(t, spec, Features::ON, Some(&root.join(workload.name())))
                    }
                    None => simulate(t, spec, Features::OFF, None),
                };
                self.summaries.push(t.call("wms.summary", |_| RunSummary::of(&data, false)));
                events += event_count(&data);
                t.call("drop", |_| drop(data));
            }
        }
        events
    }

    fn check(&mut self) -> Result<u64, String> {
        let expected = (Workload::ALL.len() as u32 * self.runs()) as usize;
        if self.summaries.len() != expected {
            return Err(format!("{} run summaries, expected {expected}", self.summaries.len()));
        }
        if let Some(s) = self.summaries.iter().find(|s| s.tasks == 0 || s.wall_s <= 0.0) {
            return Err(format!("run {} completed no task", s.run));
        }
        let hash = fnv_json(&self.summaries);
        self.summaries.clear();
        if let Some(root) = &self.store_root {
            for workload in Workload::ALL {
                let store = root.join(workload.name());
                if !store.join("yokan").is_dir() || !store.join("warabi").is_dir() {
                    return Err(format!("{} holds no persisted store", store.display()));
                }
                std::fs::remove_dir_all(&store)
                    .map_err(|e| format!("rm {}: {e}", store.display()))?;
            }
        }
        Ok(hash)
    }

    fn subjects(&self) -> Vec<RunSpec> {
        RunSpec::first_of_each(self.seed)
    }

    fn durable(&self) -> bool {
        self.store_root.is_some()
    }
}

/// What the PERFRECUP kernels of one `archive_analyze` cycle returned; the
/// check folds it into the cycle's hash beside the export bundle.
#[derive(serde::Serialize)]
struct KernelDigest {
    categories: Vec<CategoryStats>,
    workers: usize,
    comm_points: usize,
    io_phases: usize,
    warnings: usize,
    moved_bytes: u64,
    task_io_rows: usize,
    lineages: usize,
    exported_files: usize,
}

/// Every post-hoc kernel over one run record; `task_io` is the fused
/// task↔I/O join the paper leads with, timed as its own child span.
pub fn run_kernels(
    t: &mut Tracer,
    name: &'static str,
    data: &RunData,
) -> (Vec<CategoryStats>, [usize; 5], u64) {
    t.call(name, |t| {
        let threads = data.chart.wms_config.threads_per_worker;
        let categories = category::per_category(data);
        let workers = utilization::per_worker(data, BINS, threads).len();
        std::hint::black_box(phase_sample(data));
        let comm_points = comm_scatter::points(data).n_rows();
        let io_phases = io_timeline::detect_phases(data, 1.0).len();
        let warnings = warnings_dist::report(data, BINS, 500.0, 10.0).total;
        let moved_bytes = data_movement::summary(data).total_bytes;
        let task_io_rows = t.call("perfrecup.task_io_join", |_| {
            dtf::perfrecup::RunViews::new(data).task_io().n_rows()
        });
        (categories, [workers, comm_points, io_phases, warnings, task_io_rows], moved_bytes)
    })
}

/// `archive_analyze`: reopen a persisted run and take it to insight.
struct ArchiveAnalyze {
    spec: RunSpec,
    store: PathBuf,
    reference: PathBuf,
    out: PathBuf,
    digest: Option<KernelDigest>,
}

impl ArchiveAnalyze {
    fn new(seed: u64, dir: &Path, t: &mut Tracer) -> Result<Self, String> {
        let spec = RunSpec::archived(seed);
        let store = dir.join("store");
        let reference = dir.join("reference");
        for stale in [&store, &reference] {
            let _ = std::fs::remove_dir_all(stale);
        }
        let live = simulate(t, spec, Features::ON, Some(&store));
        export::export_run(&live, &reference).map_err(|e| format!("reference export: {e}"))?;
        Ok(Self { spec, store, reference, out: dir.join("export"), digest: None })
    }
}

impl Pipeline for ArchiveAnalyze {
    fn cycle(&mut self, t: &mut Tracer) -> u64 {
        let archived = t
            .call("perfrecup.open_archive", |_| ArchivedRun::open(&self.store))
            .expect("archive opens");
        let data = &archived.data;
        let (categories, [workers, comm_points, io_phases, warnings, task_io_rows], moved_bytes) =
            run_kernels(t, "perfrecup.kernels", data);
        let lineages = t.call("perfrecup.lineage", |_| lineage::build_all(data));
        let exported_files = t
            .call("perfrecup.export", |_| export::export_run(data, &self.out))
            .expect("export writes");
        self.digest = Some(KernelDigest {
            categories,
            workers,
            comm_points,
            io_phases,
            warnings,
            moved_bytes,
            task_io_rows,
            lineages: lineages.len(),
            exported_files,
        });
        let events = archived.recovery.restored_events;
        t.call("drop", |_| drop((lineages, archived)));
        events
    }

    fn check(&mut self) -> Result<u64, String> {
        let digest = self.digest.take().ok_or("cycle left no kernel results")?;
        if digest.lineages == 0 || digest.categories.is_empty() {
            return Err("archive reconstructed no task".into());
        }
        let mut hash = fnv_json(&digest);
        let mut names: Vec<_> = std::fs::read_dir(&self.reference)
            .map_err(|e| format!("read {}: {e}", self.reference.display()))?
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .collect();
        names.sort();
        if names.len() != digest.exported_files {
            return Err(format!(
                "export wrote {} files, reference has {}",
                digest.exported_files,
                names.len()
            ));
        }
        for name in names {
            let want = std::fs::read(self.reference.join(&name)).map_err(|e| e.to_string())?;
            let got = std::fs::read(self.out.join(&name))
                .map_err(|e| format!("export lacks {}: {e}", name.to_string_lossy()))?;
            if want != got {
                return Err(format!(
                    "{} differs from the live run's export",
                    name.to_string_lossy()
                ));
            }
            hash = fnv64(fnv64(hash, name.as_encoded_bytes()), &got);
        }
        std::fs::remove_dir_all(&self.out)
            .map_err(|e| format!("rm {}: {e}", self.out.display()))?;
        Ok(hash)
    }

    fn subjects(&self) -> Vec<RunSpec> {
        vec![self.spec]
    }

    fn durable(&self) -> bool {
        true
    }
}

/// A run's events as one stream in timestamp order — what a live
/// consumer would have seen — plus the sources that only exist at
/// shutdown.
pub struct RecordedRun {
    pub records: Vec<ProvRecord>,
    pub threads_per_worker: u32,
    pub last: RunFinal,
}

impl RecordedRun {
    pub fn of(data: RunData) -> Self {
        let threads_per_worker = data.chart.wms_config.threads_per_worker;
        let mut keyed: Vec<(Time, ProvRecord)> = Vec::with_capacity(event_count(&data) as usize);
        let last = RunFinal { darshan: data.darshan, wall_time: data.wall_time };
        keyed.extend(data.meta.into_iter().map(|e| (e.submitted, e.into())));
        keyed.extend(data.transitions.into_iter().map(|e| (e.time, e.into())));
        keyed.extend(data.worker_transitions.into_iter().map(|e| (e.time, e.into())));
        keyed.extend(data.task_done.into_iter().map(|e| (e.stop, e.into())));
        keyed.extend(data.comms.into_iter().map(|e| (e.stop, e.into())));
        keyed.extend(data.warnings.into_iter().map(|e| (e.time, e.into())));
        keyed.extend(data.logs.into_iter().map(|e| (e.time, e.into())));
        keyed.extend(data.proxies.into_iter().map(|e| (e.time, e.into())));
        // stable: events of one instant keep their per-topic order
        keyed.sort_by_key(|(time, _)| *time);
        Self { records: keyed.into_iter().map(|(_, r)| r).collect(), threads_per_worker, last }
    }
}

/// Hand one recorded event to the plugin hook of its family.
pub fn dispatch(plugin: &mut MofkaPlugin, record: &ProvRecord) {
    match record {
        ProvRecord::TaskMeta(e) => plugin.on_task_meta(e),
        ProvRecord::Transition(e) => plugin.on_transition(e),
        ProvRecord::WorkerTransition(e) => plugin.on_worker_transition(e),
        ProvRecord::TaskDone(e) => plugin.on_task_done(e),
        ProvRecord::Comm(e) => plugin.on_comm(e),
        ProvRecord::Warning(e) => plugin.on_warning(e),
        ProvRecord::Log(e) => plugin.on_log(e),
        ProvRecord::Proxy(e) => plugin.on_proxy(e),
        // Darshan records reach Mofka through the runtime's own sink,
        // never through a WMS plugin
        ProvRecord::Io(_) => {}
    }
}

/// Follow one recorded run live: a fresh service, a live engine attached
/// to it, the events fed through the instrumentation plugin in
/// [`LIVE_CHUNK`]s with a refresh (`pump_all` + `publish`) after each.
/// Returns the service, the finalized snapshot and each refresh's wall.
pub fn follow(
    t: &mut Tracer,
    run: &RecordedRun,
    last: RunFinal,
    group: &str,
) -> (MofkaService, Arc<ViewSnapshot>, Vec<f64>) {
    let svc = t
        .call("mofka.bootstrap", |_| BedrockConfig::wms_default().bootstrap())
        .expect("service bootstraps");
    let cfg =
        LiveConfig { group: group.into(), bins: BINS, threads_per_worker: run.threads_per_worker };
    let mut live =
        t.call("perfrecup.live_attach", |_| LiveViews::attach(&svc, cfg)).expect("engine attaches");
    let mut plugin = t
        .call("wms.plugin_new", |_| MofkaPlugin::new(&svc, ProducerConfig::default()))
        .expect("plugin connects");
    let mut refreshes = Vec::with_capacity(run.records.len() / LIVE_CHUNK + 1);
    for chunk in run.records.chunks(LIVE_CHUNK) {
        t.call("perfrecup.live_feed", |_| {
            for record in chunk {
                dispatch(&mut plugin, record);
            }
            plugin.flush();
        });
        let started = std::time::Instant::now();
        t.call("perfrecup.live_pump", |_| live.pump_all()).expect("pump drains the feed");
        t.call("perfrecup.live_publish", |_| live.publish());
        refreshes.push(started.elapsed().as_secs_f64());
    }
    let snap =
        t.call("perfrecup.live_finalize", |_| live.finalize(last)).expect("engine finalizes");
    t.call("drop", |_| drop((plugin, live)));
    (svc, snap, refreshes)
}

/// `live_follow`: keep the online views fresh over three recorded runs.
struct LiveFollow {
    seed: u64,
    runs: Vec<RecordedRun>,
    /// This cycle's `RunFinal`s, cloned off the clock.
    finals: Vec<RunFinal>,
    followed: Vec<(MofkaService, Arc<ViewSnapshot>)>,
}

impl LiveFollow {
    fn new(seed: u64, t: &mut Tracer) -> Self {
        let runs: Vec<RecordedRun> = RunSpec::first_of_each(seed)
            .into_iter()
            .map(|spec| RecordedRun::of(simulate(t, spec, Features::OFF, None)))
            .collect();
        let finals = runs.iter().map(|r| r.last.clone()).collect();
        Self { seed, runs, finals, followed: Vec::new() }
    }
}

impl Pipeline for LiveFollow {
    fn cycle(&mut self, t: &mut Tracer) -> u64 {
        let mut events = 0;
        for (run, last) in self.runs.iter().zip(self.finals.drain(..)) {
            let (svc, snap, _) = follow(t, run, last, "live-follow");
            events += snap.progress.total();
            self.followed.push((svc, snap));
        }
        events
    }

    fn check(&mut self) -> Result<u64, String> {
        let mut hash = FNV_SEED;
        for ((svc, snap), run) in self.followed.drain(..).zip(&self.runs) {
            if !snap.finalized {
                return Err("snapshot is not finalized".into());
            }
            // the post-hoc answer over a drain of the very service the
            // engine followed (view order ties break on partition/offset)
            let oracle = RunData::drain_from_mofka(
                &svc,
                RunId(0),
                String::new(),
                bench_chart(run.threads_per_worker),
                run.last.darshan.clone(),
                run.last.wall_time,
                Vec::new(),
                0,
            )
            .map_err(|e| format!("oracle drain: {e}"))?;
            let queries = [
                ViewQuery::Categories,
                ViewQuery::Utilization { bins: BINS, threads_per_worker: run.threads_per_worker },
                ViewQuery::Phases,
            ];
            for q in queries {
                let live = match &q {
                    ViewQuery::Categories => ViewResult::Categories(snap.categories.clone()),
                    ViewQuery::Utilization { .. } => {
                        ViewResult::Utilization(snap.utilization.clone())
                    }
                    ViewQuery::Phases => ViewResult::Phases(snap.phases),
                };
                if live != query_rundata(&oracle, &q) {
                    return Err(format!(
                        "finalized snapshot disagrees with query_rundata on {q:?}"
                    ));
                }
            }
            hash =
                fnv64(hash, serde_json::to_string(&*snap).expect("snapshot serializes").as_bytes());
        }
        self.finals = self.runs.iter().map(|r| r.last.clone()).collect();
        Ok(hash)
    }

    fn subjects(&self) -> Vec<RunSpec> {
        RunSpec::first_of_each(self.seed)
    }

    fn durable(&self) -> bool {
        false
    }
}

/// A provenance chart for drains that only feed the view kernels, which
/// read nothing from it but the thread count.
pub fn bench_chart(threads_per_worker: u32) -> dtf::core::provenance::ProvenanceChart {
    use dtf::core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
    ProvenanceChart {
        hardware: HardwareInfo::polaris_like(1),
        system: SystemInfo::synthetic(),
        job: JobInfo {
            job_id: 1,
            script: String::new(),
            queue: "bench".into(),
            nodes_requested: 1,
            allocated_nodes: Vec::new(),
            submit_time: Time::ZERO,
            start_time: Time::ZERO,
            walltime_limit_s: 3600,
        },
        wms_config: WmsConfig { threads_per_worker, ..WmsConfig::default() },
        client_code_hash: 0,
        workflow_name: "dtf-benchmark".into(),
    }
}

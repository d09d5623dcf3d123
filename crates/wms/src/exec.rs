//! The real executor: genuine Rust closures on real worker threads.
//!
//! [`LocalCluster`] is one in-process node: it spins up
//! `workers_per_node × threads_per_worker` OS threads that share the same
//! [`Scheduler`] state machine the simulator uses — same placement
//! heuristic, same queuing, same stealing, same plugin instrumentation,
//! and the same [`WmsConfig`] — but under a monotonic wall
//! clock, executing [`Payload::Real`] closures and passing real values
//! between tasks. This is the mode a downstream user adopts to
//! characterize their own workload.
//!
//! A cluster streams its records into an in-memory Mofka service of its
//! own through one [`MofkaPlugin`], whose producers hand each record to
//! its partition as it is pushed, so the stream can be tailed while the
//! run is live ([`LocalCluster::service`]). [`LocalCluster::finish`] ends
//! the run in the drain every run ends in, and returns its [`RunData`].
//! A cluster dropped without `finish` stops and joins its threads.
//!
//! Every idle thread, and every client call that blocks, sleeps on one
//! condvar paired with the scheduler mutex, and checks its condition under
//! that mutex before it waits, so no wake-up is lost and no wait needs a
//! timeout. Every time the scheduler is handed is read under that mutex,
//! so a run's records are stamped in the order they are emitted: a task's
//! `stop` is read once its thread holds the lock again, not when its
//! closure returned. A task takes the scheduler lock twice: once to start
//! it and read its closure and inputs, once to report it finished — or erred: a
//! closure that panics is caught on its thread, the task and everything
//! waiting on it err, the panic's message goes into the provenance as an
//! error log line from the worker, and the cluster runs on.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{CommEvent, TaskState};
use dtf_core::ids::{NodeId, RunId, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::{HardwareInfo, JobInfo, ProvenanceChart, SystemInfo, WmsConfig};
use dtf_core::time::{Dur, RealClock, Time};
use dtf_core::FNV64_BASIS;
use dtf_darshan::log::LogSet;
use dtf_mofka::bedrock::BedrockConfig;
use dtf_mofka::producer::ProducerConfig;
use dtf_mofka::MofkaService;

use crate::graph::{Payload, RealFn, TaskGraph, TaskValue};
use crate::plugins::MofkaPlugin;
use crate::rundata::{RunData, RunFacts};
use crate::scheduler::{nonzero, Fetch, Scheduler};

/// The batch size of the executor's producers: a real run is read in
/// situ, so every record reaches its partition when it is pushed.
const IN_SITU_BATCH: usize = 1;

struct Shared {
    scheduler: Mutex<Scheduler>,
    data: Mutex<HashMap<TaskKey, Arc<TaskValue>>>,
    clock: RealClock,
    /// Paired with `scheduler`: signalled after every scheduler state
    /// change that can let a thread start a task or a waiter return, and
    /// on stop.
    progress: Condvar,
    /// Set under the scheduler lock.
    stop: AtomicBool,
    /// [`TaskGraph::extend_hash`] over every graph submitted so far, in
    /// submission order. Set under the scheduler lock.
    code_hash: AtomicU64,
}

/// All workers share one node in-process; the slot is the worker's index.
fn worker_id(widx: usize) -> WorkerId {
    WorkerId::new(NodeId(0), widx as u32)
}

/// The worker threads and the state they share. Dropping this stops and
/// joins the threads, so no thread outlives its cluster.
struct Threads {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Threads {
    /// Set `stop`, wake every thread and join them; a second call finds
    /// none left to join.
    fn stop(&mut self) {
        let sched = self.shared.scheduler.lock();
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(sched);
        self.shared.progress.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running local cluster.
pub struct LocalCluster {
    threads: Threads,
    service: MofkaService,
    cfg: WmsConfig,
}

impl LocalCluster {
    /// Start the cluster: one node of `cfg.workers_per_node` workers with
    /// `cfg.threads_per_worker` threads each, streaming into a fresh
    /// in-memory Mofka service; zero of either is a config error. The
    /// executor has no heartbeats, and an idle thread rebalances before it
    /// sleeps rather than on a period, so it reads none of
    /// `heartbeat_interval_ms`, `worker_ttl_ms` and `steal_interval_ms`.
    /// A worker thread the OS refuses to start is an I/O error, after the
    /// threads already started are stopped.
    pub fn start(cfg: WmsConfig) -> Result<Self> {
        nonzero("workers_per_node", cfg.workers_per_node)?;
        nonzero("threads_per_worker", cfg.threads_per_worker)?;
        let workers = cfg.workers_per_node as usize;
        let threads = cfg.threads_per_worker;
        let service = BedrockConfig::wms_default().bootstrap()?;
        let producers = ProducerConfig { batch_size: IN_SITU_BATCH, ..Default::default() };
        let plugin = MofkaPlugin::new(&service, producers)?;
        let mut scheduler = Scheduler::new(cfg.clone(), None, Box::new(plugin));
        for w in 0..workers {
            scheduler.add_worker(worker_id(w), threads);
        }
        let shared = Arc::new(Shared {
            scheduler: Mutex::new(scheduler),
            data: Mutex::new(HashMap::new()),
            clock: RealClock::new(),
            progress: Condvar::new(),
            stop: AtomicBool::new(false),
            code_hash: AtomicU64::new(FNV64_BASIS),
        });
        let mut pool = Threads { shared, handles: Vec::new() };
        for widx in 0..workers {
            for t in 0..threads {
                let shared = pool.shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("dtf-worker-{widx}-{t}"))
                    .spawn(move || worker_loop(shared, widx, t))
                    // dropping `pool` stops the threads already started
                    .map_err(|e| DtfError::Io(e.kind(), format!("spawn worker thread: {e}")))?;
                pool.handles.push(handle);
            }
        }
        Ok(Self { threads: pool, service, cfg })
    }

    /// The service the run streams into, for a consumer that tails it
    /// while the run is live. Drop every consumer opened on it before
    /// [`Self::finish`].
    pub fn service(&self) -> &MofkaService {
        &self.service
    }

    /// Submit a graph of real tasks.
    pub fn submit(&self, graph: TaskGraph) -> Result<()> {
        for t in &graph.tasks {
            if matches!(t.payload, Payload::Sim(_)) {
                return Err(DtfError::Config(format!(
                    "task {} has a Sim payload; the real executor runs Real payloads",
                    t.key
                )));
            }
        }
        let shared = &self.threads.shared;
        let mut sched = shared.scheduler.lock();
        let now = shared.clock.now();
        let code_hash = graph.extend_hash(shared.code_hash.load(Ordering::SeqCst));
        sched.submit_graph(graph, now)?;
        shared.code_hash.store(code_hash, Ordering::SeqCst);
        process_fetches(shared, &mut sched, now);
        drop(sched);
        shared.progress.notify_all();
        Ok(())
    }

    /// Block until `key` is in memory; return its value, or an error when
    /// it erred — its closure panicked, or one it depends on did. Sleeps on
    /// the progress condvar — woken by workers as tasks finish — rather
    /// than polling the scheduler.
    pub fn gather(&self, key: &TaskKey) -> Result<Arc<TaskValue>> {
        let shared = &self.threads.shared;
        let mut sched = shared.scheduler.lock();
        loop {
            match sched.task_state(key) {
                None => return Err(DtfError::NotFound(format!("task {key}"))),
                Some(TaskState::Memory) => break,
                Some(TaskState::Erred) => {
                    return Err(DtfError::IllegalState(format!("task {key} erred")))
                }
                _ => {}
            }
            shared.progress.wait(&mut sched);
        }
        drop(sched);
        let data = shared.data.lock();
        data.get(key).cloned().ok_or_else(|| DtfError::NotFound(format!("value of {key}")))
    }

    /// Block until every submitted task reached a terminal state.
    pub fn wait_all(&self) {
        let shared = &self.threads.shared;
        let mut sched = shared.scheduler.lock();
        while sched.unfinished() != 0 {
            shared.progress.wait(&mut sched);
        }
    }

    /// End the run as `workflow`: wait for every submitted task, stop and
    /// join the threads, flush, and drain the service by move into the
    /// run's record. Its Darshan log set is empty (the executor does no
    /// instrumented I/O), its wall time is the clock's reading here, and
    /// its chart holds only what the executor observes (DESIGN.md §7).
    /// A consumer still open on [`Self::service`] is an
    /// [`DtfError::IllegalState`]: the drain takes every topic whole, and
    /// the run's records go with the service.
    pub fn finish(self, workflow: &str) -> Result<RunData> {
        self.wait_all();
        let wall_time = self.threads.shared.clock.now() - Time::ZERO;
        let Self { mut threads, service, cfg } = self;
        threads.stop();
        let (code_hash, steals) = {
            let mut sched = threads.shared.scheduler.lock();
            sched.plugin_mut().flush();
            (threads.shared.code_hash.load(Ordering::SeqCst), sched.steal_count())
        };
        // the last handle on the scheduler: its plugin's producers go with
        // it, so the drain can take every topic whole
        drop(threads);
        let facts = RunFacts {
            run: RunId(0),
            workflow: workflow.into(),
            chart: executor_chart(cfg, workflow, code_hash),
            darshan: LogSet::default(),
            wall_time,
            steals,
        };
        RunData::drain(service, facts)
    }
}

/// The chart of an executor run, holding only what the executor can
/// observe: one node of `available_parallelism()` cores, the OS family,
/// the crate versions, the config, the workflow and the client-code hash.
/// Every other field is empty or zero (DESIGN.md §7).
fn executor_chart(wms_config: WmsConfig, workflow: &str, client_code_hash: u64) -> ProvenanceChart {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u32);
    let version = env!("CARGO_PKG_VERSION");
    let packages = ["dtf-wms", "dtf-mofka"].map(|p| (p.to_string(), version.to_string()));
    let os = std::env::consts::OS.to_string();
    ProvenanceChart {
        hardware: HardwareInfo { cores_per_node: cores, node_count: 1, ..Default::default() },
        system: SystemInfo { os, packages: packages.into(), ..Default::default() },
        job: JobInfo { nodes_requested: 1, allocated_nodes: vec![NodeId(0)], ..Default::default() },
        wms_config,
        client_code_hash,
        workflow_name: workflow.into(),
    }
}

/// In-process "transfers": the data is already shared, so each issued
/// fetch records its comm event with a measured (near-zero) duration and
/// completes at once.
fn process_fetches(shared: &Shared, sched: &mut Scheduler, now: Time) {
    for Fetch { dep, from, to, nbytes } in sched.take_fetches() {
        let stop = shared.clock.now();
        sched.plugin_mut().on_record(
            CommEvent {
                key: dep,
                from: worker_id(from),
                to: worker_id(to),
                nbytes,
                start: now,
                stop: stop.max(now + Dur(1)),
            }
            .into(),
        );
        sched.fetch_done(&dep, to, stop);
    }
}

/// What a started task runs: its closure and its inputs' keys. `None` for
/// a task the executor cannot run (`submit` refuses Sim payloads, so only
/// an unknown key gets here), which errs like a panicking one.
fn job(sched: &Scheduler, key: &TaskKey) -> Option<(RealFn, Vec<TaskKey>)> {
    match sched.payload(key)? {
        Payload::Real(f) => Some((f.clone(), sched.task_deps(key)?)),
        Payload::Sim(_) => None,
    }
}

/// Run a task's closure on its inputs: its value, or why there is none —
/// an input that is not resident, or the message the closure panicked
/// with.
fn run(shared: &Shared, func: RealFn, deps: &[TaskKey]) -> std::result::Result<TaskValue, String> {
    let inputs: Vec<Arc<TaskValue>> = {
        let data = shared.data.lock();
        let input = |d: &TaskKey| data.get(d).cloned().ok_or_else(|| format!("input {d} is gone"));
        deps.iter().map(input).collect::<std::result::Result<_, _>>()?
    };
    catch_unwind(AssertUnwindSafe(|| func(&inputs))).map_err(|payload| panic_message(&*payload))
}

/// The text a panic was raised with: a `&str` or `String` payload's own,
/// a fixed text for any other payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(text) => text.to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(text) => text.clone(),
            None => "panicked with a payload that is not text".into(),
        },
    }
}

fn worker_loop(shared: Arc<Shared>, widx: usize, thread_ordinal: u32) {
    let tid = ThreadId::synth(worker_id(widx), thread_ordinal);
    loop {
        let mut sched = shared.scheduler.lock();
        let key = loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let now = shared.clock.now();
            if let Some(key) = sched.try_start(widx, now) {
                break key;
            }
            // idle: steal (work stealing) before sleeping
            let steals = sched.steal_count();
            sched.rebalance(now);
            process_fetches(&shared, &mut sched, now);
            if sched.steal_count() != steals {
                // a stolen task may have gone to a worker whose threads all sleep
                shared.progress.notify_all();
            }
            if let Some(key) = sched.try_start(widx, now) {
                break key;
            }
            shared.progress.wait(&mut sched);
        };
        let job = job(&sched, &key);
        drop(sched);

        let start = shared.clock.now();
        let value = match job {
            Some((func, deps)) => run(&shared, func, &deps),
            None => Err("the task has no closure to run".into()),
        };
        let outcome = value.map(|value| {
            let nbytes = value.nbytes;
            shared.data.lock().insert(key, Arc::new(value));
            nbytes
        });

        {
            let mut sched = shared.scheduler.lock();
            let stop = shared.clock.now();
            match outcome {
                Ok(nbytes) => sched.task_finished(&key, widx, tid, start, stop, nbytes),
                Err(cause) => sched.task_erred(&key, widx, stop, &cause),
            }
            process_fetches(&shared, &mut sched, stop);
        }
        shared.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use dtf_core::ids::GraphId;
    use std::collections::HashSet;

    fn real_fn<F>(f: F) -> Payload
    where
        F: Fn(&[Arc<TaskValue>]) -> TaskValue + Send + Sync + 'static,
    {
        Payload::Real(Arc::new(f))
    }

    fn cfg(workers: u32, threads: u32) -> WmsConfig {
        WmsConfig { workers_per_node: workers, threads_per_worker: threads, ..Default::default() }
    }

    #[test]
    fn executes_a_real_dag_and_gathers_result() {
        let cluster = LocalCluster::start(cfg(2, 2)).unwrap();
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add(TaskKey::new("two", tok, 0), vec![], real_fn(|_| TaskValue::new(2i64, 8)));
        let c = b.add(TaskKey::new("three", tok, 0), vec![], real_fn(|_| TaskValue::new(3i64, 8)));
        let sum = b.add(
            TaskKey::new("sum", tok, 0),
            vec![a, c],
            real_fn(|deps| {
                let x: i64 = *deps[0].downcast_ref::<i64>().unwrap();
                let y: i64 = *deps[1].downcast_ref::<i64>().unwrap();
                TaskValue::new(x + y, 8)
            }),
        );
        cluster.submit(b.build(&HashSet::new()).unwrap()).unwrap();
        let v = cluster.gather(&sum).unwrap();
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), 5);
        let events = cluster.finish("test").unwrap();
        assert_eq!(events.task_done.len(), 3);
        // durations are real (monotone, nonnegative) and workers are recorded
        for d in &events.task_done {
            assert!(d.stop >= d.start);
        }
    }

    #[test]
    fn wide_fanout_uses_multiple_threads() {
        let cluster = LocalCluster::start(cfg(2, 2)).unwrap();
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..32 {
            b.add(
                TaskKey::new("busy", tok, i),
                vec![],
                real_fn(|_| {
                    // a real bit of work
                    let mut acc = 0u64;
                    for j in 0..200_000u64 {
                        acc = acc.wrapping_mul(31).wrapping_add(j);
                    }
                    TaskValue::new(acc, 8)
                }),
            );
        }
        cluster.submit(b.build(&HashSet::new()).unwrap()).unwrap();
        let events = cluster.finish("test").unwrap();
        assert_eq!(events.task_done.len(), 32);
        let threads: HashSet<u64> = events.task_done.iter().map(|d| d.thread.0).collect();
        assert!(threads.len() >= 2, "expected parallel execution, got {} threads", threads.len());
    }

    #[test]
    fn sim_payload_rejected() {
        let cluster = LocalCluster::start(cfg(2, 2)).unwrap();
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        b.add_sim("x", tok, 0, vec![], crate::graph::SimAction::compute_only(Dur(1), 1));
        let err = cluster.submit(b.build(&HashSet::new()).unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn gather_unknown_key_errors() {
        let cluster = LocalCluster::start(cfg(2, 2)).unwrap();
        assert!(cluster.gather(&TaskKey::new("ghost", 0, 0)).is_err());
    }

    #[test]
    fn cross_graph_dependency_executes() {
        let cluster = LocalCluster::start(cfg(2, 2)).unwrap();
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let base =
            b.add(TaskKey::new("base", tok, 0), vec![], real_fn(|_| TaskValue::new(21i64, 8)));
        cluster.submit(b.build(&HashSet::new()).unwrap()).unwrap();
        cluster.gather(&base).unwrap();

        let mut b2 = GraphBuilder::new(GraphId(1));
        let tok2 = b2.new_token();
        let double = b2.add(
            TaskKey::new("double", tok2, 0),
            vec![base],
            real_fn(|deps| TaskValue::new(deps[0].downcast_ref::<i64>().unwrap() * 2, 8)),
        );
        let mut ext = HashSet::new();
        ext.insert(base);
        cluster.submit(b2.build(&ext).unwrap()).unwrap();
        let v = cluster.gather(&double).unwrap();
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), 42);
    }

    #[test]
    fn comm_events_recorded_for_remote_dependencies() {
        let cluster = LocalCluster::start(WmsConfig { work_stealing: false, ..cfg(2, 1) }).unwrap();
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        // two roots run in parallel on different workers, then a join
        let mk_busy = || {
            real_fn(|_| {
                let mut acc = 0u64;
                for j in 0..2_000_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(j);
                }
                TaskValue::new(acc, 1 << 20)
            })
        };
        let a = b.add(TaskKey::new("rootA", tok, 0), vec![], mk_busy());
        let c = b.add(TaskKey::new("rootB", tok, 1), vec![], mk_busy());
        let join = b.add(
            TaskKey::new("join", tok, 0),
            vec![a, c],
            real_fn(|deps| {
                let x: u64 = *deps[0].downcast_ref::<u64>().unwrap();
                let y: u64 = *deps[1].downcast_ref::<u64>().unwrap();
                TaskValue::new(x ^ y, 8)
            }),
        );
        cluster.submit(b.build(&HashSet::new()).unwrap()).unwrap();
        cluster.gather(&join).unwrap();
        let events = cluster.finish("test").unwrap();
        // if the roots ran on different workers, the join required >= 1 comm
        let workers: HashSet<WorkerId> = events
            .task_done
            .iter()
            .filter(|d| d.key.prefix.starts_with("root"))
            .map(|d| d.worker)
            .collect();
        if workers.len() == 2 {
            assert!(!events.comms.is_empty(), "join should have fetched a remote input");
        }
    }

    /// A completion whose thread waited for the scheduler lock behind a
    /// submission is stamped after that submission: every time the
    /// scheduler is handed is read under its lock. Otherwise the
    /// completion's dependent is dispatched at the completion's earlier
    /// time, before the instant it was submitted at, and the drained
    /// chain starts from `waiting`.
    #[test]
    fn a_dependent_is_never_dispatched_before_it_was_submitted() {
        let cluster = LocalCluster::start(cfg(1, 1)).unwrap();
        let (started, on_start) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (started, gate) = (Mutex::new(started), Mutex::new(gate));
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let body = real_fn(move |_| {
            started.lock().send(()).unwrap();
            gate.lock().recv().unwrap();
            TaskValue::new(1u8, 1)
        });
        let a = b.add(TaskKey::new("a", tok, 0), vec![], body);
        cluster.submit(b.build(&HashSet::new()).unwrap()).unwrap();
        on_start.recv().unwrap();

        // hold the lock while `a` returns, then submit its dependent as
        // `submit` does, the completion still waiting for the lock
        let mut sched = cluster.threads.shared.scheduler.lock();
        release.send(()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut b = GraphBuilder::new(GraphId(1));
        let tok = b.new_token();
        let c = b.add(TaskKey::new("c", tok, 0), vec![a], real_fn(|_| TaskValue::new(2u8, 1)));
        let now = cluster.threads.shared.clock.now();
        sched.submit_graph(b.build(&HashSet::from([a])).unwrap(), now).unwrap();
        drop(sched);

        cluster.gather(&c).unwrap();
        let data = cluster.finish("lock-order").unwrap();
        let at = |to: TaskState| {
            data.transitions.iter().find(|t| t.key == c && t.to == to).map(|t| t.time).unwrap()
        };
        assert!(at(TaskState::Processing) >= at(TaskState::Waiting), "dispatched before submitted");
    }

    /// A consumer still open on the service makes `finish` an error: the
    /// drain takes every topic whole.
    #[test]
    fn finish_refuses_a_service_a_consumer_still_holds() {
        let cluster = LocalCluster::start(cfg(1, 1)).unwrap();
        let consumer = cluster.service().consumer("task-done", Default::default()).unwrap();
        match cluster.finish("held") {
            Err(DtfError::IllegalState(msg)) => assert!(msg.contains("still open"), "{msg}"),
            other => panic!("expected IllegalState, got {other:?}"),
        }
        drop(consumer);
    }
}

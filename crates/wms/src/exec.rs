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
//! Every idle thread, and every client call that blocks, sleeps on one
//! condvar paired with the scheduler mutex, and checks its condition under
//! that mutex before it waits, so no wake-up is lost and no wait needs a
//! timeout. A task takes the scheduler lock twice: once to start it and
//! read its closure and inputs, once to report it finished — or erred: a
//! closure that panics is caught on its thread, the task and everything
//! waiting on it err, and the cluster runs on.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{CommEvent, TaskState};
use dtf_core::ids::{NodeId, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::WmsConfig;
use dtf_core::time::{Dur, RealClock, Time};

use crate::graph::{Payload, RealFn, TaskGraph, TaskValue};
use crate::plugins::{PluginSet, WmsPlugin};
use crate::scheduler::{nonzero, Fetch, Scheduler};

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
}

/// All workers share one node in-process; the slot is the worker's index.
fn worker_id(widx: usize) -> WorkerId {
    WorkerId::new(NodeId(0), widx as u32)
}

/// A running local cluster.
pub struct LocalCluster {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LocalCluster {
    /// Start the cluster with the given instrumentation plugins: one node
    /// of `cfg.workers_per_node` workers with `cfg.threads_per_worker`
    /// threads each; zero of either is a config error. The executor has
    /// no heartbeats, and an idle thread rebalances before it sleeps
    /// rather than on a period, so it reads none of
    /// `heartbeat_interval_ms`, `worker_ttl_ms` and `steal_interval_ms`.
    /// A worker thread the OS refuses to start is an I/O error, after the
    /// threads already started are stopped.
    pub fn start(cfg: WmsConfig, plugins: PluginSet) -> Result<Self> {
        nonzero("workers_per_node", cfg.workers_per_node)?;
        nonzero("threads_per_worker", cfg.threads_per_worker)?;
        let workers = cfg.workers_per_node as usize;
        let threads = cfg.threads_per_worker;
        let mut scheduler = Scheduler::new(cfg, None, plugins);
        for w in 0..workers {
            scheduler.add_worker(worker_id(w), threads);
        }
        let shared = Arc::new(Shared {
            scheduler: Mutex::new(scheduler),
            data: Mutex::new(HashMap::new()),
            clock: RealClock::new(),
            progress: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut cluster = Self { shared, handles: Vec::new() };
        for widx in 0..workers {
            for t in 0..threads {
                let shared = cluster.shared.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("dtf-worker-{widx}-{t}"))
                    .spawn(move || worker_loop(shared, widx, t));
                match spawned {
                    Ok(handle) => cluster.handles.push(handle),
                    Err(e) => {
                        cluster.shutdown();
                        return Err(DtfError::Io(e.kind(), format!("spawn worker thread: {e}")));
                    }
                }
            }
        }
        Ok(cluster)
    }

    fn now(&self) -> Time {
        self.shared.clock.now()
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
        let now = self.now();
        let mut sched = self.shared.scheduler.lock();
        sched.submit_graph(graph, now)?;
        process_fetches(&self.shared, &mut sched, now);
        drop(sched);
        self.shared.progress.notify_all();
        Ok(())
    }

    /// Block until `key` is in memory; return its value, or an error when
    /// it erred — its closure panicked, or one it depends on did. Sleeps on
    /// the progress condvar — woken by workers as tasks finish — rather
    /// than polling the scheduler.
    pub fn gather(&self, key: &TaskKey) -> Result<Arc<TaskValue>> {
        let mut sched = self.shared.scheduler.lock();
        loop {
            match sched.task_state(key) {
                None => return Err(DtfError::NotFound(format!("task {key}"))),
                Some(TaskState::Memory) => break,
                Some(TaskState::Erred) => {
                    return Err(DtfError::IllegalState(format!("task {key} erred")))
                }
                _ => {}
            }
            self.shared.progress.wait(&mut sched);
        }
        drop(sched);
        let data = self.shared.data.lock();
        data.get(key).cloned().ok_or_else(|| DtfError::NotFound(format!("value of {key}")))
    }

    /// Block until every submitted task reached a terminal state.
    pub fn wait_all(&self) {
        let mut sched = self.shared.scheduler.lock();
        while sched.unfinished() != 0 {
            self.shared.progress.wait(&mut sched);
        }
    }

    /// Stop the workers and return the scheduler's plugin set (with all
    /// collected instrumentation).
    pub fn shutdown(self) -> PluginSet {
        {
            let _sched = self.shared.scheduler.lock();
            self.shared.stop.store(true, Ordering::SeqCst);
        }
        self.shared.progress.notify_all();
        for h in self.handles {
            let _ = h.join();
        }
        let scheduler = std::mem::replace(
            &mut *self.shared.scheduler.lock(),
            Scheduler::new(WmsConfig::default(), None, PluginSet::new()),
        );
        let mut plugins = scheduler.into_plugins();
        plugins.flush();
        plugins
    }
}

/// In-process "transfers": the data is already shared, so each issued
/// fetch records its comm event with a measured (near-zero) duration and
/// completes at once.
fn process_fetches(shared: &Shared, sched: &mut Scheduler, now: Time) {
    for Fetch { dep, from, to, nbytes } in sched.take_fetches() {
        let stop = shared.clock.now();
        sched.plugins_mut().on_record(
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

/// Run a task's closure on its inputs; `None` when an input is not
/// resident or the closure panics.
fn run(shared: &Shared, func: RealFn, deps: &[TaskKey]) -> Option<TaskValue> {
    let inputs: Vec<Arc<TaskValue>> = {
        let data = shared.data.lock();
        deps.iter().map(|d| data.get(d).cloned()).collect::<Option<_>>()?
    };
    catch_unwind(AssertUnwindSafe(|| func(&inputs))).ok()
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
        let value = job.and_then(|(func, deps)| run(&shared, func, &deps));
        let stop = shared.clock.now();
        let nbytes = value.as_ref().map(|v| v.nbytes);
        if let Some(value) = value {
            shared.data.lock().insert(key, Arc::new(value));
        }

        {
            let mut sched = shared.scheduler.lock();
            match nbytes {
                Some(nbytes) => sched.task_finished(&key, widx, tid, start, stop, nbytes),
                None => sched.task_erred(&key, widx, stop),
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
    use crate::plugins::CollectorPlugin;
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

    fn cluster_with_collector(cfg: WmsConfig) -> (LocalCluster, CollectorPlugin) {
        let collector = CollectorPlugin::new();
        let mut plugins = PluginSet::new();
        plugins.register(Box::new(collector.clone()));
        (LocalCluster::start(cfg, plugins).unwrap(), collector)
    }

    #[test]
    fn executes_a_real_dag_and_gathers_result() {
        let (cluster, collector) = cluster_with_collector(cfg(2, 2));
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
        cluster.wait_all();
        cluster.shutdown();
        let events = collector.take();
        assert_eq!(events.task_done.len(), 3);
        // durations are real (monotone, nonnegative) and workers are recorded
        for d in &events.task_done {
            assert!(d.stop >= d.start);
        }
    }

    #[test]
    fn wide_fanout_uses_multiple_threads() {
        let (cluster, collector) = cluster_with_collector(cfg(2, 2));
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
        cluster.wait_all();
        cluster.shutdown();
        let events = collector.take();
        assert_eq!(events.task_done.len(), 32);
        let threads: HashSet<u64> = events.task_done.iter().map(|d| d.thread.0).collect();
        assert!(threads.len() >= 2, "expected parallel execution, got {} threads", threads.len());
    }

    #[test]
    fn sim_payload_rejected() {
        let (cluster, _c) = cluster_with_collector(cfg(2, 2));
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        b.add_sim("x", tok, 0, vec![], crate::graph::SimAction::compute_only(Dur(1), 1));
        let err = cluster.submit(b.build(&HashSet::new()).unwrap());
        assert!(err.is_err());
        cluster.shutdown();
    }

    #[test]
    fn gather_unknown_key_errors() {
        let (cluster, _c) = cluster_with_collector(cfg(2, 2));
        assert!(cluster.gather(&TaskKey::new("ghost", 0, 0)).is_err());
        cluster.shutdown();
    }

    #[test]
    fn cross_graph_dependency_executes() {
        let (cluster, _c) = cluster_with_collector(cfg(2, 2));
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
        cluster.shutdown();
    }

    #[test]
    fn comm_events_recorded_for_remote_dependencies() {
        let (cluster, collector) =
            cluster_with_collector(WmsConfig { work_stealing: false, ..cfg(2, 1) });
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
        cluster.shutdown();
        let events = collector.take();
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
}

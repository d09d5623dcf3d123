//! The dynamic scheduler: Dask's scheduler state machine as pure logic.
//!
//! The scheduler owns the task table (states, dependencies, placement,
//! replica locations), the worker table (thread occupancy, ready backlogs,
//! resident data), the placement heuristic, scheduler-side queuing, and
//! work stealing. It is *engine-agnostic*: it never advances time or draws
//! randomness — the discrete-event simulator ([`crate::sim`]) and the real
//! executor ([`crate::exec`]) drive it through one contract:
//!
//! - a worker is named by the index [`Scheduler::add_worker`] returned;
//! - the engine's callbacks (`submit_graph`, `task_finished`, `fetch_done`,
//!   `rebalance`, `worker_died`) return nothing but `submit_graph`'s
//!   validation error, and leave the dependency transfers they issue in
//!   one outbox, which the engine drains with [`Scheduler::take_fetches`]
//!   after each call that can place a task;
//! - [`Scheduler::take_startable`] names the workers that may start a
//!   task, and [`Scheduler::try_start`] starts one.
//!
//! That separation is what lets both modes share one scheduling behaviour
//! (and one instrumentation surface).

use std::collections::{BTreeMap, BTreeSet};

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{
    Location, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent, WorkerTaskState,
    WorkerTransitionEvent,
};
use dtf_core::fault::HotspotFault;
use dtf_core::ids::{ClientId, GraphId, KeyMap, KeySet, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::WmsConfig;
use dtf_core::time::Time;

use crate::graph::{Payload, TaskGraph};
use crate::plugins::{PluginSet, WmsPlugin};

/// A worker is a stealing victim if its ready backlog exceeds this many
/// tasks per thread.
const STEAL_BACKLOG_PER_THREAD: f64 = 1.0;

/// A dependency transfer the engine must carry out: move `dep`'s data
/// (`nbytes`) from worker index `from` to worker index `to`, charge its
/// cost, then call [`Scheduler::fetch_done`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fetch {
    pub dep: TaskKey,
    pub from: usize,
    pub to: usize,
    pub nbytes: u64,
}

#[derive(Debug)]
struct TaskRecord {
    graph: GraphId,
    payload: Payload,
    state: TaskState,
    deps: Vec<TaskKey>,
    dependents: Vec<TaskKey>,
    unfinished_deps: usize,
    /// Worker the task is assigned to while processing.
    assigned: Option<usize>,
    /// Dependencies whose data has not yet arrived at the assigned worker.
    /// A task leaves `Flight` only when this drains — a counter cannot
    /// distinguish a duplicate arrival of one dep from the arrival of
    /// another.
    missing_deps: BTreeSet<TaskKey>,
    /// Priority: lower runs earlier (submission order).
    priority: u64,
    nbytes: Option<u64>,
    /// Workers holding this task's output (set: one entry per replica).
    who_has: BTreeSet<usize>,
}

/// One dependency transfer in flight to one worker. At most one exists per
/// `(worker, dep)` pair — that is the dedup invariant: a second task needing
/// the same dep on the same worker joins `waiters` instead of triggering
/// another transfer.
#[derive(Debug)]
struct Inflight {
    /// Source worker index of the transfer.
    from: usize,
    /// Tasks on the destination worker waiting for this dep.
    waiters: BTreeSet<TaskKey>,
}

#[derive(Debug)]
struct WorkerEntry {
    id: WorkerId,
    threads: u32,
    /// Tasks currently executing on a thread.
    executing: BTreeSet<TaskKey>,
    /// Dispatched tasks whose inputs are all local, ordered by
    /// `(priority, key)`: `pop_first` starts the highest-priority task in
    /// O(log n) where the old `VecDeque` needed a linear position scan per
    /// insert.
    ready: BTreeSet<(u64, TaskKey)>,
    /// Dispatched tasks still waiting for dependency fetches.
    fetching: BTreeSet<TaskKey>,
    alive: bool,
}

impl WorkerEntry {
    fn occupancy(&self) -> usize {
        self.executing.len() + self.ready.len() + self.fetching.len()
    }

    fn has_free_thread(&self) -> bool {
        self.alive && (self.executing.len() as u32) < self.threads
    }
}

/// A cluster size of zero is a config error. Both engines check their
/// sizes with it before they add a worker, which asserts a thread.
pub(crate) fn nonzero(what: &str, n: u32) -> Result<()> {
    if n == 0 {
        return Err(DtfError::Config(format!("{what} is 0; a cluster needs at least one")));
    }
    Ok(())
}

/// The scheduler state machine.
pub struct Scheduler {
    cfg: WmsConfig,
    /// Skewed-placement fault injection: one worker's placement score is
    /// multiplied by a weight (< 1.0 makes it look artificially cheap,
    /// piling work onto it). `None` changes nothing.
    hotspot: Option<HotspotFault>,
    tasks: KeyMap<TaskRecord>,
    workers: Vec<WorkerEntry>,
    /// Runnable tasks held on the scheduler (state `queued`), ordered by
    /// `(priority, key)`.
    queued: BTreeSet<(u64, TaskKey)>,
    /// In-flight dependency transfers: `(destination worker, dep)` → the
    /// transfer and its waiting tasks. Doubles as the dedup guard (an
    /// existing entry means the transfer is already under way) and as the
    /// reverse index `fetch_done` uses to resolve waiters without scanning
    /// every fetching task.
    inflight: BTreeMap<(usize, TaskKey), Inflight>,
    /// Transfers issued since [`Self::take_fetches`] last drained them, in
    /// issue order (the order the fault schedule's fetch faults key on).
    fetches: Vec<Fetch>,
    /// Per worker: whether its `ready` set gained a task or its
    /// `executing` set lost one since [`Self::take_startable`] last asked —
    /// the only two ways a worker that could not start a task becomes one
    /// that can.
    startable: Vec<bool>,
    /// [`Self::decide_worker`]'s resident dep bytes per worker (reused).
    local_bytes: Vec<u64>,
    plugins: PluginSet,
    next_priority: u64,
    /// Keys of all tasks ever submitted, for cross-graph dependency checks.
    known_keys: KeySet,
    /// Order in which tasks started executing (for schedule-order analysis).
    start_order: Vec<(TaskKey, Time)>,
    /// Runnable tasks parked because no live worker existed (`no-worker`).
    no_worker: Vec<TaskKey>,
    steals: u64,
}

impl Scheduler {
    pub fn new(cfg: WmsConfig, hotspot: Option<HotspotFault>, plugins: PluginSet) -> Self {
        Self {
            cfg,
            hotspot,
            tasks: KeyMap::default(),
            workers: Vec::new(),
            queued: BTreeSet::new(),
            inflight: BTreeMap::new(),
            fetches: Vec::new(),
            startable: Vec::new(),
            local_bytes: Vec::new(),
            plugins,
            next_priority: 0,
            known_keys: KeySet::default(),
            start_order: Vec::new(),
            no_worker: Vec::new(),
            steals: 0,
        }
    }

    /// Register a worker (connection). Returns its internal index.
    pub fn add_worker(&mut self, id: WorkerId, threads: u32) -> usize {
        assert!(threads >= 1);
        self.workers.push(WorkerEntry {
            id,
            threads,
            executing: BTreeSet::new(),
            ready: BTreeSet::new(),
            fetching: BTreeSet::new(),
            alive: true,
        });
        self.startable.push(false);
        self.workers.len() - 1
    }

    /// Whether the worker at index `widx` may have become able to start a
    /// task since this was last asked of it; asking clears the mark. An
    /// engine that runs [`Self::try_start`] to exhaustion on every worker
    /// this returns `true` for has started everything startable — it need
    /// not ask the others.
    pub fn take_startable(&mut self, widx: usize) -> bool {
        std::mem::take(&mut self.startable[widx])
    }

    /// Drain the transfers issued since the last call, in issue order.
    pub fn take_fetches(&mut self) -> Vec<Fetch> {
        std::mem::take(&mut self.fetches)
    }

    pub fn plugins_mut(&mut self) -> &mut PluginSet {
        &mut self.plugins
    }

    pub fn steal_count(&self) -> u64 {
        self.steals
    }

    /// Order in which tasks began executing.
    pub fn start_order(&self) -> &[(TaskKey, Time)] {
        &self.start_order
    }

    /// Number of tasks not yet in a terminal state.
    pub fn unfinished(&self) -> usize {
        self.tasks.values().filter(|t| !t.state.is_terminal()).count()
    }

    pub fn task_state(&self, key: &TaskKey) -> Option<TaskState> {
        self.tasks.get(key).map(|t| t.state)
    }

    pub fn payload(&self, key: &TaskKey) -> Option<&Payload> {
        self.tasks.get(key).map(|t| &t.payload)
    }

    /// Graph a task belongs to.
    pub fn task_graph(&self, key: &TaskKey) -> Option<GraphId> {
        self.tasks.get(key).map(|t| t.graph)
    }

    /// Dependency keys of a task, in declaration order.
    pub fn task_deps(&self, key: &TaskKey) -> Option<Vec<TaskKey>> {
        self.tasks.get(key).map(|t| t.deps.clone())
    }

    fn emit_transition(
        &mut self,
        key: &TaskKey,
        to: TaskState,
        stimulus: Stimulus,
        location: Location,
        now: Time,
    ) {
        let rec = self.tasks.get_mut(key).expect("transition of known task");
        let from = rec.state;
        debug_assert!(
            from.can_transition_to(to),
            "illegal transition {} -> {} for {key}",
            from.as_str(),
            to.as_str()
        );
        rec.state = to;
        let graph = rec.graph;
        self.plugins.on_record(
            TransitionEvent { key: *key, graph, from, to, stimulus, location, time: now }.into(),
        );
    }

    fn emit_worker_transition(
        &mut self,
        key: &TaskKey,
        widx: usize,
        from: WorkerTaskState,
        to: WorkerTaskState,
        now: Time,
    ) {
        debug_assert!(
            from.can_transition_to(to),
            "illegal worker transition {} -> {} for {key}",
            from.as_str(),
            to.as_str()
        );
        let graph = self.tasks[key].graph;
        let worker = self.workers[widx].id;
        self.plugins.on_record(
            WorkerTransitionEvent { key: *key, graph, worker, from, to, time: now }.into(),
        );
    }

    // ------------------------------------------------------------------
    // Graph submission
    // ------------------------------------------------------------------

    /// Submit a validated graph.
    pub fn submit_graph(&mut self, graph: TaskGraph, now: Time) -> Result<()> {
        graph
            .validate(&self.known_keys)
            .map_err(|e| DtfError::InvalidGraph(format!("graph {}: {e}", graph.id)))?;
        if self.workers.is_empty() {
            return Err(DtfError::IllegalState("no workers connected".into()));
        }
        // an earlier output whose last replica died while nothing needed it
        // still reads `memory`: bring it back before counting it finished
        let lost: BTreeSet<TaskKey> = graph
            .tasks
            .iter()
            .flat_map(|spec| &spec.deps)
            .filter(|d| self.tasks.contains_key(*d) && self.is_lost(d))
            .copied()
            .collect();
        self.recompute(lost, now);
        let mut new_keys = Vec::with_capacity(graph.tasks.len());
        for spec in graph.tasks {
            let priority = self.next_priority;
            self.next_priority += 1;
            let unfinished = spec
                .deps
                .iter()
                .filter(|d| {
                    self.tasks.get(*d).map(|t| t.state != TaskState::Memory).unwrap_or(true)
                })
                .count();
            for d in &spec.deps {
                if let Some(dep) = self.tasks.get_mut(d) {
                    dep.dependents.push(spec.key);
                }
            }
            self.known_keys.insert(spec.key);
            self.tasks.insert(
                spec.key,
                TaskRecord {
                    graph: graph.id,
                    payload: spec.payload,
                    state: TaskState::Released,
                    deps: spec.deps,
                    dependents: Vec::new(),
                    unfinished_deps: unfinished,
                    assigned: None,
                    missing_deps: BTreeSet::new(),
                    priority,
                    nbytes: None,
                    who_has: BTreeSet::new(),
                },
            );
            new_keys.push(spec.key);
        }
        for key in new_keys {
            self.plugins.on_record(
                TaskMetaEvent {
                    key,
                    graph: self.tasks[&key].graph,
                    client: ClientId(0),
                    deps: self.tasks[&key].deps.clone(),
                    submitted: now,
                }
                .into(),
            );
            self.emit_transition(
                &key,
                TaskState::Waiting,
                Stimulus::GraphSubmitted,
                Location::Scheduler,
                now,
            );
            if self.tasks[&key].unfinished_deps == 0 {
                self.make_runnable(&key, now);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Dask-like placement: minimize estimated start time —
    /// `occupancy(w) + transfer_time(missing dependency bytes)` — pricing
    /// occupancy with a constant per-task duration estimate and transfers
    /// with the scheduler's assumed bandwidth. Workers with busy threads
    /// spill work to peers when the transfer is cheaper than the wait,
    /// which is where most inter-worker communications come from.
    /// One pass over the deps prices every worker (total bytes less those
    /// its `who_has` entries cover). Returns `None` if no worker is alive.
    fn decide_worker(&mut self, key: &TaskKey) -> Option<usize> {
        self.local_bytes.clear();
        self.local_bytes.resize(self.workers.len(), 0);
        let mut total = 0u64;
        for d in &self.tasks[key].deps {
            let dep = &self.tasks[d];
            let Some(nbytes) = dep.nbytes else { continue };
            total += nbytes;
            for &h in &dep.who_has {
                self.local_bytes[h] += nbytes;
            }
        }
        let mut best_score = f64::INFINITY;
        let mut best_idx = None;
        for (i, w) in self.workers.iter().enumerate() {
            if !w.alive {
                continue;
            }
            let missing_bytes = total - self.local_bytes[i];
            // threads drain occupancy in parallel
            let backlog = w.occupancy() as f64 / w.threads.max(1) as f64;
            let mut score = backlog * self.cfg.est_task_duration_s
                + missing_bytes as f64 / self.cfg.assumed_bandwidth as f64;
            if let Some(h) = &self.hotspot {
                if h.worker as usize == i {
                    score *= h.weight;
                }
            }
            if score < best_score {
                best_score = score;
                best_idx = Some(i);
            }
        }
        best_idx
    }

    /// Whether every worker is saturated per the queuing policy. With no
    /// live workers at all the question is moot: dispatch proceeds and the
    /// task lands in `no-worker` (Dask's semantics).
    fn all_saturated(&self) -> bool {
        let mut any = false;
        for w in self.workers.iter().filter(|w| w.alive) {
            any = true;
            if (w.occupancy() as f64) < w.threads as f64 * self.cfg.queue_factor {
                return false;
            }
        }
        any
    }

    /// A task's dependencies are met: queue it or dispatch it.
    fn make_runnable(&mut self, key: &TaskKey, now: Time) {
        if self.all_saturated() {
            self.emit_transition(key, TaskState::Queued, Stimulus::Queue, Location::Scheduler, now);
            let p = self.tasks[key].priority;
            self.queued.insert((p, *key));
        } else {
            self.dispatch(key, now)
        }
    }

    /// Assign `key` to a worker; generate fetches for missing inputs.
    fn dispatch(&mut self, key: &TaskKey, now: Time) {
        let Some(widx) = self.decide_worker(key) else {
            self.emit_transition(
                key,
                TaskState::NoWorker,
                Stimulus::NoWorkerAvailable,
                Location::Scheduler,
                now,
            );
            self.no_worker.push(*key);
            return;
        };
        self.emit_transition(
            key,
            TaskState::Processing,
            Stimulus::Dispatched,
            Location::Scheduler,
            now,
        );
        self.place_on_worker(key, widx, now)
    }

    /// Common path of dispatch and steal: set assignment, issue fetches.
    /// A dep already in flight to `widx` (for an earlier task) is joined,
    /// not re-fetched — one transfer per `(worker, dep)` pair.
    fn place_on_worker(&mut self, key: &TaskKey, widx: usize, now: Time) {
        let deps = std::mem::take(&mut self.tasks.get_mut(key).expect("known task").deps);
        let mut missing = BTreeSet::new();
        for dep in &deps {
            if self.tasks[dep].who_has.contains(&widx) {
                continue;
            }
            missing.insert(*dep);
            match self.inflight.entry((widx, *dep)) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // already being transferred for another task: join it
                    e.get_mut().waiters.insert(*key);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    let dep_rec = &self.tasks[dep];
                    // choose the lowest-indexed live holder
                    let holder = dep_rec
                        .who_has
                        .iter()
                        .copied()
                        .find(|&h| self.workers[h].alive)
                        .expect("runnable task has all inputs somewhere");
                    e.insert(Inflight { from: holder, waiters: std::iter::once(*key).collect() });
                    self.fetches.push(Fetch {
                        dep: *dep,
                        from: holder,
                        to: widx,
                        nbytes: dep_rec.nbytes.unwrap_or(0),
                    });
                }
            }
        }
        let pending = !missing.is_empty();
        {
            let rec = self.tasks.get_mut(key).expect("known task");
            rec.deps = deps;
            rec.assigned = Some(widx);
            rec.missing_deps = missing;
        }
        if !pending {
            let p = self.tasks[key].priority;
            self.workers[widx].ready.insert((p, *key));
            self.startable[widx] = true;
            self.emit_worker_transition(
                key,
                widx,
                WorkerTaskState::Waiting,
                WorkerTaskState::Ready,
                now,
            );
        } else {
            self.workers[widx].fetching.insert(*key);
            self.emit_worker_transition(
                key,
                widx,
                WorkerTaskState::Waiting,
                WorkerTaskState::Fetch,
                now,
            );
            self.emit_worker_transition(
                key,
                widx,
                WorkerTaskState::Fetch,
                WorkerTaskState::Flight,
                now,
            );
        }
    }

    // ------------------------------------------------------------------
    // Engine callbacks
    // ------------------------------------------------------------------

    /// A dependency transfer finished: `dep`'s data is now also on `to`.
    /// Resolves the waiters registered under the `(to, dep)` in-flight
    /// entry — no scan over the worker's fetching set. A replayed or stale
    /// completion (no in-flight entry) still records the data but wakes
    /// nobody, so it can never mark a task ready prematurely.
    pub fn fetch_done(&mut self, dep: &TaskKey, widx: usize, now: Time) {
        if self.workers[widx].alive {
            self.tasks.get_mut(dep).expect("dep known").who_has.insert(widx);
        }
        let Some(flight) = self.inflight.remove(&(widx, *dep)) else { return };
        for key in flight.waiters {
            let Some(rec) = self.tasks.get_mut(&key) else { continue };
            // the waiter may have been re-planned elsewhere meanwhile
            if rec.assigned != Some(widx) {
                continue;
            }
            rec.missing_deps.remove(dep);
            if rec.missing_deps.is_empty() {
                let p = rec.priority;
                let w = &mut self.workers[widx];
                w.fetching.remove(&key);
                w.ready.insert((p, key));
                self.startable[widx] = true;
                self.emit_worker_transition(
                    &key,
                    widx,
                    WorkerTaskState::Flight,
                    WorkerTaskState::Ready,
                    now,
                );
            }
        }
    }

    /// If the worker at index `widx` has a free thread and a ready task,
    /// start it: returns the task to execute. The engine charges its
    /// duration and later calls [`Self::task_finished`].
    pub fn try_start(&mut self, widx: usize, now: Time) -> Option<TaskKey> {
        let worker = self.workers[widx].id;
        if !self.workers[widx].has_free_thread() {
            return None;
        }
        let (_, key) = self.workers[widx].ready.pop_first()?;
        self.workers[widx].executing.insert(key);
        self.start_order.push((key, now));
        self.emit_worker_transition(
            &key,
            widx,
            WorkerTaskState::Ready,
            WorkerTaskState::Executing,
            now,
        );
        // worker-side observation of compute start
        let graph = self.tasks[&key].graph;
        let state = self.tasks[&key].state;
        self.plugins.on_record(
            TransitionEvent {
                key,
                graph,
                from: state,
                to: state,
                stimulus: Stimulus::ComputeStarted,
                location: Location::Worker(worker),
                time: now,
            }
            .into(),
        );
        Some(key)
    }

    /// Task finished executing on the worker at index `widx`. Emits Memory
    /// transition and the completion record; unlocks dependents; refills
    /// from the scheduler queue.
    pub fn task_finished(
        &mut self,
        key: &TaskKey,
        widx: usize,
        thread: ThreadId,
        start: Time,
        now: Time,
        nbytes: u64,
    ) {
        let worker = self.workers[widx].id;
        let removed = self.workers[widx].executing.remove(key);
        debug_assert!(removed, "finished task {key} was not executing");
        self.startable[widx] = true;
        {
            let rec = self.tasks.get_mut(key).expect("known task");
            rec.nbytes = Some(nbytes);
            rec.who_has.insert(widx);
            rec.assigned = None;
        }
        self.emit_worker_transition(
            key,
            widx,
            WorkerTaskState::Executing,
            WorkerTaskState::Memory,
            now,
        );
        self.emit_transition(
            key,
            TaskState::Memory,
            Stimulus::ComputeFinished,
            Location::Worker(worker),
            now,
        );
        let graph = self.tasks[key].graph;
        self.plugins.on_record(
            TaskDoneEvent { key: *key, graph, worker, thread, start, stop: now, nbytes }.into(),
        );

        // dependents may become runnable
        let dependents = std::mem::take(&mut self.tasks.get_mut(key).expect("known").dependents);
        for dep in &dependents {
            let rec = self.tasks.get_mut(dep).expect("dependent known");
            rec.unfinished_deps = rec.unfinished_deps.saturating_sub(1);
            if rec.unfinished_deps == 0 && rec.state == TaskState::Waiting {
                self.make_runnable(dep, now);
            }
        }
        self.tasks.get_mut(key).expect("known").dependents = dependents;
        // refill workers from the scheduler-side queue
        self.refill_from_queue(now);
    }

    fn refill_from_queue(&mut self, now: Time) {
        while !self.queued.is_empty() && !self.all_saturated() {
            let (_, key) = self.queued.pop_first().expect("nonempty queue");
            self.dispatch(&key, now);
        }
    }

    // ------------------------------------------------------------------
    // Work stealing
    // ------------------------------------------------------------------

    /// Rebalance ready backlogs: idle workers steal from saturated ones,
    /// and tasks parked in `no-worker` are re-dispatched once a live worker
    /// exists again.
    pub fn rebalance(&mut self, now: Time) {
        if !self.no_worker.is_empty() && self.workers.iter().any(|w| w.alive) {
            let parked = std::mem::take(&mut self.no_worker);
            for key in parked {
                if self.task_state(&key) == Some(TaskState::NoWorker) {
                    self.emit_transition(
                        &key,
                        TaskState::Processing,
                        Stimulus::Dispatched,
                        Location::Scheduler,
                        now,
                    );
                    let widx = self.decide_worker(&key).expect("a live worker exists");
                    self.place_on_worker(&key, widx, now);
                }
            }
        }
        // a periodic refill also unsticks the scheduler queue when worker
        // capacity changed outside the task_finished path (e.g. new worker)
        self.refill_from_queue(now);
        if !self.cfg.work_stealing {
            return;
        }
        loop {
            // thief: the most under-committed live worker (fewer queued and
            // running tasks than threads)
            let thief = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && w.occupancy() < w.threads as usize)
                .min_by_key(|(_, w)| w.ready.len() + w.fetching.len())
                .map(|(i, _)| i);
            // victim: live worker with the largest backlog above threshold
            let victim = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| {
                    w.alive
                        && w.ready.len() as f64
                            > (w.threads as f64 * STEAL_BACKLOG_PER_THREAD).max(1.0)
                })
                .max_by_key(|(_, w)| w.ready.len())
                .map(|(i, _)| i);
            let (Some(thief), Some(victim)) = (thief, victim) else { break };
            if thief == victim {
                break;
            }
            // steal the lowest-priority (latest) ready task from the victim
            let Some((_, key)) = self.workers[victim].ready.pop_last() else { break };
            self.steals += 1;
            let thief_id = self.workers[thief].id;
            self.emit_transition(
                &key,
                TaskState::Processing,
                Stimulus::WorkStolen,
                Location::Worker(thief_id),
                now,
            );
            self.place_on_worker(&key, thief, now);
        }
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// A worker died: re-plan everything it was running or holding, and
    /// re-source or abandon the transfers it was serving to live workers.
    pub fn worker_died(&mut self, widx: usize, now: Time) {
        self.workers[widx].alive = false;
        let executing: Vec<TaskKey> =
            std::mem::take(&mut self.workers[widx].executing).into_iter().collect();
        let ready: Vec<TaskKey> =
            std::mem::take(&mut self.workers[widx].ready).into_iter().map(|(_, k)| k).collect();
        let fetching: Vec<TaskKey> =
            std::mem::take(&mut self.workers[widx].fetching).into_iter().collect();
        // outputs it held, in key order: the order of the recomputes below
        let mut held: Vec<TaskKey> =
            self.tasks.iter().filter(|(_, t)| t.who_has.contains(&widx)).map(|(k, _)| *k).collect();
        held.sort_unstable();

        // transfers TO the dead worker die with it; their waiters are
        // exactly the dead worker's fetching tasks, re-planned below
        let to_dead: Vec<(usize, TaskKey)> =
            self.inflight.keys().filter(|(w, _)| *w == widx).cloned().collect();
        for k in to_dead {
            self.inflight.remove(&k);
        }

        // outputs lost: remove replica; if it was the only one and the data
        // is still needed, the task must be recomputed. "Needed" is
        // transitive over this batch: a lost output whose only dependent is
        // another lost output is needed exactly when that dependent is —
        // both died with this worker, and recomputing the dependent will
        // re-read the input.
        let mut candidates = Vec::new();
        for key in held {
            self.tasks.get_mut(&key).expect("held task known").who_has.remove(&widx);
            if self.is_lost(&key) {
                candidates.push(key);
            }
        }
        let mut needed_set: BTreeSet<TaskKey> = BTreeSet::new();
        loop {
            // fixpoint; terminates because the dependency graph is acyclic
            let mut changed = false;
            for key in &candidates {
                if needed_set.contains(key) {
                    continue;
                }
                let needed = self.tasks[key]
                    .dependents
                    .iter()
                    .any(|d| !self.tasks[d].state.is_terminal() || needed_set.contains(d));
                if needed {
                    needed_set.insert(*key);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let to_recompute = candidates.into_iter().filter(|k| needed_set.contains(k)).collect();
        self.recompute(to_recompute, now);
        // in-flight work on the dead worker goes back to waiting and is
        // re-planned
        for key in executing.into_iter().chain(ready).chain(fetching) {
            self.replan(&key, now);
        }
        // transfers FROM the dead worker to live workers never complete:
        // re-issue each from a surviving replica, or — when the last
        // replica just died — abandon it and send its waiters back to
        // waiting so the recompute path re-plans them. This pass runs last
        // because the re-planning above may have joined tasks onto these
        // very entries.
        let from_dead: Vec<(usize, TaskKey)> =
            self.inflight.iter().filter(|(_, f)| f.from == widx).map(|(k, _)| *k).collect();
        let mut orphans: BTreeSet<TaskKey> = BTreeSet::new();
        for (to_widx, dep) in from_dead {
            let new_holder =
                self.tasks[&dep].who_has.iter().copied().find(|&h| self.workers[h].alive);
            if let Some(holder) = new_holder {
                let flight = self.inflight.get_mut(&(to_widx, dep)).expect("entry collected above");
                flight.from = holder;
                self.fetches.push(Fetch {
                    dep,
                    from: holder,
                    to: to_widx,
                    nbytes: self.tasks[&dep].nbytes.unwrap_or(0),
                });
            } else {
                let flight = self.inflight.remove(&(to_widx, dep)).expect("entry collected above");
                orphans.extend(flight.waiters);
            }
        }
        for key in orphans {
            let Some(rec) = self.tasks.get(&key) else { continue };
            let Some(awidx) = rec.assigned else { continue };
            self.workers[awidx].fetching.remove(&key);
            // drop it from any other transfer it was waiting on; the
            // transfers themselves proceed (arriving data is still recorded)
            for flight in self.inflight.values_mut() {
                flight.waiters.remove(&key);
            }
            self.replan(&key, now);
        }
    }

    /// Send a task planned on a dead worker back to `waiting`, recount its
    /// unfinished inputs, and make it runnable if none remain.
    fn replan(&mut self, key: &TaskKey, now: Time) {
        self.emit_transition(
            key,
            TaskState::Waiting,
            Stimulus::WorkerLost,
            Location::Scheduler,
            now,
        );
        let unfinished = self.tasks[key]
            .deps
            .iter()
            .filter(|d| self.tasks[*d].state != TaskState::Memory)
            .count();
        let rec = self.tasks.get_mut(key).expect("known");
        rec.assigned = None;
        rec.missing_deps.clear();
        rec.unfinished_deps = unfinished;
        if unfinished == 0 {
            self.make_runnable(key, now);
        }
    }

    /// Whether `key` reads `memory` while no live worker holds its output.
    fn is_lost(&self, key: &TaskKey) -> bool {
        let rec = &self.tasks[key];
        rec.state == TaskState::Memory && rec.who_has.is_empty()
    }

    /// Send lost outputs back through `released` to `waiting` and dispatch
    /// each whose inputs are all resident. The set is first closed over
    /// lost inputs: an output whose last replica died while nothing needed
    /// it still reads `memory`, and recomputing a dependent needs it back.
    /// Keys are revoked in `TaskKey` order.
    fn recompute(&mut self, mut lost: BTreeSet<TaskKey>, now: Time) {
        let mut stack: Vec<TaskKey> = lost.iter().copied().collect();
        while let Some(key) = stack.pop() {
            for d in &self.tasks[&key].deps {
                if self.is_lost(d) && lost.insert(*d) {
                    stack.push(*d);
                }
            }
        }
        for &key in &lost {
            // Memory -> Released -> Waiting, then runnable again
            self.emit_transition(
                &key,
                TaskState::Released,
                Stimulus::WorkerLost,
                Location::Scheduler,
                now,
            );
            self.emit_transition(
                &key,
                TaskState::Waiting,
                Stimulus::WorkerLost,
                Location::Scheduler,
                now,
            );
            {
                let rec = self.tasks.get_mut(&key).expect("known");
                rec.nbytes = None;
                rec.assigned = None;
                rec.missing_deps.clear();
                // recompute its unfinished deps (inputs may also be gone)
                rec.unfinished_deps = 0;
            }
            let deps = self.tasks[&key].deps.clone();
            let mut unfinished = 0;
            for d in &deps {
                if self.tasks[d].state != TaskState::Memory {
                    unfinished += 1;
                }
            }
            self.tasks.get_mut(&key).expect("known").unfinished_deps = unfinished;
            // bump dependents' unfinished counts: their input went away
            let dependents = self.tasks[&key].dependents.clone();
            for d in dependents {
                let drec = self.tasks.get_mut(&d).expect("dependent known");
                if !drec.state.is_terminal() {
                    drec.unfinished_deps += 1;
                }
            }
        }
        // Dispatch only after every lost output has been revoked: a task
        // early in the batch can look ready (its dep still reads `memory`)
        // until a later entry — that dep, whose only replica also died —
        // sends it back to waiting and bumps the count.
        for key in lost {
            if self.tasks[&key].unfinished_deps == 0 {
                self.make_runnable(&key, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant oracle
    // ------------------------------------------------------------------

    /// Structural-coherence oracle: cross-check the task table, the worker
    /// tables, and the in-flight transfer ledger against each other.
    /// Returns one message per violated invariant (empty = consistent).
    /// Pure observation — no mutation — so engines (and the chaos harness)
    /// can call it after every event.
    ///
    /// Checked here (the transition-*history* invariants — legality of each
    /// step, exactly-one-terminal — live in the `dtf-chaos` reference
    /// model, which replays the emitted log):
    /// - a `ready` task has no undrained `missing_deps` and all inputs
    ///   resident on its worker;
    /// - a `fetching` task's every missing dep has an in-flight entry on
    ///   that worker listing the task as a waiter (the ≤1-transfer-per-
    ///   `(worker, dep)` half is structural: `inflight` is keyed by the
    ///   pair, so this check makes the bound exact);
    /// - in-flight transfers connect live workers and known deps;
    /// - `who_has` — the only record of where data lives — lists live
    ///   workers only, so dead workers hold no data;
    /// - thread occupancy bounds and state agreement for executing/ready/
    ///   queued tasks; dead workers hold no work.
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (widx, w) in self.workers.iter().enumerate() {
            if w.executing.len() > w.threads as usize {
                v.push(format!(
                    "worker {} executing {} tasks on {} threads",
                    w.id,
                    w.executing.len(),
                    w.threads
                ));
            }
            if !w.alive
                && (!w.executing.is_empty() || !w.ready.is_empty() || !w.fetching.is_empty())
            {
                v.push(format!("dead worker {} still holds work", w.id));
            }
            for (p, key) in &w.ready {
                let Some(rec) = self.tasks.get(key) else {
                    v.push(format!("ready task {key} on {} unknown to the task table", w.id));
                    continue;
                };
                if !rec.missing_deps.is_empty() {
                    v.push(format!(
                        "task {key} ready on {} with undrained missing_deps {:?}",
                        w.id, rec.missing_deps
                    ));
                }
                if rec.assigned != Some(widx) {
                    v.push(format!(
                        "task {key} ready on {} but assigned to {:?}",
                        w.id, rec.assigned
                    ));
                }
                if *p != rec.priority {
                    v.push(format!(
                        "task {key} ready under priority {p}, record says {}",
                        rec.priority
                    ));
                }
                if rec.state != TaskState::Processing {
                    v.push(format!(
                        "task {key} ready on {} in scheduler state {}",
                        w.id,
                        rec.state.as_str()
                    ));
                }
                for d in &rec.deps {
                    if !self.tasks.get(d).is_some_and(|t| t.who_has.contains(&widx)) {
                        v.push(format!("task {key} ready on {} without dep {d} resident", w.id));
                    }
                }
            }
            for key in &w.fetching {
                let Some(rec) = self.tasks.get(key) else {
                    v.push(format!("fetching task {key} on {} unknown to the task table", w.id));
                    continue;
                };
                if rec.missing_deps.is_empty() {
                    v.push(format!("task {key} fetching on {} with nothing missing", w.id));
                }
                if rec.assigned != Some(widx) {
                    v.push(format!(
                        "task {key} fetching on {} but assigned to {:?}",
                        w.id, rec.assigned
                    ));
                }
                for d in &rec.missing_deps {
                    match self.inflight.get(&(widx, *d)) {
                        None => v.push(format!(
                            "task {key} on {} waits for {d} with no transfer in flight",
                            w.id
                        )),
                        Some(f) if !f.waiters.contains(key) => v.push(format!(
                            "task {key} on {} waits for {d} but is not a registered waiter",
                            w.id
                        )),
                        _ => {}
                    }
                }
            }
            for key in &w.executing {
                let Some(rec) = self.tasks.get(key) else {
                    v.push(format!("executing task {key} on {} unknown to the task table", w.id));
                    continue;
                };
                if rec.state != TaskState::Processing {
                    v.push(format!(
                        "task {key} executing on {} in scheduler state {}",
                        w.id,
                        rec.state.as_str()
                    ));
                }
                if rec.assigned != Some(widx) {
                    v.push(format!(
                        "task {key} executing on {} but assigned to {:?}",
                        w.id, rec.assigned
                    ));
                }
            }
        }
        for ((widx, dep), flight) in &self.inflight {
            if !self.tasks.contains_key(dep) {
                v.push(format!("in-flight transfer of unknown dep {dep}"));
                continue;
            }
            match self.workers.get(*widx) {
                None => v.push(format!("transfer of {dep} to out-of-range worker index {widx}")),
                Some(w) if !w.alive => v.push(format!("transfer of {dep} to dead worker {}", w.id)),
                _ => {}
            }
            match self.workers.get(flight.from) {
                None => v.push(format!(
                    "transfer of {dep} from out-of-range worker index {}",
                    flight.from
                )),
                Some(w) if !w.alive => {
                    v.push(format!("transfer of {dep} sourced from dead worker {}", w.id))
                }
                _ => {}
            }
            for waiter in &flight.waiters {
                let Some(rec) = self.tasks.get(waiter) else {
                    v.push(format!("unknown task {waiter} waits on transfer of {dep}"));
                    continue;
                };
                // a waiter re-planned elsewhere is tolerated (fetch_done
                // skips it); one still assigned here must list the dep
                if rec.assigned == Some(*widx) && !rec.missing_deps.contains(dep) {
                    v.push(format!(
                        "task {waiter} registered as waiter for {dep} it no longer misses"
                    ));
                }
            }
        }
        for (key, rec) in &self.tasks {
            for &h in &rec.who_has {
                match self.workers.get(h) {
                    None => v.push(format!("who_has of {key} lists out-of-range worker index {h}")),
                    Some(w) if !w.alive => {
                        v.push(format!("who_has of {key} lists dead worker {}", w.id))
                    }
                    _ => {}
                }
            }
        }
        for (p, key) in &self.queued {
            let Some(rec) = self.tasks.get(key) else {
                v.push(format!("queued task {key} unknown to the task table"));
                continue;
            };
            if rec.state != TaskState::Queued {
                v.push(format!("task {key} queued in scheduler state {}", rec.state.as_str()));
            }
            if rec.assigned.is_some() {
                v.push(format!("queued task {key} assigned to {:?}", rec.assigned));
            }
            if *p != rec.priority {
                v.push(format!(
                    "task {key} queued under priority {p}, record says {}",
                    rec.priority
                ));
            }
        }
        v
    }

    /// Consume the scheduler, returning its plugin set (end of run).
    pub fn into_plugins(self) -> PluginSet {
        self.plugins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, SimAction};
    use crate::plugins::CollectorPlugin;
    use dtf_core::ids::NodeId;
    use dtf_core::time::Dur;
    use std::collections::HashSet as Set;

    fn worker(i: u32) -> WorkerId {
        WorkerId::new(NodeId(i / 4), i % 4)
    }

    fn sched(n_workers: u32, threads: u32, cfg: WmsConfig) -> (Scheduler, CollectorPlugin) {
        let collector = CollectorPlugin::new();
        let mut plugins = PluginSet::new();
        plugins.register(Box::new(collector.clone()));
        let mut s = Scheduler::new(cfg, None, plugins);
        for i in 0..n_workers {
            s.add_worker(worker(i), threads);
        }
        (s, collector)
    }

    fn chain_graph(n: usize) -> TaskGraph {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let mut prev: Option<TaskKey> = None;
        for i in 0..n {
            let deps = prev.iter().cloned().collect();
            prev = Some(b.add_sim(
                "step",
                tok,
                i as u32,
                deps,
                SimAction::compute_only(Dur::from_millis_f64(1.0), 100),
            ));
        }
        b.build(&Set::new()).unwrap()
    }

    /// Drive a scheduler to completion with a trivial engine that performs
    /// fetches instantly and runs one task at a time per free thread.
    fn drive(s: &mut Scheduler) {
        drive_workers(s, false)
    }

    /// [`drive`], asking either every worker for a start after every step
    /// or — `marked_only` — just those [`Scheduler::take_startable`] names.
    fn drive_workers(s: &mut Scheduler, marked_only: bool) {
        let mut t = 0u64;
        loop {
            // complete all fetches instantly
            for f in s.take_fetches() {
                s.fetch_done(&f.dep, f.to, Time(t));
            }
            // start and instantly finish any startable task
            let mut progressed = false;
            for widx in 0..s.workers.len() {
                if marked_only && !s.take_startable(widx) {
                    continue;
                }
                while let Some(key) = s.try_start(widx, Time(t)) {
                    progressed = true;
                    t += 1;
                    s.task_finished(&key, widx, ThreadId(1), Time(t - 1), Time(t), 100);
                }
            }
            s.rebalance(Time(t));
            if !progressed && s.fetches.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn chain_executes_in_dependency_order() {
        let (mut s, collector) = sched(2, 2, WmsConfig::default());
        s.submit_graph(chain_graph(5), Time::ZERO).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        let order = s.start_order();
        assert_eq!(order.len(), 5);
        for i in 0..4 {
            assert!(order[i].0.index < order[i + 1].0.index, "chain order violated");
        }
        let events = collector.take();
        // every task: Released->Waiting, ->Processing, ->Memory at least
        assert!(events.transitions.len() >= 15);
        assert_eq!(events.task_done.len(), 5);
    }

    #[test]
    fn all_transitions_are_legal() {
        let (mut s, collector) = sched(2, 2, WmsConfig::default());
        s.submit_graph(chain_graph(20), Time::ZERO).unwrap();
        drive(&mut s);
        for tr in collector.take().transitions {
            assert!(
                tr.from.can_transition_to(tr.to) || tr.from == tr.to,
                "illegal {} -> {}",
                tr.from.as_str(),
                tr.to.as_str()
            );
        }
    }

    #[test]
    fn wide_graph_spreads_across_workers() {
        let (mut s, collector) = sched(4, 2, WmsConfig::default());
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..40 {
            b.add_sim("leaf", tok, i, vec![], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        let done = collector.take().task_done;
        let workers_used: Set<WorkerId> = done.iter().map(|d| d.worker).collect();
        assert!(workers_used.len() >= 3, "only {} workers used", workers_used.len());
    }

    #[test]
    fn dependency_on_remote_data_generates_fetch() {
        let (mut s, collector) =
            sched(2, 1, WmsConfig { work_stealing: false, ..Default::default() });
        // two roots land on different workers, join needs a fetch
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add_sim("rootA", tok, 0, vec![], SimAction::compute_only(Dur(1), 1000));
        let c = b.add_sim("rootB", tok, 1, vec![], SimAction::compute_only(Dur(1), 2000));
        b.add_sim("join", tok, 0, vec![a, c], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        assert!(s.fetches.is_empty(), "roots have no deps to fetch");
        // run the two roots
        let k0 = s.try_start(0, Time(0)).unwrap();
        let k1 = s.try_start(1, Time(0)).unwrap();
        s.task_finished(&k0, 0, ThreadId(1), Time(0), Time(1), 1000);
        s.task_finished(&k1, 1, ThreadId(1), Time(0), Time(1), 2000);
        // join was dispatched somewhere; one dep must be fetched
        assert_eq!(s.fetches.len(), 1, "exactly one remote dependency: {:?}", s.fetches);
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        assert_eq!(collector.take().task_done.len(), 3);
    }

    #[test]
    fn placement_prefers_data_locality_for_heavy_outputs() {
        let (mut s, _c) = sched(2, 4, WmsConfig { work_stealing: false, ..Default::default() });
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        // 16 GB output: moving it costs far more than queueing behind peers
        let big = 16u64 << 30;
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), big));
        for i in 0..4 {
            b.add_sim("child", tok, i, vec![root], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), big);
        // all children should be placed on w0 (data is there): no fetches
        assert!(s.fetches.is_empty(), "locality placement should avoid fetches: {:?}", s.fetches);
    }

    #[test]
    fn placement_spills_cheap_data_to_idle_workers() {
        let (mut s, collector) =
            sched(2, 1, WmsConfig { work_stealing: false, ..Default::default() });
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        // 1 MB output: transferring it (~10 ms at assumed bandwidth) beats
        // waiting ~0.5 s behind the sibling on the same worker
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), 1 << 20));
        for i in 0..4 {
            b.add_sim("child", tok, i, vec![root], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), 1 << 20);
        assert!(!s.fetches.is_empty(), "children should spill to the idle worker");
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        assert!(
            collector.take().task_done.iter().any(|d| d.worker == worker(1)),
            "the idle worker should have executed spilled children"
        );
    }

    #[test]
    fn queuing_holds_tasks_when_saturated() {
        let (mut s, collector) = sched(
            1,
            1,
            WmsConfig { queue_factor: 1.0, work_stealing: false, ..Default::default() },
        );
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..5 {
            b.add_sim("leaf", tok, i, vec![], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        assert!(s.fetches.is_empty());
        let events = collector.take();
        let queued = events.transitions.iter().filter(|t| t.to == TaskState::Queued).count();
        assert_eq!(queued, 4, "1 dispatched, 4 queued");
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
    }

    #[test]
    fn stealing_moves_backlog_to_idle_worker() {
        let (mut s, collector) = sched(
            2,
            1,
            WmsConfig {
                work_stealing: true,
                queue_factor: 100.0, // no scheduler-side queuing: eager dispatch
                ..Default::default()
            },
        );
        // a root chain pinned by locality to worker 0, then many children
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        // 32 GB output: locality pins every child to w0 first
        let big = 32u64 << 30;
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), big));
        for i in 0..12 {
            b.add_sim("child", tok, i, vec![root], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), big);
        // all 12 children piled onto w0 by locality; rebalance steals some
        s.rebalance(Time(2));
        assert!(s.steal_count() > 0, "stealing should trigger");
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        let done = collector.take().task_done;
        assert!(done.iter().any(|d| d.worker == worker(1)), "thief executed stolen work");
    }

    #[test]
    fn marked_workers_are_the_only_ones_with_something_to_start() {
        // fan-out with locality pile-up, fetches and steals: every way a
        // worker's ready set gains a task or its threads free up
        let run = |marked_only: bool| {
            let (mut s, _c) = sched(
                4,
                2,
                WmsConfig { work_stealing: true, queue_factor: 100.0, ..Default::default() },
            );
            let mut b = GraphBuilder::new(GraphId(0));
            let tok = b.new_token();
            let big = 32u64 << 30;
            let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), big));
            let children: Vec<TaskKey> = (0..24)
                .map(|i| {
                    b.add_sim("child", tok, i, vec![root], SimAction::compute_only(Dur(1), 10))
                })
                .collect();
            for (i, pair) in children.chunks(2).enumerate() {
                b.add_sim(
                    "join",
                    tok,
                    i as u32,
                    pair.to_vec(),
                    SimAction::compute_only(Dur(1), 10),
                );
            }
            s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
            // the root's children pile onto w0 by locality; a rebalance
            // before anything else runs steals some of them away
            let k = s.try_start(0, Time(0)).unwrap();
            s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), big);
            s.rebalance(Time(2));
            drive_workers(&mut s, marked_only);
            assert_eq!(s.unfinished(), 0, "marked_only={marked_only}: the graph must drain");
            (s.start_order().to_vec(), s.steal_count())
        };
        let (scanned, steals) = run(false);
        assert!(steals > 0, "the scenario must exercise the steal path");
        assert_eq!(run(true), (scanned, steals), "same starts, same order, same steals");
    }

    #[test]
    fn stealing_disabled_keeps_backlog() {
        let (mut s, _c) = sched(
            2,
            1,
            WmsConfig { work_stealing: false, queue_factor: 100.0, ..Default::default() },
        );
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let big = 32u64 << 30;
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), big));
        for i in 0..12 {
            b.add_sim("child", tok, i, vec![root], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), big);
        s.rebalance(Time(2));
        assert!(s.fetches.is_empty());
        assert_eq!(s.steal_count(), 0);
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
    }

    #[test]
    fn worker_death_recovers_lost_outputs() {
        let (mut s, collector) =
            sched(2, 2, WmsConfig { work_stealing: false, ..Default::default() });
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), 1 << 20));
        b.add_sim("child", tok, 0, vec![root], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        assert_eq!(k, root);
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), 1 << 20);
        // the child is now on w0 (locality); kill w0 before it runs
        s.worker_died(0, Time(2));
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "workflow completes despite death");
        // the root must have been recomputed: two TaskDone events for it
        let done = collector.take().task_done;
        let root_runs = done.iter().filter(|d| d.key == root).count();
        assert_eq!(root_runs, 2, "root recomputed after its output was lost");
        // and everything ran on the surviving worker
        assert!(done.iter().filter(|d| d.stop > Time(2)).all(|d| d.worker == worker(1)));
    }

    #[test]
    fn no_worker_tasks_recover_when_capacity_returns() {
        let (mut s, collector) = sched(1, 2, WmsConfig::default());
        // kill the only worker, then submit: tasks park in no-worker
        s.worker_died(0, Time::ZERO);
        s.submit_graph(chain_graph(3), Time(1)).unwrap();
        assert!(s.fetches.is_empty());
        assert_eq!(s.task_state(&TaskKey::new("step", 1, 0)), Some(TaskState::NoWorker));
        // a replacement worker connects; the periodic rebalance re-plans
        s.add_worker(worker(9), 2);
        s.rebalance(Time(2));
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "parked tasks recovered");
        let events = collector.take();
        assert!(
            events.transitions.iter().any(|t| t.to == TaskState::NoWorker),
            "no-worker observed"
        );
        assert_eq!(events.task_done.len(), 3);
    }

    #[test]
    fn submit_requires_workers() {
        let collector = CollectorPlugin::new();
        let mut plugins = PluginSet::new();
        plugins.register(Box::new(collector));
        let mut s = Scheduler::new(WmsConfig::default(), None, plugins);
        assert!(s.submit_graph(chain_graph(1), Time::ZERO).is_err());
    }

    /// Producers `d`, `g` (small outputs) land on w0/w1; `e` (huge) on w2.
    /// Consumers pinned to w2 by `e`'s locality then share the small deps.
    /// Returns `(sched, collector, d, g, e)` with all producers finished.
    fn fetch_rig() -> (Scheduler, CollectorPlugin, TaskKey, TaskKey, TaskKey) {
        let (mut s, collector) = sched(
            3,
            1,
            WmsConfig { work_stealing: false, queue_factor: 100.0, ..Default::default() },
        );
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let d = b.add_sim("d", tok, 0, vec![], SimAction::compute_only(Dur(1), 1 << 10));
        let g = b.add_sim("g", tok, 0, vec![], SimAction::compute_only(Dur(1), 1 << 10));
        let e = b.add_sim("e", tok, 0, vec![], SimAction::compute_only(Dur(1), 32 << 30));
        b.add_sim("t1", tok, 0, vec![e, d], SimAction::compute_only(Dur(1), 10));
        b.add_sim("t2", tok, 0, vec![e, d, g], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        assert!(s.fetches.is_empty(), "producers have no deps");
        (s, collector, d, g, e)
    }

    /// Regression: two tasks on one worker sharing a missing dependency
    /// must trigger exactly one transfer of it, and a duplicated (replayed)
    /// completion must not mark a task ready while another of its deps is
    /// still in flight. With the old counter bookkeeping the second arrival
    /// of `d` decremented `t2`'s count for the still-missing `g`, starting
    /// `t2` without its input (executor panic "dependency value resident").
    #[test]
    fn duplicate_fetch_completion_cannot_mark_ready_prematurely() {
        let (mut s, _collector, d, g, e) = fetch_rig();
        let (w0, w1, w2) = (0, 1, 2);
        assert_eq!(s.try_start(w0, Time(0)).as_ref(), Some(&d));
        assert_eq!(s.try_start(w1, Time(0)).as_ref(), Some(&g));
        assert_eq!(s.try_start(w2, Time(0)).as_ref(), Some(&e));
        s.task_finished(&d, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&g, w1, ThreadId(1), Time(0), Time(1), 1 << 10);
        // e's 32 GB output pins t1 {e,d} and t2 {e,d,g} to w2
        s.task_finished(&e, w2, ThreadId(1), Time(0), Time(1), 32 << 30);
        let fetches = s.take_fetches();
        let (mut d_fetches, mut g_fetches) = (0, 0);
        for f in &fetches {
            assert_eq!(f.to, w2, "all consumer inputs head for w2");
            if f.dep == d {
                d_fetches += 1;
            } else if f.dep == g {
                g_fetches += 1;
            }
        }
        assert_eq!(
            (d_fetches, g_fetches),
            (1, 1),
            "one transfer per (worker, dep): shared dep d must not be fetched twice: {fetches:?}"
        );
        // d arrives twice (duplicate/replayed completion) before g arrives
        s.fetch_done(&d, w2, Time(2));
        s.fetch_done(&d, w2, Time(3));
        let started = s.try_start(w2, Time(4)).expect("t1 has all inputs");
        assert_eq!(started.prefix, "t1");
        s.task_finished(&started, w2, ThreadId(1), Time(4), Time(5), 10);
        // the thread is free again; only g's arrival may unblock t2
        assert!(
            s.try_start(w2, Time(5)).is_none(),
            "t2 must stay in flight until g actually arrives"
        );
        s.fetch_done(&g, w2, Time(6));
        let t2 = s.try_start(w2, Time(7)).expect("t2 ready once g arrived");
        assert_eq!(t2.prefix, "t2");
        s.task_finished(&t2, w2, ThreadId(1), Time(7), Time(8), 10);
        assert_eq!(s.unfinished(), 0);
    }

    /// `who_has` is one entry per replica: completions and fetch arrivals
    /// for the same worker must not accumulate duplicates (the old `Vec`
    /// push in `task_finished` had no contains-check), and a replica is
    /// recorded exactly where a completion or an arrival put it.
    #[test]
    fn who_has_stays_one_entry_per_replica() {
        let (mut s, _collector, d, g, e) = fetch_rig();
        let (w0, w1, w2) = (0, 1, 2);
        assert_eq!(s.try_start(w0, Time(0)).as_ref(), Some(&d));
        assert_eq!(s.try_start(w1, Time(0)).as_ref(), Some(&g));
        assert_eq!(s.try_start(w2, Time(0)).as_ref(), Some(&e));
        s.task_finished(&d, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&g, w1, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&e, w2, ThreadId(1), Time(0), Time(1), 32 << 30);
        s.take_fetches();
        // replayed completions for the same (dep, worker) pair
        s.fetch_done(&d, w2, Time(2));
        s.fetch_done(&d, w2, Time(3));
        s.fetch_done(&g, w2, Time(4));
        s.fetch_done(&g, w2, Time(4));
        assert_eq!(s.tasks[&d].who_has, BTreeSet::from([0, 2]), "computed on w0, fetched to w2");
        assert_eq!(s.tasks[&g].who_has, BTreeSet::from([1, 2]), "computed on w1, fetched to w2");
        assert_eq!(s.tasks[&e].who_has, BTreeSet::from([2]), "computed on w2, never moved");
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        for (key, rec) in &s.tasks {
            let replicas: Vec<usize> = rec.who_has.iter().copied().collect();
            let mut deduped = replicas.clone();
            deduped.dedup();
            assert_eq!(replicas, deduped, "duplicate replica entry for {key}");
        }
    }

    /// A transfer whose source dies mid-flight is re-issued from a
    /// surviving replica; the waiting task completes without stalling in
    /// `flight` forever.
    #[test]
    fn dead_fetch_source_reissues_from_surviving_replica() {
        let (mut s, _collector, d, g, e) = fetch_rig();
        let (w0, w1, w2) = (0, 1, 2);
        assert_eq!(s.try_start(w0, Time(0)).as_ref(), Some(&d));
        assert_eq!(s.try_start(w1, Time(0)).as_ref(), Some(&g));
        assert_eq!(s.try_start(w2, Time(0)).as_ref(), Some(&e));
        s.task_finished(&d, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&g, w1, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&e, w2, ThreadId(1), Time(0), Time(1), 32 << 30);
        assert_eq!(s.take_fetches().len(), 2, "d and g head for w2");
        // replicate d onto w1 so a second holder survives w0's death
        s.fetch_done(&d, w1, Time(2));
        // w0 dies while its transfer of d to w2 is still in flight
        s.worker_died(w0, Time(3));
        let recovery = s.take_fetches();
        let reissued = recovery.iter().filter(|f| f.dep == d && f.from == w1 && f.to == w2).count();
        assert_eq!(reissued, 1, "transfer re-issued from surviving replica: {recovery:?}");
        // the original completion never arrives (source died); the
        // re-issued one does
        s.fetch_done(&d, w2, Time(4));
        s.fetch_done(&g, w2, Time(5));
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "waiters must not stall in flight");
    }

    /// A transfer whose source dies holding the only replica: the waiters
    /// go back to waiting and the recompute path re-plans everything.
    #[test]
    fn dead_fetch_source_without_replica_recomputes() {
        let (mut s, collector, d, g, e) = fetch_rig();
        let (w0, w1, w2) = (0, 1, 2);
        assert_eq!(s.try_start(w0, Time(0)).as_ref(), Some(&d));
        assert_eq!(s.try_start(w1, Time(0)).as_ref(), Some(&g));
        assert_eq!(s.try_start(w2, Time(0)).as_ref(), Some(&e));
        s.task_finished(&d, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&g, w1, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&e, w2, ThreadId(1), Time(0), Time(1), 32 << 30);
        // the issued transfers are never carried out: g's completes by hand
        // below (live source), d's never will
        s.take_fetches();
        s.fetch_done(&g, w2, Time(2));
        // w0 dies holding the only replica of d; its transfer to w2 is lost
        s.worker_died(w0, Time(3));
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "recompute path must recover the waiters");
        let done = collector.take().task_done;
        let d_runs = done.iter().filter(|t| t.key == d).count();
        assert_eq!(d_runs, 2, "d recomputed after its only replica died");
    }

    /// The invariant oracle stays silent across normal operation, fetch
    /// replay, and worker death — and speaks up on a corrupted table.
    #[test]
    fn invariant_oracle_clean_under_faults_and_detects_corruption() {
        let (mut s, _collector, d, g, e) = fetch_rig();
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        let (w0, w1, w2) = (0, 1, 2);
        assert_eq!(s.try_start(w0, Time(0)).as_ref(), Some(&d));
        assert_eq!(s.try_start(w1, Time(0)).as_ref(), Some(&g));
        assert_eq!(s.try_start(w2, Time(0)).as_ref(), Some(&e));
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        s.task_finished(&d, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&g, w1, ThreadId(1), Time(0), Time(1), 1 << 10);
        s.task_finished(&e, w2, ThreadId(1), Time(0), Time(1), 32 << 30);
        // consumers are mid-fetch on w2: the ledger must be coherent
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        s.fetch_done(&d, w1, Time(2));
        s.worker_died(w0, Time(3));
        // the transfers are completed by hand below
        s.take_fetches();
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        s.fetch_done(&d, w2, Time(4));
        s.fetch_done(&d, w2, Time(5)); // replay
        s.fetch_done(&g, w2, Time(6));
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        // corrupt the table: a replica on the dead worker w0
        s.tasks.get_mut(&d).unwrap().who_has.insert(0);
        let violations = s.invariant_violations();
        assert!(
            violations.iter().any(|m| m.contains("who_has of") && m.contains("dead worker")),
            "corruption must be reported: {violations:?}"
        );
    }

    /// A `ready` task whose only input replica vanishes from `who_has` is
    /// a task about to run without its input: the oracle must say so.
    #[test]
    fn invariant_oracle_detects_ready_task_without_its_input() {
        let (mut s, _c) = sched(2, 1, WmsConfig { work_stealing: false, ..Default::default() });
        s.submit_graph(chain_graph(2), Time::ZERO).unwrap();
        let root = s.try_start(0, Time(0)).unwrap();
        s.task_finished(&root, 0, ThreadId(1), Time(0), Time(1), 100);
        assert!(s.fetches.is_empty(), "the child is placed with its input");
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        s.tasks.get_mut(&root).unwrap().who_has.clear();
        let violations = s.invariant_violations();
        assert!(
            violations.iter().any(|m| m.contains("ready on") && m.contains("resident")),
            "missing input must be reported: {violations:?}"
        );
    }

    /// A worker holding several sole replicas dies: the lost outputs are
    /// revoked in `TaskKey` order. The prefixes are chosen so that string
    /// order differs from submission order and from hash order.
    #[test]
    fn worker_death_revokes_lost_outputs_in_key_order() {
        let (mut s, collector) =
            sched(2, 4, WmsConfig { work_stealing: false, ..Default::default() });
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        // a 32 GB root pins every child to w0 by locality
        let big = 32u64 << 30;
        let root = b.add_sim("root", tok, 0, vec![], SimAction::compute_only(Dur(1), big));
        let children: Vec<TaskKey> = ["zeta", "alpha", "mid", "beta"]
            .into_iter()
            .map(|p| b.add_sim(p, tok, 0, vec![root], SimAction::compute_only(Dur(1), 10)))
            .collect();
        b.add_sim("sink", tok, 0, children, SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let k = s.try_start(0, Time(0)).unwrap();
        assert_eq!(k, root);
        s.task_finished(&k, 0, ThreadId(1), Time(0), Time(1), big);
        for t in 1..=4 {
            let k = s.try_start(0, Time(t)).expect("children run on w0");
            s.task_finished(&k, 0, ThreadId(1), Time(t), Time(t + 1), 10);
        }
        assert!(s.fetches.is_empty());
        // every output's sole replica is on w0, and the sink waits there
        assert_eq!(s.tasks.values().filter(|t| t.state == TaskState::Memory).count(), 5);
        collector.take();
        s.worker_died(0, Time(10));
        let lost: Vec<(&str, TaskState)> = collector
            .take()
            .transitions
            .iter()
            .filter(|t| t.stimulus == Stimulus::WorkerLost)
            .map(|t| (t.key.prefix.as_str(), t.to))
            .collect();
        let (released, waiting) = (TaskState::Released, TaskState::Waiting);
        assert_eq!(
            lost,
            vec![
                ("alpha", released),
                ("alpha", waiting),
                ("beta", released),
                ("beta", waiting),
                ("mid", released),
                ("mid", waiting),
                ("root", released),
                ("root", waiting),
                ("zeta", released),
                ("zeta", waiting),
                ("sink", waiting),
            ]
        );
    }

    /// The placement of [`Scheduler::decide_worker`] as first written:
    /// per live worker, the bytes of every dep it does not hold.
    fn decide_worker_per_worker(s: &Scheduler, key: &TaskKey) -> Option<usize> {
        let rec = &s.tasks[key];
        let mut best_score = f64::INFINITY;
        let mut best_idx = None;
        for (i, w) in s.workers.iter().enumerate() {
            if !w.alive {
                continue;
            }
            let missing_bytes: u64 = rec
                .deps
                .iter()
                .filter(|d| !s.tasks[*d].who_has.contains(&i))
                .filter_map(|d| s.tasks[d].nbytes)
                .sum();
            let backlog = w.occupancy() as f64 / w.threads.max(1) as f64;
            let mut score = backlog * s.cfg.est_task_duration_s
                + missing_bytes as f64 / s.cfg.assumed_bandwidth as f64;
            if let Some(h) = &s.hotspot {
                if h.worker as usize == i {
                    score *= h.weight;
                }
            }
            if score < best_score {
                best_score = score;
                best_idx = Some(i);
            }
        }
        best_idx
    }

    proptest::proptest! {
        /// One pass over the deps picks the worker the per-worker sum
        /// picked, over random residency, unknown sizes, duplicate deps,
        /// dead workers, backlogs and a hotspot weight.
        #[test]
        fn one_pass_pricing_matches_per_worker_sum(
            producers in proptest::collection::vec((0u8..5, proptest::any::<u8>()), 1..8),
            deps in proptest::collection::vec(0usize..8, 0..10),
            workers in proptest::collection::vec((0u8..4, 0u8..4), 1..6),
            hotspot in (0u8..3, 0u32..6, 0.1f64..2.0),
        ) {
            let (mut s, _c) = sched(workers.len() as u32, 2, WmsConfig::default());
            s.hotspot =
                (hotspot.0 == 0).then_some(HotspotFault { worker: hotspot.1, weight: hotspot.2 });
            let mut b = GraphBuilder::new(GraphId(0));
            let tok = b.new_token();
            let keys: Vec<TaskKey> = (0..producers.len())
                .map(|i| b.add_sim("p", tok, i as u32, vec![], SimAction::compute_only(Dur(1), 1)))
                .collect();
            let consumer = b.add_sim("c", tok, 0, vec![], SimAction::compute_only(Dur(1), 1));
            s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
            for (k, &(size, holders)) in keys.iter().zip(&producers) {
                let rec = s.tasks.get_mut(k).unwrap();
                rec.nbytes = [None, Some(0), Some(100), Some(1 << 20), Some(16 << 30)][size as usize];
                rec.who_has = (0..workers.len()).filter(|w| holders & (1 << w) != 0).collect();
            }
            s.tasks.get_mut(&consumer).unwrap().deps =
                deps.iter().map(|&d| keys[d % keys.len()]).collect();
            for (w, &(backlog, alive)) in s.workers.iter_mut().zip(&workers) {
                w.alive = alive != 0; // one worker in four is dead
                w.ready = (0..backlog as u64).map(|p| (p, consumer)).collect();
            }
            proptest::prop_assert_eq!(
                s.decide_worker(&consumer),
                decide_worker_per_worker(&s, &consumer)
            );
        }
    }

    #[test]
    fn cross_graph_dependencies_resolve() {
        let (mut s, _c) = sched(2, 2, WmsConfig::default());
        let g0 = chain_graph(3);
        let last = g0.tasks.last().unwrap().key;
        s.submit_graph(g0, Time::ZERO).unwrap();
        drive(&mut s);
        // second graph depends on first graph's last task
        let mut b = GraphBuilder::new(GraphId(1));
        let tok = b.new_token();
        b.add_sim("follow", tok, 0, vec![last], SimAction::compute_only(Dur(1), 10));
        let mut ext = Set::new();
        ext.insert(last);
        s.submit_graph(b.build(&ext).unwrap(), Time(100)).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
    }

    /// A later graph names an output whose only replica died while nothing
    /// needed it: the output still reads `memory`, so it must be computed
    /// again before its new dependent runs, not counted as finished.
    #[test]
    fn submit_graph_recomputes_an_external_input_lost_while_unneeded() {
        let (mut s, collector) =
            sched(2, 1, WmsConfig { work_stealing: false, ..Default::default() });
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add_sim("a", tok, 0, vec![], SimAction::compute_only(Dur(1), 100));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        assert_eq!(s.try_start(0, Time(0)), Some(a));
        s.task_finished(&a, 0, ThreadId(1), Time(0), Time(1), 100);
        // nothing needs `a`, so its holder's death leaves it in `memory`
        s.worker_died(0, Time(2));
        assert!(s.fetches.is_empty());
        assert_eq!(s.tasks[&a].state, TaskState::Memory);
        assert!(s.tasks[&a].who_has.is_empty());

        let mut b = GraphBuilder::new(GraphId(1));
        let tok = b.new_token();
        let follow = b.add_sim("b", tok, 0, vec![a], SimAction::compute_only(Dur(1), 10));
        let ext: Set<TaskKey> = std::iter::once(a).collect();
        s.submit_graph(b.build(&ext).unwrap(), Time(3)).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        let order: Vec<TaskKey> = s.start_order().iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![a, a, follow], "a runs again, then its new dependent");
        assert_eq!(collector.take().task_done.len(), 3);
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
    }
}

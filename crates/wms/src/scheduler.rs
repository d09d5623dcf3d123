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
//! - the engine's callbacks (`submit_graph`, `task_finished`, `task_erred`,
//!   `fetch_done`, `rebalance`, `worker_died`) return nothing but
//!   `submit_graph`'s validation error, and leave the dependency transfers
//!   they issue in one outbox, which the engine drains with
//!   [`Scheduler::take_fetches`] after each call that can place a task;
//! - [`Scheduler::take_startable`] names the workers that may start a
//!   task, and [`Scheduler::try_start`] starts one.
//!
//! That separation is what lets both modes share one scheduling behaviour
//! (and one instrumentation surface).
//!
//! Inside, a task is its *slot*: the dense index `submit_graph` gave it, in
//! submission order. Every table is indexed by slot; task keys appear only
//! at the boundary (callbacks, records, [`Fetch`]) and in the few walks
//! whose order reaches output, which sort by key (DESIGN §9).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut, Range};

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{
    Location, LogEntry, LogLevel, LogSource, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState,
    TransitionEvent, WorkerTaskState, WorkerTransitionEvent,
};
use dtf_core::fault::HotspotFault;
use dtf_core::ids::{ClientId, GraphId, KeyMap, TaskKey, ThreadId, WorkerId};
use dtf_core::provenance::WmsConfig;
use dtf_core::time::Time;

use crate::graph::{check_acyclic, Payload, TaskGraph};
use crate::plugins::WmsPlugin;

/// A worker is a stealing victim if its ready backlog exceeds this many
/// tasks per thread.
const STEAL_BACKLOG_PER_THREAD: f64 = 1.0;

/// A task's index in the scheduler's tables: its place in submission
/// order, which is also its priority (lower runs earlier).
type Slot = u32;

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

/// A set of worker indices, one bit each; the first 64 need no allocation.
/// Iteration is ascending.
#[derive(Debug, Default)]
struct WorkerSet {
    lo: u64,
    hi: Box<[u64]>,
}

impl WorkerSet {
    fn word(&self, w: usize) -> u64 {
        match w / 64 {
            0 => self.lo,
            i => self.hi.get(i - 1).copied().unwrap_or(0),
        }
    }

    fn contains(&self, w: usize) -> bool {
        self.word(w) & (1 << (w % 64)) != 0
    }

    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match w / 64 {
            0 => &mut self.lo,
            i => {
                if self.hi.len() < i {
                    let mut hi = std::mem::take(&mut self.hi).into_vec();
                    hi.resize(i, 0);
                    self.hi = hi.into_boxed_slice();
                }
                &mut self.hi[i - 1]
            }
        }
    }

    fn insert(&mut self, w: usize) {
        *self.word_mut(w) |= 1 << (w % 64);
    }

    fn remove(&mut self, w: usize) {
        if self.contains(w) {
            *self.word_mut(w) &= !(1 << (w % 64));
        }
    }

    fn is_empty(&self) -> bool {
        self.lo == 0 && self.hi.iter().all(|&w| w == 0)
    }

    fn iter(&self) -> Bits<'_> {
        Bits { word: self.lo, base: 0, rest: self.hi.iter() }
    }
}

/// The members of a [`WorkerSet`], ascending.
struct Bits<'a> {
    word: u64,
    base: usize,
    rest: std::slice::Iter<'a, u64>,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.rest.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// The end of a list of dependents (see [`Scheduler::dependent_edges`]).
const NO_EDGE: u32 = u32::MAX;

#[derive(Debug)]
struct TaskRecord {
    graph: GraphId,
    state: TaskState,
    /// Its dependencies' slots, in declaration order, as a range of
    /// [`Scheduler::dep_slots`].
    deps: Range<usize>,
    /// The first and last edge of its dependents list in
    /// [`Scheduler::dependent_edges`]: its dependents in submission order,
    /// the order they become runnable when it finishes. Later graphs
    /// append to it.
    dependents: (u32, u32),
    unfinished_deps: usize,
    /// Worker the task is assigned to while processing.
    assigned: Option<usize>,
    /// Dependencies whose data has not yet arrived at the assigned worker,
    /// as sorted slots. A task leaves `Flight` only when this drains — a
    /// counter cannot distinguish a duplicate arrival of one dep from the
    /// arrival of another.
    missing_deps: Vec<Slot>,
    nbytes: Option<u64>,
    /// Workers holding this task's output (one bit per replica).
    who_has: WorkerSet,
}

/// A per-task column of the table, indexed by slot.
#[derive(Debug)]
struct Column<T>(Vec<T>);

impl<T> Column<T> {
    fn len(&self) -> Slot {
        self.0.len() as Slot
    }
}

impl<T> Index<Slot> for Column<T> {
    type Output = T;
    fn index(&self, slot: Slot) -> &T {
        &self.0[slot as usize]
    }
}

impl<T> IndexMut<Slot> for Column<T> {
    fn index_mut(&mut self, slot: Slot) -> &mut T {
        &mut self.0[slot as usize]
    }
}

/// One dependency transfer in flight to one worker. At most one exists per
/// `(worker, dep)` pair — that is the dedup invariant: a second task needing
/// the same dep on the same worker joins `waiters` instead of triggering
/// another transfer.
#[derive(Debug)]
struct Inflight {
    /// Source worker index of the transfer.
    from: usize,
    /// Tasks on the destination worker waiting for this dep, sorted by
    /// key: the order `fetch_done` readies them in.
    waiters: Vec<Slot>,
}

/// A worker's dispatched tasks whose inputs are all local, in slot
/// (priority) order: [`Self::pop_first`] starts the highest-priority task
/// and a steal takes the last. The queuing policy keeps it near the thread
/// count, so a sorted deque serves it without a tree's node allocations.
#[derive(Debug, Default)]
struct ReadyQueue(VecDeque<Slot>);

impl ReadyQueue {
    fn insert(&mut self, slot: Slot) {
        let at = self.0.partition_point(|&s| s < slot);
        if self.0.get(at) != Some(&slot) {
            self.0.insert(at, slot);
        }
    }

    fn pop_first(&mut self) -> Option<Slot> {
        self.0.pop_front()
    }

    fn pop_last(&mut self) -> Option<Slot> {
        self.0.pop_back()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Remove `slot` from an unordered slot list; whether it was there.
fn remove_slot(slots: &mut Vec<Slot>, slot: Slot) -> bool {
    let Some(at) = slots.iter().position(|&s| s == slot) else { return false };
    slots.swap_remove(at);
    true
}

#[derive(Debug)]
struct WorkerEntry {
    id: WorkerId,
    threads: u32,
    /// Tasks currently executing on a thread (at most `threads`), unordered.
    executing: Vec<Slot>,
    ready: ReadyQueue,
    /// Dispatched tasks still waiting for dependency fetches, unordered.
    fetching: Vec<Slot>,
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
    /// The task table, by slot.
    tasks: Column<TaskRecord>,
    /// Slot → key.
    keys: Column<TaskKey>,
    /// Key → slot, for the callbacks that name a task by key; it also
    /// holds every key ever submitted, for cross-graph dependency checks.
    slots: KeyMap<Slot>,
    /// What each task runs, by slot; read by the engine alone.
    payloads: Column<Payload>,
    /// Every task's dependency slots, one range per task
    /// ([`TaskRecord::deps`]).
    dep_slots: Vec<Slot>,
    /// Every task's dependents: one list per task threaded through this
    /// array as `(dependent, next edge)`, with [`NO_EDGE`] at the end.
    /// Lists grow at their tail, so a walk follows submission order.
    dependent_edges: Vec<(Slot, u32)>,
    /// Tasks not yet in a terminal state.
    live: usize,
    workers: Vec<WorkerEntry>,
    /// Runnable tasks held on the scheduler (state `queued`): a min-heap
    /// of slots, so the highest-priority task leaves first.
    queued: BinaryHeap<Reverse<Slot>>,
    /// In-flight dependency transfers: `(destination worker, dep)` → the
    /// transfer and its waiting tasks. Doubles as the dedup guard (an
    /// existing entry means the transfer is already under way) and as the
    /// reverse index `fetch_done` uses to resolve waiters without scanning
    /// every fetching task.
    inflight: BTreeMap<(usize, Slot), Inflight>,
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
    /// Where every record the scheduler emits goes: the engine's one sink.
    plugin: Box<dyn WmsPlugin>,
    steals: u64,
}

impl Scheduler {
    pub fn new(cfg: WmsConfig, hotspot: Option<HotspotFault>, plugin: Box<dyn WmsPlugin>) -> Self {
        Self {
            cfg,
            hotspot,
            tasks: Column(Vec::new()),
            keys: Column(Vec::new()),
            slots: KeyMap::default(),
            payloads: Column(Vec::new()),
            dep_slots: Vec::new(),
            dependent_edges: Vec::new(),
            live: 0,
            workers: Vec::new(),
            queued: BinaryHeap::new(),
            inflight: BTreeMap::new(),
            fetches: Vec::new(),
            startable: Vec::new(),
            local_bytes: Vec::new(),
            plugin,
            steals: 0,
        }
    }

    /// Register a worker (connection). Returns its internal index. Both
    /// engines register every worker before the first submit. One added
    /// later takes no task parked in `no-worker`, and a queued one only at
    /// the next completion.
    pub fn add_worker(&mut self, id: WorkerId, threads: u32) -> usize {
        // both engines refuse a zero size with a config error first
        assert!(threads >= 1);
        self.workers.push(WorkerEntry {
            id,
            threads,
            executing: Vec::new(),
            ready: ReadyQueue::default(),
            fetching: Vec::new(),
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

    pub fn plugin_mut(&mut self) -> &mut dyn WmsPlugin {
        &mut *self.plugin
    }

    pub fn steal_count(&self) -> u64 {
        self.steals
    }

    /// Number of tasks not yet in a terminal state.
    pub fn unfinished(&self) -> usize {
        self.live
    }

    fn slot(&self, key: &TaskKey) -> Option<Slot> {
        self.slots.get(key).copied()
    }

    fn record(&self, key: &TaskKey) -> Option<&TaskRecord> {
        self.slot(key).map(|s| &self.tasks[s])
    }

    pub fn task_state(&self, key: &TaskKey) -> Option<TaskState> {
        self.record(key).map(|t| t.state)
    }

    pub fn payload(&self, key: &TaskKey) -> Option<&Payload> {
        self.slot(key).map(|s| &self.payloads[s])
    }

    /// Graph a task belongs to.
    pub fn task_graph(&self, key: &TaskKey) -> Option<GraphId> {
        self.record(key).map(|t| t.graph)
    }

    /// Dependency keys of a task, in declaration order.
    pub fn task_deps(&self, key: &TaskKey) -> Option<Vec<TaskKey>> {
        let rec = self.record(key)?;
        Some(self.dep_slots[rec.deps.clone()].iter().map(|&d| self.keys[d]).collect())
    }

    /// `slots` sorted by task key: the order of every walk whose order
    /// reaches the emitted records or the fetch outbox.
    fn sort_by_key(&self, slots: &mut [Slot]) {
        slots.sort_unstable_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
    }

    /// The lowest-indexed live worker holding `slot`'s output.
    fn live_holder(&self, slot: Slot) -> Option<usize> {
        self.tasks[slot].who_has.iter().find(|&h| self.workers[h].alive)
    }

    fn emit_transition(
        &mut self,
        slot: Slot,
        to: TaskState,
        stimulus: Stimulus,
        location: Location,
        now: Time,
    ) {
        let rec = &mut self.tasks[slot];
        let from = rec.state;
        let key = self.keys[slot];
        debug_assert!(
            from.can_transition_to(to),
            "illegal transition {} -> {} for {key}",
            from.as_str(),
            to.as_str()
        );
        rec.state = to;
        match (from.is_terminal(), to.is_terminal()) {
            (false, true) => self.live -= 1,
            (true, false) => self.live += 1,
            _ => {}
        }
        self.plugin.on_record(
            TransitionEvent { key, graph: rec.graph, from, to, stimulus, location, time: now }
                .into(),
        );
    }

    fn emit_worker_transition(
        &mut self,
        slot: Slot,
        widx: usize,
        from: WorkerTaskState,
        to: WorkerTaskState,
        now: Time,
    ) {
        let key = self.keys[slot];
        debug_assert!(
            from.can_transition_to(to),
            "illegal worker transition {} -> {} for {key}",
            from.as_str(),
            to.as_str()
        );
        let graph = self.tasks[slot].graph;
        let worker = self.workers[widx].id;
        self.plugin
            .on_record(WorkerTransitionEvent { key, graph, worker, from, to, time: now }.into());
    }

    // ------------------------------------------------------------------
    // Graph submission
    // ------------------------------------------------------------------

    /// Submit a graph. A graph that fails validation — a duplicate key, a
    /// key an earlier graph already submitted, an unknown dependency, a
    /// cycle — or arrives before any worker changes no state.
    pub fn submit_graph(&mut self, graph: TaskGraph, now: Time) -> Result<()> {
        let (base, dep_base) = (self.keys.len(), self.dep_slots.len());
        if let Err(e) = self.register(&graph) {
            self.unregister(base, dep_base);
            return Err(DtfError::InvalidGraph(format!("graph {}: {e}", graph.id)));
        }
        if self.workers.is_empty() {
            self.unregister(base, dep_base);
            return Err(DtfError::IllegalState("no workers connected".into()));
        }
        let n = graph.tasks.len();
        self.tasks.0.reserve(n);
        self.payloads.0.reserve(n);
        let mut spec_deps = Vec::with_capacity(n);
        let mut end = dep_base;
        for spec in graph.tasks {
            let start = end;
            end += spec.deps.len();
            self.payloads.0.push(spec.payload);
            self.tasks.0.push(TaskRecord {
                graph: graph.id,
                state: TaskState::Released,
                deps: start..end,
                dependents: (NO_EDGE, NO_EDGE),
                unfinished_deps: 0,
                assigned: None,
                missing_deps: Vec::new(),
                nbytes: None,
                who_has: WorkerSet::default(),
            });
            spec_deps.push(spec.deps);
        }
        self.live += n;
        // an earlier output whose last replica died while nothing needed it
        // still reads `memory`: bring it back before counting it finished
        let lost =
            self.dep_slots[dep_base..].iter().copied().filter(|&d| d < base && self.is_lost(d));
        self.recompute(lost.collect(), now);
        for slot in base..self.tasks.len() {
            let mut unfinished = 0;
            for i in self.tasks[slot].deps.clone() {
                let d = self.dep_slots[i];
                if self.tasks[d].state != TaskState::Memory {
                    unfinished += 1;
                }
                // register() checked that the edge index fits
                let edge = self.dependent_edges.len() as u32;
                self.dependent_edges.push((slot, NO_EDGE));
                let list = &mut self.tasks[d].dependents;
                match self.dependent_edges.get_mut(list.1 as usize) {
                    Some(last) => last.1 = edge,
                    None => list.0 = edge,
                }
                list.1 = edge;
            }
            self.tasks[slot].unfinished_deps = unfinished;
        }
        for (slot, deps) in (base..).zip(spec_deps) {
            let (key, graph, client) = (self.keys[slot], graph.id, ClientId(0));
            self.plugin
                .on_record(TaskMetaEvent { key, graph, client, deps, submitted: now }.into());
            self.emit_transition(
                slot,
                TaskState::Waiting,
                Stimulus::GraphSubmitted,
                Location::Scheduler,
                now,
            );
            if self.tasks[slot].unfinished_deps == 0 {
                self.make_runnable(slot, now);
            } else if self.deps_of(slot).any(|d| self.tasks[d].state == TaskState::Erred) {
                self.err_from(slot, Location::Scheduler, now);
            }
        }
        Ok(())
    }

    /// Give each of `graph`'s keys the next slot and append its tasks'
    /// dependency slots to `dep_slots`, checking that every dependency is a
    /// key of this graph or of an earlier one and that the graph has no
    /// cycle. On error the caller unregisters what this added.
    fn register(&mut self, graph: &TaskGraph) -> Result<()> {
        let base = self.keys.len();
        let edges: usize = graph.tasks.iter().map(|t| t.deps.len()).sum();
        let full = |n: usize| n >= NO_EDGE as usize;
        if full(self.keys.0.len() + graph.tasks.len()) || full(self.dependent_edges.len() + edges) {
            return Err(DtfError::InvalidGraph("the task table is full".into()));
        }
        self.slots.reserve(graph.tasks.len());
        self.keys.0.reserve(graph.tasks.len());
        for spec in &graph.tasks {
            let slot = self.keys.len();
            match self.slots.entry(spec.key) {
                Entry::Occupied(e) if *e.get() < base => {
                    return Err(DtfError::InvalidGraph(format!(
                        "task {}: key already submitted",
                        spec.key
                    )))
                }
                Entry::Occupied(_) => {
                    return Err(DtfError::InvalidGraph(format!("duplicate key {}", spec.key)))
                }
                Entry::Vacant(e) => {
                    e.insert(slot);
                    self.keys.0.push(spec.key);
                }
            }
        }
        // internal edges as (dependency, dependent) positions in the graph
        let mut internal = Vec::new();
        self.dep_slots.reserve(edges);
        for (i, spec) in graph.tasks.iter().enumerate() {
            for d in &spec.deps {
                let Some(&dep) = self.slots.get(d) else {
                    return Err(DtfError::InvalidGraph(format!(
                        "task {} depends on unknown {d}",
                        spec.key
                    )));
                };
                self.dep_slots.push(dep);
                if let Some(j) = dep.checked_sub(base) {
                    internal.push((j as usize, i));
                }
            }
        }
        check_acyclic(graph.id, graph.tasks.len(), &internal)
    }

    /// Forget the keys registered from slot `base` on, and the dependency
    /// slots from `dep_base` on.
    fn unregister(&mut self, base: Slot, dep_base: usize) {
        for key in self.keys.0.drain(base as usize..) {
            self.slots.remove(&key);
        }
        self.dep_slots.truncate(dep_base);
    }

    fn deps_of(&self, slot: Slot) -> impl Iterator<Item = Slot> + '_ {
        self.dep_slots[self.tasks[slot].deps.clone()].iter().copied()
    }

    /// The task's dependents, in submission order.
    fn dependents_of(&self, slot: Slot) -> impl Iterator<Item = Slot> + '_ {
        let mut at = self.tasks[slot].dependents.0;
        std::iter::from_fn(move || {
            let &(d, next) = self.dependent_edges.get(at as usize)?;
            at = next;
            Some(d)
        })
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
    fn decide_worker(&mut self, slot: Slot) -> Option<usize> {
        self.local_bytes.clear();
        self.local_bytes.resize(self.workers.len(), 0);
        let mut total = 0u64;
        for &d in &self.dep_slots[self.tasks[slot].deps.clone()] {
            let dep = &self.tasks[d];
            let Some(nbytes) = dep.nbytes else { continue };
            total += nbytes;
            for h in dep.who_has.iter() {
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
    /// task lands in `no-worker` (Dask's semantics), where it stays, since
    /// no worker joins after the first submit.
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
    fn make_runnable(&mut self, slot: Slot, now: Time) {
        if self.all_saturated() {
            self.emit_transition(
                slot,
                TaskState::Queued,
                Stimulus::Queue,
                Location::Scheduler,
                now,
            );
            self.queued.push(Reverse(slot));
        } else {
            self.dispatch(slot, now)
        }
    }

    /// Assign a task to a worker; generate fetches for missing inputs.
    fn dispatch(&mut self, slot: Slot, now: Time) {
        let Some(widx) = self.decide_worker(slot) else {
            self.emit_transition(
                slot,
                TaskState::NoWorker,
                Stimulus::NoWorkerAvailable,
                Location::Scheduler,
                now,
            );
            return;
        };
        self.emit_transition(
            slot,
            TaskState::Processing,
            Stimulus::Dispatched,
            Location::Scheduler,
            now,
        );
        self.place_on_worker(slot, widx, now)
    }

    /// Common path of dispatch and steal: set assignment, issue fetches.
    /// A dep already in flight to `widx` (for an earlier task) is joined,
    /// not re-fetched — one transfer per `(worker, dep)` pair.
    fn place_on_worker(&mut self, slot: Slot, widx: usize, now: Time) {
        let deps = self.tasks[slot].deps.clone();
        let mut missing = std::mem::take(&mut self.tasks[slot].missing_deps);
        missing.clear();
        for i in deps {
            let dep = self.dep_slots[i];
            if self.tasks[dep].who_has.contains(widx) || missing.contains(&dep) {
                continue;
            }
            missing.push(dep);
            if let Some(flight) = self.inflight.get_mut(&(widx, dep)) {
                // already being transferred for another task: join it
                let keys = &self.keys;
                if let Err(at) = flight.waiters.binary_search_by(|w| keys[*w].cmp(&keys[slot])) {
                    flight.waiters.insert(at, slot);
                }
                continue;
            }
            // the lowest-indexed live holder sources the transfer. A runnable
            // task's inputs all have one: a death recomputes every lost
            // output a live task still needs, and `invariant_violations`
            // reports a task waiting on a dep with no transfer in flight.
            let Some(holder) = self.live_holder(dep) else { continue };
            self.inflight.insert((widx, dep), Inflight { from: holder, waiters: vec![slot] });
            self.fetches.push(Fetch {
                dep: self.keys[dep],
                from: holder,
                to: widx,
                nbytes: self.tasks[dep].nbytes.unwrap_or(0),
            });
        }
        missing.sort_unstable();
        let pending = !missing.is_empty();
        let rec = &mut self.tasks[slot];
        rec.assigned = Some(widx);
        rec.missing_deps = missing;
        if !pending {
            self.workers[widx].ready.insert(slot);
            self.startable[widx] = true;
            self.emit_worker_transition(
                slot,
                widx,
                WorkerTaskState::Waiting,
                WorkerTaskState::Ready,
                now,
            );
        } else {
            self.workers[widx].fetching.push(slot);
            self.emit_worker_transition(
                slot,
                widx,
                WorkerTaskState::Waiting,
                WorkerTaskState::Fetch,
                now,
            );
            self.emit_worker_transition(
                slot,
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
    /// nobody, so it can never mark a task ready prematurely; one for a
    /// key never submitted changes nothing.
    pub fn fetch_done(&mut self, dep: &TaskKey, widx: usize, now: Time) {
        let Some(dep) = self.slot(dep) else { return };
        if self.workers[widx].alive {
            self.tasks[dep].who_has.insert(widx);
        }
        let Some(flight) = self.inflight.remove(&(widx, dep)) else { return };
        for slot in flight.waiters {
            let rec = &mut self.tasks[slot];
            // the waiter may have been re-planned elsewhere meanwhile
            if rec.assigned != Some(widx) {
                continue;
            }
            if let Ok(at) = rec.missing_deps.binary_search(&dep) {
                rec.missing_deps.remove(at);
            }
            if rec.missing_deps.is_empty() {
                let w = &mut self.workers[widx];
                remove_slot(&mut w.fetching, slot);
                w.ready.insert(slot);
                self.startable[widx] = true;
                self.emit_worker_transition(
                    slot,
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
    /// duration and later calls [`Self::task_finished`] or
    /// [`Self::task_erred`].
    pub fn try_start(&mut self, widx: usize, now: Time) -> Option<TaskKey> {
        let worker = self.workers[widx].id;
        if !self.workers[widx].has_free_thread() {
            return None;
        }
        let slot = self.workers[widx].ready.pop_first()?;
        let key = self.keys[slot];
        self.workers[widx].executing.push(slot);
        self.emit_worker_transition(
            slot,
            widx,
            WorkerTaskState::Ready,
            WorkerTaskState::Executing,
            now,
        );
        // worker-side observation of compute start
        let rec = &self.tasks[slot];
        self.plugin.on_record(
            TransitionEvent {
                key,
                graph: rec.graph,
                from: rec.state,
                to: rec.state,
                stimulus: Stimulus::ComputeStarted,
                location: Location::Worker(worker),
                time: now,
            }
            .into(),
        );
        Some(key)
    }

    /// Take `slot` off the worker at index `widx`'s threads; whether it
    /// was executing there.
    fn stop_executing(&mut self, slot: Slot, widx: usize) -> bool {
        if !remove_slot(&mut self.workers[widx].executing, slot) {
            return false;
        }
        self.startable[widx] = true;
        true
    }

    /// Task finished executing on the worker at index `widx`. Emits Memory
    /// transition and the completion record; unlocks dependents; refills
    /// from the scheduler queue. A key never submitted changes nothing.
    pub fn task_finished(
        &mut self,
        key: &TaskKey,
        widx: usize,
        thread: ThreadId,
        start: Time,
        now: Time,
        nbytes: u64,
    ) {
        let Some(slot) = self.slot(key) else { return };
        let worker = self.workers[widx].id;
        let removed = self.stop_executing(slot, widx);
        debug_assert!(removed, "finished task {key} was not executing");
        let rec = &mut self.tasks[slot];
        rec.nbytes = Some(nbytes);
        rec.who_has.insert(widx);
        rec.assigned = None;
        self.emit_worker_transition(
            slot,
            widx,
            WorkerTaskState::Executing,
            WorkerTaskState::Memory,
            now,
        );
        self.emit_transition(
            slot,
            TaskState::Memory,
            Stimulus::ComputeFinished,
            Location::Worker(worker),
            now,
        );
        let graph = self.tasks[slot].graph;
        self.plugin.on_record(
            TaskDoneEvent { key: *key, graph, worker, thread, start, stop: now, nbytes }.into(),
        );

        // dependents may become runnable
        let mut at = self.tasks[slot].dependents.0;
        while let Some(&(d, next)) = self.dependent_edges.get(at as usize) {
            let rec = &mut self.tasks[d];
            rec.unfinished_deps = rec.unfinished_deps.saturating_sub(1);
            if rec.unfinished_deps == 0 && rec.state == TaskState::Waiting {
                self.make_runnable(d, now);
            }
            at = next;
        }
        // refill workers from the scheduler-side queue
        self.refill_from_queue(now);
    }

    /// The task raised on the worker at index `widx` instead of finishing
    /// (the real executor catches the panic), for the reason `cause`.
    /// Frees its thread, records `processing → erred` and an error log
    /// line from the worker naming the task and the cause, and sends every
    /// task still waiting on it — transitively — from `waiting` to
    /// `erred`, as Dask does: their input will never exist. A task not
    /// executing there changes nothing.
    pub fn task_erred(&mut self, key: &TaskKey, widx: usize, now: Time, cause: &str) {
        let Some(slot) = self.slot(key) else { return };
        if !self.stop_executing(slot, widx) {
            return;
        }
        self.tasks[slot].assigned = None;
        self.emit_worker_transition(
            slot,
            widx,
            WorkerTaskState::Executing,
            WorkerTaskState::Error,
            now,
        );
        self.plugin.on_record(
            LogEntry {
                time: now,
                level: LogLevel::Error,
                source: LogSource::Worker(self.workers[widx].id),
                message: format!("task {key} erred: {cause}"),
            }
            .into(),
        );
        self.err_from(slot, Location::Worker(self.workers[widx].id), now);
        self.refill_from_queue(now);
    }

    /// `slot` errs (seen at `location`), then every dependent waiting on it,
    /// transitively.
    fn err_from(&mut self, slot: Slot, location: Location, now: Time) {
        self.emit_transition(slot, TaskState::Erred, Stimulus::ComputeErred, location, now);
        let mut stack = vec![slot];
        while let Some(s) = stack.pop() {
            let mut at = self.tasks[s].dependents.0;
            while let Some(&(d, next)) = self.dependent_edges.get(at as usize) {
                at = next;
                if self.tasks[d].state == TaskState::Waiting {
                    let at = Location::Scheduler;
                    self.emit_transition(d, TaskState::Erred, Stimulus::ComputeErred, at, now);
                    stack.push(d);
                }
            }
        }
    }

    fn refill_from_queue(&mut self, now: Time) {
        while !self.queued.is_empty() && !self.all_saturated() {
            if let Some(Reverse(slot)) = self.queued.pop() {
                self.dispatch(slot, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Work stealing
    // ------------------------------------------------------------------

    /// Rebalance ready backlogs: idle workers steal from saturated ones.
    /// The scheduler-side queue needs no periodic pass: every call that
    /// opens room on a live worker refills from it before it returns. A
    /// steal opens none a queued task could take: its thief is below its
    /// thread count, so at a queue factor of 1 or more nothing is queued,
    /// and below 1 the victim keeps at least its thread count.
    pub fn rebalance(&mut self, now: Time) {
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
            let Some(slot) = self.workers[victim].ready.pop_last() else { break };
            self.steals += 1;
            let thief_id = self.workers[thief].id;
            self.emit_transition(
                slot,
                TaskState::Processing,
                Stimulus::WorkStolen,
                Location::Worker(thief_id),
                now,
            );
            self.place_on_worker(slot, thief, now);
        }
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// A worker died: re-plan everything it was running or holding, and
    /// re-source or abandon the transfers it was serving to live workers.
    pub fn worker_died(&mut self, widx: usize, now: Time) {
        let worker = &mut self.workers[widx];
        worker.alive = false;
        let mut executing = std::mem::take(&mut worker.executing);
        let ready = std::mem::take(&mut worker.ready).0;
        let mut fetching = std::mem::take(&mut worker.fetching);
        self.sort_by_key(&mut executing);
        self.sort_by_key(&mut fetching);
        // outputs it held, in key order: the order of the recomputes below
        let mut held: Vec<Slot> =
            (0..self.tasks.len()).filter(|&s| self.tasks[s].who_has.contains(widx)).collect();
        self.sort_by_key(&mut held);

        // transfers TO the dead worker die with it; their waiters are
        // exactly the dead worker's fetching tasks, re-planned below
        self.inflight.retain(|&(to, _), _| to != widx);

        // outputs lost: remove replica; if it was the only one and the data
        // is still needed, the task must be recomputed. "Needed" is
        // transitive over this batch: a lost output whose only dependent is
        // another lost output is needed exactly when that dependent is —
        // both died with this worker, and recomputing the dependent will
        // re-read the input.
        let mut candidates = Vec::new();
        for slot in held {
            self.tasks[slot].who_has.remove(widx);
            if self.is_lost(slot) {
                candidates.push(slot);
            }
        }
        let mut needed_set: BTreeSet<Slot> = BTreeSet::new();
        loop {
            // fixpoint; terminates because the dependency graph is acyclic
            let mut changed = false;
            for &slot in &candidates {
                if needed_set.contains(&slot) {
                    continue;
                }
                let needed = self
                    .dependents_of(slot)
                    .any(|d| !self.tasks[d].state.is_terminal() || needed_set.contains(&d));
                if needed {
                    needed_set.insert(slot);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        candidates.retain(|s| needed_set.contains(s));
        self.recompute(candidates, now);
        // in-flight work on the dead worker goes back to waiting and is
        // re-planned
        for slot in executing.into_iter().chain(ready).chain(fetching) {
            self.replan(slot, now);
        }
        // transfers FROM the dead worker to live workers never complete:
        // re-issue each from a surviving replica, or — when the last
        // replica just died — abandon it and send its waiters back to
        // waiting so the recompute path re-plans them. This pass runs last
        // because the re-planning above may have joined tasks onto these
        // very entries. It walks `(worker, dep key)` order.
        let mut from_dead: Vec<(usize, Slot)> =
            self.inflight.iter().filter(|(_, f)| f.from == widx).map(|(k, _)| *k).collect();
        from_dead.sort_unstable_by(|a, b| (a.0, self.keys[a.1]).cmp(&(b.0, self.keys[b.1])));
        let mut orphans: Vec<Slot> = Vec::new();
        for (to_widx, dep) in from_dead {
            if let Some(holder) = self.live_holder(dep) {
                let Some(flight) = self.inflight.get_mut(&(to_widx, dep)) else { continue };
                flight.from = holder;
                self.fetches.push(Fetch {
                    dep: self.keys[dep],
                    from: holder,
                    to: to_widx,
                    nbytes: self.tasks[dep].nbytes.unwrap_or(0),
                });
            } else if let Some(flight) = self.inflight.remove(&(to_widx, dep)) {
                orphans.extend(flight.waiters);
            }
        }
        self.sort_by_key(&mut orphans);
        orphans.dedup();
        for slot in orphans {
            let Some(awidx) = self.tasks[slot].assigned else { continue };
            remove_slot(&mut self.workers[awidx].fetching, slot);
            // drop it from any other transfer it was waiting on; the
            // transfers themselves proceed (arriving data is still recorded)
            for flight in self.inflight.values_mut() {
                flight.waiters.retain(|&w| w != slot);
            }
            self.replan(slot, now);
        }
        // the dead worker's tasks no longer count against saturation
        self.refill_from_queue(now);
    }

    /// Send a task planned on a dead worker back to `waiting`, recount its
    /// unfinished inputs, and make it runnable if none remain.
    fn replan(&mut self, slot: Slot, now: Time) {
        self.emit_transition(
            slot,
            TaskState::Waiting,
            Stimulus::WorkerLost,
            Location::Scheduler,
            now,
        );
        let unfinished = self.deps_of(slot).filter(|&d| self.tasks[d].state != TaskState::Memory);
        let unfinished = unfinished.count();
        let rec = &mut self.tasks[slot];
        rec.assigned = None;
        rec.missing_deps.clear();
        rec.unfinished_deps = unfinished;
        if unfinished == 0 {
            self.make_runnable(slot, now);
        }
    }

    /// Whether the task reads `memory` while no live worker holds its output.
    fn is_lost(&self, slot: Slot) -> bool {
        let rec = &self.tasks[slot];
        rec.state == TaskState::Memory && rec.who_has.is_empty()
    }

    /// Send lost outputs back through `released` to `waiting` and dispatch
    /// each whose inputs are all resident. The set is first closed over
    /// lost inputs: an output whose last replica died while nothing needed
    /// it still reads `memory`, and recomputing a dependent needs it back.
    /// Tasks are revoked in `TaskKey` order.
    fn recompute(&mut self, lost: Vec<Slot>, now: Time) {
        if lost.is_empty() {
            return;
        }
        let mut closed: BTreeSet<Slot> = lost.iter().copied().collect();
        let mut stack = lost;
        while let Some(slot) = stack.pop() {
            for d in self.deps_of(slot) {
                if self.is_lost(d) && closed.insert(d) {
                    stack.push(d);
                }
            }
        }
        let mut lost: Vec<Slot> = closed.into_iter().collect();
        self.sort_by_key(&mut lost);
        let mut unplaced = Vec::new();
        for &slot in &lost {
            // Memory -> Released -> Waiting, then runnable again
            for to in [TaskState::Released, TaskState::Waiting] {
                self.emit_transition(slot, to, Stimulus::WorkerLost, Location::Scheduler, now);
            }
            // recount its unfinished deps (inputs may also be gone)
            let unfinished =
                self.deps_of(slot).filter(|&d| self.tasks[d].state != TaskState::Memory).count();
            let rec = &mut self.tasks[slot];
            rec.nbytes = None;
            rec.assigned = None;
            rec.missing_deps.clear();
            rec.unfinished_deps = unfinished;
            // bump dependents' unfinished counts: their input went away
            let mut at = rec.dependents.0;
            while let Some(&(d, next)) = self.dependent_edges.get(at as usize) {
                let drec = &mut self.tasks[d];
                if !drec.state.is_terminal() {
                    drec.unfinished_deps += 1;
                }
                if matches!(drec.state, TaskState::Queued | TaskState::NoWorker) {
                    unplaced.push(d);
                }
                at = next;
            }
        }
        // A dependent that was runnable but not yet placed goes back to
        // waiting through `released`, as Dask's does: placed now, it would
        // wait on a transfer no live worker can source, and never run.
        self.sort_by_key(&mut unplaced);
        unplaced.dedup();
        for &d in &unplaced {
            for to in [TaskState::Released, TaskState::Waiting] {
                self.emit_transition(d, to, Stimulus::WorkerLost, Location::Scheduler, now);
            }
        }
        self.queued.retain(|Reverse(s)| !unplaced.contains(s));
        // Dispatch only after every lost output has been revoked: a task
        // early in the batch can look ready (its dep still reads `memory`)
        // until a later entry — that dep, whose only replica also died —
        // sends it back to waiting and bumps the count.
        for slot in lost {
            if self.tasks[slot].unfinished_deps == 0 {
                self.make_runnable(slot, now);
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
    ///   queued tasks; dead workers hold no work;
    /// - a task waits in `queued` only while every live worker is
    ///   saturated (Dask re-checks its queue wherever room may open);
    /// - the count of unfinished tasks agrees with the table.
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let known = |slot: Slot| slot < self.tasks.len();
        let key = |slot: Slot| self.keys[slot];
        let keys = |slots: &[Slot]| slots.iter().map(|&s| key(s)).collect::<Vec<_>>();
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
            for &slot in &w.ready.0 {
                if !known(slot) {
                    v.push(format!("ready slot {slot} on {} outside the task table", w.id));
                    continue;
                }
                let (rec, key) = (&self.tasks[slot], key(slot));
                if !rec.missing_deps.is_empty() {
                    v.push(format!(
                        "task {key} ready on {} with undrained missing_deps {:?}",
                        w.id,
                        keys(&rec.missing_deps)
                    ));
                }
                if rec.assigned != Some(widx) {
                    v.push(format!(
                        "task {key} ready on {} but assigned to {:?}",
                        w.id, rec.assigned
                    ));
                }
                if rec.state != TaskState::Processing {
                    v.push(format!(
                        "task {key} ready on {} in scheduler state {}",
                        w.id,
                        rec.state.as_str()
                    ));
                }
                for d in self.deps_of(slot) {
                    if !self.tasks[d].who_has.contains(widx) {
                        let d = self.keys[d];
                        v.push(format!("task {key} ready on {} without dep {d} resident", w.id));
                    }
                }
            }
            for &slot in &w.fetching {
                if !known(slot) {
                    v.push(format!("fetching slot {slot} on {} outside the task table", w.id));
                    continue;
                }
                let (rec, key) = (&self.tasks[slot], key(slot));
                if rec.missing_deps.is_empty() {
                    v.push(format!("task {key} fetching on {} with nothing missing", w.id));
                }
                if rec.assigned != Some(widx) {
                    v.push(format!(
                        "task {key} fetching on {} but assigned to {:?}",
                        w.id, rec.assigned
                    ));
                }
                for &d in &rec.missing_deps {
                    let dk = self.keys[d];
                    match self.inflight.get(&(widx, d)) {
                        None => v.push(format!(
                            "task {key} on {} waits for {dk} with no transfer in flight",
                            w.id
                        )),
                        Some(f) if !f.waiters.contains(&slot) => v.push(format!(
                            "task {key} on {} waits for {dk} but is not a registered waiter",
                            w.id
                        )),
                        _ => {}
                    }
                }
            }
            for &slot in &w.executing {
                if !known(slot) {
                    v.push(format!("executing slot {slot} on {} outside the task table", w.id));
                    continue;
                }
                let (rec, key) = (&self.tasks[slot], key(slot));
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
        for (&(widx, dep), flight) in &self.inflight {
            if !known(dep) {
                v.push(format!("in-flight transfer of slot {dep} outside the task table"));
                continue;
            }
            let dep = key(dep);
            match self.workers.get(widx) {
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
            if !flight.waiters.windows(2).all(|p| key(p[0]) < key(p[1])) {
                v.push(format!("waiters of {dep}'s transfer out of key order"));
            }
            for &waiter in &flight.waiters {
                if !known(waiter) {
                    v.push(format!("slot {waiter} outside the task table waits on {dep}"));
                    continue;
                }
                let rec = &self.tasks[waiter];
                // a waiter re-planned elsewhere is tolerated (fetch_done
                // skips it); one still assigned here must list the dep
                if rec.assigned == Some(widx) && !keys(&rec.missing_deps).contains(&dep) {
                    v.push(format!(
                        "task {} registered as waiter for {dep} it no longer misses",
                        key(waiter)
                    ));
                }
            }
        }
        let mut live = 0;
        for (slot, rec) in (0..).zip(&self.tasks.0) {
            live += usize::from(!rec.state.is_terminal());
            for h in rec.who_has.iter() {
                let key = key(slot);
                match self.workers.get(h) {
                    None => v.push(format!("who_has of {key} lists out-of-range worker index {h}")),
                    Some(w) if !w.alive => {
                        v.push(format!("who_has of {key} lists dead worker {}", w.id))
                    }
                    _ => {}
                }
            }
        }
        if live != self.live {
            v.push(format!("{} tasks counted unfinished, {live} in the table", self.live));
        }
        for &Reverse(slot) in &self.queued {
            if !known(slot) {
                v.push(format!("queued slot {slot} outside the task table"));
                continue;
            }
            let (rec, key) = (&self.tasks[slot], key(slot));
            if rec.state != TaskState::Queued {
                v.push(format!("task {key} queued in scheduler state {}", rec.state.as_str()));
            }
            if rec.assigned.is_some() {
                v.push(format!("queued task {key} assigned to {:?}", rec.assigned));
            }
        }
        if !self.queued.is_empty() && self.workers.iter().any(|w| w.alive) && !self.all_saturated()
        {
            v.push(format!("{} tasks queued while a live worker has room", self.queued.len()));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, SimAction};
    use crate::rundata::started;
    use dtf_core::events::WorkerTransitionEvent;
    use dtf_core::events::{LogEntry, ProvRecord, TaskDoneEvent, TaskMetaEvent, TransitionEvent};
    use dtf_core::ids::NodeId;
    use dtf_core::time::Dur;
    use parking_lot::Mutex;
    use std::collections::HashSet as Set;
    use std::sync::Arc;

    /// The families these tests read, as the scheduler emitted them.
    #[derive(Default)]
    struct Emitted {
        meta: Vec<TaskMetaEvent>,
        transitions: Vec<TransitionEvent>,
        worker_transitions: Vec<WorkerTransitionEvent>,
        task_done: Vec<TaskDoneEvent>,
        logs: Vec<LogEntry>,
    }

    /// A sink whose buffer the test keeps a handle on.
    #[derive(Clone, Default)]
    struct TestSink(Arc<Mutex<Emitted>>);

    impl TestSink {
        /// Everything emitted since the last take.
        fn take(&self) -> Emitted {
            std::mem::take(&mut self.0.lock())
        }
    }

    impl WmsPlugin for TestSink {
        fn on_record(&mut self, record: ProvRecord) {
            let mut e = self.0.lock();
            match record {
                ProvRecord::TaskMeta(r) => e.meta.push(r),
                ProvRecord::Transition(r) => e.transitions.push(r),
                ProvRecord::WorkerTransition(r) => e.worker_transitions.push(r),
                ProvRecord::TaskDone(r) => e.task_done.push(r),
                ProvRecord::Log(r) => e.logs.push(r),
                _ => {}
            }
        }
    }

    /// Test-only access to a task's record by key.
    impl Scheduler {
        fn rec(&self, key: &TaskKey) -> &TaskRecord {
            &self.tasks[self.slots[key]]
        }

        fn rec_mut(&mut self, key: &TaskKey) -> &mut TaskRecord {
            let slot = self.slots[key];
            &mut self.tasks[slot]
        }
    }

    fn replicas(rec: &TaskRecord) -> Vec<usize> {
        rec.who_has.iter().collect()
    }

    fn worker(i: u32) -> WorkerId {
        WorkerId::new(NodeId(i / 4), i % 4)
    }

    fn sched(n_workers: u32, threads: u32, cfg: WmsConfig) -> (Scheduler, TestSink) {
        let collector = TestSink::default();
        let mut s = Scheduler::new(cfg, None, Box::new(collector.clone()));
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
        let events = collector.take();
        let order = started(&events.worker_transitions);
        assert_eq!(order.len(), 5);
        for i in 0..4 {
            assert!(order[i].0.index < order[i + 1].0.index, "chain order violated");
        }
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
            let (mut s, collector) = sched(
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
            (started(&collector.take().worker_transitions), s.steal_count())
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
    fn submit_requires_workers() {
        let mut s = Scheduler::new(WmsConfig::default(), None, Box::new(TestSink::default()));
        assert!(s.submit_graph(chain_graph(1), Time::ZERO).is_err());
    }

    /// Producers `d`, `g` (small outputs) land on w0/w1; `e` (huge) on w2.
    /// Consumers pinned to w2 by `e`'s locality then share the small deps.
    /// Returns `(sched, collector, d, g, e)` with all producers finished.
    fn fetch_rig() -> (Scheduler, TestSink, TaskKey, TaskKey, TaskKey) {
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
        assert_eq!(replicas(s.rec(&d)), [0, 2], "computed on w0, fetched to w2");
        assert_eq!(replicas(s.rec(&g)), [1, 2], "computed on w1, fetched to w2");
        assert_eq!(replicas(s.rec(&e)), [2], "computed on w2, never moved");
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        for (slot, rec) in (0..).zip(&s.tasks.0) {
            let replicas = replicas(rec);
            let mut deduped = replicas.clone();
            deduped.dedup();
            assert_eq!(replicas, deduped, "duplicate replica entry for {}", s.keys[slot]);
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

    /// A task queued on the scheduler when its input's only replica dies
    /// goes back to waiting (through `released`, as Dask's does) until the
    /// recompute brings the input back. Left queued, it is dispatched to
    /// the first free worker with a transfer no worker can source, and
    /// the run never ends. The death frees a thread, so the recompute is
    /// dispatched before `worker_died` returns, with no rebalance.
    #[test]
    fn a_queued_dependent_of_a_lost_output_waits_for_its_recompute() {
        let cfg = WmsConfig { queue_factor: 1.0, work_stealing: false, ..Default::default() };
        let (mut s, collector) = sched(3, 1, cfg);
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let load = b.add_sim("load", tok, 0, vec![], SimAction::compute_only(Dur(1), 1 << 10));
        for i in 0..6 {
            b.add_sim("use", tok + 1, i, vec![load], SimAction::compute_only(Dur(1), 10));
        }
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        let w0 = s.tasks[s.slot(&load).unwrap()].assigned.unwrap();
        assert_eq!(s.try_start(w0, Time(0)), Some(load));
        s.task_finished(&load, w0, ThreadId(1), Time(0), Time(1), 1 << 10);
        let events = collector.take();
        let queued = events.transitions.iter().filter(|t| t.to == TaskState::Queued).count();
        assert_eq!(queued, 3, "three dependents dispatched, three queued");
        s.take_fetches();
        s.worker_died(w0, Time(2));
        assert_eq!(s.task_state(&load), Some(TaskState::Processing), "load re-dispatched");
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "every dependent ran after the recompute");
        let done = collector.take().task_done;
        assert_eq!(done.iter().filter(|t| t.key == load).count(), 1, "load ran again");
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
        s.rec_mut(&d).who_has.insert(0);
        let violations = s.invariant_violations();
        assert!(
            violations.iter().any(|m| m.contains("who_has of") && m.contains("dead worker")),
            "corruption must be reported: {violations:?}"
        );
        // and a count of unfinished tasks that the table does not bear out
        s.live += 1;
        let violations = s.invariant_violations();
        assert!(
            violations.iter().any(|m| m.contains("counted unfinished")),
            "a drifted count must be reported: {violations:?}"
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
        s.rec_mut(&root).who_has = WorkerSet::default();
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
        assert_eq!(s.tasks.0.iter().filter(|t| t.state == TaskState::Memory).count(), 5);
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
        let rec = s.rec(key);
        let mut best_score = f64::INFINITY;
        let mut best_idx = None;
        for (i, w) in s.workers.iter().enumerate() {
            if !w.alive {
                continue;
            }
            let missing_bytes: u64 = s.dep_slots[rec.deps.clone()]
                .iter()
                .filter(|&&d| !s.tasks[d].who_has.contains(i))
                .filter_map(|&d| s.tasks[d].nbytes)
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
                let rec = s.rec_mut(k);
                rec.nbytes = [None, Some(0), Some(100), Some(1 << 20), Some(16 << 30)][size as usize];
                rec.who_has = WorkerSet::default();
                for w in (0..workers.len()).filter(|w| holders & (1 << w) != 0) {
                    rec.who_has.insert(w);
                }
            }
            let start = s.dep_slots.len();
            let dep_slots: Vec<Slot> = deps.iter().map(|&d| s.slots[&keys[d % keys.len()]]).collect();
            s.dep_slots.extend(dep_slots);
            s.rec_mut(&consumer).deps = start..s.dep_slots.len();
            for (w, &(backlog, alive)) in s.workers.iter_mut().zip(&workers) {
                w.alive = alive != 0; // one worker in four is dead
                w.ready = ReadyQueue((0..backlog as Slot).collect());
            }
            let slot = s.slots[&consumer];
            proptest::prop_assert_eq!(
                s.decide_worker(slot),
                decide_worker_per_worker(&s, &consumer)
            );
        }
    }

    /// A graph need not list a task after its dependencies: the dependent
    /// that comes first still runs once its dependency finishes.
    #[test]
    fn a_task_listed_before_its_dependency_runs_after_it() {
        let (mut s, collector) = sched(1, 1, WmsConfig::default());
        let root = TaskKey::new("root", 1, 0);
        let sim = || Payload::Sim(SimAction::compute_only(Dur(1), 10));
        let mut b = GraphBuilder::new(GraphId(0));
        let child = b.add(TaskKey::new("child", 1, 0), vec![root], sim());
        b.add(root, vec![], sim());
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0, "the child must not wait for ever");
        let order: Vec<TaskKey> =
            started(&collector.take().worker_transitions).iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![root, child]);
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
        assert_eq!(s.rec(&a).state, TaskState::Memory);
        assert!(s.rec(&a).who_has.is_empty());

        let mut b = GraphBuilder::new(GraphId(1));
        let tok = b.new_token();
        let follow = b.add_sim("b", tok, 0, vec![a], SimAction::compute_only(Dur(1), 10));
        let ext: Set<TaskKey> = std::iter::once(a).collect();
        s.submit_graph(b.build(&ext).unwrap(), Time(3)).unwrap();
        drive(&mut s);
        assert_eq!(s.unfinished(), 0);
        let events = collector.take();
        let order: Vec<TaskKey> =
            started(&events.worker_transitions).iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![a, a, follow], "a runs again, then its new dependent");
        assert_eq!(events.task_done.len(), 3);
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
    }

    /// A later graph that names a key already submitted is refused, and
    /// changes nothing: the task it names is not overwritten (it would run
    /// a second time and emit a second `TaskMetaEvent`), and the graph's
    /// other, new tasks are not registered. A graph with a cycle changes
    /// nothing either.
    #[test]
    fn a_graph_reusing_a_submitted_key_is_refused() {
        let (mut s, collector) = sched(1, 1, WmsConfig::default());
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add_sim("a", tok, 0, vec![], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        drive(&mut s);
        assert_eq!(s.task_state(&a), Some(TaskState::Memory));
        collector.take();

        let mut b = GraphBuilder::new(GraphId(1));
        let fresh = b.add_sim("fresh", 99, 0, vec![], SimAction::compute_only(Dur(1), 10));
        b.add(a, vec![], Payload::Sim(SimAction::compute_only(Dur(1), 10)));
        let err = s.submit_graph(b.build(&Set::new()).unwrap(), Time(10)).unwrap_err();
        assert!(
            matches!(&err, DtfError::InvalidGraph(m) if m.contains("already submitted")),
            "{err}"
        );
        assert_eq!(s.task_state(&a), Some(TaskState::Memory));
        assert_eq!(s.task_graph(&a), Some(GraphId(0)));
        assert_eq!(s.task_state(&fresh), None, "the refused graph registers nothing");
        assert_eq!(s.unfinished(), 0);
        let events = collector.take();
        assert!(events.meta.is_empty() && events.transitions.is_empty());
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        // a cycle is refused after its dependencies were resolved, and
        // those are dropped too
        let (x, y) = (TaskKey::new("x", 98, 0), TaskKey::new("y", 98, 0));
        let sim = || Payload::Sim(SimAction::compute_only(Dur(1), 10));
        let cycle = TaskGraph {
            id: GraphId(3),
            tasks: vec![
                crate::graph::TaskSpec { key: x, deps: vec![a, y], payload: sim() },
                crate::graph::TaskSpec { key: y, deps: vec![x], payload: sim() },
            ],
        };
        let err = s.submit_graph(cycle, Time(10)).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        assert_eq!((s.task_state(&x), s.dep_slots.len()), (None, 0));
        // the refused graphs' new keys are still free to submit
        let mut b = GraphBuilder::new(GraphId(2));
        b.add_sim("fresh", 99, 0, vec![a], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&std::iter::once(a).collect()).unwrap(), Time(11)).unwrap();
        drive(&mut s);
        assert_eq!(s.task_state(&fresh), Some(TaskState::Memory));
    }

    /// A task that raises frees its thread and errs, every task waiting on
    /// it errs after it, transitively, and an independent task still runs.
    /// A later graph that depends on an erred task errs at submission
    /// instead of waiting for ever.
    #[test]
    fn an_erred_task_errs_its_dependents_and_frees_its_thread() {
        let (mut s, collector) = sched(1, 1, WmsConfig::default());
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add_sim("a", tok, 0, vec![], SimAction::compute_only(Dur(1), 10));
        let mid = b.add_sim("mid", tok, 0, vec![a], SimAction::compute_only(Dur(1), 10));
        let leaf = b.add_sim("leaf", tok, 0, vec![mid], SimAction::compute_only(Dur(1), 10));
        let other = b.add_sim("other", tok, 0, vec![], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&Set::new()).unwrap(), Time::ZERO).unwrap();
        assert_eq!(s.try_start(0, Time(0)), Some(a));
        assert_eq!(s.try_start(0, Time(0)), None, "the only thread is busy");
        s.task_erred(&a, 0, Time(1), "a test failure");
        for k in [a, mid, leaf] {
            assert_eq!(s.task_state(&k), Some(TaskState::Erred), "{k}");
        }
        assert_eq!(s.unfinished(), 1, "only the independent task is left");
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
        drive(&mut s);
        assert_eq!(s.task_state(&other), Some(TaskState::Memory));
        assert_eq!(s.unfinished(), 0);
        let events = collector.take();
        let erred: Vec<(TaskKey, TaskState)> = events
            .transitions
            .iter()
            .filter(|t| t.to == TaskState::Erred)
            .map(|t| (t.key, t.from))
            .collect();
        let (processing, waiting) = (TaskState::Processing, TaskState::Waiting);
        assert_eq!(erred, vec![(a, processing), (mid, waiting), (leaf, waiting)]);
        assert!(events
            .worker_transitions
            .iter()
            .any(|w| w.key == a && w.to == WorkerTaskState::Error));
        assert!(events.task_done.iter().all(|d| d.key == other));
        let lines: Vec<_> = events.logs.iter().map(|l| (l.level, &l.message[..])).collect();
        assert_eq!(lines, [(LogLevel::Error, &*format!("task {a} erred: a test failure"))]);

        let mut b = GraphBuilder::new(GraphId(1));
        let tok = b.new_token();
        let after = b.add_sim("after", tok, 0, vec![leaf], SimAction::compute_only(Dur(1), 10));
        let next = b.add_sim("next", tok, 0, vec![after], SimAction::compute_only(Dur(1), 10));
        s.submit_graph(b.build(&std::iter::once(leaf).collect()).unwrap(), Time(5)).unwrap();
        assert_eq!(s.task_state(&after), Some(TaskState::Erred));
        assert_eq!(s.task_state(&next), Some(TaskState::Erred));
        assert_eq!(s.unfinished(), 0);
        assert_eq!(s.invariant_violations(), Vec::<String>::new());
    }

    /// Replica sets past 64 workers spill into more words and still iterate
    /// in ascending order.
    #[test]
    fn worker_sets_hold_any_worker_index() {
        let mut set = WorkerSet::default();
        for w in [130, 3, 64, 63, 0, 200] {
            set.insert(w);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130, 200]);
        assert!(set.contains(130) && !set.contains(131) && !set.contains(1000));
        for w in [0, 3, 63, 64, 130] {
            set.remove(w);
        }
        set.remove(1000);
        assert!(!set.is_empty());
        set.remove(200);
        assert!(set.is_empty());
    }
}

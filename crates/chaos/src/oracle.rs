//! Post-run invariant oracles over the fused [`RunData`].
//!
//! These complement the *live* structural checks inside the scheduler
//! (`Scheduler::invariant_violations`, enabled per event via
//! `SimConfig::invariant_checks`): the live checks see internal tables the
//! provenance stream never exports, while these oracles see the whole run
//! at once — the stream as an analyst would read it. A perturbed run is
//! accepted only if both layers stay silent.
//!
//! [`RunData`]: dtf_wms::RunData

use std::collections::{BTreeMap, HashMap, HashSet};

use dtf_core::events::{Stimulus, TaskState, TransitionEvent};
use dtf_core::ids::{TaskKey, ThreadId};
use dtf_core::time::Time;
use dtf_wms::RunData;

/// Run every oracle; returns one message per violation (empty = clean).
pub fn check_run(data: &RunData) -> Vec<String> {
    let mut v = Vec::new();
    v.extend(check_transition_model(data));
    v.extend(check_delivery(data));
    v.extend(check_lineage(data));
    v.extend(check_steal_accounting(data));
    v.extend(check_darshan_join(data));
    v.extend(check_proxy_plane(data));
    v
}

/// Reference model of the Dask scheduler state machine, replayed over the
/// emitted transition log task by task:
/// - every step is a legal edge of the transition matrix (self-loops are
///   observations — compute-started markers — not state changes);
/// - each task's chain is gap-free (`from` of each record equals `to` of
///   the previous one) and starts from `released` via `graph-submitted`;
/// - exactly one `graph-submitted` stimulus per task;
/// - each chain ends terminal; a terminal state is left only through the
///   legal `memory → released` revival (output lost to a worker death);
/// - `memory` entries equal the task's completion records.
pub fn check_transition_model(data: &RunData) -> Vec<String> {
    let mut v = Vec::new();
    let mut chains: BTreeMap<&TaskKey, Vec<&TransitionEvent>> = BTreeMap::new();
    for t in &data.transitions {
        chains.entry(&t.key).or_default().push(t);
    }
    let mut done_count: HashMap<&TaskKey, usize> = HashMap::new();
    for d in &data.task_done {
        *done_count.entry(&d.key).or_default() += 1;
    }
    for (key, chain) in &chains {
        let mut submitted = 0usize;
        let mut memory_entries = 0usize;
        let mut prev: Option<TaskState> = None;
        for t in chain.iter() {
            if t.stimulus == Stimulus::GraphSubmitted {
                submitted += 1;
            }
            if t.from == t.to {
                // observation marker (e.g. compute-started), not a step
                continue;
            }
            if !t.from.can_transition_to(t.to) {
                v.push(format!(
                    "{key}: illegal transition {} -> {} ({})",
                    t.from.as_str(),
                    t.to.as_str(),
                    t.stimulus.as_str()
                ));
            }
            if let Some(p) = prev {
                if p != t.from {
                    v.push(format!(
                        "{key}: chain gap — was {}, next step starts from {}",
                        p.as_str(),
                        t.from.as_str()
                    ));
                }
            } else {
                if t.from != TaskState::Released {
                    v.push(format!("{key}: chain starts from {}", t.from.as_str()));
                }
                if t.stimulus != Stimulus::GraphSubmitted {
                    v.push(format!("{key}: first transition stimulus is {}", t.stimulus.as_str()));
                }
            }
            if t.to == TaskState::Memory {
                memory_entries += 1;
            }
            prev = Some(t.to);
        }
        if submitted != 1 {
            v.push(format!("{key}: {submitted} graph-submitted stimuli (want exactly 1)"));
        }
        match prev {
            Some(last) if !last.is_terminal() => {
                v.push(format!("{key}: chain ends non-terminal in {}", last.as_str()))
            }
            None => v.push(format!("{key}: no state change at all")),
            _ => {}
        }
        let done = done_count.get(key).copied().unwrap_or(0);
        if memory_entries != done {
            v.push(format!("{key}: {memory_entries} memory entries but {done} completion records"));
        }
    }
    // worker-side records: individually legal steps of the worker machine
    for t in &data.worker_transitions {
        if !t.from.can_transition_to(t.to) {
            v.push(format!(
                "{}: illegal worker transition {} -> {} on {}",
                t.key,
                t.from.as_str(),
                t.to.as_str(),
                t.worker
            ));
        }
    }
    v
}

/// Delivery oracle: the observable consequence of Mofka's exactly-once
/// contract per consumer group. Every task has exactly one metadata record
/// (a duplicate would mean re-delivery; a missing one, loss — including
/// loss to a partition stalled past the end of the run), and every key in
/// the other streams resolves against the metadata topic.
pub fn check_delivery(data: &RunData) -> Vec<String> {
    let mut v = Vec::new();
    let mut meta_count: HashMap<&TaskKey, usize> = HashMap::new();
    for m in &data.meta {
        *meta_count.entry(&m.key).or_default() += 1;
    }
    for (key, n) in &meta_count {
        if *n != 1 {
            v.push(format!("{key}: {n} task-meta records (want exactly 1)"));
        }
    }
    let known: HashSet<&TaskKey> = meta_count.keys().copied().collect();
    for t in &data.transitions {
        if !known.contains(&t.key) {
            v.push(format!("{}: transition for task with no task-meta record", t.key));
            break;
        }
    }
    for d in &data.task_done {
        if !known.contains(&d.key) {
            v.push(format!("{}: completion for task with no task-meta record", d.key));
            break;
        }
    }
    v
}

/// Provenance lineage oracle: the dependency relation recorded in the
/// metadata stream is acyclic and complete (every referenced dependency is
/// itself a recorded task), and temporally coherent — every execution of a
/// task starts at or after some completed execution of each dependency.
pub fn check_lineage(data: &RunData) -> Vec<String> {
    let mut v = Vec::new();
    let mut deps: BTreeMap<&TaskKey, &Vec<TaskKey>> = BTreeMap::new();
    for m in &data.meta {
        deps.insert(&m.key, &m.deps);
    }
    // completeness
    for (key, ds) in &deps {
        for d in ds.iter() {
            if !deps.contains_key(d) {
                v.push(format!("{key}: dependency {d} has no task-meta record"));
            }
        }
    }
    // acyclicity (iterative three-color DFS)
    let mut color: HashMap<&TaskKey, u8> = HashMap::new(); // 0 white, 1 grey, 2 black
    for root in deps.keys() {
        if color.get(root).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&TaskKey, usize)> = vec![(root, 0)];
        color.insert(root, 1);
        while let Some((node, i)) = stack.pop() {
            let children = deps.get(node).map(|d| d.as_slice()).unwrap_or(&[]);
            if i < children.len() {
                stack.push((node, i + 1));
                let child = &children[i];
                if let Some(ck) = deps.get_key_value(child).map(|(k, _)| *k) {
                    match color.get(ck).copied().unwrap_or(0) {
                        0 => {
                            color.insert(ck, 1);
                            stack.push((ck, 0));
                        }
                        1 => v.push(format!("lineage cycle through {node} -> {child}")),
                        _ => {}
                    }
                }
            } else {
                color.insert(node, 2);
            }
        }
    }
    // temporal coherence: dependency data existed before the dependent ran
    let mut completions: HashMap<&TaskKey, Vec<Time>> = HashMap::new();
    for d in &data.task_done {
        completions.entry(&d.key).or_default().push(d.stop);
    }
    for d in &data.task_done {
        let Some(ds) = deps.get(&d.key) else { continue };
        for dep in ds.iter() {
            let ok = completions
                .get(dep)
                .map(|stops| stops.iter().any(|s| *s <= d.start))
                .unwrap_or(false);
            if !ok {
                v.push(format!(
                    "{}: started at {} before any completion of dependency {dep}",
                    d.key, d.start
                ));
            }
        }
    }
    v
}

/// Proxy-plane oracle over the drained `proxy-events` stream:
/// - *lineage completeness*: every proxy record's key joins a task-meta
///   record, so proxied outputs never escape the lineage graph;
/// - *publish/resolve pairing*: every non-publish record (resolve, evict,
///   republish, re-source, orphan) has a publish record for its key at or
///   before its own time, and each key is published exactly once
///   (re-publications are distinct `republished` records);
/// - *exactly-once resolution*: no `(key, worker)` pair resolves twice,
///   however many duplicated or delayed fetch completions raced in;
/// - *generation coherence*: every resolution's generation was actually
///   minted by some publish / republish / re-source record of that key.
pub fn check_proxy_plane(data: &RunData) -> Vec<String> {
    use dtf_core::events::ProxyAction;
    let mut v = Vec::new();
    let known: HashSet<&TaskKey> = data.meta.iter().map(|m| &m.key).collect();
    let mut published_at: HashMap<&TaskKey, Time> = HashMap::new();
    let mut publishes: HashMap<&TaskKey, usize> = HashMap::new();
    let mut gens: HashMap<&TaskKey, HashSet<u32>> = HashMap::new();
    for p in &data.proxies {
        match p.action {
            ProxyAction::Published => {
                *publishes.entry(&p.key).or_default() += 1;
                let at = published_at.entry(&p.key).or_insert(p.time);
                *at = (*at).min(p.time);
                gens.entry(&p.key).or_default().insert(p.generation);
            }
            ProxyAction::Republished | ProxyAction::Resourced => {
                gens.entry(&p.key).or_default().insert(p.generation);
            }
            _ => {}
        }
    }
    for (key, n) in &publishes {
        if *n != 1 {
            v.push(format!("{key}: {n} proxy publish records (want exactly 1)"));
        }
    }
    let mut resolved: HashSet<(&TaskKey, dtf_core::ids::WorkerId)> = HashSet::new();
    for p in &data.proxies {
        if !known.contains(&p.key) {
            v.push(format!("{}: proxy record for task with no task-meta record", p.key));
        }
        if p.action != ProxyAction::Published {
            match published_at.get(&p.key) {
                Some(t0) if *t0 <= p.time => {}
                Some(_) => v.push(format!(
                    "{}: proxy {} at {} precedes its publish",
                    p.key,
                    p.action.as_str(),
                    p.time
                )),
                None => {
                    v.push(format!("{}: proxy {} with no publish record", p.key, p.action.as_str()))
                }
            }
        }
        if p.action == ProxyAction::Resolved {
            match p.worker {
                Some(w) => {
                    if !resolved.insert((&p.key, w)) {
                        v.push(format!(
                            "{}: resolved more than once on {w} (exactly-once violated)",
                            p.key
                        ));
                    }
                }
                None => v.push(format!("{}: resolution without a resolving worker", p.key)),
            }
            let minted = gens.get(&p.key).map(|g| g.contains(&p.generation)).unwrap_or(false);
            if !minted {
                v.push(format!(
                    "{}: resolved generation {} was never minted by a publish",
                    p.key, p.generation
                ));
            }
        }
    }
    v
}

/// The run-level steal counter equals the number of work-stolen stimuli in
/// the transition stream.
pub fn check_steal_accounting(data: &RunData) -> Vec<String> {
    let observed =
        data.transitions.iter().filter(|t| t.stimulus == Stimulus::WorkStolen).count() as u64;
    if observed != data.steals {
        vec![format!("steal counter {} but {} work-stolen transitions", data.steals, observed)]
    } else {
        Vec::new()
    }
}

/// Darshan ↔ WMS join oracle: the identifiers both layers carry actually
/// join. Every DXT record sits in the log of the worker that issued it,
/// its synthetic pthread id decodes to a thread ordinal of that worker,
/// and its `[start, stop]` window falls inside a completed task execution
/// on the same `(worker, thread)`. Runs that lost a worker may carry
/// orphaned records — I/O charged by executions that died with the worker
/// — so the window check is only enforced when no worker was lost.
pub fn check_darshan_join(data: &RunData) -> Vec<String> {
    let mut v = Vec::new();
    let threads = data.chart.wms_config.threads_per_worker;
    let lost_worker =
        data.logs.iter().any(|l| l.message.contains("terminated") || l.message.contains("lost"));
    let mut windows: HashMap<(dtf_core::ids::WorkerId, ThreadId), Vec<(Time, Time)>> =
        HashMap::new();
    for d in &data.task_done {
        windows.entry((d.worker, d.thread)).or_default().push((d.start, d.stop));
    }
    for log in &data.darshan.logs {
        for r in &log.dxt {
            if r.worker != log.header.worker {
                v.push(format!(
                    "io record by {} found in the log of {}",
                    r.worker, log.header.worker
                ));
                continue;
            }
            if r.host != r.worker.node {
                v.push(format!("io record host {} != worker node {}", r.host.0, r.worker.node.0));
            }
            let decodes = (0..threads).any(|t| ThreadId::synth(r.worker, t) == r.thread);
            if !decodes {
                v.push(format!(
                    "io record thread {} does not decode to a thread of {}",
                    r.thread, r.worker
                ));
                continue;
            }
            if !lost_worker {
                let joined = windows
                    .get(&(r.worker, r.thread))
                    .map(|ws| ws.iter().any(|(a, b)| *a <= r.start && r.stop <= *b))
                    .unwrap_or(false);
                if !joined {
                    v.push(format!(
                        "io record on {} thread {} at [{}, {}] joins no task execution",
                        r.worker, r.thread, r.start, r.stop
                    ));
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{Location, TaskMetaEvent};
    use dtf_core::ids::{ClientId, GraphId};

    fn tr(
        key: &TaskKey,
        from: TaskState,
        to: TaskState,
        stim: Stimulus,
        t: u64,
    ) -> TransitionEvent {
        TransitionEvent {
            key: *key,
            graph: GraphId(0),
            from,
            to,
            stimulus: stim,
            location: Location::Scheduler,
            time: Time(t),
        }
    }

    fn meta(key: &TaskKey, deps: Vec<TaskKey>) -> TaskMetaEvent {
        TaskMetaEvent {
            key: *key,
            graph: GraphId(0),
            client: ClientId(0),
            deps,
            submitted: Time(0),
        }
    }

    fn empty_run() -> RunData {
        RunData {
            run: dtf_core::ids::RunId(0),
            workflow: "oracle-unit".into(),
            chart: dtf_core::provenance::ProvenanceChart {
                hardware: dtf_core::provenance::HardwareInfo::polaris_like(2),
                system: dtf_core::provenance::SystemInfo::synthetic(),
                job: dtf_core::provenance::JobInfo {
                    job_id: 0,
                    script: String::new(),
                    queue: "q".into(),
                    nodes_requested: 1,
                    allocated_nodes: vec![dtf_core::ids::NodeId(0)],
                    submit_time: Time(0),
                    start_time: Time(0),
                    walltime_limit_s: 60,
                },
                wms_config: dtf_core::provenance::WmsConfig::default(),
                client_code_hash: 0,
                workflow_name: "oracle-unit".into(),
            },
            meta: vec![],
            transitions: vec![],
            worker_transitions: vec![],
            task_done: vec![],
            comms: vec![],
            warnings: vec![],
            logs: vec![],
            proxies: vec![],
            darshan: Default::default(),
            online_io: vec![],
            wall_time: dtf_core::time::Dur::ZERO,
            start_order: vec![],
            steals: 0,
        }
    }

    #[test]
    fn clean_chain_passes() {
        use Stimulus::*;
        use TaskState::*;
        let k = TaskKey::new("a", 0, 0);
        let mut data = empty_run();
        data.meta = vec![meta(&k, vec![])];
        data.transitions = vec![
            tr(&k, Released, Waiting, GraphSubmitted, 0),
            tr(&k, Waiting, Processing, Dispatched, 1),
            tr(&k, Processing, Processing, ComputeStarted, 2),
            tr(&k, Processing, Memory, ComputeFinished, 3),
        ];
        let v = check_transition_model(&data);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("1 memory entries but 0 completion records"), "{v:?}");
        data.transitions.pop();
        // chain now ends non-terminal
        assert!(check_transition_model(&data).iter().any(|m| m.contains("ends non-terminal")));
    }

    #[test]
    fn illegal_step_gap_and_duplicate_submit_detected() {
        use Stimulus::*;
        use TaskState::*;
        let k = TaskKey::new("a", 0, 0);
        let mut data = empty_run();
        data.transitions = vec![
            tr(&k, Released, Waiting, GraphSubmitted, 0),
            tr(&k, Released, Waiting, GraphSubmitted, 1), // duplicate delivery
            tr(&k, Processing, Memory, ComputeFinished, 2), // gap: waiting never left
            tr(&k, Memory, Waiting, WorkerLost, 3),       // illegal edge
        ];
        let v = check_transition_model(&data);
        assert!(v.iter().any(|m| m.contains("graph-submitted stimuli")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("chain gap")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("illegal transition")), "{v:?}");
    }

    #[test]
    fn lineage_cycle_and_missing_dep_detected() {
        let a = TaskKey::new("a", 0, 0);
        let b = TaskKey::new("b", 0, 0);
        let ghost = TaskKey::new("ghost", 0, 0);
        let mut data = empty_run();
        data.meta = vec![meta(&a, vec![b, ghost]), meta(&b, vec![a])];
        let v = check_lineage(&data);
        assert!(v.iter().any(|m| m.contains("cycle")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("ghost")), "{v:?}");
    }

    #[test]
    fn steal_accounting_mismatch_detected() {
        let mut data = empty_run();
        data.steals = 2;
        assert_eq!(check_steal_accounting(&data).len(), 1);
        data.steals = 0;
        assert!(check_steal_accounting(&data).is_empty());
    }

    #[test]
    fn proxy_plane_oracle_detects_violations() {
        use dtf_core::events::{ProxyAction, ProxyEvent};
        let w = |n| dtf_core::ids::WorkerId::new(dtf_core::ids::NodeId(n), 0);
        let pe = |action, key: &TaskKey, generation, worker, t| ProxyEvent {
            action,
            key: *key,
            graph: GraphId(0),
            size: 1 << 20,
            owner: w(0),
            checksum: 7,
            generation,
            worker,
            time: Time(t),
        };
        let a = TaskKey::new("a", 0, 0);
        let ghost = TaskKey::new("ghost", 0, 0);
        let mut data = empty_run();
        data.meta = vec![meta(&a, vec![])];
        data.proxies = vec![
            pe(ProxyAction::Published, &a, 0, None, 1),
            pe(ProxyAction::Resolved, &a, 0, Some(w(1)), 2),
        ];
        assert!(check_proxy_plane(&data).is_empty(), "{:?}", check_proxy_plane(&data));
        // duplicate resolution of the same (key, worker) pair
        data.proxies.push(pe(ProxyAction::Resolved, &a, 0, Some(w(1)), 3));
        assert!(check_proxy_plane(&data).iter().any(|m| m.contains("exactly-once")));
        data.proxies.pop();
        // resolve without a publish, for a key outside the lineage
        data.proxies.push(pe(ProxyAction::Resolved, &ghost, 0, Some(w(2)), 3));
        let v = check_proxy_plane(&data);
        assert!(v.iter().any(|m| m.contains("no publish record")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("no task-meta record")), "{v:?}");
        data.proxies.pop();
        // a generation no publish ever minted
        data.proxies.push(pe(ProxyAction::Resolved, &a, 5, Some(w(3)), 4));
        assert!(check_proxy_plane(&data).iter().any(|m| m.contains("never minted")));
    }

    #[test]
    fn duplicate_meta_detected() {
        let a = TaskKey::new("a", 0, 0);
        let mut data = empty_run();
        data.meta = vec![meta(&a, vec![]), meta(&a, vec![])];
        assert!(check_delivery(&data).iter().any(|m| m.contains("task-meta")));
    }
}

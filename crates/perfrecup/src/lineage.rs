//! Fig. 8: the full provenance lineage of one task, reconstructed from the
//! fused multi-source data.
//!
//! Everything in the record comes from joins on shared identifiers:
//! dependencies and submission from the task-meta stream, state
//! transitions from the transition stream, compute location from the
//! completion record, replicas from communication events naming the
//! task's key, and I/O from Darshan records joined on
//! `(pthread id, execution interval)` by [`ExecIndex::owner`] — the same
//! join `task_io` and the category view read, so an operation belongs to
//! exactly one execution here too.
//!
//! One pass over the run files every event under its task (`index`);
//! a lineage is then assembled from its task's entry. [`build`] and
//! [`build_all`] are that pass for one key and for all of them.

use std::collections::HashMap;

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{CommEvent, IoRecord, TaskDoneEvent, TaskMetaEvent};
use dtf_core::ids::{KeyMap, TaskKey};
use dtf_core::provenance::{LineageLocation, LineageTransition, TaskLineage};
use dtf_wms::RunData;

use crate::state::ExecIndex;

/// What the run recorded about one task, in stream order.
#[derive(Default)]
struct Parts<'a> {
    /// The first task-meta record naming the key.
    meta: Option<&'a TaskMetaEvent>,
    dependents: Vec<TaskKey>,
    states: Vec<LineageTransition>,
    /// The last completion (a recomputed key completes more than once).
    done: Option<&'a TaskDoneEvent>,
    movements: Vec<CommEvent>,
    /// Darshan records owned by the last completion's execution.
    io: Vec<IoRecord>,
}

/// File every event of the run under its task — under `only` alone when
/// given, skipping what belongs to other tasks.
fn index<'a>(data: &'a RunData, only: Option<&TaskKey>) -> KeyMap<Parts<'a>> {
    let wanted = |key: &TaskKey| only.is_none_or(|o| o == key);
    let mut parts: KeyMap<Parts<'a>> = KeyMap::default();
    for m in &data.meta {
        if wanted(&m.key) {
            parts.entry(m.key).or_default().meta.get_or_insert(m);
        }
        // the inverted dependency index: a task depending twice on the
        // same key is still one dependent
        for (i, dep) in m.deps.iter().enumerate() {
            if wanted(dep) && !m.deps[..i].contains(dep) {
                parts.entry(*dep).or_default().dependents.push(m.key);
            }
        }
    }
    for t in data.transitions.iter().filter(|t| wanted(&t.key) && t.from != t.to) {
        parts.entry(t.key).or_default().states.push(LineageTransition {
            from: t.from,
            to: t.to,
            stimulus: t.stimulus,
            location: t.location,
            time: t.time,
        });
    }
    for d in data.task_done.iter().filter(|d| wanted(&d.key)) {
        parts.entry(d.key).or_default().done = Some(d);
    }
    for c in data.comms.iter().filter(|c| wanted(&c.key)) {
        parts.entry(c.key).or_default().movements.push(c.clone());
    }
    let execs = ExecIndex::of(&data.task_done);
    for r in data.darshan.all_records() {
        let Some(exec) = execs.owner(r.thread, r.start) else { continue };
        let Some(p) = parts.get_mut(&exec.key) else { continue };
        let is_last =
            |d: &TaskDoneEvent| (d.thread, d.start, d.stop) == (r.thread, exec.start, exec.stop);
        if p.done.is_some_and(is_last) {
            p.io.push(r.clone());
        }
    }
    parts
}

fn assemble(key: TaskKey, parts: Parts<'_>) -> Result<TaskLineage> {
    let Parts { meta, dependents, states, done, movements, io } = parts;
    let meta = meta.ok_or_else(|| DtfError::NotFound(format!("task {key} in meta stream")))?;
    // where the output lives: computed here, replicated by each movement
    let locations = done
        .map(|d| LineageLocation { worker: d.worker, thread: Some(d.thread), since: d.stop })
        .into_iter()
        .chain(movements.iter().map(|m| LineageLocation {
            worker: m.to,
            thread: None,
            since: m.stop,
        }))
        .collect();
    Ok(TaskLineage {
        key: Some(key),
        graph: Some(meta.graph),
        client: Some(meta.client),
        submitted: Some(meta.submitted),
        dependencies: meta.deps.clone(),
        dependents,
        states,
        locations,
        movements,
        io,
        output_nbytes: done.map(|d| d.nbytes),
        start: done.map(|d| d.start),
        stop: done.map(|d| d.stop),
    })
}

/// Build the lineage of `key` from one run's data.
pub fn build(data: &RunData, key: &TaskKey) -> Result<TaskLineage> {
    assemble(*key, index(data, Some(key)).remove(key).unwrap_or_default())
}

/// Build lineages for every submitted task (bulk provenance export).
pub fn build_all(data: &RunData) -> HashMap<TaskKey, TaskLineage> {
    index(data, None)
        .into_iter()
        .filter_map(|(key, parts)| Some((key, assemble(key, parts).ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{FileId, GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};
    use std::collections::HashSet;

    fn run() -> (RunData, TaskKey, TaskKey) {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let root = b.add_sim(
            "load",
            tok,
            0,
            vec![],
            SimAction {
                compute: Dur::from_millis_f64(40.0),
                io: vec![IoCall::read(FileId(0), 0, 4096)],
                output_nbytes: 1 << 20,
                stall_rate: 0.0,
            },
        );
        let child = b.add_sim(
            "consume",
            tok,
            0,
            vec![root],
            SimAction::compute_only(Dur::from_millis_f64(20.0), 64),
        );
        let wf = SimWorkflow {
            name: "lineage-test".into(),
            graphs: vec![b.build(&HashSet::new()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(1.0),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        let data = SimCluster::new(SimConfig { run: RunId(0), ..Default::default() })
            .unwrap()
            .run(wf)
            .unwrap();
        (data, root, child)
    }

    #[test]
    fn lineage_is_complete_and_consistent() {
        let (data, root, child) = run();
        let l = build(&data, &root).unwrap();
        assert_eq!(l.key.as_ref(), Some(&root));
        assert_eq!(l.graph, Some(GraphId(0)));
        assert!(l.dependencies.is_empty());
        assert_eq!(l.dependents, vec![child]);
        assert!(l.is_consistent(), "state chain must be ordered and linked");
        // Released -> Waiting -> Processing -> Memory at minimum
        assert!(l.states.len() >= 3);
        assert_eq!(l.output_nbytes, Some(1 << 20));
        // the read it performed is attributed (plus open/close)
        assert_eq!(l.io.iter().filter(|r| r.op == dtf_core::events::IoOp::Read).count(), 1);
        assert!(!l.locations.is_empty());
        assert!(l.start.is_some() && l.stop.is_some());

        // child lineage sees its dependency
        let lc = build(&data, &child).unwrap();
        assert_eq!(lc.dependencies, vec![root]);
        assert!(lc.io.is_empty(), "compute-only task performed no I/O");
    }

    #[test]
    fn unknown_key_errors() {
        let (data, _, _) = run();
        assert!(build(&data, &TaskKey::new("ghost", 0, 0)).is_err());
    }

    #[test]
    fn build_all_covers_every_task() {
        let (data, _, _) = run();
        let all = build_all(&data);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn lineage_renders_as_json() {
        let (data, root, _) = run();
        let l = build(&data, &root).unwrap();
        let js = l.to_pretty_json().unwrap();
        assert!(js.contains("\"states\""));
        assert!(js.contains("load"));
    }
}

//! Fig. 8: the full provenance lineage of one task, reconstructed from the
//! fused multi-source data.
//!
//! Everything in the record comes from joins on shared identifiers:
//! dependencies and submission from the task-meta stream, state
//! transitions from the transition stream, compute location from the
//! completion record, replicas from communication events naming the
//! task's key, and I/O from Darshan records joined on
//! `(pthread id, execution interval)`.

use std::collections::HashMap;

use dtf_core::error::{DtfError, Result};
use dtf_core::ids::TaskKey;
use dtf_core::provenance::{LineageLocation, LineageTransition, TaskLineage};
use dtf_wms::RunData;

/// Build the lineage of `key` from one run's data.
pub fn build(data: &RunData, key: &TaskKey) -> Result<TaskLineage> {
    let meta = data
        .meta
        .iter()
        .find(|m| &m.key == key)
        .ok_or_else(|| DtfError::NotFound(format!("task {key} in meta stream")))?;

    // dependents: inverted dependency index
    let mut dependents = Vec::new();
    for m in &data.meta {
        if m.deps.contains(key) {
            dependents.push(m.key);
        }
    }

    let states: Vec<LineageTransition> = data
        .transitions
        .iter()
        .filter(|t| &t.key == key && !(t.from == t.to))
        .map(|t| LineageTransition {
            from: t.from,
            to: t.to,
            stimulus: t.stimulus,
            location: t.location,
            time: t.time,
        })
        .collect();

    let done = data.task_done.iter().rfind(|d| &d.key == key);

    let mut locations = Vec::new();
    if let Some(d) = done {
        locations.push(LineageLocation { worker: d.worker, thread: Some(d.thread), since: d.stop });
    }
    // replicas created by data movements of this key
    let movements: Vec<_> = data.comms.iter().filter(|c| &c.key == key).cloned().collect();
    for m in &movements {
        locations.push(LineageLocation { worker: m.to, thread: None, since: m.stop });
    }

    // I/O performed during this task's execution, joined on thread id +
    // interval
    let mut io = Vec::new();
    if let Some(d) = done {
        for r in data.darshan.all_records() {
            if r.thread == d.thread && r.start >= d.start && r.start <= d.stop {
                io.push(r.clone());
            }
        }
    }

    Ok(TaskLineage {
        key: Some(*key),
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

/// Build lineages for every completed task (bulk provenance export).
pub fn build_all(data: &RunData) -> HashMap<TaskKey, TaskLineage> {
    let mut out = HashMap::new();
    for m in &data.meta {
        if let Ok(l) = build(data, &m.key) {
            out.insert(m.key, l);
        }
    }
    out
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
        let js = l.to_pretty_json();
        assert!(js.contains("\"states\""));
        assert!(js.contains("load"));
    }
}

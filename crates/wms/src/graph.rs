//! Task graphs: the unit of submission.
//!
//! A workflow is one or more directed acyclic graphs whose nodes are tasks
//! and whose edges are data dependencies (paper §III-A). Dependencies may
//! reference tasks of *previously submitted* graphs whose outputs are still
//! in distributed memory (XGBoost submits 74 such chained graphs).

use std::collections::HashSet;
use std::hash::BuildHasher;
use std::sync::Arc;

use dtf_core::binfmt::Wire;
use dtf_core::error::{DtfError, Result};
use dtf_core::fnv64_extend;
use dtf_core::ids::{FileId, GraphId, KeyMap, TaskKey};
use dtf_core::time::Dur;

dtf_core::wire_struct! {
    /// One I/O call a simulated task performs, in order, during execution.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct IoCall {
        pub file: FileId,
        /// `true` = write, `false` = read.
        pub write: bool,
        pub offset: u64,
        pub size: u64,
    }
}

impl IoCall {
    pub fn read(file: FileId, offset: u64, size: u64) -> Self {
        Self { file, write: false, offset, size }
    }

    pub fn write(file: FileId, offset: u64, size: u64) -> Self {
        Self { file, write: true, offset, size }
    }
}

dtf_core::wire_struct! {
    /// What a simulated task does: its cost model. Its declared layout is
    /// what a workflow's fingerprint hashes (`SimWorkflow::code_hash`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimAction {
        /// Base compute time (before node-profile and stochastic factors).
        pub compute: Dur,
        /// I/O calls issued sequentially at the start of execution. The
        /// first call on a file implies an `open`; a final `close` is
        /// charged when the task's last call on that file completes.
        pub io: Vec<IoCall>,
        /// Size of the task's output kept in distributed memory (Dask
        /// nbytes).
        pub output_nbytes: u64,
        /// Memory-manager pressure of this task: expected event-loop /GC
        /// stalls per second while it executes (drives the paper's Fig. 7
        /// warnings; large unmanaged outputs pressure the worker's event
        /// loop).
        pub stall_rate: f64,
    }
}

impl SimAction {
    pub fn compute_only(compute: Dur, output_nbytes: u64) -> Self {
        Self { compute, io: Vec::new(), output_nbytes, stall_rate: 0.0 }
    }
}

/// A real task body: runs on a worker thread, receives its dependencies'
/// outputs in dependency order, returns its own output.
pub type RealFn = Arc<dyn Fn(&[Arc<TaskValue>]) -> TaskValue + Send + Sync>;

/// Output of a real task. `data` is the actual value; `nbytes` is what the
/// scheduler accounts for placement (Dask's `sizeof`).
pub struct TaskValue {
    pub data: Box<dyn std::any::Any + Send + Sync>,
    pub nbytes: u64,
}

impl TaskValue {
    pub fn new<T: std::any::Any + Send + Sync>(data: T, nbytes: u64) -> Self {
        Self { data: Box::new(data), nbytes }
    }

    pub fn downcast_ref<T: std::any::Any>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for TaskValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskValue({} bytes)", self.nbytes)
    }
}

/// The body of a task: a cost model (sim mode) or a closure (real mode).
#[derive(Clone)]
pub enum Payload {
    Sim(SimAction),
    Real(RealFn),
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Sim(a) => f.debug_tuple("Sim").field(a).finish(),
            Payload::Real(_) => f.write_str("Real(<fn>)"),
        }
    }
}

/// One task in a graph.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    pub key: TaskKey,
    pub deps: Vec<TaskKey>,
    pub payload: Payload,
}

/// A validated DAG of tasks.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub id: GraphId,
    pub tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// `hash`, an FNV-64 state, extended by this graph's part of a
    /// workflow's fingerprint (a chart's `client_code_hash`): the binfmt
    /// encoding of its id, its task count, then each task's key, deps and
    /// payload — tag 0 and the cost model for a simulated task, tag 1
    /// alone for a closure, which has no bytes to hash. Hashed task by
    /// task through one buffer that never holds more than one task.
    pub fn extend_hash(&self, mut hash: u64) -> u64 {
        let mut buf = Vec::new();
        self.id.put(&mut buf);
        self.tasks.len().put(&mut buf);
        for task in &self.tasks {
            task.key.put(&mut buf);
            task.deps.put(&mut buf);
            match &task.payload {
                Payload::Sim(action) => {
                    buf.push(0);
                    action.put(&mut buf);
                }
                Payload::Real(_) => buf.push(1),
            }
            hash = fnv64_extend(hash, &buf);
            buf.clear();
        }
        fnv64_extend(hash, &buf)
    }

    /// Validate: unique keys, no dependency cycles, and every dependency
    /// either internal or in `external` (outputs of earlier graphs).
    pub fn validate<S: BuildHasher>(&self, external: &HashSet<TaskKey, S>) -> Result<()> {
        // key -> position; also what the internal edges are written in
        let mut index: KeyMap<usize> = KeyMap::default();
        index.reserve(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            if index.insert(t.key, i).is_some() {
                return Err(DtfError::InvalidGraph(format!("duplicate key {}", t.key)));
            }
        }
        let mut internal = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                match index.get(d) {
                    Some(&j) => internal.push((j, i)),
                    None if external.contains(d) => {}
                    None => {
                        return Err(DtfError::InvalidGraph(format!(
                            "task {} depends on unknown {d}",
                            t.key
                        )))
                    }
                }
            }
        }
        check_acyclic(self.id, self.tasks.len(), &internal)
    }
}

/// Whether graph `id`'s `n` tasks, joined by the internal `(dependency,
/// dependent)` edges `edges` (positions in the graph), form no cycle:
/// Kahn's algorithm over the edges grouped by dependency.
pub(crate) fn check_acyclic(id: GraphId, n: usize, edges: &[(usize, usize)]) -> Result<()> {
    // `dependents[first[j]..first[j + 1]]` are j's
    let mut indeg = vec![0usize; n];
    let mut first = vec![0usize; n + 1];
    for &(j, i) in edges {
        indeg[i] += 1;
        first[j + 1] += 1;
    }
    for j in 0..n {
        first[j + 1] += first[j];
    }
    let mut next = first.clone();
    let mut dependents = vec![0usize; edges.len()];
    for &(j, i) in edges {
        dependents[next[j]] = i;
        next[j] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(j) = queue.pop() {
        seen += 1;
        for &i in &dependents[first[j]..first[j + 1]] {
            indeg[i] -= 1;
            if indeg[i] == 0 {
                queue.push(i);
            }
        }
    }
    if seen != n {
        return Err(DtfError::InvalidGraph(format!("graph {id} contains a dependency cycle")));
    }
    Ok(())
}

/// Convenience builder for task graphs.
#[derive(Debug)]
pub struct GraphBuilder {
    id: GraphId,
    tasks: Vec<TaskSpec>,
    token_counter: u32,
}

impl GraphBuilder {
    pub fn new(id: GraphId) -> Self {
        Self { id, tasks: Vec::new(), token_counter: 0 }
    }

    /// Allocate a fresh group token (one per collection operation).
    pub fn new_token(&mut self) -> u32 {
        self.token_counter += 1;
        // fold the graph id in so tokens are globally distinct
        self.token_counter.wrapping_add(self.id.0.wrapping_mul(0x1_0000))
    }

    pub fn add(&mut self, key: TaskKey, deps: Vec<TaskKey>, payload: Payload) -> TaskKey {
        self.tasks.push(TaskSpec { key, deps, payload });
        key
    }

    /// Add a simulated task with a fresh key in group `(prefix, token)`.
    pub fn add_sim(
        &mut self,
        prefix: &str,
        token: u32,
        index: u32,
        deps: Vec<TaskKey>,
        action: SimAction,
    ) -> TaskKey {
        self.add(TaskKey::new(prefix, token, index), deps, Payload::Sim(action))
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Finish and validate against `external` keys.
    pub fn build(self, external: &HashSet<TaskKey>) -> Result<TaskGraph> {
        let g = TaskGraph { id: self.id, tasks: self.tasks };
        g.validate(external)?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> Payload {
        Payload::Sim(SimAction::compute_only(Dur::from_millis_f64(1.0), 8))
    }

    #[test]
    fn valid_chain_builds() {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        let a = b.add_sim("load", tok, 0, vec![], SimAction::compute_only(Dur(1), 8));
        let c = b.add_sim("transform", tok, 0, vec![a], SimAction::compute_only(Dur(1), 8));
        b.add_sim("predict", tok, 0, vec![c], SimAction::compute_only(Dur(1), 8));
        let g = b.build(&HashSet::new()).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut b = GraphBuilder::new(GraphId(0));
        b.add(TaskKey::new("x", 0, 0), vec![], sim());
        b.add(TaskKey::new("x", 0, 0), vec![], sim());
        assert!(matches!(b.build(&HashSet::new()), Err(DtfError::InvalidGraph(_))));
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut b = GraphBuilder::new(GraphId(0));
        b.add(TaskKey::new("x", 0, 0), vec![TaskKey::new("ghost", 0, 0)], sim());
        assert!(b.build(&HashSet::new()).is_err());
    }

    #[test]
    fn external_dependency_accepted() {
        let prev = TaskKey::new("prev", 9, 0);
        let mut external = HashSet::new();
        external.insert(prev);
        let mut b = GraphBuilder::new(GraphId(1));
        b.add(TaskKey::new("x", 0, 0), vec![prev], sim());
        assert!(b.build(&external).is_ok());
    }

    #[test]
    fn cycle_rejected() {
        let ka = TaskKey::new("a", 0, 0);
        let kb = TaskKey::new("b", 0, 0);
        let g = TaskGraph {
            id: GraphId(0),
            tasks: vec![
                TaskSpec { key: ka, deps: vec![kb], payload: sim() },
                TaskSpec { key: kb, deps: vec![ka], payload: sim() },
            ],
        };
        let err = g.validate(&HashSet::new()).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn self_dependency_is_a_cycle() {
        let k = TaskKey::new("a", 0, 0);
        let g = TaskGraph {
            id: GraphId(0),
            tasks: vec![TaskSpec { key: k, deps: vec![k], payload: sim() }],
        };
        assert!(g.validate(&HashSet::new()).is_err());
    }

    #[test]
    fn tokens_are_distinct_across_graphs() {
        let mut b0 = GraphBuilder::new(GraphId(0));
        let mut b1 = GraphBuilder::new(GraphId(1));
        assert_ne!(b0.new_token(), b1.new_token());
    }

    #[test]
    fn diamond_is_valid() {
        let mut b = GraphBuilder::new(GraphId(0));
        let t = b.new_token();
        let a = b.add_sim("src", t, 0, vec![], SimAction::compute_only(Dur(1), 8));
        let l = b.add_sim("left", t, 0, vec![a], SimAction::compute_only(Dur(1), 8));
        let r = b.add_sim("right", t, 0, vec![a], SimAction::compute_only(Dur(1), 8));
        b.add_sim("join", t, 0, vec![l, r], SimAction::compute_only(Dur(1), 8));
        assert!(b.build(&HashSet::new()).is_ok());
    }
}

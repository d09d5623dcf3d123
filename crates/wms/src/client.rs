//! A `dask.delayed`-style client API over the real executor.
//!
//! [`Delayed`] buffers task definitions; [`Delayed::compute`] submits them
//! as one graph to a [`LocalCluster`] — the
//! lower-level decorators-and-futures style of writing Dask programs
//! (paper §III-A).

use std::collections::HashSet;
use std::sync::Arc;

use dtf_core::error::Result;
use dtf_core::ids::{GraphId, TaskKey};

use crate::exec::LocalCluster;
use crate::graph::{GraphBuilder, Payload, TaskValue};

/// A deferred task-graph builder bound to a cluster.
pub struct Delayed<'c> {
    cluster: &'c LocalCluster,
    builder: GraphBuilder,
    /// Keys from previously computed graphs this graph may depend on.
    external: HashSet<TaskKey>,
    next_graph: u32,
}

impl<'c> Delayed<'c> {
    pub fn new(cluster: &'c LocalCluster) -> Self {
        Self {
            cluster,
            builder: GraphBuilder::new(GraphId(0)),
            external: HashSet::new(),
            next_graph: 0,
        }
    }

    /// Define a deferred task. `prefix` names its category; dependencies'
    /// outputs arrive in `deps` order.
    pub fn delayed<F>(&mut self, prefix: &str, deps: Vec<TaskKey>, f: F) -> TaskKey
    where
        F: Fn(&[Arc<TaskValue>]) -> TaskValue + Send + Sync + 'static,
    {
        let token = self.builder.new_token();
        let index = self.builder.len() as u32;
        self.builder.add(TaskKey::new(prefix, token, index), deps, Payload::Real(Arc::new(f)))
    }

    /// Submit everything buffered since the last `compute` as one graph.
    pub fn compute(&mut self) -> Result<()> {
        self.next_graph += 1;
        let builder =
            std::mem::replace(&mut self.builder, GraphBuilder::new(GraphId(self.next_graph)));
        if builder.is_empty() {
            return Ok(());
        }
        let graph = builder.build(&self.external)?;
        for t in &graph.tasks {
            self.external.insert(t.key);
        }
        self.cluster.submit(graph)
    }

    /// Compute (if needed) and fetch one result.
    pub fn gather(&mut self, key: &TaskKey) -> Result<Arc<TaskValue>> {
        if !self.builder.is_empty() {
            self.compute()?;
        }
        self.cluster.gather(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::provenance::WmsConfig;

    fn two_by_two() -> LocalCluster {
        let cfg = WmsConfig { workers_per_node: 2, threads_per_worker: 2, ..Default::default() };
        LocalCluster::start(cfg).unwrap()
    }

    #[test]
    fn delayed_pipeline_computes() {
        let cluster = two_by_two();
        let mut client = Delayed::new(&cluster);
        let a = client.delayed("load", vec![], |_| TaskValue::new(10i64, 8));
        let b = client.delayed("load", vec![], |_| TaskValue::new(32i64, 8));
        let s = client.delayed("sum", vec![a, b], |deps| {
            let x = deps[0].downcast_ref::<i64>().unwrap();
            let y = deps[1].downcast_ref::<i64>().unwrap();
            TaskValue::new(x + y, 8)
        });
        let v = client.gather(&s).unwrap();
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), 42);
        assert_eq!(cluster.finish("delayed").unwrap().task_done.len(), 3);
    }

    #[test]
    fn two_computes_chain_across_graphs() {
        let cluster = two_by_two();
        let mut client = Delayed::new(&cluster);
        let base = client.delayed("base", vec![], |_| TaskValue::new(5i64, 8));
        client.compute().unwrap();
        let doubled = client.delayed("double", vec![base], |deps| {
            TaskValue::new(deps[0].downcast_ref::<i64>().unwrap() * 2, 8)
        });
        let v = client.gather(&doubled).unwrap();
        assert_eq!(*v.downcast_ref::<i64>().unwrap(), 10);
        assert_eq!(cluster.finish("delayed").unwrap().task_graphs(), 2);
    }

    #[test]
    fn empty_compute_is_noop() {
        let cluster = two_by_two();
        let mut client = Delayed::new(&cluster);
        client.compute().unwrap();
        assert!(cluster.finish("delayed").unwrap().meta.is_empty());
    }
}

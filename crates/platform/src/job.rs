//! PBS-like job scheduler: allocates nodes with placement variability.
//!
//! The paper notes (§III-E1) that "the allocated nodes may vary in
//! performance due to factors such as network topology" and that scheduler /
//! worker placement across switches changes latency. The allocator below
//! reproduces that: with probability `SCATTER_PROB` an allocation is
//! scattered across distant switches instead of packed under one.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

use dtf_core::error::{DtfError, Result};
use dtf_core::ids::NodeId;
use dtf_core::provenance::JobInfo;
use dtf_core::time::Time;

use crate::topology::ClusterTopology;

/// A resource request (the job-script analog).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobRequest {
    pub nodes: u32,
    pub walltime_limit_s: u64,
    pub queue: String,
}

/// Probability that an allocation is scattered across the cluster instead
/// of packed under contiguous switches.
const SCATTER_PROB: f64 = 0.35;

/// The job scheduler. Holds no queue state — each `allocate` models one
/// independent batch-job placement, which is how the paper's repeated runs
/// behave (each run is a fresh `qsub`).
#[derive(Debug)]
pub struct JobScheduler {
    next_job_id: u64,
}

impl Default for JobScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl JobScheduler {
    pub fn new() -> Self {
        Self { next_job_id: 1000 }
    }

    /// Allocate nodes for `req` at `submit_time`. The start delay (queue
    /// wait) is drawn in `[0, 30]` s — short because the paper's jobs are
    /// small — and the node set is packed, or scattered with probability
    /// `SCATTER_PROB`.
    pub fn allocate<R: Rng + ?Sized>(
        &mut self,
        topo: &ClusterTopology,
        req: &JobRequest,
        submit_time: Time,
        rng: &mut R,
    ) -> Result<JobInfo> {
        if req.nodes == 0 || req.nodes > topo.node_count {
            return Err(DtfError::Config(format!(
                "cannot allocate {} nodes from a {}-node cluster",
                req.nodes, topo.node_count
            )));
        }
        let scattered = rng.gen::<f64>() < SCATTER_PROB;
        let allocated_nodes: Vec<NodeId> = if scattered {
            // sample distinct nodes uniformly over the cluster
            let mut all: Vec<u32> = (0..topo.node_count).collect();
            all.shuffle(rng);
            let mut picked: Vec<u32> = all.into_iter().take(req.nodes as usize).collect();
            picked.sort_unstable();
            picked.into_iter().map(NodeId).collect()
        } else {
            // pack under a random switch-aligned base
            let span = req.nodes;
            let base_max = topo.node_count - span;
            let aligned = (base_max / topo.nodes_per_switch).max(1);
            let base = (rng.gen_range(0..aligned)) * topo.nodes_per_switch;
            (base..base + span).map(NodeId).collect()
        };
        let queue_wait = rng.gen_range(0.0..30.0);
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        Ok(JobInfo {
            job_id,
            script: format!(
                "#!/bin/bash\n#PBS -l select={}:system=polaris\n#PBS -l walltime={}\n#PBS -q {}\n",
                req.nodes, req.walltime_limit_s, req.queue
            ),
            queue: req.queue.clone(),
            nodes_requested: req.nodes,
            allocated_nodes,
            submit_time,
            start_time: submit_time + dtf_core::time::Dur::from_secs_f64(queue_wait),
            walltime_limit_s: req.walltime_limit_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's job configuration: 2 worker nodes + 1 scheduler/client
    /// node.
    fn paper_request() -> JobRequest {
        JobRequest { nodes: 3, walltime_limit_s: 3600, queue: "prod".into() }
    }
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn allocation_has_right_node_count_and_distinct_nodes() {
        let topo = ClusterTopology::uniform(560, 16);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let job = js.allocate(&topo, &paper_request(), Time::ZERO, &mut rng).unwrap();
            assert_eq!(job.allocated_nodes.len(), 3);
            let mut uniq = job.allocated_nodes.clone();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "nodes must be distinct");
            assert!(job.allocated_nodes.iter().all(|n| n.0 < 560));
            assert!(job.start_time >= job.submit_time);
        }
    }

    #[test]
    fn job_ids_increase() {
        let topo = ClusterTopology::uniform(64, 16);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = js.allocate(&topo, &paper_request(), Time::ZERO, &mut rng).unwrap();
        let b = js.allocate(&topo, &paper_request(), Time::ZERO, &mut rng).unwrap();
        assert!(b.job_id > a.job_id);
    }

    #[test]
    fn scattered_allocations_occur_at_the_scatter_rate() {
        let topo = ClusterTopology::uniform(560, 16);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scattered = 0;
        let trials = 400;
        for _ in 0..trials {
            let job = js.allocate(&topo, &paper_request(), Time::ZERO, &mut rng).unwrap();
            // packed allocations are contiguous node ranges
            let contiguous = job.allocated_nodes.windows(2).all(|w| w[1].0 == w[0].0 + 1);
            if !contiguous {
                scattered += 1;
            }
        }
        let rate = scattered as f64 / trials as f64;
        // scattered draws can accidentally be contiguous, so rate <= 0.35
        assert!((0.25..=0.4).contains(&rate), "scatter rate {rate}");
    }

    #[test]
    fn packed_allocations_are_contiguous_and_switch_aligned() {
        let topo = ClusterTopology::uniform(64, 16);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut packed = 0;
        for _ in 0..50 {
            let job = js
                .allocate(
                    &topo,
                    &JobRequest { nodes: 4, walltime_limit_s: 60, queue: "q".into() },
                    Time::ZERO,
                    &mut rng,
                )
                .unwrap();
            // four of 64 nodes scattered at random are almost never
            // contiguous, so a contiguous run is a packed allocation
            if job.allocated_nodes.windows(2).all(|w| w[1].0 == w[0].0 + 1) {
                assert_eq!(job.allocated_nodes[0].0 % 16, 0);
                packed += 1;
            }
        }
        assert!(packed > 0 && packed < 50, "{packed} of 50 packed");
    }

    #[test]
    fn oversized_request_rejected() {
        let topo = ClusterTopology::uniform(4, 2);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let req = JobRequest { nodes: 5, walltime_limit_s: 60, queue: "q".into() };
        assert!(js.allocate(&topo, &req, Time::ZERO, &mut rng).is_err());
        let req = JobRequest { nodes: 0, walltime_limit_s: 60, queue: "q".into() };
        assert!(js.allocate(&topo, &req, Time::ZERO, &mut rng).is_err());
    }

    #[test]
    fn script_records_request() {
        let topo = ClusterTopology::uniform(64, 16);
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let job = js.allocate(&topo, &paper_request(), Time::ZERO, &mut rng).unwrap();
        assert!(job.script.contains("select=3"));
        assert!(job.script.contains("walltime=3600"));
    }
}

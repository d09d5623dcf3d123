//! The layered data-provenance chart (paper Fig. 1) and the per-task lineage
//! record (paper Fig. 8).
//!
//! Provenance is collected at three layers:
//! 1. hardware infrastructure (platform characteristics),
//! 2. system software & job configuration (OS, modules, packages, job script,
//!    allocated nodes, WMS configuration),
//! 3. application layer (WMS events + I/O characterization).
//!
//! Layers 1–2 are captured once per run; layer 3 is the event stream.

use serde::Serialize;
use std::collections::BTreeMap;

use crate::events::{CommEvent, IoRecord, Location, Stimulus, TaskState};
use crate::ids::{ClientId, GraphId, NodeId, TaskKey, ThreadId, WorkerId};
use crate::time::Time;

crate::wire_struct! {
    /// Hardware-infrastructure layer provenance.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct HardwareInfo {
        pub cpu_model: String,
        pub cores_per_node: u32,
        pub memory_gb_per_node: u32,
        pub gpus_per_node: u32,
        pub nics_per_node: u32,
        pub node_count: u32,
        pub network: String,
        pub pfs: String,
    }
}

impl HardwareInfo {
    /// Polaris-like defaults matching the paper's evaluation platform (§IV-A).
    pub fn polaris_like(node_count: u32) -> Self {
        Self {
            cpu_model: "AMD EPYC Milan 7543P 32c 2.8GHz".into(),
            cores_per_node: 32,
            memory_gb_per_node: 512,
            gpus_per_node: 4,
            nics_per_node: 2,
            node_count,
            network: "Slingshot 11, dragonfly".into(),
            pfs: "Lustre on ClusterStor E1000, 100PB, 650GB/s aggregate".into(),
        }
    }
}

crate::wire_struct! {
    /// System-software / job-configuration layer provenance.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct SystemInfo {
        pub os: String,
        pub kernel: String,
        pub loaded_modules: Vec<String>,
        /// package name -> version
        pub packages: BTreeMap<String, String>,
    }
}

impl SystemInfo {
    pub fn synthetic() -> Self {
        let mut packages = BTreeMap::new();
        packages.insert("dtf-wms".into(), env!("CARGO_PKG_VERSION").into());
        packages.insert("dtf-darshan".into(), env!("CARGO_PKG_VERSION").into());
        packages.insert("dtf-mofka".into(), env!("CARGO_PKG_VERSION").into());
        Self {
            os: "SUSE Linux Enterprise 15".into(),
            kernel: "5.14.21".into(),
            loaded_modules: vec!["PrgEnv-gnu".into(), "cray-mpich".into(), "cudatoolkit".into()],
            packages,
        }
    }
}

crate::wire_struct! {
    /// Job allocation provenance (requested vs allocated resources).
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct JobInfo {
        pub job_id: u64,
        pub script: String,
        pub queue: String,
        pub nodes_requested: u32,
        pub allocated_nodes: Vec<NodeId>,
        pub submit_time: Time,
        pub start_time: Time,
        pub walltime_limit_s: u64,
    }
}

crate::wire_struct! {
    /// The WMS configuration both engines run on, and the one the run's
    /// chart records: the Dask settings (`distributed.yaml` and the worker
    /// command line) that move placement and timing. Each field names the
    /// setting it stands for and its default here.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct WmsConfig {
        /// Worker processes per worker node (`dask worker --nworkers`),
        /// default 4. The real executor is one in-process node, so this is
        /// its worker count.
        pub workers_per_node: u32,
        /// Threads per worker (`dask worker --nthreads`), default 8.
        pub threads_per_worker: u32,
        /// Worker heartbeat period, default 500 ms. `distributed.yaml` has
        /// no key for it: Dask derives it from the cluster size, and it is
        /// 500 ms up to ten workers.
        pub heartbeat_interval_ms: u64,
        /// A worker that has not heartbeated for this long is evicted and
        /// its work re-planned (`distributed.scheduler.worker-ttl`), ms,
        /// default 3000. The scheduler checks for suspects every half of
        /// it.
        pub worker_ttl_ms: u64,
        /// Idle workers steal ready tasks from busy ones
        /// (`distributed.scheduler.work-stealing`), default on.
        pub work_stealing: bool,
        /// Period of the work-stealing rebalance
        /// (`distributed.scheduler.work-stealing-interval`), ms, default
        /// 100.
        pub steal_interval_ms: u64,
        /// Bandwidth the placement heuristic assumes when it prices a
        /// missing dependency transfer (`distributed.scheduler.bandwidth`),
        /// B/s, default 400 000 000.
        pub assumed_bandwidth: u64,
        /// Runnable tasks stay on the scheduler (state `queued`) once every
        /// worker holds `threads * queue_factor` of them
        /// (`distributed.scheduler.worker-saturation`), default 1.5.
        pub queue_factor: f64,
        /// Task duration the placement heuristic prices a worker's backlog
        /// at, seconds (`distributed.scheduler.unknown-task-duration`),
        /// default 0.5. Dask replaces it with a measured per-prefix
        /// average; a constant reproduces the same spill-versus-locality
        /// trade-off.
        pub est_task_duration_s: f64,
    }
}

impl Default for WmsConfig {
    fn default() -> Self {
        // Paper job configuration: 2 worker nodes, 4 workers/node,
        // 8 threads/worker; Dask defaults for the rest.
        Self {
            workers_per_node: 4,
            threads_per_worker: 8,
            heartbeat_interval_ms: 500,
            worker_ttl_ms: 3000,
            work_stealing: true,
            steal_interval_ms: 100,
            assumed_bandwidth: 400_000_000,
            queue_factor: 1.5,
            est_task_duration_s: 0.5,
        }
    }
}

crate::wire_struct! {
    /// The full static provenance chart for one run (layers 1–2 of Fig. 1 plus
    /// client-side application metadata).
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct ProvenanceChart {
        pub hardware: HardwareInfo,
        pub system: SystemInfo,
        pub job: JobInfo,
        pub wms_config: WmsConfig,
        /// Hash of the client code that generated the task graphs.
        pub client_code_hash: u64,
        pub workflow_name: String,
    }
}

// ---------------------------------------------------------------------------
// Per-task lineage (Fig. 8)
// ---------------------------------------------------------------------------

/// One state transition in a task's lineage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LineageTransition {
    pub from: TaskState,
    pub to: TaskState,
    pub stimulus: Stimulus,
    pub location: Location,
    pub time: Time,
}

/// One residence of the task's output in distributed memory (the original
/// compute location plus any replicas created by transfers).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LineageLocation {
    pub worker: WorkerId,
    pub thread: Option<ThreadId>,
    pub since: Time,
}

/// Complete lineage of one task: the paper's Fig. 8 record.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct TaskLineage {
    #[serde(skip_serializing_if = "Option::is_none")]
    pub key: Option<TaskKey>,
    pub graph: Option<GraphId>,
    pub client: Option<ClientId>,
    pub submitted: Option<Time>,
    pub dependencies: Vec<TaskKey>,
    pub dependents: Vec<TaskKey>,
    pub states: Vec<LineageTransition>,
    pub locations: Vec<LineageLocation>,
    /// Inter-worker movements of this task's output data.
    pub movements: Vec<CommEvent>,
    /// I/O performed while this task was executing (joined via thread id +
    /// timestamps).
    pub io: Vec<IoRecord>,
    pub output_nbytes: Option<u64>,
    pub start: Option<Time>,
    pub stop: Option<Time>,
}

impl TaskLineage {
    /// Lineage sanity: states must be time-ordered and chained (each
    /// transition starts from the state the previous one reached).
    pub fn is_consistent(&self) -> bool {
        for w in self.states.windows(2) {
            if w[1].time < w[0].time {
                return false;
            }
            if w[1].from != w[0].to {
                return false;
            }
        }
        true
    }

    /// Pretty JSON rendering, the Fig. 8 "task provenance summary".
    pub fn to_pretty_json(&self) -> crate::Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polaris_defaults_match_paper() {
        let hw = HardwareInfo::polaris_like(560);
        assert_eq!(hw.node_count, 560);
        assert_eq!(hw.cores_per_node, 32);
        assert_eq!(hw.gpus_per_node, 4);
    }

    #[test]
    fn wms_config_matches_paper_job_configuration() {
        let c = WmsConfig::default();
        assert_eq!(c.workers_per_node, 4);
        assert_eq!(c.threads_per_worker, 8);
        assert!(c.work_stealing);
    }

    #[test]
    fn lineage_consistency_checks_chain_and_order() {
        let mut l = TaskLineage::default();
        l.states.push(LineageTransition {
            from: TaskState::Released,
            to: TaskState::Waiting,
            stimulus: Stimulus::GraphSubmitted,
            location: Location::Scheduler,
            time: Time(0),
        });
        l.states.push(LineageTransition {
            from: TaskState::Waiting,
            to: TaskState::Processing,
            stimulus: Stimulus::Dispatched,
            location: Location::Scheduler,
            time: Time(10),
        });
        assert!(l.is_consistent());

        // break the chain
        l.states[1].from = TaskState::Queued;
        assert!(!l.is_consistent());

        // break time ordering
        l.states[1].from = TaskState::Waiting;
        l.states[1].time = Time(0);
        l.states[0].time = Time(5);
        assert!(!l.is_consistent());
    }

    #[test]
    fn lineage_serializes_to_pretty_json() {
        let l = TaskLineage {
            key: Some(TaskKey::new("getitem__get_categories", 0x24266c, 63)),
            graph: Some(GraphId(2)),
            ..Default::default()
        };
        let s = l.to_pretty_json().unwrap();
        assert!(s.contains("getitem__get_categories"));
        assert!(s.contains("\"graph\""));
    }

    #[test]
    fn chart_roundtrips_through_its_wire_form_and_prints_its_json() {
        let chart = ProvenanceChart {
            hardware: HardwareInfo::polaris_like(2),
            system: SystemInfo::synthetic(),
            job: JobInfo {
                job_id: 1,
                script: "#!/bin/bash\n...".into(),
                queue: "debug".into(),
                nodes_requested: 2,
                allocated_nodes: vec![NodeId(0), NodeId(1)],
                submit_time: Time(0),
                start_time: Time(100),
                walltime_limit_s: 3600,
            },
            wms_config: WmsConfig::default(),
            client_code_hash: 0xdead_beef,
            workflow_name: "xgboost".into(),
        };
        let bytes = crate::binfmt::encode(&chart);
        assert_eq!(crate::binfmt::decode::<ProvenanceChart>(&bytes).unwrap(), chart);
        let s = serde_json::to_string(&chart).unwrap();
        assert_eq!(serde_json::from_str(&s).unwrap(), serde_json::to_value(&chart).unwrap());
    }
}

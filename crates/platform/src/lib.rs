//! # dtf-platform
//!
//! Simulated HPC platform substrate: cluster topology (nodes, switches),
//! a network cost model, a Lustre-like parallel filesystem with stochastic
//! interference, per-node performance heterogeneity, and a PBS-like job
//! scheduler that allocates nodes with placement variability.
//!
//! This crate substitutes for ALCF Polaris + Lustre in the paper's
//! evaluation. The substitution preserves the paper's *variability sources*
//! (§V): node placement relative to switches, scheduler↔worker distance,
//! PFS interference from co-running applications, and per-node performance
//! differences — each modelled as a seeded stochastic process so that
//! repeated runs of the same workflow vary the way real runs do, while any
//! single `(seed, run)` pair stays exactly reproducible.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod interference;
pub mod job;
pub mod network;
pub mod pfs;
pub mod sysprov;
pub mod topology;

pub use interference::LoadProcess;
pub use job::{JobRequest, JobScheduler};
pub use network::{NetworkConfig, NetworkModel};
pub use pfs::{Pfs, PfsConfig, PfsFile};
pub use topology::{ClusterTopology, Distance, NodeProfile};

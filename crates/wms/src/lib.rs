//! # dtf-wms
//!
//! A Dask.distributed-analog task-based workflow management system
//! (paper §III-A): a client submits directed acyclic task graphs to a
//! dynamic scheduler, which dispatches tasks to multi-threaded workers,
//! moves dependency data between them, and optionally steals work from
//! busy workers for idle ones.
//!
//! The WMS exists in two execution modes sharing one vocabulary of task
//! graphs, states ([`dtf_core::events::TaskState`]), transitions, and
//! instrumentation plugins:
//!
//! * [`sim`] — a discrete-event simulation of the whole cluster under
//!   virtual time, with stochastic platform costs from `dtf-platform`.
//!   This regenerates the paper's figures at Polaris scale in milliseconds.
//! * [`exec`] — a real multi-threaded executor that runs genuine Rust
//!   closures on worker threads with wall-clock timestamps; this is the
//!   mode a downstream user adopts to characterize their own workloads.
//!
//! Instrumentation mirrors the paper's architecture: scheduler and worker
//! *plugins* ([`plugins`]) intercept state transitions, completions,
//! transfers, and warnings, and stream them to Mofka ([`plugins::MofkaPlugin`])
//! without perturbing scheduling decisions.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod client;
pub mod exec;
pub mod graph;
pub mod plugins;
pub mod rundata;
pub mod scheduler;
pub mod sim;

pub use client::Delayed;
pub use exec::LocalCluster;
pub use graph::{GraphBuilder, IoCall, Payload, SimAction, TaskGraph, TaskSpec};
pub use plugins::{CollectorPlugin, MofkaPlugin, WmsPlugin};
pub use rundata::RunData;
pub use sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};

//! # dtf — Distributed Task-based workflow characterization Framework
//!
//! Facade crate re-exporting the public API of the whole workspace, a Rust
//! reproduction of *"Performance Characterization and Provenance of
//! Distributed Task-based Workflows on HPC Platforms"* (SC 2024).
//!
//! * [`core`] — identifiers, event & provenance schema, clocks, statistics.
//! * [`platform`] — simulated HPC platform (cluster, network, Lustre-like PFS).
//! * [`mofka`] — event streaming service used to aggregate instrumentation.
//! * [`store`] — durable segmented event-log and WAL-backed KV persistence
//!   (the storage layer behind Mofka's durable mode), with crash recovery.
//! * [`darshan`] — I/O characterization (POSIX counters + DXT tracing).
//! * [`wms`] — the Dask.distributed-analog workflow management system.
//! * [`proxystore`] — ProxyStore-analog out-of-band data plane: task
//!   outputs above a threshold are published and travel as small typed
//!   `ProxyRef`s through the scheduler channel.
//! * [`chaos`] — deterministic chaos harness: seeded fault schedules,
//!   invariant oracles, replayable campaigns.
//! * [`perfrecup`] — multi-source analysis and view engine.
//! * [`workflows`] — the paper's three workloads and the campaign driver.
//!
//! See `examples/quickstart.rs` for a minimal end-to-end characterization.

pub use dtf_chaos as chaos;
pub use dtf_core as core;
pub use dtf_darshan as darshan;
pub use dtf_mofka as mofka;
pub use dtf_perfrecup as perfrecup;
pub use dtf_platform as platform;
pub use dtf_proxystore as proxystore;
pub use dtf_store as store;
pub use dtf_wms as wms;
pub use dtf_workflows as workflows;

//! # dtf-bench
//!
//! The experiment harness: library functions that regenerate every table
//! and figure of the paper's evaluation (plus the ablations DESIGN.md
//! calls out), each returning a plain-text report whose rows mirror what
//! the paper reports, with the paper's own numbers printed alongside for
//! comparison; and the layer measurements behind `BENCH_repro.json`,
//! recorded and gated through one table ([`gate`]).

pub mod ablations;
pub mod experiments;
pub mod gate;
pub mod liveviews;
pub mod proxy;
pub mod storage;
pub mod stress;

pub use experiments::{fig3, fig4, fig5, fig6, fig7, fig8, table1};
pub use liveviews::{view_bench, ViewBench};
pub use proxy::{proxy_bench, ProxyBench};
pub use storage::{storage_bench, StorageBench};
pub use stress::{stress_bench, StressBench, StressConfig, StressOutcome};

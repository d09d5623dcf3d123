//! # dtf-perfrecup
//!
//! The PERFRECUP-analog analysis engine (paper §III-D): a typed columnar
//! [`frame::DataFrame`] (the pandas substitute), [`views`] that ingest and
//! *fuse* multi-source run data on shared identifiers — task keys, worker
//! addresses, pthread ids, timestamps — and one module per analysis in the
//! paper's evaluation:
//!
//! * [`phases`] — relative time in I/O / communication / computation and
//!   total wall time, with across-run variability (Fig. 3).
//! * [`io_timeline`] — per-thread I/O segments over time and read/write
//!   phase detection (Fig. 4).
//! * [`comm_scatter`] — communication duration vs. message size, intra- vs
//!   inter-node (Fig. 5).
//! * [`data_movement`] — in-band (scheduler-mediated) vs. out-of-band
//!   (proxy blob plane) byte attribution per transfer.
//! * [`parallel_coords`] — elapsed / category / thread / output size /
//!   duration coordinates per task (Fig. 6).
//! * [`warnings_dist`] — warning distribution over time and its
//!   correlation with long tasks (Fig. 7).
//! * [`lineage`] — full per-task provenance summaries (Fig. 8).
//! * [`schedule_order`] — scheduling-order similarity across runs (§IV-D).
//! * [`variability`] — cross-run variability metrics.
//! * [`category`] — per-task-category statistics and cross-run variability.
//! * [`utilization`] — per-worker busy-fraction timelines and imbalance.
//! * [`zoom`] — time-window event extraction and utilization timelines.
//! * [`export`] — FAIR archival export of a run (CSV views + JSON manifests).
//! * [`archive`] — post-hoc entry point: reopen a persisted store
//!   directory (dtf-store backed) and analyze it like a live run.
//! * [`state`] — the derived state of one run: one order-insensitive
//!   integer accumulator behind each of the category / utilization /
//!   phase views, and the one task↔I/O join; fed once by the post-hoc
//!   kernels, event by event by [`live`].
//! * [`live`] — online view maintenance: a Mofka consumer group feeding
//!   that state in O(Δ) per batch, with versioned snapshot subscriptions
//!   for concurrent readers and a [`live::ViewQuery`] answered identically
//!   by live state and archives.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod archive;
pub mod category;
pub mod comm_scatter;
pub mod data_movement;
pub mod export;
pub mod frame;
pub mod io_timeline;
pub mod lineage;
pub mod live;
pub mod parallel_coords;
pub mod phases;
pub mod schedule_order;
pub mod state;
pub mod utilization;
pub mod variability;
pub mod views;
pub mod warnings_dist;
pub mod zoom;

pub use frame::DataFrame;
pub use live::{LiveConfig, LiveViews, ViewQuery, ViewResult, ViewSnapshot, ViewSubscription};
pub use views::RunViews;

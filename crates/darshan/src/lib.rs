//! # dtf-darshan
//!
//! A Darshan-analog application-level I/O characterization layer
//! (paper §III-C, §III-E3):
//!
//! * [`counters`] — the POSIX counters module: per-file operation counts,
//!   byte totals, cumulative times, and access-size histograms, aggregated
//!   per worker process (what vanilla Darshan reports).
//! * [`dxt`] — the DXT (eXtended Tracing) module: a full per-operation
//!   trace, **extended with POSIX thread ids** the way the paper's authors
//!   extended it, so traces can be joined with task records. DXT buffers
//!   are bounded; overflow truncates the trace and flags it (the paper's
//!   footnote 9 observed exactly this on ResNet152).
//! * [`runtime`] — the per-process collection runtime that the instrumented
//!   I/O path feeds, and the instrumented-PFS wrapper used by workers.
//! * [`log`] — the binary log format written at process shutdown, and the
//!   per-run [`log::LogSet`] the analysis layer consumes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod counters;
pub mod dxt;
pub mod log;
pub mod runtime;

pub use counters::{FileCounters, PosixCounters, SizeBucket};
pub use dxt::{DxtConfig, DxtModule};
pub use log::{DarshanLog, LogHeader};
pub use runtime::{DarshanRuntime, InstrumentedPfs};

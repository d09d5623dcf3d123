//! # dtf-core
//!
//! Shared vocabulary of the `dtf` framework: identifiers, virtual/real clocks,
//! the event and provenance schema emitted by the workflow management system
//! (WMS) and the I/O characterization layer, seeded probability distributions
//! used by the platform simulator, and the *common tabular format* that makes
//! multi-source records joinable on shared identifiers (the paper's FAIR
//! interoperability requirement, §V).
//!
//! Everything downstream (`dtf-platform`, `dtf-wms`, `dtf-darshan`,
//! `dtf-mofka`, `dtf-perfrecup`) speaks these types; none of them re-defines
//! an identifier or a timestamp representation. That is deliberate: the paper
//! found that correlation across layers only works when every layer carries
//! at least one common identifier (thread id + timestamp, worker address,
//! hostname).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod binfmt;
pub mod dist;
pub mod error;
pub mod events;
pub mod fault;
pub mod fnv;
pub mod ids;
pub mod provenance;
pub mod rngx;
pub mod stats;
pub mod table;
pub mod time;

pub use error::{DtfError, Result};
pub use fnv::{fnv64, fnv64_extend, FNV64_BASIS};
pub use ids::{ClientId, FileId, GraphId, NodeId, RunId, TaskKey, ThreadId, WorkerId};
pub use time::{Dur, Time};

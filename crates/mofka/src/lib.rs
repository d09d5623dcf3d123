//! # dtf-mofka
//!
//! An event-streaming service analogous to Mofka (paper §III-B): a
//! Kafka-like model optimized for ingesting large volumes of small, highly
//! concurrent events from instrumented workflows.
//!
//! * Events carry a *metadata* part — a typed provenance record, rendered
//!   to the paper's JSON at export — and a raw *data* payload (§III-B).
//! * Producers push into **topics**, batched to amortize synchronization;
//!   consumers in **consumer groups** pull with prefetch, each group seeing
//!   every event exactly once, in per-partition order.
//! * Event streams are persistent: the same consumer API serves in-situ
//!   analysis (tail the stream during the run) and post-processing (replay
//!   from offset zero after the run).
//!
//! Like Mofka, the service is assembled from reusable micro-services:
//! [`yokan`] (key/value), [`warabi`] (blob store) and [`bedrock`]
//! (deployment and bootstrapping). Mofka's SSG group membership has no
//! analog: `dtf` runs no Mofka server group, and the simulator detects a
//! dead Dask worker itself, from its heartbeats.
//! Event payloads live in a Warabi blob region and topic configs and group
//! cursors in Yokan, mirroring Mofka's composition; a durable service
//! persists the partitions themselves as one segmented log ([`topic`]).
//!
//! One data plane serves producers: a flush appends each partition batch
//! under that partition's lock, from whichever thread flushes. Simulated
//! runs flush from one thread and stay byte-identical; concurrent clients
//! (the stress bench, live services) flush from many and contend only per
//! partition.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod bedrock;
pub mod consumer;
pub mod event;
pub mod feed;
pub mod producer;
pub mod service;
pub mod topic;
pub mod warabi;
pub mod yokan;

pub use consumer::{Consumer, ConsumerConfig, DiscardedClaims};
pub use event::{Event, EventId, StoredEvent};
pub use feed::GroupFeed;
pub use producer::{Producer, ProducerConfig};
pub use service::{MofkaService, ServiceRecovery};
pub use topic::{PartitionEvents, TopicConfig};

//! # dtf-store
//!
//! Crash-safe persistence for the Mofka-analog micro-services (paper
//! §III-B: topics persist through Yokan for metadata and Warabi for blob
//! payloads, which is what lets provenance survive the run and be analyzed
//! post-hoc by PERFRECUP).
//!
//! Durable layers, all recoverable:
//!
//! * [`log`] — a segmented append-only record log: length-prefixed,
//!   CRC32-framed records in fixed-size segment files, each segment headed
//!   by a magic, a payload-format version byte, its sequence number, and
//!   the index of its first record. Appends buffer in memory and hit the
//!   file on a configurable group-commit [`FlushPolicy`]; opening a
//!   directory runs a recovery scan that verifies every checksum and
//!   truncates a torn tail, so a reopened log contains exactly the
//!   committed record prefix. Recovered records are zero-copy slices of
//!   the per-segment read buffer, not per-record allocations. The log
//!   also owns the failure rule: its first failed append, roll or sync
//!   poisons it, later appends are refused, every sync reports that
//!   error, and only a reopen retries.
//! * [`kv`] — a write-ahead-logged KV built on the same log: put and
//!   delete records replay, all of them, into a `BTreeMap` on open. The
//!   maps this backs hold what is key-value (topic configs, group
//!   cursors, run metadata), never the event stream — under a hundred
//!   records a run, microseconds to replay.
//! * [`index`] — sparse per-segment index sidecars (`seg-*.dti`) and the
//!   [`index::LogReader`] archive view: point/range reads seek to an
//!   indexed block instead of scanning the log, served through the
//!   [`cache`] block/readahead LRU. The Mofka analog's three stores do
//!   not read through it: each recovers by the log's own scan.
//!
//! The recovery invariant every layer maintains: **no committed record is
//! ever lost, and no uncommitted record ever surfaces**. "Committed"
//! means flushed by policy or an explicit [`log::SegmentedLog::sync`];
//! a torn or bit-flipped tail truncates the stream at the first damaged
//! byte and never resurrects anything behind it. One bounds-checked CRC
//! frame scan finds that byte for every reader. Index sidecars are
//! **caches, never truth**: each is validated on load, rebuilt on any
//! mismatch, and deleting all of them reproduces the identical state from
//! the log alone.

pub mod cache;
pub mod crc32;
pub mod index;
pub mod kv;
pub mod log;

pub use cache::{BlockCache, CacheStats};
pub use index::{LogReader, ReaderOptions, SegmentIndex};
pub use kv::{KvRecord, KvWal};
pub use log::{FlushPolicy, LogConfig, RecoveryReport, SegmentedLog, FORMAT_BINARY};

//! Events: a provenance record plus a raw data payload (paper §III-B:
//! "Each event has two parts. The first is a data portion that contains the
//! raw data payload. The second is metadata expressed in JSON format").
//!
//! The metadata is *logically* JSON but never exists as a JSON tree inside
//! the service: an event carries a typed [`ProvRecord`], which renders to
//! the paper's JSON only at the export/replay boundary
//! ([`ProvRecord::to_value`]).
//!
//! The record lives *inline* in its [`Event`] — in the producer's buffer,
//! in the partition log, in whatever a consumer copies out — so a
//! partition is one contiguous run of records, not of pointers to them,
//! and moving an event is a `memcpy`. What a clone costs depends on the
//! family: every provenance record is plain data except
//! `TaskMetaEvent::deps` (a `Vec`) and `LogEntry::message` (a `String`),
//! so only those two allocate; the other seven families copy ~90 bytes.
//! Consumers that only look ([`crate::topic::Topic::visit`]) clone nothing.

use bytes::Bytes;
use dtf_core::events::ProvRecord;
use serde::Serialize;
use std::fmt;

/// Identifier of a stored event: partition number and offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EventId {
    pub partition: u32,
    pub offset: u64,
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.partition, self.offset)
    }
}

/// One event as produced/consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The provenance record describing the payload — the event's metadata.
    pub record: ProvRecord,
    /// Raw data payload (may be empty; provenance events typically carry
    /// everything in the record).
    pub data: Bytes,
}

impl Event {
    pub fn new(record: impl Into<ProvRecord>, data: Bytes) -> Self {
        Self { record: record.into(), data }
    }

    /// Event with a record only (the common case for provenance).
    pub fn typed(record: impl Into<ProvRecord>) -> Self {
        Self::new(record, Bytes::new())
    }
}

/// A stored event: the event plus its assigned id.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEvent {
    pub id: EventId,
    pub event: Event,
}

impl StoredEvent {
    /// An owned copy of an event a visitor was shown — what the owning
    /// read API (`read` / `pull` / `drain_all`) hands out.
    pub(crate) fn copy_of(id: EventId, record: &ProvRecord, data: Bytes) -> Self {
        Self { id, event: Event { record: record.clone(), data } }
    }
}

/// Events for this crate's unit tests: a log line tagged `(producer, seq)`
/// in its `source` and `time`.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use dtf_core::events::{LogEntry, LogLevel, LogSource};
    use dtf_core::ids::ClientId;
    use dtf_core::time::Time;

    pub(crate) fn tagged(producer: u32, seq: u64) -> Event {
        Event::typed(LogEntry {
            time: Time(seq),
            level: LogLevel::Info,
            source: LogSource::Client(ClientId(producer)),
            message: String::new(),
        })
    }

    /// The `(producer, seq)` a [`tagged`] event carries.
    pub(crate) fn tag(record: &ProvRecord) -> (u32, u64) {
        match record {
            ProvRecord::Log(LogEntry { time, source: LogSource::Client(c), .. }) => (c.0, time.0),
            other => panic!("not a tagged test event: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{tag, tagged};
    use super::*;

    #[test]
    fn typed_has_empty_payload() {
        let e = tagged(1, 42);
        assert!(e.data.is_empty());
        assert_eq!(tag(&e.record), (1, 42));
        assert_eq!(e, Event::new(e.record.clone(), Bytes::new()));
    }

    #[test]
    fn event_holds_the_record_inline() {
        // no box and no tag word: the event is the record plus the payload
        // handle, so a `Vec` of them is one contiguous run of records
        let (event, record) = (std::mem::size_of::<Event>(), std::mem::size_of::<ProvRecord>());
        assert_eq!(event, record + std::mem::size_of::<Bytes>());
    }

    #[test]
    fn event_id_ordering_and_display() {
        let a = EventId { partition: 0, offset: 5 };
        let b = EventId { partition: 1, offset: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "0:5");
    }
}

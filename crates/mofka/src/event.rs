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
//! Consumers that only look ([`crate::topic::Topic::visit`]) clone nothing,
//! and neither does a reader done with the whole service: it takes the
//! records by move ([`crate::MofkaService::into_partition_events`]), the
//! same inline records the partition logs held.
//!
//! A stored event also carries its **sequence number**: the topic stamps
//! one from its own counter when the event is pushed, so within a topic
//! the seqs are `0..n` in emission order, whichever partition an event was
//! routed to. It is a system field, like Kafka's offset or an EVTX
//! record's `EventRecordID`: the record never holds it, and a reader gets
//! it beside the [`EventId`]. Partition and offset say where an event is;
//! the seq says when it was emitted, and is what equal-time events are
//! ordered by when a drain sorts a family.

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

/// A stored event: the event plus its assigned id and sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEvent {
    pub id: EventId,
    /// Its place in the topic's emission order (see the module docs).
    pub seq: u64,
    pub event: Event,
}

impl StoredEvent {
    /// An owned copy of an event a visitor was shown — what the owning
    /// read API (`read` / `pull` / `drain_all`) hands out.
    pub(crate) fn copy_of(id: EventId, seq: u64, record: &ProvRecord, data: Bytes) -> Self {
        Self { id, seq, event: Event { record: record.clone(), data } }
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
    fn a_slot_holds_its_seq_in_the_bytes_an_optional_blob_id_took() {
        // the partition log's element: the record, the seq, and the blob
        // id with a sentinel for none, so the seq takes the bytes an
        // `Option<BlobId>` would spend on its tag
        let record_and_optional_blob = std::mem::size_of::<ProvRecord>()
            + std::mem::size_of::<Option<crate::warabi::BlobId>>();
        assert_eq!(std::mem::size_of::<crate::topic::Slot>(), record_and_optional_blob);
    }

    #[test]
    fn event_id_ordering_and_display() {
        let a = EventId { partition: 0, offset: 5 };
        let b = EventId { partition: 1, offset: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "0:5");
    }
}

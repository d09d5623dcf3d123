//! Events: a metadata part plus a raw data payload (paper §III-B:
//! "Each event has two parts. The first is a data portion that contains the
//! raw data payload. The second is metadata expressed in JSON format").
//!
//! Metadata is *logically* JSON but does not have to exist as a JSON tree:
//! provenance records produced by the WMS plugins travel as typed
//! [`ProvRecord`]s, and are only rendered to JSON at export/replay
//! boundaries. Generic producers (tests, ad-hoc tooling) still push plain
//! [`serde_json::Value`] metadata.
//!
//! A typed record lives *inline* in its [`Metadata`] — in the producer's
//! buffer, in the partition log, in whatever a consumer copies out — so a
//! partition is one contiguous run of records, not of pointers to them,
//! and moving an event is a `memcpy`. What a clone costs depends on the
//! family: every provenance record is plain data except
//! `TaskMetaEvent::deps` (a `Vec`) and `LogEntry::message` (a `String`),
//! so only those two allocate; the other seven families copy ~90 bytes.
//! Consumers that only look ([`crate::topic::Topic::visit`]) clone nothing.

use bytes::Bytes;
use dtf_core::events::ProvRecord;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a stored event: partition number and offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventId {
    pub partition: u32,
    pub offset: u64,
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.partition, self.offset)
    }
}

/// Event metadata: either a generic JSON tree or a typed provenance record.
/// Both render to the same JSON text; the typed form skips building the
/// tree entirely.
#[derive(Debug, Clone)]
pub enum Metadata {
    /// Generic JSON metadata (tests, tooling, non-provenance producers).
    Json(serde_json::Value),
    /// A typed provenance record, held by value: it moves through producer
    /// buffers and partition logs without indirection or re-serialization.
    Typed(ProvRecord),
}

static NULL: serde_json::Value = serde_json::Value::Null;

impl Metadata {
    /// Render to a JSON tree. The lazy-render boundary — only export,
    /// archives, and generic consumers pay this.
    pub fn to_value(&self) -> serde_json::Value {
        match self {
            Metadata::Json(v) => v.clone(),
            Metadata::Typed(rec) => rec.to_value(),
        }
    }

    /// The JSON tree, if this metadata is the generic form.
    pub fn as_json(&self) -> Option<&serde_json::Value> {
        match self {
            Metadata::Json(v) => Some(v),
            Metadata::Typed(_) => None,
        }
    }

    /// The typed record, if this metadata is the typed form.
    pub fn as_record(&self) -> Option<&ProvRecord> {
        match self {
            Metadata::Json(_) => None,
            Metadata::Typed(rec) => Some(rec),
        }
    }

    /// Exact byte length of the compact JSON rendering, without rendering:
    /// typed records compute it arithmetically, JSON trees stream into a
    /// counting sink.
    pub fn encoded_size(&self) -> usize {
        match self {
            Metadata::Json(v) => serde_json::encoded_size(v),
            Metadata::Typed(rec) => rec.encoded_size(),
        }
    }

    /// Field lookup on generic JSON metadata. Typed records expose their
    /// routing key structurally (see [`ProvRecord::task_key`]) rather than
    /// by name, so this returns `None` for them.
    pub fn get(&self, field: &str) -> Option<&serde_json::Value> {
        match self {
            Metadata::Json(v) => v.get(field),
            Metadata::Typed(_) => None,
        }
    }
}

/// `metadata["field"]` sugar, matching `Value` indexing: missing fields
/// (and any field of typed metadata) index to `Null`.
impl std::ops::Index<&str> for Metadata {
    type Output = serde_json::Value;

    fn index(&self, field: &str) -> &serde_json::Value {
        match self {
            Metadata::Json(v) => &v[field],
            Metadata::Typed(_) => &NULL,
        }
    }
}

impl PartialEq for Metadata {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Metadata::Json(a), Metadata::Json(b)) => a == b,
            (Metadata::Typed(a), Metadata::Typed(b)) => a == b,
            // mixed forms compare by their common JSON rendering
            (a, b) => a.to_value() == b.to_value(),
        }
    }
}

impl PartialEq<serde_json::Value> for Metadata {
    fn eq(&self, other: &serde_json::Value) -> bool {
        match self {
            Metadata::Json(v) => v == other,
            Metadata::Typed(rec) => rec.to_value() == *other,
        }
    }
}

impl From<serde_json::Value> for Metadata {
    fn from(v: serde_json::Value) -> Self {
        Metadata::Json(v)
    }
}

impl From<ProvRecord> for Metadata {
    fn from(rec: ProvRecord) -> Self {
        Metadata::Typed(rec)
    }
}

/// One event as produced/consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Metadata describing the payload (JSON tree or typed record).
    pub metadata: Metadata,
    /// Raw data payload (may be empty; provenance events typically carry
    /// everything in metadata).
    pub data: Bytes,
}

impl Event {
    pub fn new(metadata: impl Into<Metadata>, data: Bytes) -> Self {
        Self { metadata: metadata.into(), data }
    }

    /// Event with metadata only (the common case for provenance records).
    pub fn meta_only(metadata: impl Into<Metadata>) -> Self {
        Self { metadata: metadata.into(), data: Bytes::new() }
    }

    /// Metadata-only event carrying a typed provenance record.
    pub fn typed(record: impl Into<ProvRecord>) -> Self {
        Self::meta_only(record.into())
    }

    /// Serialize any `Serialize` value into a metadata-only event. The
    /// eager-JSON path — prefer [`Event::typed`] for provenance records.
    pub fn from_serializable<T: Serialize>(value: &T) -> Result<Self, serde_json::Error> {
        Ok(Self::meta_only(serde_json::to_value(value)?))
    }

    /// Exact wire size of the event, bytes (metadata as compact JSON plus
    /// payload length). Used for batching thresholds and stats. Computed
    /// without serializing: typed records count arithmetically, JSON trees
    /// stream into a counting sink.
    pub fn wire_size(&self) -> usize {
        self.metadata.encoded_size() + self.data.len()
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
    pub(crate) fn copy_of(id: EventId, metadata: &Metadata, data: Bytes) -> Self {
        Self { id, event: Event { metadata: metadata.clone(), data } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{LogEntry, LogLevel, LogSource};
    use dtf_core::ids::ClientId;
    use dtf_core::time::Time;
    use serde_json::json;

    #[test]
    fn meta_only_has_empty_payload() {
        let e = Event::meta_only(json!({"k": 1}));
        assert!(e.data.is_empty());
        assert_eq!(e.metadata["k"], 1);
    }

    #[test]
    fn from_serializable_roundtrip() {
        #[derive(Serialize)]
        struct S {
            a: u32,
            b: String,
        }
        let e = Event::from_serializable(&S { a: 7, b: "x".into() }).unwrap();
        assert_eq!(e.metadata["a"], 7);
        assert_eq!(e.metadata["b"], "x");
    }

    #[test]
    fn wire_size_counts_both_parts() {
        let e = Event::new(json!({"k": "v"}), Bytes::from_static(b"12345"));
        // {"k":"v"} is 9 bytes + 5 payload
        assert_eq!(e.wire_size(), 14);
    }

    fn sample_record() -> LogEntry {
        LogEntry {
            time: Time(42),
            level: LogLevel::Info,
            source: LogSource::Client(ClientId(1)),
            message: String::from("hello \"quoted\" world"),
        }
    }

    #[test]
    fn wire_size_equals_rendered_json_length_for_both_forms() {
        let rec = sample_record();
        let rendered = serde_json::to_string(&rec).unwrap();
        let typed = Event::typed(rec.clone());
        assert_eq!(typed.wire_size(), rendered.len());
        let json = Event::meta_only(serde_json::to_value(&rec).unwrap());
        assert_eq!(json.wire_size(), rendered.len());
        // with a payload, both parts count
        let with_payload =
            Event::new(Metadata::from(ProvRecord::Log(rec)), Bytes::from_static(b"1234567"));
        assert_eq!(with_payload.wire_size(), rendered.len() + 7);
    }

    #[test]
    fn typed_and_json_metadata_compare_equal() {
        let rec = sample_record();
        let typed = Metadata::from(ProvRecord::Log(rec.clone()));
        let json = Metadata::Json(serde_json::to_value(&rec).unwrap());
        assert_eq!(typed, json);
        assert_eq!(typed, typed.to_value());
        assert_eq!(typed.as_record().unwrap().task_key(), None);
        assert!(json.as_json().is_some());
        // indexing typed metadata is Null, not a panic
        assert!(typed["message"].is_null());
        assert_eq!(json["time"], 42);
    }

    #[test]
    fn typed_metadata_holds_the_record_inline() {
        let rec = ProvRecord::Log(sample_record());
        let m = Metadata::from(rec.clone());
        assert_eq!(m.as_record(), Some(&rec));
        // no box: the metadata is the record plus (at most) a tag word, so
        // a `Vec` of them is one contiguous run of records
        let (meta, record) = (std::mem::size_of::<Metadata>(), std::mem::size_of::<ProvRecord>());
        assert!(meta <= record + 8, "{meta} bytes around a {record}-byte record");
    }

    #[test]
    fn event_id_ordering_and_display() {
        let a = EventId { partition: 0, offset: 5 };
        let b = EventId { partition: 1, offset: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "0:5");
    }
}

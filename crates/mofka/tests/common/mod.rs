//! Events the integration tests can recognise: a log line tagged
//! `(producer, seq)` in its `source` and `time`.
#![allow(dead_code)]

use dtf_core::events::{LogEntry, LogLevel, LogSource, ProvRecord};
use dtf_core::ids::ClientId;
use dtf_core::time::Time;
use dtf_mofka::Event;

pub fn tagged(producer: u32, seq: u64) -> Event {
    Event::typed(LogEntry {
        time: Time(seq),
        level: LogLevel::Info,
        source: LogSource::Client(ClientId(producer)),
        message: String::new(),
    })
}

/// The `(producer, seq)` a [`tagged`] event carries.
pub fn tag(event: &Event) -> (u32, u64) {
    match &event.record {
        ProvRecord::Log(LogEntry { time, source: LogSource::Client(c), .. }) => (c.0, time.0),
        other => panic!("not a tagged test event: {other:?}"),
    }
}

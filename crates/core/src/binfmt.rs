//! The binary at-rest codec: one [`Wire`] trait, and every document's
//! layout declared once.
//!
//! Every binary document — the nine [`ProvRecord`] families, a Darshan
//! `LogSet` with its counters and DXT records, the `run-meta` archive
//! document and the provenance chart in it, a topic's config, a group
//! cursor and the KV WAL record that stores them — is built from the field
//! types below: every durable byte of a store. Integers are LEB128
//! varints, strings are length-prefixed UTF-8, and decoding reads fields
//! straight off the borrowed slice into the typed value: no intermediate
//! value tree is ever built. Task prefixes are re-interned
//! ([`TaskPrefix::intern`], whose per-thread cache answers a repeated
//! spelling without the global table's lock), so a decoded key is the same
//! `Copy` handle, address and all, as a live one.
//!
//! **Layout = declaration order.** [`wire_struct!`](crate::wire_struct)
//! wraps a struct's definition and generates its [`Wire`] impl from the
//! field list, so the fields go on the wire in the order they are declared
//! and the struct's [`Wire::MIN_BYTES`] is the sum of its fields'. **Tags
//! live in the enum's table.** [`wire_enum!`](crate::wire_enum) declares
//! an enum from one table that gives each variant an explicit tag and,
//! for a closed vocabulary, its name; the enum, its `as_str` and its
//! `Wire` impl are generated from that table, so reordering a declaration
//! can never change the format.
//! The record family tags are [`ProvRecord`]'s table, and the `Location`
//! and `LogSource` unions' tags theirs. Both macros are exported, so
//! dtf-store's `KvRecord` and dtf-mofka's `TopicConfig` are declared the
//! same way.
//!
//! ```text
//! varint          := LEB128, 1–10 bytes, always minimal
//! u64 u32 usize Time Dur and the id newtypes := varint
//! f64             := to_bits() as 8 bytes, little-endian
//! bool            := 0x00 | 0x01
//! String          := varint(len) utf8-bytes
//! Bytes           := varint(len) bytes
//! TaskKey         := str(prefix) varint(token) varint(index)
//! WorkerId        := varint(node) varint(slot)
//! Option<T>       := 0x00 | 0x01 T
//! Vec<T>          := varint(n) T^n
//! BTreeMap<K, V>  := varint(n) (K V)^n, keys strictly increasing
//! [T; N]          := T^N
//! (A, B)          := A B
//! closed enum     := tag:u8
//! record          := family:u8 fields…
//! location        := 0x00 | 0x01 worker
//! source          := 0x00 | 0x01 varint(client) | 0x02 worker
//! kv record       := 0x00 str(key) bytes(value) | 0x01 str(key)
//! topic config    := varint(partitions)
//! group cursor    := varint(next offset)
//! chart           := hardware system job wms-config varint(code hash) str(workflow)
//! ```
//!
//! Family tags, enum tags and field order are frozen by the byte pins in
//! the root `tests/codec_pins.rs` and by the mixed-version store tests:
//! changing any of them is a format break and needs a new segment-header
//! format version.
//!
//! A document is **not** self-delimiting at the stream level (the
//! segmented log's length frames provide that); [`decode`] therefore
//! demands that the value consume the slice exactly — trailing bytes are
//! corruption, not padding. Every count is checked against the bytes left
//! before anything is reserved, and every varint a [`Reader`] accepts is
//! minimal (no redundant trailing zero byte), so an accepted value
//! re-encodes to exactly the bytes it was read from.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]

use std::collections::BTreeMap;
use std::fmt::Display;

use bytes::Bytes;

use crate::error::{DtfError, Result};
use crate::events::ProvRecord;
use crate::ids::{ClientId, FileId, GraphId, NodeId, RunId, TaskPrefix, ThreadId};
use crate::time::{Dur, Time};

fn bad(what: impl Into<String>) -> DtfError {
    DtfError::Serde(format!("binary record: {}", what.into()))
}

/// A value with a binary encoding. [`Wire::get`] reads exactly what
/// [`Wire::put`] writes, and whatever it accepts re-encodes to the bytes it
/// was read from.
pub trait Wire: Sized {
    /// The fewest bytes any value's encoding takes: what a count of these
    /// values is checked against before anything is reserved.
    const MIN_BYTES: usize;

    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value at the reader's position.
    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

/// `value`'s encoding, in a buffer of its own.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode one `T` that must fill `buf` exactly.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T> {
    let mut r = Reader::new(buf);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------- writing

/// Append `v` as a LEB128 varint (1–10 bytes, always minimal).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `s` as `varint(len) utf8-bytes`.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------- reading

/// A bounds-checked cursor over one encoded value. All reads borrow from
/// the slice the caller holds (for replay: the whole-segment buffer) — the
/// only allocations a decode performs are the owned `String`/`Vec` fields
/// of the value itself, and interned prefixes don't even pay that. No read
/// ever indexes past the slice or allocates from an unchecked length.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| bad("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(bad("varint overflows u64"));
            }
            if byte == 0 && shift > 0 {
                // the writer never emits one: accepting it would let two
                // byte strings decode to the same value
                return Err(bad("varint has a redundant trailing zero byte"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(bad("varint longer than 10 bytes"));
            }
        }
    }

    /// An element count, checked against the bytes left before the caller
    /// reserves anything: `n` elements of at least `min_bytes` encoded
    /// bytes each cannot be in fewer than `n * min_bytes` remaining bytes.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes.max(1)) as u64 {
            return Err(bad(format!("count {n} exceeds the {} bytes left", self.remaining())));
        }
        Ok(n as usize)
    }

    /// `varint(len)` then that many raw bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        let end = usize::try_from(len).ok().and_then(|len| self.pos.checked_add(len));
        let bytes = end
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| bad("length exceeds the bytes left"))?;
        self.pos += bytes.len();
        Ok(bytes)
    }

    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| bad("string is not utf-8"))
    }

    /// The value must consume its slice exactly; trailing bytes mean the
    /// frame length and the value disagree — corruption.
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

// ------------------------------------------------------------ field types

impl Wire for u64 {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.varint()
    }
}

impl Wire for u32 {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        u32::try_from(r.varint()?).map_err(|_| bad("varint overflows u32"))
    }
}

/// A varint like `u64`; a value that does not fit this host's `usize` is
/// refused, not truncated.
impl Wire for usize {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        usize::try_from(r.varint()?).map_err(|_| bad("varint overflows usize"))
    }
}

/// Fixed width, so every bit pattern — NaN payloads included — reads back
/// as the bytes it was written from.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let mut bits = [0; 8];
        for b in &mut bits {
            *b = r.u8()?;
        }
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    /// A `0x00`/`0x01` byte; anything else is corruption.
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad(format!("unknown bool byte {t}"))),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.str()?.to_owned())
    }
}

/// Raw bytes, with a length like a string's: `varint(len) bytes`.
impl Wire for Bytes {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Bytes::copy_from_slice(r.bytes()?))
    }
}

impl Wire for TaskPrefix {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self.as_str());
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TaskPrefix::intern(r.str()?))
    }
}

/// Newtypes over an integer encode as that integer.
macro_rules! newtype_wire {
    ($($newtype:ident($inner:ty)),* $(,)?) => {$(
        impl Wire for $newtype {
            const MIN_BYTES: usize = 1;

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                <$inner>::get(r).map(Self)
            }
        }
    )*};
}

newtype_wire!(
    Time(u64),
    Dur(u64),
    RunId(u32),
    GraphId(u32),
    NodeId(u32),
    ClientId(u32),
    ThreadId(u64),
    FileId(u64),
);

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            t => Err(bad(format!("unknown option tag {t}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Entries in key order, the only order [`Wire::put`] writes: a decoded
/// key must be greater than the one before it, so an accepted map
/// re-encodes to the same bytes.
impl<K: Wire + Ord + Display, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count(K::MIN_BYTES + V::MIN_BYTES)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::get(r)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(bad(format!("map key {k} out of order")));
            }
            let v = V::get(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

// ------------------------------------------------------ declaring layouts

/// Declares a struct and generates its [`Wire`] impl from the field list:
/// the fields go on the wire in declaration order, and `MIN_BYTES` is the
/// sum of the fields' minimums.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$field_attr:meta])* $vis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$field_attr])* $vis $field: $ty),*
        }

        impl $crate::binfmt::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::binfmt::Wire>::MIN_BYTES)*;

            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::binfmt::Wire::put(&self.$field, out);)*
            }

            #[inline]
            fn get(r: &mut $crate::binfmt::Reader<'_>) -> $crate::Result<Self> {
                ::std::result::Result::Ok(Self { $($field: $crate::binfmt::Wire::get(r)?),* })
            }
        }
    };
}

/// Declares an enum from one table that gives each variant an explicit
/// one-byte tag and, for a closed vocabulary of names, its name; the enum,
/// `as_str` (when named) and the [`Wire`] impl are generated from it. A
/// variant may carry payload fields, written `Variant(binding: Type, …)`,
/// which go on the wire after the tag in the order they are listed. The
/// quoted word after the enum's name is what an unknown tag is reported as.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        pub enum $name:ident($what:literal) {
            $($(#[$variant_attr:meta])* $variant:ident = $tag:literal => $text:literal),* $(,)?
        }
    ) => {
        $crate::wire_enum! {
            $(#[$attr])*
            pub enum $name($what) { $($(#[$variant_attr])* $variant = $tag),* }
        }

        impl $name {
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Self::$variant => $text),*
                }
            }
        }
    };
    (
        $(#[$attr:meta])*
        pub enum $name:ident($what:literal) {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident $(($($bind:ident: $payload:ty),+))? = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub enum $name {
            $($(#[$variant_attr])* $variant $(($($payload),+))?),*
        }

        impl $crate::binfmt::Wire for $name {
            const MIN_BYTES: usize = 1 + $crate::binfmt::min_of(&[
                $(0 $($(+ <$payload as $crate::binfmt::Wire>::MIN_BYTES)+)?),*
            ]);

            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $(Self::$variant $(($($bind),+))? => {
                        out.push($tag);
                        $($($crate::binfmt::Wire::put($bind, out);)+)?
                    })*
                }
            }

            #[inline]
            fn get(r: &mut $crate::binfmt::Reader<'_>) -> $crate::Result<Self> {
                match r.u8()? {
                    $($tag => ::std::result::Result::Ok(Self::$variant $((
                        $(<$payload as $crate::binfmt::Wire>::get(r)?),+
                    ))?),)*
                    t => ::std::result::Result::Err($crate::binfmt::unknown($what, t)),
                }
            }
        }
    };
}

/// The smallest of `sizes`: an enum's smallest variant.
#[doc(hidden)]
pub const fn min_of(mut sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    while let [first, rest @ ..] = sizes {
        if *first < min {
            min = *first;
        }
        sizes = rest;
    }
    min
}

/// The error an unknown tag of the vocabulary `what` raises.
#[doc(hidden)]
pub fn unknown(what: &str, tag: u8) -> DtfError {
    bad(format!("unknown {what} {tag}"))
}

// ---------------------------------------------------------------- records

impl ProvRecord {
    /// Append the binary encoding of this record to `out`.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Decode one record from `buf`, which must hold exactly one encoded
    /// record (the frame length of the surrounding log delimits it).
    /// Prefixes are re-interned, so decoded keys share allocations the
    /// same way live keys do.
    pub fn decode_binary(buf: &[u8]) -> Result<ProvRecord> {
        decode(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{
        CommEvent, IoOp, IoRecord, Location, LogEntry, LogLevel, LogSource, ProxyAction,
        ProxyEvent, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent,
        WarningEvent, WarningKind, WorkerTaskState, WorkerTransitionEvent,
    };
    use crate::ids::{TaskKey, WorkerId};

    fn bin(rec: &ProvRecord) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_binary(&mut out);
        out
    }

    fn key() -> TaskKey {
        TaskKey::new("inc", 1, 0)
    }

    /// One record of every family with awkward values — the same fixture
    /// shape the JSON wire-size tests pin.
    fn samples() -> Vec<ProvRecord> {
        let w = WorkerId::new(NodeId(12), 3);
        let w2 = WorkerId::new(NodeId(0), 0);
        vec![
            ProvRecord::TaskMeta(TaskMetaEvent {
                key: TaskKey::new("load-image", 42, 1000),
                graph: GraphId(7),
                client: ClientId(3),
                deps: vec![key(), TaskKey::new("sum", 0, 99)],
                submitted: Time(1_234_567_890),
            }),
            ProvRecord::TaskMeta(TaskMetaEvent {
                key: key(),
                graph: GraphId(0),
                client: ClientId(0),
                deps: vec![],
                submitted: Time(0),
            }),
            ProvRecord::Transition(TransitionEvent {
                key: key(),
                graph: GraphId(2),
                from: TaskState::NoWorker,
                to: TaskState::Processing,
                stimulus: Stimulus::Dispatched,
                location: Location::Worker(w),
                time: Time(u64::MAX),
            }),
            ProvRecord::WorkerTransition(WorkerTransitionEvent {
                key: key(),
                graph: GraphId(1),
                worker: w,
                from: WorkerTaskState::Ready,
                to: WorkerTaskState::Executing,
                time: Time(456),
            }),
            ProvRecord::TaskDone(TaskDoneEvent {
                key: key(),
                graph: GraphId(1),
                worker: w,
                thread: ThreadId(777),
                start: Time(10),
                stop: Time(20),
                nbytes: 1 << 40,
            }),
            ProvRecord::Comm(CommEvent {
                key: key(),
                from: w,
                to: w2,
                nbytes: 0,
                start: Time(5),
                stop: Time(6),
            }),
            ProvRecord::Warning(WarningEvent {
                kind: WarningKind::GcPause,
                worker: None,
                time: Time(9),
                duration: Dur(0),
            }),
            ProvRecord::Warning(WarningEvent {
                kind: WarningKind::UnresponsiveEventLoop,
                worker: Some(w),
                time: Time(9),
                duration: Dur(100),
            }),
            ProvRecord::Log(LogEntry {
                time: Time(77),
                level: LogLevel::Warning,
                source: LogSource::Client(ClientId(4)),
                message: String::from("odd \"quoted\"\npath\\x\t\u{1} π"),
            }),
            ProvRecord::Log(LogEntry {
                time: Time(78),
                level: LogLevel::Info,
                source: LogSource::Scheduler,
                message: String::new(),
            }),
            ProvRecord::Io(IoRecord {
                host: NodeId(3),
                worker: w,
                thread: ThreadId(7),
                file: FileId(12),
                op: IoOp::Write,
                offset: 65536,
                size: 4096,
                start: Time(100),
                stop: Time(200),
            }),
            ProvRecord::Proxy(ProxyEvent {
                action: ProxyAction::Published,
                key: TaskKey::new("load-image", 42, 1000),
                graph: GraphId(7),
                size: 1 << 28,
                owner: w,
                checksum: u64::MAX,
                generation: 0,
                worker: None,
                time: Time(314),
            }),
            ProvRecord::Proxy(ProxyEvent {
                action: ProxyAction::Resolved,
                key: key(),
                graph: GraphId(0),
                size: 0,
                owner: w2,
                checksum: 0,
                generation: 12,
                worker: Some(w),
                time: Time(u64::MAX),
            }),
        ]
    }

    #[test]
    fn every_family_roundtrips_exactly() {
        for rec in samples() {
            let bytes = bin(&rec);
            let back = ProvRecord::decode_binary(&bytes).unwrap();
            assert_eq!(rec, back, "round-trip diverged for {rec:?}");
            // and the JSON rendering (the export boundary) agrees too
            assert_eq!(rec.to_value(), back.to_value());
        }
    }

    #[test]
    fn binary_is_smaller_than_json() {
        for rec in samples() {
            let bin = bin(&rec).len();
            let json = serde_json::to_vec(&rec).unwrap().len();
            assert!(bin < json, "binary ({bin}B) not smaller than JSON ({json}B) for {rec:?}");
        }
    }

    #[test]
    fn decoded_prefixes_are_interned() {
        let rec = ProvRecord::TaskDone(TaskDoneEvent {
            key: TaskKey::new("intern-check", 5, 6),
            graph: GraphId(1),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(1),
            start: Time(0),
            stop: Time(1),
            nbytes: 0,
        });
        let back = ProvRecord::decode_binary(&bin(&rec)).unwrap();
        let (a, b) = match (&rec, &back) {
            (ProvRecord::TaskDone(a), ProvRecord::TaskDone(b)) => (&a.key.prefix, &b.key.prefix),
            _ => unreachable!(),
        };
        assert_eq!(a, b);
        // pointer-equal through the global intern table, not just equal
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn truncation_at_every_byte_is_an_error_never_a_panic() {
        for rec in samples() {
            let bytes = bin(&rec);
            for cut in 0..bytes.len() {
                assert!(
                    ProvRecord::decode_binary(&bytes[..cut]).is_err(),
                    "truncating {rec:?} at byte {cut} decoded to something"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = bin(&samples()[0]);
        bytes.push(0);
        assert!(ProvRecord::decode_binary(&bytes).is_err());
    }

    #[test]
    fn garbage_tags_are_rejected() {
        assert!(ProvRecord::decode_binary(&[]).is_err());
        assert!(ProvRecord::decode_binary(&[0xff]).is_err());
        // a valid record with its family tag corrupted
        let mut bytes = bin(&samples()[2]);
        bytes[0] = 200;
        assert!(ProvRecord::decode_binary(&bytes).is_err());
        // a Transition with an out-of-range state byte
        let mut bytes = bin(&samples()[2]);
        // offset math: ...from,to,stimulus,loc-tag,worker(2),time(10)
        let state_off = bytes.len() - 11;
        // corrupting any single mid-record byte must never panic
        for off in 1..bytes.len() {
            let mut b = bytes.clone();
            b[off] = 0xee;
            let _ = ProvRecord::decode_binary(&b);
        }
        bytes[state_off] = 99;
        let _ = ProvRecord::decode_binary(&bytes);
    }

    #[test]
    fn oversized_length_fields_error_without_allocating() {
        // a TaskMeta whose dep count claims u64::MAX entries
        let mut out = vec![0]; // TaskMeta
        put_str(&mut out, "x");
        put_varint(&mut out, 0); // token
        put_varint(&mut out, 0); // index
        put_varint(&mut out, 0); // graph
        put_varint(&mut out, 0); // client
        put_varint(&mut out, u64::MAX); // dep count
        assert!(ProvRecord::decode_binary(&out).is_err());
        // a Log whose message length exceeds the buffer
        let mut out = vec![6]; // Log
        put_varint(&mut out, 0); // time
        out.push(0); // level
        out.push(0); // source: scheduler
        put_varint(&mut out, u64::MAX); // message length
        assert!(ProvRecord::decode_binary(&out).is_err());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut out = Vec::new();
        put_varint(&mut out, 1 << 40);
        out.extend_from_slice(&[0; 16]);
        assert!(Reader::new(&out).count(1).is_err());
        let mut out = Vec::new();
        put_varint(&mut out, 4);
        out.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&out).count(2).unwrap(), 4);
        assert!(Reader::new(&out).count(3).is_err());
    }

    #[test]
    fn varints_roundtrip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        // a non-minimal spelling of 0 or 1 (redundant trailing zero byte)
        // is rejected: every accepted varint re-encodes to its own bytes
        for padded in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00], &[0x80, 0x80, 0x80, 0x00]] {
            assert!(Reader::new(padded).varint().is_err(), "{padded:?}");
        }
        // an 11-byte varint is rejected
        let mut r = Reader::new(&[0x80; 11]);
        assert!(r.varint().is_err());
        // a 10-byte varint whose top byte overflows bit 64 is rejected
        let mut over = vec![0xff; 9];
        over.push(0x02);
        let mut r = Reader::new(&over);
        assert!(r.varint().is_err());
    }
}

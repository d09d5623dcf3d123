//! The binary at-rest encoding of [`ProvRecord`]s.
//!
//! PR 5 persisted provenance records as compact JSON text inside the
//! segmented log, so every replay — recovery, topic restore,
//! `RunData::open_archive` — re-parsed a JSON tree per record. This module
//! is the compact alternative: a one-byte family tag followed by the
//! record's fields in declaration order, integers as LEB128 varints,
//! strings length-prefixed UTF-8. Decoding reads fields straight off the
//! borrowed slice into the typed record — no intermediate value tree is
//! ever built — and task prefixes are re-interned ([`TaskPrefix::intern`],
//! whose per-thread cache answers a repeated spelling without the global
//! table's lock), so a decoded key is the same `Copy` handle, address and
//! all, as a live one.
//!
//! The encoding is **not** self-delimiting at the stream level (the
//! segmented log's length frames provide that); [`ProvRecord::decode_binary`]
//! therefore demands that the record consume the slice exactly — trailing
//! bytes are corruption, not padding.
//!
//! Layout reference (all multi-byte integers are LEB128 varints):
//!
//! ```text
//! record   := family:u8 fields…
//! key      := str(prefix) varint(token) varint(index)
//! worker   := varint(node) varint(slot)
//! str(s)   := varint(len) utf8-bytes
//! location := 0x00 | 0x01 worker
//! source   := 0x00 | 0x01 varint(client) | 0x02 worker
//! option   := 0x00 | 0x01 value
//! ```
//!
//! Family tags and per-family field order are frozen by the round-trip
//! proptests and by the mixed-version store tests: changing either is a
//! format break and needs a new segment-header format version.
//!
//! The field writers ([`put_varint`], [`put_str`], [`put_key`],
//! [`put_worker`], [`put_io_record`]) and the bounds-checked [`Reader`]
//! are public so the other binary documents — a Darshan `LogSet`, the
//! `run-meta` archive document, proxy manifests — are built from the same
//! pieces instead of re-implementing them. Every varint a [`Reader`]
//! accepts is minimal (no redundant trailing zero byte), so an accepted
//! value re-encodes to exactly the bytes it was read from.

use crate::error::{DtfError, Result};
use crate::events::{
    CommEvent, IoOp, IoRecord, Location, LogEntry, LogLevel, LogSource, ProvRecord, ProxyAction,
    ProxyEvent, Stimulus, TaskDoneEvent, TaskMetaEvent, TaskState, TransitionEvent, WarningEvent,
    WarningKind, WorkerTaskState, WorkerTransitionEvent,
};
use crate::ids::{ClientId, FileId, GraphId, NodeId, TaskKey, TaskPrefix, ThreadId, WorkerId};
use crate::time::{Dur, Time};

/// One-byte family tags — the first byte of every encoded record.
pub const TAG_TASK_META: u8 = 0;
pub const TAG_TRANSITION: u8 = 1;
pub const TAG_WORKER_TRANSITION: u8 = 2;
pub const TAG_TASK_DONE: u8 = 3;
pub const TAG_COMM: u8 = 4;
pub const TAG_WARNING: u8 = 5;
pub const TAG_LOG: u8 = 6;
pub const TAG_IO: u8 = 7;
/// Appended by PR 10 (proxy data plane); pre-proxy stores simply never
/// contain it, so old segments keep decoding unchanged.
pub const TAG_PROXY: u8 = 8;

fn bad(what: impl Into<String>) -> DtfError {
    DtfError::Serde(format!("binary record: {}", what.into()))
}

// ---------------------------------------------------------------- writing

/// Append `v` as a LEB128 varint (1–10 bytes, always minimal).
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
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a task key as `str(prefix) varint(token) varint(index)`.
pub fn put_key(out: &mut Vec<u8>, k: &TaskKey) {
    put_str(out, k.prefix.as_str());
    put_varint(out, k.token as u64);
    put_varint(out, k.index as u64);
}

/// Append a worker address as `varint(node) varint(slot)`.
pub fn put_worker(out: &mut Vec<u8>, w: &WorkerId) {
    put_varint(out, w.node.0 as u64);
    put_varint(out, w.slot as u64);
}

/// Append an [`IoRecord`]'s fields (everything after the `Io` family tag)
/// — the frozen layout DXT traces reuse.
pub fn put_io_record(out: &mut Vec<u8>, e: &IoRecord) {
    put_varint(out, e.host.0 as u64);
    put_worker(out, &e.worker);
    put_varint(out, e.thread.0);
    put_varint(out, e.file.0);
    out.push(io_op_tag(e.op));
    put_varint(out, e.offset);
    put_varint(out, e.size);
    put_varint(out, e.start.0);
    put_varint(out, e.stop.0);
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
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| bad("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// A `0x00`/`0x01` byte; anything else is corruption.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad(format!("unknown bool byte {t}"))),
        }
    }

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

    pub fn varint_u32(&mut self) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| bad("varint overflows u32"))
    }

    /// An element count, checked against the bytes left before the caller
    /// reserves anything: `n` elements of at least `min_bytes` encoded
    /// bytes each cannot be in fewer than `n * min_bytes` remaining bytes.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes.max(1)) as u64 {
            return Err(bad(format!("count {n} exceeds the {} bytes left", self.remaining())));
        }
        Ok(n as usize)
    }

    /// `varint(len)` then that many raw bytes, borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(bad("length exceeds the bytes left"));
        }
        let start = self.pos;
        self.pos += len as usize;
        Ok(&self.buf[start..self.pos])
    }

    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| bad("string is not utf-8"))
    }

    pub fn key(&mut self) -> Result<TaskKey> {
        let prefix = TaskPrefix::intern(self.str()?);
        let token = self.varint_u32()?;
        let index = self.varint_u32()?;
        Ok(TaskKey { prefix, token, index })
    }

    pub fn worker(&mut self) -> Result<WorkerId> {
        let node = NodeId(self.varint_u32()?);
        let slot = self.varint_u32()?;
        Ok(WorkerId { node, slot })
    }

    /// The fields [`put_io_record`] writes.
    pub fn io_record(&mut self) -> Result<IoRecord> {
        Ok(IoRecord {
            host: NodeId(self.varint_u32()?),
            worker: self.worker()?,
            thread: ThreadId(self.varint()?),
            file: FileId(self.varint()?),
            op: io_op_from(self.u8()?)?,
            offset: self.varint()?,
            size: self.varint()?,
            start: Time(self.varint()?),
            stop: Time(self.varint()?),
        })
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

// ------------------------------------------------------- enum discriminants

fn task_state_tag(s: TaskState) -> u8 {
    match s {
        TaskState::Released => 0,
        TaskState::Waiting => 1,
        TaskState::NoWorker => 2,
        TaskState::Queued => 3,
        TaskState::Processing => 4,
        TaskState::Memory => 5,
        TaskState::Erred => 6,
        TaskState::Forgotten => 7,
    }
}

fn task_state_from(b: u8) -> Result<TaskState> {
    Ok(match b {
        0 => TaskState::Released,
        1 => TaskState::Waiting,
        2 => TaskState::NoWorker,
        3 => TaskState::Queued,
        4 => TaskState::Processing,
        5 => TaskState::Memory,
        6 => TaskState::Erred,
        7 => TaskState::Forgotten,
        t => return Err(bad(format!("unknown task state {t}"))),
    })
}

fn worker_state_tag(s: WorkerTaskState) -> u8 {
    match s {
        WorkerTaskState::Waiting => 0,
        WorkerTaskState::Fetch => 1,
        WorkerTaskState::Flight => 2,
        WorkerTaskState::Ready => 3,
        WorkerTaskState::Executing => 4,
        WorkerTaskState::Memory => 5,
        WorkerTaskState::Error => 6,
        WorkerTaskState::Released => 7,
    }
}

fn worker_state_from(b: u8) -> Result<WorkerTaskState> {
    Ok(match b {
        0 => WorkerTaskState::Waiting,
        1 => WorkerTaskState::Fetch,
        2 => WorkerTaskState::Flight,
        3 => WorkerTaskState::Ready,
        4 => WorkerTaskState::Executing,
        5 => WorkerTaskState::Memory,
        6 => WorkerTaskState::Error,
        7 => WorkerTaskState::Released,
        t => return Err(bad(format!("unknown worker task state {t}"))),
    })
}

fn stimulus_tag(s: Stimulus) -> u8 {
    match s {
        Stimulus::GraphSubmitted => 0,
        Stimulus::DependenciesMet => 1,
        Stimulus::Dispatched => 2,
        Stimulus::ComputeStarted => 3,
        Stimulus::ComputeFinished => 4,
        Stimulus::ComputeErred => 5,
        Stimulus::WorkStolen => 6,
        Stimulus::WorkerLost => 7,
        Stimulus::ClientReleased => 8,
        Stimulus::NoWorkerAvailable => 9,
        Stimulus::Queue => 10,
    }
}

fn stimulus_from(b: u8) -> Result<Stimulus> {
    Ok(match b {
        0 => Stimulus::GraphSubmitted,
        1 => Stimulus::DependenciesMet,
        2 => Stimulus::Dispatched,
        3 => Stimulus::ComputeStarted,
        4 => Stimulus::ComputeFinished,
        5 => Stimulus::ComputeErred,
        6 => Stimulus::WorkStolen,
        7 => Stimulus::WorkerLost,
        8 => Stimulus::ClientReleased,
        9 => Stimulus::NoWorkerAvailable,
        10 => Stimulus::Queue,
        t => return Err(bad(format!("unknown stimulus {t}"))),
    })
}

fn io_op_tag(op: IoOp) -> u8 {
    match op {
        IoOp::Open => 0,
        IoOp::Read => 1,
        IoOp::Write => 2,
        IoOp::Close => 3,
    }
}

fn io_op_from(b: u8) -> Result<IoOp> {
    Ok(match b {
        0 => IoOp::Open,
        1 => IoOp::Read,
        2 => IoOp::Write,
        3 => IoOp::Close,
        t => return Err(bad(format!("unknown io op {t}"))),
    })
}

fn warning_kind_tag(k: WarningKind) -> u8 {
    match k {
        WarningKind::UnresponsiveEventLoop => 0,
        WarningKind::GcPause => 1,
    }
}

fn warning_kind_from(b: u8) -> Result<WarningKind> {
    Ok(match b {
        0 => WarningKind::UnresponsiveEventLoop,
        1 => WarningKind::GcPause,
        t => return Err(bad(format!("unknown warning kind {t}"))),
    })
}

fn log_level_tag(l: LogLevel) -> u8 {
    match l {
        LogLevel::Debug => 0,
        LogLevel::Info => 1,
        LogLevel::Warning => 2,
        LogLevel::Error => 3,
    }
}

fn log_level_from(b: u8) -> Result<LogLevel> {
    Ok(match b {
        0 => LogLevel::Debug,
        1 => LogLevel::Info,
        2 => LogLevel::Warning,
        3 => LogLevel::Error,
        t => return Err(bad(format!("unknown log level {t}"))),
    })
}

fn proxy_action_tag(a: ProxyAction) -> u8 {
    match a {
        ProxyAction::Published => 0,
        ProxyAction::Republished => 1,
        ProxyAction::Resolved => 2,
        ProxyAction::Evicted => 3,
        ProxyAction::Resourced => 4,
        ProxyAction::Orphaned => 5,
    }
}

fn proxy_action_from(b: u8) -> Result<ProxyAction> {
    Ok(match b {
        0 => ProxyAction::Published,
        1 => ProxyAction::Republished,
        2 => ProxyAction::Resolved,
        3 => ProxyAction::Evicted,
        4 => ProxyAction::Resourced,
        5 => ProxyAction::Orphaned,
        t => return Err(bad(format!("unknown proxy action {t}"))),
    })
}

// ---------------------------------------------------------------- records

impl ProvRecord {
    /// Append the binary encoding of this record to `out`.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            ProvRecord::TaskMeta(e) => {
                out.push(TAG_TASK_META);
                put_key(out, &e.key);
                put_varint(out, e.graph.0 as u64);
                put_varint(out, e.client.0 as u64);
                put_varint(out, e.deps.len() as u64);
                for d in &e.deps {
                    put_key(out, d);
                }
                put_varint(out, e.submitted.0);
            }
            ProvRecord::Transition(e) => {
                out.push(TAG_TRANSITION);
                put_key(out, &e.key);
                put_varint(out, e.graph.0 as u64);
                out.push(task_state_tag(e.from));
                out.push(task_state_tag(e.to));
                out.push(stimulus_tag(e.stimulus));
                match e.location {
                    Location::Scheduler => out.push(0),
                    Location::Worker(w) => {
                        out.push(1);
                        put_worker(out, &w);
                    }
                }
                put_varint(out, e.time.0);
            }
            ProvRecord::WorkerTransition(e) => {
                out.push(TAG_WORKER_TRANSITION);
                put_key(out, &e.key);
                put_varint(out, e.graph.0 as u64);
                put_worker(out, &e.worker);
                out.push(worker_state_tag(e.from));
                out.push(worker_state_tag(e.to));
                put_varint(out, e.time.0);
            }
            ProvRecord::TaskDone(e) => {
                out.push(TAG_TASK_DONE);
                put_key(out, &e.key);
                put_varint(out, e.graph.0 as u64);
                put_worker(out, &e.worker);
                put_varint(out, e.thread.0);
                put_varint(out, e.start.0);
                put_varint(out, e.stop.0);
                put_varint(out, e.nbytes);
            }
            ProvRecord::Comm(e) => {
                out.push(TAG_COMM);
                put_key(out, &e.key);
                put_worker(out, &e.from);
                put_worker(out, &e.to);
                put_varint(out, e.nbytes);
                put_varint(out, e.start.0);
                put_varint(out, e.stop.0);
            }
            ProvRecord::Warning(e) => {
                out.push(TAG_WARNING);
                out.push(warning_kind_tag(e.kind));
                match &e.worker {
                    None => out.push(0),
                    Some(w) => {
                        out.push(1);
                        put_worker(out, w);
                    }
                }
                put_varint(out, e.time.0);
                put_varint(out, e.duration.0);
            }
            ProvRecord::Log(e) => {
                out.push(TAG_LOG);
                put_varint(out, e.time.0);
                out.push(log_level_tag(e.level));
                match &e.source {
                    LogSource::Scheduler => out.push(0),
                    LogSource::Client(c) => {
                        out.push(1);
                        put_varint(out, c.0 as u64);
                    }
                    LogSource::Worker(w) => {
                        out.push(2);
                        put_worker(out, w);
                    }
                }
                put_str(out, &e.message);
            }
            ProvRecord::Io(e) => {
                out.push(TAG_IO);
                put_io_record(out, e);
            }
            ProvRecord::Proxy(e) => {
                out.push(TAG_PROXY);
                out.push(proxy_action_tag(e.action));
                put_key(out, &e.key);
                put_varint(out, e.graph.0 as u64);
                put_varint(out, e.size);
                put_worker(out, &e.owner);
                put_varint(out, e.checksum);
                put_varint(out, e.generation as u64);
                match &e.worker {
                    None => out.push(0),
                    Some(w) => {
                        out.push(1);
                        put_worker(out, w);
                    }
                }
                put_varint(out, e.time.0);
            }
        }
    }

    /// Decode one record from `buf`, which must hold exactly one encoded
    /// record (the frame length of the surrounding log delimits it).
    /// Prefixes are re-interned, so decoded keys share allocations the
    /// same way live keys do.
    pub fn decode_binary(buf: &[u8]) -> Result<ProvRecord> {
        let mut r = Reader::new(buf);
        let rec = match r.u8()? {
            TAG_TASK_META => {
                let key = r.key()?;
                let graph = GraphId(r.varint_u32()?);
                let client = ClientId(r.varint_u32()?);
                // each dep is at least 3 bytes — checked before reserving
                let n = r.count(3)?;
                let mut deps = Vec::with_capacity(n);
                for _ in 0..n {
                    deps.push(r.key()?);
                }
                let submitted = Time(r.varint()?);
                ProvRecord::TaskMeta(TaskMetaEvent { key, graph, client, deps, submitted })
            }
            TAG_TRANSITION => ProvRecord::Transition(TransitionEvent {
                key: r.key()?,
                graph: GraphId(r.varint_u32()?),
                from: task_state_from(r.u8()?)?,
                to: task_state_from(r.u8()?)?,
                stimulus: stimulus_from(r.u8()?)?,
                location: match r.u8()? {
                    0 => Location::Scheduler,
                    1 => Location::Worker(r.worker()?),
                    t => return Err(bad(format!("unknown location tag {t}"))),
                },
                time: Time(r.varint()?),
            }),
            TAG_WORKER_TRANSITION => ProvRecord::WorkerTransition(WorkerTransitionEvent {
                key: r.key()?,
                graph: GraphId(r.varint_u32()?),
                worker: r.worker()?,
                from: worker_state_from(r.u8()?)?,
                to: worker_state_from(r.u8()?)?,
                time: Time(r.varint()?),
            }),
            TAG_TASK_DONE => ProvRecord::TaskDone(TaskDoneEvent {
                key: r.key()?,
                graph: GraphId(r.varint_u32()?),
                worker: r.worker()?,
                thread: ThreadId(r.varint()?),
                start: Time(r.varint()?),
                stop: Time(r.varint()?),
                nbytes: r.varint()?,
            }),
            TAG_COMM => ProvRecord::Comm(CommEvent {
                key: r.key()?,
                from: r.worker()?,
                to: r.worker()?,
                nbytes: r.varint()?,
                start: Time(r.varint()?),
                stop: Time(r.varint()?),
            }),
            TAG_WARNING => ProvRecord::Warning(WarningEvent {
                kind: warning_kind_from(r.u8()?)?,
                worker: match r.u8()? {
                    0 => None,
                    1 => Some(r.worker()?),
                    t => return Err(bad(format!("unknown option tag {t}"))),
                },
                time: Time(r.varint()?),
                duration: Dur(r.varint()?),
            }),
            TAG_LOG => ProvRecord::Log(LogEntry {
                time: Time(r.varint()?),
                level: log_level_from(r.u8()?)?,
                source: match r.u8()? {
                    0 => LogSource::Scheduler,
                    1 => LogSource::Client(ClientId(r.varint_u32()?)),
                    2 => LogSource::Worker(r.worker()?),
                    t => return Err(bad(format!("unknown log source tag {t}"))),
                },
                message: r.str()?.to_string(),
            }),
            TAG_IO => ProvRecord::Io(r.io_record()?),
            TAG_PROXY => ProvRecord::Proxy(ProxyEvent {
                action: proxy_action_from(r.u8()?)?,
                key: r.key()?,
                graph: GraphId(r.varint_u32()?),
                size: r.varint()?,
                owner: r.worker()?,
                checksum: r.varint()?,
                generation: r.varint_u32()?,
                worker: match r.u8()? {
                    0 => None,
                    1 => Some(r.worker()?),
                    t => return Err(bad(format!("unknown option tag {t}"))),
                },
                time: Time(r.varint()?),
            }),
            t => return Err(bad(format!("unknown family tag {t}"))),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut out = vec![TAG_TASK_META];
        put_str(&mut out, "x");
        put_varint(&mut out, 0); // token
        put_varint(&mut out, 0); // index
        put_varint(&mut out, 0); // graph
        put_varint(&mut out, 0); // client
        put_varint(&mut out, u64::MAX); // dep count
        assert!(ProvRecord::decode_binary(&out).is_err());
        // a Log whose message length exceeds the buffer
        let mut out = vec![TAG_LOG];
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

//! The per-process collection runtime and the instrumented PFS wrapper.
//!
//! Dask workers execute many tasks as threads of a single POSIX process
//! (paper §III-E3); Darshan instruments that process. [`DarshanRuntime`] is
//! the per-worker collector (counters + DXT under a lock, because task
//! threads record concurrently), and [`InstrumentedPfs`] is the preloaded
//! I/O path: every operation goes to the platform PFS for its cost and is
//! recorded with worker, thread id, and timestamps.

use parking_lot::Mutex;
use std::sync::Arc;

use rand::Rng;

use dtf_core::error::Result;
use dtf_core::events::{IoOp, IoRecord};
use dtf_core::ids::{FileId, ThreadId, WorkerId};
use dtf_core::time::{Dur, Time};
use dtf_platform::Pfs;

use crate::counters::PosixCounters;
use crate::dxt::{DxtConfig, DxtModule};
use crate::log::{DarshanLog, LogHeader};

/// Callback invoked for every recorded operation (the online-streaming
/// hook, paper §VI: "capturing Darshan records and pushing them to Mofka
/// at runtime to have a fully online system"). `FnMut` so the sink can own
/// mutable state outright — e.g. a batching Mofka producer — without an
/// inner lock; the runtime already serializes calls through its own mutex.
pub type IoSink = Box<dyn FnMut(&IoRecord) + Send>;

/// Per-worker-process Darshan collection state.
pub struct DarshanRuntime {
    worker: WorkerId,
    inner: Mutex<Modules>,
    sink: Mutex<Option<IoSink>>,
}

impl std::fmt::Debug for DarshanRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DarshanRuntime").field("worker", &self.worker).finish()
    }
}

#[derive(Debug)]
struct Modules {
    counters: PosixCounters,
    dxt: DxtModule,
    start: Option<Time>,
    end: Option<Time>,
}

impl DarshanRuntime {
    pub fn new(worker: WorkerId, dxt_cfg: DxtConfig) -> Self {
        Self {
            worker,
            inner: Mutex::new(Modules {
                counters: PosixCounters::new(),
                dxt: DxtModule::new(dxt_cfg),
                start: None,
                end: None,
            }),
            sink: Mutex::new(None),
        }
    }

    /// Attach an online sink: every subsequently recorded operation is also
    /// handed to `sink` immediately (bypassing DXT buffer limits), enabling
    /// in-situ streaming of I/O records.
    pub fn set_sink(&self, sink: IoSink) {
        *self.sink.lock() = Some(sink);
    }

    /// Detach (and drop) the online sink, flushing whatever the sink's
    /// destructor flushes (e.g. a buffered Mofka producer).
    pub fn clear_sink(&self) {
        *self.sink.lock() = None;
    }

    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Record one I/O operation into both modules (and the online sink,
    /// when attached).
    pub fn record(&self, rec: IoRecord) {
        debug_assert_eq!(rec.worker, self.worker, "record from wrong process");
        if let Some(sink) = self.sink.lock().as_mut() {
            sink(&rec);
        }
        let mut m = self.inner.lock();
        m.start = Some(m.start.map_or(rec.start, |t| t.min(rec.start)));
        m.end = Some(m.end.map_or(rec.stop, |t| t.max(rec.stop)));
        m.counters.record(&rec);
        m.dxt.push(rec);
    }

    /// Finalize at process shutdown: produce the log, consuming nothing
    /// (the runtime can keep collecting; real Darshan writes at exit, and
    /// the simulator finalizes once per run).
    pub fn finalize(&self, run: dtf_core::ids::RunId, job_id: u64) -> DarshanLog {
        let m = self.inner.lock();
        DarshanLog {
            header: LogHeader {
                run,
                job_id,
                worker: self.worker,
                hostname: self.worker.node.hostname(),
                start: m.start.unwrap_or(Time::ZERO),
                end: m.end.unwrap_or(Time::ZERO),
                dxt_truncated: m.dxt.truncated(),
                dxt_dropped: m.dxt.dropped(),
            },
            counters: m.counters.clone(),
            dxt: m.dxt.records().to_vec(),
        }
    }
}

/// The instrumented I/O path handed to task code: wraps the shared PFS,
/// charges each operation's cost, and records it under the calling
/// worker/thread. Cloneable; clones share the PFS and the per-worker
/// runtime.
#[derive(Debug, Clone)]
pub struct InstrumentedPfs {
    pfs: Arc<Mutex<Pfs>>,
    runtime: Arc<DarshanRuntime>,
}

impl InstrumentedPfs {
    pub fn new(pfs: Arc<Mutex<Pfs>>, runtime: Arc<DarshanRuntime>) -> Self {
        Self { pfs, runtime }
    }

    pub fn pfs(&self) -> &Arc<Mutex<Pfs>> {
        &self.pfs
    }

    #[allow(clippy::too_many_arguments)] // one parameter per IoRecord field
    fn record(
        &self,
        thread: ThreadId,
        file: FileId,
        op: IoOp,
        offset: u64,
        size: u64,
        now: Time,
        dur: Dur,
    ) {
        let worker = self.runtime.worker();
        self.runtime.record(IoRecord {
            host: worker.node,
            worker,
            thread,
            file,
            op,
            offset,
            size,
            start: now,
            stop: now + dur,
        });
    }

    /// Open `file` at time `now` on behalf of `thread`; returns the cost.
    pub fn open<R: Rng + ?Sized>(
        &self,
        thread: ThreadId,
        file: FileId,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let dur = self.pfs.lock().open(file, rng)?;
        self.record(thread, file, IoOp::Open, 0, 0, now, dur);
        Ok(dur)
    }

    pub fn close<R: Rng + ?Sized>(
        &self,
        thread: ThreadId,
        file: FileId,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let dur = self.pfs.lock().close(file, rng)?;
        self.record(thread, file, IoOp::Close, 0, 0, now, dur);
        Ok(dur)
    }

    pub fn read<R: Rng + ?Sized>(
        &self,
        thread: ThreadId,
        file: FileId,
        offset: u64,
        len: u64,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let dur = self.pfs.lock().read(file, offset, len, now, rng)?;
        self.record(thread, file, IoOp::Read, offset, len, now, dur);
        Ok(dur)
    }

    pub fn write<R: Rng + ?Sized>(
        &self,
        thread: ThreadId,
        file: FileId,
        offset: u64,
        len: u64,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let dur = self.pfs.lock().write(file, offset, len, now, rng)?;
        self.record(thread, file, IoOp::Write, offset, len, now, dur);
        Ok(dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{NodeId, RunId};
    use dtf_platform::{LoadProcess, PfsConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (InstrumentedPfs, Arc<DarshanRuntime>, FileId) {
        let mut pfs = Pfs::new(PfsConfig::default(), LoadProcess::none(1));
        let file = pfs.create("/data/x.parquet", 1 << 30, 4);
        let worker = WorkerId::new(NodeId(0), 0);
        let rt = Arc::new(DarshanRuntime::new(worker, DxtConfig::default()));
        (InstrumentedPfs::new(Arc::new(Mutex::new(pfs)), rt.clone()), rt, file)
    }

    #[test]
    fn operations_are_traced_with_thread_and_time() {
        let (io, rt, file) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let t0 = Time::from_secs_f64(10.0);
        let tid = ThreadId(0xabc);
        io.open(tid, file, t0, &mut rng).unwrap();
        let dur = io.read(tid, file, 0, 4 << 20, t0, &mut rng).unwrap();
        assert!(dur > Dur::ZERO);
        let log = rt.finalize(RunId(0), 1);
        assert_eq!(log.dxt.len(), 2);
        let read = &log.dxt[1];
        assert_eq!(read.op, IoOp::Read);
        assert_eq!(read.thread, tid);
        assert_eq!(read.start, t0);
        assert_eq!(read.stop, t0 + dur);
        assert_eq!(read.size, 4 << 20);
        assert_eq!(log.counters.totals().reads, 1);
        assert!(!log.header.dxt_truncated);
    }

    #[test]
    fn read_error_is_not_traced() {
        let (io, rt, file) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(io.read(ThreadId(1), file, 0, u64::MAX / 2, Time::ZERO, &mut rng).is_err());
        assert!(rt.finalize(RunId(0), 1).dxt.is_empty());
    }

    #[test]
    fn concurrent_task_threads_all_recorded() {
        let (io, rt, file) = setup();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let io = io.clone();
                std::thread::spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(t);
                    for i in 0..50 {
                        io.read(ThreadId(t), file, i * 4096, 4096, Time(i), &mut rng).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = rt.finalize(RunId(0), 1);
        assert_eq!(log.dxt.len(), 400);
        assert_eq!(log.counters.totals().reads, 400);
        // all 8 thread ids present
        let tids: std::collections::HashSet<u64> = log.dxt.iter().map(|r| r.thread.0).collect();
        assert_eq!(tids.len(), 8);
    }

    #[test]
    fn finalize_window_spans_all_ops() {
        let (io, rt, file) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        io.read(ThreadId(1), file, 0, 1024, Time::from_secs_f64(5.0), &mut rng).unwrap();
        io.read(ThreadId(1), file, 0, 1024, Time::from_secs_f64(2.0), &mut rng).unwrap();
        let log = rt.finalize(RunId(0), 1);
        assert_eq!(log.header.start, Time::from_secs_f64(2.0));
        assert!(log.header.end > Time::from_secs_f64(5.0));
    }
}

//! In-memory span recorder and the counting allocator behind the
//! `proc.alloc_*` metrics.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a crate's public function; nothing inside the crates is
//! instrumented. A disabled tracer costs one branch per call site, so the
//! end-to-end runs (`--trace 0`) share the workload code with the traced
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde_json::{json, Value};

/// What a span stands for. A layer's self time is its span minus its
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole cycle of the workload (a root span).
    Cycle,
    /// A call into a crate's public function.
    Call,
    /// A layer exercised alone after the cycles, on the events the
    /// workload's cycle carries; belongs to no cycle (`cycle` is 0).
    Replay,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Cycle => "cycle",
            Kind::Call => "call",
            Kind::Replay => "replay",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cycle: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Id of the cycle being recorded; 0 between cycles.
    cycle: u64,
    cycles: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cycle: 0,
            cycles: 0,
        }
    }

    /// Switch recording on or off between cycles (the traced run
    /// alternates traced and untraced cycles to measure its own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracer toggled inside a span");
        self.enabled = on;
    }

    fn record<R>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cycle: self.cycle,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Record a call into a crate's public function.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.record(name, Kind::Call, f)
    }

    /// Record a layer replayed alone, and return how long it took.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let started = Instant::now();
        let out = self.record(name, Kind::Replay, f);
        (out, started.elapsed().as_secs_f64())
    }

    /// Record one whole cycle; every span opened inside carries its id.
    pub fn cycle<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.cycles += 1;
        self.cycle = self.cycles;
        let out = self.record("cycle", Kind::Cycle, f);
        self.cycle = 0;
        out
    }

    /// Position in the span list, for [`Tracer::total_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Seconds spent in spans called `name` that were opened after `mark`.
    pub fn total_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..].iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// `(wall, wall no top-level call span covers)` of each traced cycle.
    pub fn cycle_walls(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for (id, root) in self.spans.iter().enumerate().filter(|(_, s)| s.kind == Kind::Cycle) {
            let covered: f64 =
                self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::secs).sum();
            out.push((root.secs(), (root.secs() - covered).max(0.0)));
        }
        out
    }

    /// Per call-span name inside cycles: `(calls, total seconds, self
    /// seconds)`. Self time is the span minus its direct children.
    pub fn cycle_calls(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        let calls =
            self.spans.iter().enumerate().filter(|(_, s)| s.kind == Kind::Call && s.cycle != 0);
        for (id, s) in calls {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child_time[id];
        }
        out
    }

    /// The whole trace as one JSON document (see README, "Reading
    /// trace.json").
    pub fn to_json(&self, header: Value) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "kind": s.kind.as_str(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "cycle": s.cycle,
                })
            })
            .collect();
        json!({ "header": header, "spans": spans })
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that only move while a traced
/// cycle is running. With counting off — every `--trace 0` run — the cost
/// over `System` is one relaxed load per allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    // forwarded so zeroed requests keep reaching `calloc`, as they would
    // without this wrapper
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Count allocations made by `f`: `(allocations, bytes requested)`.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - a0, ALLOC_BYTES.load(Ordering::Relaxed) - b0)
}

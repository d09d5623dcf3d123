//! The derived state of one run: everything the equivalence-gated views
//! (per-category statistics, per-worker utilization, phase totals) and
//! the task↔I/O join are computed from, and the only place they are.
//!
//! One accumulator per view — [`CategoryState`], [`BusyState`],
//! [`PhaseState`] — each pure (no Mofka, no I/O) and order-insensitive
//! *by construction*: counts, sums and sums of squares of integer
//! nanoseconds and bytes, integer minima and maxima, membership sets, and
//! busy time binned in integer units. Integer addition commutes, so
//! feeding the same multiset of events in any order, in any chunking,
//! leaves the same state and therefore the same answers, bit for bit. A
//! post-hoc kernel feeds its view's state a drained [`RunData`] once
//! (`of`); the live engine keeps all three in a [`RunState`] and feeds
//! them one event at a time ([`crate::live::LiveViews`]); that the two
//! agree is a property of addition, not of an ordering either side
//! maintains.
//!
//! ## The one join
//!
//! A Darshan DXT record belongs to the task that was executing on its
//! pthread at the instant the operation started (paper §III-E3).
//! [`ExecIndex::owner`] is that rule and its only implementation: of the
//! executions on thread `th` with `start <= t <= stop`, the *latest* in
//! `(start, stop, key)` order. An operation that starts exactly where one
//! execution stops and the next begins therefore belongs to the later
//! execution alone. The order is defined by the data — task keys compare
//! by spelling — never by arrival, partition or offset.
//! [`crate::views::RunViews::task_io`], the category view's I/O
//! attribution ([`RunState::join_io`]) and [`crate::lineage`] all ask it.

use std::collections::{BTreeMap, HashMap, HashSet};

use dtf_core::events::{CommEvent, IoOp, TaskDoneEvent};
use dtf_core::ids::{TaskKey, TaskPrefix, ThreadId, WorkerId};
use dtf_core::stats::Summary;
use dtf_core::time::{Dur, Time};
use dtf_darshan::log::LogSet;
use dtf_wms::RunData;

use crate::category::CategoryStats;
use crate::phases::PhaseSample;
use crate::utilization::WorkerUtilization;

/// Exact moments of a stream of `u64` samples: count, Σx, Σx², min, max.
///
/// Σx is exact for any stream that fits in memory (2⁶⁴ samples of 2⁶⁴).
/// Σx² is exact while it stays below 2¹²⁸ and **saturates** there instead
/// of wrapping or panicking — a million samples of 2⁵⁴ (208 days in
/// nanoseconds, 16 PiB in bytes) still fit. The variance is computed from
/// the integer identity `n·Σx² − (Σx)²` while both products fit `u128`,
/// which has no cancellation error however small the spread is against
/// the mean; past that range it falls back to the same formula in `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Moments {
    n: u64,
    sum: u128,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Default for Moments {
    fn default() -> Self {
        Self { n: 0, sum: 0, sum_sq: 0, min: u64::MAX, max: 0 }
    }
}

impl Moments {
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        self.sum += x as u128;
        // x² < 2¹²⁸ for every u64; only the running sum can reach the top
        self.sum_sq = self.sum_sq.saturating_add(x as u128 * x as u128);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The summary in units of `unit` samples (10⁹ to report nanoseconds
    /// as seconds, 1 to report bytes as bytes). Sample standard deviation
    /// (n − 1), like [`dtf_core::stats::Welford`]; all zeros when empty.
    pub fn summary(&self, unit: f64) -> Summary {
        if self.n == 0 {
            return Summary { count: 0, mean: 0.0, std: 0.0, min: 0.0, max: 0.0 };
        }
        let n = self.n as u128;
        let std = if self.n < 2 {
            0.0
        } else {
            let spread = match (n.checked_mul(self.sum_sq), self.sum.checked_mul(self.sum)) {
                (Some(a), Some(b)) => a.saturating_sub(b) as f64,
                _ => (n as f64 * self.sum_sq as f64 - self.sum as f64 * self.sum as f64).max(0.0),
            };
            (spread / (n * (n - 1)) as f64 / (unit * unit)).sqrt()
        };
        Summary {
            count: self.n,
            mean: self.sum as f64 / self.n as f64 / unit,
            std,
            min: self.min as f64 / unit,
            max: self.max as f64 / unit,
        }
    }
}

/// One execution of a task on a thread. The derived order — `start`, then
/// `stop`, then `key` — is the canonical order of the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Exec {
    pub start: Time,
    pub stop: Time,
    pub key: TaskKey,
}

/// Per-thread execution intervals: the index behind the task↔I/O join.
#[derive(Debug, Default)]
pub struct ExecIndex {
    by_thread: HashMap<ThreadId, Vec<Exec>>,
    /// Whether every thread's executions are in canonical order.
    sealed: bool,
}

impl ExecIndex {
    /// The sealed index of a run's completed executions.
    pub fn of(done: &[TaskDoneEvent]) -> Self {
        let mut index = Self::default();
        for d in done {
            index.push(d);
        }
        index.seal();
        index
    }

    pub fn push(&mut self, d: &TaskDoneEvent) {
        self.by_thread.entry(d.thread).or_default().push(Exec {
            start: d.start,
            stop: d.stop,
            key: d.key,
        });
        self.sealed = false;
    }

    /// Put every thread's executions in canonical order. Arrival order
    /// stops mattering here: equal executions are indistinguishable.
    pub fn seal(&mut self) {
        if !self.sealed {
            for execs in self.by_thread.values_mut() {
                execs.sort_unstable();
            }
            self.sealed = true;
        }
    }

    /// The execution that owns instant `t` on `thread`: the latest, in
    /// canonical order, that started at or before `t` and had not stopped
    /// before it. `None` when the thread was idle (or unknown — vanilla
    /// DXT records carry no usable thread id).
    pub fn owner(&self, thread: ThreadId, t: Time) -> Option<&Exec> {
        assert!(self.sealed, "ExecIndex::owner on an unsealed index");
        let execs = self.by_thread.get(&thread)?;
        let started = execs.partition_point(|e| e.start <= t);
        execs[..started].iter().rev().find(|e| e.stop >= t)
    }
}

#[derive(Debug, Default)]
struct CategoryAcc {
    duration_ns: Moments,
    nbytes: Moments,
    threads: HashSet<ThreadId>,
    workers: HashSet<WorkerId>,
    io_ops: u64,
    io_bytes: u64,
}

/// The category view's state: per-category accumulators, and the
/// execution index that attributes I/O to them.
#[derive(Debug, Default)]
pub struct CategoryState {
    categories: HashMap<TaskPrefix, CategoryAcc>,
    execs: ExecIndex,
    /// `(attributed, total)` Darshan records, once joined.
    attribution: Option<(u64, u64)>,
}

impl CategoryState {
    /// The finished category state of a drained run.
    pub fn of(data: &RunData) -> Self {
        let mut state = Self::default();
        for d in &data.task_done {
            state.task_done(d);
        }
        state.join_io(&data.darshan);
        state
    }

    fn task_done(&mut self, e: &TaskDoneEvent) {
        let cat = self.categories.entry(e.key.prefix).or_default();
        cat.duration_ns.push(e.duration().0);
        cat.nbytes.push(e.nbytes);
        cat.threads.insert(e.thread);
        cat.workers.insert(e.worker);
        self.execs.push(e);
    }

    /// The Darshan half of the task↔I/O join, which only exists once the
    /// run shuts down: attribute every record to the execution that owns
    /// its start instant. Call it after the last execution has been fed;
    /// calling it again recomputes the attribution from scratch.
    fn join_io(&mut self, logs: &LogSet) {
        self.execs.seal();
        for cat in self.categories.values_mut() {
            (cat.io_ops, cat.io_bytes) = (0, 0);
        }
        let (mut matched, mut total) = (0u64, 0u64);
        for rec in logs.all_records() {
            total += 1;
            let Some(exec) = self.execs.owner(rec.thread, rec.start) else { continue };
            matched += 1;
            if matches!(rec.op, IoOp::Read | IoOp::Write) {
                let cat = self.categories.get_mut(&exec.key.prefix).expect("every exec has a cat");
                cat.io_ops += 1;
                cat.io_bytes += rec.size;
            }
        }
        self.attribution = Some((matched, total));
    }

    /// Per-category statistics, sorted by mean duration descending, then
    /// by category.
    pub fn stats(&self) -> Vec<CategoryStats> {
        let mut out: Vec<CategoryStats> = self
            .categories
            .iter()
            .map(|(prefix, c)| CategoryStats {
                category: prefix.as_str().to_string(),
                tasks: c.duration_ns.count() as usize,
                duration: c.duration_ns.summary(1e9),
                output_nbytes: c.nbytes.summary(1.0),
                threads: c.threads.len(),
                workers: c.workers.len(),
                io_ops: c.io_ops,
                io_bytes: c.io_bytes,
            })
            .collect();
        out.sort_by(|a, b| {
            b.duration
                .mean
                .partial_cmp(&a.duration.mean)
                .expect("finite means")
                .then_with(|| a.category.cmp(&b.category))
        });
        out
    }

    /// Fraction of Darshan records attributed to an execution; `None`
    /// before the join, 0 for an empty log set.
    pub fn attribution_rate(&self) -> Option<f64> {
        self.attribution.map(|(matched, total)| match total {
            0 => 0.0,
            _ => matched as f64 / total as f64,
        })
    }
}

#[derive(Debug, Default)]
struct WorkerAcc {
    intervals: Vec<(Time, Time)>,
    /// Busy time per maintained bin, in units of 1/bins ns (see
    /// [`add_busy`]); empty when the state maintains no bins.
    busy: Vec<u128>,
}

/// Add the overlap of execution `[start, stop]` with each of `busy.len()`
/// equal bins of `[0, horizon)`. Times are scaled by the bin count so that
/// bin edges (`k · horizon`) are integers whatever the horizon is: a
/// bin's tally is its busy nanoseconds times the bin count, exactly.
fn add_busy(busy: &mut [u128], horizon: u64, (start, stop): (Time, Time)) {
    let bins = busy.len() as u128;
    if bins == 0 {
        return;
    }
    let width = horizon as u128;
    let (s, e) = (start.0 as u128 * bins, stop.0 as u128 * bins);
    let first = (s / width).min(bins - 1);
    let last = (e / width).min(bins - 1);
    for bin in first..=last {
        let edge = bin * width;
        busy[bin as usize] += e.min(edge + width).saturating_sub(s.max(edge));
    }
}

fn binned(intervals: &[(Time, Time)], bins: usize, horizon: u64) -> Vec<u128> {
    let mut busy = vec![0; bins];
    for &iv in intervals {
        add_busy(&mut busy, horizon, iv);
    }
    busy
}

/// The utilization view's state: each worker's execution intervals and,
/// when asked to maintain them, its busy bins.
#[derive(Debug)]
pub struct BusyState {
    workers: BTreeMap<WorkerId, WorkerAcc>,
    /// Busy bins maintained incrementally per worker; 0 maintains none,
    /// and every utilization query bins the intervals itself.
    bins: usize,
    /// What the bins span, in ns: the exact wall time once known, until
    /// then one second doubled until it covers the latest event, so bin
    /// edges move only when the run outgrows them.
    horizon: u64,
    exact: bool,
}

impl BusyState {
    fn with_bins(bins: usize) -> Self {
        Self { workers: BTreeMap::new(), bins, horizon: 1_000_000_000, exact: false }
    }

    /// The finished utilization state of a drained run.
    pub fn of(data: &RunData) -> Self {
        let mut state = Self::with_bins(0);
        state.set_wall(data.wall_time);
        for d in &data.task_done {
            state.task_done(d);
        }
        state
    }

    /// Outgrowing the provisional horizon re-bins every execution held:
    /// O(executions), at most once per doubling of the run's length.
    fn observe(&mut self, t: Time) {
        if !self.exact && t.0 > self.horizon {
            let mut horizon = self.horizon;
            while horizon < t.0 {
                horizon = horizon.saturating_mul(2);
            }
            self.rebin(horizon);
        }
    }

    /// The exact wall time replaces the provisional horizon, which moves
    /// every bin edge: one re-bin of every execution held.
    fn set_wall(&mut self, wall: Dur) {
        self.exact = true;
        let horizon = wall.0.max(1);
        if horizon != self.horizon {
            self.rebin(horizon);
        }
    }

    fn rebin(&mut self, horizon: u64) {
        self.horizon = horizon;
        for w in self.workers.values_mut() {
            w.busy = binned(&w.intervals, self.bins, horizon);
        }
    }

    fn task_done(&mut self, e: &TaskDoneEvent) {
        let bins = self.bins;
        let w = self
            .workers
            .entry(e.worker)
            .or_insert_with(|| WorkerAcc { intervals: Vec::new(), busy: vec![0; bins] });
        w.intervals.push((e.start, e.stop));
        add_busy(&mut w.busy, self.horizon, (e.start, e.stop));
    }

    /// Per-worker busy fractions over `bins` equal windows of the horizon,
    /// sorted by worker. Read off the maintained bins when `bins` is the
    /// count the state maintains, binned from the intervals otherwise.
    pub fn utilization(&self, bins: usize, threads_per_worker: u32) -> Vec<WorkerUtilization> {
        assert!(bins > 0 && threads_per_worker > 0);
        // a bin's tally is busy-ns × bins and a bin is horizon / bins wide
        let cap = self.horizon as f64 * threads_per_worker as f64;
        let fractions =
            |busy: &[u128]| busy.iter().map(|&b| (b as f64 / cap).min(1.0)).collect::<Vec<f64>>();
        self.workers
            .iter()
            .map(|(worker, w)| WorkerUtilization {
                worker: *worker,
                busy: if bins == self.bins {
                    fractions(&w.busy)
                } else {
                    fractions(&binned(&w.intervals, bins, self.horizon))
                },
            })
            .collect()
    }
}

/// The phase view's state: `Dur` totals and the wall clock.
#[derive(Debug, Default)]
pub struct PhaseState {
    compute: Dur,
    comm: Dur,
    io: Dur,
    /// Latest event time seen: the provisional wall clock.
    max_t: Time,
    wall: Option<Dur>,
}

impl PhaseState {
    /// The finished phase state of a drained run.
    pub fn of(data: &RunData) -> Self {
        let mut state = Self { wall: Some(data.wall_time), ..Self::default() };
        for d in &data.task_done {
            state.task_done(d);
        }
        for c in &data.comms {
            state.comm(c);
        }
        state.io = data.darshan.total_io_time();
        state
    }

    fn task_done(&mut self, e: &TaskDoneEvent) {
        self.compute += e.duration();
    }

    fn comm(&mut self, e: &CommEvent) {
        self.comm += e.duration();
    }

    /// Phase totals; `io_s` is 0 and `wall_s` the latest event time until
    /// the run's shutdown-only sources arrive.
    pub fn sample(&self) -> PhaseSample {
        PhaseSample {
            wall_s: self.wall.map_or_else(|| self.max_t.as_secs_f64(), |w| w.as_secs_f64()),
            io_s: self.io.as_secs_f64(),
            comm_s: self.comm.as_secs_f64(),
            compute_s: self.compute.as_secs_f64(),
        }
    }
}

/// The derived state of one run as the live engine keeps it: the three
/// views' states, fed the same events. See the module docs.
#[derive(Debug)]
pub struct RunState {
    categories: CategoryState,
    busy: BusyState,
    phases: PhaseState,
}

impl Default for RunState {
    fn default() -> Self {
        Self::with_bins(0)
    }
}

impl RunState {
    /// A state that also keeps `bins` utilization bins per worker current
    /// as executions arrive, so [`Self::utilization`] at that bin count
    /// costs O(workers · bins) rather than O(executions).
    pub fn with_bins(bins: usize) -> Self {
        Self {
            categories: CategoryState::default(),
            busy: BusyState::with_bins(bins),
            phases: PhaseState::default(),
        }
    }

    /// Note an event at `t`: until [`Self::set_wall`] the latest event
    /// time stands in for the wall clock.
    pub fn observe(&mut self, t: Time) {
        self.phases.max_t = self.phases.max_t.max(t);
        self.busy.observe(t);
    }

    pub fn task_done(&mut self, e: &TaskDoneEvent) {
        self.observe(e.stop);
        self.phases.task_done(e);
        self.categories.task_done(e);
        self.busy.task_done(e);
    }

    pub fn comm(&mut self, e: &CommEvent) {
        self.observe(e.stop);
        self.phases.comm(e);
    }

    /// The run's exact wall time, known at shutdown.
    pub fn set_wall(&mut self, wall: Dur) {
        self.phases.wall = Some(wall);
        self.busy.set_wall(wall);
    }

    /// The run's Darshan logs, which only exist once it shuts down: the
    /// I/O half of the join and the I/O phase total. Call it after the
    /// last execution has been fed.
    pub fn join_io(&mut self, logs: &LogSet) {
        self.categories.join_io(logs);
        self.phases.io = logs.total_io_time();
    }

    pub fn categories(&self) -> Vec<CategoryStats> {
        self.categories.stats()
    }

    pub fn utilization(&self, bins: usize, threads_per_worker: u32) -> Vec<WorkerUtilization> {
        self.busy.utilization(bins, threads_per_worker)
    }

    pub fn phases(&self) -> PhaseSample {
        self.phases.sample()
    }

    pub fn attribution_rate(&self) -> Option<f64> {
        self.categories.attribution_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_timeline::tests_support::{rec, run_with};
    use crate::views::RunViews;
    use dtf_core::events::TaskMetaEvent;
    use dtf_core::ids::{ClientId, GraphId, NodeId};
    use dtf_core::stats::Welford;

    fn done(prefix: &str, thread: u64, start: f64, stop: f64) -> TaskDoneEvent {
        TaskDoneEvent {
            key: TaskKey::new(prefix, 0, 0),
            graph: GraphId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(thread),
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(stop),
            nbytes: 1,
        }
    }

    #[test]
    fn moments_match_welford_and_keep_small_spreads() {
        let summarize = |samples: &[u64]| {
            let (mut m, mut w) = (Moments::default(), Welford::new());
            for &x in samples {
                m.push(x);
                w.push(x as f64 / 1e9);
            }
            (m.summary(1e9), w.summary())
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let (got, want) = summarize(&[1_500_000_000, 20_000_000, 7_250_000_000, 20_000_001, 0]);
        assert_eq!((got.count, got.min, got.max), (want.count, want.min, want.max));
        assert!(close(got.mean, want.mean) && close(got.std, want.std), "{got:?} vs {want:?}");
        assert_eq!(summarize(&[]).0, summarize(&[]).1);
        assert_eq!(summarize(&[7]).0, summarize(&[7]).1);

        // a spread nine orders of magnitude below the mean, where seconds
        // in `f64` have run out of digits: the integer identity agrees with
        // the two-pass deviation sum taken in nanoseconds
        let samples: Vec<u64> = (0..1000).map(|i| 3_000_000_000 + (i * 37) % 11).collect();
        let mean_ns = samples.iter().sum::<u64>() as f64 / 1000.0;
        let dev2: f64 = samples.iter().map(|&x| (x as f64 - mean_ns).powi(2)).sum();
        let two_pass = (dev2 / 999.0).sqrt() / 1e9;
        assert!(close(summarize(&samples).0.std, two_pass));
    }

    /// 2²⁰ outputs of `u64::MAX` bytes: Σx² passes 2¹²⁸ after the first
    /// two. Nothing panics (debug builds check overflow), nothing wraps.
    #[test]
    fn huge_outputs_saturate_instead_of_wrapping() {
        let mut state = RunState::default();
        let mut e = done("huge", 1, 0.0, 1.0);
        e.nbytes = u64::MAX;
        for _ in 0..1 << 20 {
            state.task_done(&e);
        }
        let stats = &state.categories()[0];
        let max = u64::MAX as f64;
        assert_eq!(stats.tasks, 1 << 20);
        assert_eq!(
            (stats.output_nbytes.min, stats.output_nbytes.max, stats.output_nbytes.mean),
            (max, max, max),
            "Σx is exact"
        );
        assert!(stats.output_nbytes.std.is_finite());
        assert_eq!(
            stats.duration,
            Summary { count: 1 << 20, mean: 1.0, std: 0.0, min: 1.0, max: 1.0 }
        );
    }

    #[test]
    fn owner_is_the_latest_execution_covering_the_instant() {
        let t = Time::from_secs_f64;
        let execs = ExecIndex::of(&[
            done("c", 1, 5.0, 9.0),
            done("a", 1, 0.0, 2.0),
            done("b", 1, 2.0, 4.0),
            done("zero", 1, 5.0, 5.0),
            done("other-thread", 2, 0.0, 9.0),
        ]);
        let owner = |s: f64| execs.owner(ThreadId(1), t(s)).map(|e| e.key.prefix.as_str());
        assert_eq!(owner(0.0), Some("a"), "closed at the start");
        assert_eq!(owner(1.0), Some("a"));
        assert_eq!(owner(2.0), Some("b"), "a stops where b starts: b's alone");
        assert_eq!(owner(4.0), Some("b"), "closed at the stop");
        assert_eq!(owner(4.5), None, "idle gap");
        assert_eq!(owner(5.0), Some("c"), "same start: the longer one is later");
        assert_eq!(owner(9.5), None);
        assert_eq!(execs.owner(ThreadId(3), t(1.0)), None, "unknown thread");
    }

    /// The one intended change of result: an operation starting exactly
    /// where one execution stops and the next starts on the same thread is
    /// the later execution's only — in `task_io`, in the category view
    /// (post-hoc and fed live) and in `lineage`, which used to hand it to
    /// both.
    #[test]
    fn an_op_on_a_shared_endpoint_belongs_to_the_later_execution_everywhere() {
        let (first, second) = (done("first", 1, 1.0, 2.0), done("second", 1, 2.0, 3.0));
        let mut data = run_with(vec![rec(IoOp::Read, 2.0, 0.1, 4096)]);
        data.task_done = vec![first.clone(), second.clone()];
        data.meta = [&first, &second]
            .map(|d| TaskMetaEvent {
                key: d.key,
                graph: GraphId(0),
                client: ClientId(0),
                deps: vec![],
                submitted: Time::ZERO,
            })
            .to_vec();

        let fused = RunViews::new(&data).task_io();
        assert_eq!(fused.n_rows(), 1);
        assert_eq!(fused.col("prefix").unwrap()[0].as_str(), Some("second"));

        let io_ops = |stats: Vec<CategoryStats>| -> Vec<(String, u64)> {
            stats.into_iter().map(|c| (c.category, c.io_ops)).collect()
        };
        let expected = vec![("first".to_string(), 0), ("second".to_string(), 1)];
        assert_eq!(io_ops(CategoryState::of(&data).stats()), expected);
        let mut live = RunState::with_bins(4);
        live.task_done(&second);
        live.task_done(&first);
        live.join_io(&data.darshan);
        assert_eq!(io_ops(live.categories()), expected);
        assert_eq!(live.attribution_rate(), Some(1.0));

        assert!(crate::lineage::build(&data, &first.key).unwrap().io.is_empty());
        assert_eq!(crate::lineage::build(&data, &second.key).unwrap().io.len(), 1);
        let all = crate::lineage::build_all(&data);
        assert_eq!((all[&first.key].io.len(), all[&second.key].io.len()), (0, 1));
    }

    #[test]
    fn busy_bins_are_exact_and_follow_the_horizon() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let mut state = RunState::with_bins(4);
        // 0.5 s of a provisional 1 s horizon: half of bins 1 and 2... then
        // an event at 3 s doubles the horizon twice and re-bins
        state.task_done(&done("t", 1, 0.375, 0.625));
        assert_eq!(state.utilization(4, 1)[0].busy, [0.0, 0.5, 0.5, 0.0]);
        state.observe(Time::from_secs_f64(3.0));
        assert_eq!(state.utilization(4, 1)[0].busy, [0.25, 0.0, 0.0, 0.0]);
        assert_eq!(state.utilization(2, 1)[0].busy, [0.125, 0.0], "other bin counts on demand");
        // the exact wall replaces it; executions past it clip into the end
        state.task_done(&done("t", 1, 1.5, 9.0));
        state.set_wall(Dur::from_secs_f64(2.0));
        let u = state.utilization(4, 1);
        assert_eq!((u.len(), u[0].worker), (1, w0));
        assert_eq!(u[0].busy, [0.25, 0.25, 0.0, 1.0]);
        assert_eq!(state.utilization(4, 2)[0].busy, [0.125, 0.125, 0.0, 0.5], "two threads");
    }
}

//! Per-worker utilization timelines — the system-level "is this node
//! busy?" view a global metrics service (LDMS, §III-B) would provide,
//! reconstructed here from task execution intervals.
//!
//! Utilization is the fraction of a worker's thread-time spent executing
//! tasks within each time window. Imbalance across workers is one of the
//! scheduling-related variability sources §V discusses (placement, work
//! stealing). Busy time is binned in integer nanoseconds by [`BusyState`],
//! the same derived state the live engine keeps.

use serde::Serialize;

use dtf_core::ids::WorkerId;
use dtf_wms::RunData;

use crate::state::BusyState;

/// Utilization of one worker over the run's time windows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkerUtilization {
    pub worker: WorkerId,
    /// Busy fraction (0..=1) per window.
    pub busy: Vec<f64>,
}

/// Per-worker utilization over `bins` equal windows.
///
/// `threads_per_worker` caps the per-window busy time (a worker can be at
/// most `threads × window` busy).
pub fn per_worker(data: &RunData, bins: usize, threads_per_worker: u32) -> Vec<WorkerUtilization> {
    BusyState::of(data).utilization(bins, threads_per_worker)
}

/// Imbalance metric per window: max − min busy fraction across workers.
/// High values flag windows where some workers idled while others were
/// saturated (stealing opportunities / placement pathologies).
pub fn imbalance(utilizations: &[WorkerUtilization]) -> Vec<f64> {
    let Some(first) = utilizations.first() else { return Vec::new() };
    let bins = first.busy.len();
    (0..bins)
        .map(|b| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for u in utilizations {
                lo = lo.min(u.busy[b]);
                hi = hi.max(u.busy[b]);
            }
            (hi - lo).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_timeline::tests_support::empty_run;
    use dtf_core::events::TaskDoneEvent;
    use dtf_core::ids::{GraphId, NodeId, TaskKey, ThreadId};
    use dtf_core::time::{Dur, Time};

    fn done(worker: WorkerId, start: f64, stop: f64) -> TaskDoneEvent {
        TaskDoneEvent {
            key: TaskKey::new("t", 0, 0),
            graph: GraphId(0),
            worker,
            thread: ThreadId(1),
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(stop),
            nbytes: 1,
        }
    }

    #[test]
    fn busy_fractions_clip_and_localize() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let w1 = WorkerId::new(NodeId(0), 1);
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(100.0);
        // w0 busy 0..50 with one thread; w1 idle
        data.task_done = vec![done(w0, 0.0, 50.0), done(w1, 90.0, 95.0)];
        let u = per_worker(&data, 10, 1);
        assert_eq!(u.len(), 2);
        let u0 = &u[0];
        assert_eq!(u0.worker, w0);
        assert!((u0.busy[0] - 1.0).abs() < 1e-9);
        assert!((u0.busy[4] - 1.0).abs() < 1e-9);
        assert_eq!(u0.busy[6], 0.0);
        let u1 = &u[1];
        assert!((u1.busy[9] - 0.5).abs() < 1e-9, "5s of a 10s window");
    }

    #[test]
    fn multithreaded_cap() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(10.0);
        // 4 concurrent tasks on a 2-thread worker: capped at 1.0
        data.task_done = (0..4).map(|_| done(w0, 0.0, 10.0)).collect();
        let u = per_worker(&data, 2, 2);
        assert!((u[0].busy[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_idle_vs_busy() {
        let w0 = WorkerId::new(NodeId(0), 0);
        let w1 = WorkerId::new(NodeId(0), 1);
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(10.0);
        data.task_done = vec![done(w0, 0.0, 10.0), done(w1, 0.0, 1.0)];
        let u = per_worker(&data, 1, 1);
        let im = imbalance(&u);
        assert!((im[0] - 0.9).abs() < 1e-9);
        assert!(imbalance(&[]).is_empty());
    }
}

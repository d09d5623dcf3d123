//! Time-window zoom (paper §IV-D: "zooming through a specific time period
//! — get all events, compute/communication/I/O statistics").
//!
//! Everything the framework knows about a `[t0, t1]` window of one run:
//! the tasks executing (fully or partially) inside it, the transfers and
//! I/O overlapping it, the warnings raised in it, and aggregate busy-time
//! statistics clipped to the window.

use serde::Serialize;

use dtf_core::events::{CommEvent, IoRecord, TaskDoneEvent, WarningEvent};
use dtf_core::time::{Dur, Time};
use dtf_wms::RunData;

/// Aggregate statistics of one time window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowStats {
    pub t0: Time,
    pub t1: Time,
    pub tasks_active: usize,
    pub tasks_started: usize,
    pub tasks_finished: usize,
    /// Task execution time clipped to the window, summed over threads.
    pub compute_time: Dur,
    pub comms_active: usize,
    pub comm_time: Dur,
    pub comm_bytes: u64,
    pub io_ops: usize,
    pub io_time: Dur,
    pub io_bytes: u64,
    pub warnings: usize,
}

/// All raw events overlapping the window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEvents<'a> {
    pub tasks: Vec<&'a TaskDoneEvent>,
    pub comms: Vec<&'a CommEvent>,
    pub io: Vec<&'a IoRecord>,
    pub warnings: Vec<&'a WarningEvent>,
}

fn clip(start: Time, stop: Time, t0: Time, t1: Time) -> Dur {
    let s = start.max(t0);
    let e = stop.min(t1);
    e - s // saturating
}

/// Collect every event overlapping `[t0, t1]`.
pub fn events(data: &RunData, t0: Time, t1: Time) -> WindowEvents<'_> {
    assert!(t1 >= t0, "empty window");
    WindowEvents {
        tasks: data.task_done.iter().filter(|d| d.start <= t1 && d.stop >= t0).collect(),
        comms: data.comms.iter().filter(|c| c.start <= t1 && c.stop >= t0).collect(),
        io: data.darshan.all_records().filter(|r| r.start <= t1 && r.stop >= t0).collect(),
        warnings: data.warnings.iter().filter(|w| w.time >= t0 && w.time <= t1).collect(),
    }
}

/// Aggregate the window.
pub fn stats(data: &RunData, t0: Time, t1: Time) -> WindowStats {
    let ev = events(data, t0, t1);
    let mut compute_time = Dur::ZERO;
    let mut started = 0;
    let mut finished = 0;
    for d in &ev.tasks {
        compute_time += clip(d.start, d.stop, t0, t1);
        if d.start >= t0 && d.start <= t1 {
            started += 1;
        }
        if d.stop >= t0 && d.stop <= t1 {
            finished += 1;
        }
    }
    let mut comm_time = Dur::ZERO;
    let mut comm_bytes = 0;
    for c in &ev.comms {
        comm_time += clip(c.start, c.stop, t0, t1);
        comm_bytes += c.nbytes;
    }
    let mut io_time = Dur::ZERO;
    let mut io_bytes = 0;
    for r in &ev.io {
        io_time += clip(r.start, r.stop, t0, t1);
        io_bytes += r.size;
    }
    WindowStats {
        t0,
        t1,
        tasks_active: ev.tasks.len(),
        tasks_started: started,
        tasks_finished: finished,
        compute_time,
        comms_active: ev.comms.len(),
        comm_time,
        comm_bytes,
        io_ops: ev.io.len(),
        io_time,
        io_bytes,
        warnings: ev.warnings.len(),
    }
}

/// Slice the whole run into `n` equal windows (a utilization timeline).
pub fn timeline(data: &RunData, n: usize) -> Vec<WindowStats> {
    assert!(n > 0);
    let total = data.wall_time;
    let step = Dur(total.0 / n as u64);
    (0..n)
        .map(|i| {
            let t0 = Time(step.0 * i as u64);
            let t1 = if i == n - 1 { Time(total.0) } else { Time(step.0 * (i + 1) as u64) };
            stats(data, t0, t1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_timeline::tests_support::empty_run;
    use dtf_core::events::IoOp;
    use dtf_core::ids::{GraphId, NodeId, TaskKey, ThreadId, WorkerId};

    fn data() -> RunData {
        let mut data = empty_run();
        data.wall_time = Dur::from_secs_f64(100.0);
        let w = WorkerId::new(NodeId(0), 0);
        data.task_done = vec![
            TaskDoneEvent {
                key: TaskKey::new("a", 0, 0),
                graph: GraphId(0),
                worker: w,
                thread: ThreadId(1),
                start: Time::from_secs_f64(10.0),
                stop: Time::from_secs_f64(30.0),
                nbytes: 1,
            },
            TaskDoneEvent {
                key: TaskKey::new("b", 0, 0),
                graph: GraphId(0),
                worker: w,
                thread: ThreadId(2),
                start: Time::from_secs_f64(50.0),
                stop: Time::from_secs_f64(70.0),
                nbytes: 1,
            },
        ];
        data.comms = vec![CommEvent {
            key: TaskKey::new("a", 0, 0),
            from: w,
            to: WorkerId::new(NodeId(1), 0),
            nbytes: 1000,
            start: Time::from_secs_f64(25.0),
            stop: Time::from_secs_f64(35.0),
        }];
        data
    }

    #[test]
    fn window_clips_and_counts() {
        let d = data();
        // window [20, 60]: task a partially (10s), task b partially (10s),
        // the comm fully inside-ish (clipped 25..35 = 10s)
        let s = stats(&d, Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
        assert_eq!(s.tasks_active, 2);
        assert_eq!(s.tasks_started, 1, "only b started inside");
        assert_eq!(s.tasks_finished, 1, "only a finished inside");
        assert!((s.compute_time.as_secs_f64() - 20.0).abs() < 1e-9);
        assert_eq!(s.comms_active, 1);
        assert!((s.comm_time.as_secs_f64() - 10.0).abs() < 1e-9);
        assert_eq!(s.comm_bytes, 1000);
    }

    #[test]
    fn disjoint_window_is_empty() {
        let d = data();
        let s = stats(&d, Time::from_secs_f64(80.0), Time::from_secs_f64(90.0));
        assert_eq!(s.tasks_active, 0);
        assert_eq!(s.comms_active, 0);
        assert_eq!(s.compute_time, Dur::ZERO);
    }

    #[test]
    fn timeline_covers_whole_run() {
        let d = data();
        let tl = timeline(&d, 10);
        assert_eq!(tl.len(), 10);
        assert_eq!(tl[0].t0, Time::ZERO);
        assert_eq!(tl[9].t1, Time::from_secs_f64(100.0));
        // total clipped compute across windows equals total task time
        let total: f64 = tl.iter().map(|w| w.compute_time.as_secs_f64()).sum();
        assert!((total - 40.0).abs() < 1e-6);
    }

    #[test]
    fn io_window_from_records() {
        let mut d = data();
        d = {
            let mut base = crate::io_timeline::tests_support::run_with(vec![
                crate::io_timeline::tests_support::rec(IoOp::Read, 5.0, 2.0, 4096),
                crate::io_timeline::tests_support::rec(IoOp::Write, 90.0, 1.0, 100),
            ]);
            base.wall_time = d.wall_time;
            base.task_done = d.task_done;
            base.comms = d.comms;
            base
        };
        let s = stats(&d, Time::from_secs_f64(0.0), Time::from_secs_f64(10.0));
        assert_eq!(s.io_ops, 1);
        assert_eq!(s.io_bytes, 4096);
        assert!((s.io_time.as_secs_f64() - 2.0).abs() < 1e-9);
    }
}

//! Fault-schedule schema: the serializable description of one adversarial
//! run perturbation.
//!
//! A [`FaultSchedule`] is the unit of deterministic chaos testing: it lists
//! every perturbation the simulator will apply to a run — worker deaths,
//! fetch-completion delays and duplications, heartbeat suppression windows,
//! Mofka partition stalls, and forced PFS interference bursts. Because the
//! schedule is plain data — serde-serializable for `chaos_schedule.json`,
//! and a declared binfmt layout (`wire_struct!`) that a persisted run's
//! `run-meta` document carries — a failing schedule can be archived,
//! diffed, and replayed byte-identically: the simulator draws nothing from
//! ambient randomness while applying it. Schedules are normally *generated* from a seed (see
//! `dtf-chaos`), and `seed` records that provenance; hand-written schedules
//! set it to 0.

use serde::Serialize;

use crate::time::{Dur, Time};

crate::wire_struct! {
    /// Kill worker `ordinal` (index into the run's worker list) at `time`.
    /// The worker stops heartbeating and completing work; the WMS detects the
    /// loss through the heartbeat timeout, exactly as for a real crash.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct WorkerDeath {
        pub worker: u32,
        pub time: Time,
    }
}

crate::wire_struct! {
    /// Perturb the `index`-th dependency transfer the engine issues (counted in
    /// issue order from 0). `extra_delay` stretches its completion;
    /// `duplicate` replays the completion event a second time — the scheduler
    /// must treat the replay as a no-op.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct FetchFault {
        pub index: u64,
        pub extra_delay: Dur,
        pub duplicate: bool,
    }
}

crate::wire_struct! {
    /// Suppress every heartbeat worker `ordinal` would deliver in
    /// `[start, stop)`. A window longer than the heartbeat timeout makes the
    /// scheduler evict a perfectly healthy worker — the "stalled event loop"
    /// failure mode.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct HeartbeatDrop {
        pub worker: u32,
        pub start: Time,
        pub stop: Time,
    }
}

crate::wire_struct! {
    /// Stall one partition of one Mofka topic in `[start, stop)`: appends are
    /// accepted but stay invisible to consumers until the stall lifts. Delivery
    /// must remain exactly-once and in partition order regardless.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct MofkaStall {
        pub topic: String,
        pub partition: u32,
        pub start: Time,
        pub stop: Time,
    }
}

crate::wire_struct! {
    /// Force a PFS interference burst: every I/O issued in `[start, stop)` is
    /// additionally slowed by `factor` (on top of the stochastic background
    /// load process).
    #[derive(Debug, Clone, Copy, PartialEq, Serialize)]
    pub struct InterferenceBurst {
        pub start: Time,
        pub stop: Time,
        pub factor: f64,
    }
}

crate::wire_struct! {
    /// Slow every compute worker `ordinal` performs in `[start, stop)` by
    /// `factor` (≥ 1.0) — a straggler. Plain data, not an RNG draw, so a
    /// straggling run replays byte-identically.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize)]
    pub struct StragglerFault {
        pub worker: u32,
        pub factor: f64,
        pub start: Time,
        pub stop: Time,
    }
}

crate::wire_struct! {
    /// Bias placement toward worker `ordinal`: its occupancy/transfer score is
    /// multiplied by `weight` (< 1.0 makes it look artificially cheap, so the
    /// scheduler piles work onto it — a hot spot).
    #[derive(Debug, Clone, Copy, PartialEq, Serialize)]
    pub struct HotspotFault {
        pub worker: u32,
        pub weight: f64,
    }
}

crate::wire_struct! {
    /// Make the payload behind the `index`-th *published* proxy dangle
    /// (counted in publish order from 0): the first resolve finds the payload
    /// missing from the plane and must repair or surface `IllegalState` with
    /// the proxy key.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct DanglingProxy {
        pub index: u64,
    }
}

crate::wire_struct! {
    /// Stretch the `index`-th proxy resolve (counted in resolve order from 0)
    /// by `extra_delay` — a slow resolver. Exactly-once resolution must hold
    /// regardless of how late the materialization lands.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
    pub struct SlowResolve {
        pub index: u64,
        pub extra_delay: Dur,
    }
}

crate::wire_struct! {
    /// One run's complete fault schedule. The empty (default) schedule is a
    /// no-op: a run with it is bit-identical to a run without one.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct FaultSchedule {
        /// Seed the schedule was generated from (0 for hand-written schedules).
        pub seed: u64,
        pub deaths: Vec<WorkerDeath>,
        pub fetch_faults: Vec<FetchFault>,
        pub heartbeat_drops: Vec<HeartbeatDrop>,
        pub mofka_stalls: Vec<MofkaStall>,
        pub pfs_bursts: Vec<InterferenceBurst>,
        pub stragglers: Vec<StragglerFault>,
        pub hotspot: Option<HotspotFault>,
        pub dangling_proxies: Vec<DanglingProxy>,
        pub slow_resolves: Vec<SlowResolve>,
    }
}

impl FaultSchedule {
    /// Whether the schedule perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
            && self.fetch_faults.is_empty()
            && self.heartbeat_drops.is_empty()
            && self.mofka_stalls.is_empty()
            && self.pfs_bursts.is_empty()
            && self.stragglers.is_empty()
            && self.hotspot.is_none()
            && self.dangling_proxies.is_empty()
            && self.slow_resolves.is_empty()
    }

    /// Total number of scheduled perturbations.
    pub fn len(&self) -> usize {
        self.deaths.len()
            + self.fetch_faults.len()
            + self.heartbeat_drops.len()
            + self.mofka_stalls.len()
            + self.pfs_bursts.len()
            + self.stragglers.len()
            + usize::from(self.hotspot.is_some())
            + self.dangling_proxies.len()
            + self.slow_resolves.len()
    }

    /// The fault (if any) registered for the `index`-th issued fetch.
    pub fn fetch_fault(&self, index: u64) -> Option<&FetchFault> {
        self.fetch_faults.iter().find(|f| f.index == index)
    }

    /// Whether a heartbeat from worker `ordinal` at `now` is suppressed.
    pub fn heartbeat_dropped(&self, worker: u32, now: Time) -> bool {
        self.heartbeat_drops.iter().any(|d| d.worker == worker && d.start <= now && now < d.stop)
    }

    /// Combined straggler slowdown for worker `ordinal` at `now`
    /// (overlapping windows multiply; 1.0 when unperturbed).
    pub fn straggler_factor(&self, worker: u32, now: Time) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.worker == worker && s.start <= now && now < s.stop)
            .map(|s| s.factor)
            .product()
    }

    /// Whether the `index`-th published proxy's blob should dangle.
    pub fn dangling_proxy(&self, index: u64) -> bool {
        self.dangling_proxies.iter().any(|d| d.index == index)
    }

    /// The slow-resolver fault (if any) for the `index`-th proxy resolve.
    pub fn slow_resolve(&self, index: u64) -> Option<&SlowResolve> {
        self.slow_resolves.iter().find(|s| s.index == index)
    }

    /// Archive the schedule (pretty JSON).
    pub fn to_json(&self) -> crate::Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.fetch_fault(0).is_none());
        assert!(!s.heartbeat_dropped(0, Time::ZERO));
    }

    #[test]
    fn lookup_helpers() {
        let s = FaultSchedule {
            seed: 1,
            deaths: vec![WorkerDeath { worker: 1, time: Time::from_secs_f64(2.0) }],
            fetch_faults: vec![FetchFault {
                index: 3,
                extra_delay: Dur::from_secs_f64(1.0),
                duplicate: true,
            }],
            heartbeat_drops: vec![HeartbeatDrop {
                worker: 2,
                start: Time::from_secs_f64(1.0),
                stop: Time::from_secs_f64(5.0),
            }],
            ..Default::default()
        };
        assert_eq!(s.len(), 3);
        assert!(s.fetch_fault(3).unwrap().duplicate);
        assert!(s.fetch_fault(2).is_none());
        assert!(s.heartbeat_dropped(2, Time::from_secs_f64(1.0)));
        assert!(s.heartbeat_dropped(2, Time::from_secs_f64(4.9)));
        assert!(!s.heartbeat_dropped(2, Time::from_secs_f64(5.0)), "stop is exclusive");
        assert!(!s.heartbeat_dropped(1, Time::from_secs_f64(2.0)), "other worker unaffected");
    }

    #[test]
    fn schedule_roundtrips_through_json() {
        let s = FaultSchedule {
            seed: 42,
            deaths: vec![WorkerDeath { worker: 0, time: Time(7) }],
            fetch_faults: vec![FetchFault { index: 0, extra_delay: Dur(5), duplicate: false }],
            heartbeat_drops: vec![],
            mofka_stalls: vec![MofkaStall {
                topic: "task-transitions".into(),
                partition: 1,
                start: Time(0),
                stop: Time(9),
            }],
            pfs_bursts: vec![InterferenceBurst { start: Time(0), stop: Time(3), factor: 4.0 }],
            stragglers: vec![StragglerFault {
                worker: 3,
                factor: 2.5,
                start: Time(0),
                stop: Time(9),
            }],
            hotspot: Some(HotspotFault { worker: 1, weight: 0.25 }),
            dangling_proxies: vec![DanglingProxy { index: 2 }],
            slow_resolves: vec![SlowResolve { index: 0, extra_delay: Dur(7) }],
        };
        let back = serde_json::from_str(&s.to_json().unwrap()).unwrap();
        assert_eq!(serde_json::to_value(&s).unwrap(), back);
    }

    #[test]
    fn proxy_and_skew_helpers() {
        let s = FaultSchedule {
            stragglers: vec![
                StragglerFault { worker: 2, factor: 2.0, start: Time(0), stop: Time(10) },
                StragglerFault { worker: 2, factor: 3.0, start: Time(5), stop: Time(15) },
            ],
            hotspot: Some(HotspotFault { worker: 0, weight: 0.5 }),
            dangling_proxies: vec![DanglingProxy { index: 1 }],
            slow_resolves: vec![SlowResolve { index: 4, extra_delay: Dur(33) }],
            ..Default::default()
        };
        assert!(!s.is_empty());
        assert_eq!(s.len(), 5);
        assert_eq!(s.straggler_factor(2, Time(3)), 2.0);
        assert_eq!(s.straggler_factor(2, Time(7)), 6.0, "overlapping windows multiply");
        assert_eq!(s.straggler_factor(2, Time(12)), 3.0);
        assert_eq!(s.straggler_factor(1, Time(3)), 1.0);
        assert_eq!(s.straggler_factor(2, Time(15)), 1.0, "stop is exclusive");
        assert!(s.dangling_proxy(1) && !s.dangling_proxy(0));
        assert_eq!(s.slow_resolve(4).unwrap().extra_delay, Dur(33));
        assert!(s.slow_resolve(3).is_none());
    }
}

//! Seeded fault-schedule generation.
//!
//! A schedule is a pure function of its seed: [`generate`] draws all nine
//! fault families from one labelled [`RunRng`] stream in a fixed order, so
//! the same seed always yields the same [`FaultSchedule`] — the property
//! the replay workflow rests on. Every fault addresses a worker ordinal
//! below the cluster's worker count. Worker ordinal 0 is never killed and
//! never has heartbeats suppressed: at least one worker must survive or a
//! perturbed run could deadlock by construction rather than by bug, so a
//! one-worker cluster draws neither. A family is switched off by clearing
//! its field of the generated schedule.

use std::collections::BTreeSet;

use rand::Rng;

use dtf_core::fault::{
    DanglingProxy, FaultSchedule, FetchFault, HeartbeatDrop, HotspotFault, InterferenceBurst,
    MofkaStall, SlowResolve, StragglerFault, WorkerDeath,
};
use dtf_core::ids::RunId;
use dtf_core::rngx::RunRng;
use dtf_core::time::{Dur, Time};

/// Topics the generator may stall (the 4-partition provenance topics of
/// the default Mofka deployment).
pub const STALLABLE_TOPICS: [&str; 6] = [
    "task-meta",
    "task-transitions",
    "worker-transitions",
    "task-done",
    "comm-events",
    "io-records",
];

/// Window fault times are drawn from (roughly the chaos run's length), s.
const HORIZON_S: f64 = 25.0;
/// Maximum worker deaths per schedule, and the probability of each
/// successive death being scheduled.
const MAX_DEATHS: u32 = 2;
const DEATH_PROB: f64 = 0.45;
/// Maximum perturbed dependency transfers per schedule; their issue-order
/// indices are drawn from `0..FETCH_INDEX_RANGE` and their extra delay
/// from `[0, MAX_FETCH_DELAY_S)` seconds.
const MAX_FETCH_FAULTS: u32 = 6;
const FETCH_INDEX_RANGE: u64 = 48;
const MAX_FETCH_DELAY_S: f64 = 8.0;
/// Maximum heartbeat-suppression windows per schedule, and the longest
/// one — longer than the 3 s detection timeout, so some windows evict
/// perfectly healthy workers.
const MAX_HEARTBEAT_DROPS: u32 = 2;
const MAX_DROP_WINDOW_S: f64 = 6.0;
/// Maximum Mofka partition stalls and forced PFS interference bursts per
/// schedule.
const MAX_MOFKA_STALLS: u32 = 2;
const MAX_PFS_BURSTS: u32 = 2;

/// Generate the schedule for `seed`, addressing the ordinals of a
/// cluster of `workers` workers ([`crate::workers`] for a chaos run).
/// Deterministic: the same seed and count always produce the same
/// schedule.
pub fn generate(seed: u64, workers: u32) -> FaultSchedule {
    let rr = RunRng::new(seed, RunId(0));
    let mut rng = rr.stream("fault-schedule");
    let mut s = FaultSchedule { seed, ..Default::default() };

    // worker deaths (never ordinal 0)
    let mut killed = BTreeSet::new();
    for _ in 0..MAX_DEATHS {
        if workers < 2 || rng.gen::<f64>() >= DEATH_PROB {
            break;
        }
        let worker = 1 + rng.gen_range(0..workers - 1);
        if !killed.insert(worker) {
            continue; // a worker dies at most once
        }
        let time = Time::from_secs_f64(HORIZON_S * (0.05 + 0.85 * rng.gen::<f64>()));
        s.deaths.push(WorkerDeath { worker, time });
    }
    s.deaths.sort_by_key(|d| (d.time, d.worker));

    // fetch faults, keyed on transfer issue order, distinct indices
    let n_fetch = rng.gen_range(0..=MAX_FETCH_FAULTS);
    let mut used = BTreeSet::new();
    for _ in 0..n_fetch {
        let index = rng.gen_range(0..FETCH_INDEX_RANGE);
        let extra_delay = Dur::from_secs_f64(rng.gen::<f64>() * MAX_FETCH_DELAY_S);
        let duplicate = rng.gen::<f64>() < 0.5;
        if used.insert(index) {
            s.fetch_faults.push(FetchFault { index, extra_delay, duplicate });
        }
    }
    s.fetch_faults.sort_by_key(|f| f.index);

    // heartbeat-suppression windows (never ordinal 0)
    let n_drops = if workers < 2 { 0 } else { rng.gen_range(0..=MAX_HEARTBEAT_DROPS) };
    for _ in 0..n_drops {
        let worker = 1 + rng.gen_range(0..workers - 1);
        let start = Time::from_secs_f64(HORIZON_S * 0.8 * rng.gen::<f64>());
        let len = 0.5 + (MAX_DROP_WINDOW_S - 0.5) * rng.gen::<f64>();
        let stop = start + Dur::from_secs_f64(len);
        s.heartbeat_drops.push(HeartbeatDrop { worker, start, stop });
    }
    s.heartbeat_drops.sort_by_key(|d| (d.start, d.worker));

    // Mofka partition stalls
    let n_stalls = rng.gen_range(0..=MAX_MOFKA_STALLS);
    for _ in 0..n_stalls {
        let topic = STALLABLE_TOPICS[rng.gen_range(0..STALLABLE_TOPICS.len())].to_string();
        let partition = rng.gen_range(0..4u32);
        let start = Time::from_secs_f64(HORIZON_S * 0.9 * rng.gen::<f64>());
        let stop = start + Dur::from_secs_f64(1.0 + 14.0 * rng.gen::<f64>());
        s.mofka_stalls.push(MofkaStall { topic, partition, start, stop });
    }
    s.mofka_stalls.sort_by_key(|m| (m.start, m.topic.clone(), m.partition));

    // forced PFS interference bursts
    let n_bursts = rng.gen_range(0..=MAX_PFS_BURSTS);
    for _ in 0..n_bursts {
        let start = Time::from_secs_f64(HORIZON_S * 0.9 * rng.gen::<f64>());
        let stop = start + Dur::from_secs_f64(1.0 + 5.0 * rng.gen::<f64>());
        let factor = 2.0 + 6.0 * rng.gen::<f64>();
        s.pfs_bursts.push(InterferenceBurst { start, stop, factor });
    }
    s.pfs_bursts.sort_by_key(|a| (a.start, a.stop));

    // straggler windows: seeded per-worker compute slowdown
    let n = if workers == 0 { 0 } else { rng.gen_range(0..=2u32) };
    for _ in 0..n {
        let worker = rng.gen_range(0..workers);
        let factor = 2.0 + 8.0 * rng.gen::<f64>();
        let start = Time::from_secs_f64(HORIZON_S * 0.6 * rng.gen::<f64>());
        let stop = start + Dur::from_secs_f64(2.0 + 10.0 * rng.gen::<f64>());
        s.stragglers.push(StragglerFault { worker, factor, start, stop });
    }
    s.stragglers.sort_by_key(|f| (f.start, f.worker));

    // skewed placement: one hot spot at most
    if workers > 0 && rng.gen::<f64>() < 0.5 {
        let worker = rng.gen_range(0..workers);
        let weight = 0.05 + 0.4 * rng.gen::<f64>();
        s.hotspot = Some(HotspotFault { worker, weight });
    }

    // dangling proxy payloads, keyed on publish order, distinct indices
    let n = rng.gen_range(0..=3u32);
    let mut used = BTreeSet::new();
    for _ in 0..n {
        let index = rng.gen_range(0..24u64);
        if used.insert(index) {
            s.dangling_proxies.push(DanglingProxy { index });
        }
    }
    s.dangling_proxies.sort_by_key(|d| d.index);

    // slow resolvers, keyed on resolve order, distinct indices
    let n = rng.gen_range(0..=3u32);
    let mut used = BTreeSet::new();
    for _ in 0..n {
        let index = rng.gen_range(0..48u64);
        let extra_delay = Dur::from_secs_f64(0.2 + 3.0 * rng.gen::<f64>());
        if used.insert(index) {
            s.slow_resolves.push(SlowResolve { index, extra_delay });
        }
    }
    s.slow_resolves.sort_by_key(|f| f.index);

    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        for seed in 0..64 {
            assert_eq!(generate(seed, crate::workers()), generate(seed, crate::workers()));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|s| generate(s, crate::workers()).to_json().unwrap()).collect();
        assert!(distinct.len() > 16, "only {} distinct schedules in 32 seeds", distinct.len());
    }

    #[test]
    fn worker_zero_is_protected() {
        let workers = crate::runner::workers();
        let mut deaths = 0;
        for seed in 0..1024 {
            let s = generate(seed, workers);
            deaths += s.deaths.len();
            assert!(s.deaths.iter().all(|d| d.worker != 0), "seed {seed} kills worker 0");
            assert!(
                s.heartbeat_drops.iter().all(|d| d.worker != 0),
                "seed {seed} suppresses worker 0"
            );
            assert!(s.deaths.iter().all(|d| d.worker < workers));
            assert!(s.heartbeat_drops.iter().all(|d| d.worker < workers));
        }
        assert!(deaths > 100, "only {deaths} deaths in 1024 schedules");
    }

    #[test]
    fn schedules_are_well_formed() {
        let workers = crate::runner::workers();
        for seed in 0..256 {
            let s = generate(seed, workers);
            // one death per worker at most
            let killed: Vec<u32> = s.deaths.iter().map(|d| d.worker).collect();
            let mut dedup = killed.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(killed.len(), dedup.len());
            // keyed indices distinct and sorted
            assert!(s.fetch_faults.windows(2).all(|w| w[0].index < w[1].index));
            assert!(s.dangling_proxies.windows(2).all(|w| w[0].index < w[1].index));
            assert!(s.slow_resolves.windows(2).all(|w| w[0].index < w[1].index));
            // windows are non-empty, factors slow things down
            assert!(s.heartbeat_drops.iter().all(|d| d.stop > d.start));
            assert!(s.mofka_stalls.iter().all(|m| m.stop > m.start));
            assert!(s.pfs_bursts.iter().all(|b| b.stop > b.start && b.factor >= 1.0));
            assert!(s.stragglers.iter().all(|f| f.factor > 1.0 && f.stop > f.start));
            if let Some(h) = &s.hotspot {
                assert!(h.weight > 0.0 && h.weight < 1.0 && h.worker < workers);
            }
            // a schedule's archive text parses back to the tree it printed
            let back = serde_json::from_str(&s.to_json().unwrap()).unwrap();
            assert_eq!(serde_json::to_value(&s).unwrap(), back);
        }
    }

    #[test]
    fn a_small_cluster_draws_faults_only_for_its_workers() {
        for seed in 0..256 {
            let lone = generate(seed, 1);
            assert!(lone.deaths.is_empty() && lone.heartbeat_drops.is_empty(), "seed {seed}");
            assert!(lone.stragglers.iter().all(|f| f.worker == 0));
            assert!(lone.hotspot.iter().all(|h| h.worker == 0));
            let none = generate(seed, 0);
            assert!(none.stragglers.is_empty() && none.hotspot.is_none(), "seed {seed}");
        }
    }

    #[test]
    fn generator_actually_produces_each_fault_kind() {
        let mut counts = [0usize; 9];
        for seed in 0..128 {
            let s = generate(seed, crate::workers());
            let n = [
                s.deaths.len(),
                s.fetch_faults.len(),
                s.heartbeat_drops.len(),
                s.mofka_stalls.len(),
                s.pfs_bursts.len(),
                s.stragglers.len(),
                usize::from(s.hotspot.is_some()),
                s.dangling_proxies.len(),
                s.slow_resolves.len(),
            ];
            for (c, n) in counts.iter_mut().zip(n) {
                *c += n;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}

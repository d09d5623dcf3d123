//! Background interference processes.
//!
//! HPC storage and network resources are shared with other jobs; the paper
//! cites I/O interference as a prominent variability source at scale
//! (\[15\], \[16\] in the paper). We model interference as a piecewise-constant
//! load factor: time is cut into fixed windows and each window's factor is
//! drawn independently from a mixture of "quiet" (factor ≈ 1) and "burst"
//! (heavy-tailed slowdown) regimes.
//!
//! The factor for a window is a pure function of `(seed, window_index)`, so
//! queries may arrive in any time order (different simulated components
//! interleave) and the process is still deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dtf_core::dist::{BoundedPareto, Sample};
use dtf_core::time::{Dur, Time};

/// A stationary, windowed background-load process.
#[derive(Debug, Clone)]
pub struct LoadProcess {
    seed: u64,
    window: Dur,
    /// Probability a window is a burst window.
    burst_prob: f64,
    /// Burst slowdown factor distribution.
    burst: BoundedPareto,
    /// Quiet-regime maximum extra load (uniform in `[1, 1 + quiet_spread]`).
    quiet_spread: f64,
    /// Scheduled bursts `(start, stop, factor)` multiplied on top of the
    /// stochastic factor while `start <= t < stop` (fault injection).
    forced: Vec<(Time, Time, f64)>,
}

impl LoadProcess {
    pub fn new(
        seed: u64,
        window: Dur,
        burst_prob: f64,
        burst: BoundedPareto,
        quiet_spread: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&burst_prob));
        assert!(quiet_spread >= 0.0);
        assert!(window > Dur::ZERO);
        Self { seed, window, burst_prob, burst, quiet_spread, forced: Vec::new() }
    }

    /// Overlay deterministic burst windows `(start, stop, factor)`; within
    /// a window the stochastic factor is multiplied by `factor`. Used by
    /// the chaos harness to schedule interference at chosen times.
    pub fn with_forced_bursts(mut self, bursts: Vec<(Time, Time, f64)>) -> Self {
        assert!(bursts.iter().all(|(s, e, f)| e > s && *f >= 1.0));
        self.forced = bursts;
        self
    }

    /// Typical PFS interference: 5 s windows, 8 % burst probability,
    /// bursts slowing I/O 1.5–8x, quiet windows within 10 % of nominal.
    pub fn pfs_default(seed: u64) -> Self {
        Self::new(seed, Dur::from_secs_f64(5.0), 0.08, BoundedPareto::new(1.5, 8.0, 1.2), 0.10)
    }

    /// Typical network congestion: shorter windows, milder bursts.
    pub fn network_default(seed: u64) -> Self {
        Self::new(seed, Dur::from_secs_f64(2.0), 0.05, BoundedPareto::new(1.2, 4.0, 1.5), 0.05)
    }

    /// A process that always returns exactly 1 (for ablations).
    pub fn none(seed: u64) -> Self {
        Self::new(seed, Dur::from_secs_f64(1.0), 0.0, BoundedPareto::new(1.0 + 1e-9, 2.0, 1.0), 0.0)
    }

    fn window_index(&self, t: Time) -> u64 {
        t.0 / self.window.0
    }

    /// Load factor (>= 1) in effect at time `t`.
    pub fn factor(&self, t: Time) -> f64 {
        let forced: f64 =
            self.forced.iter().filter(|(s, e, _)| *s <= t && t < *e).map(|(_, _, f)| f).product();
        forced * self.base_factor(t)
    }

    fn base_factor(&self, t: Time) -> f64 {
        let w = self.window_index(t);
        // splitmix-style mix of seed and window index for an independent
        // per-window stream
        let mut z = self.seed ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let mut rng = SmallRng::seed_from_u64(z ^ (z >> 31));
        if rng.gen::<f64>() < self.burst_prob {
            self.burst.sample(&mut rng)
        } else if self.quiet_spread > 0.0 {
            1.0 + rng.gen::<f64>() * self.quiet_spread
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_deterministic_and_order_independent() {
        let p = LoadProcess::pfs_default(42);
        let t1 = Time::from_secs_f64(3.0);
        let t2 = Time::from_secs_f64(100.0);
        let (a1, a2) = (p.factor(t1), p.factor(t2));
        // query in reverse order
        let (b2, b1) = (p.factor(t2), p.factor(t1));
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn same_window_same_factor() {
        let p = LoadProcess::pfs_default(7);
        let a = p.factor(Time::from_secs_f64(10.1));
        let b = p.factor(Time::from_secs_f64(14.9)); // same 5s window [10, 15)
        assert_eq!(a, b);
    }

    #[test]
    fn factors_at_least_one_and_bounded() {
        let p = LoadProcess::pfs_default(9);
        for i in 0..10_000 {
            let f = p.factor(Time::from_secs_f64(i as f64 * 0.7));
            assert!((1.0..=8.0 + 1e-9).contains(&f), "factor {f}");
        }
    }

    #[test]
    fn bursts_occur_at_roughly_configured_rate() {
        let p = LoadProcess::pfs_default(11);
        let mut bursts = 0;
        let n = 20_000;
        for i in 0..n {
            // one sample per window
            if p.factor(Time(Dur::from_secs_f64(5.0).0 * i + 1)) >= 1.5 {
                bursts += 1;
            }
        }
        let rate = bursts as f64 / n as f64;
        assert!((0.05..0.12).contains(&rate), "burst rate {rate}");
    }

    #[test]
    fn none_process_is_identity() {
        let p = LoadProcess::none(5);
        for i in 0..1000 {
            assert_eq!(p.factor(Time::from_secs_f64(i as f64)), 1.0);
        }
    }

    #[test]
    fn forced_bursts_multiply_within_their_window_only() {
        let base = LoadProcess::none(3);
        let p = base.clone().with_forced_bursts(vec![(
            Time::from_secs_f64(10.0),
            Time::from_secs_f64(20.0),
            4.0,
        )]);
        assert_eq!(p.factor(Time::from_secs_f64(9.9)), base.factor(Time::from_secs_f64(9.9)));
        assert_eq!(
            p.factor(Time::from_secs_f64(10.0)),
            4.0 * base.factor(Time::from_secs_f64(10.0))
        );
        assert_eq!(
            p.factor(Time::from_secs_f64(19.9)),
            4.0 * base.factor(Time::from_secs_f64(19.9))
        );
        assert_eq!(p.factor(Time::from_secs_f64(20.0)), base.factor(Time::from_secs_f64(20.0)));
        // overlapping bursts compound
        let q = LoadProcess::none(3).with_forced_bursts(vec![
            (Time::ZERO, Time::from_secs_f64(5.0), 2.0),
            (Time::ZERO, Time::from_secs_f64(5.0), 3.0),
        ]);
        assert_eq!(q.factor(Time::from_secs_f64(1.0)), 6.0);
    }

    #[test]
    fn different_seeds_give_different_processes() {
        let a = LoadProcess::pfs_default(1);
        let b = LoadProcess::pfs_default(2);
        let differs = (0..100).any(|i| {
            a.factor(Time::from_secs_f64(i as f64 * 5.0))
                != b.factor(Time::from_secs_f64(i as f64 * 5.0))
        });
        assert!(differs);
    }
}

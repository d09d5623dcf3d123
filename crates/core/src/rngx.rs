//! Deterministic, splittable random-number streams.
//!
//! Every run of a campaign is identified by `(campaign_seed, RunId)`. Each
//! simulated component (PFS, network, each worker, the GC model, …) derives
//! its own independent stream from that pair plus a component label, so
//! adding a new component or reordering draws in one component never
//! perturbs another — runs stay reproducible as the codebase evolves.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::ids::RunId;

/// Root of the per-run random streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRng {
    campaign_seed: u64,
    run: RunId,
}

impl RunRng {
    pub fn new(campaign_seed: u64, run: RunId) -> Self {
        Self { campaign_seed, run }
    }

    /// Derive an independent RNG stream for a named component.
    pub fn stream(&self, label: &str) -> SmallRng {
        SmallRng::seed_from_u64(self.mix(label))
    }

    fn mix(&self, label: &str) -> u64 {
        // FNV-1a over the label, then splitmix64 finalization with seed
        // and run id folded in.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut z = h
            ^ self.campaign_seed.rotate_left(17)
            ^ (self.run.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // splitmix64 finalizer
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let a = RunRng::new(7, RunId(3));
        let b = RunRng::new(7, RunId(3));
        let mut ra = a.stream("pfs");
        let mut rb = b.stream("pfs");
        for _ in 0..100 {
            assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        let r = RunRng::new(7, RunId(3));
        let a: u64 = r.stream("pfs").gen();
        let b: u64 = r.stream("net").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_runs_differ() {
        let a: u64 = RunRng::new(7, RunId(0)).stream("pfs").gen();
        let b: u64 = RunRng::new(7, RunId(1)).stream("pfs").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RunRng::new(1, RunId(0)).stream("pfs").gen();
        let b: u64 = RunRng::new(2, RunId(0)).stream("pfs").gen();
        assert_ne!(a, b);
    }
}

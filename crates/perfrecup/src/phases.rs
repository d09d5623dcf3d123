//! Fig. 3: relative time spent per workflow in I/O, communication, and
//! computation, plus total wall time, with error bars across runs.
//!
//! The I/O bar sums the operations in the Darshan reports, the
//! communication bar sums incoming transfers, the computation bar sums
//! in-task time, and the total bar is end-to-end wall time including
//! coordination. The phases are non-exclusive and may overlap (paper
//! §IV-C), so bars need not add to the total. Values are normalized by the
//! workflow's mean wall time for cross-workflow readability.

use serde::Serialize;

use dtf_core::stats::Welford;

/// One run's phase totals, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseSample {
    pub wall_s: f64,
    pub io_s: f64,
    pub comm_s: f64,
    pub compute_s: f64,
}

/// One bar of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseBar {
    /// Mean over runs, seconds.
    pub mean_s: f64,
    /// Std over runs, seconds.
    pub std_s: f64,
    /// Mean normalized by the workflow's mean wall time.
    pub mean_norm: f64,
    /// Std normalized likewise (the error bar).
    pub std_norm: f64,
}

/// The four bars of one workflow in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhaseBreakdown {
    pub io: PhaseBar,
    pub comm: PhaseBar,
    pub compute: PhaseBar,
    pub total: PhaseBar,
    pub runs: usize,
}

impl PhaseBreakdown {
    /// Aggregate the per-run samples of one workflow. Phase sums are
    /// accumulated across all worker threads, so their normalized bars
    /// divide by `mean wall x parallelism` (fraction of available
    /// thread-time) while the total bar divides by the mean wall itself.
    pub fn from_samples(samples: &[PhaseSample], parallelism: f64) -> Self {
        assert!(parallelism >= 1.0);
        let mut wall = Welford::new();
        let mut io = Welford::new();
        let mut comm = Welford::new();
        let mut compute = Welford::new();
        for s in samples {
            wall.push(s.wall_s);
            io.push(s.io_s);
            comm.push(s.comm_s);
            compute.push(s.compute_s);
        }
        let wall_denom = if wall.mean() > 0.0 { wall.mean() } else { 1.0 };
        let phase_denom = wall_denom * parallelism;
        let bar = |w: &Welford, denom: f64| PhaseBar {
            mean_s: w.mean(),
            std_s: w.std(),
            mean_norm: w.mean() / denom,
            std_norm: w.std() / denom,
        };
        Self {
            io: bar(&io, phase_denom),
            comm: bar(&comm, phase_denom),
            compute: bar(&compute, phase_denom),
            total: bar(&wall, wall_denom),
            runs: samples.len(),
        }
    }

    /// Coordination share: the fraction of total wall time not covered by
    /// the (overlapping) per-thread phase time, floored at 0. Short
    /// workflows have a disproportionately large share (paper §IV-C).
    /// Uses the normalized bars, which already account for parallelism.
    pub fn coordination_share(&self) -> f64 {
        if self.total.mean_s == 0.0 {
            return 0.0;
        }
        (1.0 - (self.io.mean_norm + self.comm.mean_norm + self.compute.mean_norm)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<PhaseSample> {
        vec![
            PhaseSample { wall_s: 100.0, io_s: 20.0, comm_s: 10.0, compute_s: 60.0 },
            PhaseSample { wall_s: 110.0, io_s: 24.0, comm_s: 12.0, compute_s: 66.0 },
            PhaseSample { wall_s: 90.0, io_s: 16.0, comm_s: 8.0, compute_s: 54.0 },
        ]
    }

    #[test]
    fn normalization_uses_mean_wall_and_parallelism() {
        let b = PhaseBreakdown::from_samples(&samples(), 2.0);
        assert_eq!(b.runs, 3);
        assert!((b.total.mean_s - 100.0).abs() < 1e-9);
        assert!((b.total.mean_norm - 1.0).abs() < 1e-9);
        // io mean 20s over 2 threads of 100s wall -> 0.1
        assert!((b.io.mean_norm - 0.1).abs() < 1e-9);
        assert!(b.io.std_norm > 0.0);
    }

    #[test]
    fn single_run_has_zero_error_bars() {
        let b = PhaseBreakdown::from_samples(&samples()[..1], 2.0);
        assert_eq!(b.io.std_s, 0.0);
        assert_eq!(b.total.std_norm, 0.0);
    }

    #[test]
    fn coordination_share_larger_for_short_workflows() {
        // same busy time, longer wall -> larger coordination share
        let short = PhaseBreakdown::from_samples(
            &[PhaseSample { wall_s: 50.0, io_s: 64.0, comm_s: 64.0, compute_s: 512.0 }],
            64.0,
        );
        let long = PhaseBreakdown::from_samples(
            &[PhaseSample { wall_s: 500.0, io_s: 64.0, comm_s: 64.0, compute_s: 512.0 }],
            64.0,
        );
        // with 64-way parallelism the busy time is 10 s
        assert!(short.coordination_share() < long.coordination_share());
        assert!(long.coordination_share() > 0.9);
    }

    #[test]
    fn empty_samples_do_not_divide_by_zero() {
        let b = PhaseBreakdown::from_samples(&[], 4.0);
        assert_eq!(b.total.mean_norm, 0.0);
        assert_eq!(b.coordination_share(), 0.0);
    }
}

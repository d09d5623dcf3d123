//! Seeded probability distributions for the platform simulator.
//!
//! The paper attributes run-to-run performance variability to stochastic
//! platform behaviour: PFS interference, network congestion, garbage
//! collection pauses, event-loop stalls, node placement. The simulator models
//! each as a draw from one of these distributions. They are hand-rolled
//! (Box–Muller for the normal family) so the workspace stays within the
//! approved dependency set — `rand_distr` is intentionally not used.

use rand::Rng;

/// A continuous distribution that can be sampled with any RNG.
pub trait Sample {
    /// Draw one value. Implementations must never return NaN or infinity.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    pub mean: f64,
    pub std: f64,
}

impl Normal {
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "std must be finite and >= 0, got {std}");
        assert!(mean.is_finite());
        Self { mean, std }
    }

    /// One standard-normal draw.
    fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // Box–Muller; reject u1 == 0 to keep ln finite.
        loop {
            let u1: f64 = rng.gen::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let z = r * (std::f64::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * Self::std_normal(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`. The workhorse for service
/// times (I/O, network) whose tails are heavy but bounded in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log scale).
    pub mu: f64,
    /// Std of the underlying normal (log scale).
    pub sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite());
        assert!(mu.is_finite());
        Self { mu, sigma }
    }

    /// Construct from the desired *median* multiplier and log-scale sigma.
    /// `LogNormal::multiplier(s)` has median 1.0: handy for jitter factors.
    pub fn multiplier(sigma: f64) -> Self {
        Self::new(0.0, sigma)
    }

    /// Expected value `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::std_normal(rng)).exp()
    }
}

/// Exponential distribution with the given rate (events per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    pub rate: f64,
}

impl Exponential {
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive, got {rate}");
        Self { rate }
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen::<f64>();
            if u <= f64::MIN_POSITIVE {
                continue;
            }
            return -u.ln() / self.rate;
        }
    }
}

/// Bounded Pareto: heavy-tailed sizes/latencies with a hard cap, used for
/// interference bursts so a single draw cannot stall the simulation forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    pub xmin: f64,
    pub xmax: f64,
    pub alpha: f64,
}

impl BoundedPareto {
    pub fn new(xmin: f64, xmax: f64, alpha: f64) -> Self {
        assert!(xmin > 0.0 && xmax > xmin && alpha > 0.0);
        Self { xmin, xmax, alpha }
    }
}

impl Sample for BoundedPareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling of the truncated Pareto.
        let u: f64 = rng.gen::<f64>();
        let la = self.xmin.powf(self.alpha);
        let ha = self.xmax.powf(self.alpha);
        let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.xmin, self.xmax)
    }
}

/// Jitter helper: multiply a base value by a lognormal factor with median 1,
/// clamped to `[1/cap, cap]`. This is how the simulator perturbs every
/// deterministic cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    dist: LogNormal,
    cap: f64,
}

impl Jitter {
    /// `sigma` is the log-scale spread; `cap` bounds the factor (cap >= 1).
    pub fn new(sigma: f64, cap: f64) -> Self {
        assert!(cap >= 1.0);
        Self { dist: LogNormal::multiplier(sigma), cap }
    }

    /// No-op jitter (factor always exactly 1).
    pub fn none() -> Self {
        Self { dist: LogNormal::multiplier(0.0), cap: 1.0 }
    }

    pub fn factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.dist.sample(rng).clamp(1.0 / self.cap, self.cap)
    }

    pub fn apply<R: Rng + ?Sized>(&self, base: f64, rng: &mut R) -> f64 {
        base * self.factor(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn mean_of(d: &impl Sample, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Normal::new(5.0, 2.0);
        let m = mean_of(&d, 200_000);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let d = LogNormal::new(0.5, 0.4);
        let m = mean_of(&d, 400_000);
        assert!((m - d.mean()).abs() / d.mean() < 0.02, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn lognormal_multiplier_median_near_one() {
        let d = LogNormal::multiplier(0.3);
        let mut r = rng();
        let mut v: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let m = mean_of(&d, 200_000);
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let d = BoundedPareto::new(1.0, 100.0, 1.5);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=100.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn jitter_clamped_and_centered() {
        let j = Jitter::new(0.2, 2.0);
        let mut r = rng();
        let mut sum = 0.0;
        for _ in 0..50_000 {
            let f = j.factor(&mut r);
            assert!((0.5..=2.0).contains(&f));
            sum += f;
        }
        let mean = sum / 50_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean factor {mean}");
    }

    #[test]
    fn jitter_none_is_identity() {
        let j = Jitter::none();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(j.apply(3.25, &mut r), 3.25);
        }
    }

    #[test]
    fn samples_never_nan() {
        let mut r = rng();
        type Sampler = Box<dyn Fn(&mut SmallRng) -> f64>;
        let dists: Vec<Sampler> = vec![
            Box::new(|r| Normal::new(0.0, 1.0).sample(r)),
            Box::new(|r| LogNormal::new(0.0, 1.0).sample(r)),
            Box::new(|r| Exponential::new(1.0).sample(r)),
            Box::new(|r| BoundedPareto::new(0.5, 10.0, 1.0).sample(r)),
        ];
        for d in &dists {
            for _ in 0..10_000 {
                assert!(d(&mut r).is_finite());
            }
        }
    }
}

//! Time representation shared by the simulator and the real executor.
//!
//! All timestamps in the framework are nanoseconds since the start of the
//! run, stored as `u64`. Using integers (rather than `f64` seconds) keeps
//! timestamps totally ordered and hashable, which the discrete-event queue
//! and the analysis joins both rely on.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (virtual or real) time: nanoseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize)]
pub struct Time(pub u64);

/// A span of time: nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize)]
pub struct Dur(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite time: {s}");
        Time((s * 1e9).round() as u64)
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since `earlier`; saturates at zero if `earlier` is later.
    pub fn since(&self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration: {s}");
        Dur((s * 1e9).round() as u64)
    }

    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scale a duration by a non-negative factor (used for stochastic jitter).
    pub fn scale(&self, f: f64) -> Dur {
        assert!(f >= 0.0 && f.is_finite(), "bad scale factor: {f}");
        Dur((self.0 as f64 * f).round() as u64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Real monotonic clock anchored at construction time: the real
/// executor's timestamps. The simulator keeps its own virtual `now`.
#[derive(Debug)]
pub struct RealClock {
    start: std::time::Instant,
}

impl RealClock {
    pub fn new() -> Self {
        Self { start: std::time::Instant::now() }
    }

    pub fn now(&self) -> Time {
        Time(self.start.elapsed().as_nanos() as u64)
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = Time::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let d = Dur::from_millis_f64(2.5);
        assert_eq!(d.0, 2_500_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs_f64(1.0) + Dur::from_secs_f64(0.5);
        assert_eq!(t, Time::from_secs_f64(1.5));
        assert_eq!(t - Time::from_secs_f64(1.0), Dur::from_secs_f64(0.5));
        // saturating subtraction
        assert_eq!(Time::from_secs_f64(1.0) - t, Dur::ZERO);
    }

    #[test]
    fn dur_scale() {
        assert_eq!(Dur::from_secs_f64(2.0).scale(1.5), Dur::from_secs_f64(3.0));
        assert_eq!(Dur::from_secs_f64(2.0).scale(0.0), Dur::ZERO);
    }

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}

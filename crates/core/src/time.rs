//! Time representation shared by the simulator and the real executor.
//!
//! All timestamps in the framework are nanoseconds since the start of the
//! run, stored as `u64`. Using integers (rather than `f64` seconds) keeps
//! timestamps totally ordered and hashable, which the discrete-event queue
//! and the analysis joins both rely on.

use serde::Serialize;
use std::fmt;

use crate::table::Digits;
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

/// Write `ns` nanoseconds as seconds with six decimals: exactly the bytes
/// of `format!("{:.6}", ns as f64 / 1e9)`, the one spelling of seconds in
/// the framework, computed from the integer.
///
/// The integer path prints `ns / 1000` microseconds, one more when the
/// dropped nanoseconds exceed 500, as `secs.micros`. It falls back to the
/// float path in exactly two cases: an exact tie (`ns % 1000 == 500`),
/// where `{:.6}` rounds the f64 nearest the tie in a direction the integer
/// cannot know, and `ns >= 2^53`, where `ns as f64` is no longer exact.
///
/// Why the two agree everywhere else: below 2^53, `ns as f64` is exact
/// and the one rounding in `/ 1e9` leaves the f64 within half an ulp of
/// the true value `v = ns / 1e9`. As `v < 2^53 / 1e9 < 2^24`, that ulp is
/// at most 2^-29 s, so the f64 lies within 2^-30 s (under 1 ns) of `v`.
/// A non-tie `v` lies at least 1 ns from every rounding boundary (the odd
/// multiples of half a microsecond), so the f64 sits strictly inside the
/// same micro-interval as `v`, and `{:.6}` — which rounds the f64's exact
/// value — lands on the same microsecond the integer rule picks.
pub fn write_secs<W: fmt::Write>(out: &mut W, ns: u64) -> fmt::Result {
    let rest = ns % 1000;
    if ns >= 1 << 53 || rest == 500 {
        return write!(out, "{:.6}", ns as f64 / 1e9);
    }
    let micros = ns / 1000 + u64::from(rest > 500);
    Digits::new().dec(micros % 1_000_000, 6).text(".").dec(micros / 1_000_000, 1).write(out)
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_secs(f, self.0)?;
        f.write_str("s")
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_secs(f, self.0)?;
        f.write_str("s")
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

    /// The float path `write_secs` reproduces.
    fn float_secs(ns: u64) -> String {
        format!("{:.6}", ns as f64 / 1e9)
    }

    fn secs(ns: u64) -> String {
        let mut out = String::new();
        write_secs(&mut out, ns).unwrap();
        out
    }

    #[test]
    fn seconds_from_integers_are_the_float_spelling() {
        for ns in 0..2_000_000 {
            assert_eq!(secs(ns), float_secs(ns), "ns = {ns}");
        }
        // exact half-microsecond ties up to 10^12 ns, and their neighbours
        for tie in (500..1_000_000_000_000u64).step_by(10_007_000) {
            for ns in [tie - 1, tie, tie + 1] {
                assert_eq!(secs(ns), float_secs(ns), "ns = {ns}");
            }
        }
        // the edge of f64's exact integers, and past it to u64::MAX, where
        // the float path decides
        let past = ((1 << 53) + 1..u64::MAX).step_by((1 << 49) + 12_345);
        for ns in [(1 << 53) - 1, 1 << 53, u64::MAX].into_iter().chain(past) {
            assert_eq!(secs(ns), float_secs(ns), "ns = {ns}");
        }
        assert_eq!(Time(1_500_000_000).to_string(), "1.500000s");
        assert_eq!(Dur(2_499_999_501).to_string(), "2.500000s");
    }

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}

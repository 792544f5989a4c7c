//! Integer-nanosecond virtual time.
//!
//! [`SimTime`] is an instant on a simulation's clock; [`SimDuration`] is a
//! span between instants. Both wrap a `u64` of nanoseconds, so comparison
//! and accumulation are exact: a million-step run drifts by exactly zero,
//! and two replicas that did identical work hold *identical* clocks —
//! `f64` accumulation guarantees neither.
//!
//! Floating point enters and leaves through explicitly lossy conversions:
//! cost models hand in `f64` nanoseconds via [`SimDuration::from_ns_f64`]
//! (rounded to the nearest integer nanosecond at that single call site) and
//! metrics read out `f64` via `as_ns_f64` / `as_ms_f64` / `as_secs_f64`.
//! Everything in between is integer arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time: nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Converts a (finite, non-negative) `f64` nanosecond count to integer
/// nanoseconds, rounding to nearest and saturating at the representable
/// range. Negative inputs clamp to zero; NaN is a caller bug.
fn ns_from_f64(ns: f64) -> u64 {
    assert!(!ns.is_nan(), "virtual-time value is NaN");
    if ns <= 0.0 {
        0
    } else if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// The instant `ns` nanoseconds after the start of the run.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Lossy ingest of an `f64` nanosecond timestamp (rounds to nearest,
    /// clamps negatives to zero, saturates at [`SimTime::MAX`]).
    ///
    /// # Panics
    ///
    /// Panics if `ns` is NaN.
    pub fn from_ns_f64(ns: f64) -> Self {
        SimTime(ns_from_f64(ns))
    }

    /// Lossy ingest of an `f64` second timestamp (external trace times).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(ns_from_f64(secs * 1e9))
    }

    /// The instant as `f64` nanoseconds — the metrics boundary.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64
    }

    /// The instant as `f64` microseconds — the metrics boundary (Chrome
    /// trace-event `ts` fields are natively microseconds).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The instant as `f64` milliseconds — the metrics boundary.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The instant as `f64` seconds — the metrics boundary.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self + d`, saturating at [`SimTime::MAX`] instead of wrapping.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// `self - earlier`, or `None` if `earlier` is in this instant's future.
    pub fn checked_sub(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// `self - earlier`, clamped to zero when `earlier` is later.
    pub fn saturating_sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The shortest non-empty span: one nanosecond, the clock's tick.
    pub const NANOSECOND: SimDuration = SimDuration(1);

    /// A span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// The span in nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Lossy ingest of an `f64` nanosecond span (rounds to nearest, clamps
    /// negatives to zero, saturates). This is where cost-model outputs enter
    /// the integer spine.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is NaN.
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration(ns_from_f64(ns))
    }

    /// Like [`SimDuration::from_ns_f64`] but rounds *up*, so any positive
    /// `f64` span maps to a non-empty integer span. Event loops use this to
    /// guarantee forward progress when quantizing fractional waits.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is NaN.
    pub fn from_ns_f64_ceil(ns: f64) -> Self {
        assert!(!ns.is_nan(), "virtual-time value is NaN");
        if ns <= 0.0 {
            SimDuration(0)
        } else if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns.ceil() as u64)
        }
    }

    /// Lossy ingest of an `f64` second span.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(ns_from_f64(secs * 1e9))
    }

    /// The span as `f64` nanoseconds — the metrics boundary.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64
    }

    /// The span as `f64` microseconds — the metrics boundary.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span as `f64` milliseconds — the metrics boundary.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span as `f64` seconds — the metrics boundary.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics on overflow past [`SimTime::MAX`]; use
    /// [`SimTime::saturating_add`] for "never"-style sentinels.
    fn add(self, d: SimDuration) -> SimTime {
        match self.0.checked_add(d.0) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime overflow: {self:?} + {d:?}"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics if the right operand is later than the left; use
    /// [`SimTime::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, earlier: SimTime) -> SimDuration {
        match self.checked_sub(earlier) {
            Some(d) => d,
            None => panic!("SimTime subtraction went negative: {self:?} - {earlier:?}"),
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics on overflow.
    fn add(self, other: SimDuration) -> SimDuration {
        match self.0.checked_add(other.0) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration overflow: {self:?} + {other:?}"),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact() {
        let mut t = SimTime::ZERO;
        for _ in 0..1_000_000 {
            t += SimDuration::from_ns(3);
        }
        assert_eq!(t.as_ns(), 3_000_000);
        assert_eq!(t - SimTime::from_ns(1), SimDuration::from_ns(2_999_999));
    }

    #[test]
    fn f64_ingest_rounds_clamps_and_saturates() {
        assert_eq!(SimDuration::from_ns_f64(1.4).as_ns(), 1);
        assert_eq!(SimDuration::from_ns_f64(1.5).as_ns(), 2);
        assert_eq!(SimDuration::from_ns_f64(-7.0).as_ns(), 0);
        assert_eq!(SimDuration::from_ns_f64(f64::INFINITY).as_ns(), u64::MAX);
        assert_eq!(SimDuration::from_ns_f64_ceil(0.001).as_ns(), 1);
        assert_eq!(SimDuration::from_ns_f64_ceil(0.0).as_ns(), 0);
        assert_eq!(SimTime::from_secs_f64(1.5).as_ns(), 1_500_000_000);
        assert_eq!(SimTime::from_ns_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_ingest_panics() {
        let _ = SimDuration::from_ns_f64(f64::NAN);
    }

    #[test]
    fn seconds_round_trip_is_exact_at_simulation_scale() {
        // as_secs_f64 → from_secs_f64 must return the identical instant for
        // any clock a multi-hour run can reach: the controller rewrites
        // request arrival times through this round trip.
        for ns in [0u64, 1, 999, 1_000_000_007, 86_400_000_000_000] {
            let t = SimTime::from_ns(ns);
            assert_eq!(SimTime::from_secs_f64(t.as_secs_f64()), t, "{ns}");
        }
    }

    #[test]
    fn saturating_ops_do_not_wrap() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ns(5)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_sub(SimTime::from_ns(5)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::ZERO.checked_sub(SimTime::from_ns(5)), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(SimTime::from_ns(42).to_string(), "42 ns");
        assert_eq!(SimDuration::from_ns(7).to_string(), "7 ns");
    }
}

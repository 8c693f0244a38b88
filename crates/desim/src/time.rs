//! Simulated time.
//!
//! Time is kept in integer nanoseconds. The paper reports many costs in
//! CPU cycles measured with `rdtsc` on a 2.00 GHz Xeon Gold 6330, so this
//! module also provides cycle conversions at that clock rate.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per simulated second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// CPU cycles per second of the simulated compute node (2.00 GHz).
pub const CYCLES_PER_SEC: u64 = 2_000_000_000;

/// An absolute point in simulated time, in nanoseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// simulation logic bug (an effect observed before its cause).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: negative duration"),
        )
    }

    /// Returns the duration elapsed since `earlier`, or zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Creates a duration from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this duration expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Multiplies the duration by an integer factor.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime(1_000) + SimDuration::from_nanos(500);
        assert_eq!(t, SimTime(1_500));
        assert_eq!(t.since(SimTime(1_000)).as_nanos(), 500);
        assert_eq!(t - SimTime(250), SimDuration(1_250));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = SimTime(5).since(SimTime(10));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(SimTime(5).saturating_since(SimTime(10)), SimDuration::ZERO);
        assert_eq!(
            SimTime(10).saturating_since(SimTime(5)),
            SimDuration::from_nanos(5)
        );
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(999).to_string(), "999ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
    }
}

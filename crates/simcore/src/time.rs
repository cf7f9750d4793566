//! Simulation time base.
//!
//! Time is measured in integer **picoseconds** from the start of the
//! simulation. At picosecond resolution a `u64` covers roughly 213 days of
//! simulated time, far beyond any experiment in the testbed (the longest
//! paper experiment is minutes of simulated wall-clock). Picoseconds are
//! fine enough to express single CPU cycles exactly-ish at multi-GHz clock
//! rates (one cycle at 2.4 GHz is ~417 ps), which keeps cycle accounting
//! honest without floating-point time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute instant in simulated time (picoseconds since t=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (picoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }
    /// Construct from fractional seconds. Rounds to the nearest picosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative absolute time");
        SimTime((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future (callers comparing clocks that may disagree, e.g.
    /// guest vs host clocks, rely on this not panicking).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Addition of a duration that clamps at [`SimTime::MAX`]. An event
    /// scheduled past the end of representable time lands on the
    /// "never" sentinel instead of panicking.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration; sentinel for "unbounded".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }
    /// Construct from fractional seconds, rounding to the nearest picosecond.
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Whole seconds, or `None` when the span exceeds the picosecond
    /// range (about 213.5 days).
    pub fn checked_from_secs(s: u64) -> Option<Self> {
        s.checked_mul(PS_PER_SEC).map(SimDuration)
    }

    /// Fractional seconds rounded like [`SimDuration::from_secs_f64`], or
    /// `None` when `s` is negative, not finite, or beyond the picosecond
    /// range.
    pub fn checked_from_secs_f64(s: f64) -> Option<Self> {
        let ps = (s * PS_PER_SEC as f64).round();
        // 2^64 is exactly representable; every smaller rounded value
        // converts without saturating.
        (s.is_finite() && s >= 0.0 && ps < 18_446_744_073_709_551_616.0)
            .then(|| SimDuration::from_secs_f64(s))
    }

    /// Raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }
    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }
    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative float factor, rounding to the nearest
    /// picosecond. Used by timing models applying slowdown factors.
    /// Factor 1.0 is the exact identity (durations beyond 2^53 ps would
    /// otherwise lose a ULP through the float round-trip).
    pub fn scale(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative scale factor");
        if factor == 1.0 {
            return self;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated more than ~213 days"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_nanos(1), SimTime::from_picos(1000));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2000));
        assert_eq!(SimDuration::from_micros(2), SimDuration::from_nanos(2000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.since(early), SimDuration::from_secs(1));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn float_conversion_roundtrip() {
        let d = SimDuration::from_secs_f64(1.234_567);
        assert!((d.as_secs_f64() - 1.234_567).abs() < 1e-9);
        let t = SimTime::from_secs_f64(0.5);
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn checked_constructors_stop_at_the_picosecond_range() {
        // u64::MAX ps is 18_446_744.07... s.
        assert!(SimDuration::checked_from_secs(18_446_744).is_some());
        assert!(SimDuration::checked_from_secs(18_446_745).is_none());
        assert_eq!(
            SimDuration::checked_from_secs_f64(1.5),
            Some(SimDuration::from_millis(1500))
        );
        assert!(SimDuration::checked_from_secs_f64(18_446_744.0).is_some());
        assert!(SimDuration::checked_from_secs_f64(18_446_744.1).is_none());
        for bad in [-1.0, f64::NAN, f64::INFINITY, 1e30] {
            assert!(SimDuration::checked_from_secs_f64(bad).is_none(), "{bad}");
        }
        let late = SimTime::from_secs(18_000_000);
        assert_eq!(late.saturating_add(SimDuration::MAX), SimTime::MAX);
        assert_eq!(
            late.saturating_add(SimDuration::from_secs(1)),
            SimTime::from_secs(18_000_001)
        );
    }

    #[test]
    fn negative_float_duration_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn scale_rounds() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.scale(1.5), SimDuration::from_nanos(150));
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_picos(7)), "7ps");
        assert_eq!(format!("{}", SimDuration::from_nanos(7)), "7.000ns");
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7)), "7.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn div_mul() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d * 3, SimDuration::from_micros(30));
    }
}

//! Discrete simulation time.
//!
//! All of FRAP uses an integer microsecond clock. Integer time makes the
//! discrete-event simulator deterministic (no floating-point drift in event
//! ordering) while one-microsecond resolution is far finer than any quantity
//! in the paper's evaluation (computation times are milliseconds, deadlines
//! are hundreds of milliseconds to seconds).
//!
//! Two newtypes are provided:
//!
//! * [`Time`] — an absolute instant on the simulation clock.
//! * [`TimeDelta`] — a non-negative span between instants (a computation
//!   time, a relative deadline, a stage delay, …).
//!
//! # Examples
//!
//! ```
//! use frap_core::time::{Time, TimeDelta};
//!
//! let arrival = Time::ZERO + TimeDelta::from_millis(3);
//! let deadline = arrival + TimeDelta::from_secs(1);
//! assert_eq!(deadline - arrival, TimeDelta::from_secs(1));
//! assert_eq!(deadline.as_micros(), 1_003_000);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in integer microseconds.
///
/// `Time` is totally ordered and starts at [`Time::ZERO`]. Subtracting two
/// instants yields a [`TimeDelta`]; adding a delta yields a later instant.
///
/// # Examples
///
/// ```
/// use frap_core::time::{Time, TimeDelta};
/// let t = Time::from_secs(2);
/// assert!(t > Time::ZERO);
/// assert_eq!(t + TimeDelta::from_millis(500), Time::from_micros(2_500_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A non-negative span of simulation time, in integer microseconds.
///
/// Used for computation times, relative deadlines, periods, stage delays and
/// every other duration-valued quantity in FRAP.
///
/// # Examples
///
/// ```
/// use frap_core::time::TimeDelta;
/// let c = TimeDelta::from_millis(10);
/// assert_eq!(c * 3, TimeDelta::from_millis(30));
/// assert_eq!(c.as_secs_f64(), 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl Time {
    /// The origin of the simulation clock.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant `micros` microseconds after the origin.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Time(micros)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Time(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Time(secs * 1_000_000)
    }

    /// Microseconds since the origin.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span from `earlier` to `self`, or `None` if `earlier`
    /// is actually later.
    #[inline]
    pub fn checked_since(self, earlier: Time) -> Option<TimeDelta> {
        self.0.checked_sub(earlier.0).map(TimeDelta)
    }

    /// Returns the span from `earlier` to `self`, saturating at zero.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Adds a delta, saturating at [`Time::MAX`].
    #[inline]
    pub fn saturating_add(self, delta: TimeDelta) -> Time {
        Time(self.0.saturating_add(delta.0))
    }
}

impl TimeDelta {
    /// The empty span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable span.
    pub const MAX: TimeDelta = TimeDelta(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        TimeDelta(micros)
    }

    /// Creates a span of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        TimeDelta(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        TimeDelta(secs * 1_000_000)
    }

    /// Creates a span from a float number of seconds, rounding to the
    /// nearest microsecond. Negative or non-finite inputs become zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return TimeDelta::ZERO;
        }
        TimeDelta(round_to_u64(secs * 1e6))
    }

    /// The span in whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float (for ratios and reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this is the empty span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The ratio `self / other` as a float.
    ///
    /// This is how synthetic-utilization contributions `C_ij / D_i` are
    /// computed. Returns `f64::INFINITY` when `other` is zero and `self`
    /// is not, and `0.0` when both are zero.
    #[inline]
    pub fn ratio(self, other: TimeDelta) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// Subtraction saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Scales the span by a non-negative float, rounding to the nearest
    /// microsecond. Negative or non-finite factors yield zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> TimeDelta {
        if !factor.is_finite() || factor <= 0.0 {
            return TimeDelta::ZERO;
        }
        TimeDelta(round_to_u64(self.0 as f64 * factor))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.min(other.0))
    }
}

/// 2⁵²: from here up every `f64` is an integer.
const INTEGRAL_F64: f64 = (1u64 << 52) as f64;

/// `x.round() as u64` for a positive `x` (half away from zero, saturating)
/// without `f64::round`, which lowers to a libm call on baseline x86-64 —
/// the trick `fixed::fp_from_utilization` uses for its ceil.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    if x >= INTEGRAL_F64 {
        // Already an integer; the cast saturates past `u64::MAX`.
        return x as u64;
    }
    // The cast truncates; below 2⁵² the fraction `x - t` is exact.
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    /// The span from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(TimeDelta::from_secs(2), TimeDelta::from_micros(2_000_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::from_millis(5);
        let d = TimeDelta::from_millis(7);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn ratio_computes_utilization_contribution() {
        let c = TimeDelta::from_millis(10);
        let d = TimeDelta::from_secs(1);
        assert!((c.ratio(d) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(TimeDelta::ZERO.ratio(TimeDelta::ZERO), 0.0);
        assert_eq!(
            TimeDelta::from_micros(1).ratio(TimeDelta::ZERO),
            f64::INFINITY
        );
    }

    /// Against `f64::round` at the ties, just below a tie, around and past
    /// 2⁵², at the `u64` edge and over a random sweep.
    #[test]
    fn round_to_u64_matches_f64_round() {
        let check = |x: f64| assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        for k in 0..1_000u32 {
            check(f64::from(k) + 0.5);
            check(f64::from(k) + 0.25);
        }
        let p52 = INTEGRAL_F64;
        for x in [
            0.499_999_999_999_999_94,
            0.5,
            p52 - 1.5,
            p52 - 0.5,
            p52 - 1.0,
            p52,
            p52 + 1.0,
            2.0 * p52,
            2.0 * p52 + 2.0,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            check(x);
        }
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            // A uniform mantissa at exponents 2⁻² … 2⁶¹.
            let x = f64::from_bits((1021 + bits % 64) << 52 | bits >> 12);
            check(x);
        }
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(
            TimeDelta::from_secs_f64(0.0000015),
            TimeDelta::from_micros(2)
        );
        assert_eq!(TimeDelta::from_secs_f64(-3.0), TimeDelta::ZERO);
        assert_eq!(TimeDelta::from_secs_f64(f64::NAN), TimeDelta::ZERO);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            Time::ZERO.saturating_since(Time::from_secs(1)),
            TimeDelta::ZERO
        );
        assert_eq!(Time::MAX.saturating_add(TimeDelta::from_secs(1)), Time::MAX);
        assert_eq!(
            TimeDelta::from_micros(3).saturating_sub(TimeDelta::from_micros(5)),
            TimeDelta::ZERO
        );
    }

    #[test]
    fn checked_since() {
        let a = Time::from_millis(1);
        let b = Time::from_millis(2);
        assert_eq!(b.checked_since(a), Some(TimeDelta::from_millis(1)));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = TimeDelta::from_micros(10);
        assert_eq!(d.mul_f64(1.5), TimeDelta::from_micros(15));
        assert_eq!(d.mul_f64(-1.0), TimeDelta::ZERO);
        assert_eq!(d.mul_f64(f64::INFINITY), TimeDelta::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Time::ZERO).is_empty());
        assert!(!format!("{}", TimeDelta::from_micros(5)).is_empty());
        assert!(format!("{}", TimeDelta::from_millis(5)).contains("ms"));
        assert!(format!("{}", TimeDelta::from_secs(5)).contains('s'));
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = [1u64, 2, 3]
            .iter()
            .map(|&m| TimeDelta::from_millis(m))
            .sum();
        assert_eq!(total, TimeDelta::from_millis(6));
    }
}

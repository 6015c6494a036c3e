//! Time sources for the admission service.
//!
//! The service is generic over a [`Clock`] so the exact same code path
//! runs against the wall clock in production ([`MonotonicClock`]) and
//! against a hand-advanced virtual clock in deterministic tests
//! ([`ManualClock`]). Both report [`Time`] in microseconds, the unit the
//! whole workspace uses for synthetic-utilization bookkeeping.

use frap_core::time::{Time, TimeDelta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic, thread-safe source of the current time.
///
/// Implementations must be monotone (successive `now()` calls on any one
/// thread never go backwards) — the decrement wheel relies on time only
/// moving forward.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Time;

    /// The current time, given an [`Instant`] the caller already sampled
    /// a moment ago. Wall-clock implementations can convert the hint
    /// instead of issuing a second system clock read; virtual clocks
    /// ignore it. The default just calls [`Clock::now`]. The hint must
    /// not be from the future; results may be up to "now − hint" stale,
    /// which callers on the hot path accept by construction (they took
    /// the hint at entry, nanoseconds ago).
    fn now_with_hint(&self, _hint: Instant) -> Time {
        self.now()
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> Time {
        (**self).now()
    }

    fn now_with_hint(&self, hint: Instant) -> Time {
        (**self).now_with_hint(hint)
    }
}

impl<C: Clock + ?Sized> Clock for std::sync::Arc<C> {
    fn now(&self) -> Time {
        (**self).now()
    }

    fn now_with_hint(&self, hint: Instant) -> Time {
        (**self).now_with_hint(hint)
    }
}

/// Wall-clock time, measured monotonically from the instant the clock was
/// created (so `now()` starts near zero and never jumps with NTP).
#[derive(Debug)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose zero is "now".
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> MonotonicClock {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Time {
        Time::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn now_with_hint(&self, hint: Instant) -> Time {
        // Saves a system clock read on the decision fast path; the hint
        // was sampled after `epoch`, so the subtraction is well-defined.
        Time::from_micros(hint.duration_since(self.epoch).as_micros() as u64)
    }
}

/// A hand-advanced clock for deterministic tests.
///
/// Shared freely across threads; `advance`/`set` publish with sequentially
/// consistent ordering so a reader that observes an effect of the writer
/// also observes the new time.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock starting at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Moves the clock forward by `delta`.
    pub fn advance(&self, delta: TimeDelta) {
        self.micros.fetch_add(delta.as_micros(), Ordering::SeqCst);
    }

    /// Sets the clock to `t`. Panics if that would move time backwards.
    pub fn set(&self, t: Time) {
        let prev = self.micros.swap(t.as_micros(), Ordering::SeqCst);
        assert!(
            prev <= t.as_micros(),
            "ManualClock::set would move time backwards ({} -> {})",
            prev,
            t.as_micros()
        );
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Time {
        Time::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Time::ZERO);
        c.advance(TimeDelta::from_micros(250));
        assert_eq!(c.now(), Time::from_micros(250));
        c.set(Time::from_micros(1_000));
        assert_eq!(c.now(), Time::from_micros(1_000));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let c = ManualClock::new();
        c.set(Time::from_micros(10));
        c.set(Time::from_micros(5));
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a <= b);
    }

    #[test]
    fn hinted_reads_interleave_monotonically_with_plain_reads() {
        let c = MonotonicClock::new();
        let a = c.now();
        let hinted = c.now_with_hint(Instant::now());
        let b = c.now();
        assert!(a <= hinted && hinted <= b);
        // Manual clocks ignore the hint entirely.
        let m = ManualClock::new();
        m.set(Time::from_micros(42));
        assert_eq!(m.now_with_hint(Instant::now()), Time::from_micros(42));
    }
}

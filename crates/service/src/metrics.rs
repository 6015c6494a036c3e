//! Service observability: decision counters and decision-latency
//! percentiles.
//!
//! The latency histogram reuses [`frap_core::hist::LatencyHistogram`]
//! (moved out of the simulator for exactly this purpose) but records
//! **nanoseconds** rather than microseconds: admission decisions take on
//! the order of 100 ns, far below the workspace's microsecond tick, so
//! the histogram's integer tick is reinterpreted as 1 ns here. The
//! `*_ns` accessors do the unit bookkeeping so callers never touch a
//! mislabeled `TimeDelta`.

use frap_core::hist::{AtomicLatencyHistogram, LatencyHistogram};
use frap_core::time::TimeDelta;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone decision counters, updated lock-free. The service keeps one
/// per lane (`shard::Lane`), written by that lane's home thread, so the
/// per-decision RMW never leaves its core's cache.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    released: AtomicU64,
    released_in_ring: AtomicU64,
    expired: AtomicU64,
    expired_on_arrival: AtomicU64,
    fast_rejected: AtomicU64,
    seqlock_fallbacks: AtomicU64,
    cas_retries: AtomicU64,
}

impl ServiceCounters {
    pub(crate) fn add_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_rejected_n(&self, n: u64) {
        self.rejected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    /// One release run: `n` tickets, `in_ring` caught on the pending ring.
    pub(crate) fn add_released(&self, n: u64, in_ring: u64) {
        self.released.fetch_add(n, Ordering::Relaxed);
        if in_ring > 0 {
            self.released_in_ring.fetch_add(in_ring, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_expired(&self, n: u64) {
        self.expired.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_expired_on_arrival_n(&self, n: u64) {
        self.expired_on_arrival.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` rejections concluded without a shard lock. They are
    /// *not* also added to `rejected` here — the reject path pays exactly
    /// one atomic RMW per decision (or per batch run) — `snapshot` folds
    /// the two together so [`CounterSnapshot::rejected`] still covers
    /// every rejection.
    pub(crate) fn add_fast_rejected(&self, n: u64) {
        self.fast_rejected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_seqlock_fallback(&self) {
        self.seqlock_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_cas_retry(&self) {
        self.cas_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds this stripe's counts into `sum` (the service keeps one stripe
    /// per lane and reports their sum).
    pub(crate) fn add_into(&self, sum: &mut CounterSnapshot) {
        let fast_rejected = self.fast_rejected.load(Ordering::Relaxed);
        sum.admitted += self.admitted.load(Ordering::Relaxed);
        // Snapshot rejects keep their own tally so each decision costs
        // one RMW; `rejected` reports the sum.
        sum.rejected += self.rejected.load(Ordering::Relaxed) + fast_rejected;
        sum.shed += self.shed.load(Ordering::Relaxed);
        sum.released += self.released.load(Ordering::Relaxed);
        sum.released_in_ring += self.released_in_ring.load(Ordering::Relaxed);
        sum.expired += self.expired.load(Ordering::Relaxed);
        sum.expired_on_arrival += self.expired_on_arrival.load(Ordering::Relaxed);
        sum.fast_rejected += fast_rejected;
        sum.seqlock_fallbacks += self.seqlock_fallbacks.load(Ordering::Relaxed);
        sum.cas_retries += self.cas_retries.load(Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut sum = CounterSnapshot::default();
        self.add_into(&mut sum);
        sum
    }
}

/// A point-in-time copy of [`ServiceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Arrivals admitted (including after shedding).
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Admitted tasks evicted to make room for more important arrivals.
    pub shed: u64,
    /// Tickets released (dropped or explicitly released) before deadline.
    pub released: u64,
    /// The subset of `released` caught on the pending ring by the release
    /// run that came for it: it never touched the entry map, the shed
    /// order or the timer wheel (DESIGN.md §16).
    pub released_in_ring: u64,
    /// Contributions decremented at their deadline by the timer wheel.
    pub expired: u64,
    /// Arrivals turned away before the admission test because their
    /// deadline budget was already consumed in transit (a front end such
    /// as `frap-gateway` charges these via
    /// [`note_expired_on_arrival_n`](crate::AdmissionService::note_expired_on_arrival_n);
    /// they never touch the shards and are not counted as decisions).
    pub expired_on_arrival: u64,
    /// The subset of `rejected` concluded by `try_admit` / `admit_batch`
    /// (DESIGN.md §16) without taking a shard mutex; the rest were
    /// refused while draining or by the shedding path.
    pub fast_rejected: u64,
    /// Write-stable snapshot attempts
    /// ([`gated_utilizations`](crate::AdmissionService::gated_utilizations))
    /// that overlapped a charge's write section and retried. Diagnostic
    /// only — decision paths use plain reads and never spin here.
    pub seqlock_fallbacks: u64,
    /// Optimistic CAS-charge attempts that failed post-charge
    /// revalidation, rolled back exactly, and retried. Diagnostic only —
    /// contention cost, never a wrong verdict.
    pub cas_retries: u64,
}

impl CounterSnapshot {
    /// Total admission decisions taken (admit + reject).
    pub fn decisions(&self) -> u64 {
        self.admitted + self.rejected
    }

    /// Fraction of decisions that admitted (1 if no decisions yet).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.decisions() == 0 {
            1.0
        } else {
            self.admitted as f64 / self.decisions() as f64
        }
    }
}

/// Everything the service reports at once: counters, the merged
/// decision-latency histogram, the current utilization vector, and the
/// live-task count.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Decision counters at snapshot time.
    pub counters: CounterSnapshot,
    /// Merged decision-latency histogram; values are **nanoseconds**
    /// (see the module docs). Prefer the `decision_*_ns` accessors.
    pub decision_latency: LatencyHistogram,
    /// Aggregate synthetic utilization per stage at snapshot time.
    pub utilizations: Vec<f64>,
    /// Admitted tasks whose deadlines have not yet passed.
    pub live_tasks: usize,
}

impl MetricsSnapshot {
    /// Decision latency at quantile `q ∈ [0, 1]`, in nanoseconds.
    pub fn decision_latency_ns(&self, q: f64) -> u64 {
        ns_of(self.decision_latency.percentile(q))
    }

    /// Worst observed decision latency, in nanoseconds. When
    /// [`MetricsSnapshot::decision_max_is_bound`] is true this is a
    /// certain **lower** bound (`true max >= this`), not a sample: the
    /// service records into a bucket-only atomic histogram, which knows
    /// extremes to bucket resolution, and its saturation bucket claims
    /// no upper bound at all.
    pub fn decision_max_ns(&self) -> u64 {
        ns_of(self.decision_latency.max_lower_bound())
    }

    /// Whether [`MetricsSnapshot::decision_max_ns`] is a bucket bound
    /// rather than an exact sample.
    pub fn decision_max_is_bound(&self) -> bool {
        !self.decision_latency.max_is_exact()
    }
}

/// Records `n` decisions of one duration into the service's
/// nanosecond-valued histogram.
pub(crate) fn record_ns(hist: &AtomicLatencyHistogram, elapsed: std::time::Duration, n: u64) {
    // The histogram's tick is reinterpreted as 1 ns (module docs).
    hist.record_n(TimeDelta::from_micros(elapsed.as_nanos() as u64), n);
}

fn ns_of(value: TimeDelta) -> u64 {
    value.as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot() {
        let c = ServiceCounters::default();
        c.add_admitted();
        c.add_admitted();
        c.add_rejected();
        c.add_shed(3);
        c.add_released(3, 2);
        c.add_expired(2);
        c.add_expired_on_arrival_n(1);
        c.add_fast_rejected(1);
        c.add_seqlock_fallback();
        c.add_cas_retry();
        let s = c.snapshot();
        assert_eq!(s.admitted, 2);
        // One shed-path rejection plus one snapshot rejection: `rejected`
        // reports the sum, `fast_rejected` the lock-free subset.
        assert_eq!(s.rejected, 2);
        assert_eq!(s.shed, 3);
        assert_eq!(s.released, 3);
        assert_eq!(s.released_in_ring, 2);
        assert_eq!(s.expired, 2);
        assert_eq!(s.expired_on_arrival, 1);
        assert_eq!(s.fast_rejected, 1);
        assert_eq!(s.seqlock_fallbacks, 1);
        assert_eq!(s.cas_retries, 1);
        assert_eq!(s.decisions(), 4);
        assert!((s.acceptance_ratio() - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn latency_is_recorded_in_nanoseconds() {
        let recorded = AtomicLatencyHistogram::new();
        record_ns(&recorded, std::time::Duration::from_nanos(800), 3);
        let mut h = LatencyHistogram::new();
        recorded.merge_into(&mut h);
        assert_eq!(h.count(), 3, "one sample per decision of the run");
        let snap = MetricsSnapshot {
            counters: CounterSnapshot::default(),
            decision_latency: h,
            utilizations: vec![],
            live_tasks: 0,
        };
        let p99 = snap.decision_latency_ns(0.99);
        assert!((700..=900).contains(&p99), "p99={p99}");
    }
}

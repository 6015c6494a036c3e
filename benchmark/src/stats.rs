//! Percentile math and the benchmark's own latency recorder.
//!
//! Latencies are kept as exact nanosecond samples (not
//! `frap_core::hist::LatencyHistogram`, whose 12.5 %-wide buckets make
//! p50/p99 move in steps), so every reported percentile is a sample that
//! was actually observed.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the rule the benchmark's acceptance spread is defined
/// by. Needs at least two values; fewer yield the single value thrice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 0 {
        return (0.0, 0.0, 0.0);
    }
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least `beyond` samples
/// strictly past it, as `(index into the sorted samples, percentile)`.
/// `None` when there are not enough samples for any such percentile.
pub fn tail_rank(n: usize, beyond: usize) -> Option<(usize, f64)> {
    if n <= beyond {
        return None;
    }
    let idx = n - beyond - 1;
    Some((idx, (idx + 1) as f64 / n as f64))
}

/// What a [`Recorder`] reports: median, p99, and the highest percentile
/// with at least ten samples beyond it, all in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_ns: u32,
    pub p90_ns: u32,
    pub p99_ns: u32,
    /// Value at [`LatencySummary::tail_percentile`].
    pub tail_ns: u32,
    /// The highest percentile with ≥ 10 samples beyond it (0 if fewer
    /// than 11 samples were taken).
    pub tail_percentile: f64,
    pub max_ns: u32,
}

/// Exact nanosecond samples. Saturates at `u32::MAX` ns (4.29 s), far past
/// any latency the workloads can produce without failing outright.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    samples: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Recorder {
        Recorder {
            samples: Vec::with_capacity(n),
        }
    }

    /// Forgets the samples and keeps the buffer.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(ns.min(u32::MAX as u64) as u32);
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Splits the samples, in the order they were recorded, into `windows`
    /// consecutive windows, summarises each, and reports the **median**
    /// p50 / p90 / p99 over the windows. A hypervisor stall lands in one
    /// window and moves that window's p99 by orders of magnitude; the
    /// median over windows reads the tail the system has the rest of the
    /// time, which is what repeats from run to run. Count, tail and max
    /// still describe the whole sample.
    pub fn windowed_summary(&mut self, windows: usize) -> LatencySummary {
        let n = self.samples.len();
        let windows = windows.clamp(1, (n / 1000).max(1));
        let mut p50 = Vec::with_capacity(windows);
        let mut p90 = Vec::with_capacity(windows);
        let mut p99 = Vec::with_capacity(windows);
        for w in 0..windows {
            let mut window = Recorder {
                samples: self.samples[w * n / windows..(w + 1) * n / windows].to_vec(),
            };
            let s = window.summary();
            p50.push(s.p50_ns as f64);
            p90.push(s.p90_ns as f64);
            p99.push(s.p99_ns as f64);
        }
        let whole = self.summary();
        LatencySummary {
            p50_ns: median(&p50) as u32,
            p90_ns: median(&p90) as u32,
            p99_ns: median(&p99) as u32,
            ..whole
        }
    }

    /// Sorts the samples and summarises them.
    pub fn summary(&mut self) -> LatencySummary {
        self.samples.sort_unstable();
        let s = &self.samples;
        if s.is_empty() {
            return LatencySummary::default();
        }
        let (tail_ns, tail_percentile) = match tail_rank(s.len(), 10) {
            Some((idx, pct)) => (s[idx], pct),
            None => (0, 0.0),
        };
        LatencySummary {
            count: s.len(),
            p50_ns: percentile_sorted(s, 0.50),
            p90_ns: percentile_sorted(s, 0.90),
            p99_ns: percentile_sorted(s, 0.99),
            tail_ns,
            tail_percentile,
            max_ns: *s.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        // Nearest rank never interpolates: every answer is a sample.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 0.51), 30);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_rank(10, 10), None);
        // 11 samples: only the smallest has ten beyond it.
        assert_eq!(tail_rank(11, 10), Some((0, 1.0 / 11.0)));
        // 1000 samples: index 989 has exactly ten beyond it => p99.
        assert_eq!(tail_rank(1000, 10), Some((989, 0.99)));
        let (idx, pct) = tail_rank(1_000_000, 10).unwrap();
        assert_eq!(idx, 999_989);
        assert!((pct - 0.99999).abs() < 1e-9);

        let mut rec = Recorder::default();
        for ns in 1..=1000u64 {
            rec.record_ns(ns);
        }
        let s = rec.summary();
        assert_eq!(
            (s.count, s.p50_ns, s.p99_ns, s.max_ns),
            (1000, 500, 990, 1000)
        );
        assert_eq!(s.tail_ns, 990);
        assert_eq!(s.tail_percentile, 0.99);

        let mut few = Recorder::default();
        for ns in 0..10 {
            few.record_ns(ns);
        }
        let s = few.summary();
        assert_eq!((s.tail_ns, s.tail_percentile), (0, 0.0));
    }

    #[test]
    fn windowed_summary_is_the_median_over_windows() {
        // Three windows of 1000 samples; the middle one is hit by a stall.
        let mut rec = Recorder::default();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                rec.record_ns(if w == 1 && i % 2 == 0 {
                    1_000_000
                } else {
                    100 + i % 10
                });
            }
        }
        let whole = rec.clone().summary();
        assert_eq!(whole.p99_ns, 1_000_000, "the stall owns the overall tail");
        let windowed = rec.windowed_summary(3);
        assert_eq!(windowed.p99_ns, 109, "two of three windows never saw it");
        assert_eq!(windowed.count, 3000);
        assert_eq!(windowed.max_ns, 1_000_000, "but the maximum still shows it");
        // Too few samples for the asked windows: fewer windows, never empty ones.
        let mut few = Recorder::default();
        for i in 0..1500u64 {
            few.record_ns(i);
        }
        assert_eq!(
            few.windowed_summary(16).p50_ns,
            few.clone().summary().p50_ns
        );
    }

    #[test]
    fn recorder_saturates_instead_of_wrapping() {
        let mut rec = Recorder::default();
        rec.record_ns(u64::MAX);
        assert_eq!(rec.summary().max_ns, u32::MAX);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        //   -> [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}

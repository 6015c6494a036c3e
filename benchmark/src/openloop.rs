//! Open-loop schedule accounting.
//!
//! An open loop sends on a fixed schedule regardless of how the system
//! is doing. Request `i` is **due** at `i / rate`; its latency is timed
//! from that instant, not from when the generator got round to sending
//! it, so a stall is charged to every request that had to wait behind it.
//! How late the generator itself ran (send time minus due time) is
//! reported separately, so a slow generator cannot pass for a slow
//! system.
//!
//! This module is pure bookkeeping — the transport lives in the callers —
//! so the accounting can be unit-tested under an injected stall.

use crate::stats::Recorder;
use std::collections::VecDeque;

/// A fixed-rate schedule of `total` requests starting at time zero.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate_per_s: f64,
    total: u64,
}

impl Schedule {
    /// `rate_per_s` requests per second for `duration_ns`.
    pub fn new(rate_per_s: f64, duration_ns: u64) -> Schedule {
        Schedule {
            rate_per_s,
            total: (rate_per_s * duration_ns as f64 / 1e9).floor() as u64,
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// When request `i` is due, in ns since the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s) as u64
    }

    /// How many requests are due at `now_ns` (request 0 is due at 0).
    pub fn due_count(&self, now_ns: u64) -> u64 {
        (((now_ns as f64) * self.rate_per_s / 1e9).floor() as u64 + 1).min(self.total)
    }
}

/// Per-rung accounting: what was due, sent, answered, and how late.
#[derive(Debug)]
pub struct OpenLoop {
    pub schedule: Schedule,
    sent: u64,
    answered: u64,
    /// Due times of requests sent and not yet answered, FIFO.
    inflight: VecDeque<u64>,
    /// Latency from **due** time to reply.
    pub rtt: Recorder,
    /// Generator lateness: send time minus due time.
    pub lateness: Recorder,
    /// `due − answered` sampled at the rung's midpoint and end.
    backlog_mid: Option<u64>,
}

impl OpenLoop {
    #[cfg(test)]
    pub fn new(schedule: Schedule) -> OpenLoop {
        let n = schedule.total() as usize;
        OpenLoop::reusing(
            schedule,
            [Recorder::with_capacity(n), Recorder::with_capacity(n)],
        )
    }

    /// Like [`OpenLoop::new`], recording into `[rtt, lateness]` recorders
    /// a previous rung has finished with (emptied here, their buffers
    /// kept). A ladder that reuses one pair sized for its largest rung
    /// has the same peak memory in every run; a fresh pair per rung left
    /// the peak to how the allocator happened to recycle the last one
    /// (`peak_rss_mb` read 27.5 or 31.2 MiB on `gw_reject`).
    pub fn reusing(schedule: Schedule, [mut rtt, mut lateness]: [Recorder; 2]) -> OpenLoop {
        rtt.clear();
        lateness.clear();
        OpenLoop {
            schedule,
            sent: 0,
            answered: 0,
            inflight: VecDeque::with_capacity(4096),
            rtt,
            lateness,
            backlog_mid: None,
        }
    }

    pub fn sent(&self) -> u64 {
        self.sent
    }

    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// How many requests may be sent at `now_ns` without exceeding
    /// `inflight_cap` outstanding.
    pub fn sendable(&self, now_ns: u64, inflight_cap: usize) -> u64 {
        let due = self.schedule.due_count(now_ns).saturating_sub(self.sent);
        due.min(inflight_cap.saturating_sub(self.inflight.len()) as u64)
    }

    /// The next request leaves at `now_ns`; returns its index.
    pub fn on_send(&mut self, now_ns: u64) -> u64 {
        let i = self.sent;
        let due = self.schedule.due_ns(i);
        self.lateness.record_ns(now_ns.saturating_sub(due));
        self.inflight.push_back(due);
        self.sent += 1;
        i
    }

    /// The oldest outstanding request was answered at `now_ns`. Returns
    /// false if nothing was outstanding (a reply without a request).
    pub fn on_reply(&mut self, now_ns: u64) -> bool {
        match self.inflight.pop_front() {
            Some(due) => {
                self.rtt.record_ns(now_ns.saturating_sub(due));
                self.answered += 1;
                if self.backlog_mid.is_none() && self.sent >= self.schedule.total() / 2 {
                    self.backlog_mid = Some(self.backlog(now_ns));
                }
                true
            }
            None => false,
        }
    }

    /// Requests due by `now_ns` and not yet answered.
    pub fn backlog(&self, now_ns: u64) -> u64 {
        self.schedule
            .due_count(now_ns)
            .saturating_sub(self.answered)
    }

    /// Requests that were due but never sent (the generator could not
    /// keep the schedule); counted as failures at rated rungs.
    pub fn unsent(&self) -> u64 {
        self.schedule.total().saturating_sub(self.sent)
    }

    /// Whether the backlog at the end (`end_backlog`, taken when the
    /// schedule ran out) grew past twice its midpoint value: the queue is
    /// growing, so the rung is past what the system sustains.
    pub fn backlog_growing(&self, end_backlog: u64) -> bool {
        end_backlog > (2 * self.backlog_mid.unwrap_or(0)).max(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_and_bounded() {
        let s = Schedule::new(1000.0, 10_000_000); // 1 kHz for 10 ms
        assert_eq!(s.total(), 10);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(5), 5_000_000);
        assert_eq!(s.due_count(0), 1);
        assert_eq!(s.due_count(4_999_999), 5);
        assert_eq!(s.due_count(5_000_000), 6);
        assert_eq!(s.due_count(u64::MAX / 2), 10, "never past the total");
    }

    /// A generator that stalls for 10 ms: the requests that became due
    /// during the stall are sent late, and their latency must include the
    /// wait — timing from the send instant would hide it entirely.
    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        const MS: u64 = 1_000_000;
        let mut ol = OpenLoop::new(Schedule::new(1000.0, 20 * MS));
        let service_ns = 100_000; // the system answers 0.1 ms after a send
        let mut send_based = Vec::new();

        // On schedule for requests 0..5.
        for i in 0..5 {
            let now = i * MS;
            assert_eq!(ol.sendable(now, 1024), 1);
            ol.on_send(now);
            assert!(ol.on_reply(now + service_ns));
            send_based.push(service_ns);
        }
        // The generator stalls from t = 5 ms to t = 15 ms. Requests 5..=15
        // all become due meanwhile and leave in one burst at 15 ms.
        let now = 15 * MS;
        assert_eq!(ol.sendable(now, 1024), 11);
        for _ in 0..11 {
            ol.on_send(now);
        }
        for _ in 0..11 {
            assert!(ol.on_reply(now + service_ns));
            send_based.push(service_ns);
        }

        let rtt = ol.rtt.summary();
        let late = ol.lateness.summary();
        // Request 5 was due at 5 ms and answered at 15.1 ms.
        assert_eq!(rtt.max_ns as u64, 10 * MS + service_ns);
        // Timed from the send, every request would read 0.1 ms.
        assert!(send_based.iter().all(|&ns| ns == service_ns));
        // Sixteen samples: six on time, then 1.1, 2.1, … 10.1 ms. The
        // median (8th smallest) is one of the stalled requests.
        assert_eq!(rtt.p50_ns as u64, 2 * MS + service_ns);
        // The generator's own lateness is reported, not hidden.
        assert_eq!(late.max_ns as u64, 10 * MS);
        assert_eq!(late.p50_ns as u64, 2 * MS);
        assert_eq!(ol.sent(), 16);
        assert_eq!(ol.unsent(), 4);
    }

    #[test]
    fn inflight_cap_and_stray_replies() {
        let mut ol = OpenLoop::new(Schedule::new(1e6, 1_000_000)); // 1000 requests
        assert_eq!(ol.sendable(500_000, 8), 8, "capped by the window");
        for _ in 0..8 {
            ol.on_send(500_000);
        }
        assert_eq!(ol.sendable(500_000, 8), 0);
        assert_eq!(ol.inflight(), 8);
        for _ in 0..8 {
            assert!(ol.on_reply(600_000));
        }
        assert!(!ol.on_reply(600_000), "reply without a request");
        assert_eq!(ol.backlog(600_000), 601 - 8);
    }

    #[test]
    fn growing_backlog_is_detected() {
        let mut ol = OpenLoop::new(Schedule::new(1e6, 1_000_000));
        // Answer everything promptly up to the midpoint.
        for i in 0..500u64 {
            ol.on_send(i * 1000);
            ol.on_reply(i * 1000 + 10);
        }
        assert!(!ol.backlog_growing(3));
        assert!(ol.backlog_growing(500));
    }
}

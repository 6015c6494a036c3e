//! Heartbeat-miss bookkeeping: N consecutive missed beats ⇒ presumed
//! dead.

/// Counts heartbeat intervals elapsed since a peer was last heard.
///
/// The counter is purely derived state — `misses` is computed from the
/// last-heard instant rather than incremented by a timer, so a burst of
/// delayed frames arriving together cannot under-count silence and
/// there is no tick to keep scheduled. The coordinator keeps one per
/// node lease; the gateway server's idle sweep applies the same rule
/// per connection.
#[derive(Debug, Clone)]
pub struct MissCounter {
    interval_us: u64,
    limit: u32,
    last_heard_us: u64,
}

impl MissCounter {
    /// A counter expecting a beat every `interval_us`, declaring death
    /// after `limit` consecutive misses. The peer counts as heard at
    /// construction time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` or `limit` is zero.
    pub fn new(interval_us: u64, limit: u32, now_us: u64) -> MissCounter {
        assert!(interval_us > 0, "heartbeat interval must be positive");
        assert!(limit > 0, "miss limit must be positive");
        MissCounter {
            interval_us,
            limit,
            last_heard_us: now_us,
        }
    }

    /// Records a frame from the peer: the miss count restarts from zero.
    pub fn heard(&mut self, now_us: u64) {
        self.last_heard_us = self.last_heard_us.max(now_us);
    }

    /// Whole heartbeat intervals elapsed without hearing the peer.
    pub fn misses(&self, now_us: u64) -> u32 {
        let silent = now_us.saturating_sub(self.last_heard_us);
        (silent / self.interval_us).min(u64::from(u32::MAX)) as u32
    }

    /// Whether the silence has reached the miss limit.
    pub fn is_dead(&self, now_us: u64) -> bool {
        self.misses(now_us) >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_accumulate_with_silence_and_reset_on_contact() {
        let mut mc = MissCounter::new(100, 3, 1_000);
        assert_eq!(mc.misses(1_000), 0);
        assert_eq!(mc.misses(1_099), 0);
        assert_eq!(mc.misses(1_100), 1);
        assert_eq!(mc.misses(1_250), 2);
        assert!(!mc.is_dead(1_299));
        assert!(mc.is_dead(1_300));

        mc.heard(1_250);
        assert_eq!(mc.misses(1_300), 0);
        assert!(!mc.is_dead(1_549));
        assert!(mc.is_dead(1_550));
    }

    #[test]
    fn out_of_order_heard_never_rewinds() {
        let mut mc = MissCounter::new(100, 2, 500);
        mc.heard(900);
        mc.heard(700); // a delayed, reordered frame
        assert_eq!(mc.misses(1_000), 1);
    }
}

//! A hierarchical timer wheel scheduling decrement-at-deadline events.
//!
//! The library controller (`frap_core::admission::Admission`) uses a
//! `BinaryHeap` of expiry instants, popped under a single owner. The
//! concurrent service instead keeps one wheel per shard: insertion and
//! expiry are `O(1)` amortized, and a thread advancing its shard's wheel
//! touches at most `LEVELS × SLOTS` slots regardless of how far the clock
//! jumped while the shard was cold.
//!
//! Exactness contract (matches `StageTracker::advance_to`): after
//! `advance(now, out)`, `out` holds **every** inserted entry with
//! `expiry ≤ now` (deadline inclusive) and no entry with `expiry > now`,
//! sorted by `(expiry, id)` — the same deterministic order in which the
//! library's expiry heap pops, so single-shard runs subtract
//! contributions in bit-identical order.

use frap_core::time::Time;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 8; // 64^8 µs ≈ 8.9 years of horizon
/// Slots at this level and above hand their buffer back once cascaded. A
/// level-2 slot is 4 ms wide and is refilled once per 262 ms lap, so at a
/// steady admit rate every one of the 64 would otherwise sit on its peak
/// capacity while only the few inside the deadline horizon hold entries —
/// wheel memory ~5× the live entries, growing with throughput. Finer
/// slots are refilled within 4 ms and keep theirs.
const RELEASE_FROM_LEVEL: usize = 2;

/// One scheduled decrement: the instant it is due and the ticket it
/// belongs to.
pub type WheelEntry = (Time, u64);

/// A hierarchical timer wheel over integer-microsecond time.
#[derive(Debug)]
pub struct TimerWheel {
    /// `slots[level * SLOTS + slot]`; level `l` slots are `64^l` µs wide.
    slots: Vec<Vec<WheelEntry>>,
    /// Entries inserted with `expiry ≤ cursor`: due immediately.
    due: Vec<WheelEntry>,
    /// Entries beyond the top level's horizon (practically unreachable).
    overflow: Vec<WheelEntry>,
    /// Scratch for [`TimerWheel::advance`]: entries lifted out of visited
    /// slots, reused across calls.
    cascade: Vec<WheelEntry>,
    cursor: Time,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel with its cursor at `start`.
    pub fn new(start: Time) -> TimerWheel {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            due: Vec::new(),
            overflow: Vec::new(),
            cascade: Vec::new(),
            cursor: start,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current time.
    pub fn cursor(&self) -> Time {
        self.cursor
    }

    /// Schedules `id` to come due at `expiry`. Entries at or before the
    /// cursor surface on the next [`TimerWheel::advance`] call.
    pub fn insert(&mut self, expiry: Time, id: u64) {
        self.len += 1;
        self.place((expiry, id));
    }

    fn place(&mut self, entry: WheelEntry) {
        let (expiry, _) = entry;
        if expiry <= self.cursor {
            self.due.push(entry);
            return;
        }
        let delta = expiry.as_micros() - self.cursor.as_micros();
        for level in 0..LEVELS {
            // Level `l` holds entries with delta in [64^l, 64^(l+1)).
            if delta < 1u64 << (SLOT_BITS * (level as u32 + 1)) {
                let width_bits = SLOT_BITS * level as u32;
                let slot = ((expiry.as_micros() >> width_bits) & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + slot].push(entry);
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// The earliest pending expiry, or `None` if the wheel is empty.
    ///
    /// `O(LEVELS × SLOTS + overflow)` — a full scan, *not* the `O(1)`
    /// insert/advance path. It backs the service's per-shard next-due
    /// hints, which only call it when a drain has consumed the previous
    /// hint, so the scan amortizes across many lock-free reads.
    pub fn earliest(&self) -> Option<Time> {
        let mut best: Option<Time> = None;
        let mut fold = |entries: &[WheelEntry]| {
            for &(expiry, _) in entries {
                best = Some(best.map_or(expiry, |b: Time| b.min(expiry)));
            }
        };
        fold(&self.due);
        for slot in &self.slots {
            fold(slot);
        }
        fold(&self.overflow);
        best
    }

    /// Moves the cursor to `now` and appends every entry with
    /// `expiry ≤ now` to `out`, sorted by `(expiry, id)`. Entries whose
    /// slot is visited but which are not yet due cascade to finer levels.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the cursor (time went backwards).
    pub fn advance(&mut self, now: Time, out: &mut Vec<WheelEntry>) {
        assert!(now >= self.cursor, "timer wheel cannot rewind");
        if self.len == 0 {
            // Nothing pending: snap the cursor forward without touching
            // any slots (keeps cold shards cheap to catch up).
            self.cursor = now;
            return;
        }
        let start = out.len();
        out.append(&mut self.due);

        let mut cascade = std::mem::take(&mut self.cascade);
        let old = self.cursor.as_micros();
        let new = now.as_micros();
        for level in 0..LEVELS {
            let width_bits = SLOT_BITS * level as u32;
            let old_idx = old >> width_bits;
            let new_idx = new >> width_bits;
            if old_idx == new_idx {
                // This level crossed no slot boundary, so no coarser level
                // did either.
                break;
            }
            // Visit every slot boundary crossed, at most one full lap.
            let steps = (new_idx - old_idx).min(SLOTS as u64);
            for s in 1..=steps {
                let slot = ((old_idx + s) & (SLOTS as u64 - 1)) as usize;
                let slot = &mut self.slots[level * SLOTS + slot];
                cascade.append(slot);
                if level >= RELEASE_FROM_LEVEL {
                    *slot = Vec::new();
                }
            }
            if new_idx >> SLOT_BITS != old_idx >> SLOT_BITS && level == LEVELS - 1 {
                // The top level wrapped: re-examine the overflow list.
                cascade.append(&mut self.overflow);
            }
        }

        self.cursor = now;
        for entry in cascade.drain(..) {
            if entry.0 <= now {
                out.push(entry);
            } else {
                self.place(entry);
            }
        }
        self.cascade = cascade;
        out.append(&mut self.due);
        self.len -= out.len() - start;
        out[start..].sort_unstable_by_key(|&(expiry, id)| (expiry, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Time {
        Time::from_micros(v)
    }

    fn drain(w: &mut TimerWheel, now: Time) -> Vec<u64> {
        let mut out = Vec::new();
        w.advance(now, &mut out);
        out.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn due_at_or_before_now_inclusive() {
        let mut w = TimerWheel::new(Time::ZERO);
        w.insert(us(10), 1);
        w.insert(us(11), 2);
        assert_eq!(drain(&mut w, us(9)), Vec::<u64>::new());
        assert_eq!(drain(&mut w, us(10)), vec![1]);
        assert_eq!(drain(&mut w, us(11)), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn insert_in_the_past_is_due_immediately() {
        let mut w = TimerWheel::new(us(100));
        w.insert(us(50), 7);
        w.insert(us(100), 8);
        assert_eq!(drain(&mut w, us(100)), vec![7, 8]);
    }

    #[test]
    fn output_sorted_by_expiry_then_id() {
        let mut w = TimerWheel::new(Time::ZERO);
        w.insert(us(500), 3);
        w.insert(us(200), 9);
        w.insert(us(200), 4);
        w.insert(us(70_000), 1);
        let mut out = Vec::new();
        w.advance(us(100_000), &mut out);
        assert_eq!(
            out,
            vec![(us(200), 4), (us(200), 9), (us(500), 3), (us(70_000), 1)]
        );
    }

    #[test]
    fn far_future_entries_cascade_down() {
        let mut w = TimerWheel::new(Time::ZERO);
        // Deep level: ~17 minutes out.
        w.insert(us(1_000_000_000), 1);
        assert_eq!(drain(&mut w, us(999_999_999)), Vec::<u64>::new());
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, us(1_000_000_000)), vec![1]);
    }

    #[test]
    fn big_jumps_do_not_lose_entries() {
        let mut w = TimerWheel::new(Time::ZERO);
        let expiries: Vec<u64> = (0..200).map(|i| 1 + i * 97_003).collect();
        for (i, &e) in expiries.iter().enumerate() {
            w.insert(us(e), i as u64);
        }
        // One giant jump past everything.
        let out = drain(&mut w, us(1 << 40));
        assert_eq!(out.len(), 200);
        assert!(w.is_empty());
    }

    #[test]
    fn incremental_advance_matches_oracle() {
        // Pseudo-random inserts and advances, checked against a sorted list.
        let mut w = TimerWheel::new(Time::ZERO);
        let mut oracle: Vec<WheelEntry> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for id in 0..2_000u64 {
            let expiry = now + 1 + rand() % 5_000_000;
            w.insert(us(expiry), id);
            oracle.push((us(expiry), id));
            if id % 3 == 0 {
                now += rand() % 100_000;
                let mut got = Vec::new();
                w.advance(us(now), &mut got);
                let mut want: Vec<WheelEntry> = oracle
                    .iter()
                    .copied()
                    .filter(|&(e, _)| e <= us(now))
                    .collect();
                want.sort_unstable_by_key(|&(e, id)| (e, id));
                oracle.retain(|&(e, _)| e > us(now));
                assert_eq!(got, want, "mismatch at now={now}");
            }
        }
        let mut got = Vec::new();
        w.advance(us(now + (1 << 33)), &mut got);
        assert_eq!(got.len(), oracle.len());
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn rewinding_panics() {
        let mut w = TimerWheel::new(us(10));
        w.advance(us(5), &mut Vec::new());
    }

    #[test]
    fn scheduled_exactly_at_the_current_tick_pops_without_moving_time() {
        // `expiry == cursor` goes straight to the due list and an advance
        // to the *same* instant (a legal zero-width advance) surfaces it.
        let mut w = TimerWheel::new(us(1_000));
        w.insert(us(1_000), 42);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, us(1_000)), vec![42]);
        assert!(w.is_empty());
        assert_eq!(w.cursor(), us(1_000));
    }

    #[test]
    fn exact_level_boundary_deltas_pop_exactly_at_expiry() {
        // A delta of exactly 64^l sits on the first slot of level l (the
        // placement loop's half-open interval [64^l, 64^(l+1))). Each such
        // entry must be absent one tick early and present at its expiry.
        for level in 1..LEVELS as u32 {
            let delta = 1u64 << (SLOT_BITS * level);
            let mut w = TimerWheel::new(Time::ZERO);
            w.insert(us(delta), 7);
            assert_eq!(
                drain(&mut w, us(delta - 1)),
                Vec::<u64>::new(),
                "level {level}: popped a tick early"
            );
            assert_eq!(w.len(), 1, "level {level}: entry lost by cascade");
            assert_eq!(drain(&mut w, us(delta)), vec![7], "level {level}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn beyond_the_top_level_horizon_goes_to_overflow_and_comes_back() {
        // The top level covers deltas below 64^8 = 2^48 µs; anything
        // farther lands in the overflow list, which is only re-examined
        // when the top level wraps. The entry must survive an advance to
        // just before its expiry and pop exactly at it.
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32); // 2^48
        let expiry = horizon + 12_345;
        let mut w = TimerWheel::new(Time::ZERO);
        w.insert(us(expiry), 9);
        // Not due far before the horizon (overflow untouched: no wrap yet).
        assert_eq!(drain(&mut w, us(horizon - 1)), Vec::<u64>::new());
        assert_eq!(w.len(), 1);
        // Crossing the top-level wrap re-files the overflow entry.
        assert_eq!(drain(&mut w, us(expiry - 1)), Vec::<u64>::new());
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, us(expiry)), vec![9]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_entry_survives_stepwise_cascades_across_every_level() {
        // Walk the cursor up through each level's width in turn so the
        // entry is cascaded down one level at a time rather than being
        // flushed by a single giant jump.
        let expiry = (1u64 << (SLOT_BITS * 7)) + 99; // top in-wheel level
        let mut w = TimerWheel::new(Time::ZERO);
        w.insert(us(expiry), 3);
        let mut now = 0u64;
        for level in (0..7).rev() {
            now = expiry - (1u64 << (SLOT_BITS * level));
            assert_eq!(drain(&mut w, us(now)), Vec::<u64>::new(), "level {level}");
            assert_eq!(w.len(), 1, "entry lost cascading at level {level}");
        }
        assert!(now < expiry);
        assert_eq!(drain(&mut w, us(expiry)), vec![3]);
        assert!(w.is_empty());
    }

    #[test]
    fn earliest_tracks_the_minimum_across_due_slots_and_overflow() {
        let mut w = TimerWheel::new(Time::ZERO);
        assert_eq!(w.earliest(), None);
        w.insert(us(1u64 << 50), 1); // overflow
        assert_eq!(w.earliest(), Some(us(1u64 << 50)));
        w.insert(us(70_000), 2); // level-2 slot
        assert_eq!(w.earliest(), Some(us(70_000)));
        w.insert(us(500), 3); // level-1 slot
        assert_eq!(w.earliest(), Some(us(500)));
        let mut out = Vec::new();
        w.advance(us(600), &mut out);
        assert_eq!(out, vec![(us(500), 3)]);
        assert_eq!(w.earliest(), Some(us(70_000)));
        w.insert(us(300), 4); // past the cursor: straight to due
        assert_eq!(w.earliest(), Some(us(300)));
        w.advance(us(1u64 << 51), &mut out);
        assert_eq!(w.earliest(), None);
    }

    #[test]
    fn coarse_slots_give_their_buffers_back_after_a_cascade() {
        // Steady level-2 traffic: one entry per 10 µs, each due 50 ms
        // out (level 2 holds deltas of 4–262 ms), drained every 100 µs,
        // for three laps of level 2. Live entries plateau at 5 000; held
        // capacity must follow them, not the 64 slots' peaks.
        let mut w = TimerWheel::new(Time::ZERO);
        let lap = 1u64 << (SLOT_BITS * 3);
        let mut out = Vec::new();
        let mut peak_live = 0;
        for t in (0..3 * lap).step_by(10) {
            w.insert(us(t + 50_000), t);
            if t % 100 == 0 {
                out.clear();
                w.advance(us(t), &mut out);
                peak_live = peak_live.max(w.len());
            }
        }
        assert_eq!(peak_live, 5_000);
        let held: usize = w.slots.iter().map(Vec::capacity).sum::<usize>() + w.cascade.capacity();
        assert!(
            held <= 2 * peak_live,
            "wheel holds room for {held} entries against a peak of {peak_live} live"
        );
    }

    #[test]
    fn zero_width_advance_with_pending_entries_is_a_no_op() {
        let mut w = TimerWheel::new(us(50));
        w.insert(us(60), 1);
        assert_eq!(drain(&mut w, us(50)), Vec::<u64>::new());
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, us(60)), vec![1]);
    }
}

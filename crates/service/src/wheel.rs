//! A hierarchical timer wheel scheduling decrement-at-deadline events.
//!
//! The library controller (`frap_core::admission::Admission`) uses a
//! `BinaryHeap` of expiry instants, popped under a single owner. The
//! concurrent service instead keeps one wheel per shard: insertion and
//! cancellation are `O(1)`, expiry is `O(1)` amortized, and a thread
//! advancing its shard's wheel touches at most `LEVELS × SLOTS` slots
//! regardless of how far the clock jumped while the shard was cold.
//!
//! Every entry is a node in one slab. Each slot — and the due and
//! overflow lists — is a circular doubly-linked list through that slab,
//! headed by a sentinel node of its own. [`TimerWheel::insert`] hands back
//! the entry's [`Node`], and [`TimerWheel::cancel`] unlinks it in `O(1)`
//! (Varghese & Lauck's hashed-hierarchical scheme, SOSP 1987), so an entry
//! unscheduled before its deadline leaves nothing behind: the wheel holds
//! exactly its pending entries, and its memory is the high-water mark of
//! them, reused through a free list. A cascade relinks nodes and never
//! moves one, so a handle stays valid until its entry is drained or
//! cancelled.
//!
//! Exactness contract (matches `SyntheticState::advance_to`): after
//! `advance(now, out)`, `out` holds **every** pending entry with
//! `expiry ≤ now` (deadline inclusive) and no entry with `expiry > now`,
//! sorted by `(expiry, id)` — the same deterministic order in which the
//! library's expiry heap pops, so single-shard runs subtract
//! contributions in bit-identical order.

use frap_core::time::Time;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 8; // 64^8 µs ≈ 8.9 years of horizon
/// Entries inserted with `expiry ≤ cursor`: due on the next advance. The
/// slot lists are `0..DUE`, level `l` slot `s` at `l * SLOTS + s`.
const DUE: u32 = (LEVELS * SLOTS) as u32;
/// Entries beyond the top level's horizon (practically unreachable).
const OVERFLOW: u32 = DUE + 1;
/// Where [`TimerWheel::advance`] gathers the lists it visits; empty
/// between calls.
const CASCADE: u32 = DUE + 2;
/// One sentinel per list at the front of the slab; entry nodes follow.
const LISTS: u32 = DUE + 3;
/// `prev` of a free node, and the end of the free list.
const NIL: u32 = u32::MAX;

/// One scheduled decrement: the instant it is due and the ticket it
/// belongs to.
pub type WheelEntry = (Time, u64);

/// Where [`TimerWheel::insert`] filed an entry. With the entry's id it
/// names the entry to [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node(u32);

/// A slab node: a list sentinel, a pending entry, or a free node.
#[derive(Debug, Clone, Copy)]
struct Link {
    expiry: Time,
    id: u64,
    prev: u32,
    next: u32,
}

/// A hierarchical timer wheel over integer-microsecond time.
#[derive(Debug)]
pub struct TimerWheel {
    /// `LISTS` sentinels, then entry nodes: each linked into exactly one
    /// list, or free (`prev == NIL`) and chained through `next` from
    /// `free`.
    nodes: Vec<Link>,
    free: u32,
    cursor: Time,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel with its cursor at `start`.
    pub fn new(start: Time) -> TimerWheel {
        TimerWheel {
            nodes: (0..LISTS)
                .map(|list| Link {
                    expiry: Time::ZERO,
                    id: 0,
                    prev: list,
                    next: list,
                })
                .collect(),
            free: NIL,
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

    /// Schedules `id` to come due at `expiry` and returns where it was
    /// filed. Entries at or before the cursor surface on the next
    /// [`TimerWheel::advance`] call.
    pub fn insert(&mut self, expiry: Time, id: u64) -> Node {
        let link = Link {
            expiry,
            id,
            prev: NIL,
            next: NIL,
        };
        let node = if self.free == NIL {
            let node = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("timer wheel holds fewer than 2^32 entries");
            self.nodes.push(link);
            node
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].next;
            self.nodes[node as usize] = link;
            node
        };
        self.link(node, self.list_for(expiry));
        self.len += 1;
        Node(node)
    }

    /// Unschedules the entry `id` filed at `node`, in `O(1)`. Returns
    /// `false`, changing nothing, if `node` holds no pending entry `id`:
    /// it was drained, cancelled, or never filed there.
    pub fn cancel(&mut self, node: Node, id: u64) -> bool {
        match self.nodes.get(node.0 as usize) {
            Some(link) if link.prev != NIL && link.id == id => {
                self.unlink(node.0);
                self.release(node.0);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// The earliest pending expiry, or `None` if the wheel is empty.
    ///
    /// `O(LEVELS × SLOTS + len)` — a walk of every list, *not* the `O(1)`
    /// insert/cancel path. It backs the service's per-shard next-due
    /// hints, which only call it when a drain has consumed the previous
    /// hint, so the walk amortizes across many lock-free reads.
    pub fn earliest(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<Time> = None;
        for list in 0..LISTS {
            let mut node = self.nodes[list as usize].next;
            while node != list {
                let link = &self.nodes[node as usize];
                best = Some(best.map_or(link.expiry, |b| b.min(link.expiry)));
                node = link.next;
            }
        }
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
        self.splice(DUE, CASCADE);
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
                self.splice((level * SLOTS + slot) as u32, CASCADE);
            }
            if new_idx >> SLOT_BITS != old_idx >> SLOT_BITS && level == LEVELS - 1 {
                // The top level wrapped: re-examine the overflow list.
                self.splice(OVERFLOW, CASCADE);
            }
        }

        // Against the new cursor, whatever is not yet due lands in a slot
        // this advance did not visit.
        self.cursor = now;
        loop {
            let node = self.nodes[CASCADE as usize].next;
            if node == CASCADE {
                break;
            }
            self.unlink(node);
            let Link { expiry, id, .. } = self.nodes[node as usize];
            if expiry <= now {
                out.push((expiry, id));
                self.release(node);
            } else {
                self.link(node, self.list_for(expiry));
            }
        }
        self.len -= out.len() - start;
        out[start..].sort_unstable_by_key(|&(expiry, id)| (expiry, id));
    }

    /// The list an entry due at `expiry` belongs on, against the cursor.
    fn list_for(&self, expiry: Time) -> u32 {
        if expiry <= self.cursor {
            return DUE;
        }
        let delta = expiry.as_micros() - self.cursor.as_micros();
        // Level `l` holds deltas in [64^l, 64^(l+1)): the index of the
        // highest set bit, over six.
        let level = (u64::BITS - 1 - delta.leading_zeros()) / SLOT_BITS;
        if level as usize >= LEVELS {
            return OVERFLOW;
        }
        let slot = (expiry.as_micros() >> (SLOT_BITS * level)) & (SLOTS as u64 - 1);
        level * SLOTS as u32 + slot as u32
    }

    /// Links an unlinked `node` at the tail of `list`.
    fn link(&mut self, node: u32, list: u32) {
        let last = self.nodes[list as usize].prev;
        let link = &mut self.nodes[node as usize];
        link.prev = last;
        link.next = list;
        self.nodes[last as usize].next = node;
        self.nodes[list as usize].prev = node;
    }

    /// Takes `node` out of its list; its own links go stale.
    fn unlink(&mut self, node: u32) {
        let Link { prev, next, .. } = self.nodes[node as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Puts an unlinked `node` on the free list.
    fn release(&mut self, node: u32) {
        let link = &mut self.nodes[node as usize];
        link.prev = NIL;
        link.next = self.free;
        self.free = node;
    }

    /// Moves every node of list `from` to the tail of list `to` in `O(1)`.
    fn splice(&mut self, from: u32, to: u32) {
        let Link {
            next: first,
            prev: last,
            ..
        } = self.nodes[from as usize];
        if first == from {
            return;
        }
        let tail = self.nodes[to as usize].prev;
        self.nodes[tail as usize].next = first;
        self.nodes[first as usize].prev = tail;
        self.nodes[last as usize].next = to;
        self.nodes[to as usize].prev = last;
        let sentinel = &mut self.nodes[from as usize];
        sentinel.next = from;
        sentinel.prev = from;
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
        // placement's half-open interval [64^l, 64^(l+1))). Each such
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
    fn cancel_unschedules_from_every_list_and_only_once() {
        let mut w = TimerWheel::new(us(100));
        let due = w.insert(us(50), 1);
        let slot = w.insert(us(70_000), 2);
        let overflow = w.insert(us(1u64 << 50), 3);
        let kept = w.insert(us(900), 4);
        assert_eq!(w.len(), 4);
        assert!(w.cancel(slot, 2));
        assert!(!w.cancel(slot, 2), "already cancelled");
        assert!(!w.cancel(kept, 2), "another entry's node");
        assert!(w.cancel(due, 1));
        assert!(w.cancel(overflow, 3));
        assert_eq!(w.len(), 1);
        assert_eq!(w.earliest(), Some(us(900)));
        assert_eq!(drain(&mut w, us(1u64 << 51)), vec![4]);
        assert!(!w.cancel(kept, 4), "already drained");
        assert!(w.is_empty());
    }

    #[test]
    fn a_cascade_keeps_a_handle_valid() {
        // Filed on level 2, relinked to level 1 and then level 0 by two
        // advances: the node never moves, so its handle still cancels it.
        let mut w = TimerWheel::new(Time::ZERO);
        let node = w.insert(us(10_000), 5);
        let other = w.insert(us(10_001), 6);
        assert_eq!(drain(&mut w, us(8_200)), Vec::<u64>::new());
        assert_eq!(drain(&mut w, us(9_990)), Vec::<u64>::new());
        assert!(w.cancel(node, 5));
        assert_eq!(drain(&mut w, us(20_000)), vec![6]);
        assert!(!w.cancel(other, 6));
    }

    #[test]
    fn memory_follows_pending_entries_not_entries_filed() {
        // Steady level-2 traffic: one entry per 10 µs, each due 50 ms out
        // (level 2 holds deltas of 4–262 ms); nine in ten are cancelled
        // 150 µs after filing, as a released ticket is; drained every
        // 100 µs, for three laps of level 2. The slab is the high-water
        // mark of pending entries, whatever the filing rate.
        let mut w = TimerWheel::new(Time::ZERO);
        let lap = 1u64 << (SLOT_BITS * 3);
        let mut held = std::collections::VecDeque::new();
        let mut out = Vec::new();
        let mut peak = 0;
        for t in (0..3 * lap).step_by(10) {
            let node = w.insert(us(t + 50_000), t);
            peak = peak.max(w.len());
            if t % 100 != 0 {
                held.push_back((t, node));
            }
            while let Some(&(at, node)) = held.front() {
                if at + 150 > t {
                    break;
                }
                assert!(w.cancel(node, at));
                held.pop_front();
            }
            if t % 100 == 0 {
                out.clear();
                w.advance(us(t), &mut out);
            }
        }
        // One in ten lives its 50 ms, plus the 15 waiting to be cancelled.
        assert!((500..=520).contains(&peak), "peak {peak}");
        assert_eq!(w.nodes.len(), LISTS as usize + peak);
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

//! A deterministic discrete-event queue.
//!
//! Events fire in timestamp order; ties break in insertion order (FIFO),
//! which keeps simulations bit-for-bit reproducible across runs and
//! platforms. The queue is generic so unit tests can exercise it with
//! plain payloads.
//!
//! This is the hot core of every simulation the experiment harness runs,
//! so the implementation is tuned accordingly:
//!
//! * the `(time, insertion sequence)` ordering pair is packed into a
//!   single `u128` key, so every comparison is one integer compare
//!   instead of a lexicographic tuple compare;
//! * the queue has **two tiers behind that one order**: a *near* tier for
//!   events with a payload ([`EventQueue::push`]; in the simulator they
//!   live microseconds and there are at most a few per stage) and a
//!   payload-free *deadline* heap of bare keys
//!   ([`EventQueue::push_deadline`]; parked for a whole relative deadline
//!   — the simulator queues one per admitted task only when an arrival
//!   can wait for it, or when it lies past the horizon of the run in
//!   progress). Both draw their sequence number from the
//!   same counter and a pop takes whichever tier's top key is smaller, so
//!   the pop order is exactly that of a single heap — but a short-lived
//!   event no longer sifts through hundreds of parked deadlines;
//! * the near tier holds a handful of entries, so it is a `Vec` kept
//!   sorted by descending key: a push is one binary search plus one
//!   `insert`, a pop is `Vec::pop`, and neither sifts;
//! * [`EventQueue::with_capacity`] pre-sizes both tiers so steady-state
//!   simulations never reallocate;
//! * [`EventQueue::pop_at_or_before`] fuses the peek-then-pop pattern of
//!   the simulator's main loop into one access;
//! * [`EventQueue::remove`] takes a near-tier event out before it fires —
//!   the simulator cancels a stopped run's completion instead of popping
//!   it later only to find it stale.

use frap_core::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a pop hands back: a near-tier event's payload, or a deadline
/// (which carries nothing but its time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired<E> {
    /// An event scheduled with [`EventQueue::push`].
    Event(E),
    /// A deadline scheduled with [`EventQueue::push_deadline`].
    Deadline,
}

/// A deterministic min-queue of `(Time, E)` entries and payload-free
/// deadlines with FIFO tie-breaking across both.
///
/// # Examples
///
/// ```
/// use frap_sim::events::{EventQueue, Fired};
/// use frap_core::time::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_secs(2), "later");
/// q.push(Time::from_secs(1), "first");
/// q.push_deadline(Time::from_secs(1));
/// q.push(Time::from_secs(1), "third");
/// assert_eq!(q.pop(), Some((Time::from_secs(1), Fired::Event("first"))));
/// assert_eq!(q.pop(), Some((Time::from_secs(1), Fired::Deadline)));
/// assert_eq!(q.pop(), Some((Time::from_secs(1), Fired::Event("third"))));
/// assert_eq!(q.pop(), Some((Time::from_secs(2), Fired::Event("later"))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Sorted by descending key: the earliest entry is the last.
    near: Vec<Entry<E>>,
    deadlines: BinaryHeap<Reverse<u128>>,
    seq: u64,
}

/// Time and insertion order packed into one key: the high 64 bits are the
/// microsecond timestamp, the low 64 bits the per-queue sequence number.
/// Comparing keys therefore orders by `(time, seq)` in a single `u128`
/// compare.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: u128,
    event: E,
}

#[inline]
fn pack(time: Time, seq: u64) -> u128 {
    ((time.as_micros() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Time {
    Time::from_micros((key >> 64) as u64)
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_capacity(0, 0)
    }

    /// An empty queue pre-sized for `near` pending events and `deadlines`
    /// pending deadlines.
    pub fn with_capacity(near: usize, deadlines: usize) -> EventQueue<E> {
        EventQueue {
            near: Vec::with_capacity(near),
            deadlines: BinaryHeap::with_capacity(deadlines),
            seq: 0,
        }
    }

    #[inline]
    fn next_key(&mut self, time: Time) -> u128 {
        let seq = self.seq;
        self.seq += 1;
        pack(time, seq)
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let key = self.next_key(time);
        // Every key present is smaller than or larger than `key` (keys are
        // unique); the new entry goes after the larger ones.
        let at = self.near.partition_point(|e| e.key > key);
        self.near.insert(at, Entry { key, event });
    }

    /// Schedules a deadline at `time`: it pops as [`Fired::Deadline`], in
    /// the same `(time, insertion)` order as every pushed event.
    pub fn push_deadline(&mut self, time: Time) {
        let key = self.next_key(time);
        self.deadlines.push(Reverse(key));
    }

    /// The smaller of the two tiers' top keys and whether it is the near
    /// tier's. Keys are unique (one `seq` counter), so there is no tie.
    #[inline]
    fn head(&self) -> Option<(u128, bool)> {
        let near = self.near.last().map(|e| e.key);
        let deadline = self.deadlines.peek().map(|&Reverse(key)| key);
        match (near, deadline) {
            (Some(n), Some(d)) if d < n => Some((d, false)),
            (Some(n), _) => Some((n, true)),
            (None, d) => d.map(|d| (d, false)),
        }
    }

    /// Removes and returns the earliest entry, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, Fired<E>)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Removes and returns the earliest entry only if its timestamp is at
    /// or before `bound` — the simulator main loop's peek-then-pop pattern
    /// fused into a single access.
    ///
    /// # Examples
    ///
    /// ```
    /// use frap_sim::events::{EventQueue, Fired};
    /// use frap_core::time::Time;
    ///
    /// let mut q = EventQueue::new();
    /// q.push(Time::from_secs(5), "e");
    /// assert_eq!(q.pop_at_or_before(Time::from_secs(4)), None);
    /// assert_eq!(
    ///     q.pop_at_or_before(Time::from_secs(5)),
    ///     Some((Time::from_secs(5), Fired::Event("e")))
    /// );
    /// ```
    pub fn pop_at_or_before(&mut self, bound: Time) -> Option<(Time, Fired<E>)> {
        let (key, near) = self.head()?;
        let time = unpack_time(key);
        if time > bound {
            return None;
        }
        let fired = if near {
            Fired::Event(self.near.pop()?.event)
        } else {
            self.deadlines.pop();
            Fired::Deadline
        };
        Some((time, fired))
    }

    /// Removes the near-tier event at `time` that `matches` picks, if one
    /// is queued, and reports whether it was: a binary search to the
    /// events at `time` and a scan of those alone. The simulator cancels a
    /// stopped run's completion this way instead of popping it later.
    ///
    /// # Examples
    ///
    /// ```
    /// use frap_sim::events::{EventQueue, Fired};
    /// use frap_core::time::Time;
    ///
    /// let mut q = EventQueue::new();
    /// q.push(Time::from_secs(1), "kept");
    /// q.push(Time::from_secs(1), "cancelled");
    /// assert!(q.remove(Time::from_secs(1), |&e| e == "cancelled"));
    /// assert!(!q.remove(Time::from_secs(2), |&e| e == "kept"));
    /// assert_eq!(q.pop(), Some((Time::from_secs(1), Fired::Event("kept"))));
    /// assert_eq!(q.pop(), None);
    /// ```
    pub fn remove(&mut self, time: Time, matches: impl Fn(&E) -> bool) -> bool {
        // Descending keys: those at `time` lie between the later events and
        // the earlier ones.
        let end = self.near.partition_point(|e| e.key >= pack(time, 0));
        let start = self.near[..end].partition_point(|e| e.key > pack(time, u64::MAX));
        match self.near[start..end].iter().position(|e| matches(&e.event)) {
            Some(at) => {
                self.near.remove(start + at);
                true
            }
            None => false,
        }
    }

    /// The timestamp of the next entry without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.head().map(|(key, _)| unpack_time(key))
    }

    /// Number of pending entries, deadlines included.
    pub fn len(&self) -> usize {
        self.near.len() + self.deadlines.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.deadlines.is_empty()
    }

    /// Pending `(events, deadlines)` each tier holds before it
    /// reallocates.
    pub fn capacity(&self) -> (usize, usize) {
        (self.near.capacity(), self.deadlines.capacity())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the next entry, which the test expects to be a pushed event.
    fn pop_event<E>(q: &mut EventQueue<E>) -> E {
        match q.pop() {
            Some((_, Fired::Event(e))) => e,
            _ => panic!("expected an event"),
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(30), 3);
        q.push(Time::from_micros(10), 1);
        q.push(Time::from_micros(20), 2);
        assert_eq!(pop_event(&mut q), 1);
        assert_eq!(pop_event(&mut q), 2);
        assert_eq!(pop_event(&mut q), 3);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_micros(5), i);
        }
        for i in 0..100 {
            assert_eq!(pop_event(&mut q), i);
        }
    }

    #[test]
    fn fifo_among_equal_times_across_tiers() {
        let t = Time::from_micros(5);
        let mut q = EventQueue::new();
        q.push_deadline(t);
        q.push(t, 'a');
        q.push_deadline(t);
        q.push(t, 'b');
        q.push(Time::from_micros(4), 'c');
        let order: Vec<Fired<char>> = std::iter::from_fn(|| q.pop()).map(|(_, f)| f).collect();
        let expected = [
            Fired::Event('c'),
            Fired::Deadline,
            Fired::Event('a'),
            Fired::Deadline,
            Fired::Event('b'),
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_micros(7), ());
        q.push_deadline(Time::from_micros(6));
        assert_eq!(q.peek_time(), Some(Time::from_micros(6)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((Time::from_micros(6), Fired::Deadline)));
        assert_eq!(q.peek_time(), Some(Time::from_micros(7)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), "a");
        q.push(Time::from_micros(5), "b");
        assert_eq!(pop_event(&mut q), "b");
        q.push(Time::from_micros(1), "c");
        assert_eq!(pop_event(&mut q), "c");
        assert_eq!(pop_event(&mut q), "a");
    }

    #[test]
    fn with_capacity_presizes() {
        let q: EventQueue<u32> = EventQueue::with_capacity(8, 64);
        let (near, deadlines) = q.capacity();
        assert!(near >= 8 && deadlines >= 64);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), "a");
        q.push_deadline(Time::from_micros(12));
        q.push(Time::from_micros(20), "b");
        assert_eq!(q.pop_at_or_before(Time::from_micros(9)), None);
        let a = q.pop_at_or_before(Time::from_micros(10));
        assert_eq!(a, Some((Time::from_micros(10), Fired::Event("a"))));
        assert_eq!(q.pop_at_or_before(Time::from_micros(11)), None);
        let d = q.pop_at_or_before(Time::from_micros(15));
        assert_eq!(d, Some((Time::from_micros(12), Fired::Deadline)));
        assert_eq!(q.pop_at_or_before(Time::from_micros(15)), None);
        assert_eq!(pop_event(&mut q), "b");
        assert_eq!(q.pop_at_or_before(Time::MAX), None);
    }

    #[test]
    fn remove_takes_out_only_the_matching_event() {
        let t = Time::from_micros(5);
        let mut q = EventQueue::new();
        q.push(Time::from_micros(4), 'a');
        q.push(t, 'b');
        q.push_deadline(t);
        q.push(t, 'c');
        q.push(Time::from_micros(6), 'c');
        assert!(q.remove(t, |&e| e == 'c'));
        assert!(!q.remove(t, |&e| e == 'c'), "already removed");
        assert!(!q.remove(t, |&e| e == 'a'), "queued at another time");
        let order: Vec<(Time, Fired<char>)> = std::iter::from_fn(|| q.pop()).collect();
        let expected = [
            (Time::from_micros(4), Fired::Event('a')),
            (t, Fired::Event('b')),
            (t, Fired::Deadline),
            (Time::from_micros(6), Fired::Event('c')),
        ];
        assert_eq!(order, expected);
        assert!(!q.remove(Time::MAX, |_| true), "nothing queued");
        q.push(Time::MAX, 'z');
        assert!(q.remove(Time::MAX, |_| true));
        assert!(q.is_empty());
    }

    #[test]
    fn key_packing_roundtrips_extremes() {
        let mut q = EventQueue::new();
        q.push(Time::MAX, "max");
        q.push_deadline(Time::MAX);
        q.push_deadline(Time::ZERO);
        q.push(Time::ZERO, "zero");
        assert_eq!(q.pop(), Some((Time::ZERO, Fired::Deadline)));
        assert_eq!(q.pop(), Some((Time::ZERO, Fired::Event("zero"))));
        assert_eq!(q.pop(), Some((Time::MAX, Fired::Event("max"))));
        assert_eq!(q.pop(), Some((Time::MAX, Fired::Deadline)));
    }
}

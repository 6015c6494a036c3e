//! A bounded lock-free MPSC ring for deferred admission bookkeeping.
//!
//! The lock-free admit path (DESIGN.md §16) must not take a shard mutex,
//! but every admission eventually needs structural bookkeeping inside
//! one: a live-entry map insert, a timer-wheel insert, and a shed-order
//! insert. Admitting threads instead push the finished entry into their
//! shard's pending ring; whichever thread next holds that shard's mutex
//! (a deadline drain, a release run, the validator) drains the ring
//! first — a release run keeps the entries it came for and files the
//! rest — so a deferred insert has landed, or is already moot, before
//! any operation that could observe its absence.
//!
//! The implementation is the classic bounded MPMC sequence-counter queue
//! (Vyukov), used here with a single consumer (the shard-mutex holder —
//! mutual exclusion of consumers comes from the mutex, not the ring).
//! Each slot carries a sequence number: `seq == pos` means free for the
//! producer claiming `pos`, `seq == pos + 1` means occupied and readable
//! by the consumer at `pos`. Producers claim slots with one CAS and
//! never wait for each other; a full ring fails the push immediately
//! (the caller falls back to a `try_lock` direct insert — see
//! `ShardedUtilization::push_pending`), so no decision path ever blocks.
//!
//! `head` and `tail` are deliberately *not* padded apart: the ring lives
//! inside its shard's `Lane` (`shard.rs`), whose lines no other shard
//! touches, and in the steady state producer and consumer are the same
//! home thread. What must not happen — shard 0's `head` on shard 1's
//! line, as when the rings sat side by side in a `Vec` — the lane's
//! alignment rules out.
//!
//! This is the one module in the crate allowed `unsafe`: slot payloads
//! live in `UnsafeCell<MaybeUninit<T>>` and ownership is transferred by
//! the sequence-number protocol above (same precedent as the gateway's
//! reactor ring).
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pending entries per shard. Sized so that even a full batch of
/// admissions (gateway batches are bounded well below this) fits without
/// touching the fallback path; at 4096 the fallback triggers only under
/// synthetic all-admit floods, where the `try_lock` drain keeps progress.
pub const PENDING_RING_CAPACITY: usize = 4096;

struct Slot<T> {
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer single-consumer ring. `T: Send` transfers
/// between threads; the single consumer must be externally serialized
/// (here: the shard mutex).
pub struct MpscRing<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Next position a producer will claim.
    head: AtomicU64,
    /// Next position the consumer will read.
    tail: AtomicU64,
}

// Safety: values are moved in by one thread and out by another; the slot
// sequence protocol (acquire on read, release on publish) transfers
// ownership, so this is as Sync as a channel of `T: Send`.
unsafe impl<T: Send> Sync for MpscRing<T> {}
unsafe impl<T: Send> Send for MpscRing<T> {}

impl<T> std::fmt::Debug for MpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpscRing")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> MpscRing<T> {
    /// A ring holding up to `capacity` entries (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> MpscRing<T> {
        let cap = capacity.max(2).next_power_of_two();
        MpscRing {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        }
    }

    /// Entries currently queued (approximate under concurrent pushes).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        head.saturating_sub(tail) as usize
    }

    /// Whether the ring currently holds nothing (approximate under
    /// concurrent pushes — exact from under the consumer's mutex).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue `value` without blocking. Returns the value
    /// back when the ring is full. Safe to call from any thread.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the CAS granted this producer exclusive
                        // ownership of the slot until the seq publish.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq < pos {
                // The consumer has not freed this slot yet: full. A
                // lagging producer (claimed an earlier pos, store still
                // in flight) also lands here for *its* slot only after
                // wrapping a full lap, which equally means full.
                return Err(value);
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues one entry, or `None` if the ring is empty. A producer that
    /// has claimed the next slot but not yet published it is waited out (a
    /// few instructions, unless preempted), so a drain sees every push
    /// that has returned: a release never misses its own admission behind
    /// someone else's half-finished push. Single consumer only.
    pub fn try_pop(&self) -> Option<T> {
        let pos = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        while slot.seq.load(Ordering::Acquire) != pos + 1 {
            if self.head.load(Ordering::Acquire) == pos {
                return None;
            }
            std::thread::yield_now();
        }
        // Safety: seq == pos + 1 means the producer's publish store
        // happened-before this load; the consumer now owns the slot.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        // Free the slot for the producer one lap ahead.
        slot.seq.store(pos + self.mask + 1, Ordering::Release);
        self.tail.store(pos + 1, Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip_in_order() {
        let ring: MpscRing<u32> = MpscRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.try_push(99), Err(99), "full ring refuses");
        assert_eq!(ring.len(), 4);
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
        // Slots recycle across laps.
        ring.try_push(7).unwrap();
        assert_eq!(ring.try_pop(), Some(7));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let ring: MpscRing<u8> = MpscRing::with_capacity(5);
        for i in 0..8 {
            ring.try_push(i).unwrap();
        }
        assert!(ring.try_push(8).is_err());
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PER_THREAD: u64 = 20_000;
        let ring: Arc<MpscRing<u64>> = Arc::new(MpscRing::with_capacity(256));
        let producers: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut v = t * PER_THREAD + i;
                        loop {
                            match ring.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut seen = vec![false; 4 * PER_THREAD as usize];
        let mut popped = 0usize;
        while popped < seen.len() {
            match ring.try_pop() {
                Some(v) => {
                    assert!(!seen[v as usize], "duplicate {v}");
                    seen[v as usize] = true;
                    popped += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert!(ring.try_pop().is_none());
        assert!(seen.iter().all(|&s| s), "lost entries");
    }

    #[test]
    fn drop_releases_queued_values() {
        let ring: MpscRing<Arc<u8>> = MpscRing::with_capacity(4);
        let v = Arc::new(1u8);
        ring.try_push(Arc::clone(&v)).unwrap();
        ring.try_push(Arc::clone(&v)).unwrap();
        assert_eq!(Arc::strong_count(&v), 3);
        drop(ring);
        assert_eq!(Arc::strong_count(&v), 1);
    }
}

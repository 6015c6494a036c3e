//! A sliding-window table keyed by dense [`TaskId`]s.
//!
//! [`crate::admission::Admission`] issues task ids as consecutive integers,
//! and a task's record dies at (or soon after) its deadline, so the live
//! ids at any instant form a window `[oldest live, newest]`. [`IdTable`]
//! stores exactly that window in a ring buffer: lookup is `id − base` plus
//! a bounds check — no hashing — and slots at either end are retired as
//! soon as they empty.
//!
//! # Window bound
//!
//! The window spans `newest live id − oldest live id + 1` slots (0 when
//! empty), never more: every [`IdTable::remove`] trims vacated slots off
//! both ends. With ids issued in arrival order and records removed by
//! their deadline, that is at most *arrival rate × longest deadline*
//! slots, whether or not the ids in between are still live. After a burst
//! the backing buffer is shrunk once it is more than four times the
//! window, so memory follows the window back down.
//!
//! Ids need not arrive in order: an insert below the window grows it
//! downwards, one above grows it upwards, and an id that was removed may
//! be inserted again. The cost of an out-of-order id is the slots between
//! it and the window, so the table suits dense ids only — a lone id a
//! million away from the rest costs a million empty slots.

use crate::task::TaskId;
use std::collections::VecDeque;

/// Buffers at or below this many slots are never shrunk.
const MIN_CAPACITY: usize = 64;

/// A map from dense [`TaskId`]s to `T`, addressed by subtraction.
///
/// # Examples
///
/// ```
/// use frap_core::idtable::IdTable;
/// use frap_core::task::TaskId;
///
/// let mut t = IdTable::new();
/// t.insert(TaskId::new(7), "a");
/// t.insert(TaskId::new(9), "b");
/// assert_eq!(t.get(TaskId::new(7)), Some(&"a"));
/// assert_eq!(t.get(TaskId::new(8)), None); // inside the window, vacant
/// assert_eq!(t.get(TaskId::new(3)), None); // below the window
/// assert_eq!(t.window(), 3);
/// t.remove(TaskId::new(7));
/// assert_eq!(t.window(), 1, "the front retired up to the oldest live id");
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// The id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub fn new() -> IdTable<T> {
        IdTable {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots currently spanned: `newest live − oldest live + 1`, or 0.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// Slots the backing buffer can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    #[inline]
    fn index(&self, id: TaskId) -> Option<usize> {
        // An id below `base` wraps to a huge offset and fails the bounds
        // check in `get`.
        usize::try_from(id.seq().wrapping_sub(self.base)).ok()
    }

    /// The entry for `id`, if live.
    #[inline]
    pub fn get(&self, id: TaskId) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// Mutable access to the entry for `id`, if live.
    #[inline]
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        let index = self.index(id)?;
        self.slots.get_mut(index)?.as_mut()
    }

    /// Whether `id` has a live entry.
    pub fn contains(&self, id: TaskId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, growing the window to reach it, and
    /// returns the entry it replaced, if any.
    pub fn insert(&mut self, id: TaskId, value: T) -> Option<T> {
        let seq = id.seq();
        if self.slots.is_empty() {
            self.base = seq;
        }
        if seq < self.base {
            let grow = usize::try_from(self.base - seq).expect("window fits in memory");
            self.slots.reserve(grow);
            for _ in 0..grow {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let index = usize::try_from(seq - self.base).expect("window fits in memory");
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let previous = self.slots[index].replace(value);
        if previous.is_none() {
            self.live += 1;
        }
        previous
    }

    /// Removes and returns the entry for `id`, retiring vacated slots at
    /// both ends of the window.
    pub fn remove(&mut self, id: TaskId) -> Option<T> {
        let index = self.index(id)?;
        let value = self.slots.get_mut(index)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        let capacity = self.slots.capacity();
        if capacity > MIN_CAPACITY && capacity / 4 > self.slots.len() {
            self.slots
                .shrink_to((2 * self.slots.len()).max(MIN_CAPACITY));
        }
        Some(value)
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| Some((TaskId::new(self.base + i as u64), slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TaskId {
        TaskId::new(id)
    }

    #[test]
    fn insert_get_remove() {
        let mut table = IdTable::new();
        assert!(table.is_empty());
        assert_eq!(table.insert(t(10), 'a'), None);
        assert_eq!(table.insert(t(11), 'b'), None);
        assert_eq!(
            table.insert(t(10), 'c'),
            Some('a'),
            "replace returns the old entry"
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(t(10)), Some(&'c'));
        *table.get_mut(t(11)).unwrap() = 'd';
        assert_eq!(table.remove(t(11)), Some('d'));
        assert_eq!(table.remove(t(11)), None);
        assert!(table.contains(t(10)));
        assert!(!table.contains(t(11)));
    }

    #[test]
    fn out_of_window_ids_read_as_absent() {
        let mut table = IdTable::new();
        table.insert(t(100), ());
        for id in [0, 99, 101, u64::MAX] {
            assert_eq!(table.get(t(id)), None, "id {id}");
            assert_eq!(table.remove(t(id)), None, "id {id}");
        }
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn id_below_base_grows_the_window_downwards() {
        let mut table = IdTable::new();
        table.insert(t(5), 5);
        table.insert(t(2), 2);
        assert_eq!(table.window(), 4);
        assert_eq!(table.get(t(2)), Some(&2));
        assert_eq!(table.get(t(5)), Some(&5));
        assert_eq!(table.get(t(3)), None);
    }

    #[test]
    fn reinsert_after_removal() {
        let mut table = IdTable::new();
        table.insert(t(1), 'a');
        table.insert(t(2), 'b');
        table.remove(t(1));
        assert_eq!(table.window(), 1);
        // Id 1 is now below the window: it comes back like any other id.
        table.insert(t(1), 'c');
        assert_eq!(table.get(t(1)), Some(&'c'));
        assert_eq!(table.window(), 2);
        // Emptying the table forgets the base altogether.
        table.remove(t(1));
        table.remove(t(2));
        assert_eq!(table.window(), 0);
        table.insert(t(1_000_000), 'd');
        assert_eq!(table.window(), 1);
    }

    #[test]
    fn window_is_newest_minus_oldest_live_plus_one() {
        let mut table = IdTable::new();
        for id in 0..100 {
            table.insert(t(id), id);
        }
        // Remove from the middle: the window cannot shrink.
        for id in 10..90 {
            table.remove(t(id));
        }
        assert_eq!(table.window(), 100);
        // Retire the front: the window follows the oldest live id.
        for id in 0..10 {
            table.remove(t(id));
        }
        assert_eq!(table.window(), 10);
        // Retire the back: it follows the newest live id too.
        table.remove(t(99));
        assert_eq!(table.window(), 9);
        assert_eq!(
            table.iter().map(|(id, _)| id.seq()).collect::<Vec<_>>(),
            (90..99).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_follows_the_window_back_down_after_a_burst() {
        let mut table = IdTable::new();
        for id in 0..100_000u64 {
            table.insert(t(id), id);
        }
        assert!(table.capacity() >= 100_000);
        for id in 0..99_990u64 {
            table.remove(t(id));
        }
        assert_eq!(table.window(), 10);
        assert!(
            table.capacity() <= 4 * MIN_CAPACITY,
            "capacity {} after the burst drained",
            table.capacity()
        );
        // Steady state after the burst keeps working.
        for id in 100_000..100_100u64 {
            table.insert(t(id), id);
            table.remove(t(id - 10));
        }
        assert_eq!(table.window(), 10);
    }
}

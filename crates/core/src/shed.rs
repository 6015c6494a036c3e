//! The Section 5 shed order: which live task an important arrival evicts
//! first.
//!
//! Victims go in reverse order of semantic importance — the lowest
//! importance first, then the lowest (oldest) id. [`ShedOrder`] keeps one
//! FIFO of ids per importance level and is **never touched on removal**:
//! the caller owns liveness and names the live ids through an `is_live`
//! closure. [`ShedOrder::first`] retires the dead ids in front of the
//! victim it returns, and [`ShedOrder::file`] sweeps every dead id once
//! the filed ids exceed twice the live ones plus [`SWEEP_SLACK`]. A level
//! left empty keeps its buffer until a sweep finds it still empty, so a
//! level refilled between sweeps allocates nothing, and one left unused
//! for a whole sweep period is dropped. The library controller
//! ([`Admission`](crate::admission::Admission)) and every `frap-service`
//! shard choose their victims through this one type.

use crate::task::Importance;
use std::collections::{BTreeMap, VecDeque};

/// Ids a [`ShedOrder`] may hold beyond twice the live ones before
/// [`ShedOrder::file`] sweeps the dead ones out.
pub const SWEEP_SLACK: usize = 64;

/// Filed ids per importance level, ascending within a level.
#[derive(Debug, Default)]
pub struct ShedOrder<Id> {
    /// Importance levels ascending (a handful, so the map is one node).
    levels: BTreeMap<Importance, VecDeque<Id>>,
    /// Ids filed in `levels`, dead ones included.
    filed: usize,
}

impl<Id: Copy + Ord> ShedOrder<Id> {
    /// Ids filed, dead ones not yet retired included.
    pub fn filed(&self) -> usize {
        self.filed
    }

    /// Importance levels held, empty ones included.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Files `id` at `importance`, where `live` of the ids already filed
    /// are live. If the filed ids exceed `2 · live + SWEEP_SLACK`, every
    /// id `is_live` refuses is swept out first, and so is every level
    /// that was already empty.
    ///
    /// A service issues ids before it files them, so two threads booking
    /// on one shard can deliver them a few places out of order: `id` is
    /// inserted from the back of its level, a plain push when nothing
    /// raced.
    pub fn file(
        &mut self,
        importance: Importance,
        id: Id,
        live: usize,
        mut is_live: impl FnMut(Id) -> bool,
    ) {
        if self.filed > 2 * live + SWEEP_SLACK {
            self.levels.retain(|_, level| {
                let unused = level.is_empty();
                level.retain(|&id| is_live(id));
                !unused
            });
            self.filed = self.levels.values().map(VecDeque::len).sum();
        }
        let level = self.levels.entry(importance).or_default();
        let at = level.iter().rposition(|&f| f < id).map_or(0, |at| at + 1);
        level.insert(at, id);
        self.filed += 1;
    }

    /// The live id to shed first — the lowest `(importance, id)` that
    /// `is_live` accepts — retiring the dead ids in front of it.
    pub fn first(&mut self, mut is_live: impl FnMut(Id) -> bool) -> Option<(Importance, Id)> {
        for (&importance, level) in &mut self.levels {
            while let Some(&id) = level.front() {
                if is_live(id) {
                    return Some((importance, id));
                }
                level.pop_front();
                self.filed -= 1;
            }
        }
        None
    }
}

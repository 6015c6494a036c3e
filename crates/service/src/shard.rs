//! Sharded synthetic-utilization counters (the concurrent Section 4 state).
//!
//! Layout:
//!
//! * **Global per-stage totals** — one cache-padded `AtomicU64` per stage
//!   holding the live contribution sum *above* the reservation floor, in
//!   [`frap_core::fixed`] binary units (1 unit = 2⁻⁵³ utilization).
//!   Integer units make every add/subtract exact in any interleaving:
//!   optimistic charges roll back bit-identically, and a fully released
//!   stage reads exactly the floor with no pinning pass.
//! * **Per-shard bookkeeping** — a mutex-protected [`Shard`] holding the
//!   live-entry map (which task charged what, where), the shard's
//!   [`TimerWheel`] of deadline decrements and an importance-ordered
//!   shedding index — plus a lock-free [`MpscRing`] of admissions whose
//!   bookkeeping has been decided but not yet inserted (DESIGN.md §16).
//!   Threads are spread across shards round-robin, so shard mutexes are
//!   effectively uncontended.
//!
//! Consistency rules (proved out by the concurrency and CAS-stress
//! tests):
//!
//! * **Charges are bracketed write sections.** A charging thread bumps
//!   `writers_begin`, performs its per-stage `fetch_add`s (and, when
//!   admitting, its revalidation read and pending-ring push), then bumps
//!   `writers_end`. Multiple charges may overlap — there is no mutex
//!   on the add side. [`ShardedUtilization::snapshot_fp_into`]
//!   reads the vector without any lock and reports whether any write
//!   section overlapped the read.
//! * **Reductions (deadline expiry, release, shed, idle reset) happen
//!   under the owning shard's mutex** and do *not* bump the write
//!   counters: a snapshot missing a concurrent reduction is merely
//!   stale-high, which the monotone region test turns into a
//!   conservative (reject-only) answer. Holding every shard lock while
//!   observing a write-quiescent window therefore freezes the totals
//!   entirely, and empty pending rings inside it put every charged
//!   unit's entry in a map — the validator's consistency cut.
//! * Exactly-once removal is enforced by `HashMap::remove` on the entry
//!   map: whichever of {deadline expiry, release, shed} wins removes the
//!   entry; the others observe its absence and do nothing. Every
//!   shard-locked entry operation drains the pending ring first, so a
//!   ring-deferred admission is always visible to the release/expiry
//!   that targets it.
//! * **Per-shard next-due hints.** Each shard publishes a lower bound on
//!   its earliest pending deadline decrement. A decision thread that
//!   observes `now < hint` knows a locked drain of that shard would
//!   apply nothing, so deciding from a snapshot cannot miss a decrement
//!   that is already due. Commits lower the hint with
//!   `fetch_min`; drains refresh it from the wheel under the shard lock.

use crate::ring::{MpscRing, PENDING_RING_CAPACITY};
use crate::wheel::TimerWheel;
use frap_core::fixed::{fp_from_utilization, utilization_from_fp};
use frap_core::task::{Importance, StageId};
use frap_core::time::Time;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Largest wheel population for which a consumed next-due hint is
/// refreshed by an exact [`TimerWheel::earliest`] scan; above it the
/// refresh falls back to the `now + 1` lower bound (see
/// [`ShardedUtilization::expire_due`]). 512 entries keeps the scan under
/// a few microseconds and is an order of magnitude above the live-task
/// population of reject-dominated steady states, the only regime where
/// the lock-free reject path needs a far-future hint.
const HINT_SCAN_LIMIT: usize = 512;

/// How many times a write-quiescence validation re-attempts before
/// reporting interference to the caller (who re-drains and retries).
const VALIDATE_ATTEMPTS: usize = 64;

/// Pads (and aligns) a value to a cache line so per-stage atomics on
/// adjacent stages do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// One live admitted task's bookkeeping, owned by exactly one shard.
/// Contribution amounts are fixed-point units ([`frap_core::fixed`]),
/// merged to at most one slot per stage, so releasing subtracts exactly
/// what admission added.
#[derive(Debug)]
pub struct LiveEntry {
    /// `(stage, units)` still charged; slots are removed by idle resets.
    pub contributions: Vec<(StageId, u64)>,
    /// Parallel to `contributions`: stage-departure flags for idle reset.
    /// **Empty means all-false** — the flags allocate lazily on the first
    /// `mark_departed`, so the admit hot path pays one heap allocation
    /// per admission, not two.
    pub departed: Vec<bool>,
    /// Absolute deadline (decrement instant).
    pub expiry: Time,
    /// Shedding priority.
    pub importance: Importance,
}

/// An admission decided on the lock-free path whose structural
/// bookkeeping (entry map, timer wheel, shedding index) has not yet been
/// applied; queued on the owning shard's pending ring.
#[derive(Debug)]
pub struct PendingAdmission {
    /// The service-assigned ticket id.
    pub id: u64,
    /// The entry to insert.
    pub entry: LiveEntry,
}

/// The mutex-protected slice of state owned by one worker-thread shard.
#[derive(Debug)]
pub struct Shard {
    /// Live entries admitted through this shard.
    pub entries: HashMap<u64, LiveEntry>,
    /// Deadline decrements for this shard's entries.
    pub wheel: TimerWheel,
    /// Shedding index, ascending `(importance, ticket)`.
    pub by_importance: BTreeSet<(Importance, u64)>,
    /// Scratch buffer for wheel drains.
    drained: Vec<(Time, u64)>,
    /// This shard's index in the owning [`ShardedUtilization`], so a
    /// locked drain can refresh the matching next-due hint and drain the
    /// matching pending ring.
    index: usize,
}

/// Per-stage synthetic-utilization counters sharded across worker threads.
#[derive(Debug)]
pub struct ShardedUtilization {
    /// Floors as configured (`f64`, for reporting).
    floors: Vec<f64>,
    /// Floors in fixed-point units (conversion rounds up: conservative).
    floors_fp: Vec<u64>,
    /// Live contribution units above the floor, one per stage.
    totals: Vec<CachePadded<AtomicU64>>,
    /// Write sections opened (bumped before a charge's first add).
    writers_begin: CachePadded<AtomicU64>,
    /// Write sections closed (bumped after the charge is fully applied,
    /// revalidated, and — for lock-free admits — ring-pushed).
    writers_end: CachePadded<AtomicU64>,
    /// Per-shard lower bound (µs) on the earliest pending deadline
    /// decrement; `u64::MAX` when the shard's wheel is known empty.
    next_due: Vec<CachePadded<AtomicU64>>,
    /// Per-shard rings of decided-but-uninserted admissions.
    pending: Vec<MpscRing<PendingAdmission>>,
    shards: Vec<Mutex<Shard>>,
}

impl ShardedUtilization {
    /// State for `floors.len()` stages split over `shards` shards, with
    /// per-stage reservation floors (Section 5); all wheels start at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if there are no stages, no shards, or a floor is negative or
    /// not finite.
    pub fn new(floors: &[f64], shards: usize, start: Time) -> ShardedUtilization {
        assert!(!floors.is_empty(), "at least one stage");
        assert!(shards > 0, "at least one shard");
        for &f in floors {
            assert!(
                f.is_finite() && f >= 0.0,
                "reservation must be a finite non-negative utilization"
            );
        }
        ShardedUtilization {
            floors: floors.to_vec(),
            floors_fp: floors.iter().map(|&f| fp_from_utilization(f)).collect(),
            totals: floors.iter().map(|_| CachePadded::default()).collect(),
            writers_begin: CachePadded::default(),
            writers_end: CachePadded::default(),
            next_due: (0..shards)
                .map(|_| CachePadded(AtomicU64::new(u64::MAX)))
                .collect(),
            pending: (0..shards)
                .map(|_| MpscRing::with_capacity(PENDING_RING_CAPACITY))
                .collect(),
            shards: (0..shards)
                .map(|index| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        wheel: TimerWheel::new(start),
                        by_importance: BTreeSet::new(),
                        drained: Vec::new(),
                        index,
                    })
                })
                .collect(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.floors.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The reservation floors.
    pub fn floors(&self) -> &[f64] {
        &self.floors
    }

    /// The shard mutexes (lock in ascending index order).
    pub fn shard(&self, index: usize) -> &Mutex<Shard> {
        &self.shards[index]
    }

    /// Reads the aggregate utilization vector into `out` as `f64`: floor
    /// plus live units per stage. Plain atomic loads — the components may
    /// interleave with concurrent decisions.
    pub fn read_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for (total, &floor_fp) in self.totals.iter().zip(&self.floors_fp) {
            out.push(utilization_from_fp(
                floor_fp.saturating_add(total.0.load(Ordering::SeqCst)),
            ));
        }
    }

    /// Reads the aggregate vector in fixed-point units (floor included),
    /// one plain atomic load per stage.
    pub fn read_fp_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for (total, &floor_fp) in self.totals.iter().zip(&self.floors_fp) {
            out.push(floor_fp.saturating_add(total.0.load(Ordering::SeqCst)));
        }
    }

    /// Attempts a **write-stable** unit snapshot: fills `out` like
    /// [`ShardedUtilization::read_fp_into`] and returns whether no write
    /// section overlapped the read. A stable snapshot contains no
    /// in-flight (possibly-rolled-back) optimistic charge. An unstable
    /// ("torn") snapshot is still a vector of genuinely-held counter
    /// values — usable for a conservative rejection, never for an
    /// unrevalidated admit.
    ///
    /// Reductions do not participate in the write counters, so even a
    /// stable snapshot may be missing concurrent subtractions — i.e. it
    /// is stale-*high*, which the monotone region test renders
    /// conservative.
    pub fn snapshot_fp_into(&self, out: &mut Vec<u64>) -> bool {
        let end = self.writers_end.0.load(Ordering::SeqCst);
        let begin = self.writers_begin.0.load(Ordering::SeqCst);
        self.read_fp_into(out);
        begin == end && self.writers_begin.0.load(Ordering::SeqCst) == begin
    }

    /// [`ShardedUtilization::snapshot_fp_into`] converted to `f64`.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) -> bool {
        let end = self.writers_end.0.load(Ordering::SeqCst);
        let begin = self.writers_begin.0.load(Ordering::SeqCst);
        self.read_into(out);
        begin == end && self.writers_begin.0.load(Ordering::SeqCst) == begin
    }

    /// Opens a write section: concurrent snapshot attempts report torn
    /// until the matching [`ShardedUtilization::end_write`].
    #[inline]
    pub fn begin_write(&self) {
        self.writers_begin.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Closes a write section. Every unit added inside the section must
    /// either stay (the charge committed — and for lock-free admits, the
    /// pending-ring push completed) or have been subtracted back (exact
    /// rollback) before this call.
    #[inline]
    pub fn end_write(&self) {
        self.writers_end.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Adds merged per-stage unit demands. Must be called inside a write
    /// section.
    #[inline]
    pub fn add_units(&self, contributions: &[(StageId, u64)]) {
        for &(stage, units) in contributions {
            self.totals[stage.index()]
                .0
                .fetch_add(units, Ordering::SeqCst);
        }
    }

    /// Exactly rolls back [`ShardedUtilization::add_units`]. Must be
    /// called inside the same write section that added them.
    #[inline]
    pub fn sub_units(&self, contributions: &[(StageId, u64)]) {
        for &(stage, units) in contributions {
            self.totals[stage.index()]
                .0
                .fetch_sub(units, Ordering::SeqCst);
        }
    }

    /// Adds a dense per-stage unit vector (the batch path's accumulated
    /// run total). Must be called inside a write section.
    pub fn add_unit_vector(&self, units: &[u64]) {
        for (total, &u) in self.totals.iter().zip(units) {
            if u > 0 {
                total.0.fetch_add(u, Ordering::SeqCst);
            }
        }
    }

    /// Exactly rolls back [`ShardedUtilization::add_unit_vector`].
    pub fn sub_unit_vector(&self, units: &[u64]) {
        for (total, &u) in self.totals.iter().zip(units) {
            if u > 0 {
                total.0.fetch_sub(u, Ordering::SeqCst);
            }
        }
    }

    /// Queues a decided admission for insertion into shard `index`'s
    /// bookkeeping. Lock-free in the common case (a bounded MPSC ring
    /// push); when the ring is full, falls back to a `try_lock` drain —
    /// never a blocking lock, so no decision path can block here. Must be
    /// called inside the admitting write section, so a write-quiescent
    /// observer never sees charged units whose entry is neither ringed
    /// nor inserted.
    pub fn push_pending(&self, index: usize, pending: PendingAdmission) {
        let mut pending = pending;
        loop {
            match self.pending[index].try_push(pending) {
                Ok(()) => return,
                Err(back) => pending = back,
            }
            // Ring full: try to become the drainer. `try_lock` keeps this
            // non-blocking — if another thread holds the shard it is
            // already draining (every locked entry op drains first), so
            // spinning on the push is productive.
            if let Ok(mut shard) = self.shards[index].try_lock() {
                self.drain_pending(&mut shard);
                Self::insert_entry_locked(&mut shard, pending);
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Applies every queued pending admission on a locked shard. Called
    /// first by every shard-locked entry operation.
    pub fn drain_pending(&self, shard: &mut Shard) {
        while let Some(p) = self.pending[shard.index].try_pop() {
            Self::insert_entry_locked(shard, p);
        }
    }

    /// [`ShardedUtilization::drain_pending`], but intercepts the entry
    /// with id `target` — returning it instead of inserting it. A release
    /// that catches its own admission still sitting on the ring (the
    /// admit-then-release-immediately hot path) skips the whole
    /// insert-then-remove round trip through the entry map, timer wheel,
    /// and shedding index; the wheel never learns the id, so no stale
    /// wheel slot is left behind either.
    pub fn drain_pending_intercept(&self, shard: &mut Shard, target: u64) -> Option<LiveEntry> {
        let mut intercepted = None;
        while let Some(p) = self.pending[shard.index].try_pop() {
            if p.id == target {
                intercepted = Some(p.entry);
            } else {
                Self::insert_entry_locked(shard, p);
            }
        }
        intercepted
    }

    /// The one structural insert: files a decided admission in a locked
    /// shard's wheel, shedding index and entry map.
    pub(crate) fn insert_entry_locked(shard: &mut Shard, pending: PendingAdmission) {
        let PendingAdmission { id, entry } = pending;
        shard.wheel.insert(entry.expiry, id);
        shard.by_importance.insert((entry.importance, id));
        shard.entries.insert(id, entry);
    }

    /// Lowers shard `index`'s next-due hint to `expiry` if it is earlier.
    /// Called on every commit, at decision time (not ring-drain time), so
    /// snapshot decisions stop as soon as a pending decrement comes due.
    pub fn note_deadline(&self, index: usize, expiry: Time) {
        self.next_due[index]
            .0
            .fetch_min(expiry.as_micros(), Ordering::SeqCst);
    }

    /// Shard `index`'s next-due hint in microseconds: a lower bound on the
    /// earliest deadline decrement a locked drain of that shard could
    /// apply. `u64::MAX` means the wheel is known empty.
    pub fn shard_next_due(&self, index: usize) -> u64 {
        self.next_due[index].0.load(Ordering::SeqCst)
    }

    /// Subtracts one entry's remaining contributions. Safe without any
    /// write section because integer reductions are exact and only shrink
    /// the vector; the caller must hold the owning shard's lock (which is
    /// what makes removal exactly-once). Returns the summed units
    /// removed.
    pub fn subtract_entry(&self, contributions: &[(StageId, u64)]) -> u64 {
        let mut removed = 0u64;
        for &(stage, units) in contributions {
            self.totals[stage.index()]
                .0
                .fetch_sub(units, Ordering::SeqCst);
            removed += units;
        }
        removed
    }

    /// Subtracts a single stage's slice of an entry (idle reset path).
    pub fn subtract_stage(&self, stage: StageId, units: u64) {
        self.totals[stage.index()]
            .0
            .fetch_sub(units, Ordering::SeqCst);
    }

    /// Applies every deadline decrement due at or before `now` on a locked
    /// shard (after draining its pending ring): expired entries leave the
    /// map, the shedding index, and the global totals, in deterministic
    /// `(expiry, ticket)` order. Returns the number of entries expired.
    pub fn expire_due(&self, shard: &mut Shard, now: Time) -> u64 {
        self.drain_pending(shard);
        // Batch decisions hoist one clock read per batch, so `now` may
        // predate advances applied by interleaved per-request decisions;
        // a zero-width advance is legal and still surfaces due entries.
        let now = now.max(shard.wheel.cursor());
        if shard.wheel.cursor() >= now && shard.wheel.is_empty() {
            // Still heal a stale hint, or the fast path would stay
            // disabled for this shard until its next real drain.
            if self.next_due[shard.index].0.load(Ordering::SeqCst) <= now.as_micros() {
                self.next_due[shard.index]
                    .0
                    .store(u64::MAX, Ordering::SeqCst);
            }
            return 0;
        }
        let mut drained = std::mem::take(&mut shard.drained);
        drained.clear();
        shard.wheel.advance(now, &mut drained);
        let mut expired = 0;
        for &(_, id) in &drained {
            // Exactly-once: release or shed may have removed the entry.
            if let Some(entry) = shard.entries.remove(&id) {
                self.subtract_entry(&entry.contributions);
                shard.by_importance.remove(&(entry.importance, id));
                expired += 1;
            }
        }
        shard.drained = drained;
        // Refresh the next-due hint once the drain has consumed it. The
        // exact scan is O(slots + entries), so it is only worth paying on
        // a lightly loaded wheel — precisely the regime where rejections
        // dominate and the snapshot path earns its keep. A crowded wheel
        // (admission-heavy churn, where lazy-deleted released entries
        // also pile up) gets `now + 1` instead: the cheapest valid lower
        // bound, since everything due ≤ `now` was drained above.
        if self.next_due[shard.index].0.load(Ordering::SeqCst) <= now.as_micros() {
            let refreshed = if shard.wheel.len() <= HINT_SCAN_LIMIT {
                shard
                    .wheel
                    .earliest()
                    .map(Time::as_micros)
                    .unwrap_or(u64::MAX)
            } else {
                now.as_micros() + 1
            };
            self.next_due[shard.index]
                .0
                .store(refreshed, Ordering::SeqCst);
        }
        expired
    }

    /// Validates the counters against the (already locked, already
    /// ring-drained) shards' entry maps inside a **write-quiescent
    /// window**: sums the entries, waits for `writers_begin ==
    /// writers_end`, captures the totals and whether every pending ring
    /// is empty, and confirms no write section opened meanwhile. The
    /// caller's locks exclude reductions and ring drains, so the totals
    /// are frozen; empty rings prove no lock-free admit finished since
    /// the caller's drain, so every charged unit is backed by an entry
    /// the sums saw and the comparison is **exact** (integer equality).
    ///
    /// Returns the stable aggregate utilization vector, or `None` when no
    /// such cut was found: a ring is non-empty (a lock-free admit needs
    /// no shard lock, so one ran after the drain) or write sections
    /// interfered `VALIDATE_ATTEMPTS` times running. The caller re-drains
    /// the rings and retries.
    ///
    /// # Panics
    ///
    /// Panics if a stable capture diverges from the entry sums.
    pub fn try_validate_locked(&self, shards: &[&Shard]) -> Option<Vec<f64>> {
        assert_eq!(shards.len(), self.shard_count(), "all shards required");
        let mut sums = vec![0u64; self.stages()];
        for shard in shards {
            for entry in shard.entries.values() {
                for &(stage, units) in &entry.contributions {
                    sums[stage.index()] += units;
                }
            }
        }
        for _ in 0..VALIDATE_ATTEMPTS {
            let end = self.writers_end.0.load(Ordering::SeqCst);
            let begin = self.writers_begin.0.load(Ordering::SeqCst);
            if begin != end {
                std::thread::yield_now();
                continue;
            }
            let observed: Vec<u64> = self
                .totals
                .iter()
                .map(|t| t.0.load(Ordering::SeqCst))
                .collect();
            let rings_empty = self.pending.iter().all(|r| r.is_empty());
            if self.writers_begin.0.load(Ordering::SeqCst) != begin {
                std::thread::yield_now();
                continue;
            }
            // The window was write-quiescent and every reduction site
            // needs a shard lock we hold: `observed` is a frozen cut. A
            // ringed entry's units are in it but not in `sums`.
            if !rings_empty {
                return None;
            }
            for j in 0..self.stages() {
                assert_eq!(
                    observed[j], sums[j],
                    "stage {j}: atomic total diverged from entry sum"
                );
            }
            return Some(
                observed
                    .iter()
                    .zip(&self.floors_fp)
                    .map(|(&t, &f)| utilization_from_fp(f.saturating_add(t)))
                    .collect(),
            );
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frap_core::fixed::FP_ONE;

    fn stage(j: usize) -> StageId {
        StageId::new(j)
    }

    /// Utilization → units, exact for the dyadic values used below.
    fn fp(u: f64) -> u64 {
        fp_from_utilization(u)
    }

    /// One whole write section around the adds: a committed charge.
    fn charge(su: &ShardedUtilization, contributions: &[(StageId, u64)]) {
        su.begin_write();
        su.add_units(contributions);
        su.end_write();
    }

    fn validate(su: &ShardedUtilization) -> Vec<f64> {
        let mut guards: Vec<_> = (0..su.shard_count())
            .map(|i| su.shard(i).lock().unwrap())
            .collect();
        for g in guards.iter_mut() {
            su.drain_pending(g);
        }
        let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        su.try_validate_locked(&refs).expect("quiescent in tests")
    }

    fn entry(contributions: Vec<(StageId, u64)>, expiry: Time) -> LiveEntry {
        let departed = vec![false; contributions.len()];
        LiveEntry {
            contributions,
            departed,
            expiry,
            importance: Importance::LOWEST,
        }
    }

    #[test]
    fn charge_and_subtract_roundtrip_is_exact() {
        let su = ShardedUtilization::new(&[0.1, 0.0], 2, Time::ZERO);
        let contrib = vec![(stage(0), fp(0.2)), (stage(1), fp(0.3))];
        charge(&su, &contrib);
        let mut v = Vec::new();
        su.read_into(&mut v);
        assert!((v[0] - 0.3).abs() < 1e-12);
        assert!((v[1] - 0.3).abs() < 1e-12);
        assert_eq!(su.subtract_entry(&contrib), fp(0.2) + fp(0.3));
        su.read_into(&mut v);
        // Integer units return to exactly the floor — no pinning pass.
        let mut units = Vec::new();
        su.read_fp_into(&mut units);
        assert_eq!(units, vec![fp(0.1), 0]);
        assert_eq!(v[1], 0.0);
        validate(&su);
    }

    #[test]
    fn rollback_is_bit_identical() {
        let su = ShardedUtilization::new(&[0.05, 0.0, 0.25], 1, Time::ZERO);
        let mut before = Vec::new();
        charge(&su, &[(stage(0), fp(0.125)), (stage(2), 3)]);
        su.read_fp_into(&mut before);
        let contrib = vec![(stage(0), fp(0.3)), (stage(1), 7), (stage(2), fp(0.01))];
        su.begin_write();
        su.add_units(&contrib);
        su.sub_units(&contrib);
        su.end_write();
        let mut after = Vec::new();
        su.read_fp_into(&mut after);
        assert_eq!(before, after, "rollback must restore the exact units");
        // Release the background charge (it has no entry backing it) so
        // the validator's totals-vs-entries cross-check applies.
        su.subtract_entry(&[(stage(0), fp(0.125)), (stage(2), 3)]);
        validate(&su);
    }

    #[test]
    fn expiry_removes_entries_deterministically() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), FP_ONE / 4)];
        {
            let mut sh = su.shard(0).lock().unwrap();
            for id in 0..4u64 {
                charge(&su, &c);
                sh.entries
                    .insert(id, entry(c.clone(), Time::from_micros(10 + id)));
                sh.wheel.insert(Time::from_micros(10 + id), id);
                sh.by_importance.insert((Importance::LOWEST, id));
            }
            assert_eq!(su.expire_due(&mut sh, Time::from_micros(11)), 2);
            assert_eq!(sh.entries.len(), 2);
        }
        let mut v = Vec::new();
        su.read_into(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-12);
        validate(&su);
    }

    #[test]
    #[should_panic(expected = "reservation")]
    fn negative_floor_panics() {
        let _ = ShardedUtilization::new(&[-0.1], 1, Time::ZERO);
    }

    #[test]
    fn snapshot_matches_read_when_quiescent() {
        let su = ShardedUtilization::new(&[0.05, 0.0, 0.1], 2, Time::ZERO);
        charge(&su, &[(stage(0), fp(0.2)), (stage(2), fp(0.3))]);
        let mut read = Vec::new();
        su.read_fp_into(&mut read);
        let mut snap = Vec::new();
        assert!(su.snapshot_fp_into(&mut snap));
        assert_eq!(snap, read);
        assert_eq!(snap[1], 0, "idle stage reads exactly the floor");
        su.subtract_entry(&[(stage(0), fp(0.2)), (stage(2), fp(0.3))]);
        assert!(su.snapshot_fp_into(&mut snap));
        assert_eq!(snap, vec![fp(0.05), 0, fp(0.1)]);
    }

    #[test]
    fn torn_charge_is_detected_by_the_write_counters() {
        use std::sync::mpsc;
        let su = std::sync::Arc::new(ShardedUtilization::new(&[0.0, 0.0], 1, Time::ZERO));
        let (in_pause_tx, in_pause_rx) = mpsc::channel::<()>();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let writer = {
            let su = std::sync::Arc::clone(&su);
            std::thread::spawn(move || {
                su.begin_write();
                su.add_units(&[(stage(0), fp(0.25))]);
                in_pause_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                su.add_units(&[(stage(1), fp(0.5))]);
                su.end_write();
            })
        };
        // The writer is parked mid-charge: the first stage's add is
        // published, the second's is not. A lock-free reader must see the
        // open write section and report the snapshot torn.
        in_pause_rx.recv().unwrap();
        let mut snap = Vec::new();
        assert!(!su.snapshot_fp_into(&mut snap), "torn read went undetected");
        resume_tx.send(()).unwrap();
        writer.join().unwrap();
        assert!(su.snapshot_fp_into(&mut snap));
        assert_eq!(snap, vec![fp(0.25), fp(0.5)]);
    }

    #[test]
    fn stable_snapshots_never_see_partial_charges() {
        let su = ShardedUtilization::new(&[0.0; 4], 1, Time::ZERO);
        for i in 1..=16u64 {
            let units = i * 1024;
            let c = [
                (stage(0), units),
                (stage(1), 2 * units),
                (stage(2), 3 * units),
                (stage(3), 4 * units),
            ];
            charge(&su, &c);
            let mut snap = Vec::new();
            assert!(su.snapshot_fp_into(&mut snap));
            // Proportions prove no partial charge is ever visible to a
            // stable snapshot — and integer units make this exact.
            assert_eq!(snap[1], 2 * snap[0]);
            assert_eq!(snap[2], 3 * snap[0]);
            assert_eq!(snap[3], 4 * snap[0]);
        }
    }

    #[test]
    fn pending_ring_defers_inserts_until_a_locked_drain() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), fp(0.25))];
        su.begin_write();
        su.add_units(&c);
        su.push_pending(
            0,
            PendingAdmission {
                id: 7,
                entry: entry(c.clone(), Time::from_micros(100)),
            },
        );
        su.end_write();
        su.note_deadline(0, Time::from_micros(100));
        {
            let sh = su.shard(0).lock().unwrap();
            assert!(sh.entries.is_empty(), "insert is deferred");
        }
        // Any locked entry operation drains first; expire_due at a time
        // before the deadline inserts but does not expire.
        {
            let mut sh = su.shard(0).lock().unwrap();
            assert_eq!(su.expire_due(&mut sh, Time::from_micros(50)), 0);
            assert!(sh.entries.contains_key(&7));
            assert_eq!(sh.wheel.len(), 1);
        }
        let v = validate(&su);
        assert!((v[0] - 0.25).abs() < 1e-12);
        // And the deferred decrement still fires on time.
        let mut sh = su.shard(0).lock().unwrap();
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(100)), 1);
        drop(sh);
        let mut units = Vec::new();
        su.read_fp_into(&mut units);
        assert_eq!(units, vec![0]);
    }

    #[test]
    fn validator_refuses_a_cut_taken_after_a_lock_free_admit() {
        // A lock-free admit needs no shard lock, so it can run a whole
        // write section between the validator's drain and its quiescent
        // window: the totals then hold a charge whose entry is still
        // ringed. That means "re-drain and retry", not a ledger divergence.
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), fp(0.25))];
        let mut sh = su.shard(0).lock().unwrap();
        su.drain_pending(&mut sh);
        su.begin_write();
        su.add_units(&c);
        su.push_pending(
            0,
            PendingAdmission {
                id: 1,
                entry: entry(c.clone(), Time::from_micros(100)),
            },
        );
        su.end_write();
        assert!(su.try_validate_locked(&[&*sh]).is_none());
        su.drain_pending(&mut sh);
        let v = su
            .try_validate_locked(&[&*sh])
            .expect("drained and quiescent");
        assert!((v[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn full_pending_ring_falls_back_to_a_locked_insert() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), 1u64)];
        // Overfill: every push must land regardless of ring capacity.
        let n = (PENDING_RING_CAPACITY + 10) as u64;
        for id in 0..n {
            su.begin_write();
            su.add_units(&c);
            su.push_pending(
                0,
                PendingAdmission {
                    id,
                    entry: entry(c.clone(), Time::from_micros(1_000 + id)),
                },
            );
            su.end_write();
        }
        let mut sh = su.shard(0).lock().unwrap();
        su.drain_pending(&mut sh);
        assert_eq!(sh.entries.len(), n as usize);
        drop(sh);
        validate(&su);
    }

    #[test]
    fn next_due_hints_follow_commits_and_drains() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        assert_eq!(su.shard_next_due(0), u64::MAX);
        let c = vec![(stage(0), fp(0.1))];
        {
            let mut sh = su.shard(0).lock().unwrap();
            for (id, expiry) in [(1u64, 500u64), (2, 300), (3, 900)] {
                charge(&su, &c);
                sh.entries
                    .insert(id, entry(c.clone(), Time::from_micros(expiry)));
                sh.wheel.insert(Time::from_micros(expiry), id);
                sh.by_importance.insert((Importance::LOWEST, id));
                su.note_deadline(0, Time::from_micros(expiry));
            }
            // fetch_min kept the earliest commit.
            assert_eq!(su.shard_next_due(0), 300);
            // A drain past the hint refreshes it from the wheel.
            assert_eq!(su.expire_due(&mut sh, Time::from_micros(600)), 2);
            assert_eq!(su.shard_next_due(0), 900);
            // Draining everything parks the hint at MAX.
            assert_eq!(su.expire_due(&mut sh, Time::from_micros(1_000)), 1);
            assert_eq!(su.shard_next_due(0), u64::MAX);
        }
        validate(&su);
    }

    #[test]
    fn stale_hint_heals_even_when_the_wheel_is_already_drained() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        su.note_deadline(0, Time::from_micros(100));
        let mut sh = su.shard(0).lock().unwrap();
        // Wheel is empty (the entry was never actually inserted); a drain
        // attempt at now ≥ hint must still reset the hint so snapshot
        // decisions are not permanently disabled for this shard.
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(150)), 0);
        assert_eq!(su.shard_next_due(0), u64::MAX);
    }

    #[test]
    fn hoisted_batch_clock_cannot_rewind_the_wheel() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let mut sh = su.shard(0).lock().unwrap();
        sh.wheel.insert(Time::from_micros(50), 1);
        sh.entries
            .insert(1, entry(vec![(stage(0), fp(0.1))], Time::from_micros(50)));
        charge(&su, &[(stage(0), fp(0.1))]);
        sh.by_importance.insert((Importance::LOWEST, 1));
        let mut out = Vec::new();
        sh.wheel.advance(Time::from_micros(200), &mut out);
        for (expiry, id) in out {
            sh.wheel.insert(expiry, id); // re-file for expire_due
        }
        // `now` predates the wheel cursor (a hoisted batch clock read);
        // the clamp must surface the due entry instead of panicking.
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(100)), 1);
        assert!(sh.entries.is_empty());
    }
}

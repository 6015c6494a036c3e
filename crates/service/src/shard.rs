//! Sharded synthetic-utilization counters (the concurrent Section 4 state).
//!
//! Layout (DESIGN.md §16 has the cache-line map):
//!
//! * **Global per-stage totals** — the one genuinely shared line. The
//!   live contribution sum of every stage *above* the reservation floor,
//!   in [`frap_core::fixed`] binary units (1 unit = 2⁻⁵³ utilization),
//!   packed **densely** ([`TOTALS_PER_BLOCK`] `AtomicU64`s per aligned
//!   block): a pipeline task reads and charges every stage, so one line
//!   per stage would turn one unavoidable transfer into `stages` of them.
//!   Integer units make every add/subtract exact in any interleaving:
//!   optimistic charges roll back bit-identically, and a fully released
//!   stage reads exactly the floor with no pinning pass.
//! * **One [`Lane`] per shard** — a [`LINE`]-aligned block holding
//!   everything the shard's home thread writes on the decision path, so
//!   that none of it shares a line with another shard's: the decision
//!   counters stripe, the decision-latency histogram, the write-section
//!   `begin`/`end` pair, the next-due hint, the lock-free [`MpscRing`] of
//!   admissions decided but not yet inserted, and the mutex-protected
//!   [`Shard`] (live-entry map, [`TimerWheel`] of deadline decrements,
//!   [`ShedOrder`]). Threads are spread across lanes round-robin, so a
//!   lane's lines stay in its home core's cache and its mutex is
//!   effectively uncontended. Readers that need a whole-service
//!   figure (counters, latency, write quiescence) sum or scan the lanes.
//!
//! Consistency rules (proved out by the concurrency and CAS-stress
//! tests):
//!
//! * **Charges are bracketed write sections.** A charging thread bumps
//!   its lane's `writers_begin`, performs its per-stage `fetch_add`s
//!   (and, when admitting, its revalidation read and pending-ring push),
//!   then bumps the same lane's `writers_end`. Multiple charges may
//!   overlap — there is no mutex on the add side.
//!   [`ShardedUtilization::snapshot_fp_into`] reads the vector without
//!   any lock and reports whether any write section, on any lane,
//!   overlapped the read.
//! * **Reductions (deadline expiry, release, shed) happen under the
//!   owning shard's mutex** and do *not* bump the write counters: a
//!   snapshot missing a concurrent reduction is merely stale-high, which
//!   the monotone region test turns into a conservative (reject-only)
//!   answer. Holding every shard lock while observing a write-quiescent
//!   window therefore freezes the totals entirely, and empty pending
//!   rings inside it put every charged unit's entry in a map — the
//!   validator's consistency cut.
//! * Exactly-once removal is enforced by `HashMap::remove` on the entry
//!   map: whichever of {deadline expiry, release, shed} wins removes the
//!   entry, and its units leave the totals all at once; the others
//!   observe its absence and do nothing. A filed entry is never mutated.
//!   Every removal but expiry also cancels the entry's wheel node
//!   (`Shard::unfile`), so the wheel holds exactly the filed entries
//!   and never yields an id the map has lost. Every
//!   shard-locked entry operation drains the pending ring first, so a
//!   ring-deferred admission is always visible to the release/expiry
//!   that targets it. A release run ([`ShardedUtilization::release_many`])
//!   keeps the popped entries it came for: an admission released before
//!   anything else locked its shard never reaches the map, the shed order
//!   or the wheel (DESIGN.md §16, "life of a ticket").
//! * **Per-lane next-due hints.** Each lane publishes a lower bound on
//!   its earliest pending deadline decrement. A decision thread that
//!   observes `now < hint` knows a locked drain of that shard would
//!   apply nothing, so deciding from a snapshot cannot miss a decrement
//!   that is already due. Commits lower the hint with
//!   `fetch_min`; drains refresh it from the wheel under the shard lock,
//!   with a `swap` followed by a second ring drain, so a commit racing the
//!   refresh cannot have its deadline overwritten (DESIGN.md §16).

use crate::metrics::{CounterSnapshot, ServiceCounters};
use crate::ring::{MpscRing, PENDING_RING_CAPACITY};
use crate::wheel::{Node, TimerWheel};
use frap_core::fixed::{fp_from_utilization, utilization_from_fp};
use frap_core::hist::{AtomicLatencyHistogram, LatencyHistogram};
use frap_core::shed::ShedOrder;
use frap_core::task::{Importance, StageId};
use frap_core::time::Time;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Largest wheel population for which a consumed next-due hint is
/// refreshed by an exact [`TimerWheel::earliest`] walk; above it the
/// refresh falls back to the `now + 1` lower bound (see
/// [`ShardedUtilization::expire_due`]). The wheel holds only live filed
/// entries, and 512 keeps the walk under a few microseconds while staying
/// an order of magnitude above the live population of a shard held on
/// the region boundary.
const HINT_SCAN_LIMIT: usize = 512;

/// How many times a write-quiescence validation re-attempts before
/// reporting interference to the caller (who re-drains and retries).
const VALIDATE_ATTEMPTS: usize = 64;

/// The one line constant: the granule at which state written by
/// different cores is kept apart. Twice the 64-byte hardware line,
/// because the adjacent-line prefetcher pulls lines in aligned pairs;
/// measured against 64 on `svc_boundary` (DESIGN.md §16 has the pairs).
pub const LINE: usize = 128;

/// Stage totals per [`LINE`]-aligned block; the first 8 share one
/// 64-byte hardware line.
pub const TOTALS_PER_BLOCK: usize = LINE / std::mem::size_of::<AtomicU64>();

/// Pads (and aligns) a value to [`LINE`] so it shares a line with
/// nothing else.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

const _: () = assert!(std::mem::align_of::<CachePadded<u8>>() == LINE);
const _: () = assert!(std::mem::align_of::<Lane>() == LINE);

/// One-multiply hash for tables keyed by ticket id (the shard's entry
/// map, the gateway's per-connection ticket table). Ids are dense sequence
/// numbers the service issues — a client can look a key up, never insert
/// one — so an odd-constant multiply spreads them at a fraction of
/// SipHash's cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct TicketHasher(u64);

impl Hasher for TicketHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused by the ticket tables).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One live admitted task's bookkeeping, filed in exactly one shard and
/// never changed while filed. Contribution amounts are fixed-point units
/// ([`frap_core::fixed`]), merged to at most one slot per stage, so
/// releasing subtracts exactly what admission added.
#[derive(Debug)]
pub struct LiveEntry {
    /// `(stage, units)` charged.
    pub contributions: Vec<(StageId, u64)>,
    /// The shard wheel's node for this entry's deadline decrement.
    pub node: Node,
}

/// An admission decided on the lock-free path whose structural
/// bookkeeping (entry map, timer wheel, shed order) has not yet been
/// applied; queued on the owning lane's pending ring.
#[derive(Debug)]
pub struct PendingAdmission {
    /// The service-assigned ticket id.
    pub id: u64,
    /// The charged `(stage, units)`, at most one slot per stage.
    pub contributions: Vec<(StageId, u64)>,
    /// Absolute deadline (decrement instant).
    pub expiry: Time,
    /// Shedding priority.
    pub importance: Importance,
}

/// The mutex-protected slice of state owned by one worker-thread shard.
#[derive(Debug)]
pub struct Shard {
    /// Live entries admitted through this shard.
    pub entries: HashMap<u64, LiveEntry, BuildHasherDefault<TicketHasher>>,
    /// Deadline decrements for this shard's entries: one pending node per
    /// entry in `entries`, and nothing else.
    pub wheel: TimerWheel,
    /// Shed order over the filed ids: an id is live iff `entries` still
    /// holds it, so removal never touches it.
    shed_order: ShedOrder<u64>,
    /// Scratch buffer for wheel drains.
    drained: Vec<(Time, u64)>,
    /// Scratch: units per stage freed by the release run in progress.
    freed: Vec<u64>,
    /// This shard's lane in the owning [`ShardedUtilization`], so a
    /// locked drain can reach the matching hint, ring and counters.
    index: usize,
}

impl Shard {
    /// Takes `id` out of the entry map and cancels its deadline decrement,
    /// so the wheel keeps exactly the filed entries; the shed order retires
    /// the id lazily. `None` if `id` is not filed here.
    pub(crate) fn unfile(&mut self, id: u64) -> Option<LiveEntry> {
        let entry = self.entries.remove(&id)?;
        let cancelled = self.wheel.cancel(entry.node, id);
        assert!(cancelled, "a filed entry's node is pending");
        Some(entry)
    }

    /// The live entry to shed first — lowest importance, then lowest id.
    pub(crate) fn first_victim(&mut self) -> Option<(Importance, u64)> {
        let entries = &self.entries;
        self.shed_order.first(|id| entries.contains_key(&id))
    }
}

/// Everything one shard's home thread writes on the decision path, alone
/// on its own [`LINE`]-aligned lines (see the module docs).
#[derive(Debug)]
#[repr(align(128))]
pub struct Lane {
    /// This lane's stripe of the decision counters.
    pub(crate) counters: ServiceCounters,
    /// One decision-latency sample per decision taken by a thread whose
    /// home is this lane.
    pub(crate) latency: AtomicLatencyHistogram,
    /// Write sections opened through this lane (bumped before a charge's
    /// first add).
    writers_begin: AtomicU64,
    /// Write sections closed through this lane (bumped after the charge
    /// is fully applied, revalidated, and — for lock-free admits —
    /// ring-pushed). Never ahead of `writers_begin`.
    writers_end: AtomicU64,
    /// Lower bound (µs) on the shard's earliest pending deadline
    /// decrement; `u64::MAX` when its wheel is known empty.
    next_due: AtomicU64,
    /// Decided-but-uninserted admissions booked on this shard.
    pending: MpscRing<PendingAdmission>,
    shard: Mutex<Shard>,
}

impl Lane {
    /// Opens a write section through this lane (the caller's home):
    /// concurrent snapshot attempts report torn until the matching
    /// [`Lane::end_write`].
    #[inline]
    pub fn begin_write(&self) {
        self.writers_begin.fetch_add(1, Ordering::SeqCst);
    }

    /// Closes a write section opened through this lane. Every unit added
    /// inside the section must either stay (the charge committed — and
    /// for lock-free admits, the pending-ring push completed) or have
    /// been subtracted back (exact rollback) before this call.
    #[inline]
    pub fn end_write(&self) {
        self.writers_end.fetch_add(1, Ordering::SeqCst);
    }
}

/// Per-stage synthetic-utilization counters sharded across worker threads.
#[derive(Debug)]
pub struct ShardedUtilization {
    /// Reservation floors in fixed-point units (conversion rounds up: conservative).
    floors_fp: Vec<u64>,
    /// Live contribution units above the floor, stage `j` at
    /// `totals[j / TOTALS_PER_BLOCK].0[j % TOTALS_PER_BLOCK]`.
    totals: Vec<CachePadded<[AtomicU64; TOTALS_PER_BLOCK]>>,
    lanes: Vec<Lane>,
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
            floors_fp: floors.iter().map(|&f| fp_from_utilization(f)).collect(),
            totals: (0..floors.len().div_ceil(TOTALS_PER_BLOCK))
                .map(|_| CachePadded::default())
                .collect(),
            lanes: (0..shards)
                .map(|index| Lane {
                    counters: ServiceCounters::default(),
                    latency: AtomicLatencyHistogram::new(),
                    writers_begin: AtomicU64::new(0),
                    writers_end: AtomicU64::new(0),
                    next_due: AtomicU64::new(u64::MAX),
                    pending: MpscRing::with_capacity(PENDING_RING_CAPACITY),
                    shard: Mutex::new(Shard {
                        entries: HashMap::default(),
                        wheel: TimerWheel::new(start),
                        shed_order: ShedOrder::default(),
                        drained: Vec::new(),
                        freed: Vec::new(),
                        index,
                    }),
                })
                .collect(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.floors_fp.len()
    }

    /// Number of shards (= lanes).
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Shard `index`'s lane.
    pub fn lane(&self, index: usize) -> &Lane {
        &self.lanes[index]
    }

    /// Locks shard `index` (take several in ascending index order).
    pub(crate) fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.lanes[index].shard.lock().expect("shard poisoned")
    }

    /// The decision counters, summed over the lanes.
    pub fn counters(&self) -> CounterSnapshot {
        let mut sum = CounterSnapshot::default();
        for lane in &self.lanes {
            lane.counters.add_into(&mut sum);
        }
        sum
    }

    /// Merges every lane's decision-latency histogram into `into`.
    pub fn merge_latency_into(&self, into: &mut LatencyHistogram) {
        for lane in &self.lanes {
            lane.latency.merge_into(into);
        }
    }

    fn total(&self, stage: usize) -> &AtomicU64 {
        &self.totals[stage / TOTALS_PER_BLOCK].0[stage % TOTALS_PER_BLOCK]
    }

    /// Floor plus live units per stage, one plain atomic load each.
    fn loaded(&self) -> impl Iterator<Item = u64> + '_ {
        self.floors_fp
            .iter()
            .enumerate()
            .map(|(j, &floor)| floor.saturating_add(self.total(j).load(Ordering::SeqCst)))
    }

    /// Reads the aggregate utilization vector into `out` as `f64`: floor
    /// plus live units per stage. Plain atomic loads — the components may
    /// interleave with concurrent decisions.
    pub fn read_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.loaded().map(utilization_from_fp));
    }

    /// Reads the aggregate vector in fixed-point units (floor included),
    /// one plain atomic load per stage.
    pub fn read_fp_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.loaded());
    }

    /// One write-section counter summed over the lanes.
    fn sections(&self, pick: impl Fn(&Lane) -> &AtomicU64) -> u64 {
        self.lanes
            .iter()
            .map(|lane| pick(lane).load(Ordering::SeqCst))
            .sum()
    }

    /// Runs `read` and reports whether it was **write-quiescent**: no
    /// write section, on any lane, overlapped it. Every `end` is read
    /// before any `begin` and per lane `end ≤ begin`, so equal sums force
    /// equality lane by lane; each term is monotone, so an unchanged
    /// `Σ begin` means nothing opened during `read` (DESIGN.md §16).
    fn write_quiescent(&self, read: impl FnOnce()) -> bool {
        let end = self.sections(|lane| &lane.writers_end);
        let begin = self.sections(|lane| &lane.writers_begin);
        read();
        begin == end && self.sections(|lane| &lane.writers_begin) == begin
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
        self.write_quiescent(|| self.read_fp_into(out))
    }

    /// [`ShardedUtilization::snapshot_fp_into`] converted to `f64`.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) -> bool {
        self.write_quiescent(|| self.read_into(out))
    }

    /// Adds merged per-stage unit demands. Must be called inside a write
    /// section.
    #[inline]
    pub fn add_units(&self, contributions: &[(StageId, u64)]) {
        for &(stage, units) in contributions {
            self.total(stage.index()).fetch_add(units, Ordering::SeqCst);
        }
    }

    /// Exactly rolls back [`ShardedUtilization::add_units`]. Must be
    /// called inside the same write section that added them.
    #[inline]
    pub fn sub_units(&self, contributions: &[(StageId, u64)]) {
        for &(stage, units) in contributions {
            self.total(stage.index()).fetch_sub(units, Ordering::SeqCst);
        }
    }

    /// Adds a dense per-stage unit vector (the batch path's accumulated
    /// run total). Must be called inside a write section.
    pub fn add_unit_vector(&self, units: &[u64]) {
        for (j, &u) in units.iter().enumerate() {
            if u > 0 {
                self.total(j).fetch_add(u, Ordering::SeqCst);
            }
        }
    }

    /// Exactly rolls back [`ShardedUtilization::add_unit_vector`].
    pub fn sub_unit_vector(&self, units: &[u64]) {
        for (j, &u) in units.iter().enumerate() {
            if u > 0 {
                self.total(j).fetch_sub(u, Ordering::SeqCst);
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
    pub fn push_pending(&self, index: usize, mut pending: PendingAdmission) {
        let lane = &self.lanes[index];
        loop {
            match lane.pending.try_push(pending) {
                Ok(()) => return,
                Err(back) => pending = back,
            }
            // Ring full: try to become the drainer. `try_lock` keeps this
            // non-blocking — if another thread holds the shard it is
            // already draining (every locked entry op drains first), so
            // spinning on the push is productive.
            if let Ok(mut shard) = lane.shard.try_lock() {
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
        while let Some(p) = self.lanes[shard.index].pending.try_pop() {
            Self::insert_entry_locked(shard, p);
        }
    }

    /// The one structural insert: files a decided admission in a locked
    /// shard's wheel, shed order and entry map.
    pub(crate) fn insert_entry_locked(shard: &mut Shard, pending: PendingAdmission) {
        let PendingAdmission {
            id,
            contributions,
            expiry,
            importance,
        } = pending;
        let node = shard.wheel.insert(expiry, id);
        let entries = &shard.entries;
        shard.shed_order.file(importance, id, entries.len(), |id| {
            entries.contains_key(&id)
        });
        shard.entries.insert(
            id,
            LiveEntry {
                contributions,
                node,
            },
        );
    }

    /// The one release routine: removes the contributions of every
    /// admission in `ids` (sorted here; a ticket drop is a run of one)
    /// booked on shard `index`, under one lock take. Returns how many
    /// were still live — exactly-once versus deadline expiry and shedding,
    /// whoever removes the entry owns the subtraction, so an unknown,
    /// duplicate, expired or shed id is a no-op, counted never.
    ///
    /// The run drains the pending ring itself and *intercepts* every
    /// popped entry it came for: an admission released before anything
    /// else locked its shard skips the entry map, the shed order and the
    /// wheel. A filed entry leaves the map and the wheel together
    /// (`Shard::unfile`). The freed units leave the totals in one pass;
    /// the counters are added once per run.
    pub fn release_many(&self, index: usize, ids: &mut [u64]) -> usize {
        ids.sort_unstable();
        let lane = &self.lanes[index];
        let mut guard = self.lock_shard(index);
        let shard = &mut *guard;
        let mut freed = std::mem::take(&mut shard.freed);
        freed.clear();
        freed.resize(self.stages(), 0);
        let mut free = |contributions: Vec<(StageId, u64)>| {
            for (stage, units) in contributions {
                freed[stage.index()] += units;
            }
        };
        let mut in_ring = 0;
        while let Some(p) = lane.pending.try_pop() {
            if ids.binary_search(&p.id).is_ok() {
                free(p.contributions);
                in_ring += 1;
            } else {
                Self::insert_entry_locked(shard, p);
            }
        }
        let mut released = in_ring;
        if in_ring < ids.len() {
            for &id in ids.iter() {
                if let Some(entry) = shard.unfile(id) {
                    free(entry.contributions);
                    released += 1;
                }
            }
        }
        if released > 0 {
            self.sub_unit_vector(&freed);
            lane.counters.add_released(released as u64, in_ring as u64);
        }
        shard.freed = freed;
        released
    }

    /// Lowers shard `index`'s next-due hint to `expiry` if it is earlier.
    /// Called on every commit, at decision time (not ring-drain time), so
    /// snapshot decisions stop as soon as a pending decrement comes due.
    pub fn note_deadline(&self, index: usize, expiry: Time) {
        self.lanes[index]
            .next_due
            .fetch_min(expiry.as_micros(), Ordering::SeqCst);
    }

    /// Shard `index`'s next-due hint in microseconds: a lower bound on the
    /// earliest deadline decrement a locked drain of that shard could
    /// apply. `u64::MAX` means the wheel is known empty.
    pub fn shard_next_due(&self, index: usize) -> u64 {
        self.lanes[index].next_due.load(Ordering::SeqCst)
    }

    /// Subtracts one entry's contributions. Safe without any write
    /// section because integer reductions are exact and only shrink the
    /// vector; the caller must hold the owning shard's lock (which is
    /// what makes removal exactly-once). Returns the summed units
    /// removed.
    pub fn subtract_entry(&self, contributions: &[(StageId, u64)]) -> u64 {
        self.sub_units(contributions);
        contributions.iter().map(|&(_, units)| units).sum()
    }

    /// Applies every deadline decrement due at or before `now` on a locked
    /// shard (after draining its pending ring): expired entries leave the
    /// map and the global totals, in deterministic
    /// `(expiry, ticket)` order. Returns the number of entries expired,
    /// which it also adds to the lane's `expired` counter.
    pub fn expire_due(&self, shard: &mut Shard, now: Time) -> u64 {
        self.drain_pending(shard);
        // Batch decisions hoist one clock read per batch, so `now` may
        // predate advances applied by interleaved per-request decisions;
        // a zero-width advance is legal and still surfaces due entries.
        let now = now.max(shard.wheel.cursor());
        let mut drained = std::mem::take(&mut shard.drained);
        drained.clear();
        shard.wheel.advance(now, &mut drained);
        for &(_, id) in &drained {
            // Every other removal cancels the entry's node, so whatever
            // the wheel yields is still filed: exactly-once by construction.
            let entry = shard
                .entries
                .remove(&id)
                .expect("the wheel holds only filed entries");
            self.subtract_entry(&entry.contributions);
        }
        let expired = drained.len() as u64;
        shard.drained = drained;
        if expired > 0 {
            self.lanes[shard.index].counters.add_expired(expired);
        }
        self.refresh_hint(shard, now);
        expired
    }

    /// Republishes a locked shard's next-due hint once a drain at `now`
    /// has consumed it (hint ≤ `now`); a hint still ahead of `now` is
    /// still a lower bound and stays. The wheel holds only live entries,
    /// so up to [`HINT_SCAN_LIMIT`] of them the new hint is exactly the
    /// earliest; a crowded wheel gets `now + 1`, the cheapest valid lower
    /// bound, since everything due ≤ `now` was just drained.
    ///
    /// A commit booking on this shard meanwhile pushes its entry to the
    /// ring and *then* lowers the hint, which did nothing against the
    /// consumed hint. The refresh is therefore a `swap`, an RMW: it reads
    /// the last such `fetch_min`, so that commit's push happens before the
    /// second ring drain below, which files it and lowers the hint to its
    /// deadline. A commit whose `fetch_min` comes after the swap lowers
    /// the new hint itself. A plain store would overwrite the first kind
    /// of deadline while its entry sat unfiled on the ring.
    fn refresh_hint(&self, shard: &mut Shard, now: Time) {
        let lane = &self.lanes[shard.index];
        if lane.next_due.load(Ordering::SeqCst) > now.as_micros() {
            return;
        }
        let refreshed = if shard.wheel.len() <= HINT_SCAN_LIMIT {
            shard.wheel.earliest().map_or(u64::MAX, Time::as_micros)
        } else {
            now.as_micros() + 1
        };
        lane.next_due.swap(refreshed, Ordering::SeqCst);
        while let Some(p) = lane.pending.try_pop() {
            lane.next_due
                .fetch_min(p.expiry.as_micros(), Ordering::SeqCst);
            Self::insert_entry_locked(shard, p);
        }
    }

    /// Validates the counters against the (already locked, already
    /// ring-drained) shards' entry maps inside a **write-quiescent
    /// window**: sums the entries, then captures the totals and whether
    /// every pending ring is empty in a read no write section, on any
    /// lane, overlapped. The caller's locks exclude reductions and ring
    /// drains, so the totals are frozen; empty rings prove no lock-free
    /// admit finished since the caller's drain, so every charged unit is
    /// backed by an entry the sums saw and the comparison is **exact**
    /// (integer equality).
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
        let mut observed = Vec::with_capacity(self.stages());
        let mut rings_empty = false;
        for _ in 0..VALIDATE_ATTEMPTS {
            if !self.write_quiescent(|| {
                observed.clear();
                observed.extend((0..self.stages()).map(|j| self.total(j).load(Ordering::SeqCst)));
                rings_empty = self.lanes.iter().all(|lane| lane.pending.is_empty());
            }) {
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
        su.lane(0).begin_write();
        su.add_units(contributions);
        su.lane(0).end_write();
    }

    fn validate(su: &ShardedUtilization) -> Vec<f64> {
        let mut guards: Vec<_> = (0..su.shard_count()).map(|i| su.lock_shard(i)).collect();
        for g in guards.iter_mut() {
            su.drain_pending(g);
        }
        let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
        su.try_validate_locked(&refs).expect("quiescent in tests")
    }

    /// Files an admission the way a ring drain would.
    fn file(shard: &mut Shard, pending: PendingAdmission) {
        ShardedUtilization::insert_entry_locked(shard, pending);
    }

    fn pending(id: u64, contributions: Vec<(StageId, u64)>, expiry: Time) -> PendingAdmission {
        PendingAdmission {
            id,
            contributions,
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
        su.lane(0).begin_write();
        su.add_units(&contrib);
        su.sub_units(&contrib);
        su.lane(0).end_write();
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
            let mut sh = su.lock_shard(0);
            for id in 0..4u64 {
                charge(&su, &c);
                file(&mut sh, pending(id, c.clone(), Time::from_micros(10 + id)));
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
                su.lane(0).begin_write();
                su.add_units(&[(stage(0), fp(0.25))]);
                in_pause_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                su.add_units(&[(stage(1), fp(0.5))]);
                su.lane(0).end_write();
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
    fn a_section_open_on_one_lane_is_seen_by_every_stable_reader() {
        // The write-section counters are striped per lane; quiescence is a
        // statement about their sum. A section opened through lane 1 must
        // make both stable readers — which belong to no lane — report
        // "unstable", and closing it must restore them.
        let su = ShardedUtilization::new(&[0.0, 0.0], 2, Time::ZERO);
        let c = vec![(stage(0), fp(0.25)), (stage(1), fp(0.5))];
        charge(&su, &c); // lane 0 has history: begin = end = 1 there
        su.subtract_entry(&c);
        su.lane(1).begin_write();
        su.add_units(&c);
        let mut snap = Vec::new();
        assert!(!su.snapshot_fp_into(&mut snap), "lane 1's section missed");
        let mut floats = Vec::new();
        assert!(!su.snapshot_into(&mut floats));
        {
            let guards: Vec<_> = (0..2).map(|i| su.lock_shard(i)).collect();
            let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
            assert!(
                su.try_validate_locked(&refs).is_none(),
                "validator took a cut across an open section"
            );
        }
        su.sub_units(&c);
        su.lane(1).end_write();
        assert!(su.snapshot_fp_into(&mut snap));
        assert_eq!(snap, vec![0, 0]);
        validate(&su);
    }

    #[test]
    fn lanes_and_totals_sit_on_the_lines_the_design_says() {
        use std::mem::{align_of, size_of};
        let addr = |a: &AtomicU64| a as *const AtomicU64 as usize;
        assert_eq!(size_of::<Lane>() % LINE, 0);
        assert_eq!(align_of::<Lane>() % LINE, 0);
        let su = ShardedUtilization::new(&[0.0; TOTALS_PER_BLOCK + 1], 3, Time::ZERO);
        // Adjacent shards' lanes never share a line: each starts on a
        // line boundary and the next starts a whole number of lines on.
        for i in 0..2 {
            let here = su.lane(i) as *const Lane as usize;
            let next = su.lane(i + 1) as *const Lane as usize;
            assert_eq!(here % LINE, 0);
            assert_eq!(next - here, size_of::<Lane>());
            assert!((here + size_of::<Lane>() - 1) / LINE < next / LINE);
        }
        // The totals are dense: a block starts a line, the first 8 stages
        // fill one 64-byte hardware line, and the next block starts the
        // next line — and no lane lives on a totals line.
        let first = addr(su.total(0));
        assert_eq!(first % LINE, 0);
        for j in 0..8 {
            assert_eq!(addr(su.total(j)), first + 8 * j);
        }
        assert_eq!(addr(su.total(TOTALS_PER_BLOCK)), first + LINE);
        assert_eq!(size_of::<CachePadded<AtomicU64>>(), LINE);
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
        su.lane(0).begin_write();
        su.add_units(&c);
        su.push_pending(0, pending(7, c.clone(), Time::from_micros(100)));
        su.lane(0).end_write();
        su.note_deadline(0, Time::from_micros(100));
        {
            let sh = su.lock_shard(0);
            assert!(sh.entries.is_empty(), "insert is deferred");
        }
        // Any locked entry operation drains first; expire_due at a time
        // before the deadline inserts but does not expire.
        {
            let mut sh = su.lock_shard(0);
            assert_eq!(su.expire_due(&mut sh, Time::from_micros(50)), 0);
            assert!(sh.entries.contains_key(&7));
            assert_eq!(sh.wheel.len(), 1);
        }
        let v = validate(&su);
        assert!((v[0] - 0.25).abs() < 1e-12);
        // And the deferred decrement still fires on time.
        let mut sh = su.lock_shard(0);
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(100)), 1);
        drop(sh);
        let mut units = Vec::new();
        su.read_fp_into(&mut units);
        assert_eq!(units, vec![0]);
    }

    /// Charges `c` and rings it as admission `id`, like a lock-free admit.
    fn ring(su: &ShardedUtilization, id: u64, c: &[(StageId, u64)]) {
        su.lane(0).begin_write();
        su.add_units(c);
        su.push_pending(0, pending(id, c.to_vec(), Time::from_micros(1_000 + id)));
        su.lane(0).end_write();
    }

    #[test]
    fn a_release_run_takes_what_is_live_once_and_ignores_the_rest() {
        let su = ShardedUtilization::new(&[0.0, 0.0], 1, Time::ZERO);
        let c = vec![(stage(0), fp(0.125)), (stage(1), 3)];
        // 10 and 11 are filed in the shard, 12 filed and already shed,
        // 1..=4 still ringed.
        for id in [10, 11, 12] {
            ring(&su, id, &c);
        }
        {
            let mut sh = su.lock_shard(0);
            su.drain_pending(&mut sh);
            let twelve = sh.unfile(12).expect("filed");
            su.subtract_entry(&twelve.contributions);
        }
        for id in 1..=4 {
            ring(&su, id, &c);
        }
        // Unsorted, with an unknown id, a dead one and two named twice.
        let mut run = [11, 2, 99, 2, 12, 4, 11];
        assert_eq!(su.release_many(0, &mut run), 3);
        let counters = su.counters();
        assert_eq!((counters.released, counters.released_in_ring), (3, 2));
        {
            let sh = su.lock_shard(0);
            let mut live: Vec<u64> = sh.entries.keys().copied().collect();
            live.sort_unstable();
            assert_eq!(live, vec![1, 3, 10], "the run filed what it did not want");
            // 2 and 4 never reached the wheel; 11 and 12 left it with
            // their entries, so it holds exactly the filed ones.
            assert_eq!(sh.wheel.len(), 3);
        }
        let mut units = Vec::new();
        su.read_fp_into(&mut units);
        assert_eq!(units, vec![3 * fp(0.125), 9]);
        // The same run again finds nothing, and counts nothing.
        assert_eq!(su.release_many(0, &mut run), 0);
        assert_eq!(su.counters().released, 3);
        validate(&su);
    }

    #[test]
    fn shed_order_is_exact_and_bounded() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let mut sh = su.lock_shard(0);
        let file_at = |sh: &mut Shard, id: u64, level: u32| {
            let mut p = pending(id, vec![(stage(0), 1)], Time::from_micros(1_000_000));
            p.importance = Importance::new(level);
            file(sh, p);
        };
        // Two threads booking on one shard deliver ids out of order.
        for (id, level) in [(5, 1), (3, 1), (9, 0), (4, 1), (7, 0)] {
            file_at(&mut sh, id, level);
        }
        let mut order = Vec::new();
        while let Some((importance, id)) = sh.first_victim() {
            order.push((importance.level(), id));
            sh.unfile(id);
        }
        // Exact whatever the filing order; the bound on dead ids is
        // `ShedOrder`'s own (`frap-core`'s `tests/shed_model.rs`).
        assert_eq!(order, vec![(0, 7), (0, 9), (1, 3), (1, 4), (1, 5)]);
    }

    #[test]
    fn validator_refuses_a_cut_taken_after_a_lock_free_admit() {
        // A lock-free admit needs no shard lock, so it can run a whole
        // write section between the validator's drain and its quiescent
        // window: the totals then hold a charge whose entry is still
        // ringed. That means "re-drain and retry", not a ledger divergence.
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), fp(0.25))];
        let mut sh = su.lock_shard(0);
        su.drain_pending(&mut sh);
        su.lane(0).begin_write();
        su.add_units(&c);
        su.push_pending(0, pending(1, c.clone(), Time::from_micros(100)));
        su.lane(0).end_write();
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
            su.lane(0).begin_write();
            su.add_units(&c);
            su.push_pending(0, pending(id, c.clone(), Time::from_micros(1_000 + id)));
            su.lane(0).end_write();
        }
        let mut sh = su.lock_shard(0);
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
            let mut sh = su.lock_shard(0);
            for (id, expiry) in [(1u64, 500u64), (2, 300), (3, 900)] {
                charge(&su, &c);
                file(&mut sh, pending(id, c.clone(), Time::from_micros(expiry)));
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
        let mut sh = su.lock_shard(0);
        // Wheel is empty (the entry was never actually inserted); a drain
        // attempt at now ≥ hint must still reset the hint so snapshot
        // decisions are not permanently disabled for this shard.
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(150)), 0);
        assert_eq!(su.shard_next_due(0), u64::MAX);
    }

    #[test]
    fn a_commit_between_drain_and_refresh_keeps_its_deadline_in_the_hint() {
        // The schedule a locked drain can race: the hint (100) is consumed
        // at now = 150 and the ring is drained; then another thread booking
        // on this shard pushes its entry (due at 1 007) and lowers the hint
        // — a no-op against 100 — before the refresh runs. The refresh
        // must leave the hint at or below 1 007, not at the empty wheel's
        // MAX, or decisions would skip that decrement.
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let c = vec![(stage(0), fp(0.25))];
        su.note_deadline(0, Time::from_micros(100));
        let mut sh = su.lock_shard(0);
        su.drain_pending(&mut sh);
        ring(&su, 7, &c);
        su.note_deadline(0, Time::from_micros(1_007));
        assert_eq!(su.shard_next_due(0), 100);
        su.refresh_hint(&mut sh, Time::from_micros(150));
        assert!(su.shard_next_due(0) <= 1_007);
        assert!(sh.entries.contains_key(&7), "the refresh filed it");
        assert_eq!(su.expire_due(&mut sh, Time::from_micros(1_007)), 1);
        assert_eq!(su.shard_next_due(0), u64::MAX);
    }

    #[test]
    fn hoisted_batch_clock_cannot_rewind_the_wheel() {
        let su = ShardedUtilization::new(&[0.0], 1, Time::ZERO);
        let mut sh = su.lock_shard(0);
        file(
            &mut sh,
            pending(1, vec![(stage(0), fp(0.1))], Time::from_micros(50)),
        );
        charge(&su, &[(stage(0), fp(0.1))]);
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

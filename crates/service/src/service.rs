//! The concurrent admission service: a `Send + Sync` handle over the
//! feasible-region test.
//!
//! # Decision paths
//!
//! **Every** `try_admit` decision — admit or reject — resolves without
//! blocking on a mutex (DESIGN.md §16):
//!
//! 1. **Snapshot.** Read the fixed-point utilization vector (one atomic
//!    load per stage) under the multi-writer seqlock. The region test is
//!    monotone in every stage and the snapshot can only be stale-*high*
//!    (reductions do not bump the write counters), so a failing overlay
//!    is a final, conservative rejection — one RMW, no locks.
//! 2. **CAS-charge.** A passing overlay is only a hint: the thread opens
//!    a write section, `fetch_add`s each stage's units, re-reads the
//!    post-charge vector (which includes its own adds), and keeps the
//!    charge only if that vector revalidates inside the region;
//!    otherwise it rolls the exact units back and retries a bounded
//!    number of times before rejecting conservatively.
//! 3. **Deferred bookkeeping.** A committed admission's structural
//!    bookkeeping (entry map, timer wheel, shed order) is pushed to
//!    the home shard's MPSC pending ring *inside* the write section; the
//!    next thread to hold that shard's mutex drains the ring first, so
//!    deferred inserts are visible to any operation that could observe
//!    their absence. Decrement-at-deadline semantics are preserved by
//!    the per-shard next-due hint: a decision at `now ≥ hint` first
//!    drains the shard under its lock, exactly as the library
//!    controller's `advance_to(at)` would before deciding.
//!
//! Everything a deciding thread *writes* besides the per-stage totals —
//! its decision counters, its latency sample, its write-section
//! `begin`/`end`, the ring push, the ticket's refcount — lands on its
//! home shard's lane ([`crate::shard::Lane`]), resolved once per public
//! call, so the totals are the only cache line deciding cores share.
//!
//! Shard mutexes exist for *structural* operations only (wheel drains,
//! releases, shedding, validation), never on the decision path; lock
//! order is shards ascending. The cross-shard shedding path holds every
//! shard lock while it scans the shed order, and charges through the
//! same CAS routine as everyone else.
//!
//! Reductions (deadline expiry, release, shed) run without any of this:
//! the region test is monotone in every stage utilization, so a decision
//! made against a vector that concurrent reductions have since decreased
//! is merely conservative — it can only reject an arrival that would now
//! fit, never admit one that does not (the property the concurrency
//! tests hammer on).

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{record_ns, CounterSnapshot, MetricsSnapshot};
use crate::shard::{CachePadded, Lane, PendingAdmission, Shard, ShardedUtilization};
use frap_core::admission::ContributionModel;
use frap_core::demand::DemandView;
use frap_core::fixed::{feasible_fp, tentative_feasible_fp};
use frap_core::graph::TaskSpec;
use frap_core::hist::LatencyHistogram;
use frap_core::region::RegionTest;
use frap_core::task::StageId;
use frap_core::time::Time;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

/// Spreads threads across shards: each thread gets a stable index on
/// first use, reduced modulo the service's shard count.
static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);

/// How many times an optimistic charge re-attempts after a failed
/// revalidation before rejecting conservatively. Each retry re-examines
/// a fresh snapshot first, so persistent failures mean genuine
/// contention at the region boundary — where rejecting is the likely
/// correct answer anyway.
const CAS_ADMIT_RETRIES: usize = 4;

/// Reusable per-thread buffers for the decision paths.
struct Scratch {
    /// The arrival's charges in fixed-point units, from the
    /// [`ContributionModel`] in one pass.
    contrib_fp: Vec<(StageId, u64)>,
    /// Unit snapshot of the utilization vector.
    current_fp: Vec<u64>,
    /// Batch path: base snapshot + the run's own accumulated charges.
    combined_fp: Vec<u64>,
    /// Batch path: dense per-stage units this run has tentatively charged.
    acc_fp: Vec<u64>,
    /// Transient `f64` view handed to the region test.
    floats: Vec<f64>,
    /// Batch path: the run's admit candidates' unit demands, back to back.
    run_contrib: Vec<(StageId, u64)>,
    /// Batch path: `(request index, target shard, end in run_contrib)` per
    /// admit candidate, each starting where the previous one ends.
    run_admits: Vec<(usize, usize, usize)>,
    /// [`AdmissionService::release_batch`]: the ids of the run in hand.
    release_ids: Vec<u64>,
}

thread_local! {
    static THREAD_INDEX: usize = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            contrib_fp: Vec::new(),
            current_fp: Vec::new(),
            combined_fp: Vec::new(),
            acc_fp: Vec::new(),
            floats: Vec::new(),
            run_contrib: Vec::new(),
            run_admits: Vec::new(),
            release_ids: Vec::new(),
        })
    };
}

/// One arrival inside an [`AdmissionService::admit_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// The arriving task, as the admission test sees it.
    pub task: DemandView<'a>,
    /// Whether less-important live work may be shed to fit it (the
    /// Section 5 overload path, as in
    /// [`AdmissionService::try_admit_or_shed`]).
    pub allow_shed: bool,
    /// Shard to book an admission on (reduced modulo the service's shard
    /// count); `None` routes to the calling thread's home shard. Callers
    /// that presort a batch by shard let a run drain each distinct shard
    /// at most once instead of once per decision.
    pub shard: Option<usize>,
}

impl<'a> BatchRequest<'a> {
    /// A plain (non-shedding) admission request on the home shard.
    pub fn new(spec: &'a TaskSpec) -> BatchRequest<'a> {
        BatchRequest::of(spec.into())
    }

    /// [`BatchRequest::new`] for a task that exists only as a view — a
    /// front end's demands straight off the wire.
    pub fn of(task: DemandView<'a>) -> BatchRequest<'a> {
        BatchRequest {
            task,
            allow_shed: false,
            shard: None,
        }
    }

    /// Routes this request's bookkeeping to a specific shard. The
    /// decision itself is unchanged (the region test is global); only the
    /// admitted entry's owning shard — and thus which mutex its releases
    /// and deadline decrements take — moves. Equivalent to
    /// [`AdmissionService::try_admit`] called from a thread whose home
    /// shard is `shard % shards`.
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }
}

/// What happened to an arrival offered via
/// [`AdmissionService::try_admit_or_shed`].
#[derive(Debug)]
pub enum ServiceOutcome {
    /// Admitted without disturbing existing work.
    Admitted(AdmissionTicket),
    /// Admitted after evicting the listed (less important) tickets.
    AdmittedAfterShedding {
        /// The new task's ticket.
        ticket: AdmissionTicket,
        /// Ticket ids evicted, least important first.
        shed: Vec<u64>,
    },
    /// Rejected: infeasible even after shedding everything less important.
    Rejected,
}

impl ServiceOutcome {
    /// The admission ticket, if the arrival was admitted.
    pub fn ticket(self) -> Option<AdmissionTicket> {
        match self {
            ServiceOutcome::Admitted(t) => Some(t),
            ServiceOutcome::AdmittedAfterShedding { ticket, .. } => Some(ticket),
            ServiceOutcome::Rejected => None,
        }
    }

    /// Whether the arrival was admitted.
    pub fn is_admitted(&self) -> bool {
        !matches!(self, ServiceOutcome::Rejected)
    }
}

/// What an [`AdmissionTicket`] releases through: the ledger plus the lane
/// the admission was booked on. The service keeps one per lane, each
/// alone on its lines, and mints a lane's tickets from that lane's sink —
/// so the `Arc` refcount a ticket bumps when minted and when dropped
/// stays in its home core's cache instead of being one word every
/// admitting core fights over. A sink points at the ledger, never back at
/// the service, so there is no cycle.
struct TicketSink {
    ledger: Arc<ShardedUtilization>,
    lane: usize,
}

type SinkRef = Arc<CachePadded<TicketSink>>;

impl std::fmt::Debug for TicketSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TicketSink(lane {})", self.lane)
    }
}

/// An RAII admission: proof that the feasible-region test passed and the
/// task's contributions are charged.
///
/// Dropping the ticket **releases** it — the task is treated as finished
/// and its contributions leave every stage at once (a completed task can
/// no longer affect any stage's schedule). Call
/// [`AdmissionTicket::detach`] for the paper's strict bookkeeping
/// instead, where contributions persist until the deadline decrement.
#[derive(Debug)]
#[must_use = "dropping a ticket releases the admission immediately; call detach() for decrement-at-deadline semantics"]
pub struct AdmissionTicket {
    sink: Option<SinkRef>,
    id: u64,
    deadline: Time,
}

impl AdmissionTicket {
    /// The service-assigned task id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The absolute deadline at which the contributions decrement.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Releases the admission now (same as dropping, but explicit).
    pub fn release(self) {
        drop(self);
    }

    /// Consumes the ticket *without* releasing: the contributions stay
    /// charged until the deadline decrement (the paper's Section 4 rule).
    pub fn detach(mut self) -> u64 {
        self.sink = None;
        self.id
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        if let Some(sink) = self.sink.take() {
            sink.0.ledger.release_many(sink.0.lane, &mut [self.id]);
        }
    }
}

struct Inner<R, M, C> {
    region: R,
    model: M,
    clock: C,
    state: Arc<ShardedUtilization>,
    /// One ticket sink per lane.
    sinks: Vec<SinkRef>,
    /// Every admitting core RMWs this, so it sits alone on its line: the
    /// read-mostly fields above are loaded by every decision.
    next_id: CachePadded<AtomicU64>,
    draining: AtomicBool,
}

impl<R, M, C> std::fmt::Debug for Inner<R, M, C>
where
    R: std::fmt::Debug,
    M: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionService")
            .field("region", &self.region)
            .field("model", &self.model)
            .field("shards", &self.state.shard_count())
            .finish_non_exhaustive()
    }
}

/// Configures and constructs an [`AdmissionService`].
#[derive(Debug)]
pub struct AdmissionServiceBuilder<R, M, C = MonotonicClock> {
    region: R,
    model: M,
    clock: C,
    shards: usize,
    reservations: Option<Vec<f64>>,
}

impl<R: RegionTest, M: ContributionModel> AdmissionServiceBuilder<R, M, MonotonicClock> {
    /// Starts a builder with the wall clock and one shard per available
    /// CPU (capped at 16).
    pub fn new(region: R, model: M) -> AdmissionServiceBuilder<R, M, MonotonicClock> {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get().min(16))
            .unwrap_or(4);
        AdmissionServiceBuilder {
            region,
            model,
            clock: MonotonicClock::new(),
            shards,
            reservations: None,
        }
    }
}

impl<R: RegionTest, M: ContributionModel, C: Clock> AdmissionServiceBuilder<R, M, C> {
    /// Substitutes the time source (e.g. a shared
    /// [`crate::clock::ManualClock`] in tests).
    pub fn clock<C2: Clock>(self, clock: C2) -> AdmissionServiceBuilder<R, M, C2> {
        AdmissionServiceBuilder {
            region: self.region,
            model: self.model,
            clock,
            shards: self.shards,
            reservations: self.reservations,
        }
    }

    /// Sets the shard count (use 1 for bit-exact agreement with the
    /// single-threaded library controller).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        self.shards = shards;
        self
    }

    /// Pre-loads per-stage reservation floors for critical tasks
    /// (Section 5); releases and expiries never drop a counter below its
    /// floor.
    ///
    /// # Panics
    ///
    /// Panics (at [`AdmissionServiceBuilder::build`]) if the floor count
    /// differs from the region's stage count.
    pub fn reservations(mut self, floors: &[f64]) -> Self {
        self.reservations = Some(floors.to_vec());
        self
    }

    /// Builds the service.
    pub fn build(self) -> AdmissionService<R, M, C>
    where
        R: Send + Sync + 'static,
        M: Send + Sync + 'static,
        C: 'static,
    {
        let floors = match self.reservations {
            Some(f) => {
                assert_eq!(f.len(), self.region.stages(), "one reservation per stage");
                f
            }
            None => vec![0.0; self.region.stages()],
        };
        let start = self.clock.now();
        let state = Arc::new(ShardedUtilization::new(&floors, self.shards, start));
        AdmissionService {
            inner: Arc::new(Inner {
                region: self.region,
                model: self.model,
                clock: self.clock,
                sinks: (0..self.shards)
                    .map(|lane| {
                        let ledger = Arc::clone(&state);
                        Arc::new(CachePadded(TicketSink { ledger, lane }))
                    })
                    .collect(),
                state,
                next_id: CachePadded(AtomicU64::new(0)),
                draining: AtomicBool::new(false),
            }),
        }
    }
}

/// A thread-safe, cloneable handle to a running admission-control
/// service.
///
/// # Examples
///
/// ```
/// use frap_core::admission::ExactContributions;
/// use frap_core::graph::TaskSpec;
/// use frap_core::region::FeasibleRegion;
/// use frap_core::time::TimeDelta;
/// use frap_service::AdmissionService;
///
/// let ms = TimeDelta::from_millis;
/// let svc = AdmissionService::builder(
///     FeasibleRegion::deadline_monotonic(2),
///     ExactContributions,
/// )
/// .build();
///
/// let spec = TaskSpec::pipeline(ms(100), &[ms(10), ms(10)])?;
/// if let Some(ticket) = svc.try_admit(&spec) {
///     // ... run the task through the pipeline ...
///     ticket.release(); // or ticket.detach() for decrement-at-deadline
/// }
/// # Ok::<(), frap_core::error::GraphError>(())
/// ```
#[derive(Debug)]
pub struct AdmissionService<R, M, C = MonotonicClock> {
    inner: Arc<Inner<R, M, C>>,
}

impl<R, M, C> Clone for AdmissionService<R, M, C> {
    fn clone(&self) -> Self {
        AdmissionService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<R: RegionTest, M: ContributionModel> AdmissionService<R, M, MonotonicClock> {
    /// Starts configuring a service; see [`AdmissionServiceBuilder`].
    pub fn builder(region: R, model: M) -> AdmissionServiceBuilder<R, M, MonotonicClock> {
        AdmissionServiceBuilder::new(region, model)
    }
}

impl<R, M, C> AdmissionService<R, M, C>
where
    R: RegionTest + Send + Sync + 'static,
    M: ContributionModel + Send + Sync + 'static,
    C: Clock + 'static,
{
    /// The region this service enforces.
    pub fn region(&self) -> &R {
        &self.inner.region
    }

    /// The service's time source.
    pub fn clock(&self) -> &C {
        &self.inner.clock
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.state.shard_count()
    }

    /// Attempts to admit `spec`, arriving now. Returns a ticket on
    /// admission or `None` (counting a rejection) if charging the task
    /// would leave the feasible region.
    ///
    /// This never blocks on a mutex: rejects conclude from a lock-free
    /// snapshot, admits CAS-charge the fixed-point counters and
    /// revalidate, and the admitted entry's structural bookkeeping is
    /// deferred to the home shard's pending ring (see the module docs and
    /// DESIGN.md §16). The only lock it can take is a
    /// *non-contended-in-steady-state* drain of the home shard when a
    /// deadline decrement is actually due there — the decrement the
    /// library controller (`frap_core::admission::Admission`) applies
    /// before deciding at the same instant, which keeps the two
    /// decision-for-decision identical.
    pub fn try_admit(&self, spec: &TaskSpec) -> Option<AdmissionTicket> {
        let started = Instant::now();
        let inner = &*self.inner;
        let home = self.home_shard();
        let lane = inner.state.lane(home);
        if inner.draining.load(Ordering::Acquire) {
            lane.counters.add_rejected();
            return None;
        }
        let now = inner.clock.now_with_hint(started);
        let result = SCRATCH.with(|scratch| {
            self.decide_lockfree(now, lane, home, &spec.into(), &mut scratch.borrow_mut())
        });
        record_ns(&lane.latency, started.elapsed(), 1);
        result
    }

    /// Decides one arrival at `now` for a caller whose home lane is `home`
    /// (where its counters and write sections go — resolved once per
    /// public call and passed down), booking an admission on shard
    /// `target`: expire guard, then conservative snapshot reject or
    /// optimistic CAS-charge with bounded-retry revalidation and
    /// ring-deferred bookkeeping. The task's units are computed once,
    /// straight from its demands, and serve the test, the charge and the
    /// entry alike.
    fn decide_lockfree(
        &self,
        now: Time,
        home: &Lane,
        target: usize,
        task: &DemandView<'_>,
        s: &mut Scratch,
    ) -> Option<AdmissionTicket> {
        let inner = &*self.inner;
        self.expire_guard(now, target);
        s.contrib_fp.clear();
        inner.model.units_into(task, &mut s.contrib_fp);
        // A plain (non-seqlock) read suffices here: each component is a
        // value the counters genuinely held at its load instant, and the
        // region test is monotone, so any reject it concludes is safe —
        // rejecting cannot violate the region. The read may include
        // another thread's in-flight charge that later rolls back, making
        // the reject conservative; that is the documented contention
        // trade, and single-threaded reads are never torn. In the admit
        // direction the read is only a hint — the write-section
        // revalidation below is what actually decides.
        inner.state.read_fp_into(&mut s.current_fp);
        let fits =
            tentative_feasible_fp(&inner.region, &s.current_fp, &s.contrib_fp, &mut s.floats);
        let ticket = if fits {
            self.charge_revalidated(
                home,
                &s.contrib_fp,
                &mut s.current_fp,
                &mut s.floats,
                || self.commit(None, home, target, now, task, s.contrib_fp.clone()),
            )
        } else {
            None
        };
        if ticket.is_none() {
            // One RMW covers the decision: `fast_rejected` is folded into
            // the reported `rejected` total at snapshot time.
            home.counters.add_fast_rejected(1);
        }
        ticket
    }

    /// The CAS-charge routine every admission goes through: optimistically
    /// charges `contrib_fp` inside a write section and keeps the charge
    /// only if the post-charge vector revalidates inside the region,
    /// running `commit` (which books the admission) before the section
    /// closes — so a write-quiescent observer never sees charged units
    /// whose entry is neither ringed nor inserted. Otherwise rolls the
    /// exact units back and retries, giving up (`None`) as soon as a fresh
    /// read proves the arrival infeasible or after bounded attempts.
    /// Takes no lock and never blocks.
    fn charge_revalidated<T>(
        &self,
        home: &Lane,
        contrib_fp: &[(StageId, u64)],
        current_fp: &mut Vec<u64>,
        floats: &mut Vec<f64>,
        commit: impl FnOnce() -> T,
    ) -> Option<T> {
        let inner = &*self.inner;
        for _ in 0..CAS_ADMIT_RETRIES {
            home.begin_write();
            inner.state.add_units(contrib_fp);
            // Revalidate the post-charge vector (the SeqCst read sees our
            // own adds): if every committed charge revalidated against a
            // vector that included it, induction over commits keeps the
            // live vector feasible — see DESIGN.md §16 for the proof.
            inner.state.read_fp_into(current_fp);
            if feasible_fp(&inner.region, current_fp, floats) {
                let booked = commit();
                home.end_write();
                return Some(booked);
            }
            // Concurrent charges raced past our snapshot: roll back the
            // exact units and re-examine from a fresh read.
            inner.state.sub_units(contrib_fp);
            home.end_write();
            home.counters.add_cas_retry();
            inner.state.read_fp_into(current_fp);
            if !tentative_feasible_fp(&inner.region, current_fp, contrib_fp, floats) {
                return None;
            }
        }
        // Still contended after bounded retries: reject conservatively
        // rather than ever blocking a decision.
        None
    }

    /// Books an admission decided inside an open write section: assigns
    /// the id, hands the entry to shard `target` and publishes the
    /// deadline hint. The entry goes onto the shard's pending ring, or
    /// straight into `held` when the caller already holds that shard's
    /// lock (the shedding path: a full ring falls back to `try_lock` on
    /// the very mutex it holds). `contributions` is the entry's own
    /// vector — the one heap allocation an admission costs. Must run
    /// before the section's `end_write`.
    fn commit(
        &self,
        held: Option<&mut Shard>,
        home: &Lane,
        target: usize,
        now: Time,
        task: &DemandView<'_>,
        contributions: Vec<(StageId, u64)>,
    ) -> AdmissionTicket {
        let inner = &*self.inner;
        let id = inner.next_id.0.fetch_add(1, Ordering::Relaxed);
        let expiry = now.saturating_add(task.deadline);
        let pending = PendingAdmission {
            id,
            contributions,
            expiry,
            importance: task.importance,
        };
        match held {
            Some(shard) => ShardedUtilization::insert_entry_locked(shard, pending),
            None => inner.state.push_pending(target, pending),
        }
        // Published at decision time (not ring-drain time), so snapshot
        // decisions stop as soon as this entry's decrement is due.
        inner.state.note_deadline(target, expiry);
        home.counters.add_admitted();
        AdmissionTicket {
            sink: Some(Arc::clone(&inner.sinks[target])),
            id,
            deadline: expiry,
        }
    }

    /// Parity guard for snapshot decisions: if shard `target` may have a
    /// deadline decrement due at `now` (its next-due hint has come due),
    /// apply it under the shard lock first and report that it did. The
    /// library controller runs `advance_to(at)` before every decision,
    /// and verdicts and expired counts must match it
    /// decision-for-decision. The hint is a lower bound on the earliest
    /// due decrement, so `now < hint` proves a drain would be a no-op.
    fn expire_guard(&self, now: Time, target: usize) -> bool {
        let state = &self.inner.state;
        let due = now.as_micros() >= state.shard_next_due(target);
        if due {
            state.expire_due(&mut state.lock_shard(target), now);
        }
        due
    }

    /// Attempts to admit `spec`; when infeasible, sheds live tasks that
    /// are strictly less important than `spec` (least important first,
    /// across every shard) until the arrival fits or no candidates remain
    /// (Section 5's overload architecture). Shed tasks stay shed even if
    /// the arrival is ultimately rejected — including the (contended-only)
    /// case where concurrent lock-free admits outrace the final charge's
    /// revalidation.
    pub fn try_admit_or_shed(&self, spec: &TaskSpec) -> ServiceOutcome {
        self.admit_or_shed(&spec.into())
    }

    /// [`AdmissionService::try_admit_or_shed`] on the task's view.
    fn admit_or_shed(&self, task: &DemandView<'_>) -> ServiceOutcome {
        let started = Instant::now();
        let inner = &*self.inner;
        let home = self.home_shard();
        let lane = inner.state.lane(home);
        if inner.draining.load(Ordering::Acquire) {
            lane.counters.add_rejected();
            return ServiceOutcome::Rejected;
        }

        // Slow path: take every shard (ascending) so the shed order can
        // be scanned globally. The clock is read after every lock is
        // held so no wheel can observe time running backwards.
        let mut guards: Vec<MutexGuard<'_, Shard>> = (0..inner.state.shard_count())
            .map(|i| inner.state.lock_shard(i))
            .collect();
        let now = inner.clock.now();
        for shard in guards.iter_mut() {
            inner.state.expire_due(shard, now);
        }

        let outcome = SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            s.contrib_fp.clear();
            inner.model.units_into(task, &mut s.contrib_fp);

            // Shed in reverse order of semantic importance until the
            // arrival fits, never touching work at or above its own
            // importance.
            let mut shed = Vec::new();
            let fits = loop {
                inner.state.read_fp_into(&mut s.current_fp);
                if tentative_feasible_fp(&inner.region, &s.current_fp, &s.contrib_fp, &mut s.floats)
                {
                    break true;
                }
                let victim = guards
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, g)| g.first_victim().map(|(imp, id)| (i, imp, id)))
                    .min_by_key(|&(_, imp, id)| (imp, id));
                let Some((victim_shard, _, victim)) =
                    victim.filter(|&(_, imp, _)| imp < task.importance)
                else {
                    break false;
                };
                let entry = guards[victim_shard]
                    .unfile(victim)
                    .expect("first_victim names a live entry");
                inner.state.subtract_entry(&entry.contributions);
                shed.push(victim);
            };
            if !shed.is_empty() {
                lane.counters.add_shed(shed.len() as u64);
            }

            let ticket = if fits {
                let (fp, current, floats) = (&s.contrib_fp, &mut s.current_fp, &mut s.floats);
                self.charge_revalidated(lane, fp, current, floats, || {
                    self.commit(Some(&mut guards[home]), lane, home, now, task, fp.clone())
                })
            } else {
                None
            };
            match ticket {
                Some(ticket) if shed.is_empty() => ServiceOutcome::Admitted(ticket),
                Some(ticket) => ServiceOutcome::AdmittedAfterShedding { ticket, shed },
                None => {
                    lane.counters.add_rejected();
                    ServiceOutcome::Rejected
                }
            }
        });
        record_ns(&lane.latency, started.elapsed(), 1);
        outcome
    }

    /// Resolves a batch of arrivals in arrival order, decision-for-decision
    /// equivalent to calling [`AdmissionService::try_admit`] /
    /// [`AdmissionService::try_admit_or_shed`] once per request from the
    /// same thread — but a contiguous run of non-shedding requests costs
    /// **one** clock read, **one** utilization snapshot, and **one**
    /// write section (one CAS sequence) for the whole run instead of one
    /// each per decision. This is the networked fast path: a gateway
    /// worker hands every `AdmitRequest` drained from one socket read to
    /// a single `admit_batch` call.
    ///
    /// Requests with [`BatchRequest::allow_shed`] set break the run and go
    /// through the cross-shard shedding path individually (shedding needs
    /// every shard lock, so batching it would serialize the world anyway).
    ///
    /// Equivalence notes (the batch-equivalence tests pin these down):
    ///
    /// * the single clock read makes every request in a run arrive "at the
    ///   same instant" — identical to back-to-back singles under any fixed
    ///   clock, and merely a nanoseconds-coarser arrival stamp under a
    ///   wall clock;
    /// * the run's base snapshot is re-taken after any expire-guard drain
    ///   fires, so each verdict is computed against exactly the vector a
    ///   serial sequence of singles would have read;
    /// * per-decision latency is recorded as the run's wall time divided
    ///   evenly across its decisions, keeping histogram counts equal to
    ///   decision counts.
    pub fn admit_batch(&self, requests: &[BatchRequest<'_>]) -> Vec<ServiceOutcome> {
        let mut out = Vec::with_capacity(requests.len());
        self.admit_batch_into(requests, &mut out);
        out
    }

    /// [`AdmissionService::admit_batch`] into a caller-owned buffer, so a
    /// steady-state caller (the gateway worker loop) allocates little per
    /// batch. Outcomes are appended in request order.
    ///
    /// The clock is read **once per batch**, before any lock (the
    /// one-clock-read regression test pins this): every non-shedding run
    /// in the batch decides at the same instant, and `expire_due` clamps
    /// to each wheel's cursor so the hoisted reading can never rewind a
    /// wheel another thread advanced meanwhile. Shedding requests go
    /// through [`AdmissionService::try_admit_or_shed`], which takes every
    /// shard lock and therefore re-reads the clock itself.
    pub fn admit_batch_into(&self, requests: &[BatchRequest<'_>], out: &mut Vec<ServiceOutcome>) {
        self.admit_batch_with(requests.len(), |i| requests[i], out);
    }

    /// [`AdmissionService::admit_batch_into`] over requests made on
    /// demand: `request(i)` is the `i`-th of `count`. A front end whose
    /// requests are views into a decode arena (the gateway's wake batch)
    /// resolves them from where they lie instead of collecting a slice
    /// per call. `request` may be asked for the same index more than once
    /// and must answer the same each time.
    pub fn admit_batch_with<'a>(
        &self,
        count: usize,
        request: impl Fn(usize) -> BatchRequest<'a>,
        out: &mut Vec<ServiceOutcome>,
    ) {
        if count == 0 {
            return;
        }
        let now = self.inner.clock.now();
        let mut i = 0;
        while i < count {
            let req = request(i);
            if req.allow_shed {
                out.push(self.admit_or_shed(&req.task));
                i += 1;
            } else {
                let mut j = i + 1;
                while j < count && !request(j).allow_shed {
                    j += 1;
                }
                self.admit_run(now, i..j, &request, out);
                i = j;
            }
        }
    }

    /// One contiguous non-shedding run at one instant, amortized over a
    /// single snapshot and a single CAS-charge sequence:
    ///
    /// 1. snapshot the base vector once (re-taken after any expire-guard
    ///    drain, which can decrement it);
    /// 2. walk the run greedily, testing each request against
    ///    `base + run's own accumulated charges` — exactly the vector a
    ///    serial sequence of singles would read;
    /// 3. charge the accumulated total in **one** write section and
    ///    revalidate; on success mint every ticket (ring-pushed inside
    ///    the section), on failure roll back the exact units and decide
    ///    the run request-by-request on the single-decision protocol
    ///    (nothing was committed, so the fallback is equivalence-clean).
    ///
    /// Single-threaded, step 3's revalidation reads exactly the last
    /// vector step 2 verified, so it cannot fail and the verdicts are
    /// identical to serial singles — the batch-equivalence suite holds
    /// the two to that, decision for decision.
    fn admit_run<'a>(
        &self,
        now: Time,
        run: std::ops::Range<usize>,
        request: &impl Fn(usize) -> BatchRequest<'a>,
        out: &mut Vec<ServiceOutcome>,
    ) {
        let started = Instant::now();
        let inner = &*self.inner;
        let home = self.home_shard();
        let lane = inner.state.lane(home);
        if inner.draining.load(Ordering::Acquire) {
            lane.counters.add_rejected_n(run.len() as u64);
            out.extend(run.map(|_| ServiceOutcome::Rejected));
            return;
        }
        let count = inner.state.shard_count();
        let target_of = |req: &BatchRequest<'_>| req.shard.map_or(home, |s| s % count);

        SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            let stages = inner.state.stages();
            // A plain read, as in `decide_lockfree`: the base is only a
            // hint, the one-section commit below revalidates.
            inner.state.read_fp_into(&mut s.current_fp);
            s.acc_fp.clear();
            s.acc_fp.resize(stages, 0);

            // Every request starts out rejected; the commit step
            // overwrites the admitted ones.
            let first = out.len();
            out.extend(run.clone().map(|_| ServiceOutcome::Rejected));

            // Greedy walk: verdicts against base + own accumulated
            // charges. Each request's units land at the end of the
            // scratch arena and stay there if it is an admit candidate,
            // so a candidate allocates nothing until its entry is minted.
            s.run_contrib.clear();
            s.run_admits.clear();
            for i in run.clone() {
                let req = request(i);
                let target = target_of(&req);
                if self.expire_guard(now, target) {
                    // The drain may have decremented counters; re-take the
                    // base or this run would conservatively reject where
                    // serial singles (which read after draining) admit.
                    // The refreshed hint is > now, so each shard drains at
                    // most once per run.
                    inner.state.read_fp_into(&mut s.current_fp);
                }
                let start = s.run_contrib.len();
                inner.model.units_into(&req.task, &mut s.run_contrib);
                s.combined_fp.clear();
                s.combined_fp.extend(
                    s.current_fp
                        .iter()
                        .zip(&s.acc_fp)
                        .map(|(&base, &acc)| base.saturating_add(acc)),
                );
                let units = &s.run_contrib[start..];
                if tentative_feasible_fp(&inner.region, &s.combined_fp, units, &mut s.floats) {
                    for &(stage, units) in units {
                        s.acc_fp[stage.index()] += units;
                    }
                    s.run_admits.push((i, target, s.run_contrib.len()));
                } else {
                    s.run_contrib.truncate(start);
                }
            }

            // Commit the whole run's admissions in one write section.
            let committed = s.run_admits.is_empty() || {
                lane.begin_write();
                inner.state.add_unit_vector(&s.acc_fp);
                inner.state.read_fp_into(&mut s.combined_fp);
                let ok = feasible_fp(&inner.region, &s.combined_fp, &mut s.floats);
                if ok {
                    let mut start = 0;
                    for &(i, target, end) in &s.run_admits {
                        let contrib = s.run_contrib[start..end].to_vec();
                        let ticket =
                            self.commit(None, lane, target, now, &request(i).task, contrib);
                        out[first + i - run.start] = ServiceOutcome::Admitted(ticket);
                        start = end;
                    }
                } else {
                    inner.state.sub_unit_vector(&s.acc_fp);
                    lane.counters.add_cas_retry();
                }
                lane.end_write();
                ok
            };

            if committed {
                let rejected = run.len() - s.run_admits.len();
                lane.counters.add_fast_rejected(rejected as u64);
            } else {
                // Contention outran the run's snapshot. Nothing was
                // committed, so fall back to the single-decision protocol
                // for the whole run.
                out.truncate(first);
                for req in run.clone().map(request) {
                    let ticket = self.decide_lockfree(now, lane, target_of(&req), &req.task, s);
                    out.push(ticket.map_or(ServiceOutcome::Rejected, ServiceOutcome::Admitted));
                }
            }
        });

        // One wall-clock measurement spread across the run so the
        // histogram still holds one sample per decision.
        let per = started.elapsed() / run.len() as u32;
        record_ns(&lane.latency, per, run.len() as u64);
    }

    /// Puts the service into **drain**: every subsequent admission attempt
    /// is rejected (counted as such), while the release side — ticket
    /// drops, explicit releases, deadline decrements and shedding
    /// bookkeeping — keeps working so live work winds down to zero.
    /// Draining is idempotent and irreversible for the lifetime of the
    /// service; a front end (e.g. the `frap-gateway` server) calls it on
    /// shutdown so in-flight requests get definitive answers without new
    /// capacity being handed out.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Releases an admission by ticket id alone — the orphan-release path
    /// for callers that [`detach`](AdmissionTicket::detach)ed a ticket
    /// (keeping only its id) and later learn the task is gone, e.g. a
    /// gateway cleaning up after a vanished client. Scans shards for the
    /// entry; returns whether anything was still live to release (false
    /// when the id already expired, was shed, or was released).
    pub fn release_by_id(&self, id: u64) -> bool {
        let state = &self.inner.state;
        (0..state.shard_count()).any(|i| state.release_many(i, &mut [id]) > 0)
    }

    /// Releases every ticket in `tickets`, like dropping them one by one
    /// — same units freed, same counters — but each run of consecutive
    /// tickets booked on the same shard costs **one** lock take, ring
    /// drain, pass over the totals and counter update
    /// ([`ShardedUtilization::release_many`]): for a front end that learns
    /// of many departures at once (a run of `Release` frames, a closing
    /// connection's whole ticket table).
    pub fn release_batch(&self, tickets: impl IntoIterator<Item = AdmissionTicket>) {
        // Taken out, not borrowed: the iterator is the caller's code.
        let mut ids = SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().release_ids));
        let flush = |run: &Option<SinkRef>, ids: &mut Vec<u64>| {
            if let Some(sink) = run {
                sink.0.ledger.release_many(sink.0.lane, ids);
            }
            ids.clear();
        };
        let mut run: Option<SinkRef> = None;
        for mut ticket in tickets {
            let sink = ticket.sink.take();
            if !matches!((&run, &sink), (Some(open), Some(sink)) if Arc::ptr_eq(open, sink)) {
                flush(&run, &mut ids);
                run = sink;
            }
            ids.push(ticket.id);
        }
        flush(&run, &mut ids);
        SCRATCH.with(|s| s.borrow_mut().release_ids = ids);
    }

    /// Charges `n` arrivals that died in transit: their deadline budget
    /// was spent before they reached the admission test, so they were
    /// turned away without touching any shard. Kept on the service's
    /// counters so the in-process and networked views of demand agree;
    /// one atomic add, so a gateway worker classifying a whole wake's
    /// drain against one clock read pays one RMW per wake, not per corpse.
    pub fn note_expired_on_arrival_n(&self, n: u64) {
        if n > 0 {
            let lane = self.inner.state.lane(self.home_shard());
            lane.counters.add_expired_on_arrival_n(n);
        }
    }

    /// Applies every due deadline decrement on every shard. The decision
    /// paths already drain a shard whose next-due hint comes due; call
    /// this periodically (or from a maintenance thread) so shards no
    /// thread is posting to also decrement on time.
    pub fn maintain(&self) -> u64 {
        let inner = &*self.inner;
        let mut expired = 0;
        for i in 0..inner.state.shard_count() {
            let mut shard = inner.state.lock_shard(i);
            // Clock read under the lock, so this wheel never rewinds.
            expired += inner.state.expire_due(&mut shard, inner.clock.now());
        }
        expired
    }

    /// The current aggregate utilization vector. Reads are lock-free and
    /// may interleave with concurrent decisions; each component is exact
    /// at some instant during the call, which is all metrics need.
    pub fn utilizations(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.inner.state.stages());
        self.inner.state.read_into(&mut out);
        out
    }

    /// The aggregate utilization vector from a **write-stable snapshot**:
    /// the read is retried until no charge's write section overlaps it,
    /// so the returned vector contains every committed charge and no
    /// in-flight (possibly rolled-back) one. It can only be stale-*high*
    /// versus concurrent reductions. The cluster layer uses this to
    /// shrink a node's caps safely — lower the caps first, then read
    /// here; anything at or below the reading is provably still being
    /// enforced by the new, smaller caps.
    pub fn gated_utilizations(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.inner.state.stages());
        let mut spins = 0u32;
        while !self.inner.state.snapshot_into(&mut out) {
            // Each failed attempt raced a write section; the counter
            // shows how often stable readers actually contend with the
            // CAS-admit path (decision paths use plain reads and never
            // spin here).
            // Lane 0, not the caller's: a stable reader is a monitor, not
            // a decider, and must not claim a home-shard slot just to
            // count a diagnostic.
            self.inner.state.lane(0).counters.add_seqlock_fallback();
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        out
    }

    /// Number of admitted tasks whose deadlines have not yet expired.
    pub fn live_tasks(&self) -> usize {
        let inner = &*self.inner;
        (0..inner.state.shard_count())
            .map(|i| {
                let mut guard = inner.state.lock_shard(i);
                inner.state.drain_pending(&mut guard);
                guard.entries.len()
            })
            .sum()
    }

    /// Decision counters (lock-free).
    pub fn counters(&self) -> CounterSnapshot {
        self.inner.state.counters()
    }

    /// A full metrics snapshot: counters, merged decision-latency
    /// histogram, utilization vector, and live-task count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut latency = LatencyHistogram::new();
        self.inner.state.merge_latency_into(&mut latency);
        MetricsSnapshot {
            counters: self.counters(),
            decision_latency: latency,
            utilizations: self.utilizations(),
            live_tasks: self.live_tasks(),
        }
    }

    /// Locks every shard (ascending), drains the pending rings, and
    /// checks every cross-shard invariant inside a write-quiescent
    /// window: atomic totals equal the entry-map sums **exactly**
    /// (integer units, no tolerance) and the stable aggregate vector is
    /// inside the region. If charging writers keep interfering — e.g. one
    /// stalled on a refilled ring while we hold its shard — the locks are
    /// released and the whole observation retries.
    ///
    /// # Panics
    ///
    /// Panics on any divergence. Used by the concurrency tests.
    pub fn debug_validate(&self) {
        let inner = &*self.inner;
        loop {
            let mut guards: Vec<MutexGuard<'_, Shard>> = (0..inner.state.shard_count())
                .map(|i| inner.state.lock_shard(i))
                .collect();
            for g in guards.iter_mut() {
                inner.state.drain_pending(g);
            }
            let refs: Vec<&Shard> = guards.iter().map(|g| &**g).collect();
            if let Some(current) = inner.state.try_validate_locked(&refs) {
                assert!(
                    inner.region.feasible(&current),
                    "aggregate utilization {current:?} left the feasible region"
                );
                return;
            }
            drop(guards);
            std::thread::yield_now();
        }
    }

    fn home_shard(&self) -> usize {
        THREAD_INDEX.with(|&i| i % self.inner.state.shard_count())
    }
}

// The handle is Send + Sync whenever its parts are; tickets hold only the
// (non-generic) ledger.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}
#[allow(dead_code)]
fn service_is_send_sync() {
    use frap_core::admission::ExactContributions;
    use frap_core::region::FeasibleRegion;
    assert_send_sync::<AdmissionService<FeasibleRegion, ExactContributions, MonotonicClock>>();
    assert_send_sync::<AdmissionTicket>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use frap_core::admission::ExactContributions;
    use frap_core::region::FeasibleRegion;
    use frap_core::task::Importance;
    use frap_core::time::TimeDelta;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn pipeline_task(deadline_ms: u64, per_stage_ms: &[u64]) -> TaskSpec {
        let comps: Vec<TimeDelta> = per_stage_ms.iter().map(|&c| ms(c)).collect();
        TaskSpec::pipeline(ms(deadline_ms), &comps).unwrap()
    }

    fn manual_service(
        stages: usize,
        shards: usize,
    ) -> (
        AdmissionService<FeasibleRegion, ExactContributions, Arc<ManualClock>>,
        Arc<ManualClock>,
    ) {
        let clock = Arc::new(ManualClock::new());
        let svc = AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(stages),
            ExactContributions,
        )
        .clock(Arc::clone(&clock))
        .shards(shards)
        .build();
        (svc, clock)
    }

    #[test]
    fn admits_until_region_is_full() {
        let (svc, _clock) = manual_service(2, 1);
        let spec = pipeline_task(200, &[10, 10]);
        let mut tickets = Vec::new();
        for _ in 0..20 {
            if let Some(t) = svc.try_admit(&spec) {
                tickets.push(t);
            }
        }
        // 0.05/stage against the symmetric two-stage bound ≈ 0.382.
        assert!(
            (6..=8).contains(&tickets.len()),
            "admitted={}",
            tickets.len()
        );
        let c = svc.counters();
        assert_eq!(c.admitted as usize, tickets.len());
        assert_eq!(c.decisions(), 20);
        svc.debug_validate();
        for t in tickets {
            t.detach();
        }
    }

    #[test]
    fn deadline_decrement_frees_capacity() {
        let (svc, clock) = manual_service(2, 1);
        let spec = pipeline_task(100, &[30, 30]);
        svc.try_admit(&spec).expect("fits").detach();
        assert!(svc.try_admit(&spec).is_none(), "0.6/stage is infeasible");
        clock.advance(ms(100));
        let t = svc.try_admit(&spec).expect("capacity returned at deadline");
        assert_eq!(svc.counters().expired, 1);
        assert_eq!(svc.live_tasks(), 1);
        svc.debug_validate();
        t.detach();
    }

    #[test]
    fn release_frees_capacity_before_deadline() {
        let (svc, clock) = manual_service(2, 1);
        let spec = pipeline_task(100, &[30, 30]);
        let ticket = svc.try_admit(&spec).expect("fits");
        assert!(svc.try_admit(&spec).is_none());
        clock.advance(ms(1));
        ticket.release();
        assert_eq!(svc.counters().released, 1);
        svc.try_admit(&spec).expect("release made room").detach();
        svc.debug_validate();
    }

    #[test]
    fn dropping_a_ticket_releases_it() {
        let (svc, _clock) = manual_service(2, 1);
        let spec = pipeline_task(100, &[30, 30]);
        {
            let _ticket = svc.try_admit(&spec).expect("fits");
        }
        assert_eq!(svc.counters().released, 1);
        assert_eq!(svc.live_tasks(), 0);
        svc.debug_validate();
    }

    #[test]
    fn double_release_is_harmless() {
        let (svc, clock) = manual_service(2, 1);
        let spec = pipeline_task(100, &[30, 30]);
        let ticket = svc.try_admit(&spec).expect("fits");
        // Deadline expiry wins the race; the later release finds nothing.
        clock.advance(ms(100));
        assert_eq!(svc.maintain(), 1);
        ticket.release();
        let c = svc.counters();
        assert_eq!(c.expired, 1);
        assert_eq!(c.released, 0);
        svc.debug_validate();
    }

    #[test]
    fn release_churn_leaves_the_wheel_exactly_the_live_entries() {
        // `svc_boundary`'s loop on a manual clock at 1 µs steps: each
        // ticket is released 15 decisions after it was admitted, and one
        // admit in 16 is detached so the wheel keeps expiring. At every
        // step the wheel holds exactly the filed entries, and every hint
        // refresh lands on the earliest live deadline — never on a
        // released ticket's, never on `now + 1`.
        const HOLD: usize = 15;
        let (svc, clock) = manual_service(3, 1);
        let us = TimeDelta::from_micros;
        let specs: Vec<TaskSpec> = (0..61u64)
            .map(|i| {
                let comps = [us(5 + i % 9), us(8), us(3 + i % 4)];
                TaskSpec::pipeline(us(200 + 11 * i), &comps).unwrap()
            })
            .collect();
        let state = &svc.inner.state;
        let mut held: Vec<Option<AdmissionTicket>> = (0..HOLD).map(|_| None).collect();
        let (mut admits, mut refreshes) = (0u64, 0u64);
        for step in 0..20_000 {
            clock.advance(us(1));
            let slot = step % HOLD;
            drop(held[slot].take());
            let consumed = state.shard_next_due(0) <= clock.now().as_micros();
            if let Some(ticket) = svc.try_admit(&specs[step % specs.len()]) {
                admits += 1;
                if admits % 16 == 0 {
                    ticket.detach();
                } else {
                    held[slot] = Some(ticket);
                }
            }
            let mut shard = state.lock_shard(0);
            state.drain_pending(&mut shard);
            assert_eq!(shard.wheel.len(), shard.entries.len(), "step {step}");
            if consumed {
                refreshes += 1;
                let earliest = shard.wheel.earliest().map_or(u64::MAX, Time::as_micros);
                assert_eq!(state.shard_next_due(0), earliest, "step {step}");
            }
        }
        let c = svc.counters();
        assert!(
            c.released > 5_000 && c.expired > 200 && c.rejected > 1_000,
            "{c:?}"
        );
        assert!(refreshes > 200, "{refreshes} refreshes");
        svc.debug_validate();
    }

    #[test]
    fn shedding_evicts_least_important_first() {
        let (svc, clock) = manual_service(2, 2);
        let low = pipeline_task(100, &[15, 15]).with_importance(Importance::new(1));
        let mid = pipeline_task(100, &[15, 15]).with_importance(Importance::new(2));
        let t_low = svc.try_admit(&low).expect("fits");
        let low_id = t_low.id();
        let _id_mid = svc.try_admit(&mid).expect("fits").detach();
        clock.advance(ms(1));
        let critical = pipeline_task(100, &[20, 20]).with_importance(Importance::CRITICAL);
        match svc.try_admit_or_shed(&critical) {
            ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
                assert_eq!(shed, vec![low_id], "least important shed first");
                ticket.detach();
            }
            other => panic!("expected shedding admission, got {other:?}"),
        }
        assert_eq!(svc.counters().shed, 1);
        svc.debug_validate();
        t_low.detach(); // already shed; detach is a no-op on bookkeeping
    }

    #[test]
    fn shedding_never_evicts_equal_importance() {
        let (svc, clock) = manual_service(2, 1);
        let a = pipeline_task(100, &[30, 30]).with_importance(Importance::new(5));
        svc.try_admit(&a).expect("fits").detach();
        clock.advance(ms(1));
        let b = pipeline_task(100, &[30, 30]).with_importance(Importance::new(5));
        assert!(matches!(
            svc.try_admit_or_shed(&b),
            ServiceOutcome::Rejected
        ));
        assert_eq!(svc.counters().shed, 0);
        assert_eq!(svc.live_tasks(), 1);
        svc.debug_validate();
    }

    #[test]
    fn reservations_preload_counters() {
        let clock = Arc::new(ManualClock::new());
        let svc =
            AdmissionService::builder(FeasibleRegion::deadline_monotonic(3), ExactContributions)
                .clock(Arc::clone(&clock))
                .shards(1)
                .reservations(&[0.4, 0.25, 0.1])
                .build();
        let small = pipeline_task(1000, &[10, 2, 2]);
        svc.try_admit(&small).expect("fits above floors").detach();
        let big = pipeline_task(1000, &[200, 2, 2]);
        assert!(svc.try_admit(&big).is_none());
        let u = svc.utilizations();
        assert!(u[0] >= 0.4 && u[1] >= 0.25 && u[2] >= 0.1);
        svc.debug_validate();
    }

    #[test]
    fn snapshot_reports_latency_and_live_tasks() {
        let (svc, _clock) = manual_service(2, 1);
        let spec = pipeline_task(200, &[10, 10]);
        for _ in 0..10 {
            if let Some(t) = svc.try_admit(&spec) {
                t.detach();
            }
        }
        let snap = svc.snapshot();
        assert_eq!(snap.counters.decisions(), 10);
        assert_eq!(snap.live_tasks, svc.live_tasks());
        assert!(snap.decision_latency.count() == 10);
        assert!(snap.decision_latency_ns(0.99) > 0);
        assert_eq!(snap.utilizations.len(), 2);
    }

    #[test]
    fn drain_stops_admitting_but_keeps_releasing() {
        let (svc, clock) = manual_service(2, 2);
        let spec = pipeline_task(100, &[30, 30]);
        let ticket = svc.try_admit(&spec).expect("fits before drain");
        svc.drain();
        // No new admissions by either path, each counted as a rejection.
        assert!(svc.try_admit(&spec).is_none());
        assert!(matches!(
            svc.try_admit_or_shed(
                &pipeline_task(100, &[1, 1]).with_importance(Importance::CRITICAL)
            ),
            ServiceOutcome::Rejected
        ));
        assert_eq!(svc.counters().rejected, 2);
        // The release side still works: explicit release, then expiry of a
        // detached admission would follow the same path via maintain().
        ticket.release();
        assert_eq!(svc.counters().released, 1);
        assert_eq!(svc.live_tasks(), 0);
        clock.advance(ms(200));
        assert_eq!(svc.maintain(), 0);
        svc.debug_validate();
    }

    #[test]
    fn release_by_id_releases_detached_tickets_once() {
        let (svc, _clock) = manual_service(2, 2);
        let spec = pipeline_task(100, &[30, 30]);
        let id = svc.try_admit(&spec).expect("fits").detach();
        assert!(svc.try_admit(&spec).is_none(), "region is full");
        assert!(svc.release_by_id(id), "live detached entry is released");
        assert!(!svc.release_by_id(id), "second release finds nothing");
        assert_eq!(svc.counters().released, 1);
        assert_eq!(svc.live_tasks(), 0);
        svc.try_admit(&spec)
            .expect("orphan release made room")
            .detach();
        svc.debug_validate();
    }

    #[test]
    fn expired_on_arrival_is_counted_without_touching_shards() {
        let (svc, _clock) = manual_service(2, 1);
        svc.note_expired_on_arrival_n(3);
        svc.note_expired_on_arrival_n(0);
        let c = svc.counters();
        assert_eq!(c.expired_on_arrival, 3);
        assert_eq!(c.decisions(), 0, "not an admission decision");
        assert_eq!(svc.live_tasks(), 0);
        svc.debug_validate();
    }

    #[test]
    fn admit_batch_matches_single_admits_on_twin_services() {
        let (batched, _c1) = manual_service(2, 2);
        let (singles, _c2) = manual_service(2, 2);
        let specs: Vec<TaskSpec> = (0..30)
            .map(|i| pipeline_task(200, &[5 + (i % 7), 3 + (i % 5)]))
            .collect();
        let requests: Vec<BatchRequest<'_>> = specs.iter().map(BatchRequest::new).collect();

        let batch_outcomes = batched.admit_batch(&requests);
        let single_outcomes: Vec<Option<AdmissionTicket>> =
            specs.iter().map(|s| singles.try_admit(s)).collect();

        assert_eq!(batch_outcomes.len(), single_outcomes.len());
        for (i, (b, s)) in batch_outcomes.iter().zip(&single_outcomes).enumerate() {
            match (b, s) {
                (ServiceOutcome::Admitted(bt), Some(st)) => {
                    assert_eq!(bt.id(), st.id(), "ticket ids diverged at {i}");
                    assert_eq!(bt.deadline(), st.deadline());
                }
                (ServiceOutcome::Rejected, None) => {}
                other => panic!("decision diverged at {i}: {other:?}"),
            }
        }
        let (cb, cs) = (batched.counters(), singles.counters());
        assert_eq!(cb.admitted, cs.admitted);
        assert_eq!(cb.rejected, cs.rejected);
        // One histogram sample per decision on both paths.
        assert_eq!(
            batched.snapshot().decision_latency.count(),
            specs.len() as u64
        );
        batched.debug_validate();
        singles.debug_validate();
        for o in batch_outcomes {
            if let Some(t) = o.ticket() {
                t.detach();
            }
        }
        for t in single_outcomes.into_iter().flatten() {
            t.detach();
        }
    }

    #[test]
    fn admit_batch_during_drain_rejects_everything() {
        let (svc, _clock) = manual_service(2, 1);
        svc.drain();
        let spec = pipeline_task(100, &[1, 1]);
        let outcomes = svc.admit_batch(&[
            BatchRequest::new(&spec),
            BatchRequest {
                allow_shed: true,
                ..BatchRequest::new(&spec)
            },
            BatchRequest::new(&spec),
        ]);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, ServiceOutcome::Rejected)));
        assert_eq!(svc.counters().rejected, 3);
        svc.debug_validate();
    }

    #[test]
    fn admit_batch_sheds_through_the_slow_path() {
        let (svc, clock) = manual_service(2, 1);
        let low = pipeline_task(100, &[30, 30]).with_importance(Importance::new(1));
        let t_low = svc.try_admit(&low).expect("fits");
        let low_id = t_low.id();
        clock.advance(ms(1));
        let vip = pipeline_task(100, &[30, 30]).with_importance(Importance::CRITICAL);
        let blocked = pipeline_task(100, &[30, 30]).with_importance(Importance::new(1));
        let outcomes = svc.admit_batch(&[
            BatchRequest::new(&blocked),
            BatchRequest {
                allow_shed: true,
                ..BatchRequest::new(&vip)
            },
        ]);
        assert!(matches!(outcomes[0], ServiceOutcome::Rejected));
        match &outcomes[1] {
            ServiceOutcome::AdmittedAfterShedding { shed, .. } => {
                assert_eq!(shed, &vec![low_id]);
            }
            other => panic!("expected shedding admission, got {other:?}"),
        }
        svc.debug_validate();
        t_low.detach();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (svc, _clock) = manual_service(2, 1);
        assert!(svc.admit_batch(&[]).is_empty());
        assert_eq!(svc.counters().decisions(), 0);
    }

    #[test]
    fn wall_clock_service_works_end_to_end() {
        let svc =
            AdmissionService::builder(FeasibleRegion::deadline_monotonic(2), ExactContributions)
                .shards(2)
                .build();
        let spec = pipeline_task(50, &[5, 5]);
        let t = svc.try_admit(&spec).expect("empty system admits");
        t.release();
        assert_eq!(svc.counters().admitted, 1);
        svc.debug_validate();
    }
}

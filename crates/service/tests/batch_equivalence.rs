//! Differential tests: [`AdmissionService::admit_batch`] must be
//! decision-for-decision equivalent to issuing the same requests one at
//! a time through `try_admit` / `try_admit_or_shed`.
//!
//! Two identically configured services share nothing but a construction
//! recipe and see the same request sequence under the same manual-clock
//! schedule; one resolves it in batches, the other as singles. Every
//! verdict — including which tickets shedding evicted, and the ticket
//! ids themselves (id assignment is deterministic per service) — must
//! match. This is the guarantee the gateway leans on when it folds every
//! `AdmitRequest` drained from one socket read into one batch call.
//!
//! The release side has the same shape:
//! [`AdmissionService::release_batch`] must leave the ledger exactly
//! where releasing the same tickets one by one leaves it — units,
//! counters, live tasks, and the victims a later shedding admission
//! picks — which is what lets the gateway hand a run of `Release` frames
//! (or a dead connection's whole ticket table) over in one call.

use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::task::Importance;
use frap_core::time::{Time, TimeDelta};
use frap_core::wire::WireTaskSpec;
use frap_service::clock::ManualClock;
use frap_service::{AdmissionService, AdmissionTicket, BatchRequest, ServiceOutcome};
use proptest::prelude::*;
use std::sync::Arc;

type ManualService = AdmissionService<FeasibleRegion, ExactContributions, Arc<ManualClock>>;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn service(stages: usize, shards: usize) -> (ManualService, Arc<ManualClock>) {
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

fn task(deadline_ms: u64, per_stage_ms: &[u64], importance: u8) -> TaskSpec {
    let comps: Vec<TimeDelta> = per_stage_ms.iter().map(|&c| ms(c)).collect();
    let mut spec = TaskSpec::pipeline(ms(deadline_ms), &comps).unwrap();
    spec.importance = Importance::new(importance as u32);
    spec
}

/// A comparable summary of one decision.
#[derive(Debug, PartialEq, Eq)]
enum Decision {
    Admitted {
        ticket_id: u64,
        deadline: Time,
    },
    AdmittedAfterShedding {
        ticket_id: u64,
        deadline: Time,
        shed: Vec<u64>,
    },
    Rejected,
}

/// Summarizes an outcome, parking any ticket in `live` so its capacity
/// stays charged for the rest of the run (mirroring a client that holds
/// its admissions open).
fn digest(outcome: ServiceOutcome, live: &mut Vec<AdmissionTicket>) -> Decision {
    match outcome {
        ServiceOutcome::Admitted(t) => {
            let (ticket_id, deadline) = (t.id(), t.deadline());
            live.push(t);
            Decision::Admitted {
                ticket_id,
                deadline,
            }
        }
        ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
            let (ticket_id, deadline) = (ticket.id(), ticket.deadline());
            live.push(ticket);
            Decision::AdmittedAfterShedding {
                ticket_id,
                deadline,
                shed,
            }
        }
        ServiceOutcome::Rejected => Decision::Rejected,
    }
}

/// Resolves `reqs` on `svc` one decision at a time — the reference path.
fn run_singles(
    svc: &ManualService,
    reqs: &[(TaskSpec, bool)],
    live: &mut Vec<AdmissionTicket>,
) -> Vec<Decision> {
    reqs.iter()
        .map(|(spec, allow_shed)| {
            let outcome = if *allow_shed {
                svc.try_admit_or_shed(spec)
            } else {
                match svc.try_admit(spec) {
                    Some(t) => ServiceOutcome::Admitted(t),
                    None => ServiceOutcome::Rejected,
                }
            };
            digest(outcome, live)
        })
        .collect()
}

/// Resolves `reqs` on `svc` in one `admit_batch` call.
fn run_batch(
    svc: &ManualService,
    reqs: &[(TaskSpec, bool)],
    live: &mut Vec<AdmissionTicket>,
) -> Vec<Decision> {
    let requests: Vec<BatchRequest<'_>> = reqs
        .iter()
        .map(|(spec, allow_shed)| BatchRequest {
            allow_shed: *allow_shed,
            ..BatchRequest::new(spec)
        })
        .collect();
    svc.admit_batch(&requests)
        .into_iter()
        .map(|o| digest(o, live))
        .collect()
}

/// Asserts both services agree on every decision and on their counters.
fn assert_equivalent(reqs: &[(TaskSpec, bool)], stages: usize, shards: usize) {
    let (batched, _cb) = service(stages, shards);
    let (singles, _cs) = service(stages, shards);
    let mut live_b = Vec::new();
    let mut live_s = Vec::new();
    let got = run_batch(&batched, reqs, &mut live_b);
    let want = run_singles(&singles, reqs, &mut live_s);
    assert_eq!(got, want);
    let (cb, cs) = (batched.counters(), singles.counters());
    assert_eq!(cb.admitted, cs.admitted);
    assert_eq!(cb.rejected, cs.rejected);
    assert_eq!(cb.shed, cs.shed);
    assert_eq!(batched.live_tasks(), singles.live_tasks());
    // Either way every decision leaves one latency sample, and every
    // rejected plain request was concluded without a shard lock.
    let plain_rejects = reqs
        .iter()
        .zip(&want)
        .filter(|((_, allow_shed), d)| !allow_shed && **d == Decision::Rejected)
        .count() as u64;
    for (svc, c) in [(&batched, cb), (&singles, cs)] {
        assert_eq!(svc.snapshot().decision_latency.count(), c.decisions());
        assert_eq!(c.fast_rejected, plain_rejects);
    }
    batched.debug_validate();
    singles.debug_validate();
    for t in live_b.into_iter().chain(live_s) {
        t.detach();
    }
}

#[test]
fn saturating_run_matches_singles() {
    // 0.15/stage against the 2-stage bound (~0.382): admits 2, rejects on.
    let reqs: Vec<(TaskSpec, bool)> = (0..12).map(|_| (task(200, &[30, 30], 2), false)).collect();
    assert_equivalent(&reqs, 2, 1);
}

#[test]
fn mixed_shapes_match_singles_across_shards() {
    let reqs: Vec<(TaskSpec, bool)> = (0..24)
        .map(|i| {
            (
                task(100 + 40 * (i % 5), &[5 + 3 * (i % 4), 8, 4 + (i % 7)], 3),
                false,
            )
        })
        .collect();
    for shards in [1, 2, 4] {
        assert_equivalent(&reqs, 3, shards);
    }
}

#[test]
fn shedding_requests_break_runs_identically() {
    // Low-importance filler first, then high-importance shedders that
    // must evict it, interleaved with plain requests that see the
    // post-shed state.
    let mut reqs: Vec<(TaskSpec, bool)> = Vec::new();
    for _ in 0..6 {
        reqs.push((task(200, &[25, 25], 1), false));
    }
    for i in 0..6 {
        reqs.push((task(200, &[25, 25], 5), i % 2 == 0));
    }
    reqs.push((task(400, &[5, 5], 3), false));
    assert_equivalent(&reqs, 2, 1);
    assert_equivalent(&reqs, 2, 2);
}

#[test]
fn draining_service_rejects_batches_like_singles() {
    let reqs: Vec<(TaskSpec, bool)> = (0..8)
        .map(|i| (task(150, &[10, 10], 2), i % 3 == 0))
        .collect();
    let (batched, _cb) = service(2, 2);
    let (singles, _cs) = service(2, 2);
    batched.drain();
    singles.drain();
    let mut live_b = Vec::new();
    let mut live_s = Vec::new();
    let got = run_batch(&batched, &reqs, &mut live_b);
    let want = run_singles(&singles, &reqs, &mut live_s);
    assert!(got.iter().all(|d| *d == Decision::Rejected));
    assert_eq!(got, want);
    assert_eq!(batched.counters().rejected, singles.counters().rejected);
    assert_eq!(batched.counters().rejected, reqs.len() as u64);
}

#[test]
fn expiry_drains_once_per_run_without_changing_decisions() {
    // Fill to the brim, advance past every deadline, then offer a batch:
    // the batch path drains expiries once for the whole run, the singles
    // path once per decision — decisions must match anyway.
    let fill: Vec<(TaskSpec, bool)> = (0..10).map(|_| (task(100, &[30, 30], 2), false)).collect();
    let probe: Vec<(TaskSpec, bool)> = (0..6).map(|_| (task(100, &[30, 30], 2), false)).collect();

    let (batched, clock_b) = service(2, 1);
    let (singles, clock_s) = service(2, 1);
    let mut live_b = Vec::new();
    let mut live_s = Vec::new();
    // Detach the fill so its capacity stays charged until the deadline
    // decrement rather than releasing on drop.
    for t in run_batch(&batched, &fill, &mut live_b)
        .into_iter()
        .zip(live_b.drain(..))
        .map(|(_, t)| t)
    {
        t.detach();
    }
    for t in run_singles(&singles, &fill, &mut live_s)
        .into_iter()
        .zip(live_s.drain(..))
        .map(|(_, t)| t)
    {
        t.detach();
    }

    clock_b.advance(ms(150));
    clock_s.advance(ms(150));

    let got = run_batch(&batched, &probe, &mut live_b);
    let want = run_singles(&singles, &probe, &mut live_s);
    assert_eq!(got, want);
    assert!(
        got.iter().any(|d| matches!(d, Decision::Admitted { .. })),
        "expiry must have freed capacity: {got:?}"
    );
    batched.debug_validate();
    singles.debug_validate();
    for t in live_b.into_iter().chain(live_s) {
        t.detach();
    }
}

/// A [`Clock`] wrapper counting every read, for pinning how many clock
/// reads a code path performs.
#[derive(Debug, Default)]
struct CountingClock {
    inner: ManualClock,
    reads: std::sync::atomic::AtomicU64,
}

impl CountingClock {
    fn reads(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl frap_service::clock::Clock for CountingClock {
    fn now(&self) -> frap_core::time::Time {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.now()
    }
}

#[test]
fn one_clock_read_per_batch() {
    // The regression this pins: `admit_batch_into` used to read the clock
    // once per contiguous non-shedding run; it must now read exactly once
    // per batch, no matter how the batch's decisions fall, plus one read
    // per shedding request (those take every shard lock and re-read).
    let clock = Arc::new(CountingClock::default());
    let svc = AdmissionService::builder(FeasibleRegion::deadline_monotonic(2), ExactContributions)
        .clock(Arc::clone(&clock))
        .shards(2)
        .build();

    // Construction reads once (the timer wheels' start); baseline it.
    let base = clock.reads();

    // Empty batches read nothing.
    assert!(svc.admit_batch(&[]).is_empty());
    assert_eq!(clock.reads(), base);

    // A plain batch mixing admits and rejects: exactly one read.
    let spec = task(200, &[30, 30], 2);
    let reqs: Vec<BatchRequest<'_>> = (0..10).map(|_| BatchRequest::new(&spec)).collect();
    let outcomes = svc.admit_batch(&reqs);
    assert!(outcomes.iter().any(|o| o.is_admitted()));
    assert!(outcomes.iter().any(|o| !o.is_admitted()));
    assert_eq!(
        clock.reads() - base,
        1,
        "a non-shedding batch is one clock read"
    );

    // Sheds break runs but the plain runs still share the batch's read:
    // [plain, shed, plain, shed] = 1 (batch) + 2 (sheds).
    let before = clock.reads();
    let mixed = [
        BatchRequest::new(&spec),
        BatchRequest {
            allow_shed: true,
            ..BatchRequest::new(&spec)
        },
        BatchRequest::new(&spec),
        BatchRequest {
            allow_shed: true,
            ..BatchRequest::new(&spec)
        },
    ];
    for o in svc.admit_batch(&mixed) {
        if let Some(t) = o.ticket() {
            t.detach();
        }
    }
    assert_eq!(clock.reads() - before, 3);
    svc.debug_validate();
    for o in outcomes {
        if let Some(t) = o.ticket() {
            t.detach();
        }
    }
}

#[test]
fn shard_targeted_batches_decide_like_untargeted_ones() {
    // Shard routing moves only an admission's bookkeeping home, never the
    // (global) decision: a round-robin-targeted batch must match an
    // untargeted twin verdict-for-verdict and id-for-id, and the targeted
    // entries must still expire on deadline from their adopted shards.
    let shards = 4;
    let (targeted, clock_t) = service(2, shards);
    let (plain, clock_p) = service(2, shards);
    let specs: Vec<TaskSpec> = (0..16).map(|i| task(100, &[10 + (i % 5), 8], 2)).collect();
    let spread: Vec<BatchRequest<'_>> = specs
        .iter()
        .enumerate()
        // Deliberately unsorted shard pattern, including out-of-range
        // indices that reduce modulo the shard count.
        .map(|(i, s)| BatchRequest::new(s).on_shard((i * 3 + 1) % (shards + 2)))
        .collect();
    let home: Vec<BatchRequest<'_>> = specs.iter().map(BatchRequest::new).collect();

    let got = targeted.admit_batch(&spread);
    let want = plain.admit_batch(&home);
    assert_eq!(got.len(), want.len());
    let mut admitted = 0;
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.is_admitted(), w.is_admitted());
        admitted += g.is_admitted() as usize;
    }
    assert!(admitted > 0);
    targeted.debug_validate();

    // Detach everything, expire it, and confirm the targeted shards'
    // wheels decrement exactly like the home shard's would.
    for o in got.into_iter().chain(want) {
        if let Some(t) = o.ticket() {
            t.detach();
        }
    }
    clock_t.advance(ms(200));
    clock_p.advance(ms(200));
    assert_eq!(targeted.maintain(), plain.maintain());
    assert_eq!(targeted.live_tasks(), 0);
    assert_eq!(targeted.counters().expired, admitted as u64);
    targeted.debug_validate();
}

/// One generated arrival.
#[derive(Debug, Clone)]
struct Arrival {
    deadline_ms: u64,
    stage_ms: Vec<u64>,
    importance: u8,
    allow_shed: bool,
}

fn arrival(stages: usize) -> impl Strategy<Value = Arrival> {
    (
        40u64..400,
        proptest::collection::vec(1u64..40, stages..=stages),
        0u8..8,
        0u8..10,
    )
        .prop_map(|(deadline_ms, stage_ms, importance, shed_roll)| Arrival {
            deadline_ms,
            stage_ms,
            importance,
            // ~30% of arrivals may shed, enough to exercise run breaks.
            allow_shed: shed_roll < 3,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary request sequences, chunked into batches with clock
    /// advances in between, decide identically to singles under the
    /// same clock schedule.
    #[test]
    fn random_sequences_are_batch_equivalent(
        arrivals in proptest::collection::vec(arrival(3), 1..60),
        chunk in 1usize..12,
        advances_ms in proptest::collection::vec(0u64..120, 8),
        shards in 1usize..3,
    ) {
        let reqs: Vec<(TaskSpec, bool)> = arrivals
            .iter()
            .map(|a| (task(a.deadline_ms, &a.stage_ms, a.importance), a.allow_shed))
            .collect();
        let (batched, clock_b) = service(3, shards);
        let (singles, clock_s) = service(3, shards);
        let mut live_b = Vec::new();
        let mut live_s = Vec::new();
        for (i, chunk_reqs) in reqs.chunks(chunk).enumerate() {
            let got = run_batch(&batched, chunk_reqs, &mut live_b);
            let want = run_singles(&singles, chunk_reqs, &mut live_s);
            prop_assert_eq!(got, want, "divergence in chunk {}", i);
            let step = ms(advances_ms[i % advances_ms.len()]);
            clock_b.advance(step);
            clock_s.advance(step);
        }
        let (cb, cs) = (batched.counters(), singles.counters());
        prop_assert_eq!(cb.admitted, cs.admitted);
        prop_assert_eq!(cb.rejected, cs.rejected);
        prop_assert_eq!(cb.shed, cs.shed);
        prop_assert_eq!(batched.live_tasks(), singles.live_tasks());
        batched.debug_validate();
        singles.debug_validate();
        for t in live_b.into_iter().chain(live_s) {
            t.detach();
        }
    }
}

/// The ledger as the release-side differentials compare it: the unit
/// vector (exact in `f64` below 2⁵³ units, so bit equality is unit
/// equality) and every counter a release can move. `released_in_ring`
/// is deliberately left out — *where* a release caught its entry is the
/// one thing a run is allowed to change — but must stay a subset.
fn ledger(svc: &ManualService) -> (Vec<u64>, [u64; 5]) {
    let c = svc.counters();
    assert!(c.released_in_ring <= c.released, "{c:?}");
    (
        svc.utilizations().iter().map(|u| u.to_bits()).collect(),
        [c.admitted, c.rejected, c.shed, c.released, c.expired],
    )
}

#[test]
fn release_batch_matches_releasing_one_by_one() {
    let (runs, _cr) = service(2, 2);
    let (singles, _cs) = service(2, 2);
    let filler = task(400, &[4, 4], 1);
    let admit = |svc: &ManualService, n: usize, per_shard: usize| -> Vec<AdmissionTicket> {
        let reqs: Vec<BatchRequest<'_>> = (0..n)
            .map(|i| BatchRequest::new(&filler).on_shard(i / per_shard))
            .collect();
        let tickets: Vec<_> = svc
            .admit_batch(&reqs)
            .into_iter()
            .filter_map(ServiceOutcome::ticket)
            .collect();
        assert_eq!(tickets.len(), n, "the filler fits");
        tickets
    };

    // First wave (ids 0..6, shards alternating): filed in the shards —
    // live_tasks drains the rings. Second wave (6..10 on shard 0, 10..14
    // on shard 1): still ringed when its release arrives.
    let mut held_r = admit(&runs, 6, 1);
    let mut held_s = admit(&singles, 6, 1);
    assert_eq!((runs.live_tasks(), singles.live_tasks()), (6, 6));
    held_r.extend(admit(&runs, 8, 4));
    held_s.extend(admit(&singles, 8, 4));

    // Release all but ids 1, 4 and 9, the ringed wave first: runs
    // [6,7,8]@0, [10..14]@1, then the filed [0]@0, [2]@0 ... one run per
    // change of shard.
    let keep = |t: &AdmissionTicket| [1, 4, 9].contains(&t.id());
    let split = |held: Vec<AdmissionTicket>| {
        let (kept, mut gone): (Vec<_>, Vec<_>) = held.into_iter().partition(keep);
        gone.sort_by_key(|t| t.id() < 6);
        (kept, gone)
    };
    let (kept_r, gone_r) = split(held_r);
    let (kept_s, gone_s) = split(held_s);
    runs.release_batch(gone_r);
    for t in gone_s {
        t.release();
    }
    assert_eq!(ledger(&runs), ledger(&singles));
    assert_eq!((runs.live_tasks(), singles.live_tasks()), (3, 3));
    let (cr, cs) = (runs.counters(), singles.counters());
    assert_eq!(cr.released, 11);
    // The runs caught every ringed entry they came for (all but 9); one
    // by one, the first release on each shard catches its own and files
    // the rest.
    assert_eq!(cr.released_in_ring, 7);
    assert_eq!(cs.released_in_ring, 2);

    // The shed order survived both ways: a critical arrival that needs
    // the whole region evicts the same victims in the same order.
    let vip = task(400, &[150, 150], 9);
    let shed_of = |svc: &ManualService| match svc.try_admit_or_shed(&vip) {
        ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
            ticket.detach();
            shed
        }
        other => panic!("expected a shedding admission, got {other:?}"),
    };
    let (shed_r, shed_s) = (shed_of(&runs), shed_of(&singles));
    assert_eq!(shed_r, shed_s);
    assert_eq!(shed_r, vec![1, 4, 9], "lowest id first within a level");
    assert_eq!(ledger(&runs), ledger(&singles));

    // Releasing what was shed meanwhile is a no-op, counted never.
    runs.release_batch(kept_r);
    drop(kept_s);
    assert_eq!(ledger(&runs), ledger(&singles));
    assert_eq!(runs.counters().released, 11);
    runs.debug_validate();
    singles.debug_validate();
}

/// One step of the release-side differential.
#[derive(Debug, Clone)]
enum Op {
    /// `admit_batch`, request `i` booked on shard `shard + i`.
    Admit {
        arrivals: Vec<Arrival>,
        shard: usize,
    },
    /// Release the held tickets these picks select: as one
    /// `release_batch` on one twin, one by one on the other.
    ReleaseRun(Vec<usize>),
    /// Release one held ticket by drop on both twins.
    Release(usize),
    /// Detach one held ticket on both twins (it expires at its deadline).
    Detach(usize),
    /// `release_by_id`: a detached, unknown or already-released id.
    ReleaseById(u64),
    /// Advance both clocks.
    Advance(u64),
    /// Every held ticket departs `stage`, which then goes idle.
    Idle(usize),
    /// Lock every shard: live-task count and the validator.
    Observe,
}

fn op() -> impl Strategy<Value = Op> {
    // The offline proptest stand-in has no `prop_oneof!`: draw every
    // payload and let a weighted roll pick the step.
    (
        0u8..15,
        proptest::collection::vec(arrival(3), 1..10),
        proptest::collection::vec(0usize..64, 1..12),
        0u64..150,
    )
        .prop_map(|(roll, arrivals, picks, n)| match roll {
            0..=3 => Op::Admit {
                arrivals,
                shard: n as usize % 2,
            },
            4..=7 => Op::ReleaseRun(picks),
            8 => Op::Release(picks[0]),
            9 => Op::Detach(picks[0]),
            10 => Op::ReleaseById(n % 80),
            11 | 12 => Op::Advance(n),
            13 => Op::Idle(n as usize % 3),
            _ => Op::Observe,
        })
}

/// Takes the tickets `picks` select out of `held` — the same ones on
/// both twins, whose held lists evolve in lockstep.
fn take(held: &mut Vec<AdmissionTicket>, picks: &[usize]) -> Vec<AdmissionTicket> {
    let mut taken = Vec::new();
    for &pick in picks {
        if !held.is_empty() {
            taken.push(held.swap_remove(pick % held.len()));
        }
    }
    taken
}

/// One of two services driven through the same [`Op`]s in lockstep.
struct Twin {
    svc: ManualService,
    clock: Arc<ManualClock>,
    held: Vec<AdmissionTicket>,
    /// Lend each arrival as the view of its wire form (the gateway's
    /// datapath) instead of as `BatchRequest::new(&spec)`.
    wire_lent: bool,
    /// Release a [`Op::ReleaseRun`] as one `release_batch` instead of
    /// ticket by ticket.
    release_runs: bool,
}

impl Twin {
    fn new(shards: usize, wire_lent: bool, release_runs: bool) -> Twin {
        let (svc, clock) = service(3, shards);
        Twin {
            svc,
            clock,
            held: Vec::new(),
            wire_lent,
            release_runs,
        }
    }

    /// Applies one step and returns what it let a caller see: the
    /// decisions of an admit, and the answer of a `release_by_id` or an
    /// observation.
    fn apply(&mut self, op: &Op) -> (Vec<Decision>, usize) {
        let mut decisions = Vec::new();
        let mut answer = 0;
        match op {
            Op::Admit { arrivals, shard } => {
                let wires: Vec<WireTaskSpec> = arrivals
                    .iter()
                    .map(|a| WireTaskSpec {
                        deadline_us: a.deadline_ms * 1000,
                        stage_demands_us: a.stage_ms.iter().map(|c| c * 1000).collect(),
                        importance: a.importance as u32,
                    })
                    .collect();
                let specs: Vec<TaskSpec> = wires.iter().map(|w| w.to_spec().unwrap()).collect();
                let reqs: Vec<BatchRequest<'_>> = (0..arrivals.len())
                    .map(|i| BatchRequest {
                        allow_shed: arrivals[i].allow_shed,
                        shard: Some(shard + i),
                        ..if self.wire_lent {
                            BatchRequest::of((&wires[i]).into())
                        } else {
                            BatchRequest::new(&specs[i])
                        }
                    })
                    .collect();
                let outcomes = self.svc.admit_batch(&reqs);
                decisions.extend(outcomes.into_iter().map(|o| digest(o, &mut self.held)));
            }
            Op::ReleaseRun(picks) if self.release_runs => {
                self.svc.release_batch(take(&mut self.held, picks));
            }
            Op::ReleaseRun(picks) => {
                for t in take(&mut self.held, picks) {
                    t.release();
                }
            }
            Op::Release(pick) => drop(take(&mut self.held, &[*pick])),
            Op::Detach(pick) => {
                for t in take(&mut self.held, &[*pick]) {
                    t.detach();
                }
            }
            Op::ReleaseById(id) => answer = self.svc.release_by_id(*id) as usize,
            Op::Advance(step_ms) => self.clock.advance(ms(*step_ms)),
            Op::Idle(stage) => {
                let stage = frap_core::task::StageId::new(*stage);
                for t in &self.held {
                    t.mark_departed(stage);
                }
                self.svc.on_stage_idle(stage);
            }
            Op::Observe => {
                answer = self.svc.live_tasks();
                self.svc.debug_validate();
            }
        }
        (decisions, answer)
    }

    /// Whatever is still held goes the way it would on a disconnect.
    fn finish(self) -> (ManualService, usize) {
        if self.release_runs {
            self.svc.release_batch(self.held);
        } else {
            drop(self.held);
        }
        self.svc.debug_validate();
        let live = self.svc.live_tasks();
        (self.svc, live)
    }
}

/// Drives both twins through `ops`, holding them to the same decisions
/// (ticket ids, ticket deadlines and shed victims included), the same
/// answers and a bit-identical ledger after every step.
fn assert_twins_agree(ops: &[Op], mut a: Twin, mut b: Twin) -> Result<(), TestCaseError> {
    for (step, op) in ops.iter().enumerate() {
        prop_assert_eq!(a.apply(op), b.apply(op), "at step {}: {:?}", step, op);
        prop_assert_eq!(
            ledger(&a.svc),
            ledger(&b.svc),
            "after step {}: {:?}",
            step,
            op
        );
    }
    let ((svc_a, live_a), (svc_b, live_b)) = (a.finish(), b.finish());
    prop_assert_eq!(ledger(&svc_a), ledger(&svc_b));
    prop_assert_eq!(live_a, live_b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of admits, release runs, single releases,
    /// detaches, orphan releases, clock advances, idle resets and
    /// shedding leaves a service that releases in runs bit-identical to
    /// a twin that releases ticket by ticket. Held tickets are not
    /// pruned when they expire or are shed, so runs keep naming
    /// already-dead admissions — each a no-op on both twins.
    #[test]
    fn release_runs_are_equivalent_to_single_releases(
        ops in proptest::collection::vec(op(), 1..40),
        shards in 1usize..3,
    ) {
        assert_twins_agree(&ops, Twin::new(shards, false, true), Twin::new(shards, false, false))?;
    }

    /// The same interleavings with one twin fed `BatchRequest::new(&spec)`
    /// and the other the view lent from the task's wire form — what the
    /// gateway hands over without ever building the spec: the view is the
    /// spec, decision for decision and unit for unit.
    #[test]
    fn wire_lent_views_decide_like_specs(
        ops in proptest::collection::vec(op(), 1..40),
        shards in 1usize..3,
    ) {
        assert_twins_agree(&ops, Twin::new(shards, false, true), Twin::new(shards, true, true))?;
    }
}

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

use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::task::Importance;
use frap_core::time::TimeDelta;
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
    Admitted { ticket_id: u64 },
    AdmittedAfterShedding { ticket_id: u64, shed: Vec<u64> },
    Rejected,
}

/// Summarizes an outcome, parking any ticket in `live` so its capacity
/// stays charged for the rest of the run (mirroring a client that holds
/// its admissions open).
fn digest(outcome: ServiceOutcome, live: &mut Vec<AdmissionTicket>) -> Decision {
    match outcome {
        ServiceOutcome::Admitted(t) => {
            let id = t.id();
            live.push(t);
            Decision::Admitted { ticket_id: id }
        }
        ServiceOutcome::AdmittedAfterShedding { ticket, shed } => {
            let id = ticket.id();
            live.push(ticket);
            Decision::AdmittedAfterShedding {
                ticket_id: id,
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
            spec,
            allow_shed: *allow_shed,
            shard: None,
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
            spec: &spec,
            allow_shed: true,
            shard: None,
        },
        BatchRequest::new(&spec),
        BatchRequest {
            spec: &spec,
            allow_shed: true,
            shard: None,
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

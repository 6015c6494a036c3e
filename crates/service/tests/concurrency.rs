//! Concurrency tests: many threads hammering one service.
//!
//! The load-bearing invariants (checked by
//! `AdmissionService::debug_validate`, which locks the world):
//!
//! 1. the aggregate synthetic utilization never leaves the feasible
//!    region — every committed charge revalidated a vector that
//!    included it and concurrent reductions only lower the vector, so
//!    this holds at *every* instant, including mid-run;
//! 2. the lock-free per-stage totals equal the sum over live entries
//!    (no lost or doubled charge);
//! 3. every admitted task leaves the books exactly once — release,
//!    deadline expiry, or shed — never twice (the double-release /
//!    expiry race), which the final counter balance
//!    `admitted == released + expired + shed + live` certifies.
//!
//! Run under the race detectors when touching the lock-free paths (see
//! DESIGN.md, "Service layer"): `RUSTFLAGS="-Z sanitizer=thread" cargo
//! +nightly test -p frap-service --target x86_64-unknown-linux-gnu`, or
//! `cargo +nightly miri test -p frap-service concurrency` (shrink the
//! iteration counts first; Miri is ~1000× slower).

use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::task::Importance;
use frap_core::time::TimeDelta;
use frap_service::{AdmissionService, ServiceOutcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const STAGES: usize = 3;

fn ms(v: u64) -> TimeDelta {
    TimeDelta::from_millis(v)
}

fn specs() -> Vec<TaskSpec> {
    // A few shapes around the region boundary, with very short deadlines
    // so the timer wheel churns during the test.
    vec![
        TaskSpec::pipeline(ms(5), &[ms(1), ms(1), ms(1)]).unwrap(),
        TaskSpec::pipeline(ms(10), &[ms(3), ms(1), ms(2)]).unwrap(),
        TaskSpec::pipeline(ms(20), &[ms(1), ms(6), ms(1)]).unwrap(),
        TaskSpec::pipeline(ms(8), &[ms(2), ms(2), ms(2)])
            .unwrap()
            .with_importance(Importance::new(3)),
    ]
}

/// Splitmix64: cheap deterministic per-thread randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn hammered_service_never_leaves_the_region() {
    let threads = 8usize;
    let iters = 30_000usize;
    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(4)
    .build();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let service = service.clone();
            let specs = specs();
            std::thread::spawn(move || {
                let mut rng = 0xdeadbeef ^ (t as u64);
                let mut held = Vec::new();
                for i in 0..iters {
                    let spec = &specs[(next(&mut rng) % specs.len() as u64) as usize];
                    match next(&mut rng) % 10 {
                        // Mostly the fast path.
                        0..=6 => {
                            if let Some(ticket) = service.try_admit(spec) {
                                held.push(ticket);
                            }
                        }
                        // Occasionally the global shedding path.
                        7 => {
                            let urgent = spec
                                .clone()
                                .with_importance(Importance::new(5 + (i % 3) as u32));
                            if let ServiceOutcome::AdmittedAfterShedding { ticket, .. }
                            | ServiceOutcome::Admitted(ticket) =
                                service.try_admit_or_shed(&urgent)
                            {
                                held.push(ticket);
                            }
                        }
                        // Release early (explicitly or by drop), racing the
                        // deadline decrement for short-lived tickets...
                        8 => {
                            if !held.is_empty() {
                                let k = (next(&mut rng) as usize) % held.len();
                                let ticket = held.swap_remove(k);
                                if next(&mut rng).is_multiple_of(2) {
                                    ticket.release();
                                } // ...else drop releases it
                            }
                        }
                        // ...or hand the ticket to the deadline rule.
                        _ => {
                            if !held.is_empty() {
                                let k = (next(&mut rng) as usize) % held.len();
                                held.swap_remove(k).detach();
                            }
                        }
                    }
                }
                // Hand every still-held ticket to the deadline rule.
                let drained = held.len();
                for ticket in held {
                    ticket.detach();
                }
                drained
            })
        })
        .collect();

    // Validate the cross-shard invariants *while* the workers run: the
    // aggregate must be inside the region at every instant.
    let mut validations = 0u32;
    while !stop.load(Ordering::Relaxed) {
        service.debug_validate();
        validations += 1;
        if workers.iter().all(|w| w.is_finished()) {
            stop.store(true, Ordering::Relaxed);
        }
        std::thread::yield_now();
    }
    let drained: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(validations > 0);

    // Let every remaining deadline fire, then balance the books: each
    // admitted task must have left exactly one way (or still be live).
    service.debug_validate();
    let snap = service.snapshot();
    let c = snap.counters;
    assert_eq!(
        c.admitted,
        c.released + c.expired + c.shed + snap.live_tasks as u64,
        "exactly-once removal bookkeeping broke: {c:?} live={}",
        snap.live_tasks
    );
    assert!(
        c.admitted > 0 && c.rejected > 0,
        "both decision kinds exercised"
    );
    assert_eq!(c.admitted + c.rejected, snap.decision_latency.count());

    std::thread::sleep(std::time::Duration::from_millis(25));
    let expired = service.maintain();
    assert!(expired as usize <= c.admitted as usize && drained <= c.admitted as usize);
    service.debug_validate();
    assert_eq!(service.live_tasks(), 0, "all deadlines have passed");
    let u = service.utilizations();
    // Integer units: the drained charges leave exactly the (zero) floor.
    assert!(
        u.iter().all(|&x| x < 1e-9),
        "drained service reads ~zero: {u:?}"
    );
}

/// The counters and the latency histogram are striped per lane (one
/// stripe per shard, written by that shard's home threads) and reported
/// as sums. Whatever the thread-to-lane mapping — more threads than
/// lanes, fewer, or equal — the sums must equal what the callers
/// themselves saw, exactly: one decision and one latency sample per
/// attempt through every public path, one release per ticket dropped.
#[test]
fn lane_striped_counters_sum_to_exactly_what_the_callers_saw() {
    use frap_service::BatchRequest;
    const THREADS: usize = 5;
    const ROUNDS: usize = 4_000;
    for shards in [1usize, 2, 3, 8] {
        let service = AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(STAGES),
            ExactContributions,
        )
        .shards(shards)
        .build();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = service.clone();
                let specs = specs();
                std::thread::spawn(move || {
                    let mut rng = 0xfeed ^ ((t as u64) << 8);
                    let (mut attempts, mut admitted, mut released) = (0u64, 0u64, 0u64);
                    for round in 0..ROUNDS {
                        let spec = &specs[(next(&mut rng) % specs.len() as u64) as usize];
                        let mut tickets = Vec::new();
                        match round % 8 {
                            // A batch booked on explicit (foreign) shards:
                            // the counters still go to the caller's lane.
                            0 => {
                                let requests: Vec<_> = (0..3)
                                    .map(|k| BatchRequest::new(spec).on_shard(t + k))
                                    .collect();
                                attempts += 3;
                                let outcomes = service.admit_batch(&requests);
                                tickets.extend(outcomes.into_iter().filter_map(|o| o.ticket()));
                            }
                            1 => {
                                attempts += 1;
                                tickets.extend(service.try_admit_or_shed(spec).ticket());
                            }
                            _ => {
                                attempts += 1;
                                tickets.extend(service.try_admit(spec));
                            }
                        }
                        admitted += tickets.len() as u64;
                        for ticket in tickets {
                            // Detached tickets expire (5–20 ms deadlines)
                            // or are still live at the end; dropped ones
                            // release unless the deadline won the race —
                            // the balance below covers both.
                            if next(&mut rng).is_multiple_of(4) {
                                ticket.detach();
                            } else {
                                drop(ticket);
                                released += 1;
                            }
                        }
                    }
                    (attempts, admitted, released)
                })
            })
            .collect();
        let (mut attempts, mut admitted, mut dropped) = (0u64, 0u64, 0u64);
        for w in workers {
            let (a, b, c) = w.join().unwrap();
            attempts += a;
            admitted += b;
            dropped += c;
        }
        service.debug_validate();
        let snap = service.snapshot();
        let c = snap.counters;
        assert_eq!(c.admitted, admitted, "shards={shards}: {c:?}");
        assert_eq!(c.rejected, attempts - admitted, "shards={shards}: {c:?}");
        assert_eq!(c.decisions(), attempts);
        assert_eq!(
            snap.decision_latency.count(),
            attempts,
            "one latency sample per decision, summed over {shards} lanes"
        );
        assert_eq!(c, service.counters(), "quiescent: both reads agree");
        // A drop releases unless expiry or a shed got there first; every
        // admission left exactly one way or is still live.
        assert!(c.released <= dropped);
        assert_eq!(
            c.admitted,
            c.released + c.expired + c.shed + snap.live_tasks as u64,
            "shards={shards}: {c:?} live={}",
            snap.live_tasks
        );
    }
}

/// The lock-free reject path (DESIGN.md §16) under fire: rejector threads
/// hammer `try_admit` with a spec that is infeasible *even on an empty
/// system* (three stages at u = 0.5 each, Σ f(0.5) = 2.25 > 1), so any
/// admit is a genuine spurious-admit bug — no oracle replay needed to
/// classify it. Meanwhile churn threads admit, release, and detach
/// feasible work (mutating the seqlock-protected utilizations and the
/// timer wheels) and a batch thread interleaves poison and feasible
/// requests through `admit_batch`'s fast prefix. Afterwards the counters
/// must balance exactly as a serial replay would: one decision per
/// attempt, one histogram sample per decision, and exactly-once removal.
#[test]
fn lock_free_rejects_race_admissions_without_spurious_verdicts() {
    const REJECTORS: usize = 3;
    const CHURNERS: usize = 3;
    const ITERS: usize = 20_000;

    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(4)
    .build();

    // Infeasible on an empty system: the charge hammer below can only
    // push utilizations higher, so every decision on this spec — single
    // or batched — must be a rejection.
    let poison = TaskSpec::pipeline(ms(10), &[ms(5), ms(5), ms(5)]).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();

    for t in 0..REJECTORS {
        let service = service.clone();
        let poison = poison.clone();
        workers.push(std::thread::spawn(move || {
            for i in 0..ITERS {
                assert!(
                    service.try_admit(&poison).is_none(),
                    "spurious admit of an always-infeasible spec \
                     (rejector {t}, iteration {i})"
                );
            }
            ITERS // admission attempts made
        }));
    }

    for t in 0..CHURNERS {
        let service = service.clone();
        let specs = specs();
        workers.push(std::thread::spawn(move || {
            let mut rng = 0xc0ffee ^ (t as u64);
            let mut held = Vec::new();
            let mut attempts = 0usize;
            for _ in 0..ITERS {
                match next(&mut rng) % 8 {
                    0..=4 => {
                        let spec = &specs[(next(&mut rng) % specs.len() as u64) as usize];
                        attempts += 1;
                        if let Some(ticket) = service.try_admit(spec) {
                            held.push(ticket);
                        }
                    }
                    5 => {
                        if !held.is_empty() {
                            let k = (next(&mut rng) as usize) % held.len();
                            held.swap_remove(k).release();
                        }
                    }
                    _ => {
                        if !held.is_empty() {
                            let k = (next(&mut rng) as usize) % held.len();
                            held.swap_remove(k).detach();
                        }
                    }
                }
            }
            for ticket in held {
                ticket.detach();
            }
            attempts
        }));
    }

    // One thread drives the batch fast prefix against the same churn.
    {
        let service = service.clone();
        let poison = poison.clone();
        let specs = specs();
        workers.push(std::thread::spawn(move || {
            use frap_service::BatchRequest;
            let mut rng = 0xbadc0de_u64;
            let mut attempts = 0usize;
            for _ in 0..ITERS / 8 {
                let requests: Vec<BatchRequest<'_>> = (0..8)
                    .map(|i| {
                        if next(&mut rng).is_multiple_of(2) {
                            BatchRequest::new(&poison).on_shard(i)
                        } else {
                            BatchRequest::new(&specs[i % specs.len()])
                        }
                    })
                    .collect();
                // Only the poison requests name a shard.
                let poisoned: Vec<bool> = requests.iter().map(|r| r.shard.is_some()).collect();
                attempts += requests.len();
                for (outcome, was_poison) in
                    service.admit_batch(&requests).into_iter().zip(poisoned)
                {
                    if was_poison {
                        assert!(
                            !outcome.is_admitted(),
                            "spurious batch admit of an always-infeasible spec"
                        );
                    } else if let ServiceOutcome::Admitted(ticket) = outcome {
                        ticket.detach();
                    }
                }
            }
            attempts
        }));
    }

    // Validate the region + ledger invariants while the race runs.
    let mut validations = 0u32;
    while !stop.load(Ordering::Relaxed) {
        service.debug_validate();
        validations += 1;
        if workers.iter().all(|w| w.is_finished()) {
            stop.store(true, Ordering::Relaxed);
        }
        std::thread::yield_now();
    }
    let attempts: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(validations > 0);

    service.debug_validate();
    let snap = service.snapshot();
    let c = snap.counters;

    // Exactly one decision per attempt, and one latency sample per
    // decision — the fast path's shared atomic histogram included.
    assert_eq!(
        c.decisions(),
        attempts as u64,
        "decision per attempt: {c:?}"
    );
    assert_eq!(c.decisions(), snap.decision_latency.count());
    assert_eq!(c.shed, 0, "no shedding requested");

    // The fast path actually engaged under contention, and it only ever
    // concluded rejections (it is a strict subset of `rejected`).
    assert!(c.fast_rejected > 0, "lock-free path never engaged: {c:?}");
    assert!(c.fast_rejected <= c.rejected);
    // Torn snapshots may or may not occur on this hardware; when they do,
    // the seqlock fallback is the only legal response (counted, and the
    // per-iteration asserts above prove no verdict went wrong either way).
    assert!(c.seqlock_fallbacks <= c.decisions());

    // Exactly-once removal held despite the race.
    assert_eq!(
        c.admitted,
        c.released + c.expired + c.shed + snap.live_tasks as u64,
        "exactly-once removal bookkeeping broke: {c:?} live={}",
        snap.live_tasks
    );
    assert!(c.admitted > 0, "churners admitted work: {c:?}");
    assert!(
        c.rejected >= (REJECTORS * ITERS) as u64,
        "every poison attempt rejected: {c:?}"
    );

    // Let the remaining deadlines fire and re-balance the books.
    std::thread::sleep(std::time::Duration::from_millis(25));
    service.maintain();
    service.debug_validate();
    assert_eq!(service.live_tasks(), 0, "all deadlines have passed");
}

#[test]
fn concurrent_idle_resets_stay_consistent() {
    use frap_core::task::StageId;

    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(2)
    .build();

    let workers: Vec<_> = (0..4usize)
        .map(|t| {
            let service = service.clone();
            let specs = specs();
            std::thread::spawn(move || {
                let mut rng = 0xfeed ^ (t as u64);
                for _ in 0..5_000 {
                    let spec = &specs[(next(&mut rng) % specs.len() as u64) as usize];
                    if let Some(ticket) = service.try_admit(spec) {
                        // Depart a random prefix of stages, then detach.
                        let upto = (next(&mut rng) as usize) % (STAGES + 1);
                        for j in 0..upto {
                            ticket.mark_departed(StageId::new(j));
                        }
                        ticket.detach();
                    }
                    if next(&mut rng).is_multiple_of(16) {
                        let j = (next(&mut rng) as usize) % STAGES;
                        service.on_stage_idle(StageId::new(j));
                    }
                }
            })
        })
        .collect();

    for _ in 0..200 {
        service.debug_validate();
        std::thread::yield_now();
    }
    for w in workers {
        w.join().unwrap();
    }
    service.debug_validate();
}

//! Charge-conservation stress for the CAS-admit protocol (DESIGN.md
//! §16): the fixed-point counters in [`ShardedUtilization`] must
//! account for every unit exactly under any interleaving of optimistic
//! CAS-charged admits (including rolled-back ones), release/deadline
//! decrements, and idle resets.
//!
//! Three layers:
//!
//! 1. **Proptest, single-threaded** — rollback is bit-identical for
//!    arbitrary contribution vectors on arbitrary pre-charged state,
//!    and any charge/release sequence leaves the counters equal to the
//!    integer ledger sum (`Σ charged − Σ released = live`, exactly —
//!    not within a tolerance).
//! 2. **Threaded shard-level stress** — racing workers run the real
//!    write-section protocol (`begin_write` → `add_units` →
//!    revalidate → commit or exact `sub_units` rollback →
//!    `end_write`) against concurrent `subtract_entry` /
//!    `subtract_stage` reductions; afterwards the totals must equal
//!    the surviving ledger exactly. A lost or doubled unit anywhere —
//!    admit, rollback, decrement, or idle reset — shows up as an
//!    integer mismatch.
//! 3. **Threaded service-level stress** — the public API raced end to
//!    end (admit, release, detach-to-expiry, `mark_departed` +
//!    `on_stage_idle`), closed by `debug_validate`, which locks the
//!    world and asserts totals-vs-entries equality and region
//!    membership, plus the counter balance
//!    `admitted == released + expired + live`; and the same for
//!    `release_batch` runs racing lock-free admits and `admit_batch` on
//!    **one** shard, with the validator cutting in throughout and every
//!    unit back at the end.

use frap_core::admission::ExactContributions;
use frap_core::fixed::fp_from_utilization;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::task::StageId;
use frap_core::time::{Time, TimeDelta};
use frap_service::{AdmissionService, BatchRequest, ServiceOutcome, ShardedUtilization};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const STAGES: usize = 3;

fn stage(i: usize) -> StageId {
    StageId::new(i)
}

/// Splitmix64, as in `tests/concurrency.rs`.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A random merged contribution vector (at most one slot per stage) in
/// raw units.
fn random_contribs(rng: &mut u64) -> Vec<(StageId, u64)> {
    let mut out = Vec::new();
    for j in 0..STAGES {
        if !next(rng).is_multiple_of(4) {
            out.push((stage(j), next(rng) % (1 << 40)));
        }
    }
    if out.is_empty() {
        out.push((
            stage((next(rng) % STAGES as u64) as usize),
            next(rng) % (1 << 40),
        ));
    }
    out
}

fn totals_of(su: &ShardedUtilization) -> Vec<u64> {
    let mut out = Vec::new();
    su.read_fp_into(&mut out);
    out
}

proptest! {
    /// An optimistic charge that fails revalidation must subtract back
    /// to the *bit-identical* pre-charge state, whatever was already
    /// charged and whatever the contribution amounts are (including
    /// values whose `f64` round-trip would not be exact).
    #[test]
    fn rollback_is_bit_identical(
        pre in proptest::collection::vec(0u64..(1 << 50), STAGES),
        amounts in proptest::collection::vec(0.0f64..1.5, 1..=STAGES),
    ) {
        let su = ShardedUtilization::new(&[0.0; STAGES], 2, Time::ZERO);
        let pre_contribs: Vec<(StageId, u64)> = pre
            .iter()
            .enumerate()
            .map(|(j, &u)| (stage(j), u))
            .collect();
        su.lane(0).begin_write();
        su.add_units(&pre_contribs);
        su.lane(0).end_write();
        let before = totals_of(&su);

        let contribs: Vec<(StageId, u64)> = amounts
            .iter()
            .enumerate()
            .map(|(j, &a)| (stage(j), fp_from_utilization(a)))
            .collect();
        su.lane(0).begin_write();
        su.add_units(&contribs);
        su.sub_units(&contribs);
        su.lane(0).end_write();

        prop_assert_eq!(totals_of(&su), before);
    }

    /// Any single-threaded interleaving of charges and releases leaves
    /// the counters exactly equal to the ledger: Σ charged − Σ released
    /// = live, as integers.
    #[test]
    fn charge_release_ledger_is_exact(
        ops in proptest::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        let su = ShardedUtilization::new(&[0.0; STAGES], 2, Time::ZERO);
        let mut live: Vec<Vec<(StageId, u64)>> = Vec::new();
        let mut ledger = [0u64; STAGES];
        for seed in ops {
            let mut rng = seed;
            let release = next(&mut rng).is_multiple_of(3);
            if release && !live.is_empty() {
                let victim = live.swap_remove((next(&mut rng) % live.len() as u64) as usize);
                for &(s, u) in &victim {
                    ledger[s.index()] -= u;
                }
                su.subtract_entry(&victim);
            } else {
                let contribs = random_contribs(&mut rng);
                su.lane(0).begin_write();
                su.add_units(&contribs);
                su.lane(0).end_write();
                for &(s, u) in &contribs {
                    ledger[s.index()] += u;
                }
                live.push(contribs);
            }
        }
        prop_assert_eq!(totals_of(&su), ledger.to_vec());
    }
}

/// Racing CAS-admit write sections (with capacity-driven rollbacks)
/// against concurrent full releases and per-stage idle resets: when the
/// dust settles, the atomic totals must equal the surviving ledger
/// exactly.
#[test]
fn concurrent_cas_admit_decrement_idle_reset_conserves_charge() {
    const THREADS: usize = 4;
    const ITERS: usize = 20_000;
    // Per-stage cap standing in for the region test; overshooting it
    // forces the exact-rollback path, so both commit and rollback race
    // with reductions.
    const CAP: u64 = 200 << 40;

    let su = Arc::new(ShardedUtilization::new(&[0.0; STAGES], 2, Time::ZERO));
    // Ledger of committed-and-not-yet-released entries. The mutex
    // serializes bookkeeping only — the charge traffic it mirrors is all
    // lock-free atomics.
    type Ledger = Arc<Mutex<Vec<Vec<(StageId, u64)>>>>;
    let ledger: Ledger = Arc::new(Mutex::new(Vec::new()));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let su = Arc::clone(&su);
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                let mut rng = 0xC0FFEE ^ (t as u64) << 16;
                let mut read = Vec::new();
                for i in 0..ITERS {
                    match next(&mut rng) % 4 {
                        // CAS-admit: optimistic charge, revalidate
                        // against the cap, commit or roll back exactly.
                        0 | 1 => {
                            let contribs = random_contribs(&mut rng);
                            su.lane(t % 2).begin_write();
                            su.add_units(&contribs);
                            su.read_fp_into(&mut read);
                            if read.iter().all(|&u| u <= CAP) {
                                ledger.lock().unwrap().push(contribs);
                            } else {
                                su.sub_units(&contribs);
                            }
                            su.lane(t % 2).end_write();
                        }
                        // Release / deadline decrement: subtract a whole
                        // committed entry.
                        2 => {
                            let victim = {
                                let mut l = ledger.lock().unwrap();
                                if l.is_empty() {
                                    None
                                } else {
                                    let k = (next(&mut rng) % l.len() as u64) as usize;
                                    Some(l.swap_remove(k))
                                }
                            };
                            if let Some(v) = victim {
                                su.subtract_entry(&v);
                            }
                        }
                        // Idle reset: subtract one stage's slice of a
                        // committed entry, zeroing it in the ledger so
                        // the books still balance.
                        _ => {
                            let slice = {
                                let mut l = ledger.lock().unwrap();
                                if l.is_empty() {
                                    None
                                } else {
                                    let k = (next(&mut rng) % l.len() as u64) as usize;
                                    let entry = &mut l[k];
                                    let s = (next(&mut rng) % entry.len() as u64) as usize;
                                    let (st, units) = entry[s];
                                    entry[s].1 = 0;
                                    Some((st, units))
                                }
                            };
                            if let Some((st, units)) = slice {
                                su.subtract_stage(st, units);
                            }
                        }
                    }
                    // Interleave an occasional stable snapshot; its
                    // verdict (stable or torn) is not asserted, only
                    // that it never sees a counter underflow.
                    if i.is_multiple_of(512) {
                        let mut snap = Vec::new();
                        let _ = su.snapshot_fp_into(&mut snap);
                        assert!(
                            snap.iter().all(|&u| u < u64::MAX / 2),
                            "counter underflow visible in snapshot: {snap:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut expected = [0u64; STAGES];
    for entry in ledger.lock().unwrap().iter() {
        for &(s, u) in entry {
            expected[s.index()] += u;
        }
    }
    assert_eq!(
        totals_of(&su),
        expected.to_vec(),
        "Σ charged − Σ released must equal live exactly"
    );
}

/// The public service API raced end to end: lock-free admits, immediate
/// releases, detached tickets expiring through the wheel, and
/// `mark_departed` + `on_stage_idle` resets — closed by the
/// world-locking validator and an exact counter balance.
#[test]
fn service_cas_admit_full_lifecycle_balances() {
    const THREADS: usize = 4;
    let ms = TimeDelta::from_millis;
    let specs = [
        TaskSpec::pipeline(ms(5), &[ms(1), ms(1), ms(1)]).unwrap(),
        TaskSpec::pipeline(ms(10), &[ms(3), ms(1), ms(2)]).unwrap(),
        TaskSpec::pipeline(ms(20), &[ms(1), ms(6), ms(1)]).unwrap(),
    ];

    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(THREADS)
    .build();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut rng = 0xFEED ^ (t as u64) << 24;
                while !stop.load(Ordering::Relaxed) {
                    let spec = &specs[(next(&mut rng) % specs.len() as u64) as usize];
                    if let Some(ticket) = service.try_admit(spec) {
                        match next(&mut rng) % 4 {
                            0 => drop(ticket.detach()),
                            1 => {
                                // Depart a stage, trigger its idle
                                // reset, then release the remainder.
                                let s = stage((next(&mut rng) % STAGES as u64) as usize);
                                ticket.mark_departed(s);
                                service.on_stage_idle(s);
                                ticket.release();
                            }
                            _ => ticket.release(),
                        }
                    }
                    if next(&mut rng).is_multiple_of(1024) {
                        service.maintain();
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // Totals-vs-entries equality and region membership under all locks.
    service.debug_validate();

    let c = service.counters();
    assert_eq!(
        c.admitted,
        c.released + c.expired + service.live_tasks() as u64,
        "every admitted task must leave the books exactly once: {c:?}"
    );
}

/// `release_batch` raced against lock-free admits and `admit_batch` on
/// the same shard: one thread admits singly, one in batches, each
/// releasing what it holds in runs — so a run's ring drain pops the
/// other thread's entries while that thread is still pushing, and files
/// them for the other thread's next run to find in the map — while a
/// third thread takes the validator's cut again and again. Nothing
/// expires (deadlines outlast the test), so at the end every admitted
/// ticket was released exactly once and every unit is back.
#[test]
fn release_runs_race_admits_on_one_shard_and_conserve_every_unit() {
    let ms = TimeDelta::from_millis;
    let specs = [
        TaskSpec::pipeline(ms(60_000), &[ms(40), ms(10), ms(20)]).unwrap(),
        TaskSpec::pipeline(ms(90_000), &[ms(10), ms(70), ms(10)]).unwrap(),
        TaskSpec::pipeline(ms(120_000), &[ms(5), ms(5), ms(90)]).unwrap(),
    ];
    let service = AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(1)
    .build();

    let stop = Arc::new(AtomicBool::new(false));
    let mut threads: Vec<_> = (0..2u64)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut rng = 0xBA7C4 ^ t << 20;
                let mut held = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let run = 1 + (next(&mut rng) % 24) as usize;
                    let pick = |rng: &mut u64| &specs[(next(rng) % specs.len() as u64) as usize];
                    if t == 0 {
                        held.extend((0..run).filter_map(|_| service.try_admit(pick(&mut rng))));
                    } else {
                        let reqs: Vec<BatchRequest<'_>> = (0..run)
                            .map(|_| BatchRequest::new(pick(&mut rng)))
                            .collect();
                        let outcomes = service.admit_batch(&reqs);
                        held.extend(outcomes.into_iter().filter_map(ServiceOutcome::ticket));
                    }
                    // Release some of what is held, oldest first or not
                    // at all, so runs mix ringed and filed entries.
                    let keep = (next(&mut rng) % 3) as usize * held.len() / 4;
                    service.release_batch(held.drain(keep..));
                }
                service.release_batch(held);
            })
        })
        .collect();
    threads.push({
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                service.debug_validate();
                std::thread::yield_now();
            }
        })
    });

    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().unwrap();
    }

    service.debug_validate();
    let c = service.counters();
    assert!(c.admitted > 0, "nothing admitted: {c:?}");
    assert_eq!(c.released, c.admitted, "each ticket exactly once: {c:?}");
    assert!(c.released_in_ring <= c.released, "{c:?}");
    assert_eq!((c.expired, c.shed, service.live_tasks()), (0, 0, 0));
    assert_eq!(service.utilizations(), vec![0.0; STAGES], "a unit was lost");
}

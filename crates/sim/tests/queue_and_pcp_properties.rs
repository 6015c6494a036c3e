//! Property tests for the two foundation pieces of the simulator: the
//! deterministic event queue (against a reference model) and the priority
//! ceiling protocol lock manager (structural invariants under random
//! operation scripts).

use frap_core::task::{LockId, Priority};
use frap_core::time::Time;
use frap_sim::events::{EventQueue, Fired};
use frap_sim::pcp::{Acquire, LockManager};
use proptest::prelude::*;

proptest! {
    /// The queue pops in (time, insertion order) — exactly a stable sort
    /// of the input by timestamp.
    #[test]
    fn event_queue_matches_stable_sort(times in proptest::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_micros(t), i);
        }
        let mut expected: Vec<(u64, Fired<usize>)> =
            times.iter().copied().zip((0..).map(Fired::Event)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        let mut got = Vec::new();
        while let Some((t, fired)) = q.pop() {
            got.push((t.as_micros(), fired));
        }
        prop_assert_eq!(got, expected);
    }

    /// Interleaved pushes and pops never emit an event earlier than one
    /// already emitted at a later... i.e. pops are monotone when every
    /// push is at or after the last popped time (the simulator's usage
    /// contract).
    #[test]
    fn event_queue_monotone_under_simulator_contract(
        script in proptest::collection::vec((0u64..50, proptest::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut clock = 0u64;
        let mut seq = 0usize;
        for &(dt, push) in &script {
            if push || q.is_empty() {
                // Long-lived entries go to the deadline tier, as in the
                // simulator.
                if dt >= 25 {
                    q.push_deadline(Time::from_micros(clock + dt));
                } else {
                    q.push(Time::from_micros(clock + dt), seq);
                }
                seq += 1;
            } else if let Some((t, _)) = q.pop() {
                prop_assert!(t.as_micros() >= clock, "time went backwards");
                clock = t.as_micros();
            }
        }
    }

    /// The two tiers are one queue: any interleaving of near pushes,
    /// deadline pushes, `pop`, `pop_at_or_before` and `peek_time` behaves
    /// like a reference list kept sorted by `(time, seq)` with one global
    /// `seq` — same entries out in the same order (so FIFO among equal
    /// times holds *across* tiers), `len`/`is_empty` agree, and the
    /// `Time::ZERO`/`Time::MAX` keys round-trip.
    #[test]
    fn two_tier_queue_matches_reference_model(
        script in proptest::collection::vec((0u64..12, 0u8..5), 1..300)
    ) {
        // Few distinct times, so ties are the common case.
        let time_of = |code: u64| match code {
            0 => Time::ZERO,
            11 => Time::MAX,
            c => Time::from_micros(c * 10),
        };
        let mut q = EventQueue::new();
        // (time, seq, payload): `None` is a deadline.
        let mut model: Vec<(Time, u64, Option<u64>)> = Vec::new();
        let mut seq = 0u64;
        let fired = |payload: Option<u64>| payload.map_or(Fired::Deadline, Fired::Event);
        for &(code, op) in &script {
            let t = time_of(code);
            match op {
                0 | 1 => {
                    let payload = (op == 0).then_some(seq);
                    match payload {
                        Some(p) => q.push(t, p),
                        None => q.push_deadline(t),
                    }
                    let at = model.partition_point(|&(mt, ms, _)| (mt, ms) < (t, seq));
                    model.insert(at, (t, seq, payload));
                    seq += 1;
                }
                2 => {
                    let expected = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(q.pop(), expected.map(|(mt, _, p)| (mt, fired(p))));
                }
                3 => {
                    let due = model.first().is_some_and(|&(mt, _, _)| mt <= t);
                    let expected = due.then(|| model.remove(0));
                    prop_assert_eq!(
                        q.pop_at_or_before(t),
                        expected.map(|(mt, _, p)| (mt, fired(p)))
                    );
                }
                _ => prop_assert_eq!(q.peek_time(), model.first().map(|&(mt, _, _)| mt)),
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        for (mt, _, p) in model {
            prop_assert_eq!(q.pop(), Some((mt, fired(p))));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Pop order is nondecreasing in time with FIFO tie-breaking, and
    /// `len`/`is_empty` stay consistent through arbitrary interleavings
    /// of `push`, `push_deadline`, `pop`, and `pop_at_or_before`.
    #[test]
    fn queue_invariants_under_interleaving(
        script in proptest::collection::vec((0u64..1_000, 0u8..4), 1..100)
    ) {
        let mut q = EventQueue::new();
        let mut seq = 0usize;
        let mut live = 0usize;
        for &(t, op) in &script {
            match op {
                0 => {
                    q.push(Time::from_micros(t), seq);
                    seq += 1;
                    live += 1;
                }
                1 => {
                    q.push_deadline(Time::from_micros(t));
                    live += 1;
                }
                2 => {
                    let popped = q.pop();
                    prop_assert_eq!(popped.is_some(), live > 0);
                    if popped.is_some() {
                        live -= 1;
                    }
                    // A fresh queue accepts any times, so the global
                    // monotonicity check only applies per drain below.
                }
                _ => {
                    let before = q.len();
                    let popped = q.pop_at_or_before(Time::from_micros(t));
                    if let Some((pt, _)) = popped {
                        prop_assert!(pt.as_micros() <= t, "bound violated");
                        live -= 1;
                        prop_assert_eq!(q.len(), before - 1);
                    } else {
                        // Nothing at or before the bound: the head (if
                        // any) must be strictly later.
                        if let Some(head) = q.peek_time() {
                            prop_assert!(head.as_micros() > t);
                        }
                        prop_assert_eq!(q.len(), before);
                    }
                }
            }
            prop_assert_eq!(q.len(), live);
            prop_assert_eq!(q.is_empty(), live == 0);
        }
        // Drain what is left: nondecreasing times, FIFO ties among the
        // payload-carrying events.
        let mut last_time = 0u64;
        let mut last_event: Option<(u64, usize)> = None;
        while let Some((t, fired)) = q.pop() {
            prop_assert!(t.as_micros() >= last_time, "time went backwards");
            last_time = t.as_micros();
            if let Fired::Event(i) = fired {
                if let Some((lt, li)) = last_event {
                    prop_assert!(t.as_micros() > lt || i > li, "FIFO tie-break violated");
                }
                last_event = Some((t.as_micros(), i));
            }
            live -= 1;
        }
        prop_assert_eq!(live, 0);
        prop_assert!(q.is_empty());
    }

    /// Random PCP scripts: at most one holder per lock, a job holds at
    /// most one lock (no nesting in our model), blocked jobs stay blocked
    /// until a release wakes them, and every wake hands the lock over.
    #[test]
    fn pcp_structural_invariants(
        script in proptest::collection::vec((0u64..6, 0u64..3, proptest::bool::ANY), 1..120)
    ) {
        let mut m: LockManager<u64> = LockManager::new();
        // Register everyone up front with distinct priorities.
        for job in 0..6u64 {
            for lock in 0..3u64 {
                m.register_user(LockId::new(lock as usize), Priority::new(10 + job), job);
            }
        }
        // held_model[lock] = holder
        let mut held: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut holder_of: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut blocked: std::collections::HashSet<u64> = std::collections::HashSet::new();

        for &(job, lock, do_release) in &script {
            if blocked.contains(&job) {
                continue; // a blocked job cannot issue requests
            }
            if do_release {
                if let Some(&l) = holder_of.get(&job) {
                    let woken = m.release(&job);
                    holder_of.remove(&job);
                    held.remove(&l);
                    for w in woken {
                        prop_assert!(blocked.remove(&w), "woken job {w} was not blocked");
                        // The woken job now holds its requested lock.
                        let now_holds = (0..3u64)
                            .filter(|&lk| m.holds(&w, LockId::new(lk as usize)))
                            .collect::<Vec<_>>();
                        prop_assert_eq!(now_holds.len(), 1, "woken job holds exactly one lock");
                        held.insert(now_holds[0], w);
                        holder_of.insert(w, now_holds[0]);
                    }
                }
            } else if let std::collections::hash_map::Entry::Vacant(e) = holder_of.entry(job) {
                match m.try_acquire(job, Priority::new(10 + job), LockId::new(lock as usize)) {
                    Acquire::Acquired => {
                        prop_assert!(!held.contains_key(&lock), "double grant on lock {lock}");
                        held.insert(lock, job);
                        e.insert(lock);
                    }
                    Acquire::Blocked => {
                        blocked.insert(job);
                    }
                }
            }

            // Cross-check the model against the manager.
            for (&l, &h) in &held {
                prop_assert!(m.holds(&h, LockId::new(l as usize)));
            }
            prop_assert_eq!(m.held_count(), held.len());
            prop_assert_eq!(m.blocked_count(), blocked.len());
            for b in &blocked {
                prop_assert!(m.is_blocked(b));
            }
        }
    }
}

//! Property tests for the foundation pieces of the simulator: the
//! deterministic event queue (against a reference model), a stage's ready
//! queue (its effect stream against a reference stage that keeps the ready
//! set in a `BinaryHeap`) and the priority ceiling protocol lock manager
//! (structural invariants under random operation scripts).

use frap_core::task::{LockId, Priority, Segment, TaskId};
use frap_core::time::{Time, TimeDelta};
use frap_sim::events::{EventQueue, Fired};
use frap_sim::pcp::{Acquire, LockManager};
use frap_sim::stage::{Effect, JobKey, Stage};
use proptest::prelude::*;
use reference::RefStage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stage written for clarity instead of speed: a plain slab, the ready
/// set in a `BinaryHeap` re-keyed from the lock manager before every look
/// at it, and the running set searched linearly. Slots are handed out and
/// generation tokens minted exactly as [`Stage`] does, so the two must
/// produce the same effects, token for token.
mod reference {
    use super::*;

    type LockKey = (TaskId, u32, u32);

    /// Highest effective priority first, then lowest task id, then lowest
    /// node; the slot last.
    type ReadyKey = (Priority, Reverse<TaskId>, Reverse<u32>, u32);

    struct Job {
        key: JobKey,
        base: Priority,
        segments: Vec<Segment>,
        seg: usize,
        remaining: TimeDelta,
        acquired: bool,
        entered: Time,
        block_started: Option<Time>,
        blocked: TimeDelta,
        running: bool,
        started: Time,
    }

    impl Job {
        fn lock(&self) -> Option<LockId> {
            self.segments.get(self.seg).and_then(|s| s.lock)
        }
    }

    pub struct RefStage {
        servers: usize,
        jobs: Vec<Option<Job>>,
        run_count: Vec<u64>,
        free: Vec<u32>,
        ready: BinaryHeap<ReadyKey>,
        running: Vec<usize>,
        locks: LockManager<LockKey>,
    }

    impl RefStage {
        pub fn new(servers: usize) -> RefStage {
            RefStage {
                servers,
                jobs: Vec::new(),
                run_count: Vec::new(),
                free: Vec::new(),
                ready: BinaryHeap::new(),
                running: Vec::new(),
                locks: LockManager::new(),
            }
        }

        fn occupant(&self, slot: usize) -> Option<&Job> {
            self.jobs.get(slot).and_then(Option::as_ref)
        }

        fn job(&self, slot: usize) -> &Job {
            self.jobs[slot].as_ref().expect("occupied slot")
        }

        fn job_mut(&mut self, slot: usize) -> &mut Job {
            self.jobs[slot].as_mut().expect("occupied slot")
        }

        pub fn job_count(&self) -> usize {
            self.jobs.iter().flatten().count()
        }

        pub fn running_jobs(&self) -> Vec<JobKey> {
            let mut v: Vec<JobKey> = self.running.iter().map(|&r| self.job(r).key).collect();
            v.sort_unstable();
            v
        }

        fn lock_key(&self, slot: usize) -> LockKey {
            let (task, node) = self.job(slot).key;
            (task, node, slot as u32)
        }

        fn ready_key(&self, slot: usize) -> ReadyKey {
            let job = self.job(slot);
            let boost = self.locks.inherited(&self.lock_key(slot));
            let effective = boost.map_or(job.base, |b| job.base.max(b));
            (
                effective,
                Reverse(job.key.0),
                Reverse(job.key.1),
                slot as u32,
            )
        }

        fn make_ready(&mut self, slot: usize) {
            let key = self.ready_key(slot);
            self.ready.push(key);
        }

        fn rekey(&mut self) {
            let slots: Vec<u32> = self.ready.drain().map(|k| k.3).collect();
            self.ready = slots
                .into_iter()
                .map(|s| self.ready_key(s as usize))
                .collect();
        }

        fn register(&mut self, slot: usize, on: bool) {
            let mut locks: Vec<LockId> = self
                .job(slot)
                .segments
                .iter()
                .filter_map(|s| s.lock)
                .collect();
            locks.sort_unstable();
            locks.dedup();
            let (base, key) = (self.job(slot).base, self.lock_key(slot));
            for l in locks {
                if on {
                    self.locks.register_user(l, base, key);
                } else {
                    self.locks.deregister_user(l, base, key);
                }
            }
        }

        fn start(&mut self, now: Time, slot: usize, fx: &mut Vec<Effect>) {
            self.run_count[slot] += 1;
            let gen = ((slot as u64) << 32) | (self.run_count[slot] & u64::from(u32::MAX));
            let job = self.job_mut(slot);
            job.running = true;
            job.started = now;
            let (key, finish) = (job.key, now + job.remaining);
            self.running.push(slot);
            fx.push(Effect::Start { key, gen, finish });
        }

        fn stop(&mut self, now: Time, slot: usize) -> Option<TimeDelta> {
            let job = self.job_mut(slot);
            if !job.running {
                return None;
            }
            job.running = false;
            let elapsed = now.saturating_since(job.started);
            self.running.retain(|&r| r != slot);
            Some(elapsed)
        }

        /// [`RefStage::stop`] for a run that ends before its segment does:
        /// it announces its completion stale.
        fn interrupt(&mut self, now: Time, slot: usize, fx: &mut Vec<Effect>) -> Option<TimeDelta> {
            let gen = ((slot as u64) << 32) | (self.run_count[slot] & u64::from(u32::MAX));
            let job = self.job(slot);
            let finish = job.started + job.remaining;
            let elapsed = self.stop(now, slot)?;
            fx.push(Effect::Stopped { gen, finish });
            Some(elapsed)
        }

        fn wake(&mut self, now: Time, woken: Vec<LockKey>) {
            for (_, _, slot) in woken {
                let job = self.job_mut(slot as usize);
                if let Some(since) = job.block_started.take() {
                    job.blocked += now.saturating_since(since);
                }
                job.acquired = true;
                self.make_ready(slot as usize);
            }
        }

        fn free(&mut self, slot: usize) -> Job {
            self.register(slot, false);
            self.free.push(slot as u32);
            self.jobs[slot].take().expect("occupied slot")
        }

        pub fn add_job(
            &mut self,
            now: Time,
            key: JobKey,
            base: Priority,
            segments: Vec<Segment>,
            fx: &mut Vec<Effect>,
        ) -> u32 {
            let slot = match self.free.pop() {
                Some(s) => s as usize,
                None => {
                    self.jobs.push(None);
                    self.run_count.push(0);
                    self.jobs.len() - 1
                }
            };
            self.jobs[slot] = Some(Job {
                key,
                base,
                remaining: segments[0].duration,
                segments,
                seg: 0,
                acquired: false,
                entered: now,
                block_started: None,
                blocked: TimeDelta::ZERO,
                running: false,
                started: now,
            });
            self.register(slot, true);
            self.make_ready(slot);
            self.reschedule(now, fx);
            slot as u32
        }

        pub fn segment_done(&mut self, now: Time, gen: u64, fx: &mut Vec<Effect>) {
            let slot = (gen >> 32) as usize;
            let mask = u64::from(u32::MAX);
            let live = self.occupant(slot).is_some_and(|j| j.running)
                && self.run_count[slot] & mask == gen & mask;
            if !live {
                return;
            }
            self.stop(now, slot);
            let lock_key = self.lock_key(slot);
            let job = self.job_mut(slot);
            let finished_lock = job.acquired && job.lock().is_some();
            job.seg += 1;
            job.acquired = false;
            let next = job.segments.get(job.seg).map(|s| s.duration);
            job.remaining = next.unwrap_or(TimeDelta::ZERO);
            if finished_lock {
                let woken = self.locks.release(&lock_key);
                self.wake(now, woken);
            }
            if next.is_none() {
                let job = self.free(slot);
                fx.push(Effect::Completed {
                    key: job.key,
                    blocked_for: job.blocked,
                    stage_delay: now.saturating_since(job.entered),
                });
            } else {
                self.make_ready(slot);
            }
            self.reschedule(now, fx);
            if self.job_count() == 0 {
                fx.push(Effect::Idle);
            }
        }

        pub fn kill(&mut self, now: Time, slot: u32, key: JobKey, fx: &mut Vec<Effect>) {
            let slot = slot as usize;
            if self.occupant(slot).is_none_or(|j| j.key != key) {
                return;
            }
            self.interrupt(now, slot, fx);
            self.ready.retain(|k| k.3 as usize != slot);
            let woken = self.locks.remove_job(&self.lock_key(slot));
            self.wake(now, woken);
            self.free(slot);
            self.reschedule(now, fx);
            if self.job_count() == 0 {
                fx.push(Effect::Idle);
            }
        }

        fn reschedule(&mut self, now: Time, fx: &mut Vec<Effect>) {
            loop {
                self.rekey();
                let Some(&best) = self.ready.peek() else {
                    return;
                };
                if self.running.len() >= self.servers {
                    let victim = self
                        .running
                        .iter()
                        .map(|&r| self.ready_key(r))
                        .min()
                        .expect("servers are busy");
                    if best.0 <= victim.0 {
                        return; // ties never preempt
                    }
                    let slot = victim.3 as usize;
                    let elapsed = self.interrupt(now, slot, fx).expect("victim was running");
                    let job = self.job_mut(slot);
                    job.remaining = job.remaining.saturating_sub(elapsed);
                    self.make_ready(slot);
                    continue;
                }
                self.ready.pop();
                let slot = best.3 as usize;
                let job = self.job(slot);
                if let (Some(lock), false) = (job.lock(), job.acquired) {
                    let base = job.base;
                    match self.locks.try_acquire(self.lock_key(slot), base, lock) {
                        Acquire::Acquired => self.job_mut(slot).acquired = true,
                        Acquire::Blocked => {
                            self.job_mut(slot).block_started = Some(now);
                            continue;
                        }
                    }
                }
                self.start(now, slot, fx);
            }
        }
    }
}

/// One to three segments of 0–4 ms drawn from the bits of `bits`; with
/// `locks`, some of them critical sections on lock 0 or 1.
fn segments_from(bits: u64, locks: bool) -> Vec<Segment> {
    let count = 1 + (bits % 3) as usize;
    (0..count)
        .map(|i| {
            let b = bits >> (2 + 8 * i);
            let duration = TimeDelta::from_millis(b % 5);
            match (locks, (b >> 3) % 4) {
                (true, l @ 2..) => Segment::critical(duration, LockId::new(l as usize - 2)),
                _ => Segment::compute(duration),
            }
        })
        .collect()
}

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
    /// `Time::ZERO`/`Time::MAX` keys round-trip. Half the cases first push
    /// 150 or more near events, past the largest near tier any experiment
    /// module builds (`table1`'s wait timeouts, 146).
    #[test]
    fn two_tier_queue_matches_reference_model(
        prefill in 0usize..300,
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
        let fill = (0..prefill as u64).map(|i| ((i * 7) % 12, 0));
        for (code, op) in fill.chain(script.iter().copied()) {
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

    /// A stage's effect stream equals the heap reference's, token for
    /// token, under random scripts of `add_job` (priorities from a set of
    /// four, so ties are common; one to three segments, some of them
    /// critical sections when `locks` is set on a single server),
    /// `segment_done` of the earliest outstanding completion (stale ones
    /// included, whether or not a `Stopped` announced them) and `kill` of
    /// a job handed out earlier (gone ones included), on 1–3 servers.
    #[test]
    fn stage_effects_match_heap_reference(
        servers in 1usize..4,
        locks in proptest::bool::ANY,
        script in proptest::collection::vec(
            (0u8..5, 0u64..4, 0u64..6, 0u64..4, proptest::num::u64::ANY, 0usize..64),
            1..150,
        )
    ) {
        let locks = locks && servers == 1;
        let mut stage = Stage::with_servers(frap_core::task::StageId::new(0), servers);
        let mut model = RefStage::new(servers);
        let mut clock = Time::ZERO;
        // Completions not yet delivered, earliest first: (finish, issue
        // order, gen).
        let mut pending: BinaryHeap<Reverse<(Time, usize, u64)>> = BinaryHeap::new();
        let mut issued = 0usize;
        let mut handles: Vec<(u32, JobKey)> = Vec::new();
        let (mut fx, mut want) = (Vec::new(), Vec::new());
        for i in 0.. {
            let (op, dt, task, prio, bits, pick) = match script.get(i) {
                Some(&op) => op,
                // Past the script, deliver every outstanding completion.
                None if pending.is_empty() => break,
                None => (2, 0, 0, 0, 0, 0),
            };
            let step = clock + TimeDelta::from_micros(500 * dt);
            let at = pending.peek().map_or(step, |Reverse(p)| step.min(p.0).max(clock));
            match op {
                0 | 1 => {
                    clock = at;
                    let key = (TaskId::new(task), i as u32);
                    let base = Priority::new(10 * (prio + 1));
                    let segments = segments_from(bits, locks);
                    let slot = stage.add_job(clock, key, base, segments.clone(), &mut fx);
                    let model_slot = model.add_job(clock, key, base, segments, &mut want);
                    prop_assert_eq!(slot, model_slot);
                    handles.push((slot, key));
                }
                2 | 3 => {
                    let Some(Reverse((finish, _, gen))) = pending.pop() else {
                        continue;
                    };
                    clock = clock.max(finish);
                    stage.segment_done(clock, gen, &mut fx);
                    model.segment_done(clock, gen, &mut want);
                }
                _ => {
                    let Some(&(slot, key)) = handles.get(pick % handles.len().max(1)) else {
                        continue;
                    };
                    clock = at;
                    stage.kill(clock, slot, key, &mut fx);
                    model.kill(clock, slot, key, &mut want);
                }
            }
            prop_assert_eq!(&fx, &want, "op {} at {:?}", i, clock);
            for e in fx.drain(..) {
                if let Effect::Start { gen, finish, .. } = e {
                    pending.push(Reverse((finish, issued, gen)));
                    issued += 1;
                }
            }
            want.clear();
            prop_assert_eq!(stage.job_count(), model.job_count());
            prop_assert_eq!(stage.running_jobs(), model.running_jobs());
        }
        prop_assert!(stage.is_idle());
        prop_assert_eq!(model.job_count(), 0);
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

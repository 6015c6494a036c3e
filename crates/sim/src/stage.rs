//! One pipeline stage: a preemptive fixed-priority processor with
//! PCP-protected critical sections.
//!
//! A stage executes *jobs* (subtask instances). At every instant the
//! highest effective-priority runnable job runs; effective priority is the
//! task's fixed base priority possibly raised by PCP inheritance. Jobs
//! execute their segments in order, acquiring each segment's lock (if any)
//! under the priority ceiling protocol; a denied acquisition blocks the job
//! until a release wakes it.
//!
//! The stage is a pure state machine: mutations return [`Effect`]s
//! (schedule a completion event, a subtask finished, the stage went idle)
//! that the [`crate::pipeline::Simulation`] turns into events, precedence
//! releases, and synthetic-utilization resets.
//!
//! # Data layout
//!
//! This is the simulator's hottest state, so it is kept dense and
//! allocation-free on the steady-state event path (see DESIGN.md §11):
//!
//! * jobs live in a **slab** (`Vec<Slot>` plus a free list) addressed by a
//!   dense `u32` slot; [`Stage::add_job`] hands the slot out and the caller
//!   hands it back to [`Stage::kill`] / [`Stage::executed`], so there is no
//!   by-key map at all;
//! * the ready queue is a **binary max-heap of packed keys** with lazy
//!   deletion: the bit-inverted `(priority, task, node)` fields (a `u128`
//!   and a `u64`, plus a stamp) compare lexicographically, reproducing the
//!   previous ordered-set total order (highest priority, then lowest task
//!   id, then lowest node) exactly;
//! * completion events carry a **generation token that embeds the slot
//!   index** plus a per-slot start counter, so stale-event detection is two
//!   array reads instead of a hash lookup;
//! * the running set is a tiny vector (`servers` is 1–3);
//! * per-job segments are the subtask's own [`Segments`]: one segment —
//!   every subtask of a plain chain — is held inline, so handing a job to
//!   its stage allocates nothing.

use crate::metrics::StageMetrics;
use crate::pcp::{Acquire, LockManager};
use frap_core::task::{LockId, Priority, Segment, Segments, StageId, TaskId};
use frap_core::time::{Time, TimeDelta};
use std::collections::BinaryHeap;

/// Identifies one job (a subtask instance) at a stage: `(task, node)`.
pub type JobKey = (TaskId, u32);

/// A job as the PCP lock manager knows it: its key plus its slot, so a
/// woken job is found without a lookup. `(task, node)` is unique among
/// the jobs present, so ordering by this is ordering by [`JobKey`].
type LockKey = (TaskId, u32, u32);

/// The ready queue's packed ordering key. The heap pops the lexicographic
/// maximum of `(hi, lo)`; with every field bit-inverted this is exactly
/// the old ordered-set order `(Priority, Reverse<TaskId>, Reverse<node>)`
/// popped from the back — highest priority first (smaller raw priority key
/// = more urgent = larger inverted value), then lowest task id, then
/// lowest node — for *all* value ranges, not just small ones.
///
/// `stamp` is the lazy-deletion token: an entry is live iff it equals the
/// slot's current `ready_stamp`. It participates in `Ord` only among
/// entries for the same job, where order is irrelevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyEntry {
    /// `!priority.key() << 64 | !task.seq()`.
    hi: u128,
    /// `!node << 32 | slot`.
    lo: u64,
    /// Copy of the slot's `ready_stamp` at push time.
    stamp: u64,
}

impl ReadyEntry {
    #[inline]
    fn slot(self) -> usize {
        (self.lo & u64::from(u32::MAX)) as usize
    }
}

#[inline]
fn pack_hi(priority: Priority, task: TaskId) -> u128 {
    (u128::from(!priority.key()) << 64) | u128::from(!task.seq())
}

#[inline]
fn pack_lo(node: u32, slot: u32) -> u64 {
    (u64::from(!node) << 32) | u64::from(slot)
}

/// What the simulation must do after a stage mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A job (re)started executing: schedule a `SegmentDone` at `finish`
    /// carrying `gen` (stale generations are ignored).
    Start {
        /// The running job.
        key: JobKey,
        /// Generation token for the completion event.
        gen: u64,
        /// Absolute finish time of the current segment remainder.
        finish: Time,
    },
    /// A job finished its last segment: the subtask is complete.
    Completed {
        /// The finished job.
        key: JobKey,
        /// Total time this job spent blocked on locks here (`B_nj`).
        blocked_for: TimeDelta,
        /// Time from the job's arrival at the stage to completion (`L_j`).
        stage_delay: TimeDelta,
    },
    /// The stage transitioned to idle (no jobs present).
    Idle,
}

/// One slab slot. `ready_stamp` and `run_count` are monotone across slot
/// reuse, so heap entries and generation tokens from a previous occupant
/// can never validate against a new one.
#[derive(Debug, Clone)]
struct Slot {
    key: JobKey,
    base: Priority,
    /// `None` while the slot is vacant: freeing a slot drops the job's
    /// segments at once.
    segments: Option<Segments>,
    seg_idx: u32,
    remaining: TimeDelta,
    acquired_current: bool,
    entered_at: Time,
    block_started: Option<Time>,
    blocked_total: TimeDelta,
    block_episodes: u32,
    occupied: bool,
    ready: bool,
    /// Effective priority of the live ready entry (re-key detection).
    ready_prio: Priority,
    /// Lazy-deletion token for ready entries; bumped on every transition.
    ready_stamp: u64,
    running: bool,
    /// Start counter; the low 32 bits are the generation token payload.
    run_count: u64,
    started: Time,
}

impl Slot {
    fn vacant() -> Slot {
        Slot {
            key: (TaskId::new(0), 0),
            base: Priority::LOWEST,
            segments: None,
            seg_idx: 0,
            remaining: TimeDelta::ZERO,
            acquired_current: false,
            entered_at: Time::ZERO,
            block_started: None,
            blocked_total: TimeDelta::ZERO,
            block_episodes: 0,
            occupied: false,
            ready: false,
            ready_prio: Priority::LOWEST,
            ready_stamp: 0,
            running: false,
            run_count: 0,
            started: Time::ZERO,
        }
    }

    /// The job's segments (none for a vacant slot).
    #[inline]
    fn segs(&self) -> &[Segment] {
        self.segments.as_deref().unwrap_or(&[])
    }

    #[inline]
    fn current_lock(&self) -> Option<LockId> {
        self.segs().get(self.seg_idx as usize).and_then(|s| s.lock)
    }
}

/// The execution state of one stage: one or more identical servers
/// draining a shared fixed-priority ready queue.
///
/// Multi-server stages (`servers > 1`) model a tier of identical
/// processors behind one queue — an empirical extension beyond the
/// paper's single-resource stages (the *sound* multi-server construction
/// is partitioning: one analyzed stage per replica, bound at admission;
/// see `frap_core::graph::TaskSpec::remap_stages`). Critical sections
/// require a single server (PCP is a uniprocessor protocol).
#[derive(Debug)]
pub struct Stage {
    id: StageId,
    servers: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    job_count: usize,
    ready: BinaryHeap<ReadyEntry>,
    running_slots: Vec<u32>,
    locks: LockManager<LockKey>,
    /// Scratch for lock registration/deregistration (reused, no per-job
    /// allocation).
    lock_scratch: Vec<LockId>,
    /// Local accounting; harvested by the simulation at the end.
    pub metrics: StageMetrics,
}

impl Stage {
    /// A single-server stage (the paper's model).
    pub fn new(id: StageId) -> Stage {
        Stage::with_servers(id, 1)
    }

    /// A stage backed by `servers` identical processors sharing one
    /// fixed-priority queue.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn with_servers(id: StageId, servers: usize) -> Stage {
        assert!(servers >= 1, "a stage needs at least one server");
        let metrics = StageMetrics {
            servers: servers as u32,
            ..StageMetrics::default()
        };
        Stage {
            id,
            servers,
            slots: Vec::new(),
            free: Vec::new(),
            job_count: 0,
            ready: BinaryHeap::new(),
            running_slots: Vec::with_capacity(servers),
            locks: LockManager::new(),
            lock_scratch: Vec::new(),
            metrics,
        }
    }

    /// This stage's identifier.
    pub fn id(&self) -> StageId {
        self.id
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Whether no job is present (running, ready, or blocked).
    pub fn is_idle(&self) -> bool {
        self.job_count == 0
    }

    /// Number of jobs present at the stage.
    pub fn job_count(&self) -> usize {
        self.job_count
    }

    /// One currently executing job (the one with the lowest task id), if
    /// any — exact for single-server stages; see
    /// [`Stage::running_jobs`] for the full set.
    pub fn running(&self) -> Option<JobKey> {
        self.running_slots
            .iter()
            .map(|&r| self.slots[r as usize].key)
            .min()
    }

    /// All currently executing jobs, in deterministic (key) order.
    pub fn running_jobs(&self) -> Vec<JobKey> {
        let mut v: Vec<JobKey> = self
            .running_slots
            .iter()
            .map(|&r| self.slots[r as usize].key)
            .collect();
        v.sort_unstable();
        v
    }

    #[inline]
    fn lock_key(&self, slot: usize) -> LockKey {
        let (task, node) = self.slots[slot].key;
        (task, node, slot as u32)
    }

    /// The job in `slot`, if it is `key`'s.
    fn slot_of(&self, slot: u32, key: JobKey) -> Option<usize> {
        let s = self.slots.get(slot as usize)?;
        (s.occupied && s.key == key).then_some(slot as usize)
    }

    #[inline]
    fn effective_of(&self, slot: usize) -> Priority {
        let s = &self.slots[slot];
        match self.locks.inherited(&self.lock_key(slot)) {
            Some(boost) => s.base.max(boost),
            None => s.base,
        }
    }

    /// The running job with the least effective priority (the preemption
    /// victim): its packed priority word and slot.
    fn min_running(&self) -> Option<(u128, usize)> {
        self.running_slots
            .iter()
            .map(|&r| {
                let slot = r as usize;
                let s = &self.slots[slot];
                let eff = self.effective_of(slot);
                ((pack_hi(eff, s.key.0), pack_lo(s.key.1, r)), slot)
            })
            .min()
            .map(|((hi, _), slot)| (hi, slot))
    }

    /// Starts the job in `slot` on a free server; the caller ensures
    /// capacity.
    fn start(&mut self, now: Time, slot: usize, effects: &mut Vec<Effect>) {
        let s = &mut self.slots[slot];
        s.run_count += 1;
        s.running = true;
        s.started = now;
        let gen = ((slot as u64) << 32) | (s.run_count & u64::from(u32::MAX));
        let finish = now + s.remaining;
        let key = s.key;
        self.running_slots.push(slot as u32);
        effects.push(Effect::Start { key, gen, finish });
    }

    /// Stops the job in `slot` if running, banking its busy span; returns
    /// the elapsed span if it was running.
    fn stop(&mut self, now: Time, slot: usize) -> Option<TimeDelta> {
        let s = &mut self.slots[slot];
        if !s.running {
            return None;
        }
        s.running = false;
        let elapsed = now.saturating_since(s.started);
        self.metrics.busy += elapsed;
        let pos = self
            .running_slots
            .iter()
            .position(|&r| r as usize == slot)
            .expect("running slot is listed");
        self.running_slots.swap_remove(pos);
        Some(elapsed)
    }

    fn make_ready(&mut self, slot: usize) {
        let eff = self.effective_of(slot);
        let s = &mut self.slots[slot];
        s.ready = true;
        s.ready_prio = eff;
        s.ready_stamp += 1;
        let entry = ReadyEntry {
            hi: pack_hi(eff, s.key.0),
            lo: pack_lo(s.key.1, slot as u32),
            stamp: s.ready_stamp,
        };
        self.ready.push(entry);
    }

    fn unready(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        if s.ready {
            s.ready = false;
            s.ready_stamp += 1;
        }
    }

    /// The highest-ordered live ready entry, discarding stale heap tops.
    fn peek_best(&mut self) -> Option<ReadyEntry> {
        while let Some(&top) = self.ready.peek() {
            let s = &self.slots[top.slot()];
            if s.occupied && s.ready && s.ready_stamp == top.stamp {
                return Some(top);
            }
            self.ready.pop();
        }
        None
    }

    /// Re-keys ready entries whose effective priority changed due to
    /// inheritance updates (the old entry goes stale; a fresh one is
    /// pushed).
    fn refresh_ready_keys(&mut self) {
        for slot in 0..self.slots.len() {
            if !(self.slots[slot].occupied && self.slots[slot].ready) {
                continue;
            }
            let eff = self.effective_of(slot);
            if eff != self.slots[slot].ready_prio {
                let s = &mut self.slots[slot];
                s.ready_prio = eff;
                s.ready_stamp += 1;
                let entry = ReadyEntry {
                    hi: pack_hi(eff, s.key.0),
                    lo: pack_lo(s.key.1, slot as u32),
                    stamp: s.ready_stamp,
                };
                self.ready.push(entry);
            }
        }
    }

    /// Registers (`register = true`) or removes this job's lock-user
    /// entries, deduplicating via the reused scratch buffer.
    fn update_lock_users(&mut self, slot: usize, register: bool) {
        let s = &self.slots[slot];
        if s.segs().iter().all(|seg| seg.lock.is_none()) {
            return; // no critical section: nothing to (de)register
        }
        let base = s.base;
        let mut scratch = std::mem::take(&mut self.lock_scratch);
        scratch.clear();
        scratch.extend(s.segs().iter().filter_map(|seg| seg.lock));
        let key = self.lock_key(slot);
        scratch.sort_unstable();
        scratch.dedup();
        for &l in &scratch {
            if register {
                self.locks.register_user(l, base, key);
            } else {
                self.locks.deregister_user(l, base, key);
            }
        }
        self.lock_scratch = scratch;
    }

    /// Returns the job's slot to the free list. Stamps and counters stay
    /// monotone so stale heap entries and generation tokens from this
    /// occupant never validate against the next one.
    fn free_slot(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        debug_assert!(s.occupied && !s.running);
        s.occupied = false;
        s.ready = false;
        s.ready_stamp += 1;
        s.segments = None; // drop the job's segments
        self.free.push(slot as u32);
        self.job_count -= 1;
    }

    /// Admits a subtask instance to this stage's ready queue and returns
    /// its slot — the handle [`Stage::kill`] and [`Stage::executed`] take,
    /// valid until the job completes or is killed.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, and (debug builds only — the check
    /// scans every job present) if `key` is already present.
    pub fn add_job(
        &mut self,
        now: Time,
        key: JobKey,
        base: Priority,
        segments: impl Into<Segments>,
        effects: &mut Vec<Effect>,
    ) -> u32 {
        debug_assert!(
            !self.slots.iter().any(|s| s.occupied && s.key == key),
            "job {key:?} added twice"
        );
        let segments = segments.into();
        assert!(!segments.is_empty(), "jobs need at least one segment");
        assert!(
            self.servers == 1 || segments.iter().all(|seg| seg.lock.is_none()),
            "critical sections require a single-server stage (PCP is a \
             uniprocessor protocol)"
        );
        let first_remaining = segments[0].duration;
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slots.push(Slot::vacant());
                self.slots.len() - 1
            }
        };
        {
            let s = &mut self.slots[slot];
            debug_assert!(!s.occupied, "free-listed slot is vacant");
            s.key = key;
            s.base = base;
            s.segments = Some(segments);
            s.seg_idx = 0;
            s.remaining = first_remaining;
            s.acquired_current = false;
            s.entered_at = now;
            s.block_started = None;
            s.blocked_total = TimeDelta::ZERO;
            s.block_episodes = 0;
            s.occupied = true;
        }
        // Register this job as a future user of every lock it touches, so
        // PCP ceilings are in place before anyone can block on it.
        self.update_lock_users(slot, true);
        self.job_count += 1;
        self.make_ready(slot);
        self.reschedule(now, effects);
        slot as u32
    }

    /// Handles a `SegmentDone` event. Stale generations (from preempted
    /// runs or freed slots) are ignored.
    pub fn segment_done(&mut self, now: Time, gen: u64, effects: &mut Vec<Effect>) {
        let slot = (gen >> 32) as usize;
        let count = gen & u64::from(u32::MAX);
        let live = self.slots.get(slot).is_some_and(|s| {
            s.occupied && s.running && (s.run_count & u64::from(u32::MAX)) == count
        });
        if !live {
            return; // stale
        }
        self.stop(now, slot);

        // Release the segment's lock, waking any PCP-blocked jobs.
        let s = &mut self.slots[slot];
        let finished_lock = s.acquired_current && s.current_lock().is_some();
        let key = s.key;
        let lock_key = (key.0, key.1, slot as u32);
        s.seg_idx += 1;
        s.acquired_current = false;
        let next = s.segs().get(s.seg_idx as usize).map(|seg| seg.duration);
        let done = next.is_none();
        s.remaining = next.unwrap_or(TimeDelta::ZERO);
        if finished_lock {
            let woken = self.locks.release(&lock_key);
            self.wake(now, &woken);
        }

        if done {
            self.update_lock_users(slot, false);
            let (blocked_total, block_episodes, entered_at) = {
                let s = &self.slots[slot];
                (s.blocked_total, s.block_episodes, s.entered_at)
            };
            self.free_slot(slot);
            let stage_delay = now.saturating_since(entered_at);
            self.metrics.subtasks_completed += 1;
            self.metrics.blocking_total += blocked_total;
            self.metrics.blocking_max = self.metrics.blocking_max.max(blocked_total);
            self.metrics.max_block_episodes = self.metrics.max_block_episodes.max(block_episodes);
            self.metrics.stage_delay_total += stage_delay;
            self.metrics.stage_delay_max = self.metrics.stage_delay_max.max(stage_delay);
            effects.push(Effect::Completed {
                key,
                blocked_for: blocked_total,
                stage_delay,
            });
        } else {
            // More segments: contend for the processor again (and possibly
            // a new lock) under normal scheduling rules.
            self.make_ready(slot);
        }
        self.reschedule(now, effects);
        if self.job_count == 0 {
            self.ready.clear();
            effects.push(Effect::Idle);
        }
    }

    /// Execution time the job `key` in `slot` has received so far at
    /// `now`: completed segments in full plus the executed share of the
    /// current one (live for a running job). Blocked and queued time
    /// contributes nothing. `None` if the slot no longer holds the job (it
    /// completed or was killed).
    pub fn executed(&self, now: Time, slot: u32, key: JobKey) -> Option<TimeDelta> {
        let s = &self.slots[self.slot_of(slot, key)?];
        let segs = s.segs();
        let mut done: TimeDelta = segs[..s.seg_idx as usize]
            .iter()
            .map(|seg| seg.duration)
            .sum();
        if let Some(cur) = segs.get(s.seg_idx as usize) {
            let mut remaining = s.remaining;
            if s.running {
                remaining = remaining.saturating_sub(now.saturating_since(s.started));
            }
            done += cur.duration.saturating_sub(remaining);
        }
        Some(done)
    }

    /// Removes the job `key` in `slot` outright (task shed/killed).
    /// Releases its lock and wakes blocked jobs as needed. A no-op if the
    /// slot no longer holds the job.
    pub fn kill(&mut self, now: Time, slot: u32, key: JobKey, effects: &mut Vec<Effect>) {
        let Some(slot) = self.slot_of(slot, key) else {
            return;
        };
        self.stop(now, slot); // also invalidates the in-flight SegmentDone
        self.unready(slot);
        let woken = self.locks.remove_job(&self.lock_key(slot));
        self.wake(now, &woken);
        self.update_lock_users(slot, false);
        self.free_slot(slot);
        self.refresh_ready_keys();
        self.reschedule(now, effects);
        if self.job_count == 0 {
            self.ready.clear();
            effects.push(Effect::Idle);
        }
    }

    /// Closes the running busy spans at the end of the simulation.
    pub fn finalize(&mut self, until: Time) {
        for i in 0..self.running_slots.len() {
            let slot = self.running_slots[i] as usize;
            let s = &mut self.slots[slot];
            self.metrics.busy += until.saturating_since(s.started);
            s.started = until;
        }
    }

    fn wake(&mut self, now: Time, woken: &[LockKey]) {
        for w in woken {
            let slot = w.2 as usize;
            let s = &mut self.slots[slot];
            if let Some(started) = s.block_started.take() {
                let blocked = now.saturating_since(started);
                s.blocked_total += blocked;
                s.block_episodes += 1;
                self.metrics.blocking_events += 1;
            }
            // The woken job already holds its lock (granted by PCP wake).
            s.acquired_current = true;
            self.make_ready(slot);
        }
        self.refresh_ready_keys();
    }

    /// Ensures the `servers` highest effective-priority runnable jobs are
    /// executing.
    fn reschedule(&mut self, now: Time, effects: &mut Vec<Effect>) {
        while let Some(best) = self.peek_best() {
            if self.running_slots.len() >= self.servers {
                // All servers busy: preempt the least urgent runner only
                // for a strictly higher priority (ties never preempt).
                let (min_hi, victim) = self.min_running().expect("servers are busy");
                if best.hi >> 64 > min_hi >> 64 {
                    let elapsed = self.stop(now, victim).expect("victim was running");
                    let s = &mut self.slots[victim];
                    s.remaining = s.remaining.saturating_sub(elapsed);
                    self.make_ready(victim);
                    continue;
                }
                break;
            }

            // A server is free: start the best ready job.
            let slot = best.slot();
            self.ready.pop(); // `best` was the validated top
            {
                let s = &mut self.slots[slot];
                s.ready = false;
                s.ready_stamp += 1;
            }

            // Acquire the current segment's lock if needed.
            let (needs_lock, base, acquired) = {
                let s = &self.slots[slot];
                (s.current_lock(), s.base, s.acquired_current)
            };
            if let (Some(lock), false) = (needs_lock, acquired) {
                match self.locks.try_acquire(self.lock_key(slot), base, lock) {
                    Acquire::Acquired => {
                        self.slots[slot].acquired_current = true;
                    }
                    Acquire::Blocked => {
                        self.slots[slot].block_started = Some(now);
                        // Inheritance may have boosted a ready holder.
                        self.refresh_ready_keys();
                        continue;
                    }
                }
            }
            self.start(now, slot, effects);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frap_core::task::SubtaskSpec;

    fn ms(v: u64) -> TimeDelta {
        TimeDelta::from_millis(v)
    }

    fn at(v: u64) -> Time {
        Time::from_millis(v)
    }

    fn key(task: u64) -> JobKey {
        (TaskId::new(task), 0)
    }

    fn plain(c: TimeDelta) -> Vec<Segment> {
        vec![Segment::compute(c)]
    }

    fn start_of(effects: &[Effect]) -> (JobKey, u64, Time) {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Start { key, gen, finish } => Some((*key, *gen, *finish)),
                _ => None,
            })
            .next_back()
            .expect("a Start effect")
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        let (k, gen, finish) = start_of(&fx);
        assert_eq!(k, key(1));
        assert_eq!(finish, at(10));
        fx.clear();
        st.segment_done(at(10), gen, &mut fx);
        assert!(matches!(fx[0], Effect::Completed { key: k, .. } if k == key(1)));
        assert!(fx.contains(&Effect::Idle));
        assert!(st.is_idle());
        assert_eq!(st.metrics.busy, ms(10));
        assert_eq!(st.metrics.subtasks_completed, 1);
        assert_eq!(st.metrics.stage_delay_max, ms(10));
    }

    #[test]
    fn higher_priority_preempts() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        fx.clear();
        // At t=4 a more urgent job arrives and preempts.
        st.add_job(at(4), key(2), Priority::new(50), plain(ms(3)), &mut fx);
        let (k, gen2, finish) = start_of(&fx);
        assert_eq!(k, key(2));
        assert_eq!(finish, at(7));
        fx.clear();
        st.segment_done(at(7), gen2, &mut fx);
        // Job 1 resumes with 6 ms left.
        let (k, gen1b, finish) = start_of(&fx);
        assert_eq!(k, key(1));
        assert_eq!(finish, at(13));
        fx.clear();
        st.segment_done(at(13), gen1b, &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Completed { key: k, .. } if *k == key(1))));
        // Busy the whole time: 13 ms.
        assert_eq!(st.metrics.busy, ms(13));
    }

    #[test]
    fn stale_generation_is_ignored() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        let (_, gen1, _) = start_of(&fx);
        fx.clear();
        st.add_job(at(4), key(2), Priority::new(50), plain(ms(3)), &mut fx);
        fx.clear();
        // The original completion event for job 1 is now stale.
        st.segment_done(at(10), gen1, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(st.job_count(), 2);
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(2), Priority::new(100), plain(ms(10)), &mut fx);
        fx.clear();
        st.add_job(at(1), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        assert!(fx.is_empty(), "no Start effect: the running job continues");
        assert_eq!(st.running(), Some(key(2)));
    }

    #[test]
    fn tie_break_by_task_id_in_ready_queue() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(9), Priority::new(10), plain(ms(5)), &mut fx);
        let (_, gen, _) = start_of(&fx);
        fx.clear();
        st.add_job(at(0), key(3), Priority::new(100), plain(ms(5)), &mut fx);
        st.add_job(at(0), key(2), Priority::new(100), plain(ms(5)), &mut fx);
        fx.clear();
        st.segment_done(at(5), gen, &mut fx);
        let (k, _, _) = start_of(&fx);
        assert_eq!(k, key(2), "lower task id wins among equal priorities");
    }

    #[test]
    fn tie_break_by_node_within_a_task() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(9), Priority::new(10), plain(ms(5)), &mut fx);
        let (_, gen, _) = start_of(&fx);
        fx.clear();
        st.add_job(
            at(0),
            (TaskId::new(3), 7),
            Priority::new(100),
            plain(ms(5)),
            &mut fx,
        );
        st.add_job(
            at(0),
            (TaskId::new(3), 2),
            Priority::new(100),
            plain(ms(5)),
            &mut fx,
        );
        fx.clear();
        st.segment_done(at(5), gen, &mut fx);
        let (k, _, _) = start_of(&fx);
        assert_eq!(
            k,
            (TaskId::new(3), 2),
            "lower node wins among equal priorities and task ids"
        );
    }

    #[test]
    fn lock_blocking_and_inheritance() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        let lock = LockId::new(0);
        // Low-priority job takes the lock for its whole 10 ms.
        st.add_job(
            at(0),
            key(2),
            Priority::new(200),
            vec![Segment::critical(ms(10), lock)],
            &mut fx,
        );
        fx.clear();
        // High-priority job arrives at t=2 wanting the same lock.
        st.add_job(
            at(2),
            key(1),
            Priority::new(50),
            vec![Segment::critical(ms(4), lock)],
            &mut fx,
        );
        // Job 1 preempts, tries the lock, blocks; job 2 resumes (inherited)
        // with its remaining 8 ms.
        let (k, gen2, finish) = start_of(&fx);
        assert_eq!(k, key(2));
        assert_eq!(finish, at(10));
        fx.clear();
        st.segment_done(at(10), gen2, &mut fx);
        // Job 2 completes; job 1 wakes holding the lock and runs 4 ms.
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Completed { key: k, .. } if *k == key(2))));
        let (k, gen1, finish) = start_of(&fx);
        assert_eq!(k, key(1));
        assert_eq!(finish, at(14));
        fx.clear();
        st.segment_done(at(14), gen1, &mut fx);
        match fx
            .iter()
            .find(|e| matches!(e, Effect::Completed { key: k, .. } if *k == key(1)))
        {
            Some(Effect::Completed { blocked_for, .. }) => {
                assert_eq!(*blocked_for, ms(8), "blocked from t=2 to t=10");
            }
            _ => panic!("job 1 should complete"),
        }
        assert_eq!(st.metrics.blocking_events, 1);
        assert_eq!(st.metrics.blocking_max, ms(8));
    }

    #[test]
    fn multi_segment_job_releases_lock_between_segments() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        let lock = LockId::new(0);
        st.add_job(
            at(0),
            key(1),
            Priority::new(100),
            vec![
                Segment::compute(ms(2)),
                Segment::critical(ms(3), lock),
                Segment::compute(ms(1)),
            ],
            &mut fx,
        );
        let (_, g1, f1) = start_of(&fx);
        assert_eq!(f1, at(2));
        fx.clear();
        st.segment_done(at(2), g1, &mut fx);
        let (_, g2, f2) = start_of(&fx);
        assert_eq!(f2, at(5));
        fx.clear();
        st.segment_done(at(5), g2, &mut fx);
        let (_, g3, f3) = start_of(&fx);
        assert_eq!(f3, at(6));
        fx.clear();
        st.segment_done(at(6), g3, &mut fx);
        assert!(fx.iter().any(|e| matches!(e, Effect::Completed { .. })));
        assert_eq!(st.metrics.busy, ms(6));
    }

    #[test]
    fn kill_running_job_frees_stage() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        let slot = st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        let (_, gen, _) = start_of(&fx);
        fx.clear();
        st.kill(at(4), slot, key(1), &mut fx);
        assert!(fx.contains(&Effect::Idle));
        assert!(st.is_idle());
        assert_eq!(st.metrics.busy, ms(4));
        // The stale completion is ignored.
        st.segment_done(at(10), gen, &mut fx);
        assert!(st.is_idle());
    }

    #[test]
    fn kill_lock_holder_unblocks_waiter() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        let lock = LockId::new(0);
        let holder = st.add_job(
            at(0),
            key(2),
            Priority::new(200),
            vec![Segment::critical(ms(10), lock)],
            &mut fx,
        );
        st.add_job(
            at(1),
            key(1),
            Priority::new(50),
            vec![Segment::critical(ms(4), lock)],
            &mut fx,
        );
        fx.clear();
        st.kill(at(3), holder, key(2), &mut fx);
        // Waiter acquires and starts.
        let (k, _, finish) = start_of(&fx);
        assert_eq!(k, key(1));
        assert_eq!(finish, at(7));
    }

    #[test]
    fn kill_ready_job() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(50), plain(ms(10)), &mut fx);
        let ready = st.add_job(at(0), key(2), Priority::new(100), plain(ms(10)), &mut fx);
        fx.clear();
        st.kill(at(1), ready, key(2), &mut fx);
        assert_eq!(st.job_count(), 1);
        assert_eq!(st.running(), Some(key(1)));
        assert!(!fx.contains(&Effect::Idle));
    }

    #[test]
    fn finalize_closes_busy_span() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(100)), &mut fx);
        st.finalize(at(30));
        assert_eq!(st.metrics.busy, ms(30));
    }

    #[test]
    fn preempted_job_tracks_remaining_correctly() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        fx.clear();
        // Preempt twice.
        st.add_job(at(2), key(2), Priority::new(10), plain(ms(1)), &mut fx);
        let (_, g2, _) = start_of(&fx);
        fx.clear();
        st.segment_done(at(3), g2, &mut fx);
        let (_, g1b, f) = start_of(&fx);
        assert_eq!(
            f,
            at(11),
            "8 ms left after 2 ms executed and 1 ms preempted"
        );
        fx.clear();
        st.add_job(at(5), key(3), Priority::new(10), plain(ms(2)), &mut fx);
        let (_, g3, _) = start_of(&fx);
        fx.clear();
        st.segment_done(at(7), g3, &mut fx);
        let (_, g1c, f) = start_of(&fx);
        assert_eq!(f, at(13), "6 ms left");
        fx.clear();
        st.segment_done(at(11), g1b, &mut fx);
        assert!(fx.is_empty(), "stale");
        st.segment_done(at(13), g1c, &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Completed { key: k, .. } if *k == key(1))));
        assert_eq!(st.metrics.busy, ms(13));
    }

    #[test]
    fn two_servers_run_concurrently() {
        let mut st = Stage::with_servers(StageId::new(0), 2);
        assert_eq!(st.servers(), 2);
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        st.add_job(at(0), key(2), Priority::new(100), plain(ms(10)), &mut fx);
        // Both start immediately.
        let starts: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Start { key, gen, finish } => Some((*key, *gen, *finish)),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 2);
        assert!(starts.iter().all(|&(_, _, f)| f == at(10)));
        assert_eq!(st.running_jobs(), vec![key(1), key(2)]);
        fx.clear();
        for (_, gen, _) in starts {
            st.segment_done(at(10), gen, &mut fx);
        }
        assert!(st.is_idle());
        // Two servers, each busy 10 ms → 20 ms of server-time.
        assert_eq!(st.metrics.busy, ms(20));
        assert!((st.metrics.utilization(ms(10)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_server_preempts_least_urgent_runner() {
        let mut st = Stage::with_servers(StageId::new(0), 2);
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(50), plain(ms(10)), &mut fx);
        st.add_job(at(0), key(2), Priority::new(200), plain(ms(10)), &mut fx);
        fx.clear();
        // A mid-priority job arrives: it preempts job 2 (the least urgent),
        // not job 1.
        st.add_job(at(4), key(3), Priority::new(100), plain(ms(2)), &mut fx);
        let started: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Start { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![key(3)]);
        let mut running = st.running_jobs();
        running.sort_unstable();
        assert_eq!(running, vec![key(1), key(3)]);
    }

    #[test]
    fn multi_server_third_equal_priority_job_waits() {
        let mut st = Stage::with_servers(StageId::new(0), 2);
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(100), plain(ms(5)), &mut fx);
        st.add_job(at(0), key(2), Priority::new(100), plain(ms(5)), &mut fx);
        fx.clear();
        st.add_job(at(1), key(3), Priority::new(100), plain(ms(5)), &mut fx);
        assert!(fx.is_empty(), "equal priority never preempts");
        assert_eq!(st.running_jobs().len(), 2);
        assert_eq!(st.job_count(), 3);
    }

    #[test]
    #[should_panic(expected = "single-server")]
    fn critical_sections_need_single_server() {
        let mut st = Stage::with_servers(StageId::new(0), 2);
        let mut fx = Vec::new();
        st.add_job(
            at(0),
            key(1),
            Priority::new(1),
            vec![Segment::critical(ms(1), LockId::new(0))],
            &mut fx,
        );
    }

    #[test]
    fn multi_server_finalize_closes_all_spans() {
        let mut st = Stage::with_servers(StageId::new(0), 3);
        let mut fx = Vec::new();
        for i in 0..3 {
            st.add_job(at(0), key(i), Priority::new(100), plain(ms(100)), &mut fx);
        }
        st.finalize(at(40));
        assert_eq!(st.metrics.busy, ms(120));
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the duplicate check is a debug assertion"
    )]
    #[should_panic(expected = "added twice")]
    fn duplicate_job_panics() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(at(0), key(1), Priority::new(1), plain(ms(1)), &mut fx);
        st.add_job(at(0), key(1), Priority::new(1), plain(ms(1)), &mut fx);
    }

    #[test]
    fn zero_length_segment_completes_immediately_on_run() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        st.add_job(
            at(0),
            key(1),
            Priority::new(1),
            plain(TimeDelta::ZERO),
            &mut fx,
        );
        let (_, gen, finish) = start_of(&fx);
        assert_eq!(finish, at(0));
        fx.clear();
        st.segment_done(at(0), gen, &mut fx);
        assert!(fx.iter().any(|e| matches!(e, Effect::Completed { .. })));
    }

    #[test]
    fn slot_reuse_invalidates_prior_generations() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        // Job 1 occupies slot 0; kill it while its SegmentDone is in flight.
        let slot = st.add_job(at(0), key(1), Priority::new(100), plain(ms(10)), &mut fx);
        let (_, gen1, _) = start_of(&fx);
        fx.clear();
        st.kill(at(2), slot, key(1), &mut fx);
        // Job 2 reuses slot 0.
        fx.clear();
        let reused = st.add_job(at(3), key(2), Priority::new(100), plain(ms(5)), &mut fx);
        assert_eq!(reused, slot);
        // The dead job's handle must not reach the new occupant either.
        st.kill(at(3), slot, key(1), &mut fx);
        assert_eq!(st.executed(at(3), slot, key(1)), None);
        assert_eq!(st.job_count(), 1);
        let (_, gen2, _) = start_of(&fx);
        assert_ne!(gen1, gen2, "slot reuse must mint a fresh generation");
        // The dead job's completion must not touch the new occupant.
        fx.clear();
        st.segment_done(at(10), gen1, &mut fx);
        assert!(fx.is_empty(), "stale generation from the prior occupant");
        assert_eq!(st.job_count(), 1);
        st.segment_done(at(8), gen2, &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Completed { key: k, .. } if *k == key(2))));
    }

    #[test]
    fn job_runs_its_own_segments_in_order() {
        let mut st = Stage::new(StageId::new(0));
        let mut fx = Vec::new();
        let segments: Segments = vec![Segment::compute(ms(2)), Segment::compute(ms(3))].into();
        st.add_job(at(0), key(1), Priority::new(100), segments, &mut fx);
        let (_, gen, finish) = start_of(&fx);
        assert_eq!(finish, at(2), "the first segment is 2 ms");
        fx.clear();
        st.segment_done(at(2), gen, &mut fx);
        let (_, gen, finish) = start_of(&fx);
        assert_eq!(finish, at(5));
        fx.clear();
        st.segment_done(at(5), gen, &mut fx);
        assert!(fx.iter().any(|e| matches!(e, Effect::Completed { .. })));
        // One segment is handed over inline, as a plain chain's nodes are.
        let one = SubtaskSpec::new(StageId::new(0), ms(4)).segments;
        st.add_job(at(5), key(2), Priority::new(100), one, &mut fx);
        assert_eq!(start_of(&fx).2, at(9));
    }
}

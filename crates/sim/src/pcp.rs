//! Priority ceiling protocol (PCP) for per-stage critical sections.
//!
//! The paper's non-independent-task extension (Section 3.2) assumes the
//! priority ceiling protocol at each node, which bounds the blocking `B_ij`
//! a subtask can suffer to **one outermost critical section** of a
//! lower-priority task. This module implements classic PCP:
//!
//! * each lock has a *ceiling* — the highest priority of any job that may
//!   use it (tracked dynamically as jobs register at the stage);
//! * a job may acquire a lock only if the lock is free **and** its priority
//!   exceeds the *system ceiling* (the highest ceiling among locks held by
//!   other jobs);
//! * a blocked job's priority is *inherited* by the job responsible for the
//!   block, so medium-priority work cannot extend the blocking.
//!
//! Jobs hold at most one lock at a time (subtask segments are serial and
//! non-nested), which makes deadlock impossible by construction; PCP's
//! single-blocking property is what the feasible region's `β_j` terms rely
//! on and what the property tests in `frap-sim` verify.
//!
//! Lock identifiers are dense per-stage indices, so every per-lock map is a
//! plain vector indexed by `LockId::index()`; the per-job sets (blocked
//! requests, inheritance boosts, held locks) are small sorted or linear
//! vectors. Iteration over these structures is in a fixed deterministic
//! order (ascending lock index, ascending job key), and every tie-break —
//! which waiter wakes first, which holder inherits — resolves exactly as
//! the ordered-map implementation it replaced.

use frap_core::task::{LockId, Priority};
use std::hash::Hash;

/// Outcome of a lock acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted; the job may enter its critical section.
    Acquired,
    /// The job is blocked; it will resume via the unblock list returned by
    /// a later [`LockManager::release`].
    Blocked,
}

#[derive(Debug, Clone, Copy)]
struct BlockedReq {
    lock: usize,
    priority: Priority,
}

/// The PCP state of one stage, generic over the job identifier so it can
/// be unit-tested in isolation.
///
/// `J` is a dense job key (`(TaskId, node)` in the simulator).
///
/// # Examples
///
/// ```
/// use frap_sim::pcp::{Acquire, LockManager};
/// use frap_core::task::{LockId, Priority};
///
/// let mut m: LockManager<u32> = LockManager::new();
/// let l = LockId::new(0);
/// m.register_user(l, Priority::new(10), 1);
/// m.register_user(l, Priority::new(20), 2);
///
/// assert_eq!(m.try_acquire(2, Priority::new(20), l), Acquire::Acquired);
/// // Job 1 is more urgent but the lock is held: blocked, and job 2
/// // inherits job 1's priority.
/// assert_eq!(m.try_acquire(1, Priority::new(10), l), Acquire::Blocked);
/// assert_eq!(m.inherited(&2), Some(Priority::new(10)));
///
/// // Release hands the lock to the blocked job.
/// assert_eq!(m.release(&2), vec![1]);
/// assert!(m.holds(&1, l));
/// ```
#[derive(Debug, Clone)]
pub struct LockManager<J> {
    /// Per-lock registered users, sorted ascending by `(Priority, J)`:
    /// the ceiling is the last element.
    users: Vec<Vec<(Priority, J)>>,
    /// Current holder of each lock, indexed by lock.
    held: Vec<Option<J>>,
    /// The (single, non-nested) lock each holder holds.
    holder_locks: Vec<(J, usize)>,
    /// Jobs blocked at their acquisition point, sorted ascending by `J`.
    blocked: Vec<(J, BlockedReq)>,
    /// Inherited priorities of blockers.
    boosts: Vec<(J, Priority)>,
}

impl<J: Copy + Ord + Hash + std::fmt::Debug> LockManager<J> {
    /// An empty manager.
    pub fn new() -> LockManager<J> {
        LockManager {
            users: Vec::new(),
            held: Vec::new(),
            holder_locks: Vec::new(),
            blocked: Vec::new(),
            boosts: Vec::new(),
        }
    }

    fn users_mut(&mut self, lock: usize) -> &mut Vec<(Priority, J)> {
        if lock >= self.users.len() {
            self.users.resize_with(lock + 1, Vec::new);
        }
        &mut self.users[lock]
    }

    /// The current ceiling of `lock`: the highest priority among registered
    /// users, or `None` if nobody uses it.
    pub fn ceiling(&self, lock: LockId) -> Option<Priority> {
        self.users
            .get(lock.index())
            .and_then(|s| s.last().map(|&(p, _)| p))
    }

    /// Registers a (future) user of `lock`, raising its ceiling if needed.
    /// Call when a lock-using subtask becomes present at the stage.
    pub fn register_user(&mut self, lock: LockId, priority: Priority, job: J) {
        let users = self.users_mut(lock.index());
        if let Err(pos) = users.binary_search(&(priority, job)) {
            users.insert(pos, (priority, job));
        }
    }

    /// Removes a user registration. Call when the subtask leaves the stage.
    pub fn deregister_user(&mut self, lock: LockId, priority: Priority, job: J) {
        if let Some(s) = self.users.get_mut(lock.index()) {
            if let Ok(pos) = s.binary_search(&(priority, job)) {
                s.remove(pos);
            }
        }
    }

    /// Whether `job` currently holds `lock`.
    pub fn holds(&self, job: &J, lock: LockId) -> bool {
        self.held.get(lock.index()).copied().flatten().as_ref() == Some(job)
    }

    /// Whether `job` is blocked at a lock-acquisition point.
    pub fn is_blocked(&self, job: &J) -> bool {
        self.blocked.binary_search_by(|e| e.0.cmp(job)).is_ok()
    }

    /// The priority `job` currently inherits from jobs it blocks, if any.
    pub fn inherited(&self, job: &J) -> Option<Priority> {
        self.boosts.iter().find(|(b, _)| b == job).map(|&(_, p)| p)
    }

    /// The PCP system ceiling from the perspective of `job`: the highest
    /// ceiling among locks held by *other* jobs.
    fn system_ceiling_excluding(&self, job: &J) -> Option<Priority> {
        self.held
            .iter()
            .enumerate()
            .filter_map(|(lock, h)| match h {
                Some(holder) if holder != job => self.ceiling(LockId::new(lock)),
                _ => None,
            })
            .max()
    }

    /// Attempts to acquire `lock` for `job` running at base `priority`.
    ///
    /// Grants the lock iff it is free and `priority` exceeds the system
    /// ceiling (the PCP rule). Otherwise the job is recorded as blocked and
    /// the responsible holder inherits `priority`.
    pub fn try_acquire(&mut self, job: J, priority: Priority, lock: LockId) -> Acquire {
        if self.can_acquire(&job, priority, lock) {
            self.grant(job, lock);
            Acquire::Acquired
        } else {
            let req = BlockedReq {
                lock: lock.index(),
                priority,
            };
            match self.blocked.binary_search_by(|e| e.0.cmp(&job)) {
                Ok(pos) => self.blocked[pos] = (job, req),
                Err(pos) => self.blocked.insert(pos, (job, req)),
            }
            self.recompute_boosts();
            Acquire::Blocked
        }
    }

    /// Releases `job`'s held lock (if any) and returns the jobs that
    /// acquire locks as a result, in decreasing priority order. The
    /// returned jobs already hold their requested locks and must be made
    /// runnable by the caller.
    pub fn release(&mut self, job: &J) -> Vec<J> {
        let Some(pos) = self.holder_locks.iter().position(|(h, _)| h == job) else {
            return Vec::new();
        };
        let (_, lock) = self.holder_locks.swap_remove(pos);
        self.held[lock] = None;
        if let Some(bpos) = self.boosts.iter().position(|(b, _)| b == job) {
            self.boosts.swap_remove(bpos);
        }
        self.wake_unblockable()
    }

    /// Removes `job` entirely (kill/shed): drops any block record, releases
    /// any held lock. Returns newly unblocked jobs, as in
    /// [`LockManager::release`]. User registrations must be removed
    /// separately via [`LockManager::deregister_user`].
    pub fn remove_job(&mut self, job: &J) -> Vec<J> {
        if let Ok(pos) = self.blocked.binary_search_by(|e| e.0.cmp(job)) {
            self.blocked.remove(pos);
        }
        let woken = self.release(job);
        self.recompute_boosts();
        woken
    }

    /// Number of currently blocked jobs.
    pub fn blocked_count(&self) -> usize {
        self.blocked.len()
    }

    /// Number of currently held locks.
    pub fn held_count(&self) -> usize {
        self.held.iter().flatten().count()
    }

    fn can_acquire(&self, job: &J, priority: Priority, lock: LockId) -> bool {
        if self.held.get(lock.index()).copied().flatten().is_some() {
            return false;
        }
        match self.system_ceiling_excluding(job) {
            None => true,
            Some(ceiling) => priority > ceiling,
        }
    }

    fn grant(&mut self, job: J, lock: LockId) {
        debug_assert!(
            !self.holder_locks.iter().any(|(h, _)| *h == job),
            "nested locking is not supported"
        );
        if lock.index() >= self.held.len() {
            self.held.resize(lock.index() + 1, None);
        }
        self.held[lock.index()] = Some(job);
        self.holder_locks.push((job, lock.index()));
    }

    fn wake_unblockable(&mut self) -> Vec<J> {
        let mut woken = Vec::new();
        loop {
            // Highest-priority blocked job that can now acquire. Scanning
            // ascending job keys and keeping the last maximum reproduces
            // the ordered-map tie-break: the largest job key wins among
            // equal priorities.
            let mut candidate: Option<(usize, J, BlockedReq)> = None;
            for i in 0..self.blocked.len() {
                let (j, req) = self.blocked[i];
                if self.can_acquire(&j, req.priority, LockId::new(req.lock))
                    && candidate
                        .as_ref()
                        .is_none_or(|&(_, _, best)| req.priority >= best.priority)
                {
                    candidate = Some((i, j, req));
                }
            }
            match candidate {
                Some((pos, j, req)) => {
                    self.blocked.remove(pos);
                    self.grant(j, LockId::new(req.lock));
                    woken.push(j);
                }
                None => break,
            }
        }
        self.recompute_boosts();
        woken
    }

    /// Rebuilds inheritance: every blocked job boosts the holder that
    /// prevents its acquisition (the holder of its requested lock, or of
    /// the highest-ceiling lock held by another job).
    fn recompute_boosts(&mut self) {
        let mut boosts = std::mem::take(&mut self.boosts);
        boosts.clear();
        for i in 0..self.blocked.len() {
            let (job, req) = self.blocked[i];
            let blocker = match self.held.get(req.lock).copied().flatten() {
                Some(holder) => Some(holder),
                None => {
                    // Blocked by the ceiling rule: boost the holder of the
                    // highest-ceiling lock held by another job.
                    self.held
                        .iter()
                        .enumerate()
                        .filter_map(|(l, h)| h.map(|holder| (l, holder)))
                        .filter(|(_, holder)| *holder != job)
                        .max_by_key(|&(l, _)| self.ceiling(LockId::new(l)))
                        .map(|(_, holder)| holder)
                }
            };
            if let Some(b) = blocker {
                match boosts.iter_mut().find(|(h, _)| *h == b) {
                    Some((_, p)) => *p = (*p).max(req.priority),
                    None => boosts.push((b, req.priority)),
                }
            }
        }
        self.boosts = boosts;
    }
}

impl<J: Copy + Ord + Hash + std::fmt::Debug> Default for LockManager<J> {
    fn default() -> Self {
        LockManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(key: u64) -> Priority {
        Priority::new(key)
    }

    fn l(i: usize) -> LockId {
        LockId::new(i)
    }

    #[test]
    fn free_lock_with_no_ceiling_is_granted() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        assert_eq!(m.try_acquire(1, p(10), l(0)), Acquire::Acquired);
        assert!(m.holds(&1, l(0)));
        assert_eq!(m.held_count(), 1);
    }

    #[test]
    fn held_lock_blocks_and_inherits() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        m.register_user(l(0), p(20), 2);
        assert_eq!(m.try_acquire(2, p(20), l(0)), Acquire::Acquired);
        assert_eq!(m.try_acquire(1, p(10), l(0)), Acquire::Blocked);
        assert!(m.is_blocked(&1));
        // Holder 2 inherits blocked job 1's (higher) priority.
        assert_eq!(m.inherited(&2), Some(p(10)));
        assert_eq!(m.blocked_count(), 1);
    }

    #[test]
    fn release_grants_to_highest_priority_waiter() {
        let mut m: LockManager<u32> = LockManager::new();
        for (job, prio) in [(1, p(10)), (2, p(20)), (3, p(30))] {
            m.register_user(l(0), prio, job);
        }
        assert_eq!(m.try_acquire(3, p(30), l(0)), Acquire::Acquired);
        assert_eq!(m.try_acquire(2, p(20), l(0)), Acquire::Blocked);
        assert_eq!(m.try_acquire(1, p(10), l(0)), Acquire::Blocked);
        let woken = m.release(&3);
        // Job 1 (key 10) is the most urgent waiter.
        assert_eq!(woken, vec![1]);
        assert!(m.holds(&1, l(0)));
        assert!(m.is_blocked(&2));
        assert_eq!(m.inherited(&1), Some(p(20)));
    }

    #[test]
    fn ceiling_rule_blocks_second_lock() {
        // Classic PCP scenario: job H must not be able to suffer two
        // blockings. L1 holds lock A (ceiling = H's priority). M requests
        // free lock B but is blocked by the ceiling rule, because its
        // priority does not exceed ceiling(A).
        let mut m: LockManager<u32> = LockManager::new();
        let (h, mid, lo) = (1, 2, 3);
        m.register_user(l(0), p(10), h); // H uses lock A → ceiling(A) = 10
        m.register_user(l(0), p(30), lo);
        m.register_user(l(1), p(10), h); // H also uses lock B
        m.register_user(l(1), p(20), mid);

        assert_eq!(m.try_acquire(lo, p(30), l(0)), Acquire::Acquired);
        // M's priority (20) does not exceed the system ceiling (10 is more
        // urgent → "higher"), so M is blocked even though lock B is free.
        assert_eq!(m.try_acquire(mid, p(20), l(1)), Acquire::Blocked);
        // The ceiling-lock holder inherits M's priority.
        assert_eq!(m.inherited(&lo), Some(p(20)));
        // H itself *does* exceed the ceiling? No: ceiling includes H's own
        // registration; PCP requires strictly greater, so H blocks on the
        // ceiling too — and inherits through to LO.
        assert_eq!(m.try_acquire(h, p(10), l(1)), Acquire::Blocked);
        assert_eq!(m.inherited(&lo), Some(p(10)));
        // When LO releases A, H gets B first (highest priority waiter).
        let woken = m.release(&lo);
        assert_eq!(woken[0], h);
        assert!(m.holds(&h, l(1)));
    }

    #[test]
    fn single_blocking_property() {
        // Once H has been blocked and resumes, no lower-priority job can
        // acquire a lock H uses while H is live — H never blocks twice.
        let mut m: LockManager<u32> = LockManager::new();
        let (h, lo) = (1, 2);
        m.register_user(l(0), p(10), h);
        m.register_user(l(0), p(30), lo);
        m.register_user(l(1), p(10), h);

        assert_eq!(m.try_acquire(lo, p(30), l(0)), Acquire::Acquired);
        assert_eq!(m.try_acquire(h, p(10), l(1)), Acquire::Blocked); // ceiling rule
        let woken = m.release(&lo);
        assert_eq!(woken, vec![h]);
        // H now holds B; when it later wants A, A is free and ceiling
        // excludes its own lock's users? A's ceiling is 10 (H itself) but
        // held locks by others: none → acquisition allowed after releasing B.
        assert_eq!(m.release(&h), Vec::<u32>::new());
        assert_eq!(m.try_acquire(h, p(10), l(0)), Acquire::Acquired);
    }

    #[test]
    fn remove_job_releases_and_unblocks() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        m.register_user(l(0), p(20), 2);
        assert_eq!(m.try_acquire(2, p(20), l(0)), Acquire::Acquired);
        assert_eq!(m.try_acquire(1, p(10), l(0)), Acquire::Blocked);
        let woken = m.remove_job(&2);
        assert_eq!(woken, vec![1]);
        assert!(m.holds(&1, l(0)));
        assert_eq!(m.inherited(&1), None);
    }

    #[test]
    fn remove_blocked_job_clears_boost() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        m.register_user(l(0), p(20), 2);
        m.try_acquire(2, p(20), l(0));
        m.try_acquire(1, p(10), l(0));
        assert_eq!(m.inherited(&2), Some(p(10)));
        let woken = m.remove_job(&1);
        assert!(woken.is_empty());
        assert_eq!(m.inherited(&2), None);
        assert_eq!(m.blocked_count(), 0);
    }

    #[test]
    fn deregistration_lowers_ceiling() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        m.register_user(l(0), p(30), 2);
        assert_eq!(m.ceiling(l(0)), Some(p(10)));
        m.deregister_user(l(0), p(10), 1);
        assert_eq!(m.ceiling(l(0)), Some(p(30)));
        m.deregister_user(l(0), p(30), 2);
        assert_eq!(m.ceiling(l(0)), None);
    }

    #[test]
    fn release_without_lock_is_noop() {
        let mut m: LockManager<u32> = LockManager::new();
        assert!(m.release(&7).is_empty());
        assert!(m.remove_job(&7).is_empty());
    }

    #[test]
    fn independent_locks_do_not_interfere_below_ceiling() {
        // Two locks with low ceilings: a high-priority job that uses
        // neither lock is irrelevant; two low jobs on different locks with
        // ceilings below each other's priorities must not block.
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(100), 1);
        m.register_user(l(1), p(90), 2);
        assert_eq!(m.try_acquire(1, p(100), l(0)), Acquire::Acquired);
        // Job 2's priority (90) exceeds ceiling(l0) = 100? Priority 90 is
        // *more urgent* than 100, so yes: acquisition proceeds.
        assert_eq!(m.try_acquire(2, p(90), l(1)), Acquire::Acquired);
        assert_eq!(m.held_count(), 2);
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut m: LockManager<u32> = LockManager::new();
        m.register_user(l(0), p(10), 1);
        m.register_user(l(0), p(10), 1);
        m.deregister_user(l(0), p(10), 1);
        assert_eq!(m.ceiling(l(0)), None);
    }

    #[test]
    fn equal_priority_waiters_wake_in_descending_key_order() {
        // The tie-break contract the simulator's determinism rests on:
        // among equal-priority waiters the largest job key wakes first.
        let mut m: LockManager<u32> = LockManager::new();
        for job in [1, 2, 9] {
            m.register_user(l(0), p(10), job);
        }
        m.register_user(l(0), p(30), 7);
        assert_eq!(m.try_acquire(7, p(30), l(0)), Acquire::Acquired);
        assert_eq!(m.try_acquire(2, p(10), l(0)), Acquire::Blocked);
        assert_eq!(m.try_acquire(9, p(10), l(0)), Acquire::Blocked);
        assert_eq!(m.try_acquire(1, p(10), l(0)), Acquire::Blocked);
        let woken = m.release(&7);
        assert_eq!(woken, vec![9], "largest key wins among equal priorities");
    }
}

//! The aperiodic task model of the paper (Section 2).
//!
//! A *task* arrives at some instant, must leave the system within a relative
//! end-to-end deadline `D_i`, and consists of *subtasks* — one unit of work
//! per visit to a *stage* (an independent resource such as a CPU). Subtasks
//! may contain *critical sections* protected by per-stage locks, which is
//! the paper's "non-independent tasks" extension (Section 3.2).
//!
//! Types here are passive data: they describe work, while
//! [`crate::graph::TaskGraph`] describes the precedence structure and
//! `frap-sim` executes it.

use crate::time::TimeDelta;
use std::fmt;

/// Identifies one pipeline stage / independent resource (CPU).
///
/// Stages are dense indices `0..N` into an `N`-stage
/// [`crate::region::FeasibleRegion`] / [`crate::synthetic::SyntheticState`].
///
/// # Examples
///
/// ```
/// use frap_core::task::StageId;
/// let s = StageId::new(2);
/// assert_eq!(s.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StageId(usize);

impl StageId {
    /// Creates a stage identifier from its dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        StageId(index)
    }

    /// The dense index of this stage.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage{}", self.0)
    }
}

/// Identifies a lock (shared resource protected by the priority ceiling
/// protocol) local to one stage.
///
/// Lock indices are dense per stage: lock `k` of stage `j` is unrelated to
/// lock `k` of stage `j'`. Stored in 32 bits, which keeps a [`Segment`] at
/// 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LockId(u32);

impl LockId {
    /// Creates a lock identifier from its dense per-stage index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 32 bits.
    #[inline]
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "lock index exceeds 32 bits");
        LockId(index as u32)
    }

    /// The dense per-stage index of this lock.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// Identifies one task instance in the system.
///
/// Issued densely in arrival order by the simulator / admission layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(u64);

impl TaskId {
    /// Creates a task identifier from its dense sequence number.
    #[inline]
    pub const fn new(seq: u64) -> Self {
        TaskId(seq)
    }

    /// The dense sequence number of this task.
    #[inline]
    pub const fn seq(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A scheduling priority that is *fixed* across all pipeline stages
/// (the paper's definition of a fixed-priority policy for aperiodic tasks).
///
/// Smaller key = more urgent. Under deadline-monotonic assignment the key
/// is the relative end-to-end deadline in microseconds, so ordering by
/// `Priority` orders by urgency. Ties are broken by [`TaskId`] in the
/// simulator, which keeps scheduling deterministic.
///
/// # Examples
///
/// ```
/// use frap_core::task::Priority;
/// assert!(Priority::new(10) > Priority::new(20)); // smaller key is higher priority
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Priority(u64);

impl Priority {
    /// The most urgent expressible priority.
    pub const HIGHEST: Priority = Priority(0);
    /// The least urgent expressible priority.
    pub const LOWEST: Priority = Priority(u64::MAX);

    /// Creates a priority from its key (smaller key = more urgent).
    #[inline]
    pub const fn new(key: u64) -> Self {
        Priority(key)
    }

    /// The raw key (smaller = more urgent).
    #[inline]
    pub const fn key(self) -> u64 {
        self.0
    }
}

impl PartialOrd for Priority {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    /// Orders by urgency: `Priority::new(1) > Priority::new(2)`.
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio({})", self.0)
    }
}

/// Semantic importance used by the load-shedding architecture of Section 5:
/// at overload, admitted work is shed in *reverse* order of importance.
///
/// Higher value = more important. Importance is deliberately decoupled from
/// [`Priority`]: the paper's point is that scheduling priority can follow an
/// optimal policy (deadline-monotonic) while overload decisions follow
/// mission semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Importance(u32);

impl Importance {
    /// Lowest importance — shed first.
    pub const LOWEST: Importance = Importance(0);
    /// Highest importance — shed last (mission-critical).
    pub const CRITICAL: Importance = Importance(u32::MAX);

    /// Creates an importance level (higher = more important).
    #[inline]
    pub const fn new(level: u32) -> Self {
        Importance(level)
    }

    /// The raw level (higher = more important).
    #[inline]
    pub const fn level(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Importance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "imp({})", self.0)
    }
}

/// One contiguous slice of a subtask's execution, optionally inside a
/// critical section.
///
/// A subtask executes its segments in order; a segment with `lock =
/// Some(l)` runs while holding lock `l` of its stage under the priority
/// ceiling protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Pure execution time of this segment.
    pub duration: TimeDelta,
    /// Lock held while executing this segment, if any.
    pub lock: Option<LockId>,
}

impl Segment {
    /// A lock-free segment of the given duration.
    #[inline]
    pub const fn compute(duration: TimeDelta) -> Self {
        Segment {
            duration,
            lock: None,
        }
    }

    /// A critical-section segment of the given duration holding `lock`.
    #[inline]
    pub const fn critical(duration: TimeDelta, lock: LockId) -> Self {
        Segment {
            duration,
            lock: Some(lock),
        }
    }
}

/// The ordered segments of one subtask, read as a `[Segment]` slice.
///
/// Almost every subtask is a single lock-free segment, so one segment is
/// held inline and only other lengths spill to a `Vec`. The form is a
/// function of the length alone, so the derived equality and hash go by
/// content.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Segments(SegmentsRepr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum SegmentsRepr {
    One(Segment),
    /// Never exactly one segment.
    Many(Vec<Segment>),
}

impl std::ops::Deref for Segments {
    type Target = [Segment];

    #[inline]
    fn deref(&self) -> &[Segment] {
        match &self.0 {
            SegmentsRepr::One(segment) => std::slice::from_ref(segment),
            SegmentsRepr::Many(segments) => segments,
        }
    }
}

impl From<Vec<Segment>> for Segments {
    fn from(mut segments: Vec<Segment>) -> Segments {
        Segments(match segments.len() {
            1 => SegmentsRepr::One(segments.pop().expect("one segment")),
            _ => SegmentsRepr::Many(segments),
        })
    }
}

impl FromIterator<Segment> for Segments {
    /// One segment is held inline, any other number in a `Vec`: collecting
    /// a single segment allocates nothing.
    fn from_iter<I: IntoIterator<Item = Segment>>(segments: I) -> Segments {
        let mut segments = segments.into_iter();
        Segments(match (segments.next(), segments.next()) {
            (Some(one), None) => SegmentsRepr::One(one),
            (first, second) => {
                SegmentsRepr::Many(first.into_iter().chain(second).chain(segments).collect())
            }
        })
    }
}

impl fmt::Debug for Segments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One unit of work on one stage: the paper's subtask `T_ij` with
/// computation time `C_ij` (here the sum of its segment durations).
///
/// # Examples
///
/// ```
/// use frap_core::task::{Segment, StageId, SubtaskSpec};
/// use frap_core::time::TimeDelta;
///
/// // A 10 ms subtask on stage 1 with a 2 ms critical section in the middle.
/// let sub = SubtaskSpec::with_segments(
///     StageId::new(1),
///     vec![
///         Segment::compute(TimeDelta::from_millis(4)),
///         Segment::critical(TimeDelta::from_millis(2), frap_core::task::LockId::new(0)),
///         Segment::compute(TimeDelta::from_millis(4)),
///     ],
/// );
/// assert_eq!(sub.computation(), TimeDelta::from_millis(10));
/// assert_eq!(sub.max_critical_section(), TimeDelta::from_millis(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubtaskSpec {
    /// The stage (independent resource) this subtask executes on.
    pub stage: StageId,
    /// Ordered execution segments; must be non-empty for a runnable subtask.
    pub segments: Segments,
}

impl SubtaskSpec {
    /// A plain (lock-free) subtask on `stage` with computation time `c`.
    /// Allocates nothing.
    #[inline]
    pub fn new(stage: StageId, c: TimeDelta) -> Self {
        SubtaskSpec {
            stage,
            segments: Segments(SegmentsRepr::One(Segment::compute(c))),
        }
    }

    /// A subtask built from explicit segments (for critical sections).
    pub fn with_segments(stage: StageId, segments: Vec<Segment>) -> Self {
        SubtaskSpec {
            stage,
            segments: segments.into(),
        }
    }

    /// Total computation time `C_ij` (sum of segment durations).
    pub fn computation(&self) -> TimeDelta {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// The longest single critical-section segment, or zero if none.
    pub fn max_critical_section(&self) -> TimeDelta {
        self.segments
            .iter()
            .filter(|s| s.lock.is_some())
            .map(|s| s.duration)
            .fold(TimeDelta::ZERO, TimeDelta::max)
    }

    /// Whether any segment holds a lock.
    pub fn has_critical_section(&self) -> bool {
        self.segments.iter().any(|s| s.lock.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_by_urgency() {
        let urgent = Priority::new(100);
        let lax = Priority::new(1_000);
        assert!(urgent > lax);
        assert_eq!(urgent.max(lax), urgent);
        assert!(Priority::HIGHEST > Priority::LOWEST);
    }

    #[test]
    fn importance_orders_naturally() {
        assert!(Importance::CRITICAL > Importance::new(3));
        assert!(Importance::new(3) > Importance::LOWEST);
    }

    #[test]
    fn subtask_computation_sums_segments() {
        let sub = SubtaskSpec::with_segments(
            StageId::new(0),
            vec![
                Segment::compute(TimeDelta::from_millis(1)),
                Segment::critical(TimeDelta::from_millis(2), LockId::new(0)),
                Segment::compute(TimeDelta::from_millis(3)),
            ],
        );
        assert_eq!(sub.computation(), TimeDelta::from_millis(6));
        assert!(sub.has_critical_section());
        assert_eq!(sub.max_critical_section(), TimeDelta::from_millis(2));
    }

    #[test]
    fn plain_subtask_has_no_critical_section() {
        let sub = SubtaskSpec::new(StageId::new(0), TimeDelta::from_millis(5));
        assert!(!sub.has_critical_section());
        assert_eq!(sub.max_critical_section(), TimeDelta::ZERO);
        assert_eq!(sub.computation(), TimeDelta::from_millis(5));
    }

    #[test]
    fn segments_compare_and_print_by_content() {
        let c = Segment::compute(TimeDelta::from_millis(5));
        let plain = SubtaskSpec::new(StageId::new(0), c.duration);
        // One segment is held inline however the subtask was built.
        let listed = SubtaskSpec::with_segments(StageId::new(0), vec![c.clone()]);
        assert_eq!(plain, listed);
        assert!(matches!(listed.segments.0, SegmentsRepr::One(_)));
        assert_eq!(&*plain.segments, std::slice::from_ref(&c));
        for list in [vec![], vec![c.clone()], vec![c.clone(), c.clone()]] {
            let segments = Segments::from(list.clone());
            assert_eq!(*segments, list[..]);
            assert_eq!(format!("{segments:?}"), format!("{list:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "lock index exceeds 32 bits")]
    fn lock_index_past_32_bits_is_refused() {
        LockId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn ids_roundtrip() {
        assert_eq!(StageId::new(7).index(), 7);
        assert_eq!(LockId::new(3).index(), 3);
        assert_eq!(LockId::new(u32::MAX as usize).index(), u32::MAX as usize);
        assert_eq!(TaskId::new(42).seq(), 42);
        assert_eq!(Priority::new(9).key(), 9);
        assert_eq!(Importance::new(5).level(), 5);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", TaskId::new(1)), "T1");
        assert_eq!(format!("{}", StageId::new(2)), "stage2");
        assert!(!format!("{}", Priority::new(3)).is_empty());
        assert!(!format!("{}", LockId::new(0)).is_empty());
        assert!(!format!("{}", Importance::new(1)).is_empty());
    }
}

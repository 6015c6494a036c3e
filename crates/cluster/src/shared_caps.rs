//! Atomically adjustable per-stage caps: the region a lease-holding
//! node admits against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use frap_core::lease::UNIT_SCALE;
use frap_core::region::RegionTest;

/// Matches `frap_core::lease`'s cap slack: float summation across
/// shards can read a fully charged stage a few ulps above its cap.
const CAP_EPSILON: f64 = 1e-9;

/// A box region whose per-stage caps are shared atomics in budget
/// units, so the lease layer can grow and shrink a node's admissible
/// box while an `AdmissionService` keeps admitting against it — no
/// rebuild, no hot-path change.
///
/// Memory-ordering note: every access is `SeqCst`. The admission
/// service decides without any lock (DESIGN.md §16), so the lease
/// layer's shrink discipline — *lower caps, then take a write-stable
/// utilization snapshot* — is Dekker-shaped against a decider:
///
/// * shrinker: **store** cap, then **load** the service's write-section
///   counters (every lane's `end`, then every lane's `begin`), then read
///   the totals;
/// * decider: **RMW** its lane's `begin` counter, charge, then **load**
///   the cap inside [`RegionTest::feasible`].
///
/// With a `Relaxed` (or `Release`) cap store the store may still sit in
/// the shrinker's store buffer when its later loads run, so both sides
/// can miss each other: the snapshot sees no open section, and the
/// decider — whose section opened after the snapshot's `begin` read —
/// still revalidates against the old, larger cap and commits work the
/// node has already promised away. In the single total order of `SeqCst`
/// operations that cannot happen: either the decider's `begin` RMW
/// precedes the shrinker's read of that lane's `begin` (the snapshot is
/// unstable or already contains the charge, and the holdback covers it),
/// or it follows it, and then follows the cap store too, so the
/// revalidation reads the new cap (DESIGN.md §13). On x86 a `SeqCst`
/// load is a plain load; the stores happen once per lease event.
#[derive(Debug, Clone)]
pub struct SharedStageCaps {
    units: Arc<Vec<AtomicU64>>,
}

impl SharedStageCaps {
    /// `stages` caps, all zero — a node admits nothing until granted a
    /// lease.
    pub fn new(stages: usize) -> SharedStageCaps {
        SharedStageCaps {
            units: Arc::new((0..stages).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Caps from explicit unit values.
    pub fn from_units(units: &[u64]) -> SharedStageCaps {
        SharedStageCaps {
            units: Arc::new(units.iter().map(|&u| AtomicU64::new(u)).collect()),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.units.len()
    }

    /// Current cap of `stage`, in units.
    pub fn get(&self, stage: usize) -> u64 {
        self.units[stage].load(Ordering::SeqCst)
    }

    /// Snapshot of every cap, in units.
    pub fn units(&self) -> Vec<u64> {
        self.units
            .iter()
            .map(|u| u.load(Ordering::SeqCst))
            .collect()
    }

    /// Overwrites one stage's cap.
    pub fn store(&self, stage: usize, units: u64) {
        self.units[stage].store(units, Ordering::SeqCst);
    }

    /// Grows one stage's cap by `delta` units.
    pub fn add(&self, stage: usize, delta: u64) {
        self.units[stage].fetch_add(delta, Ordering::SeqCst);
    }

    /// Shrinks one stage's cap by `delta` units, saturating at zero.
    pub fn sub_saturating(&self, stage: usize, delta: u64) {
        let _ = self.units[stage].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            Some(v.saturating_sub(delta))
        });
    }

    /// Zeroes every cap — the node's admit-nothing state (lease expired
    /// or not yet granted).
    pub fn zero_all(&self) {
        for u in self.units.iter() {
            u.store(0, Ordering::SeqCst);
        }
    }
}

impl RegionTest for SharedStageCaps {
    fn stages(&self) -> usize {
        self.units.len()
    }

    /// Pointwise `U_j ≤ cap_j` against the current caps — monotone for
    /// any fixed cap snapshot, which is all one decision observes.
    fn feasible(&self, utilizations: &[f64]) -> bool {
        debug_assert_eq!(utilizations.len(), self.units.len());
        utilizations.iter().zip(self.units.iter()).all(|(&u, cap)| {
            u <= cap.load(Ordering::SeqCst) as f64 / UNIT_SCALE as f64 + CAP_EPSILON
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_start_closed_and_open_with_grants() {
        let caps = SharedStageCaps::new(2);
        assert!(!caps.feasible(&[0.001, 0.0]));
        assert!(caps.feasible(&[0.0, 0.0]));
        caps.add(0, UNIT_SCALE / 10);
        caps.add(1, UNIT_SCALE / 5);
        assert!(caps.feasible(&[0.1, 0.2]));
        assert!(!caps.feasible(&[0.11, 0.0]));
        caps.sub_saturating(0, UNIT_SCALE); // saturates at zero
        assert_eq!(caps.get(0), 0);
    }

    #[test]
    fn clones_share_the_same_caps() {
        let caps = SharedStageCaps::new(1);
        let peer = caps.clone();
        caps.store(0, 42);
        assert_eq!(peer.get(0), 42);
        peer.zero_all();
        assert_eq!(caps.units(), vec![0]);
    }
}

//! The lease coordinator: splits per-stage utilization budgets into
//! node leases and keeps the conservation ledger exact.
//!
//! All state lives in cumulative monotone counters (CRDT-style):
//! per lease, `issued[j]` only grows and `returned[j]` only grows
//! toward it, so every protocol frame is idempotent — duplicates,
//! reorderings and retransmissions merge by pointwise `max` instead of
//! corrupting the ledger. The conservation invariant
//!
//! ```text
//! pool[j] + Σ_leases (issued[j] − returned[j]) == total[j]   ∀j
//! ```
//!
//! holds after every handler, in exact integer units
//! ([`frap_core::lease::UNIT_SCALE`]), and is checked by
//! [`CoordCore::debug_conservation`].
//!
//! The core is transport-agnostic: handlers take decoded frames plus
//! the coordinator's local clock and return the frames to send.
//! Routing is in-band — every outbound frame names its target node
//! slot — so the same core drives both the deterministic harness and
//! the TCP server in [`crate::net`].

use std::collections::BTreeMap;

use frap_gateway::proto::Frame;

use crate::config::ClusterConfig;
use crate::liveness::MissCounter;

/// One node's lease ledger entry.
#[derive(Debug)]
struct Lease {
    node_id: u64,
    epoch: u32,
    incarnation: u64,
    /// Cumulative units ever issued to this epoch, per stage. Monotone.
    issued: Vec<u64>,
    /// Cumulative units the node reported returned, per stage.
    /// Monotone, pointwise ≤ `issued`.
    returned: Vec<u64>,
    liveness: MissCounter,
    /// When the lease was doomed (node presumed dead, or superseded by
    /// a higher incarnation); reclaimed `grace_us` later.
    doomed_since_us: Option<u64>,
    /// A doomed lease whose node was merely slow may be revived by a
    /// matching-incarnation frame — unless it was superseded, in which
    /// case its registration is gone for good.
    superseded: bool,
}

impl Lease {
    fn outstanding(&self, stage: usize) -> u64 {
        self.issued[stage] - self.returned[stage]
    }
}

/// Decision counters, for observability and the benchmark's lease
/// overhead rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordCounters {
    /// Nodes registered (first hello of an incarnation).
    pub registrations: u64,
    /// `LeaseGrant` frames emitted.
    pub grants: u64,
    /// Units credited back to pools by `LeaseReturn` frames.
    pub units_returned: u64,
    /// Units issued by registration and `LeaseRequest` handling.
    pub units_issued: u64,
    /// `LeaseSteal` frames emitted on pool shortage.
    pub steals: u64,
    /// Leases doomed (missed heartbeats or superseding hello).
    pub dooms: u64,
    /// Doomed leases revived by a matching-incarnation frame.
    pub revivals: u64,
    /// Leases reclaimed after the grace period.
    pub reclaims: u64,
    /// Frames ignored: stale epoch/incarnation or unknown slot.
    pub stale_frames: u64,
    /// Hellos refused for a region-parameter fingerprint mismatch.
    pub fp_mismatches: u64,
}

/// The coordinator's lease ledger and protocol logic.
#[derive(Debug)]
pub struct CoordCore {
    cfg: ClusterConfig,
    params_fp: u64,
    /// The cluster-wide cap vector, in units: what there is to lease.
    total: Vec<u64>,
    /// Unleased units per stage.
    pool: Vec<u64>,
    next_slot: u32,
    leases: BTreeMap<u32, Lease>,
    by_id: BTreeMap<u64, u32>,
    counters: CoordCounters,
}

impl CoordCore {
    /// A coordinator owning `total_units` of per-stage budget — the
    /// unit form of a cap vector chosen inside the feasible region
    /// (see `frap_core::lease::StageCaps::inscribed`) — tagged with the
    /// region-parameter fingerprint nodes must present.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the timing relations
    /// ([`ClusterConfig::validate`]) or `total_units` is empty.
    pub fn new(cfg: ClusterConfig, total_units: Vec<u64>, params_fp: u64) -> CoordCore {
        cfg.validate();
        assert!(!total_units.is_empty(), "need at least one stage");
        CoordCore {
            cfg,
            params_fp,
            pool: total_units.clone(),
            total: total_units,
            next_slot: 0,
            leases: BTreeMap::new(),
            by_id: BTreeMap::new(),
            counters: CoordCounters::default(),
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.total.len()
    }

    /// Unleased units per stage.
    pub fn pool_units(&self) -> &[u64] {
        &self.pool
    }

    /// The full budget per stage.
    pub fn total_units(&self) -> &[u64] {
        &self.total
    }

    /// Decision counters so far.
    pub fn counters(&self) -> CoordCounters {
        self.counters
    }

    /// Live (non-doomed) leases as `(node_id, slot, epoch)`.
    pub fn live_leases(&self) -> Vec<(u64, u32, u32)> {
        self.leases
            .iter()
            .filter(|(_, l)| l.doomed_since_us.is_none())
            .map(|(&slot, l)| (l.node_id, slot, l.epoch))
            .collect()
    }

    /// Total leases in the ledger, doomed ones included.
    pub fn lease_count(&self) -> usize {
        self.leases.len()
    }

    /// Handles any node-originated frame, returning the frames to send
    /// (each names its target slot). Unknown or irrelevant frames are
    /// ignored.
    pub fn handle(&mut self, now_us: u64, frame: &Frame) -> Vec<Frame> {
        match frame {
            Frame::NodeHello {
                node_id,
                incarnation,
                params_fp,
            } => self.on_node_hello(now_us, *node_id, *incarnation, *params_fp),
            Frame::LeaseReturn {
                node,
                epoch,
                returned_units,
            } => self.on_lease_return(now_us, *node, *epoch, returned_units),
            Frame::LeaseRequest {
                node,
                epoch,
                want_units,
            } => self.on_lease_request(now_us, *node, *epoch, want_units),
            _ => Vec::new(),
        }
    }

    /// Periodic sweep: dooms leases whose nodes have missed
    /// [`ClusterConfig::miss_limit`] beats, reclaims doomed leases
    /// whose grace period has run out. Call at least every
    /// [`ClusterConfig::heartbeat_us`].
    pub fn on_tick(&mut self, now_us: u64) -> Vec<Frame> {
        let mut reclaim = Vec::new();
        for (&slot, lease) in self.leases.iter_mut() {
            match lease.doomed_since_us {
                None if lease.liveness.is_dead(now_us) => {
                    lease.doomed_since_us = Some(now_us);
                    self.counters.dooms += 1;
                }
                Some(since) if now_us.saturating_sub(since) >= self.cfg.grace_us() => {
                    reclaim.push(slot);
                }
                _ => {}
            }
        }
        for slot in reclaim {
            let lease = self.leases.remove(&slot).expect("reclaim target");
            for j in 0..self.total.len() {
                self.pool[j] += lease.outstanding(j);
            }
            if self.by_id.get(&lease.node_id) == Some(&slot) {
                self.by_id.remove(&lease.node_id);
            }
            self.counters.reclaims += 1;
        }
        Vec::new()
    }

    fn on_node_hello(
        &mut self,
        now_us: u64,
        node_id: u64,
        incarnation: u64,
        params_fp: u64,
    ) -> Vec<Frame> {
        if params_fp != self.params_fp {
            self.counters.fp_mismatches += 1;
            return Vec::new();
        }
        if let Some(&slot) = self.by_id.get(&node_id) {
            let lease = self.leases.get_mut(&slot).expect("by_id points at lease");
            if lease.incarnation == incarnation {
                // A re-sent hello (the node's grant was lost): revive if
                // doomed, refresh liveness, and re-send the grant — it is
                // idempotent.
                self.note_alive(slot, now_us);
                let lease = &self.leases[&slot];
                self.counters.grants += 1;
                return vec![grant_frame(slot, lease)];
            }
            if lease.incarnation > incarnation {
                // A delayed duplicate from a dead incarnation.
                self.counters.stale_frames += 1;
                return Vec::new();
            }
            // Higher incarnation: the node discarded its old lease state
            // (restart or TTL expiry). Doom the old lease — its admitted
            // work may still be draining, so its outstanding units stay
            // reserved until the grace period ends — and register the new
            // incarnation against the remaining pool.
            lease.doomed_since_us.get_or_insert(now_us);
            lease.superseded = true;
            self.counters.dooms += 1;
            self.by_id.remove(&node_id);
        }
        self.register(now_us, node_id, incarnation)
    }

    fn register(&mut self, now_us: u64, node_id: u64, incarnation: u64) -> Vec<Frame> {
        let slot = self.next_slot;
        self.next_slot += 1;
        let stages = self.total.len();
        let mut issued = vec![0u64; stages];
        for (j, slot_issued) in issued.iter_mut().enumerate() {
            let grant = (self.total[j] / self.cfg.initial_div).min(self.pool[j]);
            self.pool[j] -= grant;
            *slot_issued = grant;
            self.counters.units_issued += grant;
        }
        let lease = Lease {
            node_id,
            epoch: slot,
            incarnation,
            issued,
            returned: vec![0; stages],
            liveness: MissCounter::new(self.cfg.heartbeat_us, self.cfg.miss_limit, now_us),
            doomed_since_us: None,
            superseded: false,
        };
        let frame = grant_frame(slot, &lease);
        self.leases.insert(slot, lease);
        self.by_id.insert(node_id, slot);
        self.counters.registrations += 1;
        self.counters.grants += 1;
        vec![frame]
    }

    /// A matching-epoch frame arrived: refresh liveness and cancel a
    /// pending doom — the node was slow, not dead. Superseded leases
    /// stay doomed: their node already registered a newer incarnation.
    fn note_alive(&mut self, slot: u32, now_us: u64) {
        let lease = self.leases.get_mut(&slot).expect("live slot");
        lease.liveness.heard(now_us);
        if lease.doomed_since_us.is_some() && !lease.superseded {
            lease.doomed_since_us = None;
            self.counters.revivals += 1;
        }
    }

    fn on_lease_return(
        &mut self,
        now_us: u64,
        slot: u32,
        epoch: u32,
        returned_units: &[u64],
    ) -> Vec<Frame> {
        let Some(lease) = self.leases.get_mut(&slot) else {
            self.counters.stale_frames += 1;
            return Vec::new();
        };
        if lease.epoch != epoch || returned_units.len() != lease.issued.len() {
            self.counters.stale_frames += 1;
            return Vec::new();
        }
        for (j, &returned) in returned_units.iter().enumerate() {
            // Clamp: a node can never return more than it was issued.
            let want = returned.min(lease.issued[j]);
            if want > lease.returned[j] {
                let credit = want - lease.returned[j];
                lease.returned[j] = want;
                self.pool[j] += credit;
                self.counters.units_returned += credit;
            }
        }
        self.note_alive(slot, now_us);
        let lease = &self.leases[&slot];
        self.counters.grants += 1;
        // The grant acks the return (and, being a response, refreshes
        // the node's lease TTL).
        vec![grant_frame(slot, lease)]
    }

    fn on_lease_request(
        &mut self,
        now_us: u64,
        slot: u32,
        epoch: u32,
        want_units: &[u64],
    ) -> Vec<Frame> {
        let Some(lease) = self.leases.get_mut(&slot) else {
            self.counters.stale_frames += 1;
            return Vec::new();
        };
        if lease.epoch != epoch || want_units.len() != lease.issued.len() {
            self.counters.stale_frames += 1;
            return Vec::new();
        }
        let stages = want_units.len();
        let mut short = vec![false; stages];
        let mut any_short = false;
        for j in 0..stages {
            // Idempotent: only the part of `want` above what is already
            // issued is new demand.
            let extra = want_units[j].saturating_sub(lease.issued[j]);
            let grant = extra.min(self.pool[j]);
            self.pool[j] -= grant;
            lease.issued[j] += grant;
            self.counters.units_issued += grant;
            if grant < extra {
                short[j] = true;
                any_short = true;
            }
        }
        self.note_alive(slot, now_us);
        let lease = &self.leases[&slot];
        let mut out = vec![grant_frame(slot, lease)];
        self.counters.grants += 1;

        if any_short {
            // Pool shortage: ask every *other* live lease to return half
            // its outstanding balance on the short stages. Nodes clamp to
            // what they have not spent, so over-asking is harmless.
            let requester = slot;
            let mut steals = Vec::new();
            for (&other, l) in self.leases.iter() {
                if other == requester || l.doomed_since_us.is_some() {
                    continue;
                }
                let mut want_returned = l.returned.clone();
                let mut asks = false;
                for j in 0..stages {
                    if short[j] && l.outstanding(j) > 0 {
                        want_returned[j] = l.returned[j] + l.outstanding(j).div_ceil(2);
                        asks = true;
                    }
                }
                if asks {
                    steals.push(Frame::LeaseSteal {
                        node: other,
                        epoch: l.epoch,
                        want_returned_units: want_returned,
                    });
                }
            }
            self.counters.steals += steals.len() as u64;
            out.extend(steals);
        }
        out
    }

    /// Asserts the conservation invariant:
    /// `pool[j] + Σ outstanding[j] == total[j]` for every stage, and
    /// `returned ≤ issued` pointwise for every lease.
    ///
    /// # Panics
    ///
    /// Panics on any violation — capacity leaked or double-counted.
    pub fn debug_conservation(&self) {
        for j in 0..self.total.len() {
            let mut sum = self.pool[j];
            for lease in self.leases.values() {
                assert!(
                    lease.returned[j] <= lease.issued[j],
                    "lease for node {} returned more than issued on stage {j}",
                    lease.node_id
                );
                sum += lease.outstanding(j);
            }
            assert_eq!(
                sum, self.total[j],
                "conservation broken on stage {j}: pool + outstanding = {sum}, total = {}",
                self.total[j]
            );
        }
    }
}

fn grant_frame(slot: u32, lease: &Lease) -> Frame {
    Frame::LeaseGrant {
        node: slot,
        epoch: lease.epoch,
        incarnation: lease.incarnation,
        issued_units: lease.issued.clone(),
        returned_units: lease.returned.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(total: &[u64]) -> CoordCore {
        CoordCore::new(ClusterConfig::default(), total.to_vec(), 0xFEED)
    }

    fn hello(node_id: u64, incarnation: u64) -> Frame {
        Frame::NodeHello {
            node_id,
            incarnation,
            params_fp: 0xFEED,
        }
    }

    fn grant_fields(f: &Frame) -> (u32, u32, Vec<u64>) {
        match f {
            Frame::LeaseGrant {
                node,
                epoch,
                issued_units,
                ..
            } => (*node, *epoch, issued_units.clone()),
            other => panic!("expected LeaseGrant, got {other:?}"),
        }
    }

    #[test]
    fn registration_grants_an_initial_slice() {
        let mut c = coord(&[400, 800]);
        let out = c.handle(0, &hello(7, 1));
        assert_eq!(out.len(), 1);
        let (slot, _, issued) = grant_fields(&out[0]);
        assert_eq!(issued, vec![100, 200]); // total / initial_div(4)
        assert_eq!(c.pool_units(), &[300, 600]);
        c.debug_conservation();

        // A duplicate hello re-sends the same grant without re-issuing.
        let again = c.handle(10, &hello(7, 1));
        let (slot2, _, issued2) = grant_fields(&again[0]);
        assert_eq!((slot, issued.clone()), (slot2, issued2));
        assert_eq!(c.pool_units(), &[300, 600]);
        c.debug_conservation();
    }

    #[test]
    fn request_grants_from_pool_and_duplicates_are_noops() {
        let mut c = coord(&[400]);
        let out = c.handle(0, &hello(1, 1));
        let (slot, epoch, issued) = grant_fields(&out[0]);
        assert_eq!(issued, vec![100]);

        let req = Frame::LeaseRequest {
            node: slot,
            epoch,
            want_units: vec![250],
        };
        let out = c.handle(1, &req);
        let (_, _, issued) = grant_fields(&out[0]);
        assert_eq!(issued, vec![250]);
        assert_eq!(c.pool_units(), &[150]);

        // Replay of the same request: want is already issued.
        let out = c.handle(2, &req);
        let (_, _, issued) = grant_fields(&out[0]);
        assert_eq!(issued, vec![250]);
        assert_eq!(c.pool_units(), &[150]);
        c.debug_conservation();
    }

    #[test]
    fn returns_credit_exactly_once_under_duplication() {
        let mut c = coord(&[400]);
        let out = c.handle(0, &hello(1, 1));
        let (slot, epoch, _) = grant_fields(&out[0]);

        let ret = Frame::LeaseReturn {
            node: slot,
            epoch,
            returned_units: vec![60],
        };
        c.handle(1, &ret);
        assert_eq!(c.pool_units(), &[360]);
        c.handle(2, &ret); // duplicate
        assert_eq!(c.pool_units(), &[360]);
        // An older cumulative value arriving late is also a no-op.
        c.handle(
            3,
            &Frame::LeaseReturn {
                node: slot,
                epoch,
                returned_units: vec![30],
            },
        );
        assert_eq!(c.pool_units(), &[360]);
        c.debug_conservation();
    }

    #[test]
    fn shortage_emits_steals_against_other_live_leases() {
        let mut c = coord(&[400]);
        let (slot_a, epoch_a, _) = grant_fields(&c.handle(0, &hello(1, 1))[0]);
        let (slot_b, epoch_b, _) = grant_fields(&c.handle(0, &hello(2, 1))[0]);
        assert_eq!(c.pool_units(), &[200]);

        // B wants far more than the pool holds.
        let out = c.handle(
            1,
            &Frame::LeaseRequest {
                node: slot_b,
                epoch: epoch_b,
                want_units: vec![1000],
            },
        );
        // Grant of what the pool had, plus a steal aimed at A.
        assert_eq!(c.pool_units(), &[0]);
        let steal = out
            .iter()
            .find_map(|f| match f {
                Frame::LeaseSteal {
                    node,
                    epoch,
                    want_returned_units,
                } => Some((*node, *epoch, want_returned_units.clone())),
                _ => None,
            })
            .expect("a steal frame");
        assert_eq!(steal.0, slot_a);
        assert_eq!(steal.1, epoch_a);
        assert_eq!(steal.2, vec![50]); // half of A's outstanding 100
        c.debug_conservation();
    }

    #[test]
    fn silence_dooms_then_reclaims_and_a_beat_revives() {
        let cfg = ClusterConfig::default();
        let dead_at = cfg.dead_after_us();
        let grace = cfg.grace_us();
        let mut c = coord(&[400]);
        let (slot, epoch, _) = grant_fields(&c.handle(0, &hello(1, 1))[0]);

        // Doomed after the miss limit, but the budget stays reserved.
        c.on_tick(dead_at);
        assert_eq!(c.counters().dooms, 1);
        assert_eq!(c.pool_units(), &[300]);
        c.debug_conservation();

        // A late beat with the live epoch revives the lease.
        c.handle(
            dead_at + 1,
            &Frame::LeaseReturn {
                node: slot,
                epoch,
                returned_units: vec![0],
            },
        );
        assert_eq!(c.counters().revivals, 1);

        // Silence again: doom, then reclaim after the grace period.
        let doom2 = dead_at + 1 + dead_at;
        c.on_tick(doom2);
        assert_eq!(c.counters().dooms, 2);
        c.on_tick(doom2 + grace);
        assert_eq!(c.counters().reclaims, 1);
        assert_eq!(c.pool_units(), &[400]);
        assert_eq!(c.lease_count(), 0);
        c.debug_conservation();

        // Frames from the reclaimed epoch are now stale.
        let out = c.handle(
            doom2 + grace + 1,
            &Frame::LeaseReturn {
                node: slot,
                epoch,
                returned_units: vec![10],
            },
        );
        assert!(out.is_empty());
        assert_eq!(c.pool_units(), &[400]);
    }

    #[test]
    fn higher_incarnation_supersedes_and_old_budget_returns_after_grace() {
        let cfg = ClusterConfig::default();
        let mut c = coord(&[400]);
        let (old_slot, old_epoch, _) = grant_fields(&c.handle(0, &hello(1, 1))[0]);

        // The node lost its lease (TTL) and re-hellos with a bumped
        // incarnation: new slot, new grant from the *remaining* pool.
        let out = c.handle(10, &hello(1, 2));
        let (new_slot, _, issued) = grant_fields(&out[0]);
        assert_ne!(old_slot, new_slot);
        assert_eq!(issued, vec![100]);
        assert_eq!(c.pool_units(), &[200]); // two slices out
        c.debug_conservation();

        // The superseded lease cannot be revived by a late beat…
        c.handle(
            11,
            &Frame::LeaseReturn {
                node: old_slot,
                epoch: old_epoch,
                returned_units: vec![0],
            },
        );
        assert_eq!(c.counters().revivals, 0);

        // …and its slice comes back once the grace period passes.
        c.on_tick(10 + cfg.grace_us());
        assert_eq!(c.counters().reclaims, 1);
        assert_eq!(c.pool_units(), &[300]);
        c.debug_conservation();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let mut c = coord(&[400]);
        let out = c.handle(
            0,
            &Frame::NodeHello {
                node_id: 1,
                incarnation: 1,
                params_fp: 0xBAD,
            },
        );
        assert!(out.is_empty());
        assert_eq!(c.counters().fp_mismatches, 1);
        assert_eq!(c.pool_units(), &[400]);
    }
}

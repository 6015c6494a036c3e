//! The node side of the lease protocol: a wallet of leased units that
//! backs a [`SharedStageCaps`] region, plus borrow-on-pressure,
//! return-on-idle and lease-TTL expiry.
//!
//! Mirroring the coordinator, all wallet state is cumulative and
//! monotone: `issued_view[j]` (pointwise-max merge of every
//! `LeaseGrant` seen this incarnation) and `returned_local[j]` (the
//! node's own authoritative return counter). The enforced cap is their
//! difference, so the node's cap can never exceed what the coordinator
//! still accounts as outstanding — a dropped, duplicated or reordered
//! frame can only make the node *poorer* than the ledger says, never
//! richer.
//!
//! Returning capacity follows a shrink-then-measure discipline:
//! lower the shared caps first, then read the service's utilization
//! from a write-stable snapshot, and give back whatever the reading
//! shows is actually still spent ([`NodeCore`] never returns units that
//! live admissions occupy). See `DESIGN.md` §13 for the full argument.

use frap_core::lease::UNIT_SCALE;
use frap_gateway::proto::Frame;

use crate::config::ClusterConfig;
use crate::shared_caps::SharedStageCaps;

/// Read-side hooks the lease layer needs from the admission service it
/// caps. Implemented for every `AdmissionService` over a
/// [`SharedStageCaps`] region (or any region).
pub trait SpentProbe {
    /// Lock-free utilization snapshot (approximate; pressure checks).
    fn utilizations(&self) -> Vec<f64>;
    /// Utilization read from a write-stable snapshot: a consistent cut
    /// no admission can race past (the return discipline).
    fn gated_utilizations(&self) -> Vec<f64>;
}

impl<R, M, C> SpentProbe for frap_service::AdmissionService<R, M, C>
where
    R: frap_core::region::RegionTest + Send + Sync + 'static,
    M: frap_core::admission::ContributionModel + Send + Sync + 'static,
    C: frap_service::Clock + 'static,
{
    fn utilizations(&self) -> Vec<f64> {
        self.utilizations()
    }
    fn gated_utilizations(&self) -> Vec<f64> {
        self.gated_utilizations()
    }
}

/// Utilization → whole units, rounding **up**: spent measurements must
/// never under-count what admissions occupy. Values within a hair of an
/// integer snap to it instead of ceiling away — the float product
/// `u × 10⁹` wobbles by ulps around exact unit counts, and that wobble
/// is orders of magnitude below the cap slack the region test already
/// absorbs.
fn spent_units_ceil(utilization: f64) -> u64 {
    if utilization.is_nan() || utilization <= 0.0 {
        return 0;
    }
    let v = utilization * UNIT_SCALE as f64;
    let nearest = v.round();
    if (v - nearest).abs() < 1e-6 {
        nearest as u64
    } else {
        v.ceil() as u64
    }
}

/// A live registration with the coordinator.
#[derive(Debug)]
struct Registration {
    slot: u32,
    epoch: u32,
    /// Pointwise-max merge of every grant's cumulative issue counters.
    issued_view: Vec<u64>,
    /// The node's cumulative returns this epoch. Monotone across
    /// frames: an intermediate value is never sent.
    returned_local: Vec<u64>,
}

/// Node-side event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// `NodeHello` frames sent.
    pub hellos: u64,
    /// Grants merged (including pure acks).
    pub grants_seen: u64,
    /// Borrow requests sent on pressure.
    pub borrows: u64,
    /// Return frames sent (beats, idle returns, steal responses).
    pub returns_sent: u64,
    /// Steal frames honored.
    pub steals_honored: u64,
    /// Lease TTL expiries (each bumps the incarnation).
    pub expiries: u64,
    /// Frames dropped as stale (wrong epoch/incarnation).
    pub stale_frames: u64,
}

/// The lease wallet driving one node's [`SharedStageCaps`].
///
/// Transport-agnostic and clock-agnostic: callers feed it decoded
/// frames and a monotone local time, and it returns frames to send to
/// the coordinator. The same core runs under the deterministic harness
/// (virtual time) and the TCP client (wall time).
#[derive(Debug)]
pub struct NodeCore {
    cfg: ClusterConfig,
    node_id: u64,
    params_fp: u64,
    stages: usize,
    caps: SharedStageCaps,
    incarnation: u64,
    reg: Option<Registration>,
    /// Last time a coordinator *response* frame arrived. Only response
    /// frames refresh it — an unsolicited steal proves nothing about
    /// whether the coordinator can still hear *us*, and the reclaim
    /// safety argument needs `last_contact ≤ coordinator's last-heard
    /// + max_delay` (see `DESIGN.md` §13).
    last_contact_us: u64,
    last_beat_us: u64,
    counters: NodeCounters,
}

impl NodeCore {
    /// A wallet for `node_id`, enforcing through `caps` (shared with
    /// the node's `AdmissionService`), presenting `params_fp` to the
    /// coordinator.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid ([`ClusterConfig::validate`]).
    pub fn new(
        cfg: ClusterConfig,
        node_id: u64,
        caps: SharedStageCaps,
        params_fp: u64,
    ) -> NodeCore {
        cfg.validate();
        caps.zero_all(); // admit nothing until granted
        NodeCore {
            cfg,
            node_id,
            params_fp,
            stages: caps.stages(),
            caps,
            incarnation: 1,
            reg: None,
            last_contact_us: 0,
            last_beat_us: 0,
            counters: NodeCounters::default(),
        }
    }

    /// Node identity.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Whether the node currently holds a live registration.
    pub fn registered(&self) -> bool {
        self.reg.is_some()
    }

    /// Current incarnation (bumps on every lease TTL expiry).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Event counters so far.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }

    /// The configured lease TTL, µs.
    pub(crate) fn lease_ttl_us(&self) -> u64 {
        self.cfg.lease_ttl_us
    }

    /// The shared caps handle this wallet drives.
    pub fn caps(&self) -> &SharedStageCaps {
        &self.caps
    }

    /// Periodic driver: lease-TTL expiry, hello retry, beats, pressure
    /// borrowing and idle returns. Call every
    /// [`ClusterConfig::heartbeat_us`] (or more often).
    pub fn on_tick(&mut self, now_us: u64, probe: &dyn SpentProbe) -> Vec<Frame> {
        let mut out = Vec::new();

        // Lease TTL: nothing heard for too long ⇒ stop admitting and
        // discard the lease. The bumped incarnation tells the
        // coordinator the old lease's holder is gone for good.
        if let Some(_reg) = &self.reg {
            if now_us.saturating_sub(self.last_contact_us) >= self.cfg.lease_ttl_us {
                self.caps.zero_all();
                self.reg = None;
                self.incarnation += 1;
                self.counters.expiries += 1;
            }
        }

        let Some(reg) = &self.reg else {
            // Unregistered: (re-)hello at the beat period.
            if now_us.saturating_sub(self.last_beat_us) >= self.cfg.heartbeat_us
                || self.counters.hellos == 0
            {
                self.last_beat_us = now_us;
                self.counters.hellos += 1;
                out.push(Frame::NodeHello {
                    node_id: self.node_id,
                    incarnation: self.incarnation,
                    params_fp: self.params_fp,
                });
            }
            return out;
        };

        let spent: Vec<u64> = probe
            .utilizations()
            .iter()
            .map(|&u| spent_units_ceil(u))
            .collect();

        // Borrow-on-pressure: ask for a chunk on any stage whose
        // unspent headroom is below the low-water mark.
        let mut want = reg.issued_view.clone();
        let mut pressured = false;
        for j in 0..self.stages {
            let cap = reg.issued_view[j] - reg.returned_local[j];
            if cap.saturating_sub(spent[j]) < self.cfg.low_water_units {
                want[j] = reg.issued_view[j] + self.cfg.borrow_chunk_units;
                pressured = true;
            }
        }
        if pressured {
            self.counters.borrows += 1;
            let (slot, epoch) = (reg.slot, reg.epoch);
            out.push(Frame::LeaseRequest {
                node: slot,
                epoch,
                want_units: want,
            });
        }

        // Return-on-idle: shed headroom above `spent + keep`, with a
        // borrow-chunk of hysteresis so borrow/return do not oscillate.
        let mut targets = reg.returned_local.clone();
        let mut idle = false;
        for j in 0..self.stages {
            let cap = reg.issued_view[j] - reg.returned_local[j];
            let headroom = cap.saturating_sub(spent[j]);
            let slack = self.cfg.keep_units + self.cfg.borrow_chunk_units;
            if headroom > slack {
                targets[j] = reg.returned_local[j] + (headroom - self.cfg.keep_units);
                idle = true;
            }
        }
        if idle && !pressured {
            if let Some(frame) = self.do_return(&targets, probe) {
                out.push(frame);
                self.last_beat_us = now_us;
                return out;
            }
        }

        // Beat: a cumulative return (possibly unchanged) at least every
        // heartbeat period, so the coordinator's miss counter stays
        // quiet and lost returns get retransmitted.
        if now_us.saturating_sub(self.last_beat_us) >= self.cfg.heartbeat_us {
            self.last_beat_us = now_us;
            let reg = self.reg.as_ref().expect("registered");
            self.counters.returns_sent += 1;
            out.push(Frame::LeaseReturn {
                node: reg.slot,
                epoch: reg.epoch,
                returned_units: reg.returned_local.clone(),
            });
        }
        out
    }

    /// Handles a coordinator frame, returning any responses.
    pub fn on_frame(&mut self, now_us: u64, frame: &Frame, probe: &dyn SpentProbe) -> Vec<Frame> {
        match frame {
            Frame::LeaseGrant {
                node,
                epoch,
                incarnation,
                issued_units,
                ..
            } => {
                self.on_grant(now_us, *node, *epoch, *incarnation, issued_units);
                Vec::new()
            }
            Frame::LeaseSteal {
                node,
                epoch,
                want_returned_units,
            } => self.on_steal(*node, *epoch, want_returned_units, probe),
            Frame::HeartbeatAck { .. } => {
                // A response to our probe: proves the coordinator heard
                // us, so it refreshes the lease TTL.
                self.last_contact_us = self.last_contact_us.max(now_us);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn on_grant(
        &mut self,
        now_us: u64,
        slot: u32,
        epoch: u32,
        incarnation: u64,
        issued_units: &[u64],
    ) {
        if incarnation != self.incarnation || issued_units.len() != self.stages {
            self.counters.stale_frames += 1;
            return;
        }
        self.counters.grants_seen += 1;
        match &mut self.reg {
            None => {
                // Adopt the registration. `returned_local` starts at
                // zero for a fresh epoch; the caps are exactly the
                // issued view. Utilization still draining from a prior
                // incarnation stays charged in the service, which makes
                // the node *more* conservative than its cap entitles —
                // never less.
                for (j, &u) in issued_units.iter().enumerate() {
                    self.caps.store(j, u);
                }
                self.reg = Some(Registration {
                    slot,
                    epoch,
                    issued_view: issued_units.to_vec(),
                    returned_local: vec![0; self.stages],
                });
            }
            Some(reg) => {
                if reg.epoch != epoch {
                    self.counters.stale_frames += 1;
                    return;
                }
                // Pointwise-max merge: duplicates and reorderings can
                // only fail to raise the view, never lower it.
                for (j, &issued) in issued_units.iter().enumerate() {
                    if issued > reg.issued_view[j] {
                        self.caps.add(j, issued - reg.issued_view[j]);
                        reg.issued_view[j] = issued;
                    }
                }
            }
        }
        // Grants are only ever sent as responses to our own frames, so
        // receiving one proves the coordinator recently heard us.
        self.last_contact_us = self.last_contact_us.max(now_us);
    }

    fn on_steal(
        &mut self,
        slot: u32,
        epoch: u32,
        want_returned: &[u64],
        probe: &dyn SpentProbe,
    ) -> Vec<Frame> {
        let stale = match &self.reg {
            Some(reg) => {
                reg.slot != slot || reg.epoch != epoch || want_returned.len() != self.stages
            }
            None => true,
        };
        if stale {
            self.counters.stale_frames += 1;
            return Vec::new();
        }
        // NOTE: deliberately no `last_contact` refresh — steals are
        // unsolicited.
        self.counters.steals_honored += 1;
        match self.do_return(want_returned, probe) {
            Some(frame) => vec![frame],
            None => Vec::new(),
        }
    }

    /// The shrink-then-measure return discipline. `targets` are desired
    /// cumulative return counters; they are clamped to
    /// `[returned_local, issued_view]`, applied to the shared caps
    /// *first*, and then the gated utilization read decides how much of
    /// the shrink must be handed back to cover admissions that raced
    /// in before the caps dropped. Returns the `LeaseReturn` to send,
    /// or `None` if nothing could be returned.
    fn do_return(&mut self, targets: &[u64], probe: &dyn SpentProbe) -> Option<Frame> {
        let reg = self.reg.as_mut()?;
        let mut applied = vec![0u64; self.stages];
        let mut changed = false;
        for j in 0..self.stages {
            let want = targets[j].clamp(reg.returned_local[j], reg.issued_view[j]);
            let delta = want - reg.returned_local[j];
            if delta == 0 {
                continue;
            }
            self.caps.sub_saturating(j, delta);
            reg.returned_local[j] = want;
            applied[j] = delta;
            changed = true;
        }
        if !changed {
            return None;
        }
        // Measure from a write-stable snapshot: every admission that could
        // have spent against the old, larger caps is visible in this read.
        let gated = probe.gated_utilizations();
        for j in 0..self.stages {
            if applied[j] == 0 {
                continue;
            }
            let spent = spent_units_ceil(gated[j]);
            let cap_now = reg.issued_view[j] - reg.returned_local[j];
            if spent > cap_now {
                // Hold back what live admissions still occupy. The
                // holdback never exceeds what this call shrank, so
                // `returned_local` stays ≥ every previously *sent*
                // value — cumulative monotonicity on the wire holds.
                let back = (spent - cap_now).min(applied[j]);
                self.caps.add(j, back);
                reg.returned_local[j] -= back;
            }
        }
        self.counters.returns_sent += 1;
        Some(Frame::LeaseReturn {
            node: reg.slot,
            epoch: reg.epoch,
            returned_units: reg.returned_local.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe with settable utilization, standing in for the service.
    struct FakeProbe(std::cell::RefCell<Vec<f64>>);

    impl FakeProbe {
        fn new(stages: usize) -> FakeProbe {
            FakeProbe(std::cell::RefCell::new(vec![0.0; stages]))
        }
        fn set(&self, u: &[f64]) {
            *self.0.borrow_mut() = u.to_vec();
        }
    }

    impl SpentProbe for FakeProbe {
        fn utilizations(&self) -> Vec<f64> {
            self.0.borrow().clone()
        }
        fn gated_utilizations(&self) -> Vec<f64> {
            self.0.borrow().clone()
        }
    }

    fn tight_cfg() -> ClusterConfig {
        ClusterConfig {
            heartbeat_us: 100,
            miss_limit: 4,
            lease_ttl_us: 300,
            max_delay_us: 50,
            max_deadline_us: 1_000,
            initial_div: 4,
            borrow_chunk_units: 100,
            low_water_units: 50,
            keep_units: 100,
        }
    }

    fn grant(slot: u32, epoch: u32, incarnation: u64, issued: &[u64]) -> Frame {
        Frame::LeaseGrant {
            node: slot,
            epoch,
            incarnation,
            issued_units: issued.to_vec(),
            returned_units: vec![0; issued.len()],
        }
    }

    #[test]
    fn hello_until_granted_then_caps_open() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);

        let out = node.on_tick(0, &probe);
        assert!(matches!(
            out[0],
            Frame::NodeHello {
                node_id: 7,
                incarnation: 1,
                ..
            }
        ));
        assert_eq!(caps.get(0), 0);

        node.on_frame(10, &grant(0, 0, 1, &[500]), &probe);
        assert!(node.registered());
        assert_eq!(caps.get(0), 500);

        // Duplicate grants and stale (older-view) grants change nothing.
        node.on_frame(11, &grant(0, 0, 1, &[500]), &probe);
        node.on_frame(12, &grant(0, 0, 1, &[400]), &probe);
        assert_eq!(caps.get(0), 500);
        // A larger view merges in.
        node.on_frame(13, &grant(0, 0, 1, &[650]), &probe);
        assert_eq!(caps.get(0), 650);
    }

    #[test]
    fn wrong_incarnation_grants_are_dropped() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);
        node.on_frame(10, &grant(0, 0, 9, &[500]), &probe);
        assert!(!node.registered());
        assert_eq!(caps.get(0), 0);
        assert_eq!(node.counters().stale_frames, 1);
    }

    #[test]
    fn ttl_expiry_zeroes_caps_and_bumps_incarnation() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);
        node.on_tick(0, &probe);
        node.on_frame(10, &grant(0, 0, 1, &[500]), &probe);

        // Silence past the TTL: the node stops admitting on its own.
        let out = node.on_tick(10 + 300, &probe);
        assert!(!node.registered());
        assert_eq!(caps.get(0), 0);
        assert_eq!(node.incarnation(), 2);
        // And immediately starts re-helloing with the new incarnation.
        assert!(matches!(out[0], Frame::NodeHello { incarnation: 2, .. }));
        // Old-incarnation grants arriving late are ignored.
        node.on_frame(320, &grant(0, 0, 1, &[500]), &probe);
        assert_eq!(caps.get(0), 0);
    }

    #[test]
    fn pressure_borrows_and_idle_returns() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);
        node.on_tick(0, &probe);
        node.on_frame(10, &grant(0, 0, 1, &[500]), &probe);

        // Spend most of the cap: headroom 20 < low-water 50 ⇒ borrow.
        probe.set(&[480e-9]);
        let out = node.on_tick(120, &probe);
        let req = out
            .iter()
            .find_map(|f| match f {
                Frame::LeaseRequest { want_units, .. } => Some(want_units.clone()),
                _ => None,
            })
            .expect("borrow request");
        assert_eq!(req, vec![600]); // issued 500 + chunk 100

        // Now nearly idle: headroom 450 > keep 100 + chunk 100 ⇒ return
        // down to spent + keep.
        probe.set(&[50e-9]);
        let out = node.on_tick(240, &probe);
        let ret = out
            .iter()
            .find_map(|f| match f {
                Frame::LeaseReturn { returned_units, .. } => Some(returned_units.clone()),
                _ => None,
            })
            .expect("idle return");
        assert_eq!(ret, vec![350]); // cap 500 → spent 50 + keep 100
        assert_eq!(caps.get(0), 150);
    }

    #[test]
    fn steals_are_honored_but_never_below_spent() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);
        node.on_tick(0, &probe);
        node.on_frame(10, &grant(0, 0, 1, &[500]), &probe);
        probe.set(&[300e-9]); // 300 units spent

        // Coordinator asks for cumulative returns of 400 — more than
        // the 200 unspent units. The holdback clamps the return.
        let out = node.on_frame(
            20,
            &Frame::LeaseSteal {
                node: 0,
                epoch: 0,
                want_returned_units: vec![400],
            },
            &probe,
        );
        let ret = out
            .iter()
            .find_map(|f| match f {
                Frame::LeaseReturn { returned_units, .. } => Some(returned_units.clone()),
                _ => None,
            })
            .expect("steal response");
        assert_eq!(ret, vec![200]); // only the unspent part
        assert_eq!(caps.get(0), 300); // exactly covers what is spent
    }

    #[test]
    fn steals_do_not_refresh_the_lease_ttl() {
        let caps = SharedStageCaps::new(1);
        let mut node = NodeCore::new(tight_cfg(), 7, caps.clone(), 0xFEED);
        let probe = FakeProbe::new(1);
        node.on_tick(0, &probe);
        node.on_frame(10, &grant(0, 0, 1, &[500]), &probe);

        // A steady stream of steals while the coordinator never answers
        // our own frames must not keep the lease alive.
        for t in [100u64, 200, 300] {
            node.on_frame(
                t,
                &Frame::LeaseSteal {
                    node: 0,
                    epoch: 0,
                    want_returned_units: vec![0],
                },
                &probe,
            );
        }
        node.on_tick(310, &probe); // 10 + ttl(300) reached
        assert!(!node.registered());
        assert_eq!(node.incarnation(), 2);
    }
}

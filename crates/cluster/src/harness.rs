//! Deterministic in-process message-passing simulation with link fault
//! injection.
//!
//! Every cluster behavior runs here before it runs on sockets: actors
//! exchange *encoded* frame bytes (so the real wire codec is exercised)
//! over links that can drop, duplicate, delay and reorder messages or
//! be partitioned outright — all under virtual time and a seeded RNG,
//! so a run is a pure function of `(actors, schedule, seed)`.
//!
//! Determinism guarantees:
//! - Virtual time is integer microseconds; simultaneous events are
//!   ordered by a global sequence number, so the event order is total.
//! - All randomness (fault rolls, delay jitter) flows from one
//!   [`frap_workload::Rng`] seeded at construction and consumed in
//!   event order; the simulation is single-threaded.
//! - No map with randomized iteration order holds harness-visible
//!   state (`BTreeMap`/`BTreeSet` only).
//! - [`Sim::fingerprint`] folds every processed event into an FNV-1a
//!   digest; two runs with the same seed produce the same digest, byte
//!   for byte — the determinism tests assert exactly this.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use frap_workload::Rng;

/// Index of an actor registered with [`Sim::add_actor`].
pub type ActorId = usize;

/// A deterministic participant: reacts to timers and messages, sends
/// through the [`Ctx`]. Implementations must not consult wall time or
/// any RNG other than [`Ctx::rng`].
pub trait Actor {
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer_id: u64);
    /// A message (encoded frame bytes) arrived from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, bytes: &[u8]);
}

/// The effects an actor may produce while handling an event.
enum Action {
    Send { to: ActorId, bytes: Vec<u8> },
    Timer { delay_us: u64, id: u64 },
}

/// Handed to an actor for the duration of one event.
pub struct Ctx<'a> {
    now_us: u64,
    me: ActorId,
    actions: &'a mut Vec<Action>,
    rng: &'a mut Rng,
}

impl Ctx<'_> {
    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The handling actor's own id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Queues `bytes` for delivery to `to`, subject to link faults.
    pub fn send(&mut self, to: ActorId, bytes: Vec<u8>) {
        self.actions.push(Action::Send { to, bytes });
    }

    /// Schedules `on_timer(timer_id)` on this actor after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, timer_id: u64) {
        self.actions.push(Action::Timer {
            delay_us,
            id: timer_id,
        });
    }

    /// The simulation's seeded RNG — the only legitimate randomness.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }
}

/// The fault model every directed link follows.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice (independent delays, so
    /// duplicates also reorder).
    pub dup_p: f64,
    /// Base one-way delay, µs.
    pub delay_us: u64,
    /// Uniform extra delay in `[0, jitter_us]`, µs. Jitter larger than
    /// the send spacing yields reordering.
    pub jitter_us: u64,
}

impl Default for LinkFaults {
    /// A fast, reliable link: 50 µs, no faults, 10 µs jitter.
    fn default() -> LinkFaults {
        LinkFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_us: 50,
            jitter_us: 10,
        }
    }
}

/// Message-flow counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages submitted by actors.
    pub sent: u64,
    /// Deliveries performed (duplicates count separately).
    pub delivered: u64,
    /// Messages lost to `drop_p` or a partition.
    pub dropped: u64,
    /// Extra copies scheduled by `dup_p`.
    pub duplicated: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

#[derive(Debug)]
enum EvKind {
    Deliver {
        to: ActorId,
        from: ActorId,
        bytes: Vec<u8>,
    },
    Timer {
        actor: ActorId,
        id: u64,
    },
}

#[derive(Debug)]
struct Ev {
    at_us: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Ev) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// The discrete-event simulator driving a set of [`Actor`]s.
pub struct Sim {
    now_us: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Ev>>,
    actors: Vec<Box<dyn Actor>>,
    default_link: LinkFaults,
    cut: BTreeSet<(ActorId, ActorId)>,
    rng: Rng,
    fp: u64,
    stats: SimStats,
}

impl Sim {
    /// A simulation seeded with `seed`; identical seeds (and identical
    /// actor/schedule construction) replay identical runs.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now_us: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            default_link: LinkFaults::default(),
            cut: BTreeSet::new(),
            rng: Rng::new(seed),
            fp: 0xcbf2_9ce4_8422_2325,
            stats: SimStats::default(),
        }
    }

    /// Registers an actor, returning its id (dense, starting at 0).
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Sets the fault model of every link.
    pub fn set_default_link(&mut self, faults: LinkFaults) {
        self.default_link = faults;
    }

    /// Severs both directions between `a` and `b`. Messages already in
    /// flight still arrive — they were in the network before the cut.
    pub fn partition(&mut self, a: ActorId, b: ActorId) {
        self.cut.insert((a, b));
        self.cut.insert((b, a));
    }

    /// Restores both directions between `a` and `b`.
    pub fn heal(&mut self, a: ActorId, b: ActorId) {
        self.cut.remove(&(a, b));
        self.cut.remove(&(b, a));
    }

    /// Restores every severed link.
    pub fn heal_all(&mut self) {
        self.cut.clear();
    }

    /// Schedules `on_timer(id)` on `actor` at absolute time `at_us` —
    /// how tests kick actors off and inject scripted events.
    pub fn schedule_timer(&mut self, actor: ActorId, at_us: u64, id: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Ev {
            at_us,
            seq,
            kind: EvKind::Timer { actor, id },
        }));
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Message-flow counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// FNV-1a digest of every event processed so far (kind, time,
    /// endpoints, payload bytes). Equal digests ⇒ the runs processed
    /// identical event sequences.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Processes the next event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at_us >= self.now_us, "time went backwards");
        self.now_us = ev.at_us;

        let mut actions = Vec::new();
        match ev.kind {
            EvKind::Timer { actor, id } => {
                self.fold(&[1, ev.at_us, actor as u64, id]);
                let mut ctx = Ctx {
                    now_us: ev.at_us,
                    me: actor,
                    actions: &mut actions,
                    rng: &mut self.rng,
                };
                self.actors[actor].on_timer(&mut ctx, id);
                self.apply(actor, actions);
            }
            EvKind::Deliver { to, from, bytes } => {
                self.fold(&[2, ev.at_us, from as u64, to as u64, fnv_bytes(&bytes)]);
                self.stats.delivered += 1;
                self.stats.bytes_delivered += bytes.len() as u64;
                let mut ctx = Ctx {
                    now_us: ev.at_us,
                    me: to,
                    actions: &mut actions,
                    rng: &mut self.rng,
                };
                self.actors[to].on_message(&mut ctx, from, &bytes);
                self.apply(to, actions);
            }
        }
        true
    }

    /// Runs every event up to and including virtual time `until_us`.
    pub fn run_until(&mut self, until_us: u64) {
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at_us > until_us {
                break;
            }
            self.step();
        }
        self.now_us = self.now_us.max(until_us);
    }

    fn apply(&mut self, me: ActorId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Timer { delay_us, id } => {
                    let seq = self.seq;
                    self.seq += 1;
                    self.queue.push(Reverse(Ev {
                        at_us: self.now_us + delay_us,
                        seq,
                        kind: EvKind::Timer { actor: me, id },
                    }));
                }
                Action::Send { to, bytes } => self.transmit(me, to, bytes),
            }
        }
    }

    fn transmit(&mut self, from: ActorId, to: ActorId, bytes: Vec<u8>) {
        self.stats.sent += 1;
        if self.cut.contains(&(from, to)) {
            self.stats.dropped += 1;
            return;
        }
        let faults = self.default_link.clone();
        if faults.drop_p > 0.0 && self.rng.next_f64() < faults.drop_p {
            self.stats.dropped += 1;
            return;
        }
        let copies = if faults.dup_p > 0.0 && self.rng.next_f64() < faults.dup_p {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let jitter = if faults.jitter_us > 0 {
                self.rng.range_u64(faults.jitter_us + 1)
            } else {
                0
            };
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Reverse(Ev {
                at_us: self.now_us + faults.delay_us + jitter,
                seq,
                kind: EvKind::Deliver {
                    to,
                    from,
                    bytes: bytes.clone(),
                },
            }));
        }
    }

    fn fold(&mut self, words: &[u64]) {
        for &w in words {
            self.fp = fnv_fold(self.fp, w);
        }
    }
}

fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type EchoLog = Rc<RefCell<Vec<(u64, ActorId, Vec<u8>)>>>;

    /// Echoes every message back and logs what it saw.
    struct Echo {
        log: EchoLog,
    }

    impl Actor for Echo {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: u64) {
            ctx.send(id as ActorId, vec![0xAB]);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, bytes: &[u8]) {
            self.log
                .borrow_mut()
                .push((ctx.now_us(), from, bytes.to_vec()));
            if bytes != [0xCD] {
                ctx.send(from, vec![0xCD]);
            }
        }
    }

    fn run(seed: u64, drop_p: f64) -> (u64, Vec<(u64, ActorId, Vec<u8>)>) {
        let mut sim = Sim::new(seed);
        sim.set_default_link(LinkFaults {
            drop_p,
            dup_p: 0.3,
            delay_us: 100,
            jitter_us: 200,
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        let b = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        // Each pings the other a few times.
        for i in 0..10 {
            sim.schedule_timer(a, i * 50, b as u64);
            sim.schedule_timer(b, i * 70, a as u64);
        }
        sim.run_until(100_000);
        let out = log.borrow().clone();
        (sim.fingerprint(), out)
    }

    #[test]
    fn same_seed_same_run_bit_for_bit() {
        let (fp1, log1) = run(42, 0.2);
        let (fp2, log2) = run(42, 0.2);
        assert_eq!(fp1, fp2);
        assert_eq!(log1, log2);
    }

    #[test]
    fn different_seeds_diverge() {
        let (fp1, _) = run(42, 0.2);
        let (fp2, _) = run(43, 0.2);
        assert_ne!(
            fp1, fp2,
            "two seeds producing identical runs is astronomically unlikely"
        );
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut sim = Sim::new(7);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        let b = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        sim.partition(a, b);
        sim.schedule_timer(a, 0, b as u64);
        sim.run_until(10_000);
        assert!(log.borrow().is_empty());
        assert_eq!(sim.stats().dropped, 1);

        sim.heal(a, b);
        sim.schedule_timer(a, 20_000, b as u64);
        sim.run_until(30_000);
        assert!(!log.borrow().is_empty());
    }

    #[test]
    fn duplicates_are_counted_and_delivered() {
        let mut sim = Sim::new(1);
        sim.set_default_link(LinkFaults {
            dup_p: 1.0,
            ..LinkFaults::default()
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        let b = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
        }));
        sim.schedule_timer(a, 0, b as u64);
        sim.run_until(10_000);
        // b got the ping twice; each ping echoes, each echo duplicates…
        assert!(sim.stats().duplicated >= 1);
        let b_received = log.borrow().iter().filter(|(_, f, _)| *f == a).count();
        assert_eq!(b_received, 2);
    }
}

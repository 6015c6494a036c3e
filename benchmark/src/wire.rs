//! Driving a gateway over loopback TCP: the request catalog, the verdict
//! tally (what counts as a failure), the closed-loop repetition and the
//! open-loop rung. Shared by the `gw_*` and `cluster_shift` workloads.
//!
//! Only `frap_gateway`'s public client is used; the generator is one
//! thread.

use crate::env;
use crate::openloop::{OpenLoop, Schedule};
use crate::stats::{LatencySummary, Recorder};
use crate::trace::{Tracing, ROOT};
use frap_core::graph::TaskSpec;
use frap_core::wire::WireTaskSpec;
use frap_gateway::client::{GatewayClient, PreparedAdmit};
use frap_gateway::proto::Verdict;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Pre-generated requests: the hot loop stamps ids and expiries into
/// interned frames, so it measures the gateway and not the generator.
pub struct Catalog {
    pub specs: Vec<TaskSpec>,
    pub wire: Vec<WireTaskSpec>,
    pub prepared: Vec<PreparedAdmit>,
}

impl Catalog {
    pub fn from_specs(specs: Vec<TaskSpec>) -> Catalog {
        let wire: Vec<WireTaskSpec> = specs
            .iter()
            .map(|s| WireTaskSpec::from_spec(s).expect("pipeline-shaped task"))
            .collect();
        let prepared = wire.iter().map(|w| PreparedAdmit::new(w, false)).collect();
        Catalog {
            specs,
            wire,
            prepared,
        }
    }

    pub fn len(&self) -> usize {
        self.wire.len()
    }
}

/// Client-side counts for one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Requests written to the socket.
    pub sent: u64,
    /// Replies read.
    pub answered: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// `Expired` verdicts: the request died in transit.
    pub expired: u64,
    /// Replies whose id was not the oldest outstanding request's.
    pub out_of_order: u64,
    pub shed_events: u64,
    pub releases_sent: u64,
    /// Requests that were due but never sent.
    pub unsent: u64,
}

impl Tally {
    /// Absorbs one reply for the oldest outstanding request `expected`.
    /// Returns the ticket to release, if it admitted.
    pub fn absorb(&mut self, expected: u64, got: (u64, Verdict)) -> Option<u64> {
        self.answered += 1;
        if got.0 != expected {
            self.out_of_order += 1;
        }
        match got.1 {
            Verdict::Admitted { ticket_id } => {
                self.admitted += 1;
                Some(ticket_id)
            }
            Verdict::AdmittedAfterShedding { ticket_id, shed } => {
                self.admitted += 1;
                self.shed_events += u64::from(shed);
                Some(ticket_id)
            }
            Verdict::Rejected => {
                self.rejected += 1;
                None
            }
            Verdict::Expired => {
                self.expired += 1;
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.sent + self.unsent
    }

    /// Unanswered or out-of-order replies, `Expired` verdicts and
    /// requests the generator could not send. `Rejected` is the product
    /// working, not a failure.
    pub fn failed(&self) -> u64 {
        (self.sent - self.answered) + self.out_of_order + self.expired + self.unsent
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.out_of_order += other.out_of_order;
        self.shed_events += other.shed_events;
        self.releases_sent += other.releases_sent;
        self.unsent += other.unsent;
    }
}

/// Span names of the generator loop, interned once per traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopSpans {
    pub batch: u16,
    pub encode: u16,
    pub flush: u16,
    pub recv: u16,
    pub absorb: u16,
}

impl LoopSpans {
    pub const BATCH: &'static str = "bench.batch";
    pub const ENCODE: &'static str = "gateway.encode_req";
    pub const FLUSH: &'static str = "gateway.client_flush";
    pub const RECV: &'static str = "gateway.client_recv";
    pub const ABSORB: &'static str = "bench.absorb";

    pub fn intern(tracer: &mut crate::trace::Tracer) -> LoopSpans {
        LoopSpans {
            batch: tracer.name(Self::BATCH),
            encode: tracer.name(Self::ENCODE),
            flush: tracer.name(Self::FLUSH),
            recv: tracer.name(Self::RECV),
            absorb: tracer.name(Self::ABSORB),
        }
    }
}

/// How long after it is sent a request may reach the front of the
/// server's pipeline and still be decided rather than answered `Expired`.
/// `gateway-loadgen` allows half the task's deadline; for 3–9 ms deadlines
/// that is less than one hypervisor stall on the reference box (runs
/// showed stray `Expired` verdicts with 1.5 ms and still with 15 ms of
/// slack), and an `Expired` verdict is a failure here. A quarter of a
/// second is past any stall seen, so `Expired` means something broke.
pub const TRANSPORT_BUDGET_US: u64 = 250_000;

/// One closed-loop repetition's outcome.
#[derive(Debug, Clone)]
pub struct ClosedRep {
    pub tally: Tally,
    pub wall_s: f64,
    /// Process CPU (generator and in-process server) over the repetition.
    pub cpu_ns: u64,
    /// The generator thread's share of it.
    pub gen_cpu_ns: u64,
}

impl ClosedRep {
    pub fn decisions_per_s(&self) -> f64 {
        self.tally.answered as f64 / self.wall_s
    }

    pub fn cpu_ns_per_decision(&self) -> f64 {
        self.cpu_ns as f64 / self.tally.answered.max(1) as f64
    }
}

/// Closed loop: one connection keeps `window` requests in flight and
/// sends the next only as replies arrive. With `release`, every admitted
/// ticket is released by a `Release` frame as soon as its verdict is
/// read. Runs for `duration`, then collects every outstanding reply.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<T: Tracing>(
    client: &mut GatewayClient,
    catalog: &Catalog,
    next: &mut usize,
    window: usize,
    duration: Duration,
    release: bool,
    tracer: &mut T,
    spans: LoopSpans,
) -> std::io::Result<ClosedRep> {
    let mut inflight: VecDeque<u64> = VecDeque::with_capacity(window);
    let mut verdicts: Vec<(u64, Verdict)> = Vec::with_capacity(window);
    let mut tally = Tally::default();
    let cpu_start = env::process_cpu_ns();
    let gen_cpu_start = env::thread_cpu_ns();
    let started = Instant::now();
    let mut batch = 0u64;
    let mut stopping = false;

    loop {
        let root = tracer.begin(spans.batch, ROOT, batch);
        if !stopping {
            // One clock read stamps the whole fill: the requests leave in
            // one flush.
            let s = tracer.begin(spans.encode, root, batch);
            let now_us = client.server_now_us();
            let queued_at = Instant::now();
            if queued_at.duration_since(started) >= duration {
                stopping = true;
            } else {
                while inflight.len() < window {
                    let i = *next % catalog.len();
                    *next += 1;
                    let expires = now_us.saturating_add(TRANSPORT_BUDGET_US);
                    let id = client.queue_admit_prepared(&catalog.prepared[i], expires);
                    inflight.push_back(id);
                    tally.sent += 1;
                }
            }
            tracer.end(s);
        }
        let s = tracer.begin(spans.flush, root, batch);
        client.flush()?;
        tracer.end(s);
        if inflight.is_empty() {
            tracer.end(root);
            break;
        }
        let s = tracer.begin(spans.recv, root, batch);
        verdicts.clear();
        client.recv_admits_into(&mut verdicts)?;
        tracer.end(s);
        let s = tracer.begin(spans.absorb, root, batch);
        for &got in &verdicts {
            let Some(id) = inflight.pop_front() else {
                tally.answered += 1;
                tally.out_of_order += 1;
                continue;
            };
            if let Some(ticket) = tally.absorb(id, got) {
                if release {
                    client.queue_release(ticket);
                    tally.releases_sent += 1;
                }
            }
        }
        tracer.end(s);
        tracer.end(root);
        batch += 1;
    }
    Ok(ClosedRep {
        tally,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: env::process_cpu_ns().saturating_sub(cpu_start),
        gen_cpu_ns: env::thread_cpu_ns().saturating_sub(gen_cpu_start),
    })
}

/// The latency limit a rung must meet to count towards
/// `max_rate_within_limit`.
pub const RTT_P99_LIMIT_US: f64 = 250.0;
/// How late the generator itself may run (p99) before a rung says more
/// about the generator than about the system.
pub const LATENESS_P99_LIMIT_US: f64 = 100.0;
/// Requests in flight per connection before the open-loop generator
/// holds further due requests back (they stay timed from their due
/// instant). Far above anything a healthy rung reaches; it only keeps a
/// stalled server from wedging both sides on full socket buffers.
pub const OPEN_INFLIGHT_CAP: usize = 4096;
/// A rung's latency percentiles are the median over this many
/// consecutive windows of the rung (see `Recorder::windowed_summary`).
pub const LATENCY_WINDOWS: usize = 32;
/// Largest burst written per flush.
const OPEN_BURST: u64 = 256;

/// One open-loop rung's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: f64,
    pub tally: Tally,
    /// From each request's **due** time to its reply.
    pub rtt: LatencySummary,
    /// Send time minus due time.
    pub lateness: LatencySummary,
    pub backlog_end: u64,
    pub backlog_growing: bool,
    pub wall_s: f64,
    pub cpu_ns: u64,
}

impl Rung {
    /// `rtt_p99 ≤ 250 µs`, no `Expired`, generator lateness p99 ≤ 100 µs,
    /// everything due was sent and answered, and the backlog is not
    /// growing.
    pub fn within_limit(&self) -> bool {
        self.rtt.p99_ns as f64 / 1e3 <= RTT_P99_LIMIT_US
            && self.lateness.p99_ns as f64 / 1e3 <= LATENESS_P99_LIMIT_US
            && self.tally.failed() == 0
            && !self.backlog_growing
    }

    pub fn answered_per_s(&self) -> f64 {
        self.tally.answered as f64 / self.wall_s
    }
}

/// Open loop on a fixed schedule: request `i` is due at `i / rate`
/// whatever the system is doing, and is timed from that instant.
/// `recorders` are the ladder's `[rtt, lateness]` sample buffers, reused
/// from rung to rung (see [`OpenLoop::reusing`]).
pub fn open_loop_rung(
    client: &mut GatewayClient,
    catalog: &Catalog,
    next: &mut usize,
    rate: f64,
    duration: Duration,
    release: bool,
    recorders: &mut [Recorder; 2],
) -> std::io::Result<Rung> {
    let dur_ns = duration.as_nanos() as u64;
    let mut ol = OpenLoop::reusing(Schedule::new(rate, dur_ns), std::mem::take(recorders));
    let total = ol.schedule.total();
    let mut ids: VecDeque<u64> = VecDeque::with_capacity(OPEN_INFLIGHT_CAP);
    let mut verdicts: Vec<(u64, Verdict)> = Vec::with_capacity(OPEN_INFLIGHT_CAP);
    let mut tally = Tally::default();
    let mut backlog_end = None;
    let cpu_start = env::process_cpu_ns();
    let started = Instant::now();

    loop {
        let now = started.elapsed().as_nanos() as u64;
        // Past the end of the schedule nothing new is sent: what is left
        // was due and could not be sent.
        let open = now < dur_ns + dur_ns / 20;
        if backlog_end.is_none() && (now >= dur_ns || ol.sent() == total) {
            backlog_end = Some(ol.backlog(now));
        }
        let burst = if open {
            ol.sendable(now, OPEN_INFLIGHT_CAP).min(OPEN_BURST)
        } else {
            0
        };
        if burst > 0 {
            let now_us = client.server_now_us();
            for _ in 0..burst {
                let i = *next % catalog.len();
                *next += 1;
                let expires = now_us.saturating_add(TRANSPORT_BUDGET_US);
                ids.push_back(client.queue_admit_prepared(&catalog.prepared[i], expires));
                ol.on_send(now);
            }
            client.flush()?;
        }
        if ol.inflight() > 0 {
            verdicts.clear();
            client.recv_admits_into(&mut verdicts)?;
            let now = started.elapsed().as_nanos() as u64;
            for &got in &verdicts {
                let expected = ids.pop_front();
                if !ol.on_reply(now) || expected.is_none() {
                    tally.answered += 1;
                    tally.out_of_order += 1;
                    continue;
                }
                if let Some(ticket) = tally.absorb(expected.expect("checked"), got) {
                    if release {
                        client.queue_release(ticket);
                        tally.releases_sent += 1;
                    }
                }
            }
        } else if !open || ol.sent() == total {
            break;
        } else {
            std::hint::spin_loop();
        }
    }
    client.flush()?;
    tally.sent = ol.sent();
    tally.unsent = ol.unsent();
    let backlog_end = backlog_end.unwrap_or(0);
    let rung = Rung {
        rate,
        tally,
        rtt: ol.rtt.windowed_summary(LATENCY_WINDOWS),
        lateness: ol.lateness.windowed_summary(LATENCY_WINDOWS),
        backlog_end,
        backlog_growing: ol.backlog_growing(backlog_end),
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: env::process_cpu_ns().saturating_sub(cpu_start),
    };
    *recorders = [ol.rtt, ol.lateness];
    Ok(rung)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_is_not_a_failure_but_expired_is() {
        let mut t = Tally {
            sent: 4,
            ..Tally::default()
        };
        assert_eq!(t.absorb(1, (1, Verdict::Rejected)), None);
        assert_eq!(
            t.absorb(2, (2, Verdict::Admitted { ticket_id: 9 })),
            Some(9)
        );
        assert_eq!(
            t.absorb(
                3,
                (
                    3,
                    Verdict::AdmittedAfterShedding {
                        ticket_id: 10,
                        shed: 2
                    }
                )
            ),
            Some(10)
        );
        assert_eq!(t.failed(), 1, "only the unanswered fourth request so far");
        assert_eq!(t.absorb(4, (4, Verdict::Expired)), None);
        assert_eq!(
            (t.admitted, t.rejected, t.expired, t.shed_events),
            (2, 1, 1, 2)
        );
        assert_eq!(
            t.failed(),
            1,
            "the Expired verdict; the rejection is the product"
        );
        assert_eq!(t.attempted(), 4);
    }

    #[test]
    fn unanswered_out_of_order_and_unsent_are_failures() {
        let mut t = Tally {
            sent: 3,
            unsent: 2,
            ..Tally::default()
        };
        // Reply for request 2 arrives while 1 is the oldest outstanding.
        t.absorb(1, (2, Verdict::Rejected));
        assert_eq!(t.out_of_order, 1);
        // sent 3, answered 1: two unanswered; plus one out of order; plus
        // two the generator could not send.
        assert_eq!(t.failed(), 2 + 1 + 2);
        assert_eq!(t.attempted(), 5);

        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&t);
        assert_eq!(sum.failed(), 10);
    }
}

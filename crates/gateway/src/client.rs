//! A blocking, pipelining client for the gateway protocol.
//!
//! The client is intentionally simple: one `TcpStream`, explicit
//! [`flush`](GatewayClient::flush), and FIFO responses. Requests queued
//! with [`queue_admit`](GatewayClient::queue_admit) are answered in
//! order, so callers that pipeline keep a queue of request ids on their
//! side (`loopback_throughput_clears_the_floor` in
//! `tests/end_to_end.rs` shows the pattern).
//! The client knows no byte offset of the wire format: it encodes,
//! re-stamps ([`PreparedAdmit`]) and decodes through [`crate::proto`].
//!
//! ## Clock translation
//!
//! Admission deadlines are *server-clock* instants. At handshake the
//! server reports its current clock reading; the client remembers the
//! offset between that and its own monotonic epoch and stamps every
//! request with `expires_at_us` already translated into server time.
//! This keeps the deadline-aware timeout check on the server a single
//! integer comparison, and tolerates client/server clock domains that
//! share only a rate (both sides are monotonic microsecond counters).

use crate::proto::{
    admit_request_frame_len, stamp_admit_request, DrainedAdmit, Frame, FrameBuffer, Hello,
    HelloAck, ProtoError, StatsReport, Verdict, HELLO_ACK_LEN, VERSION,
};
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

fn proto_err(e: ProtoError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// An admission request pre-encoded to its full wire form, with the
/// request id and expiry left as placeholders for
/// [`GatewayClient::queue_admit_prepared`] to stamp. Build one per
/// distinct task shape and reuse it for every request of that shape.
#[derive(Debug, Clone)]
pub struct PreparedAdmit {
    bytes: Vec<u8>,
}

impl PreparedAdmit {
    /// Pre-encodes `task` (with `allow_shed`) as a complete admit
    /// request frame. Byte-for-byte identical to what
    /// [`GatewayClient::queue_admit_at`] appends once the id and expiry
    /// are stamped — a unit test pins the identity.
    pub fn new(task: &WireTaskSpec, allow_shed: bool) -> PreparedAdmit {
        let mut bytes = Vec::with_capacity(admit_request_frame_len(task.stage_demands_us.len()));
        Frame::encode_admit_request_into(0, 0, allow_shed, task, &mut bytes);
        PreparedAdmit { bytes }
    }

    /// The interned frame bytes (request id and expiry zeroed).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A connected gateway client.
///
/// Dropping the client closes the connection; the server then releases
/// any tickets that were admitted on it and never released — an abrupt
/// disconnect cannot leak capacity.
#[derive(Debug)]
pub struct GatewayClient {
    stream: TcpStream,
    inbox: FrameBuffer,
    outbox: Vec<u8>,
    epoch: Instant,
    /// Server clock reading at our epoch, in microseconds.
    server_epoch_us: u64,
    window: u16,
    next_req_id: u64,
}

impl GatewayClient {
    /// Connects, performs the version handshake, and records the server
    /// clock offset.
    ///
    /// # Errors
    ///
    /// Fails on connect/handshake I/O errors or a malformed/mismatched
    /// handshake reply.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<GatewayClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let before = Instant::now();
        stream.write_all(&Hello { version: VERSION }.encode())?;
        let mut ack = [0u8; HELLO_ACK_LEN];
        stream.read_exact(&mut ack)?;
        let epoch = Instant::now();
        let ack = HelloAck::decode(&ack).map_err(proto_err)?;
        // The server stamped its clock somewhere between our send and
        // receive; splitting the difference halves the worst-case skew.
        let half_rtt_us = (epoch - before).as_micros() as u64 / 2;
        Ok(GatewayClient {
            stream,
            inbox: FrameBuffer::new(),
            outbox: Vec::new(),
            epoch,
            server_epoch_us: ack.server_now_us.saturating_add(half_rtt_us),
            window: ack.window,
            next_req_id: 1,
        })
    }

    /// The in-flight window the server advertised at handshake.
    pub fn window(&self) -> u16 {
        self.window
    }

    /// The server-clock reading corresponding to "now", in microseconds.
    pub fn server_now_us(&self) -> u64 {
        self.server_epoch_us
            .saturating_add(self.epoch.elapsed().as_micros() as u64)
    }

    /// Queues an admission request without flushing. Returns the request
    /// id; the response for it arrives in FIFO order.
    ///
    /// `transport_budget` is how much of the task's deadline may be spent
    /// getting the request to the front of the server's pipeline; past
    /// that instant the server answers [`Verdict::Expired`] without
    /// running the admission test.
    pub fn queue_admit(
        &mut self,
        task: &WireTaskSpec,
        transport_budget: TimeDelta,
        allow_shed: bool,
    ) -> u64 {
        let expires_at_us = self
            .server_now_us()
            .saturating_add(transport_budget.as_micros());
        self.queue_admit_at(task, expires_at_us, allow_shed)
    }

    /// [`queue_admit`](GatewayClient::queue_admit) with the expiry
    /// already translated to a server-clock instant. A pipelining caller
    /// filling a whole window reads
    /// [`server_now_us`](GatewayClient::server_now_us) once and derives
    /// every expiry from it, instead of paying a clock read per queued
    /// request — the requests leave in one flush, so one timestamp is
    /// also the more honest arrival model.
    pub fn queue_admit_at(
        &mut self,
        task: &WireTaskSpec,
        expires_at_us: u64,
        allow_shed: bool,
    ) -> u64 {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        Frame::encode_admit_request_into(req_id, expires_at_us, allow_shed, task, &mut self.outbox);
        req_id
    }

    /// Queues a pre-encoded admission request: one `memcpy` of the
    /// interned frame, into which [`crate::proto`] stamps the request id
    /// and expiry, instead of encoding the task again. The send-side
    /// counterpart of the server's interned response templates — a
    /// pipelining caller that cycles through a fixed catalog of task
    /// shapes touches each request's bytes exactly once.
    pub fn queue_admit_prepared(&mut self, prepared: &PreparedAdmit, expires_at_us: u64) -> u64 {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let at = self.outbox.len();
        self.outbox.extend_from_slice(&prepared.bytes);
        stamp_admit_request(&mut self.outbox[at..], req_id, expires_at_us);
        req_id
    }

    /// Queues a ticket release without flushing. Releases have no reply.
    pub fn queue_release(&mut self, ticket_id: u64) {
        Frame::Release { ticket_id }.encode_into(&mut self.outbox);
    }

    /// Writes every queued frame to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.outbox.is_empty() {
            self.stream.write_all(&self.outbox)?;
            self.outbox.clear();
        }
        Ok(())
    }

    /// Blocks until the next frame arrives.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, EOF, or a malformed frame.
    fn recv_frame(&mut self) -> std::io::Result<Frame> {
        loop {
            if let Some(frame) = self.inbox.next_frame().map_err(proto_err)? {
                return Ok(frame);
            }
            if self.inbox.read_from(&mut self.stream)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "gateway closed the connection",
                ));
            }
        }
    }

    /// Blocks until the next admit response arrives, returning
    /// `(req_id, verdict)`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or if a non-admit frame arrives first.
    pub fn recv_admit(&mut self) -> std::io::Result<(u64, Verdict)> {
        match self.recv_frame()? {
            Frame::AdmitResponse { req_id, verdict } => Ok((req_id, verdict)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected an admit response, got {other:?}"),
            )),
        }
    }

    /// Drains admit responses in a batch: blocks until at least one
    /// arrives, then appends every admit response already buffered or
    /// readable without further blocking, as `(req_id, verdict)` pairs in
    /// FIFO order. Returns how many were appended.
    ///
    /// This is the receive-side mirror of request pipelining: a client
    /// that keeps a window in flight pays one `read()` for a whole
    /// window's worth of verdicts instead of one per decision.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, EOF, a malformed frame, or a non-admit
    /// frame arriving interleaved (heartbeats and stats have their own
    /// round trips, [`GatewayClient::heartbeat`] and
    /// [`GatewayClient::stats`]).
    pub fn recv_admits_into(&mut self, out: &mut Vec<(u64, Verdict)>) -> std::io::Result<usize> {
        let before = out.len();
        loop {
            loop {
                match self.inbox.next_admit_response().map_err(proto_err)? {
                    DrainedAdmit::Admit { req_id, verdict } => out.push((req_id, verdict)),
                    DrainedAdmit::Pending => break,
                    DrainedAdmit::Other(other) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("expected an admit response, got {other:?}"),
                        ))
                    }
                }
            }
            if out.len() > before {
                return Ok(out.len() - before);
            }
            if self.inbox.read_from(&mut self.stream)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "gateway closed the connection",
                ));
            }
        }
    }

    /// Synchronous admit: queue, flush, wait for the verdict.
    ///
    /// # Errors
    ///
    /// Propagates I/O and protocol errors.
    pub fn admit(
        &mut self,
        task: &WireTaskSpec,
        transport_budget: TimeDelta,
        allow_shed: bool,
    ) -> std::io::Result<Verdict> {
        let req_id = self.queue_admit(task, transport_budget, allow_shed);
        self.flush()?;
        let (got, verdict) = self.recv_admit()?;
        if got != req_id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "admit response out of order",
            ));
        }
        Ok(verdict)
    }

    /// Synchronous release of an admitted ticket.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn release(&mut self, ticket_id: u64) -> std::io::Result<()> {
        self.queue_release(ticket_id);
        self.flush()
    }

    /// Round-trips a heartbeat, returning the measured round-trip time.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected reply frame.
    pub fn heartbeat(&mut self) -> std::io::Result<std::time::Duration> {
        let nonce = self.next_req_id;
        self.next_req_id += 1;
        let start = Instant::now();
        Frame::Heartbeat { nonce }.encode_into(&mut self.outbox);
        self.flush()?;
        match self.recv_frame()? {
            Frame::HeartbeatAck { nonce: got } if got == nonce => Ok(start.elapsed()),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a heartbeat ack, got {other:?}"),
            )),
        }
    }

    /// Fetches the server's admission counters and per-stage utilization.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected reply frame.
    pub fn stats(&mut self) -> std::io::Result<StatsReport> {
        Frame::StatsRequest.encode_into(&mut self.outbox);
        self.flush()?;
        match self.recv_frame()? {
            Frame::StatsResponse(report) => Ok(report),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a stats response, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_admit_stamp_matches_field_serialization() {
        // `queue_admit_prepared` copies the interned frame and has
        // `proto` overwrite the req_id and expiry in place; the result
        // must be byte-for-byte what `queue_admit_at` encodes from the
        // fields.
        for allow_shed in [false, true] {
            let task = WireTaskSpec {
                deadline_us: 30_000,
                stage_demands_us: vec![9_400, 11_200, 8_700],
                importance: 3,
            };
            let prepared = PreparedAdmit::new(&task, allow_shed);
            // Reserved up front: the frame is built in one allocation.
            assert_eq!(prepared.bytes.capacity(), prepared.bytes().len());
            for (req_id, expires_at_us) in [(0u64, 0u64), (1, u64::MAX), (0xDEAD_BEEF, 123_456_789)]
            {
                let mut direct = Vec::new();
                Frame::encode_admit_request_into(
                    req_id,
                    expires_at_us,
                    allow_shed,
                    &task,
                    &mut direct,
                );
                let mut stamped = prepared.bytes().to_vec();
                stamp_admit_request(&mut stamped, req_id, expires_at_us);
                assert_eq!(stamped, direct, "allow_shed={allow_shed}");
            }
        }
    }
}

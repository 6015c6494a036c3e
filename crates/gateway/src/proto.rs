//! The gateway's versioned, length-prefixed binary wire protocol.
//!
//! # Connection preamble
//!
//! A connection starts with a fixed-size handshake, before any framing:
//!
//! ```text
//! client → server   Hello      magic:u32  version:u16  reserved:u16      (8 bytes)
//! server → client   HelloAck   magic:u32  version:u16  window:u16
//!                              max_frame:u32  server_now_us:u64          (20 bytes)
//! ```
//!
//! The ack carries the server's **in-flight window** (how many admission
//! requests a client may leave unanswered before it must read responses),
//! its frame-size limit, and its monotonic clock reading. The client uses
//! `server_now_us` to translate local instants into the server's clock so
//! it can stamp each request with the absolute instant at which the
//! task's transport slack is gone ([`AdmitRequest::expires_at_us`]). A
//! magic mismatch closes the connection.
//!
//! ## Version negotiation
//!
//! The client's hello carries the highest version it speaks; the server
//! answers with the version the connection will use:
//! `min(client, VERSION)`. Either side rejects a peer older than
//! [`MIN_VERSION`] or newer frames than the negotiated version allows —
//! a v1 client against a v2 server negotiates v1 and simply never sees
//! the cluster frames (types ≥ 8), which ship in protocol version 2.
//!
//! # Framing
//!
//! After the handshake, both directions speak length-prefixed frames:
//!
//! ```text
//! frame := len:u32  type:u8  payload
//! ```
//!
//! All integers are **little-endian**. `len` counts the type byte plus
//! the payload and must be in `1..=`[`MAX_FRAME`]; a longer declared
//! length is rejected as soon as the prefix is read — before any payload
//! is buffered or allocated — so a hostile peer cannot make the gateway
//! allocate from a forged header. Within a frame, element counts are
//! validated against both [`MAX_STAGES`] and the remaining payload bytes
//! before any allocation. Decoding arbitrary bytes returns an error;
//! it never panics (the crate's proptests fuzz exactly this).
//!
//! # One codec per shape
//!
//! This module is the only place that knows the byte layout, and it
//! writes each shape down once per direction. The length-prefix checks
//! live in one function under [`Frame::decode`] and all three
//! [`FrameBuffer`] pullers. An admit request has one encoder
//! ([`Frame::encode_admit_request_into`]) and one decoder — a fixed-shape,
//! exact-length check that reads the head at named offsets — which
//! [`FrameBuffer::next_frame_into`] uses flat and [`Frame::decode`] wraps
//! into an owned [`AdmitRequest`]; the client's pre-encoded requests are
//! re-stamped at those same offsets. An admit response has one encoder
//! ([`encode_admit_response`]) and one decoder, shared by
//! [`Frame::decode`] and [`FrameBuffer::next_admit_response`]. Every
//! other frame goes through a bounds-checked cursor. Encoders `assert!`
//! the [`MAX_STAGES`] limit in every build, so nothing is ever sent that
//! a peer would refuse to decode. DESIGN.md §10 has the layout tables.
//!
//! # Frame types
//!
//! | type | frame | direction |
//! |------|-------|-----------|
//! | 1 | [`Frame::AdmitRequest`] | client → server |
//! | 2 | [`Frame::AdmitResponse`] | server → client |
//! | 3 | [`Frame::Release`] | client → server |
//! | 4 | [`Frame::Heartbeat`] | client → server |
//! | 5 | [`Frame::HeartbeatAck`] | server → client |
//! | 6 | [`Frame::StatsRequest`] | client → server |
//! | 7 | [`Frame::StatsResponse`] | server → client |
//! | 8 | [`Frame::NodeHello`] | node → coordinator (v2) |
//! | 9 | [`Frame::LeaseGrant`] | coordinator → node (v2) |
//! | 10 | [`Frame::LeaseReturn`] | node → coordinator (v2) |
//! | 11 | [`Frame::LeaseRequest`] | node → coordinator (v2) |
//! | 12 | [`Frame::LeaseSteal`] | coordinator → node (v2) |
//!
//! The lease frames (`frap-cluster`) reuse this framing between gateway
//! nodes and their lease coordinator. Budget amounts are **cumulative
//! per-epoch counters** in integer units of 10⁻⁹ utilization (see
//! `frap_core::lease`): `issued` only ever grows on the coordinator,
//! `returned` only ever grows on the node, and receivers apply
//! pointwise `max` — which makes every lease frame idempotent and
//! reorder-tolerant by construction.

use frap_core::wire::WireTaskSpec;
use std::fmt;
use std::io::Read;

/// `"FRAP"` when the four magic bytes are read little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"FRAP");
/// Highest protocol version spoken by this crate. Version 2 added the
/// cluster lease frames (types 8–12); the handshake negotiates down to
/// [`MIN_VERSION`] for older peers.
pub const VERSION: u16 = 2;
/// Oldest protocol version still accepted in a handshake.
pub const MIN_VERSION: u16 = 1;
/// Hard upper bound on one frame's body (`type` byte plus payload).
pub const MAX_FRAME: usize = 64 * 1024;
/// Hard upper bound on per-frame element counts (stage demands,
/// utilization vectors).
pub const MAX_STAGES: usize = 1024;
/// Encoded size of the client hello.
pub const HELLO_LEN: usize = 8;
/// Encoded size of the server hello acknowledgement.
pub const HELLO_ACK_LEN: usize = 20;

const TYPE_ADMIT_REQUEST: u8 = 1;
const TYPE_ADMIT_RESPONSE: u8 = 2;
const TYPE_RELEASE: u8 = 3;
const TYPE_HEARTBEAT: u8 = 4;
const TYPE_HEARTBEAT_ACK: u8 = 5;
const TYPE_STATS_REQUEST: u8 = 6;
const TYPE_STATS_RESPONSE: u8 = 7;
const TYPE_NODE_HELLO: u8 = 8;
const TYPE_LEASE_GRANT: u8 = 9;
const TYPE_LEASE_RETURN: u8 = 10;
const TYPE_LEASE_REQUEST: u8 = 11;
const TYPE_LEASE_STEAL: u8 = 12;

const VERDICT_ADMITTED: u8 = 0;
const VERDICT_ADMITTED_AFTER_SHEDDING: u8 = 1;
const VERDICT_REJECTED: u8 = 2;
const VERDICT_EXPIRED: u8 = 3;

const FLAG_ALLOW_SHED: u8 = 0b0000_0001;

/// Why a byte sequence is not a valid protocol exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The handshake magic was not [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// A frame's declared length was zero.
    EmptyFrame,
    /// A frame's declared length exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Unknown admission verdict code.
    UnknownVerdict(u8),
    /// An element count exceeded [`MAX_STAGES`].
    TooManyStages(usize),
    /// The payload did not parse as the named frame (short fields,
    /// trailing bytes, reserved flag bits set, zero-stage tasks, …).
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::EmptyFrame => write!(f, "zero-length frame"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "declared frame length {n} exceeds {MAX_FRAME}")
            }
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::UnknownVerdict(v) => write!(f, "unknown verdict code {v}"),
            ProtoError::TooManyStages(n) => {
                write!(f, "element count {n} exceeds {MAX_STAGES}")
            }
            ProtoError::Malformed(what) => write!(f, "malformed {what} frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The client-side half of the connection preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks.
    pub version: u16,
}

impl Hello {
    /// Encodes the hello into its fixed wire form.
    pub fn encode(&self) -> [u8; HELLO_LEN] {
        let mut out = [0u8; HELLO_LEN];
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out
    }

    /// Decodes and validates a client hello. Any version in
    /// `MIN_VERSION..=VERSION` is accepted; the server answers with the
    /// version the connection will actually speak
    /// (`min(client, VERSION)`), so a newer server stays compatible with
    /// older clients.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMagic`] / [`ProtoError::BadVersion`] when the peer
    /// is not a compatible FRAP client.
    pub fn decode(buf: &[u8; HELLO_LEN]) -> Result<Hello, ProtoError> {
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(ProtoError::BadVersion(version));
        }
        Ok(Hello { version })
    }
}

/// The server-side half of the connection preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Protocol version the server speaks.
    pub version: u16,
    /// Maximum admission requests a client may leave in flight.
    pub window: u16,
    /// The server's frame-size limit (≤ [`MAX_FRAME`]).
    pub max_frame: u32,
    /// The server's monotonic clock at handshake time, in microseconds.
    pub server_now_us: u64,
}

impl HelloAck {
    /// Encodes the acknowledgement into its fixed wire form.
    pub fn encode(&self) -> [u8; HELLO_ACK_LEN] {
        let mut out = [0u8; HELLO_ACK_LEN];
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..8].copy_from_slice(&self.window.to_le_bytes());
        out[8..12].copy_from_slice(&self.max_frame.to_le_bytes());
        out[12..20].copy_from_slice(&self.server_now_us.to_le_bytes());
        out
    }

    /// Decodes and validates a server hello acknowledgement. The version
    /// is the one the server chose for this connection; anything in
    /// `MIN_VERSION..=VERSION` is acceptable to this client (the server
    /// never picks a version above what the client offered).
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMagic`] / [`ProtoError::BadVersion`] when the peer
    /// is not a compatible FRAP server.
    pub fn decode(buf: &[u8; HELLO_ACK_LEN]) -> Result<HelloAck, ProtoError> {
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(ProtoError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(ProtoError::BadVersion(version));
        }
        Ok(HelloAck {
            version,
            window: u16::from_le_bytes(buf[6..8].try_into().unwrap()),
            max_frame: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            server_now_us: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
        })
    }
}

/// One admission request as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Absolute server-clock instant (µs) after which the task's
    /// transport slack is gone: a request processed later than this is
    /// answered [`Verdict::Expired`] without touching the shards.
    pub expires_at_us: u64,
    /// Whether the server may shed less-important admitted work to fit
    /// this task (the Section 5 overload path).
    pub allow_shed: bool,
    /// The task itself in compact pipeline wire form.
    pub task: WireTaskSpec,
}

/// An admit request decoded flat: the fixed-width header by value, the
/// stage demands as a range into the caller's arena (see
/// [`FrameBuffer::next_frame_into`]). Carries the same information as
/// [`AdmitRequest`] without owning an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitHead {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Absolute server-clock expiry instant (µs); see
    /// [`AdmitRequest::expires_at_us`].
    pub expires_at_us: u64,
    /// Whether the server may shed less-important admitted work.
    pub allow_shed: bool,
    /// Relative end-to-end deadline `D_i`, in microseconds.
    pub deadline_us: u64,
    /// Raw importance level.
    pub importance: u32,
    /// `[start, end)` range of this request's per-stage demands (µs) in
    /// the arena the frame was decoded into.
    pub demands: (usize, usize),
}

impl AdmitHead {
    /// This request's per-stage demand slice within `arena`.
    pub fn demands_in<'a>(&self, arena: &'a [u64]) -> &'a [u64] {
        &arena[self.demands.0..self.demands.1]
    }
}

/// One step of [`FrameBuffer::next_admit_response`]: the client-side
/// fast drain for pipelined admit verdicts.
#[derive(Debug, Clone, PartialEq)]
pub enum DrainedAdmit {
    /// The buffer holds no complete frame; read more bytes and retry.
    Pending,
    /// One admit response, decoded without constructing a [`Frame`].
    Admit {
        /// Echo of [`AdmitRequest::req_id`].
        req_id: u64,
        /// The admission verdict.
        verdict: Verdict,
    },
    /// The next frame is not an admit response (heartbeat ack, stats,
    /// lease traffic, …), decoded in full for the caller to dispatch.
    Other(Frame),
}

/// One frame pulled by [`FrameBuffer::next_frame_into`]: admit requests
/// come back flat, everything else owned.
#[derive(Debug)]
pub enum BatchedFrame {
    /// An admit request; its stage demands were appended to the arena.
    Admit(AdmitHead),
    /// Any other frame, decoded exactly as [`FrameBuffer::next_frame`]
    /// would.
    Other(Frame),
}

/// The server's answer to one [`AdmitRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted; release the ticket when the task finishes (or let the
    /// connection's teardown release it).
    Admitted {
        /// Service-assigned ticket id, usable in [`Frame::Release`].
        ticket_id: u64,
    },
    /// Admitted after evicting `shed` less-important live tasks.
    AdmittedAfterShedding {
        /// Service-assigned ticket id, usable in [`Frame::Release`].
        ticket_id: u64,
        /// How many victims were evicted.
        shed: u32,
    },
    /// Infeasible: admitting would leave the feasible region.
    Rejected,
    /// Dead on arrival: transport consumed the deadline budget before the
    /// admission test ran.
    Expired,
}

impl Verdict {
    /// The ticket id, when the task was admitted.
    pub fn ticket_id(&self) -> Option<u64> {
        match *self {
            Verdict::Admitted { ticket_id } | Verdict::AdmittedAfterShedding { ticket_id, .. } => {
                Some(ticket_id)
            }
            Verdict::Rejected | Verdict::Expired => None,
        }
    }

    /// Whether the task was admitted (with or without shedding).
    pub fn is_admitted(&self) -> bool {
        self.ticket_id().is_some()
    }
}

/// A point-in-time copy of the service's counters and utilization vector,
/// as reported over the wire in [`Frame::StatsResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Live tasks evicted by importance shedding.
    pub shed: u64,
    /// Tickets released before their deadline.
    pub released: u64,
    /// Contributions decremented at their deadline.
    pub expired: u64,
    /// Requests whose transport slack was gone on arrival.
    pub expired_on_arrival: u64,
    /// Admitted tasks whose deadlines have not yet passed.
    pub live_tasks: u64,
    /// Aggregate synthetic utilization per stage.
    pub utilizations: Vec<f64>,
}

/// Every message that crosses a gateway connection after the handshake.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client asks for admission of one task.
    AdmitRequest(AdmitRequest),
    /// Server answers one admission request.
    AdmitResponse {
        /// Correlation id copied from the request.
        req_id: u64,
        /// What the admission test decided.
        verdict: Verdict,
    },
    /// Client reports the task finished; its admission is released now
    /// rather than at the deadline decrement. Fire-and-forget.
    Release {
        /// Ticket id from an earlier [`Verdict::Admitted`].
        ticket_id: u64,
    },
    /// Liveness/RTT probe.
    Heartbeat {
        /// Client-chosen nonce, echoed back.
        nonce: u64,
    },
    /// Server echo of a [`Frame::Heartbeat`].
    HeartbeatAck {
        /// Nonce copied from the probe.
        nonce: u64,
    },
    /// Client asks for a counter snapshot.
    StatsRequest,
    /// Server's counter snapshot.
    StatsResponse(StatsReport),
    /// A gateway node (re)registers with its lease coordinator
    /// (protocol v2). Sent until answered by a matching
    /// [`Frame::LeaseGrant`].
    NodeHello {
        /// Operator-assigned stable node identity.
        node_id: u64,
        /// Node-chosen incarnation, bumped every time the node discards
        /// its lease state (start-up, lease TTL expiry). The coordinator
        /// treats a higher incarnation as proof the older lease holder
        /// is gone.
        incarnation: u64,
        /// Fingerprint of the region parameters the node was configured
        /// with (`frap_core::lease::params_fingerprint`); the
        /// coordinator ignores hellos from nodes configured against a
        /// different region.
        params_fp: u64,
    },
    /// Coordinator → node: the node's cumulative lease state (v2). Sent
    /// only in response to a node-initiated frame, so receiving one
    /// also proves coordinator liveness.
    LeaseGrant {
        /// Coordinator-assigned compact node slot.
        node: u32,
        /// Lease epoch for this registration; stale-epoch frames are
        /// discarded by both sides.
        epoch: u32,
        /// Echo of the node's incarnation so the node can match the
        /// grant to its current registration attempt.
        incarnation: u64,
        /// Cumulative per-stage units ever issued to this epoch
        /// (monotone; receiver applies pointwise `max`).
        issued_units: Vec<u64>,
        /// Coordinator's view of the node's cumulative returns (an ack;
        /// informational).
        returned_units: Vec<u64>,
    },
    /// Node → coordinator: cumulative per-stage units returned this
    /// epoch (v2). Monotone; the coordinator credits the pointwise
    /// increase back to the stage pools exactly once no matter how
    /// often the frame is duplicated or reordered.
    LeaseReturn {
        /// Coordinator-assigned node slot.
        node: u32,
        /// Lease epoch.
        epoch: u32,
        /// Cumulative returned units per stage.
        returned_units: Vec<u64>,
    },
    /// Node → coordinator: borrow-on-pressure (v2). Asks that cumulative
    /// issue reach `want_units`; the coordinator grants what the pool
    /// has. Idempotent: a duplicate whose want is already issued is a
    /// no-op.
    LeaseRequest {
        /// Coordinator-assigned node slot.
        node: u32,
        /// Lease epoch.
        epoch: u32,
        /// Desired cumulative issued units per stage.
        want_units: Vec<u64>,
    },
    /// Coordinator → node: return-on-demand (v2). Asks the node to raise
    /// its cumulative returns toward `want_returned_units`; the node
    /// returns whatever its local spending allows via
    /// [`Frame::LeaseReturn`].
    LeaseSteal {
        /// Target node slot.
        node: u32,
        /// Lease epoch.
        epoch: u32,
        /// Desired cumulative returned units per stage.
        want_returned_units: Vec<u64>,
    },
}

/// Bytes of the `len:u32` prefix ahead of every frame body.
const PREFIX: usize = 4;

// Field offsets within an admit-request body (`type:u8` at 0, no length
// prefix):
//
//   req_id:u64  expires_at_us:u64  deadline_us:u64  importance:u32
//   flags:u8  count:u16  demands:u64×count
//
// `decode_admit_body` reads at them and `stamp_admit_request` writes at
// them; `Frame::encode_admit_request_into` appends the fields in this
// order.
const REQ_ID: usize = 1;
const REQ_EXPIRES_AT: usize = 9;
const REQ_DEADLINE: usize = 17;
const REQ_IMPORTANCE: usize = 25;
const REQ_FLAGS: usize = 29;
const REQ_COUNT: usize = 30;
const REQ_DEMANDS: usize = 32;

// Field offsets within an admit-response body, and the body length of its
// three shapes: verdict only (rejected, expired), with a ticket id
// (admitted), with a ticket id and a shed count (admitted after shedding).
//
//   req_id:u64  verdict:u8  [ticket_id:u64  [shed:u32]]
const RESP_REQ_ID: usize = 1;
const RESP_VERDICT: usize = 9;
const RESP_TICKET: usize = 10;
const RESP_SHED: usize = 18;
const RESP_LEN_BARE: usize = 10;
const RESP_LEN_TICKET: usize = 18;
const RESP_LEN_SHED: usize = 22;

// The byte-level helpers carry `#[inline]` because it is measured: without
// the hint they stay calls at their many sites (one per field — the
// benchmark's `gateway.encode_req_generic_ns` reads 16 ns for 10), and
// `put_u64_at` is reached through the `#[inline]` [`encode_admit_response`]
// from generic server code instantiated in other crates.
#[inline]
fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte field"))
}

#[inline]
fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte field"))
}

#[inline]
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64_at(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// The little-endian `u64`s packed in `bytes` (a whole number of them).
fn le_u64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    bytes.chunks_exact(8).map(word)
}

/// Splits the body of the frame at the front of `buf` off its length
/// prefix: `Ok(None)` while the prefix or the body it declares is still
/// incomplete. The one place a declared length is judged — from the four
/// prefix bytes alone, before any body byte is looked at.
fn frame_body(buf: &[u8]) -> Result<Option<&[u8]>, ProtoError> {
    let Some((prefix, rest)) = buf.split_first_chunk::<PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len == 0 {
        return Err(ProtoError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    Ok(rest.get(..len))
}

/// Appends one frame — length prefix, `ty`, then whatever `payload`
/// appends — patching the prefix once the payload's length is known.
fn framed(out: &mut Vec<u8>, ty: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; PREFIX]);
    out.push(ty);
    payload(out);
    let len = (out.len() - len_at - PREFIX) as u32;
    out[len_at..len_at + PREFIX].copy_from_slice(&len.to_le_bytes());
}

/// Appends an element vector: `count:u16`, then the `u64`s of `words` —
/// `count` of them, or `2 × count` for the two rows of a
/// [`Frame::LeaseGrant`].
///
/// # Panics
///
/// Panics if `count` exceeds [`MAX_STAGES`]: no decoder accepts such a
/// frame, and past `u16::MAX` the count would wrap.
fn put_vec(out: &mut Vec<u8>, count: usize, words: impl Iterator<Item = u64>) {
    assert!(
        count <= MAX_STAGES,
        "element count {count} exceeds {MAX_STAGES}"
    );
    out.extend_from_slice(&(count as u16).to_le_bytes());
    for w in words {
        put_u64(out, w);
    }
}

/// Encodes the shared shape of [`Frame::LeaseReturn`] /
/// [`Frame::LeaseRequest`] / [`Frame::LeaseSteal`]:
/// `node:u32 epoch:u32 count:u16 units:u64×count`.
fn encode_lease_vec(out: &mut Vec<u8>, ty: u8, node: u32, epoch: u32, units: &[u64]) {
    framed(out, ty, |out| {
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        put_vec(out, units.len(), units.iter().copied());
    });
}

/// Decodes an admit-request body into an [`AdmitHead`], appending the
/// stage demands to `demands`. The head is fixed-shape, so one
/// exact-length comparison against the declared demand count validates
/// the whole frame before any field is read or any demand lands: on error
/// the arena is untouched.
fn decode_admit_body(body: &[u8], demands: &mut Vec<u64>) -> Result<AdmitHead, ProtoError> {
    debug_assert_eq!(body[0], TYPE_ADMIT_REQUEST);
    const BAD: ProtoError = ProtoError::Malformed("AdmitRequest");
    if body.len() < REQ_DEMANDS {
        return Err(BAD);
    }
    let flags = body[REQ_FLAGS];
    if flags & !FLAG_ALLOW_SHED != 0 {
        return Err(BAD);
    }
    let n = u16::from_le_bytes([body[REQ_COUNT], body[REQ_COUNT + 1]]) as usize;
    if n > MAX_STAGES {
        return Err(ProtoError::TooManyStages(n));
    }
    // A task that visits no stage has no admission test.
    if n == 0 || body.len() != REQ_DEMANDS + 8 * n {
        return Err(BAD);
    }
    let mark = demands.len();
    demands.extend(le_u64s(&body[REQ_DEMANDS..]));
    Ok(AdmitHead {
        req_id: u64_at(body, REQ_ID),
        expires_at_us: u64_at(body, REQ_EXPIRES_AT),
        allow_shed: flags & FLAG_ALLOW_SHED != 0,
        deadline_us: u64_at(body, REQ_DEADLINE),
        importance: u32_at(body, REQ_IMPORTANCE),
        demands: (mark, mark + n),
    })
}

/// Overwrites the request id and expiry of the encoded admit request at
/// the front of `frame` (length prefix included) — how a pre-encoded
/// request is reused without re-serializing its task.
#[inline]
pub(crate) fn stamp_admit_request(frame: &mut [u8], req_id: u64, expires_at_us: u64) {
    let body = &mut frame[PREFIX..];
    put_u64_at(body, REQ_ID, req_id);
    put_u64_at(body, REQ_EXPIRES_AT, expires_at_us);
}

/// Decodes an admit-response body: the verdict code selects one of the
/// fixed shapes, which the body's length must match exactly.
fn decode_admit_response(body: &[u8]) -> Result<(u64, Verdict), ProtoError> {
    debug_assert_eq!(body[0], TYPE_ADMIT_RESPONSE);
    const BAD: ProtoError = ProtoError::Malformed("AdmitResponse");
    if body.len() < RESP_LEN_BARE {
        return Err(BAD);
    }
    let verdict = match (body[RESP_VERDICT], body.len()) {
        (VERDICT_REJECTED, RESP_LEN_BARE) => Verdict::Rejected,
        (VERDICT_EXPIRED, RESP_LEN_BARE) => Verdict::Expired,
        (VERDICT_ADMITTED, RESP_LEN_TICKET) => Verdict::Admitted {
            ticket_id: u64_at(body, RESP_TICKET),
        },
        (VERDICT_ADMITTED_AFTER_SHEDDING, RESP_LEN_SHED) => Verdict::AdmittedAfterShedding {
            ticket_id: u64_at(body, RESP_TICKET),
            shed: u32_at(body, RESP_SHED),
        },
        (VERDICT_ADMITTED..=VERDICT_EXPIRED, _) => return Err(BAD),
        (other, _) => return Err(ProtoError::UnknownVerdict(other)),
    };
    Ok((u64_at(body, RESP_REQ_ID), verdict))
}

impl Frame {
    /// Appends the frame's length-prefixed encoding to `out`. The result
    /// always decodes back to an equal frame.
    ///
    /// # Panics
    ///
    /// Panics if an element vector (stage demands, utilizations, lease
    /// units) is longer than [`MAX_STAGES`], or if a
    /// [`Frame::LeaseGrant`]'s two vectors differ in length: no peer
    /// decodes such a frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::AdmitRequest(req) => Frame::encode_admit_request_into(
                req.req_id,
                req.expires_at_us,
                req.allow_shed,
                &req.task,
                out,
            ),
            Frame::AdmitResponse { req_id, verdict } => {
                let (bytes, len) = encode_admit_response(*req_id, *verdict);
                out.extend_from_slice(&bytes[..len]);
            }
            Frame::Release { ticket_id } => {
                framed(out, TYPE_RELEASE, |out| put_u64(out, *ticket_id))
            }
            Frame::Heartbeat { nonce } => framed(out, TYPE_HEARTBEAT, |out| put_u64(out, *nonce)),
            Frame::HeartbeatAck { nonce } => {
                framed(out, TYPE_HEARTBEAT_ACK, |out| put_u64(out, *nonce))
            }
            Frame::StatsRequest => framed(out, TYPE_STATS_REQUEST, |_| {}),
            Frame::StatsResponse(s) => framed(out, TYPE_STATS_RESPONSE, |out| {
                for counter in [
                    s.admitted,
                    s.rejected,
                    s.shed,
                    s.released,
                    s.expired,
                    s.expired_on_arrival,
                    s.live_tasks,
                ] {
                    put_u64(out, counter);
                }
                let bits = s.utilizations.iter().map(|u| u.to_bits());
                put_vec(out, s.utilizations.len(), bits);
            }),
            Frame::NodeHello {
                node_id,
                incarnation,
                params_fp,
            } => framed(out, TYPE_NODE_HELLO, |out| {
                put_u64(out, *node_id);
                put_u64(out, *incarnation);
                put_u64(out, *params_fp);
            }),
            Frame::LeaseGrant {
                node,
                epoch,
                incarnation,
                issued_units,
                returned_units,
            } => framed(out, TYPE_LEASE_GRANT, |out| {
                assert_eq!(issued_units.len(), returned_units.len());
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                put_u64(out, *incarnation);
                let units = issued_units.iter().chain(returned_units).copied();
                put_vec(out, issued_units.len(), units);
            }),
            Frame::LeaseReturn {
                node,
                epoch,
                returned_units,
            } => encode_lease_vec(out, TYPE_LEASE_RETURN, *node, *epoch, returned_units),
            Frame::LeaseRequest {
                node,
                epoch,
                want_units,
            } => encode_lease_vec(out, TYPE_LEASE_REQUEST, *node, *epoch, want_units),
            Frame::LeaseSteal {
                node,
                epoch,
                want_returned_units,
            } => encode_lease_vec(out, TYPE_LEASE_STEAL, *node, *epoch, want_returned_units),
        }
    }

    /// Appends the length-prefixed encoding of an admit request built
    /// from a *borrowed* task — the one admit-request encoder. A client
    /// queueing a window of admits per flush needs no owned
    /// [`AdmitRequest`] (whose task holds a `Vec`) per request;
    /// [`Frame::encode_into`] calls this for the owned form.
    ///
    /// # Panics
    ///
    /// Panics if the task has more than [`MAX_STAGES`] stage demands: the
    /// server would answer [`ProtoError::TooManyStages`] by closing the
    /// connection, voiding every request in flight on it.
    pub fn encode_admit_request_into(
        req_id: u64,
        expires_at_us: u64,
        allow_shed: bool,
        task: &WireTaskSpec,
        out: &mut Vec<u8>,
    ) {
        framed(out, TYPE_ADMIT_REQUEST, |out| {
            put_u64(out, req_id);
            put_u64(out, expires_at_us);
            put_u64(out, task.deadline_us);
            out.extend_from_slice(&task.importance.to_le_bytes());
            out.push(if allow_shed { FLAG_ALLOW_SHED } else { 0 });
            let demands = &task.stage_demands_us;
            put_vec(out, demands.len(), demands.iter().copied());
        });
    }

    /// Attempts to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(Some((frame, consumed)))` on success, `Ok(None)` when
    /// `buf` holds only an incomplete prefix of a valid frame (read more
    /// bytes and retry), and an error for byte sequences no amount of
    /// further input can repair. Never panics on arbitrary input; an
    /// oversized declared length is rejected from the 4-byte prefix
    /// alone, before anything is allocated.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`].
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
        match frame_body(buf)? {
            Some(body) => Ok(Some((Frame::decode_body(body)?, PREFIX + body.len()))),
            None => Ok(None),
        }
    }

    fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = Reader {
            buf: body,
            pos: 1,
            frame: "frame",
        };
        let frame = match body[0] {
            TYPE_ADMIT_REQUEST => {
                let mut stage_demands_us = Vec::new();
                let head = decode_admit_body(body, &mut stage_demands_us)?;
                return Ok(Frame::AdmitRequest(AdmitRequest {
                    req_id: head.req_id,
                    expires_at_us: head.expires_at_us,
                    allow_shed: head.allow_shed,
                    task: WireTaskSpec {
                        deadline_us: head.deadline_us,
                        stage_demands_us,
                        importance: head.importance,
                    },
                }));
            }
            TYPE_ADMIT_RESPONSE => {
                let (req_id, verdict) = decode_admit_response(body)?;
                return Ok(Frame::AdmitResponse { req_id, verdict });
            }
            TYPE_RELEASE => {
                r.frame = "Release";
                Frame::Release {
                    ticket_id: r.u64()?,
                }
            }
            TYPE_HEARTBEAT => {
                r.frame = "Heartbeat";
                Frame::Heartbeat { nonce: r.u64()? }
            }
            TYPE_HEARTBEAT_ACK => {
                r.frame = "HeartbeatAck";
                Frame::HeartbeatAck { nonce: r.u64()? }
            }
            TYPE_STATS_REQUEST => {
                r.frame = "StatsRequest";
                Frame::StatsRequest
            }
            // Struct fields are read in the order written: wire order.
            TYPE_STATS_RESPONSE => {
                r.frame = "StatsResponse";
                Frame::StatsResponse(StatsReport {
                    admitted: r.u64()?,
                    rejected: r.u64()?,
                    shed: r.u64()?,
                    released: r.u64()?,
                    expired: r.u64()?,
                    expired_on_arrival: r.u64()?,
                    live_tasks: r.u64()?,
                    utilizations: {
                        let n = r.count()?;
                        r.u64s(n)?.into_iter().map(f64::from_bits).collect()
                    },
                })
            }
            TYPE_NODE_HELLO => {
                r.frame = "NodeHello";
                Frame::NodeHello {
                    node_id: r.u64()?,
                    incarnation: r.u64()?,
                    params_fp: r.u64()?,
                }
            }
            TYPE_LEASE_GRANT => {
                r.frame = "LeaseGrant";
                let (node, epoch, incarnation) = (r.u32()?, r.u32()?, r.u64()?);
                let n = r.count()?;
                Frame::LeaseGrant {
                    node,
                    epoch,
                    incarnation,
                    issued_units: r.u64s(n)?,
                    returned_units: r.u64s(n)?,
                }
            }
            TYPE_LEASE_RETURN => {
                r.frame = "LeaseReturn";
                let (node, epoch, returned_units) = r.lease_vec()?;
                Frame::LeaseReturn {
                    node,
                    epoch,
                    returned_units,
                }
            }
            TYPE_LEASE_REQUEST => {
                r.frame = "LeaseRequest";
                let (node, epoch, want_units) = r.lease_vec()?;
                Frame::LeaseRequest {
                    node,
                    epoch,
                    want_units,
                }
            }
            TYPE_LEASE_STEAL => {
                r.frame = "LeaseSteal";
                let (node, epoch, want_returned_units) = r.lease_vec()?;
                Frame::LeaseSteal {
                    node,
                    epoch,
                    want_returned_units,
                }
            }
            other => return Err(ProtoError::UnknownType(other)),
        };
        // The payload must be fully consumed: trailing bytes are an error.
        if r.pos != body.len() {
            return Err(ProtoError::Malformed(r.frame));
        }
        Ok(frame)
    }
}

/// Upper bound on one encoded [`Frame::AdmitResponse`], reached by the
/// shedding variant (`len:u32 type req_id:u64 verdict ticket:u64
/// shed:u32`). The templates in [`encode_admit_response`] are this size.
pub const ADMIT_RESPONSE_MAX: usize = PREFIX + RESP_LEN_SHED;

/// One interned response template: length prefix, frame type, and
/// verdict code prebaked; the per-response fields stay zero until the
/// masked write fills them in.
const fn admit_response_template(body_len: usize, code: u8) -> [u8; ADMIT_RESPONSE_MAX] {
    let mut t = [0u8; ADMIT_RESPONSE_MAX];
    // Low byte of the little-endian u32 length prefix; admit-response
    // bodies never exceed 22 bytes.
    t[0] = body_len as u8;
    t[PREFIX] = TYPE_ADMIT_RESPONSE;
    t[PREFIX + RESP_VERDICT] = code;
    t
}

/// Encodes one admit response — the one admit-response encoder — as a
/// **masked write into an interned template**: the four fixed-size
/// response shapes (one per verdict kind) are baked at compile time with
/// their length prefix, type byte, and verdict code already in place, so
/// encoding writes only the 1–3 fields that differ per response
/// (`req_id`, and for admissions the ticket id / shed count).
///
/// Returns the backing array and the encoded length; `&array[..len]` is
/// the frame, and what [`Frame::encode_into`] appends for the same
/// `Frame::AdmitResponse`.
#[inline]
pub fn encode_admit_response(req_id: u64, verdict: Verdict) -> ([u8; ADMIT_RESPONSE_MAX], usize) {
    const REJECTED: [u8; ADMIT_RESPONSE_MAX] =
        admit_response_template(RESP_LEN_BARE, VERDICT_REJECTED);
    const EXPIRED: [u8; ADMIT_RESPONSE_MAX] =
        admit_response_template(RESP_LEN_BARE, VERDICT_EXPIRED);
    const ADMITTED: [u8; ADMIT_RESPONSE_MAX] =
        admit_response_template(RESP_LEN_TICKET, VERDICT_ADMITTED);
    const SHED: [u8; ADMIT_RESPONSE_MAX] =
        admit_response_template(RESP_LEN_SHED, VERDICT_ADMITTED_AFTER_SHEDDING);
    let (mut out, body_len) = match verdict {
        Verdict::Rejected => (REJECTED, RESP_LEN_BARE),
        Verdict::Expired => (EXPIRED, RESP_LEN_BARE),
        Verdict::Admitted { .. } => (ADMITTED, RESP_LEN_TICKET),
        Verdict::AdmittedAfterShedding { .. } => (SHED, RESP_LEN_SHED),
    };
    let body = &mut out[PREFIX..];
    put_u64_at(body, RESP_REQ_ID, req_id);
    match verdict {
        Verdict::Admitted { ticket_id } => put_u64_at(body, RESP_TICKET, ticket_id),
        Verdict::AdmittedAfterShedding { ticket_id, shed } => {
            put_u64_at(body, RESP_TICKET, ticket_id);
            body[RESP_SHED..RESP_SHED + 4].copy_from_slice(&shed.to_le_bytes());
        }
        Verdict::Rejected | Verdict::Expired => {}
    }
    (out, PREFIX + body_len)
}

/// A little-endian payload cursor for the variable-shape and control
/// frames; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed(self.frame))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32_at(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64_at(self.take(8)?, 0))
    }

    /// Reads an element count and validates it against [`MAX_STAGES`]
    /// *and* the bytes actually present, so a vector of `count` elements
    /// can never over-allocate from a forged header.
    fn count(&mut self) -> Result<usize, ProtoError> {
        let n = self.take(2)?;
        let n = u16::from_le_bytes([n[0], n[1]]) as usize;
        if n > MAX_STAGES {
            return Err(ProtoError::TooManyStages(n));
        }
        if n * 8 > self.buf.len() - self.pos {
            return Err(ProtoError::Malformed(self.frame));
        }
        Ok(n)
    }

    /// Reads `n` (a [`Reader::count`]) `u64`s.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ProtoError> {
        Ok(le_u64s(self.take(n * 8)?).collect())
    }

    /// Decodes the shared `node:u32 epoch:u32 count:u16 units:u64×count`
    /// payload of the single-vector lease frames.
    fn lease_vec(&mut self) -> Result<(u32, u32, Vec<u64>), ProtoError> {
        let (node, epoch) = (self.u32()?, self.u32()?);
        let n = self.count()?;
        Ok((node, epoch, self.u64s(n)?))
    }
}

/// Initial backing allocation, and the backing retained after a
/// high-water buffer shrinks back on full drain.
const BUF_RETAIN: usize = 4 * 1024;
/// A fully-drained buffer whose backing grew past this (a burst, or a
/// partial frame straddling reads near the [`MAX_FRAME`] limit) shrinks
/// back to [`BUF_RETAIN`] so idle connections do not retain their
/// high-water capacity.
const BUF_SHRINK_ABOVE: usize = 32 * 1024;
/// Spare space guaranteed to each [`FrameBuffer::read_from`] call.
const READ_CHUNK: usize = 4 * 1024;

/// An incremental frame reassembly buffer: land raw socket bytes in it
/// (ideally directly, via [`FrameBuffer::read_from`]), pull out complete
/// frames. The backing store is a flat window — `data[start..end]` holds
/// the unconsumed bytes — compacted by `memmove` only when a partial
/// frame blocks the tail, grown by doubling only when a frame cannot fit
/// the spare space, and shrunk back to a small retained size when a
/// drained buffer is left holding high-water capacity.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Backing store; always fully initialized, so reads can land in
    /// `data[end..]` without unsafe length games.
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Makes `data[end..]` at least `min` bytes, compacting the window to
    /// the front first and doubling the backing only if still short.
    fn ensure_spare(&mut self, min: usize) {
        if self.data.len() - self.end >= min {
            return;
        }
        if self.start > 0 {
            self.data.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.data.len() - self.end < min {
            let target = (self.end + min).next_power_of_two().max(BUF_RETAIN);
            self.data.resize(target, 0);
        }
    }

    /// Resets the window after the last buffered byte was consumed, and
    /// returns a high-water backing to [`BUF_RETAIN`]: a burst (or a
    /// partial frame straddling reads up to the [`MAX_FRAME`] limit) can
    /// grow the backing well past steady state, and without this an idle
    /// connection would retain that capacity forever.
    fn reset_drained(&mut self) {
        self.start = 0;
        self.end = 0;
        if self.data.len() > BUF_SHRINK_ABOVE {
            self.data.truncate(BUF_RETAIN);
            self.data.shrink_to_fit();
        }
    }

    /// Appends raw bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.ensure_spare(bytes.len());
        self.data[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Reads once from `src` **directly into the buffer's spare space**
    /// (at least `READ_CHUNK` = 4 KiB of it), so transport bytes land in
    /// their reassembly position without an intermediate scratch copy.
    /// Returns the byte count from the underlying `read` (0 means EOF).
    ///
    /// # Errors
    ///
    /// Propagates the transport's `read` error (including `WouldBlock`
    /// from a non-blocking socket).
    pub fn read_from<S: Read + ?Sized>(&mut self, src: &mut S) -> std::io::Result<usize> {
        Ok(self.read_from_with_spare(src)?.0)
    }

    /// [`FrameBuffer::read_from`], also reporting how many bytes the read
    /// *could* have delivered. A short read (`n < spare`) proves the
    /// transport had nothing more buffered at syscall time, so an
    /// event-driven caller can skip the confirming `read` that would only
    /// return `WouldBlock` — with level-triggered readiness, bytes that
    /// arrive later re-arm the event.
    ///
    /// # Errors
    ///
    /// Propagates the transport's `read` error (including `WouldBlock`
    /// from a non-blocking socket).
    pub fn read_from_with_spare<S: Read + ?Sized>(
        &mut self,
        src: &mut S,
    ) -> std::io::Result<(usize, usize)> {
        self.ensure_spare(READ_CHUNK);
        let spare = self.data.len() - self.end;
        let n = src.read(&mut self.data[self.end..])?;
        self.end += n;
        Ok((n, spare))
    }

    /// The unconsumed bytes, without decoding anything.
    pub fn peek(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Consumes `n` raw bytes (the connection-preamble path, which is not
    /// framed).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`FrameBuffer::pending`].
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.end - self.start, "consume past pending bytes");
        self.start += n;
        if self.start == self.end {
            self.reset_drained();
        }
    }

    /// Decodes the body of the next complete frame with `decode` and
    /// consumes the frame; `Ok(None)` when none is buffered yet. An error
    /// consumes nothing.
    fn pull<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, ProtoError>,
    ) -> Result<Option<T>, ProtoError> {
        let Some(body) = frame_body(&self.data[self.start..self.end])? else {
            return Ok(None);
        };
        let consumed = PREFIX + body.len();
        let item = decode(body)?;
        self.consume(consumed);
        Ok(Some(item))
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtoError`] for unrepairable input; the buffer is
    /// poisoned from the caller's perspective and the connection should
    /// be closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        self.pull(Frame::decode_body)
    }

    /// Decodes the next complete frame, handing an admit response back
    /// as its two fields: a pipelining client drains a window of
    /// verdicts without constructing a [`Frame`] per response.
    ///
    /// Returns [`DrainedAdmit::Pending`] when the buffer holds only an
    /// incomplete frame (read more and retry), or
    /// [`DrainedAdmit::Other`] with the fully decoded frame when the
    /// next frame is not an admit response.
    ///
    /// # Errors
    ///
    /// See [`ProtoError`]; the validation is
    /// [`FrameBuffer::next_frame`]'s, frame for frame.
    pub fn next_admit_response(&mut self) -> Result<DrainedAdmit, ProtoError> {
        let drained = self.pull(|body| {
            if body[0] == TYPE_ADMIT_RESPONSE {
                let (req_id, verdict) = decode_admit_response(body)?;
                Ok(DrainedAdmit::Admit { req_id, verdict })
            } else {
                Frame::decode_body(body).map(DrainedAdmit::Other)
            }
        })?;
        Ok(drained.unwrap_or(DrainedAdmit::Pending))
    }

    /// Decodes the next complete frame, landing admit-request stage
    /// demands in the caller's `demands` arena instead of a fresh `Vec`.
    ///
    /// This is the server's hot path: a batch of pipelined admit requests
    /// decodes with **zero** per-request allocations — each request
    /// appends its demands to the arena and comes back as a flat
    /// [`AdmitHead`] indexing into it. All other frame types decode owned,
    /// exactly as [`FrameBuffer::next_frame`] would. The validation is
    /// identical frame-for-frame; only the representation of admit
    /// requests differs.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtoError`] for unrepairable input. On error the
    /// arena is left exactly as it was (no partial demands).
    pub fn next_frame_into(
        &mut self,
        demands: &mut Vec<u64>,
    ) -> Result<Option<BatchedFrame>, ProtoError> {
        self.pull(|body| {
            if body[0] == TYPE_ADMIT_REQUEST {
                decode_admit_body(body, demands).map(BatchedFrame::Admit)
            } else {
                Frame::decode_body(body).map(BatchedFrame::Other)
            }
        })
    }

    /// Bytes buffered but not yet consumed by [`FrameBuffer::next_frame`].
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Current backing allocation in bytes (regression hook for the
    /// shrink-back-after-drain behavior; see the e2e RSS assertion).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        frame.encode_into(&mut buf);
        let (decoded, consumed) = Frame::decode(&buf).unwrap().expect("complete");
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_type_round_trips() {
        roundtrip(Frame::AdmitRequest(AdmitRequest {
            req_id: 7,
            expires_at_us: 123_456,
            allow_shed: true,
            task: WireTaskSpec {
                deadline_us: 100_000,
                stage_demands_us: vec![5_000, 0, 777],
                importance: 3,
            },
        }));
        roundtrip(Frame::AdmitResponse {
            req_id: 9,
            verdict: Verdict::Admitted { ticket_id: 17 },
        });
        roundtrip(Frame::AdmitResponse {
            req_id: 10,
            verdict: Verdict::AdmittedAfterShedding {
                ticket_id: 18,
                shed: 2,
            },
        });
        roundtrip(Frame::AdmitResponse {
            req_id: 11,
            verdict: Verdict::Rejected,
        });
        roundtrip(Frame::AdmitResponse {
            req_id: 12,
            verdict: Verdict::Expired,
        });
        roundtrip(Frame::Release { ticket_id: 4 });
        roundtrip(Frame::Heartbeat { nonce: 0xDEAD });
        roundtrip(Frame::HeartbeatAck { nonce: 0xBEEF });
        roundtrip(Frame::StatsRequest);
        roundtrip(Frame::NodeHello {
            node_id: 3,
            incarnation: 9,
            params_fp: 0xFEED_FACE,
        });
        roundtrip(Frame::LeaseGrant {
            node: 1,
            epoch: 2,
            incarnation: 9,
            issued_units: vec![100, 0, 55],
            returned_units: vec![40, 0, 0],
        });
        roundtrip(Frame::LeaseReturn {
            node: 1,
            epoch: 2,
            returned_units: vec![41, 0, 7],
        });
        roundtrip(Frame::LeaseRequest {
            node: 1,
            epoch: 2,
            want_units: vec![150, 10, 55],
        });
        roundtrip(Frame::LeaseSteal {
            node: 4,
            epoch: 1,
            want_returned_units: vec![90, 0, 0],
        });
        roundtrip(Frame::StatsResponse(StatsReport {
            admitted: 1,
            rejected: 2,
            shed: 3,
            released: 4,
            expired: 5,
            expired_on_arrival: 6,
            live_tasks: 7,
            utilizations: vec![0.25, 0.5],
        }));
    }

    #[test]
    fn handshake_round_trips_and_validates() {
        let hello = Hello { version: VERSION };
        assert_eq!(Hello::decode(&hello.encode()), Ok(hello));
        let ack = HelloAck {
            version: VERSION,
            window: 256,
            max_frame: MAX_FRAME as u32,
            server_now_us: 55,
        };
        assert_eq!(HelloAck::decode(&ack.encode()), Ok(ack));

        let mut bad = hello.encode();
        bad[0] ^= 0xFF;
        assert!(matches!(Hello::decode(&bad), Err(ProtoError::BadMagic(_))));
        let mut wrong_version = hello.encode();
        wrong_version[4] = 99;
        assert_eq!(
            Hello::decode(&wrong_version),
            Err(ProtoError::BadVersion(99))
        );
    }

    #[test]
    fn handshake_accepts_the_whole_negotiable_range() {
        for version in MIN_VERSION..=VERSION {
            let hello = Hello { version };
            assert_eq!(
                Hello::decode(&hello.encode()),
                Ok(hello),
                "hello v{version}"
            );
            let ack = HelloAck {
                version,
                window: 8,
                max_frame: MAX_FRAME as u32,
                server_now_us: 1,
            };
            assert_eq!(HelloAck::decode(&ack.encode()), Ok(ack), "ack v{version}");
        }
        let too_old = Hello { version: 0 };
        assert_eq!(
            Hello::decode(&too_old.encode()),
            Err(ProtoError::BadVersion(0))
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_the_body_arrives() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        // Only the prefix is present — a streaming decoder must not wait
        // for 4 GiB of body before erroring.
        assert_eq!(
            Frame::decode(&buf),
            Err(ProtoError::FrameTooLarge(u32::MAX as usize))
        );
        assert_eq!(
            Frame::decode(&0u32.to_le_bytes()),
            Err(ProtoError::EmptyFrame)
        );
    }

    #[test]
    fn truncated_prefixes_ask_for_more_bytes() {
        let mut buf = Vec::new();
        Frame::Release { ticket_id: 1 }.encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(Frame::decode(&buf[..cut]), Ok(None), "cut={cut}");
        }
    }

    #[test]
    fn forged_stage_count_is_rejected_without_allocation() {
        // AdmitRequest claiming u16::MAX stages but carrying none.
        let mut body = vec![TYPE_ADMIT_REQUEST];
        body.extend_from_slice(&[0u8; 8 + 8 + 8 + 4 + 1]); // fixed fields
        body.extend_from_slice(&u16::MAX.to_le_bytes());
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        assert_eq!(
            Frame::decode(&buf),
            Err(ProtoError::TooManyStages(u16::MAX as usize))
        );
    }

    #[test]
    fn interned_response_templates_match_field_serialization_byte_for_byte() {
        let verdicts = [
            Verdict::Rejected,
            Verdict::Expired,
            Verdict::Admitted { ticket_id: 0 },
            Verdict::Admitted {
                ticket_id: u64::MAX,
            },
            Verdict::Admitted {
                ticket_id: 0x0102_0304_0506_0708,
            },
            Verdict::AdmittedAfterShedding {
                ticket_id: 99,
                shed: 0,
            },
            Verdict::AdmittedAfterShedding {
                ticket_id: u64::MAX,
                shed: u32::MAX,
            },
        ];
        for (i, &verdict) in verdicts.iter().enumerate() {
            for req_id in [0, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D ^ i as u64] {
                let mut field_by_field = Vec::new();
                Frame::AdmitResponse { req_id, verdict }.encode_into(&mut field_by_field);
                let (template, len) = encode_admit_response(req_id, verdict);
                assert_eq!(&template[..len], &field_by_field[..], "{verdict:?}");
                // Everything past the encoded length is template padding
                // the caller must not send.
                assert!(len <= ADMIT_RESPONSE_MAX);
            }
        }
    }

    #[test]
    fn read_from_lands_bytes_without_scratch_and_decodes_identically() {
        let mut wire = Vec::new();
        for nonce in 0..100u64 {
            Frame::Heartbeat { nonce }.encode_into(&mut wire);
        }
        let mut fb = FrameBuffer::new();
        let mut src: &[u8] = &wire;
        let mut seen = 0u64;
        loop {
            match fb.next_frame().unwrap() {
                Some(Frame::Heartbeat { nonce }) => {
                    assert_eq!(nonce, seen);
                    seen += 1;
                }
                Some(other) => panic!("unexpected {other:?}"),
                None => {
                    if fb.read_from(&mut src).unwrap() == 0 {
                        break;
                    }
                }
            }
        }
        assert_eq!(seen, 100);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_shrinks_back_after_draining_a_high_water_burst() {
        // A burst well past the shrink threshold, fed without draining in
        // between, forces the backing to its high-water mark.
        let mut wire = Vec::new();
        let mut nonce = 0u64;
        while wire.len() < 3 * BUF_SHRINK_ABOVE {
            Frame::Heartbeat { nonce }.encode_into(&mut wire);
            nonce += 1;
        }
        let mut fb = FrameBuffer::new();
        let mut src: &[u8] = &wire;
        while fb.pending() < wire.len() {
            assert!(fb.read_from(&mut src).unwrap() > 0);
        }
        assert!(fb.capacity() >= wire.len(), "backing reached high water");
        while fb.next_frame().unwrap().is_some() {}
        assert_eq!(fb.pending(), 0);
        // The drained buffer released its high-water capacity instead of
        // pinning it to the connection for life.
        assert_eq!(fb.capacity(), BUF_RETAIN);

        // A buffer that never exceeded the threshold keeps its backing
        // (no churn in steady state).
        let mut small = FrameBuffer::new();
        let mut one = Vec::new();
        Frame::Heartbeat { nonce: 7 }.encode_into(&mut one);
        small.extend(&one);
        let before = small.capacity();
        assert!(small.next_frame().unwrap().is_some());
        assert_eq!(small.capacity(), before);
    }

    #[test]
    fn fast_admit_body_decode_agrees_with_the_generic_decoder() {
        // Well-formed requests of 1–9 stages: the flat head plus its
        // arena range and the owned request `Frame::decode_body` builds
        // from them carry the same fields and demands.
        let mut arena = Vec::new();
        for n in 1..=9usize {
            for allow_shed in [false, true] {
                let task = WireTaskSpec {
                    deadline_us: 30_000 + n as u64,
                    stage_demands_us: (0..n as u64).map(|j| j * 1_000 + 17).collect(),
                    importance: n as u32,
                };
                let mut wire = Vec::new();
                Frame::encode_admit_request_into(
                    0xAB00 + n as u64,
                    77_000,
                    allow_shed,
                    &task,
                    &mut wire,
                );
                let body = &wire[4..];
                arena.clear();
                let head = decode_admit_body(body, &mut arena).expect("fast path decodes");
                let generic = match Frame::decode_body(body).expect("generic decodes") {
                    Frame::AdmitRequest(req) => req,
                    other => panic!("unexpected {other:?}"),
                };
                assert_eq!(head.req_id, generic.req_id);
                assert_eq!(head.expires_at_us, generic.expires_at_us);
                assert_eq!(head.allow_shed, generic.allow_shed);
                assert_eq!(head.deadline_us, generic.task.deadline_us);
                assert_eq!(head.importance, generic.task.importance);
                assert_eq!(head.demands_in(&arena), &generic.task.stage_demands_us[..]);
            }
        }

        // Malformed shapes are rejected with the arena as it was: zero
        // stages, unknown flag bits, truncated and over-long demand
        // arrays (`error_table` names each error).
        let mut good = Vec::new();
        Frame::encode_admit_request_into(
            1,
            2,
            false,
            &WireTaskSpec {
                deadline_us: 10,
                stage_demands_us: vec![3, 4],
                importance: 0,
            },
            &mut good,
        );
        let body = good[4..].to_vec();
        let mut zero_stages = body.clone();
        zero_stages[30] = 0;
        zero_stages[31] = 0;
        zero_stages.truncate(32);
        let mut bad_flags = body.clone();
        bad_flags[29] = 0b10;
        let mut truncated = body.clone();
        truncated.pop();
        let mut padded = body.clone();
        padded.push(0);
        for bad in [&zero_stages, &bad_flags, &truncated, &padded] {
            arena.clear();
            assert!(decode_admit_body(bad, &mut arena).is_err());
            assert!(arena.is_empty(), "failed decode must not leak demands");
            assert!(Frame::decode_body(bad).is_err());
        }
    }

    #[test]
    fn fixed_shape_admit_response_drain_agrees_with_the_generic_decoder() {
        // A stream mixing every verdict shape: the client's drain hands
        // back what `next_frame` sees, in the same order, and parks on a
        // non-admit frame.
        let verdicts = [
            Verdict::Rejected,
            Verdict::Expired,
            Verdict::Admitted { ticket_id: 42 },
            Verdict::AdmittedAfterShedding {
                ticket_id: u64::MAX,
                shed: 3,
            },
            Verdict::Admitted { ticket_id: 0 },
        ];
        let mut wire = Vec::new();
        for (i, &verdict) in verdicts.iter().enumerate() {
            Frame::AdmitResponse {
                req_id: i as u64 + 1,
                verdict,
            }
            .encode_into(&mut wire);
        }
        Frame::Heartbeat { nonce: 9 }.encode_into(&mut wire);

        // Fed in 3-byte slivers, so the drain also proves it never reads
        // past a partial frame.
        let mut fast = FrameBuffer::new();
        let mut drained = Vec::new();
        let mut tail = None;
        for chunk in wire.chunks(3) {
            fast.extend(chunk);
            loop {
                match fast.next_admit_response().unwrap() {
                    DrainedAdmit::Admit { req_id, verdict } => drained.push((req_id, verdict)),
                    DrainedAdmit::Pending => break,
                    DrainedAdmit::Other(frame) => {
                        tail = Some(frame);
                        break;
                    }
                }
            }
        }
        let expected: Vec<(u64, Verdict)> = verdicts
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 + 1, v))
            .collect();
        assert_eq!(drained, expected);
        assert_eq!(tail, Some(Frame::Heartbeat { nonce: 9 }));
        assert_eq!(fast.pending(), 0);

        // And a `next_frame` drain of the same bytes agrees frame for frame.
        let mut generic = FrameBuffer::new();
        generic.extend(&wire);
        for &(req_id, verdict) in &expected {
            assert_eq!(
                generic.next_frame(),
                Ok(Some(Frame::AdmitResponse { req_id, verdict }))
            );
        }
        assert_eq!(
            generic.next_frame(),
            Ok(Some(Frame::Heartbeat { nonce: 9 }))
        );
    }

    /// What each decoding entry point makes of `wire`, normalized to
    /// [`Frame::decode`]'s shape: `Frame::decode`, `next_frame_into` and
    /// `next_admit_response`, in that order. Also checks what a call
    /// leaves behind: unless a frame came out, every byte is still
    /// pending and the demand arena is untouched.
    fn through_every_entry_point(wire: &[u8]) -> [Result<Option<Frame>, ProtoError>; 3] {
        let decoded = Frame::decode(wire).map(|o| o.map(|(frame, _)| frame));

        let mut fb = FrameBuffer::new();
        fb.extend(wire);
        let mut arena = vec![7u64, 7];
        let batched = fb.next_frame_into(&mut arena).map(|o| {
            o.map(|frame| match frame {
                BatchedFrame::Other(frame) => frame,
                BatchedFrame::Admit(head) => {
                    assert_eq!(head.demands.0, 2, "demands land after the arena's contents");
                    Frame::AdmitRequest(AdmitRequest {
                        req_id: head.req_id,
                        expires_at_us: head.expires_at_us,
                        allow_shed: head.allow_shed,
                        task: WireTaskSpec {
                            deadline_us: head.deadline_us,
                            stage_demands_us: head.demands_in(&arena).to_vec(),
                            importance: head.importance,
                        },
                    })
                }
            })
        });
        if !matches!(batched, Ok(Some(Frame::AdmitRequest(_)))) {
            assert_eq!(arena, [7, 7], "arena untouched");
        }
        let left = |out: &Result<Option<Frame>, ProtoError>| match out {
            Ok(Some(_)) => 0,
            _ => wire.len(),
        };
        assert_eq!(fb.pending(), left(&batched));

        let mut fb = FrameBuffer::new();
        fb.extend(wire);
        let drained = fb.next_admit_response().map(|d| match d {
            DrainedAdmit::Pending => None,
            DrainedAdmit::Admit { req_id, verdict } => {
                Some(Frame::AdmitResponse { req_id, verdict })
            }
            DrainedAdmit::Other(frame) => Some(frame),
        });
        assert_eq!(fb.pending(), left(&drained));

        [decoded, batched, drained]
    }

    /// `body` behind a length prefix declaring exactly its length.
    fn prefixed(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    }

    /// Every entry point makes `expected` of `wire`.
    #[track_caller]
    fn assert_all(wire: &[u8], expected: Result<Option<Frame>, ProtoError>, what: &str) {
        let all = [expected.clone(), expected.clone(), expected];
        assert_eq!(through_every_entry_point(wire), all, "{what}");
    }

    #[track_caller]
    fn assert_rejected(body: &[u8], err: ProtoError, what: &str) {
        assert_all(&prefixed(body), Err(err), what);
    }

    #[test]
    fn error_table() {
        const BAD_REQ: ProtoError = ProtoError::Malformed("AdmitRequest");
        const BAD_RESP: ProtoError = ProtoError::Malformed("AdmitResponse");

        // The length prefix, judged before any body byte is looked at
        // (byte 4 names either fixed-shape frame, with enough bytes
        // behind it for either to be tried).
        for ty in [TYPE_ADMIT_REQUEST, TYPE_ADMIT_RESPONSE] {
            for (len, err) in [
                (0u32, ProtoError::EmptyFrame),
                (
                    MAX_FRAME as u32 + 1,
                    ProtoError::FrameTooLarge(MAX_FRAME + 1),
                ),
                (u32::MAX, ProtoError::FrameTooLarge(u32::MAX as usize)),
            ] {
                let mut wire = len.to_le_bytes().to_vec();
                assert_all(&wire, Err(err.clone()), "prefix alone");
                wire.push(ty);
                wire.extend_from_slice(&[0; 47]);
                assert_all(&wire, Err(err), "prefix and 48 bytes");
            }
        }

        // ---- AdmitRequest: a two-stage request, 32 + 16 body bytes.
        let request = AdmitRequest {
            req_id: 0x0102_0304_0506_0708,
            expires_at_us: 99,
            allow_shed: true,
            task: WireTaskSpec {
                deadline_us: 30_000,
                stage_demands_us: vec![5, 6],
                importance: 4,
            },
        };
        let mut wire = Vec::new();
        Frame::AdmitRequest(request.clone()).encode_into(&mut wire);
        let body = wire[4..].to_vec();
        assert_eq!(body.len(), 48);
        assert_all(&wire, Ok(Some(Frame::AdmitRequest(request))), "whole");
        for cut in 0..wire.len() {
            // Short of its declared length: not an error, wait for more.
            assert_all(&wire[..cut], Ok(None), &format!("request cut at {cut}"));
        }
        for cut in 1..body.len() {
            // Declared at its truncated length: unrepairable.
            assert_rejected(&body[..cut], BAD_REQ, &format!("request body of {cut}"));
        }
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = body.clone();
            edit(&mut b);
            b
        };
        let stages = |n: u16, demands: usize| {
            with(&move |b| {
                b[30..32].copy_from_slice(&n.to_le_bytes());
                b.resize(32 + 8 * demands, 0);
            })
        };
        assert_rejected(&with(&|b| b.push(0)), BAD_REQ, "one trailing byte");
        assert_rejected(&with(&|b| b[29] |= 0b10), BAD_REQ, "flag bit 1");
        assert_rejected(&with(&|b| b[29] = 0x80), BAD_REQ, "flag bit 7");
        assert_rejected(&stages(0, 0), BAD_REQ, "no stages");
        assert_rejected(&stages(0, 2), BAD_REQ, "no stages, two demands");
        assert_rejected(&stages(3, 2), BAD_REQ, "a demand short");
        assert_rejected(&stages(1, 2), BAD_REQ, "a demand over");
        assert_rejected(&stages(1024, 0), BAD_REQ, "the limit, no demands");
        let too_many = |n: usize| ProtoError::TooManyStages(n);
        assert_rejected(
            &stages(1025, 0),
            too_many(1025),
            "past the limit, no demands",
        );
        assert_rejected(
            &stages(1025, 2),
            too_many(1025),
            "past the limit, two demands",
        );
        assert_rejected(
            &stages(u16::MAX, 0),
            too_many(65_535),
            "u16::MAX, no demands",
        );
        // Every demand present does not excuse the count.
        assert_rejected(
            &stages(1025, 1025),
            too_many(1025),
            "past the limit, complete",
        );
        // Reserved flag bits are judged before the count is read.
        let mut both = stages(1025, 0);
        both[29] = 0b10;
        assert_rejected(&both, BAD_REQ, "flag bit 1 and past the limit");

        // ---- AdmitResponse: all four shapes.
        for (verdict, len) in [
            (Verdict::Rejected, 10),
            (Verdict::Expired, 10),
            (Verdict::Admitted { ticket_id: 77 }, 18),
            (
                Verdict::AdmittedAfterShedding {
                    ticket_id: 78,
                    shed: 2,
                },
                22,
            ),
        ] {
            let frame = Frame::AdmitResponse { req_id: 5, verdict };
            let mut wire = Vec::new();
            frame.encode_into(&mut wire);
            let body = wire[4..].to_vec();
            assert_eq!(body.len(), len);
            assert_all(&wire, Ok(Some(frame)), "whole");
            for cut in 0..wire.len() {
                assert_all(&wire[..cut], Ok(None), &format!("{verdict:?} cut at {cut}"));
            }
            for cut in 1..body.len() {
                assert_rejected(
                    &body[..cut],
                    BAD_RESP,
                    &format!("{verdict:?} body of {cut}"),
                );
            }
            let mut padded = body.clone();
            padded.push(0);
            assert_rejected(&padded, BAD_RESP, "one trailing byte");
            // A known code in a body of another code's length.
            for (code, shape) in [18usize, 22, 10, 10].into_iter().enumerate() {
                if shape != len {
                    let mut b = body.clone();
                    b[9] = code as u8;
                    assert_rejected(&b, BAD_RESP, &format!("code {code} in {len} bytes"));
                }
            }
            // An unknown code, whatever the length.
            for code in [4u8, 0xFF] {
                let mut b = body.clone();
                b[9] = code;
                assert_rejected(&b, ProtoError::UnknownVerdict(code), "unknown code");
                b.push(0);
                assert_rejected(&b, ProtoError::UnknownVerdict(code), "unknown code, padded");
            }
        }
    }

    /// The wire format pinned by data: one literal byte string per shape,
    /// laid out by hand from the tables in DESIGN.md, decoded to the
    /// expected value through every entry point and re-encoded to the
    /// same bytes. No encoder wrote these vectors.
    #[test]
    fn golden_wire_vectors() {
        #[rustfmt::skip]
        const HELLO: &[u8] = &[
            0x46, 0x52, 0x41, 0x50, // magic "FRAP"
            2, 0, // version
            0, 0, // reserved
        ];
        #[rustfmt::skip]
        const HELLO_ACK: &[u8] = &[
            0x46, 0x52, 0x41, 0x50, // magic "FRAP"
            2, 0, // version
            0, 1, // window
            0, 0, 1, 0, // max_frame
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // server_now_us
        ];
        #[rustfmt::skip]
        const ADMIT_REQUEST_SHED: &[u8] = &[
            0x38, 0, 0, 0, // len
            1, // type
            7, 0, 0, 0, 0, 0, 0, 0, // req_id
            0x40, 0xE2, 1, 0, 0, 0, 0, 0, // expires_at_us
            0xA0, 0x86, 1, 0, 0, 0, 0, 0, // deadline_us
            3, 0, 0, 0, // importance
            1, // flags
            3, 0, // count
            0x88, 0x13, 0, 0, 0, 0, 0, 0, // demands[0]
            0, 0, 0, 0, 0, 0, 0, 0, // demands[1]
            9, 3, 0, 0, 0, 0, 0, 0, // demands[2]
        ];
        #[rustfmt::skip]
        const ADMIT_REQUEST_NO_SHED: &[u8] = &[
            0x38, 0, 0, 0, // len
            1, // type
            7, 0, 0, 0, 0, 0, 0, 0, // req_id
            0x40, 0xE2, 1, 0, 0, 0, 0, 0, // expires_at_us
            0xA0, 0x86, 1, 0, 0, 0, 0, 0, // deadline_us
            3, 0, 0, 0, // importance
            0, // flags
            3, 0, // count
            0x88, 0x13, 0, 0, 0, 0, 0, 0, // demands[0]
            0, 0, 0, 0, 0, 0, 0, 0, // demands[1]
            9, 3, 0, 0, 0, 0, 0, 0, // demands[2]
        ];
        #[rustfmt::skip]
        const RESPONSE_ADMITTED: &[u8] = &[
            0x12, 0, 0, 0, // len
            2, // type
            9, 0, 0, 0, 0, 0, 0, 0, // req_id
            0, // verdict
            0x11, 0, 0, 0, 0, 0, 0, 0, // ticket_id
        ];
        #[rustfmt::skip]
        const RESPONSE_SHED: &[u8] = &[
            0x16, 0, 0, 0, // len
            2, // type
            0x0A, 0, 0, 0, 0, 0, 0, 0, // req_id
            1, // verdict
            0x12, 0, 0, 0, 0, 0, 0, 0, // ticket_id
            2, 0, 0, 0, // shed
        ];
        #[rustfmt::skip]
        const RESPONSE_REJECTED: &[u8] = &[
            0x0A, 0, 0, 0, // len
            2, // type
            0x0B, 0, 0, 0, 0, 0, 0, 0, // req_id
            2, // verdict
        ];
        #[rustfmt::skip]
        const RESPONSE_EXPIRED: &[u8] = &[
            0x0A, 0, 0, 0, // len
            2, // type
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // req_id
            3, // verdict
        ];
        #[rustfmt::skip]
        const RELEASE: &[u8] = &[
            9, 0, 0, 0, // len
            3, // type
            4, 0, 0, 0, 0, 0, 0, 0, // ticket_id
        ];
        #[rustfmt::skip]
        const HEARTBEAT: &[u8] = &[
            9, 0, 0, 0, // len
            4, // type
            0xAD, 0xDE, 0, 0, 0, 0, 0, 0, // nonce
        ];
        #[rustfmt::skip]
        const HEARTBEAT_ACK: &[u8] = &[
            9, 0, 0, 0, // len
            5, // type
            0xEF, 0xBE, 0, 0, 0, 0, 0, 0, // nonce
        ];
        #[rustfmt::skip]
        const STATS_REQUEST: &[u8] = &[
            1, 0, 0, 0, // len
            6, // type
        ];
        #[rustfmt::skip]
        const STATS_RESPONSE: &[u8] = &[
            0x4B, 0, 0, 0, // len
            7, // type
            1, 0, 0, 0, 0, 0, 0, 0, // admitted
            2, 0, 0, 0, 0, 0, 0, 0, // rejected
            3, 0, 0, 0, 0, 0, 0, 0, // shed
            4, 0, 0, 0, 0, 0, 0, 0, // released
            5, 0, 0, 0, 0, 0, 0, 0, // expired
            6, 0, 0, 0, 0, 0, 0, 0, // expired_on_arrival
            7, 0, 0, 0, 0, 0, 0, 0, // live_tasks
            2, 0, // count
            0, 0, 0, 0, 0, 0, 0xD0, 0x3F, // utilizations[0] = 0.25
            0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // utilizations[1] = 0.5
        ];
        #[rustfmt::skip]
        const NODE_HELLO: &[u8] = &[
            0x19, 0, 0, 0, // len
            8, // type
            3, 0, 0, 0, 0, 0, 0, 0, // node_id
            9, 0, 0, 0, 0, 0, 0, 0, // incarnation
            0xCE, 0xFA, 0xED, 0xFE, 0, 0, 0, 0, // params_fp
        ];
        #[rustfmt::skip]
        const LEASE_GRANT: &[u8] = &[
            0x33, 0, 0, 0, // len
            9, // type
            1, 0, 0, 0, // node
            2, 0, 0, 0, // epoch
            9, 0, 0, 0, 0, 0, 0, 0, // incarnation
            2, 0, // count
            0x64, 0, 0, 0, 0, 0, 0, 0, // issued_units[0]
            0x37, 0, 0, 0, 0, 0, 0, 0, // issued_units[1]
            0x28, 0, 0, 0, 0, 0, 0, 0, // returned_units[0]
            0, 0, 0, 0, 0, 0, 0, 0, // returned_units[1]
        ];
        #[rustfmt::skip]
        const LEASE_RETURN: &[u8] = &[
            0x1B, 0, 0, 0, // len
            0x0A, // type
            1, 0, 0, 0, // node
            2, 0, 0, 0, // epoch
            2, 0, // count
            0x29, 0, 0, 0, 0, 0, 0, 0, // returned_units[0]
            7, 0, 0, 0, 0, 0, 0, 0, // returned_units[1]
        ];
        #[rustfmt::skip]
        const LEASE_REQUEST: &[u8] = &[
            0x1B, 0, 0, 0, // len
            0x0B, // type
            1, 0, 0, 0, // node
            2, 0, 0, 0, // epoch
            2, 0, // count
            0x96, 0, 0, 0, 0, 0, 0, 0, // want_units[0]
            0x0A, 0, 0, 0, 0, 0, 0, 0, // want_units[1]
        ];
        #[rustfmt::skip]
        const LEASE_STEAL: &[u8] = &[
            0x13, 0, 0, 0, // len
            0x0C, // type
            4, 0, 0, 0, // node
            1, 0, 0, 0, // epoch
            1, 0, // count
            0x5A, 0, 0, 0, 0, 0, 0, 0, // want_returned_units[0]
        ];

        let hello = Hello { version: 2 };
        assert_eq!(hello.encode(), HELLO);
        assert_eq!(Hello::decode(HELLO.try_into().unwrap()), Ok(hello));
        let ack = HelloAck {
            version: 2,
            window: 256,
            max_frame: 65_536,
            server_now_us: 0x1122_3344_5566_7788,
        };
        assert_eq!(ack.encode(), HELLO_ACK);
        assert_eq!(HelloAck::decode(HELLO_ACK.try_into().unwrap()), Ok(ack));

        let admit_request = |allow_shed| {
            Frame::AdmitRequest(AdmitRequest {
                req_id: 7,
                expires_at_us: 123_456,
                allow_shed,
                task: WireTaskSpec {
                    deadline_us: 100_000,
                    stage_demands_us: vec![5_000, 0, 777],
                    importance: 3,
                },
            })
        };
        let admit_response = |req_id, verdict| Frame::AdmitResponse { req_id, verdict };
        let golden: [(Frame, &[u8]); 16] = [
            (admit_request(true), ADMIT_REQUEST_SHED),
            (admit_request(false), ADMIT_REQUEST_NO_SHED),
            (
                admit_response(9, Verdict::Admitted { ticket_id: 17 }),
                RESPONSE_ADMITTED,
            ),
            (
                admit_response(
                    10,
                    Verdict::AdmittedAfterShedding {
                        ticket_id: 18,
                        shed: 2,
                    },
                ),
                RESPONSE_SHED,
            ),
            (admit_response(11, Verdict::Rejected), RESPONSE_REJECTED),
            (admit_response(u64::MAX, Verdict::Expired), RESPONSE_EXPIRED),
            (Frame::Release { ticket_id: 4 }, RELEASE),
            (Frame::Heartbeat { nonce: 0xDEAD }, HEARTBEAT),
            (Frame::HeartbeatAck { nonce: 0xBEEF }, HEARTBEAT_ACK),
            (Frame::StatsRequest, STATS_REQUEST),
            (
                Frame::StatsResponse(StatsReport {
                    admitted: 1,
                    rejected: 2,
                    shed: 3,
                    released: 4,
                    expired: 5,
                    expired_on_arrival: 6,
                    live_tasks: 7,
                    utilizations: vec![0.25, 0.5],
                }),
                STATS_RESPONSE,
            ),
            (
                Frame::NodeHello {
                    node_id: 3,
                    incarnation: 9,
                    params_fp: 0xFEED_FACE,
                },
                NODE_HELLO,
            ),
            (
                Frame::LeaseGrant {
                    node: 1,
                    epoch: 2,
                    incarnation: 9,
                    issued_units: vec![100, 55],
                    returned_units: vec![40, 0],
                },
                LEASE_GRANT,
            ),
            (
                Frame::LeaseReturn {
                    node: 1,
                    epoch: 2,
                    returned_units: vec![41, 7],
                },
                LEASE_RETURN,
            ),
            (
                Frame::LeaseRequest {
                    node: 1,
                    epoch: 2,
                    want_units: vec![150, 10],
                },
                LEASE_REQUEST,
            ),
            (
                Frame::LeaseSteal {
                    node: 4,
                    epoch: 1,
                    want_returned_units: vec![90],
                },
                LEASE_STEAL,
            ),
        ];
        for (frame, bytes) in golden {
            assert_all(bytes, Ok(Some(frame.clone())), &format!("{frame:?}"));
            let mut encoded = Vec::new();
            frame.encode_into(&mut encoded);
            assert_eq!(encoded, bytes, "{frame:?}");
        }
    }

    #[test]
    #[should_panic(expected = "element count 1025 exceeds 1024")]
    fn admit_request_encoder_refuses_more_stages_than_a_peer_decodes() {
        let task = WireTaskSpec {
            deadline_us: 1,
            stage_demands_us: vec![1; MAX_STAGES + 1],
            importance: 0,
        };
        Frame::encode_admit_request_into(1, 2, false, &task, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "element count 1025 exceeds 1024")]
    fn lease_vector_encoder_refuses_more_units_than_a_peer_decodes() {
        let frame = Frame::LeaseReturn {
            node: 1,
            epoch: 1,
            returned_units: vec![0; MAX_STAGES + 1],
        };
        frame.encode_into(&mut Vec::new());
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        Frame::Heartbeat { nonce: 1 }.encode_into(&mut wire);
        Frame::Heartbeat { nonce: 2 }.encode_into(&mut wire);
        let mut fb = FrameBuffer::new();
        for chunk in wire.chunks(3) {
            fb.extend(chunk);
        }
        assert_eq!(fb.next_frame(), Ok(Some(Frame::Heartbeat { nonce: 1 })));
        assert_eq!(fb.next_frame(), Ok(Some(Frame::Heartbeat { nonce: 2 })));
        assert_eq!(fb.next_frame(), Ok(None));
        assert_eq!(fb.pending(), 0);
    }
}

//! `frap-service`: a concurrent, sharded online admission-control
//! service over the feasible-region test.
//!
//! The library crate (`frap-core`) proves the Section 3 region and runs
//! its Section 4 bookkeeping behind a single-owner, virtual-time
//! [`Admission`](frap_core::admission::Admission) controller. This crate
//! turns that controller into something a real server can call from many
//! threads at wall-clock time:
//!
//! * [`clock`] — the [`Clock`] abstraction: [`MonotonicClock`] for
//!   production, [`ManualClock`] for deterministic tests;
//! * [`wheel`] — a hierarchical timer wheel that schedules the paper's
//!   decrement-at-deadline events in amortized `O(1)` per shard;
//! * [`shard`] — [`ShardedUtilization`], per-stage synthetic-utilization
//!   counters in lock-free fixed-point atomics ([`frap_core::fixed`]) on
//!   one shared cache line, one line-aligned lane of bookkeeping per
//!   shard, and the full charge / decrement / idle-reset lifecycle;
//! * [`ring`] — the bounded MPSC ring that defers an admitted entry's
//!   structural bookkeeping off the lock-free decision path;
//! * [`metrics`] — admit/reject/shed counters, a nanosecond
//!   decision-latency histogram (reusing
//!   [`frap_core::hist::LatencyHistogram`]), and utilization snapshots;
//! * [`service`] — [`AdmissionService`], the `Send + Sync` handle with
//!   [`try_admit`](AdmissionService::try_admit),
//!   [`try_admit_or_shed`](AdmissionService::try_admit_or_shed), and
//!   RAII [`AdmissionTicket`]s.
//!
//! With one shard and a [`ManualClock`], the service makes decisions
//! bit-identically to the library controller (the oracle tests assert
//! this decision-for-decision); with many shards it trades that exact
//! interleaving for scalability while *never* admitting a task the
//! region test would reject — concurrent decrements only make it
//! conservative. See DESIGN.md ("Service layer") for the sharding
//! scheme and locking proofs, and §16 for the lock-free admit protocol.

// `unsafe` is confined to the pending ring; every other module must stay
// safe code (the ring module opts out locally with a reviewed argument).
#![deny(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod ring;
pub mod service;
pub mod shard;
pub mod wheel;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{CounterSnapshot, MetricsSnapshot, ServiceCounters};
pub use service::{
    AdmissionService, AdmissionServiceBuilder, AdmissionTicket, BatchRequest, ServiceOutcome,
};
pub use shard::{ShardedUtilization, TicketHasher};
pub use wheel::TimerWheel;

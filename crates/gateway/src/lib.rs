//! # frap-gateway — a networked admission gateway over `frap-service`
//!
//! This crate puts an [`AdmissionService`](frap_service::AdmissionService)
//! behind a TCP socket so that admission control can front a real
//! pipeline whose clients live in other processes or on other hosts. It
//! is deliberately built on `std::net` + `std::thread` alone — no async
//! runtime, no serialization framework — to keep the reproduction
//! self-contained and the wire costs legible.
//!
//! The crate splits into four modules:
//!
//! | module | role |
//! |---|---|
//! | [`proto`] | versioned, length-prefixed little-endian wire protocol: handshake, frames, the one encoder and one decoder of each frame shape, the reassembly buffer and the out buffer |
//! | [`reactor`] | per-worker readiness reactor: epoll, with a cross-thread eventfd waker (Linux only) |
//! | [`server`] | reactor-driven worker pool, one admit run per wake in read order, bounded in-flight windows, graceful drain |
//! | [`client`] | blocking pipelining client used by tests, `frap-scenarios` and the benchmark |
//!
//! DESIGN.md §10 describes the whole datapath once: the wire format and
//! its one codec per frame shape, the byte lifecycle, the reactor and the
//! wake batch.
//!
//! ## Quick start
//!
//! ```
//! use frap_core::admission::ExactContributions;
//! use frap_core::region::FeasibleRegion;
//! use frap_core::time::TimeDelta;
//! use frap_core::wire::WireTaskSpec;
//! use frap_gateway::client::GatewayClient;
//! use frap_gateway::server::{GatewayConfig, GatewayServer};
//! use frap_service::AdmissionService;
//!
//! let region = FeasibleRegion::deadline_monotonic(3);
//! let service = AdmissionService::builder(region, ExactContributions)
//!     .shards(2)
//!     .build();
//! let server = GatewayServer::bind("127.0.0.1:0", service, GatewayConfig::default()).unwrap();
//!
//! let mut client = GatewayClient::connect(server.local_addr()).unwrap();
//! let task = WireTaskSpec::new(
//!     TimeDelta::from_millis(100),
//!     &[TimeDelta::from_millis(5); 3],
//!     frap_core::Importance::new(7),
//! );
//! let verdict = client
//!     .admit(&task, TimeDelta::from_millis(50), false)
//!     .unwrap();
//! if let Some(ticket_id) = verdict.ticket_id() {
//!     client.release(ticket_id).unwrap();
//! }
//! drop(client);
//! server.shutdown();
//! ```

// `deny`, not `forbid`: the [`reactor`] module carries a scoped
// `#[allow(unsafe_code)]` for its raw syscall surface (epoll/eventfd),
// which `forbid` would make impossible. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod reactor;
pub mod server;

pub use client::GatewayClient;
pub use proto::{AdmitRequest, Frame, ProtoError, StatsReport, Verdict};
pub use server::{GatewayConfig, GatewayServer, GatewaySnapshot};

#![warn(missing_docs)]

//! # `tm-server` — the service front-end
//!
//! The paper positions transaction modification as a *subsystem of a
//! DBMS*: ModT/ModP run inside a server fielding transactions from many
//! clients, not inside a single-threaded library. This crate promotes
//! the `txmod` engine into exactly that — a multi-tenant TCP service —
//! without leaving the standard library (no async runtime, no external
//! dependencies).
//!
//! * [`proto`] — the wire protocol: length-prefixed, CRC-32-checksummed
//!   frames (the `tm-durable` WAL framing discipline, applied to a
//!   socket) carrying the full prepared lifecycle: `Hello`, `Prepare`,
//!   `Execute`/`ExecuteMany`, `AdHoc`, `DefineRule`/`DefineConstraint`/
//!   `RemoveRule`, `Snapshot`, `Analyze`, `Stats`;
//! * [`tenant`] — multi-tenancy: a [`TenantRegistry`] mapping tenant
//!   ids to independent engines (own catalog, enforcement mode,
//!   durability), each wrapped in a `txmod::ConcurrentEngine`, with
//!   per-tenant [`Admission`] control (queue-depth cap plus optional
//!   token bucket; overload earns a typed `Busy`, never a stalled accept
//!   loop);
//! * [`server`] — the std-only TCP server: thread-per-connection with
//!   timeout-ticked reads, so shutdown is prompt and hang-free. Each
//!   connection runs a session of its tenant's engine; executions run
//!   in place under the engine lock, so they never conflict and nothing
//!   is retried — see `docs/concurrency.md`;
//! * [`client`] — a blocking client speaking the same protocol;
//! * [`metrics`] — the metrics sink: atomic counters and log₂
//!   histograms for per-tenant throughput, plan reuse and
//!   re-modification, per-rule check verdicts and latency attribution,
//!   COW unshares, and WAL bytes/fsyncs, rendered as a plaintext dump
//!   by the `Stats` request;
//! * [`error`] — typed protocol errors: corrupt frames and malformed
//!   payloads are reported, never panicked on.
//!
//! See `docs/server.md` for the frame format, request taxonomy, tenancy
//! model, admission control, and the metrics glossary.

pub mod client;
pub mod error;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod tenant;

pub use client::{Client, PreparedStmt};
pub use error::ProtocolError;
pub use metrics::{Histogram, RuleMetrics, ServerMetrics, TenantMetrics};
pub use proto::{ErrorCode, Request, Response, TxReport, MAX_FRAME};
pub use server::{serve, ServerConfig, ServerHandle};
pub use tenant::{Admission, Tenant, TenantRegistry, TenantSpec};

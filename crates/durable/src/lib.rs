//! # tm-durable — the durability subsystem
//!
//! Crash safety for the transaction-modification engine, built on the
//! paper's own differentials: the per-relation `R@ins`/`R@del` nets that
//! transaction modification computes anyway (Section 4.1) double as redo
//! records, so the WAL logs exactly the logical change a commit made —
//! no physical pages, no undo, no ARIES machinery.
//!
//! Three pieces:
//!
//! * [`wal`] — length-prefixed, CRC-32-checksummed frames with strictly
//!   monotonic LSNs; [`Durability`] levels (`None`/`Buffered`/`Fsync`)
//!   and group commit via [`DurabilityConfig`];
//! * [`checkpoint`] — atomic full-state snapshots (temp file + rename)
//!   that bound recovery work and make the sealed log redundant, streamed
//!   over the retired previous checkpoint so none is ever deleted in
//!   steady state;
//! * [`failpoint`] — a fault-injection file shim (torn writes, bit rot,
//!   failed fsync) that the crash-matrix test suite drives.
//!
//! The crate depends only on `tm-relational` — the engine layer
//! (`txmod`) owns the replay logic, feeding scanned [`record::WalRecord`]s
//! back through its normal execution paths so recovery reproduces the
//! committed prefix bit-for-bit.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod counters;
pub mod crc;
pub mod error;
pub mod failpoint;
pub mod record;
pub mod wal;

pub use checkpoint::{fsync_dir, list_checkpoints, retire_checkpoints, Checkpoint, SPARE_FILE};
pub use counters::{wal_bytes_written, wal_fsyncs};
pub use crc::crc32;
pub use error::{DurableError, Result};
pub use failpoint::{FailPlan, FailpointFile, Failpoints};
pub use record::{encode_commit, WalRecord};
pub use wal::{scan_wal, Durability, DurabilityConfig, ScannedFrame, Wal, WalScan};

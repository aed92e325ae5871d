//! # tm-benchmark — one benchmark for the whole transaction path
//!
//! Seven named closed-loop workloads over one generated "shop" data model,
//! end-to-end metrics with regression bounds, and per-layer metrics from a
//! depth ladder, probes and an outside-in trace. See `README.md` for the
//! glossary and `../BENCHMARK.json` for the contract the driver checks.
//!
//! Only [`sut`] calls the product crates; everything else is plain data
//! and clocks.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod rng;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;

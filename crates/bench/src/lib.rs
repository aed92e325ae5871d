#![warn(missing_docs)]

//! # `tm-bench` — benchmark harness for the reproduction
//!
//! Workload generators and reporting helpers shared by the criterion
//! dev benches (`benches/`; the repo's performance claims rest on
//! `benchmark/`, not on these) and the `experiments` binary, which
//! regenerates the paper's quantitative artifacts:
//!
//! * **Table 1** — translation of typical constraint constructs,
//! * **Example 5.1** — the worked transaction modification,
//! * **§7 performance evaluation** — the 5 000-key / 50 000-FK / 5 000-insert
//!   workload on an 8-node machine (referential < 3 s, domain < 1 s on the
//!   1992 POOMA; our substrate is threads on one host, so the *shape* — who
//!   is cheaper, how it scales — is the reproduction target),
//! * the ablations the design sections call for: rule translation at
//!   definition time vs. per transaction (§6.2) and differential vs. full
//!   checks (§5.2.1).

pub mod report;
pub mod scenarios;
pub mod workload;

pub use report::Table;
pub use scenarios::Scenario;
pub use workload::{paper, Workload};

#![warn(missing_docs)]

//! # `tm-paper` — the paper's evidence and extensions, outside the product
//!
//! The transaction modification subsystem lives in the product crates
//! (`txmod` and the layers under it). This package holds what supports the
//! paper around it, and no product crate depends on it:
//!
//! * **the §7 parallel substrate.** The paper's feasibility evidence is a
//!   prototype inside **PRISMA/DB**, a parallel main-memory relational DBMS
//!   running on the 8-node POOMA multiprocessor (§7, refs \[1, 22\]); the
//!   companion work \[7\] shows how transaction-modification checks
//!   decompose over **fragmented relations**. [`FragmentedRelation`] is a
//!   relation hash-partitioned on one attribute across `n` nodes;
//!   [`ParallelDb`] is a shared-nothing collection of them where each
//!   "node" is an OS thread on its own fragments. It runs the two §7
//!   checks — domain checks (embarrassingly parallel selections) and
//!   referential checks (co-partitioned anti-joins, or a shuffle with its
//!   message count reported when the join attribute is not the
//!   fragmentation attribute) — over the whole relation or a delta batch.
//! * **the test oracle** ([`oracle`]): the direct semantic evaluator of
//!   CL — a state constraint is a boolean function over database states
//!   (Definition 3.1), a transition constraint one over state pairs
//!   (Definition 3.3) — and [`oracle::check_state`], which
//!   redoes `Engine::check_state` with it. The engine decides constraints
//!   with their compiled violation queries only; the property suites
//!   assert that it commits exactly the transactions this evaluator
//!   accepts, so they check the translation instead of trusting it.
//! * **the multiset extension** the paper's conclusions point to:
//!   [`Multiset`], a bag of tuples with the `MLT` multiplicity function.
//! * **Table 1** ([`table1`]): the seven construct classes of the paper's
//!   "Translation of typical constraint constructs", each with its
//!   verbatim paper translation and the program `TransC` produces.
//! * **workload generators and reports** ([`workload`], [`Table`]) for the
//!   criterion dev benches (`benches/`) and the `experiments` binary,
//!   which regenerates the paper's quantitative artifacts: Table 1,
//!   Example 5.1, the §7 performance evaluation, and the ablations the
//!   design sections call for (rule translation at definition time vs.
//!   per transaction, §6.2; differential vs. full checks, §5.2.1). The
//!   repo's performance claims rest on `benchmark/`, not on these.
//!
//! ## Substitution note
//!
//! The original hardware was a 1992 message-passing multiprocessor. Here a
//! node is a thread and the "network" is memory, so absolute numbers are
//! incomparable — but the *code path* the paper measures (fragment-local
//! selection/anti-join after routing by hash) is the same, which preserves
//! the shape of the scaling results.

pub mod db;
mod eval;
pub mod fragment;
pub mod multiset;
pub mod oracle;
pub mod report;
pub mod table1;
pub mod workload;

pub use db::{CheckReport, ParallelDb};
pub use fragment::FragmentedRelation;
pub use multiset::Multiset;
pub use report::Table;
pub use table1::{table1_rows, table1_schema, Table1Row};
pub use workload::{paper, Workload};

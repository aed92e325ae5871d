#![warn(missing_docs)]

//! # `txmod-repro` — workspace façade
//!
//! Umbrella package for the reproduction of Grefen, *Combining Theory and
//! Practice in Integrity Control: A Declarative Approach to the
//! Specification of a Transaction Modification Subsystem* (VLDB 1993).
//!
//! This package owns the cross-crate integration tests in `tests/` and the
//! runnable walkthroughs in `examples/` (start with
//! `cargo run --example quickstart`), and re-exports every layer of the
//! pipeline so downstream users can depend on one crate:
//!
//! ```text
//! tm_relational → tm_calculus / tm_algebra → tm_rules → tm_translate
//!               → txmod (the engine)
//! ```
//!
//! The paper's §7 parallel substrate, its multiset extension and the
//! experiments that regenerate its figures are not part of the subsystem:
//! they live in the `tm-paper` package (`crates/paper`), which this façade
//! does not depend on.
//!
//! See the repository `README.md` for the architecture map and
//! `docs/grammar.md` for the concrete CL / algebra syntax.

pub use tm_algebra as algebra;
pub use tm_calculus as calculus;
pub use tm_relational as relational;
pub use tm_rules as rules;
pub use tm_translate as translate;
pub use txmod as engine;

#![warn(missing_docs)]

//! # `txmod` — a transaction modification subsystem for integrity control
//!
//! This crate is the primary contribution of Grefen, *Combining Theory and
//! Practice in Integrity Control: A Declarative Approach to the
//! Specification of a Transaction Modification Subsystem* (VLDB 1993),
//! reproduced as a Rust library.
//!
//! **Transaction modification** prevents integrity violations by rewriting
//! every update transaction before execution: the subsystem appends the
//! extended relational algebra programs of all integrity rules the
//! transaction's updates may trigger — recursively, because appended
//! compensating actions may trigger further rules — so that the modified
//! transaction *cannot* commit in a state that violates the declared
//! constraints.
//!
//! ```
//! use txmod::Engine;
//! use tm_relational::schema::beer_schema;
//! use tm_relational::Tuple;
//! use tm_algebra::builder::TransactionBuilder;
//!
//! let mut engine = Engine::new(beer_schema());
//! engine
//!     .define_constraint("domain", "forall x (x in beer implies x.alcohol >= 0)")
//!     .unwrap();
//! engine
//!     .load("brewery", vec![Tuple::of(("guineken", "dublin", "ie"))])
//!     .unwrap();
//!
//! // A violating transaction is modified and aborts:
//! let tx = TransactionBuilder::new()
//!     .insert_tuple("beer", Tuple::of(("bad", "stout", "guineken", -1.0_f64)))
//!     .build();
//! let outcome = engine.execute(&tx).unwrap();
//! assert!(!outcome.committed());
//!
//! // A correct one commits:
//! let tx = TransactionBuilder::new()
//!     .insert_tuple("beer", Tuple::of(("good", "stout", "guineken", 6.0_f64)))
//!     .build();
//! assert!(engine.execute(&tx).unwrap().committed());
//! ```
//!
//! ## Module map
//!
//! * [`modify`] — the declarative algorithms: `ModT`/`ModP`/`TrigP`
//!   (Algorithm 5.1), rule selection `SelRS` (5.2), on-the-fly rule
//!   translation `TrOptRS` (5.3), and the statically compiled variant
//!   `SelPS`/`ConcatP` (Algorithm 6.2),
//! * [`programs`] — integrity programs (Definition 6.3) and `GetIntP`
//!   (Algorithm 6.1), plus the differential per-trigger variant,
//! * [`catalog`] — the rule catalog with triggering-graph validation and
//!   an incrementally maintained static analysis (`tm-analyze`):
//!   diagnostics, semantic triggering-graph refinement, termination
//!   certificates,
//! * [`engine`] — the integrated engine: schema + data + rules +
//!   configurable enforcement,
//! * [`prepared`] — prepared transactions: run `ModT` once over a
//!   parameterized template ([`Engine::prepare`]), bind values and execute
//!   millions of times ([`prepared::Prepared::bind`] /
//!   [`Engine::execute_statement`] on the engine's one statement table),
//!   with consistent copy-on-write read snapshots (a clone of
//!   [`Engine::database`]),
//! * [`views`] — materialized view maintenance by transaction
//!   modification, the second application named in the paper's
//!   conclusions,
//! * [`durability`] — the engine-side durability policy: commit
//!   differentials and catalog DDL logged through the `tm-durable` WAL,
//!   checkpointing ([`Engine::checkpoint`]) and crash recovery
//!   ([`Engine::recover`]) that rebuild a `state_eq`-identical engine
//!   from the committed prefix,
//! * [`concurrent`] — sessions for many threads over one engine:
//!   [`ConcurrentEngine`] runs each session's executions in place on the
//!   authoritative database under the engine lock, through
//!   [`Engine::execute_statement`] itself, so every concurrent history is
//!   serial in lock order.

pub mod catalog;
pub mod concurrent;
pub mod durability;
pub mod engine;
pub mod error;
pub mod modify;
pub mod prepared;
pub mod programs;
pub mod views;

pub use catalog::Catalog;
pub use concurrent::{ConcurrentEngine, ConcurrentSession, EngineGuard};
pub use durability::{Recovered, RecoveryError, RecoveryReport, WAL_FILE};
pub use engine::{EnforcementMode, Engine, EngineConfig, EngineOutcome, ModStats};
pub use error::{EngineError, Result};
pub use modify::{
    mod_t, mod_t_with, CheckSummary, ModContext, RuleSpecialization, SpecOutcome,
    SpecializationReport,
};
pub use prepared::{BoundTransaction, Prepared, RuleCheck, Session, StatementId};
pub use programs::{get_int_p, IntegrityProgram};
pub use tm_analyze::{
    AnalysisReport, CatalogAnalysis, Code as AnalysisCode, Diagnostic, PrunedEdge, Severity,
    TerminationCertificate,
};
pub use tm_durable::{Durability, DurabilityConfig, DurableError, FailPlan, Failpoints};
pub use views::ViewDef;

#![warn(missing_docs)]

//! # `tm-translate` — integrity rule translation and optimization
//!
//! Section 5.2 of Grefen (VLDB 1993): before integrity rules can be used
//! for transaction modification, they are **optimized** (`OptR`,
//! Algorithm 5.4) and **translated** (`TransR`, Algorithm 5.5) into
//! extended relational algebra programs.
//!
//! * [`transc`] — `TransC` / `CalcToAlg` (Algorithm 5.6): translation of
//!   CL conditions into *aborting* programs built around the `alarm`
//!   statement of Definition 5.1. The supported class generalises Table 1:
//!   any ∀-prefix with membership guards over a matrix that is
//!   quantifier-free, an ∃-block with a quantifier-free matrix, or a
//!   boolean combination of such forms.
//! * [`table1`] — the seven construct classes of Table 1 with their
//!   verbatim paper translations, used by the `table1` experiment and the
//!   golden tests.
//! * [`transr`] — `TransR` / `TransCA` (Algorithm 5.5): aborting rules
//!   translate their condition; compensating rules keep their response
//!   action as the triggered program.
//! * [`simplify`] — syntactic condition/program optimization (`OptC`):
//!   double-negation elimination, constant folding, select/projection
//!   simplification.
//! * [`differential`] — the differential-relation optimization the paper
//!   points to in §5.2.1 (refs \[18, 5, 7\]): checks are specialised per
//!   trigger to touch only the `R@ins` / `R@del` delta relations.
//! * [`specialize`] — prepare-time constraint specialization: weakest-
//!   precondition pruning and per-row point-probe reduction of checks
//!   against a transaction *template*'s insert/delete differentials.

pub mod differential;
pub mod error;
pub mod simplify;
pub mod specialize;
pub mod table1;
pub mod transc;
pub mod transr;

pub use differential::{differential_programs, DifferentialProgram};
pub use error::{Result, TranslateError};
pub use specialize::{
    action_deltas, condition_shape, enumerable_rows, specialize_check, ConditionShape,
    RelationDelta, SpecializedCheck, TemplateDeltas,
};
pub use table1::{table1_rows, Table1Row};
pub use transc::trans_c;
pub use transr::{trans_r, TranslatedRule};

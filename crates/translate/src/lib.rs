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
//! * [`transr`] — `TransR` / `TransCA` (Algorithm 5.5): aborting rules
//!   translate their condition; compensating rules keep their response
//!   action as the triggered program.
//! * [`simplify`] — syntactic condition/program optimization (`OptC`):
//!   double-negation elimination, constant folding, select/projection
//!   simplification.
//! * [`specialize`] — the weakest-precondition reducer: one per-relation
//!   write summary ([`Writes`]) and one verdict table
//!   ([`ConditionShape::verdict`]) deciding whether an update drops,
//!   probes or keeps a check. Prepare-time specialization against a
//!   transaction *template*, the per-trigger Δ programs and the
//!   analyzer's edge refinement all call it.
//! * [`differential`] — the differential-relation optimization the paper
//!   points to in §5.2.1 (refs \[18, 5, 7\]): checks are specialised per
//!   trigger to touch only the `R@ins` / `R@del` delta relations.

pub mod differential;
pub mod error;
pub mod simplify;
pub mod specialize;
pub mod transc;
pub mod transr;

pub use differential::{differential_programs, DifferentialProgram};
pub use error::{Result, TranslateError};
pub use specialize::{
    condition_shape, specialize_check, ConditionShape, DeltaOperand, DropReason, SpecializedCheck,
    Verdict, Writes,
};
pub use transc::trans_c;
pub use transr::{trans_r, TranslatedRule};

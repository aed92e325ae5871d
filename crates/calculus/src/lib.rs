#![warn(missing_docs)]

//! # `tm-calculus` — the CL integrity constraint specification language
//!
//! Section 4.1 of Grefen (VLDB 1993) defines **CL**, a language of
//! well-formed formulas over a tuple relational calculus, for the purely
//! declarative specification of integrity constraints. This crate
//! implements the language in full:
//!
//! * [`ast`] — the alphabet, terms, atomic formulas and well-formed
//!   formulas of Definitions 4.1–4.4,
//! * [`parser`] — a recursive-descent parser for a faithful ASCII
//!   rendering of CL (`forall x (x in beer implies x.alcohol >= 0)`), over
//!   the lexer and value operators CL shares with the algebra
//!   (`tm_relational::lex`, `tm_relational::ops`),
//! * [`analysis`] — free-variable computation, closedness, variable range
//!   analysis, safety (range restriction) and schema type checking.
//!
//! The crate does not evaluate constraints. The engine decides one by its
//! compiled violation query (`TransC` in `tm-translate`), reading `R@pre`
//! as the current `R` when it checks a state; the direct semantic
//! evaluator of CL is the test oracle in `tm-paper`.
//!
//! Transition constraints reference the pre-transaction state through the
//! auxiliary relation names of Section 4.1 (`beer@pre`), e.g.
//! `forall x (x in salary implies forall y (y in salary@pre implies
//! (x.emp != y.emp or x.amount >= y.amount)))`.

pub mod analysis;
pub mod ast;
pub mod error;
pub mod parser;

pub use analysis::{analyze, free_variables, ConstraintInfo};
pub use ast::{
    AggFunc, Atom, CmpOp, Constraint, ConstraintKind, Formula, Quantifier, Term, VarName,
};
pub use error::{CalculusError, Result};
pub use parser::parse_formula;

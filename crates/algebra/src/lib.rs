#![warn(missing_docs)]

//! # `tm-algebra` — the extended relational algebra and its executor
//!
//! This crate implements Section 2.2 and Definition 5.1 of Grefen,
//! *Combining Theory and Practice in Integrity Control* (VLDB 1993):
//!
//! * [`ScalarExpr`] — arithmetic/boolean expressions over tuples (the
//!   selection and join predicates, computed projections, and aggregate
//!   function applications of the paper's term language),
//! * [`RelExpr`] — relational expressions: selection, projection, theta
//!   join (the cartesian product is `join[true]`), semi-join, anti-join,
//!   union, difference, intersection, and literal/singleton relations,
//! * [`Statement`] — the *extended* statements that make the algebra a
//!   programming language: assignment to temporaries, `insert`, `delete`,
//!   `update`, the paper's **`alarm`** statement (Definition 5.1) and an
//!   explicit `abort`,
//! * [`Program`] — sequences of statements with the paper's program
//!   concatenation operator `⊕` (Definition 2.4),
//! * [`Transaction`] — a program within transaction brackets
//!   (Definition 2.5) plus the bracketing `↑` / debracketing `↓` operators,
//! * [`Executor`] — a main-memory evaluator with full transaction
//!   atomicity: intermediate states `D^{t,i}` may contain temporary
//!   relations, the end bracket installs `[D^{t,n}]` on commit or restores
//!   `D^t` on abort, and the engine automatically maintains the auxiliary
//!   relations of Section 4.1 (`R@pre`, `R@ins`, `R@del`),
//! * [`keys`] — equi-join key extraction from join predicates; join-shaped
//!   operators execute **hash-based** by default ([`JoinStrategy`]) with a
//!   nested-loop fallback.
//!
//! The executor is deliberately an *interpreter* over the algebra AST; the
//! paper's declarative algorithms (`ModT`, `TransC`, …) all manipulate this
//! AST, so keeping the runtime representation equal to the specification
//! representation is what makes the reproduction faithful.

pub mod builder;
pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod keys;
pub mod parser;
pub mod program;
pub mod rel_expr;

pub use error::{AlgebraError, Result};
pub use eval::{
    eval_aggregate, eval_scalar, eval_scalar_with, evaluate, evaluate_with, EvalContext,
    JoinStrategy, SchemaView,
};
pub use exec::{AbortReason, CheckTimings, ExecPlan, ExecStats, Executor, OnCommit, TxOutcome};
pub use expr::{AggFunc, ArithOp, CmpOp, ScalarExpr};
pub use keys::{extract_equi_keys, JoinKeys};
pub use parser::{parse_program, parse_relexpr};
pub use program::{Program, Statement, Transaction, UpdateAssignment};
pub use rel_expr::RelExpr;

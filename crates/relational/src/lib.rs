#![warn(missing_docs)]

//! # `tm-relational` — the relational data model substrate
//!
//! This crate implements the formal data model of Section 2.1 of
//! Grefen, *Combining Theory and Practice in Integrity Control* (VLDB 1993):
//!
//! * [`Value`] / [`ValueType`] — the attribute domains `dom(A_i)`,
//! * [`Tuple`] — elements of `dom(R) = dom(A_1) × … × dom(A_n)`,
//! * [`RelationSchema`] (Definition 2.1) and [`DatabaseSchema`]
//!   (Definition 2.2),
//! * [`Relation`] — a relation state (a *set* of tuples, the paper's model),
//! * [`Database`] — a database state with a logical time, and
//! * [`Transition`] — a single-step database transition (Definition 2.3).
//!
//! Everything upstream (the extended relational algebra, the CL constraint
//! language, the transaction modification subsystem) is built on the types in
//! this crate. The crate holds no query execution: it stores, compares and
//! validates relational data, and it holds the value layer both languages
//! share:
//!
//! * [`ops`] — the value operators of Definition 4.1 ([`CmpOp`],
//!   [`ArithOp`], [`AggFunc`]) and their one semantics
//!   ([`ops::arith`], [`ops::aggregate`]),
//! * [`lex`] — the one lexer and token cursor under CL's and the algebra's
//!   textual syntax.
//!
//! ## Auxiliary relations
//!
//! Section 4.1 of the paper introduces *auxiliary relations* that the DBMS
//! maintains automatically for integrity control: the pre-transaction state
//! of a relation and the differential (delta) relations. The reserved naming
//! scheme for these lives in [`auxiliary`]; the actual maintenance is done by
//! the transaction executor in `tm-algebra`.

pub mod auxiliary;
pub mod codec;
pub mod counters;
pub mod database;
pub mod delta;
pub mod error;
pub mod lex;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod util;
pub mod value;

pub use auxiliary::{del_name, ins_name, pre_name, AuxKind};
pub use codec::{CodecError, CodecResult};
pub use counters::unshare_count;
pub use database::{Database, Transition};
pub use delta::{net_view, NetChange, RelationDelta};
pub use error::{RelationalError, Result};
pub use ops::{AggFunc, ArithOp, CmpOp};
pub use relation::Relation;
pub use schema::{Attribute, DatabaseSchema, RelationSchema};
pub use tuple::Tuple;
pub use value::{Value, ValueType};

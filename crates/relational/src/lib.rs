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
//! this crate. The crate is deliberately free of any execution logic: it
//! only knows how to store, compare, and validate relational data.
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
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod util;
pub mod value;

pub use auxiliary::{del_name, ins_name, pre_name, AuxKind};
pub use codec::{CodecError, CodecResult};
pub use counters::unshare_count;
pub use database::{Database, Transition};
pub use delta::RelationDelta;
pub use error::{RelationalError, Result};
pub use relation::Relation;
pub use schema::{Attribute, DatabaseSchema, RelationSchema};
pub use tuple::Tuple;
pub use value::{Value, ValueType};

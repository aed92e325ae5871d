//! Errors raised during algebra evaluation and transaction execution.

use std::fmt;

use tm_relational::lex::SyntaxError;
use tm_relational::ops::ValueError;
use tm_relational::RelationalError;

/// Convenience alias used throughout `tm-algebra`.
pub type Result<T> = std::result::Result<T, AlgebraError>;

/// Errors from expression evaluation or statement execution.
///
/// Runtime errors inside a transaction cause the transaction to abort (the
/// atomicity property of Section 2.2 demands either full effect or none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// An error bubbled up from the relational substrate.
    Relational(RelationalError),
    /// A column offset was out of range for the input tuple.
    ColumnOutOfRange {
        /// Requested zero-based offset.
        offset: usize,
        /// Arity of the input tuple.
        arity: usize,
    },
    /// An operator received operands of incompatible types.
    TypeError(String),
    /// Division by zero in an arithmetic term.
    DivisionByZero,
    /// An aggregate over an empty relation has no defined value
    /// (`MIN`/`MAX`/`AVG` of ∅).
    EmptyAggregate(&'static str),
    /// A predicate evaluated to a non-boolean value.
    NotABoolean(String),
    /// The two sides of a set operation are not union-compatible.
    NotUnionCompatible {
        /// Left operand schema rendering.
        left: String,
        /// Right operand schema rendering.
        right: String,
    },
    /// A parameter placeholder `?i` was evaluated without a binding for
    /// it — the transaction is a template that must be bound (or the
    /// binding is too short) before it can execute.
    UnboundParam(usize),
    /// A statement targeted an auxiliary relation (they are read-only).
    AuxiliaryUpdate(String),
    /// Assignment target collides with a base relation name.
    AssignToBase(String),
    /// Recursion/complexity guard tripped (defensive; not expected in
    /// normal operation).
    LimitExceeded(String),
    /// An executor invariant was violated — a bug, surfaced as an
    /// abortable error so the running transaction rolls back cleanly
    /// instead of panicking with the database mid-mutation.
    Internal(String),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::Relational(e) => write!(f, "{e}"),
            AlgebraError::ColumnOutOfRange { offset, arity } => {
                write!(f, "column offset {offset} out of range for arity {arity}")
            }
            AlgebraError::TypeError(msg) => write!(f, "type error: {msg}"),
            AlgebraError::DivisionByZero => write!(f, "division by zero"),
            AlgebraError::EmptyAggregate(func) => {
                write!(f, "aggregate {func} over an empty relation is undefined")
            }
            AlgebraError::NotABoolean(expr) => {
                write!(f, "predicate `{expr}` did not evaluate to a boolean")
            }
            AlgebraError::NotUnionCompatible { left, right } => {
                write!(f, "not union-compatible: {left} vs {right}")
            }
            AlgebraError::UnboundParam(i) => {
                write!(f, "parameter placeholder `?{i}` has no bound value")
            }
            AlgebraError::AuxiliaryUpdate(name) => {
                write!(f, "auxiliary relation `{name}` is read-only")
            }
            AlgebraError::AssignToBase(name) => {
                write!(f, "assignment target `{name}` is a base relation")
            }
            AlgebraError::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            AlgebraError::Internal(msg) => write!(f, "internal executor error: {msg}"),
        }
    }
}

impl std::error::Error for AlgebraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgebraError::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for AlgebraError {
    fn from(e: RelationalError) -> Self {
        AlgebraError::Relational(e)
    }
}

impl From<ValueError> for AlgebraError {
    fn from(e: ValueError) -> Self {
        match e {
            ValueError::DivisionByZero => AlgebraError::DivisionByZero,
            ValueError::TypeError(msg) => AlgebraError::TypeError(msg),
            ValueError::EmptyAggregate(func) => AlgebraError::EmptyAggregate(func),
        }
    }
}

/// A syntax error of the textual algebra is a type error whose message
/// names the offset ("parse error at offset N: …").
impl From<SyntaxError> for AlgebraError {
    fn from(e: SyntaxError) -> Self {
        AlgebraError::TypeError(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = AlgebraError::from(RelationalError::UnknownRelation("r".into()));
        assert!(e.to_string().contains('r'));
        assert!(e.source().is_some());
        assert!(AlgebraError::DivisionByZero.source().is_none());
        assert!(AlgebraError::EmptyAggregate("MIN")
            .to_string()
            .contains("MIN"));
    }
}

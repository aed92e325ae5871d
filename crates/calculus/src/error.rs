//! Errors for parsing, analysis and evaluation of CL formulas.

use std::fmt;

use tm_relational::lex::{SyntaxError, SyntaxKind};
use tm_relational::ops::ValueError;

/// Convenience alias used throughout `tm-calculus`.
pub type Result<T> = std::result::Result<T, CalculusError>;

/// Errors raised by the CL front end and evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalculusError {
    /// Lexical error at a byte offset in the source text.
    Lex {
        /// Byte offset of the offending character.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Parse error with positional context.
    Parse {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What was expected / found.
        message: String,
    },
    /// A variable is used but never bound by a quantifier.
    UnboundVariable(String),
    /// A formula expected to be closed has free variables.
    NotClosed(Vec<String>),
    /// A quantified variable has no membership atom bounding its range —
    /// the formula is unsafe and cannot be evaluated or translated.
    UnsafeVariable(String),
    /// A variable is quantified twice in nested scopes.
    ShadowedVariable(String),
    /// A referenced relation is not in the schema.
    UnknownRelation(String),
    /// An attribute selection does not resolve against the schema.
    UnknownAttribute {
        /// The relation whose schema was searched.
        relation: String,
        /// The attribute (name or out-of-range position).
        attribute: String,
    },
    /// Type error in a term or atom.
    TypeError(String),
    /// Runtime evaluation error (e.g. aggregate over empty relation).
    Eval(String),
}

impl fmt::Display for CalculusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalculusError::Lex { offset, message } => {
                write!(f, "lexical error at offset {offset}: {message}")
            }
            CalculusError::Parse { offset, message } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            CalculusError::UnboundVariable(v) => write!(f, "unbound tuple variable `{v}`"),
            CalculusError::NotClosed(vs) => {
                write!(
                    f,
                    "formula is not closed; free variables: {}",
                    vs.join(", ")
                )
            }
            CalculusError::UnsafeVariable(v) => write!(
                f,
                "quantified variable `{v}` is not range-restricted by any membership atom"
            ),
            CalculusError::ShadowedVariable(v) => {
                write!(
                    f,
                    "tuple variable `{v}` is quantified more than once in scope"
                )
            }
            CalculusError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            CalculusError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "relation `{relation}` has no attribute `{attribute}`"),
            CalculusError::TypeError(m) => write!(f, "type error: {m}"),
            CalculusError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for CalculusError {}

impl From<SyntaxError> for CalculusError {
    fn from(e: SyntaxError) -> Self {
        let SyntaxError {
            kind,
            offset,
            message,
        } = e;
        match kind {
            SyntaxKind::Lex => CalculusError::Lex { offset, message },
            SyntaxKind::Parse => CalculusError::Parse { offset, message },
        }
    }
}

impl From<ValueError> for CalculusError {
    fn from(e: ValueError) -> Self {
        CalculusError::Eval(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(CalculusError::UnboundVariable("x".into())
            .to_string()
            .contains("`x`"));
        assert!(CalculusError::NotClosed(vec!["a".into(), "b".into()])
            .to_string()
            .contains("a, b"));
        assert!(CalculusError::Parse {
            offset: 17,
            message: "expected `)`".into()
        }
        .to_string()
        .contains("17"));
    }
}

//! Errors of the transaction modification engine.

use std::fmt;

use tm_relational::ValueType;

/// Convenience alias used throughout `txmod`.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors raised by rule management and transaction modification.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A rule failed to parse.
    RuleParse(String),
    /// A rule's condition failed analysis or ground-truth evaluation —
    /// distinct from [`EngineError::RuleParse`]: the text was well-formed,
    /// evaluating it against a state (or analysing it for evaluation) is
    /// what failed.
    Eval(String),
    /// A parameter binding has the wrong number of values for the
    /// prepared transaction it was offered to.
    ParamArity {
        /// Parameter slots the template declares (`?0` … `?(expected-1)`).
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A parameter value does not conform to the attribute domain its
    /// placeholder feeds (fast definition-time check; the executor's
    /// base-relation validation remains authoritative).
    ParamType {
        /// Zero-based parameter index.
        index: usize,
        /// Expected attribute domain.
        expected: ValueType,
        /// Rendering of the offending value.
        value: String,
    },
    /// A [`crate::prepared::StatementId`] did not name a statement in the
    /// engine's statement table.
    UnknownStatement(usize),
    /// A rule's condition failed translation.
    Translate(tm_translate::TranslateError),
    /// The rule set has triggering cycles (Definition 6.1) and the engine
    /// is configured to reject them.
    TriggeringCycle(Vec<Vec<String>>),
    /// A rule with this name already exists.
    DuplicateRule(String),
    /// A compensating action failed static typechecking at definition
    /// time (unknown relation, arity mismatch, domain violation).
    InvalidAction {
        /// The rule being defined.
        rule: String,
        /// What the typechecker rejected.
        detail: String,
    },
    /// The transaction modification recursion exceeded its round budget —
    /// only possible with cyclic rule sets admitted via
    /// [`crate::engine::EngineConfig::allow_cycles`] whose cycles the
    /// static analysis could not refute.
    ModificationDiverged {
        /// Rounds executed before giving up.
        rounds: usize,
        /// A triggering cycle path that survived semantic refinement
        /// (first rule repeated at the end), when one is known.
        cycle: Vec<String>,
    },
    /// A durability failure: the commit (or catalog change) could not be
    /// made stable, and its in-memory effect was rolled back so memory and
    /// disk stay in agreement. Carries file/offset/LSN context from the
    /// durability layer.
    Durability(tm_durable::DurableError),
    /// Data error from the relational substrate.
    Relational(tm_relational::RelationalError),
    /// Execution error from the algebra substrate.
    Algebra(tm_algebra::AlgebraError),
    /// A view definition was invalid.
    View(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RuleParse(m) => write!(f, "rule parse error: {m}"),
            EngineError::Eval(m) => write!(f, "constraint evaluation error: {m}"),
            EngineError::ParamArity { expected, got } => write!(
                f,
                "parameter arity mismatch: template takes {expected} value(s), {got} given"
            ),
            EngineError::ParamType {
                index,
                expected,
                value,
            } => write!(
                f,
                "parameter ?{index} expects a value of type {expected:?}, got `{value}`"
            ),
            EngineError::UnknownStatement(id) => {
                write!(f, "no prepared statement with id {id}")
            }
            EngineError::Translate(e) => write!(f, "rule translation error: {e}"),
            EngineError::TriggeringCycle(cycles) => {
                write!(f, "rule set has triggering cycles:")?;
                for c in cycles {
                    write!(f, " [{}]", c.join(" -> "))?;
                }
                Ok(())
            }
            EngineError::DuplicateRule(n) => write!(f, "rule `{n}` already exists"),
            EngineError::InvalidAction { rule, detail } => {
                write!(f, "rule `{rule}` has an invalid action: {detail}")
            }
            EngineError::ModificationDiverged { rounds, cycle } => {
                write!(
                    f,
                    "transaction modification did not reach a fixpoint after {rounds} rounds"
                )?;
                if !cycle.is_empty() {
                    write!(f, " (unproven triggering cycle: {})", cycle.join(" -> "))?;
                }
                Ok(())
            }
            EngineError::Durability(e) => write!(f, "durability failure: {e}"),
            EngineError::Relational(e) => write!(f, "{e}"),
            EngineError::Algebra(e) => write!(f, "{e}"),
            EngineError::View(m) => write!(f, "view definition error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<tm_translate::TranslateError> for EngineError {
    fn from(e: tm_translate::TranslateError) -> Self {
        EngineError::Translate(e)
    }
}

impl From<tm_durable::DurableError> for EngineError {
    fn from(e: tm_durable::DurableError) -> Self {
        EngineError::Durability(e)
    }
}

impl From<tm_relational::RelationalError> for EngineError {
    fn from(e: tm_relational::RelationalError) -> Self {
        EngineError::Relational(e)
    }
}

impl From<tm_algebra::AlgebraError> for EngineError {
    fn from(e: tm_algebra::AlgebraError) -> Self {
        EngineError::Algebra(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_cycle_error() {
        let e = EngineError::TriggeringCycle(vec![vec!["a".into(), "b".into()]]);
        assert!(e.to_string().contains("a -> b"));
    }
}

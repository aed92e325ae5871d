//! The test oracle: the engine's state check redone with the direct CL
//! evaluator, which does not go through the translation the engine runs.
//!
//! The engine decides a constraint by its compiled violation query, the
//! argument of the `alarm` that `TransC` makes of it, with `R@pre` read as
//! the current `R` when it checks a state ([`Engine::check_state`]). The
//! paper's claim (§5) is that the translation keeps the CL meaning, so a
//! suite that compares the engine with [`check_state`] checks that claim
//! instead of assuming it. No product crate depends on this module.

use tm_calculus::analyze;
use txmod::{Engine, EngineError, Result};

pub use crate::eval::{
    eval_constraint, eval_constraint_naive, eval_formula, eval_formula_naive, ConstraintSource,
    StateSource, TransitionSource,
};

/// The names of the aborting rules whose conditions the engine's current
/// state violates, in catalog order — [`Engine::check_state`]'s answer,
/// computed by analysing each condition afresh and evaluating it with
/// [`eval_constraint`] over the state read as `(D, D)` ([`StateSource`]).
/// Compensating rules are skipped, as there. A condition that fails
/// analysis or evaluation is an [`EngineError::Eval`].
pub fn check_state(engine: &Engine) -> Result<Vec<String>> {
    let db = engine.database();
    let eval = |e: tm_calculus::CalculusError| EngineError::Eval(e.to_string());
    let mut violated = Vec::new();
    for rule in engine.catalog().rules() {
        if !rule.action().is_abort() {
            continue;
        }
        let info = analyze(rule.condition(), db.schema()).map_err(eval)?;
        if !eval_constraint(&info, &StateSource(db)).map_err(eval)? {
            violated.push(rule.name.clone());
        }
    }
    Ok(violated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::Tuple;
    use txmod::EnforcementMode;

    fn engine() -> Engine {
        let mut e = txmod::engine::beer_engine(EnforcementMode::Off);
        e.define_constraint("domain", "forall x (x in beer implies x.alcohol >= 0)")
            .unwrap();
        e.add_rule_text(
            "IF NOT forall x (x in beer implies x.alcohol <= 20) \
             THEN delete(beer, select[#3 > 20](beer))",
            "fix",
        )
        .unwrap();
        e.define_constraint(
            "grow",
            "forall x (x in beer implies exists y (y in beer@pre and x.name = y.name))",
        )
        .unwrap();
        e
    }

    #[test]
    fn oracle_names_the_violated_aborting_rules() {
        let mut e = engine();
        assert_eq!(check_state(&e).unwrap(), Vec::<String>::new());
        e.load(
            "beer",
            vec![
                Tuple::of(("bad", "ale", "guineken", -1.0_f64)),
                Tuple::of(("huge", "ale", "guineken", 30.0_f64)),
            ],
        )
        .unwrap();
        // `fix` compensates and is not checked; `grow` reads `beer@pre` as
        // the current `beer` and holds.
        assert_eq!(check_state(&e).unwrap(), ["domain"]);
        assert_eq!(check_state(&e), e.check_state());
    }

    #[test]
    fn oracle_evaluation_failures_are_eval_errors() {
        let mut e = engine();
        e.define_constraint("div", "forall x (x in beer implies 1 / 0 = 1)")
            .unwrap();
        assert_eq!(check_state(&e).unwrap(), Vec::<String>::new());
        e.load(
            "beer",
            vec![Tuple::of(("pils", "lager", "guineken", 5.0_f64))],
        )
        .unwrap();
        let err = check_state(&e).unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)), "{err:?}");
    }
}

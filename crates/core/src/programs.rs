//! Integrity programs (Definition 6.3) and their generation
//! (Algorithm 6.1).
//!
//! > "Integrity rules are optimized and translated each time a transaction
//! > is modified. Clearly, this is not necessary, as rules can be optimized
//! > and translated once when they are specified. The translated form is
//! > then stored for use at constraint enforcement time."
//!
//! An integrity program is the pair `K = (t, p)`: the trigger set `t`
//! stored together with the translated program `p`, extended (as the paper
//! suggests) with the non-triggering flag of Definition 6.2. Every program
//! also stores one delta program per trigger its condition reduces to
//! `R@ins` / `R@del` checks (§5.2.1 / \[7\]). `Static` enforcement appends
//! `p`; `Differential` enforcement appends the per-trigger programs. The
//! rule is translated here, once, and never at enforcement time.

use tm_algebra::Program;
use tm_calculus::{analyze, ConstraintInfo};
use tm_relational::DatabaseSchema;
use tm_rules::{IntegrityRule, Trigger, TriggerSet};
use tm_translate::{
    condition_shape, differential_programs, trans_r, ConditionShape, DifferentialProgram,
};

use crate::error::{EngineError, Result};

/// An integrity program `K = (t, p)` (Definition 6.3) with the
/// non-triggering extension.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityProgram {
    /// Name of the originating rule.
    pub name: String,
    /// The trigger set `t` — `triggers(K)` in the paper's notation.
    pub triggers: TriggerSet,
    /// The triggered program `p` — `action(K)`.
    pub program: Program,
    /// Definition 6.2 flag: the program never triggers other rules.
    pub non_triggering: bool,
    /// Per-trigger differential specializations, for the triggers whose
    /// check reduces to a delta check (every other trigger runs
    /// `program`).
    pub by_trigger: Vec<DifferentialProgram>,
}

impl IntegrityProgram {
    /// `triggers(K)` accessor.
    pub fn triggers(&self) -> &TriggerSet {
        &self.triggers
    }

    /// `action(K)` accessor.
    pub fn action(&self) -> &Program {
        &self.program
    }

    /// The program to run for a specific trigger under differential
    /// enforcement; falls back to the full program when the trigger has
    /// no specialization.
    pub fn program_for_trigger(&self, t: &Trigger) -> &Program {
        self.by_trigger
            .iter()
            .find(|d| &d.trigger == t)
            .map(|d| &d.program)
            .unwrap_or(&self.program)
    }
}

/// `GetIntP` (Algorithm 6.1): compile a rule into its integrity program —
/// the full check `TransR` gives, plus the per-trigger delta programs of
/// its condition's shape (`OptR`'s differential-relation technique) — and
/// return the analysed condition and the shape read from it, so the
/// catalog analysis reuses the shape instead of computing it again.
///
/// Translation errors surface before analysis errors.
pub fn get_int_p(
    rule: &IntegrityRule,
    schema: &DatabaseSchema,
) -> Result<(IntegrityProgram, ConstraintInfo, ConditionShape)> {
    let translated = trans_r(rule, schema)?;
    // The rule translated; what can fail here is the *evaluation-side*
    // analysis of its condition — not a parse error.
    let info = analyze(rule.condition(), schema).map_err(|e| EngineError::Eval(e.to_string()))?;
    let shape = condition_shape(&info.formula, schema);
    // A trigger left unspecialized would store a copy of the full
    // program; `program_for_trigger` falls back to it instead.
    let by_trigger = differential_programs(rule, &shape, &translated.program)
        .into_iter()
        .filter(|d| d.specialized)
        .collect();
    let program = IntegrityProgram {
        name: translated.name,
        triggers: translated.triggers,
        program: translated.program,
        non_triggering: translated.non_triggering,
        by_trigger,
    };
    Ok((program, info, shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::schema::beer_schema;
    use tm_rules::parse_rule;

    fn r2() -> IntegrityRule {
        parse_rule(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) THEN abort",
            "r2",
        )
        .unwrap()
    }

    #[test]
    fn compiles_full_program() {
        let (k, info, _) = get_int_p(&r2(), &beer_schema()).unwrap();
        assert_eq!(k.name, "r2");
        assert_eq!(k.triggers().to_string(), "INS(beer), DEL(brewery)");
        assert!(k.action().to_string().contains("antijoin"));
        assert_eq!(
            info.formula,
            analyze(r2().condition(), &beer_schema()).unwrap().formula
        );
        // A compensating rule's action is its program under every
        // trigger: nothing is specialized.
        let fix = parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) \
             THEN delete(beer, select[#3 < 0](beer))",
            "fix",
        )
        .unwrap();
        let (k, _, _) = get_int_p(&fix, &beer_schema()).unwrap();
        assert!(k.by_trigger.is_empty());
        assert_eq!(k.program_for_trigger(&Trigger::ins("beer")), k.action());
    }

    #[test]
    fn compiles_differential_programs() {
        let (k, _, _) = get_int_p(&r2(), &beer_schema()).unwrap();
        assert_eq!(k.by_trigger.len(), 2);
        let ins = k.program_for_trigger(&Trigger::ins("beer"));
        assert!(ins.to_string().contains("beer@ins"));
        let del = k.program_for_trigger(&Trigger::del("brewery"));
        assert!(del.to_string().contains("brewery@del"));
        // Unknown trigger falls back to the full check.
        assert_eq!(k.program_for_trigger(&Trigger::del("beer")), k.action());
    }
}

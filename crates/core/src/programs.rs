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
//! suggests) with the non-triggering flag of Definition 6.2. The
//! differential variant stores one program *per trigger* (§5.2.1 / \[7\]),
//! which the engine's `Differential` mode selects individually.

use tm_algebra::Program;
use tm_relational::DatabaseSchema;
use tm_rules::{IntegrityRule, Trigger, TriggerSet};
use tm_translate::{differential_programs, trans_r, ConditionShape, DifferentialProgram};

use crate::error::Result;

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
    /// Per-trigger differential specializations (empty when the engine
    /// compiled without the differential optimization).
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
    /// enforcement; falls back to the full program when no specialization
    /// was compiled for that trigger.
    pub fn program_for_trigger(&self, t: &Trigger) -> &Program {
        self.by_trigger
            .iter()
            .find(|d| &d.trigger == t)
            .map(|d| &d.program)
            .unwrap_or(&self.program)
    }
}

/// `GetIntP` (Algorithm 6.1): compile a rule into its integrity program.
/// Given the rule's condition `shape`, per-trigger delta programs are
/// compiled as well (`OptR`'s differential-relation technique).
pub fn get_int_p(
    rule: &IntegrityRule,
    schema: &DatabaseSchema,
    shape: Option<&ConditionShape>,
) -> Result<IntegrityProgram> {
    let translated = trans_r(rule, schema)?;
    let by_trigger = shape
        .map(|shape| differential_programs(rule, shape, &translated.program))
        .unwrap_or_default();
    Ok(IntegrityProgram {
        name: translated.name,
        triggers: translated.triggers,
        program: translated.program,
        non_triggering: translated.non_triggering,
        by_trigger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_calculus::analyze;
    use tm_relational::schema::beer_schema;
    use tm_rules::parse_rule;
    use tm_translate::condition_shape;

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
        let k = get_int_p(&r2(), &beer_schema(), None).unwrap();
        assert_eq!(k.name, "r2");
        assert_eq!(k.triggers().to_string(), "INS(beer), DEL(brewery)");
        assert!(k.action().to_string().contains("antijoin"));
        assert!(k.by_trigger.is_empty());
        // Without specializations every trigger maps to the full program.
        assert_eq!(k.program_for_trigger(&Trigger::ins("beer")), k.action());
    }

    #[test]
    fn compiles_differential_programs() {
        let schema = beer_schema();
        let shape = condition_shape(
            &analyze(r2().condition(), &schema).unwrap().formula,
            &schema,
        );
        let k = get_int_p(&r2(), &schema, Some(&shape)).unwrap();
        assert_eq!(k.by_trigger.len(), 2);
        let ins = k.program_for_trigger(&Trigger::ins("beer"));
        assert!(ins.to_string().contains("beer@ins"));
        let del = k.program_for_trigger(&Trigger::del("brewery"));
        assert!(del.to_string().contains("brewery@del"));
        // Unknown trigger falls back to the full check.
        assert_eq!(k.program_for_trigger(&Trigger::del("beer")), k.action());
    }
}

//! `TransR` / `TransCA` (Algorithm 5.5): rule translation.
//!
//! > "If the rule has an aborting character, only the condition of the rule
//! > has to be translated to extended relational algebra constructs. …
//! > In most practical cases, the specified violation response action
//! > exactly compensates all incorrect values in the database and has no
//! > other side effects. This implies that the program produced by function
//! > TransCA can be equal to the violation response action given as
//! > argument to the function."
//!
//! Accordingly: aborting rules translate their condition via
//! [`crate::transc::trans_c`]; compensating rules use the response action
//! verbatim (the deeper analysis of side-effecting actions is "beyond the
//! scope of this paper", and of this reproduction).

use tm_algebra::Program;
use tm_relational::DatabaseSchema;
use tm_rules::{IntegrityRule, RuleAction, TriggerSet};

use crate::error::Result;
use crate::transc::trans_c;

/// A rule after `OptR` + `TransR`: ready to be stored as an integrity
/// program (Definition 6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct TranslatedRule {
    /// The originating rule's name.
    pub name: String,
    /// The rule's trigger set (stored with the program, Definition 6.3).
    pub triggers: TriggerSet,
    /// The triggered program.
    pub program: Program,
    /// Whether the program was declared non-triggering (Definition 6.2).
    pub non_triggering: bool,
}

/// `TransR` (Algorithm 5.5): translate an integrity rule into an algebra
/// program.
pub fn trans_r(rule: &IntegrityRule, schema: &DatabaseSchema) -> Result<TranslatedRule> {
    let program = match rule.action() {
        RuleAction::Abort => trans_c(rule.condition(), schema)?,
        RuleAction::Compensate(p) => p.clone(),
    };
    Ok(TranslatedRule {
        name: rule.name.clone(),
        triggers: rule.triggers().clone(),
        program,
        non_triggering: rule.non_triggering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::schema::beer_schema;
    use tm_rules::parse_rule;

    #[test]
    fn aborting_rule_translates_condition() {
        let rule = parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
            "r1",
        )
        .unwrap();
        let t = trans_r(&rule, &beer_schema()).unwrap();
        assert_eq!(t.name, "r1");
        assert_eq!(
            t.program.to_string().trim(),
            "alarm(select[(#3 < 0)](beer));"
        );
        assert_eq!(t.triggers.to_string(), "INS(beer)");
        assert!(!t.non_triggering);
    }

    #[test]
    fn compensating_rule_keeps_action() {
        let rule = parse_rule(
            "IF NOT forall x (x in beer implies \
                      exists y (y in brewery and x.brewery = y.name)) \
             THEN temp := minus(project[#2](beer), project[#0](brewery)); \
                  insert(brewery, project[#0, null, null](temp))",
            "r2",
        )
        .unwrap();
        let t = trans_r(&rule, &beer_schema()).unwrap();
        assert_eq!(t.program.len(), 2);
        assert_eq!(t.triggers.to_string(), "INS(beer), DEL(brewery)");
    }

    #[test]
    fn non_triggering_flag_propagates() {
        let rule = parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) \
             THEN delete(beer, select[#3 < 0](beer)) NON-TRIGGERING",
            "nt",
        )
        .unwrap();
        let t = trans_r(&rule, &beer_schema()).unwrap();
        assert!(t.non_triggering);
    }

    #[test]
    fn bad_condition_fails_translation() {
        let rule = parse_rule(
            "WHEN INS(nosuch) IF NOT forall x (x in nosuch implies x.1 > 0) THEN abort",
            "bad",
        )
        .unwrap();
        assert!(trans_r(&rule, &beer_schema()).is_err());
    }
}

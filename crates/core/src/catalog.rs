//! The rule catalog: rules, compiled integrity programs, and validation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use tm_algebra::{RelExpr, Statement};
use tm_analyze::{check_program, AnalysisReport, CatalogAnalysis};
use tm_relational::DatabaseSchema;
use tm_rules::{IntegrityRule, RuleAction, TriggerIndex, TriggeringGraph, ValidationReport};

use crate::error::{EngineError, Result};
use crate::programs::{get_int_p, IntegrityProgram};

/// The integrity catalog of a database: the declared rules and their
/// compiled forms (Definition 6.3's set `K`). An aborting rule's program
/// is one `alarm` of its condition's violation query, so the catalog holds
/// that query once: transactions append it, and state checks evaluate it
/// ([`Catalog::violation_queries`]).
///
/// The catalog also maintains its own static analysis
/// ([`CatalogAnalysis`]): each rule's condition shape (for
/// weakest-precondition reduction), an inverted [`TriggerIndex`] (so rule
/// selection costs O(affected), not O(catalog)), per-rule diagnostics,
/// the semantically refined triggering graph, and the termination
/// certificate — all kept incrementally as rules come and go, so the
/// modification engine can consult them at zero per-transaction cost.
/// Declaring or removing a rule costs the rules it can interact with plus
/// O(catalog) integer renumbering on removal, never a re-analysis of the
/// catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    schema: Arc<DatabaseSchema>,
    rules: Vec<IntegrityRule>,
    programs: Vec<IntegrityProgram>,
    /// Rule name → position in the parallel vectors.
    positions: HashMap<String, usize>,
    analysis: CatalogAnalysis,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new(schema: Arc<DatabaseSchema>) -> Catalog {
        Catalog {
            analysis: CatalogAnalysis::new(schema.clone()),
            schema,
            rules: Vec::new(),
            programs: Vec::new(),
            positions: HashMap::new(),
        }
    }

    /// The database schema the catalog is bound to.
    pub fn schema(&self) -> &Arc<DatabaseSchema> {
        &self.schema
    }

    /// The declared rules.
    pub fn rules(&self) -> &[IntegrityRule] {
        &self.rules
    }

    /// The compiled integrity programs (in rule declaration order).
    pub fn programs(&self) -> &[IntegrityProgram] {
        &self.programs
    }

    /// The inverted trigger index over the rule set: positions match
    /// [`Catalog::rules`]/[`Catalog::programs`]. The analysis's own index,
    /// maintained in place on [`Catalog::add_rule`] and
    /// [`Catalog::remove_rule`].
    pub fn trigger_index(&self) -> &TriggerIndex {
        self.analysis.trigger_index()
    }

    /// Look up a rule by name.
    pub fn rule(&self, name: &str) -> Option<&IntegrityRule> {
        self.positions.get(name).map(|&i| &self.rules[i])
    }

    /// The compiled violation query of each aborting rule, with the
    /// rule's name, in declaration order: the argument of the `alarm`
    /// that is the rule's program ([`get_int_p`]). It is non-empty exactly
    /// on the states that violate the rule's condition.
    pub fn violation_queries(&self) -> impl Iterator<Item = (&str, &RelExpr)> {
        self.rules
            .iter()
            .zip(&self.programs)
            .filter(|(rule, _)| rule.action().is_abort())
            .filter_map(|(rule, k)| match k.program.statements() {
                [Statement::Alarm(query)] => Some((rule.name.as_str(), query)),
                _ => None,
            })
    }

    /// Add a rule: rejects duplicates and compiles it eagerly (`GetIntP`,
    /// Algorithm 6.1), so translation and analysis errors surface at
    /// definition time.
    pub fn add_rule(&mut self, rule: IntegrityRule) -> Result<()> {
        if self.rule(&rule.name).is_some() {
            return Err(EngineError::DuplicateRule(rule.name));
        }
        // A compensating action is free-form designer code: typecheck it
        // so arity and domain defects fail here, not at first firing.
        if let RuleAction::Compensate(program) = rule.action() {
            check_program(program, &self.schema).map_err(|detail| EngineError::InvalidAction {
                rule: rule.name.clone(),
                detail,
            })?;
        }
        let (program, shape) = get_int_p(&rule, &self.schema)?;
        // All fallible steps are done: fold the rule into the analysis
        // and the parallel vectors together.
        self.analysis.add_rule(&rule, shape);
        self.positions.insert(rule.name.clone(), self.rules.len());
        self.rules.push(rule);
        self.programs.push(program);
        Ok(())
    }

    /// Remove a rule by name; returns whether it existed.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let Some(i) = self.positions.remove(name) else {
            return false;
        };
        self.rules.remove(i);
        self.programs.remove(i);
        self.analysis.remove_rule(i);
        for p in self.positions.values_mut().filter(|p| **p > i) {
            *p -= 1;
        }
        true
    }

    /// The incrementally maintained static analysis of the rule set:
    /// diagnostics, refined triggering graph, termination certificate.
    pub fn analysis(&self) -> &CatalogAnalysis {
        &self.analysis
    }

    /// Assemble the full structured analysis report for the current
    /// rule set.
    pub fn analysis_report(&self) -> AnalysisReport {
        self.analysis.report()
    }

    /// Validate the triggering behaviour of the rule set (Section 6.1).
    pub fn validate(&self) -> ValidationReport {
        ValidationReport::of(self.triggering_graph())
    }

    /// The triggering graph of the rule set (Definition 6.1), as the
    /// analysis maintains it.
    pub fn triggering_graph(&self) -> &TriggeringGraph {
        self.analysis.graph()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the catalog has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "catalog: {} rule(s)", self.rules.len())?;
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::schema::beer_schema;
    use tm_rules::parse_rule;

    fn catalog() -> Catalog {
        Catalog::new(beer_schema().into_shared())
    }

    fn r1() -> IntegrityRule {
        parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
            "r1",
        )
        .unwrap()
    }

    #[test]
    fn add_lookup_remove() {
        let mut c = catalog();
        c.add_rule(r1()).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.rule("r1").is_some());
        assert_eq!(c.programs().len(), 1);
        assert!(c.remove_rule("r1"));
        assert!(!c.remove_rule("r1"));
        assert!(c.is_empty());
    }

    #[test]
    fn removal_renumbers_names_and_the_trigger_index() {
        let mut c = catalog();
        let names = ["a", "b", "c", "d"];
        for (i, name) in names.iter().enumerate() {
            let text = format!(
                "WHEN INS(beer) IF NOT forall x (x in beer implies x.alcohol >= {i}) THEN abort"
            );
            c.add_rule(parse_rule(&text, name).unwrap()).unwrap();
        }
        assert!(c.remove_rule("b"));
        c.add_rule(parse_rule("WHEN DEL(brewery) IF NOT 1 = 1 THEN abort", "e").unwrap())
            .unwrap();
        assert!(c.remove_rule("a"));
        let order: Vec<&str> = c.rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(order, ["c", "d", "e"]);
        for (i, name) in order.iter().enumerate() {
            assert_eq!(c.rule(name).map(|r| &r.name), Some(&c.rules()[i].name));
        }
        assert!(c.rule("a").is_none() && c.rule("b").is_none());
        assert_eq!(
            c.trigger_index(),
            &TriggerIndex::build(c.rules().iter().map(|r| r.triggers()))
        );
        // A freed name can be declared again.
        c.add_rule(r1()).unwrap();
        c.add_rule(parse_rule("IF NOT 1 = 1 THEN abort", "b").unwrap())
            .unwrap();
        assert_eq!(c.rule("b").map(|r| r.name.as_str()), Some("b"));
    }

    #[test]
    fn duplicate_rejected() {
        let mut c = catalog();
        c.add_rule(r1()).unwrap();
        assert!(matches!(
            c.add_rule(r1()),
            Err(EngineError::DuplicateRule(_))
        ));
    }

    #[test]
    fn translation_errors_surface_at_definition() {
        let mut c = catalog();
        let bad = parse_rule(
            "WHEN INS(nope) IF NOT forall x (x in nope implies x.1 > 0) THEN abort",
            "bad",
        )
        .unwrap();
        assert!(matches!(c.add_rule(bad), Err(EngineError::Translate(_))));
        assert!(c.is_empty(), "failed rules must not be half-added");
    }

    #[test]
    fn validation_reports_cycles() {
        let mut c = catalog();
        c.add_rule(
            parse_rule(
                "WHEN INS(beer) IF NOT 1 = 1 THEN insert(beer, beer@ins)",
                "self",
            )
            .unwrap(),
        )
        .unwrap();
        let report = c.validate();
        assert!(report.has_cycles());
        assert!(!c.triggering_graph().is_acyclic());
    }
}

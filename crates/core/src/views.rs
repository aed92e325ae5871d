//! Materialized view maintenance by transaction modification.
//!
//! The paper's conclusions note that "transaction modification can be used
//! for purposes other than integrity control as well, like materialized
//! view maintenance \[8\]". The mechanism is identical: a view is a stored
//! relation kept consistent by a rule whose *action* refreshes it, and
//! whose trigger set covers the updates to the relations the view is
//! derived from. Transaction modification appends the refresh program to
//! every transaction that touches a source relation — so readers of the
//! view always see it consistent with the post-transaction state.
//!
//! The view relation itself must be declared in the database schema (it is
//! an ordinary relation as far as storage is concerned); [`ViewDef`]
//! attaches the maintenance machinery.
//!
//! Maintenance is *incremental* for selection views `V = σ_p(R)` — the
//! refresh touches only the `R@ins`/`R@del` differentials — and a full
//! recomputation otherwise (set-semantics projections and joins are not
//! incrementally maintainable without multiplicity bookkeeping; a
//! multiset algebra is the path there, as it was for the paper \[8\], and
//! `tm_paper::Multiset` sketches its bag type outside the product crates).

use tm_algebra::{Program, RelExpr, Statement};
use tm_calculus::parse_formula;
use tm_relational::{auxiliary, DatabaseSchema};
use tm_rules::{IntegrityRule, RuleAction, Trigger, TriggerSet};

use crate::error::{EngineError, Result};

/// A materialized view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// The (pre-declared) relation that stores the view.
    pub name: String,
    /// The defining expression over base relations.
    pub definition: RelExpr,
}

impl ViewDef {
    /// Define a view: `name` must be a relation in the schema; the
    /// definition must not reference the view itself.
    pub fn new(name: impl Into<String>, definition: RelExpr) -> ViewDef {
        ViewDef {
            name: name.into(),
            definition,
        }
    }

    /// The base relations the view depends on (auxiliary names reduced to
    /// their base).
    pub fn sources(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .definition
            .referenced_relations()
            .iter()
            .map(|r| auxiliary::base_of(r).to_owned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The full-refresh program: `delete(V, V); insert(V, def)`.
    pub fn refresh_program(&self) -> Program {
        Program::new(vec![
            Statement::Delete {
                relation: self.name.clone(),
                source: RelExpr::relation(self.name.clone()),
            },
            Statement::Insert {
                relation: self.name.clone(),
                source: self.definition.clone(),
            },
        ])
    }

    /// The incremental program for selection views `σ_p(R)`:
    /// `delete(V, σ_p(R@del)); insert(V, σ_p(R@ins))`.
    fn incremental_program(&self) -> Option<Program> {
        match &self.definition {
            RelExpr::Select(input, pred) => match input.as_ref() {
                RelExpr::Rel(base) if !auxiliary::is_auxiliary(base) => Some(Program::new(vec![
                    Statement::Delete {
                        relation: self.name.clone(),
                        source: RelExpr::relation(auxiliary::del_name(base)).select(pred.clone()),
                    },
                    Statement::Insert {
                        relation: self.name.clone(),
                        source: RelExpr::relation(auxiliary::ins_name(base)).select(pred.clone()),
                    },
                ])),
                _ => None,
            },
            _ => None,
        }
    }

    /// Build the maintenance rule: triggered by every update type on every
    /// source relation, running the incremental program where possible and
    /// the full refresh otherwise.
    pub fn maintenance_rule(&self, schema: &DatabaseSchema) -> Result<IntegrityRule> {
        if !schema.contains(&self.name) {
            return Err(EngineError::View(format!(
                "view relation `{}` is not declared in the schema",
                self.name
            )));
        }
        let sources = self.sources();
        if sources.is_empty() {
            return Err(EngineError::View(format!(
                "view `{}` references no base relations",
                self.name
            )));
        }
        if sources.iter().any(|s| s == &self.name) {
            return Err(EngineError::View(format!(
                "view `{}` references itself",
                self.name
            )));
        }
        for s in &sources {
            if !schema.contains(s) {
                return Err(EngineError::View(format!(
                    "view `{}` references unknown relation `{s}`",
                    self.name
                )));
            }
        }
        let triggers: TriggerSet = sources
            .iter()
            .flat_map(|s| [Trigger::ins(s.clone()), Trigger::del(s.clone())])
            .collect();
        let program = self
            .incremental_program()
            .unwrap_or_else(|| self.refresh_program());
        // The condition is a formal placeholder: maintenance actions are
        // self-guarding (they recompute/adjust the view), mirroring the
        // paper's TransCA convention for compensating actions.
        let condition = parse_formula("1 = 1").expect("static formula parses");
        Ok(IntegrityRule::new(
            format!("view${}", self.name),
            triggers,
            condition,
            RuleAction::Compensate(program),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EnforcementMode, Engine, EngineConfig};
    use tm_algebra::builder::TransactionBuilder;
    use tm_algebra::{CmpOp, ScalarExpr};
    use tm_relational::{RelationSchema, Tuple, ValueType};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::from_relations(vec![
            RelationSchema::of(
                "orders",
                &[("id", ValueType::Int), ("amount", ValueType::Int)],
            ),
            RelationSchema::of(
                "big_orders",
                &[("id", ValueType::Int), ("amount", ValueType::Int)],
            ),
            RelationSchema::of("order_ids", &[("id", ValueType::Int)]),
        ])
        .unwrap()
    }

    fn big_orders_view() -> ViewDef {
        ViewDef::new(
            "big_orders",
            RelExpr::relation("orders").select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(1),
                ScalarExpr::int(100),
            )),
        )
    }

    #[test]
    fn selection_view_is_incremental() {
        let v = big_orders_view();
        let rule = v.maintenance_rule(&schema()).unwrap();
        let p = rule.action().as_program();
        let rendered = p.to_string();
        assert!(rendered.contains("orders@del"), "{rendered}");
        assert!(rendered.contains("orders@ins"), "{rendered}");
        assert_eq!(rule.triggers().to_string(), "INS(orders), DEL(orders)");
    }

    #[test]
    fn projection_view_full_refresh() {
        let v = ViewDef::new("order_ids", RelExpr::relation("orders").project_cols(&[0]));
        let rule = v.maintenance_rule(&schema()).unwrap();
        let rendered = rule.action().as_program().to_string();
        assert!(
            rendered.contains("delete(order_ids, order_ids)"),
            "{rendered}"
        );
        assert!(rendered.contains("insert(order_ids"), "{rendered}");
    }

    #[test]
    fn view_maintained_through_transactions() {
        let mut e = Engine::with_config(
            schema(),
            EngineConfig {
                mode: EnforcementMode::Static,
                ..EngineConfig::default()
            },
        );
        e.define_view(big_orders_view()).unwrap();

        let tx = TransactionBuilder::new()
            .insert_tuples(
                "orders",
                vec![Tuple::of((1, 50)), Tuple::of((2, 150)), Tuple::of((3, 500))],
            )
            .build();
        assert!(e.execute(&tx).unwrap().committed());
        assert_eq!(e.relation("big_orders").unwrap().len(), 2);

        // Delete one big order; the view follows.
        let tx = TransactionBuilder::new()
            .delete_tuple("orders", Tuple::of((3, 500)))
            .build();
        assert!(e.execute(&tx).unwrap().committed());
        let view = e.relation("big_orders").unwrap();
        assert_eq!(view.len(), 1);
        assert!(view.contains(&Tuple::of((2, 150))));
    }

    #[test]
    fn full_refresh_view_maintained() {
        let mut e = Engine::new(schema());
        e.define_view(ViewDef::new(
            "order_ids",
            RelExpr::relation("orders").project_cols(&[0]),
        ))
        .unwrap();
        let tx = TransactionBuilder::new()
            .insert_tuples("orders", vec![Tuple::of((7, 10)), Tuple::of((8, 20))])
            .build();
        assert!(e.execute(&tx).unwrap().committed());
        let view = e.relation("order_ids").unwrap();
        assert_eq!(view.len(), 2);
        assert!(view.contains(&Tuple::of((7,))));
    }

    #[test]
    fn view_errors() {
        let v = ViewDef::new("nosuch", RelExpr::relation("orders"));
        assert!(matches!(
            v.maintenance_rule(&schema()),
            Err(EngineError::View(_))
        ));
        let v = ViewDef::new("big_orders", RelExpr::relation("big_orders"));
        assert!(matches!(
            v.maintenance_rule(&schema()),
            Err(EngineError::View(_))
        ));
        let v = ViewDef::new("big_orders", RelExpr::Literal(vec![]));
        assert!(matches!(
            v.maintenance_rule(&schema()),
            Err(EngineError::View(_))
        ));
    }

    #[test]
    fn failed_view_definition_rolls_back_rule_and_view() {
        // The initial materialization divides by the id column; a zero id
        // makes it abort with a runtime error. The maintenance rule and
        // the view registration must both be rolled back — before the
        // fix, the leftover rule poisoned every later transaction that
        // touched `orders`.
        let mut e = Engine::new(schema());
        e.load("orders", vec![Tuple::of((0, 10))]).unwrap();
        let bad = ViewDef::new(
            "order_ids",
            RelExpr::relation("orders").project(vec![ScalarExpr::arith(
                tm_algebra::ArithOp::Div,
                ScalarExpr::col(1),
                ScalarExpr::col(0),
            )]),
        );
        let err = e.define_view(bad).unwrap_err();
        assert!(matches!(err, EngineError::View(_)));
        assert!(
            e.catalog().rule("view$order_ids").is_none(),
            "maintenance rule must be rolled back"
        );
        // Later transactions on the source relation are unaffected.
        let tx = TransactionBuilder::new()
            .insert_tuple("orders", Tuple::of((1, 20)))
            .build();
        assert!(e.execute(&tx).unwrap().committed());
        // And the view relation can still be defined correctly afterwards.
        e.define_view(ViewDef::new(
            "order_ids",
            RelExpr::relation("orders").project_cols(&[0]),
        ))
        .unwrap();
        assert_eq!(e.relation("order_ids").unwrap().len(), 2);
    }

    #[test]
    fn view_interacts_with_constraints() {
        // A constraint on the *view* is enforced through the maintenance
        // chain: INS(orders) → view refresh → INS(big_orders) → check.
        let mut e = Engine::new(schema());
        e.define_view(big_orders_view()).unwrap();
        e.define_constraint("few_big", "CNT(big_orders) <= 1")
            .unwrap();
        let tx = TransactionBuilder::new()
            .insert_tuples("orders", vec![Tuple::of((1, 200))])
            .build();
        assert!(e.execute(&tx).unwrap().committed());
        let tx = TransactionBuilder::new()
            .insert_tuples("orders", vec![Tuple::of((2, 300))])
            .build();
        let out = e.execute(&tx).unwrap();
        assert!(!out.committed(), "second big order must violate few_big");
        assert_eq!(e.relation("orders").unwrap().len(), 1);
        assert_eq!(e.relation("big_orders").unwrap().len(), 1);
    }
}

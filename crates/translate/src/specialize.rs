//! Prepare-time constraint specialization — the `OptC` of Algorithm 5.4
//! applied against a transaction *template*.
//!
//! The paper leaves `OptC` open; the related work fills it in: simplified
//! weakest preconditions specialized against the update (Aït-Bouziad,
//! Guessarian & Vieille) and per-update simplified checking for denial
//! constraints (Martinenghi). This module implements both steps for the
//! condition shapes the translator already recognises:
//!
//! 1. **Differential abstraction** ([`TemplateDeltas`]): walk the modified
//!    template's statements and abstract, per relation, what the template
//!    does to it — nothing, a known list of symbolic rows, or something
//!    unanalyzable ([`RelationDelta`]).
//! 2. **Weakest-precondition reduction** ([`specialize_check`]): push the
//!    deltas through the rule condition. A domain check on a relation the
//!    template only inserts known rows into reduces to per-row *point
//!    checks* (`alarm(σ_{¬ψ}(⟨row⟩))`); a referential check reduces to
//!    per-row *point probes* (`alarm(⟨row⟩ ▷_ρ S)`); and a row whose
//!    substituted condition constant-folds to `false` is **dropped** with
//!    a recorded proof — the weakest precondition is `true`, the check
//!    cannot fire.
//!
//! ## Soundness
//!
//! Replacing a full check `alarm(σ_{¬ψ}(R))` with per-inserted-row checks
//! is valid only under the *integrity assumption*: the pre-transaction
//! state satisfies the constraint (the induction invariant of Definition
//! 3.5 that transaction modification maintains). On top of it, each
//! reduction demands:
//!
//! * **enumerable inserts** — the constrained relation's delta is
//!   [`RelationDelta::Inserted`]: every write to it is a grounded
//!   (column- and aggregate-free) singleton insert, so the inserted rows
//!   are known symbolically and re-evaluate to the same values at check
//!   time. Deletes and opaque writes poison the delta: a delete can
//!   re-violate nothing for domain checks but defeats row enumeration,
//!   and an opaque source may insert anything.
//! * **no aggregates** in the condition's predicate — an aggregate reads
//!   *other* relations, so an untouched row's check can change value
//!   mid-transaction; per-row reduction would miss it.
//! * **referential stability** — for `(∀x∈R)(∃y∈S)ρ`: `S`'s delta must be
//!   [`RelationDelta::Untouched`] or `Inserted` (no deletes), otherwise an
//!   *old* `R` row may lose its partner, which only the full check sees.
//!   `R = S` (self-referencing) is fine under the same no-deletes rule.
//! * **drop proofs respect evaluation order** — a row is dropped only
//!   when [`ScalarExpr::const_verdict`] decides the substituted predicate `false`
//!   under the evaluator's own left-to-right short-circuit semantics, so
//!   a predicate that would raise a runtime error is never folded away
//!   (contrast [`crate::simplify::simplify_scalar`], whose `x ∧ false ⇒
//!   false` rewrite is a whole-predicate optimization, not a drop proof).
//!
//! Like the differential checks of [`crate::differential`], a specialized
//! check evaluates the condition only on touched rows; a predicate that
//! errors on an *untouched* row (e.g. a division by a column value)
//! surfaces that error under the generic check and not under the
//! specialized one. The specialization-soundness suite in `txmod` pins the
//! equivalence on total predicates across all enforcement modes.

use std::collections::BTreeMap;
use std::fmt;

use tm_algebra::{RelExpr, ScalarExpr, Statement};
use tm_calculus::ast::{Atom, Formula, Quantifier};
use tm_relational::{auxiliary, DatabaseSchema};

use crate::transc::{flatten_and, predicate_over, strip_guard};

/// The condition shapes the specializer (and the differential optimizer)
/// recognises, extracted from an *analysed* CL formula by
/// [`condition_shape`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConditionShape {
    /// `(∀x)(x∈R ⟹ ψ)` with quantifier-free `ψ` over `x` only.
    Domain {
        /// The constrained relation `R`.
        rel: String,
        /// `¬ψ` as a scalar predicate over an `R`-tuple.
        violation_pred: ScalarExpr,
    },
    /// `(∀x)(x∈R ⟹ (∃y)(y∈S ∧ ρ))` with quantifier-free `ρ`.
    Referential {
        /// The referencing relation `R`.
        rel_r: String,
        /// The referenced relation `S`.
        rel_s: String,
        /// `ρ` as a predicate over the concatenated `(R, S)` tuple.
        match_pred: ScalarExpr,
    },
    /// Anything else — never specialized.
    Other,
}

/// Classify an **analysed** condition (the output of
/// `tm_calculus::analysis::analyze`) into a [`ConditionShape`].
pub fn condition_shape(formula: &Formula, schema: &DatabaseSchema) -> ConditionShape {
    let Formula::Quant(Quantifier::Forall, x, body) = formula else {
        return ConditionShape::Other;
    };
    let Some((rel, rest)) = strip_guard(x, body) else {
        return ConditionShape::Other;
    };
    if auxiliary::is_auxiliary(&rel) {
        // Pre-state ranges are immutable; neither differential nor
        // template treatment of the outer relation applies.
        return ConditionShape::Other;
    }
    // Try domain: rest is quantifier-free.
    if let Ok(Some(pred)) = predicate_over(
        schema,
        &[(x.clone(), rel.clone())],
        &Formula::not(rest.clone()),
    ) {
        return ConditionShape::Domain {
            rel,
            violation_pred: pred,
        };
    }
    // Try referential: rest = (∃y)(y∈S ∧ ρ).
    if let Formula::Quant(Quantifier::Exists, y, ebody) = &rest {
        let mut conj = Vec::new();
        flatten_and(ebody, &mut conj);
        let mem_idx = conj
            .iter()
            .position(|c| matches!(c, Formula::Atom(Atom::Member { var, .. }) if var == y));
        if let Some(i) = mem_idx {
            let rel_s = match &conj[i] {
                Formula::Atom(Atom::Member { rel, .. }) => rel.clone(),
                _ => unreachable!("matched a member atom"),
            };
            if auxiliary::is_auxiliary(&rel_s) {
                return ConditionShape::Other;
            }
            conj.remove(i);
            if conj.is_empty() {
                return ConditionShape::Other;
            }
            let mut rho = conj.remove(0);
            for c in conj {
                rho = Formula::and(rho, c);
            }
            if let Ok(Some(pred)) = predicate_over(
                schema,
                &[(x.clone(), rel.clone()), (y.clone(), rel_s.clone())],
                &rho,
            ) {
                return ConditionShape::Referential {
                    rel_r: rel,
                    rel_s,
                    match_pred: pred,
                };
            }
        }
    }
    ConditionShape::Other
}

/// What a transaction template provably does to one relation, in
/// statement order up to the point of observation.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationDelta {
    /// No statement so far writes the relation.
    Untouched,
    /// Every write so far is a grounded singleton insert; the rows (as
    /// symbolic expressions over `?i` parameters and constants).
    Inserted(Vec<Vec<ScalarExpr>>),
    /// A delete, update, or unanalyzable insert touched the relation —
    /// nothing can be proven about its contents.
    Opaque,
}

/// The per-relation differential abstraction of a template's statements.
/// Feed statements in execution order with [`TemplateDeltas::observe`];
/// query with [`TemplateDeltas::of`]. The abstraction at any point covers
/// exactly the statements observed so far — which is what a check appended
/// at that point can see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateDeltas {
    map: BTreeMap<String, RelationDelta>,
}

impl TemplateDeltas {
    /// An empty abstraction (all relations untouched).
    pub fn new() -> TemplateDeltas {
        TemplateDeltas::default()
    }

    /// Fold one statement into the abstraction.
    pub fn observe(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Insert { relation, source } => match enumerable_rows(source) {
                Some(rows) => self.push_rows(relation, rows.into_iter()),
                None => {
                    self.map.insert(relation.clone(), RelationDelta::Opaque);
                }
            },
            Statement::Delete { relation, .. } | Statement::Update { relation, .. } => {
                self.map.insert(relation.clone(), RelationDelta::Opaque);
            }
            // Reads and control flow write nothing.
            Statement::Assign { .. } | Statement::Alarm(_) | Statement::Abort => {}
        }
    }

    /// The abstraction for `rel` over the statements observed so far.
    pub fn of(&self, rel: &str) -> &RelationDelta {
        self.map.get(rel).unwrap_or(&RelationDelta::Untouched)
    }

    fn push_rows(&mut self, relation: &str, rows: impl Iterator<Item = Vec<ScalarExpr>>) {
        match self
            .map
            .entry(relation.to_owned())
            .or_insert_with(|| RelationDelta::Inserted(Vec::new()))
        {
            RelationDelta::Inserted(known) => known.extend(rows),
            d @ RelationDelta::Untouched => *d = RelationDelta::Inserted(rows.collect()),
            RelationDelta::Opaque => {}
        }
    }
}

/// The rows of an insert source as symbolic tuples, when they are
/// statically enumerable: a grounded (column-, parameter- and
/// aggregate-free) singleton, or a literal relation constant. `None`
/// for anything else — the insert is opaque to differential analysis.
/// This is the row-enumeration rule shared by prepare-time
/// specialization ([`TemplateDeltas::observe`]) and catalog static
/// analysis.
pub fn enumerable_rows(source: &RelExpr) -> Option<Vec<Vec<ScalarExpr>>> {
    match source {
        RelExpr::Singleton(row) if row.iter().all(grounded) => Some(vec![row.clone()]),
        // Literal tuples are constant rows — just as enumerable as a
        // grounded singleton.
        RelExpr::Literal(tuples) => Some(
            tuples
                .iter()
                .map(|t| {
                    t.values()
                        .iter()
                        .map(|v| ScalarExpr::Const(v.clone()))
                        .collect()
                })
                .collect(),
        ),
        _ => None,
    }
}

/// The differential abstraction of a whole program — every statement
/// folded in order. This is the reusable weakest-precondition entry
/// point for *static* callers: the analyzer abstracts a rule's repair
/// action once and pushes the result through other rules' conditions
/// via [`specialize_check`], exactly as the prepare path does for
/// transaction templates.
pub fn action_deltas(program: &tm_algebra::Program) -> TemplateDeltas {
    let mut deltas = TemplateDeltas::new();
    for stmt in program.statements() {
        deltas.observe(stmt);
    }
    deltas
}

/// The outcome of specializing one rule's check against a template.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecializedCheck {
    /// The template provably cannot violate the rule: the check is
    /// omitted, with the proof recorded for provenance.
    Dropped {
        /// Human-readable proof of why the check cannot fire.
        proof: String,
    },
    /// The check reduces to per-row point checks/probes (one `alarm`
    /// statement per non-dropped inserted row).
    Probe {
        /// The replacement statements, in row order.
        statements: Vec<Statement>,
    },
    /// No sound reduction applies; keep the generic check.
    Generic,
}

impl fmt::Display for SpecializedCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecializedCheck::Dropped { proof } => write!(f, "dropped({proof})"),
            SpecializedCheck::Probe { statements } => {
                write!(f, "reduced({} probe(s))", statements.len())
            }
            SpecializedCheck::Generic => write!(f, "generic"),
        }
    }
}

/// Specialize one rule's check against the template deltas observed so
/// far. `shape` is the rule condition's [`ConditionShape`]; the caller
/// applies the result only to single-`alarm` check programs (compensating
/// actions always run generically). See the module docs for the soundness
/// argument behind each gate.
pub fn specialize_check(
    shape: &ConditionShape,
    deltas: &TemplateDeltas,
    schema: &DatabaseSchema,
) -> SpecializedCheck {
    match shape {
        ConditionShape::Domain {
            rel,
            violation_pred,
        } => {
            let RelationDelta::Inserted(rows) = deltas.of(rel) else {
                return SpecializedCheck::Generic;
            };
            if violation_pred.has_aggregates() || !arity_matches(schema, rel, rows) {
                return SpecializedCheck::Generic;
            }
            let mut statements = Vec::new();
            for row in rows {
                // Weakest precondition of this row: substitute it into the
                // violation predicate and decide constant-false under the
                // evaluator's own semantics. Deliberately NOT routed
                // through `simplify_scalar`, whose `x ∧ false ⇒ false`
                // fold would erase a left operand that errors at runtime.
                let wp = violation_pred.substitute_cols(row);
                if wp.const_verdict(&[]) == Some(false) {
                    continue; // provably satisfied — no check needed
                }
                statements.push(Statement::Alarm(
                    RelExpr::Singleton(row.clone()).select(violation_pred.clone()),
                ));
            }
            if statements.is_empty() {
                SpecializedCheck::Dropped {
                    proof: format!(
                        "weakest precondition of every inserted `{rel}` row \
                         constant-folds to false"
                    ),
                }
            } else {
                SpecializedCheck::Probe { statements }
            }
        }
        ConditionShape::Referential {
            rel_r,
            rel_s,
            match_pred,
        } => {
            let RelationDelta::Inserted(rows) = deltas.of(rel_r) else {
                return SpecializedCheck::Generic;
            };
            // Old rows keep their partners only if S loses nothing.
            if matches!(deltas.of(rel_s), RelationDelta::Opaque)
                || match_pred.has_aggregates()
                || !arity_matches(schema, rel_r, rows)
            {
                return SpecializedCheck::Generic;
            }
            let statements = rows
                .iter()
                .map(|row| {
                    Statement::Alarm(
                        RelExpr::Singleton(row.clone())
                            .anti_join(RelExpr::relation(rel_s.clone()), match_pred.clone()),
                    )
                })
                .collect();
            SpecializedCheck::Probe { statements }
        }
        ConditionShape::Other => SpecializedCheck::Generic,
    }
}

/// A scalar expression the specializer may track as a symbolic row value:
/// no columns (nothing to refer to), no aggregates (value could change
/// between the insert and the check).
fn grounded(e: &ScalarExpr) -> bool {
    e.max_col().is_none() && !e.has_aggregates()
}

/// Every tracked row must have the relation's arity, so substituted
/// predicates line up column-for-column (a mis-sized row would fail the
/// insert's validation at runtime before any check runs, but the probe
/// statements should still be well-formed).
fn arity_matches(schema: &DatabaseSchema, rel: &str, rows: &[Vec<ScalarExpr>]) -> bool {
    match schema.relation(rel) {
        Ok(rs) => rows.iter().all(|r| r.len() == rs.arity()),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::expr::CmpOp;
    use tm_calculus::analysis::analyze;
    use tm_relational::schema::beer_schema;
    use tm_relational::Value;
    use tm_rules::parse_rule;

    fn shape_of(rule_text: &str) -> ConditionShape {
        let schema = beer_schema();
        let rule = parse_rule(rule_text, "r").unwrap();
        let info = analyze(rule.condition(), &schema).unwrap();
        condition_shape(&info.formula, &schema)
    }

    fn beer_row(alcohol: ScalarExpr) -> Vec<ScalarExpr> {
        vec![
            ScalarExpr::str("pils"),
            ScalarExpr::str("lager"),
            ScalarExpr::str("acme"),
            alcohol,
        ]
    }

    fn insert(rel: &str, row: Vec<ScalarExpr>) -> Statement {
        Statement::Insert {
            relation: rel.into(),
            source: RelExpr::Singleton(row),
        }
    }

    #[test]
    fn shapes_match_the_differential_classifier() {
        assert!(matches!(
            shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort"),
            ConditionShape::Domain { ref rel, .. } if rel == "beer"
        ));
        assert!(matches!(
            shape_of(
                "IF NOT forall x (x in beer implies \
                 exists y (y in brewery and x.brewery = y.name)) THEN abort"
            ),
            ConditionShape::Referential { ref rel_r, ref rel_s, .. }
                if rel_r == "beer" && rel_s == "brewery"
        ));
        assert!(matches!(
            shape_of("IF NOT CNT(beer) <= 100 THEN abort"),
            ConditionShape::Other
        ));
    }

    #[test]
    fn domain_check_reduces_to_per_row_point_checks() {
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::param(0))));
        deltas.observe(&insert("beer", beer_row(ScalarExpr::param(1))));
        let SpecializedCheck::Probe { statements } =
            specialize_check(&shape, &deltas, &beer_schema())
        else {
            panic!("expected probe reduction");
        };
        assert_eq!(statements.len(), 2);
        // Each probe keeps the ORIGINAL violation predicate over the
        // singleton row, so runtime behaviour (errors included) matches
        // the generic per-row slice exactly.
        let rendered = format!("{}", statements[0]);
        assert!(rendered.contains("alarm"), "got {rendered}");
        assert!(rendered.contains("?0"), "got {rendered}");
    }

    #[test]
    fn constant_safe_rows_are_dropped_with_proof() {
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::double(5.0))));
        match specialize_check(&shape, &deltas, &beer_schema()) {
            SpecializedCheck::Dropped { proof } => {
                assert!(proof.contains("weakest precondition"), "got {proof}")
            }
            other => panic!("expected drop, got {other}"),
        }
    }

    #[test]
    fn mixed_rows_drop_only_the_proven_ones() {
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::double(5.0))));
        deltas.observe(&insert("beer", beer_row(ScalarExpr::param(0))));
        let SpecializedCheck::Probe { statements } =
            specialize_check(&shape, &deltas, &beer_schema())
        else {
            panic!("expected probe reduction");
        };
        assert_eq!(statements.len(), 1);
    }

    #[test]
    fn null_valued_rows_are_never_folded_away() {
        // `Null < 0` evaluates to Null (not false) — the check must stay.
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::Const(Value::Null))));
        assert!(matches!(
            specialize_check(&shape, &deltas, &beer_schema()),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn parameters_are_opaque_to_the_drop_proof() {
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::param(0))));
        assert!(matches!(
            specialize_check(&shape, &deltas, &beer_schema()),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn referential_check_reduces_to_point_probes_and_never_drops() {
        let shape = shape_of(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) THEN abort",
        );
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::double(5.0))));
        let SpecializedCheck::Probe { statements } =
            specialize_check(&shape, &deltas, &beer_schema())
        else {
            panic!("expected probe reduction");
        };
        assert_eq!(statements.len(), 1);
        assert!(format!("{}", statements[0]).contains("antijoin"));
    }

    #[test]
    fn self_referencing_relation_specializes_under_insert_only_deltas() {
        // R = S: the inserted rows may satisfy each other; with no deletes
        // on S the old rows keep their partners, so probes are sound.
        let shape = ConditionShape::Referential {
            rel_r: "brewery".into(),
            rel_s: "brewery".into(),
            match_pred: ScalarExpr::col_eq(1, 4),
        };
        let row = vec![
            ScalarExpr::str("acme"),
            ScalarExpr::str("ghent"),
            ScalarExpr::str("be"),
        ];
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("brewery", row));
        assert!(matches!(
            specialize_check(&shape, &deltas, &beer_schema()),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn deletes_on_the_referenced_relation_block_specialization() {
        let shape = shape_of(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) THEN abort",
        );
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::double(5.0))));
        deltas.observe(&Statement::Delete {
            relation: "brewery".into(),
            source: RelExpr::relation("brewery"),
        });
        assert!(matches!(
            specialize_check(&shape, &deltas, &beer_schema()),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn empty_differentials_stay_generic() {
        let domain = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let deltas = TemplateDeltas::new();
        assert_eq!(*deltas.of("beer"), RelationDelta::Untouched);
        assert!(matches!(
            specialize_check(&domain, &deltas, &beer_schema()),
            SpecializedCheck::Generic
        ));
        assert!(matches!(
            specialize_check(&ConditionShape::Other, &deltas, &beer_schema()),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn opaque_writes_poison_the_delta() {
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::double(5.0))));
        // A set-valued insert makes the relation opaque, retroactively.
        deltas.observe(&Statement::Insert {
            relation: "beer".into(),
            source: RelExpr::relation("beer"),
        });
        assert_eq!(*deltas.of("beer"), RelationDelta::Opaque);
        // Column-referencing singleton rows are not grounded either.
        let mut d2 = TemplateDeltas::new();
        d2.observe(&insert("beer", beer_row(ScalarExpr::col(0))));
        assert_eq!(*d2.of("beer"), RelationDelta::Opaque);
        // Updates poison too.
        let mut d3 = TemplateDeltas::new();
        d3.observe(&Statement::Update {
            relation: "beer".into(),
            pred: ScalarExpr::true_(),
            set: vec![],
        });
        assert_eq!(*d3.of("beer"), RelationDelta::Opaque);
    }

    #[test]
    fn alarms_and_assigns_write_nothing() {
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&Statement::Alarm(RelExpr::relation("beer")));
        deltas.observe(&Statement::Assign {
            target: "tmp".into(),
            expr: RelExpr::relation("beer"),
        });
        deltas.observe(&Statement::Abort);
        assert_eq!(*deltas.of("beer"), RelationDelta::Untouched);
    }

    #[test]
    fn arity_mismatched_rows_stay_generic() {
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", vec![ScalarExpr::str("short")]));
        assert!(matches!(
            specialize_check(&shape, &deltas, &beer_schema()),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn const_verdict_decides_only_error_free_constants() {
        let const_verdict = |e: &ScalarExpr| e.const_verdict(&[]);
        let div_err = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::arith(
                tm_algebra::expr::ArithOp::Div,
                ScalarExpr::int(1),
                ScalarExpr::int(0),
            ),
            ScalarExpr::int(1),
        );
        // Left-to-right short-circuit: a false left skips the erroring
        // right, so the conjunction is decidably false...
        assert_eq!(
            const_verdict(&ScalarExpr::and(ScalarExpr::false_(), div_err.clone())),
            Some(false)
        );
        // ...but an erroring left is never skipped.
        assert_eq!(
            const_verdict(&ScalarExpr::and(div_err.clone(), ScalarExpr::false_())),
            None
        );
        assert_eq!(
            const_verdict(&ScalarExpr::or(ScalarExpr::true_(), div_err.clone())),
            Some(true)
        );
        assert_eq!(
            const_verdict(&ScalarExpr::or(div_err, ScalarExpr::true_())),
            None
        );
        assert_eq!(
            const_verdict(&ScalarExpr::not(ScalarExpr::not(ScalarExpr::true_()))),
            Some(true)
        );
        // Constant comparisons are total; Null comparisons are not decided.
        assert_eq!(
            const_verdict(&ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::int(3),
                ScalarExpr::int(5)
            )),
            Some(true)
        );
        assert_eq!(
            const_verdict(&ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::Const(Value::Null),
                ScalarExpr::int(5)
            )),
            None
        );
        assert_eq!(
            const_verdict(&ScalarExpr::IsNull(Box::new(ScalarExpr::Const(
                Value::Null
            )))),
            Some(true)
        );
        assert_eq!(const_verdict(&ScalarExpr::param(0)), None);
        assert_eq!(const_verdict(&ScalarExpr::col(0)), None);
        // A bound placeholder reads as its value; an unbound one stays
        // opaque.
        let negative = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::param(0), ScalarExpr::int(0));
        assert_eq!(negative.const_verdict(&[Value::Int(3)]), Some(false));
        assert_eq!(negative.const_verdict(&[Value::Null]), None);
        assert_eq!(
            ScalarExpr::param(1).const_verdict(&[Value::Bool(true)]),
            None
        );
    }

    #[test]
    fn specialize_check_is_idempotent_on_its_probe_output() {
        // Re-observing the probe statements (alarms only) changes no
        // deltas, so specializing again yields the same reduction.
        let shape = shape_of("IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort");
        let mut deltas = TemplateDeltas::new();
        deltas.observe(&insert("beer", beer_row(ScalarExpr::param(0))));
        let first = specialize_check(&shape, &deltas, &beer_schema());
        if let SpecializedCheck::Probe { statements } = &first {
            for s in statements {
                deltas.observe(s);
            }
        }
        assert_eq!(first, specialize_check(&shape, &deltas, &beer_schema()));
    }
}

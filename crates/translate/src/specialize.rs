//! Weakest-precondition reduction — the `OptC` of Algorithm 5.4 — shared
//! by prepare-time specialization ([`specialize_check`]), the per-trigger
//! Δ programs of [`crate::differential`] and the analyzer's
//! triggering-graph refinement.
//!
//! The paper leaves `OptC` open; the related work fills it in: simplified
//! weakest preconditions specialized against the update (Aït-Bouziad,
//! Guessarian & Vieille) and per-update simplified checking for denial
//! constraints (Martinenghi). All three uses rest on one argument: under
//! the integrity assumption of Definition 3.5 (the constraint held before
//! the update), an update that cannot violate a constraint needs no
//! check, and one that can needs a check only over what it touched.
//!
//! * [`condition_shape`] classifies a condition as `Domain` `(∀x∈R) ψ`,
//!   `Referential` `(∀x∈R)(∃y∈S) ρ` or `Other`.
//! * [`Writes`] summarises an update per relation: enumerated inserted
//!   rows, opaque inserts, deletes and updates.
//! * [`ConditionShape::verdict`] pushes the writes through the condition:
//!   the check is dropped with a [`DropReason`], probed over a list of
//!   [`DeltaOperand`]s, or kept generic.
//! * [`ConditionShape::check_over`] builds the check over one operand:
//!   `⟨row⟩`, `R@ins` or `S@del`.
//!
//! ## The verdict table
//!
//! The first row that applies decides. `R` is the constrained relation,
//! `S` the referenced one. A row *folds* when the violation predicate
//! `¬ψ` with the row substituted is decided `false` by
//! [`ScalarExpr::const_verdict`].
//!
//! | shape | writes | verdict |
//! |---|---|---|
//! | any | an aggregate anywhere in `¬ψ` / `ρ` | generic |
//! | `Other` | any | generic |
//! | `Domain` | `R` updated or opaquely inserted | generic |
//! | `Domain` | every enumerated `R` row folds (vacuously true with none) | dropped, even if `R` is also deleted from |
//! | `Domain` | `R` deleted from | generic |
//! | `Domain` | otherwise | probe the rows that do not fold |
//! | `Referential` | `S` deleted from or updated, or `R` updated or opaquely inserted | generic |
//! | `Referential` | no rows inserted into `R` | dropped |
//! | `Referential` | `R` deleted from | generic |
//! | `Referential` | otherwise | probe every row |
//!
//! A trigger's writes ([`Writes::of_trigger`]) are read at check time
//! from the delta relations: there an insert into `R` probes `R@ins` and
//! a delete from `S` probes `S@del` instead of falling back to generic.
//!
//! Why each gate holds:
//!
//! * **aggregates** read other relations, so a row the update never
//!   touched can start violating (`x.alcohol >= CNT(brewery)` is violated
//!   by an insert into `brewery`); only the full check sees it.
//! * **updates and opaque inserts** leave the new rows unknown.
//! * **a delete from `R`** can violate nothing, so a drop stands; but a
//!   probe of an enumerated row the update deleted again would alarm on a
//!   row that is no longer there.
//! * **a delete from or update of `S`** can leave an old `R` row without
//!   a partner; inserts into `S` (enumerable or not) only add partners.
//!   `R = S` is covered by the same rules.
//! * **drop proofs respect evaluation order**: a row folds only under the
//!   evaluator's own left-to-right short-circuit semantics, so a predicate
//!   that would raise a runtime error is never folded away (contrast
//!   [`crate::simplify::simplify_scalar`], whose `x ∧ false ⇒ false`
//!   rewrite is a whole-predicate optimization, not a drop proof).
//!
//! A probe evaluates the condition only on touched rows; a predicate that
//! errors on an *untouched* row (e.g. a division by a column value)
//! surfaces that error under the generic check and not under the probe.
//! The specialization-soundness suite in `txmod` pins the equivalence on
//! total predicates across all enforcement modes.

use std::collections::BTreeMap;
use std::fmt;

use tm_algebra::{Program, RelExpr, ScalarExpr, Statement};
use tm_calculus::ast::{Atom, Formula, Quantifier};
use tm_relational::{auxiliary, DatabaseSchema};
use tm_rules::{Trigger, UpdateType};

use crate::transc::{flatten_and, predicate_over, strip_guard};

/// The condition shapes the weakest-precondition reduction recognises,
/// extracted from an *analysed* CL formula by [`condition_shape`].
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

/// What an update does to one relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RelationWrites {
    /// Rows of the enumerable inserts, as symbolic tuples over `?i`
    /// parameters and constants.
    pub(crate) rows: Vec<Vec<ScalarExpr>>,
    /// Whether some insert's rows cannot be enumerated.
    pub(crate) opaque_insert: bool,
    /// Whether the update deletes from the relation.
    pub(crate) deletes: bool,
    /// Whether the update modifies the relation in place.
    pub(crate) updates: bool,
}

/// The per-relation write summary of an update: a transaction template,
/// a rule action, or one trigger's share of a transaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Writes {
    relations: BTreeMap<String, RelationWrites>,
    /// The inserts and deletes are read at check time from the delta
    /// relations `R@ins` / `R@del` rather than enumerated.
    delta_relations: bool,
}

impl Writes {
    /// The writes of every statement of `program`, in order.
    pub fn of(program: &Program, schema: &DatabaseSchema) -> Writes {
        let mut writes = Writes::default();
        for stmt in program.statements() {
            writes.observe(stmt, schema);
        }
        writes
    }

    /// The writes of trigger `t`'s share of a transaction — what the
    /// per-trigger Δ program of §5.2.1 checks: every insert into (or
    /// delete from) `t`'s relation, read from `R@ins` (or `R@del`).
    pub fn of_trigger(t: &Trigger) -> Writes {
        let w = RelationWrites {
            opaque_insert: t.update == UpdateType::Ins,
            deletes: t.update == UpdateType::Del,
            ..RelationWrites::default()
        };
        Writes {
            relations: BTreeMap::from([(t.relation.clone(), w)]),
            delta_relations: true,
        }
    }

    /// Fold one more statement in. The summary at any point covers
    /// exactly the statements observed so far — which is what a check
    /// appended at that point can see.
    pub fn observe(&mut self, stmt: &Statement, schema: &DatabaseSchema) {
        match stmt {
            Statement::Insert { relation, source } => {
                let w = self.relations.entry(relation.clone()).or_default();
                match enumerable_rows(source, schema.relation(relation).ok().map(|r| r.arity())) {
                    Some(rows) => w.rows.extend(rows),
                    None => w.opaque_insert = true,
                }
            }
            Statement::Delete { relation, .. } => {
                self.relations.entry(relation.clone()).or_default().deletes = true;
            }
            Statement::Update { relation, .. } => {
                self.relations.entry(relation.clone()).or_default().updates = true;
            }
            // Temporaries, alarms and aborts write no base relation.
            Statement::Assign { .. } | Statement::Alarm(_) | Statement::Abort => {}
        }
    }

    /// What the update does to `rel`; `None` when it never writes it.
    pub(crate) fn get(&self, rel: &str) -> Option<&RelationWrites> {
        self.relations.get(rel)
    }
}

/// The rows of an insert source as symbolic tuples, when they are
/// statically enumerable and of the relation's arity: a grounded
/// (column- and aggregate-free) singleton, or a literal relation
/// constant. `None` for anything else — the insert is opaque.
fn enumerable_rows(source: &RelExpr, arity: Option<usize>) -> Option<Vec<Vec<ScalarExpr>>> {
    let rows = match source {
        RelExpr::Singleton(row) if row.iter().all(grounded) => vec![row.clone()],
        RelExpr::Literal(tuples) => tuples
            .iter()
            .map(|t| t.values().iter().cloned().map(ScalarExpr::Const).collect())
            .collect(),
        _ => return None,
    };
    let arity = arity?;
    rows.iter().all(|r| r.len() == arity).then_some(rows)
}

/// A scalar expression that may stand for a row value: no columns
/// (nothing to refer to), no aggregates (its value could change between
/// the insert and the check).
fn grounded(e: &ScalarExpr) -> bool {
    e.max_col().is_none() && !e.has_aggregates()
}

/// What a check can run over instead of its whole relation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOperand {
    /// One enumerated row inserted into `R`: `⟨row⟩`.
    Row(Vec<ScalarExpr>),
    /// Every row inserted into `R`: `R@ins`.
    Inserted,
    /// Every row deleted from the referenced relation `S`: `S@del`.
    Deleted,
}

/// Why a check cannot fire against an update.
#[derive(Debug, Clone, PartialEq)]
pub enum DropReason {
    /// The update never writes the constrained relation.
    Untouched(String),
    /// It only deletes from the constrained relation.
    DeletesOnly(String),
    /// Every row it inserts into the constrained relation folds the
    /// violation predicate to `false`.
    RowsFold(String),
    /// It inserts no row into `rel_r` and loses no row of `rel_s`.
    NoMatchLost {
        /// The referencing relation `R`.
        rel_r: String,
        /// The referenced relation `S`.
        rel_s: String,
    },
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::Untouched(rel) => write!(f, "no statement writes `{rel}`"),
            DropReason::DeletesOnly(rel) => write!(
                f,
                "`{rel}` is only deleted from; deletions cannot violate a universal constraint"
            ),
            DropReason::RowsFold(rel) => write!(
                f,
                "weakest precondition of every inserted `{rel}` row constant-folds to false"
            ),
            DropReason::NoMatchLost { rel_r, rel_s } => write!(
                f,
                "no `{rel_r}` row is inserted and no `{rel_s}` row deleted; no match can be lost"
            ),
        }
    }
}

/// The weakest-precondition verdict of a condition against an update.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The update cannot violate the condition.
    Dropped(DropReason),
    /// The condition holds after the update iff its check over each
    /// operand selects nothing.
    Probe(Vec<DeltaOperand>),
    /// No sound reduction applies: check the whole condition.
    Generic,
}

impl ConditionShape {
    /// `(R, ¬ψ)` of a `Domain` shape.
    pub fn domain(&self) -> Option<(&str, &ScalarExpr)> {
        match self {
            ConditionShape::Domain {
                rel,
                violation_pred,
            } => Some((rel, violation_pred)),
            _ => None,
        }
    }

    /// Push `writes` through the condition: the verdict table of the
    /// module docs.
    pub fn verdict(&self, writes: &Writes) -> Verdict {
        let (rel, pred, rel_s) = match self {
            ConditionShape::Domain {
                rel,
                violation_pred,
            } => (rel, violation_pred, None),
            ConditionShape::Referential {
                rel_r,
                rel_s,
                match_pred,
            } => (rel_r, match_pred, Some(rel_s)),
            ConditionShape::Other => return Verdict::Generic,
        };
        let unwritten = RelationWrites::default();
        let r = writes.get(rel).unwrap_or(&unwritten);
        if pred.has_aggregates() || r.updates || (r.opaque_insert && !writes.delta_relations) {
            return Verdict::Generic;
        }
        // A `Domain` row that folds needs no check; a `Referential` row
        // always needs its partner.
        let mut probes: Vec<DeltaOperand> = r
            .rows
            .iter()
            .filter(|row| {
                rel_s.is_some() || pred.substitute_cols(row).const_verdict(&[]) != Some(false)
            })
            .map(|row| DeltaOperand::Row(row.clone()))
            .collect();
        if !probes.is_empty() && r.deletes {
            return Verdict::Generic;
        }
        if r.opaque_insert {
            probes.push(DeltaOperand::Inserted);
        }
        let Some(rel_s) = rel_s else {
            if !probes.is_empty() {
                return Verdict::Probe(probes);
            }
            return Verdict::Dropped(match writes.get(rel) {
                None => DropReason::Untouched(rel.clone()),
                Some(w) if w.rows.is_empty() => DropReason::DeletesOnly(rel.clone()),
                Some(_) => DropReason::RowsFold(rel.clone()),
            });
        };
        let s = writes.get(rel_s).unwrap_or(&unwritten);
        if s.updates || (s.deletes && !writes.delta_relations) {
            return Verdict::Generic;
        }
        if s.deletes {
            probes.push(DeltaOperand::Deleted);
        }
        if probes.is_empty() {
            Verdict::Dropped(DropReason::NoMatchLost {
                rel_r: rel.clone(),
                rel_s: rel_s.clone(),
            })
        } else {
            Verdict::Probe(probes)
        }
    }

    /// The check of this condition over one delta operand: the rows of
    /// the operand that violate it. `Domain` checks `σ_{¬ψ}` of the new
    /// rows; `Referential` checks the new `R` rows without a partner
    /// (`· ▷_ρ S`) or, for `S@del`, the `R` rows that matched a deleted
    /// `S` row and have no partner left (`(R ⋉_ρ S@del) ▷_ρ S`).
    ///
    /// # Panics
    ///
    /// On an `Other` shape, and on `S@del` for a `Domain` shape: no
    /// verdict probes those.
    pub fn check_over(&self, operand: &DeltaOperand) -> RelExpr {
        let new_rows = |rel: &str| match operand {
            DeltaOperand::Row(row) => RelExpr::Singleton(row.clone()),
            _ => RelExpr::relation(auxiliary::ins_name(rel)),
        };
        match (self, operand) {
            (
                ConditionShape::Domain {
                    rel,
                    violation_pred,
                },
                DeltaOperand::Row(_) | DeltaOperand::Inserted,
            ) => new_rows(rel).select(violation_pred.clone()),
            (
                ConditionShape::Referential {
                    rel_r,
                    rel_s,
                    match_pred,
                },
                DeltaOperand::Deleted,
            ) => RelExpr::relation(rel_r.clone())
                .semi_join(
                    RelExpr::relation(auxiliary::del_name(rel_s)),
                    match_pred.clone(),
                )
                .anti_join(RelExpr::relation(rel_s.clone()), match_pred.clone()),
            (
                ConditionShape::Referential {
                    rel_r,
                    rel_s,
                    match_pred,
                },
                _,
            ) => new_rows(rel_r).anti_join(RelExpr::relation(rel_s.clone()), match_pred.clone()),
            _ => panic!("no verdict probes {operand:?} for {self:?}"),
        }
    }
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
    /// statement per probed row).
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

/// Specialize one rule's check against the template writes observed so
/// far: the [`ConditionShape::verdict`], with each probe built by
/// [`ConditionShape::check_over`]. The caller applies the result only to
/// aborting rules' single-`alarm` checks (compensating actions always run
/// generically).
pub fn specialize_check(shape: &ConditionShape, writes: &Writes) -> SpecializedCheck {
    match shape.verdict(writes) {
        Verdict::Dropped(reason) => SpecializedCheck::Dropped {
            proof: reason.to_string(),
        },
        Verdict::Probe(operands) => SpecializedCheck::Probe {
            statements: operands
                .iter()
                .map(|o| Statement::Alarm(shape.check_over(o)))
                .collect(),
        },
        Verdict::Generic => SpecializedCheck::Generic,
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

    const DOMAIN: &str = "IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort";
    const REFERENTIAL: &str = "IF NOT forall x (x in beer implies \
                               exists y (y in brewery and x.brewery = y.name)) THEN abort";

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

    fn brewery_row() -> Vec<ScalarExpr> {
        vec![
            ScalarExpr::str("acme"),
            ScalarExpr::str("ghent"),
            ScalarExpr::str("be"),
        ]
    }

    fn insert(rel: &str, row: Vec<ScalarExpr>) -> Statement {
        Statement::Insert {
            relation: rel.into(),
            source: RelExpr::Singleton(row),
        }
    }

    fn delete_all(rel: &str) -> Statement {
        Statement::Delete {
            relation: rel.into(),
            source: RelExpr::relation(rel),
        }
    }

    /// The writes of `stmts`, observed in order.
    fn writes(stmts: &[Statement]) -> Writes {
        let schema = beer_schema();
        let mut w = Writes::default();
        for s in stmts {
            w.observe(s, &schema);
        }
        w
    }

    #[test]
    fn shapes_match_the_differential_classifier() {
        assert!(matches!(
            shape_of(DOMAIN),
            ConditionShape::Domain { ref rel, .. } if rel == "beer"
        ));
        assert!(matches!(
            shape_of(REFERENTIAL),
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
        let shape = shape_of(DOMAIN);
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::param(0))),
            insert("beer", beer_row(ScalarExpr::param(1))),
        ]);
        let SpecializedCheck::Probe { statements } = specialize_check(&shape, &w) else {
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
        let shape = shape_of(DOMAIN);
        let w = writes(&[insert("beer", beer_row(ScalarExpr::double(5.0)))]);
        match specialize_check(&shape, &w) {
            SpecializedCheck::Dropped { proof } => {
                assert!(proof.contains("weakest precondition"), "got {proof}")
            }
            other => panic!("expected drop, got {other}"),
        }
    }

    #[test]
    fn mixed_rows_drop_only_the_proven_ones() {
        let shape = shape_of(DOMAIN);
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::double(5.0))),
            insert("beer", beer_row(ScalarExpr::param(0))),
        ]);
        let SpecializedCheck::Probe { statements } = specialize_check(&shape, &w) else {
            panic!("expected probe reduction");
        };
        assert_eq!(statements.len(), 1);
    }

    #[test]
    fn null_valued_rows_are_never_folded_away() {
        // `Null < 0` evaluates to Null (not false) — the check must stay.
        let shape = shape_of(DOMAIN);
        let w = writes(&[insert("beer", beer_row(ScalarExpr::Const(Value::Null)))]);
        assert!(matches!(
            specialize_check(&shape, &w),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn parameters_are_opaque_to_the_drop_proof() {
        let shape = shape_of(DOMAIN);
        let w = writes(&[insert("beer", beer_row(ScalarExpr::param(0)))]);
        assert!(matches!(
            specialize_check(&shape, &w),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn referential_check_reduces_to_point_probes_and_never_drops() {
        let shape = shape_of(REFERENTIAL);
        let w = writes(&[insert("beer", beer_row(ScalarExpr::double(5.0)))]);
        let SpecializedCheck::Probe { statements } = specialize_check(&shape, &w) else {
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
        let w = writes(&[insert("brewery", brewery_row())]);
        assert!(matches!(
            specialize_check(&shape, &w),
            SpecializedCheck::Probe { .. }
        ));
    }

    #[test]
    fn deletes_on_the_referenced_relation_block_specialization() {
        let shape = shape_of(REFERENTIAL);
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::double(5.0))),
            delete_all("brewery"),
        ]);
        assert!(matches!(
            specialize_check(&shape, &w),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn untouched_relations_drop_the_check_and_other_shapes_stay_generic() {
        let w = Writes::default();
        assert_eq!(w.get("beer"), None);
        assert_eq!(
            shape_of(DOMAIN).verdict(&w),
            Verdict::Dropped(DropReason::Untouched("beer".into()))
        );
        assert_eq!(
            shape_of(REFERENTIAL).verdict(&w),
            Verdict::Dropped(DropReason::NoMatchLost {
                rel_r: "beer".into(),
                rel_s: "brewery".into()
            })
        );
        assert!(matches!(
            specialize_check(&ConditionShape::Other, &w),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn opaque_writes_poison_the_delta() {
        let shape = shape_of(DOMAIN);
        // A set-valued insert makes the relation opaque, retroactively.
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::double(5.0))),
            Statement::Insert {
                relation: "beer".into(),
                source: RelExpr::relation("beer"),
            },
        ]);
        assert!(w.get("beer").unwrap().opaque_insert);
        assert_eq!(shape.verdict(&w), Verdict::Generic);
        // Column-referencing singleton rows are not grounded either.
        let w = writes(&[insert("beer", beer_row(ScalarExpr::col(0)))]);
        assert!(w.get("beer").unwrap().opaque_insert);
        assert_eq!(shape.verdict(&w), Verdict::Generic);
        // Updates poison too.
        let w = writes(&[Statement::Update {
            relation: "beer".into(),
            pred: ScalarExpr::true_(),
            set: vec![],
        }]);
        assert!(w.get("beer").unwrap().updates);
        assert_eq!(shape.verdict(&w), Verdict::Generic);
    }

    #[test]
    fn alarms_and_assigns_write_nothing() {
        let w = writes(&[
            Statement::Alarm(RelExpr::relation("beer")),
            Statement::Assign {
                target: "tmp".into(),
                expr: RelExpr::relation("beer"),
            },
            Statement::Abort,
        ]);
        assert_eq!(w, Writes::default());
    }

    #[test]
    fn arity_mismatched_rows_stay_generic() {
        let shape = shape_of(DOMAIN);
        let w = writes(&[insert("beer", vec![ScalarExpr::str("short")])]);
        assert!(matches!(
            specialize_check(&shape, &w),
            SpecializedCheck::Generic
        ));
    }

    #[test]
    fn aggregates_anywhere_keep_the_check_generic() {
        // Violated by an insert into `brewery`: no row of `beer` need be
        // touched, so neither a drop nor a probe is sound.
        let shape =
            shape_of("IF NOT forall x (x in beer implies x.alcohol >= CNT(brewery)) THEN abort");
        assert!(shape.domain().is_some());
        for w in [
            Writes::default(),
            writes(&[insert("brewery", brewery_row())]),
            writes(&[insert("beer", beer_row(ScalarExpr::double(5.0)))]),
        ] {
            assert_eq!(shape.verdict(&w), Verdict::Generic);
        }
        let t = Trigger::ins("beer");
        assert_eq!(shape.verdict(&Writes::of_trigger(&t)), Verdict::Generic);
    }

    #[test]
    fn deletes_beside_safe_rows_still_drop_a_domain_check() {
        let shape = shape_of(DOMAIN);
        let safe = insert("beer", beer_row(ScalarExpr::double(5.0)));
        let w = writes(&[delete_all("beer"), safe.clone()]);
        assert_eq!(
            shape.verdict(&w),
            Verdict::Dropped(DropReason::RowsFold("beer".into()))
        );
        assert_eq!(
            shape.verdict(&writes(&[delete_all("beer")])),
            Verdict::Dropped(DropReason::DeletesOnly("beer".into()))
        );
        // A row that needs its probe next to a delete: generic.
        let live = insert("beer", beer_row(ScalarExpr::param(0)));
        assert_eq!(
            shape.verdict(&writes(&[safe, delete_all("beer"), live])),
            Verdict::Generic
        );
    }

    #[test]
    fn opaque_inserts_into_the_referenced_relation_keep_the_probes() {
        let shape = shape_of(REFERENTIAL);
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::param(0))),
            Statement::Insert {
                relation: "brewery".into(),
                source: RelExpr::relation("brewery"),
            },
        ]);
        let Verdict::Probe(operands) = shape.verdict(&w) else {
            panic!("expected probes");
        };
        assert_eq!(operands.len(), 1);
        // No row inserted into `beer`, nothing lost from `brewery`.
        let w = writes(&[insert("brewery", brewery_row())]);
        assert!(matches!(shape.verdict(&w), Verdict::Dropped(_)));
        // A row inserted next to a delete from `beer`: generic.
        let w = writes(&[
            insert("beer", beer_row(ScalarExpr::param(0))),
            delete_all("beer"),
        ]);
        assert_eq!(shape.verdict(&w), Verdict::Generic);
    }

    #[test]
    fn trigger_writes_probe_the_delta_relations() {
        let domain = shape_of(DOMAIN);
        let referential = shape_of(REFERENTIAL);
        let ins = Writes::of_trigger(&Trigger::ins("beer"));
        let del = Writes::of_trigger(&Trigger::del("brewery"));
        assert_eq!(
            domain.verdict(&ins),
            Verdict::Probe(vec![DeltaOperand::Inserted])
        );
        assert_eq!(
            referential.verdict(&ins),
            Verdict::Probe(vec![DeltaOperand::Inserted])
        );
        assert_eq!(
            referential.verdict(&del),
            Verdict::Probe(vec![DeltaOperand::Deleted])
        );
        assert!(matches!(domain.verdict(&del), Verdict::Dropped(_)));
        assert_eq!(
            domain.check_over(&DeltaOperand::Inserted).to_string(),
            "select[(#3 < 0)](beer@ins)"
        );
        assert_eq!(
            referential.check_over(&DeltaOperand::Deleted).to_string(),
            "antijoin[(#2 = #4)](semijoin[(#2 = #4)](beer, brewery@del), brewery)"
        );
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
        // writes, so specializing again yields the same reduction.
        let shape = shape_of(DOMAIN);
        let mut w = writes(&[insert("beer", beer_row(ScalarExpr::param(0)))]);
        let first = specialize_check(&shape, &w);
        if let SpecializedCheck::Probe { statements } = &first {
            for s in statements {
                w.observe(s, &beer_schema());
            }
        }
        assert_eq!(first, specialize_check(&shape, &w));
    }
}

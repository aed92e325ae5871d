//! `TransC` / `CalcToAlg` (Algorithm 5.6): translating CL conditions into
//! aborting extended relational algebra programs.
//!
//! The translation computes, for a condition `c`, a relational expression
//! whose value is the set of **violations** of `c`; the resulting program
//! is the single statement `alarm(violations)` — by Definition 5.1 the
//! transaction aborts exactly when a violation exists.
//!
//! The structural scheme (generalising Table 1):
//!
//! * a ∀-quantifier with a membership guard extends the *context* — the
//!   list of open variables with their range relations; the context
//!   relation is the left-deep join chain `(R1 ⋈ R2) ⋈ … ⋈ Rn` over the
//!   ranges, whose level `k` sees the columns of `R1 … Rk`,
//! * a quantifier-free matrix `ψ` yields `σ_{¬ψ'}(ctx)` with no product
//!   in it: each top-level conjunct of `¬ψ'` goes on the lowest join of
//!   the chain whose column prefix covers it, and one over `R1` alone
//!   becomes a selection on `R1`. Table 1 row 4 is thus
//!   `join[c1' ∧ ¬c2'](R, S)` — one hash build on `c1'`'s equi-keys and
//!   one probe — and a one-range context still yields `σ_{¬ψ'}(R)`,
//! * an ∃-block `(∃y1∈S1)…(ρ)` yields the anti-join
//!   `ctx ▷_{ρ'} (S1 ⋈_true …)` — context tuples with no witness,
//! * boolean combinations map to set operations on violation sets over the
//!   same context: `viol(W1 ∧ W2) = viol(W1) ∪ viol(W2)`,
//!   `viol(W1 ∨ W2) = viol(W1) ∩ viol(W2)`,
//!   `viol(W1 ⇒ W2) = viol(W2) − viol(W1)`,
//!   `viol(¬W) = ctx − viol(W)`.
//!
//! A universal quantifier nested inside an existential one falls outside
//! the class (as it does for Table 1) and reports
//! [`TranslateError::Unsupported`].

use tm_algebra::{Program, RelExpr, ScalarExpr, Statement};
use tm_calculus::analysis::{analyze, ConstraintInfo};
use tm_calculus::ast::{Atom, AttrSel, Formula, Quantifier, Term};
use tm_relational::DatabaseSchema;

use crate::error::{Result, TranslateError};
use crate::simplify::{simplify_rel, simplify_scalar};

/// One open (universally guarded) variable of the translation context.
#[derive(Debug, Clone)]
struct CtxVar {
    name: String,
    relation: String,
    offset: usize,
    arity: usize,
}

/// The translation context: open variables over their range relations.
#[derive(Debug, Clone)]
struct Ctx<'s> {
    schema: &'s DatabaseSchema,
    vars: Vec<CtxVar>,
}

impl<'s> Ctx<'s> {
    fn empty(schema: &'s DatabaseSchema) -> Ctx<'s> {
        Ctx {
            schema,
            vars: Vec::new(),
        }
    }

    fn arity(&self) -> usize {
        self.vars.iter().map(|v| v.arity).sum()
    }

    fn arity_of_relation(&self, rel: &str) -> Result<usize> {
        let base = tm_relational::auxiliary::base_of(rel);
        Ok(self
            .schema
            .relation(base)
            .map_err(|_| TranslateError::Unsupported {
                construct: rel.to_owned(),
                reason: "unknown relation".into(),
            })?
            .arity())
    }

    fn extended(&self, name: &str, relation: &str) -> Result<Ctx<'s>> {
        let arity = self.arity_of_relation(relation)?;
        let mut vars = self.vars.clone();
        vars.push(CtxVar {
            name: name.to_owned(),
            relation: relation.to_owned(),
            offset: self.arity(),
            arity,
        });
        Ok(Ctx {
            schema: self.schema,
            vars,
        })
    }

    fn lookup(&self, name: &str) -> Option<&CtxVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// The context relation: the left-deep chain
    /// `join[true](…join[true](R1, R2)…, Rn)` over the open ranges (the
    /// unit relation `row()` when no variable is open).
    fn rel_expr(&self) -> RelExpr {
        self.select(ScalarExpr::true_())
    }

    /// `σ_pred(ctx)` with no product in it: the left-deep join chain over
    /// the open ranges, each top-level conjunct of `pred` on the lowest
    /// join whose column prefix covers its `max_col`. A conjunct over the
    /// first range alone (or over no column) becomes a `select` on that
    /// range; a predicate whose conjuncts all land on one level stays
    /// whole, so a one-range context yields exactly `select[pred](R)`.
    fn select(&self, pred: ScalarExpr) -> RelExpr {
        let top = self.vars.len().saturating_sub(1);
        let level = |c: &ScalarExpr| {
            c.max_col().map_or(0, |col| {
                let covers = |v: &CtxVar| col < v.offset + v.arity;
                self.vars.iter().position(covers).unwrap_or(top)
            })
        };
        let mut at: Vec<Option<ScalarExpr>> = vec![None; top + 1];
        let conjuncts = pred.conjuncts();
        if conjuncts.iter().all(|c| level(c) == level(&pred)) {
            at[level(&pred)] = Some(pred.clone());
        } else {
            for c in conjuncts {
                let slot = &mut at[level(c)];
                *slot = Some(match slot.take() {
                    None => c.clone(),
                    Some(acc) => ScalarExpr::and(acc, c.clone()),
                });
            }
        }
        let mut at = at.into_iter();
        let mut e = match self.vars.first() {
            None => RelExpr::Singleton(Vec::new()),
            Some(v) => RelExpr::relation(v.relation.clone()),
        };
        if let Some(p) = at.next().flatten().filter(|p| *p != ScalarExpr::true_()) {
            e = e.select(p);
        }
        for (v, p) in self.vars.iter().skip(1).zip(at) {
            let p = p.unwrap_or_else(ScalarExpr::true_);
            e = e.join(RelExpr::relation(v.relation.clone()), p);
        }
        e
    }
}

/// A violation set expression plus its tuple arity (which may exceed the
/// originating context's arity when ∀-quantifiers extended it).
struct Viol {
    expr: RelExpr,
    arity: usize,
}

fn project_to(viol: Viol, arity: usize) -> RelExpr {
    if viol.arity == arity {
        viol.expr
    } else {
        viol.expr.project_cols(&(0..arity).collect::<Vec<_>>())
    }
}

/// The top-level conjuncts of a formula, in order (also used by the
/// template specializer).
pub(crate) fn flatten_and(f: &Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other.clone()),
    }
}

fn and_all(mut conj: Vec<Formula>) -> Formula {
    let first = conj.remove(0);
    conj.into_iter().fold(first, Formula::and)
}

/// Find the membership guard for `x` in a ∀-body, removing it and
/// returning `(range relation, rest of the formula)` (also used by the
/// template specializer).
pub(crate) fn strip_guard(x: &str, w: &Formula) -> Option<(String, Formula)> {
    match w {
        Formula::Implies(l, r) => {
            let mut conj = Vec::new();
            flatten_and(l, &mut conj);
            let idx = conj
                .iter()
                .position(|c| matches!(c, Formula::Atom(Atom::Member { var, .. }) if var == x))?;
            let rel = match &conj[idx] {
                Formula::Atom(Atom::Member { rel, .. }) => rel.clone(),
                _ => unreachable!("position matched a member atom"),
            };
            conj.remove(idx);
            let rest = if conj.is_empty() {
                (**r).clone()
            } else {
                Formula::implies(and_all(conj), (**r).clone())
            };
            Some((rel, rest))
        }
        Formula::Or(a, b) => {
            // ¬(x∈R) ∨ ψ and ψ ∨ ¬(x∈R).
            let as_neg_member = |f: &Formula| match f {
                Formula::Not(inner) => match inner.as_ref() {
                    Formula::Atom(Atom::Member { var, rel }) if var == x => Some(rel.clone()),
                    _ => None,
                },
                _ => None,
            };
            if let Some(rel) = as_neg_member(a) {
                return Some((rel, (**b).clone()));
            }
            if let Some(rel) = as_neg_member(b) {
                return Some((rel, (**a).clone()));
            }
            None
        }
        Formula::Quant(q, y, inner) => {
            let (rel, rest) = strip_guard(x, inner)?;
            Some((rel, Formula::Quant(*q, y.clone(), Box::new(rest))))
        }
        _ => None,
    }
}

/// `(variable, range relation)` pairs of an ∃-block plus the predicate
/// conjuncts of its matrix.
type ExistsBlock = (Vec<(String, String)>, Vec<Formula>);

/// Flatten an ∃-block: collect `(var, range)` pairs and the predicate
/// conjuncts of the matrix.
fn flatten_exists(w: &Formula) -> Result<ExistsBlock> {
    match w {
        Formula::Quant(Quantifier::Exists, y, body) => {
            let mut conj = Vec::new();
            flatten_and(body, &mut conj);
            let idx = conj
                .iter()
                .position(|c| matches!(c, Formula::Atom(Atom::Member { var, .. }) if var == y))
                .ok_or_else(|| TranslateError::MissingGuard(y.clone()))?;
            let rel = match &conj[idx] {
                Formula::Atom(Atom::Member { rel, .. }) => rel.clone(),
                _ => unreachable!("position matched a member atom"),
            };
            conj.remove(idx);
            let mut evars = vec![(y.clone(), rel)];
            let mut preds = Vec::new();
            for c in conj {
                if matches!(c, Formula::Quant(Quantifier::Exists, ..)) {
                    let (mut more_vars, more_preds) = flatten_exists(&c)?;
                    evars.append(&mut more_vars);
                    preds.extend(more_preds);
                } else {
                    preds.push(c);
                }
            }
            Ok((evars, preds))
        }
        _ => Err(TranslateError::Unsupported {
            construct: w.to_string(),
            reason: "expected an existential quantifier".into(),
        }),
    }
}

fn term_to_scalar(ctx: &Ctx<'_>, t: &Term) -> Result<ScalarExpr> {
    match t {
        Term::Const(v) => Ok(ScalarExpr::Const(v.clone())),
        Term::Attr { var, sel } => {
            let cv = ctx.lookup(var).ok_or_else(|| TranslateError::Unsupported {
                construct: format!("{var}.{sel}"),
                reason: "variable not in translation context".into(),
            })?;
            let pos = match sel {
                AttrSel::Position(p) => *p,
                AttrSel::Name(n) => {
                    return Err(TranslateError::Unsupported {
                        construct: format!("{var}.{n}"),
                        reason: "attribute names must be resolved by analysis first".into(),
                    })
                }
            };
            Ok(ScalarExpr::Col(cv.offset + pos - 1))
        }
        Term::Arith(op, l, r) => Ok(ScalarExpr::arith(
            *op,
            term_to_scalar(ctx, l)?,
            term_to_scalar(ctx, r)?,
        )),
        Term::Agg { func, rel, sel } => {
            let pos = match sel {
                AttrSel::Position(p) => *p,
                AttrSel::Name(n) => {
                    return Err(TranslateError::Unsupported {
                        construct: format!("{func}({rel}, {n})"),
                        reason: "attribute names must be resolved by analysis first".into(),
                    })
                }
            };
            Ok(ScalarExpr::Agg(
                *func,
                Box::new(RelExpr::relation(rel.clone())),
                pos - 1,
            ))
        }
        Term::Cnt { rel } => Ok(ScalarExpr::Cnt(Box::new(RelExpr::relation(rel.clone())))),
    }
}

/// `#a = #b ∧ #a+1 = #b+1 ∧ …` over `n` column pairs (`true` when `n` is
/// 0): tuple equality between two slices of a concatenated tuple.
fn cols_eq(a: usize, b: usize, n: usize) -> ScalarExpr {
    (0..n)
        .map(|i| ScalarExpr::col_eq(a + i, b + i))
        .reduce(ScalarExpr::and)
        .unwrap_or_else(ScalarExpr::true_)
}

/// Attempt to translate a formula into a scalar predicate over the context
/// tuple. Returns `Ok(None)` when the formula contains quantifiers or
/// non-predicate constructs that need structural handling.
fn predicate(ctx: &Ctx<'_>, w: &Formula) -> Result<Option<ScalarExpr>> {
    match w {
        Formula::Atom(Atom::Cmp(op, l, r)) => Ok(Some(ScalarExpr::cmp(
            *op,
            term_to_scalar(ctx, l)?,
            term_to_scalar(ctx, r)?,
        ))),
        Formula::Atom(Atom::Member { var, rel }) => {
            match ctx.lookup(var) {
                // The variable already ranges over this relation: the atom
                // is identically true within the context.
                Some(cv) if &cv.relation == rel => Ok(Some(ScalarExpr::true_())),
                // Membership in a different relation needs a structural
                // translation (semi/anti-join) — not a scalar predicate.
                Some(_) => Ok(None),
                None => Err(TranslateError::Unsupported {
                    construct: w.to_string(),
                    reason: format!("variable `{var}` not in translation context"),
                }),
            }
        }
        Formula::Atom(Atom::TupleEq(a, b)) => {
            let (ca, cb) = match (ctx.lookup(a), ctx.lookup(b)) {
                (Some(x), Some(y)) => (x.clone(), y.clone()),
                _ => {
                    return Err(TranslateError::Unsupported {
                        construct: w.to_string(),
                        reason: "tuple comparison outside translation context".into(),
                    })
                }
            };
            Ok(Some(cols_eq(ca.offset, cb.offset, ca.arity.min(cb.arity))))
        }
        Formula::Not(x) => Ok(predicate(ctx, x)?.map(ScalarExpr::not)),
        Formula::And(l, r) => match (predicate(ctx, l)?, predicate(ctx, r)?) {
            (Some(a), Some(b)) => Ok(Some(ScalarExpr::and(a, b))),
            _ => Ok(None),
        },
        Formula::Or(l, r) => match (predicate(ctx, l)?, predicate(ctx, r)?) {
            (Some(a), Some(b)) => Ok(Some(ScalarExpr::or(a, b))),
            _ => Ok(None),
        },
        Formula::Implies(l, r) => match (predicate(ctx, l)?, predicate(ctx, r)?) {
            (Some(a), Some(b)) => Ok(Some(ScalarExpr::or(ScalarExpr::not(a), b))),
            _ => Ok(None),
        },
        Formula::Quant(..) => Ok(None),
    }
}

/// Compute the violation-set expression of `w` under `ctx`.
fn viol(ctx: &Ctx<'_>, w: &Formula) -> Result<Viol> {
    // Fast path: a quantifier-free matrix.
    if let Some(p) = predicate(ctx, w)? {
        return Ok(Viol {
            expr: ctx.select(simplify_scalar(ScalarExpr::not(p))),
            arity: ctx.arity(),
        });
    }
    match w {
        Formula::Quant(Quantifier::Forall, x, body) => {
            let (rel, rest) =
                strip_guard(x, body).ok_or_else(|| TranslateError::MissingGuard(x.clone()))?;
            let ctx2 = ctx.extended(x, &rel)?;
            viol(&ctx2, &rest)
        }
        Formula::Quant(Quantifier::Exists, _, _) => {
            let (evars, preds) = flatten_exists(w)?;
            let mut ctx2 = ctx.clone();
            for (y, rel) in &evars {
                ctx2 = ctx2.extended(y, rel)?;
            }
            let matrix = preds
                .iter()
                .map(|p| {
                    predicate(&ctx2, p)?.ok_or_else(|| TranslateError::Unsupported {
                        construct: p.to_string(),
                        reason: "quantifier nested inside an existential block".into(),
                    })
                })
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .reduce(ScalarExpr::and)
                .unwrap_or_else(ScalarExpr::true_);
            let right = evars
                .iter()
                .map(|(_, rel)| RelExpr::relation(rel.clone()))
                .reduce(|l, r| l.join(r, ScalarExpr::true_()))
                .expect("flatten_exists yields ≥1 var");
            Ok(Viol {
                expr: ctx.rel_expr().anti_join(right, simplify_scalar(matrix)),
                arity: ctx.arity(),
            })
        }
        Formula::And(l, r) => {
            let a = project_to(viol(ctx, l)?, ctx.arity());
            let b = project_to(viol(ctx, r)?, ctx.arity());
            Ok(Viol {
                expr: a.union(b),
                arity: ctx.arity(),
            })
        }
        Formula::Or(l, r) => {
            let a = project_to(viol(ctx, l)?, ctx.arity());
            let b = project_to(viol(ctx, r)?, ctx.arity());
            Ok(Viol {
                expr: a.intersect(b),
                arity: ctx.arity(),
            })
        }
        Formula::Implies(l, r) => {
            let a = project_to(viol(ctx, l)?, ctx.arity());
            let b = project_to(viol(ctx, r)?, ctx.arity());
            Ok(Viol {
                expr: b.difference(a),
                arity: ctx.arity(),
            })
        }
        Formula::Not(x) => {
            let v = project_to(viol(ctx, x)?, ctx.arity());
            Ok(Viol {
                expr: ctx.rel_expr().difference(v),
                arity: ctx.arity(),
            })
        }
        Formula::Atom(Atom::Member { var, rel }) => {
            // Membership of a context variable in a *different* relation:
            // violations are context tuples whose `var` component has no
            // equal tuple in `rel` — an anti-join on tuple equality.
            let cv = ctx
                .lookup(var)
                .ok_or_else(|| TranslateError::Unsupported {
                    construct: w.to_string(),
                    reason: format!("variable `{var}` not in translation context"),
                })?
                .clone();
            let right_arity = ctx.arity_of_relation(rel)?;
            let pred = cols_eq(cv.offset, ctx.arity(), cv.arity.min(right_arity));
            Ok(Viol {
                expr: ctx
                    .rel_expr()
                    .anti_join(RelExpr::relation(rel.clone()), pred),
                arity: ctx.arity(),
            })
        }
        Formula::Atom(_) => unreachable!("atoms are handled by the predicate fast path"),
    }
}

/// Translate a formula to a scalar predicate over an ad-hoc context of
/// `(variable, range relation)` pairs. `Ok(None)` when the formula is not
/// quantifier-free. Used by the shape classifier of the differential
/// optimizer.
pub(crate) fn predicate_over(
    schema: &DatabaseSchema,
    vars: &[(String, String)],
    w: &Formula,
) -> Result<Option<ScalarExpr>> {
    let mut ctx = Ctx::empty(schema);
    for (name, rel) in vars {
        ctx = ctx.extended(name, rel)?;
    }
    Ok(predicate(&ctx, w)?.map(simplify_scalar))
}

/// `CalcToAlg` on an analysed constraint: the violation-set expression.
pub fn calc_to_alg(info: &ConstraintInfo, schema: &DatabaseSchema) -> Result<RelExpr> {
    let v = viol(&Ctx::empty(schema), &info.formula)?;
    Ok(simplify_rel(v.expr))
}

/// `TransC` (Algorithm 5.6): translate a CL condition into an aborting
/// program `alarm(violations(c))`.
pub fn trans_c(condition: &Formula, schema: &DatabaseSchema) -> Result<Program> {
    let info = analyze(condition, schema)?;
    let expr = calc_to_alg(&info, schema)?;
    Ok(Program::new(vec![Statement::Alarm(expr)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::{Executor, Program as AProgram};
    use tm_calculus::parse_formula;
    use tm_relational::schema::beer_schema;
    use tm_relational::{Database, Tuple};

    fn beer_db() -> Database {
        let mut db = Database::new(beer_schema().into_shared());
        db.insert("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
            .unwrap();
        db.insert("brewery", Tuple::of(("guinness", "dublin", "ie")))
            .unwrap();
        db.insert("beer", Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
            .unwrap();
        db
    }

    /// Execute `alarm` program against a database: committed ⇔ constraint
    /// satisfied.
    fn check(program: &AProgram, db: &Database) -> bool {
        let mut working = db.clone();
        Executor
            .execute(&mut working, &program.clone().bracket())
            .is_committed()
    }

    fn translate(src: &str) -> AProgram {
        trans_c(&parse_formula(src).unwrap(), &beer_schema()).unwrap()
    }

    #[test]
    fn domain_constraint_form_and_semantics() {
        let p = translate("forall x (x in beer implies x.alcohol >= 0)");
        // Table 1 row 1: alarm(σ_{¬c'}(R)).
        assert_eq!(p.to_string().trim(), "alarm(select[(#3 < 0)](beer));");
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("bad", "x", "heineken", -0.5_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn referential_constraint_is_antijoin() {
        let p = translate(
            "forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name))",
        );
        assert_eq!(
            p.to_string().trim(),
            "alarm(antijoin[(#2 = #4)](beer, brewery));"
        );
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("orphan", "x", "nowhere", 5.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn exclusion_constraint() {
        // (∀x)(x∈beer ⟹ (∀y)(y∈brewery ⟹ x.name ≠ y.name))
        let p = translate(
            "forall x (x in beer implies \
             forall y (y in brewery implies x.name != y.name))",
        );
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("heineken", "x", "heineken", 5.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn pairwise_constraint_with_join_condition() {
        // Table 1 row 4 shape: (∀x,y)((x∈R ∧ y∈S ∧ c1) ⟹ c2).
        let p = translate(
            "forall x, y (x in beer and y in beer and x.name = y.name \
             implies x.alcohol = y.alcohol)",
        );
        let mut db = beer_db();
        assert!(check(&p, &db));
        // Same name, different alcohol — but tuples differ in type column.
        db.insert("beer", Tuple::of(("pils", "ale", "heineken", 6.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn conjuncts_go_to_the_lowest_covering_join() {
        // ¬(x.alcohol > 1 ∧ x.brewery = y.name ⇒ y.country ≠ 'ie') splits
        // into a selection on beer and both join conjuncts on the join.
        let p = translate(
            "forall x, y (x in beer and y in brewery and x.alcohol > 1 \
             and x.brewery = y.name implies y.country != 'ie')",
        );
        assert_eq!(
            p.to_string().trim(),
            "alarm(join[((#2 = #4) and (#6 = \"ie\"))](select[(#3 > 1)](beer), brewery));"
        );
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("stout", "stout", "guinness", 4.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn existence_constraint_via_unit_antijoin() {
        let p = translate("exists x (x in brewery and x.country = 'nl')");
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.delete("brewery", &Tuple::of(("heineken", "amsterdam", "nl")))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn aggregate_constraints_translate() {
        let p = translate("CNT(beer) <= 2");
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("a", "a", "guinness", 1.0_f64)))
            .unwrap();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("b", "b", "guinness", 1.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn per_group_aggregate_style() {
        // Aggregates may appear under quantifiers (closed over their own
        // relation): every beer is weaker than the global average + 2.
        let p = translate("forall x (x in beer implies x.alcohol <= AVG(beer, alcohol) + 2.0)");
        let db = beer_db();
        assert!(check(&p, &db));
    }

    #[test]
    fn conjunction_of_constraints() {
        let p = translate(
            "forall x (x in beer implies x.alcohol >= 0) and \
             forall x (x in beer implies x.alcohol <= 20)",
        );
        let mut db = beer_db();
        assert!(check(&p, &db));
        db.insert("beer", Tuple::of(("strong", "x", "heineken", 95.0_f64)))
            .unwrap();
        assert!(!check(&p, &db));
    }

    #[test]
    fn disjunction_of_constraints() {
        // Violated only when both disjuncts are violated.
        let p = translate("CNT(beer) <= 1 or CNT(brewery) <= 2");
        let mut db = beer_db();
        assert!(check(&p, &db)); // beer=1 ✓ (first disjunct holds)
        db.insert("beer", Tuple::of(("b2", "x", "guinness", 1.0_f64)))
            .unwrap();
        assert!(check(&p, &db)); // breweries=2 ✓ (second holds)
        db.insert("brewery", Tuple::of(("third", "c", "d")))
            .unwrap();
        assert!(!check(&p, &db)); // both violated
    }

    #[test]
    fn nested_exists_flattened() {
        // Every beer has a brewery which in turn has some beer of the same
        // type (contrived, exercises the two-variable ∃-block).
        let p = translate(
            "forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name and \
             exists z (z in beer and z.brewery = y.name)))",
        );
        let db = beer_db();
        assert!(check(&p, &db));
    }

    #[test]
    fn transition_constraint_translates_with_pre() {
        let p = translate("forall x (x in beer@pre implies exists y (y in beer and x == y))");
        let rendered = p.to_string();
        assert!(rendered.contains("beer@pre"), "{rendered}");
        assert!(rendered.contains("antijoin"), "{rendered}");
    }

    #[test]
    fn unsupported_forall_under_exists() {
        let r = trans_c(
            &parse_formula(
                "exists x (x in beer and forall y (y in brewery implies x.name != y.name))",
            )
            .unwrap(),
            &beer_schema(),
        );
        assert!(
            matches!(r, Err(TranslateError::Unsupported { .. })),
            "{r:?}"
        );
    }

    #[test]
    fn missing_guard_reported() {
        // Parses and is "safe" by range analysis (membership occurs in the
        // conclusion) but has no guard usable for translation.
        let r = trans_c(
            &parse_formula("forall x (x.1 > 0 implies x in beer)").unwrap(),
            &beer_schema(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn alarm_abort_restores_state() {
        let p = translate("forall x (x in beer implies x.alcohol >= 0)");
        let mut db = beer_db();
        db.insert("beer", Tuple::of(("bad", "x", "heineken", -1.0_f64)))
            .unwrap();
        let before = db.clone();
        let out = Executor.execute(&mut db, &p.bracket());
        assert!(!out.is_committed());
        assert!(db.state_eq(&before));
    }
}

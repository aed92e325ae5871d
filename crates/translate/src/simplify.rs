//! Syntactic optimization of predicates and relational expressions —
//! the `OptC` role of Algorithm 5.4.
//!
//! The paper leaves `OptC`'s functionality open ("can be chosen freely
//! within the boundaries of the equivalence criterium") and lists candidate
//! techniques; we implement the classic syntactic ones here (constant
//! folding, double-negation and comparison-negation elimination, De
//! Morgan, select-fusion). The semantic heavyweight — differential
//! relations — has its own module ([`crate::differential`]).

use tm_algebra::{RelExpr, ScalarExpr};
use tm_relational::Value;

/// Simplify a scalar predicate, preserving semantics.
pub fn simplify_scalar(e: ScalarExpr) -> ScalarExpr {
    match e {
        ScalarExpr::Not(inner) => negate(simplify_scalar(*inner)),
        ScalarExpr::And(l, r) => {
            let l = simplify_scalar(*l);
            let r = simplify_scalar(*r);
            match (l, r) {
                (ScalarExpr::Const(Value::Bool(true)), x)
                | (x, ScalarExpr::Const(Value::Bool(true))) => x,
                (ScalarExpr::Const(Value::Bool(false)), _)
                | (_, ScalarExpr::Const(Value::Bool(false))) => ScalarExpr::false_(),
                (l, r) => ScalarExpr::and(l, r),
            }
        }
        ScalarExpr::Or(l, r) => {
            let l = simplify_scalar(*l);
            let r = simplify_scalar(*r);
            match (l, r) {
                (ScalarExpr::Const(Value::Bool(false)), x)
                | (x, ScalarExpr::Const(Value::Bool(false))) => x,
                (ScalarExpr::Const(Value::Bool(true)), _)
                | (_, ScalarExpr::Const(Value::Bool(true))) => ScalarExpr::true_(),
                (l, r) => ScalarExpr::or(l, r),
            }
        }
        ScalarExpr::Cmp(op, l, r) => {
            let l = simplify_scalar(*l);
            let r = simplify_scalar(*r);
            if let (ScalarExpr::Const(a), ScalarExpr::Const(b)) = (&l, &r) {
                // Fold constant comparisons of comparable values.
                if !a.is_null() && !b.is_null() {
                    return ScalarExpr::Const(Value::Bool(op.test(a.compare(b))));
                }
            }
            ScalarExpr::cmp(op, l, r)
        }
        ScalarExpr::Arith(op, l, r) => {
            let l = simplify_scalar(*l);
            let r = simplify_scalar(*r);
            ScalarExpr::arith(op, l, r)
        }
        ScalarExpr::IsNull(inner) => {
            let inner = simplify_scalar(*inner);
            if let ScalarExpr::Const(v) = &inner {
                return ScalarExpr::Const(Value::Bool(v.is_null()));
            }
            ScalarExpr::IsNull(Box::new(inner))
        }
        ScalarExpr::Agg(f, rel, col) => ScalarExpr::Agg(f, Box::new(simplify_rel(*rel)), col),
        ScalarExpr::Cnt(rel) => ScalarExpr::Cnt(Box::new(simplify_rel(*rel))),
        // A parameter placeholder is an opaque constant term: its value is
        // unknown until bind time, so no fold may look through it (the
        // `Cmp` fold above only fires on two `Const` operands, which keeps
        // `?i = c` comparisons intact by construction).
        leaf @ (ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Col(_)) => leaf,
    }
}

/// The negation of an already simplified predicate, pushed inwards so
/// that the result is simplified too. De Morgan keeps a negated
/// disjunction a conjunction, whose equalities a join can hash on: the
/// violation predicate of Table 1 row 4, `¬(¬c1 ∨ c2)`, becomes
/// `c1 ∧ ¬c2`.
fn negate(e: ScalarExpr) -> ScalarExpr {
    match e {
        // ¬¬e ⇒ e
        ScalarExpr::Not(x) => *x,
        // ¬(a ϑ b) ⇒ a ϑ̄ b
        ScalarExpr::Cmp(op, l, r) => ScalarExpr::Cmp(op.negate(), l, r),
        // ¬true ⇒ false, ¬false ⇒ true
        ScalarExpr::Const(Value::Bool(b)) => ScalarExpr::Const(Value::Bool(!b)),
        // ¬(a ∨ b) ⇒ ¬a ∧ ¬b
        ScalarExpr::Or(a, b) => ScalarExpr::and(negate(*a), negate(*b)),
        // ¬(a ∧ b) ⇒ ¬a ∨ ¬b
        ScalarExpr::And(a, b) => ScalarExpr::or(negate(*a), negate(*b)),
        other => ScalarExpr::not(other),
    }
}

/// Simplify a relational expression, preserving semantics.
pub fn simplify_rel(e: RelExpr) -> RelExpr {
    match e {
        RelExpr::Select(input, pred) => {
            let input = simplify_rel(*input);
            let pred = simplify_scalar(pred);
            match (input, pred) {
                // σ_true(E) ⇒ E
                (input, ScalarExpr::Const(Value::Bool(true))) => input,
                // σ_p1(σ_p2(E)) ⇒ σ_{p2 ∧ p1}(E)
                (RelExpr::Select(inner, p2), p1) => {
                    RelExpr::Select(inner, simplify_scalar(ScalarExpr::and(p2, p1)))
                }
                (input, pred) => RelExpr::Select(Box::new(input), pred),
            }
        }
        RelExpr::Project(input, exprs) => RelExpr::Project(
            Box::new(simplify_rel(*input)),
            exprs.into_iter().map(simplify_scalar).collect(),
        ),
        RelExpr::Join(l, r, p) => RelExpr::Join(
            Box::new(simplify_rel(*l)),
            Box::new(simplify_rel(*r)),
            simplify_scalar(p),
        ),
        RelExpr::SemiJoin(l, r, p) => RelExpr::SemiJoin(
            Box::new(simplify_rel(*l)),
            Box::new(simplify_rel(*r)),
            simplify_scalar(p),
        ),
        RelExpr::AntiJoin(l, r, p) => RelExpr::AntiJoin(
            Box::new(simplify_rel(*l)),
            Box::new(simplify_rel(*r)),
            simplify_scalar(p),
        ),
        RelExpr::Union(l, r) => {
            RelExpr::Union(Box::new(simplify_rel(*l)), Box::new(simplify_rel(*r)))
        }
        RelExpr::Difference(l, r) => {
            RelExpr::Difference(Box::new(simplify_rel(*l)), Box::new(simplify_rel(*r)))
        }
        RelExpr::Intersect(l, r) => {
            RelExpr::Intersect(Box::new(simplify_rel(*l)), Box::new(simplify_rel(*r)))
        }
        RelExpr::Singleton(exprs) => {
            RelExpr::Singleton(exprs.into_iter().map(simplify_scalar).collect())
        }
        leaf @ (RelExpr::Rel(_) | RelExpr::Literal(_)) => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::CmpOp;

    #[test]
    fn double_negation_eliminated() {
        let e = ScalarExpr::not(ScalarExpr::not(ScalarExpr::col(0)));
        assert_eq!(simplify_scalar(e), ScalarExpr::col(0));
    }

    #[test]
    fn negated_comparison_flipped() {
        let e = ScalarExpr::not(ScalarExpr::cmp(
            CmpOp::Ge,
            ScalarExpr::col(3),
            ScalarExpr::int(0),
        ));
        assert_eq!(
            simplify_scalar(e),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(3), ScalarExpr::int(0))
        );
    }

    #[test]
    fn de_morgan_pushes_negation_inwards() {
        let (a, b) = (ScalarExpr::col_eq(0, 2), ScalarExpr::col_eq(1, 3));
        let ne = |l, r| ScalarExpr::cmp(CmpOp::Ne, ScalarExpr::col(l), ScalarExpr::col(r));
        // ¬(a ∨ b) ⇒ ¬a ∧ ¬b
        assert_eq!(
            simplify_scalar(ScalarExpr::not(ScalarExpr::or(a.clone(), b.clone()))),
            ScalarExpr::and(ne(0, 2), ne(1, 3))
        );
        // ¬(a ∧ b) ⇒ ¬a ∨ ¬b
        assert_eq!(
            simplify_scalar(ScalarExpr::not(ScalarExpr::and(a.clone(), b.clone()))),
            ScalarExpr::or(ne(0, 2), ne(1, 3))
        );
        // Table 1 row 4: ¬(¬(#0 = #2) ∨ #1 <= #3) ⇒ (#0 = #2) ∧ (#1 > #3).
        let row4 = ScalarExpr::not(ScalarExpr::or(
            ScalarExpr::not(a.clone()),
            ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(1), ScalarExpr::col(3)),
        ));
        assert_eq!(
            simplify_scalar(row4).to_string(),
            "((#0 = #2) and (#1 > #3))"
        );
    }

    #[test]
    fn boolean_identities() {
        let t = ScalarExpr::true_();
        let f = ScalarExpr::false_();
        let x = ScalarExpr::col(1);
        assert_eq!(simplify_scalar(ScalarExpr::and(t.clone(), x.clone())), x);
        assert_eq!(
            simplify_scalar(ScalarExpr::and(f.clone(), x.clone())),
            ScalarExpr::false_()
        );
        assert_eq!(simplify_scalar(ScalarExpr::or(f.clone(), x.clone())), x);
        assert_eq!(
            simplify_scalar(ScalarExpr::or(t.clone(), x.clone())),
            ScalarExpr::true_()
        );
    }

    #[test]
    fn constant_comparisons_folded() {
        let e = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::int(1), ScalarExpr::int(2));
        assert_eq!(simplify_scalar(e), ScalarExpr::true_());
        let e = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::str("a"), ScalarExpr::str("b"));
        assert_eq!(simplify_scalar(e), ScalarExpr::false_());
        // Null comparisons are left alone (evaluator decides).
        let e = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Const(Value::Null),
            ScalarExpr::int(1),
        );
        assert!(matches!(simplify_scalar(e), ScalarExpr::Cmp(..)));
    }

    #[test]
    fn select_true_removed_and_selects_fused() {
        let e = RelExpr::relation("r").select(ScalarExpr::true_());
        assert_eq!(simplify_rel(e), RelExpr::relation("r"));

        let e = RelExpr::relation("r")
            .select(ScalarExpr::col_eq(0, 1))
            .select(ScalarExpr::col_eq(1, 2));
        match simplify_rel(e) {
            RelExpr::Select(input, pred) => {
                assert_eq!(*input, RelExpr::relation("r"));
                assert!(matches!(pred, ScalarExpr::And(..)));
            }
            other => panic!("expected fused select, got {other:?}"),
        }
    }

    #[test]
    fn isnull_folding() {
        let e = ScalarExpr::IsNull(Box::new(ScalarExpr::Const(Value::Null)));
        assert_eq!(simplify_scalar(e), ScalarExpr::true_());
        let e = ScalarExpr::IsNull(Box::new(ScalarExpr::int(3)));
        assert_eq!(simplify_scalar(e), ScalarExpr::false_());
    }

    #[test]
    fn simplification_recurses_into_aggregates() {
        let e = ScalarExpr::Cnt(Box::new(RelExpr::relation("r").select(ScalarExpr::true_())));
        assert_eq!(
            simplify_scalar(e),
            ScalarExpr::Cnt(Box::new(RelExpr::relation("r")))
        );
    }

    /// A corpus of predicates exercising every rewrite: the algebraic laws
    /// below must hold on each of them.
    fn scalar_corpus() -> Vec<ScalarExpr> {
        use tm_algebra::expr::{ArithOp, CmpOp};
        vec![
            ScalarExpr::true_(),
            ScalarExpr::not(ScalarExpr::not(ScalarExpr::col(0))),
            ScalarExpr::not(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(1),
                ScalarExpr::int(0),
            )),
            ScalarExpr::and(ScalarExpr::true_(), ScalarExpr::col(0)),
            ScalarExpr::and(ScalarExpr::col(0), ScalarExpr::false_()),
            ScalarExpr::or(ScalarExpr::false_(), ScalarExpr::param(2)),
            ScalarExpr::or(ScalarExpr::param(0), ScalarExpr::true_()),
            ScalarExpr::cmp(CmpOp::Le, ScalarExpr::int(3), ScalarExpr::int(5)),
            ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::Const(Value::Null),
                ScalarExpr::int(5),
            ),
            ScalarExpr::arith(
                ArithOp::Add,
                ScalarExpr::col(0),
                ScalarExpr::arith(ArithOp::Div, ScalarExpr::int(1), ScalarExpr::int(0)),
            ),
            ScalarExpr::IsNull(Box::new(ScalarExpr::param(1))),
            ScalarExpr::Cnt(Box::new(
                RelExpr::relation("r").select(ScalarExpr::not(ScalarExpr::not(ScalarExpr::col(0)))),
            )),
            ScalarExpr::and(
                ScalarExpr::not(ScalarExpr::not(ScalarExpr::col(0))),
                ScalarExpr::or(ScalarExpr::col(1), ScalarExpr::false_()),
            ),
            ScalarExpr::not(ScalarExpr::or(
                ScalarExpr::not(ScalarExpr::col_eq(0, 2)),
                ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(1), ScalarExpr::param(0)),
            )),
            ScalarExpr::not(ScalarExpr::and(
                ScalarExpr::or(ScalarExpr::col(0), ScalarExpr::true_()),
                ScalarExpr::not(ScalarExpr::IsNull(Box::new(ScalarExpr::col(1)))),
            )),
        ]
    }

    fn rel_corpus() -> Vec<RelExpr> {
        vec![
            RelExpr::relation("r"),
            RelExpr::relation("r").select(ScalarExpr::true_()),
            RelExpr::relation("r")
                .select(ScalarExpr::col(0))
                .select(ScalarExpr::col(1)),
            RelExpr::Singleton(vec![ScalarExpr::not(ScalarExpr::not(ScalarExpr::param(0)))]),
            RelExpr::relation("r")
                .select(ScalarExpr::true_())
                .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 1)),
            RelExpr::relation("r")
                .join(RelExpr::relation("s"), ScalarExpr::true_())
                .select(ScalarExpr::not(ScalarExpr::not(ScalarExpr::col_eq(0, 2)))),
            RelExpr::relation("r")
                .select(ScalarExpr::true_())
                .join(RelExpr::relation("s"), ScalarExpr::not(ScalarExpr::true_())),
        ]
    }

    #[test]
    fn simplify_scalar_is_idempotent() {
        for e in scalar_corpus() {
            let once = simplify_scalar(e.clone());
            let twice = simplify_scalar(once.clone());
            assert_eq!(once, twice, "not a fixpoint for {e}");
        }
    }

    #[test]
    fn simplify_rel_is_idempotent() {
        for e in rel_corpus() {
            let once = simplify_rel(e.clone());
            let twice = simplify_rel(once.clone());
            assert_eq!(once, twice, "not a fixpoint for {e}");
        }
    }

    #[test]
    fn simplification_commutes_with_parameter_substitution_shape() {
        // Param opacity: parameters are never folded — a simplified
        // predicate mentions exactly the parameters the original does.
        fn params(e: &ScalarExpr, out: &mut Vec<usize>) {
            match e {
                ScalarExpr::Param(i) => out.push(*i),
                ScalarExpr::Not(x) | ScalarExpr::IsNull(x) => params(x, out),
                ScalarExpr::And(l, r)
                | ScalarExpr::Or(l, r)
                | ScalarExpr::Cmp(_, l, r)
                | ScalarExpr::Arith(_, l, r) => {
                    params(l, out);
                    params(r, out);
                }
                _ => {}
            }
        }
        for e in scalar_corpus() {
            let mut before = Vec::new();
            params(&e, &mut before);
            let simplified = simplify_scalar(e.clone());
            let mut after = Vec::new();
            params(&simplified, &mut after);
            before.sort_unstable();
            before.dedup();
            after.sort_unstable();
            after.dedup();
            // Boolean-identity folds may ERASE a parameter (x ∧ false) but
            // can never invent one.
            assert!(
                after.iter().all(|p| before.contains(p)),
                "{e} ⇒ {simplified} invented a parameter"
            );
        }
    }
}

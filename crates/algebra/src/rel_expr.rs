//! Relational expressions of the extended algebra.

use std::fmt;

use tm_relational::{Tuple, Value};

use crate::expr::{max_opt, ScalarExpr};

/// A relational algebra expression producing a relation state.
///
/// The operator set covers what Section 5.2.2 and Table 1 of the paper
/// need: selection `σ`, projection `π` (generalised: computed expressions),
/// theta join `⋈`, semi-join `⋉`, anti-join `▷`, the set operations,
/// literal relations, and singleton relations whose single tuple is
/// computed from scalar (possibly aggregate) expressions — the vehicle for
/// Table 1's `AGGR(R, i)` and `CNT(R)` rows. The cartesian product is
/// `join[true]`: `Join` is the algebra's one pair operator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelExpr {
    /// A named relation: base relation, temporary, or auxiliary
    /// (`R@pre`, `R@ins`, `R@del`).
    Rel(String),
    /// A literal relation given by explicit tuples (used for inserts of
    /// constant tuples, e.g. the transaction of Example 5.1).
    Literal(Vec<Tuple>),
    /// A one-tuple relation whose values are computed by scalar
    /// expressions evaluated over the empty tuple; expressions may contain
    /// aggregates (`Singleton([CNT(R)])` is the paper's `CNT(R)` relation).
    Singleton(Vec<ScalarExpr>),
    /// Selection `σ_pred(E)`.
    Select(Box<RelExpr>, ScalarExpr),
    /// Generalised projection `π_exprs(E)`; plain column projection uses
    /// `Col` expressions.
    Project(Box<RelExpr>, Vec<ScalarExpr>),
    /// Theta join `E1 ⋈_pred E2`; the predicate sees the concatenated
    /// tuple (left columns first).
    Join(Box<RelExpr>, Box<RelExpr>, ScalarExpr),
    /// Semi-join `E1 ⋉_pred E2`: left tuples with at least one match.
    SemiJoin(Box<RelExpr>, Box<RelExpr>, ScalarExpr),
    /// Anti-join `E1 ▷_pred E2`: left tuples with no match.
    AntiJoin(Box<RelExpr>, Box<RelExpr>, ScalarExpr),
    /// Set union `E1 ∪ E2` (operands must be union-compatible).
    Union(Box<RelExpr>, Box<RelExpr>),
    /// Set difference `E1 − E2`.
    Difference(Box<RelExpr>, Box<RelExpr>),
    /// Set intersection `E1 ∩ E2`.
    Intersect(Box<RelExpr>, Box<RelExpr>),
}

impl RelExpr {
    /// Reference a relation by name.
    pub fn relation(name: impl Into<String>) -> RelExpr {
        RelExpr::Rel(name.into())
    }

    /// Selection.
    pub fn select(self, pred: ScalarExpr) -> RelExpr {
        RelExpr::Select(Box::new(self), pred)
    }

    /// Generalised projection.
    pub fn project(self, exprs: Vec<ScalarExpr>) -> RelExpr {
        RelExpr::Project(Box::new(self), exprs)
    }

    /// Column projection onto zero-based positions.
    pub fn project_cols(self, cols: &[usize]) -> RelExpr {
        RelExpr::Project(
            Box::new(self),
            cols.iter().map(|&c| ScalarExpr::Col(c)).collect(),
        )
    }

    /// Theta join.
    pub fn join(self, right: RelExpr, pred: ScalarExpr) -> RelExpr {
        RelExpr::Join(Box::new(self), Box::new(right), pred)
    }

    /// Semi-join.
    pub fn semi_join(self, right: RelExpr, pred: ScalarExpr) -> RelExpr {
        RelExpr::SemiJoin(Box::new(self), Box::new(right), pred)
    }

    /// Anti-join.
    pub fn anti_join(self, right: RelExpr, pred: ScalarExpr) -> RelExpr {
        RelExpr::AntiJoin(Box::new(self), Box::new(right), pred)
    }

    /// Set union.
    pub fn union(self, right: RelExpr) -> RelExpr {
        RelExpr::Union(Box::new(self), Box::new(right))
    }

    /// Set difference.
    pub fn difference(self, right: RelExpr) -> RelExpr {
        RelExpr::Difference(Box::new(self), Box::new(right))
    }

    /// Set intersection.
    pub fn intersect(self, right: RelExpr) -> RelExpr {
        RelExpr::Intersect(Box::new(self), Box::new(right))
    }

    /// All relation names referenced anywhere in the expression, including
    /// inside aggregate subexpressions (deterministic order, duplicates
    /// removed). Used by trigger analysis and the triggering graph.
    pub fn referenced_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out.dedup();
        let mut seen = std::collections::HashSet::new();
        out.retain(|n| seen.insert(n.clone()));
        out
    }

    fn collect_relations(&self, out: &mut Vec<String>) {
        match self {
            RelExpr::Rel(name) => out.push(name.clone()),
            RelExpr::Literal(_) => {}
            RelExpr::Singleton(exprs) => {
                for e in exprs {
                    collect_scalar_relations(e, out);
                }
            }
            RelExpr::Select(input, pred) => {
                input.collect_relations(out);
                collect_scalar_relations(pred, out);
            }
            RelExpr::Project(input, exprs) => {
                input.collect_relations(out);
                for e in exprs {
                    collect_scalar_relations(e, out);
                }
            }
            RelExpr::Join(l, r, pred)
            | RelExpr::SemiJoin(l, r, pred)
            | RelExpr::AntiJoin(l, r, pred) => {
                l.collect_relations(out);
                r.collect_relations(out);
                collect_scalar_relations(pred, out);
            }
            RelExpr::Union(l, r) | RelExpr::Difference(l, r) | RelExpr::Intersect(l, r) => {
                l.collect_relations(out);
                r.collect_relations(out);
            }
        }
    }

    /// Substitute every reference to relation `from` with a reference to
    /// relation `to` (including inside aggregates). The differential
    /// optimizer uses this to retarget checks at delta relations.
    pub fn substitute_relation(&self, from: &str, to: &str) -> RelExpr {
        match self {
            RelExpr::Rel(name) if name == from => RelExpr::Rel(to.to_owned()),
            _ => self.rebuild(&|r| r.substitute_relation(from, to), &|e| {
                substitute_scalar(e, from, to)
            }),
        }
    }

    /// The same node over `rel(child)` for every relational child and
    /// `scalar(e)` for every scalar part; leaves are cloned.
    fn rebuild(
        &self,
        rel: &impl Fn(&RelExpr) -> RelExpr,
        scalar: &impl Fn(&ScalarExpr) -> ScalarExpr,
    ) -> RelExpr {
        let b = |child: &RelExpr| Box::new(rel(child));
        match self {
            RelExpr::Rel(_) | RelExpr::Literal(_) => self.clone(),
            RelExpr::Singleton(exprs) => RelExpr::Singleton(exprs.iter().map(scalar).collect()),
            RelExpr::Select(input, pred) => RelExpr::Select(b(input), scalar(pred)),
            RelExpr::Project(input, exprs) => {
                RelExpr::Project(b(input), exprs.iter().map(scalar).collect())
            }
            RelExpr::Join(l, r, p) => RelExpr::Join(b(l), b(r), scalar(p)),
            RelExpr::SemiJoin(l, r, p) => RelExpr::SemiJoin(b(l), b(r), scalar(p)),
            RelExpr::AntiJoin(l, r, p) => RelExpr::AntiJoin(b(l), b(r), scalar(p)),
            RelExpr::Union(l, r) => RelExpr::Union(b(l), b(r)),
            RelExpr::Difference(l, r) => RelExpr::Difference(b(l), b(r)),
            RelExpr::Intersect(l, r) => RelExpr::Intersect(b(l), b(r)),
        }
    }
}

impl ScalarExpr {
    /// All relation names referenced by aggregate/count subexpressions of
    /// this scalar expression (deterministic order, duplicates removed) —
    /// the scalar-level counterpart of [`RelExpr::referenced_relations`].
    /// The executor uses it to discover which differential relations a
    /// statement's predicates can read.
    pub fn referenced_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_scalar_relations(self, &mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|n| seen.insert(n.clone()));
        out
    }
}

fn collect_scalar_relations(e: &ScalarExpr, out: &mut Vec<String>) {
    match e {
        ScalarExpr::Agg(_, rel, _) => rel.collect_relations(out),
        ScalarExpr::Cnt(rel) => rel.collect_relations(out),
        ScalarExpr::Arith(_, l, r) | ScalarExpr::Cmp(_, l, r) => {
            collect_scalar_relations(l, out);
            collect_scalar_relations(r, out);
        }
        ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
            collect_scalar_relations(l, out);
            collect_scalar_relations(r, out);
        }
        ScalarExpr::Not(x) | ScalarExpr::IsNull(x) => collect_scalar_relations(x, out),
        ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Col(_) => {}
    }
}

fn substitute_scalar(e: &ScalarExpr, from: &str, to: &str) -> ScalarExpr {
    match e {
        ScalarExpr::Agg(f, rel, col) => {
            ScalarExpr::Agg(*f, Box::new(rel.substitute_relation(from, to)), *col)
        }
        ScalarExpr::Cnt(rel) => ScalarExpr::Cnt(Box::new(rel.substitute_relation(from, to))),
        ScalarExpr::Arith(op, l, r) => ScalarExpr::arith(
            *op,
            substitute_scalar(l, from, to),
            substitute_scalar(r, from, to),
        ),
        ScalarExpr::Cmp(op, l, r) => ScalarExpr::cmp(
            *op,
            substitute_scalar(l, from, to),
            substitute_scalar(r, from, to),
        ),
        ScalarExpr::And(l, r) => ScalarExpr::and(
            substitute_scalar(l, from, to),
            substitute_scalar(r, from, to),
        ),
        ScalarExpr::Or(l, r) => ScalarExpr::or(
            substitute_scalar(l, from, to),
            substitute_scalar(r, from, to),
        ),
        ScalarExpr::Not(x) => ScalarExpr::not(substitute_scalar(x, from, to)),
        ScalarExpr::IsNull(x) => ScalarExpr::IsNull(Box::new(substitute_scalar(x, from, to))),
        ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Col(_) => e.clone(),
    }
}

impl ScalarExpr {
    /// The largest parameter index `?i` referenced anywhere in this
    /// expression, including inside aggregate subexpressions, or `None`
    /// when the expression is parameter-free.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            ScalarExpr::Param(i) => Some(*i),
            ScalarExpr::Const(_) | ScalarExpr::Col(_) => None,
            ScalarExpr::Arith(_, l, r) | ScalarExpr::Cmp(_, l, r) => {
                max_opt(l.max_param(), r.max_param())
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => max_opt(l.max_param(), r.max_param()),
            ScalarExpr::Not(e) | ScalarExpr::IsNull(e) => e.max_param(),
            ScalarExpr::Agg(_, rel, _) => rel.max_param(),
            ScalarExpr::Cnt(rel) => rel.max_param(),
        }
    }

    /// Substitute every placeholder `?i` with the constant `values[i]`.
    /// Placeholders beyond `values.len()` are left in place (callers that
    /// need an error for them check [`ScalarExpr::max_param`] first).
    pub fn bind_params(&self, values: &[Value]) -> ScalarExpr {
        match self {
            ScalarExpr::Param(i) => match values.get(*i) {
                Some(v) => ScalarExpr::Const(v.clone()),
                None => self.clone(),
            },
            ScalarExpr::Const(_) | ScalarExpr::Col(_) => self.clone(),
            ScalarExpr::Arith(op, l, r) => {
                ScalarExpr::arith(*op, l.bind_params(values), r.bind_params(values))
            }
            ScalarExpr::Cmp(op, l, r) => {
                ScalarExpr::cmp(*op, l.bind_params(values), r.bind_params(values))
            }
            ScalarExpr::And(l, r) => ScalarExpr::and(l.bind_params(values), r.bind_params(values)),
            ScalarExpr::Or(l, r) => ScalarExpr::or(l.bind_params(values), r.bind_params(values)),
            ScalarExpr::Not(e) => ScalarExpr::not(e.bind_params(values)),
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.bind_params(values))),
            ScalarExpr::Agg(f, rel, col) => {
                ScalarExpr::Agg(*f, Box::new(rel.bind_params(values)), *col)
            }
            ScalarExpr::Cnt(rel) => ScalarExpr::Cnt(Box::new(rel.bind_params(values))),
        }
    }
}

impl RelExpr {
    /// The largest parameter index `?i` referenced anywhere in this
    /// expression, or `None` when it is parameter-free.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            RelExpr::Rel(_) | RelExpr::Literal(_) => None,
            RelExpr::Singleton(exprs) => exprs.iter().fold(None, |m, e| max_opt(m, e.max_param())),
            RelExpr::Select(input, pred) => max_opt(input.max_param(), pred.max_param()),
            RelExpr::Project(input, exprs) => exprs
                .iter()
                .fold(input.max_param(), |m, e| max_opt(m, e.max_param())),
            RelExpr::Join(l, r, p) | RelExpr::SemiJoin(l, r, p) | RelExpr::AntiJoin(l, r, p) => {
                max_opt(max_opt(l.max_param(), r.max_param()), p.max_param())
            }
            RelExpr::Union(l, r) | RelExpr::Difference(l, r) | RelExpr::Intersect(l, r) => {
                max_opt(l.max_param(), r.max_param())
            }
        }
    }

    /// Substitute every placeholder `?i` with the constant `values[i]`
    /// (see [`ScalarExpr::bind_params`]).
    pub fn bind_params(&self, values: &[Value]) -> RelExpr {
        if self.max_param().is_none() {
            // Parameter-free subtrees are cloned wholesale — the common
            // case for the integrity checks appended by `ModT`.
            return self.clone();
        }
        self.rebuild(&|r| r.bind_params(values), &|e| e.bind_params(values))
    }
}

impl fmt::Display for RelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Rel(name) => write!(f, "{name}"),
            RelExpr::Literal(tuples) => {
                write!(f, "{{")?;
                for (i, t) in tuples.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
            RelExpr::Singleton(exprs) => {
                write!(f, "row(")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            RelExpr::Select(input, pred) => write!(f, "select[{pred}]({input})"),
            RelExpr::Project(input, exprs) => {
                write!(f, "project[")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]({input})")
            }
            RelExpr::Join(l, r, p) => write!(f, "join[{p}]({l}, {r})"),
            RelExpr::SemiJoin(l, r, p) => write!(f, "semijoin[{p}]({l}, {r})"),
            RelExpr::AntiJoin(l, r, p) => write!(f, "antijoin[{p}]({l}, {r})"),
            RelExpr::Union(l, r) => write!(f, "({l} union {r})"),
            RelExpr::Difference(l, r) => write!(f, "({l} minus {r})"),
            RelExpr::Intersect(l, r) => write!(f, "({l} intersect {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn builders_compose() {
        let e = RelExpr::relation("beer")
            .select(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::col(3),
                ScalarExpr::double(0.0),
            ))
            .project_cols(&[0]);
        assert_eq!(e.to_string(), "project[#0](select[(#3 < 0.0)](beer))");
    }

    #[test]
    fn referenced_relations_deduplicated_and_deep() {
        let e = RelExpr::relation("a")
            .join(RelExpr::relation("b"), ScalarExpr::col_eq(0, 1))
            .union(RelExpr::relation("a"))
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::Cnt(Box::new(RelExpr::relation("c"))),
                ScalarExpr::int(0),
            ));
        assert_eq!(e.referenced_relations(), vec!["a", "b", "c"]);
    }

    #[test]
    fn substitution_reaches_aggregates() {
        let e = RelExpr::Singleton(vec![ScalarExpr::Cnt(Box::new(RelExpr::relation("r")))])
            .union(RelExpr::relation("r"));
        let s = e.substitute_relation("r", "r@ins");
        assert_eq!(s.referenced_relations(), vec!["r@ins"]);
        // Original untouched.
        assert_eq!(e.referenced_relations(), vec!["r"]);
    }

    #[test]
    fn max_param_reaches_aggregates() {
        let e = RelExpr::relation("r")
            .select(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::Cnt(Box::new(RelExpr::relation("s").select(ScalarExpr::cmp(
                    CmpOp::Eq,
                    ScalarExpr::col(0),
                    ScalarExpr::param(3),
                )))),
                ScalarExpr::param(1),
            ))
            .union(RelExpr::Singleton(vec![ScalarExpr::param(0)]));
        assert_eq!(e.max_param(), Some(3));
        assert_eq!(RelExpr::relation("r").max_param(), None);
    }

    #[test]
    fn bind_params_substitutes_and_preserves_param_free_subtrees() {
        use tm_relational::Value;
        let e = RelExpr::Singleton(vec![ScalarExpr::param(0), ScalarExpr::int(7)]);
        let bound = e.bind_params(&[Value::str("x")]);
        assert_eq!(
            bound,
            RelExpr::Singleton(vec![ScalarExpr::str("x"), ScalarExpr::int(7)])
        );
        assert_eq!(bound.max_param(), None);
        // A short binding leaves later placeholders in place.
        let e = RelExpr::Singleton(vec![ScalarExpr::param(0), ScalarExpr::param(5)]);
        let partial = e.bind_params(&[Value::Int(1)]);
        assert_eq!(partial.max_param(), Some(5));
    }

    #[test]
    fn display_literals() {
        let e = RelExpr::Literal(vec![Tuple::of((1, "x"))]);
        assert_eq!(e.to_string(), "{(1, \"x\")}");
        let s = RelExpr::Singleton(vec![ScalarExpr::int(5)]);
        assert_eq!(s.to_string(), "row(5)");
    }
}

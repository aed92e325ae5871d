//! Scalar expressions: the terms and predicates of the extended algebra.
//!
//! A [`ScalarExpr`] is evaluated against an *input tuple* (for selection
//! predicates this is a tuple of the input relation; for join predicates it
//! is the concatenation of the left and right tuples) and an evaluation
//! context that resolves relation names for aggregate subexpressions.
//!
//! Attributes are referenced by **absolute zero-based offset** into the
//! input tuple ([`ScalarExpr::Col`]). The calculus→algebra translator in
//! `tm-translate` maps CL tuple variables and 1-based attribute selections
//! (`x.i`) onto these offsets.

use std::fmt;

use tm_relational::{Value, ValueType};

use crate::rel_expr::RelExpr;

pub use tm_relational::ops::{AggFunc, ArithOp, CmpOp};

/// A scalar expression over an input tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// A constant value.
    Const(Value),
    /// A parameter placeholder `?n` (zero-based), resolved at execution
    /// time from the parameter binding of a prepared transaction. A
    /// placeholder behaves exactly like the constant it is bound to;
    /// evaluating an unbound placeholder is a runtime error
    /// ([`crate::error::AlgebraError::UnboundParam`]).
    Param(usize),
    /// The value at an absolute zero-based offset in the input tuple.
    Col(usize),
    /// Binary arithmetic.
    Arith(ArithOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Comparison producing a boolean; numeric comparisons mix int/double.
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// Null test (compensating actions insert nulls; rules may test them).
    IsNull(Box<ScalarExpr>),
    /// Aggregate function application `AGGR(E, i)` over a relational
    /// subexpression (Definition 4.2's aggregate terms, generalised from
    /// relation constants to expressions as §5.2.2 requires).
    Agg(AggFunc, Box<RelExpr>, usize),
    /// Counting function application `CNT(E)`.
    Cnt(Box<RelExpr>),
}

impl ScalarExpr {
    /// Boolean constant `true`.
    pub fn true_() -> ScalarExpr {
        ScalarExpr::Const(Value::Bool(true))
    }

    /// Boolean constant `false`.
    pub fn false_() -> ScalarExpr {
        ScalarExpr::Const(Value::Bool(false))
    }

    /// Integer constant.
    pub fn int(v: i64) -> ScalarExpr {
        ScalarExpr::Const(Value::Int(v))
    }

    /// String constant.
    pub fn str(v: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Const(Value::Str(v.into()))
    }

    /// Double constant.
    pub fn double(v: f64) -> ScalarExpr {
        ScalarExpr::Const(Value::double(v))
    }

    /// Column reference.
    pub fn col(i: usize) -> ScalarExpr {
        ScalarExpr::Col(i)
    }

    /// Parameter placeholder `?i`.
    pub fn param(i: usize) -> ScalarExpr {
        ScalarExpr::Param(i)
    }

    /// The placeholder row `?0, ?1, …, ?(n-1)` — the usual source of a
    /// parameterized single-row insert or delete
    /// (`RelExpr::Singleton(ScalarExpr::params(n))`).
    pub fn params(n: usize) -> Vec<ScalarExpr> {
        (0..n).map(ScalarExpr::Param).collect()
    }

    /// Comparison node.
    pub fn cmp(op: CmpOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// Equality comparison of two columns — the common equi-join predicate.
    pub fn col_eq(l: usize, r: usize) -> ScalarExpr {
        ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(l), ScalarExpr::Col(r))
    }

    /// Conjunction node.
    pub fn and(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::And(Box::new(l), Box::new(r))
    }

    /// Disjunction node.
    pub fn or(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Or(Box::new(l), Box::new(r))
    }

    /// Negation node.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Not(Box::new(e))
    }

    /// Arithmetic node.
    pub fn arith(op: ArithOp, l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Arith(op, Box::new(l), Box::new(r))
    }

    /// Shift every column reference by `delta` (used when an expression
    /// over a right join input moves into a concatenated-tuple context).
    pub fn shift_cols(&self, delta: usize) -> ScalarExpr {
        match self {
            ScalarExpr::Const(v) => ScalarExpr::Const(v.clone()),
            ScalarExpr::Param(i) => ScalarExpr::Param(*i),
            ScalarExpr::Col(i) => ScalarExpr::Col(i + delta),
            ScalarExpr::Arith(op, l, r) => {
                ScalarExpr::arith(*op, l.shift_cols(delta), r.shift_cols(delta))
            }
            ScalarExpr::Cmp(op, l, r) => {
                ScalarExpr::cmp(*op, l.shift_cols(delta), r.shift_cols(delta))
            }
            ScalarExpr::And(l, r) => ScalarExpr::and(l.shift_cols(delta), r.shift_cols(delta)),
            ScalarExpr::Or(l, r) => ScalarExpr::or(l.shift_cols(delta), r.shift_cols(delta)),
            ScalarExpr::Not(e) => ScalarExpr::not(e.shift_cols(delta)),
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.shift_cols(delta))),
            // Aggregate subexpressions are closed over their own relation;
            // column offsets inside them do not refer to the outer tuple.
            ScalarExpr::Agg(..) | ScalarExpr::Cnt(..) => self.clone(),
        }
    }

    /// The top-level conjuncts of this predicate (a right- or left-nested
    /// `And` tree flattened), in evaluation order.
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        match self {
            ScalarExpr::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// The largest column offset referenced by this expression (ignoring
    /// aggregate subexpressions, which are closed), or `None` if no column
    /// is referenced.
    pub fn max_col(&self) -> Option<usize> {
        match self {
            ScalarExpr::Const(_)
            | ScalarExpr::Param(_)
            | ScalarExpr::Agg(..)
            | ScalarExpr::Cnt(..) => None,
            ScalarExpr::Col(i) => Some(*i),
            ScalarExpr::Arith(_, l, r) | ScalarExpr::Cmp(_, l, r) => {
                max_opt(l.max_col(), r.max_col())
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => max_opt(l.max_col(), r.max_col()),
            ScalarExpr::Not(e) | ScalarExpr::IsNull(e) => e.max_col(),
        }
    }

    /// Infer the result type given the input column types. Unknown cases
    /// (e.g. a bare `null` constant) default to `Int`; derived relation
    /// schemas are documentation, and values are validated only when they
    /// enter a *base* relation.
    pub fn infer_type(&self, cols: &[ValueType]) -> ValueType {
        match self {
            ScalarExpr::Const(v) => v.value_type().unwrap_or(ValueType::Int),
            // The value of a placeholder is unknown until bind time; like a
            // bare `null` constant it defaults to `Int` — derived schemas
            // are documentation, base-relation validation is authoritative.
            ScalarExpr::Param(_) => ValueType::Int,
            ScalarExpr::Col(i) => cols.get(*i).copied().unwrap_or(ValueType::Int),
            ScalarExpr::Arith(_, l, r) => {
                if l.infer_type(cols) == ValueType::Double
                    || r.infer_type(cols) == ValueType::Double
                {
                    ValueType::Double
                } else {
                    ValueType::Int
                }
            }
            ScalarExpr::Cmp(..)
            | ScalarExpr::And(..)
            | ScalarExpr::Or(..)
            | ScalarExpr::Not(..)
            | ScalarExpr::IsNull(..) => ValueType::Bool,
            ScalarExpr::Agg(f, _, _) => match f {
                AggFunc::Avg => ValueType::Double,
                // SUM/MIN/MAX inherit the column type; without resolving the
                // subexpression schema here we default to Int, which the
                // evaluator corrects at runtime.
                _ => ValueType::Int,
            },
            ScalarExpr::Cnt(_) => ValueType::Int,
        }
    }

    /// Substitute column references by expressions: `Col(i)` becomes
    /// `row[i].clone()` for `i < row.len()`; higher offsets are left
    /// untouched (they refer past the substituted prefix, e.g. into the
    /// right side of a concatenated join tuple). Aggregate subexpressions
    /// are closed over their own relation and are not entered, mirroring
    /// [`ScalarExpr::shift_cols`]. This is the weakest-precondition step of
    /// check specialization: pushing a known inserted row through a
    /// violation predicate yields the condition the *parameters* must
    /// satisfy, with no relation access left.
    pub fn substitute_cols(&self, row: &[ScalarExpr]) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => match row.get(*i) {
                Some(e) => e.clone(),
                None => ScalarExpr::Col(*i),
            },
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => self.clone(),
            ScalarExpr::Arith(op, l, r) => {
                ScalarExpr::arith(*op, l.substitute_cols(row), r.substitute_cols(row))
            }
            ScalarExpr::Cmp(op, l, r) => {
                ScalarExpr::cmp(*op, l.substitute_cols(row), r.substitute_cols(row))
            }
            ScalarExpr::And(l, r) => {
                ScalarExpr::and(l.substitute_cols(row), r.substitute_cols(row))
            }
            ScalarExpr::Or(l, r) => ScalarExpr::or(l.substitute_cols(row), r.substitute_cols(row)),
            ScalarExpr::Not(e) => ScalarExpr::not(e.substitute_cols(row)),
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.substitute_cols(row))),
            ScalarExpr::Agg(..) | ScalarExpr::Cnt(..) => self.clone(),
        }
    }

    /// Decide the expression's constant truth value under the evaluator's
    /// exact semantics — left-to-right `∧`/`∨` short-circuiting included —
    /// with placeholder `?i` read as the constant `params[i]`, or `None`
    /// when the value depends on data, an unbound placeholder, or a
    /// possible runtime error. Only a `Some(false)` verdict may drop a
    /// check: it proves the generic evaluation returns `false` *without
    /// erroring*. With an empty binding every placeholder is opaque —
    /// prepare-time specialization's reading; a plan whose rows hold
    /// lifted constants re-decides against the binding at run time.
    pub fn const_verdict(&self, params: &[Value]) -> Option<bool> {
        fn operand<'a>(e: &'a ScalarExpr, params: &'a [Value]) -> Option<&'a Value> {
            match e {
                ScalarExpr::Const(v) => Some(v),
                ScalarExpr::Param(i) => params.get(*i),
                _ => None,
            }
        }
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => match operand(self, params) {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            },
            ScalarExpr::And(l, r) => match l.const_verdict(params) {
                // Left false short-circuits: the right side (errors
                // included) is never evaluated.
                Some(false) => Some(false),
                Some(true) => r.const_verdict(params),
                None => None,
            },
            ScalarExpr::Or(l, r) => match l.const_verdict(params) {
                Some(true) => Some(true),
                Some(false) => r.const_verdict(params),
                None => None,
            },
            ScalarExpr::Not(inner) => inner.const_verdict(params).map(|b| !b),
            ScalarExpr::Cmp(op, l, r) => match (operand(l, params), operand(r, params)) {
                // Comparison of non-null constants is total — no error path.
                (Some(a), Some(b)) if !a.is_null() && !b.is_null() => Some(op.test(a.compare(b))),
                _ => None,
            },
            ScalarExpr::IsNull(inner) => operand(inner, params).map(Value::is_null),
            // Columns, arithmetic (division can error), and aggregates
            // (data-dependent) are undecidable here.
            _ => None,
        }
    }

    /// Whether the expression contains aggregate or counting subterms.
    pub fn has_aggregates(&self) -> bool {
        match self {
            ScalarExpr::Agg(..) | ScalarExpr::Cnt(..) => true,
            ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Col(_) => false,
            ScalarExpr::Arith(_, l, r) | ScalarExpr::Cmp(_, l, r) => {
                l.has_aggregates() || r.has_aggregates()
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                l.has_aggregates() || r.has_aggregates()
            }
            ScalarExpr::Not(e) | ScalarExpr::IsNull(e) => e.has_aggregates(),
        }
    }
}

/// Max of two optional indices (shared by the `max_col`/`max_param`
/// walks here, in `rel_expr`, and in `program`).
pub(crate) fn max_opt(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Param(i) => write!(f, "?{i}"),
            ScalarExpr::Col(i) => write!(f, "#{i}"),
            ScalarExpr::Arith(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::Cmp(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::And(l, r) => write!(f, "({l} and {r})"),
            ScalarExpr::Or(l, r) => write!(f, "({l} or {r})"),
            ScalarExpr::Not(e) => write!(f, "not {e}"),
            ScalarExpr::IsNull(e) => write!(f, "isnull({e})"),
            ScalarExpr::Agg(func, rel, col) => write!(f, "{func}({rel}, {col})"),
            ScalarExpr::Cnt(rel) => write!(f, "CNT({rel})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negate_flip() {
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Ne);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn cmp_test_orderings() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.test(Less));
        assert!(!CmpOp::Lt.test(Equal));
        assert!(CmpOp::Le.test(Equal));
        assert!(CmpOp::Ne.test(Greater));
        assert!(!CmpOp::Ne.test(Equal));
        assert!(CmpOp::Ge.test(Greater));
    }

    #[test]
    fn shift_cols_ignores_aggregates() {
        let e = ScalarExpr::and(
            ScalarExpr::col_eq(0, 2),
            ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::Cnt(Box::new(RelExpr::relation("r"))),
                ScalarExpr::int(0),
            ),
        );
        let shifted = e.shift_cols(3);
        assert_eq!(shifted.max_col(), Some(5));
        // The CNT subterm must be untouched.
        let rendered = shifted.to_string();
        assert!(rendered.contains("CNT(r)"));
        assert!(rendered.contains("#3"));
    }

    #[test]
    fn max_col_and_inference() {
        let e = ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(3), ScalarExpr::double(0.0));
        assert_eq!(e.max_col(), Some(3));
        assert_eq!(
            e.infer_type(&[
                ValueType::Str,
                ValueType::Str,
                ValueType::Str,
                ValueType::Double
            ]),
            ValueType::Bool
        );
        let a = ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(0), ScalarExpr::int(1));
        assert_eq!(a.infer_type(&[ValueType::Int]), ValueType::Int);
        assert_eq!(a.infer_type(&[ValueType::Double]), ValueType::Double);
    }

    #[test]
    fn aggregate_detection() {
        assert!(ScalarExpr::Cnt(Box::new(RelExpr::relation("r"))).has_aggregates());
        assert!(!ScalarExpr::col(0).has_aggregates());
        let nested = ScalarExpr::not(ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::Agg(AggFunc::Sum, Box::new(RelExpr::relation("r")), 0),
            ScalarExpr::int(10),
        ));
        assert!(nested.has_aggregates());
    }

    #[test]
    fn substitute_cols_replaces_prefix_only() {
        // (#0 < 0 and #2 = 1): #0 is in the row prefix, #2 is beyond it.
        let e = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::int(0)),
            ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(2), ScalarExpr::int(1)),
        );
        let row = vec![ScalarExpr::param(3), ScalarExpr::int(7)];
        let s = e.substitute_cols(&row);
        assert_eq!(s.to_string(), "((?3 < 0) and (#2 = 1))");
        // Aggregates are closed: their inner columns are untouched.
        let agg = ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::Cnt(Box::new(RelExpr::relation("r").select(ScalarExpr::col(0)))),
            ScalarExpr::col(0),
        );
        let s = agg.substitute_cols(&row);
        assert!(s.to_string().contains("CNT(select[#0](r))"), "{s}");
        assert!(s.to_string().ends_with("> ?3)"), "{s}");
    }

    #[test]
    fn display_round_trip_shapes() {
        let e = ScalarExpr::and(
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::int(5)),
            ScalarExpr::not(ScalarExpr::IsNull(Box::new(ScalarExpr::col(1)))),
        );
        assert_eq!(e.to_string(), "((#0 < 5) and not isnull(#1))");
    }
}

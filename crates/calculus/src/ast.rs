//! The abstract syntax of CL (Definitions 4.1–4.4).
//!
//! The alphabet of Definition 4.1 maps onto this module as follows:
//!
//! | Paper                                   | Here                       |
//! |-----------------------------------------|----------------------------|
//! | value constants `C`                     | [`tm_relational::Value`]   |
//! | tuple set constants `M` (relations)     | relation names (`String`)  |
//! | tuple variables `V`                     | [`VarName`]                |
//! | tuple functions `FT = {.}`              | [`Term::Attr`]             |
//! | value functions `FV = {+,-,*,/}`        | [`Term::Arith`]            |
//! | aggregate functions `FA`                | [`Term::Agg`]              |
//! | counting functions `FC = {CNT}`         | [`Term::Cnt`]              |
//! | value predicates `PV = {<,≤,=,≠,≥,>}`   | [`Atom::Cmp`]              |
//! | set predicates `PM = {∈}`               | [`Atom::Member`]           |
//! | tuple predicates `PT = {=}`             | [`Atom::TupleEq`]          |
//! | connectives `¬, ∨, ∧, ⇒`                | [`Formula`] variants       |
//! | quantifiers `∃, ∀`                      | [`Formula::Quant`]         |

use std::fmt;

use tm_relational::Value;

/// A tuple variable name (an element of the paper's set `V`).
pub type VarName = String;

/// The value operators `FV`, `PV` and `FA`, shared with the algebra.
pub use tm_relational::ops::{AggFunc, ArithOp, CmpOp};

/// Attribute selector in `x.i` / `x.name` terms. The paper uses 1-based
/// integer positions; the parser also accepts attribute names, which the
/// analysis pass resolves to positions using the schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrSel {
    /// 1-based position, as in the paper (`x.2`).
    Position(usize),
    /// Attribute name (`x.alcohol`), resolved during analysis.
    Name(String),
}

impl fmt::Display for AttrSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrSel::Position(i) => write!(f, "{i}"),
            AttrSel::Name(n) => write!(f, "{n}"),
        }
    }
}

/// Terms (Definition 4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A value constant from `C`.
    Const(Value),
    /// Attribute selection `x.i` (tuple function application).
    Attr {
        /// The tuple variable.
        var: VarName,
        /// Which attribute.
        sel: AttrSel,
    },
    /// Arithmetic function application `t1 ϑ t2`.
    Arith(ArithOp, Box<Term>, Box<Term>),
    /// Aggregate function application `Γ(R, i)` with `R ∈ M` and `i` a
    /// 1-based attribute position (or name, resolved in analysis).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The relation name (tuple set constant).
        rel: String,
        /// Which attribute to aggregate.
        sel: AttrSel,
    },
    /// Counting function application `CNT(R)`.
    Cnt {
        /// The relation name.
        rel: String,
    },
}

impl Term {
    /// Integer constant shorthand.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }

    /// Attribute selection shorthand with a 1-based position.
    pub fn attr(var: impl Into<VarName>, pos: usize) -> Term {
        Term::Attr {
            var: var.into(),
            sel: AttrSel::Position(pos),
        }
    }

    /// Attribute selection shorthand with an attribute name.
    pub fn attr_named(var: impl Into<VarName>, name: impl Into<String>) -> Term {
        Term::Attr {
            var: var.into(),
            sel: AttrSel::Name(name.into()),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Attr { var, sel } => write!(f, "{var}.{sel}"),
            Term::Arith(op, l, r) => write!(f, "({l} {op} {r})"),
            Term::Agg { func, rel, sel } => write!(f, "{func}({rel}, {sel})"),
            Term::Cnt { rel } => write!(f, "CNT({rel})"),
        }
    }
}

/// Atomic formulas (Definition 4.3).
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// Arithmetic comparison `T1 ϑ T2`.
    Cmp(CmpOp, Term, Term),
    /// Set membership `x ∈ R`.
    Member {
        /// The tuple variable.
        var: VarName,
        /// The relation name.
        rel: String,
    },
    /// Tuple value comparison `x = y`.
    TupleEq(VarName, VarName),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
            Atom::Member { var, rel } => write!(f, "{var} in {rel}"),
            Atom::TupleEq(l, r) => write!(f, "{l} == {r}"),
        }
    }
}

/// Quantifiers `Q = {∃, ∀}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// Universal quantification.
    Forall,
    /// Existential quantification.
    Exists,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            match self {
                Quantifier::Forall => "forall",
                Quantifier::Exists => "exists",
            }
        )
    }
}

/// Well-formed formulas (Definition 4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// An atomic formula.
    Atom(Atom),
    /// Negation `¬W`.
    Not(Box<Formula>),
    /// Conjunction `W1 ∧ W2`.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction `W1 ∨ W2`.
    Or(Box<Formula>, Box<Formula>),
    /// Implication `W1 ⇒ W2`.
    Implies(Box<Formula>, Box<Formula>),
    /// Quantification `(Qx)(W)`.
    Quant(Quantifier, VarName, Box<Formula>),
}

impl Formula {
    /// Atom shorthand.
    pub fn atom(a: Atom) -> Formula {
        Formula::Atom(a)
    }

    /// Membership atom shorthand.
    pub fn member(var: impl Into<VarName>, rel: impl Into<String>) -> Formula {
        Formula::Atom(Atom::Member {
            var: var.into(),
            rel: rel.into(),
        })
    }

    /// Negation shorthand.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction shorthand.
    pub fn and(l: Formula, r: Formula) -> Formula {
        Formula::And(Box::new(l), Box::new(r))
    }

    /// Disjunction shorthand.
    pub fn or(l: Formula, r: Formula) -> Formula {
        Formula::Or(Box::new(l), Box::new(r))
    }

    /// Implication shorthand.
    pub fn implies(l: Formula, r: Formula) -> Formula {
        Formula::Implies(Box::new(l), Box::new(r))
    }

    /// Universal quantification shorthand.
    pub fn forall(var: impl Into<VarName>, body: Formula) -> Formula {
        Formula::Quant(Quantifier::Forall, var.into(), Box::new(body))
    }

    /// Existential quantification shorthand.
    pub fn exists(var: impl Into<VarName>, body: Formula) -> Formula {
        Formula::Quant(Quantifier::Exists, var.into(), Box::new(body))
    }

    /// All relation names referenced in the formula (member atoms,
    /// aggregates, counting terms), in first-occurrence order without
    /// duplicates.
    pub fn referenced_relations(&self) -> Vec<String> {
        fn walk_term(t: &Term, out: &mut Vec<String>) {
            match t {
                Term::Agg { rel, .. } | Term::Cnt { rel } => out.push(rel.clone()),
                Term::Arith(_, l, r) => {
                    walk_term(l, out);
                    walk_term(r, out);
                }
                Term::Const(_) | Term::Attr { .. } => {}
            }
        }
        fn walk(fm: &Formula, out: &mut Vec<String>) {
            match fm {
                Formula::Atom(Atom::Member { rel, .. }) => out.push(rel.clone()),
                Formula::Atom(Atom::Cmp(_, l, r)) => {
                    walk_term(l, out);
                    walk_term(r, out);
                }
                Formula::Atom(Atom::TupleEq(..)) => {}
                Formula::Not(f) => walk(f, out),
                Formula::And(l, r) | Formula::Or(l, r) | Formula::Implies(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                Formula::Quant(_, _, f) => walk(f, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|n| seen.insert(n.clone()));
        out
    }

    /// Whether the formula mentions any pre-transaction auxiliary relation
    /// — if so it is a transition constraint (Definition 3.3), otherwise a
    /// state constraint (Definition 3.1).
    pub fn is_transition(&self) -> bool {
        self.referenced_relations()
            .iter()
            .any(|r| tm_relational::auxiliary::is_auxiliary(r))
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(x) => write!(f, "not ({x})"),
            Formula::And(l, r) => write!(f, "({l} and {r})"),
            Formula::Or(l, r) => write!(f, "({l} or {r})"),
            Formula::Implies(l, r) => write!(f, "({l} implies {r})"),
            Formula::Quant(q, v, body) => write!(f, "{q} {v} ({body})"),
        }
    }
}

/// State vs. transition constraints (Definitions 3.1 and 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// Evaluated over a single database state.
    State,
    /// Evaluated over a database transition (references `R@pre`).
    Transition,
}

/// A named integrity constraint: a closed CL formula plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Human-readable constraint name (`I1`, `referential_beer`, …).
    pub name: String,
    /// The defining formula (must be closed).
    pub formula: Formula,
    /// State or transition constraint, derived from the formula.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// Wrap a formula as a named constraint, deriving the kind.
    pub fn new(name: impl Into<String>, formula: Formula) -> Constraint {
        let kind = if formula.is_transition() {
            ConstraintKind::Transition
        } else {
            ConstraintKind::State
        };
        Constraint {
            name: name.into(),
            formula,
            kind,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's domain constraint I1:
    /// `(∀x)(x ∈ beer ⇒ x.alcohol ≥ 0)`.
    fn i1() -> Formula {
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "beer"),
                Formula::Atom(Atom::Cmp(
                    CmpOp::Ge,
                    Term::attr_named("x", "alcohol"),
                    Term::int(0),
                )),
            ),
        )
    }

    /// The paper's referential constraint I2:
    /// `(∀x)(x ∈ beer ⇒ (∃y)(y ∈ brewery ∧ x.brewery = y.name))`.
    fn i2() -> Formula {
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "beer"),
                Formula::exists(
                    "y",
                    Formula::and(
                        Formula::member("y", "brewery"),
                        Formula::Atom(Atom::Cmp(
                            CmpOp::Eq,
                            Term::attr_named("x", "brewery"),
                            Term::attr_named("y", "name"),
                        )),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn referenced_relations_of_paper_examples() {
        assert_eq!(i1().referenced_relations(), vec!["beer"]);
        assert_eq!(i2().referenced_relations(), vec!["beer", "brewery"]);
    }

    #[test]
    fn aggregate_terms_reference_relations() {
        let f = Formula::Atom(Atom::Cmp(
            CmpOp::Le,
            Term::Agg {
                func: AggFunc::Sum,
                rel: "account".into(),
                sel: AttrSel::Position(2),
            },
            Term::Cnt {
                rel: "limitrel".into(),
            },
        ));
        assert_eq!(f.referenced_relations(), vec!["account", "limitrel"]);
    }

    #[test]
    fn constraint_kind_derivation() {
        assert_eq!(Constraint::new("i1", i1()).kind, ConstraintKind::State);
        let transition = Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "beer@pre"),
                Formula::exists("y", Formula::member("y", "beer")),
            ),
        );
        assert_eq!(
            Constraint::new("t1", transition).kind,
            ConstraintKind::Transition
        );
    }

    #[test]
    fn display_round_trip_shape() {
        let s = i1().to_string();
        assert!(s.contains("forall x"));
        assert!(s.contains("x in beer"));
        assert!(s.contains("x.alcohol >= 0"));
    }

    #[test]
    fn cmp_negation_involution() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Ge,
            CmpOp::Gt,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }
}

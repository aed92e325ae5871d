//! Statements, programs (Definition 2.4), and transactions (Definition 2.5).

use std::fmt;

use crate::expr::{max_opt, ScalarExpr};
use crate::rel_expr::RelExpr;

/// One attribute assignment inside an `update` statement: set the attribute
/// at `position` to the value of `value` (evaluated over the *old* tuple).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UpdateAssignment {
    /// Zero-based attribute position being assigned.
    pub position: usize,
    /// New value, computed from the pre-update tuple.
    pub value: ScalarExpr,
}

impl UpdateAssignment {
    /// Convenience constructor.
    pub fn new(position: usize, value: ScalarExpr) -> Self {
        UpdateAssignment { position, value }
    }
}

/// An extended relational algebra statement (Definition 2.4: "assignments,
/// insert, delete, and update statements", plus the `alarm` statement of
/// Definition 5.1 and the explicit `abort` used by aborting rule actions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Statement {
    /// `target := expr` — bind a temporary relation. Temporaries live only
    /// in the intermediate states `D^{t,i}` and are removed by the end
    /// bracket.
    Assign {
        /// Temporary relation name (must not collide with a base relation).
        target: String,
        /// Defining expression.
        expr: RelExpr,
    },
    /// `insert(R, E)` — add the tuples of `E` to base relation `R`.
    Insert {
        /// Target base relation.
        relation: String,
        /// Source expression (same type as `R`).
        source: RelExpr,
    },
    /// `delete(R, E)` — remove the tuples of `E` from base relation `R`.
    Delete {
        /// Target base relation.
        relation: String,
        /// Tuples to remove (same type as `R`).
        source: RelExpr,
    },
    /// `update(R, θ, f)` — replace every tuple of `R` satisfying `pred`
    /// with the tuple obtained by applying the assignments. Per
    /// Definition 4.5, an update is treated as a delete plus an insert for
    /// triggering purposes.
    Update {
        /// Target base relation.
        relation: String,
        /// Which tuples to update.
        pred: ScalarExpr,
        /// The update function `f` as attribute assignments.
        set: Vec<UpdateAssignment>,
    },
    /// `alarm(E)` (Definition 5.1) — abort the enclosing transaction iff
    /// `E` is non-empty; otherwise do nothing.
    Alarm(RelExpr),
    /// Unconditional abort — the paper's default violation response
    /// (`THEN abort` in Example 4.2).
    Abort,
}

impl Statement {
    /// Convenience: `insert` of explicit tuples.
    pub fn insert_tuples(
        relation: impl Into<String>,
        tuples: Vec<tm_relational::Tuple>,
    ) -> Statement {
        Statement::Insert {
            relation: relation.into(),
            source: RelExpr::Literal(tuples),
        }
    }

    /// Convenience: `delete(R, select[pred](R))`.
    pub fn delete_where(relation: impl Into<String>, pred: ScalarExpr) -> Statement {
        let relation = relation.into();
        Statement::Delete {
            source: RelExpr::relation(relation.clone()).select(pred),
            relation,
        }
    }

    /// Convenience: `insert(R, row(?0, …, ?(arity-1)))` — the
    /// parameterized single-row insert of a prepared transaction.
    pub fn insert_params(relation: impl Into<String>, arity: usize) -> Statement {
        Statement::Insert {
            relation: relation.into(),
            source: RelExpr::Singleton(ScalarExpr::params(arity)),
        }
    }

    /// The largest parameter index `?i` referenced by this statement, or
    /// `None` when it is parameter-free.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            Statement::Assign { expr, .. } => expr.max_param(),
            Statement::Insert { source, .. } | Statement::Delete { source, .. } => {
                source.max_param()
            }
            Statement::Update { pred, set, .. } => set
                .iter()
                .fold(pred.max_param(), |m, a| max_opt(m, a.value.max_param())),
            Statement::Alarm(expr) => expr.max_param(),
            Statement::Abort => None,
        }
    }

    /// Substitute every placeholder `?i` with the constant `values[i]`
    /// (see [`ScalarExpr::bind_params`]). Parameter-free statements are
    /// cloned wholesale.
    pub fn bind_params(&self, values: &[tm_relational::Value]) -> Statement {
        if self.max_param().is_none() {
            return self.clone();
        }
        match self {
            Statement::Assign { target, expr } => Statement::Assign {
                target: target.clone(),
                expr: expr.bind_params(values),
            },
            Statement::Insert { relation, source } => Statement::Insert {
                relation: relation.clone(),
                source: source.bind_params(values),
            },
            Statement::Delete { relation, source } => Statement::Delete {
                relation: relation.clone(),
                source: source.bind_params(values),
            },
            Statement::Update {
                relation,
                pred,
                set,
            } => Statement::Update {
                relation: relation.clone(),
                pred: pred.bind_params(values),
                set: set
                    .iter()
                    .map(|a| UpdateAssignment::new(a.position, a.value.bind_params(values)))
                    .collect(),
            },
            Statement::Alarm(expr) => Statement::Alarm(expr.bind_params(values)),
            Statement::Abort => Statement::Abort,
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Assign { target, expr } => write!(f, "{target} := {expr}"),
            Statement::Insert { relation, source } => write!(f, "insert({relation}, {source})"),
            Statement::Delete { relation, source } => write!(f, "delete({relation}, {source})"),
            Statement::Update {
                relation,
                pred,
                set,
            } => {
                write!(f, "update({relation}, {pred}, [")?;
                for (i, a) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "#{} := {}", a.position, a.value)?;
                }
                write!(f, "])")
            }
            Statement::Alarm(expr) => write!(f, "alarm({expr})"),
            Statement::Abort => write!(f, "abort"),
        }
    }
}

/// An extended relational algebra program `P = a1; a2; …; an`
/// (Definition 2.4). `Program::empty()` is the paper's empty program `Pε`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Program {
    statements: Vec<Statement>,
}

impl Program {
    /// The empty program `Pε`.
    pub fn empty() -> Program {
        Program::default()
    }

    /// A program from a statement list.
    pub fn new(statements: Vec<Statement>) -> Program {
        Program { statements }
    }

    /// Whether this is `Pε`.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// The statements in order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The first statement (`head(P)` in Algorithm 5.2), if any.
    pub fn head(&self) -> Option<&Statement> {
        self.statements.first()
    }

    /// The program without its first statement (`tail(P)`).
    pub fn tail(&self) -> Program {
        if self.statements.is_empty() {
            Program::empty()
        } else {
            Program {
                statements: self.statements[1..].to_vec(),
            }
        }
    }

    /// The program concatenation operator `⊕` (Algorithm 5.1).
    pub fn concat(mut self, other: Program) -> Program {
        self.statements.extend(other.statements);
        self
    }

    /// Append a single statement.
    pub fn push(&mut self, stmt: Statement) {
        self.statements.push(stmt);
    }

    /// The transaction bracketing operator `↑`: wrap the program in
    /// transaction brackets (Algorithm 5.1).
    pub fn bracket(self) -> Transaction {
        Transaction { program: self }
    }

    /// The number of parameter slots this program requires: one more than
    /// the largest `?i` referenced, or 0 for a parameter-free program.
    pub fn param_count(&self) -> usize {
        self.statements
            .iter()
            .fold(None, |m, s| max_opt(m, s.max_param()))
            .map_or(0, |m| m + 1)
    }

    /// Substitute every placeholder `?i` with the constant `values[i]`.
    pub fn bind_params(&self, values: &[tm_relational::Value]) -> Program {
        Program {
            statements: self
                .statements
                .iter()
                .map(|s| s.bind_params(values))
                .collect(),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.statements {
            writeln!(f, "{s};")?;
        }
        Ok(())
    }
}

impl FromIterator<Statement> for Program {
    fn from_iter<I: IntoIterator<Item = Statement>>(iter: I) -> Self {
        Program {
            statements: iter.into_iter().collect(),
        }
    }
}

/// A transaction: a program within transaction brackets (Definition 2.5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Transaction {
    program: Program,
}

impl Transaction {
    /// Wrap a program in transaction brackets.
    pub fn new(program: Program) -> Transaction {
        Transaction { program }
    }

    /// The transaction debracketing operator `↓`: strip the brackets and
    /// return the underlying program (Algorithm 5.1).
    pub fn debracket(&self) -> &Program {
        &self.program
    }

    /// Consume the transaction, returning the underlying program.
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Number of statements in the transaction body.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether the transaction body is empty.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// The number of parameter slots this transaction requires (see
    /// [`Program::param_count`]). 0 means the transaction is fully ground
    /// and can execute without a binding.
    pub fn param_count(&self) -> usize {
        self.program.param_count()
    }

    /// Substitute every placeholder `?i` with the constant `values[i]`,
    /// producing the ground transaction a binding denotes. The engine's
    /// prepared-execution path does **not** materialize this — it executes
    /// the template against the binding directly — but the substituted
    /// form is the semantic reference (property-tested in
    /// `tests/prepared_equivalence.rs`) and is useful for inspection.
    pub fn bind_params(&self, values: &[tm_relational::Value]) -> Transaction {
        Transaction {
            program: self.program.bind_params(values),
        }
    }

    /// Lift the constants of a ground *point* transaction into parameters
    /// — the inverse of [`Transaction::bind_params`] up to the literal
    /// form: every one-tuple literal `{(c0, …)}` becomes `row(?i, …)` and
    /// every bare constant cell of a `row(…)` source becomes `?i`,
    /// numbered left to right. Returns the template (its *shape*) and the
    /// lifted values; binding them gives back the transaction with each
    /// one-tuple literal written as a row. `None` unless every statement
    /// is an `insert` or `delete` of a one-tuple literal or a `row(…)`:
    /// set-oriented work and literals of any other size have no point
    /// shape. The transaction must be ground — placeholders it already
    /// holds would collide with the lifted ones.
    pub fn lift_constants(&self) -> Option<(Transaction, Vec<tm_relational::Value>)> {
        debug_assert_eq!(self.param_count(), 0, "lifting needs a ground transaction");
        let stmts = self.program.statements();
        let mut values = Vec::new();
        let mut lift = |v: &tm_relational::Value| {
            values.push(v.clone());
            ScalarExpr::Param(values.len() - 1)
        };
        let mut lifted = Vec::with_capacity(stmts.len());
        for s in stmts {
            let (Statement::Insert { relation, source } | Statement::Delete { relation, source }) =
                s
            else {
                return None;
            };
            let row = match source {
                RelExpr::Literal(t) if t.len() == 1 => {
                    t[0].values().iter().map(&mut lift).collect()
                }
                RelExpr::Singleton(cells) => cells
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Const(v) => lift(v),
                        other => other.clone(),
                    })
                    .collect(),
                _ => return None,
            };
            let (relation, source) = (relation.clone(), RelExpr::Singleton(row));
            lifted.push(match s {
                Statement::Insert { .. } => Statement::Insert { relation, source },
                _ => Statement::Delete { relation, source },
            });
        }
        Some((Program::new(lifted).bracket(), values))
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "begin")?;
        for s in self.program.statements() {
            writeln!(f, "  {s};")?;
        }
        writeln!(f, "end")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::Tuple;

    #[test]
    fn empty_program_is_pe() {
        assert!(Program::empty().is_empty());
        assert_eq!(Program::empty().len(), 0);
        assert!(Program::empty().head().is_none());
        assert!(Program::empty().tail().is_empty());
    }

    #[test]
    fn head_tail_decomposition() {
        let p = Program::new(vec![
            Statement::Abort,
            Statement::Alarm(RelExpr::relation("r")),
        ]);
        assert_eq!(p.head(), Some(&Statement::Abort));
        let t = p.tail();
        assert_eq!(t.len(), 1);
        assert_eq!(t.head(), Some(&Statement::Alarm(RelExpr::relation("r"))));
        assert!(t.tail().is_empty());
    }

    #[test]
    fn concat_is_associative_on_statements() {
        let a = Program::new(vec![Statement::Abort]);
        let b = Program::new(vec![Statement::Alarm(RelExpr::relation("r"))]);
        let c = Program::new(vec![Statement::Abort]);
        let left = a.clone().concat(b.clone()).concat(c.clone());
        let right = a.concat(b.concat(c));
        assert_eq!(left, right);
        assert_eq!(left.len(), 3);
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let p = Program::new(vec![Statement::Abort]);
        assert_eq!(p.clone().concat(Program::empty()), p);
        assert_eq!(Program::empty().concat(p.clone()), p);
    }

    #[test]
    fn bracket_debracket_round_trip() {
        let p = Program::new(vec![Statement::insert_tuples(
            "beer",
            vec![Tuple::of(("a", "b", "c", 1.0_f64))],
        )]);
        let t = p.clone().bracket();
        assert_eq!(t.debracket(), &p);
        assert_eq!(t.into_program(), p);
    }

    #[test]
    fn display_transaction() {
        let t = Program::new(vec![Statement::Abort]).bracket();
        let s = t.to_string();
        assert!(s.starts_with("begin\n"));
        assert!(s.contains("  abort;"));
        assert!(s.ends_with("end\n"));
    }

    #[test]
    fn delete_where_desugars() {
        let s = Statement::delete_where("r", ScalarExpr::col_eq(0, 0));
        match s {
            Statement::Delete { relation, source } => {
                assert_eq!(relation, "r");
                assert!(matches!(source, RelExpr::Select(..)));
            }
            _ => panic!("expected delete"),
        }
    }

    #[test]
    fn param_count_and_bind() {
        use tm_relational::Value;
        let tx = Program::new(vec![Statement::insert_params("r", 2), Statement::Abort]).bracket();
        assert_eq!(tx.param_count(), 2);
        assert_eq!(Transaction::default().param_count(), 0);
        let ground = tx.bind_params(&[Value::Int(4), Value::str("x")]);
        assert_eq!(ground.param_count(), 0);
        assert!(ground.to_string().contains("row(4, \"x\")"));
        // Update assignments count too.
        let s = Statement::Update {
            relation: "r".into(),
            pred: ScalarExpr::cmp(
                crate::expr::CmpOp::Eq,
                ScalarExpr::col(0),
                ScalarExpr::param(1),
            ),
            set: vec![UpdateAssignment::new(1, ScalarExpr::param(4))],
        };
        assert_eq!(s.max_param(), Some(4));
    }

    #[test]
    fn lift_constants_inverts_bind_params_up_to_the_literal_form() {
        use crate::parser::parse_program;
        use tm_relational::Value;
        let tx = |text: &str| parse_program(text).unwrap().bracket();
        let (shape, values) = tx(r#"insert(r, {(1, "a")}); delete(s, row(2, 1 + 1))"#)
            .lift_constants()
            .unwrap();
        assert_eq!(
            shape,
            tx("insert(r, row(?0, ?1)); delete(s, row(?2, 1 + 1))")
        );
        assert_eq!(values, [Value::Int(1), Value::str("a"), Value::Int(2)]);
        assert_eq!(
            shape.bind_params(&values),
            tx(r#"insert(r, row(1, "a")); delete(s, row(2, 1 + 1))"#)
        );
        // Set-oriented work and literals of other sizes have no shape.
        for text in [
            "insert(r, {(1, 2), (3, 4)})",
            "delete(r, select[#0 > 1](r))",
            "insert(r, row(1, 2)); t := r",
        ] {
            assert!(tx(text).lift_constants().is_none(), "{text}");
        }
    }

    #[test]
    fn update_display() {
        let s = Statement::Update {
            relation: "r".into(),
            pred: ScalarExpr::true_(),
            set: vec![UpdateAssignment::new(1, ScalarExpr::int(9))],
        };
        assert_eq!(s.to_string(), "update(r, true, [#1 := 9])");
    }
}

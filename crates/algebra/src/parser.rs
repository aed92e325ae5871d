//! Textual syntax for extended relational algebra programs.
//!
//! The paper writes rule actions as algebra programs, e.g. R2's
//! compensating action (Example 4.2):
//!
//! ```text
//! temp := minus(project[#2](beer), project[#0](brewery));
//! insert(brewery, project[#0, null, null](temp))
//! ```
//!
//! Grammar (statements separated by `;`, trailing `;` allowed):
//!
//! ```text
//! stmt    := IDENT ':=' relexpr
//!          | 'insert' '(' IDENT ',' relexpr ')'
//!          | 'delete' '(' IDENT ',' relexpr ')'
//!          | 'alarm' '(' relexpr ')'
//!          | 'abort'
//! relexpr := IDENT                                  -- relation (incl. R@pre/R@ins/R@del)
//!          | 'select'   '[' scalar ']' '(' relexpr ')'
//!          | 'project'  '[' scalar {',' scalar} ']' '(' relexpr ')'
//!          | 'join'     '[' scalar ']' '(' relexpr ',' relexpr ')'
//!          | 'semijoin' '[' scalar ']' '(' relexpr ',' relexpr ')'
//!          | 'antijoin' '[' scalar ']' '(' relexpr ',' relexpr ')'
//!          | 'union' | 'minus' | 'intersect' | 'times' '(' relexpr ',' relexpr ')'
//!                                                   -- `times` is sugar for `join[true]`
//!          | '{' tuple {',' tuple} '}'              -- literal relation
//!          | '<' scalar {',' scalar} '>'            -- singleton relation
//! scalar  := disjunction of conjunctions of comparisons over terms;
//!            terms: '#N' column refs, '?N' parameter placeholders,
//!            literals, arithmetic, 'cnt(relexpr)',
//!            'sum(relexpr, N)' / 'avg' / 'min' / 'max', 'isnull(scalar)'
//! tuple   := '(' literal {',' literal} ')'
//! ```
//!
//! Parameter placeholders `?0`, `?1`, … may appear wherever a scalar term
//! may; the parameterized single-row insert of a prepared transaction is
//! written `insert(R, row(?0, ?1, …))` (tuple literals inside `{…}` are
//! ground by definition — `row(…)` is the parameterized form).
//!
//! The tokens come from the lexer the algebra shares with CL
//! ([`tm_relational::lex`]).

use std::ops::{Deref, DerefMut};

use tm_relational::lex::{keyword_value, Cursor, SyntaxResult, Tok};
use tm_relational::{Tuple, Value};

use crate::error::Result;
use crate::expr::{AggFunc, ArithOp, ScalarExpr};
use crate::program::{Program, Statement};
use crate::rel_expr::RelExpr;

struct P(Cursor);

impl Deref for P {
    type Target = Cursor;
    fn deref(&self) -> &Cursor {
        &self.0
    }
}

impl DerefMut for P {
    fn deref_mut(&mut self) -> &mut Cursor {
        &mut self.0
    }
}

impl P {
    fn statement(&mut self) -> SyntaxResult<Statement> {
        let name = self.ident("statement keyword or temporary name")?;
        match name.as_str() {
            "abort" => Ok(Statement::Abort),
            "alarm" => {
                self.expect(&Tok::LParen, "`(`")?;
                let e = self.relexpr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Statement::Alarm(e))
            }
            "insert" | "delete" => {
                self.expect(&Tok::LParen, "`(`")?;
                let rel = self.ident("relation name")?;
                self.expect(&Tok::Comma, "`,`")?;
                let e = self.relexpr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(if name == "insert" {
                    Statement::Insert {
                        relation: rel,
                        source: e,
                    }
                } else {
                    Statement::Delete {
                        relation: rel,
                        source: e,
                    }
                })
            }
            _ => {
                self.expect(&Tok::Assign, "`:=` after temporary name")?;
                let e = self.relexpr()?;
                Ok(Statement::Assign {
                    target: name,
                    expr: e,
                })
            }
        }
    }

    fn relexpr(&mut self) -> SyntaxResult<RelExpr> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                // Parenthesized infix set operation, `(left OP right)` —
                // the `Display` rendering of union/minus/intersect.
                // Accepting it makes rendered expressions parse back,
                // which the durability log's textual records rely on;
                // `(a times b)` is kept so records written when the
                // product was an operator of its own still parse.
                self.pos += 1;
                let l = self.relexpr()?;
                let op = match self.peek() {
                    Some(Tok::Ident(op))
                        if matches!(op.as_str(), "union" | "minus" | "intersect" | "times") =>
                    {
                        op.clone()
                    }
                    _ => {
                        return Err(self.error("expected `union`, `minus`, `intersect` or `times`"))
                    }
                };
                self.pos += 1;
                let r = self.relexpr()?;
                self.expect(&Tok::RParen, "`)` closing set operation")?;
                Ok(match op.as_str() {
                    "union" => l.union(r),
                    "minus" => l.difference(r),
                    "intersect" => l.intersect(r),
                    _ => l.join(r, ScalarExpr::true_()),
                })
            }
            Some(Tok::LBrace) => {
                self.pos += 1;
                let mut tuples = Vec::new();
                loop {
                    tuples.push(self.tuple_literal()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RBrace, "`}`")?;
                Ok(RelExpr::Literal(tuples))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "row" => {
                        self.expect(&Tok::LParen, "`(` after row")?;
                        let mut exprs = vec![self.scalar()?];
                        while self.eat(&Tok::Comma) {
                            exprs.push(self.scalar()?);
                        }
                        self.expect(&Tok::RParen, "`)` closing row")?;
                        Ok(RelExpr::Singleton(exprs))
                    }
                    "select" | "project" | "join" | "semijoin" | "antijoin" => {
                        self.expect(&Tok::LBracket, "`[`")?;
                        let mut exprs = vec![self.scalar()?];
                        while self.eat(&Tok::Comma) {
                            exprs.push(self.scalar()?);
                        }
                        self.expect(&Tok::RBracket, "`]`")?;
                        self.expect(&Tok::LParen, "`(`")?;
                        let first = self.relexpr()?;
                        let result = match name.as_str() {
                            "select" => {
                                if exprs.len() != 1 {
                                    return Err(self.error("select takes exactly one predicate"));
                                }
                                RelExpr::Select(Box::new(first), exprs.pop().expect("len 1"))
                            }
                            "project" => RelExpr::Project(Box::new(first), exprs),
                            _ => {
                                self.expect(&Tok::Comma, "`,` between join inputs")?;
                                let second = self.relexpr()?;
                                if exprs.len() != 1 {
                                    return Err(self.error("joins take exactly one predicate"));
                                }
                                let pred = exprs.pop().expect("len 1");
                                match name.as_str() {
                                    "join" => first.join(second, pred),
                                    "semijoin" => first.semi_join(second, pred),
                                    _ => first.anti_join(second, pred),
                                }
                            }
                        };
                        self.expect(&Tok::RParen, "`)`")?;
                        Ok(result)
                    }
                    "union" | "minus" | "intersect" | "times" => {
                        self.expect(&Tok::LParen, "`(`")?;
                        let l = self.relexpr()?;
                        self.expect(&Tok::Comma, "`,`")?;
                        let r = self.relexpr()?;
                        self.expect(&Tok::RParen, "`)`")?;
                        Ok(match name.as_str() {
                            "union" => l.union(r),
                            "minus" => l.difference(r),
                            "intersect" => l.intersect(r),
                            _ => l.join(r, ScalarExpr::true_()),
                        })
                    }
                    _ => Ok(RelExpr::Rel(name)),
                }
            }
            _ => Err(self.error("expected relational expression")),
        }
    }

    fn tuple_literal(&mut self) -> SyntaxResult<Tuple> {
        self.expect(&Tok::LParen, "`(` opening tuple")?;
        let mut values = vec![self.value_literal()?];
        while self.eat(&Tok::Comma) {
            values.push(self.value_literal()?);
        }
        self.expect(&Tok::RParen, "`)` closing tuple")?;
        Ok(Tuple::from_values(values))
    }

    fn value_literal(&mut self) -> SyntaxResult<Value> {
        let negative = self.eat(&Tok::Arith(ArithOp::Sub));
        let value = match self.peek() {
            Some(Tok::Int(v)) => Value::Int(if negative { -v } else { *v }),
            Some(Tok::Double(v)) => Value::double(if negative { -v } else { *v }),
            Some(Tok::Str(s)) if !negative => Value::Str(s.clone()),
            Some(Tok::Ident(k)) if !negative => {
                keyword_value(k).ok_or_else(|| self.error(format!("unexpected `{k}` in tuple")))?
            }
            _ => return Err(self.error("expected literal value")),
        };
        self.pos += 1;
        Ok(value)
    }

    // scalar := or_expr
    fn scalar(&mut self) -> SyntaxResult<ScalarExpr> {
        let mut e = self.scalar_and()?;
        while self.eat_kw("or") {
            let r = self.scalar_and()?;
            e = ScalarExpr::or(e, r);
        }
        Ok(e)
    }

    fn scalar_and(&mut self) -> SyntaxResult<ScalarExpr> {
        let mut e = self.scalar_not()?;
        while self.eat_kw("and") {
            let r = self.scalar_not()?;
            e = ScalarExpr::and(e, r);
        }
        Ok(e)
    }

    fn scalar_not(&mut self) -> SyntaxResult<ScalarExpr> {
        if self.eat_kw("not") {
            return Ok(ScalarExpr::not(self.scalar_not()?));
        }
        self.scalar_cmp()
    }

    fn scalar_cmp(&mut self) -> SyntaxResult<ScalarExpr> {
        let l = self.scalar_term()?;
        let Some(&Tok::Cmp(op)) = self.peek() else {
            return Ok(l);
        };
        self.pos += 1;
        Ok(ScalarExpr::cmp(op, l, self.scalar_term()?))
    }

    fn scalar_term(&mut self) -> SyntaxResult<ScalarExpr> {
        let mut e = self.scalar_factor()?;
        while let Some(op) = self.eat_arith([ArithOp::Add, ArithOp::Sub]) {
            e = ScalarExpr::arith(op, e, self.scalar_factor()?);
        }
        Ok(e)
    }

    fn scalar_factor(&mut self) -> SyntaxResult<ScalarExpr> {
        let mut e = self.scalar_primary()?;
        while let Some(op) = self.eat_arith([ArithOp::Mul, ArithOp::Div]) {
            e = ScalarExpr::arith(op, e, self.scalar_primary()?);
        }
        Ok(e)
    }

    fn scalar_primary(&mut self) -> SyntaxResult<ScalarExpr> {
        match self.peek().cloned() {
            Some(Tok::Col(n)) => {
                self.pos += 1;
                Ok(ScalarExpr::Col(n))
            }
            Some(Tok::Param(n)) => {
                self.pos += 1;
                Ok(ScalarExpr::Param(n))
            }
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(ScalarExpr::int(v))
            }
            Some(Tok::Double(v)) => {
                self.pos += 1;
                Ok(ScalarExpr::double(v))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(ScalarExpr::str(s))
            }
            Some(Tok::Arith(ArithOp::Sub)) => {
                self.pos += 1;
                let e = self.scalar_primary()?;
                Ok(match e {
                    ScalarExpr::Const(Value::Int(v)) => ScalarExpr::int(-v),
                    ScalarExpr::Const(Value::Double(v)) => ScalarExpr::double(-v),
                    other => ScalarExpr::arith(ArithOp::Sub, ScalarExpr::int(0), other),
                })
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.scalar()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                // Aggregate keywords are case-insensitive: the paper writes
                // `CNT`, rule actions commonly use lowercase.
                let lower = name.to_ascii_lowercase();
                if let Some(v) = keyword_value(&lower) {
                    return Ok(ScalarExpr::Const(v));
                }
                match lower.as_str() {
                    "isnull" => {
                        self.expect(&Tok::LParen, "`(`")?;
                        let e = self.scalar()?;
                        self.expect(&Tok::RParen, "`)`")?;
                        Ok(ScalarExpr::IsNull(Box::new(e)))
                    }
                    "cnt" => {
                        self.expect(&Tok::LParen, "`(`")?;
                        let e = self.relexpr()?;
                        self.expect(&Tok::RParen, "`)`")?;
                        Ok(ScalarExpr::Cnt(Box::new(e)))
                    }
                    other => {
                        let Some(func) = AggFunc::from_name(&name.to_ascii_uppercase()) else {
                            return Err(self.error(format!(
                                "unexpected identifier `{other}` in scalar expression"
                            )));
                        };
                        self.expect(&Tok::LParen, "`(`")?;
                        let e = self.relexpr()?;
                        self.expect(&Tok::Comma, "`,`")?;
                        let col = match self.peek() {
                            Some(Tok::Int(i)) if *i >= 0 => *i as usize,
                            _ => return Err(self.error("expected 0-based column index")),
                        };
                        self.pos += 1;
                        self.expect(&Tok::RParen, "`)`")?;
                        Ok(ScalarExpr::Agg(func, Box::new(e), col))
                    }
                }
            }
            _ => Err(self.error("expected scalar expression")),
        }
    }
}

/// Parse a program: statements separated by `;` (trailing `;` allowed).
pub fn parse_program(src: &str) -> Result<Program> {
    let mut p = P(Cursor::new(src)?);
    let mut stmts = Vec::new();
    loop {
        // Allow trailing separators / empty programs.
        while p.eat(&Tok::Semi) {}
        if p.at_end() {
            break;
        }
        stmts.push(p.statement()?);
        if !p.at_end() {
            p.expect(&Tok::Semi, "`;` between statements")?;
        }
    }
    Ok(Program::new(stmts))
}

/// Parse a single relational expression.
pub fn parse_relexpr(src: &str) -> Result<RelExpr> {
    let mut p = P(Cursor::new(src)?);
    let e = p.relexpr()?;
    if !p.at_end() {
        return Err(p.error("trailing input after expression").into());
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_r2_action() {
        let p = parse_program(
            "temp := minus(project[#2](beer), project[#0](brewery));\
             insert(brewery, project[#0, null, null](temp))",
        )
        .unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.statements()[0], Statement::Assign { .. }));
        assert!(matches!(p.statements()[1], Statement::Insert { .. }));
    }

    #[test]
    fn parses_abort_and_alarm() {
        let p = parse_program("alarm(select[#3 < 0](beer)); abort;").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.statements()[0], Statement::Alarm(_)));
        assert!(matches!(p.statements()[1], Statement::Abort));
    }

    #[test]
    fn parses_literals_and_singletons() {
        let e = parse_relexpr("{(1, 'x'), (2, 'y')}").unwrap();
        assert!(matches!(e, RelExpr::Literal(ref t) if t.len() == 2));
        let e = parse_relexpr("row(cnt(beer), 5)").unwrap();
        assert!(matches!(e, RelExpr::Singleton(ref v) if v.len() == 2));
    }

    #[test]
    fn parses_joins() {
        let e = parse_relexpr("antijoin[#2 = #4](beer, brewery)").unwrap();
        assert!(matches!(e, RelExpr::AntiJoin(..)));
        let e = parse_relexpr("semijoin[#0 = #1](r, s)").unwrap();
        assert!(matches!(e, RelExpr::SemiJoin(..)));
        let e = parse_relexpr("join[#0 = #1 and #0 > 2](r, s)").unwrap();
        assert!(matches!(e, RelExpr::Join(..)));
    }

    #[test]
    fn parses_set_ops_and_nesting() {
        let e = parse_relexpr("union(minus(a, b), intersect(c, times(d, e)))").unwrap();
        assert_eq!(e.referenced_relations(), vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn times_is_sugar_for_join_true() {
        let join_true = RelExpr::relation("d").join(RelExpr::relation("e"), ScalarExpr::true_());
        assert_eq!(parse_relexpr("times(d, e)").unwrap(), join_true);
        assert_eq!(parse_relexpr("(d times e)").unwrap(), join_true);
        assert_eq!(join_true.to_string(), "join[true](d, e)");
    }

    #[test]
    fn parses_aggregate_scalars() {
        let e = parse_relexpr("select[sum(r, 1) >= 10 or avg(r, 0) < 2.5](s)").unwrap();
        assert!(matches!(e, RelExpr::Select(..)));
    }

    #[test]
    fn parses_aux_names() {
        let e = parse_relexpr("minus(beer@ins, beer@del)").unwrap();
        assert_eq!(e.referenced_relations(), vec!["beer@ins", "beer@del"]);
    }

    #[test]
    fn parses_parameter_placeholders() {
        let p = parse_program("insert(account, row(?0, ?1))").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.param_count(), 2);
        match &p.statements()[0] {
            Statement::Insert { source, .. } => {
                assert_eq!(
                    source,
                    &RelExpr::Singleton(vec![ScalarExpr::Param(0), ScalarExpr::Param(1)])
                );
            }
            other => panic!("expected insert, got {other:?}"),
        }
        // Placeholders work anywhere a scalar term does.
        let e = parse_relexpr("select[#1 < ?0 and #0 = ?1](r)").unwrap();
        assert_eq!(e.max_param(), Some(1));
        // A bare `?` is rejected.
        assert!(parse_relexpr("select[#0 = ?](r)").is_err());
    }

    #[test]
    fn round_trips_display() {
        // Display forms of parsed expressions re-parse to the same AST.
        for src in [
            "select[(#3 < 0)](beer)",
            "antijoin[(#2 = #4)](beer, brewery)",
            "project[#0, #1](join[(#0 = #2)](r, s))",
            "row(CNT(r), 1)",
            "row(?0, ?1)",
            "select[(#0 = ?2)](r)",
        ] {
            let e = parse_relexpr(src).unwrap();
            let printed = e.to_string();
            let reparsed = parse_relexpr(&printed);
            assert_eq!(reparsed.unwrap(), e, "round trip failed for {src}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("insert(beer)").is_err());
        assert!(parse_program("select[#0](r)").is_err()); // bare expr is not a statement
        assert!(parse_relexpr("select[#0 <](r)").is_err());
        assert!(parse_relexpr("r extra").is_err());
        assert!(parse_program("x := {(1,) }").is_err());
    }

    #[test]
    fn empty_program_is_pe() {
        assert!(parse_program("").unwrap().is_empty());
        assert!(parse_program(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn negative_values_in_tuples() {
        let e = parse_relexpr("{(-1, -2.5)}").unwrap();
        match e {
            RelExpr::Literal(ts) => {
                assert_eq!(ts[0], Tuple::of((-1, -2.5_f64)));
            }
            other => panic!("expected literal, got {other:?}"),
        }
    }
}

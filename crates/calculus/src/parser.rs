//! Recursive-descent parser for the ASCII rendering of CL, over the lexer
//! CL shares with the algebra ([`tm_relational::lex`]).
//!
//! The concrete syntax mirrors the paper's notation:
//!
//! ```text
//! I1:  forall x (x in beer implies x.alcohol >= 0)
//! I2:  forall x (x in beer implies
//!        exists y (y in brewery and x.brewery = y.name))
//! agg: SUM(account, 2) <= 1000000
//! cnt: CNT(beer) < 100
//! ```
//!
//! * quantifiers: `forall x (...)`, `exists y (...)`; several variables may
//!   be listed (`forall x, y (...)` ≡ nested quantifiers),
//! * connectives: `not`, `and`, `or`, `implies` (also `->`),
//! * membership: `x in beer`; pre-state: `x in beer@pre`,
//! * attribute selection: by 1-based position (`x.2`, the paper's syntax)
//!   or by name (`x.alcohol`),
//! * tuple equality: `x == y` between bare variables,
//! * aggregates: `SUM(rel, attr)`, `AVG`, `MIN`, `MAX`, and `CNT(rel)`.

use std::ops::{Deref, DerefMut};

use tm_relational::lex::{keyword_value, Cursor, SyntaxResult, Tok};
use tm_relational::Value;

use crate::ast::{AggFunc, ArithOp, Atom, AttrSel, CmpOp, Formula, Quantifier, Term};
use crate::error::{CalculusError, Result};

struct Parser(Cursor);

impl Deref for Parser {
    type Target = Cursor;
    fn deref(&self) -> &Cursor {
        &self.0
    }
}

impl DerefMut for Parser {
    fn deref_mut(&mut self) -> &mut Cursor {
        &mut self.0
    }
}

impl Parser {
    // formula := implication (quantifiers are primaries with narrow scope,
    // matching the paper's `(Qx)(W)` notation)
    fn formula(&mut self) -> SyntaxResult<Formula> {
        self.implication()
    }

    fn quantified(&mut self) -> SyntaxResult<Formula> {
        for (kw, q) in [
            ("forall", Quantifier::Forall),
            ("exists", Quantifier::Exists),
        ] {
            if self.is_kw(kw) {
                self.pos += 1;
                let mut vars = vec![self.ident("tuple variable")?];
                while self.eat(&Tok::Comma) {
                    vars.push(self.ident("tuple variable")?);
                }
                self.expect(&Tok::LParen, "`(` after quantifier")?;
                let body = self.formula()?;
                self.expect(&Tok::RParen, "`)` closing quantifier body")?;
                let mut f = body;
                for v in vars.into_iter().rev() {
                    f = Formula::Quant(q, v, Box::new(f));
                }
                return Ok(f);
            }
        }
        self.implication()
    }

    fn implication(&mut self) -> SyntaxResult<Formula> {
        let lhs = self.disjunction()?;
        if self.eat_kw("implies") || self.eat(&Tok::Arrow) {
            let rhs = self.implication()?; // right-associative
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn disjunction(&mut self) -> SyntaxResult<Formula> {
        let mut f = self.conjunction()?;
        while self.eat_kw("or") {
            let r = self.conjunction()?;
            f = Formula::or(f, r);
        }
        Ok(f)
    }

    fn conjunction(&mut self) -> SyntaxResult<Formula> {
        let mut f = self.unary()?;
        while self.eat_kw("and") {
            let r = self.unary()?;
            f = Formula::and(f, r);
        }
        Ok(f)
    }

    fn unary(&mut self) -> SyntaxResult<Formula> {
        if self.eat_kw("not") {
            return Ok(Formula::not(self.unary()?));
        }
        if self.is_kw("forall") || self.is_kw("exists") {
            return self.quantified();
        }
        if self.peek() == Some(&Tok::LParen) {
            // Could be a parenthesized formula or a parenthesized term in a
            // comparison; backtrack on failure.
            let save = self.pos;
            self.pos += 1;
            if let Ok(f) = self.formula() {
                if self.eat(&Tok::RParen) {
                    // `(f)` followed by a comparison operator would mean we
                    // mis-parsed a term; only accept when no term operator
                    // follows.
                    if !matches!(
                        self.peek(),
                        Some(Tok::Cmp(_) | Tok::LtGt | Tok::EqEq | Tok::Arith(_))
                    ) {
                        return Ok(f);
                    }
                }
            }
            self.pos = save;
        }
        self.atom()
    }

    fn atom(&mut self) -> SyntaxResult<Formula> {
        // `x in R`, `x == y`, or a term comparison.
        if let Some(Tok::Ident(name)) = self.peek().cloned() {
            if AggFunc::from_name(&name).is_none() && name != "CNT" {
                // Lookahead on the token after the identifier.
                match self.peek_at(1) {
                    Some(Tok::Ident(kw)) if kw == "in" => {
                        self.pos += 2;
                        let rel = self.ident("relation name")?;
                        return Ok(Formula::Atom(Atom::Member { var: name, rel }));
                    }
                    Some(Tok::EqEq) => {
                        self.pos += 2;
                        let rhs = self.ident("tuple variable")?;
                        return Ok(Formula::Atom(Atom::TupleEq(name, rhs)));
                    }
                    _ => {}
                }
            }
        }
        let lhs = self.term()?;
        let op = match self.peek() {
            Some(Tok::Cmp(op)) => *op,
            Some(Tok::LtGt) => CmpOp::Ne,
            _ => return Err(self.error("expected comparison operator")),
        };
        self.pos += 1;
        let rhs = self.term()?;
        Ok(Formula::Atom(Atom::Cmp(op, lhs, rhs)))
    }

    fn term(&mut self) -> SyntaxResult<Term> {
        let mut t = self.muldiv()?;
        while let Some(op) = self.eat_arith([ArithOp::Add, ArithOp::Sub]) {
            t = Term::Arith(op, Box::new(t), Box::new(self.muldiv()?));
        }
        Ok(t)
    }

    fn muldiv(&mut self) -> SyntaxResult<Term> {
        let mut t = self.primary_term()?;
        while let Some(op) = self.eat_arith([ArithOp::Mul, ArithOp::Div]) {
            t = Term::Arith(op, Box::new(t), Box::new(self.primary_term()?));
        }
        Ok(t)
    }

    fn attr_sel(&mut self) -> SyntaxResult<AttrSel> {
        match self.bump() {
            Some(Tok::Int(i)) if i >= 1 => Ok(AttrSel::Position(i as usize)),
            Some(Tok::Int(i)) => {
                Err(self.error(format!("attribute positions are 1-based; got {i}")))
            }
            Some(Tok::Ident(n)) => Ok(AttrSel::Name(n)),
            _ => Err(self.error("expected attribute position or name")),
        }
    }

    fn primary_term(&mut self) -> SyntaxResult<Term> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Term::Const(Value::Int(v)))
            }
            Some(Tok::Double(v)) => {
                self.pos += 1;
                Ok(Term::Const(Value::double(v)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Term::Const(Value::Str(s)))
            }
            Some(Tok::Arith(ArithOp::Sub)) => {
                self.pos += 1;
                match self.primary_term()? {
                    Term::Const(Value::Int(v)) => Ok(Term::Const(Value::Int(-v))),
                    Term::Const(Value::Double(v)) => Ok(Term::Const(Value::double(-v))),
                    other => Ok(Term::Arith(
                        ArithOp::Sub,
                        Box::new(Term::int(0)),
                        Box::new(other),
                    )),
                }
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let t = self.term()?;
                self.expect(&Tok::RParen, "`)` closing term")?;
                Ok(t)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if let Some(v) = keyword_value(&name) {
                    return Ok(Term::Const(v));
                }
                if name == "CNT" {
                    self.expect(&Tok::LParen, "`(` after CNT")?;
                    let rel = self.ident("relation name")?;
                    self.expect(&Tok::RParen, "`)` after CNT argument")?;
                    return Ok(Term::Cnt { rel });
                }
                if let Some(func) = AggFunc::from_name(&name) {
                    self.expect(&Tok::LParen, "`(` after aggregate")?;
                    let rel = self.ident("relation name")?;
                    self.expect(&Tok::Comma, "`,` between relation and attribute")?;
                    let sel = self.attr_sel()?;
                    self.expect(&Tok::RParen, "`)` after aggregate arguments")?;
                    return Ok(Term::Agg { func, rel, sel });
                }
                // Attribute selection `x.i` / `x.name`.
                self.expect(&Tok::Dot, "`.` after tuple variable")?;
                let sel = self.attr_sel()?;
                Ok(Term::Attr { var: name, sel })
            }
            _ => Err(self.error("expected a term")),
        }
    }
}

/// Parse a CL formula from its ASCII rendering.
pub fn parse_formula(src: &str) -> Result<Formula> {
    let mut p = Parser(Cursor::new(src)?);
    let f = p.formula()?;
    if !p.at_end() {
        return Err(CalculusError::from(p.error("trailing input after formula")));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula as F;

    #[test]
    fn parses_paper_i1() {
        let f = parse_formula("forall x (x in beer implies x.alcohol >= 0)").unwrap();
        match &f {
            F::Quant(Quantifier::Forall, v, body) => {
                assert_eq!(v, "x");
                match body.as_ref() {
                    F::Implies(l, r) => {
                        assert_eq!(l.as_ref(), &Formula::member("x", "beer"));
                        assert_eq!(
                            r.as_ref(),
                            &F::Atom(Atom::Cmp(
                                CmpOp::Ge,
                                Term::attr_named("x", "alcohol"),
                                Term::int(0)
                            ))
                        );
                    }
                    other => panic!("expected implication, got {other:?}"),
                }
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_i2() {
        let f = parse_formula(
            "forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name))",
        )
        .unwrap();
        assert_eq!(f.referenced_relations(), vec!["beer", "brewery"]);
        assert!(f.to_string().contains("exists y"));
    }

    #[test]
    fn positional_attributes() {
        let f = parse_formula("forall x (x in r implies x.1 < x.2)").unwrap();
        let s = f.to_string();
        assert!(s.contains("x.1 < x.2"));
    }

    #[test]
    fn multi_variable_quantifier_desugars() {
        let f = parse_formula("forall x, y (x in r and y in s implies x.1 = y.1)").unwrap();
        match f {
            F::Quant(Quantifier::Forall, v1, inner) => {
                assert_eq!(v1, "x");
                assert!(matches!(*inner, F::Quant(Quantifier::Forall, ref v2, _) if v2 == "y"));
            }
            other => panic!("expected nested foralls, got {other:?}"),
        }
    }

    #[test]
    fn aggregates_and_counts() {
        let f = parse_formula("SUM(account, 2) <= 1000000").unwrap();
        assert_eq!(
            f,
            F::Atom(Atom::Cmp(
                CmpOp::Le,
                Term::Agg {
                    func: AggFunc::Sum,
                    rel: "account".into(),
                    sel: AttrSel::Position(2)
                },
                Term::int(1000000)
            ))
        );
        let f = parse_formula("CNT(beer) < 100").unwrap();
        assert!(matches!(
            f,
            F::Atom(Atom::Cmp(CmpOp::Lt, Term::Cnt { .. }, _))
        ));
        let f = parse_formula("AVG(beer, alcohol) <= 7.5").unwrap();
        assert!(f.to_string().contains("AVG(beer, alcohol)"));
    }

    #[test]
    fn tuple_equality() {
        let f = parse_formula("forall x (exists y (x == y))").unwrap();
        assert!(f.to_string().contains("x == y"));
    }

    #[test]
    fn aux_relation_names() {
        let f = parse_formula("forall x (x in beer@pre implies x.alcohol >= 0)").unwrap();
        assert_eq!(f.referenced_relations(), vec!["beer@pre"]);
        assert!(f.is_transition());
    }

    #[test]
    fn operator_precedence() {
        // implies binds weakest, and binds tighter than or.
        let f = parse_formula("1 = 1 or 2 = 2 and 3 = 3 implies 4 = 4").unwrap();
        match f {
            F::Implies(l, _) => match *l {
                F::Or(_, r) => assert!(matches!(*r, F::And(..))),
                other => panic!("expected or at top of lhs, got {other:?}"),
            },
            other => panic!("expected implies at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let f = parse_formula("x.1 + x.2 * 2 = 7").map_err(|e| e.to_string());
        let f = f.unwrap();
        match f {
            F::Atom(Atom::Cmp(_, lhs, _)) => match lhs {
                Term::Arith(ArithOp::Add, _, r) => {
                    assert!(matches!(*r, Term::Arith(ArithOp::Mul, _, _)));
                }
                other => panic!("expected +, got {other:?}"),
            },
            other => panic!("expected cmp, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_terms_in_comparisons() {
        let f = parse_formula("(x.1 + 1) * 2 > 10");
        assert!(f.is_ok(), "{f:?}");
    }

    #[test]
    fn string_and_null_literals() {
        let f = parse_formula("forall x (x in beer implies x.type != 'stout')").unwrap();
        assert!(f.to_string().contains("\"stout\""));
        let f = parse_formula("forall x (x in beer implies x.brewery != null)").unwrap();
        assert!(f.to_string().contains("null"));
    }

    #[test]
    fn negative_literals() {
        let f = parse_formula("forall x (x in r implies x.1 > -5)").unwrap();
        assert!(f.to_string().contains("-5"));
        let f = parse_formula("forall x (x in r implies x.1 > -5.5)").unwrap();
        assert!(f.to_string().contains("-5.5"));
    }

    #[test]
    fn arrow_synonym_for_implies() {
        let a = parse_formula("forall x (x in r -> x.1 > 0)").unwrap();
        let b = parse_formula("forall x (x in r implies x.1 > 0)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn not_parses() {
        let f = parse_formula("not exists x (x in beer and x.alcohol < 0)").unwrap();
        assert!(matches!(f, F::Not(_)));
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_formula("forall x x in beer)").unwrap_err();
        assert!(matches!(e, CalculusError::Parse { .. }));
        let e = parse_formula("forall x (x in beer implies x.alcohol >= )").unwrap_err();
        assert!(matches!(e, CalculusError::Parse { .. }));
        let e = parse_formula("1 = 1 %").unwrap_err();
        assert!(matches!(e, CalculusError::Lex { .. }));
    }

    #[test]
    fn trailing_input_rejected() {
        let e = parse_formula("1 = 1 2 = 2").unwrap_err();
        assert!(matches!(e, CalculusError::Parse { .. }));
    }

    #[test]
    fn zero_position_rejected() {
        let e = parse_formula("forall x (x in r implies x.0 > 1)").unwrap_err();
        assert!(e.to_string().contains("1-based"));
    }
}

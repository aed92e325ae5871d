//! Property test: the CL pretty-printer and parser are mutually inverse —
//! `parse(print(f)) == f` for randomly generated well-formed formulas.

use proptest::prelude::*;

use tm_calculus::ast::{AggFunc, Atom, AttrSel, CmpOp, Formula, Quantifier, Term};
use tm_calculus::parse_formula;
use tm_relational::Value;

fn leaf_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (-20..20i64).prop_map(|v| Term::Const(Value::Int(v))),
        "[a-z]{1,4}".prop_map(|s| Term::Const(Value::Str(s))),
        ("[xyz]", 1usize..4).prop_map(|(v, p)| Term::Attr {
            var: v,
            sel: AttrSel::Position(p)
        }),
        ("[rs]", 1usize..3).prop_map(|(rel, p)| Term::Agg {
            func: AggFunc::Sum,
            rel,
            sel: AttrSel::Position(p)
        }),
        "[rs]".prop_map(|rel| Term::Cnt { rel }),
    ]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
    ]
}

fn atom() -> impl Strategy<Value = Formula> {
    prop_oneof![
        (cmp_op(), leaf_term(), leaf_term())
            .prop_map(|(op, l, r)| Formula::Atom(Atom::Cmp(op, l, r))),
        ("[xyz]", "[rs]").prop_map(|(var, rel)| Formula::Atom(Atom::Member { var, rel })),
        ("[xy]", "[yz]").prop_map(|(a, b)| Formula::Atom(Atom::TupleEq(a, b))),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    atom().prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            ("[xyz]", inner.clone()).prop_map(|(v, f)| Formula::Quant(
                Quantifier::Forall,
                v,
                Box::new(f)
            )),
            ("[xyz]", inner).prop_map(|(v, f)| Formula::Quant(Quantifier::Exists, v, Box::new(f))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_round_trip(f in formula()) {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        prop_assert_eq!(reparsed, f, "round trip failed for `{}`", printed);
    }
}

#[test]
fn paper_examples_round_trip() {
    for src in [
        "forall x (x in beer implies x.alcohol >= 0)",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        "SUM(account, 2) <= 1000000",
        "not exists x (x in beer and x.alcohol < 0)",
        "forall x (x in beer@pre implies exists y (y in beer and x == y))",
    ] {
        let f = parse_formula(src).unwrap();
        let reparsed = parse_formula(&f.to_string()).unwrap();
        assert_eq!(f, reparsed, "round trip failed for `{src}`");
    }
}

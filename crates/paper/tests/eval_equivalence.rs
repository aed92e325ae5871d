//! Property test: the indexed quantifier fast path of the default
//! evaluator agrees with the naive nested-loop recursion on randomized
//! referential-, exclusion- and pair-denial-shaped constraints over
//! randomized states — including `Null` key values and empty relations on
//! either side.

use proptest::prelude::*;

use tm_calculus::analyze;
use tm_calculus::ast::{Atom, CmpOp, Formula, Term};
use tm_paper::oracle::{eval_constraint, eval_constraint_naive, StateSource};
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};

type Cell = Option<i64>;

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("s", &[("c", ValueType::Int), ("d", ValueType::Int)]),
    ])
    .unwrap()
}

fn db(r: &[(Cell, Cell)], s: &[(Cell, Cell)]) -> Database {
    let value = |c: Cell| c.map_or(Value::Null, Value::Int);
    let mut db = Database::new(schema().into_shared());
    for &(a, b) in r {
        db.insert("r", Tuple::from_values(vec![value(a), value(b)]))
            .unwrap();
    }
    for &(c, d) in s {
        db.insert("s", Tuple::from_values(vec![value(c), value(d)]))
            .unwrap();
    }
    db
}

fn rel_strategy() -> impl Strategy<Value = Vec<(Cell, Cell)>> {
    prop::collection::vec(
        (prop::option::of(-2..4i64), prop::option::of(-2..4i64)),
        0..8,
    )
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

/// Bodies for `exists y (y in s and <key> [and <extra>])` with an
/// equality pinning an attribute of `y` — the indexed shape — optionally
/// combined with extra conditions, constant pins, or shapes the index
/// must *not* mis-handle (no keys, disjunctions).
fn constraint() -> impl Strategy<Value = Formula> {
    // x.i = y.j referential key, both attribute orders.
    let keyed = (1usize..3, 1usize..3, 0usize..2).prop_map(|(i, j, flip)| {
        let (l, r) = if flip == 1 {
            (Term::attr("y", j), Term::attr("x", i))
        } else {
            (Term::attr("x", i), Term::attr("y", j))
        };
        Formula::Atom(Atom::Cmp(CmpOp::Eq, l, r))
    });
    // A secondary comparison on y alone.
    let extra = (cmp_op(), 1usize..3, -1..3i64)
        .prop_map(|(op, j, k)| Formula::Atom(Atom::Cmp(op, Term::attr("y", j), Term::int(k))));
    // Constant pin: y.j = k.
    let const_pin = (1usize..3, -1..3i64)
        .prop_map(|(j, k)| Formula::Atom(Atom::Cmp(CmpOp::Eq, Term::attr("y", j), Term::int(k))));

    let referential = (keyed, prop::option::of(extra)).prop_map(|(key, extra)| {
        let inner = match extra {
            None => key,
            Some(e) => Formula::and(key, e),
        };
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "r"),
                Formula::exists("y", Formula::and(Formula::member("y", "s"), inner)),
            ),
        )
    });
    let negated_existence = const_pin
        .prop_map(|pin| {
            Formula::not(Formula::exists(
                "y",
                Formula::and(Formula::member("y", "s"), pin),
            ))
        })
        .boxed();
    // Disjunctive body: the key sits under `or`, so the index must not
    // engage (skipping would be unsound); both paths must still agree.
    let disjunctive = (1usize..3, 1usize..3).prop_map(|(i, j)| {
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "r"),
                Formula::exists(
                    "y",
                    Formula::and(
                        Formula::member("y", "s"),
                        Formula::or(
                            Formula::Atom(Atom::Cmp(
                                CmpOp::Eq,
                                Term::attr("x", i),
                                Term::attr("y", j),
                            )),
                            Formula::Atom(Atom::Cmp(CmpOp::Lt, Term::attr("y", 1), Term::int(0))),
                        ),
                    ),
                ),
            ),
        )
    });
    // Universal bodies, probed on the equalities a false body implies:
    // `x.i op y.j` (only `!=` pins `y`), optionally conjoined with a
    // condition on `y` alone — a conjunction refutes on either side, so
    // the index must not engage.
    let pair = (cmp_op(), 1usize..3, 1usize..3)
        .prop_map(|(op, i, j)| Formula::Atom(Atom::Cmp(op, Term::attr("x", i), Term::attr("y", j))))
        .boxed();
    let extra = (cmp_op(), 1usize..3, -1..3i64)
        .prop_map(|(op, j, k)| Formula::Atom(Atom::Cmp(op, Term::attr("y", j), Term::int(k))))
        .boxed();
    let exclusion = (pair.clone(), prop::option::of(extra.clone())).prop_map(|(c, extra)| {
        let body = match extra {
            None => c,
            Some(e) => Formula::and(c, e),
        };
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "r"),
                Formula::forall("y", Formula::implies(Formula::member("y", "s"), body)),
            ),
        )
    });
    // Table 1 row 4: an antecedent equality pins `y`.
    let pair_denial = (pair, extra).prop_map(|(c1, c2)| {
        Formula::forall(
            "x",
            Formula::forall(
                "y",
                Formula::implies(
                    Formula::and(
                        Formula::and(Formula::member("x", "r"), Formula::member("y", "s")),
                        c1,
                    ),
                    c2,
                ),
            ),
        )
    });
    prop_oneof![
        referential,
        negated_existence,
        disjunctive,
        exclusion,
        pair_denial
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_and_naive_evaluation_agree(
        r in rel_strategy(),
        s in rel_strategy(),
        f in constraint(),
    ) {
        let db = db(&r, &s);
        let info = analyze(&f, db.schema()).unwrap();
        let fast = eval_constraint(&info, &StateSource(&db));
        let naive = eval_constraint_naive(&info, &StateSource(&db));
        prop_assert_eq!(fast, naive, "constraint: {}", f);
    }
}

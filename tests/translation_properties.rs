//! Property test: for randomly *generated* constraints in the supported
//! class, the translated alarm program agrees with direct semantic
//! evaluation on random database states — the translator's soundness and
//! completeness over its whole input space, not just hand-picked examples.
//! `Engine::check_state`, which evaluates the compiled violation query,
//! is the third comparand: the engine's one constraint evaluator must give
//! the oracle's verdict too.

use proptest::prelude::*;

use tm_algebra::Executor;
use tm_calculus::ast::{Atom, CmpOp, Formula, Term};
use tm_calculus::{analyze, parse_formula};
use tm_paper::oracle::{eval_constraint, StateSource};
use tm_relational::schema::beer_schema;
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, ValueType};
use tm_rules::{IntegrityRule, RuleAction};
use tm_translate::trans_c;
use txmod::{EnforcementMode, Engine, EngineConfig};

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("s", &[("c", ValueType::Int), ("d", ValueType::Int)]),
    ])
    .unwrap()
}

fn db(r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
    let mut db = Database::new(schema().into_shared());
    for &(a, b) in r {
        db.insert("r", Tuple::of((a, b))).unwrap();
    }
    for &(c, d) in s {
        db.insert("s", Tuple::of((c, d))).unwrap();
    }
    db
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

/// A quantifier-free condition over variable `var` (2-column tuples).
fn simple_cond(var: &'static str) -> impl Strategy<Value = Formula> {
    (cmp_op(), 1usize..3, -2..3i64).prop_map(move |(op, pos, k)| {
        Formula::Atom(Atom::Cmp(op, Term::attr(var, pos), Term::int(k)))
    })
}

/// A join condition between `x` (offset 0) and `y`.
fn join_cond() -> impl Strategy<Value = Formula> {
    pair_cond("x", "y")
}

/// A comparison between an attribute of `a` and one of `b`.
fn pair_cond(a: &'static str, b: &'static str) -> impl Strategy<Value = Formula> {
    (cmp_op(), 1usize..3, 1usize..3).prop_map(move |(op, pa, pb)| {
        Formula::Atom(Atom::Cmp(op, Term::attr(a, pa), Term::attr(b, pb)))
    })
}

/// `(∀x)(x ∈ r ⇒ (∀y)(y ∈ range ⇒ body))`.
fn forall_pair(range: &'static str, body: Formula) -> Formula {
    Formula::forall(
        "x",
        Formula::implies(
            Formula::member("x", "r"),
            Formula::forall("y", Formula::implies(Formula::member("y", range), body)),
        ),
    )
}

/// Table 1 row 4, `(∀x,y)((x ∈ r ∧ y ∈ range ∧ c1(x,y)) ⇒ c2(x,y))`;
/// `range = "r"` is the key / functional-dependency case `R = S`.
fn pair_denial(range: &'static str) -> impl Strategy<Value = Formula> {
    (join_cond(), join_cond()).prop_map(move |(c1, c2)| {
        Formula::forall(
            "x",
            Formula::forall(
                "y",
                Formula::implies(
                    Formula::and(
                        Formula::and(Formula::member("x", "r"), Formula::member("y", range)),
                        c1,
                    ),
                    c2,
                ),
            ),
        )
    })
}

/// `(∀x∈r)(∀y∈s)(∀z∈r)((c(x) ∧ c(x,y) ∧ c(y)) ⇒ c(y|x, z))`: the
/// violation predicate `c(x) ∧ c(x,y) ∧ c(y) ∧ ¬c(·,z)` has conjuncts on
/// each level of the join chain — a selection on `r`, two on the `r ⋈ s`
/// join and one on the join with `z`.
fn three_ranges() -> impl Strategy<Value = Formula> {
    let last = prop_oneof![pair_cond("x", "z"), pair_cond("y", "z")];
    (simple_cond("x"), join_cond(), simple_cond("y"), last).prop_map(|(cx, cxy, cy, cz)| {
        forall_pair(
            "s",
            Formula::forall(
                "z",
                Formula::implies(
                    Formula::member("z", "r"),
                    Formula::implies(Formula::and(Formula::and(cx, cxy), cy), cz),
                ),
            ),
        )
    })
}

/// Constraints from the supported translation class, generated at random:
/// domain, referential, exclusion, existence, count, Table 1 row 4 (also
/// over `r` twice), a three-range denial, and conjunctions of two.
fn constraint() -> impl Strategy<Value = Formula> {
    let domain = simple_cond("x")
        .prop_map(|c| Formula::forall("x", Formula::implies(Formula::member("x", "r"), c)));
    let referential = join_cond().prop_map(|c| {
        Formula::forall(
            "x",
            Formula::implies(
                Formula::member("x", "r"),
                Formula::exists("y", Formula::and(Formula::member("y", "s"), c)),
            ),
        )
    });
    let exclusion = join_cond().prop_map(|c| forall_pair("s", c));
    let existence = simple_cond("x")
        .prop_map(|c| Formula::exists("x", Formula::and(Formula::member("x", "r"), c)));
    let count = (cmp_op(), 0..6i64).prop_map(|(op, k)| {
        Formula::Atom(Atom::Cmp(op, Term::Cnt { rel: "r".into() }, Term::int(k)))
    });
    let leaf = prop_oneof![
        domain,
        referential,
        exclusion,
        existence,
        count,
        pair_denial("s"),
        pair_denial("r"),
        three_ranges(),
    ];
    (leaf.clone(), prop::option::of(leaf)).prop_map(|(a, b)| match b {
        None => a,
        Some(b) => Formula::and(a, b),
    })
}

/// Whether `database` satisfies `c` according to each evaluator: the
/// oracle, the `TransC` program run by the executor, and
/// `Engine::check_state` of an `Off` engine holding the same state.
fn verdicts(c: &Formula, database: &Database) -> [bool; 3] {
    let schema = database.schema();
    let info = analyze(c, schema).expect("the constraints are analysable");
    let truth = eval_constraint(&info, &StateSource(database)).expect("the constraints evaluate");
    let program = trans_c(c, schema).expect("the constraints translate");
    let mut scratch = database.clone();
    let committed = Executor
        .execute(&mut scratch, &program.bracket())
        .is_committed();
    let config = EngineConfig {
        mode: EnforcementMode::Off,
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(schema.as_ref().clone(), config);
    for (name, relation) in database.iter() {
        engine.load(name, relation.iter().cloned()).unwrap();
    }
    let rule = IntegrityRule::with_generated_triggers("c", c.clone(), RuleAction::Abort);
    engine.add_rule(rule).unwrap();
    let holds = engine.check_state().unwrap().is_empty();
    [truth, committed, holds]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn translation_agrees_with_semantics(
        c in constraint(),
        r in prop::collection::vec((-2..3i64, -2..3i64), 0..8),
        s in prop::collection::vec((-2..3i64, -2..3i64), 0..8),
    ) {
        let [truth, committed, holds] = verdicts(&c, &db(&r, &s));
        prop_assert_eq!(
            committed,
            truth,
            "translation disagrees with semantics for `{}` on r={:?} s={:?}",
            c,
            r,
            s
        );
        prop_assert_eq!(
            holds,
            truth,
            "check_state disagrees with semantics for `{}` on r={:?} s={:?}",
            c,
            r,
            s
        );
    }
}

#[test]
fn agreement_with_ground_truth_on_examples() {
    let sources = [
        "forall x (x in beer implies x.alcohol >= 0)",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        "CNT(beer) <= 1",
        "exists x (x in brewery and x.country = 'nl')",
        "forall x (x in beer implies x.alcohol >= 0) and CNT(brewery) <= 2",
    ];
    let mut good = Database::new(beer_schema().into_shared());
    good.insert("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
        .unwrap();
    good.insert("brewery", Tuple::of(("guinness", "dublin", "ie")))
        .unwrap();
    good.insert("beer", Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
        .unwrap();
    // A second database with violations of several kinds.
    let mut bad = good.clone();
    bad.insert("beer", Tuple::of(("o", "x", "nowhere", -3.0_f64)))
        .unwrap();
    bad.insert("beer", Tuple::of(("p", "x", "heineken", 2.0_f64)))
        .unwrap();
    for db in [&good, &bad] {
        for src in sources {
            let [truth, translated, holds] = verdicts(&parse_formula(src).unwrap(), db);
            assert_eq!(truth, translated, "mismatch for `{src}` (truth={truth})");
            assert_eq!(
                truth, holds,
                "check_state mismatch for `{src}` (truth={truth})"
            );
        }
    }
}

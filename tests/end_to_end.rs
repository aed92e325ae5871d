//! End-to-end integration scenarios spanning every crate: CL parsing →
//! rule compilation → transaction modification → execution → ground-truth
//! verification, plus translation/evaluator agreement on a constraint zoo.

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::Executor;
use tm_calculus::{analyze, eval_constraint, parse_formula, StateSource};
use tm_relational::schema::beer_schema;
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, ValueType};
use tm_translate::trans_c;
use txmod::{EnforcementMode, Engine, EngineConfig};

/// Translation and direct evaluation must agree on a zoo of constraints
/// across a family of database states.
#[test]
fn translation_agrees_with_ground_truth_on_constraint_zoo() {
    let zoo = [
        "forall x (x in beer implies x.alcohol >= 0)",
        "forall x (x in beer implies x.alcohol <= 12.5)",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        "forall x (x in brewery implies forall y (y in beer implies x.name != y.name))",
        "exists x (x in brewery and x.country = 'nl')",
        "CNT(beer) <= 3",
        "SUM(beer, alcohol) <= 30.0",
        "forall x (x in beer implies x.alcohol * 2 <= 25.0)",
        "forall x, y (x in beer and y in beer and x.name = y.name implies x.alcohol = y.alcohol)",
        "forall x (x in beer implies x.alcohol >= 0) and CNT(brewery) <= 4",
        "CNT(beer) <= 2 or CNT(brewery) <= 2",
        "not exists x (x in beer and x.alcohol > 50.0)",
    ];

    // A family of states: empty, consistent, several violation flavours.
    let mut states: Vec<Database> = Vec::new();
    let empty = Database::new(beer_schema().into_shared());
    states.push(empty.clone());
    let mut ok = empty.clone();
    ok.insert("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
        .unwrap();
    ok.insert("brewery", Tuple::of(("guinness", "dublin", "ie")))
        .unwrap();
    ok.insert("beer", Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
        .unwrap();
    ok.insert("beer", Tuple::of(("stout", "stout", "guinness", 4.0_f64)))
        .unwrap();
    states.push(ok.clone());
    let mut negative = ok.clone();
    negative
        .insert("beer", Tuple::of(("anti", "x", "heineken", -2.0_f64)))
        .unwrap();
    states.push(negative);
    let mut orphan = ok.clone();
    orphan
        .insert("beer", Tuple::of(("lost", "x", "ghost", 6.0_f64)))
        .unwrap();
    states.push(orphan);
    let mut crowded = ok.clone();
    for i in 0..5 {
        crowded
            .insert(
                "beer",
                Tuple::of((format!("b{i}"), "x", "heineken", 7.0_f64)),
            )
            .unwrap();
    }
    states.push(crowded);
    let mut name_clash = ok.clone();
    name_clash
        .insert("beer", Tuple::of(("pils", "other", "heineken", 9.0_f64)))
        .unwrap();
    states.push(name_clash);

    for (si, db) in states.iter().enumerate() {
        for cl in zoo {
            let formula = parse_formula(cl).unwrap();
            let info = analyze(&formula, db.schema()).unwrap();
            let truth = eval_constraint(&info, &StateSource(db)).unwrap();
            let program = trans_c(&formula, db.schema()).unwrap();
            let mut scratch = db.clone();
            let committed = Executor
                .execute(&mut scratch, &program.clone().bracket())
                .is_committed();
            assert_eq!(
                truth, committed,
                "state {si}: translation disagrees with evaluator for `{cl}`"
            );
        }
    }
}

/// A multi-transaction session: the engine maintains consistency across a
/// workload mixing good and bad transactions, with stats that add up.
#[test]
fn multi_transaction_session() {
    let mut engine = Engine::new(beer_schema());
    engine
        .define_constraint("domain", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    engine
        .define_constraint(
            "fk",
            "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        )
        .unwrap();
    engine
        .load(
            "brewery",
            vec![
                Tuple::of(("heineken", "amsterdam", "nl")),
                Tuple::of(("guinness", "dublin", "ie")),
            ],
        )
        .unwrap();

    let mut commits = 0;
    let mut aborts = 0;
    for i in 0..50 {
        let (name, brewery, alcohol) = match i % 5 {
            0 => (format!("good{i}"), "heineken", 5.0),
            1 => (format!("good{i}"), "guinness", 4.5),
            2 => (format!("neg{i}"), "heineken", -1.0), // domain violation
            3 => (format!("orphan{i}"), "ghost", 5.0),  // fk violation
            _ => (format!("good{i}"), "guinness", 6.0),
        };
        let tx = TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of((name, "t", brewery, alcohol)))
            .build();
        let out = engine.execute(&tx).unwrap();
        if out.committed() {
            commits += 1;
        } else {
            aborts += 1;
        }
        // Invariant after every transaction: constraints hold.
        assert!(engine.check_state().unwrap().is_empty(), "after tx {i}");
    }
    assert_eq!(commits, 30);
    assert_eq!(aborts, 20);
    assert_eq!(engine.relation("beer").unwrap().len(), 30);
    // Logical time advanced once per state transition: the initial bulk
    // load plus one per transaction, commit or abort.
    assert_eq!(engine.database().logical_time(), 51);
}

/// Rule set evolution: removing a rule changes enforcement; triggering
/// graph validation reacts to compensating chains.
#[test]
fn rule_lifecycle_and_validation() {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of("a", &[("x", ValueType::Int)]),
        RelationSchema::of("b", &[("x", ValueType::Int)]),
    ])
    .unwrap();
    let mut engine = Engine::new(schema);
    // Chain: INS(a) → copy to b; rule on b aborts when b has negatives.
    engine
        .add_rule_text("WHEN INS(a) IF NOT 1 = 1 THEN insert(b, a@ins)", "copy")
        .unwrap();
    engine
        .define_constraint("b_nonneg", "forall x (x in b implies x.1 >= 0)")
        .unwrap();
    assert!(!engine.validate().has_cycles());

    // Inserting a negative into a propagates to b and aborts there.
    let tx = TransactionBuilder::new()
        .insert_tuple("a", Tuple::of((-5,)))
        .build();
    let out = engine.execute(&tx).unwrap();
    assert!(!out.committed());
    assert_eq!(out.modification.rounds, 2, "chain takes two rounds");

    // Positive values flow through.
    let tx = TransactionBuilder::new()
        .insert_tuple("a", Tuple::of((5,)))
        .build();
    assert!(engine.execute(&tx).unwrap().committed());
    assert!(engine.relation("b").unwrap().contains(&Tuple::of((5,))));
}

/// Differential mode and an adversarial mixed transaction: inserts AND
/// deletes of both parent and child in one transaction.
#[test]
fn differential_mode_mixed_updates() {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of("parent", &[("key", ValueType::Int)]),
        RelationSchema::of("child", &[("id", ValueType::Int), ("fk", ValueType::Int)]),
    ])
    .unwrap();
    for mode in [EnforcementMode::Static, EnforcementMode::Differential] {
        let mut engine = Engine::with_config(
            schema.clone(),
            EngineConfig {
                mode,
                ..EngineConfig::default()
            },
        );
        engine
            .define_constraint(
                "fk",
                "forall x (x in child implies exists y (y in parent and x.fk = y.key))",
            )
            .unwrap();
        engine
            .load("parent", vec![Tuple::of((1,)), Tuple::of((2,))])
            .unwrap();
        engine
            .load("child", vec![Tuple::of((10, 1)), Tuple::of((11, 2))])
            .unwrap();

        // Swap: delete parent 2 but reparent its child in the same
        // transaction — consistent, must commit.
        let tx = TransactionBuilder::new()
            .delete_tuple("child", Tuple::of((11, 2)))
            .insert_tuple("child", Tuple::of((11, 1)))
            .delete_tuple("parent", Tuple::of((2,)))
            .build();
        let out = engine.execute(&tx).unwrap();
        assert!(out.committed(), "{mode:?}: consistent swap must commit");

        // Delete a parent that still has children — must abort.
        let tx = TransactionBuilder::new()
            .delete_tuple("parent", Tuple::of((1,)))
            .build();
        let out = engine.execute(&tx).unwrap();
        assert!(!out.committed(), "{mode:?}: dangling children must abort");
    }
}

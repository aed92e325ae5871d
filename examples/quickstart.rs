//! Quickstart: declare constraints, submit transactions, observe
//! transaction modification at work.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use tm_algebra::builder::TransactionBuilder;
use tm_relational::schema::beer_schema;
use tm_relational::Tuple;
use txmod::Engine;

fn main() {
    // 1. An engine over the paper's beer/brewery schema.
    let mut engine = Engine::new(beer_schema());

    // 2. Declarative constraints in CL (Section 4.1). Trigger sets are
    //    generated automatically (GenTrigC, Algorithm 5.7); the default
    //    violation response is abort.
    engine
        .define_constraint(
            "alcohol_domain",
            "forall x (x in beer implies x.alcohol >= 0)",
        )
        .expect("valid constraint");
    engine
        .define_constraint(
            "brewery_fk",
            "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        )
        .expect("valid constraint");

    // 3. Seed data (bulk load bypasses enforcement, like any initial load).
    engine
        .load("brewery", vec![Tuple::of(("guineken", "dublin", "ie"))])
        .expect("load succeeds");

    // 4. A correct transaction commits.
    let good = TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
        )
        .build();
    let outcome = engine.execute(&good).expect("engine accepts transaction");
    println!("good transaction: {outcome}");
    assert!(outcome.committed());

    // 5. A violating transaction is modified so that it aborts — the
    //    database is untouched.
    let bad = TransactionBuilder::new()
        .insert_tuple("beer", Tuple::of(("toxic", "stout", "guineken", -2.0_f64)))
        .build();
    let outcome = engine.execute(&bad).expect("engine accepts transaction");
    println!("bad transaction:  {outcome}");
    assert!(!outcome.committed());
    // It has the good transaction's shape (one `beer` row), so the engine
    // ran the plan it prepared for that shape, bound to the new values:
    // no `ModT` on this call.
    assert!(outcome.reused_plan);

    // 6. Inspect what the subsystem rewrites the violating transaction to
    //    (`ModT` alone; nothing runs).
    let (rewritten, _) = engine.modify_only(&bad).expect("modifiable");
    println!("\nthe violating transaction is rewritten to:\n{rewritten}");

    // 7. The database holds exactly the one good beer.
    let beers = engine.relation("beer").expect("beer exists");
    println!("beers in database: {}", beers.len());
    assert_eq!(beers.len(), 1);

    // 8. Ground truth agrees: no constraint is violated.
    assert!(engine.check_state().expect("checkable").is_empty());
    println!("all constraints hold.");
}

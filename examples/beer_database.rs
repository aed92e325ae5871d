//! The paper's running example, end to end: rules R1 (aborting) and R2
//! (compensating) from Example 4.2, the transaction of Example 5.1, and
//! the modified transaction the subsystem produces.
//!
//! ```text
//! cargo run --example beer_database
//! ```

use tm_algebra::builder::TransactionBuilder;
use tm_relational::schema::beer_schema;
use tm_relational::{Tuple, Value};
use txmod::Engine;

fn main() {
    let mut engine = Engine::new(beer_schema());

    // R1 (Example 4.2): aborting domain rule.
    engine
        .add_rule_text(
            "RULE r1 WHEN INS(beer) \
             IF NOT forall x (x in beer implies x.alcohol >= 0) \
             THEN abort",
            "r1",
        )
        .expect("r1 parses");

    // R2 (Example 4.2): compensating referential rule — missing breweries
    // are *inserted* (with null city/country) instead of aborting.
    engine
        .add_rule_text(
            "RULE r2 WHEN INS(beer), DEL(brewery) \
             IF NOT forall x (x in beer implies \
                      exists y (y in brewery and x.brewery = y.name)) \
             THEN temp := minus(project[#2](beer), project[#0](brewery)); \
                  insert(brewery, project[#0, null, null](temp))",
            "r2",
        )
        .expect("r2 parses");

    println!("{}", engine.catalog());

    // Validate triggering behaviour (Section 6.1).
    let report = engine.validate();
    println!("{report}\n");

    // Example 5.1's transaction: insert a new beer from an unknown brewery.
    let tx = TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
        )
        .build();

    let (modified, trace) = engine.modify_only(&tx).expect("modifiable");
    println!("user transaction:\n{tx}");
    println!("modified transaction:\n{modified}");
    println!(
        "modification: {} round(s), rules fired: {:?}\n",
        trace.rounds,
        trace.rules_fired()
    );

    // Execute: R1's alarm passes (alcohol = 6 ≥ 0); R2's compensation
    // inserts the missing brewery, so the transaction commits.
    let outcome = engine.execute(&tx).expect("executes");
    println!("outcome: {outcome}");
    assert!(outcome.committed());

    let breweries = engine.relation("brewery").expect("brewery exists");
    println!("\nbreweries after commit:\n{breweries}");
    assert!(breweries.contains(&Tuple::from_values(vec![
        Value::str("guineken"),
        Value::Null,
        Value::Null,
    ])));

    // And a violating insert still aborts via R1.
    let bad = TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("overproof", "rum?", "guineken", -1.0_f64)),
        )
        .build();
    let outcome = engine.execute(&bad).expect("executes");
    println!("violating transaction: {outcome}");
    assert!(!outcome.committed());
}

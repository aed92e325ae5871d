//! Golden test for the paper's worked Example 5.1: the exact modified
//! transaction produced for the beer-insert, under rules R1 and R2 of
//! Example 4.2.

use tm_algebra::builder::TransactionBuilder;
use tm_relational::schema::beer_schema;
use tm_relational::{Tuple, Value};
use tm_translate::trans_r;
use txmod::{EnforcementMode, Engine, EngineConfig};

fn engine(mode: EnforcementMode) -> Engine {
    // The golden expectations below are the paper's literal Example 5.1
    // output — produced by the unspecialized Algorithm 5.1, so prepare-time
    // specialization is off here (see `specialization_prunes_the_example`
    // for what the default configuration produces instead).
    let mut e = Engine::with_config(
        beer_schema(),
        EngineConfig {
            mode,
            specialize: false,
            ..EngineConfig::default()
        },
    );
    e.add_rule_text(
        "RULE r1 WHEN INS(beer) \
         IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
        "r1",
    )
    .unwrap();
    e.add_rule_text(
        "RULE r2 WHEN INS(beer), DEL(brewery) \
         IF NOT forall x (x in beer implies \
                  exists y (y in brewery and x.brewery = y.name)) \
         THEN temp := minus(project[#2](beer), project[#0](brewery)); \
              insert(brewery, project[#0, null, null](temp))",
        "r2",
    )
    .unwrap();
    e
}

fn example_tx() -> tm_algebra::Transaction {
    TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
        )
        .build()
}

#[test]
fn modified_transaction_matches_paper() {
    let e = engine(EnforcementMode::Static);
    let tx = example_tx();
    let (modified, trace) = e.modify_only(&tx).unwrap();
    let expected = "\
begin
  insert(beer, {(\"exportgold\", \"stout\", \"guineken\", 6.0)});
  alarm(select[(#3 < 0)](beer));
  temp := (project[#2](beer) minus project[#0](brewery));
  insert(brewery, project[#0, null, null](temp));
end
";
    assert_eq!(modified.to_string(), expected);
    assert_eq!(trace.rounds, 1);
    assert_eq!(trace.rules_fired(), ["r1", "r2"]);
}

#[test]
fn modified_transaction_is_guaranteed_correct() {
    // "The modified transaction is now guaranteed to be correct and can be
    // executed without any further precautions."
    let mut e = engine(EnforcementMode::Static);
    let outcome = e.execute(&example_tx()).unwrap();
    assert!(outcome.committed());
    // The compensating action inserted the missing brewery tuple
    // ("guineken", null, null) — exactly the paper's semantics.
    let breweries = e.relation("brewery").unwrap();
    assert_eq!(breweries.len(), 1);
    assert!(breweries.contains(&Tuple::from_values(vec![
        Value::str("guineken"),
        Value::Null,
        Value::Null,
    ])));
    // The beer arrived too.
    assert_eq!(e.relation("beer").unwrap().len(), 1);
}

#[test]
fn specialization_prunes_the_example() {
    // Under the default configuration the same submission is lighter:
    // the inserted row has alcohol 6.0, so R1's domain check is provably
    // unviolable and is dropped; R2's compensation runs unchanged
    // (compensating actions are never specialized).
    let mut e = engine(EnforcementMode::Static);
    e.config_mut().specialize = true;
    let tx = example_tx();
    let (modified, trace) = e.modify_only(&tx).unwrap();
    let rendered = modified.to_string();
    assert!(
        !rendered.contains("alarm"),
        "r1's check must be dropped by proof: {rendered}"
    );
    assert!(rendered.contains("temp := "), "{rendered}");
    assert_eq!(trace.rules_fired(), ["r2"]);
    // Execution semantics are identical to the unspecialized engine.
    let mut out = e.execute(&tx).unwrap();
    assert!(out.committed());
    assert_eq!(out.checks.skipped, 1); // r1 dropped
    assert_eq!(e.relation("brewery").unwrap().len(), 1);
    let mut unspec = engine(EnforcementMode::Static);
    out = unspec.execute(&tx).unwrap();
    assert!(out.committed());
    assert_eq!(
        e.relation("brewery").unwrap(),
        unspec.relation("brewery").unwrap()
    );
}

/// §6.2: a rule translated once, when it is declared, is the rule
/// translated now. For every rule the example's modification selects, the
/// catalog's compiled program equals `trans_r` run at enforcement time, so
/// the modified transaction is the one Algorithm 5.1's per-transaction
/// translation (`TrOptRS`) appends.
#[test]
fn compiled_programs_equal_enforcement_time_translation() {
    let e = engine(EnforcementMode::Static);
    let tx = example_tx();
    let plan = e.prepare(&tx).unwrap();
    let selected: Vec<&str> = plan
        .modification()
        .decisions
        .iter()
        .map(|d| d.rule.as_str())
        .collect();
    assert_eq!(selected, ["r1", "r2"]);
    let catalog = e.catalog();
    let mut translated_now = tx.debracket().clone();
    for name in selected {
        let rule = catalog.rule(name).unwrap();
        let now = trans_r(rule, catalog.schema()).unwrap();
        let compiled = catalog.programs().iter().find(|k| k.name == name).unwrap();
        assert_eq!(compiled.program, now.program, "{name}");
        assert_eq!(compiled.triggers, now.triggers, "{name}");
        assert_eq!(compiled.non_triggering, now.non_triggering, "{name}");
        translated_now = translated_now.concat(now.program);
    }
    let (modified, _) = e.modify_only(&tx).unwrap();
    assert_eq!(modified.into_owned(), translated_now.bracket());
}

#[test]
fn negative_alcohol_aborts_via_r1() {
    let mut e = engine(EnforcementMode::Static);
    let tx = TransactionBuilder::new()
        .insert_tuple("beer", Tuple::of(("bad", "stout", "guineken", -6.0_f64)))
        .build();
    let outcome = e.execute(&tx).unwrap();
    assert!(!outcome.committed());
    assert!(e.relation("beer").unwrap().is_empty());
    assert!(e.relation("brewery").unwrap().is_empty());
}

//! Quickstart for the prepared-transaction surface: run `ModT` once,
//! bind and execute many times (see `docs/api.md`).
//!
//! ```bash
//! cargo run --release --example prepared_pipeline
//! ```

use tm_algebra::builder::TransactionBuilder;
use tm_relational::{DatabaseSchema, RelationSchema, Value, ValueType};
use txmod::{EnforcementMode, Engine, EngineConfig};

fn main() -> txmod::Result<()> {
    // account(id, balance) guarded by a non-negative balance constraint.
    let schema = DatabaseSchema::from_relations(vec![RelationSchema::of(
        "account",
        &[("id", ValueType::Int), ("balance", ValueType::Int)],
    )])?;
    let mut engine = Engine::with_config(
        schema,
        EngineConfig {
            mode: EnforcementMode::Static,
            ..EngineConfig::default()
        },
    );
    engine.define_constraint(
        "balance_non_negative",
        "forall x (x in account implies x.balance >= 0)",
    )?;

    // ── prepare: ModT runs ONCE over the parameterized template ─────────
    let template = TransactionBuilder::new()
        .insert_params("account", 2) // insert(account, row(?0, ?1))
        .build();
    // Stored in the engine's statement table: executed by id from here on.
    let stmt = engine.store_statement(engine.prepare(&template)?);
    {
        let prepared = engine.statement(stmt)?;
        println!(
            "prepared: {} param slot(s), {} rule(s) fired at prepare time",
            prepared.param_count(),
            prepared.modification().rules_fired().len()
        );
        println!("template as executed:\n{}", prepared.transaction());
    }

    // ── bind + execute: the hot loop ────────────────────────────────────
    for id in 0..5i64 {
        let out = engine.execute_statement(stmt, &[Value::Int(id), Value::Int(100 * id)])?;
        assert!(out.committed() && out.reused_plan);
    }
    // A violating binding aborts — same verdict the ad-hoc path gives.
    let out = engine.execute_statement(stmt, &[Value::Int(99), Value::Int(-1)])?;
    println!("binding (99, -1): {out}");
    assert!(!out.committed());

    // A mistyped binding never reaches the executor.
    let err = engine
        .statement(stmt)?
        .bind(&[Value::str("not an id"), Value::Int(0)])
        .unwrap_err();
    println!("binding ('not an id', 0): {err}");

    // ── snapshot reads: O(#relations), never blocking the writer ────────
    let snapshot = engine.database().clone();
    let out = engine.execute_statement(stmt, &[Value::Int(6), Value::Int(600)])?;
    assert!(out.committed());
    println!(
        "snapshot still sees {} accounts; live state has {}",
        snapshot.relation("account").unwrap().len(),
        engine.relation("account")?.len()
    );

    // ── plan invalidation: a rule added after prepare is enforced ───────
    engine.define_constraint(
        "balance_capped",
        "forall x (x in account implies x.balance <= 1000)",
    )?;
    let out = engine.execute_statement(stmt, &[Value::Int(7), Value::Int(5000)])?;
    println!("after new rule, binding (7, 5000): {out}");
    assert!(!out.committed(), "stale plan was re-modified");
    assert!(!out.reused_plan, "that call re-ran ModT");
    let out = engine.execute_statement(stmt, &[Value::Int(7), Value::Int(500)])?;
    assert!(out.committed() && out.reused_plan, "and the refresh sticks");

    println!("final account count: {}", engine.relation("account")?.len());
    Ok(())
}

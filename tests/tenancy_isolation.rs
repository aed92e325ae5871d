//! Tenancy isolation: tenants behind one server share nothing but the
//! process.
//!
//! Two tenants with *conflicting* catalogs — the same relation name
//! carrying different schemas, constraints, and enforcement modes — take
//! interleaved traffic through separate connections. Each tenant's
//! per-transaction verdicts and final database must be exactly what a
//! solo engine run of its own request stream produces (`state_eq`), and
//! a violation storm hammering one tenant must not perturb the other's
//! metrics or verdicts.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use tm_server::{serve, Client, ServerConfig, TenantRegistry, TenantSpec};
use txmod::{EnforcementMode, Engine, EngineConfig, Prepared};

/// Alpha's deposit template (RA text with `?N` placeholders, the
/// wire-protocol `Prepare` form).
const DEPOSIT: &str = "insert(account, row(?0, ?1, ?2))";

/// The RL text of the bank audit rule (compensating action: every
/// inserted account row is mirrored into `audit`; compensations run
/// as-is on every trigger, so the condition is vacuous).
const BANK_AUDIT_RULE: &str = "RULE bank_audit WHEN INS(account) IF NOT 1 = 1 \
     THEN insert(audit, project[#0, #2](account@ins)) NON-TRIGGERING";

/// Tenant "alpha": the bank catalog — `account(id, owner, balance)`
/// guarded by the overdraft floor and mirrored by the compensating audit
/// rule — in Static mode. Each commit fires a triggered action, not just
/// a check.
fn alpha_engine() -> Engine {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of(
            "account",
            &[
                ("id", ValueType::Int),
                ("owner", ValueType::Str),
                ("balance", ValueType::Int),
            ],
        ),
        RelationSchema::of(
            "audit",
            &[("id", ValueType::Int), ("balance", ValueType::Int)],
        ),
    ])
    .unwrap();
    let mut engine = Engine::with_config(
        schema,
        EngineConfig {
            mode: EnforcementMode::Static,
            ..EngineConfig::default()
        },
    );
    engine
        .define_constraint(
            "no_overdraft",
            "forall x (x in account implies x.balance >= 0)",
        )
        .unwrap();
    engine.add_rule_text(BANK_AUDIT_RULE, "bank_audit").unwrap();
    engine
}

/// A deterministic stream of `n` bindings of [`DEPOSIT`]. Distinct seeds
/// give non-overlapping id ranges, so several connections can stream
/// concurrently without set-semantic collisions. In a violation `storm`
/// three in four deposits overdraw (sustained rollback pressure with
/// interleaved commits); otherwise none do.
fn deposits(seed: u64, n: usize, storm: bool) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let base = (seed as i64) << 40;
    (0..n)
        .map(|i| {
            let uid = base + i as i64;
            let balance = if !storm {
                rng.gen_range(0..10_000)
            } else if i.is_multiple_of(4) {
                rng.gen_range(0..1_000)
            } else {
                rng.gen_range(-1_000..-1)
            };
            vec![
                Value::Int(uid),
                Value::str(format!("owner-{}", uid & 0xff)),
                Value::Int(balance),
            ]
        })
        .collect()
}

/// Tenant "beta": a *conflicting* catalog — the same relation name
/// `account`, but two columns, a balance **ceiling** instead of a floor,
/// and Differential mode. Alpha's commits would violate beta's catalog
/// and vice versa; isolation means neither ever sees the other's.
fn beta_engine() -> Engine {
    let schema = DatabaseSchema::from_relations(vec![RelationSchema::of(
        "account",
        &[("id", ValueType::Int), ("balance", ValueType::Int)],
    )])
    .unwrap();
    let mut engine = Engine::with_config(
        schema,
        EngineConfig {
            mode: EnforcementMode::Differential,
            ..EngineConfig::default()
        },
    );
    engine
        .define_constraint(
            "balance_capped",
            "forall x (x in account implies x.balance <= 1000)",
        )
        .unwrap();
    engine
}

/// Alpha's request stream: every fifth deposit overdraws (aborts under
/// alpha's floor; would be *fine* under beta's ceiling).
fn alpha_params(i: i64) -> Vec<Value> {
    let balance = if i % 5 == 4 { -10 } else { 10 + i };
    vec![
        Value::Int(i),
        Value::str(format!("owner-{i}")),
        Value::Int(balance),
    ]
}

/// Beta's request stream: every third row busts the cap (aborts under
/// beta's ceiling; would be *fine* under alpha's floor).
fn beta_params(i: i64) -> Vec<Value> {
    let balance = if i % 3 == 2 { 5_000 } else { i };
    vec![Value::Int(i), Value::Int(balance)]
}

/// Run one tenant's stream solo on a bare engine; returns per-request
/// commit verdicts and leaves the final state in the engine.
fn solo(engine: &mut Engine, template: &str, params: &[Vec<Value>]) -> Vec<bool> {
    let tx = tm_algebra::parser::parse_program(template)
        .unwrap()
        .bracket();
    let prepared: Prepared = engine.prepare(&tx).unwrap();
    params
        .iter()
        .map(|p| {
            let bound = prepared.bind(p).unwrap();
            engine.execute_bound(&bound).unwrap().committed()
        })
        .collect()
}

#[test]
fn interleaved_tenants_match_solo_runs() {
    const N: i64 = 120;
    let registry = Arc::new(TenantRegistry::new());
    registry.add("alpha", alpha_engine(), TenantSpec::default());
    registry.add("beta", beta_engine(), TenantSpec::default());
    let handle = serve(registry.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let beta_template = "insert(account, row(?0, ?1))";
    let mut ca = Client::connect(addr, "alpha").unwrap();
    let mut cb = Client::connect(addr, "beta").unwrap();
    let sa = ca.prepare(DEPOSIT).unwrap();
    let sb = cb.prepare(beta_template).unwrap();

    // Strictly interleaved traffic: alpha, beta, alpha, beta, …
    let mut served_alpha = Vec::new();
    let mut served_beta = Vec::new();
    for i in 0..N {
        served_alpha.push(ca.execute(sa, alpha_params(i)).unwrap().committed);
        served_beta.push(cb.execute(sb, beta_params(i)).unwrap().committed);
    }
    handle.shutdown();

    // Solo runs of the same streams on bare engines.
    let mut solo_alpha = alpha_engine();
    let mut solo_beta = beta_engine();
    let ap: Vec<_> = (0..N).map(alpha_params).collect();
    let bp: Vec<_> = (0..N).map(beta_params).collect();
    let solo_alpha_verdicts = solo(&mut solo_alpha, DEPOSIT, &ap);
    let solo_beta_verdicts = solo(&mut solo_beta, beta_template, &bp);

    // Per-transaction verdicts match — aborts landed on exactly the
    // requests each tenant's own catalog rejects.
    assert_eq!(served_alpha, solo_alpha_verdicts);
    assert_eq!(served_beta, solo_beta_verdicts);
    assert!(served_alpha.iter().any(|c| !c));
    assert!(served_beta.iter().any(|c| !c));
    // Alpha and beta rejected *different* requests (conflicting
    // catalogs actually conflict).
    assert_ne!(served_alpha, served_beta);

    // Final states are state_eq to the solo runs.
    let ta = registry.get("alpha").unwrap();
    let tb = registry.get("beta").unwrap();
    assert!(
        ta.engine.lock().database().state_eq(solo_alpha.database()),
        "alpha's served state must equal its solo run"
    );
    assert!(
        tb.engine.lock().database().state_eq(solo_beta.database()),
        "beta's served state must equal its solo run"
    );
}

#[test]
fn violation_storm_does_not_perturb_neighbor() {
    const N: i64 = 300;
    let registry = Arc::new(TenantRegistry::new());
    registry.add("steady", alpha_engine(), TenantSpec::default());
    registry.add("stormy", alpha_engine(), TenantSpec::default());
    let handle = serve(registry.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // The storm runs concurrently on its own connection while the steady
    // tenant commits clean traffic.
    let stormer = {
        let addr2 = addr;
        std::thread::spawn(move || {
            let mut c = Client::connect(addr2, "stormy").unwrap();
            let s = c.prepare(DEPOSIT).unwrap();
            c.execute_many(s, deposits(1, N as usize, true)).unwrap()
        })
    };
    let mut c = Client::connect(addr, "steady").unwrap();
    let s = c.prepare(DEPOSIT).unwrap();
    let clean: Vec<Vec<Value>> = (0..N)
        .map(|i| vec![Value::Int(i), Value::str("o"), Value::Int(i)])
        .collect();
    let (committed, aborted) = c.execute_many(s, clean.clone()).unwrap();
    assert_eq!((committed, aborted), (N as u64, 0));

    let (storm_committed, storm_aborted) = stormer.join().unwrap();
    assert!(storm_aborted > storm_committed, "the storm mostly aborts");

    // The steady tenant's metrics are untouched by the neighbor's storm:
    // its abort count, error count, and verdict totals are exactly its
    // own traffic's.
    let stats = c.stats().unwrap();
    let get = |key: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("missing {key} in:\n{stats}"))
    };
    assert_eq!(get("tenant.steady.tx_committed "), N as u64);
    assert_eq!(get("tenant.steady.tx_aborted "), 0);
    assert_eq!(get("tenant.steady.errors "), 0);
    assert_eq!(get("tenant.steady.busy_rejected "), 0);
    assert_eq!(get("tenant.stormy.tx_aborted "), storm_aborted);
    handle.shutdown();

    // And the steady tenant's state equals a solo run of its own stream —
    // the storm left no trace.
    let mut solo_engine = alpha_engine();
    let verdicts = solo(&mut solo_engine, DEPOSIT, &clean);
    assert!(verdicts.iter().all(|c| *c));
    let steady = registry.get("steady").unwrap();
    assert!(
        steady
            .engine
            .lock()
            .database()
            .state_eq(solo_engine.database()),
        "the steady tenant's state must equal its solo run"
    );
}

/// Alpha's engine prepares the deposit template, and each deposit stream
/// executes with roughly its expected commit ratio.
#[test]
fn deposit_streams_commit_at_their_expected_ratio() {
    for (name, storm, expect_commit_ratio) in
        [("bank", false, 1.0), ("violation_storm", true, 0.25)]
    {
        let mut engine = alpha_engine();
        let tx = tm_algebra::parser::parse_program(DEPOSIT)
            .unwrap_or_else(|e| panic!("{name}: template parse: {e}"))
            .bracket();
        let prepared = engine.prepare(&tx).unwrap();
        let bindings = deposits(1, 200, storm);
        let mut committed = 0usize;
        for params in &bindings {
            let bound = prepared.bind(params).unwrap();
            if engine.execute_bound(&bound).unwrap().committed() {
                committed += 1;
            }
        }
        let ratio = committed as f64 / bindings.len() as f64;
        assert!(
            (ratio - expect_commit_ratio).abs() < 0.1,
            "{name}: commit ratio {ratio} (expected ~{expect_commit_ratio})"
        );
    }
}

/// The audit rule fires as a compensating action: every committed
/// deposit is mirrored.
#[test]
fn bank_audit_rule_mirrors_deposits() {
    let mut engine = alpha_engine();
    let tx = tm_algebra::parser::parse_program(DEPOSIT)
        .unwrap()
        .bracket();
    let prepared = engine.prepare(&tx).unwrap();
    let bound = prepared
        .bind(&[Value::Int(1), Value::str("a"), Value::Int(50)])
        .unwrap();
    assert!(engine.execute_bound(&bound).unwrap().committed());
    assert_eq!(engine.relation("audit").unwrap().len(), 1);
    assert!(engine
        .relation("audit")
        .unwrap()
        .contains(&Tuple::of((1i64, 50i64))));
}

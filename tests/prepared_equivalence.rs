//! Equivalence and safety properties of the prepared-transaction surface.
//!
//! The contract of `Engine::prepare` / `Prepared::bind` /
//! `Engine::execute_statement` is that preparation is *purely* an
//! amortization: for every parameter binding, executing the prepared
//! template commits or aborts exactly as ad-hoc execution of the
//! substituted source transaction would, in **all four** enforcement
//! modes, and leaves the database in the same state. On top of that:
//!
//! * stale-plan safety — a rule added *after* `prepare` invalidates the
//!   plan; the next execution re-modifies it and enforces the new rule,
//! * snapshots are consistent copy-on-write reads: later writes never
//!   reach a snapshot, untouched relations keep sharing storage,
//! * templates cannot run unbound: the engine refuses them at bind time,
//!   the executor aborts them with a dedicated error.
//!
//! Ad-hoc execution itself runs through a (dropped) plan, so the suite
//! also pins it to an oracle that shares none of that path: the raw `ModT`
//! output on the generic executor. The same oracle pins prepared plans
//! whose compensating actions (`insert(t, r@ins)`) run on the fast
//! executor. And `ConcurrentSession::execute_prepared` is pinned to
//! `Session::execute_prepared` (a forward to `Engine::execute_statement`):
//! the same outcome and state at every step.

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{
    parse_program, AbortReason, AlgebraError, ExecPlan, Executor, Transaction, TxOutcome,
};
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use txmod::engine::beer_engine;
use txmod::{
    ConcurrentEngine, Durability, EnforcementMode, Engine, EngineConfig, EngineError, SpecOutcome,
};

const MODES: [EnforcementMode; 4] = [
    EnforcementMode::Off,
    EnforcementMode::Dynamic,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

fn constrained(mode: EnforcementMode) -> Engine {
    let mut e = beer_engine(mode);
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e.define_constraint(
        "ref",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
    )
    .unwrap();
    e.load(
        "brewery",
        vec![
            Tuple::of(("heineken", "amsterdam", "nl")),
            Tuple::of(("guinness", "dublin", "ie")),
        ],
    )
    .unwrap();
    e
}

fn insert_template() -> Transaction {
    TransactionBuilder::new().insert_params("beer", 4).build()
}

fn delete_template() -> Transaction {
    TransactionBuilder::new().delete_params("beer", 4).build()
}

/// One step of the random workload: insert or delete a beer row built
/// from small pools (collisions and violations on purpose).
type Step = (bool, usize, usize, i64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0..4usize, 0..5usize, 0..4usize, -2..8i64), 1..12).prop_map(|v| {
        v.into_iter()
            .map(|(op, name, brewery, alc)| (op != 0, name, brewery, alc))
            .collect()
    })
}

/// Run the workload ad hoc on `engine` and, side by side, as the raw
/// modified transactions on the generic executor over a copy of its
/// state — no `ExecPlan` involved. The outcomes (verdict, abort reason as
/// rendered, executor statistics) and the post-states must agree at every
/// step.
fn assert_adhoc_matches_generic_oracle(engine: &mut Engine, workload: &[Step]) {
    let mode = engine.config().mode;
    let mut oracle = engine.database().clone();
    for step in workload {
        let src = if step.0 {
            insert_template()
        } else {
            delete_template()
        };
        let tx = src.bind_params(&values_of(step));
        let (modified, _) = engine.modify_only(&tx).unwrap();
        let expected = Executor.execute_bound(&mut oracle, &modified, &[]);
        let out = engine.execute(&tx).unwrap();
        assert_eq!(out.outcome, expected, "{mode:?}: {step:?}");
        assert!(
            engine.database().state_eq(&oracle),
            "{mode:?}: post-state diverged on {step:?}"
        );
    }
}

/// Run the workload through a `ConcurrentSession` over `concurrent` and,
/// side by side, a `Session` over `serial`. The whole outcome (verdict,
/// abort reason, executor statistics, `reused_plan`, check summary) and
/// the post-state must agree at every step. Returns the concurrent
/// side's engine.
fn assert_concurrent_session_matches_session(
    concurrent: Engine,
    serial: &mut Engine,
    workload: &[Step],
) -> Engine {
    let mode = serial.config().mode;
    let ce = ConcurrentEngine::new(concurrent);
    let mut cs = ce.session();
    let mut ss = serial.session();
    let ids = [insert_template(), delete_template()]
        .map(|t| (cs.prepare(&t).unwrap(), ss.prepare(&t).unwrap()));
    for step in workload {
        let (c, s) = ids[usize::from(!step.0)];
        let values = values_of(step);
        let out_c = cs.execute_prepared(c, &values).unwrap();
        let out_s = ss.execute_prepared(s, &values).unwrap();
        assert_eq!(out_c, out_s, "{mode:?}: {step:?}");
        assert!(
            ce.snapshot().state_eq(&ss.snapshot()),
            "{mode:?}: post-state diverged on {step:?}"
        );
    }
    drop(cs);
    ce.try_into_engine().unwrap()
}

/// `r(k, v)` and `q(k, v)`, each mirrored into `t(k, v)` by two
/// compensating rules, plus a domain constraint on `r` so that bindings
/// can abort (`q` is unconstrained, so a delete-then-reinsert of it stays
/// on the fast executor). `r` and `t` start with `(0, 0)` and `(1, 1)`;
/// `q` holds `(3, 1)`, which `t` lacks, and `t` alone `(2, 0)` — so a copy
/// can be fresh, redundant, or wrongly made.
fn mirrored(mode: EnforcementMode) -> Engine {
    let pair = [("k", ValueType::Int), ("v", ValueType::Int)];
    let schema = DatabaseSchema::from_relations(
        ["r", "q", "t"]
            .map(|name| RelationSchema::of(name, &pair))
            .to_vec(),
    )
    .unwrap();
    let mut e = Engine::with_config(
        schema,
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    e.define_constraint("v_non_negative", "forall x (x in r implies x.v >= 0)")
        .unwrap();
    for s in ["r", "q"] {
        e.add_rule_text(
            &format!("WHEN INS({s}) IF NOT 1 = 1 THEN insert(t, {s}@ins) NON-TRIGGERING"),
            &format!("{s}_mirror_ins"),
        )
        .unwrap();
        e.add_rule_text(
            &format!("WHEN DEL({s}) IF NOT 1 = 1 THEN delete(t, {s}@del) NON-TRIGGERING"),
            &format!("{s}_mirror_del"),
        )
        .unwrap();
    }
    let shared = [Tuple::of((0_i64, 0_i64)), Tuple::of((1_i64, 1_i64))];
    e.load("r", shared.clone()).unwrap();
    e.load("q", [Tuple::of((3_i64, 1_i64))]).unwrap();
    e.load("t", shared.into_iter().chain([Tuple::of((2_i64, 0_i64))]))
        .unwrap();
    e
}

/// Insert and delete of an `r` row, delete-then-reinsert of a `q` row, and
/// two `r` inserts (duplicates when the rows coincide).
fn mirrored_templates() -> [Transaction; 4] {
    [
        "insert(r, row(?0, ?1))",
        "delete(r, row(?0, ?1))",
        "delete(q, row(?0, ?1)); insert(q, row(?0, ?1))",
        "insert(r, row(?0, ?1)); insert(r, row(?2, ?3))",
    ]
    .map(|text| parse_program(text).unwrap().bracket())
}

/// `(template, k, v, k2, v2)`: small pools, so rows collide with the
/// pre-loaded ones and with each other; `v = -1` violates the domain rule.
type MirrorStep = (usize, i64, i64, i64, i64);

/// Run `workload` prepared into `engine`'s statement table and, side by
/// side, each template's `modify_only` output on the generic executor over
/// a copy of its state. Verdict, abort reason, `ExecStats` and post-state
/// must agree at every step.
fn assert_mirrored_prepared_matches_generic(engine: &mut Engine, workload: &[MirrorStep]) {
    let mode = engine.config().mode;
    let templates = mirrored_templates();
    let modified = templates
        .clone()
        .map(|t| engine.modify_only(&t).unwrap().0.into_owned());
    if mode != EnforcementMode::Off {
        for m in &modified {
            assert!(
                ExecPlan::compile(m.clone()).is_fast(),
                "{mode:?}: the compensating copy must run on the fast executor: {m}"
            );
        }
    }
    let mut oracle = engine.database().clone();
    let ids = templates.map(|t| engine.store_statement(engine.prepare(&t).unwrap()));
    for &(kind, k, v, k2, v2) in workload {
        let values = [k, v, k2, v2].map(Value::Int);
        let values = &values[..modified[kind].param_count()];
        let out = engine.execute_statement(ids[kind], values).unwrap();
        let expected = Executor.execute_bound(&mut oracle, &modified[kind], values);
        assert_eq!(
            out.outcome, expected,
            "{mode:?}: template {kind} {values:?}"
        );
        assert!(
            engine.database().state_eq(&oracle),
            "{mode:?}: post-state diverged on template {kind} {values:?}"
        );
    }
}

fn values_of(step: &Step) -> Vec<Value> {
    let names = ["pils", "stout", "ale", "bock", "lager"];
    let breweries = ["heineken", "guinness", "nowhere", "atlantis"];
    vec![
        Value::str(names[step.1]),
        Value::str("style"),
        Value::str(breweries[step.2]),
        Value::double(step.3 as f64 / 2.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For a random stream of bindings over insert and delete templates,
    /// `prepare` + `bind` + `execute_prepared` and ad-hoc `execute` of
    /// the substituted source agree on every verdict and on every
    /// intermediate state, in all four enforcement modes — and after the
    /// first call every prepared execution reuses the plan.
    #[test]
    fn prepared_equals_adhoc_in_all_modes(workload in steps()) {
        for mode in MODES {
            let mut prepared_engine = constrained(mode);
            let mut adhoc_engine = constrained(mode);
            let ins_src = insert_template();
            let del_src = delete_template();
            let ins = prepared_engine.store_statement(prepared_engine.prepare(&ins_src).unwrap());
            let del = prepared_engine.store_statement(prepared_engine.prepare(&del_src).unwrap());
            for step in &workload {
                let values = values_of(step);
                let (id, src) = if step.0 { (ins, &ins_src) } else { (del, &del_src) };
                let out_p = prepared_engine.execute_statement(id, &values).unwrap();
                prop_assert!(out_p.reused_plan, "{mode:?}: plan must be reused");
                // The semantic reference: the source template with the
                // binding substituted, executed ad hoc (ModT runs on it).
                let ground = src.bind_params(&values);
                prop_assert_eq!(ground.param_count(), 0);
                let out_a = adhoc_engine.execute(&ground).unwrap();
                prop_assert_eq!(
                    out_p.committed(),
                    out_a.committed(),
                    "{:?}: verdicts diverged on {:?}",
                    mode,
                    step
                );
            }
            for rel in ["beer", "brewery"] {
                prop_assert_eq!(
                    prepared_engine.relation(rel).unwrap().sorted_tuples(),
                    adhoc_engine.relation(rel).unwrap().sorted_tuples(),
                    "{:?}: state of `{}` diverged",
                    mode,
                    rel
                );
            }
            // Both engines end consistent (enforcing modes) — the usual
            // ground-truth check.
            if mode != EnforcementMode::Off {
                prop_assert!(prepared_engine.check_state().unwrap().is_empty());
            }
        }
    }

    /// Ad-hoc `Engine::execute` agrees with the generic-executor oracle in
    /// all four modes, and once more on a durable engine — whose log must
    /// then recover to the same state.
    #[test]
    fn adhoc_equals_raw_modified_transaction_on_generic_executor(workload in steps()) {
        for mode in MODES {
            assert_adhoc_matches_generic_oracle(&mut constrained(mode), &workload);
        }
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("adhoc-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = constrained(EnforcementMode::Static);
        durable.config_mut().durability.level = Durability::Buffered;
        durable.make_durable(&dir).unwrap();
        assert_adhoc_matches_generic_oracle(&mut durable, &workload);
        let live = durable.database().clone();
        drop(durable); // flushes the buffered log
        let recovered = Engine::recover(&dir).unwrap().engine;
        prop_assert!(recovered.database().state_eq(&live), "recovered state diverged");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ConcurrentSession::execute_prepared` runs exactly what
    /// `Session::execute_prepared` runs, in all four modes, and once more
    /// on a durable engine — whose log must then recover to the same
    /// state.
    #[test]
    fn concurrent_session_equals_session_in_all_modes(workload in steps()) {
        for mode in MODES {
            assert_concurrent_session_matches_session(
                constrained(mode),
                &mut constrained(mode),
                &workload,
            );
        }
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("concurrent-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = constrained(EnforcementMode::Static);
        durable.config_mut().durability.level = Durability::Buffered;
        durable.make_durable(&dir).unwrap();
        let durable = assert_concurrent_session_matches_session(
            durable,
            &mut constrained(EnforcementMode::Static),
            &workload,
        );
        let live = durable.database().clone();
        drop(durable); // flushes the buffered log
        let recovered = Engine::recover(&dir).unwrap().engine;
        prop_assert!(recovered.database().state_eq(&live), "recovered state diverged");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Prepared plans carrying compensating copies (`insert(t, r@ins)`,
    /// `delete(t, r@del)`) agree with the generic-executor oracle on every
    /// verdict, abort reason, `ExecStats` and state, in all four modes —
    /// and once more on a `Buffered` durable engine, whose log must then
    /// recover to the same state.
    #[test]
    fn compensating_copies_prepared_equal_generic_oracle(
        workload in prop::collection::vec((0..4usize, 0..4i64, -1..2i64, 0..4i64, -1..2i64), 1..12),
    ) {
        for mode in MODES {
            assert_mirrored_prepared_matches_generic(&mut mirrored(mode), &workload);
        }
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("mirrored-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = mirrored(EnforcementMode::Static);
        durable.config_mut().durability.level = Durability::Buffered;
        durable.make_durable(&dir).unwrap();
        assert_mirrored_prepared_matches_generic(&mut durable, &workload);
        let live = durable.database().clone();
        drop(durable); // flushes the buffered log
        let recovered = Engine::recover(&dir).unwrap().engine;
        prop_assert!(recovered.database().state_eq(&live), "recovered state diverged");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `BoundTransaction::substituted` denotes the same ground
    /// transaction the executor runs: the substituted *modified template*
    /// (appended checks included), executed verbatim on a twin engine in
    /// `Off` mode (no further modification), gives the same verdict as
    /// the zero-copy prepared-plan path.
    #[test]
    fn substituted_form_is_the_executed_semantics(workload in steps()) {
        let mut a = constrained(EnforcementMode::Static);
        let mut b = constrained(EnforcementMode::Off);
        let prepared = a.prepare(&insert_template()).unwrap();
        for step in workload.iter().filter(|s| s.0) {
            let values = values_of(step);
            let bound = prepared.bind(&values).unwrap();
            let ground = bound.substituted();
            let out_a = a.execute_bound(&bound).unwrap();
            let raw = b.execute(&ground).unwrap();
            prop_assert_eq!(out_a.committed(), raw.committed());
        }
        prop_assert_eq!(
            a.relation("beer").unwrap().sorted_tuples(),
            b.relation("beer").unwrap().sorted_tuples()
        );
    }
}

#[test]
fn rule_added_after_prepare_is_enforced_session_level() {
    // Only the domain rule exists at prepare time.
    let mut e = beer_engine(EnforcementMode::Static);
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e.load("brewery", vec![Tuple::of(("guinness", "dublin", "ie"))])
        .unwrap();
    let id = e.store_statement(e.prepare(&insert_template()).unwrap());
    // The prepare-time plan is already specialized: the parameterized
    // insert reduces the domain rule to a single point probe over the
    // `?i` bindings (a parameterized row cannot be constant-folded away,
    // so it is probed, not dropped).
    {
        let spec = e.statement(id).unwrap().specialization();
        assert!(spec.enabled);
        assert_eq!(spec.probed(), 1);
        assert_eq!(spec.decisions.len(), 1);
        assert_eq!(spec.decisions[0].rule, "dom");
        assert!(matches!(
            spec.decisions[0].outcome,
            SpecOutcome::Probe { statements: 1 }
        ));
    }

    let good = vec![
        Value::str("pils"),
        Value::str("lager"),
        Value::str("guinness"),
        Value::double(5.0),
    ];
    let orphan = vec![
        Value::str("ghost"),
        Value::str("ale"),
        Value::str("atlantis"),
        Value::double(5.0),
    ];
    // Without the referential rule, the orphan would commit.
    let out = e.execute_statement(id, &good).unwrap();
    assert!(out.committed() && out.reused_plan);

    // A rule defined after the statement was stored stales its plan.
    e.define_constraint(
        "ref",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
    )
    .unwrap();
    let out = e.execute_statement(id, &orphan).unwrap();
    assert!(
        !out.committed(),
        "stale plan must be re-modified: new rule enforced"
    );
    assert!(!out.reused_plan, "the refresh call re-ran ModT");
    assert!(out.modification.rounds >= 1);
    // The refresh re-specialized against the grown catalog: the new
    // referential rule landed in the specialized check set as a point
    // probe alongside the domain probe — not as a generic join.
    {
        let spec = e.statement(id).unwrap().specialization();
        assert_eq!(spec.probed(), 2, "both rules must be probes: {spec}");
        assert_eq!(spec.generic(), 0);
        let rules: Vec<&str> = spec.decisions.iter().map(|d| d.rule.as_str()).collect();
        assert!(
            rules.contains(&"dom") && rules.contains(&"ref"),
            "{rules:?}"
        );
    }
    assert_eq!(out.checks.probed, 2);
    assert_eq!(out.checks.evaluated, 0);
    // The refreshed plan is stored: the next call reuses it.
    let out = e
        .execute_statement(
            id,
            &[
                Value::str("stout"),
                Value::str("stout"),
                Value::str("guinness"),
                Value::double(4.2),
            ],
        )
        .unwrap();
    assert!(out.committed() && out.reused_plan);
    assert_eq!(out.checks.probed, 2, "reused plan reports its probes");
    assert_eq!(e.relation("beer").unwrap().len(), 2);
    assert!(e.check_state().unwrap().is_empty());
}

#[test]
fn caller_held_stale_plan_is_remodified_per_call() {
    let mut e = beer_engine(EnforcementMode::Static);
    e.load("brewery", vec![Tuple::of(("guinness", "dublin", "ie"))])
        .unwrap();
    let prepared = e.prepare(&insert_template()).unwrap();
    assert!(!prepared.is_stale(&e));
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    assert!(prepared.is_stale(&e), "catalog change must stale the plan");

    let bad = prepared
        .bind(&[
            Value::str("bad"),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(-1.0),
        ])
        .unwrap();
    let out = e.execute_bound(&bad).unwrap();
    assert!(!out.committed(), "re-modified plan enforces the new rule");
    assert!(!out.reused_plan);
    // The caller's Prepared does not hold what ran, so the outcome does.
    let executed = out.modified.expect("stale path reports the fresh plan");
    assert!(executed.to_string().contains("alarm"));
    // The fresh plan built for the stale call was specialized too: the
    // new rule shows up as a point probe in the outcome's check summary.
    assert_eq!(out.checks.probed, 1);
    assert_eq!(out.checks.evaluated, 0);

    // Re-preparing clears the staleness and reuses thereafter.
    let prepared = e.prepare(prepared.source()).unwrap();
    assert_eq!(prepared.specialization().probed(), 1);
    assert!(matches!(
        prepared.specialization().decisions[0].outcome,
        SpecOutcome::Probe { statements: 1 }
    ));
    let good = prepared
        .bind(&[
            Value::str("good"),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(2.0),
        ])
        .unwrap();
    let out = e.execute_bound(&good).unwrap();
    assert!(out.committed() && out.reused_plan);
}

#[test]
fn session_snapshots_are_consistent_cow_reads() {
    let mut e = constrained(EnforcementMode::Static);
    let id = e.store_statement(e.prepare(&insert_template()).unwrap());
    let before = e.database().clone();
    assert_eq!(before.relation("beer").unwrap().len(), 0);

    for i in 0..10 {
        let out = e
            .execute_statement(
                id,
                &[
                    Value::str(format!("beer{i}")),
                    Value::str("lager"),
                    Value::str("heineken"),
                    Value::double(5.0),
                ],
            )
            .unwrap();
        assert!(out.committed());
    }
    // The old snapshot never saw the writes.
    assert_eq!(before.relation("beer").unwrap().len(), 0);
    let after = e.database().clone();
    assert_eq!(after.relation("beer").unwrap().len(), 10);
    // Snapshots are O(#relations) COW clones: the untouched relation
    // still shares physical storage with the live state; the touched one
    // shares between two snapshots taken without intervening writes.
    assert!(after
        .relation("brewery")
        .unwrap()
        .shares_storage(e.relation("brewery").unwrap()));
    assert!(after
        .relation("beer")
        .unwrap()
        .shares_storage(e.database().clone().relation("beer").unwrap()));
}

#[test]
fn templates_cannot_run_unbound() {
    // Engine level: ad-hoc execution of a template is a bind-arity error.
    let mut e = constrained(EnforcementMode::Static);
    let err = e.execute(&insert_template()).unwrap_err();
    assert!(matches!(
        err,
        EngineError::ParamArity {
            expected: 4,
            got: 0
        }
    ));

    // Executor level: a raw template aborts with the dedicated error.
    let mut db = tm_relational::Database::new(tm_relational::schema::beer_schema().into_shared());
    let out = Executor.execute(&mut db, &insert_template());
    match out {
        TxOutcome::Aborted {
            reason: AbortReason::RuntimeError(AlgebraError::UnboundParam(0)),
            ..
        } => {}
        other => panic!("expected UnboundParam abort, got {other:?}"),
    }
    // And a short binding leaves the later placeholders unbound.
    let out = Executor.execute_bound(&mut db, &insert_template(), &[Value::str("x")]);
    match out {
        TxOutcome::Aborted {
            reason: AbortReason::RuntimeError(AlgebraError::UnboundParam(1)),
            ..
        } => {}
        other => panic!("expected UnboundParam(1) abort, got {other:?}"),
    }
}

#[test]
fn prepared_execution_reports_prepare_time_trace_once() {
    let mut e = constrained(EnforcementMode::Static);
    let id = e.store_statement(e.prepare(&insert_template()).unwrap());
    // The ModT work lives on the prepared statement…
    assert_eq!(e.statement(id).unwrap().modification().rounds, 1);
    assert_eq!(e.statement(id).unwrap().modification().rules_fired.len(), 2);
    // …and a reusing execution reports an empty per-execution trace.
    let out = e
        .execute_statement(
            id,
            &[
                Value::str("pils"),
                Value::str("lager"),
                Value::str("heineken"),
                Value::double(5.0),
            ],
        )
        .unwrap();
    assert!(out.committed());
    assert!(out.reused_plan);
    assert_eq!(out.modification.rounds, 0);
    assert!(out.modified.is_none());
}

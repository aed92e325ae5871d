//! Soundness harness for catalog static analysis.
//!
//! The analyzer makes three kinds of claims, each of which must be
//! semantically invisible at runtime:
//!
//! * **A002 (dead rule)** — a rule whose violation predicate is refuted
//!   can never fire: adding it to a catalog changes no verdict and no
//!   final state.
//! * **A003 (subsumed rule)** — removing a subsumed rule preserves
//!   every verdict and every final state, because the subsuming rule
//!   aborts whenever the subsumed one would have.
//! * **Termination certificates** — a catalog whose refined triggering
//!   graph is acyclic runs to a fixpoint with the round budget demoted
//!   to a debug assertion, and semantic refinement skips only
//!   selections that are provably no-ops.
//!
//! The first two are tested property-style over random transaction
//! streams in all three enforcement modes; the certificate claims are
//! tested on the syntactically-cyclic repair catalog that refinement
//! proves terminating, plus a budget-exhaustion case whose error must
//! name the surviving cycle.

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{CmpOp, ScalarExpr, Transaction};
use tm_paper::oracle;
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, ValueType};
use txmod::engine::beer_engine;
use txmod::{AnalysisCode, EnforcementMode, Engine, EngineConfig, EngineError};

const MODES: [EnforcementMode; 3] = [
    EnforcementMode::Off,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

const ENFORCING: [EnforcementMode; 2] = [EnforcementMode::Static, EnforcementMode::Differential];

fn stock_schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![RelationSchema::of(
        "stock",
        &[("item", ValueType::Int), ("qty", ValueType::Int)],
    )])
    .unwrap()
}

fn engine_with(mode: EnforcementMode, rules: &[(&str, &str)]) -> Engine {
    let mut e = Engine::with_config(
        stock_schema(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    for (name, text) in rules {
        e.add_rule_text(text, name).unwrap();
    }
    e
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..10i64, -20..30i64).prop_map(|(i, q)| Op::Insert(i, q)),
        (0..10i64).prop_map(Op::Delete),
    ]
}

fn build_tx(ops: &[Op]) -> Transaction {
    let mut b = TransactionBuilder::new();
    for op in ops {
        b = match op {
            Op::Insert(i, q) => b.insert_tuple("stock", Tuple::of((*i, *q))),
            Op::Delete(i) => b.delete_where(
                "stock",
                ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::int(*i)),
            ),
        };
    }
    b.build()
}

const LIVE: (&str, &str) = (
    "live",
    "WHEN INS(stock) IF NOT forall x (x in stock implies x.qty >= 0) THEN abort",
);
const DEAD: (&str, &str) = (
    "dead",
    "WHEN INS(stock) IF NOT forall x (x in stock implies x.qty < 5 or x.qty >= 5) THEN abort",
);
const TIGHT: (&str, &str) = (
    "tight",
    "WHEN INS(stock) IF NOT forall x (x in stock implies x.qty >= 10) THEN abort",
);
const LOOSE: (&str, &str) = (
    "loose",
    "WHEN INS(stock) IF NOT forall x (x in stock implies x.qty >= 0) THEN abort",
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A rule the analyzer flags A002 (tautological constraint, dead
    /// rule) never changes a verdict or a final state, in any mode.
    #[test]
    fn dead_rules_never_fire(
        txs in prop::collection::vec(prop::collection::vec(op_strategy(), 1..6), 1..6),
    ) {
        for mode in MODES {
            let mut with_dead = engine_with(mode, &[LIVE, DEAD]);
            let mut without = engine_with(mode, &[LIVE]);
            prop_assert!(with_dead.validate_full().has(AnalysisCode::TautologicalConstraint, "dead"));
            for ops in &txs {
                let tx = build_tx(ops);
                let a = with_dead.execute(&tx).unwrap();
                let b = without.execute(&tx).unwrap();
                prop_assert_eq!(a.committed(), b.committed(), "{:?} {}", mode, tx);
            }
            prop_assert_eq!(
                with_dead.relation("stock").unwrap(),
                without.relation("stock").unwrap(),
                "{:?}", mode
            );
        }
    }

    /// Removing a rule the analyzer flags A003 (subsumed) preserves
    /// every verdict and every final state, in any mode.
    #[test]
    fn removing_subsumed_rule_preserves_behaviour(
        txs in prop::collection::vec(prop::collection::vec(op_strategy(), 1..6), 1..6),
    ) {
        for mode in MODES {
            let mut both = engine_with(mode, &[TIGHT, LOOSE]);
            let mut tight_only = engine_with(mode, &[TIGHT]);
            prop_assert!(both.validate_full().has(AnalysisCode::SubsumedBy, "loose"));
            for ops in &txs {
                let tx = build_tx(ops);
                let a = both.execute(&tx).unwrap();
                let b = tight_only.execute(&tx).unwrap();
                prop_assert_eq!(a.committed(), b.committed(), "{:?} {}", mode, tx);
            }
            prop_assert_eq!(
                both.relation("stock").unwrap(),
                tight_only.relation("stock").unwrap(),
                "{:?}", mode
            );
        }
    }
}

// ---------------------------------------------------------------------
// Termination certificates.
// ---------------------------------------------------------------------

fn repair_schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("v", ValueType::Int)]),
        RelationSchema::of("s", &[("m", ValueType::Int)]),
        RelationSchema::of("log", &[("code", ValueType::Int)]),
    ])
    .unwrap()
}

const REPAIR_RULES: [(&str, &str); 3] = [
    (
        "clamp",
        "WHEN INS(r), DEL(s) IF NOT forall x (x in r implies x.v >= 0) \
         THEN delete(r, select[#0 < 0](r)); insert(log, {(0)})",
    ),
    (
        "mark",
        "WHEN DEL(r) IF NOT forall y (y in s implies y.m >= 0) \
         THEN delete(s, select[#0 < 0](s))",
    ),
    (
        "logcheck",
        "WHEN INS(log) IF NOT forall z (z in log implies z.code >= 0) THEN abort",
    ),
];

fn repair_engine(mode: EnforcementMode, max_rounds: usize) -> Engine {
    // allow_cycles stays FALSE: the catalog is syntactically cyclic,
    // and it is the semantic refinement that admits it.
    let mut e = Engine::with_config(
        repair_schema(),
        EngineConfig {
            mode,
            max_rounds,
            ..EngineConfig::default()
        },
    );
    for (name, text) in REPAIR_RULES {
        e.add_rule_text(text, name).unwrap();
    }
    e
}

/// The syntactically cyclic repair catalog is admitted under the
/// default cycle-rejecting config, certified terminating, and its
/// pruned edges carry A004 provenance.
#[test]
fn refined_cyclic_catalog_is_certified() {
    let e = repair_engine(EnforcementMode::Static, 32);
    // Syntactic validation still sees the clamp/mark cycle...
    assert!(e.validate().has_cycles());
    // ...but the semantic report proves it false.
    let report = e.validate_full();
    assert!(report.certificate.certified, "{report}");
    assert!(!report.certificate.syntactic_cycles.is_empty());
    assert!(report.certificate.refined_cycles.is_empty());
    assert_eq!(report.certificate.pruned.len(), 3, "{report}");
    assert!(report.has(AnalysisCode::FalseEdgePruned, "clamp"));
    assert!(report.has(AnalysisCode::FalseEdgePruned, "mark"));
    assert_eq!(report.syntactic_edges, 3);
    assert_eq!(report.refined_edges, 0);
}

/// The certified catalog runs with `max_rounds: 1` even though its
/// repairs recurse past round 1 — the budget guard is provably
/// unreachable and skipped. All enforcing modes agree on the repaired
/// state, and the refinement skips are genuine no-ops (ground truth
/// stays clean).
#[test]
fn certificate_disarms_round_budget() {
    for mode in ENFORCING {
        let mut e = repair_engine(mode, 1);
        e.load("s", vec![Tuple::of((1_i64,))]).unwrap();
        let tx = TransactionBuilder::new()
            .insert_tuple("r", Tuple::of((-5_i64,)))
            .build();
        let out = e.execute(&tx).unwrap();
        assert!(out.committed(), "{mode:?}: {out}");
        // clamp repaired the negative insert; mark and logcheck were
        // reachable only over pruned edges and were skipped.
        assert_eq!(e.relation("r").unwrap().len(), 0, "{mode:?}");
        assert_eq!(e.relation("s").unwrap().len(), 1, "{mode:?}");
        assert_eq!(e.relation("log").unwrap().len(), 1, "{mode:?}");
        assert!(oracle::check_state(&e).unwrap().is_empty(), "{mode:?}");
    }
}

/// A certified *acyclic* chain (a → b → c) whose recursion needs three
/// rounds also runs under `max_rounds: 1`: the certificate, not the
/// budget, is what bounds certified catalogs.
#[test]
fn certified_chain_exceeds_budget_safely() {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of("a", &[("x", ValueType::Int)]),
        RelationSchema::of("b", &[("x", ValueType::Int)]),
        RelationSchema::of("c", &[("x", ValueType::Int)]),
    ])
    .unwrap();
    for mode in ENFORCING {
        let mut e = Engine::with_config(
            schema.clone(),
            EngineConfig {
                mode,
                max_rounds: 1,
                ..EngineConfig::default()
            },
        );
        e.add_rule_text("WHEN INS(a) IF NOT 1 = 1 THEN insert(b, a@ins)", "a_to_b")
            .unwrap();
        e.add_rule_text("WHEN INS(b) IF NOT 1 = 1 THEN insert(c, b@ins)", "b_to_c")
            .unwrap();
        assert!(e.validate_full().certificate.certified);
        let tx = TransactionBuilder::new()
            .insert_tuple("a", Tuple::of((1_i64,)))
            .build();
        let out = e.execute(&tx).unwrap();
        assert!(out.committed(), "{mode:?}");
        assert_eq!(out.modification.unwrap().rounds, 2, "{mode:?}");
        assert_eq!(e.relation("c").unwrap().len(), 1, "{mode:?}");
    }
}

/// An unprovable cycle admitted via `allow_cycles` keeps the budget
/// armed; exhausting it reports the surviving cycle path, and the
/// analysis flags it A005 up front.
#[test]
fn unproven_cycle_keeps_budget_and_names_cycle() {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("v", ValueType::Int)]),
        RelationSchema::of("s", &[("m", ValueType::Int)]),
    ])
    .unwrap();
    let mut e = Engine::with_config(
        schema,
        EngineConfig {
            allow_cycles: true,
            max_rounds: 4,
            ..EngineConfig::default()
        },
    );
    e.add_rule_text(
        "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN insert(s, r@ins)",
        "ping",
    )
    .unwrap();
    e.add_rule_text(
        "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN insert(r, s@ins)",
        "pong",
    )
    .unwrap();
    let report = e.validate_full();
    assert!(!report.certificate.certified);
    assert!(
        report.has(AnalysisCode::UnprovenTermination, "ping"),
        "{report}"
    );
    let tx = TransactionBuilder::new()
        .insert_tuple("r", Tuple::of((1_i64,)))
        .build();
    let err = e.execute(&tx).unwrap_err();
    assert!(
        matches!(err, EngineError::ModificationDiverged { rounds: 4, .. }),
        "{err:?}"
    );
    let rendered = err.to_string();
    assert!(
        rendered.contains("ping -> pong -> ping"),
        "diverged error must name the unproven cycle: {rendered}"
    );
}

/// Refinement drops are visible in the specialization provenance: the
/// skipped selections of the repair catalog are recorded as dropped
/// decisions with a refinement proof.
#[test]
fn refinement_skips_are_recorded_as_drops() {
    let e = repair_engine(EnforcementMode::Static, 32);
    let tx = TransactionBuilder::new()
        .insert_tuple("r", Tuple::of((-5_i64,)))
        .build();
    let prepared = e.prepare(&tx).unwrap();
    let report = prepared.modification();
    let dropped: Vec<&str> = report
        .decisions
        .iter()
        .filter(|d| matches!(d.outcome, txmod::SpecOutcome::Dropped { .. }))
        .map(|d| d.rule.as_str())
        .collect();
    assert!(
        dropped.contains(&"mark") && dropped.contains(&"logcheck"),
        "round-2 selections must be refinement drops: {dropped:?}"
    );
}

/// A rule that would make the refined graph cyclic is rejected under
/// `allow_cycles: false`, and the add-then-remove leaves the analysis
/// exactly as it was: same report, same trigger index, and later
/// declarations line up with the rules they name.
#[test]
fn rejected_cycle_leaves_the_analysis_as_it_was() {
    let mut e = repair_engine(EnforcementMode::Static, 32);
    e.add_rule_text(
        "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 10) THEN abort",
        "tight",
    )
    .unwrap();
    e.add_rule_text(
        "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN abort",
        "loose",
    )
    .unwrap();
    e.add_rule_text(
        "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN insert(s, r@ins)",
        "ping",
    )
    .unwrap();
    let before = e.validate_full();
    assert!(before.certificate.certified, "{before}");
    assert!(before.has(AnalysisCode::SubsumedBy, "loose"), "{before}");

    let err = e
        .add_rule_text(
            "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN insert(r, s@ins)",
            "pong",
        )
        .unwrap_err();
    match &err {
        EngineError::TriggeringCycle(cycles) => {
            assert_eq!(cycles, &[vec!["ping", "pong", "ping"]], "{err}");
        }
        other => panic!("expected a triggering cycle, got {other:?}"),
    }
    assert_eq!(e.validate_full(), before);
    assert!(e.catalog().rule("pong").is_none());
    let index = |e: &Engine| {
        tm_rules::TriggerIndex::build(e.catalog().rules().iter().map(|r| r.triggers()))
    };
    assert_eq!(e.catalog().trigger_index(), &index(&e));

    // The same name declared acyclically afterwards, then a removal
    // below it: positions still line up.
    e.add_rule_text(
        "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN abort",
        "pong",
    )
    .unwrap();
    assert!(e.remove_rule("tight").unwrap());
    let after = e.validate_full();
    assert!(after.certificate.certified, "{after}");
    assert!(!after.has(AnalysisCode::SubsumedBy, "loose"), "{after}");
    assert_eq!(e.catalog().trigger_index(), &index(&e));
    assert_eq!(
        e.catalog().rule("pong").map(|r| r.to_string()),
        e.catalog().rules().last().map(|r| r.to_string())
    );
}

/// An aggregate reads relations other than the one it constrains: an
/// action that never writes `beer` can still violate
/// `x.alcohol >= CNT(brewery)` by inserting breweries. The edge from
/// such an action into the aggregate check must survive refinement, and
/// every enforcing mode must abort the transaction that fires it.
#[test]
fn edges_into_aggregate_conditions_are_never_pruned() {
    for mode in ENFORCING {
        let mut e = beer_engine(mode);
        e.load("beer", vec![Tuple::of(("old", "ale", "b0", 1.0_f64))])
            .unwrap();
        e.define_constraint(
            "agg2",
            "forall x (x in beer implies x.alcohol >= CNT(brewery))",
        )
        .unwrap();
        e.add_rule_text(
            "WHEN INS(beer) IF NOT 1 = 1 \
             THEN insert(brewery, {('b1', 'c', 'd'), ('b2', 'c', 'd')})",
            "comp",
        )
        .unwrap();
        let report = e.validate_full();
        assert!(
            !report
                .certificate
                .pruned
                .iter()
                .any(|p| p.from == "comp" && p.to == "agg2"),
            "{mode:?}: the edge comp -> agg2 must survive refinement: {report}"
        );
        let tx = TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("n", "t", "b", 5.0_f64)))
            .build();
        let out = e.execute(&tx).unwrap();
        assert!(
            !out.committed(),
            "{mode:?}: two new breweries leave the 1.0 beer below CNT(brewery)"
        );
        assert_eq!(
            oracle::check_state(&e).unwrap(),
            Vec::<String>::new(),
            "{mode:?}"
        );
    }
}

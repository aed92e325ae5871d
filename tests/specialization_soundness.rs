//! Differential soundness harness for prepare-time constraint
//! specialization.
//!
//! The specializer rewrites the checks `ModT` appends to a transaction:
//! rules the template provably cannot violate are dropped with a proof,
//! domain and referential checks over enumerable insert differentials
//! are reduced to per-row point probes, and everything else is kept
//! generic. The claim is that the rewrite is *semantically invisible* —
//! a specialized plan commits, aborts, and mutates the database exactly
//! as the generic plan would.
//!
//! This harness tests the claim differentially: twin engines, identical
//! except for [`EngineConfig::specialize`], over random catalogs ×
//! random parameterized templates × random bindings (and separately
//! random ground transactions, which exercise the drop-proof path that
//! parameterized rows never take), in **all four** enforcement modes.
//! Verdicts and final states must agree step for step, and the
//! specialized engine must end in a consistent state under every
//! enforcing mode.

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{CmpOp, ScalarExpr, Transaction};
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use txmod::{CheckSummary, EnforcementMode, Engine, EngineConfig};

const MODES: [EnforcementMode; 4] = [
    EnforcementMode::Off,
    EnforcementMode::Dynamic,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of(
            "parent",
            &[("key", ValueType::Int), ("cap", ValueType::Int)],
        ),
        RelationSchema::of(
            "child",
            &[
                ("id", ValueType::Int),
                ("fk", ValueType::Int),
                ("amount", ValueType::Int),
            ],
        ),
    ])
    .unwrap()
}

/// The constraint pool. The first three specialize (two reducible
/// shapes plus a generic aggregate); the rest stay generic (nested
/// quantification, transition constraint, aggregate), so every random
/// catalog mixes dropped, probed, and generic provenance.
fn constraint_pool() -> Vec<(&'static str, &'static str)> {
    vec![
        ("domain", "forall x (x in child implies x.amount >= 0)"),
        (
            "referential",
            "forall x (x in child implies exists y (y in parent and x.fk = y.key))",
        ),
        ("cap_count", "CNT(child) <= 12"),
        (
            "exclusion",
            "forall x (x in parent implies forall y (y in child implies x.key != y.amount))",
        ),
        (
            "persist",
            "forall x (x in parent@pre implies exists y (y in parent and x == y))",
        ),
        ("sum_cap", "SUM(child, amount) <= 600"),
    ]
}

fn seed_engine(
    mode: EnforcementMode,
    specialize: bool,
    constraints: &[usize],
    n_parents: usize,
    n_children: usize,
) -> Engine {
    let mut e = Engine::with_config(
        schema(),
        EngineConfig {
            mode,
            specialize,
            ..EngineConfig::default()
        },
    );
    let pool = constraint_pool();
    for &i in constraints {
        let (name, src) = pool[i];
        e.define_constraint(name, src).unwrap();
    }
    e.load(
        "parent",
        (0..n_parents as i64).map(|k| Tuple::of((k, 100 + k))),
    )
    .unwrap();
    e.load(
        "child",
        (0..n_children as i64).map(|i| Tuple::of((i, i % n_parents.max(1) as i64, 30 + i))),
    )
    .unwrap();
    e
}

/// The template pool: every shape the specializer distinguishes.
/// Parameterized inserts become point probes, parameterized deletes
/// poison the differential (generic fallback), and the mixed template
/// carries one constant row (drop-proof candidate) next to a
/// parameterized one (probe).
fn template(kind: usize) -> Transaction {
    match kind {
        0 => TransactionBuilder::new().insert_params("child", 3).build(),
        1 => TransactionBuilder::new().insert_params("parent", 2).build(),
        2 => TransactionBuilder::new().delete_params("child", 3).build(),
        _ => TransactionBuilder::new()
            .insert_tuple("child", Tuple::of((90_i64, 0_i64, 45_i64)))
            .insert_params("child", 3)
            .build(),
    }
}

fn values_of(kind: usize, step: (i64, i64, i64)) -> Vec<Value> {
    match kind {
        // parent(key, cap): keys overlap the seed range so exclusion and
        // duplicate keys come up; caps are unconstrained.
        1 => vec![Value::Int(step.0 % 8), Value::Int(step.2)],
        // child(id, fk, amount): fk = -1 and fk >= n_parents are orphans,
        // negative amounts violate the domain rule.
        _ => vec![Value::Int(step.0), Value::Int(step.1), Value::Int(step.2)],
    }
}

#[derive(Debug, Clone)]
enum Op {
    InsertParent(i64, i64),
    InsertChild(i64, i64, i64),
    DeleteParent(i64),
    DeleteChild(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..8i64, 0..5i64).prop_map(|(k, c)| Op::InsertParent(k, c)),
        (0..20i64, -1..8i64, -3..60i64).prop_map(|(i, f, a)| Op::InsertChild(i, f, a)),
        (0..8i64).prop_map(Op::DeleteParent),
        (0..20i64).prop_map(Op::DeleteChild),
    ]
}

fn build_tx(ops: &[Op]) -> Transaction {
    let mut b = TransactionBuilder::new();
    for op in ops {
        b = match op {
            Op::InsertParent(k, c) => b.insert_tuple("parent", Tuple::of((*k, *c))),
            Op::InsertChild(i, f, a) => b.insert_tuple("child", Tuple::of((*i, *f, *a))),
            Op::DeleteParent(k) => b.delete_where(
                "parent",
                ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::int(*k)),
            ),
            Op::DeleteChild(i) => b.delete_where(
                "child",
                ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::int(*i)),
            ),
        };
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random catalogs × random parameterized templates × random binding
    /// streams: the specialized prepared plan and generic ad-hoc
    /// execution of the substituted source agree on every verdict and on
    /// the final state, in all four enforcement modes.
    #[test]
    fn specialized_prepared_plans_are_semantically_invisible(
        kind in 0usize..4,
        cons in prop::collection::vec(0usize..6, 1..4),
        steps in prop::collection::vec((0..20i64, -1..8i64, -3..60i64), 1..10),
        n_parents in 1usize..6,
        n_children in 0usize..8,
    ) {
        let mut cons = cons;
        cons.sort_unstable();
        cons.dedup();
        let src = template(kind);
        for mode in MODES {
            let mut spec_engine = seed_engine(mode, true, &cons, n_parents, n_children);
            let mut gen_engine = seed_engine(mode, false, &cons, n_parents, n_children);
            let id = spec_engine.store_statement(spec_engine.prepare(&src).unwrap());
            for step in &steps {
                let values = values_of(kind, *step);
                let out_s = spec_engine.execute_statement(id, &values).unwrap();
                prop_assert!(out_s.reused_plan, "{mode:?}: specialized plan must be reused");
                let ground = src.bind_params(&values);
                prop_assert_eq!(ground.param_count(), 0);
                let out_g = gen_engine.execute(&ground).unwrap();
                prop_assert_eq!(
                    out_s.committed(),
                    out_g.committed(),
                    "{:?} template {} step {:?}: specialized and generic verdicts diverged",
                    mode,
                    kind,
                    step
                );
            }
            for rel in ["parent", "child"] {
                prop_assert_eq!(
                    spec_engine.relation(rel).unwrap().sorted_tuples(),
                    gen_engine.relation(rel).unwrap().sorted_tuples(),
                    "{:?} template {}: state of `{}` diverged",
                    mode,
                    kind,
                    rel
                );
            }
            if mode != EnforcementMode::Off {
                prop_assert!(
                    spec_engine.check_state().unwrap().is_empty(),
                    "{mode:?}: specialized engine ended inconsistent"
                );
            }
        }
    }

    /// Random *ground* transactions — the only path where the drop proof
    /// can fire (constant rows fold; parameters never do): twin engines
    /// differing only in `specialize` agree on verdict and state.
    #[test]
    fn specialization_of_ground_transactions_is_invisible(
        ops in prop::collection::vec(op_strategy(), 1..8),
        cons in prop::collection::vec(0usize..6, 1..4),
        n_parents in 1usize..6,
        n_children in 0usize..8,
    ) {
        let tx = build_tx(&ops);
        let mut cons = cons;
        cons.sort_unstable();
        cons.dedup();
        for mode in MODES {
            let mut spec_engine = seed_engine(mode, true, &cons, n_parents, n_children);
            let mut gen_engine = seed_engine(mode, false, &cons, n_parents, n_children);
            let out_s = spec_engine.execute(&tx).unwrap();
            let out_g = gen_engine.execute(&tx).unwrap();
            prop_assert_eq!(
                out_s.committed(),
                out_g.committed(),
                "{:?}: verdicts diverged on {}",
                mode,
                tx
            );
            if mode == EnforcementMode::Off {
                // Off runs no checks: the summary must be all zeros.
                prop_assert_eq!(out_s.checks, CheckSummary::default());
            }
            for rel in ["parent", "child"] {
                prop_assert_eq!(
                    spec_engine.relation(rel).unwrap().sorted_tuples(),
                    gen_engine.relation(rel).unwrap().sorted_tuples(),
                    "{:?}: state of `{}` diverged",
                    mode,
                    rel
                );
            }
            if mode != EnforcementMode::Off {
                prop_assert!(spec_engine.check_state().unwrap().is_empty());
            }
        }
    }
}

/// A constant row whose weakest precondition folds to false is dropped
/// with a proof, and the drop is observable only in the check summary —
/// never in the verdict or the state.
#[test]
fn drop_proofs_spare_constant_safe_rows() {
    let mut spec = seed_engine(EnforcementMode::Static, true, &[0], 2, 0);
    let mut gen = seed_engine(EnforcementMode::Static, false, &[0], 2, 0);
    let tx = TransactionBuilder::new()
        .insert_tuple("child", Tuple::of((1_i64, 0_i64, 3_i64)))
        .build();
    let out_s = spec.execute(&tx).unwrap();
    let out_g = gen.execute(&tx).unwrap();
    assert!(out_s.committed() && out_g.committed());
    assert_eq!(out_s.checks.skipped, 1, "amount 3 >= 0 is a drop proof");
    assert_eq!(out_s.checks.probed, 0);
    assert_eq!(out_s.checks.evaluated, 0);
    // The generic twin evaluates the check it could have dropped.
    assert_eq!(out_g.checks.skipped, 0);
    assert_eq!(out_g.checks.evaluated, 1);
    assert_eq!(
        spec.relation("child").unwrap().sorted_tuples(),
        gen.relation("child").unwrap().sorted_tuples()
    );
}

/// In Static mode every catalog rule is accounted for exactly once:
/// `skipped + probed + evaluated` covers the whole catalog, with
/// untriggered rules counted as skipped.
#[test]
fn summary_accounts_for_every_catalog_rule() {
    // domain + referential (probes), cap_count (generic aggregate), and
    // a parent-only rule the child insert never triggers (skipped).
    let mut e = seed_engine(EnforcementMode::Static, true, &[0, 1, 2], 2, 0);
    e.define_constraint("parent_dom", "forall x (x in parent implies x.cap >= 0)")
        .unwrap();
    let template = TransactionBuilder::new().insert_params("child", 3).build();
    let id = e.store_statement(e.prepare(&template).unwrap());
    let out = e
        .execute_statement(id, &[Value::Int(1), Value::Int(0), Value::Int(5)])
        .unwrap();
    assert!(out.committed());
    assert_eq!(out.checks.skipped, 1, "parent_dom is untriggered");
    assert_eq!(
        out.checks.probed, 2,
        "domain and referential reduce to probes"
    );
    assert_eq!(out.checks.evaluated, 1, "the aggregate stays generic");
    assert_eq!(
        out.checks.skipped + out.checks.probed + out.checks.evaluated,
        4,
        "every catalog rule accounted for"
    );
}

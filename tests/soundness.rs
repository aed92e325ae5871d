//! Property tests of the paper's central correctness claim
//! (Definition 3.5 + Section 5.1): a transaction modified by `ModT`
//! commits **iff** its effect satisfies every declared constraint — and
//! when it aborts, the database is untouched.
//!
//! Strategy: random databases and random transactions over a two-relation
//! schema, a pool of aborting constraints (domain, referential, exclusion,
//! aggregate, transition), and a comparison of the engine's verdict
//! against the *direct semantic evaluation* of the constraints
//! (`tm-calculus`), which is an independent implementation path.

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{Executor, Transaction};
use tm_calculus::{analyze, parse_formula};
use tm_paper::oracle::{self, eval_constraint, TransitionSource};
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, ValueType};
use txmod::{EnforcementMode, Engine, EngineConfig};

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

/// The constraint pool: each entry is (name, CL source).
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
        (0..20i64, 0..10i64, -3..60i64).prop_map(|(i, f, a)| Op::InsertChild(i, f, a)),
        (0..8i64).prop_map(Op::DeleteParent),
        (0..20i64).prop_map(Op::DeleteChild),
    ]
}

/// Build a transaction from ops. Deletions use delete-where on the key.
fn build_tx(ops: &[Op]) -> Transaction {
    let mut b = TransactionBuilder::new();
    for op in ops {
        b = match op {
            Op::InsertParent(k, c) => b.insert_tuple("parent", Tuple::of((*k, *c))),
            Op::InsertChild(i, f, a) => b.insert_tuple("child", Tuple::of((*i, *f, *a))),
            Op::DeleteParent(k) => b.delete_where(
                "parent",
                tm_algebra::ScalarExpr::cmp(
                    tm_algebra::CmpOp::Eq,
                    tm_algebra::ScalarExpr::col(0),
                    tm_algebra::ScalarExpr::int(*k),
                ),
            ),
            Op::DeleteChild(i) => b.delete_where(
                "child",
                tm_algebra::ScalarExpr::cmp(
                    tm_algebra::CmpOp::Eq,
                    tm_algebra::ScalarExpr::col(0),
                    tm_algebra::ScalarExpr::int(*i),
                ),
            ),
        };
    }
    b.build()
}

/// Seed database: parents 0..n_parents, children with valid FKs and
/// non-negative amounts (so all constraints initially hold).
fn seed_engine(
    mode: EnforcementMode,
    constraints: &[usize],
    n_parents: usize,
    n_children: usize,
) -> Engine {
    let mut e = Engine::with_config(
        schema(),
        EngineConfig {
            mode,
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
        // cap values start at 100 so `exclusion` (key != amount) holds for
        // amounts < 60 range... parent.key in 0..n_parents (≤8), child
        // amounts can collide with keys; the seed uses amounts ≥ 30 to
        // keep the initial state consistent for all pool constraints.
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

/// Ground truth: does executing `tx` unmodified on a copy yield a
/// state/transition satisfying all selected constraints?
fn ground_truth(engine: &Engine, constraints: &[usize], tx: &Transaction) -> Option<bool> {
    let pool = constraint_pool();
    let before: Database = engine.database().clone();
    let mut scratch = before.clone();
    let outcome = Executor.execute(&mut scratch, tx);
    let transition = tm_relational::Transition::new(before, scratch);
    // A transaction that fails for runtime reasons (not integrity) is out
    // of scope for the comparison.
    if !outcome.is_committed() {
        return None;
    }
    let src = TransitionSource(&transition);
    let mut all_ok = true;
    for &i in constraints {
        let (_, cl) = pool[i];
        let info = analyze(&parse_formula(cl).unwrap(), engine.catalog().schema()).unwrap();
        match eval_constraint(&info, &src) {
            Ok(ok) => all_ok &= ok,
            Err(_) => return None, // e.g. aggregate over empty relation
        }
    }
    Some(all_ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The central theorem: engine verdict == ground truth, for every
    /// enforcement mode; aborts leave the state untouched; commits leave a
    /// state identical to unmodified execution (aborting rules add checks,
    /// never effects).
    #[test]
    fn modification_sound_and_complete(
        ops in prop::collection::vec(op_strategy(), 1..8),
        cons in prop::collection::vec(0usize..6, 1..4),
        n_parents in 1usize..6,
        n_children in 0usize..8,
    ) {
        let tx = build_tx(&ops);
        // Constraint subsets may repeat; dedup to avoid duplicate names.
        let mut cons = cons;
        cons.sort_unstable();
        cons.dedup();

        for mode in [
            EnforcementMode::Static,
            EnforcementMode::Differential,
        ] {
            let mut engine = seed_engine(mode, &cons, n_parents, n_children);
            // The seed state must satisfy the selected constraints (the
            // induction hypothesis of transaction modification).
            prop_assert!(
                oracle::check_state(&engine).unwrap().is_empty(),
                "seed state inconsistent for {cons:?}"
            );
            let Some(truth) = ground_truth(&engine, &cons, &tx) else {
                // Runtime error path: the engine must abort and preserve
                // the state.
                let before = engine.database().clone();
                let out = engine.execute(&tx).unwrap();
                prop_assert!(!out.committed());
                prop_assert!(engine.database().state_eq(&before));
                continue;
            };
            let before = engine.database().clone();
            let out = engine.execute(&tx).unwrap();
            prop_assert_eq!(
                out.committed(),
                truth,
                "mode {:?}: engine committed={} but ground truth={} (tx: {})",
                mode,
                out.committed(),
                truth,
                tx
            );
            if out.committed() {
                // Committed effect == unmodified effect (aborting rules
                // only observe).
                let mut scratch = before.clone();
                Executor.execute(&mut scratch, &tx);
                prop_assert!(engine.database().state_eq(&scratch));
            } else {
                prop_assert!(engine.database().state_eq(&before), "abort must roll back");
            }
        }
    }

    /// Both enforcing modes agree with each other on arbitrary inputs
    /// (they implement the same declarative specification).
    #[test]
    fn modes_agree(
        ops in prop::collection::vec(op_strategy(), 1..8),
        cons in prop::collection::vec(0usize..6, 1..4),
    ) {
        let tx = build_tx(&ops);
        let mut cons = cons;
        cons.sort_unstable();
        cons.dedup();
        let mut verdicts = Vec::new();
        let mut states = Vec::new();
        for mode in [
            EnforcementMode::Static,
            EnforcementMode::Differential,
        ] {
            let mut engine = seed_engine(mode, &cons, 4, 6);
            let out = engine.execute(&tx).unwrap();
            verdicts.push(out.committed());
            states.push(engine.database().clone());
        }
        prop_assert_eq!(verdicts[0], verdicts[1]);
        prop_assert!(states[0].state_eq(&states[1]));
    }
}

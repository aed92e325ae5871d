//! Property tests of the executor's auxiliary-relation invariants
//! (Section 4.1): after every statement, the differentials are the exact
//! net change so far —
//!
//! ```text
//! R@ins = R − R@pre        R@del = R@pre − R
//! (R@pre ∪ R@ins) − R@del = R        R@ins ∩ R@del = ∅
//! ```
//!
//! The invariants are asserted *from inside the transaction* using `alarm`
//! statements over set differences, interleaved with the writes: the
//! transaction commits iff every difference is empty at every statement
//! boundary. Reading the differentials between writes is what catches a
//! stale differential — one computed before a write and read after it.
//!
//! The same transactions also run as compiled plans, where each one-tuple
//! write is a point op and the updates and invariant alarms are `Generic`
//! ops: such a mixed plan must answer exactly as the all-`Generic`
//! reference, so a point write must drop a fold a `Generic` read made
//! before it.

use std::convert::Infallible;

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{ArithOp, CmpOp, ExecPlan, Executor, RelExpr, ScalarExpr, UpdateAssignment};
use tm_relational::{Database, DatabaseSchema, NetChange, RelationSchema, Tuple, ValueType};

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![RelationSchema::of("r", &[("a", ValueType::Int)])]).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(i64),
    /// `update(r, #0 >= k, #0 := #0 + d)`.
    Update(i64, i64),
    /// `delete(r, select[#0 < k](r))`.
    DeleteWhere(i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..10i64).prop_map(Op::Insert),
            (0..10i64).prop_map(Op::Delete),
            (0..10i64, -2..3i64).prop_map(|(k, d)| Op::Update(k, d)),
            (0..4i64).prop_map(Op::DeleteWhere),
        ],
        0..20,
    )
}

/// Append `op` to the transaction under construction.
fn push(b: TransactionBuilder, op: &Op) -> TransactionBuilder {
    let col = || ScalarExpr::col(0);
    match op {
        Op::Insert(v) => b.insert_tuple("r", Tuple::of((*v,))),
        Op::Delete(v) => b.delete_tuple("r", Tuple::of((*v,))),
        Op::Update(k, d) => b.update(
            "r",
            ScalarExpr::cmp(CmpOp::Ge, col(), ScalarExpr::int(*k)),
            vec![UpdateAssignment::new(
                0,
                ScalarExpr::arith(ArithOp::Add, col(), ScalarExpr::int(*d)),
            )],
        ),
        Op::DeleteWhere(k) => {
            b.delete_where("r", ScalarExpr::cmp(CmpOp::Lt, col(), ScalarExpr::int(*k)))
        }
    }
}

/// Append the §4.1 invariant checks for `r`: each alarm fires iff a
/// symmetric difference (or `r@ins ∩ r@del`) is non-empty.
fn assert_invariants(mut b: TransactionBuilder) -> TransactionBuilder {
    let ins = RelExpr::relation("r@ins");
    let del = RelExpr::relation("r@del");
    let pre = RelExpr::relation("r@pre");
    let r = RelExpr::relation("r");
    let pairs = [
        (ins.clone(), r.clone().difference(pre.clone())),
        (del.clone(), pre.clone().difference(r.clone())),
        (
            pre.clone().union(ins.clone()).difference(del.clone()),
            r.clone(),
        ),
    ];
    for (lhs, rhs) in pairs {
        b = b
            .alarm(lhs.clone().difference(rhs.clone()))
            .alarm(rhs.difference(lhs));
    }
    b.alarm(ins.intersect(del))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn differentials_are_net_changes(seed in prop::collection::vec(0..10i64, 0..10), operations in ops()) {
        let mut db = Database::new(schema().into_shared());
        for v in &seed {
            db.insert("r", Tuple::of((*v,))).unwrap();
        }

        // The invariants hold before the first write and after every one.
        let mut b = assert_invariants(TransactionBuilder::new());
        for op in &operations {
            b = assert_invariants(push(b, op));
        }

        let tx = b.build();
        let outcome = Executor.execute(&mut db, &tx);
        prop_assert!(
            outcome.is_committed(),
            "invariant violated for seed {:?} ops {:?}: {:?}",
            seed,
            operations,
            outcome
        );
    }

    /// The post-state equals the pre-state with the net differentials
    /// applied externally as well: replaying ops on a hash set matches.
    #[test]
    fn executor_matches_model(seed in prop::collection::vec(0..10i64, 0..10), operations in ops()) {
        let mut db = Database::new(schema().into_shared());
        let mut model: std::collections::BTreeSet<i64> = seed.iter().copied().collect();
        for v in &seed {
            db.insert("r", Tuple::of((*v,))).unwrap();
        }
        let mut b = TransactionBuilder::new();
        for op in &operations {
            match op {
                Op::Insert(v) => {
                    model.insert(*v);
                }
                Op::Delete(v) => {
                    model.remove(v);
                }
                Op::Update(k, d) => {
                    let moved = model.split_off(k);
                    model.extend(moved.into_iter().map(|v| v + d));
                }
                Op::DeleteWhere(k) => model = model.split_off(k),
            }
            b = push(b, op);
        }
        let outcome = Executor.execute(&mut db, &b.build());
        prop_assert!(outcome.is_committed());
        let rel = db.relation("r").unwrap();
        prop_assert_eq!(rel.len(), model.len());
        for v in model {
            prop_assert!(rel.contains(&Tuple::of((v,))));
        }
    }

    /// The invariant-checking transactions of
    /// `differentials_are_net_changes`, compiled: the mixed plan commits
    /// with the reference's outcome, post-state and clock, and hands its
    /// commit hook exactly the net difference between the begin and end
    /// states.
    #[test]
    fn mixed_plans_match_the_generic_executor(seed in prop::collection::vec(0..10i64, 0..10), operations in ops()) {
        let mut db = Database::new(schema().into_shared());
        for v in &seed {
            db.insert("r", Tuple::of((*v,))).unwrap();
        }
        let mut b = assert_invariants(TransactionBuilder::new());
        for op in &operations {
            b = assert_invariants(push(b, op));
        }
        let tx = b.build();
        let plan = ExecPlan::compile(tx.clone());

        let mut generic = db.clone();
        let out_generic = Executor.execute(&mut generic, &tx);
        let (mut via_plan, mut net) = (db.clone(), Vec::new());
        let mut capture = |view: &[NetChange<'_>]| -> Result<(), Infallible> {
            net.extend(view.iter().map(|&(r, t, i)| (r.to_owned(), t.clone(), i)));
            Ok(())
        };
        let Ok(out_plan) = Executor.execute_plan_instrumented(&mut via_plan, &plan, &[], Some(&mut capture), None);
        prop_assert!(out_plan.is_committed(), "{:?} for {}", out_plan, tx);
        prop_assert_eq!(&out_plan, &out_generic);
        prop_assert!(via_plan.state_eq(&generic));
        prop_assert_eq!(via_plan.logical_time(), generic.logical_time());

        let (before, after) = (db.relation("r").unwrap(), via_plan.relation("r").unwrap());
        let inserted: Vec<Tuple> = after.iter().filter(|t| !before.contains(t)).cloned().collect();
        let deleted: Vec<Tuple> = before.iter().filter(|t| !after.contains(t)).cloned().collect();
        prop_assert!(net.iter().all(|(r, _, _)| r == "r"), "net view of one relation: {:?}", net);
        let side = |inserted: bool| -> Vec<Tuple> {
            net.iter().filter(|c| c.2 == inserted).map(|c| c.1.clone()).collect()
        };
        let (ins, del) = (side(true), side(false));
        let (mut want_ins, mut want_del) = (inserted, deleted);
        want_ins.sort();
        want_del.sort();
        prop_assert_eq!(ins, want_ins);
        prop_assert_eq!(del, want_del);
    }
}

//! Property tests of the copy-on-write storage and logical-snapshot
//! layout.
//!
//! The executor implements atomicity without copying the database: the
//! state is mutated in place under a change log that abort replays in
//! reverse, and any clone a caller holds is isolated by the relations'
//! copy-on-write tuple storage (the first write to a shared set unshares
//! it). These tests pin the aliasing contract:
//!
//! * mutating the working state never changes a pre-transaction clone
//!   (no write leaks through shared storage),
//! * an aborted transaction re-installs a state bit-identical to the
//!   pre-transaction state (change log replayed in reverse),
//! * a committed transaction's untouched relations share physical storage
//!   with the pre-transaction state (`Arc::ptr_eq`, observable through
//!   `Relation::shares_storage`) — the guarantee that no silent deep-copy
//!   regression sneaks back into the hot path,
//! * no-op mutations (duplicate insert, absent delete, empty update) do
//!   not unshare.

use proptest::prelude::*;

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{Executor, ScalarExpr};
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, ValueType};

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int)]),
        RelationSchema::of("s", &[("b", ValueType::Int)]),
    ])
    .unwrap()
}

fn seeded_db(r: &[i64], s: &[i64]) -> Database {
    let mut db = Database::new(schema().into_shared());
    for v in r {
        db.insert("r", Tuple::of((*v,))).unwrap();
    }
    for v in s {
        db.insert("s", Tuple::of((*v,))).unwrap();
    }
    db
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(i64),
    UpdateShift(i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..8i64).prop_map(Op::Insert),
            (0..8i64).prop_map(Op::Delete),
            (0..8i64).prop_map(Op::UpdateShift),
        ],
        0..16,
    )
}

fn apply_ops(mut b: TransactionBuilder, operations: &[Op]) -> TransactionBuilder {
    for op in operations {
        b = match op {
            Op::Insert(v) => b.insert_tuple("r", Tuple::of((*v,))),
            Op::Delete(v) => b.delete_tuple("r", Tuple::of((*v,))),
            // update r set a = a where a = v: replaces tuples with
            // themselves — a delete+insert pair that must round-trip.
            Op::UpdateShift(v) => b.update(
                "r",
                ScalarExpr::cmp(
                    tm_algebra::CmpOp::Eq,
                    ScalarExpr::col(0),
                    ScalarExpr::int(*v),
                ),
                vec![tm_algebra::UpdateAssignment::new(0, ScalarExpr::col(0))],
            ),
        };
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a) Mutating the working state never changes a pre-transaction
    /// clone: after any committed transaction, a clone taken before
    /// execution still equals an unshared deep copy taken at the same
    /// moment — a COW aliasing bug could corrupt the clone, never the
    /// deep copy.
    #[test]
    fn working_mutations_never_reach_the_snapshot(
        seed in prop::collection::vec(0..8i64, 0..8),
        operations in ops(),
    ) {
        let mut db = seeded_db(&seed, &[1, 2, 3]);
        let snapshot = db.clone();          // COW clone (shares storage)
        let reference = db.unshared_copy(); // physically independent
        let outcome = Executor.execute(&mut db, &apply_ops(TransactionBuilder::new(), &operations).build());
        prop_assert!(outcome.is_committed());
        prop_assert!(
            snapshot.state_eq(&reference),
            "pre-transaction clone was corrupted through shared storage"
        );
    }

    /// (b) Abort re-installs a state bit-identical to the pre-state: the
    /// undo log (the differentials) applied in reverse reproduces `D^t`
    /// exactly, and relations the transaction never touched still share
    /// storage with a pre-transaction clone.
    #[test]
    fn abort_reinstalls_the_exact_pre_state(
        seed in prop::collection::vec(0..8i64, 0..8),
        operations in ops(),
    ) {
        let mut db = seeded_db(&seed, &[7]);
        let pre = db.clone();
        let reference = db.unshared_copy();
        let tx = apply_ops(TransactionBuilder::new(), &operations).abort().build();
        let outcome = Executor.execute(&mut db, &tx);
        prop_assert!(!outcome.is_committed());
        prop_assert!(db.state_eq(&reference), "abort must restore the exact pre-state");
        prop_assert!(pre.state_eq(&reference), "abort must not corrupt outstanding clones");
        // `s` was never touched: no write, no unsharing.
        prop_assert!(
            db.relation("s").unwrap().shares_storage(pre.relation("s").unwrap()),
            "abort must leave untouched `s` sharing storage with the pre-state"
        );
    }

    /// (c) After a commit, relations the transaction never touched share
    /// storage with the pre-transaction state — `Arc::ptr_eq`, not just
    /// set equality.
    #[test]
    fn committed_state_shares_untouched_relations(
        seed in prop::collection::vec(0..8i64, 0..8),
        operations in ops(),
    ) {
        let mut db = seeded_db(&seed, &[4, 5]);
        let pre = db.clone();
        // Operations touch only `r`; `s` must keep sharing.
        let outcome = Executor.execute(&mut db, &apply_ops(TransactionBuilder::new(), &operations).build());
        prop_assert!(outcome.is_committed());
        prop_assert!(
            db.relation("s").unwrap().shares_storage(pre.relation("s").unwrap()),
            "untouched relation was deep-copied across the transaction"
        );
        // Sharing implies equality; a changed `r` must have unshared.
        let (r_now, r_pre) = (db.relation("r").unwrap(), pre.relation("r").unwrap());
        if !r_now.set_eq(r_pre) {
            prop_assert!(!r_now.shares_storage(r_pre));
        }
    }
}

/// No-op writes — inserting a present tuple, deleting an absent one, an
/// update selecting nothing — must not unshare the target relation's
/// storage: the whole transaction commits without copying a single tuple
/// set.
#[test]
fn noop_transaction_keeps_every_relation_shared() {
    let mut db = seeded_db(&[1, 2, 3], &[9]);
    let pre = db.clone();
    let tx = TransactionBuilder::new()
        .insert_tuple("r", Tuple::of((1,))) // already present
        .delete_tuple("r", Tuple::of((42,))) // absent
        .update(
            "r",
            ScalarExpr::false_(), // selects nothing
            vec![tm_algebra::UpdateAssignment::new(0, ScalarExpr::int(0))],
        )
        .build();
    let outcome = Executor.execute(&mut db, &tx);
    assert!(outcome.is_committed(), "{outcome:?}");
    for (name, rel) in db.iter() {
        assert!(
            rel.shares_storage(pre.relation(name).unwrap()),
            "no-op transaction unshared `{name}`"
        );
    }
}

/// Reading untouched differentials (`R@ins`/`R@del` allocated lazily) still
/// resolves to empty relations, and doing so does not unshare anything.
#[test]
fn lazy_differentials_read_as_empty_and_keep_sharing() {
    let mut db = seeded_db(&[1, 2], &[3]);
    let pre = db.clone();
    let tx = TransactionBuilder::new()
        // All three alarms are over empty differentials of *untouched*
        // relations; any non-empty evaluation would abort.
        .alarm(tm_algebra::RelExpr::relation("r@ins"))
        .alarm(tm_algebra::RelExpr::relation("r@del"))
        .alarm(tm_algebra::RelExpr::relation("s@ins").union(tm_algebra::RelExpr::relation("s@del")))
        // And `R@pre` still answers with the full pre-state.
        .alarm(
            tm_algebra::RelExpr::relation("r@pre").difference(tm_algebra::RelExpr::relation("r")),
        )
        .build();
    let outcome = Executor.execute(&mut db, &tx);
    assert!(outcome.is_committed(), "{outcome:?}");
    for (name, rel) in db.iter() {
        assert!(
            rel.shares_storage(pre.relation(name).unwrap()),
            "read-only transaction unshared `{name}`"
        );
    }
}

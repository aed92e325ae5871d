//! Property tests of the algebraic laws the translator and optimizer rely
//! on: set-operation identities, join/semi-join/anti-join relationships,
//! and select fusion — all over randomized relations and predicates.

use std::sync::Arc;

use proptest::prelude::*;

use tm_algebra::{evaluate, CmpOp, RelExpr, ScalarExpr};
use tm_relational::{Database, DatabaseSchema, Relation, RelationSchema, Tuple, ValueType};

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("s", &[("c", ValueType::Int), ("d", ValueType::Int)]),
    ])
    .unwrap()
}

fn db(r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
    let mut db = Database::new(schema().into_shared());
    for &(a, b) in r {
        db.insert("r", Tuple::of((a, b))).unwrap();
    }
    for &(c, d) in s {
        db.insert("s", Tuple::of((c, d))).unwrap();
    }
    db
}

/// A random comparison predicate over a 2-column tuple.
fn pred2() -> impl Strategy<Value = ScalarExpr> {
    let op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
    ];
    (op, 0usize..2, -3..4i64)
        .prop_map(|(op, col, k)| ScalarExpr::cmp(op, ScalarExpr::col(col), ScalarExpr::int(k)))
}

fn rel_pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((-3..4i64, -3..4i64), 0..12)
}

fn eq(a: &Relation, b: &Relation) -> bool {
    a.set_eq(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_commutes_intersect_distributes(r in rel_pairs(), s in rel_pairs()) {
        let d = db(&r, &s);
        let rr = RelExpr::relation("r");
        let ss = RelExpr::relation("s");
        let ab = evaluate(&rr.clone().union(ss.clone()), &d).unwrap();
        let ba = evaluate(&ss.clone().union(rr.clone()), &d).unwrap();
        prop_assert!(eq(&ab, &ba));
        let iab = evaluate(&rr.clone().intersect(ss.clone()), &d).unwrap();
        let iba = evaluate(&ss.intersect(rr), &d).unwrap();
        prop_assert!(eq(&iab, &iba));
    }

    #[test]
    fn difference_laws(r in rel_pairs(), s in rel_pairs()) {
        let d = db(&r, &s);
        let rr = RelExpr::relation("r");
        let ss = RelExpr::relation("s");
        // R − S = R − (R ∩ S)
        let lhs = evaluate(&rr.clone().difference(ss.clone()), &d).unwrap();
        let rhs = evaluate(
            &rr.clone().difference(rr.clone().intersect(ss.clone())),
            &d,
        )
        .unwrap();
        prop_assert!(eq(&lhs, &rhs));
        // (R − S) ∪ (R ∩ S) = R
        let back = evaluate(
            &rr.clone()
                .difference(ss.clone())
                .union(rr.clone().intersect(ss)),
            &d,
        )
        .unwrap();
        let r_all = evaluate(&rr, &d).unwrap();
        prop_assert!(eq(&back, &r_all));
    }

    #[test]
    fn semijoin_antijoin_partition(r in rel_pairs(), s in rel_pairs(), p in pred2()) {
        // For any join predicate over (r-tuple ++ s-tuple) columns —
        // shift the right side's columns.
        let d = db(&r, &s);
        let join_pred = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::col(0),
            ScalarExpr::col(2),
        );
        let _ = p; // the partition law must hold for the equi-join too
        let rr = RelExpr::relation("r");
        let ss = RelExpr::relation("s");
        let semi = evaluate(&rr.clone().semi_join(ss.clone(), join_pred.clone()), &d).unwrap();
        let anti = evaluate(&rr.clone().anti_join(ss, join_pred), &d).unwrap();
        // Disjoint and exhaustive.
        for t in semi.iter() {
            prop_assert!(!anti.contains(t));
        }
        let r_all = evaluate(&rr, &d).unwrap();
        prop_assert_eq!(semi.len() + anti.len(), r_all.len());
    }

    #[test]
    fn select_fusion_equals_nested_select(r in rel_pairs(), p1 in pred2(), p2 in pred2()) {
        let d = db(&r, &[]);
        let nested = evaluate(
            &RelExpr::relation("r").select(p1.clone()).select(p2.clone()),
            &d,
        )
        .unwrap();
        let fused = evaluate(
            &RelExpr::relation("r").select(ScalarExpr::and(p1, p2)),
            &d,
        )
        .unwrap();
        prop_assert!(eq(&nested, &fused));
    }

    #[test]
    fn select_complement_partitions(r in rel_pairs(), p in pred2()) {
        let d = db(&r, &[]);
        let pos = evaluate(&RelExpr::relation("r").select(p.clone()), &d).unwrap();
        let neg = evaluate(
            &RelExpr::relation("r").select(ScalarExpr::not(p)),
            &d,
        )
        .unwrap();
        let all = evaluate(&RelExpr::relation("r"), &d).unwrap();
        prop_assert_eq!(pos.len() + neg.len(), all.len());
        for t in pos.iter() {
            prop_assert!(!neg.contains(t));
        }
    }

    /// `join[p](r, s) ≡ select[p](join[true](r, s))`: the cartesian
    /// product is `join[true]`, and a predicate may move between a join
    /// and a selection over it. With a left-only conjunct `q` pushed below
    /// the join, `join[p](select[q](r), s) ≡ select[q ∧ p](join[true](r, s))`
    /// — the law the translator's conjunct placement rests on.
    #[test]
    fn join_equals_filtered_product(r in rel_pairs(), s in rel_pairs(), q in pred2()) {
        let d = db(&r, &s);
        let pred = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(1), ScalarExpr::col(2));
        let product = RelExpr::relation("r").join(RelExpr::relation("s"), ScalarExpr::true_());
        let join = evaluate(
            &RelExpr::relation("r").join(RelExpr::relation("s"), pred.clone()),
            &d,
        )
        .unwrap();
        let filtered = evaluate(&product.clone().select(pred.clone()), &d).unwrap();
        prop_assert!(eq(&join, &filtered));

        let pushed = evaluate(
            &RelExpr::relation("r")
                .select(q.clone())
                .join(RelExpr::relation("s"), pred.clone()),
            &d,
        )
        .unwrap();
        let filtered = evaluate(&product.clone().select(ScalarExpr::and(q, pred)), &d).unwrap();
        prop_assert!(eq(&pushed, &filtered));

        let size = |name: &str| evaluate(&RelExpr::relation(name), &d).unwrap().len();
        prop_assert_eq!(evaluate(&product, &d).unwrap().len(), size("r") * size("s"));
    }

    #[test]
    fn projection_narrows_or_preserves(r in rel_pairs()) {
        let d = db(&r, &[]);
        let all = evaluate(&RelExpr::relation("r"), &d).unwrap();
        let proj = evaluate(&RelExpr::relation("r").project_cols(&[0]), &d).unwrap();
        prop_assert!(proj.len() <= all.len());
        // Every projected value stems from some source tuple.
        for t in proj.iter() {
            prop_assert!(all.iter().any(|src| src.get(0) == t.get(0)));
        }
    }

    #[test]
    fn count_aggregate_matches_len(r in rel_pairs()) {
        let d = db(&r, &[]);
        let cnt = evaluate(
            &RelExpr::Singleton(vec![ScalarExpr::Cnt(Box::new(RelExpr::relation("r")))]),
            &d,
        )
        .unwrap();
        let all = evaluate(&RelExpr::relation("r"), &d).unwrap();
        let t = cnt.sorted_tuples();
        prop_assert_eq!(t[0].get(0).unwrap().as_int().unwrap(), all.len() as i64);
    }
}

#[test]
fn semijoin_is_join_projected() {
    let d = db(&[(1, 1), (2, 2), (3, 3)], &[(1, 9), (1, 8), (3, 7)]);
    let pred = ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::col(2));
    let semi = evaluate(
        &RelExpr::relation("r").semi_join(RelExpr::relation("s"), pred.clone()),
        &d,
    )
    .unwrap();
    // π_{r-cols}(r ⋈ s) with duplicate elimination = semijoin.
    let join_proj = evaluate(
        &RelExpr::relation("r")
            .join(RelExpr::relation("s"), pred)
            .project_cols(&[0, 1]),
        &d,
    )
    .unwrap();
    assert!(semi.set_eq(&join_proj));
    assert_eq!(semi.len(), 2);
}

#[test]
fn schema_mismatch_detected_not_panicking() {
    let d = db(&[(1, 1)], &[(1, 1)]);
    // Arity mismatch through projection: r(2 cols) ∪ π0(s) (1 col).
    let e = RelExpr::relation("r").union(RelExpr::relation("s").project_cols(&[0]));
    assert!(evaluate(&e, &d).is_err());
    let _ = Arc::new(()); // silence unused import lint paranoia
}

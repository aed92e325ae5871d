//! Property tests for the parallel substrate: fragmented execution is
//! observationally identical to sequential execution regardless of the
//! node count — the correctness claim behind the paper's parallel
//! extension [7].

use proptest::prelude::*;

use tm_algebra::{CmpOp, ScalarExpr};
use tm_paper::ParallelDb;
use tm_relational::{RelationSchema, Tuple, ValueType};

fn parent_schema() -> RelationSchema {
    RelationSchema::of("parent", &[("key", ValueType::Int)])
}

fn child_schema() -> RelationSchema {
    RelationSchema::of(
        "child",
        &[("fk", ValueType::Int), ("amount", ValueType::Int)],
    )
}

fn build_db(nodes: usize, parents: &[i64], children: &[(i64, i64)]) -> ParallelDb {
    let mut db = ParallelDb::new(nodes);
    db.create_relation(parent_schema(), 0);
    db.create_relation(child_schema(), 0);
    db.load("parent", parents.iter().map(|&k| Tuple::of((k,))))
        .unwrap();
    db.load("child", children.iter().map(|&(f, a)| Tuple::of((f, a))))
        .unwrap();
    db
}

/// Brute-force reference implementations.
fn brute_referential(parents: &[i64], children: &[(i64, i64)]) -> usize {
    use std::collections::BTreeSet;
    let keys: BTreeSet<i64> = parents.iter().copied().collect();
    let distinct: BTreeSet<(i64, i64)> = children.iter().copied().collect();
    distinct.iter().filter(|(fk, _)| !keys.contains(fk)).count()
}

fn brute_domain(children: &[(i64, i64)]) -> usize {
    use std::collections::BTreeSet;
    let distinct: BTreeSet<(i64, i64)> = children.iter().copied().collect();
    distinct.iter().filter(|(_, a)| *a < 0).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn referential_counts_match_brute_force(
        parents in prop::collection::vec(0..30i64, 0..25),
        children in prop::collection::vec((0..40i64, -5..5i64), 0..60),
        nodes in 1usize..9,
    ) {
        let db = build_db(nodes, &parents, &children);
        let report = db.check_referential("child", 0, "parent", 0);
        prop_assert_eq!(report.violations, brute_referential(&parents, &children));
        prop_assert_eq!(report.tuples_shuffled, 0, "co-partitioned");
    }

    #[test]
    fn domain_counts_match_brute_force(
        children in prop::collection::vec((0..40i64, -5..5i64), 0..60),
        nodes in 1usize..9,
    ) {
        let db = build_db(nodes, &[], &children);
        let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::int(0));
        let report = db.check_domain("child", &pred);
        prop_assert_eq!(report.violations, brute_domain(&children));
    }

    #[test]
    fn delta_checks_match_brute_force(
        parents in prop::collection::vec(0..30i64, 1..25),
        delta in prop::collection::vec((0..40i64, -5..5i64), 0..30),
        nodes in 1usize..9,
    ) {
        let db = build_db(nodes, &parents, &[]);
        let tuples: Vec<Tuple> = delta.iter().map(|&(f, a)| Tuple::of((f, a))).collect();
        let report = db.check_referential_delta(&tuples, 0, "parent", 0);
        // The delta check counts per-occurrence (the batch is a list).
        let keys: std::collections::BTreeSet<i64> = parents.iter().copied().collect();
        let expected = delta.iter().filter(|(fk, _)| !keys.contains(fk)).count();
        prop_assert_eq!(report.violations, expected);
    }

    #[test]
    fn gather_is_node_count_invariant(
        parents in prop::collection::vec(0..100i64, 0..50),
        nodes in 1usize..9,
    ) {
        let db = build_db(nodes, &parents, &[]);
        let gathered = db.gather("parent").unwrap();
        let distinct: std::collections::BTreeSet<i64> = parents.iter().copied().collect();
        prop_assert_eq!(gathered.len(), distinct.len());
        for k in distinct {
            prop_assert!(gathered.contains(&Tuple::of((k,))));
        }
    }

    #[test]
    fn shuffled_check_matches_copartitioned(
        parents in prop::collection::vec((0..30i64, 0..5i64), 0..25),
        children in prop::collection::vec((0..40i64, -5..5i64), 0..60),
        nodes in 1usize..9,
    ) {
        // Parent fragmented on a NON-key column: the check must shuffle
        // but report the same violations.
        let mut db = ParallelDb::new(nodes);
        db.create_relation(
            RelationSchema::of("parent", &[("key", ValueType::Int), ("x", ValueType::Int)]),
            1,
        );
        db.create_relation(child_schema(), 0);
        db.load("parent", parents.iter().map(|&(k, x)| Tuple::of((k, x))))
            .unwrap();
        db.load("child", children.iter().map(|&(f, a)| Tuple::of((f, a))))
            .unwrap();
        let report = db.check_referential("child", 0, "parent", 0);
        let keys: std::collections::BTreeSet<i64> =
            parents.iter().map(|&(k, _)| k).collect();
        let distinct: std::collections::BTreeSet<(i64, i64)> =
            children.iter().copied().collect();
        let expected = distinct.iter().filter(|(fk, _)| !keys.contains(fk)).count();
        prop_assert_eq!(report.violations, expected);
    }
}

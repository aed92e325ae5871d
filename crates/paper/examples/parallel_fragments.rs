//! The §7 experiment, interactively: fragmented relations on a simulated
//! multi-node machine, and the paper's referential + domain checks at
//! several node counts.
//!
//! ```text
//! cargo run --release -p tm-paper --example parallel_fragments
//! ```

use std::time::Instant;

use tm_algebra::{CmpOp, ScalarExpr};
use tm_paper::ParallelDb;
use tm_relational::{RelationSchema, Tuple, ValueType};

fn main() {
    const PARENTS: i64 = 5_000;
    const CHILDREN: i64 = 50_000;
    const INSERTS: i64 = 5_000;

    println!(
        "building §7 test database: {PARENTS} key tuples, {CHILDREN} FK tuples, \
         {INSERTS} inserted tuples\n"
    );

    for nodes in [1usize, 2, 4, 8] {
        let mut db = ParallelDb::new(nodes);
        db.create_relation(
            RelationSchema::of("parent", &[("key", ValueType::Int), ("p", ValueType::Int)]),
            0,
        );
        db.create_relation(
            RelationSchema::of(
                "child",
                &[
                    ("id", ValueType::Int),
                    ("fk", ValueType::Int),
                    ("amount", ValueType::Int),
                ],
            ),
            1, // fragmented on the FK column → co-partitioned with parent
        );
        db.load("parent", (0..PARENTS).map(|k| Tuple::of((k, 0))))
            .expect("load parents");
        db.load(
            "child",
            (0..CHILDREN + INSERTS).map(|i| Tuple::of((i, i % PARENTS, i % 100))),
        )
        .expect("load children");

        let t0 = Instant::now();
        let r = db.check_referential("child", 1, "parent", 0);
        let t_ref = t0.elapsed();
        assert!(r.satisfied());

        let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));
        let t0 = Instant::now();
        let d = db.check_domain("child", &pred);
        let t_dom = t0.elapsed();
        assert!(d.satisfied());

        println!(
            "nodes={nodes}: referential check {t_ref:?} (shuffled {} tuples), \
             domain check {t_dom:?}",
            r.tuples_shuffled
        );
    }

    // Now inject violations and watch the checks find them.
    let mut db = ParallelDb::new(8);
    db.create_relation(
        RelationSchema::of("parent", &[("key", ValueType::Int), ("p", ValueType::Int)]),
        0,
    );
    db.create_relation(
        RelationSchema::of(
            "child",
            &[
                ("id", ValueType::Int),
                ("fk", ValueType::Int),
                ("amount", ValueType::Int),
            ],
        ),
        1,
    );
    db.load("parent", (0..PARENTS).map(|k| Tuple::of((k, 0))))
        .expect("load parents");
    db.load(
        "child",
        (0..CHILDREN).map(|i| Tuple::of((i, i % PARENTS, i % 100))),
    )
    .expect("load children");

    // A delta batch with 3 orphans and 2 negative amounts.
    let delta: Vec<Tuple> = (0..INSERTS)
        .map(|i| {
            let fk = if i < 3 {
                PARENTS + 100 + i
            } else {
                i % PARENTS
            };
            let amount = if (3..5).contains(&i) { -1 } else { 10 };
            Tuple::of((CHILDREN + i, fk, amount))
        })
        .collect();

    let r = db.check_referential_delta(&delta, 1, "parent", 0);
    let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));
    let d = db.check_domain_delta("child", &delta, &pred);
    println!(
        "\ndelta checks over {} inserted tuples: {} referential violations, {} domain violations",
        delta.len(),
        r.violations,
        d.violations
    );
    assert_eq!(r.violations, 3);
    assert_eq!(d.violations, 2);
}

//! Workload generation for the §7 experiments.
//!
//! The paper's test database: "a key relation of 5000 tuples and a foreign
//! key relation of 50000 tuples"; the measured operation: "checking a
//! referential integrity constraint after the insertion of 5000 new tuples
//! into the foreign key relation", plus "checking a domain constraint in
//! the same situation".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::db::ParallelDb;
use tm_relational::{RelationSchema, Tuple, ValueType};

/// The paper's §7 workload constants.
pub mod paper {
    /// Tuples in the key (parent) relation.
    pub const KEY_TUPLES: usize = 5_000;
    /// Tuples in the foreign-key (child) relation.
    pub const FK_TUPLES: usize = 50_000;
    /// Newly inserted FK tuples whose checking is measured.
    pub const INSERT_TUPLES: usize = 5_000;
    /// POOMA nodes in the prototype measurement.
    pub const NODES: usize = 8;
    /// Paper-reported bound for the referential check (seconds).
    pub const PAPER_REFERENTIAL_SECONDS: f64 = 3.0;
    /// Paper-reported bound for the domain check (seconds).
    pub const PAPER_DOMAIN_SECONDS: f64 = 1.0;
}

/// Schema of the parent (key) relation: `parent(key, payload)`.
pub fn parent_schema() -> RelationSchema {
    RelationSchema::of(
        "parent",
        &[("key", ValueType::Int), ("payload", ValueType::Int)],
    )
}

/// Schema of the child (foreign-key) relation:
/// `child(id, fk, amount)` — `fk` references `parent.key`, `amount` is the
/// domain-constrained attribute (`amount >= 0`).
pub fn child_schema() -> RelationSchema {
    RelationSchema::of(
        "child",
        &[
            ("id", ValueType::Int),
            ("fk", ValueType::Int),
            ("amount", ValueType::Int),
        ],
    )
}

/// A generated §7-style workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Parent tuples (`key` = 0..parents).
    pub parents: Vec<Tuple>,
    /// Child tuples with valid foreign keys and non-negative amounts.
    pub children: Vec<Tuple>,
    /// The insertion batch to be checked (valid unless `violations > 0`
    /// was requested).
    pub inserts: Vec<Tuple>,
}

impl Workload {
    /// Generate a workload: `parents` keys, `children` valid FK tuples,
    /// and an insert batch of `inserts` tuples of which `violations` are
    /// orphans (invalid FK) — the paper's batch is all-valid
    /// (`violations = 0`), forcing the check to scan everything.
    pub fn generate(
        parents: usize,
        children: usize,
        inserts: usize,
        violations: usize,
        seed: u64,
    ) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let parent_tuples: Vec<Tuple> = (0..parents as i64)
            .map(|k| Tuple::of((k, rng.gen_range(0..1_000_000_i64))))
            .collect();
        let children_tuples: Vec<Tuple> = (0..children as i64)
            .map(|id| {
                let fk = rng.gen_range(0..parents as i64);
                let amount = rng.gen_range(0..10_000_i64);
                Tuple::of((id, fk, amount))
            })
            .collect();
        let inserts_tuples: Vec<Tuple> = (0..inserts as i64)
            .map(|i| {
                let id = children as i64 + i;
                let orphan = (i as usize) < violations;
                let fk = if orphan {
                    parents as i64 + 1 + i // guaranteed absent
                } else {
                    rng.gen_range(0..parents as i64)
                };
                Tuple::of((id, fk, rng.gen_range(0..10_000_i64)))
            })
            .collect();
        Workload {
            parents: parent_tuples,
            children: children_tuples,
            inserts: inserts_tuples,
        }
    }

    /// The paper's exact workload sizes.
    pub fn paper_scale(seed: u64) -> Workload {
        Workload::generate(
            paper::KEY_TUPLES,
            paper::FK_TUPLES,
            paper::INSERT_TUPLES,
            0,
            seed,
        )
    }

    /// Load into a fresh [`ParallelDb`] over `nodes` nodes, co-partitioned
    /// on the join attribute (parent on `key`, child on `fk`), with the
    /// insert batch *already applied* (the paper checks after insertion).
    pub fn into_parallel_db(&self, nodes: usize) -> ParallelDb {
        let mut db = ParallelDb::new(nodes);
        db.create_relation(parent_schema(), 0);
        db.create_relation(child_schema(), 1);
        db.load("parent", self.parents.iter().cloned()).unwrap();
        db.load("child", self.children.iter().cloned()).unwrap();
        db.load("child", self.inserts.iter().cloned()).unwrap();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(100, 1000, 50, 5, 42);
        let b = Workload::generate(100, 1000, 50, 5, 42);
        assert_eq!(a.parents, b.parents);
        assert_eq!(a.children, b.children);
        assert_eq!(a.inserts, b.inserts);
    }

    #[test]
    fn violations_are_orphans() {
        let w = Workload::generate(100, 1000, 50, 7, 1);
        let db = w.into_parallel_db(4);
        let report = db.check_referential("child", 1, "parent", 0);
        assert_eq!(report.violations, 7);
    }

    #[test]
    fn valid_workload_satisfies_both_constraints() {
        let w = Workload::generate(50, 500, 20, 0, 9);
        let db = w.into_parallel_db(2);
        assert!(db.check_referential("child", 1, "parent", 0).satisfied());
        let neg = tm_algebra::ScalarExpr::cmp(
            tm_algebra::CmpOp::Lt,
            tm_algebra::ScalarExpr::col(2),
            tm_algebra::ScalarExpr::int(0),
        );
        assert!(db.check_domain("child", &neg).satisfied());
    }

    #[test]
    fn sizes_respected() {
        let w = Workload::generate(10, 20, 5, 0, 3);
        assert_eq!(w.parents.len(), 10);
        assert_eq!(w.children.len(), 20);
        assert_eq!(w.inserts.len(), 5);
        let db = w.into_parallel_db(2);
        assert_eq!(db.relation("child").unwrap().len(), 25);
    }
}

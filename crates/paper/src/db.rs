//! The shared-nothing parallel database and its constraint checks.
//!
//! Each "node" of the simulated POOMA machine is an OS thread that owns
//! one fragment of every fragmented relation. The §7 checks decompose as
//! in \[7\]:
//!
//! * **domain checks** `σ_{¬ψ}(R)` — each node scans only its fragment;
//!   no communication at all,
//! * **referential checks** `R ▷_{R.i = S.j} S` — when `R` is fragmented
//!   on `i` and `S` on `j` (co-partitioning), each node anti-joins its two
//!   local fragments; otherwise the relevant side is repartitioned first
//!   (the shuffle's tuple movement is reported),
//! * **differential variants** check only a delta batch, routed to nodes
//!   by hash — the paper's 5 000-tuple insertion experiment.

use std::sync::Arc;

use tm_algebra::{eval_scalar, ScalarExpr};
use tm_relational::util::{fx_set_with_capacity, FxHashMap, FxHashSet};
use tm_relational::{Database, DatabaseSchema, Relation, RelationSchema, Tuple, Value};

use crate::fragment::{route_value, FragmentedRelation};

/// Outcome of a parallel check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of violating tuples found (0 ⇒ constraint satisfied).
    pub violations: usize,
    /// Tuples that crossed node boundaries (repartitioning traffic).
    pub tuples_shuffled: usize,
    /// Nodes that participated.
    pub nodes: usize,
}

impl CheckReport {
    /// Whether the constraint is satisfied.
    pub fn satisfied(&self) -> bool {
        self.violations == 0
    }
}

/// A shared-nothing database of fragmented relations over `n` nodes.
#[derive(Debug, Clone)]
pub struct ParallelDb {
    nodes: usize,
    relations: FxHashMap<String, FragmentedRelation>,
}

impl ParallelDb {
    /// Create a database over `nodes` nodes.
    ///
    /// # Panics
    /// Panics when `nodes == 0`.
    pub fn new(nodes: usize) -> ParallelDb {
        assert!(nodes > 0, "at least one node required");
        ParallelDb {
            nodes,
            relations: FxHashMap::default(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Declare a relation fragmented on `key_col`.
    pub fn create_relation(&mut self, schema: RelationSchema, key_col: usize) {
        let name = schema.name().to_owned();
        self.relations.insert(
            name,
            FragmentedRelation::new(Arc::new(schema), key_col, self.nodes),
        );
    }

    /// The fragmented relation by name.
    pub fn relation(&self, name: &str) -> Option<&FragmentedRelation> {
        self.relations.get(name)
    }

    /// Mutable access (loading).
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut FragmentedRelation> {
        self.relations.get_mut(name)
    }

    /// Bulk-load tuples.
    pub fn load(
        &mut self,
        name: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, tm_relational::RelationalError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| tm_relational::RelationalError::UnknownRelation(name.to_owned()))?
            .insert_all(tuples)
    }

    /// Parallel **domain check**: count tuples of `rel` violating
    /// `predicate` (a scalar over the tuple, `true` = violation). Each
    /// node scans its own fragment concurrently.
    pub fn check_domain(&self, rel: &str, violation_pred: &ScalarExpr) -> CheckReport {
        let Some(fr) = self.relations.get(rel) else {
            return CheckReport::default();
        };
        let violations =
            self.domain_counts(fr.fragments().iter().map(Relation::iter), violation_pred);
        self.report(violations, 0)
    }

    /// Parallel **differential domain check**: check only a batch of
    /// inserted tuples. The batch is routed to nodes by the relation's
    /// fragmentation attribute first (as the insertion itself would be).
    pub fn check_domain_delta(
        &self,
        rel: &str,
        delta: &[Tuple],
        violation_pred: &ScalarExpr,
    ) -> CheckReport {
        let Some(fr) = self.relations.get(rel) else {
            return CheckReport::default();
        };
        let violations = self.domain_counts(self.route_batch(delta, fr.key_col()), violation_pred);
        self.report(violations, 0)
    }

    /// Parallel **referential check**: count tuples of `child` whose
    /// `child_col` value has no match in `parent`'s `parent_col`.
    ///
    /// When both relations are fragmented on the join attributes
    /// (co-partitioning), the check is node-local. Otherwise the parent's
    /// key column is repartitioned by hash first; the shuffled tuple count
    /// is reported. Each node scans its own child fragment directly — no
    /// coordinator materialisation step, so the scan parallelises fully.
    pub fn check_referential(
        &self,
        child: &str,
        child_col: usize,
        parent: &str,
        parent_col: usize,
    ) -> CheckReport {
        let (Some(cf), Some(pf)) = (self.relations.get(child), self.relations.get(parent)) else {
            return CheckReport::default();
        };
        let co_partitioned = cf.key_col() == child_col && pf.key_col() == parent_col;
        let (parent_keys, shuffled) = self.parent_key_sets(pf, parent_col, co_partitioned);
        let fragments = cf.fragments().iter().map(Relation::iter);
        let violations = self.antijoin_counts(fragments, child_col, &parent_keys, co_partitioned);
        self.report(violations, shuffled)
    }

    /// Parallel **differential referential check** (the §7 experiment):
    /// check only `delta` (freshly inserted child tuples) against the
    /// parent. Deltas are routed by the *join* attribute so each node
    /// probes only its local parent keys.
    pub fn check_referential_delta(
        &self,
        delta: &[Tuple],
        child_col: usize,
        parent: &str,
        parent_col: usize,
    ) -> CheckReport {
        let Some(pf) = self.relations.get(parent) else {
            return CheckReport::default();
        };
        let co_partitioned = pf.key_col() == parent_col;
        let (parent_keys, shuffled) = self.parent_key_sets(pf, parent_col, co_partitioned);
        let buckets = self.route_batch(delta, child_col);
        let violations = self.antijoin_counts(buckets, child_col, &parent_keys, true);
        self.report(violations, shuffled)
    }

    fn report(&self, violations: usize, tuples_shuffled: usize) -> CheckReport {
        CheckReport {
            violations,
            tuples_shuffled,
            nodes: self.nodes,
        }
    }

    /// Route a tuple batch into per-node buckets by hash of `col`.
    fn route_batch<'t>(&self, tuples: &'t [Tuple], col: usize) -> Vec<Vec<&'t Tuple>> {
        let mut buckets: Vec<Vec<&Tuple>> = vec![Vec::new(); self.nodes];
        for t in tuples {
            if let Some(v) = t.get(col) {
                buckets[route_value(v, self.nodes)].push(t);
            }
        }
        buckets
    }

    /// Build per-node hash sets of parent join-key values. Co-partitioned:
    /// node-local, no movement. Otherwise the keys are shuffled to their
    /// hash-home nodes.
    fn parent_key_sets(
        &self,
        parent: &FragmentedRelation,
        parent_col: usize,
        co_partitioned: bool,
    ) -> (Vec<FxHashSet<Value>>, usize) {
        if co_partitioned {
            let sets = on_nodes(parent.fragments(), |_, frag| {
                let mut set = fx_set_with_capacity(frag.len());
                for t in frag.iter() {
                    if let Some(v) = t.get(parent_col) {
                        set.insert(v.clone());
                    }
                }
                set
            });
            (sets, 0)
        } else {
            // Shuffle: every parent key is sent to its hash-home node.
            let mut sets: Vec<FxHashSet<Value>> =
                (0..self.nodes).map(|_| FxHashSet::default()).collect();
            let mut shuffled = 0;
            for (i, frag) in parent.fragments().iter().enumerate() {
                for t in frag.iter() {
                    if let Some(v) = t.get(parent_col) {
                        let dest = route_value(v, self.nodes);
                        if dest != i {
                            shuffled += 1;
                        }
                        sets[dest].insert(v.clone());
                    }
                }
            }
            (sets, shuffled)
        }
    }

    /// Per-node domain counting over buckets (the fragments, or a routed
    /// batch): tuples for which `violation_pred` evaluates to `true`.
    fn domain_counts<'t, B>(
        &self,
        buckets: impl IntoIterator<Item = B>,
        violation_pred: &ScalarExpr,
    ) -> usize
    where
        B: IntoIterator<Item = &'t Tuple> + Send,
    {
        // Scalar predicates over plain columns need no relation context;
        // an empty database satisfies the EvalContext bound.
        let ctx = Database::new(Arc::new(DatabaseSchema::new()));
        count_on_nodes(buckets, |_, t| {
            eval_scalar(violation_pred, t, &ctx)
                .ok()
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        })
    }

    /// Per-node anti-join counting over buckets (the child fragments, or
    /// a routed batch): child tuples whose `child_col` value is absent
    /// from the paired parent key set. `local` indicates bucket `i` probes
    /// key set `i`; otherwise the probe routes each value to its
    /// hash-home set.
    fn antijoin_counts<'t, B>(
        &self,
        buckets: impl IntoIterator<Item = B>,
        child_col: usize,
        parent_keys: &[FxHashSet<Value>],
        local: bool,
    ) -> usize
    where
        B: IntoIterator<Item = &'t Tuple> + Send,
    {
        let nodes = self.nodes;
        count_on_nodes(buckets, |i, t| match t.get(child_col) {
            Some(v) => {
                let home = if local { i } else { route_value(v, nodes) };
                !parent_keys[home].contains(v)
            }
            None => true,
        })
    }

    /// Gather a fragmented relation into a plain [`Relation`].
    pub fn gather(&self, name: &str) -> Option<Relation> {
        self.relations.get(name).map(FragmentedRelation::gather)
    }
}

/// Count, one node (thread) per bucket, the tuples of bucket `i` for
/// which `violates(i, tuple)` holds, and sum the counts.
fn count_on_nodes<'t, B>(
    buckets: impl IntoIterator<Item = B>,
    violates: impl Fn(usize, &Tuple) -> bool + Sync,
) -> usize
where
    B: IntoIterator<Item = &'t Tuple> + Send,
{
    on_nodes(buckets, |i, bucket| {
        bucket.into_iter().filter(|t| violates(i, t)).count()
    })
    .into_iter()
    .sum()
}

/// Run `work(i, bucket)` for each bucket on a node (thread) of its own,
/// and collect the results in bucket order.
fn on_nodes<B: Send, R: Send>(
    buckets: impl IntoIterator<Item = B>,
    work: impl Fn(usize, B) -> R + Sync,
) -> Vec<R> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .map(|(i, bucket)| scope.spawn(move || work(i, bucket)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::CmpOp;
    use tm_relational::ValueType;

    fn key_schema() -> RelationSchema {
        RelationSchema::of("parent", &[("k", ValueType::Int), ("p", ValueType::Int)])
    }

    fn fk_schema() -> RelationSchema {
        RelationSchema::of("child", &[("c", ValueType::Int), ("fk", ValueType::Int)])
    }

    fn loaded_db(nodes: usize, parents: i64, children: i64) -> ParallelDb {
        let mut db = ParallelDb::new(nodes);
        db.create_relation(key_schema(), 0);
        db.create_relation(fk_schema(), 1); // fragmented on the FK → co-partitioned
        db.load("parent", (0..parents).map(|i| Tuple::of((i, 0))))
            .unwrap();
        db.load("child", (0..children).map(|i| Tuple::of((i, i % parents))))
            .unwrap();
        db
    }

    #[test]
    fn domain_check_counts_violations() {
        let db = loaded_db(4, 10, 100);
        // violation: fk < 0 — none.
        let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::int(0));
        let r = db.check_domain("child", &pred);
        assert!(r.satisfied());
        assert_eq!(r.nodes, 4);
        // violation: fk >= 5 — children with fk in 5..10: half of them.
        let pred = ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(1), ScalarExpr::int(5));
        let r = db.check_domain("child", &pred);
        assert_eq!(r.violations, 50);
    }

    #[test]
    fn referential_check_copartitioned() {
        let mut db = loaded_db(8, 100, 1000);
        let r = db.check_referential("child", 1, "parent", 0);
        assert!(r.satisfied());
        assert_eq!(
            r.tuples_shuffled, 0,
            "co-partitioned check must not move data"
        );
        // Orphan a child.
        db.relation_mut("child")
            .unwrap()
            .insert(Tuple::of((5000, 777)))
            .unwrap();
        let r = db.check_referential("child", 1, "parent", 0);
        assert_eq!(r.violations, 1);
    }

    #[test]
    fn referential_check_requires_shuffle_when_not_copartitioned() {
        let mut db = ParallelDb::new(4);
        db.create_relation(key_schema(), 1); // fragmented on non-key column
        db.create_relation(fk_schema(), 1);
        db.load("parent", (0..100).map(|i| Tuple::of((i, i % 3))))
            .unwrap();
        db.load("child", (0..500).map(|i| Tuple::of((i, i % 100))))
            .unwrap();
        let r = db.check_referential("child", 1, "parent", 0);
        assert!(r.satisfied());
        assert!(r.tuples_shuffled > 0, "shuffle expected");

        // A child fragmented off its join column: each value probes the
        // key set of its hash-home node, not its own fragment's.
        let mut db = ParallelDb::new(4);
        db.create_relation(key_schema(), 0);
        db.create_relation(fk_schema(), 0);
        db.load("parent", (0..100).map(|i| Tuple::of((i, 0))))
            .unwrap();
        db.load("child", (0..500).map(|i| Tuple::of((i, i % 110))))
            .unwrap();
        // Orphans: fk in 100..110, ten per full cycle of 110 children.
        assert_eq!(db.check_referential("child", 1, "parent", 0).violations, 40);
    }

    #[test]
    fn delta_checks_match_full_checks() {
        let db = loaded_db(8, 100, 1000);
        // A delta with 3 orphans out of 50.
        let delta: Vec<Tuple> = (0..50)
            .map(|i| {
                if i < 3 {
                    Tuple::of((10_000 + i, 999))
                } else {
                    Tuple::of((10_000 + i, i % 100))
                }
            })
            .collect();
        let r = db.check_referential_delta(&delta, 1, "parent", 0);
        assert_eq!(r.violations, 3);
        let pred = ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(1), ScalarExpr::int(999));
        let r = db.check_domain_delta("child", &delta, &pred);
        assert_eq!(r.violations, 3);
    }

    #[test]
    fn node_counts_agree() {
        // The same data and checks must give identical answers on 1, 2, 4,
        // and 8 nodes (determinism of the parallel decomposition).
        let mut expected: Option<usize> = None;
        for nodes in [1, 2, 4, 8] {
            let mut db = loaded_db(nodes, 50, 500);
            db.relation_mut("child")
                .unwrap()
                .insert_all((0..7).map(|i| Tuple::of((9_000 + i, 800 + i))))
                .unwrap();
            let r = db.check_referential("child", 1, "parent", 0);
            match expected {
                None => expected = Some(r.violations),
                Some(e) => assert_eq!(r.violations, e, "nodes={nodes}"),
            }
        }
        assert_eq!(expected, Some(7));
    }

    #[test]
    fn gather_reconstructs() {
        let db = loaded_db(4, 10, 40);
        assert_eq!(db.gather("child").unwrap().len(), 40);
        assert!(db.gather("nosuch").is_none());
    }

    #[test]
    fn unknown_relations_yield_empty_reports() {
        let db = ParallelDb::new(2);
        let pred = ScalarExpr::true_();
        assert_eq!(db.check_domain("ghost", &pred), CheckReport::default());
        assert_eq!(db.check_referential("a", 0, "b", 0), CheckReport::default());
    }
}

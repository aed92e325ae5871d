//! Relation states — sets of tuples (Definition 2.1).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::Result;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::util::{fx_set_with_capacity, FxHashSet};
use crate::value::Value;

/// The one empty tuple set every freshly created empty relation points at.
/// Empty relations are created constantly (differentials, operator
/// outputs), so they share a single allocation until first mutation.
fn shared_empty() -> Arc<FxHashSet<Tuple>> {
    static EMPTY: OnceLock<Arc<FxHashSet<Tuple>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(FxHashSet::default())).clone()
}

/// [`Arc::make_mut`] with the observability hook of [`crate::counters`]:
/// when the storage is still shared, `make_mut` is about to pay the one
/// full set copy of the copy-on-write contract — record it. Private
/// storage passes straight through (a relaxed load is the only cost).
fn cow_mut(tuples: &mut Arc<FxHashSet<Tuple>>) -> &mut FxHashSet<Tuple> {
    if Arc::strong_count(tuples) > 1 {
        crate::counters::note_unshare();
    }
    Arc::make_mut(tuples)
}

/// A relation state `R`: the name of its schema plus a *set* of tuples in
/// `dom(R)` (Definition 2.1). Set semantics follow the paper; the bag
/// extension lives in [`crate::multiset`].
///
/// The schema is shared behind an [`Arc`] because many relation states of
/// the same schema coexist (committed state, pre-transaction snapshot,
/// differentials, intermediate results).
///
/// The tuple set is **copy-on-write**: it also lives behind an [`Arc`], so
/// cloning a relation — and hence cloning a whole [`crate::Database`] for
/// a snapshot, a transition report, or a pre-state reconstruction — is a
/// reference-count bump regardless of cardinality. The first genuine
/// mutation of a shared state unshares it with [`Arc::make_mut`] (one
/// full set copy, paid once per outstanding clone); mutations that would
/// not change the set (inserting a present tuple, removing an absent one)
/// are detected *before* unsharing and never copy anything. Relations no
/// clone-holder touches share storage forever — [`Relation::shares_storage`]
/// makes that observable for tests.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<RelationSchema>,
    tuples: Arc<FxHashSet<Tuple>>,
}

impl Relation {
    /// Create an empty relation state of the given schema.
    pub fn empty(schema: Arc<RelationSchema>) -> Self {
        Relation {
            schema,
            tuples: shared_empty(),
        }
    }

    /// Create an empty relation state with capacity for `cap` tuples.
    pub fn with_capacity(schema: Arc<RelationSchema>, cap: usize) -> Self {
        Relation {
            schema,
            tuples: Arc::new(fx_set_with_capacity(cap)),
        }
    }

    /// Create a relation from tuples, validating each against the schema.
    pub fn from_tuples(
        schema: Arc<RelationSchema>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The relation name (that of its schema).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples (set cardinality).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Set membership test.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Set membership test against a borrowed value slice — identical to
    /// [`Relation::contains`] without materializing a [`Tuple`] (tuples
    /// hash and compare as their slices). Hot probe paths use this.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.tuples.contains(row)
    }

    /// Insert a tuple after validating it against the schema. Returns
    /// `true` when the tuple was not already present.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.schema.validate_tuple(&tuple)?;
        Ok(self.insert_inner(tuple))
    }

    /// Insert a tuple that is already known to satisfy the schema
    /// (operator-internal fast path; debug builds still assert validity).
    pub fn insert_unchecked(&mut self, tuple: Tuple) -> bool {
        debug_assert!(self.schema.validate_tuple(&tuple).is_ok());
        self.insert_inner(tuple)
    }

    fn insert_inner(&mut self, tuple: Tuple) -> bool {
        match Arc::get_mut(&mut self.tuples) {
            // Uniquely owned: mutate in place, exactly the pre-COW cost.
            Some(set) => set.insert(tuple),
            // Shared: a duplicate insert must not pay the unsharing copy.
            None => {
                if self.tuples.contains(&tuple) {
                    false
                } else {
                    cow_mut(&mut self.tuples).insert(tuple)
                }
            }
        }
    }

    /// Bulk insert: validate and add every tuple, returning how many were
    /// new. Unlike a loop over [`Relation::insert`], a shared state is
    /// unshared (and its capacity grown) **once** for the whole batch, not
    /// re-checked per call — the path for initial loads and view
    /// materialization. Validation happens up front, so a batch with an
    /// invalid tuple changes nothing; a batch that would change nothing
    /// (empty, or every tuple already present) never unshares, keeping
    /// the no-op-mutations-never-copy invariant of the per-tuple path.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        let batch: Vec<Tuple> = tuples.into_iter().collect();
        for t in &batch {
            self.schema.validate_tuple(t)?;
        }
        if batch.is_empty()
            || (Arc::get_mut(&mut self.tuples).is_none()
                && batch.iter().all(|t| self.tuples.contains(t)))
        {
            return Ok(0);
        }
        // One unshare for the whole batch (no-op when already private).
        let set = cow_mut(&mut self.tuples);
        set.reserve(batch.len());
        let mut added = 0;
        for t in batch {
            if set.insert(t) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// [`Relation::extend`], returning the tuples that were actually new.
    /// Relations are sets: a batch may overlap existing contents, and a
    /// caller that must undo the bulk insert (e.g. a failed durability
    /// append) has to roll back exactly what was inserted — removing the
    /// whole input batch would delete pre-existing tuples. Pays one clone
    /// per *inserted* tuple; the plain [`Relation::extend`] stays
    /// clone-free for hot paths that never undo.
    pub fn extend_returning(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Vec<Tuple>> {
        let batch: Vec<Tuple> = tuples.into_iter().collect();
        for t in &batch {
            self.schema.validate_tuple(t)?;
        }
        if batch.is_empty()
            || (Arc::get_mut(&mut self.tuples).is_none()
                && batch.iter().all(|t| self.tuples.contains(t)))
        {
            return Ok(Vec::new());
        }
        let set = cow_mut(&mut self.tuples);
        set.reserve(batch.len());
        let mut added = Vec::new();
        for t in batch {
            if set.insert(t.clone()) {
                added.push(t);
            }
        }
        Ok(added)
    }

    /// Remove a tuple; returns `true` when it was present. Removing an
    /// absent tuple from a shared state does not unshare it.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        match Arc::get_mut(&mut self.tuples) {
            Some(set) => set.remove(tuple),
            None => {
                if self.tuples.contains(tuple) {
                    cow_mut(&mut self.tuples).remove(tuple)
                } else {
                    false
                }
            }
        }
    }

    /// Remove all tuples. A shared state is simply repointed at the shared
    /// empty set — the previous contents are never copied just to be
    /// discarded.
    pub fn clear(&mut self) {
        if self.tuples.is_empty() {
            return;
        }
        match Arc::get_mut(&mut self.tuples) {
            Some(set) => set.clear(), // keep the allocation when private
            None => self.tuples = shared_empty(),
        }
    }

    /// Iterate over the tuples (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples sorted by the total tuple order — deterministic output for
    /// display, goldens and reports.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        // Set members are distinct, so an unstable sort orders them
        // exactly as a stable one would.
        v.sort_unstable();
        v
    }

    /// Set equality with another relation state of a union-compatible
    /// schema.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.schema.union_compatible(other.schema())
            && (Arc::ptr_eq(&self.tuples, &other.tuples) || self.tuples == other.tuples)
    }

    /// Retain tuples satisfying a predicate (used by delete). When the
    /// state is shared and nothing would be removed, it stays shared.
    pub fn retain(&mut self, mut f: impl FnMut(&Tuple) -> bool) {
        if let Some(set) = Arc::get_mut(&mut self.tuples) {
            set.retain(f);
            return;
        }
        // Shared: find the doomed tuples first (cheap Arc-handle clones),
        // unshare only when there is something to remove. The predicate
        // still runs exactly once per tuple.
        let doomed: Vec<Tuple> = self.tuples.iter().filter(|t| !f(t)).cloned().collect();
        if doomed.is_empty() {
            return;
        }
        let set = cow_mut(&mut self.tuples);
        for t in &doomed {
            set.remove(t);
        }
    }

    /// Replace this state with `other`'s — tuples **and** schema. The
    /// schemas must be union-compatible: adopting the source schema keeps
    /// the invariant that a relation's tuples validated against the schema
    /// it carries (keeping `self`'s schema would silently pair it with
    /// tuples that never validated against it).
    ///
    /// # Panics
    /// Debug builds panic when the schemas are not union-compatible.
    pub fn assign_from(&mut self, other: &Relation) {
        debug_assert!(
            self.schema.union_compatible(other.schema()),
            "assign_from between incompatible schemas `{}` and `{}`",
            self.schema,
            other.schema()
        );
        self.schema = other.schema.clone();
        // COW: assignment shares the source's storage (refcount bump).
        self.tuples = other.tuples.clone();
    }

    /// Consume the relation and return its tuple set (copies only when the
    /// storage is still shared with another state).
    pub fn into_tuples(self) -> FxHashSet<Tuple> {
        Arc::try_unwrap(self.tuples).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Borrow the underlying tuple set.
    pub fn tuples(&self) -> &FxHashSet<Tuple> {
        &self.tuples
    }

    /// Whether two relation states share the same physical tuple storage —
    /// the observable guarantee of the copy-on-write layout. True for a
    /// fresh clone (or any chain of clones none of which was mutated);
    /// false as soon as either side unshares. Sharing implies set
    /// equality, never the converse.
    pub fn shares_storage(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    /// Produce a private deep copy whose tuple set shares nothing with
    /// `self` (the tuples themselves still share their `Arc<[Value]>`
    /// payloads, as all tuple handles do). This is exactly the per-relation
    /// cost the executor paid on *every* transaction begin before the COW
    /// layout — retained for callers that genuinely need unaliased
    /// storage (the COW aliasing tests' reference states).
    pub fn unshared_copy(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: Arc::new((*self.tuples).clone()),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && (Arc::ptr_eq(&self.tuples, &other.tuples) || self.tuples == other.tuples)
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.sorted_tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::{Value, ValueType};

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::of(
            "r",
            &[("a", ValueType::Int), ("b", ValueType::Str)],
        ))
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut r = Relation::empty(schema());
        assert!(r.insert(Tuple::of((1, "x"))).unwrap());
        assert!(!r.insert(Tuple::of((1, "x"))).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::of((1, "x"))));
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = Relation::empty(schema());
        assert!(r.insert(Tuple::of(("bad", "x"))).is_err());
        assert!(r.insert(Tuple::of((1,))).is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn remove_and_retain() {
        let mut r = Relation::from_tuples(
            schema(),
            vec![
                Tuple::of((1, "x")),
                Tuple::of((2, "y")),
                Tuple::of((3, "z")),
            ],
        )
        .unwrap();
        assert!(r.remove(&Tuple::of((2, "y"))));
        assert!(!r.remove(&Tuple::of((2, "y"))));
        r.retain(|t| t.get(0) == Some(&Value::Int(1)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sorted_tuples_is_deterministic() {
        let mut r = Relation::empty(schema());
        for i in (0..10).rev() {
            r.insert(Tuple::of((i, "t"))).unwrap();
        }
        let sorted = r.sorted_tuples();
        for w in sorted.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn set_equality_ignores_names() {
        let a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let other_schema = Arc::new(RelationSchema::of(
            "s",
            &[("c", ValueType::Int), ("d", ValueType::Str)],
        ));
        let b = Relation::from_tuples(other_schema, vec![Tuple::of((1, "x"))]).unwrap();
        assert!(a.set_eq(&b));
        assert_ne!(a, b); // strict equality compares schemas
    }

    #[test]
    fn assign_from_replaces_contents() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = Relation::from_tuples(schema(), vec![Tuple::of((2, "y"))]).unwrap();
        a.assign_from(&b);
        assert!(a.contains(&Tuple::of((2, "y"))));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn assign_from_adopts_source_schema() {
        // Union-compatible but differently named schema: the tuples only
        // validated against the *source* schema, so it must come along.
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let other = Arc::new(RelationSchema::of(
            "s",
            &[("c", ValueType::Int), ("d", ValueType::Str)],
        ));
        let b = Relation::from_tuples(other.clone(), vec![Tuple::of((2, "y"))]).unwrap();
        a.assign_from(&b);
        assert_eq!(a.schema(), &other);
        assert!(a.insert(Tuple::of((3, "z"))).is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "incompatible schemas")]
    fn assign_from_incompatible_schema_asserts() {
        let mut a = Relation::empty(schema());
        let b = Relation::empty(Arc::new(RelationSchema::of("q", &[("n", ValueType::Int)])));
        a.assign_from(&b);
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = a.clone();
        assert!(a.shares_storage(&b));
        a.insert(Tuple::of((2, "y"))).unwrap();
        assert!(!a.shares_storage(&b), "mutation must unshare");
        assert_eq!(b.len(), 1, "clone unaffected by mutation");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn noop_mutations_keep_sharing() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = a.clone();
        // Duplicate insert, absent remove, all-true retain: none unshares.
        assert!(!a.insert(Tuple::of((1, "x"))).unwrap());
        assert!(!a.remove(&Tuple::of((9, "z"))));
        a.retain(|_| true);
        assert!(a.shares_storage(&b));
    }

    #[test]
    fn shared_retain_removes_without_touching_clone() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x")), Tuple::of((2, "y"))])
            .unwrap();
        let b = a.clone();
        a.retain(|t| t.get(0) == Some(&Value::Int(1)));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert!(!a.shares_storage(&b));
    }

    #[test]
    fn clear_on_shared_state_repoints_not_copies() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = a.clone();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(b.len(), 1);
        // Two independently cleared/created empties share the one global
        // empty set.
        assert!(a.shares_storage(&Relation::empty(schema())));
    }

    #[test]
    fn empty_relations_share_the_global_empty() {
        let a = Relation::empty(schema());
        let b = Relation::empty(Arc::new(RelationSchema::of("q", &[("n", ValueType::Int)])));
        assert!(a.shares_storage(&b));
    }

    #[test]
    fn assign_from_shares_source_storage() {
        let mut a = Relation::empty(schema());
        let b = Relation::from_tuples(schema(), vec![Tuple::of((2, "y"))]).unwrap();
        a.assign_from(&b);
        assert!(a.shares_storage(&b));
    }

    #[test]
    fn unshared_copy_is_deep() {
        let a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = a.unshared_copy();
        assert_eq!(a, b);
        assert!(!a.shares_storage(&b));
    }

    #[test]
    fn extend_bulk_inserts_and_validates_up_front() {
        let mut a = Relation::empty(schema());
        let n = a
            .extend(vec![
                Tuple::of((1, "x")),
                Tuple::of((2, "y")),
                Tuple::of((1, "x")), // duplicate
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(a.len(), 2);
        // An invalid tuple anywhere in the batch rejects the whole batch.
        let err = a.extend(vec![Tuple::of((3, "z")), Tuple::of(("bad",))]);
        assert!(err.is_err());
        assert_eq!(a.len(), 2, "failed batch must change nothing");
    }

    #[test]
    fn extend_returning_reports_only_new_tuples() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let added = a
            .extend_returning(vec![Tuple::of((1, "x")), Tuple::of((2, "y"))])
            .unwrap();
        assert_eq!(added, vec![Tuple::of((2, "y"))]);
        assert_eq!(a.len(), 2);
        // An all-duplicate batch inserts (and returns) nothing.
        assert!(a
            .extend_returning(vec![Tuple::of((2, "y"))])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn extend_unshares_once_and_only_from_clones() {
        let mut a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let snapshot = a.clone();
        a.extend((2..100).map(|i| Tuple::of((i, "t")))).unwrap();
        assert_eq!(a.len(), 99);
        assert_eq!(snapshot.len(), 1, "clone must not see the batch");
        assert!(!a.shares_storage(&snapshot));
        // A private state stays private (no observable resharing).
        let before = a.clone();
        a.extend(std::iter::empty()).unwrap();
        assert!(a.shares_storage(&before), "empty batch must not copy");
        // An all-duplicate batch on a shared state must not unshare —
        // the bulk counterpart of `insert`'s duplicate guard.
        let n = a
            .extend(vec![Tuple::of((2, "t")), Tuple::of((3, "t"))])
            .unwrap();
        assert_eq!(n, 0);
        assert!(
            a.shares_storage(&before),
            "no-op batch on a shared state must not copy"
        );
    }

    #[test]
    fn into_tuples_shared_and_unique() {
        let a = Relation::from_tuples(schema(), vec![Tuple::of((1, "x"))]).unwrap();
        let b = a.clone();
        // Shared: consuming one copies, leaving the other intact.
        let set = a.into_tuples();
        assert_eq!(set.len(), 1);
        assert_eq!(b.len(), 1);
        // Unique: consuming moves without a copy (observable only as
        // correctness here).
        let set = b.into_tuples();
        assert_eq!(set.len(), 1);
    }
}

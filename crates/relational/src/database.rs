//! Database states and transitions (Definitions 2.2 and 2.3).

use std::fmt;
use std::sync::Arc;

use crate::error::{RelationalError, Result};
use crate::relation::Relation;
use crate::schema::DatabaseSchema;
use crate::tuple::Tuple;
use crate::util::FxHashMap;

/// A database state `D` of schema `𝒟`: one relation state per relation
/// schema, plus the logical time `t` of Definition 2.3.
///
/// Database states are value-like: cloning produces an independent state.
/// With [`Relation`]'s copy-on-write tuple storage a clone is
/// O(#relations) reference-count bumps — no tuple set is copied until one
/// side mutates it, and then only that relation's set. Holders of clones
/// (engine snapshots, transition reporting, tests) therefore cost the
/// writer at most one set copy per relation per outstanding clone, while
/// the transaction executor in `tm-algebra` mutates the live state in
/// place and restores it from its change records on abort — O(Δ), never a
/// database copy.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Arc<DatabaseSchema>,
    relations: FxHashMap<String, Relation>,
    logical_time: u64,
}

impl Database {
    /// Create an empty database state (all relations empty, time 0).
    pub fn new(schema: Arc<DatabaseSchema>) -> Self {
        let mut relations = FxHashMap::default();
        for r in schema.relations() {
            relations.insert(r.name().to_owned(), Relation::empty(Arc::new(r.clone())));
        }
        Database {
            schema,
            relations,
            logical_time: 0,
        }
    }

    /// The database schema.
    pub fn schema(&self) -> &Arc<DatabaseSchema> {
        &self.schema
    }

    /// The logical time `t` of this state.
    pub fn logical_time(&self) -> u64 {
        self.logical_time
    }

    /// Advance the logical time by one step (called on commit *and* abort:
    /// Definition 2.5 installs either `[D^{t,n}]` or `D^t` as `D^{t+1}`).
    pub fn tick(&mut self) {
        self.logical_time += 1;
    }

    /// Restore the logical time to a recorded value. This exists for
    /// crash recovery (`tm-durable` checkpoints record the time alongside
    /// the state); live execution only ever moves the clock via
    /// [`Database::tick`].
    pub fn set_logical_time(&mut self, t: u64) {
        self.logical_time = t;
    }

    /// Borrow a relation state by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_owned()))
    }

    /// Mutably borrow a relation state by name.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_owned()))
    }

    /// Insert a tuple into a base relation; returns whether it was new.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<bool> {
        self.relation_mut(name)?.insert(tuple)
    }

    /// Remove a tuple from a base relation; returns whether it was present.
    pub fn delete(&mut self, name: &str, tuple: &Tuple) -> Result<bool> {
        Ok(self.relation_mut(name)?.remove(tuple))
    }

    /// Bulk insert into a base relation; returns how many tuples were new.
    /// One name lookup and at most one COW unshare for the whole batch
    /// (see [`Relation::extend`]) — per-tuple [`Database::insert`] pays
    /// the lookup, the share check, and schema validation on every call.
    pub fn extend(&mut self, name: &str, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        self.relation_mut(name)?.extend(tuples)
    }

    /// [`Database::extend`], returning the actually-inserted tuples (see
    /// [`Relation::extend_returning`]) — the undo-precise bulk-load path.
    pub fn extend_returning(
        &mut self,
        name: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Vec<Tuple>> {
        self.relation_mut(name)?.extend_returning(tuples)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterate over `(name, relation)` pairs in schema declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.schema
            .relations()
            .iter()
            .map(move |rs| (rs.name(), &self.relations[rs.name()]))
    }

    /// Produce a state whose relation storage shares nothing with `self` —
    /// every tuple set is physically copied (tuple payloads still share
    /// their `Arc<[Value]>`, as tuple handles always do). This is the
    /// pre-COW cost of one `Database::clone`; tests use it to build
    /// reference states that COW aliasing bugs cannot reach.
    pub fn unshared_copy(&self) -> Database {
        Database {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(name, rel)| (name.clone(), rel.unshared_copy()))
                .collect(),
            logical_time: self.logical_time,
        }
    }

    /// State equality disregarding logical time — two states are the same
    /// point of the database universe when all relation states agree.
    pub fn state_eq(&self, other: &Database) -> bool {
        if self.schema != other.schema {
            return false;
        }
        self.iter()
            .all(|(name, rel)| other.relations.get(name).is_some_and(|o| o == rel))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "database @ t={}", self.logical_time)?;
        for (_, rel) in self.iter() {
            write!(f, "{rel}")?;
        }
        Ok(())
    }
}

/// A single-step database transition `(D^t, D^{t+1})` (Definition 2.3).
///
/// Transition constraints (Definition 3.3) are evaluated over this pair;
/// the `before` state also backs the `R@pre` auxiliary relations.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The pre-transaction state `D^{t1}`.
    pub before: Database,
    /// The post-transaction state `D^{t2}`, `t1 < t2`.
    pub after: Database,
}

impl Transition {
    /// Create a transition, asserting the logical-time ordering of
    /// Definition 2.3 (`t1 < t2`).
    pub fn new(before: Database, after: Database) -> Self {
        debug_assert!(
            before.logical_time() < after.logical_time(),
            "transition requires t1 < t2"
        );
        Transition { before, after }
    }

    /// Whether this is an identity transition (aborted transaction).
    pub fn is_identity(&self) -> bool {
        self.before.state_eq(&self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::beer_schema;

    fn db() -> Database {
        Database::new(beer_schema().into_shared())
    }

    fn beer_tuple(name: &str) -> Tuple {
        Tuple::of((name, "pils", "heineken", 5.0_f64))
    }

    #[test]
    fn new_database_is_empty() {
        let d = db();
        assert_eq!(d.logical_time(), 0);
        assert_eq!(d.total_tuples(), 0);
        assert!(d.relation("beer").unwrap().is_empty());
        assert!(d.relation("nope").is_err());
    }

    #[test]
    fn insert_delete_round_trip() {
        let mut d = db();
        assert!(d.insert("beer", beer_tuple("a")).unwrap());
        assert!(!d.insert("beer", beer_tuple("a")).unwrap());
        assert_eq!(d.total_tuples(), 1);
        assert!(d.delete("beer", &beer_tuple("a")).unwrap());
        assert!(!d.delete("beer", &beer_tuple("a")).unwrap());
    }

    #[test]
    fn extend_bulk_loads() {
        let mut d = db();
        let snapshot = d.clone();
        let n = d
            .extend(
                "beer",
                vec![beer_tuple("a"), beer_tuple("b"), beer_tuple("a")],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(d.relation("beer").unwrap().len(), 2);
        assert_eq!(snapshot.relation("beer").unwrap().len(), 0);
        assert!(d.extend("nope", vec![beer_tuple("c")]).is_err());
    }

    #[test]
    fn clone_isolation() {
        let mut d = db();
        d.insert("beer", beer_tuple("a")).unwrap();
        let snapshot = d.clone();
        d.insert("beer", beer_tuple("b")).unwrap();
        assert_eq!(snapshot.relation("beer").unwrap().len(), 1);
        assert_eq!(d.relation("beer").unwrap().len(), 2);
    }

    #[test]
    fn state_eq_ignores_time() {
        let mut a = db();
        let mut b = db();
        a.insert("beer", beer_tuple("a")).unwrap();
        b.insert("beer", beer_tuple("a")).unwrap();
        b.tick();
        assert!(a.state_eq(&b));
        b.insert("beer", beer_tuple("b")).unwrap();
        assert!(!a.state_eq(&b));
    }

    #[test]
    fn transition_identity() {
        let before = db();
        let mut after = before.clone();
        after.tick();
        let t = Transition::new(before, after);
        assert!(t.is_identity());
    }

    #[test]
    fn clone_shares_per_relation_cow_storage() {
        let mut d = db();
        d.insert("beer", beer_tuple("a")).unwrap();
        let snapshot = d.clone();
        for (name, rel) in d.iter() {
            assert!(rel.shares_storage(snapshot.relation(name).unwrap()));
        }
        // Touching one relation unshares only that relation.
        d.insert("beer", beer_tuple("b")).unwrap();
        assert!(!d
            .relation("beer")
            .unwrap()
            .shares_storage(snapshot.relation("beer").unwrap()));
        assert!(d
            .relation("brewery")
            .unwrap()
            .shares_storage(snapshot.relation("brewery").unwrap()));
    }

    #[test]
    fn unshared_copy_shares_nothing() {
        let mut d = db();
        d.insert("beer", beer_tuple("a")).unwrap();
        let copy = d.unshared_copy();
        assert!(d.state_eq(&copy));
        for (name, rel) in d.iter() {
            assert!(!rel.shares_storage(copy.relation(name).unwrap()));
        }
    }

    #[test]
    fn iteration_order_is_declaration_order() {
        let d = db();
        let names: Vec<&str> = d.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["beer", "brewery"]);
    }
}

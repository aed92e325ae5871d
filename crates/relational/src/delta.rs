//! Net per-relation change records.
//!
//! A committed transaction's effect on one relation is exactly its net
//! differential pair `(R@ins, R@del)` from Section 4.1 — the net fold of
//! the change log the executor keeps for rollback, and the redo log entry
//! the durability subsystem persists (`tm-durable`). A [`RelationDelta`] is
//! that pair flattened to sorted tuple lists: deterministic bytes for the
//! WAL, disjoint by construction (a tuple both inserted and deleted nets
//! to nothing and never appears).

use crate::database::Database;
use crate::error::Result;
use crate::tuple::Tuple;

/// The net change a committed transaction made to one relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationDelta {
    /// The base relation the delta applies to.
    pub relation: String,
    /// Tuples the transaction added (absent before, present after).
    pub inserted: Vec<Tuple>,
    /// Tuples the transaction removed (present before, absent after).
    pub deleted: Vec<Tuple>,
}

impl RelationDelta {
    /// A delta with no effect.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Redo: apply this delta to a database state. Deletions run first;
    /// insertions are re-validated against the schema, so a delta decoded
    /// from damaged storage surfaces an error instead of corrupting the
    /// state.
    pub fn apply(&self, db: &mut Database) -> Result<()> {
        let rel = db.relation_mut(&self.relation)?;
        for t in &self.deleted {
            rel.remove(t);
        }
        for t in &self.inserted {
            rel.insert(t.clone())?;
        }
        Ok(())
    }

    /// Undo: apply the inverse of this delta (remove what it inserted,
    /// re-insert what it deleted). Used when a commit cannot be made
    /// durable and must be rolled back.
    pub fn unapply(&self, db: &mut Database) -> Result<()> {
        let rel = db.relation_mut(&self.relation)?;
        for t in &self.inserted {
            rel.remove(t);
        }
        for t in &self.deleted {
            rel.insert(t.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::beer_schema;

    #[test]
    fn apply_and_unapply_invert() {
        let mut db = Database::new(beer_schema().into_shared());
        db.extend("brewery", vec![Tuple::of(("old", "x", "y"))])
            .unwrap();
        let before = db.unshared_copy();
        let delta = RelationDelta {
            relation: "brewery".into(),
            inserted: vec![Tuple::of(("new", "a", "b"))],
            deleted: vec![Tuple::of(("old", "x", "y"))],
        };
        delta.apply(&mut db).unwrap();
        assert_eq!(db.relation("brewery").unwrap().len(), 1);
        assert!(db
            .relation("brewery")
            .unwrap()
            .contains(&Tuple::of(("new", "a", "b"))));
        delta.unapply(&mut db).unwrap();
        assert!(db.state_eq(&before));
    }

    /// Two deltas over disjoint tuples reach the same state in either
    /// order — why serial commits of disjoint transactions commute.
    #[test]
    fn disjoint_writes_commute() {
        let a = Tuple::of(("a", "x", "y"));
        let z = Tuple::of(("z", "x", "y"));
        let mut base = Database::new(beer_schema().into_shared());
        base.extend("brewery", vec![a.clone()]).unwrap();
        let ins = RelationDelta {
            relation: "brewery".into(),
            inserted: vec![z],
            deleted: Vec::new(),
        };
        let del = RelationDelta {
            relation: "brewery".into(),
            inserted: Vec::new(),
            deleted: vec![a],
        };
        let (mut one, mut two) = (base.unshared_copy(), base.unshared_copy());
        ins.apply(&mut one).unwrap();
        del.apply(&mut one).unwrap();
        del.apply(&mut two).unwrap();
        ins.apply(&mut two).unwrap();
        assert!(one.state_eq(&two));
        assert_eq!(one.relation("brewery").unwrap().len(), 1);
    }
}

//! Net per-relation change records.
//!
//! A committed transaction's effect on one relation is exactly its net
//! differential pair `(R@ins, R@del)` from Section 4.1 — the net fold of
//! the change log the executor keeps for rollback, and the redo log entry
//! the durability subsystem persists (`tm-durable`). [`net_view`] is that
//! fold, the one behind the executor's auxiliary relations and the WAL's
//! commit frames; a [`RelationDelta`] is one relation's share of it
//! flattened to sorted tuple lists — what a decoded commit frame replays.
//! Both are disjoint by construction: a tuple both inserted and deleted
//! nets to nothing and never appears.

use crate::database::Database;
use crate::error::Result;
use crate::tuple::Tuple;

/// One entry of a change log or of its net view: a relation, a tuple, and
/// whether the tuple was inserted (else deleted).
pub type NetChange<'a> = (&'a str, &'a Tuple, bool);

/// Fold change-log entries into their net view: one entry per tuple whose
/// presence the log changed, sorted by relation name, then tuple order.
/// Every entry of a change log is a genuine change at the moment it ran,
/// so a tuple's inserts and deletes alternate and cancel: an equal count
/// nets to nothing, one more insert to an insertion, one more delete to a
/// deletion. The result is `R − R@pre` (inserted) and `R@pre − R`
/// (deleted) for every relation the log names; a relation whose net
/// change is empty has no entry.
pub fn net_view<'a>(log: impl IntoIterator<Item = NetChange<'a>>) -> Vec<NetChange<'a>> {
    let mut view: Vec<NetChange<'a>> = log.into_iter().collect();
    view.sort_unstable();
    let mut kept = 0;
    let mut run = 0;
    while run < view.len() {
        let (relation, tuple, _) = view[run];
        let mut balance = 0i64;
        let mut end = run;
        while end < view.len() && view[end].0 == relation && view[end].1 == tuple {
            balance += if view[end].2 { 1 } else { -1 };
            end += 1;
        }
        if balance != 0 {
            view[kept] = (relation, tuple, balance > 0);
            kept += 1;
        }
        run = end;
    }
    view.truncate(kept);
    view
}

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

    #[test]
    fn net_view_cancels_and_sorts() {
        let (a, b, c) = (Tuple::of((1,)), Tuple::of((2,)), Tuple::of((3,)));
        let log = [
            ("s", &c, true),
            ("r", &b, false),
            ("r", &a, true),
            ("r", &b, true), // cancels the delete of b
            ("r", &a, false),
            ("r", &a, true), // a: inserted, deleted, inserted again
            ("s", &a, false),
        ];
        assert_eq!(
            net_view(log),
            [("r", &a, true), ("s", &a, false), ("s", &c, true)]
        );
        assert!(net_view([("r", &a, true), ("r", &a, false)]).is_empty());
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

//! The ad-hoc plan cache: one prepared plan per transaction *shape*.
//!
//! `ModT` (Algorithm 5.1) and the §5.2 weakest-precondition
//! specialization depend on which relations a transaction writes and how,
//! not on the constants it writes. [`crate::Engine::execute`] therefore
//! lifts the constants of a point transaction into parameters
//! ([`tm_algebra::Transaction::lift_constants`]) and keeps the plan of the
//! lifted template — the transaction's shape — in this table, so a
//! repeated shape binds its values and runs with no `ModT` and no plan
//! compilation. Simplifying once per parametrised update pattern and
//! instantiating the result per update is how Aït-Bouziad et al. and
//! Martinenghi make integrity checking cheap.
//!
//! The table is separate from the statement table: shapes take no
//! [`crate::StatementId`], and nothing outside the engine names them. It
//! holds plans of one catalog epoch only — every entry goes when the
//! epoch moves — and at most [`SHAPE_CAP`] shapes; a shape met when the
//! table is full runs the uncached path and is not stored.

use tm_algebra::Transaction;
use tm_relational::util::FxHashMap;

use crate::prepared::Prepared;

/// The most shapes one engine keeps.
pub(crate) const SHAPE_CAP: usize = 256;

/// Shape → plan, for one catalog epoch. A plan is kept in a slot, so the
/// engine can name it without holding a borrow of the table while the
/// plan runs. A `None` plan records a shape whose plan does not run on
/// point ops only: it is not prepared again until the epoch moves, and
/// its transactions take the uncached path.
/// That path also keeps their answers those of their literal plans: a
/// literal plan can drop a check that its shape keeps generic (parameter
/// rows that meet a delete of the same relation), and the shape's plan
/// would scan the relation and count the check as evaluated.
#[derive(Debug, Default)]
pub(crate) struct ShapeCache {
    epoch: u64,
    plans: FxHashMap<Transaction, Option<usize>>,
    slots: Vec<Prepared>,
}

impl ShapeCache {
    /// The table as of catalog epoch `epoch`: emptied first when its
    /// entries were prepared under another one.
    pub(crate) fn at(&mut self, epoch: u64) -> &mut ShapeCache {
        if self.epoch != epoch {
            self.clear();
            self.epoch = epoch;
        }
        self
    }

    /// The entry of `shape`, if it is stored: its plan's slot, or `None`
    /// for a shape that runs generic.
    pub(crate) fn get(&self, shape: &Transaction) -> Option<Option<usize>> {
        self.plans.get(shape).copied()
    }

    /// The plan in `slot`.
    pub(crate) fn plan(&self, slot: usize) -> &Prepared {
        &self.slots[slot]
    }

    /// Whether no further shape may be stored.
    pub(crate) fn is_full(&self) -> bool {
        self.plans.len() >= SHAPE_CAP
    }

    /// Store `shape`'s plan (`None`: it runs generic), unless the table is
    /// full.
    pub(crate) fn insert(&mut self, shape: Transaction, plan: Option<Prepared>) {
        if !self.is_full() {
            let slot = plan.map(|plan| {
                self.slots.push(plan);
                self.slots.len() - 1
            });
            self.plans.insert(shape, slot);
        }
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.plans.clear();
        self.slots.clear();
    }

    /// Number of stored shapes.
    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }
}

//! Multiset (bag) relations — the SQL-oriented extension the paper's
//! conclusions point to ("An extension to a multi-set relational algebra is
//! presented in \[8\]. As a multi-set algebra is closely connected to SQL-like
//! environments, this can be an important factor in the usability of the
//! technique in practice.").
//!
//! A [`Multiset`] stores each distinct tuple with a positive multiplicity.
//! The `MLT` counting function mentioned in Algorithm 5.7's symbol legend
//! (`Γ2 ∈ {CNT, MLT}`) is the multiplicity lookup defined here.

use std::fmt;
use std::sync::Arc;

use tm_relational::util::FxHashMap;
use tm_relational::{Relation, RelationSchema, Result, Tuple};

/// A bag of tuples: each distinct tuple carries a multiplicity ≥ 1.
///
/// Like [`Relation`], the multiplicity map is copy-on-write behind an
/// [`Arc`]: cloning a bag is a reference-count bump, and the first
/// mutation of a shared bag pays one map copy. Removals of absent tuples
/// never unshare.
#[derive(Debug, Clone)]
pub struct Multiset {
    schema: Arc<RelationSchema>,
    counts: Arc<FxHashMap<Tuple, u64>>,
    total: u64,
}

impl Multiset {
    /// Create an empty bag of the given schema.
    pub fn empty(schema: Arc<RelationSchema>) -> Self {
        Multiset {
            schema,
            counts: Arc::new(FxHashMap::default()),
            total: 0,
        }
    }

    /// Build a bag from tuples (duplicates accumulate multiplicity).
    pub fn from_tuples(
        schema: Arc<RelationSchema>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut m = Multiset::empty(schema);
        for t in tuples {
            m.insert(t)?;
        }
        Ok(m)
    }

    /// Lift a set relation into a bag (all multiplicities 1).
    pub fn from_relation(rel: &Relation) -> Self {
        let mut counts = FxHashMap::default();
        for t in rel.iter() {
            counts.insert(t.clone(), 1);
        }
        Multiset {
            schema: rel.schema().clone(),
            total: counts.len() as u64,
            counts: Arc::new(counts),
        }
    }

    /// The bag's schema.
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// Total number of tuples counting multiplicity (`CNT` under bag
    /// semantics).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The multiplicity of `tuple` — the paper's `MLT` function. Zero when
    /// absent.
    pub fn multiplicity(&self, tuple: &Tuple) -> u64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    /// Insert one occurrence of `tuple` after schema validation.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.insert_n(tuple, 1)
    }

    /// Insert `n` occurrences of `tuple` after schema validation.
    pub fn insert_n(&mut self, tuple: Tuple, n: u64) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        self.schema.validate_tuple(&tuple)?;
        *Arc::make_mut(&mut self.counts).entry(tuple).or_insert(0) += n;
        self.total += n;
        Ok(())
    }

    /// Remove one occurrence; returns `true` if the tuple was present.
    /// Removing an absent tuple from a shared bag does not unshare it.
    pub fn remove_one(&mut self, tuple: &Tuple) -> bool {
        if !self.counts.contains_key(tuple) {
            return false;
        }
        let counts = Arc::make_mut(&mut self.counts);
        match counts.get_mut(tuple) {
            Some(c) if *c > 1 => *c -= 1,
            _ => {
                counts.remove(tuple);
            }
        }
        self.total -= 1;
        true
    }

    /// Remove all occurrences; returns the removed multiplicity. Removing
    /// an absent tuple from a shared bag does not unshare it.
    pub fn remove_all(&mut self, tuple: &Tuple) -> u64 {
        if !self.counts.contains_key(tuple) {
            return 0;
        }
        match Arc::make_mut(&mut self.counts).remove(tuple) {
            Some(c) => {
                self.total -= c;
                c
            }
            None => 0,
        }
    }

    /// Bag union: multiplicities add.
    pub fn union(&self, other: &Multiset) -> Multiset {
        if other.is_empty() {
            return self.clone(); // shares storage
        }
        let mut out = self.clone();
        let counts = Arc::make_mut(&mut out.counts);
        for (t, &c) in other.counts.iter() {
            *counts.entry(t.clone()).or_insert(0) += c;
        }
        out.total += other.total;
        out
    }

    /// Bag difference: multiplicities subtract, clamped at zero (monus).
    pub fn difference(&self, other: &Multiset) -> Multiset {
        if other.is_empty() {
            return self.clone(); // shares storage
        }
        let mut counts = FxHashMap::default();
        let mut total = 0;
        for (t, &c) in self.counts.iter() {
            let oc = other.multiplicity(t);
            if c > oc {
                counts.insert(t.clone(), c - oc);
                total += c - oc;
            }
        }
        Multiset {
            schema: self.schema.clone(),
            counts: Arc::new(counts),
            total,
        }
    }

    /// Bag intersection: pointwise minimum of multiplicities.
    pub fn intersect(&self, other: &Multiset) -> Multiset {
        let mut counts = FxHashMap::default();
        let mut total = 0;
        for (t, &c) in self.counts.iter() {
            let m = c.min(other.multiplicity(t));
            if m > 0 {
                counts.insert(t.clone(), m);
                total += m;
            }
        }
        Multiset {
            schema: self.schema.clone(),
            counts: Arc::new(counts),
            total,
        }
    }

    /// Collapse to set semantics (duplicate elimination).
    pub fn to_relation(&self) -> Relation {
        let mut rel = Relation::with_capacity(self.schema.clone(), self.counts.len());
        for t in self.counts.keys() {
            rel.insert_unchecked(t.clone());
        }
        rel
    }

    /// Iterate over `(tuple, multiplicity)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Iterate over every occurrence (tuples repeated per multiplicity).
    pub fn iter_occurrences(&self) -> impl Iterator<Item = &Tuple> {
        self.counts
            .iter()
            .flat_map(|(t, &c)| std::iter::repeat_n(t, c as usize))
    }

    /// Bag equality: same multiplicities for all tuples.
    pub fn bag_eq(&self, other: &Multiset) -> bool {
        self.total == other.total
            && (Arc::ptr_eq(&self.counts, &other.counts) || self.counts == other.counts)
    }

    /// Whether two bags share the same physical multiplicity map (COW
    /// aliasing probe, mirroring [`Relation::shares_storage`]).
    pub fn shares_storage(&self, other: &Multiset) -> bool {
        Arc::ptr_eq(&self.counts, &other.counts)
    }
}

impl fmt::Display for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{} tuples, {} distinct]",
            self.schema,
            self.total,
            self.distinct_len()
        )?;
        let mut entries: Vec<(&Tuple, u64)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (t, c) in entries {
            writeln!(f, "  {t} x{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::ValueType;

    fn schema() -> Arc<RelationSchema> {
        Arc::new(RelationSchema::of("r", &[("a", ValueType::Int)]))
    }

    fn bag(vals: &[i64]) -> Multiset {
        Multiset::from_tuples(schema(), vals.iter().map(|&v| Tuple::of((v,)))).unwrap()
    }

    #[test]
    fn multiplicity_tracking() {
        let m = bag(&[1, 1, 2]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct_len(), 2);
        assert_eq!(m.multiplicity(&Tuple::of((1,))), 2);
        assert_eq!(m.multiplicity(&Tuple::of((2,))), 1);
        assert_eq!(m.multiplicity(&Tuple::of((9,))), 0);
    }

    #[test]
    fn remove_one_vs_all() {
        let mut m = bag(&[1, 1, 1]);
        assert!(m.remove_one(&Tuple::of((1,))));
        assert_eq!(m.multiplicity(&Tuple::of((1,))), 2);
        assert_eq!(m.remove_all(&Tuple::of((1,))), 2);
        assert!(m.is_empty());
        assert!(!m.remove_one(&Tuple::of((1,))));
    }

    #[test]
    fn bag_union_adds_multiplicities() {
        let a = bag(&[1, 2]);
        let b = bag(&[1, 1, 3]);
        let u = a.union(&b);
        assert_eq!(u.multiplicity(&Tuple::of((1,))), 3);
        assert_eq!(u.multiplicity(&Tuple::of((2,))), 1);
        assert_eq!(u.multiplicity(&Tuple::of((3,))), 1);
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn bag_difference_is_monus() {
        let a = bag(&[1, 1, 1, 2]);
        let b = bag(&[1, 2, 2]);
        let d = a.difference(&b);
        assert_eq!(d.multiplicity(&Tuple::of((1,))), 2);
        assert_eq!(d.multiplicity(&Tuple::of((2,))), 0);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn bag_intersection_is_min() {
        let a = bag(&[1, 1, 2]);
        let b = bag(&[1, 1, 1]);
        let i = a.intersect(&b);
        assert_eq!(i.multiplicity(&Tuple::of((1,))), 2);
        assert_eq!(i.multiplicity(&Tuple::of((2,))), 0);
    }

    #[test]
    fn set_collapse_round_trip() {
        let m = bag(&[1, 1, 2, 3, 3, 3]);
        let r = m.to_relation();
        assert_eq!(r.len(), 3);
        let back = Multiset::from_relation(&r);
        assert_eq!(back.len(), 3);
        assert_eq!(back.multiplicity(&Tuple::of((3,))), 1);
    }

    #[test]
    fn insert_n_and_zero() {
        let mut m = Multiset::empty(schema());
        m.insert_n(Tuple::of((5,)), 4).unwrap();
        m.insert_n(Tuple::of((5,)), 0).unwrap();
        assert_eq!(m.multiplicity(&Tuple::of((5,))), 4);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn schema_still_validated() {
        let mut m = Multiset::empty(schema());
        assert!(m.insert(Tuple::of(("wrong",))).is_err());
    }

    #[test]
    fn bag_equality() {
        assert!(bag(&[1, 1, 2]).bag_eq(&bag(&[2, 1, 1])));
        assert!(!bag(&[1, 2]).bag_eq(&bag(&[1, 1, 2])));
    }

    #[test]
    fn clone_is_cow() {
        let mut a = bag(&[1, 1, 2]);
        let b = a.clone();
        assert!(a.shares_storage(&b));
        // Absent removals keep sharing; a real mutation unshares.
        assert!(!a.remove_one(&Tuple::of((9,))));
        assert_eq!(a.remove_all(&Tuple::of((9,))), 0);
        assert!(a.shares_storage(&b));
        a.insert(Tuple::of((1,))).unwrap();
        assert!(!a.shares_storage(&b));
        assert_eq!(b.multiplicity(&Tuple::of((1,))), 2);
        assert_eq!(a.multiplicity(&Tuple::of((1,))), 3);
    }

    #[test]
    fn union_difference_with_empty_share() {
        let a = bag(&[1, 2]);
        let empty = Multiset::empty(schema());
        assert!(a.union(&empty).shares_storage(&a));
        assert!(a.difference(&empty).shares_storage(&a));
    }
}

//! An inverted index over trigger sets: `trigger → entries`.
//!
//! Rule selection (`SelRS`, Algorithm 5.2) asks "which rules have a
//! trigger set intersecting the current frontier?" every modification
//! round. A linear scan answers that in O(N) per round over a catalog of
//! N rules — fine for the paper's examples, hostile to the large catalogs
//! the §7 experiments scale to, where a given transaction can only ever
//! touch a handful of rules. [`TriggerIndex`] inverts the relationship
//! once, at catalog-build time: each trigger maps to the (ordered) list of
//! entries carrying it, so a round costs O(|frontier| + |affected|)
//! regardless of catalog size. This is stage 1 of prepare-time constraint
//! specialization — relevance filtering — and it also serves the ad-hoc
//! path, since nothing about it is specific to templates.

use std::collections::BTreeMap;

use crate::trigger::{Trigger, TriggerSet};

/// An inverted index from [`Trigger`] to the positions (in catalog order)
/// of the trigger sets containing it.
///
/// Positions are whatever the caller indexes — in `txmod` they are
/// offsets into the catalog's parallel rule/program vectors. The index is
/// maintained in place: [`TriggerIndex::add`] appends an entry and
/// [`TriggerIndex::remove`] drops one and renumbers the entries above it,
/// so either way it equals [`TriggerIndex::build`] over the current sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriggerIndex {
    by_trigger: BTreeMap<Trigger, Vec<usize>>,
    len: usize,
}

impl TriggerIndex {
    /// An empty index.
    pub fn new() -> TriggerIndex {
        TriggerIndex::default()
    }

    /// Build an index over `sets`, where position `i` holds the trigger
    /// set of entry `i`.
    pub fn build<'a>(sets: impl IntoIterator<Item = &'a TriggerSet>) -> TriggerIndex {
        let mut index = TriggerIndex::new();
        for set in sets {
            index.add(set);
        }
        index
    }

    /// Append the next entry's trigger set. Entries must be added in
    /// position order (the entry's position is the number of entries
    /// added before it).
    pub fn add(&mut self, set: &TriggerSet) {
        let pos = self.len;
        self.len += 1;
        for t in set.iter() {
            self.by_trigger.entry(t.clone()).or_default().push(pos);
        }
    }

    /// Remove entry `pos`; the entries above it move down one position,
    /// as in a `Vec::remove` of the caller's parallel vectors. Costs one
    /// pass of integer shifting over the indexed positions.
    pub fn remove(&mut self, pos: usize) {
        assert!(pos < self.len, "no entry {pos} in an index of {}", self.len);
        self.len -= 1;
        self.by_trigger.retain(|_, entries| {
            entries.retain(|&p| p != pos);
            for p in entries.iter_mut().filter(|p| **p > pos) {
                *p -= 1;
            }
            !entries.is_empty()
        });
    }

    /// Number of entries indexed (not the number of distinct triggers).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries have been indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The positions whose trigger sets intersect `frontier`, sorted and
    /// deduplicated — i.e. in catalog order, each entry once, exactly the
    /// set a linear `intersects` scan would select. Cost is proportional
    /// to the frontier and the affected entries, never to the catalog.
    pub fn candidates(&self, frontier: &TriggerSet) -> Vec<usize> {
        let mut out: Vec<usize> = frontier
            .iter()
            .filter_map(|t| self.by_trigger.get(t))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::Trigger;

    fn ts(triggers: Vec<Trigger>) -> TriggerSet {
        TriggerSet::from_triggers(triggers)
    }

    #[test]
    fn candidates_match_linear_scan() {
        let sets = vec![
            ts(vec![Trigger::ins("a")]),
            ts(vec![Trigger::ins("b"), Trigger::del("a")]),
            ts(vec![Trigger::del("c")]),
            ts(vec![Trigger::ins("a"), Trigger::ins("b")]),
            ts(vec![]),
        ];
        let index = TriggerIndex::build(&sets);
        assert_eq!(index.len(), 5);
        for frontier in [
            ts(vec![Trigger::ins("a")]),
            ts(vec![Trigger::ins("b")]),
            ts(vec![Trigger::del("a"), Trigger::del("c")]),
            ts(vec![
                Trigger::ins("a"),
                Trigger::ins("b"),
                Trigger::del("c"),
            ]),
            ts(vec![Trigger::del("nope")]),
            ts(vec![]),
        ] {
            let scan: Vec<usize> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.intersects(&frontier))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(index.candidates(&frontier), scan, "frontier {frontier}");
        }
    }

    #[test]
    fn multi_trigger_overlap_dedups_in_order() {
        let sets = vec![ts(vec![Trigger::ins("a"), Trigger::del("a")])];
        let index = TriggerIndex::build(&sets);
        let frontier = ts(vec![Trigger::ins("a"), Trigger::del("a")]);
        assert_eq!(index.candidates(&frontier), vec![0]);
    }

    #[test]
    fn incremental_add_matches_build() {
        let sets = vec![
            ts(vec![Trigger::ins("x")]),
            ts(vec![Trigger::del("y")]),
            ts(vec![Trigger::ins("x"), Trigger::del("y")]),
        ];
        let built = TriggerIndex::build(&sets);
        let mut incremental = TriggerIndex::new();
        for s in &sets {
            incremental.add(s);
        }
        assert_eq!(built, incremental);
    }

    #[test]
    fn remove_matches_build_over_the_remaining_sets() {
        let sets = vec![
            ts(vec![Trigger::ins("x")]),
            ts(vec![Trigger::del("y")]),
            ts(vec![Trigger::ins("x"), Trigger::del("y")]),
            ts(vec![Trigger::ins("z")]),
        ];
        for pos in 0..sets.len() {
            let mut index = TriggerIndex::build(&sets);
            index.remove(pos);
            let mut rest = sets.clone();
            rest.remove(pos);
            assert_eq!(index, TriggerIndex::build(&rest), "removing {pos}");
        }
    }

    #[test]
    fn empty_index_answers_nothing() {
        let index = TriggerIndex::new();
        assert!(index.is_empty());
        assert!(index.candidates(&ts(vec![Trigger::ins("a")])).is_empty());
    }
}

//! End to end through the paper package's public API: the multiset
//! extension the paper's conclusions point to, used as a caller outside
//! the product crates would.

use std::sync::Arc;

use tm_paper::Multiset;
use tm_relational::{RelationSchema, Tuple, ValueType};

/// The multiset extension: bags behave like SQL tables where sets collapse
/// duplicates (conclusion's future-work item, implemented).
#[test]
fn multiset_extension_round_trip() {
    let schema = Arc::new(RelationSchema::of("m", &[("v", ValueType::Int)]));
    let mut bag = Multiset::empty(schema);
    for v in [1, 1, 2, 3, 3, 3] {
        bag.insert(Tuple::of((v,))).unwrap();
    }
    assert_eq!(bag.len(), 6);
    assert_eq!(bag.multiplicity(&Tuple::of((3,))), 3);
    let set = bag.to_relation();
    assert_eq!(set.len(), 3);
    let bag2 = Multiset::from_relation(&set);
    assert_eq!(bag2.len(), 3);
    // Bag difference is monus, not set difference.
    let diff = bag.difference(&bag2);
    assert_eq!(diff.len(), 3); // one 1, zero 2, two 3s
    assert_eq!(diff.multiplicity(&Tuple::of((3,))), 2);
}

//! Equi-join key extraction from join predicates.
//!
//! Every referential check the translator emits — Table 1's `R ▷ S`, the
//! generated triggers, the §7 experiments — carries a predicate over the
//! concatenated tuple of the two join inputs. Whenever that predicate is a
//! *conjunction* containing `col_i = col_j` terms with one column on each
//! side, the join can be executed with a hash table instead of nested
//! loops. This module decomposes a predicate into:
//!
//! * **key pairs** — `(left column, right column)` offsets equated by an
//!   equality conjunct (right offsets are relative to the right input), and
//! * a **residual** predicate — the conjunction of everything else, still
//!   expressed over the concatenated tuple.
//!
//! [`extract_equi_keys`] is shared by the hash execution paths of
//! [`crate::eval`] and the executor's probes.
//!
//! ## Key hashing
//!
//! Join-key equality is defined by [`Value::compare`](tm_relational::Value::compare), which treats
//! `Int(1)` and `Double(1.0)` as equal — but `Value`'s `Hash`/`Eq` keep the
//! variants distinct (relations are typed sets). A hash table keyed on
//! `Value` directly would therefore miss cross-type numeric matches, and
//! because compare-equality is not transitive over large integers (two
//! distinct `i64`s can both compare equal to the `f64` they round to), *no*
//! canonical key can represent it exactly. The hash paths therefore use
//! **bucket-and-verify**: [`hash_key_values`] computes a hash under which
//! compare-equal values always collide (integers hash as the double they
//! widen to), and every bucket candidate is re-verified with
//! [`key_values_match`] before it joins. False bucket collisions cost a
//! comparison; false negatives are impossible.

use tm_relational::util::hash_join_key;
use tm_relational::Tuple;

use crate::expr::{CmpOp, ScalarExpr};

/// The decomposition of a join predicate into equi-join keys plus a
/// residual predicate. Produced by [`extract_equi_keys`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinKeys {
    /// Column pairs equated by the predicate: `.0` is an offset into the
    /// left tuple, `.1` an offset into the **right** tuple (right-local,
    /// i.e. already shifted down by the left arity).
    pub pairs: Vec<(usize, usize)>,
    /// The conjunction of all non-key conjuncts, over the concatenated
    /// tuple; `None` when the predicate was purely equi-join keys.
    pub residual: Option<ScalarExpr>,
}

/// Decompose `pred` into equi-join key pairs and a residual, treating the
/// first `left_arity` columns as the left input and columns
/// `left_arity..total_arity` as the right input.
///
/// A conjunct `#i = #j` (in either order) becomes a key pair when exactly
/// one side lands in each input and both offsets are in range; every other
/// conjunct — non-equalities, same-side equalities, disjunctions, computed
/// terms — is folded into the residual. Returns `None` when no key pair
/// exists, in which case callers fall back to nested loops.
///
/// Note on evaluation order: the nested-loop path evaluates the original
/// conjunction left-to-right with short-circuiting, so a runtime error in
/// a later conjunct is skipped when an earlier one is false. The hash path
/// tests key equality first and evaluates the residual only for key
/// matches. For error-free predicates the results are identical (`∧` is
/// commutative in two-valued logic); predicates whose conjuncts can raise
/// runtime errors may surface errors under one strategy and not the other,
/// exactly as short-circuiting already makes error surfacing
/// order-dependent.
pub fn extract_equi_keys(
    pred: &ScalarExpr,
    left_arity: usize,
    total_arity: usize,
) -> Option<JoinKeys> {
    let mut pairs = Vec::new();
    let mut residual: Option<ScalarExpr> = None;
    for c in pred.conjuncts() {
        match classify(c, left_arity, total_arity) {
            Some(pair) => pairs.push(pair),
            None => {
                residual = Some(match residual {
                    None => c.clone(),
                    Some(r) => ScalarExpr::and(r, c.clone()),
                });
            }
        }
    }
    if pairs.is_empty() {
        None
    } else {
        Some(JoinKeys { pairs, residual })
    }
}

/// Classify one conjunct as a key pair if it is `#i = #j` with one column
/// per input.
fn classify(c: &ScalarExpr, left_arity: usize, total_arity: usize) -> Option<(usize, usize)> {
    let ScalarExpr::Cmp(CmpOp::Eq, l, r) = c else {
        return None;
    };
    let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    let (a, b) = (*a, *b);
    if a < left_arity && (left_arity..total_arity).contains(&b) {
        Some((a, b - left_arity))
    } else if b < left_arity && (left_arity..total_arity).contains(&a) {
        Some((b, a - left_arity))
    } else {
        None
    }
}

impl JoinKeys {
    /// The left-side key columns, in pair order.
    pub fn left_cols(&self) -> Vec<usize> {
        self.pairs.iter().map(|&(l, _)| l).collect()
    }

    /// The right-side (right-local) key columns, in pair order.
    pub fn right_cols(&self) -> Vec<usize> {
        self.pairs.iter().map(|&(_, r)| r).collect()
    }
}

/// Hash the key columns of a tuple via [`Value::hash_for_join`](tm_relational::Value::hash_for_join).
/// Compare-equal key sequences always produce equal hashes; candidates
/// sharing a hash must still be verified with [`key_values_match`].
///
/// # Panics
/// Panics when a column offset is out of range — [`extract_equi_keys`]
/// only produces in-range offsets.
pub fn hash_key_values(tuple: &Tuple, cols: &[usize]) -> u64 {
    hash_join_key(
        cols.iter()
            .map(|&c| tuple.get(c).expect("key column in range")),
    )
}

/// Verify a bucket candidate: the paired key columns of `left` and `right`
/// are equal under [`Value::compare`](tm_relational::Value::compare) — the same equality the nested-loop
/// predicate would have tested.
pub fn key_values_match(left: &Tuple, right: &Tuple, pairs: &[(usize, usize)]) -> bool {
    pairs
        .iter()
        .all(|&(lc, rc)| match (left.get(lc), right.get(rc)) {
            (Some(a), Some(b)) => a.compare(b).is_eq(),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::Value;

    #[test]
    fn single_equi_key_extracted() {
        // child(id, fk, amount) ▷ parent(key, payload): #1 = #3
        let keys = extract_equi_keys(&ScalarExpr::col_eq(1, 3), 3, 5).unwrap();
        assert_eq!(keys.pairs, vec![(1, 0)]);
        assert!(keys.residual.is_none());
    }

    #[test]
    fn reversed_operands_extracted() {
        let keys = extract_equi_keys(&ScalarExpr::col_eq(3, 1), 3, 5).unwrap();
        assert_eq!(keys.pairs, vec![(1, 0)]);
    }

    #[test]
    fn conjunction_splits_keys_and_residual() {
        let pred = ScalarExpr::and(
            ScalarExpr::col_eq(0, 2),
            ScalarExpr::and(
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(1), ScalarExpr::col(3)),
                ScalarExpr::col_eq(1, 3),
            ),
        );
        let keys = extract_equi_keys(&pred, 2, 4).unwrap();
        assert_eq!(keys.pairs, vec![(0, 0), (1, 1)]);
        assert_eq!(keys.residual.unwrap().to_string(), "(#1 < #3)");
    }

    #[test]
    fn same_side_equality_is_residual() {
        // #0 = #1 is left-local: not a join key.
        assert!(extract_equi_keys(&ScalarExpr::col_eq(0, 1), 2, 4).is_none());
    }

    #[test]
    fn disjunction_not_decomposed() {
        let pred = ScalarExpr::or(ScalarExpr::col_eq(0, 2), ScalarExpr::col_eq(1, 3));
        assert!(extract_equi_keys(&pred, 2, 4).is_none());
    }

    #[test]
    fn out_of_range_column_is_residual() {
        // #0 = #9 references past the concatenated arity; leave it to the
        // nested-loop path (which reports the range error).
        assert!(extract_equi_keys(&ScalarExpr::col_eq(0, 9), 2, 4).is_none());
    }

    #[test]
    fn cross_type_numeric_keys_collide() {
        let a = Tuple::of((1,));
        let b = Tuple::of((1.0_f64,));
        assert_eq!(hash_key_values(&a, &[0]), hash_key_values(&b, &[0]));
        assert!(key_values_match(&a, &b, &[(0, 0)]));
    }

    #[test]
    fn null_keys_match_null() {
        let a = Tuple::from_values(vec![Value::Null]);
        let b = Tuple::from_values(vec![Value::Null]);
        assert_eq!(hash_key_values(&a, &[0]), hash_key_values(&b, &[0]));
        assert!(key_values_match(&a, &b, &[(0, 0)]));
        let c = Tuple::of((0,));
        assert!(!key_values_match(&a, &c, &[(0, 0)]));
    }

    #[test]
    fn distinct_values_rarely_collide() {
        let a = Tuple::of((1, "x"));
        let b = Tuple::of((2, "x"));
        assert_ne!(hash_key_values(&a, &[0, 1]), hash_key_values(&b, &[0, 1]));
        assert!(!key_values_match(&a, &b, &[(0, 0), (1, 1)]));
    }
}

//! Byte identity of WAL `Commit` frames: the encoder that writes a frame
//! straight from a change log's net view (`tm_relational::net_view` +
//! `tm_durable::encode_commit`, the durable engine's commit path) writes
//! exactly the bytes of `WalRecord::Commit { deltas }.encode()` over the
//! per-relation deltas a naive `BTreeMap` / `BTreeSet` fold of the same
//! log gives — so old logs recover and equal states give equal bytes —
//! and the decoded record, replayed on the pre-state, reaches the
//! post-state. Both are also pinned against the frame layout spelled out
//! here with the codec's primitives (tag, relation count, then per
//! relation its name, inserted and deleted tuple lists), so the record
//! encoder cannot drift from the format old logs were written in.
//!
//! The change logs are random: genuine changes (each one changed the
//! state when it ran) over three relations whose names sort differently
//! from their order of use, with `Str`, `Double` and `Null` cells, and
//! with insert-then-delete and delete-then-insert of one tuple.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use tm_durable::{encode_commit, WalRecord};
use tm_relational::codec::{put_str, put_tuples, put_u32};
use tm_relational::{
    net_view, Database, DatabaseSchema, RelationDelta, RelationSchema, Tuple, Value, ValueType,
};

const RELATIONS: [&str; 3] = ["zeta", "alpha", "mid"];

fn schema() -> DatabaseSchema {
    let cols = [
        ("k", ValueType::Int),
        ("s", ValueType::Str),
        ("d", ValueType::Double),
    ];
    DatabaseSchema::from_relations(RELATIONS.map(|r| RelationSchema::of(r, &cols)).to_vec())
        .unwrap()
}

/// Tuple number `i` of an 18-tuple domain: three keys, a `Str` or `Null`
/// string cell, a `Double` or `Null` double cell.
fn tuple(i: u8) -> Tuple {
    let s = match (i / 3) % 3 {
        0 => Value::str("x"),
        1 => Value::str("ü, y"),
        _ => Value::Null,
    };
    let d = match (i / 9) % 2 {
        0 => Value::double(-1.5),
        _ => Value::Null,
    };
    Tuple::from_values(vec![Value::Int(i64::from(i % 3)), s, d])
}

/// The per-relation deltas of a change log, folded the naive way: per
/// relation, an insert of `t` cancels a logged delete of `t` and vice
/// versa; relations whose net change is empty are left out.
fn btree_deltas(log: &[(&str, Tuple, bool)]) -> Vec<RelationDelta> {
    let mut per: BTreeMap<&str, (BTreeSet<Tuple>, BTreeSet<Tuple>)> = BTreeMap::new();
    for (relation, t, inserted) in log {
        let (ins, del) = per.entry(relation).or_default();
        if *inserted {
            if !del.remove(t) {
                ins.insert(t.clone());
            }
        } else if !ins.remove(t) {
            del.insert(t.clone());
        }
    }
    per.into_iter()
        .filter(|(_, (ins, del))| !ins.is_empty() || !del.is_empty())
        .map(|(relation, (ins, del))| RelationDelta {
            relation: relation.to_owned(),
            inserted: ins.into_iter().collect(),
            deleted: del.into_iter().collect(),
        })
        .collect()
}

/// The `Commit` frame layout, written out field by field.
fn layout(deltas: &[RelationDelta]) -> Vec<u8> {
    let mut out = vec![1]; // the Commit tag
    put_u32(&mut out, deltas.len() as u32);
    for d in deltas {
        put_str(&mut out, &d.relation);
        put_tuples(&mut out, d.inserted.iter());
        put_tuples(&mut out, d.deleted.iter());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each op toggles one tuple of one relation (insert when absent,
    /// delete when present) and, when its flag is set, toggles it back at
    /// once; only the changes are logged, as the executor logs them.
    #[test]
    fn commit_frames_from_the_net_view_are_byte_identical(
        seed in prop::collection::vec((0..3usize, 0..18u8), 0..12),
        ops in prop::collection::vec((0..3usize, 0..18u8, 0..2u8), 0..40),
    ) {
        let mut pre = Database::new(schema().into_shared());
        for (r, i) in &seed {
            pre.insert(RELATIONS[*r], tuple(*i)).unwrap();
        }
        let mut post = pre.unshared_copy();
        let mut log = Vec::new();
        for (r, i, back) in &ops {
            for _ in 0..=*back {
                let (relation, t) = (RELATIONS[*r], tuple(*i));
                let rel = post.relation_mut(relation).unwrap();
                let inserted = !rel.contains(&t);
                if inserted {
                    rel.insert(t.clone()).unwrap();
                } else {
                    rel.remove(&t);
                }
                log.push((relation, t, inserted));
            }
        }

        let mut frame = Vec::new();
        encode_commit(&mut frame, &net_view(log.iter().map(|(r, t, i)| (*r, t, *i))));
        let deltas = btree_deltas(&log);
        let mut reference = Vec::new();
        WalRecord::Commit { deltas: deltas.clone() }.encode(&mut reference);
        prop_assert_eq!(&frame, &reference);
        prop_assert_eq!(&frame, &layout(&deltas));

        let WalRecord::Commit { deltas } = WalRecord::decode(&frame).unwrap() else {
            panic!("a Commit frame decoded as another record");
        };
        let mut replayed = pre.unshared_copy();
        for d in &deltas {
            d.apply(&mut replayed).unwrap();
        }
        prop_assert!(replayed.state_eq(&post));
    }
}

//! WAL record types and their binary codec.
//!
//! The log records *logical* events: a committed transaction's net
//! per-relation differentials (the Section 4.1 `R@ins`/`R@del` pairs,
//! doubling as redo records), and the catalog DDL operations — rule
//! addition/removal, view definition, bulk load — as first-class records
//! so recovery rebuilds the catalog, trigger index, and analysis state by
//! replaying the same operations the live engine ran. Rules and view
//! definitions travel as their canonical text form and are re-compiled on
//! replay.

use tm_relational::codec::{put_str, put_tuple, put_tuples, put_u32, ByteReader};
use tm_relational::{CodecError, CodecResult, NetChange, RelationDelta, Tuple};

const TAG_COMMIT: u8 = 1;
const TAG_ADD_RULE: u8 = 2;
const TAG_REMOVE_RULE: u8 = 3;
const TAG_DEFINE_VIEW: u8 = 4;
const TAG_LOAD: u8 = 5;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction's net differentials, one entry per touched
    /// relation.
    Commit {
        /// Net per-relation change records, sorted by relation name.
        deltas: Vec<RelationDelta>,
    },
    /// A rule added to the catalog (`Engine::add_rule` and friends).
    AddRule {
        /// The rule name (travels outside the text: view maintenance
        /// rules contain `$`, which the `RULE` header does not admit).
        name: String,
        /// The rule's canonical RL text.
        text: String,
    },
    /// A rule removed from the catalog.
    RemoveRule {
        /// The rule name.
        name: String,
    },
    /// A materialized view defined (`Engine::define_view`). Replay re-runs
    /// the definition — including the initial materialization — so no
    /// separate commit record is logged for it.
    DefineView {
        /// The view (relation) name.
        name: String,
        /// The defining relational expression, rendered.
        definition: String,
    },
    /// A bulk load (`Engine::load`): one record — one frame, one fsync —
    /// for the whole batch.
    Load {
        /// Target relation.
        relation: String,
        /// The loaded tuples.
        tuples: Vec<Tuple>,
    },
}

impl WalRecord {
    /// Append the encoded record.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Commit { deltas } => {
                let view: Vec<NetChange<'_>> = deltas
                    .iter()
                    .flat_map(|d| {
                        let relation = d.relation.as_str();
                        let ins = d.inserted.iter().map(move |t| (relation, t, true));
                        ins.chain(d.deleted.iter().map(move |t| (relation, t, false)))
                    })
                    .collect();
                encode_commit(out, &view);
            }
            WalRecord::AddRule { name, text } => {
                out.push(TAG_ADD_RULE);
                put_str(out, name);
                put_str(out, text);
            }
            WalRecord::RemoveRule { name } => {
                out.push(TAG_REMOVE_RULE);
                put_str(out, name);
            }
            WalRecord::DefineView { name, definition } => {
                out.push(TAG_DEFINE_VIEW);
                put_str(out, name);
                put_str(out, definition);
            }
            WalRecord::Load { relation, tuples } => {
                out.push(TAG_LOAD);
                put_str(out, relation);
                put_tuples(out, tuples.iter());
            }
        }
    }

    /// Decode a record from a frame payload, requiring full consumption.
    pub fn decode(buf: &[u8]) -> CodecResult<WalRecord> {
        let mut r = ByteReader::new(buf);
        let record = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(record)
    }

    fn read(r: &mut ByteReader<'_>) -> CodecResult<WalRecord> {
        let offset = r.offset();
        match r.u8()? {
            TAG_COMMIT => {
                let n = r.count(1)?;
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    let relation = r.str()?;
                    let inserted = r.tuples()?;
                    let deleted = r.tuples()?;
                    deltas.push(RelationDelta {
                        relation,
                        inserted,
                        deleted,
                    });
                }
                Ok(WalRecord::Commit { deltas })
            }
            TAG_ADD_RULE => Ok(WalRecord::AddRule {
                name: r.str()?,
                text: r.str()?,
            }),
            TAG_REMOVE_RULE => Ok(WalRecord::RemoveRule { name: r.str()? }),
            TAG_DEFINE_VIEW => Ok(WalRecord::DefineView {
                name: r.str()?,
                definition: r.str()?,
            }),
            TAG_LOAD => Ok(WalRecord::Load {
                relation: r.str()?,
                tuples: r.tuples()?,
            }),
            tag => Err(CodecError::InvalidTag { offset, tag }),
        }
    }
}

/// Append a `Commit` record encoded straight from a commit's net view
/// ([`tm_relational::net_view`]): per run of one relation's entries, the
/// relation name, then its inserted tuples, then its deleted tuples, each
/// list in the order of the run. A net view is sorted by relation and
/// tuple, so equal states give equal bytes; a relation whose net change
/// is empty has no entries and is omitted. The one `Commit` encoder —
/// [`WalRecord::encode`] runs its deltas through it too.
pub fn encode_commit(out: &mut Vec<u8>, net: &[NetChange<'_>]) {
    out.push(TAG_COMMIT);
    let count_at = out.len();
    put_u32(out, 0);
    let mut relations = 0u32;
    for run in net.chunk_by(|a, b| a.0 == b.0) {
        put_str(out, run[0].0);
        for inserted in [true, false] {
            let side = || run.iter().filter(move |c| c.2 == inserted);
            put_u32(out, side().count() as u32);
            for (_, t, _) in side() {
                put_tuple(out, t);
            }
        }
        relations += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&relations.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: WalRecord) {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(WalRecord::decode(&buf).unwrap(), rec);
    }

    #[test]
    fn records_roundtrip() {
        roundtrip(WalRecord::Commit { deltas: vec![] });
        roundtrip(WalRecord::Commit {
            deltas: vec![RelationDelta {
                relation: "beer".into(),
                inserted: vec![Tuple::of(("a", 1))],
                deleted: vec![Tuple::of(("b", 2)), Tuple::of(("c", 3))],
            }],
        });
        roundtrip(WalRecord::AddRule {
            name: "r1".into(),
            text: "WHEN INS(beer) IF NOT 1 = 1 THEN abort".into(),
        });
        roundtrip(WalRecord::RemoveRule { name: "r1".into() });
        roundtrip(WalRecord::DefineView {
            name: "big".into(),
            definition: "select[(#1 > 100)](orders)".into(),
        });
        roundtrip(WalRecord::Load {
            relation: "brewery".into(),
            tuples: vec![Tuple::of(("x", "y", "z"))],
        });
    }

    #[test]
    fn truncated_records_error() {
        let mut buf = Vec::new();
        WalRecord::Load {
            relation: "brewery".into(),
            tuples: vec![Tuple::of(("x", "y", "z"))],
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(WalRecord::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
        assert!(WalRecord::decode(&[0]).is_err(), "unknown tag");
    }
}

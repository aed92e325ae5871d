//! Checkpoints: atomic full-state snapshots that bound recovery work and
//! make the log they cover redundant.
//!
//! A checkpoint file `checkpoint-<lsn>.ckpt` captures everything the
//! engine needs to rebuild itself: the schema, every rule's canonical
//! text (in declaration order — triggering-graph analysis is
//! order-sensitive only in naming, but we preserve it anyway), every view
//! definition, every relation's tuples (sorted, for byte-deterministic
//! snapshots), the logical clock, and an opaque engine-config blob whose
//! encoding the engine layer owns (keeping this crate free of an upward
//! dependency).
//!
//! ## Atomicity protocol
//!
//! The snapshot is written to `<name>.tmp`, fsynced, then atomically
//! renamed over the final name. A crash mid-write leaves at worst a stale
//! `.tmp` (ignored by recovery) and the previous checkpoint intact. Only
//! after the rename succeeds are older checkpoints retired and the log
//! the checkpoint covers dropped. The encoding is streamed into the file,
//! so writing a checkpoint holds no copy of it in memory.
//!
//! ## Recycling
//!
//! No checkpoint file is ever deleted in steady state: freeing the blocks
//! of a large fsynced file can cost more than writing it. A superseded
//! checkpoint is *retired* by renaming it to [`SPARE_FILE`]
//! ([`retire_checkpoints`]), and the next [`Checkpoint::write_atomic`]
//! renames the spare onto its `.tmp` path and overwrites it in place
//! (spare or create — there is no other branch). The directory therefore
//! holds one checkpoint plus one spare: twice the checkpoint's size.
//!
//! ## File layout
//!
//! `MAGIC ‖ body ‖ crc32(body) u32` where the body is the
//! [`Checkpoint`] fields in order, in the tm-relational binary codec.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, Write};
use std::path::{Path, PathBuf};

use tm_relational::codec::{put_str, put_tuple, put_u32, put_u64, ByteReader};
use tm_relational::{Attribute, CodecResult, DatabaseSchema, RelationSchema, Tuple, ValueType};

use crate::crc::{crc32, crc32_update};
use crate::error::{DurableError, Result};

/// File magic: `TMCK` + format version 1.
const MAGIC: &[u8; 8] = b"TMCK\x00\x00\x00\x01";

/// The name a retired checkpoint keeps until the next
/// [`Checkpoint::write_atomic`] overwrites it in place. It is not a
/// checkpoint name, so [`list_checkpoints`] — and recovery — never see it.
pub const SPARE_FILE: &str = "checkpoint.spare";

/// A full engine-state snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The last LSN whose effects are included in this snapshot. Replay
    /// resumes strictly after it.
    pub lsn: u64,
    /// The database's logical clock at snapshot time.
    pub logical_time: u64,
    /// Opaque engine-config bytes (encoded and decoded by the engine
    /// layer; this crate only stores them).
    pub config: Vec<u8>,
    /// The database schema.
    pub schema: DatabaseSchema,
    /// All catalog rules as `(name, canonical text)`, in declaration
    /// order. View maintenance rules appear here like any other rule.
    pub rules: Vec<(String, String)>,
    /// All view definitions as `(name, rendered expression)`, in
    /// definition order.
    pub views: Vec<(String, String)>,
    /// Every relation's tuples, sorted, keyed by name.
    pub relations: Vec<(String, Vec<Tuple>)>,
}

fn value_type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 1,
        ValueType::Double => 2,
        ValueType::Str => 3,
        ValueType::Bool => 4,
    }
}

/// Where [`encode_body`] appends its bytes; [`Sink::spill`] may hand
/// them on, so a file is written without the whole encoding in memory.
trait Sink {
    fn buf(&mut self) -> &mut Vec<u8>;
    fn spill(&mut self) -> std::io::Result<()>;
}

impl Sink for Vec<u8> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self
    }

    fn spill(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bytes a [`FileSink`] buffers between writes.
const SPILL_BYTES: usize = 64 * 1024;

/// Streams a body into a file in [`SPILL_BYTES`] writes, keeping its
/// CRC.
struct FileSink<'f> {
    file: &'f mut File,
    buf: Vec<u8>,
    crc: u32,
}

impl Sink for FileSink<'_> {
    fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if self.buf.len() >= SPILL_BYTES {
            self.crc = crc32_update(self.crc, &self.buf);
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

fn encode_body(ck: &Checkpoint, s: &mut impl Sink) -> std::io::Result<()> {
    let out = s.buf();
    put_u64(out, ck.lsn);
    put_u64(out, ck.logical_time);
    put_u32(out, ck.config.len() as u32);
    out.extend_from_slice(&ck.config);
    put_u32(out, ck.schema.len() as u32);
    for rel in ck.schema.relations() {
        put_str(out, rel.name());
        put_u32(out, rel.arity() as u32);
        for attr in rel.attributes() {
            put_str(out, attr.name());
            out.push(value_type_tag(attr.value_type()));
        }
    }
    put_u32(out, ck.rules.len() as u32);
    for (name, text) in &ck.rules {
        put_str(out, name);
        put_str(out, text);
    }
    put_u32(out, ck.views.len() as u32);
    for (name, definition) in &ck.views {
        put_str(out, name);
        put_str(out, definition);
    }
    put_u32(out, ck.relations.len() as u32);
    for (name, tuples) in &ck.relations {
        put_str(s.buf(), name);
        put_u32(s.buf(), tuples.len() as u32);
        for t in tuples {
            put_tuple(s.buf(), t);
            s.spill()?;
        }
    }
    Ok(())
}

fn decode_body(buf: &[u8]) -> CodecResult<(Checkpoint, String)> {
    let mut r = ByteReader::new(buf);
    let lsn = r.u64()?;
    let logical_time = r.u64()?;
    let config_len = r.count(1)?;
    let mut config = Vec::with_capacity(config_len);
    for _ in 0..config_len {
        config.push(r.u8()?);
    }
    let n_rels = r.count(2)?;
    let mut schema_err = None;
    let mut schema = DatabaseSchema::new();
    for _ in 0..n_rels {
        let name = r.str()?;
        let arity = r.count(2)?;
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            let attr_name = r.str()?;
            let offset = r.offset();
            let ty = match r.u8()? {
                1 => ValueType::Int,
                2 => ValueType::Double,
                3 => ValueType::Str,
                4 => ValueType::Bool,
                tag => {
                    return Err(tm_relational::CodecError::InvalidTag { offset, tag });
                }
            };
            attrs.push(Attribute::new(attr_name, ty));
        }
        // Structural failures (dup relation, dup attribute) are not codec
        // errors; carry them out as a detail string for the caller.
        if schema_err.is_none() {
            match RelationSchema::new(name, attrs) {
                Ok(rs) => {
                    if let Err(e) = schema.add_relation(rs) {
                        schema_err = Some(e.to_string());
                    }
                }
                Err(e) => schema_err = Some(e.to_string()),
            }
        }
    }
    let n_rules = r.count(2)?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        rules.push((r.str()?, r.str()?));
    }
    let n_views = r.count(2)?;
    let mut views = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        views.push((r.str()?, r.str()?));
    }
    let n_data = r.count(2)?;
    let mut relations = Vec::with_capacity(n_data);
    for _ in 0..n_data {
        relations.push((r.str()?, r.tuples()?));
    }
    r.expect_end()?;
    Ok((
        Checkpoint {
            lsn,
            logical_time,
            config,
            schema,
            rules,
            views,
            relations,
        },
        schema_err.unwrap_or_default(),
    ))
}

/// The checkpoint file name for a given LSN.
pub fn checkpoint_file_name(lsn: u64) -> String {
    format!("checkpoint-{lsn:020}.ckpt")
}

fn corrupt(path: &Path, detail: impl Into<String>) -> DurableError {
    DurableError::CorruptCheckpoint {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

impl Checkpoint {
    /// Serialize the checkpoint: magic, body, trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        encode_body(self, &mut out).expect("encoding into memory cannot fail");
        let crc = crc32(&out[MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Write the checkpoint into `dir` via the temp-file + atomic-rename
    /// protocol; returns the final path. The temp file is the
    /// [`SPARE_FILE`] renamed into place and overwritten, when there is
    /// one, so its blocks are reused rather than freed and reallocated.
    /// The encoding is streamed into it, never held whole in memory.
    /// Older checkpoints are *not* touched here — the caller retires them
    /// (and drops the log they make redundant) only after this returns
    /// successfully.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf> {
        let final_path = dir.join(checkpoint_file_name(self.lsn));
        let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(self.lsn)));
        let spare = unaliased_spare(dir)?;
        {
            let mut f = match std::fs::rename(&spare, &tmp_path) {
                Ok(()) => OpenOptions::new().write(true).open(&tmp_path),
                Err(e) if e.kind() == ErrorKind::NotFound => File::create(&tmp_path),
                Err(e) => return Err(DurableError::io("rename", &spare, e)),
            }
            .map_err(|e| DurableError::io("open", &tmp_path, e))?;
            let len = self
                .stream_to(&mut f)
                .map_err(|e| DurableError::io("write", &tmp_path, e))?;
            // A longer spare keeps its tail until cut to the new length.
            f.set_len(len)
                .map_err(|e| DurableError::io("truncate", &tmp_path, e))?;
            f.sync_data()
                .map_err(|e| DurableError::io("fsync", &tmp_path, e))?;
        }
        // A checkpoint at the same LSN (nothing logged since the last
        // one) is replaced by the rename below, which would free its
        // blocks: keep them as the next spare under a second name.
        #[cfg(unix)]
        match std::fs::hard_link(&final_path, &spare) {
            Err(e) if e.kind() != ErrorKind::NotFound => {
                return Err(DurableError::io("link", &final_path, e))
            }
            _ => {}
        }
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| DurableError::io("rename", &tmp_path, e))?;
        // Make the rename itself durable — a failure here means the
        // checkpoint may not survive a power loss, so it must surface.
        fsync_dir(dir)?;
        Ok(final_path)
    }

    /// Write [`Checkpoint::encode`]'s bytes from the start of `file`;
    /// returns how many.
    fn stream_to(&self, file: &mut File) -> std::io::Result<u64> {
        file.write_all(MAGIC)?;
        let mut sink = FileSink {
            file,
            buf: Vec::with_capacity(2 * SPILL_BYTES),
            crc: 0,
        };
        encode_body(self, &mut sink)?;
        let FileSink { file, mut buf, crc } = sink;
        let crc = crc32_update(crc, &buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&buf)?;
        file.stream_position()
    }

    /// Load and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint> {
        let data = std::fs::read(path).map_err(|e| DurableError::io("read", path, e))?;
        if data.len() < MAGIC.len() + 4 {
            return Err(corrupt(
                path,
                format!("file too short ({} bytes)", data.len()),
            ));
        }
        if &data[..MAGIC.len()] != MAGIC {
            return Err(corrupt(
                path,
                "bad magic (not a checkpoint, or wrong version)",
            ));
        }
        let body = &data[MAGIC.len()..data.len() - 4];
        let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        if crc32(body) != stored {
            return Err(corrupt(path, "checksum mismatch"));
        }
        let (ck, schema_err) =
            decode_body(body).map_err(|e| corrupt(path, format!("undecodable body: {e}")))?;
        if !schema_err.is_empty() {
            return Err(corrupt(path, format!("invalid schema: {schema_err}")));
        }
        Ok(ck)
    }
}

/// Fsync a directory, making renames and unlinks inside it durable.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    let d = std::fs::File::open(dir).map_err(|e| DurableError::io("opendir", dir, e))?;
    d.sync_data()
        .map_err(|e| DurableError::io("fsync-dir", dir, e))
}

/// Every `checkpoint-<lsn>.ckpt` in `dir` as `(lsn, path, false)` and
/// every `checkpoint-<lsn>.ckpt.tmp` as `(lsn, path, true)`, unordered. A
/// missing directory lists as empty.
fn checkpoint_files(dir: &Path) -> Result<Vec<(u64, PathBuf, bool)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(DurableError::io("readdir", dir, e)),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| DurableError::io("readdir", dir, e))?;
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_prefix("checkpoint-")) else {
            continue;
        };
        let (stem, tmp) = match stem.strip_suffix(".ckpt.tmp") {
            Some(stem) => (stem, true),
            None => match stem.strip_suffix(".ckpt") {
                Some(stem) => (stem, false),
                None => continue,
            },
        };
        if let Ok(lsn) = stem.parse::<u64>() {
            found.push((lsn, entry.path(), tmp));
        }
    }
    Ok(found)
}

/// List checkpoint files in `dir`, newest (highest LSN) first. Ignores
/// stale `.tmp` files, the [`SPARE_FILE`], and anything that does not
/// parse as a checkpoint name. A missing directory lists as empty.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut found: Vec<(u64, PathBuf)> = checkpoint_files(dir)?
        .into_iter()
        .filter(|(_, _, tmp)| !tmp)
        .map(|(lsn, path, _)| (lsn, path))
        .collect();
    found.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
    Ok(found)
}

/// Retire every checkpoint in `dir` except the one at `keep` (all of them
/// when `None`), and every `.tmp` file a crashed write left, by renaming
/// it to [`SPARE_FILE`]; then fsync the directory, so no retired
/// checkpoint reappears after a crash. In steady state exactly one older
/// checkpoint is retired and its blocks become the spare; each extra file
/// replaces the spare before it, and that rename frees the old one.
pub fn retire_checkpoints(dir: &Path, keep: Option<u64>) -> Result<()> {
    let spare = unaliased_spare(dir)?;
    let mut retired = false;
    for (lsn, path, tmp) in checkpoint_files(dir)? {
        // A directory squatting on a temp path is not a crashed write.
        if (tmp && path.is_file()) || (!tmp && Some(lsn) != keep) {
            std::fs::rename(&path, &spare).map_err(|e| DurableError::io("rename", &path, e))?;
            retired = true;
        }
    }
    if retired {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// The [`SPARE_FILE`] path in `dir`, after dropping that name if it is a
/// second link to a live checkpoint — what a same-LSN
/// [`Checkpoint::write_atomic`] leaves when it fails (or crashes) between
/// its link and its rename. Overwriting such a spare would overwrite that
/// checkpoint, and renaming the checkpoint onto it would do nothing.
/// Dropping the extra name frees no blocks.
fn unaliased_spare(dir: &Path) -> Result<PathBuf> {
    let spare = dir.join(SPARE_FILE);
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        if std::fs::symlink_metadata(&spare).is_ok_and(|m| m.nlink() > 1) {
            std::fs::remove_file(&spare).map_err(|e| DurableError::io("unlink", &spare, e))?;
        }
    }
    Ok(spare)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::schema::beer_schema;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-durable-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            lsn: 42,
            logical_time: 7,
            config: vec![1, 2, 3],
            schema: beer_schema(),
            rules: vec![("r1".into(), "WHEN INS(beer) IF NOT 1 = 1 THEN abort".into())],
            views: vec![("v".into(), "project[#0](beer)".into())],
            relations: vec![(
                "beer".into(),
                vec![Tuple::of(("ale", "b1")), Tuple::of(("lager", "b2"))],
            )],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let ck = sample();
        let path = ck.write_atomic(&dir).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![(42, path)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let path = sample().write_atomic(&dir).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for victim in 0..clean.len() {
            let mut data = clean.clone();
            data[victim] ^= 0x20;
            std::fs::write(&path, &data).unwrap();
            assert!(
                matches!(
                    Checkpoint::load(&path),
                    Err(DurableError::CorruptCheckpoint { .. })
                ),
                "flip at {victim} went undetected"
            );
        }
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(Checkpoint::load(&path).is_err(), "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_prefers_newest_and_prune_keeps_it() {
        let dir = tmpdir("prune");
        for lsn in [3, 1, 2] {
            let mut ck = sample();
            ck.lsn = lsn;
            ck.write_atomic(&dir).unwrap();
        }
        // A stale tmp file from a crashed checkpoint is ignored.
        std::fs::write(dir.join("checkpoint-9.ckpt.tmp"), b"junk").unwrap();
        let lsns: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(lsns, vec![3, 2, 1]);
        retire_checkpoints(&dir, Some(3)).unwrap();
        let lsns: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(lsns, vec![3]);
        // What was retired is one spare; the stale tmp went with it.
        assert_eq!(
            file_names(&dir),
            [checkpoint_file_name(3), SPARE_FILE.into()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn with_rows(lsn: u64, rows: usize) -> Checkpoint {
        let mut ck = sample();
        ck.lsn = lsn;
        ck.relations[0].1 = (0..rows)
            .map(|i| Tuple::of((format!("beer{i}"), "b1")))
            .collect();
        ck
    }

    #[test]
    fn a_larger_spare_is_cut_to_the_new_length() {
        let dir = tmpdir("cut");
        with_rows(1, 500).write_atomic(&dir).unwrap();
        with_rows(2, 1).write_atomic(&dir).unwrap();
        retire_checkpoints(&dir, Some(2)).unwrap();
        let spare_len = std::fs::metadata(dir.join(SPARE_FILE)).unwrap().len();
        let small = with_rows(3, 1);
        assert!(spare_len > small.encode().len() as u64);
        let path = small.write_atomic(&dir).unwrap();
        assert!(!dir.join(SPARE_FILE).exists(), "the spare was taken");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            small.encode().len() as u64
        );
        assert_eq!(Checkpoint::load(&path).unwrap(), small);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A same-LSN write that crashed between its link and its rename
    /// leaves the spare as a second name of the live checkpoint: the next
    /// write must not overwrite that checkpoint, and retiring it must
    /// really remove it.
    #[cfg(unix)]
    #[test]
    fn a_spare_linked_to_a_live_checkpoint_is_never_overwritten() {
        let dir = tmpdir("aliased");
        let old = with_rows(1, 20);
        let old_path = old.write_atomic(&dir).unwrap();
        std::fs::hard_link(&old_path, dir.join(SPARE_FILE)).unwrap();
        let new = with_rows(2, 30);
        let new_path = new.write_atomic(&dir).unwrap();
        assert_eq!(Checkpoint::load(&old_path).unwrap(), old);
        assert_eq!(Checkpoint::load(&new_path).unwrap(), new);
        std::fs::hard_link(&new_path, dir.join(SPARE_FILE)).unwrap();
        retire_checkpoints(&dir, Some(2)).unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap(), vec![(2, new_path.clone())]);
        assert_eq!(Checkpoint::load(&new_path).unwrap(), new);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

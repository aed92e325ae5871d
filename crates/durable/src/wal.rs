//! The write-ahead log: length-prefixed, CRC-checksummed frames with
//! monotonic LSNs.
//!
//! ## Frame layout
//!
//! ```text
//! ┌─────────┬─────────┬──────────────────────────────┐
//! │ len u32 │ crc u32 │ payload = lsn u64 ‖ record   │
//! └─────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` is the payload length; `crc` is CRC-32 (IEEE) over the payload.
//! LSNs are assigned by the writer and strictly increase across the life
//! of the log — including across the file a checkpoint seals off
//! ([`Wal::seal`]) and the fresh one the log continues in — so a frame
//! from a stale tail can never masquerade as new.
//!
//! ## Torn-tail contract
//!
//! [`scan_wal`] validates frames in order and stops at the **first**
//! invalid one: a truncated header, a length overrunning the file, a
//! checksum mismatch, an undecodable payload, or a non-monotonic LSN.
//! Everything before that point is the valid prefix; everything at and
//! after it is the torn tail, reported with its offset so recovery can
//! truncate it away — at the frame boundary, never mid-log.

use std::path::Path;

use crate::crc::crc32;
use crate::error::{DurableError, Result};
use crate::failpoint::{FailpointFile, Failpoints};
use crate::record::WalRecord;

/// Bytes of the `len`+`crc` frame header.
pub const FRAME_HEADER: u64 = 8;

/// Size at which the userspace frame buffer is flushed to the OS (see
/// [`Wal::append`]).
pub const BUFFER_FLUSH_BYTES: usize = 64 * 1024;

/// How hard a commit pushes its WAL frames toward stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No logging at all: the database is durable only up to its latest
    /// checkpoint. The zero-overhead baseline.
    None,
    /// Frames accumulate in a userspace buffer flushed to the OS once it
    /// reaches [`BUFFER_FLUSH_BYTES`], at checkpoints, and on drop (a
    /// clean shutdown): the commit hot path pays no syscall, and a crash
    /// loses at most the buffered tail — always a committed prefix.
    Buffered,
    /// Frames are fsynced at commit (group commit batches the fsync over
    /// [`DurabilityConfig::group_commit`] consecutive commits).
    #[default]
    Fsync,
}

/// Durability knobs on the engine config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// The commit durability level.
    pub level: Durability,
    /// Under [`Durability::Fsync`], fsync once per this many commits
    /// (group commit). `1` fsyncs every commit; higher values amortize
    /// the fsync over a batch — a crash loses at most the unsynced batch,
    /// still always a committed prefix.
    pub group_commit: usize,
    /// Take an automatic checkpoint after this many logged frames
    /// (`0` = checkpoint only on explicit request).
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            level: Durability::Fsync,
            group_commit: 1,
            checkpoint_every: 0,
        }
    }
}

/// An appendable WAL file.
#[derive(Debug)]
pub struct Wal {
    file: FailpointFile,
    next_lsn: u64,
    /// Commits appended since the last fsync (group-commit bookkeeping).
    unsynced: usize,
    /// Frames not yet handed to the OS (see [`Wal::append`]).
    pending: Vec<u8>,
}

impl Wal {
    /// Create a fresh (empty) log whose first frame will carry `next_lsn`.
    pub fn create(path: &Path, next_lsn: u64, points: Failpoints) -> Result<Wal> {
        Ok(Wal {
            file: FailpointFile::create(path, points)?,
            next_lsn,
            unsynced: 0,
            pending: Vec::new(),
        })
    }

    /// Open an existing log for appending after its valid prefix.
    /// `valid_len` and `next_lsn` come from a prior [`scan_wal`]; any torn
    /// tail beyond `valid_len` is truncated away here.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        next_lsn: u64,
        points: Failpoints,
    ) -> Result<Wal> {
        Ok(Wal {
            file: FailpointFile::open_append(path, valid_len, points)?,
            next_lsn,
            unsynced: 0,
            pending: Vec::new(),
        })
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN of the last appended record (`None` before any append).
    pub fn last_lsn(&self) -> Option<u64> {
        self.next_lsn.checked_sub(1).filter(|_| self.next_lsn > 1)
    }

    /// Current log length in bytes (including frames still in the
    /// userspace buffer).
    pub fn len(&self) -> u64 {
        self.file.len() + self.pending.len() as u64
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode one frame into the userspace buffer — its record written by
    /// `encode` — and assign its LSN. Infallible: nothing touches the
    /// file. The payload is encoded in place and the `len`+`crc` header
    /// backpatched — no per-frame allocation.
    fn push_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let lsn = self.next_lsn;
        let header_at = self.pending.len();
        self.pending
            .extend_from_slice(&[0u8; FRAME_HEADER as usize]);
        let payload_at = self.pending.len();
        self.pending.extend_from_slice(&lsn.to_le_bytes());
        encode(&mut self.pending);
        let payload_len = (self.pending.len() - payload_at) as u32;
        let crc = crc32(&self.pending[payload_at..]);
        self.pending[header_at..header_at + 4].copy_from_slice(&payload_len.to_le_bytes());
        self.pending[header_at + 4..header_at + 8].copy_from_slice(&crc.to_le_bytes());
        self.next_lsn += 1;
        self.unsynced += 1;
        lsn
    }

    /// Append one frame whose record `encode` writes — a
    /// [`WalRecord::encode`], or [`crate::record::encode_commit`] over a
    /// commit's net view — and return its LSN. Unless `buffered`, the
    /// frame is handed to the OS immediately (one `write`); buffered, it
    /// stays in userspace (no syscall on this path) until the buffer grows
    /// past [`BUFFER_FLUSH_BYTES`], on [`Wal::flush`]/[`Wal::sync`], and on
    /// drop — the policy behind [`Durability::Buffered`]. Calling
    /// [`Wal::sync`] is the caller's durability policy.
    pub fn append(&mut self, buffered: bool, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        let lsn = self.push_frame(encode);
        if !buffered || self.pending.len() >= BUFFER_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(lsn)
    }

    /// Write any buffered frames through to the OS. On failure the buffer
    /// is kept, so [`Wal::rollback_to`] can still surgically remove the
    /// frame that could not be made durable.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.append(&self.pending)?;
        crate::counters::note_bytes_written(self.pending.len() as u64);
        self.pending.clear();
        Ok(())
    }

    /// Flush and fsync the log. Clears the group-commit counter.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.file.sync()?;
        crate::counters::note_fsync();
        self.unsynced = 0;
        Ok(())
    }

    /// Fsync only when at least `group` commits are pending — the group
    /// commit policy under [`Durability::Fsync`].
    pub fn sync_every(&mut self, group: usize) -> Result<()> {
        if self.unsynced >= group.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    /// Seal the log off for a checkpoint at its last LSN: flush the
    /// buffered tail (with `sync`, fsync it too), rename the file to
    /// `sealed`, and continue in a fresh file at the old path, LSNs
    /// running on. With `sync` the directory is fsynced after the rename,
    /// so the sealed frames, the rename and the new file are all durable
    /// before any frame lands in the new file. When `sealed` already
    /// exists — an earlier checkpoint that failed left it — the log is
    /// only flushed (and synced) and stays in its file, so there are never
    /// more than two log files. Returns whether the file was rotated.
    pub fn seal(&mut self, sealed: &Path, sync: bool) -> Result<bool> {
        if sync {
            self.sync()?;
        } else {
            self.flush()?;
        }
        if std::fs::symlink_metadata(sealed).is_ok() {
            return Ok(false);
        }
        let path = self.file.path().to_owned();
        std::fs::rename(&path, sealed).map_err(|e| DurableError::io("rename", &path, e))?;
        let points = self.file.points().clone();
        self.file = match FailpointFile::create(&path, points) {
            Ok(file) => file,
            Err(e) => {
                // Put the log back under its name, or later frames would
                // land in a file the checkpoint deletes.
                let _ = std::fs::rename(sealed, &path);
                return Err(e);
            }
        };
        self.unsynced = 0;
        if sync {
            let dir = path
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            self.file.points().sync_dir(dir)?;
        }
        Ok(true)
    }

    /// Roll the log back to `len` bytes and `next_lsn`, removing frames
    /// whose durability could not be established (a failed fsync after an
    /// already-written append): the frame bytes are poison — if they
    /// stayed, recovery would replay a commit the engine reported as
    /// failed and rolled back in memory. Frames still sitting in the
    /// userspace buffer are simply dropped from it.
    pub fn rollback_to(&mut self, len: u64, next_lsn: u64) -> Result<()> {
        let on_disk = self.file.len();
        if len >= on_disk {
            self.pending.truncate((len - on_disk) as usize);
            // Even when every removed frame was still buffered, a failed
            // physical write may have left partial garbage on disk beyond
            // the tracked length, with the OS cursor displaced past it —
            // later appends would land after the garbage and scanning
            // would stop there, losing successfully-fsynced commits.
            // Truncate unconditionally to discard it and realign.
            self.file.truncate(on_disk)?;
        } else {
            self.pending.clear();
            self.file.truncate(len)?;
        }
        // Best effort: push the poison-frame removal itself toward stable
        // storage so a power loss does not resurrect the truncated bytes.
        let _ = self.file.sync();
        self.next_lsn = next_lsn;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for Wal {
    /// A clean shutdown hands buffered frames to the OS (best effort) —
    /// dropping a [`Durability::Buffered`] engine is a clean exit, not a
    /// crash.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One validated frame from a log scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedFrame {
    /// The frame's LSN.
    pub lsn: u64,
    /// Byte offset of the frame header in the file.
    pub offset: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// The result of scanning a log file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The valid frame prefix, in log order.
    pub frames: Vec<ScannedFrame>,
    /// Byte length of the valid prefix (the tail-truncation point when
    /// `corruption` is set).
    pub valid_len: u64,
    /// Why scanning stopped before the end of the file, when it did.
    pub corruption: Option<DurableError>,
}

impl WalScan {
    /// LSN of the last valid frame.
    pub fn last_lsn(&self) -> Option<u64> {
        self.frames.last().map(|f| f.lsn)
    }
}

/// Scan a log file into its valid frame prefix. A missing file is an
/// empty log. I/O failures are errors; *data* damage is not — it is
/// reported in [`WalScan::corruption`] with the offset of the first bad
/// frame, and the frames before it are returned.
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(DurableError::io("read", path, e)),
    };
    let mut frames = Vec::new();
    let mut pos: u64 = 0;
    let mut prev_lsn: Option<u64> = None;
    let len = data.len() as u64;
    let corruption = loop {
        if pos == len {
            break None;
        }
        if len - pos < FRAME_HEADER {
            break Some(DurableError::CorruptFrame {
                offset: pos,
                lsn: None,
                detail: format!("truncated frame header ({} byte(s) left)", len - pos),
            });
        }
        let header = &data[pos as usize..(pos + FRAME_HEADER) as usize];
        let frame_len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if frame_len < 8 {
            break Some(DurableError::CorruptFrame {
                offset: pos,
                lsn: None,
                detail: format!("frame length {frame_len} is shorter than an LSN"),
            });
        }
        if frame_len > len - pos - FRAME_HEADER {
            break Some(DurableError::CorruptFrame {
                offset: pos,
                lsn: None,
                detail: format!(
                    "frame length {frame_len} overruns the file ({} byte(s) left)",
                    len - pos - FRAME_HEADER
                ),
            });
        }
        let payload =
            &data[(pos + FRAME_HEADER) as usize..(pos + FRAME_HEADER + frame_len) as usize];
        if crc32(payload) != crc {
            break Some(DurableError::CorruptFrame {
                offset: pos,
                lsn: None,
                detail: "checksum mismatch".to_owned(),
            });
        }
        let lsn = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if let Some(prev) = prev_lsn {
            if lsn <= prev {
                break Some(DurableError::CorruptFrame {
                    offset: pos,
                    lsn: Some(lsn),
                    detail: format!("non-monotonic LSN (previous frame had {prev})"),
                });
            }
        }
        let record = match WalRecord::decode(&payload[8..]) {
            Ok(r) => r,
            Err(e) => break Some(DurableError::frame_codec(pos, Some(lsn), e)),
        };
        frames.push(ScannedFrame {
            lsn,
            offset: pos,
            record,
        });
        prev_lsn = Some(lsn);
        pos += FRAME_HEADER + frame_len;
    };
    Ok(WalScan {
        frames,
        valid_len: pos,
        corruption,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tm_relational::{RelationDelta, Tuple};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-durable-wal-{}-{name}.log", std::process::id()));
        p
    }

    fn commit(i: i64) -> WalRecord {
        WalRecord::Commit {
            deltas: vec![RelationDelta {
                relation: "r".into(),
                inserted: vec![Tuple::of((i,))],
                deleted: vec![],
            }],
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        for i in 0..5 {
            assert_eq!(
                wal.append(false, |out| commit(i).encode(out)).unwrap(),
                1 + i as u64
            );
        }
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 5);
        assert_eq!(scan.last_lsn(), Some(5));
        assert!(scan.corruption.is_none());
        assert_eq!(scan.valid_len, wal.len());
        assert_eq!(scan.frames[2].record, commit(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_point_yields_a_valid_prefix() {
        let path = tmp("truncate");
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        let mut boundaries = vec![0u64];
        for i in 0..4 {
            wal.append(false, |out| commit(i).encode(out)).unwrap();
            boundaries.push(wal.len());
        }
        wal.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            // The valid prefix is the largest frame boundary <= cut.
            let expect_frames = boundaries.iter().filter(|b| **b <= cut as u64).count() - 1;
            assert_eq!(scan.frames.len(), expect_frames, "cut {cut}");
            assert_eq!(scan.valid_len, boundaries[expect_frames], "cut {cut}");
            assert_eq!(
                scan.corruption.is_some(),
                cut as u64 != boundaries[expect_frames]
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_byte_stops_the_scan_at_that_frame() {
        let path = tmp("flip");
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        for i in 0..3 {
            wal.append(false, |out| commit(i).encode(out)).unwrap();
        }
        wal.sync().unwrap();
        let clean = std::fs::read(&path).unwrap();
        for victim in 0..clean.len() {
            let mut data = clean.clone();
            data[victim] ^= 0x40;
            std::fs::write(&path, &data).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(
                scan.corruption.is_some(),
                "flip at {victim} went undetected"
            );
            // The surviving prefix must be validly decodable and strictly
            // shorter than the full log.
            assert!(scan.frames.len() < 3, "flip at {victim}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffered_appends_stay_in_userspace_until_flush_or_drop() {
        let path = tmp("buffered");
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        for i in 0..3 {
            wal.append(true, |out| commit(i).encode(out)).unwrap();
        }
        // No syscall yet: the file on disk is still empty, but the log's
        // logical length already counts the buffered frames.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(!wal.is_empty());
        let logical = wal.len();
        drop(wal); // clean shutdown flushes
        assert_eq!(std::fs::metadata(&path).unwrap().len(), logical);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert!(scan.corruption.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rollback_removes_buffered_and_written_frames_alike() {
        let path = tmp("rollback");
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        wal.append(false, |out| commit(0).encode(out)).unwrap(); // written through
        let (keep_len, keep_lsn) = (wal.len(), wal.next_lsn());
        wal.append(true, |out| commit(1).encode(out)).unwrap(); // userspace only
        wal.rollback_to(keep_len, keep_lsn).unwrap();
        assert_eq!(wal.len(), keep_len);
        wal.append(false, |out| commit(2).encode(out)).unwrap(); // reuses the rolled-back LSN
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.corruption.is_none());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.last_lsn(), Some(2));
        assert_eq!(scan.frames[1].record, commit(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rollback_discards_partial_write_garbage_from_the_file() {
        use crate::failpoint::FailPlan;
        let path = tmp("partial");
        let points = Failpoints::none();
        let mut wal = Wal::create(&path, 1, points.clone()).unwrap();
        wal.append(false, |out| commit(0).encode(out)).unwrap();
        let (keep_len, keep_lsn) = (wal.len(), wal.next_lsn());
        // A reported partial write: half the frame lands on disk, the
        // caller sees the error and rolls back.
        points.arm(FailPlan {
            fail_writes: 1,
            ..FailPlan::default()
        });
        assert!(wal.append(false, |out| commit(1).encode(out)).is_err());
        wal.rollback_to(keep_len, keep_lsn).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep_len);
        // Later appends must land contiguously after the valid prefix —
        // no garbage bytes in between to stop the scan.
        wal.append(false, |out| commit(2).encode(out)).unwrap();
        wal.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.corruption.is_none(), "garbage survived the rollback");
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].record, commit(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seal_rotates_once_and_lsns_run_on() {
        let dir = std::env::temp_dir().join(format!("tm-durable-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, sealed) = (dir.join("wal.log"), dir.join("wal.sealed"));
        let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
        for i in 0..3 {
            wal.append(true, |out| commit(i).encode(out)).unwrap();
        }
        // The buffered tail goes into the sealed file; the log goes on in
        // a fresh one.
        assert!(wal.seal(&sealed, true).unwrap());
        assert_eq!(scan_wal(&sealed).unwrap().last_lsn(), Some(3));
        assert!(wal.is_empty());
        assert_eq!(wal.append(false, |out| commit(3).encode(out)).unwrap(), 4);
        // A sealed file still there stays put: the log is only flushed.
        wal.append(true, |out| commit(4).encode(out)).unwrap();
        assert!(!wal.seal(&sealed, false).unwrap());
        assert_eq!(scan_wal(&sealed).unwrap().frames.len(), 3);
        let active = scan_wal(&path).unwrap();
        assert_eq!(
            active.frames.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            [4, 5]
        );
        drop(wal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lsn_rejected() {
        let path = tmp("lsn");
        let mut wal = Wal::create(&path, 10, Failpoints::none()).unwrap();
        wal.append(false, |out| commit(0).encode(out)).unwrap();
        drop(wal);
        // A second writer restarting at a stale LSN simulates an old tail.
        let valid = scan_wal(&path).unwrap().valid_len;
        let mut wal = Wal::open_append(&path, valid, 10, Failpoints::none()).unwrap();
        wal.append(false, |out| commit(1).encode(out)).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(
            scan.corruption,
            Some(DurableError::CorruptFrame { lsn: Some(10), .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}

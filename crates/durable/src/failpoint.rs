//! Fault injection for durability I/O.
//!
//! [`FailpointFile`] wraps the WAL's file handle; a shared [`Failpoints`]
//! plan makes it misbehave on command:
//!
//! * **torn writes** — a byte budget after which writes are cut short
//!   mid-buffer and everything later is silently dropped, exactly what a
//!   power cut during `write(2)` leaves behind,
//! * **bit rot** — XOR a byte at a chosen file offset on its way to disk,
//! * **failed fsync** — the next N `fsync` calls (of a log file, or of
//!   the directory through [`Failpoints::sync_dir`]) return an error.
//!
//! The plan is `Arc`-shared so a test holds one handle while the engine
//! writes through another. With no failpoints armed the wrapper is a thin
//! pass-through.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{DurableError, Result};

/// The armable faults. All fields default to "healthy".
#[derive(Debug, Clone, Default)]
pub struct FailPlan {
    /// Bytes that may still reach the file; writes beyond the budget are
    /// truncated (the first over-budget write) then dropped entirely —
    /// simulating a crash mid-`write`. `None` = unlimited.
    pub write_budget: Option<u64>,
    /// The next this-many `write` calls fail after physically writing
    /// only the first half of the buffer — a *reported* partial-write
    /// failure (ENOSPC, EIO): unlike the budget, the caller sees the
    /// error, but garbage bytes are already on disk past the tracked
    /// length and the OS cursor sits after them.
    pub fail_writes: u32,
    /// The next this-many `fsync` calls fail with an injected error.
    pub fail_fsyncs: u32,
    /// XOR this mask into the byte at this absolute file offset as it is
    /// written (bit rot on the write path).
    pub flip: Option<(u64, u8)>,
}

/// Shared handle to a [`FailPlan`]; cloning shares the same plan.
#[derive(Debug, Clone, Default)]
pub struct Failpoints {
    plan: Arc<Mutex<FailPlan>>,
    crashed: Arc<Mutex<bool>>,
    /// Fsyncs that reached the disk through this plan.
    syncs: Arc<AtomicU64>,
}

impl Failpoints {
    /// A healthy, never-failing plan.
    pub fn none() -> Failpoints {
        Failpoints::default()
    }

    /// Replace the armed plan.
    pub fn arm(&self, plan: FailPlan) {
        *self.plan.lock().unwrap() = plan;
    }

    /// Whether a write was cut short by the byte budget (the simulated
    /// crash has happened; later writes are being dropped).
    pub fn crashed(&self) -> bool {
        *self.crashed.lock().unwrap()
    }

    /// How many fsyncs — of files and of directories — went through this
    /// plan and reached the disk.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Fail with an injected error when an fsync failure is armed,
    /// consuming it.
    fn fsync_fault(&self, path: &Path) -> Result<()> {
        let mut plan = self.plan.lock().unwrap();
        if plan.fail_fsyncs == 0 {
            return Ok(());
        }
        plan.fail_fsyncs -= 1;
        Err(DurableError::Io {
            op: "fsync".to_owned(),
            path: path.display().to_string(),
            detail: "injected fsync failure".to_owned(),
        })
    }

    /// Fsync a directory, subject to the armed faults like
    /// [`FailpointFile::sync`].
    pub fn sync_dir(&self, dir: &Path) -> Result<()> {
        self.fsync_fault(dir)?;
        if self.crashed() {
            return Ok(());
        }
        crate::checkpoint::fsync_dir(dir)?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A file handle that routes all durability I/O through the armed
/// failpoints.
#[derive(Debug)]
pub struct FailpointFile {
    file: File,
    path: PathBuf,
    points: Failpoints,
    /// Current append offset (failpoint bookkeeping; the file is only
    /// ever appended to or truncated through this wrapper).
    pos: u64,
}

impl FailpointFile {
    /// Create (truncate) a file for appending.
    pub fn create(path: &Path, points: Failpoints) -> Result<FailpointFile> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| DurableError::io("create", path, e))?;
        Ok(FailpointFile {
            file,
            path: path.to_owned(),
            points,
            pos: 0,
        })
    }

    /// Open an existing file for appending at `len` (the validated length
    /// the caller will append after; anything beyond it is truncated away
    /// first — tail truncation happens at a frame boundary, never mid-log).
    pub fn open_append(path: &Path, len: u64, points: Failpoints) -> Result<FailpointFile> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| DurableError::io("open", path, e))?;
        file.set_len(len)
            .map_err(|e| DurableError::io("truncate", path, e))?;
        file.seek(SeekFrom::Start(len))
            .map_err(|e| DurableError::io("seek", path, e))?;
        Ok(FailpointFile {
            file,
            path: path.to_owned(),
            points,
            pos: len,
        })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault plan this file writes through.
    pub fn points(&self) -> &Failpoints {
        &self.points
    }

    /// Bytes appended so far (the logical end of file).
    pub fn len(&self) -> u64 {
        self.pos
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }

    /// Append `buf` at the end of the file, subject to the armed faults.
    /// A budget-exhausted (post-"crash") write reports success without
    /// writing — the caller believes the write happened, the bytes never
    /// hit the disk, exactly the lie a dying machine tells.
    pub fn append(&mut self, buf: &[u8]) -> Result<()> {
        if self.points.crashed() {
            self.pos += buf.len() as u64;
            return Ok(());
        }
        let mut data = buf.to_vec();
        {
            let plan = self.points.plan.lock().unwrap();
            if let Some((off, mask)) = plan.flip {
                if off >= self.pos && off < self.pos + data.len() as u64 {
                    data[(off - self.pos) as usize] ^= mask;
                }
            }
        }
        let fail_write = {
            let mut plan = self.points.plan.lock().unwrap();
            if plan.fail_writes > 0 {
                plan.fail_writes -= 1;
                true
            } else {
                false
            }
        };
        if fail_write {
            // Half the buffer lands on disk before the error: `pos` does
            // not advance, so the caller's tracked length now disagrees
            // with the physical file until it truncates back to it.
            let _ = self.file.write_all(&data[..data.len() / 2]);
            return Err(DurableError::Io {
                op: "write".to_owned(),
                path: self.path.display().to_string(),
                detail: "injected write failure (partial)".to_owned(),
            });
        }
        let allowed = {
            let mut plan = self.points.plan.lock().unwrap();
            match &mut plan.write_budget {
                None => data.len(),
                Some(budget) => {
                    let allowed = (*budget).min(data.len() as u64) as usize;
                    *budget -= allowed as u64;
                    allowed
                }
            }
        };
        if allowed < data.len() {
            *self.points.crashed.lock().unwrap() = true;
        }
        self.file
            .write_all(&data[..allowed])
            .map_err(|e| DurableError::io("write", &self.path, e))?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    /// Force written data to stable storage, subject to the armed faults.
    pub fn sync(&mut self) -> Result<()> {
        self.points.fsync_fault(&self.path)?;
        if self.points.crashed() {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(|e| DurableError::io("fsync", &self.path, e))?;
        self.points.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Truncate the file to `len` bytes and realign the write cursor —
    /// tail truncation after a torn or failed write. Not subject to the
    /// error-injection faults, but a post-"crash" (budget-exhausted)
    /// handle leaves the disk untouched like every other call on a dead
    /// machine.
    pub fn truncate(&mut self, len: u64) -> Result<()> {
        if self.points.crashed() {
            self.pos = len;
            return Ok(());
        }
        self.file
            .set_len(len)
            .map_err(|e| DurableError::io("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(len))
            .map_err(|e| DurableError::io("seek", &self.path, e))?;
        self.pos = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-durable-fp-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn budget_cuts_writes_short_and_drops_the_rest() {
        let path = tmp("budget");
        let points = Failpoints::none();
        points.arm(FailPlan {
            write_budget: Some(5),
            ..FailPlan::default()
        });
        let mut f = FailpointFile::create(&path, points.clone()).unwrap();
        f.append(b"0123456789").unwrap();
        assert!(points.crashed());
        f.append(b"after the crash").unwrap(); // silently dropped
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_write_leaves_partial_garbage_until_truncated() {
        let path = tmp("failwrite");
        let points = Failpoints::none();
        let mut f = FailpointFile::create(&path, points.clone()).unwrap();
        f.append(b"good").unwrap();
        points.arm(FailPlan {
            fail_writes: 1,
            ..FailPlan::default()
        });
        assert!(matches!(
            f.append(b"0123456789"),
            Err(DurableError::Io { .. })
        ));
        // The tracked length did not advance, but half the buffer is on
        // disk past it — exactly the state a real partial write leaves.
        assert_eq!(f.len(), 4);
        assert_eq!(std::fs::read(&path).unwrap(), b"good01234");
        // Truncating back to the tracked length discards the garbage and
        // realigns the cursor, so the next append lands contiguously.
        f.truncate(4).unwrap();
        f.append(b"next").unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"goodnext");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_failures_are_injected_then_clear() {
        let path = tmp("fsync");
        let points = Failpoints::none();
        points.arm(FailPlan {
            fail_fsyncs: 1,
            ..FailPlan::default()
        });
        let mut f = FailpointFile::create(&path, points).unwrap();
        f.append(b"x").unwrap();
        assert!(matches!(f.sync(), Err(DurableError::Io { .. })));
        f.sync().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flip_corrupts_exactly_one_byte() {
        let path = tmp("flip");
        let points = Failpoints::none();
        points.arm(FailPlan {
            flip: Some((2, 0xff)),
            ..FailPlan::default()
        });
        let mut f = FailpointFile::create(&path, points).unwrap();
        f.append(b"ab").unwrap();
        f.append(b"cd").unwrap();
        drop(f);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [b'a', b'b', b'c' ^ 0xff, b'd']
        );
        std::fs::remove_file(&path).unwrap();
    }
}

//! Engine-side durability: WAL hookup, checkpointing, and crash recovery.
//!
//! The machinery (frames, checksums, snapshots, fault injection) lives in
//! `tm-durable`; this module owns the *policy* — what gets logged when, how
//! a checkpoint captures engine state, and how [`Engine::recover`] rebuilds
//! an engine that is `state_eq`-identical to the committed prefix of a
//! crashed one.
//!
//! ## What gets logged
//!
//! * every committed transaction's net per-relation differentials (one
//!   `Commit` frame; empty-effect commits log nothing),
//! * catalog DDL as first-class records: `AddRule`, `RemoveRule`,
//!   `DefineView` (replay re-runs the deterministic initial
//!   materialization, so no separate commit frame is logged for it), and
//!   `Load` (the whole bulk batch as one frame — one write, one fsync),
//!
//! all appended *after* the in-memory effect succeeded and undone again if
//! the append fails: a transaction either is in memory **and** on disk, or
//! in neither. A transaction's `Commit` frame is encoded straight from the
//! executor's change log (its net view) and appended before the
//! executor's end bracket closes, so a failed append undoes the
//! transaction through that log, as an abort is undone.
//!
//! ## Checkpoints off the commit thread
//!
//! A checkpoint is split in two. On the commit thread it *begins*: the
//! log is sealed off ([`Wal::seal`]: flushed, renamed to
//! [`SEALED_FILE`], continued in a fresh [`WAL_FILE`]) and the state is
//! captured: the schema `Arc`, rule and view texts cached per catalog
//! epoch, and each relation's tuple handles copied into a buffer kept
//! across checkpoints (no tuple is cloned deeply, and no relation the
//! commits go on writing is held, so none is unshared). One spawned
//! thread *finishes* it: sorts and encodes the tuples, writes the
//! checkpoint, retires the older ones, and only then deletes the sealed
//! file. At most one checkpoint is in flight. The commit path never waits
//! for it — one that comes due meanwhile begins at the first append after
//! it is reaped — while an explicit [`Engine::checkpoint`],
//! [`Engine::wait_for_checkpoint`] and dropping the engine do.
//!
//! ## Recovery contract
//!
//! [`Engine::recover`] loads the newest valid checkpoint (falling back to
//! an older one if the newest is damaged — but only when the WAL bridges
//! it past every rejected one), replays the sealed file and then the
//! active log as one log — LSNs contiguous across the two — beyond the
//! checkpoint LSN, truncates any torn tail at the frame boundary, and
//! reports the LSN range it recovered through.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use tm_durable::checkpoint::{fsync_dir, list_checkpoints, retire_checkpoints};
use tm_durable::wal::{scan_wal, ScannedFrame, WalScan};
use tm_durable::{
    encode_commit, Checkpoint, Durability, DurabilityConfig, DurableError, Failpoints, Wal,
    WalRecord,
};
use tm_relational::codec::ByteReader;
use tm_relational::{DatabaseSchema, NetChange, Tuple};
use tm_rules::parse_rule;

use crate::engine::{EnforcementMode, Engine, EngineConfig};
use crate::error::EngineError;
use crate::views::ViewDef;

/// The WAL file name inside a durability directory: the active log.
pub const WAL_FILE: &str = "wal.log";

/// The name a checkpoint renames the active log to when it begins. The
/// file holds the frames up to that checkpoint's LSN and is deleted once
/// the checkpoint is durable; recovery reads it before [`WAL_FILE`].
pub const SEALED_FILE: &str = "wal.sealed";

/// Durability state attached to a live engine.
#[derive(Debug)]
pub(crate) struct DurableState {
    /// The durability directory (WAL + checkpoints).
    pub dir: PathBuf,
    /// The open log.
    pub wal: Wal,
    /// LSN covered by the latest durable checkpoint.
    pub checkpoint_lsn: u64,
    /// Frames appended since the last checkpoint began (drives
    /// [`DurabilityConfig::checkpoint_every`]).
    pub frames_since_checkpoint: u64,
    /// A deferred automatic-checkpoint failure (see
    /// [`Engine::take_checkpoint_error`]): the commit that triggered the
    /// checkpoint was already durable, so its success could not be
    /// retracted — the error is held here instead.
    pub checkpoint_error: Option<EngineError>,
    /// The checkpoint whose second half runs on its own thread — at most
    /// one.
    in_flight: Option<InFlight>,
    /// Rule and view texts, with the catalog epoch they were rendered at.
    catalog_text: Option<(u64, Arc<CatalogText>)>,
    /// The buffers a checkpoint copies tuple handles into, one per
    /// relation, handed back emptied by its thread: kept across
    /// checkpoints, so no large block is allocated and freed each time.
    buffers: Vec<Vec<Tuple>>,
}

/// A begun checkpoint whose thread may still be running.
#[derive(Debug)]
struct InFlight {
    /// The LSN it covers.
    lsn: u64,
    /// Frames counted toward `checkpoint_every` when it began; a failure
    /// puts them back, so the next append retries.
    frames: u64,
    handle: JoinHandle<(tm_durable::Result<()>, Vec<Vec<Tuple>>)>,
}

/// Every rule's canonical text and every view's definition, in order.
#[derive(Debug)]
struct CatalogText {
    rules: Vec<(String, String)>,
    views: Vec<(String, String)>,
}

impl DurableState {
    fn new(dir: &Path, wal: Wal, checkpoint_lsn: u64, frames_since_checkpoint: u64) -> Self {
        DurableState {
            dir: dir.to_owned(),
            wal,
            checkpoint_lsn,
            frames_since_checkpoint,
            checkpoint_error: None,
            in_flight: None,
            catalog_text: None,
            buffers: Vec::new(),
        }
    }

    /// The in-flight checkpoint's outcome once its thread is done,
    /// waiting for it when `wait`. A success moves `checkpoint_lsn`; a
    /// failure puts back the frames counted before it began.
    fn reap(&mut self, wait: bool) -> Option<crate::error::Result<u64>> {
        if !wait && !self.in_flight.as_ref()?.handle.is_finished() {
            return None;
        }
        let InFlight {
            lsn,
            frames,
            handle,
        } = self.in_flight.take()?;
        let outcome = match handle.join() {
            Ok((outcome, buffers)) => {
                self.buffers = buffers;
                outcome
            }
            Err(_) => Err(DurableError::Io {
                op: "checkpoint".to_owned(),
                path: self.dir.display().to_string(),
                detail: "the checkpoint thread panicked".to_owned(),
            }),
        };
        Some(match outcome {
            Ok(()) => {
                self.checkpoint_lsn = lsn;
                Ok(lsn)
            }
            Err(e) => {
                self.frames_since_checkpoint += frames;
                Err(EngineError::Durability(e))
            }
        })
    }

    /// Append one frame, whose record `encode` writes, per `durability`'s
    /// level — buffered in userspace under [`Durability::Buffered`],
    /// written through and fsynced per group under [`Durability::Fsync`] —
    /// and return its LSN. A frame whose durability cannot be established
    /// (failed write or fsync) is truncated back out of the log: if it
    /// stayed, recovery would replay an operation the engine reported as
    /// failed.
    fn log(
        &mut self,
        durability: &DurabilityConfig,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> crate::error::Result<u64> {
        let (prev_len, prev_lsn) = (self.wal.len(), self.wal.next_lsn());
        let buffered = durability.level == Durability::Buffered;
        let appended = self.wal.append(buffered, encode).and_then(|lsn| {
            if durability.level == Durability::Fsync {
                self.wal.sync_every(durability.group_commit)?;
            }
            Ok(lsn)
        });
        match appended {
            Ok(lsn) => {
                self.frames_since_checkpoint += 1;
                Ok(lsn)
            }
            Err(e) => {
                let _ = self.wal.rollback_to(prev_len, prev_lsn);
                Err(EngineError::Durability(e))
            }
        }
    }

    /// Log a committing transaction's net view as one `Commit` frame —
    /// none when the view is empty. The engine's commit hook: it runs
    /// before the executor's end bracket closes, and a failure undoes the
    /// transaction through the change log.
    pub(crate) fn append_commit(
        &mut self,
        durability: &DurabilityConfig,
        net: &[NetChange<'_>],
    ) -> crate::error::Result<()> {
        if !net.is_empty() {
            self.log(durability, |out| encode_commit(out, net))?;
        }
        Ok(())
    }

    /// [`DurableState::reap`], parking a failure for
    /// [`Engine::take_checkpoint_error`].
    fn settle(&mut self, wait: bool) {
        if let Some(Err(e)) = self.reap(wait) {
            self.checkpoint_error = Some(e);
        }
    }
}

impl Drop for DurableState {
    /// Dropping the engine waits for its checkpoint: the directory it
    /// leaves behind is never mid-write by a thread nobody joins.
    fn drop(&mut self) {
        if let Some(f) = self.in_flight.take() {
            let _ = f.handle.join();
        }
    }
}

/// What a begun checkpoint hands its thread: the state at `lsn`.
struct CheckpointJob {
    dir: PathBuf,
    lsn: u64,
    logical_time: u64,
    config: Vec<u8>,
    schema: Arc<DatabaseSchema>,
    catalog: Arc<CatalogText>,
    /// Every relation's tuples, unsorted, in [`DurableState::buffers`].
    relations: Vec<(String, Vec<Tuple>)>,
}

impl CheckpointJob {
    /// The half of a checkpoint off the commit thread: sort each
    /// relation's tuples, encode and write the checkpoint over the spare,
    /// retire the older ones, and only then delete the sealed log — every
    /// frame in it is inside this checkpoint now. Hands the buffers back
    /// emptied.
    fn run(mut self) -> (tm_durable::Result<()>, Vec<Vec<Tuple>>) {
        for (_, tuples) in &mut self.relations {
            // Set members are distinct: unstable sorting is exact.
            tuples.sort_unstable();
        }
        let ckpt = Checkpoint {
            lsn: self.lsn,
            logical_time: self.logical_time,
            config: self.config,
            schema: (*self.schema).clone(),
            rules: self.catalog.rules.clone(),
            views: self.catalog.views.clone(),
            relations: self.relations,
        };
        let outcome = ckpt
            .write_atomic(&self.dir)
            .and_then(|_| retire_checkpoints(&self.dir, Some(self.lsn)))
            .and_then(|()| remove_if_present(&self.dir.join(SEALED_FILE)));
        let buffers = ckpt
            .relations
            .into_iter()
            .map(|(_, mut tuples)| {
                tuples.clear();
                tuples
            })
            .collect();
        (outcome, buffers)
    }
}

/// Unlink `path`; a missing file is not an error.
fn remove_if_present(path: &Path) -> tm_durable::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(DurableError::io("unlink", path, e)),
    }
}

/// Why recovery failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The directory holds no loadable checkpoint at all. Carries the
    /// per-file failures when damaged candidates were found and rejected.
    NoCheckpoint {
        /// The directory searched.
        dir: String,
        /// Load failures of rejected candidates, newest first.
        rejected: Vec<DurableError>,
    },
    /// A durability-layer failure (I/O, log scan).
    Durable(DurableError),
    /// The checkpoint loaded but its contents would not rebuild an engine
    /// (unparsable rule or view text, schema mismatch).
    Rebuild {
        /// What failed to rebuild.
        detail: String,
    },
    /// A valid WAL frame would not replay — the log disagrees with the
    /// state it was logged against.
    Replay {
        /// The frame's LSN.
        lsn: u64,
        /// What went wrong.
        detail: String,
    },
    /// The newest loadable checkpoint is not bridged by the WAL to history
    /// that provably committed: the log's first frame past the checkpoint
    /// is not `checkpoint_lsn + 1`, or a newer checkpoint that failed to
    /// load covers LSNs the log does not reach. Recovering would silently
    /// drop acknowledged commits.
    WalGap {
        /// LSN of the checkpoint recovery would have started from.
        checkpoint_lsn: u64,
        /// A committed LSN recovery cannot reach from it: the rejected
        /// checkpoint's, or the one before the log's first frame.
        required_lsn: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoCheckpoint { dir, rejected } => {
                write!(f, "no loadable checkpoint in `{dir}`")?;
                for e in rejected {
                    write!(f, "; rejected: {e}")?;
                }
                Ok(())
            }
            RecoveryError::Durable(e) => write!(f, "{e}"),
            RecoveryError::Rebuild { detail } => {
                write!(f, "checkpoint state failed to rebuild: {detail}")
            }
            RecoveryError::Replay { lsn, detail } => {
                write!(f, "WAL frame lsn {lsn} failed to replay: {detail}")
            }
            RecoveryError::WalGap {
                checkpoint_lsn,
                required_lsn,
            } => write!(
                f,
                "the WAL does not bridge checkpoint lsn {checkpoint_lsn} to committed lsn \
                 {required_lsn}; refusing to recover without those commits"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<DurableError> for RecoveryError {
    fn from(e: DurableError) -> Self {
        RecoveryError::Durable(e)
    }
}

/// What [`Engine::recover`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN covered by the checkpoint recovery started from.
    pub checkpoint_lsn: u64,
    /// The last LSN whose effects are in the recovered state (equals
    /// `checkpoint_lsn` when the log held nothing newer).
    pub recovered_lsn: u64,
    /// WAL frames replayed on top of the checkpoint.
    pub frames_replayed: u64,
    /// When the log ended in a torn/corrupt tail: the byte offset it was
    /// truncated at and the validator's reason. `None` for a clean log.
    pub truncated_tail: Option<(u64, String)>,
}

/// A recovered engine plus the report of how it was rebuilt.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt engine, open for further durable execution.
    pub engine: Engine,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

// ---------------------------------------------------------------------------
// Engine-config blob (stored opaquely inside checkpoints)
// ---------------------------------------------------------------------------

fn mode_tag(m: EnforcementMode) -> u8 {
    match m {
        EnforcementMode::Off => 0,
        EnforcementMode::Static => 2,
        EnforcementMode::Differential => 3,
    }
}

fn level_tag(l: Durability) -> u8 {
    match l {
        Durability::None => 0,
        Durability::Buffered => 1,
        Durability::Fsync => 2,
    }
}

pub(crate) fn encode_config(c: &EngineConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    out.push(mode_tag(c.mode));
    out.push(c.allow_cycles as u8);
    out.extend_from_slice(&(c.max_rounds as u64).to_le_bytes());
    out.push(c.specialize as u8);
    out.push(level_tag(c.durability.level));
    out.extend_from_slice(&(c.durability.group_commit as u64).to_le_bytes());
    out.extend_from_slice(&c.durability.checkpoint_every.to_le_bytes());
    out
}

pub(crate) fn decode_config(buf: &[u8]) -> Result<EngineConfig, String> {
    let mut r = ByteReader::new(buf);
    let mut next = |what: &str| r.u8().map_err(|e| format!("{what}: {e}"));
    let mode = match next("mode")? {
        0 => EnforcementMode::Off,
        // Tag 1 was enforcement-time translation, which appended what
        // `Static` appends.
        1 | 2 => EnforcementMode::Static,
        3 => EnforcementMode::Differential,
        t => return Err(format!("unknown enforcement mode tag {t}")),
    };
    let allow_cycles = next("allow_cycles")? != 0;
    let max_rounds = r.u64().map_err(|e| format!("max_rounds: {e}"))? as usize;
    let mut next = |what: &str| r.u8().map_err(|e| format!("{what}: {e}"));
    let specialize = next("specialize")? != 0;
    let level = match next("durability level")? {
        0 => Durability::None,
        1 => Durability::Buffered,
        2 => Durability::Fsync,
        t => return Err(format!("unknown durability level tag {t}")),
    };
    let group_commit = r.u64().map_err(|e| format!("group_commit: {e}"))? as usize;
    let checkpoint_every = r.u64().map_err(|e| format!("checkpoint_every: {e}"))?;
    r.expect_end().map_err(|e| e.to_string())?;
    Ok(EngineConfig {
        mode,
        allow_cycles,
        max_rounds,
        specialize,
        durability: DurabilityConfig {
            level,
            group_commit,
            checkpoint_every,
        },
    })
}

// ---------------------------------------------------------------------------
// Engine durability API
// ---------------------------------------------------------------------------

impl Engine {
    /// Attach durability: `dir` becomes this engine's durability
    /// directory, an initial checkpoint snapshots the current state, and
    /// from here on every commit and catalog change is logged per
    /// [`EngineConfig::durability`] (under [`Durability::None`], only
    /// checkpoints persist). The directory is created if missing; any
    /// previous contents are replaced — use [`Engine::recover`] to *resume*
    /// from an existing directory instead.
    pub fn make_durable(&mut self, dir: &Path) -> crate::error::Result<()> {
        self.make_durable_with_failpoints(dir, Failpoints::none())
    }

    /// [`Engine::make_durable`] with fault injection armed — the crash
    /// tests' entry point.
    pub fn make_durable_with_failpoints(
        &mut self,
        dir: &Path,
        points: Failpoints,
    ) -> crate::error::Result<()> {
        if let Some(state) = self.durable_mut() {
            state.settle(true);
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Durability(DurableError::io("mkdir", dir, e)))?;
        // Replace any previous incarnation wholesale — and remove its log
        // files *before* the fresh checkpoint-0 exists. The other order
        // has a crash window that leaves checkpoint-0 next to a stale log,
        // whose frames (all lsn > 0) recovery would silently replay on
        // top of the new snapshot; this order's windows leave either the
        // old state or an explicit `NoCheckpoint`. Old checkpoints are
        // retired to the spare, which checkpoint-0 then overwrites.
        retire_checkpoints(dir, None).map_err(EngineError::Durability)?;
        for log in [SEALED_FILE, WAL_FILE] {
            remove_if_present(&dir.join(log)).map_err(EngineError::Durability)?;
        }
        fsync_dir(dir).map_err(EngineError::Durability)?;
        self.capture(dir, 0)
            .run()
            .0
            .map_err(EngineError::Durability)?;
        let wal = Wal::create(&dir.join(WAL_FILE), 1, points).map_err(EngineError::Durability)?;
        self.set_durable(Some(Box::new(DurableState::new(dir, wal, 0, 0))));
        Ok(())
    }

    /// Whether this engine is logging (durability attached and the level
    /// is not [`Durability::None`]).
    pub(crate) fn wal_active(&self) -> bool {
        self.durable().is_some() && self.config().durability.level != Durability::None
    }

    /// The last LSN appended to the WAL, when durability is attached.
    pub fn durable_lsn(&self) -> Option<u64> {
        self.durable().as_ref().and_then(|d| d.wal.last_lsn())
    }

    /// The LSN the next WAL append will receive, when durability is
    /// attached. After [`crate::Engine::recover`] this is strictly past
    /// every replayed record, so the concurrent engine seeds its commit
    /// epoch from it — post-recovery sessions can never observe an epoch
    /// that an earlier incarnation already used.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.durable().as_ref().map(|d| d.wal.next_lsn())
    }

    /// Append one record, flush per the configured durability level, and
    /// begin an automatic checkpoint when one is due. Returns the
    /// assigned LSN.
    pub(crate) fn wal_append(&mut self, record: &WalRecord) -> crate::error::Result<u64> {
        let lsn = self.wal_log(record)?;
        self.checkpoint_if_due();
        Ok(lsn)
    }

    /// [`Engine::wal_append`] without the checkpoint: for a caller whose
    /// in-memory effect follows the append, and which calls
    /// [`Engine::checkpoint_if_due`] once it is applied.
    pub(crate) fn wal_log(&mut self, record: &WalRecord) -> crate::error::Result<u64> {
        let durability = self.config().durability;
        self.durable_mut()
            .as_mut()
            .expect("wal_append requires attached durability")
            .log(&durability, |out| record.encode(out))
    }

    /// Reap a finished checkpoint, and begin the next one when
    /// [`DurabilityConfig::checkpoint_every`] frames were appended since
    /// the last one began — unless that one is still in flight.
    pub(crate) fn checkpoint_if_due(&mut self) {
        let every = self.config().durability.checkpoint_every;
        let Some(state) = self.durable_mut().as_mut() else {
            return;
        };
        state.settle(false);
        if every == 0 || state.frames_since_checkpoint < every {
            return;
        }
        // The commit path never waits for a checkpoint: with one still
        // running, the first append after it is reaped begins this one.
        if state.in_flight.is_none() {
            self.begin_automatic();
        }
    }

    /// Begin an automatic checkpoint. The frame that made it due is
    /// already durably appended: the commit riding on it has succeeded
    /// and its success must not be retracted by a failing *checkpoint* —
    /// recovery would replay the frame, and reporting failure here would
    /// resurrect a "failed" commit on a client retry. Park the error
    /// instead; the frame counter stays up (or is put back when the
    /// thread fails), so the next append retries, and
    /// [`Engine::take_checkpoint_error`] surfaces what happened.
    fn begin_automatic(&mut self) {
        if let Err(e) = self.begin_checkpoint() {
            let state = self.durable_mut().as_mut().expect("begun with durability");
            state.checkpoint_error = Some(e);
        }
    }

    /// Take (and clear) the most recent *automatic* checkpoint failure.
    ///
    /// An auto-checkpoint rides on a commit whose WAL frame is already
    /// durable, so its failure cannot fail the commit — the commit is
    /// reported successful and the checkpoint error is parked here. The
    /// log simply keeps growing until a later automatic (retried by the
    /// next append after the failure is reaped) or explicit
    /// [`Engine::checkpoint`] succeeds; durability is not weakened, only
    /// dropping the log is delayed.
    ///
    /// Never waits: a checkpoint still in flight is reaped by a later
    /// call (or by [`Engine::wait_for_checkpoint`]).
    pub fn take_checkpoint_error(&mut self) -> Option<EngineError> {
        let state = self.durable_mut().as_mut()?;
        state.settle(false);
        state.checkpoint_error.take()
    }

    /// Block until no checkpoint is in flight and none is due: one that
    /// came due while another was running is begun and waited for too.
    /// An automatic checkpoint's failure is parked for
    /// [`Engine::take_checkpoint_error`]. Call it before reading this
    /// engine's durability directory — with [`Engine::recover`], say —
    /// while the engine is alive.
    pub fn wait_for_checkpoint(&mut self) {
        let every = self.config().durability.checkpoint_every;
        let Some(state) = self.durable_mut().as_mut() else {
            return;
        };
        state.settle(true);
        if every > 0 && state.frames_since_checkpoint >= every {
            self.begin_automatic();
            if let Some(state) = self.durable_mut() {
                state.settle(true);
            }
        }
    }

    /// Take a checkpoint now and wait for it: the begin step of an
    /// automatic one (after waiting for any that is in flight), then its
    /// thread's write of the snapshot over the spare, the retirement of
    /// older checkpoints, and the deletion of the sealed log. Returns the
    /// LSN the checkpoint covers. Requires attached durability.
    pub fn checkpoint(&mut self) -> crate::error::Result<u64> {
        self.begin_checkpoint()?;
        let state = self.durable_mut().as_mut().expect("begun above");
        state.reap(true).expect("begun above")
    }

    /// The commit-thread half of a checkpoint at the last logged LSN:
    /// wait for the one in flight, seal the log (under
    /// [`Durability::Fsync`] the closing log and the directory are
    /// fsynced, so no later commit is acknowledged into a file whose name
    /// a crash could lose), capture the state, and spawn the thread that
    /// writes it. Returns the LSN it covers.
    fn begin_checkpoint(&mut self) -> crate::error::Result<u64> {
        let fsync = self.config().durability.level == Durability::Fsync;
        let state = self
            .durable_mut()
            .as_mut()
            .ok_or_else(|| EngineError::Durability(no_durability()))?;
        state.settle(true);
        let lsn = state.wal.last_lsn().unwrap_or(state.checkpoint_lsn);
        let sealed = state.dir.join(SEALED_FILE);
        state
            .wal
            .seal(&sealed, fsync)
            .map_err(EngineError::Durability)?;
        let dir = state.dir.clone();
        let job = self.capture(&dir, lsn);
        let handle = std::thread::Builder::new()
            .name("tm-checkpoint".to_owned())
            .spawn(move || job.run())
            .map_err(|e| EngineError::Durability(DurableError::io("spawn", &dir, e)))?;
        let state = self.durable_mut().as_mut().expect("checked above");
        state.in_flight = Some(InFlight {
            lsn,
            frames: state.frames_since_checkpoint,
            handle,
        });
        state.frames_since_checkpoint = 0;
        Ok(lsn)
    }

    /// The engine state as a checkpoint of `lsn` into `dir` will write it:
    /// the schema `Arc`, the cached catalog texts, and every relation's
    /// tuple handles (reference-count bumps, unsorted) in its buffer.
    fn capture(&mut self, dir: &Path, lsn: u64) -> CheckpointJob {
        let mut buffers = self
            .durable_mut()
            .as_mut()
            .map(|d| std::mem::take(&mut d.buffers))
            .unwrap_or_default()
            .into_iter();
        CheckpointJob {
            dir: dir.to_owned(),
            lsn,
            logical_time: self.database().logical_time(),
            config: encode_config(self.config()),
            schema: self.catalog().schema().clone(),
            catalog: self.catalog_text(),
            relations: self
                .database()
                .iter()
                .map(|(name, rel)| {
                    let mut tuples = buffers.next().unwrap_or_default();
                    tuples.extend(rel.iter().cloned());
                    (name.to_owned(), tuples)
                })
                .collect(),
        }
    }

    /// The catalog's rule and view texts, rendered once per catalog epoch.
    fn catalog_text(&mut self) -> Arc<CatalogText> {
        let epoch = self.plan_epoch();
        if let Some((at, text)) = self
            .durable()
            .as_ref()
            .and_then(|d| d.catalog_text.as_ref())
        {
            if *at == epoch {
                return text.clone();
            }
        }
        let text = Arc::new(self.render_catalog());
        if let Some(state) = self.durable_mut().as_mut() {
            state.catalog_text = Some((epoch, text.clone()));
        }
        text
    }

    fn render_catalog(&self) -> CatalogText {
        CatalogText {
            rules: self
                .catalog()
                .rules()
                .iter()
                .map(|r| (r.name.clone(), r.canonical_text()))
                .collect(),
            views: self
                .views()
                .iter()
                .map(|v| (v.name.clone(), v.definition.to_string()))
                .collect(),
        }
    }

    /// Recover an engine from a durability directory: load the newest
    /// valid checkpoint, replay the valid prefix of the sealed log and the
    /// active one beyond it, truncate any torn tail at the frame boundary,
    /// and reopen the active log for appending. A live engine's directory
    /// is read only after [`Engine::wait_for_checkpoint`]. The recovered engine's configuration (enforcement mode,
    /// durability knobs) comes from the checkpoint.
    ///
    /// A damaged newest checkpoint falls back to an older one only when
    /// the WAL bridges the gap — its first frame past the older one is the
    /// next LSN, and replay reaches every rejected checkpoint's LSN —
    /// otherwise recovery fails with [`RecoveryError::WalGap`].
    pub fn recover(dir: &Path) -> Result<Recovered, RecoveryError> {
        Engine::recover_with_failpoints(dir, Failpoints::none())
    }

    /// [`Engine::recover`] with fault injection armed on the reopened log.
    pub fn recover_with_failpoints(
        dir: &Path,
        points: Failpoints,
    ) -> Result<Recovered, RecoveryError> {
        // 1. Newest checkpoint that actually loads; fall back on damage.
        let candidates = list_checkpoints(dir)?;
        let mut rejected = Vec::new();
        let mut newest_rejected = None;
        let mut loaded = None;
        for (lsn, path) in &candidates {
            match Checkpoint::load(path) {
                Ok(ck) => {
                    loaded = Some(ck);
                    break;
                }
                Err(e) => {
                    rejected.push(e);
                    newest_rejected.get_or_insert(*lsn);
                }
            }
        }
        let Some(ckpt) = loaded else {
            return Err(RecoveryError::NoCheckpoint {
                dir: dir.display().to_string(),
                rejected,
            });
        };

        // 2. The sealed file and the active log, read as one log, must
        //    continue the checkpoint without a gap, and reach whatever a
        //    rejected newer checkpoint proves committed.
        let sealed_path = dir.join(SEALED_FILE);
        let wal_path = dir.join(WAL_FILE);
        let sealed = scan_wal(&sealed_path)?;
        let active = scan_wal(&wal_path)?;
        let log = LogPlan::of(ckpt.lsn, &sealed, &active)?;
        if let Some(lsn) = newest_rejected.filter(|&lsn| lsn > log.reach) {
            return Err(RecoveryError::WalGap {
                checkpoint_lsn: ckpt.lsn,
                required_lsn: lsn,
            });
        }

        // 3. Rebuild the engine from the snapshot.
        let config =
            decode_config(&ckpt.config).map_err(|detail| RecoveryError::Rebuild { detail })?;
        let mut engine = Engine::with_config(ckpt.schema.clone(), config);
        for (name, text) in &ckpt.rules {
            let rule = parse_rule(text, name).map_err(|e| RecoveryError::Rebuild {
                detail: format!("rule `{name}`: {e}"),
            })?;
            engine
                .add_rule_unlogged(rule)
                .map_err(|e| RecoveryError::Rebuild {
                    detail: format!("rule `{name}`: {e}"),
                })?;
        }
        for (name, definition) in &ckpt.views {
            let expr = tm_algebra::parser::parse_relexpr(definition).map_err(|e| {
                RecoveryError::Rebuild {
                    detail: format!("view `{name}`: {e}"),
                }
            })?;
            // The maintenance rule and materialized contents are already
            // restored (rules list / relation snapshot); only re-register.
            engine.restore_view(ViewDef::new(name.clone(), expr));
        }
        for (name, tuples) in &ckpt.relations {
            engine
                .database_mut()
                .extend(name, tuples.iter().cloned())
                .map_err(|e| RecoveryError::Rebuild {
                    detail: format!("relation `{name}`: {e}"),
                })?;
        }
        engine.database_mut().set_logical_time(ckpt.logical_time);

        // 4. Replay the log past the checkpoint.
        for frame in &log.frames {
            engine
                .replay(&frame.record)
                .map_err(|e| RecoveryError::Replay {
                    lsn: frame.lsn,
                    detail: e.to_string(),
                })?;
        }

        // 5. Truncate the torn tail (frame boundary, never mid-log) — a
        //    tear in the sealed file drops the active log after it — and
        //    reopen the active log for appending.
        let keep = match &log.tear {
            Some(tear) if tear.sealed => {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&sealed_path)
                    .and_then(|f| f.set_len(tear.offset))
                    .map_err(|e| DurableError::io("truncate", &sealed_path, e))?;
                0
            }
            Some(tear) => tear.offset,
            None => active.valid_len,
        };
        let next_lsn = log.reach + 1;
        let wal = if wal_path.exists() {
            Wal::open_append(&wal_path, keep, next_lsn, points)?
        } else {
            Wal::create(&wal_path, next_lsn, points)?
        };
        let frames_replayed = log.frames.len() as u64;
        engine.set_durable(Some(Box::new(DurableState::new(
            dir,
            wal,
            ckpt.lsn,
            frames_replayed,
        ))));
        Ok(Recovered {
            engine,
            report: RecoveryReport {
                checkpoint_lsn: ckpt.lsn,
                recovered_lsn: log.reach,
                frames_replayed,
                truncated_tail: log.tear.map(|t| (t.offset, t.reason)),
            },
        })
    }

    /// Apply one WAL record to this engine during recovery, through the
    /// same code paths live execution uses (minus the logging).
    fn replay(&mut self, record: &WalRecord) -> crate::error::Result<()> {
        match record {
            WalRecord::Commit { deltas } => {
                for d in deltas {
                    d.apply(self.database_mut())?;
                }
                self.database_mut().tick();
                Ok(())
            }
            WalRecord::AddRule { name, text } => {
                let rule =
                    parse_rule(text, name).map_err(|e| EngineError::RuleParse(e.to_string()))?;
                self.add_rule_unlogged(rule)
            }
            WalRecord::RemoveRule { name } => {
                self.remove_rule_unlogged(name);
                Ok(())
            }
            WalRecord::DefineView { name, definition } => {
                let expr = tm_algebra::parser::parse_relexpr(definition)
                    .map_err(|e| EngineError::View(e.to_string()))?;
                self.define_view_unlogged(ViewDef::new(name.clone(), expr))
                    .map(|_rule_name| ())
            }
            WalRecord::Load { relation, tuples } => {
                self.database_mut()
                    .extend(relation, tuples.iter().cloned())?;
                Ok(())
            }
        }
    }
}

/// Where the log ended before its files did.
struct Tear {
    /// The tear is in the sealed file (else in the active log).
    sealed: bool,
    /// The frame boundary the file is truncated at.
    offset: u64,
    reason: String,
}

/// The frames recovery replays past a checkpoint, read from the sealed
/// file and then the active log as one log.
struct LogPlan<'a> {
    frames: Vec<&'a ScannedFrame>,
    /// The last LSN in the recovered state.
    reach: u64,
    tear: Option<Tear>,
}

impl<'a> LogPlan<'a> {
    /// Frames at or below the LSN reached so far are inside the checkpoint
    /// (or already taken) and skipped; every other must continue the LSN
    /// reached. The first frame past the checkpoint not doing so is a
    /// [`RecoveryError::WalGap`]; a later one — or a bad frame — ends the
    /// log there. Damage in the sealed file is harmless when the active
    /// log continues past it: everything it lost is inside the checkpoint.
    fn of(ckpt_lsn: u64, sealed: &'a WalScan, active: &'a WalScan) -> Result<Self, RecoveryError> {
        let mut plan = LogPlan {
            frames: Vec::new(),
            reach: ckpt_lsn,
            tear: None,
        };
        for (in_sealed, scan) in [(true, sealed), (false, active)] {
            let file = if in_sealed { SEALED_FILE } else { WAL_FILE };
            for f in &scan.frames {
                if f.lsn <= plan.reach {
                    continue;
                }
                if f.lsn != plan.reach + 1 {
                    if plan.frames.is_empty() && plan.tear.is_none() {
                        return Err(RecoveryError::WalGap {
                            checkpoint_lsn: ckpt_lsn,
                            required_lsn: f.lsn - 1,
                        });
                    }
                    plan.tear.get_or_insert(Tear {
                        sealed: in_sealed,
                        offset: f.offset,
                        reason: format!(
                            "{file}: frame lsn {} does not continue lsn {}",
                            f.lsn, plan.reach
                        ),
                    });
                    return Ok(plan);
                }
                plan.tear = None;
                plan.frames.push(f);
                plan.reach = f.lsn;
            }
            if let Some(c) = &scan.corruption {
                plan.tear.get_or_insert(Tear {
                    sealed: in_sealed,
                    offset: scan.valid_len,
                    reason: if in_sealed {
                        format!("{file}: {c}")
                    } else {
                        c.to_string()
                    },
                });
                if !in_sealed {
                    return Ok(plan);
                }
            }
        }
        Ok(plan)
    }
}

fn no_durability() -> DurableError {
    DurableError::Io {
        op: "checkpoint".to_owned(),
        path: String::new(),
        detail: "engine has no durability attached (call make_durable first)".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::schema::beer_schema;

    /// A checkpoint that comes due while one is running is deferred, never
    /// begun beside it, and the commit path does not wait for the running
    /// one; waiting reaps it and then runs the deferred one.
    #[test]
    fn at_most_one_checkpoint_is_in_flight() {
        let dir = std::env::temp_dir().join(format!("txmod-in-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Engine::new(beer_schema());
        e.config_mut().durability = DurabilityConfig {
            level: Durability::Buffered,
            group_commit: 1,
            checkpoint_every: 1,
        };
        e.make_durable(&dir).unwrap();
        // A checkpoint whose thread runs until told to finish.
        let (finish, finished) = std::sync::mpsc::channel::<()>();
        e.durable_mut().as_mut().unwrap().in_flight = Some(InFlight {
            lsn: 0,
            frames: 0,
            handle: std::thread::spawn(move || {
                finished.recv().unwrap();
                (Ok(()), Vec::new())
            }),
        });
        for i in 0..5 {
            let row = Tuple::of((format!("b{i}"), "town", "nl"));
            e.load("brewery", vec![row]).unwrap();
        }
        let state = e.durable().as_ref().unwrap();
        assert_eq!(state.in_flight.as_ref().map(|f| f.lsn), Some(0));
        assert_eq!(state.frames_since_checkpoint, 5);
        finish.send(()).unwrap();
        e.wait_for_checkpoint();
        let state = e.durable().as_ref().unwrap();
        assert!(state.in_flight.is_none());
        assert_eq!(state.checkpoint_lsn, 5);
        assert_eq!(state.frames_since_checkpoint, 0);
        assert!(e.take_checkpoint_error().is_none());
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints written by older engines keep recovering: mode tag 1
    /// decodes as `Static`, every other known tag round-trips, and an
    /// unknown tag is still an error.
    #[test]
    fn config_blob_mode_tags_decode() {
        let config = EngineConfig {
            mode: EnforcementMode::Off,
            allow_cycles: true,
            max_rounds: 7,
            specialize: false,
            durability: DurabilityConfig {
                level: Durability::Fsync,
                group_commit: 3,
                checkpoint_every: 9,
            },
        };
        let with_tag = |tag: u8| {
            let mut blob = encode_config(&config);
            blob[0] = tag;
            decode_config(&blob)
        };
        let old = with_tag(1).unwrap();
        assert_eq!(old.mode, EnforcementMode::Static);
        assert_eq!(old.durability, config.durability);
        for (mode, tag) in [
            (EnforcementMode::Off, 0),
            (EnforcementMode::Static, 2),
            (EnforcementMode::Differential, 3),
        ] {
            let config = EngineConfig {
                mode,
                ..config.clone()
            };
            let blob = encode_config(&config);
            assert_eq!(blob[0], tag, "{mode:?}");
            assert_eq!(decode_config(&blob).unwrap(), config);
        }
        let err = with_tag(4).unwrap_err();
        assert!(err.contains("unknown enforcement mode tag 4"), "{err}");
    }
}

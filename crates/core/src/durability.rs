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
//! in neither.
//!
//! ## Recovery contract
//!
//! [`Engine::recover`] loads the newest valid checkpoint (falling back to
//! an older one if the newest is damaged — but only when the WAL bridges
//! it past every rejected one), replays the WAL's valid frame prefix
//! beyond the checkpoint LSN, truncates any torn tail at the frame
//! boundary, and reports the LSN range it recovered through.

use std::path::{Path, PathBuf};

use tm_durable::checkpoint::{fsync_dir, list_checkpoints, retire_checkpoints};
use tm_durable::wal::scan_wal;
use tm_durable::{
    Checkpoint, Durability, DurabilityConfig, DurableError, Failpoints, Wal, WalRecord,
};
use tm_relational::codec::ByteReader;
use tm_relational::RelationDelta;
use tm_rules::parse_rule;

use crate::engine::{EnforcementMode, Engine, EngineConfig};
use crate::error::EngineError;
use crate::views::ViewDef;

/// The WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Durability state attached to a live engine.
#[derive(Debug)]
pub(crate) struct DurableState {
    /// The durability directory (WAL + checkpoints).
    pub dir: PathBuf,
    /// The open log.
    pub wal: Wal,
    /// LSN covered by the latest checkpoint.
    pub checkpoint_lsn: u64,
    /// Frames appended since that checkpoint (drives
    /// [`DurabilityConfig::checkpoint_every`]).
    pub frames_since_checkpoint: u64,
    /// A deferred automatic-checkpoint failure (see
    /// [`Engine::take_checkpoint_error`]): the commit that triggered the
    /// checkpoint was already durable, so its success could not be
    /// retracted — the error is held here instead.
    pub checkpoint_error: Option<EngineError>,
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
        EnforcementMode::Dynamic => 1,
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
        1 => EnforcementMode::Dynamic,
        2 => EnforcementMode::Static,
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
        std::fs::create_dir_all(dir)
            .map_err(|e| EngineError::Durability(DurableError::io("mkdir", dir, e)))?;
        // Replace any previous incarnation wholesale — and remove its WAL
        // *before* the fresh checkpoint-0 exists. The other order has a
        // crash window that leaves checkpoint-0 next to the stale log,
        // whose frames (all lsn > 0) recovery would silently replay on
        // top of the new snapshot; this order's windows leave either the
        // old state or an explicit `NoCheckpoint`. Old checkpoints are
        // retired to the spare, which checkpoint-0 then overwrites.
        retire_checkpoints(dir, None).map_err(EngineError::Durability)?;
        let wal_path = dir.join(WAL_FILE);
        match std::fs::remove_file(&wal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(EngineError::Durability(DurableError::io(
                    "unlink", &wal_path, e,
                )))
            }
        }
        fsync_dir(dir).map_err(EngineError::Durability)?;
        let ckpt = self.snapshot(0);
        ckpt.write_atomic(dir).map_err(EngineError::Durability)?;
        let wal = Wal::create(&wal_path, 1, points).map_err(EngineError::Durability)?;
        self.set_durable(Some(Box::new(DurableState {
            dir: dir.to_owned(),
            wal,
            checkpoint_lsn: 0,
            frames_since_checkpoint: 0,
            checkpoint_error: None,
        })));
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

    /// Append one record and flush per the configured durability level.
    /// Returns the assigned LSN.
    pub(crate) fn wal_append(&mut self, record: &WalRecord) -> crate::error::Result<u64> {
        let (level, group) = {
            let c = &self.config().durability;
            (c.level, c.group_commit)
        };
        let state = self
            .durable_mut()
            .as_mut()
            .expect("wal_append requires attached durability");
        // Remember where the log stood: a frame whose durability cannot be
        // established (failed write or fsync) must not stay in the file, or
        // recovery would replay an operation the engine reported as failed.
        let (prev_len, prev_lsn) = (state.wal.len(), state.wal.next_lsn());
        // Buffered commits stay in userspace (no syscall on the hot path);
        // Fsync writes through per commit and fsyncs per group.
        let appended = if level == Durability::Buffered {
            state.wal.append_buffered(record)
        } else {
            state.wal.append(record)
        }
        .and_then(|lsn| {
            if level == Durability::Fsync {
                state.wal.sync_every(group)?;
            }
            Ok(lsn)
        });
        let lsn = match appended {
            Ok(lsn) => lsn,
            Err(e) => {
                let _ = state.wal.rollback_to(prev_len, prev_lsn);
                return Err(EngineError::Durability(e));
            }
        };
        state.frames_since_checkpoint += 1;
        let due = {
            let every = self.config().durability.checkpoint_every;
            every > 0
                && self
                    .durable()
                    .as_ref()
                    .is_some_and(|d| d.frames_since_checkpoint >= every)
        };
        if due {
            // The frame is already durably appended: the commit riding on
            // it has succeeded and its success must not be retracted by a
            // failing *checkpoint* — recovery would replay the frame, and
            // reporting failure here would resurrect a "failed" commit on
            // a client retry. Defer the error instead; the frame counter
            // stays up, so the next append retries the checkpoint, and
            // [`Engine::take_checkpoint_error`] surfaces what happened.
            if let Err(e) = self.checkpoint() {
                self.durable_mut()
                    .as_mut()
                    .expect("durability checked above")
                    .checkpoint_error = Some(e);
            }
        }
        Ok(lsn)
    }

    /// Take (and clear) the most recent *automatic* checkpoint failure.
    ///
    /// An auto-checkpoint rides on a commit whose WAL frame is already
    /// durable, so its failure cannot fail the commit — the commit is
    /// reported successful and the checkpoint error is parked here. The
    /// log simply keeps growing until a later automatic (retried on every
    /// subsequent append) or explicit [`Engine::checkpoint`] succeeds;
    /// durability is not weakened, only log truncation is delayed.
    pub fn take_checkpoint_error(&mut self) -> Option<EngineError> {
        self.durable_mut()
            .as_mut()
            .and_then(|d| d.checkpoint_error.take())
    }

    /// Log a committed transaction's differentials; on failure, undo the
    /// in-memory commit so memory and disk stay in agreement, and surface
    /// the durability error.
    pub(crate) fn log_commit(&mut self, deltas: Vec<RelationDelta>) -> crate::error::Result<()> {
        if deltas.is_empty() {
            return Ok(());
        }
        let record = WalRecord::Commit { deltas };
        if let Err(e) = self.wal_append(&record) {
            let WalRecord::Commit { deltas } = record else {
                unreachable!("record built as Commit two lines up")
            };
            for d in &deltas {
                // Best-effort rollback of an already-applied commit; the
                // deltas came out of this very commit, so unapplying them
                // cannot fail on a consistent database.
                let _ = d.unapply(self.database_mut());
            }
            return Err(e);
        }
        Ok(())
    }

    /// Take a checkpoint now: snapshot the full engine state, write it
    /// atomically over the spare, retire older checkpoints to the spare,
    /// then truncate the WAL. Returns the LSN the checkpoint covers.
    /// Requires attached durability.
    pub fn checkpoint(&mut self) -> crate::error::Result<u64> {
        let lsn = {
            let state = self
                .durable()
                .as_ref()
                .ok_or_else(|| EngineError::Durability(no_durability()))?;
            state.wal.last_lsn().unwrap_or(state.checkpoint_lsn)
        };
        let ckpt = self.snapshot(lsn);
        let dir = self.durable().as_ref().unwrap().dir.clone();
        ckpt.write_atomic(&dir).map_err(EngineError::Durability)?;
        // Only after the snapshot is durable, and every older checkpoint
        // durably retired, may the log shrink: an older checkpoint beside
        // an emptied log is a fallback missing every frame since it.
        retire_checkpoints(&dir, Some(lsn)).map_err(EngineError::Durability)?;
        let state = self.durable_mut().as_mut().unwrap();
        state.wal.reset().map_err(EngineError::Durability)?;
        state.checkpoint_lsn = lsn;
        state.frames_since_checkpoint = 0;
        Ok(lsn)
    }

    /// Build a [`Checkpoint`] of the current engine state covering `lsn`.
    fn snapshot(&self, lsn: u64) -> Checkpoint {
        let db = self.database();
        Checkpoint {
            lsn,
            logical_time: db.logical_time(),
            config: encode_config(self.config()),
            schema: (**self.catalog().schema()).clone(),
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
            relations: db
                .iter()
                .map(|(name, rel)| (name.to_owned(), rel.sorted_tuples()))
                .collect(),
        }
    }

    /// Recover an engine from a durability directory: load the newest
    /// valid checkpoint, replay the WAL's valid prefix beyond it, truncate
    /// any torn tail at the frame boundary, and reopen the log for
    /// appending. The recovered engine's configuration (enforcement mode,
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

        // 2. The log must continue the checkpoint without a gap, and reach
        //    whatever a rejected newer checkpoint proves committed.
        let wal_path = dir.join(WAL_FILE);
        let scan = scan_wal(&wal_path)?;
        let gap = |required_lsn| RecoveryError::WalGap {
            checkpoint_lsn: ckpt.lsn,
            required_lsn,
        };
        let mut past = scan.frames.iter().filter(|f| f.lsn > ckpt.lsn).peekable();
        if let Some(first) = past.peek().filter(|f| f.lsn != ckpt.lsn + 1) {
            return Err(gap(first.lsn - 1));
        }
        let reach = past.last().map_or(ckpt.lsn, |f| f.lsn);
        if let Some(lsn) = newest_rejected.filter(|&lsn| lsn > reach) {
            return Err(gap(lsn));
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

        // 4. Replay the log's valid prefix past the checkpoint.
        let mut frames_replayed = 0u64;
        let mut recovered_lsn = ckpt.lsn;
        for frame in &scan.frames {
            if frame.lsn <= ckpt.lsn {
                continue; // already inside the checkpoint
            }
            engine
                .replay(&frame.record)
                .map_err(|e| RecoveryError::Replay {
                    lsn: frame.lsn,
                    detail: e.to_string(),
                })?;
            frames_replayed += 1;
            recovered_lsn = frame.lsn;
        }

        // 5. Truncate the torn tail (frame boundary, never mid-log) and
        //    reopen for appending.
        let next_lsn = scan.last_lsn().map(|l| l + 1).unwrap_or(ckpt.lsn + 1);
        let wal = if wal_path.exists() {
            Wal::open_append(&wal_path, scan.valid_len, next_lsn, points)?
        } else {
            Wal::create(&wal_path, next_lsn, points)?
        };
        engine.set_durable(Some(Box::new(DurableState {
            dir: dir.to_owned(),
            wal,
            checkpoint_lsn: ckpt.lsn,
            frames_since_checkpoint: frames_replayed,
            checkpoint_error: None,
        })));
        Ok(Recovered {
            engine,
            report: RecoveryReport {
                checkpoint_lsn: ckpt.lsn,
                recovered_lsn,
                frames_replayed,
                truncated_tail: scan.corruption.map(|c| (scan.valid_len, c.to_string())),
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

fn no_durability() -> DurableError {
    DurableError::Io {
        op: "checkpoint".to_owned(),
        path: String::new(),
        detail: "engine has no durability attached (call make_durable first)".to_owned(),
    }
}

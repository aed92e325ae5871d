//! Multi-version concurrency: snapshot sessions, a serializing commit
//! applier, and first-committer-wins validation on the differentials.
//!
//! The sequential [`Engine`] already has the two ingredients this module
//! composes into a concurrent engine:
//!
//! * **O(#relations) snapshots** — [`Database`] tuple storage is
//!   copy-on-write, so cloning the state is a handful of reference-count
//!   bumps and never copies a tuple;
//! * **net differentials** — every committed execution's effect is its
//!   `R@ins`/`R@del` pair per relation ([`RelationDelta`]), the same
//!   records the durability layer logs.
//!
//! A [`ConcurrentSession`] therefore runs each prepared execution against
//! its own snapshot, entirely outside the engine lock: rule checks — the
//! expensive part of an integrity-enforcing transaction — proceed on as
//! many cores as there are sessions.
//!
//! The snapshot is not re-cloned per execution. A COW clone is cheap to
//! *take*, but the first write to each shared relation pays a full
//! tuple-set copy (the unshare) — per-transaction cloning makes every
//! write O(relation), quadratic over a growing workload. Instead each
//! session keeps one **long-lived private copy** and *rolls it forward*:
//! before an execution, the committed differentials between the copy's
//! epoch and the current one (retained in the epoch log precisely for
//! this) are replayed onto it — O(Δ) per concurrent commit, never a
//! relation copy. The execution then runs on the copy, and its own net
//! deltas are unapplied afterwards, returning the copy to the clean
//! snapshot state (a surviving commit re-enters through the epoch log on
//! the next roll-forward). In the steady state this refresh touches only
//! the epoch log's own mutex — not the engine — so sessions draining
//! commits and sessions starting executions never queue behind each
//! other. A session falls back to a fresh COW clone (under the engine
//! lock) only when it has no copy yet, fell behind the bounded retention
//! window ([`ConcurrentEngine::ROLLFORWARD_RETENTION`]), or an
//! administrator mutated data out-of-band through
//! [`ConcurrentEngine::lock`] (detected via the database's logical clock,
//! which every engine-level data write advances; the administrative
//! guard's release invalidates the copies, and the applier additionally
//! fences any commit whose snapshot predates the write).
//!
//! Only the *commit* serializes, through a flat-combining applier:
//!
//! 1. the execution publishes a [`TxFootprint`] (relations its checks
//!    read, tuples it declared or actually wrote) plus its captured
//!    deltas to a commit queue;
//! 2. whichever committer holds the engine mutex drains the whole queue —
//!    under contention one lock acquisition lands many commits, which is
//!    the group-commit batch: WAL appends coalesce inside a single
//!    critical section and fsyncs amortize per the durability
//!    configuration's `group_commit`;
//! 3. each drained request is validated **first-committer-wins** against
//!    every [`CommittedDelta`] that landed after the request's snapshot
//!    epoch: a tuple-level overlap with the request's writes, or any
//!    write to a relation the request's checks read, fails the request
//!    with the typed, retryable [`EngineError::Conflict`] — the
//!    authoritative state is untouched and the session simply re-executes
//!    on a fresh snapshot.
//!
//! The read half of the footprint is deliberately relation-level: an
//! integrity check's verdict depends on the whole state of the relations
//! it probes, so revalidating reads is what keeps concurrent histories
//! serializable **including write skew through a constraint** (two
//! transactions each preserving an invariant against the other's
//! pre-image). It is also why *aborted* executions pass through the
//! applier: an abort verdict is a function of the snapshot's reads, and it
//! stands only if those reads were not invalidated.
//!
//! Epochs are commit sequence numbers. A freshly recovered engine seeds
//! the counter from the WAL's next LSN ([`Engine::wal_next_lsn`]), so
//! post-recovery sessions can never observe an epoch an earlier
//! incarnation of the database already used.
//!
//! Catalog DDL is fenced rather than versioned: the applier also rejects
//! any request whose *plan* epoch predates the current catalog, because
//! its checks enforced rules that no longer govern — the retry
//! re-prepares (the ordinary staleness path) and re-executes under the
//! new rule set.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tm_algebra::{Transaction, TxOutcome};
use tm_relational::{CommittedDelta, Database, RelationDelta, TxFootprint, Value};

use crate::engine::{run_plan, Engine, EngineOutcome};
use crate::error::{EngineError, Result};
use crate::prepared::{Prepared, StatementId, Statements};

/// A thread-safe handle over one [`Engine`]: hands out concurrent
/// snapshot sessions ([`ConcurrentEngine::session`]) whose prepared
/// executions run in parallel and serialize only at commit. Cloning the
/// handle is cheap (an `Arc` bump); all clones drive the same engine.
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// The authoritative engine: database, catalog, durability. Held only
    /// to take a snapshot or to drain the commit queue.
    engine: Mutex<Engine>,
    /// Commit requests awaiting the applier. Committers push, then race
    /// for the engine mutex; the winner drains everything (flat
    /// combining), so a slot is guaranteed processed by the time its
    /// owner holds — or has held — the engine lock.
    queue: Mutex<VecDeque<Arc<CommitSlot>>>,
    /// The epoch bookkeeping: recently committed differentials (for
    /// first-committer-wins validation) and the snapshot epochs still in
    /// use (for pruning).
    epochs: Mutex<EpochState>,
    /// The last committed epoch. Incremented only by the applier, under
    /// the engine mutex. Snapshot paths read [`EpochState::newest`]
    /// instead — it moves atomically with the epoch-log push — so this
    /// counter serves reporting ([`ConcurrentEngine::committed_epoch`])
    /// and the applier's own epoch assignment.
    commit_epoch: AtomicU64,
    /// The authoritative database's logical clock as last observed by
    /// this layer (at construction, after every applier publish, when an
    /// administrator's [`EngineGuard`] drops, and at every slow-path
    /// snapshot refresh). A live value that differs means data was
    /// mutated out-of-band, bypassing the epoch log — every cached
    /// session copy is invalid. Only read and written under the engine
    /// mutex.
    auth_time: AtomicU64,
    /// Mirror of [`Engine::plan_epoch`], re-stamped whenever an
    /// administrator's [`EngineGuard`] drops — the only path that moves
    /// the catalog. Lets the fast snapshot path test plan staleness
    /// without the engine mutex; a stale read is harmless because the
    /// applier's catalog fence revalidates under the engine mutex.
    plan_epoch: AtomicU64,
    /// Mirror of [`Engine::check_timing`], maintained like `plan_epoch`.
    check_timing: std::sync::atomic::AtomicBool,
}

#[derive(Debug, Default)]
struct EpochState {
    /// Committed differentials, ascending by epoch. A request with
    /// snapshot epoch `e` validates against the suffix with epoch `> e`;
    /// a session copy at epoch `e` rolls forward by replaying the same
    /// suffix.
    committed: VecDeque<CommittedDelta>,
    /// Snapshot epoch → number of executions currently running against
    /// it. Differentials at or below the minimum active epoch are never
    /// consulted for validation again; they are retained only as the
    /// bounded roll-forward window and pruned past it.
    active: BTreeMap<u64, usize>,
    /// Highest epoch evicted from `committed`: a session copy at or below
    /// it has lost part of its gap and must re-clone instead of rolling
    /// forward.
    pruned_floor: u64,
    /// Epoch of the newest differential actually *in* the log. Unlike
    /// `Shared::commit_epoch` — which the applier bumps momentarily
    /// before pushing — this moves atomically with the push, under this
    /// mutex, so the lock-free snapshot path can roll a copy forward to
    /// exactly this epoch without ever seeing a gap.
    newest: u64,
    /// Bumped (under this mutex) whenever an out-of-band mutation is
    /// detected; session copies record the generation they were cloned
    /// under and re-clone when it has moved. Commit requests carry it
    /// too: the applier refuses a request whose generation predates an
    /// out-of-band write, because the epoch log cannot revalidate the
    /// request against state it never saw.
    generation: u64,
}

/// One commit request parked in the applier queue.
#[derive(Debug)]
struct CommitSlot {
    request: Mutex<Option<CommitRequest>>,
    result: Mutex<Option<Result<u64>>>,
}

#[derive(Debug)]
struct CommitRequest {
    /// The commit epoch of the state the execution ran against.
    snapshot_epoch: u64,
    /// The catalog's plan epoch at snapshot time. The applier refuses the
    /// request (retryable conflict) if the catalog moved while the
    /// execution was in flight: its checks enforced the old rules.
    plan_epoch: u64,
    /// Whether the execution committed on its snapshot (aborted
    /// executions still validate: the abort verdict depends on reads).
    committed: bool,
    /// The cache generation the snapshot was taken under. The applier
    /// refuses the request (retryable conflict, relation
    /// `"<out-of-band>"`) if an out-of-band mutation bumped the
    /// generation while the execution was in flight: its snapshot may
    /// predate state the epoch log cannot validate against.
    generation: u64,
    /// Net differentials captured on the snapshot — what publishing the
    /// commit applies to the authoritative state and logs to the WAL.
    deltas: Vec<RelationDelta>,
    /// What the execution read and wrote, for conflict validation.
    footprint: TxFootprint,
}

impl ConcurrentEngine {
    /// How many committed differentials the epoch log retains *beyond*
    /// what active snapshots still validate against, so that session
    /// copies can roll forward instead of re-cloning. A session more than
    /// this many commits behind (it was idle while others committed)
    /// re-clones once — O(#relations) plus deferred COW unshares — and
    /// is back on the O(Δ) path.
    pub const ROLLFORWARD_RETENTION: usize = 256;

    /// Wrap an engine for concurrent use. The commit-epoch counter seeds
    /// from the WAL's next LSN when durability is attached — after
    /// [`Engine::recover`], epochs resume strictly past every replayed
    /// record instead of restarting at zero.
    pub fn new(engine: Engine) -> ConcurrentEngine {
        let seed = engine.wal_next_lsn().unwrap_or(0);
        let auth_time = engine.database().logical_time();
        let plan_epoch = engine.plan_epoch();
        let check_timing = engine.check_timing();
        ConcurrentEngine {
            shared: Arc::new(Shared {
                engine: Mutex::new(engine),
                queue: Mutex::new(VecDeque::new()),
                epochs: Mutex::new(EpochState {
                    pruned_floor: seed,
                    newest: seed,
                    ..EpochState::default()
                }),
                commit_epoch: AtomicU64::new(seed),
                auth_time: AtomicU64::new(auth_time),
                plan_epoch: AtomicU64::new(plan_epoch),
                check_timing: std::sync::atomic::AtomicBool::new(check_timing),
            }),
        }
    }

    /// Open a snapshot session. Sessions are independent `Send` values —
    /// move each to its own thread; their executions share nothing until
    /// commit.
    pub fn session(&self) -> ConcurrentSession {
        ConcurrentSession {
            shared: self.shared.clone(),
            statements: Statements::default(),
            last_commit: None,
            cache: None,
        }
    }

    /// Exclusive access to the underlying engine, for administration:
    /// defining rules and constraints, loading data, checkpointing.
    /// Holding the guard stalls the commit applier and first-execution
    /// snapshot clones; sessions with a warm private copy keep executing
    /// (their commits queue behind the guard and are fenced if it
    /// mutated anything).
    ///
    /// Catalog changes made through the guard bump the engine's plan
    /// epoch, which fails every in-flight snapshot execution with a
    /// retryable [`EngineError::Conflict`] at commit — a transaction
    /// checked under the old catalog can never publish into the new one.
    /// Data writes (e.g. [`Engine::load`]) advance the database's
    /// logical clock; the guard notices on release and invalidates every
    /// session's cached copy, and the applier refuses any commit whose
    /// snapshot predates the write.
    pub fn lock(&self) -> EngineGuard<'_> {
        EngineGuard {
            guard: self.shared.engine.lock().expect("engine mutex poisoned"),
            shared: &self.shared,
        }
    }

    /// [`ConcurrentEngine::lock`] without blocking: `None` when the
    /// engine is busy (snapshot-taking, commit-draining, or another
    /// administrator). For opportunistic polls — health checks that
    /// should skip a busy engine rather than queue behind it.
    pub fn try_lock(&self) -> Option<EngineGuard<'_>> {
        self.shared.engine.try_lock().ok().map(|guard| EngineGuard {
            guard,
            shared: &self.shared,
        })
    }

    /// The epoch of the most recent commit (the seed value while nothing
    /// has committed).
    pub fn committed_epoch(&self) -> u64 {
        self.shared.commit_epoch.load(Ordering::SeqCst)
    }

    /// How many committed differential records the epoch log currently
    /// retains: everything some active snapshot still validates against,
    /// plus at most [`ConcurrentEngine::ROLLFORWARD_RETENTION`] records
    /// kept for session-copy roll-forward.
    pub fn retained_deltas(&self) -> usize {
        self.shared
            .epochs
            .lock()
            .expect("epoch mutex poisoned")
            .committed
            .len()
    }

    /// A consistent read snapshot of the current committed state.
    pub fn snapshot(&self) -> Database {
        self.lock().database().clone()
    }

    /// Unwrap the handle back into the engine, when this is the last
    /// clone; returns the handle otherwise.
    pub fn try_into_engine(self) -> std::result::Result<Engine, ConcurrentEngine> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.engine.into_inner().expect("engine mutex poisoned")),
            Err(shared) => Err(ConcurrentEngine { shared }),
        }
    }
}

/// Exclusive administrative access to the engine behind a
/// [`ConcurrentEngine`], from [`ConcurrentEngine::lock`]. Dereferences to
/// [`Engine`]. On release the guard reconciles the concurrent layer with
/// whatever administration just happened: if the database's logical clock
/// moved (data was written outside the epoch log), every session's cached
/// snapshot copy is invalidated and in-flight commits are fenced; the
/// catalog's plan epoch and the check-timing flag are re-mirrored for the
/// lock-free snapshot path.
#[derive(Debug)]
pub struct EngineGuard<'a> {
    guard: MutexGuard<'a, Engine>,
    shared: &'a Shared,
}

impl std::ops::Deref for EngineGuard<'_> {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.guard
    }
}

impl std::ops::DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.guard
    }
}

impl Drop for EngineGuard<'_> {
    // Runs while the engine mutex is still held (the `guard` field drops
    // after this body), so the generation bump is visible to the applier
    // and to slow-path snapshots before any of them can run.
    fn drop(&mut self) {
        let now = self.guard.database().logical_time();
        if self.shared.auth_time.swap(now, Ordering::SeqCst) != now {
            let mut epochs = self.shared.epochs.lock().expect("epoch mutex poisoned");
            epochs.generation += 1;
        }
        self.shared
            .plan_epoch
            .store(self.guard.plan_epoch(), Ordering::SeqCst);
        self.shared
            .check_timing
            .store(self.guard.check_timing(), Ordering::SeqCst);
    }
}

/// A session over a [`ConcurrentEngine`]: owns prepared statements and
/// executes them against its private snapshot copy (rolled forward
/// between transactions by replaying committed differentials), committing
/// through the shared applier. Each
/// [`ConcurrentSession::execute_prepared`] call is one transaction:
/// roll forward, run, validate, publish.
#[derive(Debug)]
pub struct ConcurrentSession {
    shared: Arc<Shared>,
    statements: Statements,
    /// Epoch of this session's most recent successful commit (the global
    /// serialization position of that transaction).
    last_commit: Option<u64>,
    /// The session's long-lived private database copy (see
    /// [`SnapshotCache`]); `None` until the first execution, or after the
    /// copy was invalidated.
    cache: Option<SnapshotCache>,
}

/// A session's private copy of the database: cloned from the
/// authoritative state once, then kept current by replaying committed
/// differentials — O(Δ) per concurrent commit — instead of re-cloning,
/// which would re-share every relation and re-pay a full tuple-set copy
/// (the COW unshare) on the next write to each.
#[derive(Debug)]
struct SnapshotCache {
    db: Database,
    /// The commit epoch whose state the copy currently equals.
    epoch: u64,
    /// The [`EpochState::generation`] the copy was cloned under; a moved
    /// generation means out-of-band administration invalidated it.
    generation: u64,
}

impl SnapshotCache {
    /// Bring the copy up to the newest logged epoch by replaying the
    /// committed differentials it is missing — O(Δ). `None` when the copy
    /// cannot get there and the caller must re-clone: out-of-band
    /// administration invalidated it (the generation moved), it fell
    /// behind the retention window, or a replay failed and left it torn.
    fn rolled_forward(mut self, epochs: &EpochState) -> Option<SnapshotCache> {
        if self.generation != epochs.generation || self.epoch < epochs.pruned_floor {
            return None;
        }
        let start = epochs
            .committed
            .partition_point(|cd| cd.epoch <= self.epoch);
        epochs
            .committed
            .range(start..)
            .try_for_each(|cd| cd.replay(&mut self.db))
            .ok()?;
        self.epoch = epochs.newest;
        Some(self)
    }
}

impl ConcurrentSession {
    /// Prepare a transaction template (one `ModT` run under the engine
    /// lock) and retain it in this session.
    pub fn prepare(&mut self, tx: &Transaction) -> Result<StatementId> {
        let prepared = self
            .shared
            .engine
            .lock()
            .expect("engine mutex poisoned")
            .prepare(tx)?;
        Ok(self.statements.push(prepared))
    }

    /// Adopt an externally prepared statement into this session — the
    /// share path for callers (like a server) that keep one canonical
    /// statement list and hand each session its own copy. The adopted
    /// plan re-modifies lazily if the catalog has moved since it was
    /// prepared, exactly like a statement prepared here.
    pub fn adopt(&mut self, prepared: Prepared) -> StatementId {
        self.statements.push(prepared)
    }

    /// Look up a prepared statement.
    pub fn prepared(&self, id: StatementId) -> Result<&Prepared> {
        self.statements.get(id)
    }

    /// A consistent read snapshot of the current committed state.
    pub fn snapshot(&self) -> Database {
        self.shared
            .engine
            .lock()
            .expect("engine mutex poisoned")
            .database()
            .clone()
    }

    /// Execute a prepared statement as one snapshot transaction.
    ///
    /// In the steady state the engine lock is taken once, briefly — by
    /// whichever committer drains the commit queue, possibly on this
    /// session's behalf. The snapshot refresh (an O(Δ) differential
    /// roll-forward of the session's private copy) needs only the epoch
    /// log; the engine lock joins in only for a first execution, a stale
    /// plan, or an invalidated copy, where a fresh O(#relations) COW
    /// clone or a re-prepare is required. The execution itself, including
    /// every integrity check, runs lock-free on the snapshot.
    ///
    /// Returns [`EngineError::Conflict`] (retryable,
    /// [`EngineError::is_retryable`]) when a transaction that committed
    /// after this execution's snapshot invalidates it; the authoritative
    /// state is untouched. A transaction that *aborts* on its snapshot
    /// (constraint violation) returns `Ok` with the aborted outcome once
    /// the applier confirms the verdict's reads were not invalidated.
    pub fn execute_prepared(&mut self, id: StatementId, params: &[Value]) -> Result<EngineOutcome> {
        let pending = self.execute_deferred(id, params)?;
        let (out, epoch) = pending.commit()?;
        self.last_commit = Some(epoch);
        Ok(out)
    }

    /// The snapshot-execution half of [`ConcurrentSession::execute_prepared`]
    /// without the commit: runs the statement on a fresh snapshot and
    /// returns a [`PendingCommit`] holding the tentative verdict, the
    /// captured differentials, and the conflict footprint. Call
    /// [`PendingCommit::commit`] to submit it to the applier; dropping it
    /// discards the execution (the snapshot epoch is released, nothing is
    /// published). Two deferred executions taken before either commits
    /// genuinely race — the deterministic way to exercise (and test)
    /// first-committer-wins.
    pub fn execute_deferred(&mut self, id: StatementId, params: &[Value]) -> Result<PendingCommit> {
        let slot = self.statements.get_mut(id)?;

        // Snapshot. Fast path (the steady state): the session already has
        // a private copy and the plan is current, so the copy rolls
        // forward to the newest logged epoch under the *epochs* mutex
        // alone — commits draining under the engine mutex proceed
        // untouched, and the per-transaction engine-lock traffic drops to
        // the single acquisition the commit itself needs. Snapshotting
        // from the log rather than the live database is sound because the
        // log's `newest` epoch moves atomically with the push, and any
        // write that bypasses the log (out-of-band administration) bumps
        // the generation — checked here against the copy and again by the
        // applier against the commit request.
        let mut reused = true;
        let fast = {
            let mut epochs = self.shared.epochs.lock().expect("epoch mutex poisoned");
            if slot.epoch() == self.shared.plan_epoch.load(Ordering::SeqCst) {
                // A copy that cannot roll forward stays dropped and the
                // slow path re-clones.
                let cache = self.cache.take().and_then(|c| c.rolled_forward(&epochs));
                if let Some(c) = &cache {
                    *epochs.active.entry(c.epoch).or_insert(0) += 1;
                }
                cache
            } else {
                None
            }
        };
        // Slow path: first execution, stale plan, or an invalidated or
        // left-behind copy. Under the engine mutex, re-prepare if needed
        // and bring the copy current (O(Δ) roll-forward when possible, a
        // fresh COW clone otherwise).
        let mut cache = match fast {
            Some(cache) => cache,
            None => {
                let engine = self.shared.engine.lock().expect("engine mutex poisoned");
                if let Some(fresh) = slot.refreshed(&engine)? {
                    *slot = fresh;
                    reused = false;
                }
                let mut epochs = self.shared.epochs.lock().expect("epoch mutex poisoned");
                // Out-of-band writes (administration through `lock()`)
                // bypass the epoch log; the logical clock betrays them.
                // Bumping the generation sends every session copy back to
                // a fresh clone. (The administrator's guard already did
                // this on release; this catches writes made before the
                // layer was constructed around an existing clock value.)
                let auth_now = engine.database().logical_time();
                if self.shared.auth_time.swap(auth_now, Ordering::SeqCst) != auth_now {
                    epochs.generation += 1;
                }
                let cache = self
                    .cache
                    .take()
                    .and_then(|c| c.rolled_forward(&epochs))
                    .unwrap_or_else(|| SnapshotCache {
                        db: engine.database().clone(),
                        epoch: epochs.newest,
                        generation: epochs.generation,
                    });
                *epochs.active.entry(cache.epoch).or_insert(0) += 1;
                cache
            }
        };
        let guard = EpochGuard {
            shared: self.shared.clone(),
            epoch: cache.epoch,
        };
        if let Err(e) = slot.check_binding(params) {
            self.cache = Some(cache);
            return Err(e);
        }

        // Run on the snapshot — no lock held, checks scale with cores.
        let mut deltas = Vec::new();
        let (outcome, check_times_ns) = run_plan(
            &mut cache.db,
            slot,
            params,
            Some(&mut deltas),
            self.shared.check_timing.load(Ordering::SeqCst),
        );

        // Declare the footprint: relations the checks read, rows the
        // template declares (even when they netted to nothing), and the
        // tuples actually written.
        let mut footprint = TxFootprint::default();
        for rel in slot.plan().read_relations() {
            footprint.add_read(&rel);
        }
        if let Some(writes) = slot.plan().declared_writes(params) {
            for (rel, tuple) in writes {
                footprint.add_write(&rel, tuple);
            }
        }
        for d in &deltas {
            footprint.absorb_delta(d);
        }

        // Return the private copy to the clean snapshot state by undoing
        // this execution's own net effect (aborts already rolled back in
        // place and captured nothing). If the commit survives validation
        // it re-enters through the epoch log on the next roll-forward —
        // the copy never holds uncommitted state between transactions.
        let mut restored = true;
        for d in deltas.iter().rev() {
            if d.unapply(&mut cache.db).is_err() {
                restored = false;
                break;
            }
        }
        let request = CommitRequest {
            snapshot_epoch: cache.epoch,
            // Either snapshot path left the plan current as of the
            // snapshot: the fast one checked it, the slow one refreshed it.
            plan_epoch: slot.epoch(),
            committed: outcome.is_committed(),
            generation: cache.generation,
            deltas,
            footprint,
        };
        if restored {
            self.cache = Some(cache);
        }
        Ok(PendingCommit {
            guard,
            out: EngineOutcome::of(slot, reused, outcome, check_times_ns),
            request,
        })
    }

    /// Epoch of this session's most recent successful
    /// [`ConcurrentSession::execute_prepared`] — the transaction's
    /// position in the global commit order (for aborted or read-only
    /// executions, the epoch current at validation).
    pub fn last_commit_epoch(&self) -> Option<u64> {
        self.last_commit
    }

    /// [`ConcurrentSession::execute_prepared`] with automatic retry on
    /// serialization conflicts: re-executes on a fresh snapshot up to
    /// `max_retries` times. Returns the outcome together with the number
    /// of retries spent; the last conflict propagates when the budget is
    /// exhausted.
    pub fn execute_with_retry(
        &mut self,
        id: StatementId,
        params: &[Value],
        max_retries: usize,
    ) -> Result<(EngineOutcome, usize)> {
        let mut retries = 0;
        loop {
            match self.execute_prepared(id, params) {
                Err(e) if e.is_retryable() && retries < max_retries => retries += 1,
                other => return other.map(|o| (o, retries)),
            }
        }
    }
}

/// Holds a registered snapshot epoch and releases it exactly once, even
/// when the pending execution is dropped without committing.
#[derive(Debug)]
struct EpochGuard {
    shared: Arc<Shared>,
    epoch: u64,
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        release_epoch(&self.shared, self.epoch);
    }
}

/// A snapshot execution that has run but not yet committed — the output
/// of [`ConcurrentSession::execute_deferred`]. Inspect the tentative
/// verdict with [`PendingCommit::outcome`], then [`PendingCommit::commit`]
/// to submit it to the applier (first-committer-wins validation, then
/// publication). Dropping it instead discards the execution with no
/// effect on the shared state.
#[derive(Debug)]
pub struct PendingCommit {
    guard: EpochGuard,
    out: EngineOutcome,
    request: CommitRequest,
}

impl PendingCommit {
    /// The verdict the execution reached **on its snapshot**. A committed
    /// verdict is tentative until [`PendingCommit::commit`] survives
    /// validation; an aborted one is revalidated there too (the abort
    /// decision depends on what the checks read).
    pub fn outcome(&self) -> &TxOutcome {
        &self.out.outcome
    }

    /// Submit to the commit applier. On success returns the finished
    /// [`EngineOutcome`] and the epoch the transaction occupies in the
    /// global commit order (for aborted or read-only executions, the
    /// epoch current at validation). Fails with the retryable
    /// [`EngineError::Conflict`] when a transaction committed after this
    /// execution's snapshot invalidates it.
    pub fn commit(self) -> Result<(EngineOutcome, u64)> {
        let verdict = submit(&self.guard.shared, self.request);
        drop(self.guard); // releases the snapshot epoch
        Ok((self.out, verdict?))
    }
}

/// Deregister a snapshot epoch and prune differentials no active
/// snapshot can consult anymore.
fn release_epoch(shared: &Shared, epoch: u64) {
    let mut epochs = shared.epochs.lock().expect("epoch mutex poisoned");
    if let Some(n) = epochs.active.get_mut(&epoch) {
        *n -= 1;
        if *n == 0 {
            epochs.active.remove(&epoch);
        }
    }
    prune(&mut epochs);
}

/// Drop committed differentials at or below the oldest active snapshot
/// epoch — every future validation compares against epochs strictly above
/// some active (or yet-to-be-taken, hence even higher) snapshot — but
/// always retain the newest [`ConcurrentEngine::ROLLFORWARD_RETENTION`]
/// records so session copies can roll forward instead of re-cloning.
fn prune(epochs: &mut EpochState) {
    let floor = epochs.active.keys().next().copied().unwrap_or(u64::MAX);
    while epochs.committed.len() > ConcurrentEngine::ROLLFORWARD_RETENTION
        && epochs.committed.front().is_some_and(|c| c.epoch <= floor)
    {
        let evicted = epochs.committed.pop_front().expect("front exists");
        epochs.pruned_floor = evicted.epoch;
    }
}

/// Queue a commit request and make sure it gets processed: push the slot,
/// take the engine lock, drain everything queued (flat combining — under
/// contention, one acquisition lands many commits). By the time this
/// committer *holds* the lock its own slot has been processed, either by
/// an earlier leader or by its own drain.
fn submit(shared: &Shared, request: CommitRequest) -> Result<u64> {
    let slot = Arc::new(CommitSlot {
        request: Mutex::new(Some(request)),
        result: Mutex::new(None),
    });
    shared
        .queue
        .lock()
        .expect("queue mutex poisoned")
        .push_back(slot.clone());

    let mut engine = shared.engine.lock().expect("engine mutex poisoned");
    loop {
        let next = shared
            .queue
            .lock()
            .expect("queue mutex poisoned")
            .pop_front();
        let Some(s) = next else { break };
        let req = s
            .request
            .lock()
            .expect("slot mutex poisoned")
            .take()
            .expect("queued slot carries a request");
        let verdict = apply_one(&mut engine, shared, req);
        *s.result.lock().expect("slot mutex poisoned") = Some(verdict);
    }
    drop(engine);

    let verdict = slot
        .result
        .lock()
        .expect("slot mutex poisoned")
        .take()
        .expect("slot processed before engine lock release");
    verdict
}

/// Validate and (when it survives) publish one commit request. Runs under
/// the engine mutex.
fn apply_one(engine: &mut Engine, shared: &Shared, req: CommitRequest) -> Result<u64> {
    // The catalog fence: a DDL step (rule defined or removed, constraint
    // declared) between snapshot and commit means every check this
    // execution ran enforced the wrong rule set. The verdict — commit or
    // abort — is void; the retry re-prepares against the new catalog.
    if engine.plan_epoch() != req.plan_epoch {
        return Err(EngineError::Conflict {
            relation: "<catalog>".to_owned(),
            committed_epoch: shared.commit_epoch.load(Ordering::SeqCst),
            read: true,
        });
    }
    // First-committer-wins: any differential committed after this
    // request's snapshot that intersects its footprint wins; the request
    // fails with a retryable conflict and the state stays untouched.
    {
        let epochs = shared.epochs.lock().expect("epoch mutex poisoned");
        // The out-of-band fence: a moved generation means data was
        // written past the epoch log while this execution was in flight —
        // the log cannot prove the snapshot verdict still stands, so the
        // request retries on a fresh clone.
        if epochs.generation != req.generation {
            return Err(EngineError::Conflict {
                relation: "<out-of-band>".to_owned(),
                committed_epoch: epochs.newest,
                read: true,
            });
        }
        for cd in epochs.committed.iter().rev() {
            if cd.epoch <= req.snapshot_epoch {
                break; // ascending by epoch: the rest predate the snapshot
            }
            if let Some(c) = req.footprint.conflicts_with(cd) {
                return Err(EngineError::Conflict {
                    relation: c.relation,
                    committed_epoch: c.committed_epoch,
                    read: c.read,
                });
            }
        }
    }
    let current = shared.commit_epoch.load(Ordering::SeqCst);
    if !req.committed {
        // The abort verdict stands: its reads were just revalidated. No
        // state change, no epoch.
        return Ok(current);
    }
    if req.deltas.iter().all(RelationDelta::is_empty) {
        // Read-only (or fully netted-out) commit: nothing to publish.
        return Ok(current);
    }

    // Publish: replay the net differentials onto the authoritative state,
    // then log them. Failures unwind completely — either everything
    // (state, WAL) reflects this commit or nothing does. Whatever the
    // outcome, re-stamp the logical clock this layer has accounted for,
    // so the mutation is not mistaken for out-of-band administration.
    let published = publish(engine, &req.deltas);
    shared
        .auth_time
        .store(engine.database().logical_time(), Ordering::SeqCst);
    published?;

    let epoch = shared.commit_epoch.fetch_add(1, Ordering::SeqCst) + 1;
    let mut epochs = shared.epochs.lock().expect("epoch mutex poisoned");
    epochs
        .committed
        .push_back(CommittedDelta::from_deltas(epoch, &req.deltas));
    epochs.newest = epoch;
    prune(&mut epochs);
    Ok(epoch)
}

/// The state-mutating half of publication: apply the differentials, then
/// log them; on any failure the state is rolled back before the error
/// propagates.
fn publish(engine: &mut Engine, deltas: &[RelationDelta]) -> Result<()> {
    for (i, d) in deltas.iter().enumerate() {
        if let Err(e) = d.apply(engine.database_mut()) {
            for u in deltas[..i].iter().rev() {
                let _ = u.unapply(engine.database_mut());
            }
            return Err(e.into());
        }
    }
    if engine.wal_active() {
        // log_commit unapplies the deltas it was handed on failure; the
        // replayed state is already rolled back when the error surfaces.
        engine.log_commit(deltas.to_vec())?;
    }
    Ok(())
}

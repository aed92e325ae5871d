//! Concurrent sessions over one engine: executions run in place on the
//! authoritative database, serialized by the engine lock.
//!
//! In Grefen's design the output of `ModT` is an ordinary transaction,
//! and the DBMS runs it atomically and serializably — the subsystem adds
//! no concurrency mechanism of its own. [`ConcurrentEngine`] is the
//! smallest DBMS that does this for many threads: one [`Engine`] behind
//! one mutex. A [`ConcurrentSession`] is a handle: its prepared
//! statements live in the engine's one statement table, and each
//! execution takes the lock and runs what [`Engine::execute_statement`]
//! runs — the stale-plan refresh, the binding check, the run with its WAL
//! logging — on the engine's own database. Statement ids are engine-scoped, so a
//! statement prepared through one session executes from any other, and a
//! stale plan is re-modified once per catalog change, not once per
//! session. Nothing is copied, captured for validation, or retried.
//!
//! Serializability holds by construction: commit order is lock order.
//! Two overlapping writes apply one after the other; write skew through
//! a constraint cannot happen, because the second transaction's checks
//! read the first one's committed state; a DDL step or an administrative
//! write through [`ConcurrentEngine::lock`] between two executions is
//! seen by the next one (a stale plan re-prepares, as on every surface).
//!
//! Epochs are commit sequence numbers, stamped under the lock: one per
//! commit that inserted or deleted a tuple. The counter seeds from the
//! WAL's next LSN ([`Engine::wal_next_lsn`]) when durability is attached,
//! so after [`Engine::recover`] epochs resume strictly past every
//! replayed record.
//!
//! A batch of bindings of one statement
//! ([`ConcurrentSession::execute_prepared_many`]) is many such
//! transactions under one hold of the lock: the statement lookup and the
//! stale-plan decision are paid once per hold, and each binding is still
//! its own transaction, with its own verdict and its own epoch. A hold
//! runs at most [`MAX_BINDINGS_PER_HOLD`] bindings, so one large batch
//! cannot keep the engine from the other sessions for long.
//! [`ConcurrentSession::execute_prepared`] is the one-binding case:
//! the same statement run, stamped by the same rule.
//!
//! One lock is enough while a transaction holds it for microseconds —
//! `docs/concurrency.md` has the measurements, and when to revisit.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tm_algebra::{Transaction, TxOutcome};
use tm_relational::{Database, Value};

use crate::engine::{Engine, EngineOutcome};
use crate::error::Result;
use crate::prepared::{Prepared, StatementId};

/// The most bindings one [`ConcurrentSession::execute_prepared_many`]
/// call runs under one hold of the engine lock. At 1.3–2.5 µs per shop
/// binding a full hold lasts 0.7–1.3 ms; a larger batch releases the
/// lock (and yields) between holds, so the engine's other sessions and
/// administrators get a turn within a batch instead of after a 64 MB
/// frame.
pub const MAX_BINDINGS_PER_HOLD: usize = 512;

/// A thread-safe handle over one [`Engine`]: hands out
/// [`ConcurrentSession`]s that may run on any number of threads.
/// Cloning the handle is cheap (an `Arc` bump); all clones drive the
/// same engine.
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    shared: Arc<Mutex<Locked>>,
}

/// What the engine lock guards.
#[derive(Debug)]
struct Locked {
    engine: Engine,
    /// The epoch of the most recent state-changing session commit.
    epoch: u64,
}

impl ConcurrentEngine {
    /// Wrap an engine for concurrent use. The commit-epoch counter seeds
    /// from the WAL's next LSN when durability is attached — after
    /// [`Engine::recover`], epochs resume strictly past every replayed
    /// record instead of restarting at zero.
    pub fn new(engine: Engine) -> ConcurrentEngine {
        let epoch = engine.wal_next_lsn().unwrap_or(0);
        ConcurrentEngine {
            shared: Arc::new(Mutex::new(Locked { engine, epoch })),
        }
    }

    fn locked(&self) -> MutexGuard<'_, Locked> {
        self.shared.lock().expect("engine mutex poisoned")
    }

    /// Open a session. Sessions are independent `Send` values — move
    /// each to its own thread.
    pub fn session(&self) -> ConcurrentSession {
        ConcurrentSession {
            engine: self.clone(),
            last_commit: None,
        }
    }

    /// Exclusive access to the underlying engine, for administration:
    /// defining rules and constraints, loading data, checkpointing. It is
    /// the same lock every session execution takes, so whatever the
    /// guard's holder changes is seen by the next execution of every
    /// session — a catalog change makes its prepared plans stale, and
    /// they re-prepare before running.
    pub fn lock(&self) -> EngineGuard<'_> {
        EngineGuard(self.locked())
    }

    /// [`ConcurrentEngine::lock`] without blocking: `None` when the
    /// engine is busy (an execution or another administrator holds it).
    /// For opportunistic polls — health checks that should skip a busy
    /// engine rather than queue behind it.
    pub fn try_lock(&self) -> Option<EngineGuard<'_>> {
        self.shared.try_lock().ok().map(EngineGuard)
    }

    /// The epoch of the most recent state-changing commit (the seed value
    /// while nothing has committed).
    pub fn committed_epoch(&self) -> u64 {
        self.locked().epoch
    }

    /// How many committed differential records the engine retains for
    /// concurrent sessions: always 0. Executions run in place, so no
    /// commit outlives its own execution; the accessor stays for
    /// monitoring code that reads it.
    pub fn retained_deltas(&self) -> usize {
        0
    }

    /// A consistent read snapshot of the current committed state — an
    /// O(#relations) copy-on-write clone, taken under the lock.
    pub fn snapshot(&self) -> Database {
        self.locked().engine.database().clone()
    }

    /// Unwrap the handle back into the engine, when this is the last
    /// clone (sessions hold clones); returns the handle otherwise.
    pub fn try_into_engine(self) -> std::result::Result<Engine, ConcurrentEngine> {
        match Arc::try_unwrap(self.shared) {
            Ok(locked) => Ok(locked.into_inner().expect("engine mutex poisoned").engine),
            Err(shared) => Err(ConcurrentEngine { shared }),
        }
    }
}

/// Exclusive administrative access to the engine behind a
/// [`ConcurrentEngine`], from [`ConcurrentEngine::lock`]. Dereferences to
/// [`Engine`]; releasing it releases the lock.
#[derive(Debug)]
pub struct EngineGuard<'a>(MutexGuard<'a, Locked>);

impl std::ops::Deref for EngineGuard<'_> {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.0.engine
    }
}

impl std::ops::DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.0.engine
    }
}

/// A session over a [`ConcurrentEngine`]: a handle that prepares into
/// the engine's statement table and executes under the engine lock —
/// one transaction per call, or one per binding of a batch.
#[derive(Debug)]
pub struct ConcurrentSession {
    engine: ConcurrentEngine,
    /// Epoch of this session's most recent successful execution.
    last_commit: Option<u64>,
}

impl ConcurrentSession {
    /// Prepare a transaction template (one `ModT` run) and store it in
    /// the engine's statement table, under one acquisition of the lock.
    pub fn prepare(&mut self, tx: &Transaction) -> Result<StatementId> {
        let mut locked = self.engine.locked();
        let prepared = locked.engine.prepare(tx)?;
        Ok(locked.engine.store_statement(prepared))
    }

    /// Store an externally prepared statement in the engine's statement
    /// table. The plan re-modifies lazily if the catalog has moved since
    /// it was prepared, exactly like a statement prepared here.
    pub fn adopt(&mut self, prepared: Prepared) -> StatementId {
        self.engine.locked().engine.store_statement(prepared)
    }

    /// A consistent read snapshot of the current committed state.
    pub fn snapshot(&self) -> Database {
        self.engine.snapshot()
    }

    /// Execute a stored statement as one transaction: take the engine
    /// lock and run [`Engine::execute_statement`] — refresh the plan if
    /// the catalog moved, check the binding, run it on the authoritative
    /// database (logging the commit when durability is attached). A
    /// commit that inserted or deleted a tuple takes the next epoch. A
    /// constraint violation returns `Ok` with the aborted outcome and
    /// leaves the state untouched. The one-binding case of
    /// [`ConcurrentSession::execute_prepared_many`]: the same statement
    /// run, stamped by the same rule.
    pub fn execute_prepared(&mut self, id: StatementId, params: &[Value]) -> Result<EngineOutcome> {
        let mut locked = self.engine.locked();
        let Locked { engine, epoch } = &mut *locked;
        let out = engine.execute_statement(id, params)?;
        self.last_commit = Some(stamp(epoch, &out));
        Ok(out)
    }

    /// Execute a stored statement once per binding, in order, each
    /// binding its own transaction, and hand every outcome to `each`
    /// together with the binding's time under the lock: since the
    /// previous binding of its hold was handed over, or, for a hold's
    /// first binding, since the hold took the lock — never the wait for
    /// it. `each` runs under the engine lock; keep it short. The lock is
    /// taken once per [`MAX_BINDINGS_PER_HOLD`] bindings; within a hold
    /// the statement is looked up, and re-modified if the catalog moved,
    /// once, and one check-timing buffer serves every binding. Verdicts,
    /// epochs and the final state are those of a loop of
    /// [`ConcurrentSession::execute_prepared`] over the same bindings.
    ///
    /// The first binding that fails to execute (wrong arity or type)
    /// ends the batch with its error: the bindings before it have
    /// executed and been reported, none after it runs.
    pub fn execute_prepared_many<P: AsRef<[Value]>>(
        &mut self,
        id: StatementId,
        bindings: &[P],
        mut each: impl FnMut(&EngineOutcome, Duration),
    ) -> Result<()> {
        for (hold, chunk) in bindings.chunks(MAX_BINDINGS_PER_HOLD).enumerate() {
            if hold > 0 {
                // Let a session woken by the release take the lock
                // before this one re-takes it.
                std::thread::yield_now();
            }
            let mut locked = self.engine.locked();
            let mut lap = Instant::now();
            let Locked { engine, epoch } = &mut *locked;
            let mut run = engine.statement_run(id)?;
            for params in chunk {
                let out = run.execute(params.as_ref())?;
                self.last_commit = Some(stamp(epoch, &out));
                let now = Instant::now();
                each(&out, now - lap);
                lap = now;
                run.recycle(out);
            }
        }
        Ok(())
    }

    /// Execute an ad-hoc ground transaction ([`Engine::execute`]) under
    /// the engine lock, stamping the epoch like a prepared execution. No
    /// statement is stored; a point transaction's plan is kept in the
    /// engine's ad-hoc shape table, which every session shares.
    pub fn execute(&mut self, tx: &Transaction) -> Result<EngineOutcome> {
        let mut locked = self.engine.locked();
        let out = locked.engine.execute(tx)?;
        self.last_commit = Some(stamp(&mut locked.epoch, &out));
        Ok(out)
    }

    /// Epoch of this session's most recent successful execution — the
    /// transaction's position in the global commit order (for aborted or
    /// read-only executions, the epoch current when it ran).
    pub fn last_commit_epoch(&self) -> Option<u64> {
        self.last_commit
    }

    /// [`ConcurrentSession::execute_prepared`] together with the number of
    /// retries spent — always 0, because executions serialize under the
    /// engine lock and never conflict. `max_retries` is accepted and
    /// ignored, so callers written against a retrying interface keep
    /// compiling.
    pub fn execute_with_retry(
        &mut self,
        id: StatementId,
        params: &[Value],
        _max_retries: usize,
    ) -> Result<(EngineOutcome, usize)> {
        self.execute_prepared(id, params).map(|out| (out, 0))
    }
}

/// The one stamping rule, applied under the engine lock to every
/// successful execution: a commit that inserted or deleted a tuple takes
/// the next epoch. Returns the epoch the execution ran at.
fn stamp(epoch: &mut u64, out: &EngineOutcome) -> u64 {
    if let TxOutcome::Committed(s) = &out.outcome {
        *epoch += u64::from(s.tuples_inserted + s.tuples_deleted > 0);
    }
    *epoch
}

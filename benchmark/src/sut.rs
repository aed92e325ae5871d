//! The adapter: **every** call into a product crate lives in this file.
//!
//! The rest of the benchmark speaks plain data (`i64` rows, RA/RL/CL
//! text, [`Verdict`]s) and times calls into the wrappers below from
//! outside — so a PR that collapses or renames product APIs needs at most
//! a follow-up to this one file. The surface is restricted to the entry
//! points ISSUE 11 names: `txmod` (`Engine`, `Prepared`, `Session`,
//! `ConcurrentEngine`/`ConcurrentSession`, durability), `tm-algebra`
//! (`parse_program`, `ExecPlan`, `Executor::execute_plan`),
//! `tm-relational` (values, tuples, schemas, `unshare_count`),
//! `tm-durable` (config, WAL counters) and `tm-server` (`serve`,
//! `Client`, `TenantRegistry`, `Request`/`Response` codecs). `tm-parallel`
//! and `tm-bench` are not dependencies.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use tm_algebra::parser::parse_program;
use tm_algebra::{ExecPlan, Executor, Transaction};
use tm_durable::{Durability, DurabilityConfig};
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use tm_server::{
    serve, Client, PreparedStmt, Request, Response, ServerConfig, ServerHandle, Tenant,
    TenantRegistry, TenantSpec, TxReport,
};
use txmod::{
    ConcurrentEngine, ConcurrentSession, EnforcementMode, Engine, EngineConfig, EngineOutcome,
    Prepared, Session, StatementId,
};

use crate::model::{self, Sizes};

/// Errors are reported as text: to the benchmark any of them is a failed
/// operation, never a reason to panic.
pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Tenant name of the served shop.
const TENANT: &str = "shop";

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// One binding, already converted to product values — built at generation
/// time so the conversion is outside every clock.
#[derive(Debug, Clone)]
pub struct Params(Vec<Value>);

/// Convert a generated binding.
pub fn params(args: &[i64]) -> Params {
    Params(args.iter().map(|&a| Value::Int(a)).collect())
}

/// A batch of bindings for one `ExecuteMany` request.
#[derive(Debug, Clone)]
pub struct Batch(Vec<Vec<Value>>);

/// Convert generated bindings into a batch.
pub fn batch<'a>(bindings: impl IntoIterator<Item = &'a [i64]>) -> Batch {
    Batch(bindings.into_iter().map(|b| params(b).0).collect())
}

impl Batch {
    /// Bindings in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn tuples(rows: Vec<Vec<i64>>) -> impl Iterator<Item = Tuple> {
    rows.into_iter()
        .map(|r| Tuple::from_values(r.into_iter().map(Value::Int).collect()))
}

/// What the product answered for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Committed (`true`) or aborted on an integrity rule (`false`).
    pub committed: bool,
    /// Whether a retained plan ran (no re-modification on this call).
    pub reused_plan: bool,
    /// Rules that cost nothing at execution.
    pub skipped: u32,
    /// Checks reduced to point probes.
    pub probed: u32,
    /// Checks evaluated by their generic program.
    pub evaluated: u32,
    /// Sum of the per-check times, when check timing is on.
    pub check_ns: u64,
}

impl Verdict {
    fn of(out: &EngineOutcome) -> Verdict {
        Verdict {
            committed: out.committed(),
            reused_plan: out.reused_plan,
            skipped: out.checks.skipped as u32,
            probed: out.checks.probed as u32,
            evaluated: out.checks.evaluated as u32,
            check_ns: out.check_times_ns.iter().sum(),
        }
    }

    fn of_report(r: &TxReport) -> Verdict {
        Verdict {
            committed: r.committed,
            reused_plan: r.reused_plan,
            skipped: r.checks_skipped,
            probed: r.checks_probed,
            evaluated: r.checks_evaluated,
            check_ns: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide counters
// ---------------------------------------------------------------------------

/// The product's process-wide counters, read at span boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// `tm_relational::unshare_count()`.
    pub unshares: u64,
    /// `tm_durable::wal_bytes_written()`.
    pub wal_bytes: u64,
    /// `tm_durable::wal_fsyncs()`.
    pub wal_fsyncs: u64,
}

impl Counters {
    /// Read all three now.
    pub fn read() -> Counters {
        Counters {
            unshares: tm_relational::unshare_count(),
            wal_bytes: tm_durable::wal_bytes_written(),
            wal_fsyncs: tm_durable::wal_fsyncs(),
        }
    }

    /// Component-wise `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            unshares: self.unshares - earlier.unshares,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
        }
    }
}

// ---------------------------------------------------------------------------
// The serial engine
// ---------------------------------------------------------------------------

/// How commits reach the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// `Durability::Buffered`: frames stay in user space until 64 KiB.
    Buffered,
    /// `Durability::Fsync` with group commit of this many.
    FsyncGroup(usize),
}

/// A parsed, bracketed RA program.
#[derive(Debug, Clone)]
pub struct Parsed(Transaction);

/// `tm_algebra::parse_program` + bracket.
pub fn parse(text: &str) -> Result<Parsed> {
    parse_program(text)
        .map(|p| Parsed(p.bracket()))
        .map_err(err)
}

/// A read-only view of an engine's state, for the end-of-workload checks.
pub struct Inspect<'a>(&'a Engine);

impl Inspect<'_> {
    /// `Engine::check_state`: names of violated constraints.
    pub fn check_state(&self) -> Result<Vec<String>> {
        self.0.check_state().map_err(err)
    }

    /// Cardinality of a relation.
    pub fn len(&self, relation: &str) -> Result<usize> {
        self.0.relation(relation).map(|r| r.len()).map_err(err)
    }

    /// All rows of an all-integer relation, sorted.
    pub fn rows(&self, relation: &str) -> Result<Vec<Vec<i64>>> {
        let rel = self.0.relation(relation).map_err(err)?;
        rel.sorted_tuples()
            .iter()
            .map(|t| {
                t.values()
                    .iter()
                    .map(|v| {
                        v.as_int()
                            .ok_or_else(|| format!("non-integer in {relation}"))
                    })
                    .collect()
            })
            .collect()
    }

    /// A copy-on-write snapshot of the whole state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.0.database().clone())
    }
}

/// A database state held by value (`tm_relational::Database`).
#[derive(Debug, Clone)]
pub struct Snapshot(Database);

impl Snapshot {
    /// `Database::state_eq`.
    pub fn state_eq(&self, other: &Snapshot) -> bool {
        self.0.state_eq(&other.0)
    }
}

/// The shop engine (`txmod::Engine`): Static enforcement, specialization on.
#[derive(Debug, Clone)]
pub struct Shop {
    engine: Engine,
}

/// Rows per second `Engine::load` sustained while a shop was built.
#[derive(Debug, Clone, Copy)]
pub struct LoadRate {
    /// Rows loaded.
    pub rows: u64,
    /// Wall time of the `load` calls.
    pub ns: u64,
}

impl Shop {
    /// Declare the schema and the catalog (shop rules plus the cold
    /// catalog), then load `item`, `stock` and each stream's window.
    pub fn build(sizes: &Sizes, preloads: &[model::Preload]) -> Result<(Shop, LoadRate)> {
        let mut relations: Vec<RelationSchema> = model::RELATIONS
            .iter()
            .map(|(name, attrs)| {
                let attrs: Vec<(&str, ValueType)> =
                    attrs.iter().map(|a| (*a, ValueType::Int)).collect();
                RelationSchema::of(name, &attrs)
            })
            .collect();
        for r in 0..sizes.cold_relations {
            relations.push(RelationSchema::of(
                &model::cold_relation(r),
                &[("id", ValueType::Int), ("v", ValueType::Int)],
            ));
        }
        let schema = DatabaseSchema::from_relations(relations).map_err(err)?;
        let mut engine = Engine::with_config(
            schema,
            EngineConfig {
                mode: EnforcementMode::Static,
                specialize: true,
                // Alarm-only cold rules cannot trigger anything; skipping
                // the definition-time cycle validation keeps a wide
                // catalog affordable (as `prepare_throughput` does).
                allow_cycles: true,
                ..EngineConfig::default()
            },
        );
        for r in 0..sizes.cold_relations {
            for i in 0..sizes.cold_rules_each {
                let (name, text) = model::cold_rule(r, i);
                engine.add_rule_text(&text, &name).map_err(err)?;
            }
        }
        for (name, cl) in model::CONSTRAINTS {
            engine.define_constraint(name, cl).map_err(err)?;
        }
        for (name, text) in model::RULES {
            engine.add_rule_text(text, name).map_err(err)?;
        }
        let mut rate = LoadRate { rows: 0, ns: 0 };
        let mut load = |engine: &mut Engine, rel: &str, rows: Vec<Vec<i64>>| -> Result<()> {
            let t = std::time::Instant::now();
            let n = engine.load(rel, tuples(rows)).map_err(err)?;
            rate.ns += t.elapsed().as_nanos() as u64;
            rate.rows += n as u64;
            Ok(())
        };
        load(&mut engine, "item", model::item_rows())?;
        load(&mut engine, "stock", model::stock_rows())?;
        for (orders, payments) in preloads {
            load(&mut engine, "orders", orders.clone())?;
            load(&mut engine, "payments", payments.clone())?;
            load(&mut engine, "ledger", payments.clone())?;
        }
        Ok((Shop { engine }, rate))
    }

    /// `Engine::prepare` of RA template text.
    pub fn prepare(&self, template: &str) -> Result<Stmt> {
        let tx = parse(template)?;
        self.engine.prepare(&tx.0).map(Stmt).map_err(err)
    }

    /// `Engine::prepare` of an already parsed template (so a span can
    /// exclude the parse).
    pub fn prepare_parsed(&self, tx: &Parsed) -> Result<Stmt> {
        self.engine.prepare(&tx.0).map(Stmt).map_err(err)
    }

    /// Prepare the cycle's templates (and `reprice`), indexed by
    /// `model::Kind`.
    pub fn prepare_all(&self) -> Result<Vec<Stmt>> {
        model::TEMPLATES.iter().map(|t| self.prepare(t)).collect()
    }

    /// `Engine::execute_bound`.
    pub fn execute_bound(&mut self, bound: &Bound<'_>) -> Result<Verdict> {
        self.engine
            .execute_bound(&bound.0)
            .map(|o| Verdict::of(&o))
            .map_err(err)
    }

    /// `Engine::execute` — the ad-hoc path: `ModT` runs on this call.
    pub fn execute(&mut self, tx: &Parsed) -> Result<Verdict> {
        self.engine
            .execute(&tx.0)
            .map(|o| Verdict::of(&o))
            .map_err(err)
    }

    /// `Engine::modify_only`; returns the number of statements of the
    /// modified transaction.
    pub fn modify_only(&self, tx: &Parsed) -> Result<usize> {
        self.engine
            .modify_only(&tx.0)
            .map(|(t, _)| t.debracket().len())
            .map_err(err)
    }

    /// `Engine::define_constraint`.
    pub fn define_constraint(&mut self, name: &str, cl: &str) -> Result<()> {
        self.engine.define_constraint(name, cl).map_err(err)
    }

    /// `Engine::remove_rule`; `Ok(false)` when no such rule existed.
    pub fn remove_rule(&mut self, name: &str) -> Result<bool> {
        self.engine.remove_rule(name).map_err(err)
    }

    /// `Engine::validate_full`; returns the number of diagnostics.
    pub fn validate_full(&self) -> usize {
        self.engine.validate_full().diagnostics.len()
    }

    /// `Engine::set_check_timing`.
    pub fn set_check_timing(&mut self, on: bool) {
        self.engine.set_check_timing(on);
    }

    /// `Engine::session` with the given statements prepared in it.
    pub fn session(&mut self, templates: &[&str]) -> Result<ShopSession<'_>> {
        let mut session = self.engine.session();
        let mut ids = Vec::new();
        for t in templates {
            ids.push(session.prepare(&parse(t)?.0).map_err(err)?);
        }
        Ok(ShopSession { session, ids })
    }

    /// Attach durability in `dir` (`Engine::make_durable`: an initial
    /// checkpoint of the current state, then every commit is logged).
    /// Automatic checkpoints are off until
    /// [`Shop::set_checkpoint_every`].
    pub fn make_durable(&mut self, dir: &Path, flush: Flush) -> Result<()> {
        let (level, group_commit) = match flush {
            Flush::Buffered => (Durability::Buffered, 1),
            Flush::FsyncGroup(group) => (Durability::Fsync, group),
        };
        self.engine.config_mut().durability = DurabilityConfig {
            level,
            group_commit,
            checkpoint_every: 0,
        };
        self.engine.make_durable(dir).map_err(err)
    }

    /// Checkpoint automatically after this many logged frames (0 = never).
    pub fn set_checkpoint_every(&mut self, frames: u64) {
        self.engine.config_mut().durability.checkpoint_every = frames;
    }

    /// `Engine::checkpoint`; returns the LSN it covers.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.engine.checkpoint().map_err(err)
    }

    /// The last LSN appended (`Engine::durable_lsn`).
    pub fn durable_lsn(&self) -> Option<u64> {
        self.engine.durable_lsn()
    }

    /// `Engine::take_checkpoint_error` as text.
    pub fn take_checkpoint_error(&mut self) -> Option<String> {
        self.engine.take_checkpoint_error().map(err)
    }

    /// `Engine::recover`; returns the engine and the frames replayed.
    pub fn recover(dir: &Path) -> Result<(Shop, u64)> {
        let r = Engine::recover(dir).map_err(err)?;
        Ok((Shop { engine: r.engine }, r.report.frames_replayed))
    }

    /// The state, read-only.
    pub fn inspect(&self) -> Inspect<'_> {
        Inspect(&self.engine)
    }

    /// Wrap in a `ConcurrentEngine`.
    pub fn into_concurrent(self) -> ConcurrentShop {
        ConcurrentShop(ConcurrentEngine::new(self.engine))
    }
}

/// Name of the WAL file inside a durability directory.
pub const WAL_FILE: &str = txmod::WAL_FILE;

/// A prepared statement (`txmod::Prepared`).
#[derive(Debug, Clone)]
pub struct Stmt(Prepared);

/// A checked binding (`txmod::BoundTransaction`).
pub struct Bound<'p>(txmod::BoundTransaction<'p>);

impl Stmt {
    /// `Prepared::bind`.
    pub fn bind(&self, p: &Params) -> Result<Bound<'_>> {
        self.0.bind(&p.0).map(Bound).map_err(err)
    }

    /// The modified template compiled on its own, for the bare-executor
    /// depth of the ladder.
    pub fn plan(&self) -> Plan {
        Plan(ExecPlan::compile(self.0.transaction().clone()))
    }
}

/// A compiled plan (`tm_algebra::ExecPlan`).
#[derive(Debug, Clone)]
pub struct Plan(ExecPlan);

impl Plan {
    /// Whether the plan runs on the fast executor.
    pub fn is_fast(&self) -> bool {
        self.0.is_fast()
    }

    /// `Executor::execute_plan` on a bare database state.
    pub fn execute(&self, state: &mut Snapshot, p: &Params) -> bool {
        Executor
            .execute_plan(&mut state.0, &self.0, &p.0)
            .is_committed()
    }
}

/// A `txmod::Session` holding the cycle's statements.
pub struct ShopSession<'e> {
    session: Session<'e>,
    ids: Vec<StatementId>,
}

impl ShopSession<'_> {
    /// `Session::execute_prepared` of statement number `stmt`.
    pub fn execute_prepared(&mut self, stmt: usize, p: &Params) -> Result<Verdict> {
        self.session
            .execute_prepared(self.ids[stmt], &p.0)
            .map(|o| Verdict::of(&o))
            .map_err(err)
    }

    /// `Session::snapshot`.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.session.snapshot())
    }
}

// ---------------------------------------------------------------------------
// The concurrent engine
// ---------------------------------------------------------------------------

/// `txmod::ConcurrentEngine` over a shop.
#[derive(Debug, Clone)]
pub struct ConcurrentShop(ConcurrentEngine);

impl ConcurrentShop {
    /// A `ConcurrentSession` that has adopted `stmts`.
    pub fn client(&self, stmts: &[Stmt]) -> ConcurrentClient {
        let mut session = self.0.session();
        let ids = stmts.iter().map(|s| session.adopt(s.0.clone())).collect();
        ConcurrentClient { session, ids }
    }

    /// `Engine::prepare` under the engine lock.
    pub fn prepare_all(&self) -> Result<Vec<Stmt>> {
        let guard = self.0.lock();
        model::TEMPLATES
            .iter()
            .map(|t| guard.prepare(&parse(t)?.0).map(Stmt).map_err(err))
            .collect()
    }

    /// `ConcurrentEngine::retained_deltas`.
    pub fn retained_deltas(&self) -> usize {
        self.0.retained_deltas()
    }

    /// Run `f` on the authoritative state, under the engine lock.
    pub fn inspect<R>(&self, f: impl FnOnce(&Inspect<'_>) -> R) -> R {
        let guard = self.0.lock();
        f(&Inspect(&guard))
    }
}

/// One `txmod::ConcurrentSession`.
pub struct ConcurrentClient {
    session: ConcurrentSession,
    ids: Vec<StatementId>,
}

impl ConcurrentClient {
    /// `ConcurrentSession::execute_with_retry`; returns the verdict and
    /// the retries spent. Exhausting `budget` is an error.
    pub fn execute_with_retry(
        &mut self,
        stmt: usize,
        p: &Params,
        budget: usize,
    ) -> Result<(Verdict, usize)> {
        self.session
            .execute_with_retry(self.ids[stmt], &p.0, budget)
            .map(|(o, retries)| (Verdict::of(&o), retries))
            .map_err(err)
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// An in-process `tm_server::serve` on loopback with the shop as its one
/// tenant, default `TenantSpec`.
pub struct Served {
    handle: ServerHandle,
    tenant: Arc<Tenant>,
}

impl Served {
    /// Register the shop and start serving on an ephemeral port.
    pub fn start(shop: Shop) -> Result<Served> {
        let registry = Arc::new(TenantRegistry::new());
        let tenant = registry.add(TENANT, shop.engine, TenantSpec::default());
        let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
        Ok(Served { handle, tenant })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// `ConcurrentEngine::retained_deltas` of the tenant's engine.
    pub fn retained_deltas(&self) -> usize {
        self.tenant.engine.retained_deltas()
    }

    /// Run `f` on the tenant's authoritative state.
    pub fn inspect<R>(&self, f: impl FnOnce(&Inspect<'_>) -> R) -> R {
        let guard = self.tenant.engine.lock();
        f(&Inspect(&guard))
    }

    /// Stop accepting and join every connection thread.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// One wire connection (`tm_server::Client`).
pub struct Conn(Client);

/// A statement id on the wire.
#[derive(Debug, Clone, Copy)]
pub struct WireStmt(PreparedStmt);

impl Conn {
    /// `Client::connect` (TCP connect + `Hello`).
    pub fn connect(addr: SocketAddr) -> Result<Conn> {
        Client::connect(addr, TENANT).map(Conn).map_err(err)
    }

    /// `Client::prepare`.
    pub fn prepare(&mut self, template: &str) -> Result<WireStmt> {
        self.0.prepare(template).map(WireStmt).map_err(err)
    }

    /// `Client::execute_retrying`: one round trip per attempt.
    pub fn execute(
        &mut self,
        stmt: WireStmt,
        p: &Params,
        budget: usize,
    ) -> Result<(Verdict, usize)> {
        self.0
            .execute_retrying(stmt.0, p.0.clone(), budget)
            .map(|(r, retries)| (Verdict::of_report(&r), retries))
            .map_err(err)
    }

    /// `Client::execute_many`: `(committed, aborted)`. A `Busy` rejection
    /// or any protocol error is an `Err`.
    pub fn execute_many(&mut self, stmt: WireStmt, batch: Batch) -> Result<(u64, u64)> {
        self.0.execute_many(stmt.0, batch.0).map_err(err)
    }

    /// `Client::stats`: the plaintext metrics dump.
    pub fn stats(&mut self) -> Result<String> {
        self.0.stats().map_err(err)
    }
}

/// Field `key` of the shop tenant in a `Stats` dump (`tenant.shop.<key>
/// <value>` lines); 0 when absent.
pub fn stat(dump: &str, key: &str) -> f64 {
    let key = format!("tenant.{TENANT}.{key}");
    dump.lines()
        .find_map(|l| l.strip_prefix(&key)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Encode and decode one `Execute` request and one `Tx` response — the
/// codec work of a round trip, with no socket. Returns the bytes framed.
pub fn codec_round_trip(p: &Params, scratch: &mut Vec<u8>) -> Result<usize> {
    scratch.clear();
    Request::Execute {
        stmt_id: 0,
        params: p.0.clone(),
    }
    .encode(scratch);
    let req_len = scratch.len();
    Request::decode(scratch).map_err(err)?;
    scratch.clear();
    Response::Tx(TxReport {
        committed: true,
        reused_plan: true,
        checks_skipped: 0,
        checks_probed: 2,
        checks_evaluated: 0,
        abort: None,
    })
    .encode(scratch);
    Response::decode(scratch).map_err(err)?;
    Ok(req_len + scratch.len())
}

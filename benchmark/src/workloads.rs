//! The seven workloads: their clients, their set-up, and the checks each
//! must pass when it ends.
//!
//! Names are fixed — later issues claim against them. Why each exists is
//! recorded in `BENCHMARK.json` and `README.md`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{measure, Client, Phase, Tally};
use crate::model::{self, AdhocOp, AdhocStream, Cardinalities, Kind, Op, Sizes, Stream};
use crate::sut::{self, Counters, Flush, Params, Shop, Stmt, Verdict};
use crate::trace::{self, TraceBuf};

/// A workload, by its fixed name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 thread, `Prepared::bind` + `Engine::execute_bound`, in memory.
    SerialPrepared,
    /// 1 thread, text → `parse_program` → `Engine::execute`, with
    /// set-oriented transactions and catalog churn.
    AdhocChurn,
    /// 1 `ConcurrentSession`, the `serial_prepared` stream.
    ConcurrentSingle,
    /// `T` sessions over disjoint key ranges.
    ConcurrentDisjoint,
    /// `T` sessions; session 0 also re-prices `item` rows.
    ConcurrentContended,
    /// Loopback server, `T` connections, `ExecuteMany` batches of 256.
    ServedBatch,
    /// 1 thread, `execute_bound` on a durable engine, `Buffered`.
    DurableLog,
}

/// All workloads, in reporting order.
pub const ALL: [Workload; 7] = [
    Workload::SerialPrepared,
    Workload::AdhocChurn,
    Workload::ConcurrentSingle,
    Workload::ConcurrentDisjoint,
    Workload::ConcurrentContended,
    Workload::ServedBatch,
    Workload::DurableLog,
];

impl Workload {
    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialPrepared => "serial_prepared",
            Workload::AdhocChurn => "adhoc_churn",
            Workload::ConcurrentSingle => "concurrent_single",
            Workload::ConcurrentDisjoint => "concurrent_disjoint",
            Workload::ConcurrentContended => "concurrent_contended",
            Workload::ServedBatch => "served_batch",
            Workload::DurableLog => "durable_log",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Clients (= threads = connections) the workload runs with `t`
    /// available (`t = min(nproc, 4)`).
    pub fn clients(self, t: usize) -> usize {
        match self {
            Workload::ConcurrentDisjoint
            | Workload::ConcurrentContended
            | Workload::ServedBatch => t,
            _ => 1,
        }
    }

    /// What one latency sample is.
    pub fn request(self) -> &'static str {
        match self {
            Workload::ServedBatch => "one ExecuteMany batch of 256 bindings",
            Workload::AdhocChurn => "one operation",
            _ => "64 consecutive transactions, timed as one block",
        }
    }
}

/// `min(nproc, 4)`: no workload runs more clients than the machine has
/// processors.
pub fn available_clients() -> usize {
    nproc().min(4)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A *request* of an in-process prepared client is this many consecutive
/// transactions, timed as one block: two clock reads per block cost nothing
/// a sub-microsecond transaction would notice, every transaction is inside
/// exactly one latency sample, and a stall anywhere shows up in one.
const BLOCK: usize = 64;
/// In the traced pass, the transaction of each block that gets spans. Not
/// the first — in every round that one runs right after the start barrier,
/// on cold caches, while all clients start at once — and 64 ≡ 1 (mod 3), so
/// the traced transactions rotate over the cycle's templates.
const TRACED_AT: usize = BLOCK / 2;
/// Bindings per `ExecuteMany` request.
pub const BATCH: usize = 256;
/// Sets of three batches per round of `served_batch`.
const WIRE_ROUND_SETS: usize = 8;
/// Conflict retries one transaction may spend before it counts as failed.
/// Retries are livelock-free (a conflict implies another commit), so this
/// bounds latency, not correctness.
const RETRY_BUDGET: usize = 100_000;
/// Frames between automatic checkpoints of `durable_log`.
pub const CHECKPOINT_EVERY: u64 = 200_000;
/// Operations per round of `adhoc_churn`: one period of the catalog churn
/// (a define step, then a remove step). Transactions cost a third more
/// while the churn constraint is declared, so a round that cut the period
/// would be fast or slow by where it fell.
const ADHOC_ROUND: usize = 2 * model::DDL_EVERY;

fn check(tally: &mut Tally, kind: &str, expected: bool, got: &sut::Result<Verdict>) {
    tally.ops += 1;
    match got {
        Ok(v) => {
            tally.skipped += u64::from(v.skipped);
            tally.probed += u64::from(v.probed);
            tally.evaluated += u64::from(v.evaluated);
            tally.counted += 1;
            tally.committed += u64::from(v.committed);
            if v.committed != expected {
                tally.fail(|| format!("{kind}: expected commit={expected}, got {}", v.committed));
            }
        }
        Err(e) => tally.fail(|| format!("{kind}: {e}")),
    }
}

/// Pair every operation with its binding converted to product values —
/// at generation time, so the conversion is outside every clock.
pub fn with_params(ops: Vec<Op>) -> Vec<(Op, Params)> {
    ops.into_iter()
        .map(|op| {
            let p = sut::params(&op.args);
            (op, p)
        })
        .collect()
}

/// The next `cycles` cycles of `stream` with their product values,
/// remembered in `history` when a serial replay will need them.
fn next_round(
    stream: &mut Stream,
    cycles: usize,
    history: &mut Option<Vec<Op>>,
) -> Vec<(Op, Params)> {
    let mut ops = Vec::with_capacity(cycles * 4);
    stream.extend(cycles, &mut ops);
    if let Some(h) = history {
        h.extend(ops.iter().cloned());
    }
    with_params(ops)
}

/// Group whole cycles into one `ExecuteMany` batch per template — all
/// `new_order`s, then their `pay`s, then the `deliver`s: a batch carries
/// one statement, and this order keeps every dependency of the cycle.
/// Each batch comes with the number of commits the generator expects.
pub fn batches<'a>(ops: impl Iterator<Item = &'a Op> + Clone) -> Vec<(Kind, sut::Batch, u64)> {
    [Kind::NewOrder, Kind::Pay, Kind::Deliver]
        .into_iter()
        .map(|kind| {
            let of_kind = || ops.clone().filter(move |o| o.kind == kind);
            let commits = of_kind().filter(|o| o.commit).count() as u64;
            (
                kind,
                sut::batch(of_kind().map(|o| o.args.as_slice())),
                commits,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// `serial_prepared` and `durable_log`: bind + `execute_bound`.
pub struct PreparedClient {
    /// The engine.
    pub shop: Shop,
    stmts: Vec<Stmt>,
    /// The generator.
    pub stream: Stream,
    cycles: usize,
    round: Vec<(Op, Params)>,
    /// Every generated operation, kept when a serial replay will need it.
    pub history: Option<Vec<Op>>,
}

impl Client for PreparedClient {
    fn generate(&mut self) {
        self.round = next_round(&mut self.stream, self.cycles, &mut self.history);
    }

    fn run(&mut self, tally: &mut Tally, mut trace: Option<&mut TraceBuf>) {
        let keep = tally.measuring;
        for block in self.round.chunks(BLOCK) {
            let t_block = keep.then(Instant::now);
            for (i, (op, p)) in block.iter().enumerate() {
                let stmt = &self.stmts[op.kind as usize];
                let name = model::KIND_NAMES[op.kind as usize];
                let Some(buf) = trace.as_deref_mut().filter(|_| keep && i == TRACED_AT) else {
                    let got = stmt.bind(p).and_then(|b| self.shop.execute_bound(&b));
                    check(tally, name, op.commit, &got);
                    continue;
                };
                let c0 = Counters::read();
                let t0 = Instant::now();
                let bound = stmt.bind(p);
                let t1 = Instant::now();
                let got = bound.and_then(|b| self.shop.execute_bound(&b));
                let t2 = Instant::now();
                let tx = buf.begin();
                buf.child(tx, trace::BIND, trace::TX, t0, t1);
                buf.child(tx, trace::EXECUTE_BOUND, trace::TX, t1, t2);
                buf.root(tx, trace::TX, 1, t0, t2, Counters::read().since(&c0));
                check(tally, name, op.commit, &got);
            }
            if let Some(t) = t_block {
                tally.sample(t.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// `concurrent_*`: one `ConcurrentSession` driven through
/// `execute_with_retry`.
pub struct SessionClient {
    session: sut::ConcurrentClient,
    /// The generator.
    pub stream: Stream,
    cycles: usize,
    round: Vec<(Op, Params)>,
    /// Every generated operation, kept when a serial replay will need it.
    pub history: Option<Vec<Op>>,
}

impl Client for SessionClient {
    fn generate(&mut self) {
        self.round = next_round(&mut self.stream, self.cycles, &mut self.history);
    }

    fn run(&mut self, tally: &mut Tally, mut trace: Option<&mut TraceBuf>) {
        let keep = tally.measuring;
        for block in self.round.chunks(BLOCK) {
            let t_block = keep.then(Instant::now);
            for (i, (op, p)) in block.iter().enumerate() {
                let name = model::KIND_NAMES[op.kind as usize];
                let span = trace
                    .as_deref_mut()
                    .filter(|_| keep && i == TRACED_AT)
                    .map(|buf| (buf, Counters::read(), Instant::now()));
                let got = self
                    .session
                    .execute_with_retry(op.kind as usize, p, RETRY_BUDGET);
                if let Some((buf, c0, t0)) = span {
                    let t1 = Instant::now();
                    let tx = buf.begin();
                    buf.child(tx, trace::EXECUTE_WITH_RETRY, trace::TX, t0, t1);
                    buf.root(tx, trace::TX, 1, t0, t1, Counters::read().since(&c0));
                }
                if let Ok((_, retries)) = &got {
                    tally.retries += *retries as u64;
                }
                check(tally, name, op.commit, &got.map(|(v, _)| v));
            }
            if let Some(t) = t_block {
                tally.sample(t.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// `adhoc_churn`: text → parse → `Engine::execute`, set-oriented
/// transactions, and catalog steps that stale three live statements.
pub struct AdhocClient {
    /// The engine.
    pub shop: Shop,
    live: Vec<Stmt>,
    /// The generator.
    pub stream: AdhocStream,
    round: Vec<AdhocOp>,
}

impl AdhocClient {
    fn ddl(
        &mut self,
        define: bool,
        tally: &mut Tally,
        sampled: bool,
        trace: Option<&mut TraceBuf>,
    ) {
        let (name, cl) = model::CHURN_CONSTRAINT;
        let c0 = trace.is_some().then(Counters::read);
        let t0 = Instant::now();
        let step = if define {
            self.shop.define_constraint(name, cl)
        } else {
            self.shop.remove_rule(name).and_then(|existed| {
                if existed {
                    Ok(())
                } else {
                    Err(format!("{name} was not in the catalog"))
                }
            })
        };
        let t1 = Instant::now();
        // The three live statements are stale now; re-prepare them, as a
        // session would on their next execution.
        let fresh = self.shop.prepare_all();
        let t2 = Instant::now();
        tally.ops += 1;
        match (step, fresh) {
            (Ok(()), Ok(stmts)) => self.live = stmts,
            (Err(e), _) | (_, Err(e)) => tally.fail(|| format!("ddl define={define}: {e}")),
        }
        if sampled {
            tally.sample((t2 - t0).as_nanos() as u64);
            if let (Some(buf), Some(c0)) = (trace, c0) {
                let tx = buf.begin();
                let step = if define {
                    trace::DEFINE_CONSTRAINT
                } else {
                    trace::REMOVE_RULE
                };
                buf.child(tx, step, trace::TX, t0, t1);
                buf.child(tx, trace::REPREPARE, trace::TX, t1, t2);
                buf.root(tx, trace::TX, 1, t0, t2, Counters::read().since(&c0));
            }
        }
    }
}

impl Client for AdhocClient {
    fn generate(&mut self) {
        self.round.clear();
        self.stream.extend(ADHOC_ROUND, &mut self.round);
    }

    fn run(&mut self, tally: &mut Tally, mut trace: Option<&mut TraceBuf>) {
        let keep = tally.measuring;
        let round = std::mem::take(&mut self.round);
        for op in &round {
            match op {
                AdhocOp::Ddl { define } => self.ddl(*define, tally, keep, trace.as_deref_mut()),
                AdhocOp::Tx { name, text, commit } => {
                    let c0 = (keep && trace.is_some()).then(Counters::read);
                    let t0 = Instant::now();
                    let parsed = sut::parse(text);
                    let t1 = Instant::now();
                    let got = parsed.and_then(|tx| self.shop.execute(&tx));
                    let t2 = Instant::now();
                    if keep {
                        tally.sample((t2 - t0).as_nanos() as u64);
                        if let (Some(buf), Some(c0)) = (trace.as_deref_mut(), c0) {
                            let tx = buf.begin();
                            buf.child(tx, trace::PARSE, trace::TX, t0, t1);
                            buf.child(tx, trace::EXECUTE, trace::TX, t1, t2);
                            buf.root(tx, trace::TX, 1, t0, t2, Counters::read().since(&c0));
                        }
                    }
                    check(tally, name, *commit, &got);
                }
            }
        }
        self.round = round;
    }
}

/// `served_batch`: one connection sending `ExecuteMany` batches.
pub struct WireClient {
    conn: sut::Conn,
    stmts: Vec<sut::WireStmt>,
    /// The generator.
    pub stream: Stream,
    round: Vec<(Kind, sut::Batch, u64)>,
    /// Every generated operation, kept when a serial replay will need it.
    pub history: Option<Vec<Op>>,
}

impl Client for WireClient {
    /// One round is [`WIRE_ROUND_SETS`] times [`BATCH`] cycles, each set as
    /// three batches — see [`batches`].
    fn generate(&mut self) {
        self.round.clear();
        for _ in 0..WIRE_ROUND_SETS {
            let mut ops = Vec::with_capacity(BATCH * 3);
            self.stream.extend(BATCH, &mut ops);
            self.round.extend(batches(ops.iter()));
            if let Some(h) = &mut self.history {
                // In execution order: grouped by template.
                ops.sort_by_key(|o| o.kind as usize);
                h.extend(ops);
            }
        }
    }

    fn run(&mut self, tally: &mut Tally, mut trace: Option<&mut TraceBuf>) {
        let keep = tally.measuring;
        for (kind, batch, commits) in std::mem::take(&mut self.round) {
            let n = batch.len() as u64;
            let c0 = (keep && trace.is_some()).then(Counters::read);
            let t0 = Instant::now();
            let got = self.conn.execute_many(self.stmts[kind as usize], batch);
            let t1 = Instant::now();
            if keep {
                tally.sample((t1 - t0).as_nanos() as u64);
                if let (Some(buf), Some(c0)) = (trace.as_deref_mut(), c0) {
                    let tx = buf.begin();
                    buf.child(tx, trace::EXECUTE_MANY, trace::REQUEST, t0, t1);
                    buf.root(
                        tx,
                        trace::REQUEST,
                        n as u32,
                        t0,
                        t1,
                        Counters::read().since(&c0),
                    );
                }
            }
            tally.ops += n;
            match got {
                Ok((committed, aborted)) => {
                    tally.committed += committed;
                    if committed != commits || committed + aborted != n {
                        // The reply carries counts only: each binding off
                        // the expected count answered wrongly.
                        tally.failed += committed.abs_diff(commits).max(1) - 1;
                        let name = model::KIND_NAMES[kind as usize];
                        tally.fail(|| {
                            format!("{name} batch: expected {commits} commits of {n}, got {committed} + {aborted} aborts")
                        });
                    }
                }
                Err(e) => {
                    tally.failed += n - 1;
                    tally.fail(|| format!("batch: {e}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A workload ready to run: its clients plus the shared system under
/// test, when the clients do not own it.
pub enum Ready {
    /// `serial_prepared` / `durable_log`.
    Prepared(Vec<PreparedClient>, Option<PathBuf>),
    /// `adhoc_churn`.
    Adhoc(Vec<AdhocClient>),
    /// `concurrent_*`.
    Concurrent(Vec<SessionClient>, sut::ConcurrentShop),
    /// `served_batch`.
    Served(Vec<WireClient>, sut::Served),
}

/// What set-up measured besides its own duration.
#[derive(Debug, Clone, Copy)]
pub struct SetupStats {
    /// Wall time of schema + catalog + load + prepare (+ server start,
    /// + initial checkpoint).
    pub seconds: f64,
    /// `Engine::load` throughput.
    pub load: sut::LoadRate,
}

/// Streams of a workload with `clients` clients: the window is split
/// evenly, each stream owns its key range.
fn streams(w: Workload, seed: u64, sizes: &Sizes, clients: usize) -> Vec<Stream> {
    let per = sizes.window / clients as i64;
    (0..clients)
        .map(|c| {
            let s = Stream::new(seed, c as u64, per);
            if w == Workload::ConcurrentContended && c == 0 {
                s.with_reprice_every(9) // a tenth of session 0's operations
            } else {
                s
            }
        })
        .collect()
}

/// Run `ops` through the serial prepared path; an answer other than the
/// generator's expectation is an error.
fn run_expecting(shop: &mut Shop, stmts: &[Stmt], ops: &[Op], what: &str) -> sut::Result<()> {
    for op in ops {
        let v = stmts[op.kind as usize]
            .bind(&sut::params(&op.args))
            .and_then(|b| shop.execute_bound(&b))?;
        if v.committed != op.commit {
            return Err(format!("{what}: {op:?} answered commit={}", v.committed));
        }
    }
    Ok(())
}

/// Turn every stream's window over once, through the serial prepared path,
/// before the system is handed to the workload. Bulk-loaded rows sit
/// contiguously in memory and in tombstone-free hash tables; rows the
/// workload inserts do not, and a workload that answers 15 000 cycles a
/// second would need 7 s to replace a window of 100 000 — its rate drifts
/// down by a fifth until then. After one turnover every live row was
/// inserted the way the measured ones are. Returns the operations run, per
/// stream, when `keep` (a serial replay must start from the same state).
fn age(shop: &mut Shop, streams: &mut [Stream], keep: bool) -> sut::Result<Vec<Option<Vec<Op>>>> {
    let stmts = shop.prepare_all()?;
    let mut histories = Vec::new();
    for stream in streams {
        let mut history = keep.then(Vec::new);
        let mut left = stream.window() as usize;
        while left > 0 {
            let cycles = left.min(4_096);
            left -= cycles;
            let mut ops = Vec::with_capacity(cycles * 4);
            stream.extend(cycles, &mut ops);
            run_expecting(shop, &stmts, &ops, "ageing")?;
            if let Some(h) = &mut history {
                h.extend(ops);
            }
        }
        histories.push(history);
    }
    Ok(histories)
}

/// Directory of `durable_log`'s WAL and checkpoints, inside `out`.
pub fn wal_dir(out: &Path) -> PathBuf {
    out.join(format!("wal-{}", std::process::id()))
}

/// Build the whole system for `w`: schema, catalog, load, prepare, and
/// for the served and durable workloads the server start and the initial
/// checkpoint. `keep_history` makes clients remember their operations for
/// a serial replay.
pub fn setup(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    clients: usize,
    out: &Path,
    keep_history: bool,
) -> sut::Result<(Ready, SetupStats)> {
    let t0 = Instant::now();
    let (ready, load) = if w == Workload::AdhocChurn {
        let mut stream = AdhocStream::new(seed, sizes.adhoc_window);
        let (mut shop, load) = Shop::build(sizes, &[stream.preload()])?;
        age(&mut shop, std::slice::from_mut(stream.cycle_mut()), false)?;
        let live = shop.prepare_all()?;
        let client = AdhocClient {
            shop,
            live,
            stream,
            round: Vec::new(),
        };
        (Ready::Adhoc(vec![client]), load)
    } else {
        let mut streams = streams(w, seed, sizes, clients);
        let preloads: Vec<_> = streams.iter().map(Stream::preload).collect();
        let (mut shop, load) = Shop::build(sizes, &preloads)?;
        let mut aged = age(&mut shop, &mut streams, keep_history)?.into_iter();
        let mut history = || aged.next().flatten();
        // Several clients on one engine answer an order of magnitude
        // slower than one (conflicts, retries): shorter rounds keep the
        // round count of a phase comparable.
        let cycles = if clients > 1 {
            sizes.round_cycles / 4
        } else {
            sizes.round_cycles
        };
        let ready = match w {
            Workload::SerialPrepared | Workload::DurableLog => {
                let dir = (w == Workload::DurableLog).then(|| wal_dir(out));
                if let Some(dir) = &dir {
                    shop.make_durable(dir, Flush::Buffered)?;
                    shop.set_checkpoint_every(CHECKPOINT_EVERY);
                }
                let stmts = shop.prepare_all()?;
                let stream = streams.into_iter().next().expect("one stream");
                let client = PreparedClient {
                    shop,
                    stmts,
                    stream,
                    cycles,
                    round: Vec::new(),
                    history: history(),
                };
                Ready::Prepared(vec![client], dir)
            }
            Workload::ServedBatch => {
                let served = sut::Served::start(shop)?;
                let mut setup_conn = sut::Conn::connect(served.addr())?;
                // Statement ids are tenant-scoped: prepare once, share.
                let stmts: Vec<sut::WireStmt> = model::TEMPLATES[..3]
                    .iter()
                    .map(|t| setup_conn.prepare(t))
                    .collect::<sut::Result<_>>()?;
                let clients = streams
                    .into_iter()
                    .map(|stream| {
                        Ok(WireClient {
                            conn: sut::Conn::connect(served.addr())?,
                            stmts: stmts.clone(),
                            stream,
                            round: Vec::new(),
                            history: history(),
                        })
                    })
                    .collect::<sut::Result<_>>()?;
                Ready::Served(clients, served)
            }
            _ => {
                let engine = shop.into_concurrent();
                let stmts = engine.prepare_all()?;
                let clients = streams
                    .into_iter()
                    .map(|stream| SessionClient {
                        session: engine.client(&stmts),
                        stream,
                        cycles,
                        round: Vec::new(),
                        history: history(),
                    })
                    .collect();
                Ready::Concurrent(clients, engine)
            }
        };
        (ready, load)
    };
    Ok((
        ready,
        SetupStats {
            seconds: t0.elapsed().as_secs_f64(),
            load,
        },
    ))
}

impl Ready {
    /// Make client 0 expect the wrong verdict of its next operation — see
    /// [`Stream::flip_next_verdict`].
    pub fn flip_next_verdict(&mut self) {
        match self {
            Ready::Prepared(c, _) => c[0].stream.flip_next_verdict(),
            Ready::Adhoc(c) => c[0].stream.cycle_mut().flip_next_verdict(),
            Ready::Concurrent(c, _) => c[0].stream.flip_next_verdict(),
            Ready::Served(c, _) => c[0].stream.flip_next_verdict(),
        }
    }

    /// Release what set-up acquired (server threads, WAL directory).
    pub fn teardown(self) {
        match self {
            Ready::Served(clients, served) => {
                drop(clients);
                served.shutdown();
            }
            Ready::Prepared(clients, Some(dir)) => {
                drop(clients);
                let _ = std::fs::remove_dir_all(dir);
            }
            _ => {}
        }
    }

    /// Run one phase on this workload's clients.
    pub fn measure(
        &mut self,
        seconds: f64,
        warmup: f64,
        tracing: bool,
        gauge: &mut Gauges,
    ) -> Phase {
        match self {
            Ready::Prepared(c, _) => measure(c, seconds, warmup, tracing, || {}),
            Ready::Adhoc(c) => measure(c, seconds, warmup, tracing, || {}),
            Ready::Concurrent(c, engine) => {
                let engine = engine.clone();
                measure(c, seconds, warmup, tracing, || {
                    gauge.retained_deltas_max =
                        gauge.retained_deltas_max.max(engine.retained_deltas());
                })
            }
            Ready::Served(c, served) => {
                let served = &*served;
                measure(c, seconds, warmup, tracing, || {
                    gauge.retained_deltas_max =
                        gauge.retained_deltas_max.max(served.retained_deltas());
                })
            }
        }
    }
}

/// Gauges sampled between rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauges {
    /// Largest `ConcurrentEngine::retained_deltas()` seen.
    pub retained_deltas_max: usize,
}

// ---------------------------------------------------------------------------
// End-of-workload checks
// ---------------------------------------------------------------------------

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    got: T,
    want: T,
) {
    if got != want {
        let (got, want) = (format!("{got:?}"), format!("{want:?}"));
        let clip = |s: String| {
            if s.len() > 200 {
                format!("{}…", &s[..200])
            } else {
                s
            }
        };
        problems.push(format!(
            "{what}: got {}, model says {}",
            clip(got),
            clip(want)
        ));
    }
}

fn check_state(
    problems: &mut Vec<String>,
    state: &sut::Inspect<'_>,
    want: Cardinalities,
    item: Vec<Vec<i64>>,
    stock: Vec<Vec<i64>>,
) {
    match state.check_state() {
        Ok(violated) => expect_eq(problems, "Engine::check_state()", violated, Vec::new()),
        Err(e) => problems.push(format!("Engine::check_state(): {e}")),
    }
    for (rel, n) in [
        ("orders", want.orders),
        ("payments", want.payments),
        ("ledger", want.ledger),
    ] {
        match state.len(rel) {
            Ok(got) => expect_eq(problems, &format!("|{rel}|"), got, n),
            Err(e) => problems.push(format!("|{rel}|: {e}")),
        }
    }
    for (rel, rows) in [("item", item), ("stock", stock)] {
        match state.rows(rel) {
            Ok(got) => expect_eq(problems, rel, got, rows),
            Err(e) => problems.push(format!("{rel}: {e}")),
        }
    }
}

fn sum(cards: impl Iterator<Item = Cardinalities>) -> Cardinalities {
    cards.fold(Cardinalities::default(), |a, c| Cardinalities {
        orders: a.orders + c.orders,
        payments: a.payments + c.payments,
        ledger: a.ledger + c.ledger,
    })
}

/// Replay `histories` one after the other on a fresh serial engine and
/// return its state — what any serializable execution of streams over
/// disjoint keys must equal.
fn serial_replay(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    histories: &[&[Op]],
) -> sut::Result<sut::Snapshot> {
    let preloads: Vec<_> = streams(w, seed, sizes, histories.len())
        .iter()
        .map(Stream::preload)
        .collect();
    let (mut shop, _) = Shop::build(sizes, &preloads)?;
    let stmts = shop.prepare_all()?;
    for history in histories {
        run_expecting(&mut shop, &stmts, history, "serial replay")?;
    }
    Ok(shop.inspect().snapshot())
}

/// Check the final state of `ready` against the generators' models, and
/// (when histories were kept) against a serial replay. Returns every
/// discrepancy found; empty means correct.
pub fn verify(w: Workload, seed: u64, sizes: &Sizes, ready: &Ready) -> Vec<String> {
    let mut problems = Vec::new();
    let shared = |problems: &mut Vec<String>,
                  state: &sut::Inspect<'_>,
                  streams: Vec<&Stream>,
                  histories: Vec<Option<&Vec<Op>>>| {
        let item = streams[0].item_rows();
        check_state(
            problems,
            state,
            sum(streams.iter().map(|s| s.cardinalities())),
            item,
            model::stock_rows(),
        );
        if let Some(histories) = histories.into_iter().collect::<Option<Vec<_>>>() {
            let slices: Vec<&[Op]> = histories.iter().map(|h| h.as_slice()).collect();
            match serial_replay(w, seed, sizes, &slices) {
                Ok(replayed) => {
                    if !replayed.state_eq(&state.snapshot()) {
                        problems.push("final state differs from the serial replay".to_owned());
                    }
                }
                Err(e) => problems.push(e),
            }
        }
    };
    match ready {
        Ready::Prepared(clients, _) => {
            let c = &clients[0];
            shared(
                &mut problems,
                &c.shop.inspect(),
                vec![&c.stream],
                vec![c.history.as_ref()],
            );
        }
        Ready::Adhoc(clients) => {
            let c = &clients[0];
            check_state(
                &mut problems,
                &c.shop.inspect(),
                c.stream.cardinalities(),
                model::item_rows(),
                c.stream.stock_rows(),
            );
        }
        Ready::Concurrent(clients, engine) => engine.inspect(|state| {
            shared(
                &mut problems,
                state,
                clients.iter().map(|c| &c.stream).collect(),
                clients.iter().map(|c| c.history.as_ref()).collect(),
            )
        }),
        Ready::Served(clients, served) => served.inspect(|state| {
            shared(
                &mut problems,
                state,
                clients.iter().map(|c| &c.stream).collect(),
                clients.iter().map(|c| c.history.as_ref()).collect(),
            )
        }),
    }
    problems
}

/// What `durable_log` measures after its phase: the engine is dropped
/// without a checkpoint, recovered, and compared.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// `Engine::recover` wall time.
    pub recover_s: f64,
    /// WAL frames replayed.
    pub frames: u64,
    /// WAL bytes written since the engine became durable.
    pub wal_bytes: u64,
    /// Whether the recovered state is `state_eq` to the pre-drop state.
    pub state_eq: bool,
}

/// Drop the durable engine of `client` (no checkpoint), then time
/// `Engine::recover` and compare states. `before` is the counter reading
/// taken when measurement began.
pub fn crash_and_recover(
    client: PreparedClient,
    dir: &Path,
    before: &Counters,
) -> sut::Result<Recovery> {
    let pre = client.shop.inspect().snapshot();
    drop(client); // flushes the buffered tail, as a clean process exit does
    let wal_bytes = Counters::read().since(before).wal_bytes;
    let t0 = Instant::now();
    let (recovered, frames) = Shop::recover(dir)?;
    let recover_s = t0.elapsed().as_secs_f64();
    Ok(Recovery {
        recover_s,
        frames,
        wal_bytes,
        state_eq: recovered.inspect().snapshot().state_eq(&pre),
    })
}

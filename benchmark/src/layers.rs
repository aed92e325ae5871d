//! The depth ladder and the layer probes: per-layer costs taken from
//! outside, by timing calls into the product crates' public functions.
//!
//! The **ladder** runs one cycle stream (`new_order`, `pay`, `deliver`)
//! at six nesting depths, each on a copy-on-write clone of one seeded
//! engine — bare `Executor::execute_plan` → `Engine::execute_bound` →
//! `Session::execute_prepared` → one `ConcurrentSession` → loopback
//! `Client::execute` → `Client::execute_many`/256 — and reports each
//! depth's median per-transaction time. A layer's self time is the
//! difference to the depth below (clamped at zero: a difference inside
//! the clock's resolution is reported as none, not as a negative cost).
//!
//! The **probes** time the calls no ladder depth isolates: prepare,
//! `ModT` alone, catalog steps, parsing, a set-oriented transaction, the
//! wire codec, connection set-up, checkpoint, recovery, fsync.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::harness::Tally;
use crate::model::{self, AdhocOp, AdhocStream, Kind, Line, Op, Sizes, Stream};
use crate::stats::median;
use crate::sut::{self, Counters, Flush, Params, Shop, Stmt};
use crate::workloads::{self, Workload, BATCH};

/// Operations per timed chunk of a ladder depth (64 cycles).
const CHUNK: usize = 192;

/// The layer figures, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Per-transaction nanoseconds of each ladder depth, shallowest first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    /// Bare `Executor::execute_plan`.
    pub plan_ns: f64,
    /// `Prepared::bind` alone.
    pub bind_ns: f64,
    /// `Engine::execute_bound` (bind excluded).
    pub engine_ns: f64,
    /// `Session::execute_prepared`.
    pub session_ns: f64,
    /// One `ConcurrentSession`, `execute_with_retry`.
    pub concurrent_ns: f64,
    /// Loopback `Client::execute`.
    pub wire_ns: f64,
    /// Loopback `Client::execute_many` / 256, per transaction.
    pub batch_ns: f64,
}

fn median_or_zero(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Median per-operation time over the chunks of `ops`, after discarding
/// the first tenth (the clone's first writes unshare its relations).
/// `run` answers one chunk and returns how many operations it failed.
fn per_op_ns(
    ops: &[(Op, Params)],
    chunk: usize,
    failed: &mut u64,
    mut run: impl FnMut(&[(Op, Params)]) -> u64,
) -> f64 {
    let mut per_op = Vec::new();
    for c in ops.chunks(chunk) {
        let t = Instant::now();
        *failed += run(c);
        per_op.push(t.elapsed().as_nanos() as f64 / c.len() as f64);
    }
    let skip = per_op.len() / 10;
    median_or_zero(&per_op[skip.min(per_op.len().saturating_sub(1))..])
}

fn expect(op: &Op, got: sut::Result<bool>) -> u64 {
    u64::from(got != Ok(op.commit))
}

fn cycle_ops(seed: u64, window: i64, cycles: usize) -> Vec<(Op, Params)> {
    let mut ops = Vec::new();
    Stream::new(seed, 0, window).extend(cycles, &mut ops);
    workloads::with_params(ops)
}

/// Sizes of the files in `dir` other than the WAL — the checkpoint.
fn checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name() != sut::WAL_FILE)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Run the ladder and every probe; returns the layer figures and the
/// operations attempted / failed along the way.
pub fn run(seed: u64, sizes: &Sizes, out: &Path) -> sut::Result<(Layers, Tally)> {
    let mut m = Layers::new();
    let mut tally = Tally::default();
    let base_stream = Stream::new(seed, 0, sizes.window);
    let (base, load) = Shop::build(sizes, &[base_stream.preload()])?;
    m.insert(
        "relational.load_rows_per_s",
        load.rows as f64 * 1e9 / load.ns.max(1) as f64,
    );
    let stmts = base.prepare_all()?;
    let ops = cycle_ops(seed, sizes.window, sizes.ladder_cycles);
    let mut failed = 0u64;

    // ---- the ladder -------------------------------------------------------
    let mut ladder = Ladder::default();
    {
        let plans: Vec<sut::Plan> = stmts.iter().map(Stmt::plan).collect();
        m.insert(
            "algebra.fast_plans",
            plans[..3].iter().filter(|p| p.is_fast()).count() as f64,
        );
        let mut state = base.inspect().snapshot();
        ladder.plan_ns = per_op_ns(&ops, CHUNK, &mut failed, |c| {
            c.iter()
                .map(|(op, p)| expect(op, Ok(plans[op.kind as usize].execute(&mut state, p))))
                .sum()
        });
    }
    {
        // Depth 1 binds a whole chunk first, then executes it, so the two
        // calls are timed apart without a clock read per transaction.
        let mut shop = base.clone();
        let (mut bind, mut exec) = (Vec::new(), Vec::new());
        for c in ops.chunks(CHUNK) {
            let t0 = Instant::now();
            let bounds: Vec<_> = c
                .iter()
                .map(|(op, p)| stmts[op.kind as usize].bind(p))
                .collect();
            let t1 = Instant::now();
            for ((op, _), b) in c.iter().zip(bounds) {
                failed += expect(
                    op,
                    b.and_then(|b| shop.execute_bound(&b)).map(|v| v.committed),
                );
            }
            let t2 = Instant::now();
            bind.push((t1 - t0).as_nanos() as f64 / c.len() as f64);
            exec.push((t2 - t1).as_nanos() as f64 / c.len() as f64);
        }
        let skip = exec.len() / 10;
        ladder.bind_ns = median_or_zero(&bind[skip..]);
        ladder.engine_ns = median_or_zero(&exec[skip..]);
    }
    {
        let mut shop = base.clone();
        let mut session = shop.session(&model::TEMPLATES)?;
        ladder.session_ns = per_op_ns(&ops, CHUNK, &mut failed, |c| {
            c.iter()
                .map(|(op, p)| {
                    expect(
                        op,
                        session
                            .execute_prepared(op.kind as usize, p)
                            .map(|v| v.committed),
                    )
                })
                .sum()
        });
        let mut snap = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            let s = session.snapshot();
            snap.push(t.elapsed().as_nanos() as f64);
            drop(s);
        }
        m.insert("relational.snapshot_ns", median_or_zero(&snap));
    }
    {
        let engine = base.clone().into_concurrent();
        let mut client = engine.client(&stmts);
        ladder.concurrent_ns = per_op_ns(&ops, CHUNK, &mut failed, |c| {
            c.iter()
                .map(|(op, p)| {
                    expect(
                        op,
                        client
                            .execute_with_retry(op.kind as usize, p, 0)
                            .map(|(v, _)| v.committed),
                    )
                })
                .sum()
        });
    }
    {
        let served = sut::Served::start(base.clone())?;
        let mut connect = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            let c = sut::Conn::connect(served.addr())?;
            connect.push(t.elapsed().as_nanos() as f64 / 1e3);
            drop(c);
        }
        m.insert("server.connect_us", median_or_zero(&connect));
        let mut conn = sut::Conn::connect(served.addr())?;
        let mut prepare = Vec::new();
        let mut wire_stmts = Vec::new();
        for round in 0..5 {
            for t in &model::TEMPLATES[..3] {
                let t0 = Instant::now();
                let s = conn.prepare(t)?;
                prepare.push(t0.elapsed().as_nanos() as f64 / 1e3);
                if round == 0 {
                    wire_stmts.push(s);
                }
            }
        }
        m.insert("server.prepare_us", median_or_zero(&prepare));
        // One round trip per transaction is ~20× the in-process cost:
        // an eighth of the stream gives as many chunks as it needs.
        let (wire_ops, batch_ops) = ops.split_at(ops.len() / 8 / 3 * 3);
        ladder.wire_ns = per_op_ns(wire_ops, CHUNK / 4, &mut failed, |c| {
            c.iter()
                .map(|(op, p)| {
                    expect(
                        op,
                        conn.execute(wire_stmts[op.kind as usize], p, 0)
                            .map(|(v, _)| v.committed),
                    )
                })
                .sum()
        });
        // Batches of 256 per template, in cycle-preserving order.
        let mut per_tx = Vec::new();
        for c in batch_ops.chunks(BATCH * 3) {
            let batches = workloads::batches(c.iter().map(|(op, _)| op));
            let t = Instant::now();
            for (kind, batch, commits) in batches {
                let n = batch.len() as u64;
                match conn.execute_many(wire_stmts[kind as usize], batch) {
                    Ok((ok, bad)) if ok == commits && ok + bad == n => {}
                    _ => failed += 1,
                }
            }
            per_tx.push(t.elapsed().as_nanos() as f64 / c.len() as f64);
        }
        ladder.batch_ns = median_or_zero(&per_tx);
        let dump = conn.stats()?;
        let answered = sut::stat(&dump, "tx_committed") + sut::stat(&dump, "tx_aborted");
        let busy = sut::stat(&dump, "busy_rejected");
        m.insert("server.busy_ratio", busy / (busy + answered).max(1.0));
        m.insert("server.engine_p50_us", sut::stat(&dump, "latency_p50_us"));
        m.insert("server.engine_p99_us", sut::stat(&dump, "latency_p99_us"));
        drop(conn);
        served.shutdown();
    }
    tally.ops += 6 * ops.len() as u64;

    let gap = |deeper: f64, shallower: f64| (deeper - shallower).max(0.0);
    m.insert("algebra.exec_ns", ladder.plan_ns);
    m.insert("core.bind_ns", ladder.bind_ns);
    m.insert("core.engine_self_ns", gap(ladder.engine_ns, ladder.plan_ns));
    m.insert(
        "core.session_self_ns",
        gap(ladder.session_ns, ladder.engine_ns),
    );
    m.insert(
        "core.concurrent_self_ns",
        gap(ladder.concurrent_ns, ladder.engine_ns),
    );
    m.insert(
        "server.execute_self_ns",
        gap(ladder.wire_ns, ladder.concurrent_ns),
    );
    m.insert(
        "server.batch_self_ns_per_tx",
        gap(ladder.batch_ns, ladder.concurrent_ns),
    );
    for (name, ns) in [
        ("ladder.d0_plan_ns", ladder.plan_ns),
        ("ladder.d1_engine_ns", ladder.engine_ns),
        ("ladder.d2_session_ns", ladder.session_ns),
        ("ladder.d3_concurrent_ns", ladder.concurrent_ns),
        ("ladder.d4_wire_ns", ladder.wire_ns),
        ("ladder.d5_batch_ns", ladder.batch_ns),
    ] {
        m.insert(name, ns);
    }

    // ---- core probes ------------------------------------------------------
    // Commit vs abort of one `new_order`, on keys of a spare stream.
    {
        let spare = |bad: bool| {
            let lines = (0..)
                .map(|k| Line::of(seed, 900, k))
                .filter(|l| l.bad == bad);
            workloads::with_params(
                lines
                    .take(sizes.ladder_cycles.min(8192))
                    .map(|l| l.new_order())
                    .collect(),
            )
        };
        for (name, bad) in [("core.commit_tx_ns", false), ("core.abort_tx_ns", true)] {
            let mut shop = base.clone();
            let lines = spare(bad);
            tally.ops += lines.len() as u64;
            let ns = per_op_ns(&lines, CHUNK, &mut failed, |c| {
                c.iter()
                    .map(|(op, p)| {
                        expect(
                            op,
                            stmts[0]
                                .bind(p)
                                .and_then(|b| shop.execute_bound(&b))
                                .map(|v| v.committed),
                        )
                    })
                    .sum()
            });
            m.insert(name, ns);
        }
    }
    // Time inside the appended checks, as the engine itself measures it.
    {
        let mut shop = base.clone();
        shop.set_check_timing(true);
        let n = ops.len().min(CHUNK * 40);
        let mut check_ns = 0u64;
        for (op, p) in &ops[..n] {
            match stmts[op.kind as usize]
                .bind(p)
                .and_then(|b| shop.execute_bound(&b))
            {
                Ok(v) => {
                    check_ns += v.check_ns;
                    failed += u64::from(v.committed != op.commit);
                }
                Err(_) => failed += 1,
            }
        }
        tally.ops += n as u64;
        m.insert("core.check_ns_per_tx", check_ns as f64 / n as f64);
    }
    // Prepare, ModT alone, parse.
    {
        let parsed: Vec<sut::Parsed> = model::TEMPLATES[..3]
            .iter()
            .map(|t| sut::parse(t))
            .collect::<sut::Result<_>>()?;
        let mut prepare = Vec::new();
        for _ in 0..20 {
            for tx in &parsed {
                let t = Instant::now();
                let s = base.prepare_parsed(tx)?;
                prepare.push(t.elapsed().as_nanos() as f64 / 1e3);
                drop(s);
            }
        }
        m.insert("core.prepare_us", median_or_zero(&prepare));
        let line = Line::of(seed, 901, 0);
        let text = format!(
            "insert(orders, {{({}, {}, {}, {})}})",
            line.id,
            line.item % model::ITEMS_ORDERED,
            line.price,
            line.qty
        );
        let ground = sut::parse(&text)?;
        let (mut modify, mut parse) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            let t = Instant::now();
            base.modify_only(&ground)?;
            modify.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..40 {
                std::hint::black_box(sut::parse(std::hint::black_box(&text))?);
            }
            parse.push(t.elapsed().as_nanos() as f64 / 40.0);
        }
        m.insert("core.modify_only_us", median_or_zero(&modify));
        m.insert("algebra.parse_ns", median_or_zero(&parse));
        let t = Instant::now();
        std::hint::black_box(base.validate_full());
        m.insert(
            "analyze.validate_full_ms",
            t.elapsed().as_nanos() as f64 / 1e6,
        );
    }
    // Catalog steps, and how many live statements each one stales.
    {
        let mut shop = base.clone();
        let (name, cl) = model::CHURN_CONSTRAINT;
        let (mut define, mut remove) = (Vec::new(), Vec::new());
        let mut remodified = 0u64;
        let steps = 10;
        for step in 0..steps {
            let t = Instant::now();
            if step % 2 == 0 {
                shop.define_constraint(name, cl)?;
                define.push(t.elapsed().as_nanos() as f64 / 1e3);
            } else {
                shop.remove_rule(name)?;
                remove.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            // One cycle on a spare key through the (now stale) statements:
            // each must be re-modified for its call.
            let line = (0..)
                .map(|k| Line::of(seed, 902, step * 64 + k))
                .find(|l| !l.bad)
                .expect("a good line");
            for op in [line.new_order(), line.pay(), line.deliver()] {
                let v = stmts[op.kind as usize]
                    .bind(&sut::params(&op.args))
                    .and_then(|b| shop.execute_bound(&b))?;
                remodified += u64::from(!v.reused_plan);
                failed += u64::from(!v.committed);
                tally.ops += 1;
            }
        }
        m.insert("core.define_constraint_us", median_or_zero(&define));
        m.insert("core.remove_rule_us", median_or_zero(&remove));
        m.insert("core.remodified_per_ddl", remodified as f64 / steps as f64);
    }
    // A set-oriented transaction through the generic evaluator.
    {
        let mut shop = base.clone();
        let mut gen = AdhocStream::new(seed, sizes.window);
        let mut all = Vec::new();
        gen.extend(model::SET_EVERY * 40, &mut all);
        let mut us = Vec::new();
        for op in &all {
            if let AdhocOp::Tx {
                name: "set_oriented",
                text,
                commit,
            } = op
            {
                let tx = sut::parse(text)?;
                let t = Instant::now();
                let v = shop.execute(&tx);
                us.push(t.elapsed().as_nanos() as f64 / 1e3);
                failed += u64::from(v.map(|v| v.committed) != Ok(*commit));
                tally.ops += 1;
            }
        }
        m.insert("algebra.generic_tx_us", median_or_zero(&us));
    }
    // The wire codec alone.
    {
        let mut scratch = Vec::new();
        let p = &ops[0].1;
        let mut ns = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..200 {
                std::hint::black_box(sut::codec_round_trip(
                    std::hint::black_box(p),
                    &mut scratch,
                )?);
            }
            ns.push(t.elapsed().as_nanos() as f64 / 200.0);
        }
        m.insert("server.codec_ns", median_or_zero(&ns));
    }

    // ---- durability probes -----------------------------------------------
    {
        let dir = out.join(format!("wal-probe-{}", std::process::id()));
        let probe = durable_probe(
            &base,
            &stmts,
            &ops,
            ladder.engine_ns,
            &dir,
            &mut m,
            &mut tally,
            &mut failed,
        );
        let _ = std::fs::remove_dir_all(&dir);
        probe?;
    }

    // ---- scaling: T disjoint sessions against one -------------------------
    {
        let t = workloads::available_clients();
        let mut rate = |w: Workload, clients: usize| -> sut::Result<f64> {
            let (mut ready, _) = workloads::setup(w, seed, sizes, clients, out, false)?;
            let phase = ready.measure(0.4, 0.1, false, &mut workloads::Gauges::default());
            tally.ops += phase.tally.ops;
            failed += phase.tally.failed;
            failed += workloads::verify(w, seed, sizes, &ready).len() as u64;
            ready.teardown();
            Ok(median_or_zero(&crate::stats::segment_rates(&phase.rounds)))
        };
        let single = rate(Workload::ConcurrentSingle, 1)?;
        let disjoint = rate(Workload::ConcurrentDisjoint, t)?;
        m.insert("core.scaling_ratio", disjoint / single.max(1.0));
    }

    tally.failed += failed;
    if failed > 0 {
        tally
            .errors
            .push(format!("{failed} ladder/probe operations answered wrongly"));
    }
    Ok((m, tally))
}

/// Buffered logging against the in-memory engine on the ladder stream,
/// automatic and explicit checkpoints, crash + recovery, and a short
/// `Fsync`/group-8 segment (the sandbox's disk — informational).
#[allow(clippy::too_many_arguments)]
fn durable_probe(
    base: &Shop,
    stmts: &[Stmt],
    ops: &[(Op, Params)],
    memory_ns: f64,
    dir: &Path,
    m: &mut Layers,
    tally: &mut Tally,
    failed: &mut u64,
) -> sut::Result<()> {
    // Answer one operation; returns whether it committed.
    let run_one = |shop: &mut Shop, op: &Op, p: &Params, failed: &mut u64| -> bool {
        let v = stmts[op.kind as usize]
            .bind(p)
            .and_then(|b| shop.execute_bound(&b));
        let committed = matches!(v, Ok(v) if v.committed);
        *failed += u64::from(v.map(|v| v.committed) != Ok(op.commit));
        committed
    };
    // Every committed good cycle logs 16 integers of user data: the order
    // row (4), the payment and its mirror (2 + 2), and their deletions.
    let user_bytes = |ops: &[(Op, Params)]| -> u64 {
        ops.iter()
            .filter(|(op, _)| op.commit && (op.kind != Kind::Deliver || op.args[1] > 0))
            .map(|(op, _)| match op.kind {
                Kind::NewOrder => 4 * 8,
                Kind::Pay => 4 * 8,
                Kind::Deliver => 8 * 8,
                Kind::Reprice => 4 * 8,
            })
            .sum()
    };

    // Three parts of the ladder stream: without automatic checkpoints
    // (the cost of logging alone), with them (the stalls), and — after an
    // explicit checkpoint — a tail that only the WAL covers. WAL bytes are
    // counted over the tail: a checkpoint discards frames still buffered,
    // so only a stretch that ends in the drop's flush counts them all.
    let third = ops.len() / 9 * 3;
    let (plain, rest) = ops.split_at(third);
    let (stalled, tail) = rest.split_at(third);
    let mut shop = base.clone();
    shop.make_durable(dir, Flush::Buffered)?;
    let durable_ns = per_op_ns(plain, CHUNK, failed, |c| {
        let mut wrong = 0;
        for (op, p) in c {
            run_one(&mut shop, op, p, &mut wrong);
        }
        wrong
    });
    m.insert("durable.commit_self_ns", (durable_ns - memory_ns).max(0.0));

    let every = (stalled.len() as u64 / 4).max(1);
    let lsn0 = shop.durable_lsn().unwrap_or(0);
    shop.set_checkpoint_every(every);
    let mut stall_max = 0u64;
    let mut last = Instant::now();
    for (op, p) in stalled {
        run_one(&mut shop, op, p, failed);
        let now = Instant::now();
        stall_max = stall_max.max((now - last).as_nanos() as u64);
        last = now;
    }
    shop.set_checkpoint_every(0);
    if let Some(e) = shop.take_checkpoint_error() {
        return Err(format!("automatic checkpoint failed: {e}"));
    }
    m.insert("durable.stall_max_us", stall_max as f64 / 1e3);
    m.insert(
        "durable.checkpoints",
        ((shop.durable_lsn().unwrap_or(0) - lsn0) / every) as f64,
    );

    let t = Instant::now();
    shop.checkpoint()?;
    m.insert("durable.checkpoint_ms", t.elapsed().as_nanos() as f64 / 1e6);
    m.insert("durable.checkpoint_bytes", checkpoint_bytes(dir) as f64);

    let c0 = Counters::read();
    let mut commits = 0u64;
    for (op, p) in tail {
        commits += u64::from(run_one(&mut shop, op, p, failed));
    }
    let pre = shop.inspect().snapshot();
    drop(shop); // no checkpoint: the buffered tail is flushed, as at a clean exit
    let wal = Counters::read().since(&c0);
    m.insert(
        "durable.wal_bytes_per_tx",
        wal.wal_bytes as f64 / commits.max(1) as f64,
    );
    m.insert(
        "durable.wal_bytes_per_user_byte",
        wal.wal_bytes as f64 / user_bytes(tail).max(1) as f64,
    );
    let t = Instant::now();
    let (recovered, frames) = Shop::recover(dir)?;
    let recover_ns = t.elapsed().as_nanos() as f64;
    m.insert("durable.recover_ms", recover_ns / 1e6);
    m.insert(
        "durable.recover_ns_per_frame",
        recover_ns / frames.max(1) as f64,
    );
    if !recovered.inspect().snapshot().state_eq(&pre) {
        *failed += 1;
        tally
            .errors
            .push("durable probe: recovered state differs from the pre-crash state".to_owned());
    }
    drop(recovered);
    tally.ops += ops.len() as u64;

    // Fsync, group commit of 8, about 2 000 transactions.
    let mut shop = base.clone();
    shop.make_durable(dir, Flush::FsyncGroup(8))?;
    let segment = &ops[..ops.len().min(2_001)];
    let c0 = Counters::read();
    let t = Instant::now();
    let mut commits = 0u64;
    for (op, p) in segment {
        commits += u64::from(run_one(&mut shop, op, p, failed));
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let fsyncs = Counters::read().since(&c0).wal_fsyncs;
    tally.ops += segment.len() as u64;
    m.insert(
        "durable.fsyncs_per_tx",
        fsyncs as f64 / commits.max(1) as f64,
    );
    m.insert("durable.fsync_us", elapsed / 1e3 / fsyncs.max(1) as f64);
    Ok(())
}

//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction, and — for layer metrics — the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names; a
//! self-test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// What it is.
    pub what: &'static str,
}

/// The end-to-end metrics every workload reports (`--trace 0`).
///
/// The bounds are the widest the run contract allows, not ISSUE 11's tenth,
/// because they have to hold on a shared 2-core microVM whose own speed
/// drifts: one binary on one seed measured 589 000–695 000 tx/s on
/// `serial_prepared` over twelve back-to-back runs, and 4-second windows
/// of a single 48-second run ranged over 18 %. Over two back-to-back
/// sweeps of ten seeds the run-to-run spread (inter-quartile range over
/// median) of any workload stayed under 8 % for every metric, and a bound
/// has to clear the spread with room to spare or every comparison is
/// `unresolved`. The 99th percentile of the request time moved by up to
/// 28 % and is therefore a per-layer figure (`lat_p99_us`), reported but
/// not bounded.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "tx_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "answered transactions (commit or expected integrity abort) per measured second, \
               all clients together; the median of five equal-count segments",
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median client-observed time per request",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "schema + catalog + load + prepare (+ server start, + initial checkpoint); \
               built three times per run, the median",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process",
    },
];

/// End-to-end metrics only `durable_log` has. The run contract wants every
/// `end_to_end` metric of `BENCHMARK.json` from every workload, so these
/// two are listed there under `per_layer` (as `durable.recover_ms` and
/// `durable.wal_bytes_per_tx`, from the durability probe) and reported
/// here from the workload itself; `compare` applies these bounds.
pub const DURABLE_ONLY: [EndToEnd; 2] = [
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        what: "Engine::recover wall time after the engine was dropped without a checkpoint",
    },
    EndToEnd {
        name: "wal_bytes_per_tx",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        what: "WAL bytes per committed transaction — a count, exact for a given op count",
    },
];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name, prefixed by the crate it observes.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is measured.
    pub how: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

use Better::{Higher, Lower};

const SERIAL: &str = "tx_per_s on serial_prepared (≈ their sum); < 1/10 of that on served_batch";
const SINGLE: &str = "tx_per_s on concurrent_single (explains its gap to serial_prepared); nothing on serial_prepared";
const CONC: &str = "tx_per_s on concurrent_contended, peak_rss_mb on all concurrent_*";
const ADHOC: &str =
    "tx_per_s and lat_p99_us on adhoc_churn; setup_s everywhere; no change on serial_prepared";
const SERVED: &str = "tx_per_s and lat_p50_us on served_batch";
const DURABLE: &str =
    "tx_per_s, lat_p99_us, recover_s, wal_bytes_per_tx on durable_log; nothing elsewhere";
const TRUST: &str = "none — bounds how far the per-layer numbers can be trusted";

/// The per-layer metrics every workload reports (`--trace 1`). Most come
/// from the ladder and the probes and are the same procedure whichever
/// workload ran; those marked *this workload* come from its traced pass.
pub const PER_LAYER: [Layer; 63] = [
    layer(
        "algebra.exec_ns",
        "ns",
        Lower,
        "ladder depth 0: bare Executor::execute_plan, median per tx",
        SERIAL,
    ),
    layer(
        "algebra.fast_plans",
        "count",
        Higher,
        "cycle templates whose modified plan ExecPlan::is_fast()",
        SERIAL,
    ),
    layer(
        "core.bind_ns",
        "ns",
        Lower,
        "ladder depth 1: Prepared::bind alone",
        SERIAL,
    ),
    layer(
        "core.engine_self_ns",
        "ns",
        Lower,
        "ladder depth 1 − depth 0: Engine::execute_bound over the bare plan",
        SERIAL,
    ),
    layer(
        "core.check_ns_per_tx",
        "ns",
        Lower,
        "Σ EngineOutcome::check_times_ns per tx with Engine::set_check_timing",
        SERIAL,
    ),
    layer(
        "core.commit_tx_ns",
        "ns",
        Lower,
        "execute_bound of committing new_orders, median per tx",
        SERIAL,
    ),
    layer(
        "core.abort_tx_ns",
        "ns",
        Lower,
        "execute_bound of aborting new_orders (rollback), median per tx",
        SERIAL,
    ),
    layer(
        "relational.unshares_per_tx",
        "count",
        Lower,
        "this workload: tm_relational::unshare_count() delta per tx",
        SERIAL,
    ),
    layer(
        "core.session_self_ns",
        "ns",
        Lower,
        "ladder depth 2 − depth 1: Session::execute_prepared",
        SINGLE,
    ),
    layer(
        "core.concurrent_self_ns",
        "ns",
        Lower,
        "ladder depth 3 − depth 1: one ConcurrentSession",
        SINGLE,
    ),
    layer(
        "relational.snapshot_ns",
        "ns",
        Lower,
        "Session::snapshot(): a COW clone of the database",
        SINGLE,
    ),
    layer(
        "core.conflict_retries_per_tx",
        "count",
        Lower,
        "this workload: execute_with_retry retries (served: Stats conflict_retries) per tx",
        CONC,
    ),
    layer(
        "core.commit_per_attempt",
        "ratio",
        Higher,
        "this workload: tx / (tx + retries)",
        CONC,
    ),
    layer(
        "core.retained_deltas_max",
        "count",
        Lower,
        "this workload: max ConcurrentEngine::retained_deltas() between rounds",
        CONC,
    ),
    layer(
        "core.scaling_ratio",
        "ratio",
        Higher,
        "tx_per_s of T disjoint sessions / one session, 0.4 s each",
        CONC,
    ),
    layer(
        "core.prepare_us",
        "us",
        Lower,
        "Engine::prepare of a cycle template",
        ADHOC,
    ),
    layer(
        "core.modify_only_us",
        "us",
        Lower,
        "Engine::modify_only of a ground new_order",
        ADHOC,
    ),
    layer(
        "core.define_constraint_us",
        "us",
        Lower,
        "Engine::define_constraint of the churn constraint",
        ADHOC,
    ),
    layer(
        "core.remove_rule_us",
        "us",
        Lower,
        "Engine::remove_rule of the churn constraint",
        ADHOC,
    ),
    layer(
        "core.remodified_per_ddl",
        "count",
        Lower,
        "stale live statements re-modified per catalog step (reused_plan = false)",
        ADHOC,
    ),
    layer(
        "core.checks_skipped_per_tx",
        "count",
        Higher,
        "this workload: EngineOutcome::checks.skipped per tx",
        ADHOC,
    ),
    layer(
        "core.checks_probed_per_tx",
        "count",
        Higher,
        "this workload: EngineOutcome::checks.probed per tx",
        ADHOC,
    ),
    layer(
        "core.checks_evaluated_per_tx",
        "count",
        Lower,
        "this workload: EngineOutcome::checks.evaluated per tx",
        ADHOC,
    ),
    layer(
        "algebra.parse_ns",
        "ns",
        Lower,
        "parse_program of a ground new_order",
        ADHOC,
    ),
    layer(
        "algebra.generic_tx_us",
        "us",
        Lower,
        "Engine::execute of a set-oriented transaction",
        ADHOC,
    ),
    layer(
        "analyze.validate_full_ms",
        "ms",
        Lower,
        "Engine::validate_full()",
        ADHOC,
    ),
    layer(
        "relational.load_rows_per_s",
        "1/s",
        Higher,
        "Engine::load while the ladder's engine was built",
        ADHOC,
    ),
    layer(
        "server.codec_ns",
        "ns",
        Lower,
        "Request::encode+decode and Response::encode+decode of one Execute, no socket",
        SERVED,
    ),
    layer(
        "server.execute_self_ns",
        "ns",
        Lower,
        "ladder depth 4 − depth 3: loopback Client::execute",
        SERVED,
    ),
    layer(
        "server.batch_self_ns_per_tx",
        "ns",
        Lower,
        "ladder depth 5 − depth 3: Client::execute_many / 256",
        SERVED,
    ),
    layer(
        "server.connect_us",
        "us",
        Lower,
        "Client::connect (TCP + Hello)",
        SERVED,
    ),
    layer("server.prepare_us", "us", Lower, "Client::prepare", SERVED),
    layer(
        "server.busy_ratio",
        "ratio",
        Lower,
        "Stats busy_rejected / requests on the ladder's server",
        SERVED,
    ),
    layer(
        "server.engine_p50_us",
        "us",
        Lower,
        "Stats latency_p50_us: engine time, wire excluded",
        SERVED,
    ),
    layer(
        "server.engine_p99_us",
        "us",
        Lower,
        "Stats latency_p99_us",
        SERVED,
    ),
    layer(
        "durable.commit_self_ns",
        "ns",
        Lower,
        "Buffered durable execute_bound − in-memory, ladder stream",
        DURABLE,
    ),
    layer(
        "durable.checkpoint_ms",
        "ms",
        Lower,
        "Engine::checkpoint()",
        DURABLE,
    ),
    layer(
        "durable.checkpoint_bytes",
        "B",
        Lower,
        "size of the checkpoint file",
        DURABLE,
    ),
    layer(
        "durable.checkpoints",
        "count",
        Lower,
        "automatic checkpoints during the probe",
        DURABLE,
    ),
    layer(
        "durable.stall_max_us",
        "us",
        Lower,
        "longest single execute_bound in the probe (an auto-checkpoint)",
        DURABLE,
    ),
    layer(
        "durable.recover_ms",
        "ms",
        Lower,
        "Engine::recover after a drop without checkpoint",
        DURABLE,
    ),
    layer(
        "durable.recover_ns_per_frame",
        "ns",
        Lower,
        "recover wall time / WAL frames replayed",
        DURABLE,
    ),
    layer(
        "durable.wal_bytes_per_tx",
        "B",
        Lower,
        "tm_durable::wal_bytes_written() delta per committed tx",
        DURABLE,
    ),
    layer(
        "durable.wal_bytes_per_user_byte",
        "ratio",
        Lower,
        "WAL bytes / 8 B per integer logged",
        DURABLE,
    ),
    layer(
        "durable.fsyncs_per_tx",
        "count",
        Lower,
        "tm_durable::wal_fsyncs() delta per committed tx, Fsync/group-8, 2 000 tx",
        DURABLE,
    ),
    layer(
        "durable.fsync_us",
        "us",
        Lower,
        "Fsync segment wall time / fsyncs (the sandbox's disk)",
        DURABLE,
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "this workload: untraced / traced tx_per_s",
        TRUST,
    ),
    layer(
        "trace.coverage_ratio",
        "ratio",
        Higher,
        "this workload: Σ span self time / (sampled tx × untraced mean time per tx)",
        TRUST,
    ),
    layer(
        "trace.spans",
        "count",
        Higher,
        "this workload: spans recorded in the traced pass",
        TRUST,
    ),
    layer(
        "trace.self.bind_ns",
        "ns",
        Lower,
        "this workload: mean self time of core.bind spans",
        SERIAL,
    ),
    layer(
        "trace.self.execute_bound_ns",
        "ns",
        Lower,
        "this workload: mean self time of core.execute_bound spans",
        SERIAL,
    ),
    layer(
        "trace.self.execute_with_retry_ns",
        "ns",
        Lower,
        "this workload: mean self time of core.execute_with_retry spans",
        CONC,
    ),
    layer(
        "trace.self.parse_ns",
        "ns",
        Lower,
        "this workload: mean self time of algebra.parse spans",
        ADHOC,
    ),
    layer(
        "trace.self.execute_ns",
        "ns",
        Lower,
        "this workload: mean self time of core.execute spans",
        ADHOC,
    ),
    layer(
        "trace.self.execute_many_ns",
        "ns",
        Lower,
        "this workload: mean self time of server.execute_many spans",
        SERVED,
    ),
    layer(
        "bench.gen_ns_per_binding",
        "ns",
        Lower,
        "this workload: generator time per binding, outside the clock",
        TRUST,
    ),
    layer(
        "ladder.d0_plan_ns",
        "ns",
        Lower,
        "ladder depth 0, median per tx",
        SERIAL,
    ),
    layer(
        "ladder.d1_engine_ns",
        "ns",
        Lower,
        "ladder depth 1 (bind excluded)",
        SERIAL,
    ),
    layer(
        "ladder.d2_session_ns",
        "ns",
        Lower,
        "ladder depth 2",
        SINGLE,
    ),
    layer(
        "ladder.d3_concurrent_ns",
        "ns",
        Lower,
        "ladder depth 3",
        SINGLE,
    ),
    layer("ladder.d4_wire_ns", "ns", Lower, "ladder depth 4", SERVED),
    layer(
        "ladder.d5_batch_ns",
        "ns",
        Lower,
        "ladder depth 5, per tx",
        SERVED,
    ),
    layer(
        "lat_p99_us",
        "us",
        Lower,
        "this workload: 99th percentile of the client-observed request time, untraced pass, median segment",
        "none — reported, not bounded: it moves by 10–28 % between runs of one commit",
    ),
];

/// Why each workload exists — the `why` of `BENCHMARK.json`.
pub const WORKLOAD_WHY: [(&str, &str); 7] = [
    ("serial_prepared", "bind + execute_bound in memory: the executors and COW do all the work; the floor every other workload is compared to"),
    ("adhoc_churn", "text parsed and modified per op, set-oriented transactions, catalog churn: bypasses the plan cache and point probes"),
    ("concurrent_single", "the same stream through one ConcurrentSession: the uncontended cost of refresh, validation and commit hand-off"),
    ("concurrent_disjoint", "T sessions on disjoint keys: other sessions' deltas are rolled forward and validated; is N threads slower than 1"),
    ("concurrent_contended", "T sessions while session 0 re-prices item rows every order reads: the conflict and retry path carries traffic"),
    ("served_batch", "loopback server, T connections, ExecuteMany of 256: tenant and wire plumbing amortised over a batch"),
    ("durable_log", "execute_bound on a Buffered durable engine with auto-checkpoints, then drop and recover: record encode, append, stalls"),
];

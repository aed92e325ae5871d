//! Running one workload in this process: the end-to-end pass
//! (`--trace 0`) or the traced pass with the ladder and the probes
//! (`--trace 1`), and the result object either produces.

use std::path::PathBuf;
use std::process::Command;

use crate::harness::{Phase, Tally};
use crate::json::{obj, Json};
use crate::layers;
use crate::metrics::{DURABLE_ONLY, END_TO_END, PER_LAYER};
use crate::model::Sizes;
use crate::stats::{median, segment_quantiles, segment_rates};
use crate::sut::Counters;
use crate::workloads::{self, Gauges, Ready, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced pass + ladder + probes instead of the end-to-end pass.
    pub trace: bool,
    /// 1/50 sizes, histories kept and replayed serially. Never reported.
    pub smoke: bool,
    /// Directory for traces, results and the WAL.
    pub out: PathBuf,
    /// Expect the wrong verdict of one operation: the run must then report
    /// exactly one failure. The self-test that answers are checked.
    pub flip_verdict: bool,
}

/// How many times set-up is built in an end-to-end run.
const SETUPS: usize = 3;

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Everything: metrics, environment, counts, segment rates.
    pub detail: Json,
    /// The contract's last line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub line: Json,
    /// Whether every answer and every end-of-workload check was right.
    pub correct: bool,
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

/// `VmHWM` of this process in MB; 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The environment a number must never be quoted without.
pub fn environment(cfg: &Config, clients: usize) -> Json {
    obj([
        ("nproc", workloads::nproc().into()),
        ("clients", clients.into()),
        ("threads", clients.into()),
        (
            "connections",
            if cfg.workload == Workload::ServedBatch {
                clients
            } else {
                0
            }
            .into(),
        ),
        // Only where the command runs at a repository's root: elsewhere git
        // would search the directories above for one.
        (
            "commit",
            if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_owned()
            }
            .into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("smoke", cfg.smoke.into()),
        (
            "load",
            "closed loop: each client sends its next request when the previous one is answered"
                .into(),
        ),
    ])
}

fn rate(phase: &Phase) -> (f64, Vec<f64>) {
    let rates = segment_rates(&phase.rounds);
    (median(&rates).unwrap_or(0.0), rates)
}

/// The `q`-quantile of the request latencies of each segment of `phase`,
/// microseconds; the median segment is reported, as for the rate.
fn latency_us(phase: &Phase, q: f64) -> f64 {
    let per_segment: Vec<f64> = segment_quantiles(&phase.tally.lat, phase.rounds.len(), q)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&per_segment).unwrap_or(0.0)
}

fn counts(tally: &Tally, phase_rounds: usize) -> Json {
    obj([
        ("ops_attempted", tally.ops.into()),
        ("ops_failed", tally.failed.into()),
        ("conflict_retries", tally.retries.into()),
        ("measured_rounds", phase_rounds.into()),
        ("latency_samples", tally.lat.len().into()),
    ])
}

/// Run `cfg` and build its result.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = if cfg.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let clients = cfg.workload.clients(workloads::available_clients());
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    if cfg.trace {
        traced(cfg, &sizes, clients)
    } else {
        end_to_end(cfg, &sizes, clients)
    }
}

fn setup(
    cfg: &Config,
    sizes: &Sizes,
    clients: usize,
) -> Result<(Ready, workloads::SetupStats), String> {
    workloads::setup(cfg.workload, cfg.seed, sizes, clients, &cfg.out, cfg.smoke)
}

fn end_to_end(cfg: &Config, sizes: &Sizes, clients: usize) -> Result<Outcome, String> {
    let (mut ready, first) = setup(cfg, sizes, clients)?;
    if cfg.flip_verdict {
        ready.flip_next_verdict();
    }
    let before = Counters::read();
    let mut gauges = Gauges::default();
    let phase = ready.measure(cfg.seconds, cfg.seconds / 10.0, false, &mut gauges);
    // Before the end-of-workload checks and the recovery: what those
    // allocate depends on where the run happened to stop.
    let peak_rss = peak_rss_mb();
    let mut problems = workloads::verify(cfg.workload, cfg.seed, sizes, &ready);

    // durable_log: drop without a checkpoint, recover, compare.
    let recovery = match &mut ready {
        Ready::Prepared(clients, Some(dir)) => {
            let client = clients.pop().expect("one client");
            Some(workloads::crash_and_recover(client, dir, &before))
        }
        _ => None,
    };
    ready.teardown();
    // Set-up is a metric of its own, so work moved into it shows: build it
    // SETUPS times and report the median. The workload ran on the first, so
    // `peak_rss_mb` is that of a process that set up once; the others are
    // built here, after it was read.
    let mut setups = vec![first.seconds];
    for _ in 1..SETUPS {
        let (again, stats) = setup(cfg, sizes, clients)?;
        setups.push(stats.seconds);
        again.teardown();
    }
    let mut extra = Vec::new();
    if let Some(r) = recovery.transpose()? {
        if !r.state_eq {
            problems.push("recovered state is not state_eq to the pre-drop state".to_owned());
        }
        let per_tx = r.wal_bytes as f64 / phase.tally.committed.max(1) as f64;
        extra = vec![
            ("recover_s", metric(r.recover_s, "s")),
            ("wal_bytes_per_tx", metric(per_tx, "B")),
            ("wal_frames_replayed", metric(r.frames as f64, "count")),
            ("wal_bytes", metric(r.wal_bytes as f64, "B")),
        ];
    }

    let (tx_per_s, rates) = rate(&phase);
    let us = |q: f64| latency_us(&phase, q);
    let values = [tx_per_s, us(0.5), median(&setups).unwrap_or(0.0), peak_rss];
    let metrics = Json::Obj(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_owned(), metric(v, m.unit)))
            .collect(),
    );
    let failed = phase.tally.failed + problems.len() as u64;
    let correct = failed == 0;
    let line = obj([
        ("correct", correct.into()),
        ("attempted", phase.tally.ops.max(1).into()),
        ("failed", failed.into()),
        ("metrics", metrics.clone()),
    ]);
    let detail = obj([
        ("workload", cfg.workload.name().into()),
        ("trace", false.into()),
        ("correct", correct.into()),
        ("metrics", metrics),
        (
            "durable_only",
            Json::Obj(extra.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()),
        ),
        ("segment_rates_per_s", rates.into()),
        (
            "round_ops",
            phase.rounds.first().map_or(0, |r| r.ops).into(),
        ),
        (
            "round_ns",
            phase.rounds.iter().map(|r| r.ns).collect::<Vec<_>>().into(),
        ),
        ("setup_seconds", setups.into()),
        ("latency_request", cfg.workload.request().into()),
        ("retained_deltas_max", gauges.retained_deltas_max.into()),
        // Reported, not bounded: see `metrics::END_TO_END`.
        ("lat_p99_us", metric(us(0.99), "us")),
        ("peak_rss_mb_at_exit", peak_rss_mb().into()),
        ("counts", counts(&phase.tally, phase.rounds.len())),
        ("errors", phase.tally.errors.clone().into()),
        ("problems", problems.into()),
        ("environment", environment(cfg, clients)),
    ]);
    Ok(Outcome {
        detail,
        line,
        correct,
    })
}

fn traced(cfg: &Config, sizes: &Sizes, clients: usize) -> Result<Outcome, String> {
    let (mut ready, _) = setup(cfg, sizes, clients)?;
    let mut gauges = Gauges::default();
    // A quarter-length pass with tracing off, then one with tracing on, on
    // the same clients: their ratio is the tracing overhead.
    let quarter = cfg.seconds / 4.0;
    let c0 = Counters::read();
    let plain = ready.measure(quarter, quarter / 5.0, false, &mut gauges);
    let with_trace = ready.measure(quarter, 0.0, true, &mut gauges);
    let c2 = Counters::read();
    let served_stats = match &ready {
        Ready::Served(_, served) => Some(served_dump(served)?),
        _ => None,
    };
    let mut problems = workloads::verify(cfg.workload, cfg.seed, sizes, &ready);
    ready.teardown();

    let trace_path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
    with_trace
        .trace
        .write_jsonl(&trace_path, cfg.workload.name())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let (plain_rate, plain_rates) = rate(&plain);
    let (traced_rate, traced_rates) = rate(&with_trace);
    let (mut m, ladder_tally) = layers::run(cfg.seed, sizes, &cfg.out)?;

    // ---- this workload's own layer figures ----------------------------
    let ops = (plain.tally.ops + with_trace.tally.ops).max(1) as f64;
    m.insert(
        "relational.unshares_per_tx",
        c2.since(&c0).unshares as f64 / ops,
    );
    m.insert(
        "core.retained_deltas_max",
        gauges.retained_deltas_max as f64,
    );
    let sum = |f: fn(&Tally) -> u64| (f(&plain.tally) + f(&with_trace.tally)) as f64;
    // `(answered, retries, [skipped, probed, evaluated], transactions the
    // check counts cover)`.
    let (answered, retries, checks, counted) = match &served_stats {
        // The batch reply carries counts only; the server's own sink has
        // the rest.
        Some(dump) => {
            let stat = |key: &str| crate::sut::stat(dump, key);
            let answered = (stat("tx_committed") + stat("tx_aborted")).max(1.0);
            let checks = ["checks_skipped", "checks_probed", "checks_evaluated"].map(stat);
            (answered, stat("conflict_retries"), checks, answered)
        }
        None => (
            ops,
            sum(|t| t.retries),
            [sum(|t| t.skipped), sum(|t| t.probed), sum(|t| t.evaluated)],
            sum(|t| t.counted).max(1.0),
        ),
    };
    m.insert("core.conflict_retries_per_tx", retries / answered);
    m.insert("core.commit_per_attempt", answered / (answered + retries));
    for (name, n) in [
        "core.checks_skipped_per_tx",
        "core.checks_probed_per_tx",
        "core.checks_evaluated_per_tx",
    ]
    .into_iter()
    .zip(checks)
    {
        m.insert(name, n / counted);
    }
    m.insert("lat_p99_us", latency_us(&plain, 0.99));
    m.insert("trace.overhead_ratio", plain_rate / traced_rate.max(1e-9));
    let (requests, sampled_txs, self_ns) = with_trace.trace.sampled();
    // Untraced mean time one client spends per transaction: all measured
    // rounds, not the median segment — the spans' mean has the slow rounds
    // in it too.
    let (ns, done) = plain
        .rounds
        .iter()
        .fold((0u64, 0u64), |(ns, ops), r| (ns + r.ns, ops + r.ops));
    let per_tx_ns = clients as f64 * ns as f64 / done.max(1) as f64;
    m.insert(
        "trace.coverage_ratio",
        self_ns as f64 / (sampled_txs.max(1) as f64 * per_tx_ns),
    );
    m.insert("trace.spans", with_trace.trace.len() as f64);
    let totals = with_trace.trace.totals();
    for (metric, span) in [
        ("trace.self.bind_ns", "core.bind"),
        ("trace.self.execute_bound_ns", "core.execute_bound"),
        (
            "trace.self.execute_with_retry_ns",
            "core.execute_with_retry",
        ),
        ("trace.self.parse_ns", "algebra.parse"),
        ("trace.self.execute_ns", "core.execute"),
        ("trace.self.execute_many_ns", "server.execute_many"),
    ] {
        let mean = totals
            .get(span)
            .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64);
        m.insert(metric, mean);
    }
    m.insert(
        "bench.gen_ns_per_binding",
        (plain.gen_ns + with_trace.gen_ns) as f64 / ops,
    );

    if with_trace.trace.dropped > 0 {
        problems.push(format!(
            "{} spans did not fit the trace buffer",
            with_trace.trace.dropped
        ));
    }
    if requests == 0 {
        problems.push("the traced pass sampled no request".to_owned());
    }
    let metrics = Json::Obj(
        PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.name.to_owned(),
                    metric(m.get(l.name).copied().unwrap_or(0.0), l.unit),
                )
            })
            .collect(),
    );
    let attempted = plain.tally.ops + with_trace.tally.ops + ladder_tally.ops;
    let failed =
        plain.tally.failed + with_trace.tally.failed + ladder_tally.failed + problems.len() as u64;
    let correct = failed == 0;
    let line = obj([
        ("correct", correct.into()),
        ("attempted", attempted.max(1).into()),
        ("failed", failed.into()),
        ("metrics", metrics.clone()),
    ]);
    let mut errors = plain.tally.errors.clone();
    errors.extend(with_trace.tally.errors.iter().cloned());
    errors.extend(ladder_tally.errors);
    let span_totals = Json::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    (*name).to_owned(),
                    obj([
                        ("count", t.count.into()),
                        ("self_ns", t.self_ns.into()),
                        ("total_ns", t.total_ns.into()),
                    ]),
                )
            })
            .collect(),
    );
    let detail = obj([
        ("workload", cfg.workload.name().into()),
        ("trace", true.into()),
        ("correct", correct.into()),
        ("metrics", metrics),
        ("untraced_tx_per_s", plain_rate.into()),
        ("traced_tx_per_s", traced_rate.into()),
        ("untraced_segment_rates_per_s", plain_rates.into()),
        ("traced_segment_rates_per_s", traced_rates.into()),
        ("sampled_requests", requests.into()),
        ("sampled_transactions", sampled_txs.into()),
        ("span_totals", span_totals),
        ("trace_file", trace_path.display().to_string().into()),
        ("counts", counts(&with_trace.tally, with_trace.rounds.len())),
        ("errors", errors.into()),
        ("problems", problems.into()),
        ("environment", environment(cfg, clients)),
    ]);
    Ok(Outcome {
        detail,
        line,
        correct,
    })
}

fn served_dump(served: &crate::sut::Served) -> Result<String, String> {
    crate::sut::Conn::connect(served.addr())?.stats()
}

/// The end-to-end metrics a result's detail object carries for `compare`:
/// the common five plus, for `durable_log`, the durable-only two.
pub fn comparable_metrics(detail: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (section, defs) in [
        ("metrics", &END_TO_END[..]),
        ("durable_only", &DURABLE_ONLY[..]),
    ] {
        for d in defs {
            if let Some(v) = detail
                .get(section)
                .and_then(|s| s.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                out.push((d.name.to_owned(), v));
            }
        }
    }
    out
}

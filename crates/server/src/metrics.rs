//! The metrics sink: cheap atomic counters and histograms, fed by the
//! request handlers and sampled by the `Stats` request.
//!
//! Everything on the hot path is a relaxed atomic op or an uncontended
//! mutex over plain integers — recording an execution costs nanoseconds,
//! not a syscall. Three layers:
//!
//! * **per-tenant** ([`TenantMetrics`]): transaction outcomes, plan
//!   reuse/re-modification, admission rejections, check-verdict counts,
//!   a per-transaction engine latency histogram, deferred checkpoint
//!   errors (tenant health), and per-rule verdict/latency attribution;
//! * **per-rule** ([`RuleMetrics`]): how each catalog rule's checks were
//!   dispatched across executions — dropped by a specialization proof,
//!   reduced to a point probe, or evaluated generically — with the
//!   **measured** check latency. The engine times each appended check
//!   statement (`EngineOutcome::check_times_ns`, enabled per tenant at
//!   registration) and hands out the stored plan's table of which rule
//!   each check belongs to (`EngineOutcome::rule_checks`), so
//!   `rule.<r>.latency_us` is the summed wall time of rule `r`'s own
//!   checks — not a plan-level upper bound. Nanoseconds accumulate internally; the dump renders
//!   microseconds, so sub-µs point probes don't round away;
//! * **process-wide**: the COW unshare counter (`tm-relational`) and the
//!   WAL bytes/fsync counters (`tm-durable`), sampled as deltas since
//!   server start so co-resident tenants see server-attributable totals.
//!
//! [`ServerMetrics::dump`] renders the whole sink as plaintext, one
//! `key value` pair per line — the payload of the `Stats` response.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use txmod::{EngineOutcome, SpecOutcome};

/// Number of log₂ latency buckets (covers up to ~2^39 µs ≈ 6 days).
const BUCKETS: usize = 40;

/// A lock-free log₂-bucketed latency histogram (microseconds).
///
/// Recording is one relaxed `fetch_add`; quantiles are computed at dump
/// time by walking the cumulative bucket counts. A bucket's reported
/// value is its geometric midpoint, so quantiles carry at most ~41%
/// relative error — plenty for p50/p99 dashboards, free on the hot path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean sample, microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile (0 < q ≤ 1) in microseconds, 0 when empty. The
    /// value is the geometric midpoint of the bucket holding the
    /// quantile sample.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket i holds samples in [2^(i-1), 2^i); midpoint ≈
                // 1.5 · 2^(i-1). Bucket 0 holds the zeros.
                return if i == 0 { 0 } else { 3 << (i - 1) >> 1 };
            }
        }
        0
    }
}

/// Per-rule check dispatch and measured check latency.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RuleMetrics {
    /// Executions whose plan dropped this rule's check with a
    /// weakest-precondition proof.
    pub skipped: u64,
    /// Executions whose plan reduced this rule's check to point probes.
    pub probed: u64,
    /// Executions whose plan evaluated this rule's check generically.
    pub evaluated: u64,
    /// Cumulative measured wall time of this rule's own checks,
    /// nanoseconds (dropped checks execute nothing and are not charged;
    /// executions without check timing contribute verdict counts only).
    pub latency_ns: u64,
}

impl RuleMetrics {
    /// The accumulated check latency in microseconds (the dump unit).
    pub fn latency_us(&self) -> u64 {
        self.latency_ns / 1_000
    }
}

/// The per-tenant slice of the metrics sink. All fields are monotonic
/// counters; rates are derived by sampling twice.
#[derive(Debug, Default)]
pub struct TenantMetrics {
    /// Transactions that committed.
    pub committed: AtomicU64,
    /// Transactions that aborted (integrity violation, explicit abort).
    pub aborted: AtomicU64,
    /// Requests rejected by admission control with a typed `Busy`.
    pub busy_rejected: AtomicU64,
    /// Requests that failed with an error response.
    pub errors: AtomicU64,
    /// Statements prepared (ModT runs paid at prepare time).
    pub prepared: AtomicU64,
    /// Executions that reused a prepared plan unchanged.
    pub plan_reused: AtomicU64,
    /// Executions that found their plan stale (catalog epoch moved) and
    /// re-modified it first — the re-modification count.
    pub plan_remodified: AtomicU64,
    /// Ad-hoc (non-prepared) executions.
    pub adhoc: AtomicU64,
    /// Rule checks skipped across all executions.
    pub checks_skipped: AtomicU64,
    /// Rule checks reduced to point probes across all executions.
    pub checks_probed: AtomicU64,
    /// Rule checks evaluated generically across all executions.
    pub checks_evaluated: AtomicU64,
    /// Deferred auto-checkpoint failures observed (tenant health).
    pub checkpoint_errors: AtomicU64,
    /// Per-transaction engine-side latency.
    pub latency: Histogram,
    last_checkpoint_error: Mutex<Option<String>>,
    rules: Mutex<BTreeMap<String, RuleMetrics>>,
}

impl TenantMetrics {
    /// Record one engine execution: outcome counters, check verdicts,
    /// latency, and — when the outcome carries its stored plan's check
    /// table (`EngineOutcome::rule_checks`) — per-rule attribution.
    ///
    /// The table's per-rule check counts, zipped against
    /// `outcome.check_times_ns`, charge each rule the measured wall time
    /// of its own checks. A transaction that aborted before reaching a
    /// rule's checks contributes verdict counts but no latency sample for
    /// the unreached checks; an ad-hoc execution carries no table.
    pub fn record_execution(&self, outcome: &EngineOutcome, elapsed_us: u64) {
        if outcome.committed() {
            self.committed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.reused_plan {
            self.plan_reused.fetch_add(1, Ordering::Relaxed);
        }
        let checks = outcome.checks;
        self.checks_skipped
            .fetch_add(checks.skipped as u64, Ordering::Relaxed);
        self.checks_probed
            .fetch_add(checks.probed as u64, Ordering::Relaxed);
        self.checks_evaluated
            .fetch_add(checks.evaluated as u64, Ordering::Relaxed);
        self.latency.record_us(elapsed_us);
        if let Some(table) = &outcome.rule_checks {
            let times = &outcome.check_times_ns;
            let mut cursor = 0usize;
            let mut rules = self.rules.lock().unwrap();
            for check in table.iter() {
                let end = (cursor + check.timed).min(times.len());
                let ns: u64 = times[cursor.min(times.len())..end].iter().sum();
                cursor += check.timed;
                let m = rules.entry(check.rule.clone()).or_default();
                match check.outcome {
                    SpecOutcome::Dropped { .. } => m.skipped += 1,
                    SpecOutcome::Probe { .. } => {
                        m.probed += 1;
                        m.latency_ns += ns;
                    }
                    SpecOutcome::Generic => {
                        m.evaluated += 1;
                        m.latency_ns += ns;
                    }
                }
            }
        }
    }

    /// Record a deferred checkpoint failure surfaced by
    /// `Engine::take_checkpoint_error`.
    pub fn record_checkpoint_error(&self, message: String) {
        self.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_checkpoint_error.lock().unwrap() = Some(message);
    }

    /// The most recent deferred checkpoint error, if any was recorded.
    pub fn last_checkpoint_error(&self) -> Option<String> {
        self.last_checkpoint_error.lock().unwrap().clone()
    }

    /// A copy of the per-rule attribution table.
    pub fn rules(&self) -> BTreeMap<String, RuleMetrics> {
        self.rules.lock().unwrap().clone()
    }
}

/// The server-wide metrics sink: one [`TenantMetrics`] per tenant plus
/// the process-wide counter baselines.
#[derive(Debug)]
pub struct ServerMetrics {
    tenants: RwLock<BTreeMap<String, Arc<TenantMetrics>>>,
    started: Instant,
    unshares_at_start: u64,
    wal_bytes_at_start: u64,
    wal_fsyncs_at_start: u64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Create a sink; process-wide counters are baselined here so the
    /// dump reports deltas since server start.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            tenants: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
            unshares_at_start: tm_relational::unshare_count(),
            wal_bytes_at_start: tm_durable::wal_bytes_written(),
            wal_fsyncs_at_start: tm_durable::wal_fsyncs(),
        }
    }

    /// The per-tenant slice for `name`, created on first use.
    pub fn tenant(&self, name: &str) -> Arc<TenantMetrics> {
        if let Some(m) = self.tenants.read().unwrap().get(name) {
            return m.clone();
        }
        self.tenants
            .write()
            .unwrap()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Render the whole sink as plaintext, one `key value` pair per
    /// line. Stable key order (tenants and rules alphabetical), so the
    /// dump is diffable.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let uptime = self.started.elapsed();
        let _ = writeln!(out, "server.uptime_ms {}", uptime.as_millis());
        let _ = writeln!(
            out,
            "process.cow_unshares {}",
            tm_relational::unshare_count() - self.unshares_at_start
        );
        let _ = writeln!(
            out,
            "process.wal_bytes_written {}",
            tm_durable::wal_bytes_written() - self.wal_bytes_at_start
        );
        let _ = writeln!(
            out,
            "process.wal_fsyncs {}",
            tm_durable::wal_fsyncs() - self.wal_fsyncs_at_start
        );
        let tenants = self.tenants.read().unwrap();
        let secs = uptime.as_secs_f64().max(1e-9);
        for (name, m) in tenants.iter() {
            let k = |field: &str| format!("tenant.{name}.{field}");
            let committed = m.committed.load(Ordering::Relaxed);
            let _ = writeln!(out, "{} {}", k("tx_committed"), committed);
            let _ = writeln!(
                out,
                "{} {}",
                k("tx_aborted"),
                m.aborted.load(Ordering::Relaxed)
            );
            let _ = writeln!(out, "{} {:.0}", k("tx_per_sec"), committed as f64 / secs);
            let _ = writeln!(
                out,
                "{} {}",
                k("busy_rejected"),
                m.busy_rejected.load(Ordering::Relaxed)
            );
            // Executions serialize under the engine lock and never
            // conflict; the keys stay (at 0) so dump readers keep parsing.
            for key in ["tx_conflicts", "conflict_retries"] {
                let _ = writeln!(out, "{} 0", k(key));
            }
            let _ = writeln!(out, "{} {}", k("errors"), m.errors.load(Ordering::Relaxed));
            let _ = writeln!(
                out,
                "{} {}",
                k("stmts_prepared"),
                m.prepared.load(Ordering::Relaxed)
            );
            let reused = m.plan_reused.load(Ordering::Relaxed);
            let remod = m.plan_remodified.load(Ordering::Relaxed);
            let _ = writeln!(out, "{} {}", k("plan_reused"), reused);
            let _ = writeln!(out, "{} {}", k("plan_remodified"), remod);
            let executions = m.latency.count();
            let reuse_rate = if executions == 0 {
                0.0
            } else {
                reused as f64 / executions as f64
            };
            let _ = writeln!(out, "{} {:.3}", k("plan_reuse_rate"), reuse_rate);
            let _ = writeln!(out, "{} {}", k("adhoc"), m.adhoc.load(Ordering::Relaxed));
            let _ = writeln!(
                out,
                "{} {}",
                k("checks_skipped"),
                m.checks_skipped.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "{} {}",
                k("checks_probed"),
                m.checks_probed.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "{} {}",
                k("checks_evaluated"),
                m.checks_evaluated.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "{} {}",
                k("latency_p50_us"),
                m.latency.quantile_us(0.5)
            );
            let _ = writeln!(
                out,
                "{} {}",
                k("latency_p99_us"),
                m.latency.quantile_us(0.99)
            );
            let _ = writeln!(out, "{} {}", k("latency_mean_us"), m.latency.mean_us());
            let _ = writeln!(
                out,
                "{} {}",
                k("checkpoint_errors"),
                m.checkpoint_errors.load(Ordering::Relaxed)
            );
            if let Some(msg) = m.last_checkpoint_error() {
                let _ = writeln!(
                    out,
                    "{} {}",
                    k("last_checkpoint_error"),
                    msg.replace('\n', " ")
                );
            }
            for (rule, rm) in m.rules() {
                let rk = |field: &str| format!("tenant.{name}.rule.{rule}.{field}");
                let _ = writeln!(out, "{} {}", rk("skipped"), rm.skipped);
                let _ = writeln!(out, "{} {}", rk("probed"), rm.probed);
                let _ = writeln!(out, "{} {}", rk("evaluated"), rm.evaluated);
                let _ = writeln!(out, "{} {}", rk("latency_us"), rm.latency_us());
            }
        }
        out
    }
}

//! The metrics sink: cheap atomic counters and histograms, fed by the
//! request handlers and sampled by the `Stats` request.
//!
//! Everything on the hot path is a relaxed atomic op or an uncontended
//! mutex over plain integers — recording an execution costs nanoseconds,
//! not a syscall. A request first folds its executions into a local
//! `Tally` (plain integers, the per-rule counts indexed by the plan's
//! `ModT` decisions) and publishes it to the shared counters once, after the
//! engine lock is released, so an `ExecuteMany` of 256 bindings pays one
//! round of atomics, not 256. Three layers:
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
//!   registration) and hands out the stored plan's `ModT` record, whose
//!   decisions say which rule each check belongs to
//!   (`EngineOutcome::rule_checks`), so
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

use txmod::{EngineOutcome, ModificationReport, SpecOutcome};

/// Number of log₂ latency buckets (covers up to ~2^39 µs ≈ 6 days).
const BUCKETS: usize = 40;

/// A lock-free log₂-bucketed latency histogram (microseconds).
///
/// Samples are bucketed in a request's local `Tally` and added here with
/// one relaxed `fetch_add` per non-empty bucket; quantiles are computed
/// at dump time by walking the cumulative bucket counts. A bucket's reported
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

/// The log₂ bucket of a sample, microseconds.
fn bucket(us: u64) -> usize {
    (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Add locally counted samples: bucket counts, sample count and sum
    /// (microseconds).
    fn add(&self, buckets: &[u64; BUCKETS], count: u64, total_us: u64) {
        for (shared, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.total_us.fetch_add(total_us, Ordering::Relaxed);
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

    fn add(&mut self, other: &RuleMetrics) {
        self.skipped += other.skipped;
        self.probed += other.probed;
        self.evaluated += other.evaluated;
        self.latency_ns += other.latency_ns;
    }
}

/// Executions of one request, counted locally: plain integers, no atomic
/// and no lock per execution. [`TenantMetrics::publish`] adds the tally
/// to the tenant's shared counters in one step.
#[derive(Debug)]
pub(crate) struct Tally {
    /// Transactions that committed.
    pub(crate) committed: u64,
    /// Transactions that aborted.
    pub(crate) aborted: u64,
    plan_reused: u64,
    plan_remodified: u64,
    checks_skipped: u64,
    checks_probed: u64,
    checks_evaluated: u64,
    latency: [u64; BUCKETS],
    latency_count: u64,
    latency_total_us: u64,
    /// Per-rule counts, one entry per `ModT` record folded (a batch has
    /// one until a catalog change re-modifies its statement between
    /// holds), indexed like the record's decisions.
    rules: Vec<(Arc<ModificationReport>, Vec<RuleMetrics>)>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            committed: 0,
            aborted: 0,
            plan_reused: 0,
            plan_remodified: 0,
            checks_skipped: 0,
            checks_probed: 0,
            checks_evaluated: 0,
            latency: [0; BUCKETS],
            latency_count: 0,
            latency_total_us: 0,
            rules: Vec::new(),
        }
    }
}

impl Tally {
    /// Fold one engine execution: outcome counters, check verdicts,
    /// latency, and — when the outcome carries its stored plan's `ModT`
    /// record (`EngineOutcome::rule_checks`) — per-rule attribution.
    ///
    /// The decisions' `timed` check counts, zipped against
    /// `outcome.check_times_ns`, charge each rule the measured wall time
    /// of its own checks. A transaction that aborted before reaching a
    /// rule's checks contributes verdict counts but no latency sample for
    /// the unreached checks; an ad-hoc execution carries no record.
    pub(crate) fn fold(&mut self, outcome: &EngineOutcome, elapsed_us: u64) {
        if outcome.committed() {
            self.committed += 1;
        } else {
            self.aborted += 1;
        }
        self.plan_reused += u64::from(outcome.reused_plan);
        let checks = outcome.checks;
        self.checks_skipped += checks.skipped as u64;
        self.checks_probed += checks.probed as u64;
        self.checks_evaluated += checks.evaluated as u64;
        self.latency[bucket(elapsed_us)] += 1;
        self.latency_count += 1;
        self.latency_total_us += elapsed_us;
        let Some(record) = &outcome.rule_checks else {
            return;
        };
        if !matches!(self.rules.last(), Some((t, _)) if Arc::ptr_eq(t, record)) {
            let counts = vec![RuleMetrics::default(); record.decisions.len()];
            self.rules.push((Arc::clone(record), counts));
        }
        let (_, counts) = self.rules.last_mut().expect("pushed above");
        let times = &outcome.check_times_ns;
        let mut cursor = 0usize;
        for (check, m) in record.decisions.iter().zip(counts.iter_mut()) {
            let end = (cursor + check.timed).min(times.len());
            let ns: u64 = times[cursor.min(times.len())..end].iter().sum();
            cursor += check.timed;
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

    /// Fold one execution of a stored statement: [`Tally::fold`], and a
    /// plan it did not reuse was stale and re-modified by this execution,
    /// for every connection (`plan_remodified`).
    pub(crate) fn fold_statement(&mut self, outcome: &EngineOutcome, elapsed_us: u64) {
        self.plan_remodified += u64::from(!outcome.reused_plan);
        self.fold(outcome, elapsed_us);
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
    /// Executions that reused a plan unchanged: a prepared statement's,
    /// or — for an ad-hoc request — the plan its transaction's shape
    /// left in the engine's ad-hoc shape table.
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
    /// Add a request's [`Tally`] to the shared counters: one relaxed
    /// atomic add per non-zero counter and one lock of the per-rule table.
    pub(crate) fn publish(&self, tally: &Tally) {
        for (counter, n) in [
            (&self.committed, tally.committed),
            (&self.aborted, tally.aborted),
            (&self.plan_reused, tally.plan_reused),
            (&self.plan_remodified, tally.plan_remodified),
            (&self.checks_skipped, tally.checks_skipped),
            (&self.checks_probed, tally.checks_probed),
            (&self.checks_evaluated, tally.checks_evaluated),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.latency
            .add(&tally.latency, tally.latency_count, tally.latency_total_us);
        if tally.rules.is_empty() {
            return;
        }
        let mut rules = self.rules.lock().unwrap();
        for (record, counts) in &tally.rules {
            for (check, m) in record.decisions.iter().zip(counts) {
                match rules.get_mut(&check.rule) {
                    Some(total) => total.add(m),
                    None => {
                        rules.insert(check.rule.clone(), m.clone());
                    }
                }
            }
        }
    }

    /// Record one engine execution: fold it into a `Tally` and publish
    /// the tally — the accounting path of every request kind.
    pub fn record_execution(&self, outcome: &EngineOutcome, elapsed_us: u64) {
        let mut tally = Tally::default();
        tally.fold(outcome, elapsed_us);
        self.publish(&tally);
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

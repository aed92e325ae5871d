//! Multi-tenancy: the tenant registry and per-tenant admission control.
//!
//! A tenant is an independent engine — its own catalog, enforcement
//! mode, durability level, and (when durable) WAL directory — plus the
//! prepared statements its connections have accumulated and an
//! [`Admission`] controller bounding its in-flight work. Tenants share
//! nothing but the process: one tenant's aborts, violation storms, or
//! overload cannot perturb another's state, verdicts, or metrics (only
//! the process-wide COW/WAL counters aggregate across tenants, which is
//! why the dump labels them `process.*`).
//!
//! The engine is wrapped in a [`ConcurrentEngine`]: every connection
//! gets its own session, whose executions run in place under the
//! engine's one lock (see `txmod::concurrent`), while the wire work
//! around them runs on the connection's own thread. The canonical
//! prepared-statement list
//! lives here, tenant-wide, because statement ids on the wire are
//! tenant-scoped; each connection's session lazily adopts copies (see
//! [`crate::server`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use txmod::{ConcurrentEngine, Engine, Prepared};

use crate::metrics::{ServerMetrics, TenantMetrics};

/// Admission knobs for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Maximum requests in flight (queue-depth cap); `0` = unlimited.
    /// Overload beyond the cap earns a typed `Busy` response — the
    /// accept loop and other tenants never stall, and admitted work
    /// proceeds at full engine speed.
    pub max_inflight: usize,
    /// Token-bucket refill rate, requests per second; `0` = unlimited.
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst size); ignored when `rate_per_sec`
    /// is 0.
    pub burst: f64,
}

impl Default for TenantSpec {
    /// Queue-depth cap of 64, no rate limit.
    fn default() -> Self {
        TenantSpec {
            max_inflight: 64,
            rate_per_sec: 0.0,
            burst: 0.0,
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn try_take(&mut self) -> bool {
        let now = Instant::now();
        self.tokens =
            (self.tokens + self.rate * now.duration_since(self.last).as_secs_f64()).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The per-tenant admission controller: a queue-depth cap on in-flight
/// requests plus an optional token bucket. Rejection is cheap (two
/// atomics, or one short lock when rate-limited) and typed — the caller
/// turns it into a `Busy` response.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    inflight: AtomicUsize,
    rejected: AtomicU64,
    bucket: Option<Mutex<TokenBucket>>,
}

impl Admission {
    fn new(spec: &TenantSpec) -> Admission {
        Admission {
            max_inflight: spec.max_inflight,
            inflight: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            bucket: (spec.rate_per_sec > 0.0).then(|| {
                Mutex::new(TokenBucket {
                    rate: spec.rate_per_sec,
                    burst: spec.burst.max(1.0),
                    tokens: spec.burst.max(1.0),
                    last: Instant::now(),
                })
            }),
        }
    }

    /// Try to admit one request. `None` means overload — respond `Busy`.
    /// The returned guard holds the in-flight slot until dropped.
    pub fn try_admit(&self) -> Option<AdmitGuard<'_>> {
        if let Some(bucket) = &self.bucket {
            if !bucket.lock().unwrap().try_take() {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        if self.max_inflight > 0 {
            let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
            if prev >= self.max_inflight {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        Some(AdmitGuard { admission: self })
    }

    /// The configured in-flight cap (0 = unlimited).
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// RAII in-flight slot of [`Admission::try_admit`].
#[derive(Debug)]
pub struct AdmitGuard<'a> {
    admission: &'a Admission,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        if self.admission.max_inflight > 0 {
            self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// One registered tenant.
#[derive(Debug)]
pub struct Tenant {
    /// The tenant's engine, wrapped for concurrent sessions.
    /// Administration (DDL, snapshots, analysis) goes through
    /// [`ConcurrentEngine::lock`]; the execute path goes through
    /// per-connection sessions, which take the same lock per execution.
    pub engine: ConcurrentEngine,
    /// The canonical prepared statements; wire statement ids index this
    /// vector. Connections adopt copies into their own sessions.
    pub statements: RwLock<Vec<Prepared>>,
    /// The admission controller.
    pub admission: Admission,
    /// This tenant's metrics slice.
    pub metrics: Arc<TenantMetrics>,
}

/// The tenant registry: tenant id → independent engine.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    metrics: Arc<ServerMetrics>,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TenantRegistry {
    /// An empty registry with a fresh metrics sink.
    pub fn new() -> TenantRegistry {
        TenantRegistry {
            tenants: RwLock::new(BTreeMap::new()),
            metrics: Arc::new(ServerMetrics::new()),
        }
    }

    /// Register a tenant. The engine arrives fully configured — schema,
    /// catalog, enforcement mode, and (via [`Engine::make_durable`])
    /// durability level and WAL directory are the caller's choices; the
    /// registry turns on per-check timing (so `rule.<r>.latency_us` in
    /// the metrics dump reports measured check time) and wraps it for
    /// concurrent sessions. Replaces any previous tenant of the same
    /// name.
    pub fn add(&self, name: &str, mut engine: Engine, spec: TenantSpec) -> Arc<Tenant> {
        engine.set_check_timing(true);
        let tenant = Arc::new(Tenant {
            engine: ConcurrentEngine::new(engine),
            statements: RwLock::new(Vec::new()),
            admission: Admission::new(&spec),
            metrics: self.metrics.tenant(name),
        });
        self.tenants
            .write()
            .unwrap()
            .insert(name.to_owned(), tenant.clone());
        tenant
    }

    /// Look up a tenant by id.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap().get(name).cloned()
    }

    /// Registered tenant ids, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants.read().unwrap().keys().cloned().collect()
    }

    /// The server-wide metrics sink.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Poll every tenant's engine for a deferred auto-checkpoint error
    /// and record it in that tenant's metrics (tenant health). Called on
    /// each `Stats` request; tenants busy under their engine mutex are
    /// polled on the next pass rather than waited for.
    pub fn poll_checkpoint_errors(&self) {
        let tenants: Vec<Arc<Tenant>> = self.tenants.read().unwrap().values().cloned().collect();
        for t in tenants {
            if let Some(mut engine) = t.engine.try_lock() {
                if let Some(err) = engine.take_checkpoint_error() {
                    t.metrics.record_checkpoint_error(err.to_string());
                }
            }
        }
    }
}

//! The TCP server: std-only accept loop, thread-per-connection, and the
//! request dispatcher.
//!
//! No async runtime — connections are cheap threads blocking on reads
//! with a short timeout, so a stop flag shuts every thread down within
//! one tick without poisoning in-flight frames (partial reads resume
//! across timeouts; see [`crate::proto::read_frame_interruptible`]).
//!
//! A connection binds to one tenant with `Hello` and opens its own
//! [`ConcurrentSession`] — a handle — over that tenant's engine. Decoding,
//! admission and encoding run on the connection's thread; each execution
//! runs under the tenant's engine lock, so executions never conflict and
//! no request is retried. An `ExecuteMany` runs its bindings under one
//! hold of the lock per [`txmod::MAX_BINDINGS_PER_HOLD`] and publishes
//! its metrics once, after the lock is released. Prepared statements
//! live in the engine's statement table, and a wire statement id *is*
//! the engine's [`StatementId`]: every connection of the tenant can
//! execute it, and a stale plan is re-modified once per catalog change.
//!
//! Work requests pass the tenant's admission controller first; rejection
//! is a typed [`Response::Busy`] — the connection stays healthy and the
//! accept loop never stalls behind an overloaded tenant. Malformed
//! frames earn a typed error response (when the stream is still
//! framable) and close the connection; they never panic and never hang.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_algebra::parser::parse_program;
use tm_algebra::Transaction;
use txmod::{ConcurrentSession, EngineError, StatementId};

use crate::error::ProtocolError;
use crate::metrics::{Tally, TenantMetrics};
use crate::proto::{
    read_frame_interruptible, write_response, ErrorCode, Request, Response, TxReport,
};
use crate::tenant::{Tenant, TenantRegistry};

/// Knobs of [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Socket read timeout: the tick at which idle connection threads
    /// poll the stop flag.
    pub read_timeout: Duration,
    /// Accept-loop poll interval while no connection is pending.
    pub accept_pause: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_millis(50),
            accept_pause: Duration::from_millis(5),
        }
    }
}

/// Handle to a running server. Dropping it shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting, wait for every connection thread to notice the
    /// stop flag and drain, and join them all.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.conns.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// the registry's tenants until the handle is shut down.
pub fn serve(
    registry: Arc<TenantRegistry>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let stop = stop.clone();
        let conns = conns.clone();
        std::thread::spawn(move || loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let registry = registry.clone();
                    let stop = stop.clone();
                    let handle = std::thread::spawn(move || {
                        handle_connection(stream, registry, stop, config);
                    });
                    conns.lock().unwrap().push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.accept_pause);
                }
                Err(_) => std::thread::sleep(config.accept_pause),
            }
        })
    };
    Ok(ServerHandle {
        addr: local,
        stop,
        accept: Some(accept),
        conns,
    })
}

/// A connection's tenant binding: the tenant plus this connection's own
/// session handle.
struct Conn {
    tenant: Arc<Tenant>,
    session: ConcurrentSession,
}

/// Serve one connection until it closes, errors, or the server stops.
fn handle_connection(
    mut stream: TcpStream,
    registry: Arc<TenantRegistry>,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut conn: Option<Conn> = None;
    loop {
        let payload = {
            let mut tick = || stop.load(Ordering::SeqCst);
            match read_frame_interruptible(&mut stream, &mut tick) {
                Ok(Some(p)) => p,
                // Clean close, or quiet shutdown at a frame boundary.
                Ok(None) => return,
                // Framing is broken (garbage length, checksum mismatch,
                // mid-frame close): a typed error is sent best-effort —
                // the stream position is untrustworthy, so close.
                Err(e) => {
                    let _ = write_response(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        },
                    );
                    let _ = stream.flush();
                    return;
                }
            }
        };
        let response = match Request::decode(&payload) {
            // The frame was intact but the payload is not a request:
            // report it; framing is still synchronized, keep serving.
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: ProtocolError::Codec(e).to_string(),
            },
            Ok(Request::Hello { tenant: name }) => match registry.get(&name) {
                Some(t) => {
                    conn = Some(Conn {
                        session: t.engine.session(),
                        tenant: t,
                    });
                    Response::HelloOk { tenant: name }
                }
                None => Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant {name:?} is registered"),
                },
            },
            Ok(req) => match &mut conn {
                None => Response::Error {
                    code: ErrorCode::NeedHello,
                    message: "first request must be Hello".to_owned(),
                },
                Some(c) => dispatch(c, &registry, req),
            },
        };
        if let Response::Error { .. } = response {
            if let Some(c) = &conn {
                c.tenant.metrics.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if write_response(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Whether a request mutates or queries the tenant's engine (and must
/// therefore pass admission control). `Hello` never reaches here;
/// `Stats` is served from the sink without touching any engine.
fn needs_admission(req: &Request) -> bool {
    !matches!(req, Request::Stats)
}

/// Serve one request against its tenant.
fn dispatch(conn: &mut Conn, registry: &Arc<TenantRegistry>, req: Request) -> Response {
    if needs_admission(&req) {
        let tenant = conn.tenant.clone();
        let Some(_guard) = tenant.admission.try_admit() else {
            tenant.metrics.busy_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::Busy {
                limit: tenant.admission.max_inflight() as u64,
            };
        };
        return dispatch_admitted(conn, registry, req);
    }
    dispatch_admitted(conn, registry, req)
}

fn engine_error(e: EngineError) -> Response {
    Response::Error {
        code: error_code(&e),
        message: e.to_string(),
    }
}

/// The wire error code of an engine error.
fn error_code(e: &EngineError) -> ErrorCode {
    match e {
        EngineError::UnknownStatement(_) => ErrorCode::UnknownStatement,
        _ => ErrorCode::Engine,
    }
}

/// Parse a wire-borne RA program into a transaction.
fn parse_tx(text: &str) -> Result<Transaction, Response> {
    match parse_program(text) {
        Ok(program) => Ok(program.bracket()),
        Err(e) => Err(Response::Error {
            code: ErrorCode::Engine,
            message: format!("program parse error: {e}"),
        }),
    }
}

fn dispatch_admitted(conn: &mut Conn, registry: &Arc<TenantRegistry>, req: Request) -> Response {
    let tenant = conn.tenant.clone();
    let metrics = &tenant.metrics;
    match req {
        Request::Hello { .. } => Response::Error {
            code: ErrorCode::BadRequest,
            message: "connection is already bound to a tenant".to_owned(),
        },
        Request::Prepare { template } => {
            let tx = match parse_tx(&template) {
                Ok(tx) => tx,
                Err(resp) => return resp,
            };
            // Prepare and store under one acquisition of the engine lock
            // (ModT paid once); the engine's statement id is the wire id,
            // so every connection of the tenant can execute it.
            let mut engine = tenant.engine.lock();
            let prepared = match engine.prepare(&tx) {
                Ok(p) => p,
                Err(e) => return engine_error(e),
            };
            let param_count = prepared.param_count() as u32;
            let id = engine.store_statement(prepared);
            drop(engine);
            metrics.prepared.fetch_add(1, Ordering::Relaxed);
            Response::Prepared {
                stmt_id: id.0 as u32,
                param_count,
            }
        }
        Request::Execute { stmt_id, params } => {
            let t0 = Instant::now();
            let out = match conn
                .session
                .execute_prepared(StatementId(stmt_id as usize), &params)
            {
                Ok(out) => out,
                Err(e) => return engine_error(e),
            };
            let mut tally = Tally::default();
            tally.fold_statement(&out, t0.elapsed().as_micros() as u64);
            metrics.publish(&tally);
            poll_checkpoint(&tenant, metrics);
            Response::Tx(report_of(&out))
        }
        Request::ExecuteMany { stmt_id, bindings } => {
            // One hold of the engine lock per `MAX_BINDINGS_PER_HOLD`
            // bindings; each outcome is folded into a local tally under
            // the lock, with its time under the lock as its latency
            // sample, and the tally is published once, after it.
            let mut tally = Tally::default();
            let run = conn.session.execute_prepared_many(
                StatementId(stmt_id as usize),
                &bindings,
                |out, held| tally.fold_statement(out, held.as_micros() as u64),
            );
            // Bindings that ran before a failing one stay executed, and
            // counted.
            metrics.publish(&tally);
            match run {
                Ok(()) => {
                    poll_checkpoint(&tenant, metrics);
                    Response::Batch {
                        committed: tally.committed,
                        aborted: tally.aborted,
                    }
                }
                // Name the failing binding `k`: bindings 0..k ran and stay
                // executed, so a client must not retry them.
                Err(e) => Response::Error {
                    code: error_code(&e),
                    message: format!("binding {}: {e}", tally.committed + tally.aborted),
                },
            }
        }
        Request::AdHoc { tx } => {
            let tx = match parse_tx(&tx) {
                Ok(tx) => tx,
                Err(resp) => return resp,
            };
            // Ad-hoc work takes no statement id: its plan is kept, if at
            // all, in the engine's ad-hoc shape table, where a repeat of
            // the shape reuses it (`reused_plan`, counted by
            // `plan_reused`). The execution takes the commit epoch like
            // prepared work.
            let t0 = Instant::now();
            match conn.session.execute(&tx) {
                Ok(out) => {
                    metrics.adhoc.fetch_add(1, Ordering::Relaxed);
                    metrics.record_execution(&out, t0.elapsed().as_micros() as u64);
                    poll_checkpoint(&tenant, metrics);
                    Response::Tx(report_of(&out))
                }
                Err(e) => engine_error(e),
            }
        }
        Request::DefineRule { name, text } => {
            match tenant.engine.lock().add_rule_text(&text, &name) {
                Ok(()) => Response::Ack {
                    detail: format!("rule {name} defined"),
                },
                Err(e) => engine_error(e),
            }
        }
        Request::DefineConstraint { name, cl } => {
            match tenant.engine.lock().define_constraint(&name, &cl) {
                Ok(()) => Response::Ack {
                    detail: format!("constraint {name} defined"),
                },
                Err(e) => engine_error(e),
            }
        }
        Request::RemoveRule { name } => match tenant.engine.lock().remove_rule(&name) {
            Ok(true) => Response::Ack {
                detail: format!("rule {name} removed"),
            },
            Ok(false) => Response::Ack {
                detail: format!("rule {name} was not present"),
            },
            Err(e) => engine_error(e),
        },
        Request::Snapshot { relation } => {
            let engine = tenant.engine.lock();
            match engine.relation(&relation) {
                Ok(rel) => {
                    let mut tuples: Vec<_> = rel.iter().cloned().collect();
                    tuples.sort();
                    Response::SnapshotData { relation, tuples }
                }
                Err(e) => engine_error(e),
            }
        }
        Request::Analyze => Response::Analysis {
            text: tenant.engine.lock().validate_full().to_string(),
        },
        Request::Stats => {
            registry.poll_checkpoint_errors();
            Response::StatsDump {
                text: registry.metrics().dump(),
            }
        }
    }
}

fn report_of(out: &txmod::EngineOutcome) -> TxReport {
    let abort = match &out.outcome {
        tm_algebra::TxOutcome::Committed(_) => None,
        tm_algebra::TxOutcome::Aborted { reason, .. } => Some(reason.to_string()),
    };
    TxReport {
        committed: out.committed(),
        reused_plan: out.reused_plan,
        checks_skipped: out.checks.skipped as u32,
        checks_probed: out.checks.probed as u32,
        checks_evaluated: out.checks.evaluated as u32,
        abort,
    }
}

/// After an execution, surface any deferred auto-checkpoint error into
/// the tenant's health metrics. Opportunistic: a busy engine (another
/// connection mid-execution) is skipped and polled on the
/// next execution or `Stats` pass rather than waited for.
fn poll_checkpoint(tenant: &Tenant, metrics: &TenantMetrics) {
    if let Some(mut engine) = tenant.engine.try_lock() {
        if let Some(err) = engine.take_checkpoint_error() {
            metrics.record_checkpoint_error(err.to_string());
        }
    }
}

//! Server smoke: start on an ephemeral port, exercise one round-trip per
//! request kind, check the typed overload and error paths, shut down
//! cleanly.

use std::sync::Arc;

use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use tm_server::proto::{read_frame, write_frame, write_request, ErrorCode, Request, Response};
use tm_server::{
    serve, Client, PreparedStmt, ProtocolError, ServerConfig, Tenant, TenantRegistry, TenantSpec,
};
use txmod::{EnforcementMode, Engine, EngineConfig, StatementId};

fn account_engine(mode: EnforcementMode) -> Engine {
    let schema = DatabaseSchema::from_relations(vec![RelationSchema::of(
        "account",
        &[("id", ValueType::Int), ("balance", ValueType::Int)],
    )])
    .unwrap();
    let mut engine = Engine::with_config(
        schema,
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    engine
        .define_constraint(
            "balance_non_negative",
            "forall x (x in account implies x.balance >= 0)",
        )
        .unwrap();
    engine
}

fn start() -> (tm_server::ServerHandle, std::net::SocketAddr, Arc<Tenant>) {
    let registry = Arc::new(TenantRegistry::new());
    let tenant = registry.add(
        "acme",
        account_engine(EnforcementMode::Static),
        TenantSpec::default(),
    );
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    (handle, addr, tenant)
}

#[test]
fn every_request_kind_round_trips() {
    let (handle, addr, _) = start();
    let mut c = Client::connect(addr, "acme").unwrap();
    assert_eq!(c.tenant(), "acme");

    // Prepare / Execute / ExecuteMany.
    let stmt = c.prepare("insert(account, row(?0, ?1))").unwrap();
    assert_eq!(stmt.param_count, 2);
    let report = c
        .execute(stmt, vec![Value::Int(1), Value::Int(100)])
        .unwrap();
    assert!(report.committed && report.reused_plan);
    let violating = c
        .execute(stmt, vec![Value::Int(2), Value::Int(-5)])
        .unwrap();
    assert!(!violating.committed);
    assert!(violating.abort.is_some());
    let bindings: Vec<Vec<Value>> = (10..20)
        .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
        .collect();
    assert_eq!(c.execute_many(stmt, bindings).unwrap(), (10, 0));

    // AdHoc.
    let adhoc = c.ad_hoc("insert(account, {(99, 990)})").unwrap();
    assert!(adhoc.committed && !adhoc.reused_plan);

    // DefineConstraint goes stale-plan: the next execute re-modifies.
    c.define_constraint(
        "balance_capped",
        "forall x (x in account implies x.balance <= 100000)",
    )
    .unwrap();
    let refreshed = c
        .execute(stmt, vec![Value::Int(3), Value::Int(30)])
        .unwrap();
    assert!(refreshed.committed && !refreshed.reused_plan);

    // DefineRule / RemoveRule. Tenant-authored RL text that does not
    // parse is a typed engine error, not a dropped connection.
    c.define_rule(
        "huge_deposit_guard",
        "WHEN INS(account) IF NOT 1 = 1 THEN abort",
    )
    .unwrap();
    assert!(matches!(
        c.define_rule("broken", "this is not RL"),
        Err(ProtocolError::Remote {
            code: ErrorCode::Engine,
            ..
        })
    ));
    let removed = c.remove_rule("huge_deposit_guard").unwrap();
    assert!(removed.contains("removed"));
    let absent = c.remove_rule("huge_deposit_guard").unwrap();
    assert!(absent.contains("not present"));

    // Snapshot sees the committed rows.
    let tuples = c.snapshot("account").unwrap();
    assert!(tuples.contains(&Tuple::of((1i64, 100i64))));
    assert!(tuples.contains(&Tuple::of((99i64, 990i64))));
    assert_eq!(tuples.len(), 13);

    // Analyze renders the catalog analysis.
    let analysis = c.analyze().unwrap();
    assert!(!analysis.is_empty());

    // Stats carries the metrics dump with this tenant's counters.
    let stats = c.stats().unwrap();
    assert!(stats.contains("tenant.acme.tx_committed 13"));
    assert!(stats.contains("tenant.acme.tx_aborted 1"));
    assert!(stats.contains("tenant.acme.plan_remodified 1"));
    assert!(stats.contains("process.cow_unshares"));
    assert!(stats.contains("tenant.acme.rule.balance_non_negative"));

    handle.shutdown();
}

/// Wire statement ids are the engine's: one connection prepares, another
/// executes, and after a catalog change the shared plan is re-modified
/// once — by whichever connection runs it first — and enforced for both.
#[test]
fn statements_are_shared_across_connections_and_refresh_once() {
    let (handle, addr, _) = start();
    let mut a = Client::connect(addr, "acme").unwrap();
    let mut b = Client::connect(addr, "acme").unwrap();
    let stmt = a.prepare("insert(account, row(?0, ?1))").unwrap();
    let report = b
        .execute(stmt, vec![Value::Int(1), Value::Int(100)])
        .unwrap();
    assert!(report.committed && report.reused_plan);

    a.define_constraint(
        "balance_capped",
        "forall x (x in account implies x.balance <= 1000)",
    )
    .unwrap();
    let by_a = a
        .execute(stmt, vec![Value::Int(2), Value::Int(5000)])
        .unwrap();
    assert!(!by_a.committed && !by_a.reused_plan, "a refreshes the plan");
    let by_b = b
        .execute(stmt, vec![Value::Int(3), Value::Int(6000)])
        .unwrap();
    assert!(
        !by_b.committed && by_b.reused_plan,
        "b runs the refreshed plan, new constraint included"
    );
    let stats = a.stats().unwrap();
    assert!(
        stats.lines().any(|l| l == "tenant.acme.plan_remodified 1"),
        "{stats}"
    );
    handle.shutdown();
}

/// Ad-hoc requests store nothing in the engine's statement table: after
/// any number of them the next `Prepare` gets the id right after the
/// previous one, and each wire id names the engine's own statement. An id
/// nobody stored is still a typed `UnknownStatement` on the wire.
#[test]
fn adhoc_requests_store_no_statements() {
    let (handle, addr, tenant) = start();
    let mut c = Client::connect(addr, "acme").unwrap();
    let first = c.prepare("insert(account, row(?0, ?1))").unwrap();
    for i in 0..5 {
        let report = c
            .ad_hoc(&format!("insert(account, {{({i}, 10)}})"))
            .unwrap();
        assert!(report.committed && !report.reused_plan);
    }
    let second = c.prepare("delete(account, row(?0, ?1))").unwrap();
    assert_eq!(second.stmt_id, first.stmt_id + 1);
    {
        let engine = tenant.engine.lock();
        let id = StatementId(second.stmt_id as usize);
        assert_eq!(engine.statement(id).unwrap().param_count(), 2);
        assert!(engine.statement(StatementId(id.0 + 1)).is_err());
    }
    let unknown = PreparedStmt {
        stmt_id: second.stmt_id + 1,
        param_count: 0,
    };
    assert!(matches!(
        c.execute(unknown, Vec::new()),
        Err(ProtocolError::Remote {
            code: ErrorCode::UnknownStatement,
            ..
        })
    ));
    handle.shutdown();
}

#[test]
fn unknown_tenant_and_missing_hello_are_typed_errors() {
    let (handle, addr, _) = start();
    assert!(matches!(
        Client::connect(addr, "nobody"),
        Err(ProtocolError::Remote {
            code: ErrorCode::UnknownTenant,
            ..
        })
    ));

    // A work request before Hello earns NeedHello on the same connection.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_request(&mut stream, &Request::Stats).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Error {
            code: ErrorCode::NeedHello,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_not_hangs() {
    let (handle, addr, _) = start();

    // An intact frame whose payload is garbage: typed BadRequest, and
    // the connection keeps serving.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &[0xff, 0x00, 0x99]).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    write_request(
        &mut stream,
        &Request::Hello {
            tenant: "acme".into(),
        },
    )
    .unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::HelloOk { .. }
    ));

    // A corrupt frame (bad checksum): typed error back, then close.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut req = Vec::new();
    Request::Stats.encode(&mut req);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(req.len() as u32).to_le_bytes());
    frame.extend_from_slice(&0xdead_beefu32.to_le_bytes()); // wrong crc
    frame.extend_from_slice(&req);
    use std::io::Write as _;
    stream.write_all(&frame).unwrap();
    let payload = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    // The server closed its end; the next read is a clean EOF.
    assert!(read_frame(&mut stream).unwrap().is_none());
    handle.shutdown();
}

#[test]
fn overload_returns_typed_busy() {
    let registry = Arc::new(TenantRegistry::new());
    registry.add(
        "tight",
        account_engine(EnforcementMode::Static),
        TenantSpec {
            max_inflight: 1,
            rate_per_sec: 1.0, // one request per second, burst 1
            burst: 1.0,
        },
    );
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr(), "tight").unwrap();
    // The burst token pays for the first request; the second is rejected
    // by the bucket with a typed Busy — not a timeout, not a stall.
    let first = c.request(&Request::Snapshot {
        relation: "account".into(),
    });
    assert!(matches!(first, Ok(Response::SnapshotData { .. })));
    let second = c.request(&Request::Snapshot {
        relation: "account".into(),
    });
    assert!(matches!(second, Ok(Response::Busy { .. })));
    let stats = c.stats().unwrap(); // Stats bypasses admission
    assert!(stats.contains("tenant.tight.busy_rejected 1"));
    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_with_idle_connections() {
    let (handle, addr, _) = start();
    let _idle1 = Client::connect(addr, "acme").unwrap();
    let _idle2 = Client::connect(addr, "acme").unwrap();
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(2),
        "shutdown must not wait on idle connections"
    );
}

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
/// nobody stored is still a typed `UnknownStatement` on the wire. Their
/// plans live in the tenant engine's ad-hoc shape table instead: the first
/// request of a shape prepares it, the four that repeat the shape reuse
/// it, and another tenant's engine caches nothing.
#[test]
fn adhoc_requests_store_no_statements() {
    let registry = Arc::new(TenantRegistry::new());
    let tenant = registry.add(
        "acme",
        account_engine(EnforcementMode::Static),
        TenantSpec::default(),
    );
    let other = registry.add(
        "globex",
        account_engine(EnforcementMode::Static),
        TenantSpec::default(),
    );
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr(), "acme").unwrap();
    let first = c.prepare("insert(account, row(?0, ?1))").unwrap();
    for i in 0..5 {
        let report = c
            .ad_hoc(&format!("insert(account, {{({i}, 10)}})"))
            .unwrap();
        assert!(report.committed);
        assert_eq!(report.reused_plan, i > 0, "request {i}");
    }
    let second = c.prepare("delete(account, row(?0, ?1))").unwrap();
    assert_eq!(second.stmt_id, first.stmt_id + 1);
    {
        let engine = tenant.engine.lock();
        let id = StatementId(second.stmt_id as usize);
        assert_eq!(engine.statement(id).unwrap().param_count(), 2);
        assert!(engine.statement(StatementId(id.0 + 1)).is_err());
        assert_eq!(engine.cached_shapes(), 1);
    }
    assert_eq!(other.engine.lock().cached_shapes(), 0);
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

/// A durable tenant whose checkpoints keep failing: executions keep
/// answering — the health poll after each one reaps only a finished
/// checkpoint and never waits for one — and `Stats` reports the failures.
#[test]
fn failing_checkpoints_never_stall_executions() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("server-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = account_engine(EnforcementMode::Static);
    engine.config_mut().durability.checkpoint_every = 2;
    engine.make_durable(&dir).unwrap();
    // A directory squatting on the spare's name fails every checkpoint.
    std::fs::create_dir(dir.join("checkpoint.spare")).unwrap();
    let registry = Arc::new(TenantRegistry::new());
    registry.add("vault", engine, TenantSpec::default());
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr(), "vault").unwrap();
    let stmt = c.prepare("insert(account, row(?0, ?1))").unwrap();
    let errors = |stats: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix("tenant.vault.checkpoint_errors "))
            .map_or(0, |n| n.parse().unwrap())
    };
    let mut seen = 0;
    for i in 0..2_000 {
        let report = c.execute(stmt, vec![Value::Int(i), Value::Int(i)]).unwrap();
        assert!(report.committed);
        seen = errors(&c.stats().unwrap());
        if seen >= 1 {
            break;
        }
    }
    assert!(seen >= 1, "no checkpoint failure was reported");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `account` plus an `audit` trail, with one rule check of each kind on
/// the template `insert(account, row(?0, ?1)); insert(audit, row(?0, 1))`:
/// `nonneg` reduces to a point probe, `bounded` (an aggregate) is
/// evaluated generically, and `audited` is dropped by a proof (the
/// constant 1 satisfies it).
fn audited_engine() -> Engine {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of(
            "account",
            &[("id", ValueType::Int), ("balance", ValueType::Int)],
        ),
        RelationSchema::of("audit", &[("id", ValueType::Int), ("n", ValueType::Int)]),
    ])
    .unwrap();
    let mut engine = Engine::with_config(schema, EngineConfig::default());
    for (name, cl) in [
        ("nonneg", "forall x (x in account implies x.balance >= 0)"),
        (
            "bounded",
            "forall x (x in account implies x.balance <= CNT(account) * 1000)",
        ),
        ("audited", "forall x (x in audit implies x.n >= 0)"),
    ] {
        engine.define_constraint(name, cl).unwrap();
    }
    engine
}

const AUDITED_TEMPLATE: &str = "insert(account, row(?0, ?1)); insert(audit, row(?0, 1))";

/// The counter keys of one tenant's slice of a `Stats` dump — everything
/// but wall-clock readings (latencies, rates).
fn counters(stats: &str, tenant: &str) -> Vec<(String, String)> {
    let prefix = format!("tenant.{tenant}.");
    stats
        .lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(' ')?;
            let key = key.strip_prefix(&prefix)?;
            let timed = key.contains("latency") || key == "tx_per_sec";
            (!timed).then(|| (key.to_owned(), value.to_owned()))
        })
        .collect()
}

/// One `ExecuteMany` and the same bindings as one `Execute` each leave
/// equal metrics: two tenants with identical engines, the same bindings
/// (commits and integrity aborts), a DDL step between two rounds — every
/// counter key of the two dumps agrees, `plan_remodified` and the
/// per-rule `skipped / probed / evaluated` counts included.
#[test]
fn execute_many_metrics_equal_per_binding_executes() {
    let registry = Arc::new(TenantRegistry::new());
    for name in ["batched", "single"] {
        registry.add(name, audited_engine(), TenantSpec::default());
    }
    let handle = serve(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut batched = Client::connect(handle.addr(), "batched").unwrap();
    let mut single = Client::connect(handle.addr(), "single").unwrap();
    let stmt_b = batched.prepare(AUDITED_TEMPLATE).unwrap();
    let stmt_s = single.prepare(AUDITED_TEMPLATE).unwrap();
    for round in 0..2i64 {
        if round == 1 {
            for c in [&mut batched, &mut single] {
                c.define_constraint("cap", "forall x (x in account implies x.balance <= 500)")
                    .unwrap();
            }
        }
        // Negative balances abort on `nonneg`; after the DDL step,
        // balances over 500 abort on `cap`. Before it, balances stay at
        // most 500, so the state `cap` is defined over satisfies it.
        let bindings: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                let balance = (i * 37 + round * 11) % (600 + round * 300) - 100;
                vec![Value::Int(round * 100 + i), Value::Int(balance)]
            })
            .collect();
        let (mut committed, mut aborted) = (0, 0);
        for params in bindings.clone() {
            let report = single.execute(stmt_s, params).unwrap();
            committed += u64::from(report.committed);
            aborted += u64::from(!report.committed);
        }
        assert!(committed > 0 && aborted > 0, "round {round}");
        assert_eq!(
            batched.execute_many(stmt_b, bindings).unwrap(),
            (committed, aborted),
            "round {round}"
        );
    }
    let stats = batched.stats().unwrap();
    let (b, s) = (counters(&stats, "batched"), counters(&stats, "single"));
    assert_eq!(b, s, "{stats}");
    for expected in [
        "plan_remodified 1",
        "rule.nonneg.probed 80",
        "rule.bounded.evaluated 80",
        "rule.audited.skipped 80",
    ] {
        let (key, value) = expected.split_once(' ').unwrap();
        assert!(
            b.iter().any(|(k, v)| k == key && v == value),
            "{expected}: {stats}"
        );
    }
    assert!(b.iter().any(|(k, _)| k == "rule.cap.probed"), "{stats}");
    handle.shutdown();
}

/// A binding that fails mid-batch ends the batch with a typed `Engine`
/// error: the `k` bindings before it are committed (in `tx_committed` and
/// in the state), nothing after it runs, and the connection keeps
/// serving.
#[test]
fn execute_many_error_mid_batch_keeps_earlier_commits() {
    let (handle, addr, _) = start();
    let mut c = Client::connect(addr, "acme").unwrap();
    let stmt = c.prepare("insert(account, row(?0, ?1))").unwrap();
    let (n, k) = (10, 6);
    let mut bindings: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(10 * i)])
        .collect();
    bindings[k] = vec![Value::Int(k as i64)];
    let err = c.execute_many(stmt, bindings);
    assert!(matches!(
        err,
        Err(ProtocolError::Remote {
            code: ErrorCode::Engine,
            ..
        })
    ));
    let Err(ProtocolError::Remote { message, .. }) = err else {
        unreachable!()
    };
    assert!(
        message.starts_with(&format!("binding {k}: ")),
        "the error names the failing binding: {message}"
    );
    let rows = c.snapshot("account").unwrap();
    let expected: Vec<Tuple> = (0..k as i64).map(|i| Tuple::of((i, 10 * i))).collect();
    assert_eq!(rows, expected, "exactly the bindings before the error ran");
    let stats = c.stats().unwrap();
    let count = |key: &str| {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(&format!("tenant.acme.{key} ")))
            .unwrap_or_else(|| panic!("{key}: {stats}"))
            .to_owned()
    };
    assert_eq!(count("tx_committed"), k.to_string());
    assert_eq!(count("tx_aborted"), "0");
    assert_eq!(count("errors"), "1");

    // The connection still serves.
    let more = vec![vec![Value::Int(100), Value::Int(1)]];
    assert_eq!(c.execute_many(stmt, more).unwrap(), (1, 0));
    assert_eq!(c.snapshot("account").unwrap().len(), k + 1);
    handle.shutdown();
}

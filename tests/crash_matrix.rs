//! The crash–fault-injection matrix: recovery must always reproduce a
//! **committed prefix** of the workload — never a torn suffix, never a
//! half-applied transaction — under
//!
//! * truncation of the WAL at *every* byte position (frame boundaries and
//!   mid-frame),
//! * a flipped byte at every WAL position (bit rot),
//! * a dropped unsynced tail,
//! * live torn writes and failed fsyncs injected through the
//!   `FailpointFile` shim while the engine runs — a failed fsync on every
//!   surface a commit takes (ad-hoc literal and shape-hit `execute`,
//!   `execute_bound`, `execute_statement`, a compensating copy, and a
//!   concurrent `execute_prepared_many` batch),
//!
//! in all three enforcement modes. The oracle is a ledger of `Database`
//! snapshots (cheap COW clones) taken after every logged operation: a
//! recovery is correct iff its state is `state_eq` to the ledger entry at
//! its reported recovered-through LSN.
//!
//! Set `BENCH_SMOKE=1` to sample the cut/flip positions instead of
//! sweeping every byte (the CI configuration).

use std::path::{Path, PathBuf};

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::parse_program;
use tm_relational::{Database, RelationSchema, Tuple, Value, ValueType};
use txmod::{
    ConcurrentEngine, Durability, DurabilityConfig, EnforcementMode, Engine, EngineConfig,
    EngineError, EngineOutcome, FailPlan, Failpoints, WAL_FILE,
};

const MODES: [EnforcementMode; 3] = [
    EnforcementMode::Off,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn tmpdir(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn engine(mode: EnforcementMode) -> Engine {
    let mut schema = tm_relational::schema::beer_schema();
    let strong = schema.relation("beer").unwrap().renamed("strong");
    schema.add_relation(strong).unwrap();
    for name in ["payments", "ledger"] {
        let cols = [("id", ValueType::Int), ("amount", ValueType::Int)];
        schema
            .add_relation(RelationSchema::of(name, &cols))
            .unwrap();
    }
    let mut e = Engine::with_config(
        schema,
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    e.config_mut().durability = DurabilityConfig {
        level: Durability::Fsync,
        group_commit: 1,
        checkpoint_every: 0, // keep everything in the log for surgery
    };
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e
}

fn insert(name: &str, alcohol: f64) -> tm_algebra::Transaction {
    TransactionBuilder::new()
        .insert_tuple("beer", Tuple::of((name, "ale", "heineken", alcohol)))
        .build()
}

/// Committed states keyed by the WAL LSN that made them durable.
/// `entry(0)` is the state covered by the initial checkpoint.
struct Ledger {
    states: Vec<(u64, Database, Vec<String>)>,
}

impl Ledger {
    fn record(&mut self, e: &Engine) {
        let lsn = e.durable_lsn().unwrap_or(0);
        let rules = e.catalog().rules().iter().map(|r| r.name.clone()).collect();
        self.states.push((lsn, e.database().clone(), rules));
    }

    /// The committed state at `lsn` — recovery landing anywhere else is a
    /// correctness failure.
    fn expect(&self, lsn: u64) -> &(u64, Database, Vec<String>) {
        self.states
            .iter()
            .rev()
            .find(|(l, _, _)| *l == lsn)
            .unwrap_or_else(|| panic!("recovered LSN {lsn} is not a committed-prefix state"))
    }
}

/// Run the standard workload durably in `dir`, returning the ledger.
/// Every entry corresponds to exactly one WAL frame.
fn run_workload(e: &mut Engine, dir: &Path, points: Failpoints) -> Ledger {
    e.make_durable_with_failpoints(dir, points).unwrap();
    let mut ledger = Ledger { states: Vec::new() };
    ledger.record(e); // LSN 0: the initial checkpoint
    e.load(
        "brewery",
        vec![
            Tuple::of(("heineken", "amsterdam", "nl")),
            Tuple::of(("guinness", "dublin", "ie")),
        ],
    )
    .unwrap();
    ledger.record(e);
    assert!(e.execute(&insert("pils", 5.0)).unwrap().committed());
    ledger.record(e);
    // Aborts in enforcing modes (no frame); commits in Off (one frame).
    let out = e.execute(&insert("bad", -1.0)).unwrap();
    if out.committed() {
        ledger.record(e);
    }
    e.define_view(txmod::ViewDef::new(
        "strong",
        tm_algebra::parser::parse_relexpr("select[(#3 > 6.0)](beer)").unwrap(),
    ))
    .unwrap();
    ledger.record(e);
    assert!(e.execute(&insert("tripel", 8.0)).unwrap().committed());
    ledger.record(e);
    e.add_rule_text(
        "IF NOT forall x (x in brewery implies x.name <> null) THEN abort",
        "named_breweries",
    )
    .unwrap();
    ledger.record(e);
    assert!(e.remove_rule("dom").unwrap());
    ledger.record(e);
    assert!(e.execute(&insert("strange", -0.5)).unwrap().committed());
    ledger.record(e);
    ledger
}

/// Recover `dir` and assert the result is exactly the committed prefix the
/// report claims.
fn assert_committed_prefix(dir: &Path, ledger: &Ledger, what: &str) {
    let recovered = Engine::recover(dir).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let (_, db, rules) = ledger.expect(recovered.report.recovered_lsn);
    assert!(
        recovered.engine.database().state_eq(db),
        "{what}: recovered state is not the committed prefix at lsn {}",
        recovered.report.recovered_lsn
    );
    let got: Vec<String> = recovered
        .engine
        .catalog()
        .rules()
        .iter()
        .map(|r| r.name.clone())
        .collect();
    assert_eq!(&got, rules, "{what}: catalog diverges");
}

/// Clone a durability directory with the WAL replaced by `wal_bytes`.
fn surgery(src: &Path, name: &str, wal_bytes: &[u8]) -> PathBuf {
    let dst = tmpdir(name);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let file = entry.file_name();
        if file.to_str() == Some(WAL_FILE) {
            continue;
        }
        std::fs::copy(entry.path(), dst.join(file)).unwrap();
    }
    std::fs::write(dst.join(WAL_FILE), wal_bytes).unwrap();
    dst
}

#[test]
fn truncation_at_every_byte_recovers_a_committed_prefix() {
    for mode in MODES {
        let dir = tmpdir(&format!("trunc-src-{mode:?}"));
        let mut e = engine(mode);
        let ledger = run_workload(&mut e, &dir, Failpoints::none());
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert!(!wal.is_empty());
        let step = if smoke() { 17 } else { 1 };
        let mut cut = 0;
        while cut <= wal.len() {
            let case = surgery(&dir, &format!("trunc-{mode:?}"), &wal[..cut]);
            assert_committed_prefix(&case, &ledger, &format!("{mode:?} cut {cut}"));
            std::fs::remove_dir_all(&case).unwrap();
            cut += step;
        }
        // The full log always recovers the final state.
        let case = surgery(&dir, &format!("trunc-{mode:?}"), &wal);
        let recovered = Engine::recover(&case).unwrap();
        assert!(
            recovered.engine.database().state_eq(e.database()),
            "{mode:?}"
        );
        assert!(recovered.report.truncated_tail.is_none(), "{mode:?}");
        std::fs::remove_dir_all(&case).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn bit_rot_at_every_byte_recovers_a_committed_prefix() {
    for mode in MODES {
        let dir = tmpdir(&format!("flip-src-{mode:?}"));
        let mut e = engine(mode);
        let ledger = run_workload(&mut e, &dir, Failpoints::none());
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let step = if smoke() { 13 } else { 1 };
        let mut victim = 0;
        while victim < wal.len() {
            let mut rotted = wal.clone();
            rotted[victim] ^= 0x41;
            let case = surgery(&dir, &format!("flip-{mode:?}"), &rotted);
            let recovered = Engine::recover(&case)
                .unwrap_or_else(|e| panic!("{mode:?} flip {victim}: recovery failed: {e}"));
            // A flip is always detected (CRC over the payload, length and
            // LSN validation over the header): recovery reports the torn
            // tail and lands on a committed prefix.
            assert!(
                recovered.report.truncated_tail.is_some(),
                "{mode:?} flip {victim}: corruption went unreported"
            );
            let (_, db, _) = ledger.expect(recovered.report.recovered_lsn);
            assert!(
                recovered.engine.database().state_eq(db),
                "{mode:?} flip {victim}: not a committed prefix"
            );
            std::fs::remove_dir_all(&case).unwrap();
            victim += step;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn live_torn_write_loses_only_the_tail() {
    for mode in MODES {
        let dir = tmpdir(&format!("torn-{mode:?}"));
        let points = Failpoints::none();
        let mut e = engine(mode);
        e.make_durable_with_failpoints(&dir, points.clone())
            .unwrap();
        e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
            .unwrap();
        assert!(e.execute(&insert("pils", 5.0)).unwrap().committed());
        let durable_state = e.database().clone();

        // The power dies 7 bytes into the next frame: that commit and
        // everything after it silently never reach the disk.
        points.arm(FailPlan {
            write_budget: Some(7),
            ..FailPlan::default()
        });
        assert!(e.execute(&insert("lost1", 6.0)).unwrap().committed());
        assert!(e.execute(&insert("lost2", 6.5)).unwrap().committed());
        assert!(points.crashed());

        let recovered = Engine::recover(&dir).unwrap();
        assert!(
            recovered.engine.database().state_eq(&durable_state),
            "{mode:?}: recovery must land exactly at the last durable commit"
        );
        assert!(
            recovered.report.truncated_tail.is_some(),
            "{mode:?}: the torn frame must be reported"
        );
        assert_eq!(
            recovered.engine.relation("beer").unwrap().len(),
            1,
            "{mode:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Arm one failing fsync and run `commit(e, 0)`: it must fail with
/// `EngineError::Durability` and leave the state `state_eq` to the state
/// before it. With the fault consumed, `commit(e, 1)` commits, and
/// recovery from `dir` agrees with the engine.
fn fails_then_commits(
    e: &mut Engine,
    dir: &Path,
    points: &Failpoints,
    what: &str,
    mut commit: impl FnMut(&mut Engine, i64) -> txmod::Result<EngineOutcome>,
) -> EngineOutcome {
    let before = e.database().clone();
    points.arm(FailPlan {
        fail_fsyncs: 1,
        ..FailPlan::default()
    });
    let err = commit(e, 0).unwrap_err();
    assert!(
        matches!(err, EngineError::Durability(_)),
        "{what}: got {err:?}"
    );
    // The commit-durability contract: a commit that cannot be made
    // stable is undone in memory too.
    assert!(
        e.database().state_eq(&before),
        "{what}: failed fsync left the commit applied in memory"
    );
    let out = commit(e, 1).unwrap();
    assert!(out.committed(), "{what}: {out}");
    assert!(!e.database().state_eq(&before), "{what}: nothing committed");
    let recovered = Engine::recover(dir).unwrap();
    assert!(
        recovered.engine.database().state_eq(e.database()),
        "{what}: recovery disagrees"
    );
    out
}

/// A failed fsync rolls the commit back on every execution surface, in
/// every mode: the state is as before the failure, the next commit
/// succeeds, and recovery agrees. A concurrent batch that fails at
/// binding k keeps bindings 0..k committed and logged and undoes k.
#[test]
fn failed_fsync_rolls_the_commit_back() {
    let beer = |name: &str| Tuple::of((name, "ale", "heineken", 5.0));
    let binding = |name: String| {
        vec![
            Value::Str(name),
            Value::str("ale"),
            Value::str("heineken"),
            Value::double(5.0),
        ]
    };
    for mode in MODES {
        let dir = tmpdir(&format!("fsync-{mode:?}"));
        let points = Failpoints::none();
        let mut e = engine(mode);
        e.make_durable_with_failpoints(&dir, points.clone())
            .unwrap();
        e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
            .unwrap();

        // An ad-hoc point transaction of a shape not seen yet: the literal
        // path. Its success stores the shape.
        let names = ["unsynced", "synced"];
        fails_then_commits(
            &mut e,
            &dir,
            &points,
            &format!("{mode:?} literal"),
            |e, n| e.execute(&insert(names[n as usize], 5.0)),
        );
        // The same shape again: the ad-hoc shape hit.
        let out = fails_then_commits(
            &mut e,
            &dir,
            &points,
            &format!("{mode:?} shape hit"),
            |e, n| e.execute(&insert(&format!("hit{n}"), 5.0)),
        );
        assert!(out.reused_plan, "{mode:?}: the shape's plan ran");

        let template = TransactionBuilder::new().insert_params("beer", 4).build();
        let prepared = e.prepare(&template).unwrap();
        fails_then_commits(
            &mut e,
            &dir,
            &points,
            &format!("{mode:?} execute_bound"),
            |e, n| e.execute_bound(&prepared.bind(&binding(format!("bound{n}")))?),
        );
        let id = e.store_statement(prepared.clone());
        fails_then_commits(
            &mut e,
            &dir,
            &points,
            &format!("{mode:?} execute_statement"),
            |e, n| e.execute_statement(id, &binding(format!("stored{n}"))),
        );

        // A two-relation commit through a compensating copy: the mirror
        // rule appends it in the enforcing modes, the transaction carries
        // it itself in `Off`.
        let copy = if mode == EnforcementMode::Off {
            "; insert(ledger, payments@ins)"
        } else {
            e.add_rule_text(
                "WHEN INS(payments) IF NOT 1 = 1 THEN insert(ledger, payments@ins) NON-TRIGGERING",
                "ledger_mirror",
            )
            .unwrap();
            ""
        };
        fails_then_commits(&mut e, &dir, &points, &format!("{mode:?} copy"), |e, n| {
            let text = format!("insert(payments, {{({n}, 10)}}){copy}");
            e.execute(&parse_program(&text).unwrap().bracket())
        });
        let paid = Tuple::of((1_i64, 10_i64));
        for relation in ["payments", "ledger"] {
            let rel = e.relation(relation).unwrap();
            assert!(rel.contains(&paid), "{mode:?}: {relation}");
            assert!(
                !rel.contains(&Tuple::of((0_i64, 10_i64))),
                "{mode:?}: {relation}"
            );
        }

        let beers = Engine::recover(&dir).unwrap().engine.database().clone();
        let beers = beers.relation("beer").unwrap();
        for (kept, lost) in [
            ("synced", "unsynced"),
            ("hit1", "hit0"),
            ("bound1", "bound0"),
        ]
        .into_iter()
        .chain([("stored1", "stored0")])
        {
            assert!(beers.contains(&beer(kept)), "{mode:?}: {kept}");
            assert!(!beers.contains(&beer(lost)), "{mode:?}: {lost}");
        }

        // A batch failing at binding k, inside one hold: `each` arms the
        // fault once binding k - 1 is handed over.
        let ce = ConcurrentEngine::new(e);
        let mut session = ce.session();
        let id = session.prepare(&template).unwrap();
        let k = 3;
        let bindings: Vec<_> = (0..6).map(|i| binding(format!("batch{i}"))).collect();
        let before = ce.snapshot();
        let mut handed = 0;
        let err = session
            .execute_prepared_many(id, &bindings, |out, _| {
                assert!(out.committed(), "{mode:?}: binding {handed}");
                handed += 1;
                if handed == k {
                    points.arm(FailPlan {
                        fail_fsyncs: 1,
                        ..FailPlan::default()
                    });
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Durability(_)),
            "{mode:?}: got {err:?}"
        );
        // The error is binding k's: exactly k outcomes were handed over.
        assert_eq!(handed, k, "{mode:?}");
        let after = ce.snapshot();
        let (was, is) = (
            before.relation("beer").unwrap(),
            after.relation("beer").unwrap(),
        );
        assert_eq!(is.len(), was.len() + k, "{mode:?}");
        for i in 0..bindings.len() {
            let t = beer(&format!("batch{i}"));
            assert_eq!(is.contains(&t), i < k, "{mode:?}: binding {i}");
        }
        let out = session
            .execute_prepared(id, &binding("after_batch".to_owned()))
            .unwrap();
        assert!(out.committed(), "{mode:?}");
        let recovered = Engine::recover(&dir).unwrap();
        assert!(
            recovered.engine.database().state_eq(&ce.snapshot()),
            "{mode:?}: recovery disagrees after the batch"
        );
        drop(ce);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn group_commit_batches_fsyncs_but_loses_at_most_the_unsynced_batch() {
    let dir = tmpdir("group");
    let points = Failpoints::none();
    let mut e = engine(EnforcementMode::Static);
    e.config_mut().durability.group_commit = 4;
    e.make_durable_with_failpoints(&dir, points.clone())
        .unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    for i in 0..10 {
        let name = format!("b{i}");
        assert!(e.execute(&insert(&name, 5.0)).unwrap().committed());
    }
    // Everything was written (buffered); recovery after a *clean* stop
    // sees all ten commits even though only some were fsynced.
    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(recovered.engine.relation("beer").unwrap().len(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_idempotent() {
    // Crash, recover, crash again without committing: repeated recovery
    // from the same directory yields the same state every time.
    let dir = tmpdir("idem");
    let mut e = engine(EnforcementMode::Static);
    let _ledger = run_workload(&mut e, &dir, Failpoints::none());
    let first = Engine::recover(&dir).unwrap();
    for _ in 0..3 {
        let again = Engine::recover(&dir).unwrap();
        assert!(again.engine.database().state_eq(first.engine.database()));
        assert_eq!(again.report, first.report);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

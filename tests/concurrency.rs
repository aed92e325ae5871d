//! The concurrency suite: what concurrent sessions guarantee.
//!
//! [`txmod::ConcurrentEngine`] runs every session execution in place on
//! the authoritative database under the engine lock, so a concurrent
//! history is the serial history in lock order. These tests pin the
//! outcomes that order implies:
//!
//! * **overlapping writes** — two sessions inserting (or deleting) the
//!   same row both commit, and exactly one row is left (or none);
//! * **write skew through a constraint** — in either order, the second
//!   transaction sees the first one's commit and aborts on the
//!   constraint; the surviving state satisfies the catalog;
//! * **no effect on abort or no-op** — a constraint abort and an
//!   overlapping write that changes nothing leave the state `state_eq`;
//! * **visibility** — a commit by one session, a DDL step, or an
//!   out-of-band load through `lock()` is seen by the next execution of
//!   every session (a stale plan re-prepares first);
//! * **serializability** — random multi-threaded histories of prepared
//!   executions, in all three enforcement modes, land `state_eq` to the
//!   serial execution of the committed transactions in commit-epoch
//!   order;
//! * **no relation copies** — steady-state commits mutate the
//!   authoritative state in place (in `steady_state_unshares.rs`, the
//!   only test of its process, because the unshare count it reads is
//!   process-wide);
//! * **one statement table** — sessions are handles: a statement prepared
//!   through one session executes from any other, and a stale plan is
//!   re-modified once per catalog change, not once per session;
//! * **batches** — `execute_prepared_many` runs a batch under one hold of
//!   the lock per `MAX_BINDINGS_PER_HOLD` bindings, and answers exactly
//!   as a loop of `execute_prepared`: one transaction, one verdict and one
//!   epoch per binding, a failing binding ending the batch after the
//!   bindings before it.

use std::thread;

use tm_algebra::builder::TransactionBuilder;
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use txmod::{
    ConcurrentEngine, EnforcementMode, Engine, EngineConfig, EngineError, EngineOutcome,
    StatementId, MAX_BINDINGS_PER_HOLD,
};

const MODES: [EnforcementMode; 3] = [
    EnforcementMode::Off,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

/// Beer-schema engine with a referential constraint (beer.brewery must
/// exist in brewery) and one brewery loaded.
fn ref_engine(mode: EnforcementMode) -> Engine {
    let mut e = Engine::with_config(
        tm_relational::schema::beer_schema(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    e.define_constraint(
        "ref",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
    )
    .unwrap();
    e.load(
        "brewery",
        vec![
            Tuple::of(("guinness", "dublin", "ie")),
            Tuple::of(("heineken", "amsterdam", "nl")),
        ],
    )
    .unwrap();
    e
}

fn beer_row(name: &str, brewery: &str) -> Tuple {
    Tuple::of((name, "ale", brewery, 5.0_f64))
}

/// The same row as a grounded singleton source — the statement shape the
/// prepare-time specializer emits, which the fast-path recognizer picks
/// up.
fn beer_exprs(name: &str, brewery: &str) -> Vec<tm_algebra::ScalarExpr> {
    use tm_algebra::ScalarExpr;
    vec![
        ScalarExpr::str(name),
        ScalarExpr::str("ale"),
        ScalarExpr::str(brewery),
        ScalarExpr::double(5.0),
    ]
}

/// Two sessions insert the same row: the first to take the lock inserts
/// it, the second's insert finds it present and commits as a no-op.
#[test]
fn overlapping_inserts_first_committer_wins() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let tx = TransactionBuilder::new()
        .insert_row("beer", beer_exprs("stout", "guinness"))
        .build();
    let id1 = s1.prepare(&tx).unwrap();
    let id2 = s2.prepare(&tx).unwrap();

    let out1 = s1.execute_prepared(id1, &[]).unwrap();
    let out2 = s2.execute_prepared(id2, &[]).unwrap();
    assert!(out1.committed() && out2.committed());
    assert_eq!(out1.outcome.stats().tuples_inserted, 1);
    assert_eq!(out2.outcome.stats().tuples_inserted, 0);
    // Exactly one copy of the row made it in.
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 1);
}

#[test]
fn overlapping_deletes_first_committer_wins() {
    let mut engine = ref_engine(EnforcementMode::Static);
    engine
        .load("beer", vec![beer_row("stout", "guinness")])
        .unwrap();
    let ce = ConcurrentEngine::new(engine);
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let tx = TransactionBuilder::new()
        .delete_row("beer", beer_exprs("stout", "guinness"))
        .build();
    let id1 = s1.prepare(&tx).unwrap();
    let id2 = s2.prepare(&tx).unwrap();

    let out1 = s1.execute_prepared(id1, &[]).unwrap();
    let out2 = s2.execute_prepared(id2, &[]).unwrap();
    assert!(out1.committed() && out2.committed());
    assert_eq!(out1.outcome.stats().tuples_deleted, 1);
    assert_eq!(out2.outcome.stats().tuples_deleted, 0);
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 0);
}

/// Disjoint single-row traffic — the workload the engine exists for —
/// commits on every session, each commit at its own epoch.
#[test]
fn disjoint_inserts_commute() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let id1 = s1.prepare(&template).unwrap();
    let id2 = s2.prepare(&template).unwrap();

    let bind = |name: &str| {
        vec![
            Value::str(name),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(5.0),
        ]
    };
    assert!(s1.execute_prepared(id1, &bind("a")).unwrap().committed());
    assert!(s2.execute_prepared(id2, &bind("b")).unwrap().committed());
    assert_eq!(s1.last_commit_epoch(), Some(1));
    assert_eq!(s2.last_commit_epoch(), Some(2));
    assert_eq!(ce.committed_epoch(), 2);
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 2);
}

/// Write skew through the referential constraint: one transaction deletes
/// a brewery, the other inserts a beer referencing it. Each is consistent
/// against the state both started from; together they would orphan the
/// beer. Run one after the other, the second sees the first's commit and
/// its check aborts it — in either order.
#[test]
fn write_skew_on_referential_constraint_conflicts_either_order() {
    for delete_first in [true, false] {
        let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
        let mut s1 = ce.session();
        let mut s2 = ce.session();
        let del = TransactionBuilder::new()
            .delete_tuple("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
            .build();
        let ins = TransactionBuilder::new()
            .insert_tuple("beer", beer_row("pils", "heineken"))
            .build();
        let id_del = s1.prepare(&del).unwrap();
        let id_ins = s2.prepare(&ins).unwrap();

        let (first, second) = if delete_first {
            let first = s1.execute_prepared(id_del, &[]).unwrap();
            (first, s2.execute_prepared(id_ins, &[]).unwrap())
        } else {
            let first = s2.execute_prepared(id_ins, &[]).unwrap();
            (first, s1.execute_prepared(id_del, &[]).unwrap())
        };
        assert!(first.committed());
        assert!(
            !second.committed(),
            "the second transaction must abort on the constraint"
        );
        // The surviving state satisfies the constraint.
        drop(s1);
        drop(s2);
        let winner = ConcurrentEngine::try_into_engine(ce).unwrap();
        assert_eq!(winner.check_state().unwrap(), Vec::<String>::new());
    }
}

/// The losing half of an overlapping write changes nothing: the state is
/// bit-identical before and after it, and it takes no epoch.
#[test]
fn conflict_leaves_state_untouched() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let tx = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("stout", "guinness"))
        .build();
    let id1 = s1.prepare(&tx).unwrap();
    let id2 = s2.prepare(&tx).unwrap();

    assert!(s1.execute_prepared(id1, &[]).unwrap().committed());
    let before = ce.snapshot();
    let epoch = ce.committed_epoch();
    assert!(s2.execute_prepared(id2, &[]).unwrap().committed());
    assert!(ce.snapshot().state_eq(&before));
    assert_eq!(ce.committed_epoch(), epoch);
    assert_eq!(s2.last_commit_epoch(), Some(epoch));
}

/// A constraint abort has no effect either.
#[test]
fn constraint_abort_leaves_snapshot_untouched() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s = ce.session();
    let tx = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("orphan", "nonexistent"))
        .build();
    let id = s.prepare(&tx).unwrap();
    let before = ce.snapshot();
    let out = s.execute_prepared(id, &[]).unwrap();
    assert!(!out.committed());
    assert!(ce.snapshot().state_eq(&before));
}

/// A commit by one session is visible to another session's referential
/// check on its very next execution: a brewery committed by one session
/// lets a beer inserted by the other commit.
#[test]
fn session_copies_track_concurrent_commits() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    // s2 commits first, so it has executed before s1's commit.
    let warm = TransactionBuilder::new()
        .insert_row("beer", beer_exprs("stout", "guinness"))
        .build();
    let warm_id = s2.prepare(&warm).unwrap();
    assert!(s2.execute_prepared(warm_id, &[]).unwrap().committed());

    // s1 creates a brewery s2 has never seen.
    let mkbrew = TransactionBuilder::new()
        .insert_tuple("brewery", Tuple::of(("westvleteren", "vleteren", "be")))
        .build();
    let id1 = s1.prepare(&mkbrew).unwrap();
    assert!(s1.execute_prepared(id1, &[]).unwrap().committed());

    // s2 references it: the check passes only if s2 sees s1's commit.
    let ins = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("trappist", "westvleteren"))
        .build();
    let id2 = s2.prepare(&ins).unwrap();
    assert!(s2.execute_prepared(id2, &[]).unwrap().committed());
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 2);
}

/// An abort does not stick to a statement: an insert that aborted for
/// want of its brewery commits on its next execution once another
/// session has created the brewery, reusing its plan and spending no
/// retry.
#[test]
fn abort_then_concurrent_commit_then_retry_commits() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let ins = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("trappist", "westvleteren"))
        .build();
    let id2 = s2.prepare(&ins).unwrap();
    assert!(!s2.execute_prepared(id2, &[]).unwrap().committed());

    // s1 creates the brewery.
    let mkbrew = TransactionBuilder::new()
        .insert_tuple("brewery", Tuple::of(("westvleteren", "vleteren", "be")))
        .build();
    let id1 = s1.prepare(&mkbrew).unwrap();
    assert!(s1.execute_prepared(id1, &[]).unwrap().committed());

    // s2's next execution of the same statement sees it and commits.
    let (out, retries) = s2.execute_with_retry(id2, &[], 5).unwrap();
    assert!(out.committed() && out.reused_plan);
    assert_eq!(retries, 0);
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 1);
}

/// Administration through `lock()` that writes data is seen by the next
/// execution of a session: a brewery loaded out-of-band satisfies the
/// referential check of a statement the session prepares afterwards.
#[test]
fn out_of_band_load_invalidates_session_copies() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s = ce.session();
    let warm = TransactionBuilder::new()
        .insert_row("beer", beer_exprs("stout", "guinness"))
        .build();
    let warm_id = s.prepare(&warm).unwrap();
    assert!(s.execute_prepared(warm_id, &[]).unwrap().committed());

    // An administrator loads a brewery directly into the engine.
    ce.lock()
        .load(
            "brewery",
            vec![Tuple::of(("westvleteren", "vleteren", "be"))],
        )
        .unwrap();

    // The session's next execution must see it, or the referential
    // check aborts.
    let ins = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("trappist", "westvleteren"))
        .build();
    let id = s.prepare(&ins).unwrap();
    assert!(s.execute_prepared(id, &[]).unwrap().committed());
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 2);
}

/// An out-of-band write between two executions of one statement is seen
/// by the second: a brewery loaded through `lock()` satisfies the
/// referential check of a statement prepared, and aborted, before the
/// load. The load moves no catalog, so the plan is reused.
#[test]
fn out_of_band_write_between_executions_is_seen() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s = ce.session();
    let ins = TransactionBuilder::new()
        .insert_tuple("beer", beer_row("trappist", "westvleteren"))
        .build();
    let id = s.prepare(&ins).unwrap();
    assert!(!s.execute_prepared(id, &[]).unwrap().committed());

    // An administrator loads the brewery directly into the engine.
    ce.lock()
        .load(
            "brewery",
            vec![Tuple::of(("westvleteren", "vleteren", "be"))],
        )
        .unwrap();

    let out = s.execute_prepared(id, &[]).unwrap();
    assert!(out.committed() && out.reused_plan);
    let snap = ce.snapshot();
    assert_eq!(snap.relation("beer").unwrap().len(), 1);
    assert_eq!(snap.relation("brewery").unwrap().len(), 3);
}

// ---------------------------------------------------------------------------
// Serializability property: random concurrent histories equal a serial one.
// ---------------------------------------------------------------------------

/// Minimal deterministic RNG (splitmix64) — the suite must not depend on
/// ambient entropy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn item_engine(mode: EnforcementMode) -> Engine {
    let schema = DatabaseSchema::from_relations(vec![RelationSchema::of(
        "item",
        &[("k", ValueType::Int), ("v", ValueType::Int)],
    )])
    .unwrap();
    let mut e = Engine::with_config(
        schema,
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    e.define_constraint("nonneg", "forall x (x in item implies x.v >= 0)")
        .unwrap();
    e
}

/// One logged committed transaction: its commit epoch, which template ran
/// (0 = insert, 1 = delete), and the bound parameters.
type Logged = (u64, usize, i64, i64);

#[test]
fn concurrent_histories_are_serializable_in_all_modes() {
    for mode in MODES {
        let ce = ConcurrentEngine::new(item_engine(mode));
        const THREADS: usize = 4;
        const OPS: usize = 60;

        let logs: Vec<Vec<Logged>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let mut session = ce.session();
                    scope.spawn(move || {
                        let insert = TransactionBuilder::new().insert_params("item", 2).build();
                        let delete = TransactionBuilder::new().delete_params("item", 2).build();
                        let ids = [
                            session.prepare(&insert).unwrap(),
                            session.prepare(&delete).unwrap(),
                        ];
                        let mut rng = Rng(0xfeed + t as u64);
                        let mut log = Vec::new();
                        for _ in 0..OPS {
                            let which = rng.below(2) as usize;
                            // Small key domain forces real contention; the
                            // occasional negative value exercises the
                            // constraint-abort path (except in Off mode).
                            let k = rng.below(6) as i64;
                            let v = rng.below(7) as i64 - 1;
                            let params = [Value::Int(k), Value::Int(v)];
                            match session.execute_with_retry(ids[which], &params, 50) {
                                Ok((out, _retries)) => {
                                    if out.committed() {
                                        let epoch = session.last_commit_epoch().unwrap();
                                        log.push((epoch, which, k, v));
                                    }
                                }
                                Err(e) => panic!("retry budget exhausted: {e}"),
                            }
                        }
                        log
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Replay the committed transactions serially, in commit-epoch
        // order, on a twin engine. Every one of them must commit again,
        // and the final states must agree — the concurrent history is
        // equivalent to this serial order.
        let mut merged: Vec<Logged> = logs.into_iter().flatten().collect();
        merged.sort_by_key(|&(epoch, ..)| epoch);
        let mut twin = item_engine(mode);
        let mut ts = twin.session();
        let insert = TransactionBuilder::new().insert_params("item", 2).build();
        let delete = TransactionBuilder::new().delete_params("item", 2).build();
        let tids = [ts.prepare(&insert).unwrap(), ts.prepare(&delete).unwrap()];
        for (epoch, which, k, v) in &merged {
            let out = ts
                .execute_prepared(tids[*which], &[Value::Int(*k), Value::Int(*v)])
                .unwrap();
            assert!(
                out.committed(),
                "[{mode:?}] tx at epoch {epoch} committed concurrently \
                 but aborts in the serial replay"
            );
        }
        let concurrent_final = ce.snapshot();
        assert!(
            twin.database().state_eq(&concurrent_final),
            "[{mode:?}] concurrent final state diverges from the serial replay"
        );
        // And the surviving state satisfies the constraints.
        if mode != EnforcementMode::Off {
            let violations = ConcurrentEngine::try_into_engine(ce)
                .unwrap()
                .check_state()
                .unwrap();
            assert_eq!(violations, Vec::<String>::new(), "[{mode:?}]");
        }
    }
}

/// `StatementId`s are engine-scoped: an id prepared through one session
/// executes from another, and the stale plan both share is re-modified
/// once per catalog change — by whichever session runs it first. An id
/// that was never stored is `UnknownStatement`.
#[test]
fn statement_ids_are_engine_scoped() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let id: StatementId = s1.prepare(&template).unwrap();
    let bind = |name: &str, abv: f64| {
        vec![
            Value::str(name),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(abv),
        ]
    };
    let out = s2.execute_prepared(id, &bind("stout", 30.0)).unwrap();
    assert!(out.committed() && out.reused_plan);

    ce.lock()
        .define_constraint("abv_cap", "forall x (x in beer implies x.alcohol <= 20)")
        .unwrap();
    let out = s1.execute_prepared(id, &bind("barleywine", 40.0)).unwrap();
    assert!(
        !out.committed() && !out.reused_plan,
        "s1 refreshes the plan"
    );
    let out = s2.execute_prepared(id, &bind("tripel", 25.0)).unwrap();
    assert!(
        !out.committed() && out.reused_plan,
        "s2 runs the plan s1 refreshed, new constraint included"
    );

    let never = StatementId(id.0 + 1);
    let err = s2.execute_prepared(never, &[]).unwrap_err();
    assert!(matches!(err, EngineError::UnknownStatement(n) if n == never.0));
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 1);
}

/// A DDL step between two executions is enforced on the next one: the
/// statement's plan is stale, re-prepares under the new catalog
/// (`reused_plan == false`), and its checks include the new constraint.
#[test]
fn ddl_between_executions_re_prepares() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let mut s = ce.session();
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let id = s.prepare(&template).unwrap();
    let bind = |name: &str, abv: f64| {
        vec![
            Value::str(name),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(abv),
        ]
    };
    let out = s.execute_prepared(id, &bind("stout", 30.0)).unwrap();
    assert!(out.committed() && out.reused_plan);

    // A constraint lands between two executions.
    ce.lock()
        .define_constraint("abv_cap", "forall x (x in beer implies x.alcohol <= 20)")
        .unwrap();

    let out = s.execute_prepared(id, &bind("barleywine", 40.0)).unwrap();
    assert!(!out.committed(), "the new constraint must be enforced");
    assert!(!out.reused_plan, "the stale plan must re-prepare");
    let out = s.execute_prepared(id, &bind("porter", 6.0)).unwrap();
    assert!(out.committed() && out.reused_plan);
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 2);
}

/// A statement prepared outside any session can be adopted through many:
/// each adoption stores its own entry in the engine's statement table,
/// executions stay concurrent, and an adopted plan re-modifies lazily when
/// the catalog moves under it.
#[test]
fn adopted_statements_execute_and_refresh() {
    let ce = ConcurrentEngine::new(ref_engine(EnforcementMode::Static));
    let tx = TransactionBuilder::new()
        .insert_row("beer", beer_exprs("stout", "guinness"))
        .build();
    let canonical = ce.lock().prepare(&tx).unwrap();

    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let id1 = s1.adopt(canonical.clone());
    let id2 = s2.adopt(canonical);

    let out = s1.execute_prepared(id1, &[]).unwrap();
    assert!(out.committed() && out.reused_plan);

    // DDL moves the catalog; the other adoption's plan is stale and
    // refreshes on its next execution (set semantics make the
    // duplicate insert a no-op commit).
    ce.lock()
        .define_constraint("abv_cap", "forall x (x in beer implies x.alcohol <= 20)")
        .unwrap();
    let out = s2.execute_prepared(id2, &[]).unwrap();
    assert!(out.committed() && !out.reused_plan);
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 1);
}

// ---------------------------------------------------------------------------
// Batches: one hold of the lock per chunk, one transaction per binding.
// ---------------------------------------------------------------------------

/// An outcome with its check timings reduced to their count: two runs of
/// the same binding measure different nanoseconds, never a different
/// number of checks.
fn untimed(out: &EngineOutcome) -> EngineOutcome {
    let mut out = out.clone();
    out.check_times_ns = vec![0; out.check_times_ns.len()];
    out
}

/// `execute_prepared_many` runs exactly what a loop of `execute_prepared`
/// over the same bindings runs, in all three modes, with and without
/// per-check timing: the same outcomes (verdict, abort reason,
/// `ExecStats`, `reused_plan`, checks, modification trace, rule table),
/// the same epochs and `state_eq` states — for a batch of
/// `2 × MAX_BINDINGS_PER_HOLD + 1` bindings (three holds), after a DDL
/// step (exactly one re-modification), and for a second template whose
/// plan two DDL steps left stale.
#[test]
fn execute_prepared_many_equals_a_loop_of_execute_prepared() {
    for (m, mode) in MODES.into_iter().enumerate() {
        for timed in [false, true] {
            let [batched, looped] = [item_engine(mode), item_engine(mode)].map(|mut e| {
                e.set_check_timing(timed);
                ConcurrentEngine::new(e)
            });
            let (mut bs, mut ls) = (batched.session(), looped.session());
            let insert = TransactionBuilder::new().insert_params("item", 2).build();
            let delete = TransactionBuilder::new().delete_params("item", 2).build();
            let ids = [&insert, &delete].map(|t| (bs.prepare(t).unwrap(), ls.prepare(t).unwrap()));
            let mut rng = Rng(2 * m as u64 + u64::from(timed) + 1);
            let steps = [(0, None), (0, Some("v <= 1500")), (1, Some("v <= 1800"))];
            for (step, (template, ddl)) in steps.into_iter().enumerate() {
                let ctx = format!("{mode:?}, timed {timed}, step {step}");
                if let Some(cl) = ddl {
                    let cl = format!("forall x (x in item implies x.{cl})");
                    for ce in [&batched, &looped] {
                        ce.lock()
                            .define_constraint(&format!("cap{step}"), &cl)
                            .unwrap();
                    }
                }
                // Small key and value pools: repeated rows (no-op commits,
                // which take no epoch), negative values and values over
                // the caps (aborts).
                let bindings: Vec<Vec<Value>> = (0..2 * MAX_BINDINGS_PER_HOLD + 1)
                    .map(|_| {
                        let k = rng.below(48) as i64;
                        vec![Value::Int(k), Value::Int(rng.below(2000) as i64 - 100)]
                    })
                    .collect();
                let (b, l) = ids[template];
                let mut got = Vec::new();
                bs.execute_prepared_many(b, &bindings, |out, _| got.push(untimed(out)))
                    .unwrap();
                let mut want = Vec::new();
                let mut want_epochs = Vec::new();
                for params in &bindings {
                    want.push(untimed(&ls.execute_prepared(l, params).unwrap()));
                    want_epochs.push(ls.last_commit_epoch());
                }
                assert_eq!(got, want, "{ctx}");
                let remodified = got.iter().filter(|o| !o.reused_plan).count();
                assert_eq!(remodified, usize::from(ddl.is_some()), "{ctx}");
                assert!(got.iter().any(|o| o.committed()), "{ctx}");
                if mode != EnforcementMode::Off && template == 0 {
                    assert!(got.iter().any(|o| !o.committed()), "{ctx}");
                }
                if timed {
                    assert!(got.iter().all(|o| o.rule_checks.is_some()), "{ctx}");
                }
                assert_eq!(bs.last_commit_epoch(), ls.last_commit_epoch(), "{ctx}");
                assert_eq!(
                    bs.last_commit_epoch(),
                    want_epochs.last().copied().flatten()
                );
                assert_eq!(batched.committed_epoch(), looped.committed_epoch(), "{ctx}");
                assert!(
                    batched.snapshot().state_eq(&looped.snapshot()),
                    "{ctx}: states diverged"
                );
            }
        }
    }
}

/// A batch is many transactions, not one: each binding takes its own
/// epoch and its own time under the lock — a batch of `n` fresh rows
/// advances the commit epoch by `n`,
/// and a failing binding `k` ends the batch with its error after exactly
/// `k` commits, running nothing after it.
#[test]
fn execute_prepared_many_stamps_each_binding_and_stops_at_an_error() {
    let ce = ConcurrentEngine::new(item_engine(EnforcementMode::Static));
    let mut s = ce.session();
    let id = s
        .prepare(&TransactionBuilder::new().insert_params("item", 2).build())
        .unwrap();
    let rows = |range: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        range.map(|k| vec![Value::Int(k), Value::Int(k)]).collect()
    };
    let before = ce.committed_epoch();
    let (mut seen, mut held) = (0, std::time::Duration::ZERO);
    let t0 = std::time::Instant::now();
    s.execute_prepared_many(id, &rows(0..700), |out, t| {
        assert!(out.committed());
        seen += 1;
        held += t;
    })
    .unwrap();
    assert!(
        held <= t0.elapsed(),
        "per-binding times lie inside the call"
    );
    assert_eq!(seen, 700);
    assert_eq!(ce.committed_epoch(), before + 700);
    assert_eq!(s.last_commit_epoch(), Some(before + 700));

    let mut bad = rows(1000..1600);
    let k = MAX_BINDINGS_PER_HOLD + 7;
    bad[k] = vec![Value::Int(1)];
    let mut seen = 0;
    let err = s
        .execute_prepared_many(id, &bad, |_, _| seen += 1)
        .unwrap_err();
    assert!(matches!(err, EngineError::ParamArity { .. }), "{err}");
    assert_eq!(seen, k);
    assert_eq!(ce.snapshot().relation("item").unwrap().len(), 700 + k);
    assert_eq!(ce.committed_epoch(), before + 700 + k as u64);

    // An empty batch takes no lock and runs nothing.
    s.execute_prepared_many(id, &Vec::<Vec<Value>>::new(), |_, _| unreachable!())
        .unwrap();
}

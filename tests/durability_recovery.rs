//! The recovery invariant suite: an engine recovered from its durability
//! directory is `state_eq`-identical to the never-crashed engine — same
//! relation contents, same catalog, same views — across checkpoints, log
//! replay, DDL, bulk loads, and all four enforcement modes.

use std::path::PathBuf;

use proptest::prelude::*;
use tm_algebra::builder::TransactionBuilder;
use tm_relational::{Tuple, Value};
use txmod::{Durability, DurabilityConfig, EnforcementMode, Engine, RecoveryError, ViewDef};

const MODES: [EnforcementMode; 4] = [
    EnforcementMode::Off,
    EnforcementMode::Dynamic,
    EnforcementMode::Static,
    EnforcementMode::Differential,
];

fn tmpdir(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn constrained(mode: EnforcementMode, level: Durability) -> Engine {
    // The beer schema plus a `strong` relation to hold the workload's
    // materialized view.
    let mut schema = tm_relational::schema::beer_schema();
    let strong = schema.relation("beer").unwrap().renamed("strong");
    schema.add_relation(strong).unwrap();
    let mut e = Engine::with_config(
        schema,
        txmod::EngineConfig {
            mode,
            ..txmod::EngineConfig::default()
        },
    );
    e.config_mut().durability = DurabilityConfig {
        level,
        ..DurabilityConfig::default()
    };
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e.define_constraint(
        "ref",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
    )
    .unwrap();
    e
}

fn insert(name: &str, brewery: &str, alcohol: f64) -> tm_algebra::Transaction {
    TransactionBuilder::new()
        .insert_tuple("beer", Tuple::of((name, "ale", brewery, alcohol)))
        .build()
}

/// Assert the recovered engine matches the live one: database state,
/// catalog rules (names, in order), views, and enforcement config.
fn assert_twin(live: &Engine, recovered: &Engine) {
    assert!(
        recovered.database().state_eq(live.database()),
        "recovered database diverges from the live engine"
    );
    let names = |e: &Engine| -> Vec<String> {
        e.catalog().rules().iter().map(|r| r.name.clone()).collect()
    };
    assert_eq!(names(recovered), names(live), "catalog rules diverge");
    let views = |e: &Engine| -> Vec<(String, String)> {
        e.views()
            .iter()
            .map(|v| (v.name.clone(), v.definition.to_string()))
            .collect()
    };
    assert_eq!(views(recovered), views(live), "views diverge");
    assert_eq!(recovered.config(), live.config(), "config diverges");
}

/// The standard workload: DDL before and after commits, a bulk load, an
/// aborted transaction (which must leave no trace), and a view.
fn run_workload(e: &mut Engine) {
    e.load(
        "brewery",
        vec![
            Tuple::of(("heineken", "amsterdam", "nl")),
            Tuple::of(("guinness", "dublin", "ie")),
        ],
    )
    .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    // Violates `dom` in enforcing modes: aborted, nothing logged. (In Off
    // mode it commits — the recovered twin must reproduce that too.)
    let _ = e.execute(&insert("bad", "heineken", -1.0)).unwrap();
    assert!(e
        .execute(&insert("stout", "guinness", 7.5))
        .unwrap()
        .committed());
    e.define_view(ViewDef::new(
        "strong",
        tm_algebra::parser::parse_relexpr("select[(#3 > 6.0)](beer)").unwrap(),
    ))
    .unwrap();
    assert!(e.remove_rule("ref").unwrap());
    assert!(e
        .execute(&insert("ipa", "nowhere", 6.5))
        .unwrap()
        .committed());
}

#[test]
fn recovery_reproduces_the_live_engine_in_all_modes() {
    for mode in MODES {
        let dir = tmpdir(&format!("modes-{mode:?}"));
        let mut e = constrained(mode, Durability::Fsync);
        e.make_durable(&dir).unwrap();
        run_workload(&mut e);

        let recovered = Engine::recover(&dir).unwrap();
        assert_twin(&e, &recovered.engine);
        assert_eq!(recovered.report.checkpoint_lsn, 0, "{mode:?}");
        assert!(recovered.report.frames_replayed > 0, "{mode:?}");
        assert_eq!(
            Some(recovered.report.recovered_lsn),
            e.durable_lsn(),
            "{mode:?}: recovery must surface the recovered-through LSN"
        );
        assert!(recovered.report.truncated_tail.is_none(), "{mode:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn buffered_level_survives_a_clean_process_exit() {
    // Buffered frames sit in a userspace buffer; dropping the engine (a
    // clean shutdown) flushes them, so recovery reproduces every commit.
    let dir = tmpdir("buffered");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.make_durable(&dir).unwrap();
    run_workload(&mut e);
    let twin = e.clone(); // memory-only twin survives the drop
    drop(e);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&twin, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_the_log_and_recovery_resumes_after_it() {
    let dir = tmpdir("ckpt");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());

    let ckpt_lsn = e.checkpoint().unwrap();
    assert!(ckpt_lsn > 0);
    // Post-checkpoint commits replay on top of the snapshot.
    assert!(e
        .execute(&insert("more", "heineken", 5.5))
        .unwrap()
        .committed());

    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, ckpt_lsn);
    assert_eq!(recovered.report.frames_replayed, 1);
    assert!(recovered.report.recovered_lsn > ckpt_lsn);

    // And recovery from a checkpoint with an empty log is exact too.
    let mut e2 = recovered.engine;
    let ckpt2 = e2.checkpoint().unwrap();
    let again = Engine::recover(&dir).unwrap();
    assert_twin(&e2, &again.engine);
    assert_eq!(again.report.checkpoint_lsn, ckpt2);
    assert_eq!(again.report.frames_replayed, 0);
    assert_eq!(again.report.recovered_lsn, ckpt2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn automatic_checkpoints_fire_by_frame_count() {
    let dir = tmpdir("auto");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 3;
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    for i in 0..7 {
        let name = format!("beer{i}");
        assert!(e
            .execute(&insert(&name, "heineken", 5.0))
            .unwrap()
            .committed());
    }
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    // 8 frames at checkpoint_every=3: at least two checkpoints happened,
    // so recovery starts well past LSN 0 and replays at most 2 frames.
    assert!(recovered.report.checkpoint_lsn >= 6);
    assert!(recovered.report.frames_replayed <= 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_auto_checkpoint_does_not_retract_a_durable_commit() {
    let dir = tmpdir("ckpt-fail");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 2;
    e.make_durable(&dir).unwrap();
    // Block the auto-checkpoint that the second frame will trigger: a
    // directory squatting on its temp path makes write_atomic fail.
    let block = dir.join("checkpoint-00000000000000000002.ckpt.tmp");
    std::fs::create_dir(&block).unwrap();

    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap(); // frame 1
                   // Frame 2 triggers the (blocked) checkpoint. The commit's frame is
                   // already durable, so the commit must succeed — the checkpoint error
                   // is deferred, not turned into a phantom commit failure that replay
                   // would resurrect.
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    let err = e
        .take_checkpoint_error()
        .expect("checkpoint failure deferred");
    assert!(matches!(err, txmod::EngineError::Durability(_)), "{err:?}");
    assert!(e.take_checkpoint_error().is_none(), "error taken once");
    // Disk agrees with the reported success: recovery replays the commit.
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);

    // The next append retries the checkpoint (different LSN, unblocked
    // temp path) and succeeds: truncation was delayed, never lost.
    std::fs::remove_dir(&block).unwrap();
    assert!(e
        .execute(&insert("stout", "heineken", 7.5))
        .unwrap()
        .committed());
    assert!(e.take_checkpoint_error().is_none());
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_load_rolls_back_only_what_it_inserted() {
    let dir = tmpdir("load-undo");
    let points = txmod::Failpoints::none();
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable_with_failpoints(&dir, points.clone())
        .unwrap();
    let heineken = Tuple::of(("heineken", "amsterdam", "nl"));
    let guinness = Tuple::of(("guinness", "dublin", "ie"));
    e.load("brewery", vec![heineken.clone()]).unwrap();

    // A failed load whose batch overlaps committed rows must undo only
    // the tuples it inserted — not delete the pre-existing ones.
    points.arm(txmod::FailPlan {
        fail_fsyncs: 1,
        ..txmod::FailPlan::default()
    });
    let err = e
        .load("brewery", vec![heineken.clone(), guinness.clone()])
        .unwrap_err();
    assert!(matches!(err, txmod::EngineError::Durability(_)), "{err:?}");
    let brewery = e.relation("brewery").unwrap();
    assert!(
        brewery.contains(&heineken),
        "failed load deleted a pre-existing committed row"
    );
    assert!(!brewery.contains(&guinness));
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);

    // The fault cleared; the same load goes through.
    assert_eq!(e.load("brewery", vec![heineken, guinness]).unwrap(), 1);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aborted_make_durable_leaves_no_stale_log() {
    // make_durable removes the previous incarnation's WAL *before* the
    // fresh checkpoint-0 exists: failing in between must yield an
    // explicit NoCheckpoint, never checkpoint-0 plus a stale log whose
    // frames would silently replay on top of the new snapshot.
    let dir = tmpdir("attach-abort");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    drop(e);

    // Second attach dies between WAL removal and the checkpoint write
    // (a directory squatting on the checkpoint's temp path).
    let block = dir.join("checkpoint-00000000000000000000.ckpt.tmp");
    std::fs::create_dir(&block).unwrap();
    let mut e2 = constrained(EnforcementMode::Static, Durability::Fsync);
    assert!(e2.make_durable(&dir).is_err());
    assert!(
        !dir.join("wal.log").exists(),
        "the stale WAL must be gone before the checkpoint is attempted"
    );
    let err = Engine::recover(&dir).unwrap_err();
    assert!(matches!(err, RecoveryError::NoCheckpoint { .. }), "{err:?}");

    // Unblocked, the attach completes and recovery sees the new world.
    std::fs::remove_dir(&block).unwrap();
    e2.make_durable(&dir).unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e2, &recovered.engine);
    assert_eq!(recovered.engine.relation("beer").unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durability_none_is_checkpoint_only() {
    let dir = tmpdir("none");
    let mut e = constrained(EnforcementMode::Static, Durability::None);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    // Nothing was logged: recovery sees only the (empty) initial snapshot.
    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(recovered.report.frames_replayed, 0);
    assert_eq!(recovered.engine.relation("beer").unwrap().len(), 0);

    // An explicit checkpoint persists the current state.
    e.checkpoint().unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prepared_sessions_log_their_commits() {
    let dir = tmpdir("prepared");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let prepared = e.prepare(&template).unwrap();
    for i in 0..5 {
        let name = format!("b{i}");
        let bound = prepared
            .bind(&[
                Value::str(&name),
                Value::str("ale"),
                Value::str("heineken"),
                Value::double(4.0 + i as f64),
            ])
            .unwrap();
        assert!(e.execute_bound(&bound).unwrap().committed());
    }
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.engine.relation("beer").unwrap().len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_engine_continues_durably() {
    // Recover, keep committing, recover again: the log reopens at the
    // right LSN and the second recovery sees both generations.
    let dir = tmpdir("continue");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("one", "heineken", 5.0))
        .unwrap()
        .committed());
    let first_lsn = e.durable_lsn().unwrap();
    drop(e);

    let mut e = Engine::recover(&dir).unwrap().engine;
    assert!(e
        .execute(&insert("two", "heineken", 5.5))
        .unwrap()
        .committed());
    assert!(e.durable_lsn().unwrap() > first_lsn);

    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.engine.relation("beer").unwrap().len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_directory_reports_no_checkpoint() {
    let dir = tmpdir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = Engine::recover(&dir).unwrap_err();
    assert!(
        matches!(err, RecoveryError::NoCheckpoint { ref rejected, .. } if rejected.is_empty()),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_newest_checkpoint_falls_back_to_the_previous_one() {
    let dir = tmpdir("fallback");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    // Fabricate a newer-but-corrupt checkpoint next to the valid LSN-0 one.
    std::fs::write(
        dir.join("checkpoint-00000000000000000099.ckpt"),
        b"not a checkpoint",
    )
    .unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    // Fallback lands on checkpoint 0 and replays the full log: the state
    // matches the live engine exactly.
    assert_eq!(recovered.report.checkpoint_lsn, 0);
    assert_twin(&e, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clones_are_memory_only_twins() {
    let dir = tmpdir("clone");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    let id = e.store_statement(e.prepare(&insert("pils", "nowhere", 5.0)).unwrap());
    let mut twin = e.clone();
    assert!(
        twin.durable_lsn().is_none(),
        "clones must not share the WAL"
    );
    assert!(twin.database().state_eq(e.database()));
    // The statement table is copied with the engine, but not persisted:
    // recovery starts with an empty one.
    assert!(!twin.execute_statement(id, &[]).unwrap().committed());
    drop(e);
    let mut recovered = Engine::recover(&dir).unwrap().engine;
    assert!(matches!(
        recovered.execute_statement(id, &[]),
        Err(txmod::EngineError::UnknownStatement(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a rule whose action carries an integral double literal
/// (`5.0`) is logged as canonical text; recovery must parse it back as the
/// same double, not as the integer `5` (which no longer type-checks
/// against the `Double` column, so replay failed).
#[test]
fn integral_double_literals_survive_recovery() {
    let dir = tmpdir("double-literal");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("guinness", "dublin", "ie"))])
        .unwrap();
    e.add_rule_text(
        "WHEN DEL(brewery) IF NOT 1 = 1 \
         THEN insert(brewery, {('house', 'dublin', 'ie')}); \
              insert(beer, {('house', 'ale', 'house', 5.0)})",
        "house_beer",
    )
    .unwrap();
    let tx = TransactionBuilder::new()
        .delete_tuple("brewery", Tuple::of(("guinness", "dublin", "ie")))
        .build();
    assert!(e.execute(&tx).unwrap().committed());
    assert!(e
        .relation("beer")
        .unwrap()
        .contains(&Tuple::of(("house", "ale", "house", 5.0_f64))));
    let live_rule = e.catalog().rule("house_beer").unwrap().clone();
    let twin = e.clone();
    drop(e); // flushes the buffered log

    let recovered = Engine::recover(&dir).unwrap().engine;
    assert_twin(&twin, &recovered);
    assert_eq!(recovered.catalog().rule("house_beer"), Some(&live_rule));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A double literal as rule text: integral (`-12.0`), negative, or
/// fractional (`3.25`).
fn double_literal() -> impl Strategy<Value = String> {
    (0..2usize, 0..100_000i64, 0..4usize).prop_map(|(neg, whole, frac)| {
        let sign = ["", "-"][neg];
        let frac = ["0", "25", "5", "75"][frac];
        format!("{sign}{whole}.{frac}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every rule and constraint the engine accepts round-trips its
    /// canonical text — the form the WAL and checkpoints persist — back
    /// to an equal rule, double literals in conditions and actions
    /// included.
    #[test]
    fn accepted_rules_round_trip_canonical_text(
        literals in prop::collection::vec(double_literal(), 1..4),
    ) {
        let mut e = Engine::new(tm_relational::schema::beer_schema());
        for (i, d) in literals.iter().enumerate() {
            let _ = e.define_constraint(
                &format!("dom{i}"),
                &format!("forall x (x in beer implies x.alcohol >= {d})"),
            );
            let _ = e.add_rule_text(
                &format!(
                    "WHEN DEL(brewery) IF NOT forall x (x in beer implies x.alcohol <> {d}) \
                     THEN insert(beer, {{('h{i}', 'ale', 'none', {d})}}); \
                          delete(beer, select[#3 > {d}](beer))"
                ),
                &format!("act{i}"),
            );
        }
        prop_assert!(e.catalog().rule("act0").is_some(), "the action rule is accepted");
        for rule in e.catalog().rules() {
            let text = rule.canonical_text();
            let back = tm_rules::parse_rule(&text, &rule.name);
            prop_assert_eq!(back.as_ref().ok(), Some(rule), "round trip of `{}`", text);
        }
    }
}

/// Regression: the concurrent engine's commit-epoch counter must resume
/// **past** every replayed LSN after recovery. If it restarted at zero, a
/// post-recovery commit could be stamped with an epoch the previous
/// incarnation already used, and epochs would no longer give one commit
/// order across the crash.
#[test]
fn recovered_engine_resumes_epochs_past_replayed_lsns() {
    let dir = tmpdir("concurrent-epochs");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("guinness", "dublin", "ie"))])
        .unwrap();

    // Drive a few commits through the concurrent engine pre-"crash".
    let ce = txmod::ConcurrentEngine::new(e);
    let mut s = ce.session();
    let template = tm_algebra::builder::TransactionBuilder::new()
        .insert_params("beer", 4)
        .build();
    let id = s.prepare(&template).unwrap();
    for i in 0..5 {
        let out = s
            .execute_prepared(
                id,
                &[
                    Value::str(format!("b{i}")),
                    Value::str("ale"),
                    Value::str("guinness"),
                    Value::double(5.0),
                ],
            )
            .unwrap();
        assert!(out.committed());
    }
    let pre_crash_epoch = ce.committed_epoch();
    assert!(pre_crash_epoch >= 5, "five commits must advance the epoch");
    drop(s);
    drop(ce); // crash: the engine is gone, the directory survives

    let recovered = Engine::recover(&dir).unwrap();
    let ce = txmod::ConcurrentEngine::new(recovered.engine);
    assert!(
        ce.committed_epoch() >= pre_crash_epoch,
        "recovered epoch counter ({}) regressed below the pre-crash epoch ({pre_crash_epoch})",
        ce.committed_epoch()
    );
    // New commits land at strictly fresh epochs.
    let mut s = ce.session();
    let id = s.prepare(&template).unwrap();
    let out = s
        .execute_prepared(
            id,
            &[
                Value::str("post-crash"),
                Value::str("ale"),
                Value::str("guinness"),
                Value::double(5.0),
            ],
        )
        .unwrap();
    assert!(out.committed());
    assert!(
        s.last_commit_epoch().unwrap() > pre_crash_epoch,
        "post-recovery commit reused a pre-crash epoch"
    );
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Interleaved constraint definitions, rule texts and removals on a
/// `Buffered` engine — across a checkpoint, so recovery both re-declares
/// checkpointed rules and replays logged DDL — recover to an engine
/// whose catalog analysis and prepare-time specialization equal the
/// live engine's.
#[test]
fn interleaved_ddl_recovers_the_same_analysis() {
    let dir = tmpdir("ddl-analysis");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.make_durable(&dir).unwrap();
    e.define_constraint("dom_tight", "forall x (x in beer implies x.alcohol >= 1)")
        .unwrap();
    e.add_rule_text(
        "WHEN INS(beer) IF NOT forall x (x in beer implies x.alcohol <= 20) \
         THEN delete(beer, select[#3 > 20](beer))",
        "clip",
    )
    .unwrap();
    assert!(e.remove_rule("dom").unwrap());
    e.checkpoint().unwrap();
    e.add_rule_text(
        "WHEN DEL(beer) IF NOT 1 = 1 THEN alarm(select[#3 < 0](beer@del))",
        "watch",
    )
    .unwrap();
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e.add_rule_text(
        "WHEN DEL(brewery) IF NOT 1 = 1 THEN insert(beer, {('house', 'ale', 'none', 5.5)})",
        "house_beer",
    )
    .unwrap();
    assert!(e.remove_rule("ref").unwrap());
    e.add_rule_text(
        "WHEN INS(beer) IF NOT forall x (x in beer implies x.alcohol >= 2) THEN abort",
        "dom_tighter",
    )
    .unwrap();
    assert!(e.remove_rule("dom_tight").unwrap());
    let live_report = e.validate_full();
    assert!(!live_report.diagnostics.is_empty(), "{live_report}");
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let live_spec = e.prepare(&template).unwrap().specialization().clone();
    let twin = e.clone();
    drop(e);

    let recovered = Engine::recover(&dir).unwrap().engine;
    assert_twin(&twin, &recovered);
    assert_eq!(recovered.validate_full(), live_report);
    assert_eq!(
        recovered.prepare(&template).unwrap().specialization(),
        &live_spec
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

//! The recovery invariant suite: an engine recovered from its durability
//! directory is `state_eq`-identical to the never-crashed engine — same
//! relation contents, same catalog, same views — across checkpoints, log
//! replay, DDL, bulk loads, and all three enforcement modes.

use std::path::PathBuf;

use proptest::prelude::*;
use tm_algebra::builder::TransactionBuilder;
use tm_relational::{Tuple, Value};
use txmod::{Durability, DurabilityConfig, EnforcementMode, Engine, RecoveryError, ViewDef};

const MODES: [EnforcementMode; 3] = [
    EnforcementMode::Off,
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
    e.wait_for_checkpoint();
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
    // A checkpoint with nothing new logged keeps the replaced file as
    // the spare the next checkpoint overwrites.
    e.checkpoint().unwrap();
    #[cfg(unix)]
    let spare_inode = inode(&dir.join(SPARE));
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
    e.wait_for_checkpoint();
    let err = e
        .take_checkpoint_error()
        .expect("checkpoint failure deferred");
    assert!(matches!(err, txmod::EngineError::Durability(_)), "{err:?}");
    assert!(e.take_checkpoint_error().is_none(), "error taken once");
    // The failed write left the spare where it was, for the retry.
    #[cfg(unix)]
    assert_eq!(inode(&dir.join(SPARE)), spare_inode);
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
    e.wait_for_checkpoint();
    assert!(e.take_checkpoint_error().is_none());
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 3);
    #[cfg(unix)]
    assert_eq!(
        inode(&dir.join("checkpoint-00000000000000000003.ckpt")),
        spare_inode,
        "the retry overwrote the spare"
    );
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

    // A sealed log a checkpoint of that incarnation left behind is just
    // as stale.
    std::fs::copy(dir.join("wal.log"), dir.join(SEALED)).unwrap();

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
    assert!(
        !dir.join(SEALED).exists(),
        "the stale sealed log must be gone before the checkpoint is attempted"
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
    // Fabricate a newer-but-corrupt checkpoint next to the valid LSN-0
    // one, at an LSN the log reaches.
    let newest = e.durable_lsn().unwrap();
    let damaged = dir.join(format!("checkpoint-{newest:020}.ckpt"));
    std::fs::write(&damaged, b"not a checkpoint").unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    // Fallback lands on checkpoint 0 and replays the full log: the state
    // matches the live engine exactly.
    assert_eq!(recovered.report.checkpoint_lsn, 0);
    assert_twin(&e, &recovered.engine);
    // A damaged checkpoint beyond the log's reach proves commits that no
    // fallback can restore: recovery refuses rather than losing them.
    std::fs::rename(&damaged, dir.join("checkpoint-00000000000000000099.ckpt")).unwrap();
    assert_eq!(
        Engine::recover(&dir).unwrap_err(),
        RecoveryError::WalGap {
            checkpoint_lsn: 0,
            required_lsn: 99
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a crash between truncating the log and retiring the previous
/// checkpoint (the order `Engine::checkpoint` avoids) would leave:
/// checkpoints 1 and 4 on disk, the log empty. With checkpoint 4 damaged,
/// falling back to checkpoint 1 would drop three acknowledged `Fsync`
/// commits.
#[test]
fn a_fallback_the_log_does_not_bridge_is_refused() {
    let dir = tmpdir("gap");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert_eq!(e.checkpoint().unwrap(), 1);
    let older = dir.join("checkpoint-00000000000000000001.ckpt");
    let older_bytes = std::fs::read(&older).unwrap();
    for name in ["pils", "bock", "tripel"] {
        assert!(e
            .execute(&insert(name, "heineken", 5.0))
            .unwrap()
            .committed());
    }
    assert_eq!(e.checkpoint().unwrap(), 4);
    assert!(!older.exists(), "the older checkpoint is retired");
    // Reinstate the older checkpoint, then damage the newer one.
    std::fs::write(&older, &older_bytes).unwrap();
    let newer = dir.join("checkpoint-00000000000000000004.ckpt");
    let mut bytes = std::fs::read(&newer).unwrap();
    bytes[20] ^= 0x20;
    std::fs::write(&newer, &bytes).unwrap();
    let err = Engine::recover(&dir).unwrap_err();
    assert_eq!(
        err,
        RecoveryError::WalGap {
            checkpoint_lsn: 1,
            required_lsn: 4
        }
    );
    let text = err.to_string();
    assert!(text.contains("lsn 1") && text.contains("lsn 4"), "{text}");

    // Without the damaged checkpoint at all, a log that resumes past the
    // older one is a gap too.
    std::fs::remove_file(&newer).unwrap();
    assert!(e
        .execute(&insert("dubbel", "heineken", 6.0))
        .unwrap()
        .committed());
    assert_eq!(
        Engine::recover(&dir).unwrap_err(),
        RecoveryError::WalGap {
            checkpoint_lsn: 1,
            required_lsn: 4
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Older checkpoints are retired before the sealed log is deleted: when
/// retiring fails, the log — the sealed file plus the active one — still
/// holds every frame, so no older checkpoint ever sits beside an emptied
/// log.
#[test]
fn the_log_is_truncated_only_after_older_checkpoints_are_retired() {
    let dir = tmpdir("retire-order");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert_eq!(e.checkpoint().unwrap(), 1);
    // A directory squatting on an older checkpoint's name cannot be
    // retired: the next checkpoint's retire step fails.
    std::fs::create_dir(dir.join("checkpoint-00000000000000000000.ckpt")).unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    let logged = log_bytes(&dir);
    assert!(logged > 0);
    assert!(e.checkpoint().is_err());
    assert_eq!(
        log_bytes(&dir),
        logged,
        "the log was truncated before the older checkpoints were retired"
    );
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

const SPARE: &str = "checkpoint.spare";
const SEALED: &str = "wal.sealed";

/// The bytes of the log: the sealed file a checkpoint left, if any, and
/// the active log.
fn log_bytes(dir: &std::path::Path) -> u64 {
    ["wal.log", SEALED]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// The file names in `dir`, sorted.
fn file_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[cfg(unix)]
fn inode(path: &std::path::Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).unwrap().ino()
}

/// The inodes of every file in `dir` but the WAL.
#[cfg(unix)]
fn checkpoint_inodes(dir: &std::path::Path) -> std::collections::BTreeSet<u64> {
    file_names(dir)
        .iter()
        .filter(|n| *n != "wal.log")
        .map(|n| inode(&dir.join(n)))
        .collect()
}

#[test]
fn automatic_checkpoints_recycle_one_spare() {
    let dir = tmpdir("recycle");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.config_mut().durability.checkpoint_every = 2;
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    #[cfg(unix)]
    let mut inodes = None;
    for i in 0..9 {
        assert!(e
            .execute(&insert(&format!("beer{i}"), "heineken", 5.0))
            .unwrap()
            .committed());
        e.wait_for_checkpoint();
        let lsn = e.durable_lsn().unwrap();
        if !lsn.is_multiple_of(2) {
            continue; // no checkpoint on this frame
        }
        assert_eq!(
            file_names(&dir),
            [
                format!("checkpoint-{lsn:020}.ckpt"),
                SPARE.into(),
                "wal.log".into()
            ],
            "one checkpoint and one spare after the checkpoint at {lsn}"
        );
        // From the second checkpoint on, every file is an old one: nothing
        // was unlinked and nothing allocated anew.
        #[cfg(unix)]
        if lsn >= 4 {
            let now = checkpoint_inodes(&dir);
            assert_eq!(inodes.get_or_insert_with(|| now.clone()), &now, "lsn {lsn}");
        }
    }
    assert!(e.take_checkpoint_error().is_none());
    let twin = e.clone();
    drop(e);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&twin, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_leftover_tmp_is_ignored_and_the_next_checkpoint_succeeds() {
    let dir = tmpdir("leftover-tmp");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    e.checkpoint().unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    // A crash mid-overwrite: the spare, renamed onto the next
    // checkpoint's temp path, holds a torn prefix.
    let tmp = dir.join("checkpoint-00000000000000000002.ckpt.tmp");
    std::fs::rename(dir.join(SPARE), &tmp).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&tmp)
        .unwrap()
        .set_len(17)
        .unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 1);

    let mut e = recovered.engine;
    assert!(e
        .execute(&insert("bock", "heineken", 6.5))
        .unwrap()
        .committed());
    assert_eq!(e.checkpoint().unwrap(), 3);
    assert_eq!(
        file_names(&dir),
        ["checkpoint-00000000000000000003.ckpt", SPARE, "wal.log"]
    );
    let again = Engine::recover(&dir).unwrap();
    assert_twin(&e, &again.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_at_lsn_zero_reuse_the_same_blocks() {
    let dir = tmpdir("none-recycle");
    let mut e = constrained(EnforcementMode::Static, Durability::None);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    #[cfg(unix)]
    let mut inodes = None;
    for i in 0..4 {
        assert!(e
            .execute(&insert(&format!("beer{i}"), "heineken", 5.0))
            .unwrap()
            .committed());
        assert_eq!(e.checkpoint().unwrap(), 0);
        #[cfg(unix)]
        {
            assert_eq!(
                file_names(&dir),
                ["checkpoint-00000000000000000000.ckpt", SPARE, "wal.log"]
            );
            let now = checkpoint_inodes(&dir);
            assert_eq!(
                inodes.get_or_insert_with(|| now.clone()),
                &now,
                "checkpoint {i}"
            );
        }
        let recovered = Engine::recover(&dir).unwrap();
        assert_twin(&e, &recovered.engine);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints are byte-deterministic: the same state checkpoints to the
/// same bytes, whatever order its tuples were inserted in.
#[test]
fn equal_states_checkpoint_to_identical_bytes() {
    let rows: Vec<Tuple> = (0..200)
        .map(|i| Tuple::of((format!("b{i}"), "town", "nl")))
        .collect();
    let mut files = Vec::new();
    for (k, order) in [rows.clone(), rows.iter().rev().cloned().collect()]
        .into_iter()
        .enumerate()
    {
        let dir = tmpdir(&format!("identical-{k}"));
        let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
        e.make_durable(&dir).unwrap();
        e.load("brewery", order).unwrap();
        let path = dir.join("checkpoint-00000000000000000001.ckpt");
        e.checkpoint().unwrap();
        let first = std::fs::read(&path).unwrap();
        e.checkpoint().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first, "same engine, twice");
        files.push(first);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(files[0], files[1], "insertion order leaked into the bytes");
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
    let live_spec = e.prepare(&template).unwrap().modification().clone();
    let twin = e.clone();
    drop(e);

    let recovered = Engine::recover(&dir).unwrap().engine;
    assert_twin(&twin, &recovered);
    assert_eq!(recovered.validate_full(), live_report);
    assert_eq!(
        recovered.prepare(&template).unwrap().modification(),
        &live_spec
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The log files in `dir`: the active log and the sealed one, if any.
fn log_files(dir: &std::path::Path) -> Vec<String> {
    file_names(dir)
        .into_iter()
        .filter(|n| n.starts_with("wal."))
        .collect()
}

/// Squat on the temp paths of checkpoints at `lsns`: a checkpoint at one
/// of them fails in `write_atomic`.
fn block_checkpoints(dir: &std::path::Path, lsns: std::ops::RangeInclusive<u64>) {
    for lsn in lsns {
        std::fs::create_dir(dir.join(format!("checkpoint-{lsn:020}.ckpt.tmp"))).unwrap();
    }
}

/// A crash while a checkpoint has not become durable: the older
/// checkpoint, the sealed log and the active log recover the state.
#[test]
fn crash_before_the_new_checkpoint_is_durable_recovers_from_both_logs() {
    let dir = tmpdir("crash-in-flight");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 3;
    e.make_durable(&dir).unwrap();
    // Every checkpoint this run could begin fails in its thread.
    block_checkpoints(&dir, 3..=5);
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    for (i, name) in ["pils", "bock", "tripel", "dubbel"].iter().enumerate() {
        assert!(e
            .execute(&insert(name, "heineken", 5.0 + i as f64))
            .unwrap()
            .committed());
    }
    let twin = e.clone();
    drop(e);
    assert_eq!(log_files(&dir), ["wal.log", SEALED]);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&twin, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 0);
    assert_eq!(recovered.report.frames_replayed, 5);
    assert_eq!(recovered.report.recovered_lsn, 5);
    assert!(recovered.report.truncated_tail.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sealed file whose frames are all inside the loaded checkpoint — a
/// crash after the checkpoint became durable, before the file was
/// deleted — is not read for anything, so damage in it is harmless.
#[test]
fn damage_in_a_covered_sealed_file_is_ignored() {
    let dir = tmpdir("sealed-covered");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    // The log this checkpoint seals, as it was.
    let mut sealed = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(e.checkpoint().unwrap(), 2);
    assert!(e
        .execute(&insert("bock", "heineken", 6.5))
        .unwrap()
        .committed());
    let last = sealed.len() - 3;
    sealed[last] ^= 0x20;
    std::fs::write(dir.join(SEALED), &sealed).unwrap();
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 2);
    assert_eq!(recovered.report.frames_replayed, 1);
    assert!(recovered.report.truncated_tail.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sealed file torn past the checkpoint: recovery stops at the tear,
/// drops the active log after it, and the engine goes on from the last
/// frame it kept, with no gap in its LSNs.
#[test]
fn a_sealed_file_torn_past_the_checkpoint_ends_the_log() {
    let dir = tmpdir("sealed-torn");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    let at_two = e.database().clone();
    let kept = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert!(e
        .execute(&insert("bock", "heineken", 6.5))
        .unwrap()
        .committed());
    // The checkpoint fails: frames 1–3 stay sealed, 4–5 go to the new log.
    block_checkpoints(&dir, 3..=3);
    assert!(e.checkpoint().is_err());
    for name in ["tripel", "dubbel"] {
        assert!(e
            .execute(&insert(name, "heineken", 8.0))
            .unwrap()
            .committed());
    }
    drop(e);
    assert!(std::fs::metadata(dir.join("wal.log")).unwrap().len() > 0);
    // Tear the sealed file inside its third frame.
    let sealed = dir.join(SEALED);
    let len = std::fs::metadata(&sealed).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&sealed)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let recovered = Engine::recover(&dir).unwrap();
    assert!(recovered.engine.database().state_eq(&at_two));
    assert_eq!(recovered.report.checkpoint_lsn, 0);
    assert_eq!(recovered.report.recovered_lsn, 2);
    let (offset, reason) = recovered.report.truncated_tail.clone().unwrap();
    assert_eq!(offset, kept);
    assert!(reason.contains(SEALED), "{reason}");
    assert_eq!(std::fs::metadata(&sealed).unwrap().len(), kept);
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);

    let mut e = recovered.engine;
    assert!(e
        .execute(&insert("stout", "heineken", 7.0))
        .unwrap()
        .committed());
    assert_eq!(e.durable_lsn(), Some(3), "the next frame continues lsn 2");
    let again = Engine::recover(&dir).unwrap();
    assert_twin(&e, &again.engine);
    assert_eq!(again.report.recovered_lsn, 3);
    assert!(again.report.truncated_tail.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An explicit checkpoint while an automatic one may still be running
/// waits for it, covers a later LSN, and leaves one checkpoint, the
/// spare and the active log.
#[test]
fn an_explicit_checkpoint_during_an_automatic_one_covers_a_later_lsn() {
    let dir = tmpdir("explicit-during-auto");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.config_mut().durability.checkpoint_every = 2;
    e.make_durable(&dir).unwrap();
    let rows: Vec<Tuple> = (0..20_000)
        .map(|i| Tuple::of((format!("b{i}"), "town", "nl")))
        .collect();
    e.load("brewery", rows).unwrap();
    assert!(e.execute(&insert("pils", "b1", 5.0)).unwrap().committed()); // frame 2 begins the automatic checkpoint
    assert!(e.execute(&insert("bock", "b2", 6.5)).unwrap().committed());
    assert_eq!(e.checkpoint().unwrap(), 3);
    assert!(e.take_checkpoint_error().is_none());
    assert_eq!(
        file_names(&dir),
        ["checkpoint-00000000000000000003.ckpt", SPARE, "wal.log"]
    );
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A disk that fails every checkpoint: each append retries, yet the
/// directory never holds more than the sealed log and the active one,
/// and recovery still has every commit.
#[test]
fn failing_checkpoints_never_make_a_third_log_file() {
    let dir = tmpdir("failing-disk");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 1;
    e.make_durable(&dir).unwrap();
    // A directory squatting on the spare's name fails every checkpoint.
    std::fs::create_dir(dir.join(SPARE)).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    for i in 0..20 {
        assert!(e
            .execute(&insert(&format!("beer{i}"), "heineken", 5.0))
            .unwrap()
            .committed());
        assert!(log_files(&dir).len() <= 2, "{:?}", file_names(&dir));
        if i % 5 == 0 {
            e.wait_for_checkpoint();
            assert!(e.take_checkpoint_error().is_some());
            assert_eq!(log_files(&dir), ["wal.log", SEALED]);
        }
    }
    e.wait_for_checkpoint();
    assert_eq!(log_files(&dir), ["wal.log", SEALED]);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Dropping an engine while its checkpoint runs waits for it: the
/// directory recovers the state, from that checkpoint.
#[test]
fn dropping_an_engine_mid_checkpoint_leaves_a_recoverable_directory() {
    let dir = tmpdir("drop-in-flight");
    let mut e = constrained(EnforcementMode::Static, Durability::Buffered);
    e.config_mut().durability.checkpoint_every = 2;
    e.make_durable(&dir).unwrap();
    let rows: Vec<Tuple> = (0..20_000)
        .map(|i| Tuple::of((format!("b{i}"), "town", "nl")))
        .collect();
    e.load("brewery", rows).unwrap();
    assert!(e.execute(&insert("pils", "b1", 5.0)).unwrap().committed()); // frame 2 begins a checkpoint
    assert!(e.execute(&insert("bock", "b2", 6.5)).unwrap().committed());
    let twin = e.clone();
    drop(e);
    assert_eq!(
        file_names(&dir),
        ["checkpoint-00000000000000000002.ckpt", SPARE, "wal.log"]
    );
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&twin, &recovered.engine);
    assert_eq!(recovered.report.checkpoint_lsn, 2);
    assert_eq!(recovered.report.frames_replayed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under `Fsync`, beginning a checkpoint fsyncs the closing log and the
/// directory before the commit that triggered it returns, so no commit is
/// acknowledged into the new log while the rename could still be lost; a
/// failed fsync there fails the checkpoint, not the commit, and leaves the
/// log unsealed.
#[test]
fn under_fsync_the_sealed_log_and_directory_are_synced_before_the_next_commit() {
    let dir = tmpdir("seal-fsync");
    let points = txmod::Failpoints::none();
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.group_commit = 8;
    e.config_mut().durability.checkpoint_every = 2;
    e.make_durable_with_failpoints(&dir, points.clone())
        .unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap(); // frame 1, not synced (group of 8)
    let before = points.syncs();
    assert!(e
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed()); // frame 2 seals the log
    assert_eq!(
        points.syncs() - before,
        2,
        "the closing log and the directory"
    );
    assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
    e.wait_for_checkpoint();
    assert!(e.take_checkpoint_error().is_none());

    // The same under a failing fsync: the commit stands, the log is not
    // sealed, and the checkpoint error is parked.
    e.load("brewery", vec![Tuple::of(("guinness", "dublin", "ie"))])
        .unwrap(); // frame 3
    points.arm(txmod::FailPlan {
        fail_fsyncs: 1,
        ..txmod::FailPlan::default()
    });
    assert!(e
        .execute(&insert("stout", "guinness", 7.0))
        .unwrap()
        .committed()); // frame 4: its checkpoint's fsync fails
    assert!(e.take_checkpoint_error().is_some());
    assert_eq!(log_files(&dir), ["wal.log"]);
    let recovered = Engine::recover(&dir).unwrap();
    assert_twin(&e, &recovered.engine);

    // Under `Buffered` the rotation syncs nothing.
    let dir2 = tmpdir("seal-buffered");
    let points = txmod::Failpoints::none();
    let mut b = constrained(EnforcementMode::Static, Durability::Buffered);
    b.config_mut().durability.checkpoint_every = 2;
    b.make_durable_with_failpoints(&dir2, points.clone())
        .unwrap();
    b.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap();
    let before = points.syncs();
    assert!(b
        .execute(&insert("pils", "heineken", 5.0))
        .unwrap()
        .committed());
    assert_eq!(points.syncs(), before);
    b.wait_for_checkpoint();
    assert!(b.take_checkpoint_error().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

/// A checkpoint a bulk load triggers holds the load's tick of the logical
/// clock, as replaying the load's frame would.
#[test]
fn a_checkpoint_at_a_load_holds_its_clock_tick() {
    let dir = tmpdir("load-ckpt-clock");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 1;
    e.make_durable(&dir).unwrap();
    e.load("brewery", vec![Tuple::of(("heineken", "amsterdam", "nl"))])
        .unwrap(); // frame 1 begins a checkpoint
    e.wait_for_checkpoint();
    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(recovered.report.checkpoint_lsn, 1);
    assert_eq!(
        recovered.engine.database().logical_time(),
        e.database().logical_time()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint a rule removal triggers is taken after the removal: it
/// must not hold the rule its own frame removes.
#[test]
fn a_checkpoint_at_a_rule_removal_does_not_hold_the_rule() {
    let dir = tmpdir("remove-rule-ckpt");
    let mut e = constrained(EnforcementMode::Static, Durability::Fsync);
    e.config_mut().durability.checkpoint_every = 1;
    e.make_durable(&dir).unwrap();
    assert!(e.remove_rule("ref").unwrap()); // frame 1 begins a checkpoint
    e.wait_for_checkpoint();
    let recovered = Engine::recover(&dir).unwrap();
    assert_eq!(recovered.report.checkpoint_lsn, 1);
    assert_twin(&e, &recovered.engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

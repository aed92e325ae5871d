//! Engine-level regression for the hash execution switch: all three
//! [`EnforcementMode`]s must still behave consistently on a scripted
//! mixed workload. The two enforcing modes (`Static`, with the full
//! checks, and `Differential`, with the per-trigger delta checks) must
//! agree with each other on every verdict and on every intermediate
//! state — their checks now run through hash joins and indexed
//! quantifiers — and `Off` must commit everything while the ground-truth
//! checker flags exactly the violated constraints.

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::Transaction;
use tm_paper::oracle;
use tm_relational::Tuple;
use txmod::engine::beer_engine;
use txmod::{EnforcementMode, Engine};

fn constrained(mode: EnforcementMode) -> Engine {
    let mut e = beer_engine(mode);
    e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
        .unwrap();
    e.define_constraint(
        "ref",
        "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
    )
    .unwrap();
    e.define_constraint(
        "grow_only",
        "forall x (x in brewery@pre implies exists y (y in brewery and x == y))",
    )
    .unwrap();
    e.load(
        "brewery",
        vec![
            Tuple::of(("heineken", "amsterdam", "nl")),
            Tuple::of(("guinness", "dublin", "ie")),
        ],
    )
    .unwrap();
    e
}

/// The scripted workload: (label, transaction, expected verdict under
/// enforcement).
fn script() -> Vec<(&'static str, Transaction, bool)> {
    vec![
        (
            "valid insert",
            TransactionBuilder::new()
                .insert_tuple("beer", Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
                .build(),
            true,
        ),
        (
            "negative alcohol",
            TransactionBuilder::new()
                .insert_tuple("beer", Tuple::of(("bad", "lager", "heineken", -1.0_f64)))
                .build(),
            false,
        ),
        (
            "orphan brewery",
            TransactionBuilder::new()
                .insert_tuple("beer", Tuple::of(("orphan", "ale", "nowhere", 5.0_f64)))
                .build(),
            false,
        ),
        (
            "second valid insert",
            TransactionBuilder::new()
                .insert_tuple("beer", Tuple::of(("stout", "stout", "guinness", 4.2_f64)))
                .build(),
            true,
        ),
        (
            "brewery deletion breaks grow_only",
            TransactionBuilder::new()
                .delete_tuple("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
                .build(),
            false,
        ),
        (
            "mixed batch with one violation",
            TransactionBuilder::new()
                .insert_tuple("beer", Tuple::of(("ale", "ale", "guinness", 5.5_f64)))
                .insert_tuple("beer", Tuple::of(("ghost", "ale", "atlantis", 5.5_f64)))
                .build(),
            false,
        ),
    ]
}

#[test]
fn enforcing_modes_agree_on_verdicts_and_states() {
    let mut engines: Vec<(EnforcementMode, Engine)> =
        [EnforcementMode::Static, EnforcementMode::Differential]
            .into_iter()
            .map(|m| (m, constrained(m)))
            .collect();

    for (label, tx, expected_commit) in script() {
        let mut verdicts = Vec::new();
        for (mode, e) in engines.iter_mut() {
            let out = e.execute(&tx).unwrap();
            verdicts.push((*mode, out.committed()));
            assert_eq!(
                out.committed(),
                expected_commit,
                "{label} under {mode:?}: expected commit={expected_commit}"
            );
            assert!(
                oracle::check_state(e).unwrap().is_empty(),
                "{label} under {mode:?}: state must stay consistent"
            );
        }
        // All enforcing modes agree among themselves.
        assert!(
            verdicts.windows(2).all(|w| w[0].1 == w[1].1),
            "{label}: verdicts diverged: {verdicts:?}"
        );
        // And on the resulting states.
        for rel in ["beer", "brewery"] {
            let reference = engines[0].1.relation(rel).unwrap().sorted_tuples();
            for (mode, e) in engines.iter().skip(1) {
                assert_eq!(
                    e.relation(rel).unwrap().sorted_tuples(),
                    reference,
                    "{label}: state of `{rel}` diverged under {mode:?}"
                );
            }
        }
    }
}

#[test]
fn off_mode_commits_everything_and_ground_truth_flags_it() {
    let mut e = constrained(EnforcementMode::Off);
    for (label, tx, _) in script() {
        assert!(
            e.execute(&tx).unwrap().committed(),
            "{label}: Off mode never aborts"
        );
    }
    let violated = oracle::check_state(&e).unwrap();
    assert!(
        violated.contains(&"dom".to_owned()) && violated.contains(&"ref".to_owned()),
        "ground truth must flag the violations Off let through: {violated:?}"
    );
}

/// A domain check whose predicate holds an aggregate over its own
/// relation: inserting a row raises `CNT(beer)`, so a row the transaction
/// never touched can start violating. The `beer@ins` delta check would
/// miss it; every enforcing mode must abort as the full check does.
#[test]
fn aggregate_domain_checks_cover_untouched_rows_in_every_mode() {
    for mode in [EnforcementMode::Static, EnforcementMode::Differential] {
        let mut e = beer_engine(mode);
        e.define_constraint("agg", "forall x (x in beer implies x.alcohol >= CNT(beer))")
            .unwrap();
        e.load("beer", vec![Tuple::of(("old", "ale", "b0", 1.0_f64))])
            .unwrap();
        let tx = TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("n", "t", "b", 5.0_f64)))
            .build();
        assert!(
            !e.execute(&tx).unwrap().committed(),
            "{mode:?}: the 1.0 beer falls below CNT(beer) = 2"
        );
        assert!(oracle::check_state(&e).unwrap().is_empty(), "{mode:?}");
    }
}

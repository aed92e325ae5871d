//! Steady-state commits never copy a relation.
//!
//! The COW-unshare count (`tm_relational::unshare_count`) is process-wide,
//! so this is the only test of its binary: no other test can copy a
//! relation while it counts, and one run is exact.

use tm_algebra::builder::TransactionBuilder;
use tm_relational::{unshare_count, Tuple, Value};
use txmod::{ConcurrentEngine, EnforcementMode, Engine, EngineConfig};

/// The beer schema under the referential constraint, breweries loaded.
fn ref_engine() -> Engine {
    let mut e = Engine::with_config(
        tm_relational::schema::beer_schema(),
        EngineConfig {
            mode: EnforcementMode::Static,
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

/// Every execution mutates the authoritative state in place, so the
/// COW-unshare count stays at one copy for a whole run while thousands
/// of transactions commit across two sessions. (A per-transaction
/// snapshot clone would pay at least one full tuple-set copy per commit.)
#[test]
fn steady_state_commits_do_not_copy_relations() {
    const COMMITS: usize = 2_000;
    let bind = |i: usize| {
        vec![
            Value::str(format!("beer-{i}")),
            Value::str("ale"),
            Value::str("guinness"),
            Value::double(5.0),
        ]
    };
    let ce = ConcurrentEngine::new(ref_engine());
    let mut s1 = ce.session();
    let mut s2 = ce.session();
    let template = TransactionBuilder::new().insert_params("beer", 4).build();
    let id1 = s1.prepare(&template).unwrap();
    let id2 = s2.prepare(&template).unwrap();
    let before = unshare_count();
    for i in 0..COMMITS {
        let (session, id) = if i % 2 == 0 {
            (&mut s1, id1)
        } else {
            (&mut s2, id2)
        };
        assert!(session.execute_prepared(id, &bind(i)).unwrap().committed());
    }
    let copies = unshare_count() - before;
    assert_eq!(ce.snapshot().relation("beer").unwrap().len(), COMMITS);
    assert!(
        copies <= 1,
        "{COMMITS} alternating commits across two sessions forced {copies} \
         relation copies — commits are not in place"
    );
}

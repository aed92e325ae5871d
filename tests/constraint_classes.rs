//! Table 1's pairwise rows at size: an exclusion constraint (row 3, `r`
//! against `s`) and a key constraint (row 4's `R = S` case) declared over
//! 100 000 rows per relation. Their checks are one hash join each; a
//! check that built the `|r|·|s|` product first would need 10¹⁰ tuples
//! here. Every enforcing mode must commit the clean insert, abort each
//! violating one, and leave a state the ground-truth checker accepts.
//! No timing is asserted.

use tm_algebra::builder::TransactionBuilder;
use tm_paper::oracle;
use tm_relational::{DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use txmod::{EnforcementMode, Engine, EngineConfig};

const ROWS: i64 = 100_000;

/// Row 3: no `r`-tuple shares its first attribute with an `s`-tuple.
const EXCLUSION: &str = "forall x (x in r implies forall y (y in s implies x.1 != y.1))";
/// Row 4 with `R = S`: the first attribute of `r` is a key.
const KEY: &str = "forall x, y (x in r and y in r and x.1 = y.1 implies x.2 = y.2)";

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("s", &[("c", ValueType::Int), ("d", ValueType::Int)]),
    ])
    .unwrap()
}

/// `r` holds keys `0..ROWS`, `s` holds `ROWS..2·ROWS`: both constraints
/// hold.
fn engine(mode: EnforcementMode) -> Engine {
    let mut e = Engine::with_config(
        schema(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
    e.load("r", (0..ROWS).map(|i| Tuple::of((i, i % 7))))
        .unwrap();
    e.load("s", (ROWS..2 * ROWS).map(|i| Tuple::of((i, 0))))
        .unwrap();
    e.define_constraint("exclusion", EXCLUSION).unwrap();
    e.define_constraint("key", KEY).unwrap();
    assert_eq!(oracle::check_state(&e).unwrap(), Vec::<String>::new());
    e
}

/// One committing and three violating single-row inserts under `mode`.
fn rows_3_and_4_decide_single_row_inserts(mode: EnforcementMode) {
    let mut e = engine(mode);
    let insert_r = e
        .prepare(&TransactionBuilder::new().insert_params("r", 2).build())
        .unwrap();
    let insert_s = e
        .prepare(&TransactionBuilder::new().insert_params("s", 2).build())
        .unwrap();
    // (template, row, committed?, why)
    let cases = [
        (
            &insert_r,
            (2 * ROWS, 1),
            true,
            "fresh key in neither relation",
        ),
        (&insert_r, (ROWS + 5, 0), false, "row 3: r-key already in s"),
        (&insert_r, (5, 6), false, "row 4: key 5 with a second b"),
        (&insert_s, (7, 0), false, "row 3: s-key already in r"),
    ];
    for (prepared, (a, b), expected, why) in cases {
        let bound = prepared.bind(&[Value::Int(a), Value::Int(b)]).unwrap();
        let committed = e.execute_bound(&bound).unwrap().committed();
        assert_eq!(committed, expected, "{mode:?}: {why}");
        assert_eq!(
            oracle::check_state(&e).unwrap(),
            Vec::<String>::new(),
            "{mode:?}: {why}"
        );
    }
    assert_eq!(e.relation("r").unwrap().len(), ROWS as usize + 1);
    assert_eq!(e.relation("s").unwrap().len(), ROWS as usize);
}

#[test]
fn static_mode() {
    rows_3_and_4_decide_single_row_inserts(EnforcementMode::Static);
}

#[test]
fn differential_mode() {
    rows_3_and_4_decide_single_row_inserts(EnforcementMode::Differential);
}

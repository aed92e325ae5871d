//! The value primitives CL and the algebra share — arithmetic, comparison
//! and the aggregates of Definition 4.1 — mean the same thing in a
//! constraint and in its translated check. Each case evaluates a CL
//! constraint with the calculus evaluator (the test oracle) and runs its
//! `TransC` program with the algebra executor, on the edge cases where an
//! implementation choice shows: division by zero, Int/Double mixing, a
//! null operand, wrapping overflow and aggregates of an empty relation.
//! Both sides must give the same verdict, or both must fail.

use tm_algebra::{AbortReason, Executor, TxOutcome};
use tm_calculus::{analyze, parse_formula};
use tm_paper::oracle::{eval_constraint, StateSource};
use tm_relational::{Database, DatabaseSchema, RelationSchema, Tuple, Value, ValueType};
use tm_translate::trans_c;

fn schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("d", &[("x", ValueType::Double), ("y", ValueType::Double)]),
    ])
    .unwrap()
}

fn db(r: &[(Value, Value)], d: &[(f64, f64)]) -> Database {
    let mut db = Database::new(schema().into_shared());
    for (a, b) in r {
        db.insert("r", Tuple::from_values(vec![a.clone(), b.clone()]))
            .unwrap();
    }
    for &(x, y) in d {
        db.insert("d", Tuple::of((x, y))).unwrap();
    }
    db
}

fn ints(rows: &[(i64, i64)]) -> Vec<(Value, Value)> {
    rows.iter()
        .map(|&(a, b)| (Value::Int(a), Value::Int(b)))
        .collect()
}

/// `Ok(holds)` or `Err(message)` from each side.
fn both(src: &str, db: &Database) -> (Result<bool, String>, Result<bool, String>) {
    let f = parse_formula(src).unwrap();
    let info = analyze(&f, db.schema()).unwrap();
    let truth = eval_constraint(&info, &StateSource(db)).map_err(|e| e.to_string());
    let program = trans_c(&f, db.schema()).unwrap();
    let mut working = db.clone();
    let check = match Executor.execute(&mut working, &program.bracket()) {
        TxOutcome::Committed(_) => Ok(true),
        TxOutcome::Aborted {
            reason: AbortReason::AlarmFired { .. },
            ..
        } => Ok(false),
        TxOutcome::Aborted { reason, .. } => Err(reason.to_string()),
    };
    (truth, check)
}

/// The two sides agree, and the calculus side is `expected` (`None`: an
/// error).
fn agree(src: &str, db: &Database, expected: Option<bool>) {
    let (truth, check) = both(src, db);
    match (&truth, &check) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "`{src}`: calculus {a}, algebra {b}"),
        (Err(_), Err(_)) => {}
        _ => panic!("`{src}`: calculus {truth:?}, algebra {check:?}"),
    }
    assert_eq!(truth.ok(), expected, "`{src}`");
}

#[test]
fn division_by_zero_fails_on_both_sides() {
    let zero = db(&ints(&[(1, 0)]), &[(1.5, 0.0)]);
    agree("forall x (x in r implies x.1 / x.2 >= 0)", &zero, None);
    agree("forall x (x in d implies x.1 / x.2 >= 0)", &zero, None);
    // Int over a Double zero takes the Double path.
    agree("forall x (x in r implies x.1 / 0.0 >= 0)", &zero, None);
    // No row, no division.
    let empty = db(&[], &[]);
    agree(
        "forall x (x in r implies x.1 / x.2 >= 0)",
        &empty,
        Some(true),
    );
}

#[test]
fn int_and_double_mix() {
    let one = db(&ints(&[(1, 2)]), &[(0.5, 2.0)]);
    // Int / Int truncates; one Double operand makes the result a Double.
    agree("forall x (x in r implies x.1 / x.2 > 0)", &one, Some(false));
    agree(
        "forall x (x in r implies x.1 / 2.0 > 0.4)",
        &one,
        Some(true),
    );
    agree(
        "forall x (x in r implies x.1 * 1.5 = 1.5)",
        &one,
        Some(true),
    );
    agree("forall x (x in d implies x.1 * x.2 = 1)", &one, Some(true));
    // Comparison widens an Int to the Double it equals.
    agree("forall x (x in r implies x.1 = 1.0)", &one, Some(true));
    agree(
        "forall x (x in r implies exists y (y in d and x.2 = y.2))",
        &one,
        Some(true),
    );
}

#[test]
fn null_operand() {
    let nulls = db(&[(Value::Null, Value::Int(1))], &[]);
    // Arithmetic on null is an error; a comparison orders null first.
    agree("forall x (x in r implies x.1 + 1 > 0)", &nulls, None);
    agree("forall x (x in r implies x.1 < 0)", &nulls, Some(true));
    agree("forall x (x in r implies x.1 != null)", &nulls, Some(false));
    agree("forall x (x in r implies x.1 = null)", &nulls, Some(true));
}

#[test]
fn int_overflow_wraps() {
    let max = db(&ints(&[(i64::MAX, 2)]), &[]);
    agree("forall x (x in r implies x.1 + 1 > x.1)", &max, Some(false));
    agree("forall x (x in r implies x.1 * x.2 = -2)", &max, Some(true));
    agree(
        "forall x (x in r implies 0 - x.1 - 2 = x.1)",
        &max,
        Some(true),
    );
}

#[test]
fn aggregates_of_an_empty_relation() {
    let empty = db(&[], &[]);
    // SUM of nothing is Int 0: 1 / (0 + 2) truncates to 0.
    agree("SUM(r, 1) = 0", &empty, Some(true));
    agree("1 / (SUM(r, 1) + 2) = 0", &empty, Some(true));
    agree("SUM(d, 1) = 0", &empty, Some(true));
    agree("CNT(r) = 0", &empty, Some(true));
    // AVG, MIN and MAX of nothing are undefined.
    agree("AVG(r, 1) >= 0", &empty, None);
    agree("MIN(r, 1) >= 0", &empty, None);
    agree("MAX(d, 2) >= 0", &empty, None);
}

#[test]
fn aggregates_of_a_populated_relation() {
    let rows = db(
        &[
            (Value::Int(3), Value::Int(1)),
            (Value::Int(-2), Value::Null),
            (Value::Int(7), Value::Int(4)),
        ],
        &[(0.5, 1.0), (2.5, -1.0)],
    );
    agree("SUM(r, 1) = 8", &rows, Some(true));
    // Nulls are skipped: 1 + 4 over two rows.
    agree("SUM(r, 2) = 5 and AVG(r, 2) = 2.5", &rows, Some(true));
    agree("MIN(r, 1) = -2 and MAX(r, 1) = 7", &rows, Some(true));
    agree("SUM(d, 1) = 3.0 and AVG(d, 2) = 0", &rows, Some(true));
    agree("MAX(d, 1) / 2 > 1.2", &rows, Some(true));
    agree("SUM(r, 1) / 3 = 2", &rows, Some(true));
}

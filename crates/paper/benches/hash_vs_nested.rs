//! `hash_vs_nested` — hash-based vs nested-loop execution of the
//! referential integrity check, in both engines:
//!
//! * **algebra**: `child ▷_{child.fk = parent.key} parent` evaluated with
//!   [`tm_algebra::JoinStrategy::Hash`] vs `NestedLoop`,
//! * **calculus**: `forall x (x in child implies exists y (y in parent and
//!   x.fk = y.key))` evaluated with the indexed quantifier fast path vs
//!   the naive nested recursion.
//!
//! Sizes are 1k / 10k / 100k tuples per relation. The nested-loop side is
//! O(n²) and is **skipped above 10k** (at 100k it would run for tens of
//! minutes); the skip is reported, not silent. Results are printed as a
//! table and written to `BENCH_hash_vs_nested.json` (override the path
//! with `BENCH_OUT`). Set `BENCH_SMOKE=1` to run only the 1k size with few
//! iterations — the CI smoke configuration.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tm_algebra::{evaluate_with, JoinStrategy, RelExpr, ScalarExpr};
use tm_calculus::{analyze, eval_constraint, eval_constraint_naive, StateSource};
use tm_paper::report::{fmt_duration, Table};
use tm_paper::workload::{child_schema, parent_schema, Workload};
use tm_relational::{Database, DatabaseSchema};

/// Nested-loop variants are skipped above this size (O(n²) wall-clock).
const NESTED_CAP: usize = 10_000;

struct Sample {
    op: &'static str,
    size: usize,
    strategy: &'static str,
    median: Option<Duration>,
}

fn time_median<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn seq_db(w: &Workload) -> Database {
    let schema = DatabaseSchema::from_relations(vec![child_schema(), parent_schema()])
        .expect("workload schemas are valid");
    let mut db = Database::new(schema.into_shared());
    for t in &w.parents {
        db.insert("parent", t.clone()).unwrap();
    }
    for t in &w.children {
        db.insert("child", t.clone()).unwrap();
    }
    db
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut samples: Vec<Sample> = Vec::new();

    for &n in sizes {
        let iters = if n <= 1_000 { 20 } else { 3 };
        let w = Workload::generate(n, n, 0, 0, 42);
        let db = seq_db(&w);

        // Algebra: the referential check as an anti-join. child(id, fk,
        // amount) ++ parent(key, payload) — the FK equality is `#1 = #3`.
        let check = RelExpr::relation("child")
            .anti_join(RelExpr::relation("parent"), ScalarExpr::col_eq(1, 3));
        let hash = evaluate_with(&check, &db, JoinStrategy::Hash).unwrap();
        assert!(hash.is_empty(), "workload has no orphans");
        samples.push(Sample {
            op: "algebra_antijoin",
            size: n,
            strategy: "hash",
            median: Some(time_median(iters, || {
                evaluate_with(&check, &db, JoinStrategy::Hash).unwrap()
            })),
        });
        let nested_median = if n <= NESTED_CAP {
            let nested = evaluate_with(&check, &db, JoinStrategy::NestedLoop).unwrap();
            assert_eq!(
                hash.sorted_tuples(),
                nested.sorted_tuples(),
                "strategies must agree"
            );
            Some(time_median(iters.min(3), || {
                evaluate_with(&check, &db, JoinStrategy::NestedLoop).unwrap()
            }))
        } else {
            println!("note: nested-loop algebra check skipped at n={n} (O(n²))");
            None
        };
        samples.push(Sample {
            op: "algebra_antijoin",
            size: n,
            strategy: "nested",
            median: nested_median,
        });

        // Calculus: the same constraint through the quantifier evaluator.
        let formula = "forall x (x in child implies exists y (y in parent and x.fk = y.key))";
        let info = analyze(&tm_calculus::parse_formula(formula).unwrap(), db.schema()).unwrap();
        assert_eq!(eval_constraint(&info, &StateSource(&db)), Ok(true));
        samples.push(Sample {
            op: "calculus_forall_exists",
            size: n,
            strategy: "indexed",
            median: Some(time_median(iters, || {
                eval_constraint(&info, &StateSource(&db)).unwrap()
            })),
        });
        let naive_median = if n <= NESTED_CAP {
            assert_eq!(eval_constraint_naive(&info, &StateSource(&db)), Ok(true));
            Some(time_median(iters.min(3), || {
                eval_constraint_naive(&info, &StateSource(&db)).unwrap()
            }))
        } else {
            println!("note: naive calculus evaluation skipped at n={n} (O(n²))");
            None
        };
        samples.push(Sample {
            op: "calculus_forall_exists",
            size: n,
            strategy: "naive",
            median: naive_median,
        });
    }

    // Report: per (op, size), the two strategies and the speedup.
    let mut table = Table::new(
        "hash_vs_nested (median per run)",
        &["op", "size", "fast", "slow", "speedup"],
    );
    let mut json_rows = String::new();
    for pair in samples.chunks(2) {
        let (fast, slow) = (&pair[0], &pair[1]);
        let speedup = match (fast.median, slow.median) {
            (Some(f), Some(s)) if f.as_nanos() > 0 => {
                format!("{:.1}x", s.as_secs_f64() / f.as_secs_f64())
            }
            _ => "n/a (slow side skipped)".to_owned(),
        };
        table.row(&[
            fast.op.to_owned(),
            fast.size.to_string(),
            fast.median.map(fmt_duration).unwrap_or_default(),
            slow.median
                .map(fmt_duration)
                .unwrap_or_else(|| "skipped".to_owned()),
            speedup,
        ]);
        for s in pair {
            if !json_rows.is_empty() {
                json_rows.push_str(",\n");
            }
            let median = match s.median {
                Some(d) => d.as_nanos().to_string(),
                None => "null".to_owned(),
            };
            let _ = write!(
                json_rows,
                "    {{\"op\": \"{}\", \"size\": {}, \"strategy\": \"{}\", \"median_ns\": {}}}",
                s.op, s.size, s.strategy, median
            );
        }
    }
    println!("{}", table.render());

    // Default to the workspace root (cargo runs benches from the package
    // directory) so the numbers land next to the other BENCH_*.json files.
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_hash_vs_nested.json"
        )
        .to_owned()
    });
    let json = format!(
        "{{\n  \"bench\": \"hash_vs_nested\",\n  \"smoke\": {smoke},\n  \"nested_cap\": {NESTED_CAP},\n  \"results\": [\n{json_rows}\n  ]\n}}\n"
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
}

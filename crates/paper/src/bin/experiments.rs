//! `experiments` — regenerate the paper's quantitative artifacts.
//!
//! ```text
//! cargo run --release -p tm-paper --bin experiments -- all
//! cargo run --release -p tm-paper --bin experiments -- table1
//! cargo run --release -p tm-paper --bin experiments -- example51
//! cargo run --release -p tm-paper --bin experiments -- perf
//! cargo run --release -p tm-paper --bin experiments -- scaling
//! cargo run --release -p tm-paper --bin experiments -- ablation
//! ```

use std::time::{Duration, Instant};

use tm_algebra::builder::TransactionBuilder;
use tm_algebra::{CmpOp, RelExpr, ScalarExpr};
use tm_paper::report::{fmt_duration, Table};
use tm_paper::table1_rows;
use tm_paper::workload::{child_schema, paper, parent_schema, Workload};
use tm_relational::{DatabaseSchema, Tuple};
use tm_translate::trans_r;
use txmod::{EnforcementMode, Engine, EngineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    match which {
        "table1" => table1(),
        "example51" => example51(),
        "perf" => perf(),
        "scaling" => scaling(),
        "ablation" => {
            ablation_static();
            ablation_differential();
        }
        "all" => {
            table1();
            example51();
            perf();
            scaling();
            ablation_static();
            ablation_differential();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("expected: table1 | example51 | perf | scaling | ablation | all");
            std::process::exit(2);
        }
    }
}

/// Median-of-N wall-clock timing.
fn time_median<T>(n: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// T1 — Table 1: translation of typical constraint constructs.
fn table1() {
    let rows = table1_rows().expect("table 1 translates");
    let mut t = Table::new(
        "T1 / Table 1 — translation of typical constraint constructs",
        &[
            "#",
            "construct (CL)",
            "paper translation",
            "this reproduction",
        ],
    );
    for row in &rows {
        t.row(&[
            row.id.to_string(),
            row.construct.to_string(),
            row.paper_translation.to_string(),
            row.program.to_string().trim().to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// E5.1 — Example 5.1: the worked transaction modification.
fn example51() {
    let mut engine = Engine::new(tm_relational::schema::beer_schema());
    engine
        .add_rule_text(
            "RULE r1 WHEN INS(beer) \
             IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
            "r1",
        )
        .expect("r1 valid");
    engine
        .add_rule_text(
            "RULE r2 WHEN INS(beer), DEL(brewery) \
             IF NOT forall x (x in beer implies \
                      exists y (y in brewery and x.brewery = y.name)) \
             THEN temp := minus(project[#2](beer), project[#0](brewery)); \
                  insert(brewery, project[#0, null, null](temp))",
            "r2",
        )
        .expect("r2 valid");
    let user_tx = TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
        )
        .build();
    let (modified, trace) = engine.modify_only(&user_tx).expect("modification succeeds");
    println!("== E5.1 / Example 5.1 — transaction modification ==");
    println!("user transaction:\n{user_tx}");
    println!("modified transaction (ModT):\n{modified}");
    println!(
        "rounds: {}, rules fired: {:?}, statements appended: {}\n",
        trace.rounds,
        trace.rules_fired(),
        trace.statements_appended()
    );
}

/// P1/P2 — the §7 performance evaluation.
fn perf() {
    let w = Workload::paper_scale(42);
    let db = w.into_parallel_db(paper::NODES);
    let domain_pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));

    let t_ref_full = time_median(5, || db.check_referential("child", 1, "parent", 0));
    let t_ref_delta = time_median(5, || db.check_referential_delta(&w.inserts, 1, "parent", 0));
    let t_dom_full = time_median(5, || db.check_domain("child", &domain_pred));
    let t_dom_delta = time_median(5, || {
        db.check_domain_delta("child", &w.inserts, &domain_pred)
    });

    let mut t = Table::new(
        format!(
            "P1/P2 / §7 — key={}, fk={}, insert={}, nodes={}",
            paper::KEY_TUPLES,
            paper::FK_TUPLES,
            paper::INSERT_TUPLES,
            paper::NODES
        ),
        &[
            "check",
            "paper (1992 POOMA)",
            "measured (full)",
            "measured (delta-only)",
        ],
    );
    t.row(&[
        "referential integrity".into(),
        format!("< {} s", paper::PAPER_REFERENTIAL_SECONDS),
        fmt_duration(t_ref_full),
        fmt_duration(t_ref_delta),
    ]);
    t.row(&[
        "domain constraint".into(),
        format!("< {} s", paper::PAPER_DOMAIN_SECONDS),
        fmt_duration(t_dom_full),
        fmt_duration(t_dom_delta),
    ]);
    println!("{}", t.render());
    let ratio = t_ref_full.as_secs_f64() / t_dom_full.as_secs_f64().max(1e-9);
    println!(
        "shape check: referential/domain cost ratio = {ratio:.2}x \
         (paper implies ≈3x: <3 s vs <1 s)\n"
    );
}

/// P3 — parallel scaling over 1/2/4/8 nodes. Runs at 8× the paper's scale
/// so per-node work dominates thread startup on modern hardware.
fn scaling() {
    let w = Workload::generate(
        8 * paper::KEY_TUPLES,
        8 * paper::FK_TUPLES,
        paper::INSERT_TUPLES,
        0,
        42,
    );
    let domain_pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));
    let mut t = Table::new(
        "P3 — parallel scaling of the §7 checks (8x paper scale)",
        &[
            "nodes",
            "referential (full)",
            "domain (full)",
            "referential speedup",
            "domain speedup",
        ],
    );
    let mut base: Option<(Duration, Duration)> = None;
    for nodes in [1usize, 2, 4, 8] {
        let db = w.into_parallel_db(nodes);
        let t_ref = time_median(9, || db.check_referential("child", 1, "parent", 0));
        let t_dom = time_median(9, || db.check_domain("child", &domain_pred));
        let (b_ref, b_dom) = *base.get_or_insert((t_ref, t_dom));
        t.row(&[
            nodes.to_string(),
            fmt_duration(t_ref),
            fmt_duration(t_dom),
            format!(
                "{:.2}x",
                b_ref.as_secs_f64() / t_ref.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.2}x",
                b_dom.as_secs_f64() / t_dom.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!("{}", t.render());
}

fn beer_rules_engine() -> Engine {
    let mut e = Engine::new(tm_relational::schema::beer_schema());
    let rules: [(&str, &str); 6] = [
        (
            "alcohol_nonneg",
            "forall x (x in beer implies x.alcohol >= 0)",
        ),
        (
            "alcohol_cap",
            "forall x (x in beer implies x.alcohol <= 80.0)",
        ),
        (
            "brewery_fk",
            "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        ),
        ("beer_count", "CNT(beer) <= 1000000"),
        (
            "brewery_city",
            "forall x (x in brewery implies x.city != '')",
        ),
        (
            "unique_name",
            "forall x (x in beer implies forall y (y in beer implies \
             (x == y or x.name != y.name)))",
        ),
    ];
    for (name, cl) in rules {
        e.define_constraint(name, cl).expect("constraint valid");
    }
    e.load("brewery", vec![Tuple::of(("guineken", "dublin", "ie"))])
        .unwrap();
    e
}

/// A1 — static precompilation vs. enforcement-time translation (§6.2).
///
/// The precompiled row times `Static`'s `ModT`. The other row adds what
/// enforcement-time translation (Algorithm 5.3) does on top of it for each
/// transaction: `trans_r` of every rule the modification selected — the
/// rules of its specialization decisions, dropped ones included.
fn ablation_static() {
    let txns: Vec<_> = (0..1_000)
        .map(|i| {
            TransactionBuilder::new()
                .insert_tuple(
                    "beer",
                    Tuple::of((format!("beer{i}"), "lager", "guineken", 5.0_f64)),
                )
                .build()
        })
        .collect();
    let engine = beer_rules_engine();
    let catalog = engine.catalog();
    let selected: Vec<Vec<_>> = txns
        .iter()
        .map(|tx| {
            let plan = engine.prepare(tx).expect("modification succeeds");
            plan.modification()
                .decisions
                .iter()
                .map(|d| catalog.rule(&d.rule).expect("selected rules are declared"))
                .collect()
        })
        .collect();
    let mut t = Table::new(
        "A1 / §6.2 — rule translation cost: per transaction vs static (1000 transactions, 6 rules)",
        &["scheme", "ModT total", "per transaction (ns)"],
    );
    for (label, translate) in [
        ("translate per transaction", true),
        ("static (precompiled)", false),
    ] {
        let total = time_median(3, || {
            for (tx, rules) in txns.iter().zip(&selected) {
                std::hint::black_box(engine.modify_only(tx).expect("modification succeeds"));
                if translate {
                    for rule in rules {
                        std::hint::black_box(
                            trans_r(rule, catalog.schema()).expect("declared rules translate"),
                        );
                    }
                }
            }
        });
        t.row(&[
            label.into(),
            fmt_duration(total),
            (total.as_nanos() / txns.len() as u128).to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// A2 — differential vs. full checks as the database grows (§5.2.1).
fn ablation_differential() {
    let mut t = Table::new(
        "A2 / §5.2.1 — differential vs full checks (insert batch = 100 children)",
        &[
            "children in DB",
            "full check execute",
            "differential execute",
            "speedup",
        ],
    );
    // The full check is `Static` without specialization, which re-checks
    // every child; specialized `Static` and `Differential` both check only
    // the inserted batch.
    let columns = [
        (EnforcementMode::Static, false),
        (EnforcementMode::Differential, true),
    ];
    for &size in &[1_000usize, 10_000, 100_000] {
        let w = Workload::generate(1_000, size, 100, 0, 7);
        let insert = TransactionBuilder::new()
            .insert_tuples("child", w.inserts.clone())
            .build();
        let delete = TransactionBuilder::new()
            .delete("child", RelExpr::Literal(w.inserts.clone()))
            .build();
        let mut times = Vec::new();
        for (mode, specialize) in columns {
            let schema = DatabaseSchema::from_relations(vec![parent_schema(), child_schema()])
                .expect("schema valid");
            let mut engine = Engine::with_config(
                schema,
                EngineConfig {
                    mode,
                    specialize,
                    ..EngineConfig::default()
                },
            );
            engine
                .define_constraint(
                    "fk",
                    "forall x (x in child implies exists y (y in parent and x.fk = y.key))",
                )
                .unwrap();
            engine
                .define_constraint("amount", "forall x (x in child implies x.amount >= 0)")
                .unwrap();
            engine.load("parent", w.parents.iter().cloned()).unwrap();
            engine.load("child", w.children.iter().cloned()).unwrap();
            // Every sample runs on the same engine, and the batch is
            // deleted again outside the timed section: only the modified
            // transaction's execution is timed, with no copy of `child`.
            let mut samples: Vec<Duration> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = engine.execute(&insert).expect("execution succeeds");
                    let d = t0.elapsed();
                    assert!(out.committed());
                    let undo = engine.execute(&delete).expect("execution succeeds");
                    assert!(undo.committed());
                    d
                })
                .collect();
            samples.sort();
            times.push(samples[samples.len() / 2]);
        }
        t.row(&[
            size.to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            format!(
                "{:.2}x",
                times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!("{}", t.render());
}

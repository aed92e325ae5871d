//! A1 — static precompilation (§6.2, integrity programs) vs.
//! enforcement-time translation (the literal Algorithm 5.1): the cost of
//! `ModT` per transaction under both schemes. Translating per transaction
//! is timed as `Static`'s `ModT` plus `trans_r` of every rule that
//! modification selected (its specialization decisions, dropped ones
//! included).

use criterion::{criterion_group, criterion_main, Criterion};
use tm_algebra::builder::TransactionBuilder;
use tm_relational::Tuple;
use tm_translate::trans_r;
use txmod::{EnforcementMode, Engine, EngineConfig};

fn engine(mode: EnforcementMode) -> Engine {
    let mut e = Engine::with_config(
        tm_relational::schema::beer_schema(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    );
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
    e
}

fn bench_modification(c: &mut Criterion) {
    let tx = TransactionBuilder::new()
        .insert_tuple(
            "beer",
            Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
        )
        .build();
    let mut group = c.benchmark_group("ablation_static");
    let statik = engine(EnforcementMode::Static);
    let plan = statik.prepare(&tx).expect("modifies");
    let catalog = statik.catalog();
    let selected: Vec<_> = plan
        .modification()
        .decisions
        .iter()
        .map(|d| catalog.rule(&d.rule).expect("selected rules are declared"))
        .collect();
    group.bench_function("translate_per_tx_mod_t", |b| {
        b.iter(|| {
            let modified = statik
                .modify_only(std::hint::black_box(&tx))
                .expect("modifies");
            for rule in &selected {
                std::hint::black_box(trans_r(rule, catalog.schema()).expect("translates"));
            }
            modified
        })
    });
    for (label, mode) in [
        ("static_mod_t", EnforcementMode::Static),
        ("differential_mod_t", EnforcementMode::Differential),
    ] {
        let e = engine(mode);
        group.bench_function(label, |b| {
            b.iter(|| e.modify_only(std::hint::black_box(&tx)).expect("modifies"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modification);
criterion_main!(benches);

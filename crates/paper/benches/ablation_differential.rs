//! A2 — differential (delta-only) checks vs. full-relation checks
//! (§5.2.1): end-to-end engine execution of an insert batch under both
//! compilation schemes, across database sizes. The gap should grow with
//! the relation size — the full check is O(|child|), the delta check
//! O(|batch|).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tm_algebra::builder::TransactionBuilder;
use tm_paper::workload::{child_schema, parent_schema, Workload};
use tm_relational::DatabaseSchema;
use txmod::{EnforcementMode, Engine, EngineConfig};

fn build_engine(mode: EnforcementMode, children: usize) -> (Engine, tm_algebra::Transaction) {
    let schema = DatabaseSchema::from_relations(vec![parent_schema(), child_schema()])
        .expect("schema valid");
    let mut engine = Engine::with_config(
        schema,
        EngineConfig {
            mode,
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
    let w = Workload::generate(1_000, children, 100, 0, 7);
    engine.load("parent", w.parents.iter().cloned()).unwrap();
    engine.load("child", w.children.iter().cloned()).unwrap();
    let tx = TransactionBuilder::new()
        .insert_tuples("child", w.inserts)
        .build();
    (engine, tx)
}

fn bench_differential(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_differential");
    group.sample_size(10);
    for &children in &[1_000usize, 10_000] {
        for (label, mode) in [
            ("full", EnforcementMode::Static),
            ("differential", EnforcementMode::Differential),
        ] {
            let (engine, tx) = build_engine(mode, children);
            group.bench_with_input(
                BenchmarkId::new(label, children),
                &(engine, tx),
                |b, (engine, tx)| {
                    b.iter_batched(
                        || engine.clone(),
                        |mut e| {
                            let out = e.execute(tx).expect("executes");
                            assert!(out.committed());
                            out
                        },
                        criterion::BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_differential);
criterion_main!(benches);

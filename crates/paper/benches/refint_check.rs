//! P1 — the §7 referential integrity measurement: checking the FK
//! constraint after inserting 5 000 tuples into a 50 000-tuple FK relation
//! against a 5 000-tuple key relation, on 8 nodes.
//!
//! Paper: "< 3 seconds" on the 8-node POOMA. We report both the full check
//! (scan everything) and the delta-only check the transaction modification
//! subsystem actually appends under differential optimization.

use criterion::{criterion_group, criterion_main, Criterion};
use tm_paper::workload::{paper, Workload};

fn bench_refint(c: &mut Criterion) {
    let w = Workload::paper_scale(42);
    let db = w.into_parallel_db(paper::NODES);
    let mut group = c.benchmark_group("refint_check");
    group.sample_size(20);
    group.bench_function("full_8nodes", |b| {
        b.iter(|| {
            let r = db.check_referential("child", 1, "parent", 0);
            assert!(r.satisfied());
            r
        })
    });
    group.bench_function("delta_8nodes", |b| {
        b.iter(|| {
            let r = db.check_referential_delta(&w.inserts, 1, "parent", 0);
            assert!(r.satisfied());
            r
        })
    });
    let db1 = w.into_parallel_db(1);
    group.bench_function("full_1node", |b| {
        b.iter(|| db1.check_referential("child", 1, "parent", 0))
    });
    group.finish();
}

criterion_group!(benches, bench_refint);
criterion_main!(benches);

//! P2 — the §7 domain constraint measurement: "checking a domain
//! constraint in the same situation takes less than 1 second" (8-node
//! POOMA). The shape target is that the domain check is roughly 3× cheaper
//! than the referential check of P1.

use criterion::{criterion_group, criterion_main, Criterion};
use tm_algebra::{CmpOp, ScalarExpr};
use tm_paper::workload::{paper, Workload};

fn bench_domain(c: &mut Criterion) {
    let w = Workload::paper_scale(42);
    let db = w.into_parallel_db(paper::NODES);
    let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));
    let mut group = c.benchmark_group("domain_check");
    group.sample_size(20);
    group.bench_function("full_8nodes", |b| {
        b.iter(|| {
            let r = db.check_domain("child", &pred);
            assert!(r.satisfied());
            r
        })
    });
    group.bench_function("delta_8nodes", |b| {
        b.iter(|| db.check_domain_delta("child", &w.inserts, &pred))
    });
    let db1 = w.into_parallel_db(1);
    group.bench_function("full_1node", |b| {
        b.iter(|| db1.check_domain("child", &pred))
    });
    group.finish();
}

criterion_group!(benches, bench_domain);
criterion_main!(benches);

//! P3 — parallel scaling of the §7 checks over 1/2/4/8 nodes
//! (the shape of refs [7, 9]: transaction-modification checks decompose
//! over fragments, giving near-linear speedup for decomposable checks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tm_algebra::{CmpOp, ScalarExpr};
use tm_paper::workload::{paper, Workload};

fn bench_scaling(c: &mut Criterion) {
    // 8× paper scale so per-node work dominates thread startup.
    let w = Workload::generate(
        8 * paper::KEY_TUPLES,
        8 * paper::FK_TUPLES,
        paper::INSERT_TUPLES,
        0,
        42,
    );
    let pred = ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(2), ScalarExpr::int(0));
    let total_children = (8 * paper::FK_TUPLES + paper::INSERT_TUPLES) as u64;
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_children));
    for nodes in [1usize, 2, 4, 8] {
        let db = w.into_parallel_db(nodes);
        group.bench_with_input(BenchmarkId::new("referential", nodes), &db, |b, db| {
            b.iter(|| db.check_referential("child", 1, "parent", 0))
        });
        group.bench_with_input(BenchmarkId::new("domain", nodes), &db, |b, db| {
            b.iter(|| db.check_domain("child", &pred))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);

//! T1 — Table 1: cost of translating each typical constraint construct
//! (`TransC`, Algorithm 5.6). Rule translation happens once per rule
//! definition under the static scheme of §6.2, but per *transaction* under
//! the literal Algorithm 5.1, so its cost is part of experiment A1's story.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tm_calculus::parse_formula;
use tm_paper::{table1_rows, table1_schema};
use tm_translate::trans_c;

fn bench_table1(c: &mut Criterion) {
    let schema = table1_schema();
    let rows = table1_rows().expect("table 1 translates");
    let mut group = c.benchmark_group("table1_translation");
    for row in &rows {
        let formula = parse_formula(row.instance).expect("instance parses");
        group.bench_with_input(
            BenchmarkId::new("trans_c", format!("row{}", row.id)),
            &formula,
            |b, f| b.iter(|| trans_c(std::hint::black_box(f), &schema).expect("translates")),
        );
    }
    // End-to-end: parse + translate (what a DDL statement would cost).
    group.bench_function("parse_and_translate/row2", |b| {
        b.iter(|| {
            let f = parse_formula("forall x (x in r implies exists y (y in s and x.1 = y.1))")
                .expect("parses");
            trans_c(&f, &schema).expect("translates")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);

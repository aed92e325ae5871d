//! Self-tests of the benchmark's own arithmetic and inputs: the generator
//! is a function of the seed, the order statistics are the documented
//! ones, `compare` reaches the documented verdicts, and `BENCHMARK.json`
//! says what the code says.

use tm_benchmark::cli;
use tm_benchmark::compare::{self, Verdict};
use tm_benchmark::json::{obj, Json};
use tm_benchmark::metrics::Better;
use tm_benchmark::model::{digest, AdhocOp, AdhocStream, Kind, Op, Stream};
use tm_benchmark::stats::{
    iqr_share, median, quantile_sorted, segment_quantiles, segment_rates, Round, SEGMENTS,
};

fn ops(seed: u64, stream: u64, cycles: usize) -> Vec<Op> {
    let mut out = Vec::new();
    Stream::new(seed, stream, 1_000)
        .with_reprice_every(9)
        .extend(cycles, &mut out);
    out
}

fn verdict_counts(ops: &[Op]) -> [(usize, usize); 4] {
    let mut counts = [(0, 0); 4];
    for op in ops {
        let c = &mut counts[op.kind as usize];
        if op.commit {
            c.0 += 1;
        } else {
            c.1 += 1;
        }
    }
    counts
}

#[test]
fn same_seed_same_stream_different_seed_different_stream() {
    let (a, b) = (ops(7, 0, 5_000), ops(7, 0, 5_000));
    assert_eq!(digest(&a), digest(&b));
    assert_eq!(verdict_counts(&a), verdict_counts(&b));
    let other_seed = ops(8, 0, 5_000);
    assert_ne!(digest(&a), digest(&other_seed));
    let other_stream = ops(7, 1, 5_000);
    assert_ne!(digest(&a), digest(&other_stream));
    // Every third op is a deliver and always commits; about one order in
    // twenty aborts, and its payment with it.
    let counts = verdict_counts(&a);
    assert_eq!(counts[Kind::Deliver as usize], (5_000, 0));
    assert_eq!(counts[Kind::NewOrder as usize], counts[Kind::Pay as usize]);
    let aborted = counts[Kind::NewOrder as usize].1;
    assert!(
        (150..350).contains(&aborted),
        "{aborted} aborts in 5000 orders"
    );
}

#[test]
fn streams_never_share_a_key() {
    let ids = |stream| -> Vec<i64> {
        ops(3, stream, 200)
            .iter()
            .filter(|o| o.kind == Kind::NewOrder)
            .map(|o| o.args[0])
            .collect()
    };
    let (a, b) = (ids(0), ids(1));
    assert!(a.iter().all(|id| !b.contains(id)));
}

#[test]
fn adhoc_text_is_a_function_of_the_seed() {
    let text = |seed| {
        let mut out = Vec::new();
        AdhocStream::new(seed, 100).extend(2_100, &mut out);
        out
    };
    let a = text(5);
    assert_eq!(a, text(5));
    assert_ne!(a, text(6));
    let sets = a
        .iter()
        .filter(|o| {
            matches!(
                o,
                AdhocOp::Tx {
                    name: "set_oriented",
                    ..
                }
            )
        })
        .count();
    let ddl: Vec<bool> = a
        .iter()
        .filter_map(|o| {
            if let AdhocOp::Ddl { define } = o {
                Some(*define)
            } else {
                None
            }
        })
        .collect();
    // Multiples of 16 up to 2100, less op 2000 — a catalog step wins.
    assert_eq!(sets, 2_100 / 16 - 1);
    assert_eq!(ddl, vec![true, false], "define, then remove");
}

#[test]
fn nearest_rank_quantiles() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(quantile_sorted(&v, 0.5), Some(50));
    assert_eq!(quantile_sorted(&v, 0.99), Some(99));
    assert_eq!(quantile_sorted(&v, 1.0), Some(100));
    assert_eq!(quantile_sorted(&v, 0.0), Some(1));
    assert_eq!(quantile_sorted(&[7u64], 0.99), Some(7));
    assert_eq!(quantile_sorted::<u64>(&[], 0.5), None);
}

#[test]
fn median_odd_even_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn iqr_matches_pythons_exclusive_quartiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let got = iqr_share(&v).unwrap();
    assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
}

#[test]
fn segments_are_equal_count_and_drop_the_leading_surplus() {
    // 11 rounds of 100 ops: the surplus round is the (slow) first.
    let mut rounds = vec![Round {
        ops: 100,
        ns: 1_000_000_000,
    }];
    rounds.extend((0..10).map(|i| Round {
        ops: 100,
        ns: if i < 2 { 200 } else { 100 },
    }));
    let rates = segment_rates(&rounds);
    assert_eq!(rates.len(), SEGMENTS);
    assert_eq!(rates[0], 200.0 * 1e9 / 400.0);
    assert_eq!(rates[4], 200.0 * 1e9 / 200.0);
    assert_eq!(
        median(&rates),
        Some(1e9),
        "the median segment, not the mean"
    );
    // Fewer rounds than segments: one rate per round.
    let short = [Round { ops: 10, ns: 10 }, Round { ops: 10, ns: 20 }];
    assert_eq!(segment_rates(&short), vec![1e9, 5e8]);
}

#[test]
fn latency_quantiles_are_taken_per_segment() {
    // 11 rounds → round 0 is surplus, then 5 segments of 2 rounds. Round r
    // contributes the samples r·10 and r·10 + 1.
    let samples: Vec<(u32, u64)> = (0..11u32)
        .flat_map(|r| [(r, u64::from(r) * 10), (r, u64::from(r) * 10 + 1)])
        .collect();
    assert_eq!(
        segment_quantiles(&samples, 11, 1.0),
        vec![21, 41, 61, 81, 101]
    );
    assert_eq!(
        segment_quantiles(&samples, 11, 0.5),
        vec![11, 31, 51, 71, 91]
    );
    // A segment without samples is left out, not reported as 0.
    assert_eq!(segment_quantiles(&[(10, 7)], 11, 0.5), vec![7]);
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn result_file(runs: &[(&str, &[(&str, f64)])]) -> Json {
    let runs = runs
        .iter()
        .map(|(workload, metrics)| {
            let metrics = Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| {
                        (
                            (*k).to_owned(),
                            obj([("value", (*v).into()), ("unit", "x".into())]),
                        )
                    })
                    .collect(),
            );
            obj([
                ("workload", (*workload).into()),
                ("trace", false.into()),
                ("metrics", metrics),
            ])
        })
        .collect();
    obj([("runs", Json::Arr(runs))])
}

#[test]
fn compare_on_hand_made_pairs() {
    let bounds = vec![
        ("tx_per_s".to_owned(), Better::Higher, 0.10),
        ("lat_p50_us".to_owned(), Better::Lower, 0.10),
    ];
    let a = result_file(&[
        ("w1", &[("tx_per_s", 100.0), ("lat_p50_us", 10.0)]),
        ("w1", &[("tx_per_s", 102.0), ("lat_p50_us", 10.2)]),
        ("w2", &[("tx_per_s", 100.0), ("lat_p50_us", 10.0)]),
        ("w2", &[("tx_per_s", 100.0), ("lat_p50_us", 14.0)]),
    ]);
    let b = result_file(&[
        ("w1", &[("tx_per_s", 80.0), ("lat_p50_us", 8.0)]),
        ("w1", &[("tx_per_s", 82.0), ("lat_p50_us", 8.2)]),
        ("w2", &[("tx_per_s", 104.0), ("lat_p50_us", 11.0)]),
        ("w2", &[("tx_per_s", 104.0), ("lat_p50_us", 13.0)]),
    ]);
    let rows = compare::compare(&a, &b, &bounds).unwrap();
    let verdict = |w: &str, m: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .unwrap()
            .verdict
    };
    // 101 → 81 tx/s: worse by a fifth, bound a tenth.
    assert_eq!(verdict("w1", "tx_per_s"), Verdict::Regressed);
    // 10.1 → 8.1 µs: lower is better.
    assert_eq!(verdict("w1", "lat_p50_us"), Verdict::Improved);
    // +4 %: inside the bound, no spread.
    assert_eq!(verdict("w2", "tx_per_s"), Verdict::Unchanged);
    // 12 → 12 µs, but a's two runs are a third apart: nothing can be said.
    assert_eq!(verdict("w2", "lat_p50_us"), Verdict::Unresolved);
    let row = rows
        .iter()
        .find(|r| r.workload == "w1" && r.metric == "tx_per_s")
        .unwrap();
    assert_eq!((row.a, row.b), (101.0, 81.0));
    assert!(
        (row.ratio - 81.0 / 101.0).abs() < 1e-12,
        "ratio is b over its base a"
    );
    assert!(compare::render(&rows).contains("regressed"));
}

#[test]
fn a_wide_spread_does_not_hide_a_larger_regression() {
    // Spread 20 % > bound 10 %, but b is worse by 50 %: still regressed.
    let (_, _, _, _, v) = compare::judge(&[90.0, 110.0], &[45.0, 55.0], Better::Higher, 0.10);
    assert_eq!(v, Verdict::Regressed);
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

#[test]
fn benchmark_json_is_what_the_code_says() {
    assert_eq!(
        benchmark_json(),
        cli::manifest(),
        "regenerate with `tm-benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn benchmark_json_meets_the_contracts_limits() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024);
    let j = benchmark_json();
    let keys: Vec<&str> = j
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let list = |key: &str| j.get(key).unwrap().as_arr().unwrap().to_vec();
    let str_of = |m: &Json, key: &str| m.get(key).unwrap().as_str().unwrap().to_owned();
    let mut names = Vec::new();
    let workloads = list("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert_eq!(w.as_obj().unwrap().len(), 2);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(str_of(w, "name"));
    }
    let e2e = list("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    for m in &e2e {
        assert_eq!(m.as_obj().unwrap().len(), 4);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(unit_ok(&str_of(m, "unit")));
        names.push(str_of(m, "name"));
    }
    assert!(e2e.iter().any(|m| str_of(m, "name") == "setup_s"
        && str_of(m, "unit") == "s"
        && str_of(m, "better") == "lower"));
    let layers = list("per_layer");
    assert!((1..=128).contains(&layers.len()));
    for m in &layers {
        assert_eq!(m.as_obj().unwrap().len(), 3);
        assert!(unit_ok(&str_of(m, "unit")));
        assert!(["higher", "lower"].contains(&str_of(m, "better").as_str()));
        names.push(str_of(m, "name"));
    }
    for n in &names {
        assert!(name_ok(n), "{n}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    let seconds = j.get("run_seconds").unwrap().as_f64().unwrap();
    assert_eq!(seconds, cli::DEFAULT_SECONDS);
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 × workloads runs, with set-up, inside 3420 s: at most this
    // much wall time per run (measured ≈ seconds + 4 s).
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        (seconds + 4.0) * runs < 3420.0 - 2.0 * 300.0,
        "{runs} runs do not fit"
    );
    let command = list("command");
    assert!(command.len() <= 32);
    for part in &command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert_eq!(list("paths"), vec![Json::Str("benchmark".to_owned())]);
}

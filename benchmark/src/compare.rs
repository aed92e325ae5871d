//! `compare <a.json> <b.json>`: apply the bounds of `BENCHMARK.json` to two
//! result files of `run` and print one row per (end-to-end metric,
//! workload).
//!
//! A result file holds one entry per (workload, seed) run. For each
//! metric and workload the two sides' medians are compared; a side's
//! spread is the distance between the quartiles of its runs as a share of
//! their median (with fewer than four runs a side, their full range).
//! Verdicts: `regressed` — `b` is worse than `a` by more than the bound;
//! `improved` — better by more than the bound; `unresolved` — the
//! difference is inside a run-to-run spread that is itself wider than the
//! bound, so nothing can be said; `unchanged` otherwise. Every ratio is
//! printed with its base.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, DURABLE_ONLY};
use crate::run::comparable_metrics;
use crate::stats::{iqr_share, median};

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` better than `a` by more than the bound.
    Improved,
    /// Within the bound, spreads within the bound.
    Unchanged,
    /// `b` worse than `a` by more than the bound.
    Regressed,
    /// A run-to-run spread wider than the bound hides the difference.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of side `a` (the base of `ratio`).
    pub a: f64,
    /// Median of side `b`.
    pub b: f64,
    /// `b / a`.
    pub ratio: f64,
    /// Larger of the two sides' spreads, as a share of the median.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Spread of a side's runs: inter-quartile range over the median from
/// four runs up, full range over the median below that, 0 for one run.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return iqr_share(values).unwrap_or(0.0);
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    match median(values) {
        Some(m) if m != 0.0 && values.len() > 1 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

/// Judge one pair of sides: `(median of a, median of b, b / a, the larger
/// of the two spreads, verdict)`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a).unwrap_or(0.0), median(b).unwrap_or(0.0));
    let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
    // Worsening as a positive share of a's median.
    let worse = match better {
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound && worse.abs() <= spread {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (ma, mb, ratio, spread, verdict)
}

/// The end-to-end metric definitions of a parsed `BENCHMARK.json`, plus
/// the durable-only two the benchmark carries itself.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Vec::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("end_to_end entry without a name")?;
        let better = match m.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        out.push((name.to_owned(), better, bound));
    }
    out.extend(
        DURABLE_ONLY
            .iter()
            .map(|d: &EndToEnd| (d.name.to_owned(), d.better, d.bound)),
    );
    Ok(out)
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples(file: &Json) -> Result<(Vec<String>, Samples), String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no runs list")?;
    let mut order = Vec::new();
    let mut out = Samples::new();
    for r in runs {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?
            .to_owned();
        if r.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        if !order.contains(&workload) {
            order.push(workload.clone());
        }
        for (metric, value) in comparable_metrics(r) {
            out.entry((workload.clone(), metric))
                .or_default()
                .push(value);
        }
    }
    Ok((order, out))
}

/// Compare two parsed result files under `bounds`.
pub fn compare(a: &Json, b: &Json, bounds: &[(String, Better, f64)]) -> Result<Vec<Row>, String> {
    let (order, sa) = samples(a)?;
    let (_, sb) = samples(b)?;
    let mut rows = Vec::new();
    for workload in &order {
        for (metric, better, bound) in bounds {
            let key = (workload.clone(), metric.clone());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (ma, mb, ratio, spread, verdict) = judge(va, vb, *better, *bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: ma,
                b: mb,
                ratio,
                spread,
                bound: *bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Render the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  {}\n",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.ratio,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

//! Order statistics: the only arithmetic between a measurement and the
//! number that is reported.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest element with at least `q·n` elements at or below it. Every
/// reported quantile is therefore a value that was actually measured.
/// Returns `None` on an empty slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted floats; for an even count, the mean of the middle
/// two (as Python's `statistics.median`). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Inter-quartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method) —
/// the spread the benchmark's acceptance rule is stated in. `None` below
/// two values or when the median is zero.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        // Exclusive method: position p·(n+1), 1-based, clamped, linear
        // interpolation between neighbours.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    let med = median(&v)?;
    if med == 0.0 {
        return None;
    }
    Some((at(0.75) - at(0.25)) / med.abs())
}

/// One round of a measured phase: `ops` answered in `ns` of wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Operations answered (all clients together).
    pub ops: u64,
    /// Wall time from the start barrier to the last client finishing.
    pub ns: u64,
}

/// How many segments a measured phase is cut into.
pub const SEGMENTS: usize = 5;

/// Cut the rounds of a measured phase into [`SEGMENTS`] contiguous groups
/// of equal round count (rounds all have the same op count, so these are
/// equal-count segments) and return each group's rate in ops per second.
/// When the round count is not a multiple, the surplus *leading* rounds
/// are dropped — they are the ones closest to the warm-up. Fewer rounds
/// than segments yield one rate per round.
pub fn segment_rates(rounds: &[Round]) -> Vec<f64> {
    let rate = |rs: &[Round]| {
        let ops: u64 = rs.iter().map(|r| r.ops).sum();
        let ns: u64 = rs.iter().map(|r| r.ns).sum();
        ops as f64 * 1e9 / ns.max(1) as f64
    };
    let (skip, per) = segment_shape(rounds.len());
    rounds[skip..].chunks(per).map(rate).collect()
}

/// `(leading rounds dropped, rounds per segment)` for a phase of `rounds`
/// rounds.
fn segment_shape(rounds: usize) -> (usize, usize) {
    let per = (rounds / SEGMENTS).max(1);
    (rounds.saturating_sub(per * SEGMENTS), per)
}

/// The `q`-quantile of the latency samples of each segment of a phase of
/// `rounds` rounds; `samples` are `(round number, value)`. Segments are
/// those of [`segment_rates`]; one without samples is left out.
pub fn segment_quantiles(samples: &[(u32, u64)], rounds: usize, q: f64) -> Vec<u64> {
    let (skip, per) = segment_shape(rounds);
    let mut segments: Vec<Vec<u64>> = vec![Vec::new(); rounds.saturating_sub(skip).div_ceil(per)];
    for &(round, value) in samples {
        if let Some(i) = (round as usize).checked_sub(skip) {
            if let Some(segment) = segments.get_mut(i / per) {
                segment.push(value);
            }
        }
    }
    segments
        .iter_mut()
        .filter_map(|s| {
            s.sort_unstable();
            quantile_sorted(s, q)
        })
        .collect()
}

//! Order statistics and the ladder's cost arithmetic.
//!
//! Timings are summarized by their median and quartiles, and tails by the
//! highest percentile that still has at least [`TAIL_SAMPLES`] samples
//! beyond it. Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), so numbers computed here and by scripts that
//! post-process runs agree.

/// Samples a reported percentile must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles the tail rule chooses from, in per mille, highest first.
const TAIL_CANDIDATES_PER_MILLE: [usize; 7] = [999, 990, 950, 900, 800, 750, 500];

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(pm: usize, n: usize) -> usize {
    (pm * n).div_ceil(1000).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// First quartile, median and third quartile. A single sample is all three.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Mean of the samples between the first and third quartile (inclusive):
/// as robust to outliers as the median, but not stuck on the timer's
/// resolution.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let middle: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| (q1..=q3).contains(v))
        .collect();
    if middle.is_empty() {
        median(values)
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100, to a tenth of a percent).
///
/// # Panics
/// Panics on an empty slice or a percentile outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    let v = sorted(values);
    v[rank((p * 10.0).round() as usize, v.len()) - 1]
}

/// The highest percentile with at least [`TAIL_SAMPLES`] of `n` samples
/// beyond it: p80 at 50 samples, p99 from 1000. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PER_MILLE
        .into_iter()
        .find(|&pm| n > 0 && n - rank(pm, n) >= TAIL_SAMPLES)
        .map(|pm| pm as f64 / 10.0)
}

/// The time a repetition would take if every segment ran as fast as its
/// fastest run: the sum over segments of the minimum across repetitions.
/// Every repetition does identical work segment by segment, and interference
/// from other tenants only ever adds time, so this strips it at the grain
/// of a segment rather than of a whole repetition.
///
/// # Panics
/// Panics unless every repetition has the same number of segments.
pub fn fastest_total(repetitions: &[Vec<f64>]) -> f64 {
    let Some(first) = repetitions.first() else {
        return 0.0;
    };
    assert!(
        repetitions.iter().all(|r| r.len() == first.len()),
        "repetitions differ in their segments"
    );
    (0..first.len())
        .map(|i| {
            repetitions
                .iter()
                .map(|r| r[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// A ladder rung's own cost: its ns/item minus the expected calls per item
/// into the rung below times that rung's ns/call. The calls are 1 between
/// cumulative rungs and τ from Memento into Space Saving, whose full
/// updates reach the counters with probability τ.
pub fn self_cost(rung_ns: f64, calls_per_item: f64, below_ns: f64) -> f64 {
    rung_ns - calls_per_item * below_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_ignores_the_tails() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1_000.0];
        // Quartiles 2.25 and 6.75: the middle half is 3, 4, 5 and 6.
        assert_eq!(interquartile_mean(&v), 4.5);
        assert_eq!(interquartile_mean(&[2.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn fastest_total_takes_each_segment_at_its_best() {
        let reps = [
            vec![5.0, 9.0, 4.0],
            vec![6.0, 3.0, 4.5],
            vec![7.0, 8.0, 2.0],
        ];
        assert_eq!(fastest_total(&reps), 5.0 + 3.0 + 2.0);
        assert_eq!(fastest_total(&[]), 0.0);
    }

    #[test]
    fn self_cost_subtracts_the_expected_calls_below() {
        // Cumulative rungs: one call below per item.
        assert_eq!(self_cost(12.0, 1.0, 5.0), 7.0);
        // Memento at τ = 1/4 reaches Space Saving on a quarter of its items.
        assert_eq!(self_cost(10.0, 0.25, 20.0), 5.0);
    }
}

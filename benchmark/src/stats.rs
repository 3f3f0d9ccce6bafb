//! Order statistics the reports are built from.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// the two nearest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance check compares with a metric's bound. The
/// quartiles are those of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so `repeat` reports what the driver will compute.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| {
        let position = (k * (n + 1)) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * fraction
    };
    let middle = median(&sorted);
    if middle == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / middle.abs()
}

/// Ranks with ties sharing their mean rank.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let shared = (i + j) as f64 / 2.0 + 1.0;
        for &index in &order[i..=j] {
            ranks[index] = shared;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of two equally long series; 0 when either is
/// constant or shorter than two.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs paired series");
    if a.len() < 2 {
        return 0.0;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let mean = (a.len() + 1) as f64 / 2.0;
    let (mut cov, mut var_a, mut var_b) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        var_a += (x - mean) * (x - mean);
        var_b += (y - mean) * (y - mean);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a * var_b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_hand_computed_inputs() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 5.0);
        // rank 0.95 * 4 = 3.8 → 4 + 0.8 * (5 - 4)
        assert!((percentile(&values, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_passes_ignores_one_slow_pass() {
        // Per-pass p50s with one pass hit by a noisy neighbour.
        let per_pass = [10.1, 10.0, 19.0, 10.2, 9.9];
        assert_eq!(median(&per_pass), 10.1);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[10.0, 20.0, 40.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn spearman_on_hand_computed_inputs() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // ranks a = 1,2,3,4  b = 1,3,2,4 → 1 - 6*2/(4*15) = 0.8
        assert!((spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]) - 0.8).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        // ties share their mean rank: a = 1.5,1.5,3  b = 1,2,3
        let tied = spearman(&[5.0, 5.0, 9.0], &[1.0, 2.0, 3.0]);
        assert!((tied - 0.8660254037844387).abs() < 1e-12);
    }
}

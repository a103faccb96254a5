//! Rank statistics over op latencies.

/// Ops that must lie beyond the tail rank: the tail is the highest
/// percentile with at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// The 0-based nearest-rank index of the median of `n` samples (the lower
/// median for even `n`).
pub fn median_rank(n: usize) -> usize {
    n.div_ceil(2).saturating_sub(1)
}

/// The 0-based index of the tail rank: [`TAIL_BEYOND`] samples sort above it.
pub fn tail_rank(n: usize) -> usize {
    n.saturating_sub(TAIL_BEYOND + 1)
}

/// The sample at 0-based sorted index `rank`, with the class that holds it.
pub fn rank<'a>(samples: &[(f64, &'a str)], rank: usize) -> (f64, &'a str) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted.get(rank).copied().unwrap_or((0.0, "none"))
}

/// Median of a list of values, at [`median_rank`].
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(median_rank(sorted.len()))
        .copied()
        .unwrap_or(0.0)
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_leave_ten_samples_beyond_the_tail() {
        assert_eq!(median_rank(5), 2);
        assert_eq!(median_rank(6), 2);
        assert_eq!(tail_rank(100), 89);
        let samples: Vec<(f64, &str)> = (0..100).map(|k| ((99 - k) as f64, "x")).collect();
        assert_eq!(rank(&samples, tail_rank(100)).0, 89.0);
        assert_eq!(rank(&samples, median_rank(100)).0, 49.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}

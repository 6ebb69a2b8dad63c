//! Order statistics over exact samples.
//!
//! Percentiles are read from the sorted per-request samples themselves,
//! never from histogram buckets: a bucketed p99 reads as a bucket edge
//! (a power of two of nanoseconds), not as anything that was measured.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
    /// How many samples lie beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `per_mille / 1000` of all samples at or below
/// it. Refused when fewer than [`MIN_BEYOND`] samples lie beyond that
/// rank, because such a tail is a handful of outliers, not a percentile.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Result<Percentile, String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    assert!(
        (1..=1000).contains(&per_mille),
        "percentile {per_mille}/1000"
    );
    let n = sorted.len();
    // Integer arithmetic: ceil(per_mille * n / 1000) without float error.
    let rank = (per_mille * n).div_ceil(1000).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} refused: {n} samples leave {beyond} beyond it (need {MIN_BEYOND})",
            per_mille as f64 / 10.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Indices of the `k` lowest `values`, in ascending index order (ties
/// keep the earlier index).
pub fn lowest(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(1000);
        let p50 = percentile(&s, 500).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
        let p99 = percentile(&s, 990).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
    }

    #[test]
    fn rank_rounds_up() {
        // 0.99 * 1001 = 990.99 -> rank 991.
        let p99 = percentile(&ramp(1001), 990).unwrap();
        assert_eq!(p99.value, 991.0);
        assert_eq!(p99.beyond, 10);
        // Odd count median is the middle sample.
        assert_eq!(percentile(&ramp(101), 500).unwrap().value, 51.0);
    }

    #[test]
    fn refuses_a_thin_tail() {
        // 999 samples leave only 9 beyond p99.
        let err = percentile(&ramp(999), 990).unwrap_err();
        assert!(err.contains("refused"), "{err}");
        assert!(percentile(&[], 500).is_err());
        // p50 of 20 samples leaves 10 beyond: allowed; of 19: refused.
        assert!(percentile(&ramp(20), 500).is_ok());
        assert!(percentile(&ramp(19), 500).is_err());
    }

    #[test]
    fn values_are_samples_not_bucket_edges() {
        let s: Vec<f64> = (0..2000).map(|i| 17.0 + i as f64 * 0.013).collect();
        let p = percentile(&s, 990).unwrap();
        assert!(s.contains(&p.value));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lowest_keeps_index_order() {
        assert_eq!(lowest(&[5.0, 1.0, 4.0, 2.0, 3.0], 3), vec![1, 3, 4]);
        assert_eq!(lowest(&[2.0, 2.0, 1.0], 2), vec![0, 2]);
        assert_eq!(lowest(&[1.0], 4), vec![0]);
    }
}

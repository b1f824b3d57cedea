//! Order statistics over timing samples.

/// Percentiles considered for a distribution's tail, highest first.
/// Decades from p90 up, plus p75 and p50 for small samples. Leaving out p95
/// keeps the ingest workload's few hundred batches in one band (p90), so
/// the tail's percentile does not flip between runs.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Sort samples ascending (total order; NaN sorts last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

fn rank(len: usize, pct: f64) -> usize {
    ((len - 1) as f64 * pct / 100.0).round() as usize
}

/// The `pct`-th percentile of ascending `sorted` samples (nearest rank on
/// `(n - 1) * pct / 100`). Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct)]
}

/// The `pct`-th percentile of unsorted samples.
pub fn pct(samples: &[f64], pct: f64) -> f64 {
    percentile(&sorted(samples.to_vec()), pct)
}

/// Median of unsorted samples: the middle sample, or the mean of the two
/// middle samples of an even count. A run's timing metrics are medians of a
/// dozen to a few hundred samples that fall in two clusters when the host's
/// speed changes during the run; averaging the two middle samples keeps a
/// median of an even count from taking either cluster's value outright.
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// A distribution's tail: the highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
    pub samples: usize,
}

/// The tail of ascending `sorted` samples, or `None` when even the median
/// leaves fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    if sorted.is_empty() {
        return None;
    }
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let idx = rank(sorted.len(), pct);
        let beyond = sorted.len() - 1 - idx;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[idx],
            beyond,
            samples: sorted.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 989 with 10 beyond; p99.9 leaves 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 989.0, 10, 1000)
        );
        // 940 samples: p99 leaves 9, so the tail falls back to p90.
        let t = tail(&ramp(940)).unwrap();
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (90.0, 845.0, 94, 940)
        );
        // 100 samples: p90 leaves exactly 10; 95 samples leave 9, so p75.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 89.0, 10));
        let t = tail(&ramp(95)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 71.0, 23));
        // 21 samples: only the median leaves 10 beyond.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 10.0, 10, 21));
    }

    #[test]
    fn tail_is_undefined_below_twenty_one_samples() {
        assert_eq!(tail(&ramp(20)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s = ramp(11);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&ramp(4), 50.0), 2.0);
        assert_eq!(pct(&[4.0, 0.0, 2.0, 1.0, 3.0], 75.0), 3.0);
    }

    #[test]
    fn median_averages_the_middle_pair_of_an_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}

//! Order statistics for the benchmark's reported timings.

/// Percentiles considered for a distribution's tail, lowest first, in
/// hundredths of a percent. Nothing beyond p99: in a 20 s run on 2 cores
/// p99.9 of a served rank rests on a few scheduler stalls and spread 43%
/// between runs.
const TAIL_PERCENTILES: [usize; 4] = [5000, 9000, 9500, 9900];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (any order): the mean of the two middle
/// values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of [`TAIL_PERCENTILES`] whose nearest-rank sample has at
/// least [`TAIL_SUPPORT`] samples beyond it, as `(percentile, value)`.
/// `None` when even the median lacks that support (under 20 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let rank = (p * n).div_ceil(10_000);
        (rank >= 1 && n - rank >= TAIL_SUPPORT).then(|| (p as f64 / 100.0, sorted[rank - 1]))
    })
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is sample 990 with 10 beyond; p99.9 has 1.
        assert_eq!(supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 is sample 990 with only 9 beyond, so p95.
        assert_eq!(supported_tail(&ramp(999)), Some((95.0, 950.0)));
        // 150 samples: p95 (sample 143) has 7 beyond, p90 has 15.
        assert_eq!(supported_tail(&ramp(150)), Some((90.0, 135.0)));
        // p99 is the highest percentile considered.
        assert_eq!(supported_tail(&ramp(100_000)), Some((99.0, 99_000.0)));
        // 20 samples: the median (sample 10) has exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(20)), Some((50.0, 10.0)));
        // 19 samples support no percentile at all.
        assert_eq!(supported_tail(&ramp(19)), None);
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn median_and_percentile_use_the_stated_conventions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}

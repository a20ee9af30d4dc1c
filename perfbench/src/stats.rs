//! Order statistics over whole-run samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule,
/// or 0 for an empty slice. Sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (the mean of the two middle values for an even
/// count), or 0 for an empty slice. Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Mean of `samples`, or 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `num / den`, or 0 when `den` is 0 — per-op and per-call rates of
/// layers a workload never reaches read 0, not NaN.
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
    fn nearest_rank_quantiles_and_medians() {
        let mut xs: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile(&mut xs, 0.99), 990);
        assert_eq!(quantile(&mut xs, 0.5), 500);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}

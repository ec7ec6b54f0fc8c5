//! Order statistics over timing samples.

/// Linear-interpolated percentile (`p` in `0..=100`) of unsorted samples;
/// `NaN` for an empty slice. Between order statistics it interpolates
/// like NumPy's default, so p50 of an even count is the mid-point.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median of the means of `groups` groups, where sample `k` joins group
/// `k mod groups`: in a time series every group spans the whole series.
pub fn median_of_means(samples: &[f64], groups: usize) -> f64 {
    let groups = groups.min(samples.len()).max(1);
    let means: Vec<f64> = (0..groups)
        .map(|g| {
            let group: Vec<f64> = samples.iter().skip(g).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_samples() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert!((percentile(&v, 40.0) - 29.0).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 35.0, 20.0], 75.0), 40.0);
    }

    #[test]
    fn median_of_even_count_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_of_hundred_samples_sits_between_the_top_two() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn median_of_means_weighs_two_speeds_and_drops_an_outlier() {
        // Two speeds in runs of three, and one spike.
        let mut v = vec![3.0, 3.0, 3.0, 6.0, 6.0, 6.0, 3.0, 3.0, 3.0, 6.0, 6.0, 6.0];
        assert_eq!(median(&v), 4.5);
        v[4] = 600.0;
        // Groups {0,3,6,9}, {1,4,7,10}, {2,5,8,11}: means 4.5, 153, 4.5.
        assert_eq!(median_of_means(&v, 3), 4.5);
        assert_eq!(median_of_means(&[2.0, 4.0], 5), 3.0);
        assert!(median_of_means(&[], 5).is_nan());
    }
}

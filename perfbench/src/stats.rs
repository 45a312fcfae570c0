//! Order statistics over timing samples.

/// Linearly interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; `NaN` for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The distance between the quartiles as a share of the median: the
/// spread printed beside a median.
pub fn spread(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

/// How many samples lie above the `pct` percentile.
pub fn beyond(samples: &[f64], pct: f64) -> usize {
    let cut = quantile(samples, pct / 100.0);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(spread(&v), 2.0 / 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn beyond_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&v, 90.0), 10);
        assert_eq!(beyond(&v, 99.0), 1);
    }
}

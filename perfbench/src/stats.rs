//! Order statistics for the reported metrics.

/// How many samples must lie beyond a reported tail percentile, so that
/// the tail value rests on more than a handful of outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending, non-empty), with
/// the number of samples ranked above it.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Nearest rank: the smallest rank r (1-based) with r ≥ q·n.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Median and 90th percentile of a latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub samples: usize,
}

/// The median and p90 of `samples`, or `None` when fewer than
/// [`MIN_BEYOND_TAIL`] samples rank above the p90.
pub fn percentiles(samples: &[f64]) -> Option<Percentiles> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = nearest_rank(&sorted, 0.5)?;
    let (p90, beyond) = nearest_rank(&sorted, 0.9)?;
    (beyond >= MIN_BEYOND_TAIL).then_some(Percentiles {
        p50,
        p90,
        samples: sorted.len(),
    })
}

/// Mean of the last tenth of `samples` over the mean of the first
/// tenth: 1 when the run neither slows down nor speeds up as it goes.
pub fn drift_ratio(samples: &[f64]) -> Option<f64> {
    let tenth = samples.len() / 10;
    if tenth == 0 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let first = mean(&samples[..tenth]);
    let last = mean(&samples[samples.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is the 90th, and exactly ten rank above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentiles(&hundred).expect("ten samples beyond p90");
        assert_eq!((p.p50, p.p90, p.samples), (50.0, 90.0, 100));

        // 99 samples: p90 is the 90th (ceil(89.1)), only nine beyond.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentiles(&ninety_nine), None);
        assert_eq!(percentiles(&[]), None);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        let p = percentiles(&xs).unwrap();
        assert_eq!((p.p50, p.p90), (100.0, 180.0));
    }

    #[test]
    fn drift_compares_last_tenth_to_first() {
        let mut xs = vec![1.0; 20];
        xs[18] = 3.0;
        xs[19] = 3.0;
        assert_eq!(drift_ratio(&xs), Some(3.0));
        assert_eq!(drift_ratio(&[1.0; 9]), None);
    }
}

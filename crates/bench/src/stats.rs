//! Order statistics shared by the experiment binaries.

/// Nearest-rank percentile (`q` in `0..=100`) of an unsorted sample set:
/// the smallest sample with at least `q`% of the set at or below it.
/// Sorts `samples` in place.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "empty sample set");
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of an unsorted sample set: the middle sample, or the mean of
/// the two middle samples for an even count. Sorts `samples` in place.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn median(samples: &mut [f64]) -> f64 {
    // The nearest-rank p50 is the lower middle sample; for an odd count
    // it is also the upper one.
    let lower = percentile(samples, 50.0);
    (lower + samples[samples.len() / 2]) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut s, 50.0), 3.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut s, 20.0), 1.0);
        assert_eq!(percentile(&mut s, 21.0), 2.0);
        assert_eq!(percentile(&mut s, 99.0), 5.0);
        assert_eq!(percentile(&mut s, 100.0), 5.0);
        let mut four = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(percentile(&mut four, 50.0), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_set_rejected() {
        let _ = percentile(&mut [], 50.0);
    }
}

//! The benchmark's one set of statistics helpers: median, quartiles and
//! a nearest-rank tail percentile that refuses to report a tail the
//! sample cannot support.

/// Minimum number of samples that must lie strictly beyond a tail
/// percentile before it is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Quartiles `(q1, median, q3)`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` does with its default "exclusive"
/// method (interpolation at rank `(len + 1) · i / 4`, which may
/// extrapolate past the extremes of a tiny sample). A single sample is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = (ld + 1) as i64;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The sample median.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Nearest-rank percentile `q` (in `0..=100`): the smallest sample with
/// at least `q`% of the sample at or below it. Returns `None` unless at
/// least [`MIN_BEYOND_TAIL`] samples lie strictly beyond that rank, so
/// a reported tail always rests on enough data.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    (v.len() - rank >= MIN_BEYOND_TAIL).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // Two samples extrapolate: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        assert_eq!(tail(&xs, 50.0), Some(500.0));
        assert_eq!(tail(&xs, 90.0), Some(900.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly 10 beyond rank 90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(90.0));
        // p99 of 100 samples leaves one: unsupported.
        assert_eq!(tail(&xs, 99.0), None);
        // 99 samples cannot support p90 (rank 90 leaves 9 beyond).
        assert_eq!(tail(&xs[..99], 90.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }
}

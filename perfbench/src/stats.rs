//! Order statistics for the reported metrics.

/// Fewest samples a reported percentile must have above it; a
/// percentile with fewer is noise and is refused.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for an even count).
///
/// # Panics
/// If `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples needed before percentile `p` has [`MIN_BEYOND`] above it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile_rank(n, p).is_some_and(|i| n - 1 - i >= MIN_BEYOND))
        .expect("some count qualifies for p < 100")
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn percentile_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).max(1) - 1)
}

/// Nearest-rank percentile `p` (0 ≤ p < 100) of `v`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let i = percentile_rank(v.len(), p)?;
    if v.len() - 1 - i < MIN_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[i])
}

/// The poll-latency samples an invocation reports, from `repeats`: one
/// vector per repeat of the same world, each timing the same polls in
/// order. When a repeat alone supports p90, each poll's latency is the
/// best of its repeats, so a burst of load from another tenant of the
/// host does not read as a slow poll; otherwise (too few polls per
/// repeat) the repeats are pooled.
pub fn poll_samples(repeats: &[Vec<f64>]) -> Vec<f64> {
    let polls = repeats.first().map_or(0, Vec::len);
    if polls >= samples_needed(90.0) && repeats.iter().all(|r| r.len() == polls) {
        (0..polls)
            .map(|i| repeats.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .collect()
    } else {
        repeats.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_samples_take_the_best_repeat_or_pool() {
        let a: Vec<f64> = (0..100).map(f64::from).collect();
        let b: Vec<f64> = (0..100)
            .map(|i| f64::from(i) + if i % 2 == 0 { 5.0 } else { -0.5 })
            .collect();
        let best = poll_samples(&[a.clone(), b]);
        assert_eq!(best.len(), 100);
        assert_eq!((best[0], best[1]), (0.0, 0.5));
        let short = vec![vec![1.0; 29], vec![2.0; 29]];
        assert_eq!(poll_samples(&short).len(), 58);
        assert_eq!(poll_samples(std::slice::from_ref(&a)), a);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), None, "p90 of 99 has 9 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0), "p90 of 100 has 10 beyond");
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn poll_train_of_366_supports_p90_not_p99() {
        let v: Vec<f64> = (0..366).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(329.0));
        assert_eq!(percentile(&v, 99.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

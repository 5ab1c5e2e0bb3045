//! Order statistics for reported figures: median, quartiles, and a tail
//! percentile that refuses to report a tail too thin to mean anything.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(first quartile, median, third quartile)` by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// the figures printed here match a spread computed from the JSON
/// output. One sample gives three equal values; `None` for no samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-th percentile by nearest rank, or, when fewer than
/// [`MIN_TAIL`] samples would lie beyond it, the highest percentile that
/// has that many beyond it. Returns the value and the percentile taken.
///
/// # Errors
///
/// Refuses when there are no more than [`MIN_TAIL`] samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<(f64, f64), String> {
    let n = xs.len();
    let rank = (((p / 100.0) * n as f64).ceil() as usize).min(n.saturating_sub(MIN_TAIL));
    nearest_rank(xs, rank).map(|v| (v, 100.0 * rank as f64 / n as f64))
}

/// The `rank`-th smallest sample, counting from 1.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL`] samples lie beyond the rank: such
/// a tail is one or two unlucky samples, not a property of the system.
fn nearest_rank(xs: &[f64], rank: usize) -> Result<f64, String> {
    let v = sorted(xs);
    let n = v.len();
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "rank {rank} of {n} samples has {beyond} beyond it; at least {MIN_TAIL} are needed"
        ));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let median = |xs: &[f64]| quartiles(xs).map(|(_, m, _)| m);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
    }

    #[test]
    fn a_rank_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 990), Ok(990.0));
        assert_eq!(nearest_rank(&xs, 500), Ok(500.0));
        let err = nearest_rank(&xs, 991).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(nearest_rank(&xs, 0).is_err());
        assert!(nearest_rank(&[], 1).is_err());
    }

    #[test]
    fn tail_percentile_falls_back_to_the_highest_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Ok((990.0, 99.0)));
        let short: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 99.0), Ok((190.0, 95.0)));
        assert!(tail_percentile(&[1.0; 10], 99.0).is_err());
        assert_eq!(tail_percentile(&[1.0; 11], 99.0).map(|(v, _)| v), Ok(1.0));
    }
}

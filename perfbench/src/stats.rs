//! Order statistics over a set of samples.
//!
//! The p-th percentile of `n` ascending samples is the sample at index
//! `floor(p * n)` (clamped to the last), the rule the repository's serving
//! bench uses for its latency percentiles; `n - 1 - floor(p * n)` samples
//! lie beyond it. Percentiles are given in per-mille so the index is
//! computed in integers.

/// The `permille / 1000` percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    sorted[index(sorted.len(), permille)]
}

/// 0-based index of the `permille` percentile among `n` samples.
fn index(n: usize, permille: u64) -> usize {
    ((permille * n as u64 / 1000) as usize).min(n - 1)
}

/// Median of unsorted samples (always a measured value, never an average).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

/// A tail percentile together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in per-mille (1000 = the maximum).
    pub permille: u64,
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The higher of p90 and p50 with at least [`MIN_BEYOND`] samples beyond
/// it; the maximum when even p50 has too few. Higher percentiles are left
/// out: the p99 of millisecond runs on a shared host is set by rare
/// preemptions and moves by a third between processes.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for permille in [900, 500] {
        let beyond = n - 1 - index(n, permille);
        if beyond >= MIN_BEYOND {
            return Tail {
                permille,
                value: percentile(sorted, permille),
                n,
                beyond,
            };
        }
    }
    Tail {
        permille: 1000,
        value: percentile(sorted, 1000),
        n,
        beyond: 0,
    }
}

/// The quiet part of a set of runs cut into consecutive windows: the runs
/// of the fastest windows (ranked by mean run time) that together hold at
/// least `min_runs` runs, or all runs when the set holds fewer, in
/// ascending order. The mean, unlike the median, ranks a window with a
/// few slowed runs behind one without, so slowed runs stay out of the
/// quiet part's tail.
pub fn quiet_runs(windows: &[Vec<f64>], min_runs: usize) -> Vec<f64> {
    let mut ranked: Vec<(f64, &Vec<f64>)> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| (w.iter().sum::<f64>() / w.len() as f64, w))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut quiet = Vec::new();
    for (_, w) in ranked {
        if quiet.len() >= min_runs {
            break;
        }
        quiet.extend_from_slice(w);
    }
    assert!(!quiet.is_empty(), "at least one run");
    quiet.sort_by(f64::total_cmp);
    quiet
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_take_the_floor_index() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 500), 51.0);
        assert_eq!(percentile(&s, 900), 91.0);
        assert_eq!(percentile(&s, 990), 100.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&s, 0), 1.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        // 1000 samples: p50 and p99 are indices 500 and 990.
        let s = ramp(1000);
        assert_eq!((percentile(&s, 500), percentile(&s, 990)), (501.0, 991.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 101 samples: p90 is index 90 with exactly 10 beyond.
        let t = tail(&ramp(101));
        assert_eq!((t.permille, t.value, t.n, t.beyond), (900, 91.0, 101, 10));
        // 100 samples: p90 has 9 beyond, so p50 it is.
        let t = tail(&ramp(100));
        assert_eq!((t.permille, t.beyond), (500, 49));
        // Nothing beyond p90 is reported, however many samples.
        let t = tail(&ramp(100_000));
        assert_eq!((t.permille, t.beyond), (900, 9_999));
        // Under 21 samples no percentile qualifies: report the maximum.
        let t = tail(&ramp(20));
        assert_eq!((t.permille, t.value, t.beyond), (1000, 20.0, 0));
        assert_eq!(tail(&ramp(21)).permille, 500);
    }

    #[test]
    fn quiet_runs_rank_windows_by_mean() {
        let w = vec![
            vec![5.0, 5.0, 5.0],
            vec![3.0, 1.0, 2.0],
            // Fastest by median, slowest by mean.
            vec![1.0, 1.0, 50.0],
            vec![],
        ];
        assert_eq!(quiet_runs(&w, 4), vec![1.0, 2.0, 3.0, 5.0, 5.0, 5.0]);
        // Asking for more runs than the set holds takes every run.
        assert_eq!(quiet_runs(&w, 100).len(), 9);
        assert_eq!(quiet_runs(&w, 1), vec![1.0, 2.0, 3.0]);
    }
}

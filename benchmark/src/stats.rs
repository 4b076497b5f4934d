//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, and the quiet decile over equal-count windows.

/// Nearest-rank percentile of unsorted samples: the `ceil(q * n)`-th
/// smallest. Returns 0 for no samples.
pub fn percentile_of(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median: the middle value, or the mean of the two middle values.
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Splits `len` items into `windows` contiguous ranges whose sizes differ
/// by at most one (fewer ranges when there are fewer items than windows).
pub fn window_ranges(len: usize, windows: usize) -> Vec<std::ops::Range<usize>> {
    let windows = windows.min(len).max(1);
    (0..windows).map(|w| (w * len / windows)..((w + 1) * len / windows)).collect()
}

/// Nearest-rank quantile of unsorted values; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which share of a run's windows stands for the run: the quiet decile. On
/// a shared host interference only ever takes time away from the program,
/// never gives it any, and it comes in bursts shorter than a tenth of a
/// second as well as in spells of minutes. The quiet tenth of many small
/// windows is the part that measures the code: on the sizing host the best
/// of 10 ms windows of a fixed spin loop repeats within 5 % while their
/// median wanders by 34 %. So: the lower decile of window times, the upper
/// decile of window rates. A change to the code moves every window, so it
/// still shows.
const QUIET_SHARE: f64 = 0.10;

/// The upper decile of the rates measured per window.
pub fn quiet_rate_of(window_rates: &[f64]) -> f64 {
    quantile(window_rates, 1.0 - QUIET_SHARE)
}

/// The lower decile of the times (or costs) measured per window.
pub fn quiet_time_of(window_times: &[f64]) -> f64 {
    quantile(window_times, QUIET_SHARE)
}

/// A latency percentile over windows of about `per_window` samples kept in
/// arrival order (at most `MAX_WINDOWS` of them), as the lower decile of
/// the windows' own percentiles.
pub fn quiet_percentile(samples: &[u64], per_window: usize, q: f64) -> f64 {
    const MAX_WINDOWS: usize = 256;
    let windows = (samples.len() / per_window.max(1)).clamp(1, MAX_WINDOWS);
    let per_window: Vec<f64> = window_ranges(samples.len(), windows)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|range| percentile_of(&samples[range], q) as f64)
        .collect();
    quiet_time_of(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile_of(&samples, 0.50), 5);
        assert_eq!(percentile_of(&samples, 0.95), 10);
        assert_eq!(percentile_of(&samples, 0.90), 9);
        assert_eq!(percentile_of(&samples, 0.0), 1);
        assert_eq!(percentile_of(&samples, 1.0), 10);
        assert_eq!(percentile_of(&[], 0.5), 0);
        assert_eq!(percentile_of(&[7], 0.95), 7);
        assert_eq!(percentile_of(&[9, 1, 5], 0.5), 5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_cover_every_item_once() {
        let ranges = window_ranges(20, 6);
        assert_eq!(ranges.len(), 6);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[5].end, 20);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() == 3 || r.len() == 4));
        assert_eq!(window_ranges(2, 6).len(), 2);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.25), 1.0);
        assert_eq!(quantile(&values, 0.75), 3.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_quiet_decile_ignores_stalled_windows() {
        // Most windows stall: neither side's quiet decile sees them.
        assert_eq!(quiet_rate_of(&[0.2, 0.1, 1.0, 0.3]), 1.0);
        assert_eq!(quiet_time_of(&[50.0, 90.0, 6.0, 70.0]), 6.0);
        // With twenty windows it is the second best, not the very best.
        let times: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_time_of(&times), 2.0);
        assert_eq!(quiet_rate_of(&times), 18.0);
    }

    #[test]
    fn quiet_percentile_is_the_lower_decile_of_window_percentiles() {
        // Four windows of three samples with maxima 3, 100, 8, 9.
        let samples = [1, 2, 3, 100, 4, 5, 6, 7, 8, 9, 9, 9];
        assert_eq!(quiet_percentile(&samples, 3, 1.0), 3.0);
        // Too few samples for two windows: the plain percentile.
        assert_eq!(quiet_percentile(&samples, 100, 1.0), 100.0);
        assert_eq!(quiet_percentile(&[], 3, 0.5), 0.0);
    }
}

//! Order statistics and failure counting for the benchmark's reports.

/// Median of `values` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples are strictly above the percentile's rank.
    pub beyond: usize,
    /// How many samples there were in all.
    pub samples: usize,
}

/// Choose the tail of `values`: the highest ladder percentile whose
/// nearest-rank position leaves at least [`TAIL_BEYOND`] samples after
/// it. With too few samples for even the median to qualify, the median
/// is reported with the (smaller) count that lies beyond it.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    let at = |percentile: f64| {
        // Nearest rank: the smallest rank covering `percentile`% of samples
        // (the epsilon keeps 99.9% of 10 000 from rounding up past 9 990).
        let covered = (percentile * n as f64 / 100.0 - 1e-9).ceil() as usize;
        let rank = covered.clamp(1, n.max(1)) - 1;
        Tail {
            percentile,
            value: sorted.get(rank).copied().unwrap_or(0.0),
            beyond: n.saturating_sub(rank + 1),
            samples: n,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// The median over windows of each window's largest sample. A stall of
/// the host raises the maxima of the windows it covers only, while a
/// slower system raises every window.
pub fn median_window_max(windows: &[Vec<f64>]) -> f64 {
    let maxima: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| w.iter().copied().fold(f64::MIN, f64::max))
        .collect();
    median(&maxima)
}

/// Operations attempted and failed, gates included.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness gates that failed (also counted in `failed`).
    pub gates_failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Count one correctness gate, reporting a failure on stderr.
    pub fn gate(&mut self, name: &str, ok: bool) -> bool {
        if !self.op(ok) {
            self.gates_failed += 1;
            eprintln!("perfbench: correctness gate failed: {name}");
        }
        ok
    }

    /// Share of attempted operations that succeeded (`1.0` when nothing
    /// was attempted).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Whether every correctness gate passed.
    pub fn correct(&self) -> bool {
        self.gates_failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1..=1000: p99 is rank 990 (value 990) with 10 samples beyond;
        // p99.9 would leave only 1.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);

        // 10_000 samples reach p99.9 (rank 9990, 10 beyond).
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&values).percentile, 99.9);

        // 100 samples: p90 is value 90 with 10 beyond; p95 leaves 5.
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let values: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 8.0);
        assert_eq!(t.beyond, 7);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn window_maxima_shrug_off_a_stalled_window() {
        // Three windows peaking at 100, one of which stalled; empty
        // windows are skipped.
        let calm: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled[40] = 5000.0;
        let windows = [calm.clone(), stalled, calm, Vec::new()];
        assert_eq!(median_window_max(&windows), 100.0);
        assert_eq!(median_window_max(&[]), 0.0);
    }

    #[test]
    fn tally_counts_failures_and_gates() {
        let mut tally = Tally::default();
        assert_eq!(tally.success_rate(), 1.0);
        tally.op(true);
        tally.op(true);
        tally.op(false);
        assert!(tally.correct());
        tally.gate("demo", true);
        assert!(tally.correct());
        tally.gate("demo", false);
        assert_eq!(
            (tally.attempted, tally.failed, tally.gates_failed),
            (5, 2, 1)
        );
        assert!(!tally.correct());
        assert!((tally.success_rate() - 0.6).abs() < 1e-12);
    }
}

//! Order statistics and outcome counting.

/// The value at percentile `p` (0–100) of `sorted`, by nearest rank.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    // The tolerance keeps p99.9 of 10 000 samples at rank 9990, not 9991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest of `candidates` that leaves at least ten of `n` samples
/// beyond it, the tail a sample of this size can support.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && samples_beyond(n, p) >= 10)
        .max_by(f64::total_cmp)
}

/// Sorts a copy of the samples.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// What became of one attempted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the expected output.
    Ok,
    /// Completed, but the output differs from the oracle.
    Mismatch,
    /// Refused with `Busy`.
    Busy,
    /// Refused with `TimedOut`.
    TimedOut,
    /// Any other error, or no reply at all.
    Error,
}

/// Operations attempted and how they ended. Everything but [`Outcome::Ok`]
/// is a failure, refusals included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end [`Outcome::Ok`].
    pub failed: u64,
    /// Failures whose output differed from the oracle.
    pub mismatched: u64,
    /// Failures refused with `Busy`.
    pub busy: u64,
    /// Failures refused with `TimedOut`.
    pub timed_out: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
        match outcome {
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Busy => self.busy += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Ok | Outcome::Error => {}
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.busy += other.busy;
        self.timed_out += other.timed_out;
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let ps = [50.0, 90.0, 95.0, 99.0, 99.9];
        // 1000 samples: p99 sits at rank 990, leaving 10 beyond; p99.9 leaves 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000, &ps), Some(99.0));
        // 999 samples leave only 9 beyond p99, so p95 is the highest.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999, &ps), Some(95.0));
        assert_eq!(highest_supported(10_000, &ps), Some(99.9));
        assert_eq!(highest_supported(15, &ps), None);
        assert_eq!(highest_supported(0, &ps), None);
    }

    #[test]
    fn refused_requests_count_as_failed() {
        let mut t = Tally::default();
        for o in [Outcome::Ok, Outcome::Busy, Outcome::TimedOut, Outcome::Mismatch, Outcome::Error]
        {
            t.add(o);
        }
        t.add(Outcome::Ok);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.failed, 4);
        assert_eq!((t.busy, t.timed_out, t.mismatched), (1, 1, 1));
        assert!((t.ok_share() - 2.0 / 6.0).abs() < 1e-12);
    }
}

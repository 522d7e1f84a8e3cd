//! Small statistics shared by the benchmark: nearest-rank percentiles,
//! medians, the failed-transaction tally and the behaviour fingerprint.

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `⌈p/100 · n⌉` (clamped to `[1, n]`). An empty sample reads `empty`, so a
/// run that commits nothing reports a caller-chosen ceiling (the virtual
/// horizon) and committing anything can only lower it.
pub fn nearest_rank(sorted: &[u64], p: f64, empty: u64) -> u64 {
    if sorted.is_empty() {
        return empty;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of host measurements (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Transaction outcomes of one measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Decided commit inside the window.
    pub committed: u64,
    /// Decided abort inside the window, any cause.
    pub aborted: u64,
    /// Begun but undecided when the window closed.
    pub undecided: u64,
}

impl Tally {
    /// Decided in the window plus undecided at its end.
    pub fn attempted(&self) -> u64 {
        self.committed + self.aborted + self.undecided
    }

    /// Aborted for any cause plus undecided. A run that failed its
    /// correctness check counts every attempted transaction as failed.
    pub fn failed(&self, correct: bool) -> u64 {
        if correct {
            self.aborted + self.undecided
        } else {
            self.attempted()
        }
    }

    /// `failed ÷ attempted` (0 for an empty window).
    pub fn fail_ratio(&self, correct: bool) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed(correct) as f64 / n as f64,
        }
    }

    /// Adds another window's outcomes (the library workload sums points).
    pub fn add(&mut self, other: Tally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.undecided += other.undecided;
    }
}

/// FNV-1a over a stream of `u64`s: a stable hash of a run's virtual
/// behaviour (independent of the Rust version and of the process, unlike
/// the standard library's hasher).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0, 0), 50);
        assert_eq!(nearest_rank(&v, 99.0, 0), 99);
        assert_eq!(nearest_rank(&v, 100.0, 0), 100);
        assert_eq!(nearest_rank(&v, 0.0, 0), 1);
        // 3 samples: p50 is rank ⌈1.5⌉ = 2, p99 is rank 3.
        assert_eq!(nearest_rank(&[10, 20, 30], 50.0, 0), 20);
        assert_eq!(nearest_rank(&[10, 20, 30], 99.0, 0), 30);
        // 101 samples: p99 is rank ⌈99.99⌉ = 100, not the maximum.
        let w: Vec<u64> = (1..=101).collect();
        assert_eq!(nearest_rank(&w, 99.0, 0), 100);
        assert_eq!(nearest_rank(&[7], 50.0, 0), 7);
    }

    #[test]
    fn zero_commits_read_the_ceiling() {
        assert_eq!(nearest_rank(&[], 50.0, 4_000), 4_000);
        assert_eq!(nearest_rank(&[], 99.0, 4_000), 4_000);
        // Any commit lowers it.
        assert!(nearest_rank(&[3_999], 99.0, 4_000) < 4_000);
    }

    #[test]
    fn fail_ratio_counts_aborts_and_undecided() {
        let t = Tally {
            committed: 60,
            aborted: 30,
            undecided: 10,
        };
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.failed(true), 40);
        assert!((t.fail_ratio(true) - 0.4).abs() < 1e-12);
        // A run that fails its correctness check fails everything.
        assert_eq!(t.failed(false), 100);
        assert_eq!(t.fail_ratio(false), 1.0);
        assert_eq!(Tally::default().fail_ratio(true), 0.0);
        let mut sum = t;
        sum.add(Tally {
            committed: 0,
            aborted: 0,
            undecided: 5,
        });
        assert_eq!((sum.attempted(), sum.failed(true)), (105, 45));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }
}

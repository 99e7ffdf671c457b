//! The benchmark's own statistics: nearest-rank percentiles, the tail
//! percentile rule, and failure counting.

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending slice: the
/// smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest of the reported percentiles (p99.9, p99, p90, p50) that
/// has at least ten samples beyond it, or `None` when not even the
/// median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5].into_iter().find(|&q| samples_beyond(n, q) >= 10)
}

/// The fewest samples that leave ten beyond percentile `q`, so that `q`
/// passes the tail rule (1,000 for p99).
pub fn min_samples_for(q: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, q) >= 10).expect("some count leaves ten beyond")
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Attempted and failed operations. A failure is a non-2xx response, an
/// I/O error, a partial answer, or a correctness mismatch; each
/// operation counts once however many of these it hit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub examples: Vec<String>,
}

impl Tally {
    /// Count one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(why.into());
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond it; 999 leaves 9.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn error_rate_counts_each_operation_once() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        t.fail("500");
        t.ok();
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
        let mut other = Tally::default();
        other.fail("score differs");
        other.ok();
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (6, 2));
        assert_eq!(t.examples, vec!["500".to_string(), "score differs".to_string()]);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}

//! Streaming mean.

/// Streaming mean over `f64` samples, updated with Welford's numerically
/// stable online step.
///
/// # Examples
///
/// ```
/// use stacksim_stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// assert_eq!(s.mean(), None);
/// for v in [1.0, 2.0, 3.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), Some(2.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        assert_eq!(RunningStats::new().mean(), None);
    }

    #[test]
    fn matches_batch_computation() {
        let vals: Vec<f64> = (0..100).map(|i| (i as f64 * 0.731).sin() + 2.0).collect();
        let mut s = RunningStats::new();
        for &v in &vals {
            s.record(v);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
    }
}

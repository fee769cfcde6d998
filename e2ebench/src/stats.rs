//! The statistics the benchmark prints, and the latency stamping rule.

use std::time::Instant;

use crate::clock::Timeline;

/// Samples a percentile must leave beyond it before it is reported as
/// resolved.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small guard keeps `p = 100·k/n` from rounding up past rank `k`.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`; `None` when
/// there are none. Sorts a copy.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether percentile `p` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples strictly beyond its nearest rank.
pub fn tail_supported(p: f64, n: usize) -> bool {
    n >= rank(p, n) + MIN_TAIL_SAMPLES
}

/// The highest percentile of `n` samples that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, in percent; `None` when
/// `n ≤ MIN_TAIL_SAMPLES`.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > MIN_TAIL_SAMPLES).then(|| 100.0 * (n - MIN_TAIL_SAMPLES) as f64 / n as f64)
}

/// Closed-loop latency book-keeping: a request's clock starts when its
/// `submit` (or library call) starts and stops when the call that made the
/// answer visible to the caller *returns*. For the fleet that is the end of
/// the `run_round` that served it: an answer produced early in a round is
/// still invisible until the round hands control back. The book keeps wall
/// instants; a [`Timeline`] turns them into reference time at the end.
#[derive(Debug, Default)]
pub struct LatencyBook {
    spans: Vec<(Instant, Instant)>,
}

impl LatencyBook {
    /// Stamps every answer made visible by a call that returned at
    /// `visible_at`, given each answer's start instant.
    pub fn stamp(&mut self, visible_at: Instant, starts: impl IntoIterator<Item = Instant>) {
        self.spans
            .extend(starts.into_iter().map(|start| (start, visible_at)));
    }

    /// The latency samples in reference milliseconds.
    pub fn samples_ms(&self, timeline: &Timeline) -> Vec<f64> {
        self.spans
            .iter()
            .map(|&(start, end)| timeline.seconds(start, end) * 1e3)
            .collect()
    }

    /// The latency samples in wall milliseconds.
    pub fn wall_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .map(|&(start, end)| end.saturating_duration_since(start).as_nanos() as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(100.0));
        assert_eq!(percentile(&s, 95.0), Some(190.0));
        assert_eq!(percentile(&s, 100.0), Some(200.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 0.1), Some(7.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p95 of 200 samples has rank 190 and exactly 10 beyond it.
        assert!(tail_supported(95.0, 200));
        assert!(!tail_supported(95.0, 199));
        assert!(tail_supported(50.0, 20));
        assert!(!tail_supported(50.0, 19));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(10), None);
        for n in 11..500 {
            let p = highest_supported_percentile(n).unwrap();
            assert!(tail_supported(p, n), "n={n} p={p}");
        }
    }

    #[test]
    fn latency_stops_when_the_round_returns() {
        use crate::clock::HostClock;
        use std::time::Duration;

        let t0 = Instant::now();
        let submitted = [t0, t0 + Duration::from_millis(4)];
        // Both answers were produced somewhere inside a round that
        // returned at t0 + 10 ms: both are stamped at the return.
        let mut book = LatencyBook::default();
        book.stamp(t0 + Duration::from_millis(10), submitted);
        assert_eq!(book.wall_ms(), vec![10.0, 6.0]);
        // With no kernel samples, reference time is wall time.
        assert_eq!(
            book.samples_ms(&HostClock::new(1).timeline()),
            vec![10.0, 6.0]
        );
    }
}

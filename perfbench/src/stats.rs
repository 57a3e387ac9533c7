//! Statistics over raw samples: medians, nearest-rank percentiles, the
//! tail percentile with at least ten samples beyond it, due-time latency
//! and failure accounting. Every figure is computed from the raw samples,
//! never from a bucketed histogram.

use std::time::{Duration, Instant};

/// Samples that must lie strictly above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank, p50); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest nearest-rank percentile that leaves at least
/// [`TAIL_BEYOND`] samples above it: `(percentile, value)`. `None` when
/// there are too few samples for any such percentile.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    // Rank r (1-based) leaves n - r samples beyond it.
    let rank = n - TAIL_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    Some((pct, sorted[rank - 1]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One request of an open-loop schedule: when it was due, when the
/// generator actually sent it, and when its response completed.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said the request should be sent.
    pub due: Instant,
    /// When the generator sent it.
    pub sent: Instant,
    /// When its response was fully read (or the request failed).
    pub done: Instant,
}

impl Timing {
    /// Latency charged to the request: from its due time, so a stall in
    /// the generator or the server is charged to every request it
    /// delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, and its output matched the reference.
    Ok,
    /// The program returned an error or the connection failed.
    Error,
    /// The request timed out.
    Timeout,
    /// The server answered with a non-2xx status (503 sheds included).
    Status(u16),
    /// The output's digest differs from the reference.
    Mismatch,
}

impl Outcome {
    /// Whether the operation counts as failed.
    pub fn failed(self) -> bool {
        self != Outcome::Ok
    }
}

/// Attempted and failed operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, for any reason.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome.failed() {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted; 0 when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
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

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: helpers must not rely on input order.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11, 12, 20, 37, 100, 1000] {
            let samples = ramp(n);
            let (pct, value) = tail(&samples).expect("enough samples");
            let beyond = samples.iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(value, (n - TAIL_BEYOND) as f64, "n = {n}");
            assert!((pct - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-9);
        }
        let (pct, _) = tail(&ramp(1000)).expect("enough samples");
        assert_eq!(pct, 99.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(11)), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn percentiles_use_nearest_rank_on_raw_samples() {
        let samples = ramp(200);
        assert_eq!(median(&samples), 100.0);
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 99.0), 198.0);
        assert_eq!(percentile(&samples, 100.0), 200.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let due = Instant::now();
        let stalled = Timing {
            due,
            sent: due + Duration::from_millis(40),
            done: due + Duration::from_millis(45),
        };
        assert_eq!(stalled.latency(), Duration::from_millis(45));
        assert_eq!(stalled.lateness(), Duration::from_millis(40));
        let on_time = Timing {
            due,
            sent: due,
            done: due + Duration::from_millis(5),
        };
        assert_eq!(on_time.latency(), Duration::from_millis(5));
        assert_eq!(on_time.lateness(), Duration::ZERO);
        // A request sent early (clock granularity) is never negative.
        let early = Timing {
            due: due + Duration::from_millis(1),
            sent: due,
            done: due,
        };
        assert_eq!(early.latency(), Duration::ZERO);
    }

    #[test]
    fn failed_share_counts_every_kind_of_failure() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Error,
            Outcome::Timeout,
            Outcome::Status(503),
            Outcome::Status(404),
            Outcome::Mismatch,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert_eq!(t.failed_share(), 5.0 / 8.0);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}

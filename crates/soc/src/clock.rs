//! The simulation clock: tick counts, wall-clock times and normalized
//! times of a fixed-duration run.
//!
//! [`crate::engine::Engine::run`] derives every tick it executes and every
//! normalized time it samples a workload at from a [`SimClock`], so the
//! two domain guarantees below hold in one place.

use crate::TICK_SECONDS;

/// The largest normalized time the engine ever samples a workload at:
/// the greatest `f64` strictly below 1.0, keeping every sampled time
/// inside the documented `t_norm ∈ [0, 1)` domain of
/// [`crate::workload::Workload::demand_at`] even when the tick count was
/// rounded up.
pub const MAX_T_NORM: f64 = 1.0 - f64::EPSILON / 2.0;

/// A tick-granular simulation clock over a fixed-duration run.
///
/// The engine derives tick counts, wall-clock times and normalized times
/// from here, including the two domain guarantees:
///
/// * any *positive* duration executes at least one tick, even when it is
///   shorter than half a tick (the naive `round()` would yield zero and
///   silently contradict the "non-positive duration ⇒ empty trace"
///   contract);
/// * every sampled normalized time stays strictly below 1.0
///   ([`MAX_T_NORM`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    duration_seconds: f64,
    ticks: u64,
}

impl SimClock {
    /// Build a clock for a run of the given duration. Non-positive (or
    /// NaN) durations yield a zero-tick clock; positive durations yield
    /// `round(duration / TICK_SECONDS)` ticks, floored at one.
    pub fn for_duration(duration_seconds: f64) -> Self {
        let ticks = if duration_seconds > 0.0 {
            ((duration_seconds / TICK_SECONDS).round() as u64).max(1)
        } else {
            0
        };
        SimClock {
            duration_seconds,
            ticks,
        }
    }

    /// Number of ticks the run executes.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The run duration this clock was built for, in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_seconds
    }

    /// Wall-clock time of a tick, in seconds.
    pub fn time_s(&self, tick: u64) -> f64 {
        tick as f64 * TICK_SECONDS
    }

    /// Normalized time of a tick, clamped into the `[0, 1)` domain of
    /// [`crate::workload::Workload::demand_at`].
    pub fn t_norm(&self, tick: u64) -> f64 {
        (self.time_s(tick) / self.duration_seconds).min(MAX_T_NORM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_duration_executes_at_least_one_tick() {
        // Shorter than half a tick: round() alone would yield zero.
        let c = SimClock::for_duration(TICK_SECONDS / 4.0);
        assert_eq!(c.ticks(), 1);
        let c = SimClock::for_duration(1e-9);
        assert_eq!(c.ticks(), 1);
    }

    #[test]
    fn non_positive_duration_has_no_ticks() {
        assert_eq!(SimClock::for_duration(0.0).ticks(), 0);
        assert_eq!(SimClock::for_duration(-3.0).ticks(), 0);
        assert_eq!(SimClock::for_duration(f64::NAN).ticks(), 0);
    }

    #[test]
    fn ordinary_durations_round_to_nearest_tick() {
        assert_eq!(SimClock::for_duration(5.0).ticks(), 50);
        assert_eq!(SimClock::for_duration(5.04).ticks(), 50);
        assert_eq!(SimClock::for_duration(5.06).ticks(), 51);
    }

    #[test]
    fn t_norm_stays_in_domain() {
        for duration in [1e-6, 0.04, 0.06, 0.14999, 1.0, 3.337, 120.0] {
            let c = SimClock::for_duration(duration);
            assert!(c.ticks() >= 1);
            for tick in 0..c.ticks() {
                let tn = c.t_norm(tick);
                assert!(
                    (0.0..1.0).contains(&tn),
                    "t_norm {tn} out of [0, 1) for duration {duration}, tick {tick}"
                );
            }
        }
    }

    #[test]
    fn max_t_norm_is_strictly_below_one() {
        let max = MAX_T_NORM;
        assert!(max < 1.0);
        // The very next representable value is 1.0: the clamp loses the
        // least resolution possible.
        assert_eq!(f64::from_bits(max.to_bits() + 1), 1.0);
    }
}

//! Seeded open-loop arrival schedules.
//!
//! A schedule is a pure function of `(seed, rate, horizon)`: the
//! arrivals of a Poisson process of the given rate, conditioned on
//! their count being exactly `rate · horizon`. Given its count, a
//! Poisson process's arrival times are independent uniform draws over
//! the horizon, so the schedule is those draws, sorted. Fixing the
//! count keeps the offered load the same on every seed, so run-to-run
//! differences come from the system, not from a lighter or heavier draw.

use std::time::Duration;
use uic_util::UicRng;

/// Due times (offsets from the phase start, ascending, all below
/// `horizon`) of `round(rate_per_s · horizon)` Poisson arrivals.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut rng = UicRng::new(seed);
    let count = (rate_per_s * horizon.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..count)
        .map(|_| horizon.mul_f64(rng.next_f64()))
        .collect();
    due.sort_unstable();
    due
}

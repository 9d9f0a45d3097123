//! Self-tests of the benchmark harness: percentiles and the tail rule,
//! the seeded schedule, due-time latency accounting, miss counting, and
//! the result line's round trip.

use std::time::Duration;
use uic_perfbench::load::{closed_loop, open_loop, Record, Status, Summary, VirtualClock};
use uic_perfbench::report::{Metric, Outcome};
use uic_perfbench::sched::poisson_schedule;
use uic_perfbench::stats::{
    beyond, highest_supported, median, nearest_rank, percentile, MIN_BEYOND,
};

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

#[test]
fn nearest_rank_percentiles_are_samples() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(50.0, 10), 5);
    assert_eq!(percentile(&xs, 50.0), 5.0);
    assert_eq!(percentile(&xs, 90.0), 9.0);
    assert_eq!(percentile(&xs, 91.0), 10.0);
    assert_eq!(percentile(&xs, 100.0), 10.0);
    assert_eq!(percentile(&xs, 0.0), 1.0);
    // Order of the input does not matter.
    let shuffled = [7.0, 2.0, 9.0, 1.0, 10.0, 4.0, 3.0, 8.0, 5.0, 6.0];
    assert_eq!(percentile(&shuffled, 50.0), 5.0);
    assert_eq!(median(&[3.0]), 3.0);
}

#[test]
fn tail_rule_needs_ten_samples_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
    assert_eq!(beyond(99.0, 1000), 10);
    assert_eq!(highest_supported(1000), Some(99.0));
    assert_eq!(highest_supported(999), Some(90.0));
    // p90 of 100 samples: rank 90, 10 beyond.
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(99), Some(75.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(0), None);
}

#[test]
fn poisson_schedule_is_a_function_of_the_seed() {
    let a = poisson_schedule(7, 50.0, Duration::from_secs(20));
    let b = poisson_schedule(7, 50.0, Duration::from_secs(20));
    let c = poisson_schedule(8, 50.0, Duration::from_secs(20));
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
    assert!(a.iter().all(|&t| t < Duration::from_secs(20)));
    // Exactly rate × horizon arrivals, whatever the seed.
    assert_eq!(a.len(), 1000);
    assert_eq!(c.len(), 1000);
    // Poisson gaps: mean 1/rate, and about as many gaps below the mean
    // as an exponential law puts there (1 - 1/e of them).
    let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!((mean - 0.02).abs() < 0.002, "mean gap {mean}");
    let short = gaps.iter().filter(|&&g| g < mean).count() as f64 / gaps.len() as f64;
    assert!(
        (short - 0.632).abs() < 0.05,
        "{short} of gaps below the mean"
    );
}

#[test]
fn a_stall_charges_its_delay_to_the_requests_queued_behind_it() {
    let clock = VirtualClock::default();
    let due = [ms(0), ms(10), ms(20), ms(30), ms(100)];
    // Request 1 stalls for 25 ms; the rest take 1 ms.
    let service = [ms(1), ms(25), ms(1), ms(1), ms(1)];
    let records = open_loop(&clock, 0, &due, |j| {
        clock.advance(service[j]);
        (Status::Ok, String::new())
    });
    let latency: Vec<Duration> = records.iter().map(Record::latency).collect();
    // Request 2 was due at 20 but could only go at 35 (when 1 ended).
    assert_eq!(latency, [ms(1), ms(25), ms(16), ms(7), ms(1)]);
    let sends: Vec<Duration> = records.iter().map(|r| r.send).collect();
    assert_eq!(sends, [ms(0), ms(10), ms(35), ms(36), ms(100)]);
    // The generator itself was never late: every send happened as soon
    // as the request was due and the connection was free.
    let s = Summary::of(&records);
    assert!(s.gen_late_ms.iter().all(|&l| l == 0.0));
    assert_eq!(s.latency_p(50.0), 7.0);
    assert_eq!(s.latency_p(100.0), 25.0);
}

#[test]
fn closed_loop_requests_are_due_when_the_previous_answer_arrives() {
    let clock = VirtualClock::default();
    let records = closed_loop(&clock, 0, ms(10), 1, 4, |_| {
        clock.advance(ms(3));
        (Status::Ok, String::new())
    });
    // 3 ms each: past the 10 ms horizon after 4 requests, a whole round.
    assert_eq!(records.len(), 4);
    assert!(records.iter().all(|r| r.latency() == ms(3)));
    assert_eq!(records[2].due, ms(6));
    let s = Summary::of(&records);
    assert!((s.throughput_rps - 4.0 / 0.012).abs() < 1e-9);
}

#[test]
fn refusals_and_failures_count_as_misses() {
    let clock = VirtualClock::default();
    let outcome = [Status::Ok, Status::Refused, Status::Ok, Status::Failed];
    let due = [ms(0), ms(10), ms(20), ms(30)];
    let records = open_loop(&clock, 0, &due, |j| {
        clock.advance(ms(1));
        (outcome[j], String::new())
    });
    let s = Summary::of(&records);
    assert_eq!((s.attempted, s.ok, s.refused, s.failed), (4, 2, 1, 1));
    assert_eq!(s.error_frac(), 0.5);
    // A fast refusal is still a miss: it sorts beyond every success.
    assert_eq!(s.latency_p(50.0), 1.0);
    assert!(s.latency_p(75.0).is_infinite());
    // Only OK answers count as throughput.
    assert!((s.throughput_rps - 2.0 / 0.031).abs() < 1e-9);
}

#[test]
fn result_line_parses_back_to_the_same_metrics() {
    let out = Outcome {
        correct: true,
        attempted: 1234,
        failed: 0,
        metrics: vec![
            Metric {
                name: "setup_s".into(),
                value: 2.182847919,
                unit: "s".into(),
            },
            Metric {
                name: "latency_p50_ms".into(),
                value: 0.1 + 0.2,
                unit: "ms".into(),
            },
            Metric {
                name: "rrset.sets".into(),
                value: 161054.0,
                unit: "count".into(),
            },
            Metric {
                name: "throughput_rps".into(),
                value: 16.372281744034524,
                unit: "1/s".into(),
            },
        ],
    };
    let line = out.to_json();
    assert!(!line.contains('\n'));
    assert_eq!(Outcome::parse(&line).expect("parses"), out);
}

//! Load generation: open- and closed-loop drivers over one connection,
//! and the summary that turns their records into end-to-end metrics.
//!
//! Every request is timed from its **due** time, not from when it was
//! actually sent: on a blocking connection a request that arrives while
//! an earlier one is still in service waits, and that wait is part of
//! the latency its user sees. How late the generator itself ran (the
//! send time past the later of the due time and the connection being
//! free) is reported separately as `gen_late`.
//!
//! The drivers take a [`Clock`], so the accounting is testable on a
//! virtual clock without sockets.

use crate::stats;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Time since the start of a measured phase.
pub trait Clock: Sync {
    /// The current offset from the phase start.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&self, t: Duration);
}

/// The real clock of a measured phase.
///
/// Waiting for a due time polls with `yield_now` instead of sleeping.
/// On a virtual machine a sleeping generator lets its virtual CPU halt,
/// and waking a halted CPU costs tens to hundreds of microseconds that
/// vary with the host's load; a polling generator keeps the CPU awake,
/// so a request's latency is the program's, not the host's wake-up.
/// Yielding hands the CPU to any runnable thread, so the poll takes no
/// time from the server.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// A clock that only moves when told to: `sleep_until` jumps forward
/// and [`VirtualClock::advance`] stands in for service time.
#[derive(Default)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        *self.now.lock().expect("virtual clock lock") += d;
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *self.now.lock().expect("virtual clock lock")
    }

    fn sleep_until(&self, t: Duration) {
        let mut now = self.now.lock().expect("virtual clock lock");
        *now = (*now).max(t);
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An OK frame.
    Ok,
    /// A typed error frame: a refusal or a failed solve.
    Refused,
    /// The transport failed; no answer arrived.
    Failed,
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Connection (generator thread) index.
    pub conn: usize,
    /// Position in that connection's request sequence.
    pub seq: usize,
    /// When the request was due.
    pub due: Duration,
    /// When it was sent.
    pub send: Duration,
    /// When its answer (or failure) arrived.
    pub done: Duration,
    /// How it ended.
    pub status: Status,
    /// The answer's payload (empty on transport failure).
    pub payload: String,
}

impl Record {
    /// Latency from the due time.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// Round trip on the wire (send to answer).
    pub fn rtt(&self) -> Duration {
        self.done - self.send
    }
}

/// Open loop: sends request `j` at `due[j]`, or as soon as the
/// connection is free when an earlier answer is still outstanding.
pub fn open_loop<C: Clock>(
    clock: &C,
    conn: usize,
    due: &[Duration],
    mut call: impl FnMut(usize) -> (Status, String),
) -> Vec<Record> {
    let mut out = Vec::with_capacity(due.len());
    for (seq, &d) in due.iter().enumerate() {
        clock.sleep_until(d);
        let send = clock.now();
        let (status, payload) = call(seq);
        out.push(Record {
            conn,
            seq,
            due: d,
            send,
            done: clock.now(),
            status,
            payload,
        });
    }
    out
}

/// Closed loop: each request is due when the previous answer arrives.
/// Runs until `horizon` has passed, at least `min_requests` were made,
/// and the count is a whole number of `round`s.
pub fn closed_loop<C: Clock>(
    clock: &C,
    conn: usize,
    horizon: Duration,
    min_requests: usize,
    round: usize,
    mut call: impl FnMut(usize) -> (Status, String),
) -> Vec<Record> {
    let mut out = Vec::new();
    let mut due = clock.now();
    while due < horizon || out.len() < min_requests || out.len() % round != 0 {
        let seq = out.len();
        let send = clock.now();
        let (status, payload) = call(seq);
        let done = clock.now();
        out.push(Record {
            conn,
            seq,
            due,
            send,
            done,
            status,
            payload,
        });
        due = done;
    }
    out
}

/// End-to-end figures of one phase.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests answered OK.
    pub ok: usize,
    /// Typed error answers (refusals, failed solves).
    pub refused: usize,
    /// Transport failures.
    pub failed: usize,
    /// Latencies in ms, ascending; a miss (refusal or failure) is `+∞`.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent, in ms, ascending.
    pub gen_late_ms: Vec<f64>,
    /// OK answers per second of phase wall time.
    pub throughput_rps: f64,
}

impl Summary {
    /// Summarizes the records of every connection of one phase.
    pub fn of(records: &[Record]) -> Summary {
        assert!(!records.is_empty(), "a phase makes at least one request");
        let count = |s: Status| records.iter().filter(|r| r.status == s).count();
        let latency: Vec<f64> = records
            .iter()
            .map(|r| match r.status {
                Status::Ok => ms(r.latency()),
                Status::Refused | Status::Failed => f64::INFINITY,
            })
            .collect();
        let mut gen_late = Vec::with_capacity(records.len());
        let mut conns: Vec<usize> = records.iter().map(|r| r.conn).collect();
        conns.sort_unstable();
        conns.dedup();
        for c in conns {
            let mut free = Duration::ZERO;
            for r in records.iter().filter(|r| r.conn == c) {
                gen_late.push(ms(r.send.saturating_sub(r.due.max(free))));
                free = r.done;
            }
        }
        let end = records.iter().map(|r| r.done).max().expect("non-empty");
        let ok = count(Status::Ok);
        Summary {
            attempted: records.len(),
            ok,
            refused: count(Status::Refused),
            failed: count(Status::Failed),
            latency_ms: stats::sorted(&latency),
            gen_late_ms: stats::sorted(&gen_late),
            throughput_rps: ok as f64 / end.as_secs_f64(),
        }
    }

    /// Nearest-rank latency percentile (ms); `+∞` when misses reach it.
    pub fn latency_p(&self, p: f64) -> f64 {
        stats::percentile_sorted(&self.latency_ms, p)
    }

    /// Refusals and failures over attempted.
    pub fn error_frac(&self) -> f64 {
        (self.refused + self.failed) as f64 / self.attempted as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

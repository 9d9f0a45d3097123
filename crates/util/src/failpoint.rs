//! Deterministic fault injection: named failpoints for chaos testing.
//!
//! A *failpoint* is a named hook compiled into a code path — frame
//! reads, arena top-up, snapshot loads, worker dispatch — that does
//! nothing in a normal build and, in a chaos build, consults a global
//! registry to decide whether this particular execution should be
//! perturbed (fail, stall, or panic). The point is to make failure
//! modes *testable*: "the 3rd top-up fails" or "every other frame read
//! stalls 50 ms" become reproducible test inputs instead of things that
//! only happen in production at 3 a.m.
//!
//! ## Zero cost by default
//!
//! Everything here is gated behind the `failpoints` cargo feature.
//! Without it, [`fail_point!`](crate::fail_point) expands to an empty
//! block — no registry, no atomics, no branch — so production builds
//! pay nothing (the serving benchmark is the regression gate). Crates
//! that *place* failpoints declare their own `failpoints` feature
//! forwarding to `uic-util/failpoints`, because the `cfg` inside the
//! macro resolves in the calling crate.
//!
//! ## Configuration
//!
//! Each failpoint is configured by a rule string:
//!
//! ```text
//! rule    := action [ '(' arg ')' ] [ '%' prob ] [ '*' count ]
//! action  := "off" | "return" | "delay" | "panic"
//! ```
//!
//! * `return` — trigger the failure arm of the call site (typed error).
//! * `delay(ms)` — sleep `ms` milliseconds, then proceed normally.
//! * `panic` — panic (exercises `catch_unwind` isolation).
//! * `%p` — fire with probability `p ∈ [0,1]`, decided by a counter
//!   hash seeded from [`set_seed`] — *deterministic*: the same seed and
//!   hit sequence fires on the same hits, every run.
//! * `*n` — fire at most `n` times, then the rule disarms.
//!
//! Rules come from the `UIC_FAILPOINTS` environment variable
//! (`name=rule;name=rule;…`, read once on first use) or from
//! [`configure`] / [`remove`] / [`clear`] in tests. Hit and trigger
//! counts per failpoint are queryable ([`hits`], [`triggers`]) so tests
//! can assert a fault actually happened.
#![cfg(feature = "failpoints")]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable holding `name=rule;…` activations, read once.
pub const FAILPOINTS_ENV_VAR: &str = "UIC_FAILPOINTS";

/// What a fired failpoint does to its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Trigger the call site's failure arm.
    Return,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Panic with a recognizable message.
    Panic,
}

#[derive(Debug)]
struct Rule {
    action: Action,
    /// Fire probability in 2^-64 units (`u64::MAX` ≈ always).
    prob_bits: u64,
    /// Remaining firings before the rule disarms (`u64::MAX` = ∞).
    budget: AtomicU64,
    hits: AtomicU64,
    triggers: AtomicU64,
}

#[derive(Default)]
struct Registry {
    rules: HashMap<String, Rule>,
    seed: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        let mut reg = Registry::default();
        if let Ok(spec) = std::env::var(FAILPOINTS_ENV_VAR) {
            for part in spec.split(';') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                if let Some((name, rule)) = part.split_once('=') {
                    if let Ok(r) = parse_rule(rule.trim()) {
                        reg.rules.insert(name.trim().to_string(), r);
                    } else {
                        eprintln!("uic-util: ignoring malformed failpoint rule `{part}`");
                    }
                }
            }
        }
        Mutex::new(reg)
    })
}

fn parse_rule(s: &str) -> Result<Rule, String> {
    // Split `action(arg)` / `%prob` / `*count` from the right.
    let (s, budget) = match s.rsplit_once('*') {
        Some((head, n)) if !head.is_empty() => {
            let n: u64 = n.trim().parse().map_err(|_| format!("bad count `{n}`"))?;
            (head.trim(), n)
        }
        _ => (s, u64::MAX),
    };
    let (s, prob_bits) = match s.rsplit_once('%') {
        Some((head, p)) if !head.is_empty() => {
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| format!("bad probability `{p}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0,1]"));
            }
            (head.trim(), (p * u64::MAX as f64) as u64)
        }
        _ => (s, u64::MAX),
    };
    let (name, arg) = match s.split_once('(') {
        Some((n, rest)) => {
            let arg = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unclosed argument in `{s}`"))?;
            (n.trim(), Some(arg.trim()))
        }
        None => (s.trim(), None),
    };
    let action = match (name, arg) {
        ("off", _) => {
            return Ok(Rule {
                action: Action::Return,
                prob_bits: 0,
                budget: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                triggers: AtomicU64::new(0),
            })
        }
        ("return", _) => Action::Return,
        ("panic", _) => Action::Panic,
        ("delay", Some(ms)) => {
            let ms: u64 = ms.parse().map_err(|_| format!("bad delay `{ms}`"))?;
            Action::Delay(Duration::from_millis(ms))
        }
        ("delay", None) => return Err("delay needs (ms)".to_string()),
        (other, _) => return Err(format!("unknown action `{other}`")),
    };
    Ok(Rule {
        action,
        prob_bits,
        budget: AtomicU64::new(budget),
        hits: AtomicU64::new(0),
        triggers: AtomicU64::new(0),
    })
}

/// SplitMix64 finalizer: the per-hit coin. Deterministic in
/// `(seed, name, hit index)` — thread scheduling can reorder *which*
/// logical operation observes which hit index, but a fixed single-query
/// sequence replays exactly.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sets the seed that drives probabilistic (`%p`) rules. Call before
/// the failpoints under test first fire; existing hit counters keep
/// counting.
pub fn set_seed(seed: u64) {
    registry().lock().expect("failpoint registry").seed = seed;
}

/// Installs (or replaces) the rule for `name`. Errors on a malformed
/// rule string.
pub fn configure(name: &str, rule: &str) -> Result<(), String> {
    let parsed = parse_rule(rule)?;
    registry()
        .lock()
        .expect("failpoint registry")
        .rules
        .insert(name.to_string(), parsed);
    Ok(())
}

/// Removes the rule for `name` (the failpoint reverts to a no-op).
pub fn remove(name: &str) {
    registry()
        .lock()
        .expect("failpoint registry")
        .rules
        .remove(name);
}

/// Removes every rule.
pub fn clear() {
    registry().lock().expect("failpoint registry").rules.clear();
}

/// Times the rule for `name` has been evaluated.
pub fn hits(name: &str) -> u64 {
    let reg = registry().lock().expect("failpoint registry");
    reg.rules
        .get(name)
        .map(|r| r.hits.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Times the rule for `name` actually fired (returned/delayed/panicked).
pub fn triggers(name: &str) -> u64 {
    let reg = registry().lock().expect("failpoint registry");
    reg.rules
        .get(name)
        .map(|r| r.triggers.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Evaluates the failpoint `name`. Returns `true` when the call site's
/// failure arm should trigger (a `return` rule fired); `delay` rules
/// sleep here and return `false`; `panic` rules panic here.
///
/// This is the runtime behind [`fail_point!`](crate::fail_point) — call
/// sites should use the macro, which compiles away without the
/// `failpoints` feature.
pub fn eval(name: &str) -> bool {
    let (action, seed, hit) = {
        let reg = registry().lock().expect("failpoint registry");
        let Some(rule) = reg.rules.get(name) else {
            return false;
        };
        let hit = rule.hits.fetch_add(1, Ordering::Relaxed);
        // Probability coin: deterministic in (seed, name, hit index).
        if rule.prob_bits != u64::MAX {
            let coin = mix(reg.seed
                ^ crate::fnv1a64(name.as_bytes())
                ^ hit.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if coin > rule.prob_bits {
                return false;
            }
        }
        // Firing budget: decrement-if-positive without underflow.
        let mut left = rule.budget.load(Ordering::Relaxed);
        loop {
            if left == 0 {
                return false;
            }
            if left == u64::MAX {
                break; // unbounded
            }
            match rule.budget.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => left = now,
            }
        }
        rule.triggers.fetch_add(1, Ordering::Relaxed);
        (rule.action, reg.seed, hit)
    };
    let _ = (seed, hit);
    match action {
        Action::Return => true,
        Action::Delay(d) => {
            std::thread::sleep(d);
            false
        }
        Action::Panic => panic!("failpoint `{name}` panicked by injection"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests use distinct names.

    #[test]
    fn unconfigured_failpoints_are_silent() {
        assert!(!eval("test.nothing"));
        assert_eq!(hits("test.nothing"), 0);
    }

    #[test]
    fn return_rule_fires_and_counts() {
        configure("test.ret", "return").unwrap();
        assert!(eval("test.ret"));
        assert!(eval("test.ret"));
        assert_eq!(hits("test.ret"), 2);
        assert_eq!(triggers("test.ret"), 2);
        remove("test.ret");
        assert!(!eval("test.ret"));
    }

    #[test]
    fn count_budget_disarms() {
        configure("test.budget", "return*2").unwrap();
        assert!(eval("test.budget"));
        assert!(eval("test.budget"));
        assert!(!eval("test.budget"), "budget exhausted");
        assert_eq!(triggers("test.budget"), 2);
    }

    #[test]
    fn probability_is_deterministic_in_the_seed() {
        set_seed(42);
        configure("test.prob", "return%0.5").unwrap();
        let first: Vec<bool> = (0..64).map(|_| eval("test.prob")).collect();
        // Re-arm and replay: identical firing pattern requires resetting
        // the hit counter, i.e. re-configuring.
        configure("test.prob", "return%0.5").unwrap();
        let second: Vec<bool> = (0..64).map(|_| eval("test.prob")).collect();
        assert_eq!(first, second, "same seed ⇒ same firing pattern");
        let fired = first.iter().filter(|&&b| b).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 hits fired {fired} times"
        );
        remove("test.prob");
    }

    #[test]
    fn delay_rule_sleeps_then_proceeds() {
        configure("test.delay", "delay(20)*1").unwrap();
        let t0 = std::time::Instant::now();
        assert!(!eval("test.delay"), "delay proceeds, not fails");
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(!eval("test.delay"), "budget spent: no more sleeping");
        remove("test.delay");
    }

    #[test]
    fn off_rule_never_fires() {
        configure("test.off", "off").unwrap();
        assert!(!eval("test.off"));
        remove("test.off");
    }

    #[test]
    #[should_panic(expected = "failpoint `test.panic` panicked")]
    fn panic_rule_panics() {
        configure("test.panic", "panic").unwrap();
        eval("test.panic");
    }

    #[test]
    fn malformed_rules_are_errors() {
        for bad in ["frobnicate", "delay", "delay(x)", "return%2.0", "return*x"] {
            assert!(parse_rule(bad).is_err(), "{bad}");
        }
    }
}

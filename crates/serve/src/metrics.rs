//! The service metrics registry: atomic counters and latency rings,
//! updated lock-free on the request path and dumpable on demand (the
//! `metrics` admin verb) as one JSON object.

use uic_util::{Counter, Gauge, JsonWriter, LatencyRing};

/// How many recent request latencies the rings retain.
const LATENCY_WINDOW: usize = 4096;

/// All serving metrics. One instance lives for the server's lifetime
/// (shared between the engine's arena registry and the connection
/// handlers); every field is updated with relaxed atomics so the hot
/// path never takes a lock.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Requests that reached the handler (any kind, any outcome).
    pub requests_total: Counter,
    /// Solve requests answered with an OK frame.
    pub ok_total: Counter,
    /// Requests answered with an error frame (all codes).
    pub err_total: Counter,
    /// Error responses whose code was `deadline`.
    pub deadline_total: Counter,
    /// Connections refused at admission (`overloaded`).
    pub overloaded_total: Counter,
    /// Malformed frames / non-UTF-8 payloads (`bad-frame`).
    pub bad_frame_total: Counter,
    /// RR sets appended to warm arenas by top-up (never regeneration).
    pub rr_topup_total: Counter,
    /// Warm arenas evicted by the byte-budget LRU policy.
    pub evictions_total: Counter,
    /// Warm arenas re-created for a key that was evicted earlier (the
    /// rebuild cost of the eviction policy, made visible).
    pub rebuilds_total: Counter,
    /// Successful warm-state spills to disk.
    pub spills_total: Counter,
    /// Arenas restored warm from a spill file at startup.
    pub warm_reloaded_arenas: Counter,
    /// Selection budgets answered from a cached [`SelectionPlan`] slice
    /// (no greedy ran at all).
    ///
    /// [`SelectionPlan`]: uic_im::SelectionPlan
    pub plan_hits: Counter,
    /// Selection queries whose arena prefix had no cached plan — a full
    /// greedy run was memoized.
    pub plan_misses: Counter,
    /// Selection queries answered by resuming a cached plan's CELF
    /// state to a larger budget (cheaper than a miss, dearer than a
    /// hit).
    pub plan_resumes: Counter,
    /// Queries that parked behind an identical in-flight plan
    /// computation and reused its result (single-flight coalescing).
    pub coalesced_waits: Counter,
    /// Scored warm queries answered from their arena's score memo (no
    /// Monte-Carlo simulation ran).
    pub score_hits: Counter,
    /// Scored warm queries whose inputs were not memoized — welfare was
    /// estimated and the result memoized.
    pub score_misses: Counter,
    /// Bytes currently resident across all warm arenas (level).
    pub arena_bytes: Gauge,
    /// Warm arenas currently resident (level).
    pub arenas_resident: Gauge,
    /// End-to-end solve latencies (µs), most recent window.
    pub solve_latency_us: LatencyRing,
    /// Arena lock acquisition waits (µs; read and write), most recent
    /// window — the contention observable of the sharded registry.
    pub lock_wait_us: LatencyRing,
    /// Per-request seed-selection phase (µs): the greedy / plan-cache
    /// part of a warm solve.
    pub selection_us: LatencyRing,
    /// Per-request arena top-up phase (µs): RR-set generation plus
    /// index growth under the write lock (0 on fully warm queries).
    pub topup_us: LatencyRing,
    /// Per-request scoring phase (µs): welfare evaluation of the
    /// selected seeds.
    pub scoring_us: LatencyRing,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A zeroed registry.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            requests_total: Counter::new(),
            ok_total: Counter::new(),
            err_total: Counter::new(),
            deadline_total: Counter::new(),
            overloaded_total: Counter::new(),
            bad_frame_total: Counter::new(),
            rr_topup_total: Counter::new(),
            evictions_total: Counter::new(),
            rebuilds_total: Counter::new(),
            spills_total: Counter::new(),
            warm_reloaded_arenas: Counter::new(),
            plan_hits: Counter::new(),
            plan_misses: Counter::new(),
            plan_resumes: Counter::new(),
            coalesced_waits: Counter::new(),
            score_hits: Counter::new(),
            score_misses: Counter::new(),
            arena_bytes: Gauge::new(),
            arenas_resident: Gauge::new(),
            solve_latency_us: LatencyRing::new(LATENCY_WINDOW),
            lock_wait_us: LatencyRing::new(LATENCY_WINDOW),
            selection_us: LatencyRing::new(LATENCY_WINDOW),
            topup_us: LatencyRing::new(LATENCY_WINDOW),
            scoring_us: LatencyRing::new(LATENCY_WINDOW),
        }
    }

    /// The metrics dump: counters plus p50/p90/p99 over the retained
    /// latency windows (`null` before the first sample).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("requests_total");
        w.u64(self.requests_total.get());
        w.key("ok_total");
        w.u64(self.ok_total.get());
        w.key("err_total");
        w.u64(self.err_total.get());
        w.key("deadline_total");
        w.u64(self.deadline_total.get());
        w.key("overloaded_total");
        w.u64(self.overloaded_total.get());
        w.key("bad_frame_total");
        w.u64(self.bad_frame_total.get());
        w.key("rr_topup_total");
        w.u64(self.rr_topup_total.get());
        w.key("evictions_total");
        w.u64(self.evictions_total.get());
        w.key("rebuilds_total");
        w.u64(self.rebuilds_total.get());
        w.key("spills_total");
        w.u64(self.spills_total.get());
        w.key("warm_reloaded_arenas");
        w.u64(self.warm_reloaded_arenas.get());
        w.key("plan_hits");
        w.u64(self.plan_hits.get());
        w.key("plan_misses");
        w.u64(self.plan_misses.get());
        w.key("plan_resumes");
        w.u64(self.plan_resumes.get());
        w.key("coalesced_waits");
        w.u64(self.coalesced_waits.get());
        w.key("score_hits");
        w.u64(self.score_hits.get());
        w.key("score_misses");
        w.u64(self.score_misses.get());
        w.key("arena_bytes");
        w.u64(self.arena_bytes.get());
        w.key("arenas_resident");
        w.u64(self.arenas_resident.get());
        ring_json(&mut w, "solve_latency_us", &self.solve_latency_us);
        ring_json(&mut w, "lock_wait_us", &self.lock_wait_us);
        ring_json(&mut w, "selection_us", &self.selection_us);
        ring_json(&mut w, "topup_us", &self.topup_us);
        ring_json(&mut w, "scoring_us", &self.scoring_us);
        w.end_object();
        w.finish()
    }
}

fn ring_json(w: &mut JsonWriter, name: &str, ring: &LatencyRing) {
    w.key(name);
    let ps = ring.percentiles(&[0.5, 0.9, 0.99]);
    w.begin_object();
    w.key("count");
    w.u64(ring.count() as u64);
    for (name, v) in ["p50", "p90", "p99"].iter().zip(&ps) {
        w.key(name);
        w.u64(*v);
    }
    if ps.is_empty() {
        for name in ["p50", "p90", "p99"] {
            w.key(name);
            w.null();
        }
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_carries_counters_and_percentiles() {
        let m = ServerMetrics::new();
        m.requests_total.add(5);
        m.ok_total.add(4);
        m.err_total.inc();
        m.rr_topup_total.add(1234);
        m.evictions_total.add(2);
        m.rebuilds_total.inc();
        m.arena_bytes.set(1 << 20);
        m.arenas_resident.set(3);
        for us in [100u64, 200, 300, 400] {
            m.solve_latency_us.record(us);
        }
        m.lock_wait_us.record(17);
        m.plan_hits.add(7);
        m.plan_misses.add(2);
        m.plan_resumes.inc();
        m.coalesced_waits.add(3);
        m.selection_us.record(40);
        m.topup_us.record(900);
        m.scoring_us.record(60);
        let json = m.to_json();
        assert!(json.contains(r#""requests_total":5"#), "{json}");
        assert!(json.contains(r#""rr_topup_total":1234"#), "{json}");
        assert!(json.contains(r#""evictions_total":2"#), "{json}");
        assert!(json.contains(r#""rebuilds_total":1"#), "{json}");
        assert!(json.contains(r#""arena_bytes":1048576"#), "{json}");
        assert!(json.contains(r#""arenas_resident":3"#), "{json}");
        assert!(json.contains(r#""count":4"#), "{json}");
        assert!(json.contains(r#""p50":200"#), "{json}");
        assert!(json.contains(r#""p99":400"#), "{json}");
        assert!(
            json.contains(r#""lock_wait_us":{"count":1,"p50":17"#),
            "{json}"
        );
        assert!(json.contains(r#""plan_hits":7"#), "{json}");
        assert!(json.contains(r#""plan_misses":2"#), "{json}");
        assert!(json.contains(r#""plan_resumes":1"#), "{json}");
        assert!(json.contains(r#""coalesced_waits":3"#), "{json}");
        assert!(
            json.contains(r#""selection_us":{"count":1,"p50":40"#),
            "{json}"
        );
        assert!(
            json.contains(r#""topup_us":{"count":1,"p50":900"#),
            "{json}"
        );
        assert!(
            json.contains(r#""scoring_us":{"count":1,"p50":60"#),
            "{json}"
        );
    }

    #[test]
    fn dump_carries_score_memo_counters() {
        let m = ServerMetrics::new();
        let json = m.to_json();
        assert!(
            json.contains(r#""score_hits":0,"score_misses":0,"#),
            "{json}"
        );
        m.score_hits.add(5);
        m.score_misses.add(2);
        let json = m.to_json();
        assert!(json.contains(r#""score_hits":5,"#), "{json}");
        assert!(json.contains(r#""score_misses":2,"#), "{json}");
    }

    #[test]
    fn empty_ring_dumps_null_percentiles() {
        let json = ServerMetrics::new().to_json();
        assert!(
            json.contains(r#""count":0,"p50":null,"p90":null,"p99":null"#),
            "{json}"
        );
    }
}

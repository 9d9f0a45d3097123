//! PRIMA — **PR**efix preserving **I**nfluence **M**aximization
//! **A**lgorithm (Algorithm 2 of the paper).
//!
//! Given a budget vector `b̄` sorted non-increasingly, PRIMA returns a
//! single greedy *ordering* of `b = max b̄` seeds such that, with
//! probability `1 − 1/n^ℓ`, **every** prefix of size `b_i ∈ b̄` is a
//! `(1 − 1/e − ε)`-approximation for budget `b_i` (Definition 1). Plain
//! IMM does not have this property for non-uniform budgets because its
//! sample size is not monotone in `k`; PRIMA fixes it by
//! * inflating the log-failure exponent to `ℓ′ = log_n(n^ℓ · |b̄|)`
//!   (union bound over budgets),
//! * processing budgets largest-first while *reusing* the RR collection
//!   and the previous greedy ordering's prefixes on budget switches, and
//! * regenerating the final collection from scratch (the Chen 2018 fix)
//!   before the last `NodeSelection`.
//!
//! The module holds the workspace's one sampling/certification loop, a
//! private driver over a [`WarmArena`]. Three entry points finish it:
//! [`prima`] (a fresh [`ExclusiveArena`], then the Chen regeneration),
//! [`warm_prima_on`] (no regeneration: the final selection runs on the
//! certified prefix of a shared, extend-only arena), and
//! [`imm`](crate::imm()), which is `prima(&[k])` — with one budget the
//! union-bound term `ln 1 / ln n` is `0`.

use crate::imm::Bounds;
use crate::node_selection::{node_selection, node_selection_prefix_indexed, NodeSelectionResult};
use crate::rrset::{DiffusionModel, RrCollection};
use uic_graph::{Graph, NodeId};

/// Result of a PRIMA run.
#[derive(Debug, Clone)]
pub struct PrimaResult {
    /// Greedy seed ordering of length `max(b̄)` (capped at `n`).
    pub order: Vec<NodeId>,
    /// Cumulative RR-set coverage per prefix on the final collection.
    pub coverage: Vec<u64>,
    /// RR sets used by the final NodeSelection (the Table 6 metric).
    pub rr_sets_final: usize,
    /// RR sets generated over the run, including phase 1 and discarded.
    pub rr_sets_total: u64,
    /// Number of budget entries certified inside the sampling loop
    /// (diagnostics; the remainder fell back to `LB = 1`).
    pub budgets_certified: usize,
}

impl PrimaResult {
    /// The prefix-preserving seed set for budget `k` (top-`k` nodes).
    pub fn seeds_for_budget(&self, k: u32) -> &[NodeId] {
        &self.order[..(k as usize).min(self.order.len())]
    }
}

/// Runs PRIMA on budget vector `budgets` (must be sorted non-increasing)
/// over a fresh collection: the certification loop, then the Chen (2018)
/// regeneration — the loop's sets are discarded and the final
/// `NodeSelection` runs on `θ` freshly drawn ones.
pub fn prima(
    g: &Graph,
    budgets: &[u32],
    eps: f64,
    ell: f64,
    model: DiffusionModel,
    seed: u64,
) -> PrimaResult {
    let mut coll = RrCollection::new(g, model, seed);
    let cert = match certify(g, &ExclusiveArena::new(&mut coll), budgets, eps, ell) {
        Ok(cert) => cert,
        Err(never) => match never {},
    };
    // Lines 22–25: regenerate from scratch, final NodeSelection at b.
    coll.reset();
    coll.extend_to(g, cert.theta);
    let sel = node_selection(&mut coll, budgets[0]);
    PrimaResult {
        order: sel.seeds,
        coverage: sel.covered,
        rr_sets_final: coll.len(),
        rr_sets_total: coll.total_generated(),
        budgets_certified: cert.budgets_certified,
    }
}

/// Shared access to a warm RR arena, as the certification loop consumes
/// it.
///
/// The loop alternates two phases with very different locking needs:
/// *top-up* (append sets, merge the index — exclusive) and *selection /
/// coverage estimation* (pure reads — shareable). This trait names that
/// split so one driver serves the trivial exclusive case
/// ([`ExclusiveArena`], which cold [`prima`] runs on a fresh collection)
/// and a reader/writer shared arena (the `uic-serve` sharded registry,
/// where many queries select concurrently under read locks and only
/// top-up briefly takes the write lock).
///
/// ## Contract
///
/// * After `prepare(g, target)` returns `Ok`, every subsequent `read`
///   observes a collection with `len() ≥ target` and a current index
///   ([`RrCollection::index_is_current`]). Growth by *other* holders of
///   the same arena is fine — selection is prefix-restricted, so extra
///   sets beyond `target` never change answers.
/// * The collection is extend-only (never `reset`), bound to `g`, and
///   all growth goes through `extend_to` — the prefix-stability
///   foundation of the bit-identity guarantee.
/// * `prepare` may fail (fault injection, resource caps); the driver
///   surfaces the error without touching the arena further.
pub trait WarmArena {
    /// Why `prepare` can refuse (use [`std::convert::Infallible`] when
    /// it cannot).
    type Error;

    /// Grows the arena to at least `target` sets and brings the index
    /// current, under exclusive access.
    fn prepare(&self, g: &Graph, target: usize) -> Result<(), Self::Error>;

    /// Runs `f` under shared access. Implementations must uphold the
    /// index-currency contract described on the trait.
    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R;

    /// Greedy max-coverage on the first `num_sets` sets under shared
    /// access. The default runs
    /// [`node_selection_prefix_indexed`] directly; a shared-arena
    /// holder may override it to serve a memoized
    /// [`SelectionPlan`](crate::SelectionPlan) (the `uic-serve` plan
    /// cache), **provided the override returns exactly what the
    /// default would** — selection results feed the certification
    /// thresholds, so any deviation breaks the bit-identity contract.
    fn select(&self, k: u32, num_sets: usize) -> NodeSelectionResult {
        self.read(|coll| node_selection_prefix_indexed(coll, k, num_sets))
    }
}

/// The trivial [`WarmArena`]: exclusive ownership of one collection.
pub struct ExclusiveArena<'a> {
    coll: std::cell::RefCell<&'a mut RrCollection>,
}

impl<'a> ExclusiveArena<'a> {
    /// Wraps an exclusively-held collection.
    pub fn new(coll: &'a mut RrCollection) -> ExclusiveArena<'a> {
        ExclusiveArena {
            coll: std::cell::RefCell::new(coll),
        }
    }
}

impl WarmArena for ExclusiveArena<'_> {
    type Error = std::convert::Infallible;

    fn prepare(&self, g: &Graph, target: usize) -> Result<(), Self::Error> {
        let mut coll = self.coll.borrow_mut();
        coll.extend_to(g, target);
        coll.ensure_index();
        Ok(())
    }

    fn read<R>(&self, f: impl FnOnce(&RrCollection) -> R) -> R {
        f(&self.coll.borrow())
    }
}

/// PRIMA over a **warm, shared, extend-only** RR arena — the
/// resident-service variant of [`prima`].
///
/// Runs the same certification loop as [`prima`], with top-up routed
/// through `prepare` (exclusive) and every selection / coverage
/// estimate through `read` (shared), each restricted to an explicit
/// arena *prefix* (the running maximum of the sample-size targets this
/// call has requested). The collection is **never reset**: samples are
/// only ever topped up with [`RrCollection::extend_to`]. Because RR set
/// `j` is a pure function of `(seed, j)` and prefixes of a warm arena
/// coincide with a cold arena's contents, the result is a pure function
/// of `(graph, budgets, eps, ell, collection seed)` — independent of
/// whatever earlier queries grew the arena or concurrently grow it. A
/// server can therefore keep one collection per `(model, seed)`
/// resident across queries and still answer bit-identically to an
/// offline run on a fresh collection.
///
/// The price of reuse: the Chen (2018) from-scratch regeneration before
/// the final `NodeSelection` is deliberately skipped (a regeneration
/// draws fresh sets and can never be replayed on a shared arena), so
/// the final selection runs on the first `θ` sets of the stream,
/// reusing certification-phase sets as the original IMM did.
/// `rr_sets_final` and `budgets_certified` equal [`prima`]'s;
/// `rr_sets_total` reports the cold-equivalent prefix length (what a
/// fresh arena would hold), not the warm arena's top-up — callers that
/// want the actual incremental work should difference
/// [`RrCollection::total_generated`] around the call.
///
/// # Errors
/// Whatever `prepare` returns; the loop stops at the first refusal.
///
/// # Panics
/// On the same budget/parameter violations as [`prima`], and when the
/// arena is reset (not extend-only) or bound to a different graph.
pub fn warm_prima_on<A: WarmArena>(
    g: &Graph,
    arena: &A,
    budgets: &[u32],
    eps: f64,
    ell: f64,
) -> Result<PrimaResult, A::Error> {
    let cert = certify(g, arena, budgets, eps, ell)?;
    // Final selection on the θ prefix — top-up, never reset.
    let sampled = cert.sampled.max(cert.theta);
    arena.prepare(g, sampled)?;
    let sel = arena.select(budgets[0], cert.theta);
    Ok(PrimaResult {
        order: sel.seeds,
        coverage: sel.covered,
        rr_sets_final: cert.theta,
        rr_sets_total: sampled as u64,
        budgets_certified: cert.budgets_certified,
    })
}

/// What the certification loop decided.
struct Certified {
    /// `θ`: sets the final `NodeSelection` needs (at least 1).
    theta: usize,
    /// The arena prefix the loop sampled: the running max of its extend
    /// targets.
    sampled: usize,
    /// Budget entries certified inside the loop.
    budgets_certified: usize,
}

/// Algorithm 2, lines 1–21: the one sampling/certification loop behind
/// [`prima`], [`warm_prima_on`] and (as `prima(&[k])`) IMM. Every read
/// is restricted to the loop's own prefix, so the arena may be fresh or
/// already warm.
fn certify<A: WarmArena>(
    g: &Graph,
    arena: &A,
    budgets: &[u32],
    eps: f64,
    ell: f64,
) -> Result<Certified, A::Error> {
    let n = g.num_nodes();
    assert!(!budgets.is_empty(), "budget vector must be non-empty");
    assert!(
        budgets.windows(2).all(|w| w[0] >= w[1]),
        "budgets must be sorted in non-increasing order"
    );
    let b = budgets[0];
    assert!(b >= 1 && b <= n, "max budget {b} out of range for n={n}");
    assert!(*budgets.last().unwrap() >= 1, "budgets must be ≥ 1");
    arena.read(|coll| {
        assert_eq!(coll.num_nodes(), n, "collection bound to a different graph");
        assert_eq!(
            coll.total_generated(),
            coll.len() as u64,
            "certification needs an extend-only (never reset) collection"
        );
    });

    let nf = n as f64;
    // Line 2: ℓ ← ℓ + ln 2 / ln n, then ℓ′ = log_n(n^ℓ · |b̄|).
    let ell_boosted = ell + 2f64.ln() / nf.ln();
    let ell_prime = ell_boosted + (budgets.len() as f64).ln() / nf.ln();
    let bounds = Bounds::new(n, eps, ell_prime);
    let eps_prime = bounds.eps_prime();

    let mut sampled = 0usize;
    let mut s = 0usize; // index into budgets (paper's s−1)
    let mut i = 1u32;
    let mut budget_switch = false;
    let mut prev_selection: Option<NodeSelectionResult> = None;
    let mut theta_required = 0usize;
    let max_rounds = bounds.max_rounds();

    while i <= max_rounds && s < budgets.len() {
        let k = budgets[s];
        let x = nf / 2f64.powi(i as i32);
        let theta_i = (bounds.lambda_prime(k) / x).ceil() as usize;
        sampled = sampled.max(theta_i);
        arena.prepare(g, sampled)?;
        // Lines 8–11: on a budget switch, reuse the previous ordering's
        // prefix instead of re-running NodeSelection.
        let estimate = if budget_switch {
            let prev = prev_selection
                .as_ref()
                .expect("budget switch implies a previous selection");
            let prefix = prev.prefix(k as usize);
            // `n · F_R(S)`: spread ÷ n, then × n. The divide/multiply
            // pair is not a float identity, and the certification
            // threshold compares this value, so its rounding is pinned.
            arena.read(|coll| {
                nf * (coll.estimate_spread_prefix_indexed(prefix, sampled)
                    / coll.num_nodes() as f64)
            })
        } else {
            let sel = arena.select(k, sampled);
            let est = sel.estimated_spread(n, sel.seeds.len().min(k as usize));
            prev_selection = Some(sel);
            est
        };
        if estimate >= (1.0 + eps_prime) * x {
            // Lines 13–17: certify LB, size the collection for this
            // budget, move to the next one.
            let lb = estimate / (1.0 + eps_prime);
            let theta_k = (bounds.lambda_star(k) / lb).ceil() as usize;
            theta_required = theta_required.max(theta_k);
            s += 1;
            budget_switch = true;
            if s < budgets.len() {
                // Grow R so the next budget's coverage check can reuse it
                // (line 15). Skipped after the last budget: the final
                // selection sizes the collection itself.
                sampled = sampled.max(theta_k);
                arena.prepare(g, sampled)?;
            }
        } else {
            i += 1;
            budget_switch = false;
        }
    }
    if s < budgets.len() {
        // Lines 20–21: remaining budgets fall back to LB = 1; the largest
        // remaining requirement is the current budget's λ* (λ* is
        // monotone in k and budgets are non-increasing).
        let theta_k = bounds.lambda_star(budgets[s]).ceil() as usize;
        theta_required = theta_required.max(theta_k);
    }
    Ok(Certified {
        theta: theta_required.max(1),
        sampled,
        budgets_certified: s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uic_diffusion::exact_spread;
    use uic_graph::{GraphBuilder, Weighting};
    use uic_util::UicRng;

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(40);
        for leaf in 1..30u32 {
            b.add_edge(0, leaf, 0.8);
        }
        for leaf in 31..38u32 {
            b.add_edge(30, leaf, 0.8);
        }
        b.add_edge(38, 39, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn returns_max_budget_many_seeds_hub_first() {
        let g = hub_graph();
        let r = prima(&g, &[5, 3, 1], 0.4, 1.0, DiffusionModel::IC, 3);
        assert_eq!(r.order.len(), 5);
        assert_eq!(r.order[0], 0, "big hub first");
        assert_eq!(r.order[1], 30, "second hub next");
        assert_eq!(r.seeds_for_budget(1), &[0]);
        assert_eq!(r.seeds_for_budget(3).len(), 3);
    }

    #[test]
    fn prefixes_are_consistent() {
        let g = hub_graph();
        let r = prima(&g, &[6, 4, 2, 1], 0.4, 1.0, DiffusionModel::IC, 9);
        let full = r.order.clone();
        for &k in &[1u32, 2, 4, 6] {
            assert_eq!(r.seeds_for_budget(k), &full[..k as usize]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = hub_graph();
        let a = prima(&g, &[4, 2], 0.4, 1.0, DiffusionModel::IC, 7);
        let b = prima(&g, &[4, 2], 0.4, 1.0, DiffusionModel::IC, 7);
        assert_eq!(a.order, b.order);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
    }

    #[test]
    fn prefix_quality_against_bruteforce() {
        // Empirical Definition 1 check on a tiny graph: every budget's
        // prefix spread ≥ (1 − 1/e − ε) OPT_k (modulo exact evaluation).
        let mut builder = GraphBuilder::new(9);
        let mut rng = UicRng::new(4);
        let mut added = 0;
        'outer: for u in 0..9u32 {
            for v in 0..9u32 {
                if u != v && rng.coin(0.3) {
                    builder.add_edge(u, v, 0.5);
                    added += 1;
                    if added == 18 {
                        break 'outer;
                    }
                }
            }
        }
        let g = builder.build(Weighting::AsGiven, 0);
        let r = prima(&g, &[3, 2, 1], 0.2, 1.0, DiffusionModel::IC, 13);
        let ratio = 1.0 - 1.0 / std::f64::consts::E - 0.2;
        for &k in &[1u32, 2, 3] {
            let got = exact_spread(&g, r.seeds_for_budget(k));
            let opt = brute_force_opt(&g, k);
            assert!(
                got >= ratio * opt - 1e-9,
                "budget {k}: prefix {got} < {ratio} × OPT {opt}"
            );
        }
    }

    fn brute_force_opt(g: &Graph, k: u32) -> f64 {
        let n = g.num_nodes();
        let mut best = 0.0f64;
        // enumerate all k-subsets of 0..n (n ≤ 10 in tests)
        fn rec(g: &Graph, start: u32, left: u32, cur: &mut Vec<u32>, best: &mut f64) {
            if left == 0 {
                *best = best.max(exact_spread(g, cur));
                return;
            }
            for v in start..g.num_nodes() {
                cur.push(v);
                rec(g, v + 1, left - 1, cur, best);
                cur.pop();
            }
        }
        rec(g, 0, k, &mut Vec::new(), &mut best);
        let _ = n;
        best
    }

    #[test]
    fn uniform_budget_vector_matches_single_budget_shape() {
        // With one budget entry PRIMA degenerates to (fixed) IMM modulo
        // the |b̄| = 1 union-bound term, which is log_n(1) = 0.
        let g = hub_graph();
        let p = prima(&g, &[3], 0.4, 1.0, DiffusionModel::IC, 21);
        let i = crate::imm::imm(&g, 3, 0.4, 1.0, DiffusionModel::IC, 21);
        assert_eq!(p.order, i.seeds);
        assert_eq!(p.rr_sets_final, i.rr_sets_final);
    }

    #[test]
    fn more_budget_entries_cost_more_samples() {
        let g = hub_graph();
        let single = prima(&g, &[4], 0.4, 1.0, DiffusionModel::IC, 5);
        let many = prima(
            &g,
            &[4, 4, 4, 4, 4, 4, 4, 4],
            0.4,
            1.0,
            DiffusionModel::IC,
            5,
        );
        assert!(
            many.rr_sets_final >= single.rr_sets_final,
            "ℓ′ union bound must not shrink the sample size"
        );
    }

    #[test]
    fn warm_prima_is_a_pure_function_of_spec_and_seed() {
        // Two fresh collections, same seed → identical results, counters
        // included.
        let g = hub_graph();
        let mut c1 = RrCollection::new(&g, DiffusionModel::IC, 23);
        let a = warm_prima_on(&g, &ExclusiveArena::new(&mut c1), &[5, 3, 1], 0.4, 1.0).unwrap();
        let mut c2 = RrCollection::new(&g, DiffusionModel::IC, 23);
        let b = warm_prima_on(&g, &ExclusiveArena::new(&mut c2), &[5, 3, 1], 0.4, 1.0).unwrap();
        assert_eq!(a.order, b.order);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.rr_sets_final, b.rr_sets_final);
        assert_eq!(a.rr_sets_total, b.rr_sets_total);
        assert_eq!(a.budgets_certified, b.budgets_certified);
    }

    #[test]
    fn warm_arena_reuse_is_bit_identical_to_cold_runs() {
        // The serving contract: a shared arena grown by earlier queries
        // answers later queries exactly as a fresh arena would.
        let g = hub_graph();
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 31);
        // Query 1 grows the arena.
        let q1_warm =
            warm_prima_on(&g, &ExclusiveArena::new(&mut warm), &[6, 2], 0.4, 1.0).unwrap();
        // Query 2, different budgets, reuses the (now large) arena.
        let q2_warm = warm_prima_on(&g, &ExclusiveArena::new(&mut warm), &[3], 0.5, 1.0).unwrap();
        // Cold replicas.
        let mut cold1 = RrCollection::new(&g, DiffusionModel::IC, 31);
        let q1_cold =
            warm_prima_on(&g, &ExclusiveArena::new(&mut cold1), &[6, 2], 0.4, 1.0).unwrap();
        let mut cold2 = RrCollection::new(&g, DiffusionModel::IC, 31);
        let q2_cold = warm_prima_on(&g, &ExclusiveArena::new(&mut cold2), &[3], 0.5, 1.0).unwrap();
        assert_eq!(q1_warm.order, q1_cold.order);
        assert_eq!(q1_warm.coverage, q1_cold.coverage);
        assert_eq!(q1_warm.rr_sets_total, q1_cold.rr_sets_total);
        assert_eq!(q2_warm.order, q2_cold.order);
        assert_eq!(q2_warm.coverage, q2_cold.coverage);
        assert_eq!(q2_warm.rr_sets_final, q2_cold.rr_sets_final);
        assert_eq!(q2_warm.rr_sets_total, q2_cold.rr_sets_total);
    }

    #[test]
    fn repeat_queries_top_up_nothing() {
        // Re-running an identical query on the warm arena must generate
        // zero new RR sets — the amortization the server exists for.
        let g = hub_graph();
        let mut warm = RrCollection::new(&g, DiffusionModel::IC, 47);
        let first = warm_prima_on(&g, &ExclusiveArena::new(&mut warm), &[4, 2], 0.4, 1.0).unwrap();
        let generated_after_first = warm.total_generated();
        let second = warm_prima_on(&g, &ExclusiveArena::new(&mut warm), &[4, 2], 0.4, 1.0).unwrap();
        assert_eq!(warm.total_generated(), generated_after_first);
        assert_eq!(first.order, second.order);
        assert_eq!(first.rr_sets_total, second.rr_sets_total);
    }

    #[test]
    #[should_panic(expected = "extend-only")]
    fn warm_prima_rejects_reset_collections() {
        let g = hub_graph();
        let mut coll = RrCollection::new(&g, DiffusionModel::IC, 1);
        coll.extend_to(&g, 10);
        coll.reset();
        warm_prima_on(&g, &ExclusiveArena::new(&mut coll), &[2], 0.4, 1.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_unsorted_budgets() {
        let g = hub_graph();
        prima(&g, &[2, 5], 0.3, 1.0, DiffusionModel::IC, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_budgets() {
        let g = hub_graph();
        prima(&g, &[], 0.3, 1.0, DiffusionModel::IC, 1);
    }
}

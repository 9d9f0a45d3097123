//! Proxy-centrality seed heuristics: **high-degree** and **PageRank**.
//!
//! The classic comparison points of the IM literature since Kempe,
//! Kleinberg & Tardos (the paper's \[30\], whose experiments pit greedy
//! against exactly these two): rank nodes by a cheap structural proxy for
//! influence, then allocate budgets bundleGRD-style (every item's top-`b_i`
//! prefix of one shared ranking — so the comparison isolates *seed
//! quality*, not allocation shape). No spread estimation is performed, so
//! both run in near-linear time and carry no approximation guarantee.

use std::time::Instant;
use uic_diffusion::{Allocation, SolveReport};
use uic_graph::{Graph, NodeId};

/// Ranks nodes by out-degree (ties → lower id first) and assigns item
/// `i`'s budget to the top-`b_i` prefix.
#[deprecated(
    since = "0.1.0",
    note = "construct through the solver registry: <dyn uic_core::Allocator>::by_name(\"degree-top\")"
)]
pub fn degree_top(g: &Graph, budgets: &[u32]) -> SolveReport {
    assert!(!budgets.is_empty(), "need at least one item");
    let start = Instant::now();
    let mut order: Vec<NodeId> = (0..g.num_nodes()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    SolveReport::new("degree-top", Allocation::from_prefixes(&order, budgets))
        .with_elapsed_since(start)
}

/// Ranks nodes by PageRank **on the transposed graph** (influence flows
/// along out-edges, so a node is influential when many recursively
/// influential nodes are reachable *from* it — the mirror image of the
/// usual prestige ranking) and assigns item `i`'s budget to the
/// top-`b_i` prefix.
#[deprecated(
    since = "0.1.0",
    note = "construct through the solver registry: <dyn uic_core::Allocator>::by_name(\"pagerank-top\")"
)]
pub fn pagerank_top(g: &Graph, budgets: &[u32], damping: f64, iterations: u32) -> SolveReport {
    assert!(!budgets.is_empty(), "need at least one item");
    let start = Instant::now();
    let scores = pagerank(&g.transpose(), damping, iterations);
    let mut order: Vec<NodeId> = (0..g.num_nodes()).collect();
    order.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("PageRank scores are finite")
            .then(a.cmp(&b))
    });
    SolveReport::new("pagerank-top", Allocation::from_prefixes(&order, budgets))
        .with_elapsed_since(start)
}

/// Standard PageRank by power iteration with uniform teleportation;
/// dangling-node mass is redistributed uniformly so the scores stay a
/// probability distribution at every iteration.
///
/// ```
/// use uic_baselines::pagerank;
/// use uic_graph::Graph;
///
/// // Everyone endorses node 0.
/// let g = Graph::from_edges(3, &[(1, 0, 1.0), (2, 0, 1.0)]);
/// let scores = pagerank(&g, 0.85, 50);
/// assert!(scores[0] > scores[1]);
/// assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
pub fn pagerank(g: &Graph, damping: f64, iterations: u32) -> Vec<f64> {
    assert!(
        (0.0..1.0).contains(&damping),
        "damping must be in [0, 1), got {damping}"
    );
    let n = g.num_nodes() as usize;
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.fill(0.0);
        let mut dangling = 0.0f64;
        for (u, &r) in rank.iter().enumerate() {
            let outs = g.out_neighbors(u as NodeId);
            if outs.is_empty() {
                dangling += r;
            } else {
                let share = r / outs.len() as f64;
                for &v in outs {
                    next[v as usize] += share;
                }
            }
        }
        let teleport = (1.0 - damping) * uniform + damping * dangling * uniform;
        for r in next.iter_mut() {
            *r = damping * *r + teleport;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

#[cfg(test)]
#[allow(deprecated)] // the tests exercise the engines behind the registry
mod tests {
    use super::*;
    use uic_graph::{GraphBuilder, Weighting};

    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(20);
        for leaf in 1..15u32 {
            b.add_edge(0, leaf, 0.5);
        }
        b.add_edge(15, 16, 0.5);
        b.add_edge(15, 17, 0.5);
        b.build(Weighting::AsGiven, 0)
    }

    #[test]
    fn degree_ranks_hub_first() {
        let g = hub_graph();
        let r = degree_top(&g, &[2, 1]);
        let s0 = r.allocation.seeds_of_item(0);
        assert_eq!(s0, vec![0, 15], "hub then secondary hub");
        assert_eq!(r.allocation.seeds_of_item(1), vec![0]);
    }

    #[test]
    fn degree_respects_budgets_and_prefix_shape() {
        let g = hub_graph();
        let budgets = [3u32, 1];
        let r = degree_top(&g, &budgets);
        assert!(r.allocation.respects_budgets(&budgets));
        // Prefix shape: item 1's seeds ⊂ item 0's seeds.
        let s0 = r.allocation.seeds_of_item(0);
        for v in r.allocation.seeds_of_item(1) {
            assert!(s0.contains(&v));
        }
    }

    #[test]
    fn pagerank_scores_sum_to_one() {
        let g = hub_graph();
        let scores = pagerank(&g, 0.85, 50);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        assert!(scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn pagerank_uniform_on_symmetric_cycle() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let scores = pagerank(&g, 0.85, 100);
        for &s in &scores {
            assert!((s - 0.25).abs() < 1e-9, "cycle must be uniform, got {s}");
        }
    }

    #[test]
    fn pagerank_prestige_flows_to_popular_node() {
        // Everyone points at node 0 ⇒ node 0 has the top score.
        let g = Graph::from_edges(4, &[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)]);
        let scores = pagerank(&g, 0.85, 100);
        assert!(scores[0] > scores[1]);
        assert!(scores[0] > scores[2]);
    }

    #[test]
    fn pagerank_top_picks_the_influencer_not_the_celebrity() {
        // Node 0 points at many; many point at node 19. On the transpose
        // node 0 is the prestige sink, so pagerank_top must rank 0 first —
        // out-influence, not in-popularity.
        let mut b = GraphBuilder::new(20);
        for leaf in 1..10u32 {
            b.add_edge(0, leaf, 0.5);
        }
        for fan in 10..19u32 {
            b.add_edge(fan, 19, 0.5);
        }
        let g = b.build(Weighting::AsGiven, 0);
        let r = pagerank_top(&g, &[1], 0.85, 100);
        assert_eq!(r.allocation.seeds_of_item(0), vec![0]);
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // Star into node 1, which dangles: without dangling handling the
        // total mass would leak each iteration.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (2, 1, 1.0)]);
        let scores = pagerank(&g, 0.85, 200);
        let total: f64 = scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn empty_graph_gives_empty_scores() {
        let g = Graph::from_edges(0, &[]);
        assert!(pagerank(&g, 0.85, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_rejected() {
        let g = hub_graph();
        pagerank(&g, 1.5, 10);
    }
}

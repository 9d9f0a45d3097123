//! The dense, epoch-stamped cascade engine shared by every simulator.
//!
//! Per-cascade state handling is *the* hot path of the whole reproduction:
//! the welfare estimator `ρ(𝒮)` (§3.3/§4.1.1) and all baselines it is
//! compared against are Monte-Carlo loops over cascade simulations. The
//! engine therefore keeps every piece of per-cascade state in flat arrays
//! indexed by the graph's dense `u32` node ids and stable global edge ids:
//!
//! * node `(desire, adoption, expanded)` state in an [`EpochMap`] —
//!   `reset()` is an epoch bump, so starting a cascade costs `O(1)`, not
//!   `O(n)`;
//! * edge coins in a bit-packed memo (`m` bits, one `u64` per 64 edges).
//!   A UIC cascade queries edge `(u, v)` only while expanding `u`, and
//!   `u`'s first expansion tests every out-edge in order (Fig. 1), so
//!   the lazy path flips `u`'s coins into the bitset on that first
//!   expansion and replays them on later ones. The per-node `expanded`
//!   flag says which; a node's bits are always rewritten before they are
//!   read, so the bitset is never reset. (Com-IC, the personalized
//!   simulator and the RR-SIM passes keep their own
//!   [`EdgeStatusCache`](uic_util::EdgeStatusCache)s.)
//! * the frontier double-buffer and touched-node lists in reusable `Vec`s;
//! * on weighted-cascade graphs, a per-target probability table
//!   (`1/max(d_in(v), 1)` as `f32`, bit-equal to
//!   [`ArcProbs::get`]): an arc costs one dense read instead of two
//!   random reverse-offset reads and a divide.
//!
//! The arc loop is thus one RNG draw per first-expansion arc plus memory
//! traffic, and the traffic is mostly the cold `out_to` row each expansion
//! starts on, so the next frontier node's row is prefetched while the
//! current node's arcs are flipped (x86_64 only). On the offline-solve
//! benchmark (Orkut stand-in, budgets 25,10, 256 sims, 2 vCPUs) the two
//! together took the median `welfare.us_per_sim` from 5527 µs to 3237 µs
//! over four traced runs each, with identical welfare bits. In a shorter
//! ablation the table alone reached 3.7–3.9 ms per cascade and the table
//! plus the prefetch 2.6–3.2 ms.
//!
//! After warm-up no allocation happens per cascade. How edge liveness is
//! decided is abstracted behind [`EdgeOracle`], unifying lazy coin
//! sampling ([`LazyCoins`]) with deterministic replay of a pre-sampled
//! [`LiveEdgeWorld`] ([`WorldOracle`]) — the two evaluation modes the
//! paper's possible-world semantics require.
//!
//! The [`mod@reference`] module keeps the original hash-map implementation as
//! a correctness oracle: the proptest suite below checks dense-vs-
//! reference equivalence on random instances (including the RNG position
//! after back-to-back cascades on one state), and `benches/engine.rs`
//! measures the speedup.

use crate::allocation::Allocation;
use crate::uic::UicOutcome;
use crate::worlds::LiveEdgeWorld;
use uic_graph::{ArcProbs, Graph, NodeId, WeightClass};
use uic_items::{AdoptionOracle, ItemSet, UtilityTable};
use uic_util::{EpochMap, UicRng, VisitTags};

/// Decides edge liveness during a cascade, identified by global edge id.
///
/// Implementations must be *consistent within one cascade*: asking about
/// the same edge twice returns the same answer (the UIC model flips each
/// coin at most once). The engine queries a node's out-edges only while
/// expanding it, all of them, in edge-id order, after announcing the
/// expansion with [`begin_node`](Self::begin_node).
pub trait EdgeOracle {
    /// Called before a node's out-edges are queried; `first` is true on
    /// the node's first expansion this cascade.
    #[inline]
    fn begin_node(&mut self, _first: bool) {}

    /// Is the edge with global id `edge_id` (base probability `p`) live?
    fn is_live(&mut self, edge_id: usize, p: f32) -> bool;
}

/// Lazy coin flipping into a bit-packed memo — the Monte-Carlo mode.
///
/// On a node's first expansion each out-edge coin is drawn from `rng`
/// and written to bit `edge_id` of `bits`; on later expansions the bits
/// are replayed without touching `rng`. The stream is consumed in exactly
/// the order a per-edge "flip once, remember" cache would consume it.
pub struct LazyCoins<'a> {
    /// Coin source.
    rng: &'a mut UicRng,
    /// One bit per global edge id; only bits of expanded nodes are valid.
    bits: &'a mut [u64],
    /// Whether the current node replays its bits (set by `begin_node`).
    replay: bool,
}

impl<'a> LazyCoins<'a> {
    /// An oracle drawing from `rng` into `bits` (at least `m` bits).
    pub fn new(rng: &'a mut UicRng, bits: &'a mut [u64]) -> Self {
        LazyCoins {
            rng,
            bits,
            replay: false,
        }
    }
}

impl EdgeOracle for LazyCoins<'_> {
    #[inline]
    fn begin_node(&mut self, first: bool) {
        self.replay = !first;
    }

    #[inline]
    fn is_live(&mut self, edge_id: usize, p: f32) -> bool {
        let word = &mut self.bits[edge_id >> 6];
        let bit = edge_id & 63;
        if self.replay {
            return (*word >> bit) & 1 == 1;
        }
        let live = self.rng.coin(p as f64);
        *word = (*word & !(1u64 << bit)) | ((live as u64) << bit);
        live
    }
}

/// Deterministic replay of a pre-sampled live-edge world — the
/// enumeration / exact-evaluation mode.
pub struct WorldOracle<'a>(pub &'a LiveEdgeWorld);

impl EdgeOracle for WorldOracle<'_> {
    #[inline]
    fn is_live(&mut self, edge_id: usize, _p: f32) -> bool {
        self.0.is_live_id(edge_id)
    }
}

/// Per-node diffusion state: desire set `R(v)`, adoption set `A(v)`, and
/// whether the node's out-edges were already expanded this cascade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeState {
    desire: ItemSet,
    adopted: ItemSet,
    expanded: bool,
}

/// Reusable dense cascade state: owns the per-node `(desire, adoption)`
/// arrays, the bit-packed edge-coin memo, the frontier double-buffer and,
/// on weighted-cascade graphs, the per-target arc-probability table.
///
/// One `CascadeState` serves arbitrarily many cascades on the same graph;
/// all resets are epoch bumps or `Vec::clear`, so a Monte-Carlo loop is
/// allocation-free after its first cascade.
#[derive(Debug)]
pub struct CascadeState {
    node: EpochMap<NodeState>,
    /// Edge-coin memo of the lazy path: bit `e` of word `e / 64`.
    coins: Vec<u64>,
    /// `1/max(d_in(v), 1)` per node `v` when the graph's forward lists
    /// are [`ArcProbs::RecipInDegree`] (empty otherwise): one dense read
    /// per arc instead of two random `in_off` reads and a divide.
    target_p: Vec<f32>,
    /// `(n, m, weight class)` of the graph the state was built for.
    shape: (u32, usize, WeightClass),
    /// Nodes informed this cascade, in first-contact order.
    informed: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    /// Dedup tags for nodes whose desire grew in the current step.
    step_tags: VisitTags,
    step_touched: Vec<NodeId>,
    /// Seed pairs sorted by node id — fixes the coin-consumption order
    /// independently of `Allocation`'s hash iteration order.
    seed_buf: Vec<(NodeId, ItemSet)>,
}

impl CascadeState {
    /// State sized for graph `g`.
    ///
    /// The state caches data derived from `g` (the weighted-cascade
    /// probability table), so every cascade it runs must be on `g`
    /// itself. The run methods assert that the graph they are handed has
    /// `g`'s node count, edge count and weight class; a different graph
    /// of the same shape is not detected.
    pub fn new(g: &Graph) -> CascadeState {
        let n = g.num_nodes() as usize;
        let target_p = match g.weight_class() {
            WeightClass::InDegree => (0..g.num_nodes())
                .map(|v| 1.0 / (g.in_degree(v).max(1) as f32))
                .collect(),
            WeightClass::PerEdge | WeightClass::Constant(_) => Vec::new(),
        };
        CascadeState {
            node: EpochMap::new(n),
            coins: vec![0; g.num_edges().div_ceil(64)],
            target_p,
            shape: shape_of(g),
            informed: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            step_tags: VisitTags::new(n),
            step_touched: Vec::new(),
            seed_buf: Vec::new(),
        }
    }

    /// One UIC cascade with lazy edge sampling.
    pub fn run_lazy(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        rng: &mut UicRng,
    ) -> UicOutcome {
        // Detach the coin memo so the oracle and the node-state loop can
        // borrow disjoint parts of `self` (the swap is pointer-sized). No
        // reset: a node's bits are rewritten on its first expansion.
        let mut coins = std::mem::take(&mut self.coins);
        let out = self.run_with(g, allocation, table, &mut LazyCoins::new(rng, &mut coins));
        self.coins = coins;
        out
    }

    /// One UIC cascade in a fixed live-edge world (deterministic).
    pub fn run_world(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        world: &LiveEdgeWorld,
    ) -> UicOutcome {
        self.run_with(g, allocation, table, &mut WorldOracle(world))
    }

    /// One UIC cascade against an arbitrary [`EdgeOracle`].
    ///
    /// Implements Fig. 1 of the paper: seeds desire their allocation and
    /// adopt the utility-maximizing subset; each step, last round's
    /// adopters push their full adoption set over live out-edges; nodes
    /// whose desire grew re-decide `argmax { U(T) | A ⊆ T ⊆ R, U(T) ≥ 0 }`.
    pub fn run_with<O: EdgeOracle>(
        &mut self,
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        edges: &mut O,
    ) -> UicOutcome {
        assert!(
            shape_of(g) == self.shape,
            "CascadeState built for a graph of shape {:?}, run on {:?}",
            self.shape,
            shape_of(g)
        );
        let mut oracle = AdoptionOracle::new(table);
        self.node.reset();
        self.informed.clear();
        self.frontier.clear();
        self.next_frontier.clear();

        // t = 1: seed initialization (Fig. 1 preamble), in node-id order.
        self.seed_buf.clear();
        self.seed_buf
            .extend(allocation.seeds().filter(|(_, items)| !items.is_empty()));
        self.seed_buf.sort_unstable_by_key(|&(v, _)| v);
        for si in 0..self.seed_buf.len() {
            let (v, items) = self.seed_buf[si];
            let adopted = oracle.adopt(items, ItemSet::EMPTY);
            self.node.insert(
                v as usize,
                NodeState {
                    desire: items,
                    adopted,
                    expanded: false,
                },
            );
            self.informed.push(v);
            if !adopted.is_empty() {
                self.frontier.push(v);
            }
        }

        let mut steps = 0u32;
        while !self.frontier.is_empty() {
            steps += 1;
            self.step_touched.clear();
            self.step_tags.reset();
            // Step 1–2: propagate adoption sets over (newly tested or
            // already live) out-edges of last round's adopters.
            for fi in 0..self.frontier.len() {
                let u = self.frontier[fi];
                if let Some(&ahead) = self.frontier.get(fi + PREFETCH_AHEAD) {
                    prefetch_row(g.out_neighbors(ahead));
                }
                let st = self
                    .node
                    .get_mut(u as usize)
                    .expect("frontier node must have state");
                let a_u = st.adopted;
                debug_assert!(!a_u.is_empty(), "frontier node {u} adopted nothing");
                edges.begin_node(!st.expanded);
                st.expanded = true;
                let nbrs = g.out_neighbors(u);
                let probs = g.out_arc_probs(u);
                let first_eid = g.out_edge_id(u, 0);
                for (i, &v) in nbrs.iter().enumerate() {
                    let p = match probs {
                        ArcProbs::RecipInDegree { .. } => self.target_p[v as usize],
                        _ => probs.get(i),
                    };
                    if !edges.is_live(first_eid + i, p) {
                        continue;
                    }
                    let (st, fresh) = self.node.slot(v as usize);
                    if fresh {
                        self.informed.push(v);
                    }
                    let grown = a_u.minus(st.desire);
                    if !grown.is_empty() {
                        st.desire = st.desire.union(a_u);
                        if self.step_tags.mark(v as usize) {
                            self.step_touched.push(v);
                        }
                    }
                }
            }
            // Step 3: re-evaluate adoption where desire grew.
            self.next_frontier.clear();
            for ti in 0..self.step_touched.len() {
                let v = self.step_touched[ti];
                let st = self
                    .node
                    .get(v as usize)
                    .expect("touched node must have state");
                let new_adopted = oracle.adopt(st.desire, st.adopted);
                if new_adopted != st.adopted {
                    self.node
                        .get_mut(v as usize)
                        .expect("touched node must have state")
                        .adopted = new_adopted;
                    self.next_frontier.push(v);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        // Dense outcome: sorted (node, itemset) pairs.
        self.informed.sort_unstable();
        let mut desires = Vec::with_capacity(self.informed.len());
        let mut adoptions = Vec::new();
        for &v in &self.informed {
            let st = self.node.get_or_default(v as usize);
            desires.push((v, st.desire));
            if !st.adopted.is_empty() {
                adoptions.push((v, st.adopted));
            }
        }
        UicOutcome {
            adoptions,
            desires,
            steps,
        }
    }
}

/// How many frontier entries ahead of the expanding node
/// [`prefetch_row`] reaches.
const PREFETCH_AHEAD: usize = 1;

/// The structural identity a [`CascadeState`] checks its graph against.
fn shape_of(g: &Graph) -> (u32, usize, WeightClass) {
    (g.num_nodes(), g.num_edges(), g.weight_class())
}

/// Hints the CPU to pull the first cache line of an out-neighbor row
/// into L1, so the row is warm when its node expands. A no-op off
/// `x86_64`.
#[inline(always)]
fn prefetch_row(row: &[NodeId]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint. It never faults, even on an
    // invalid address, and `row.as_ptr()` is valid besides (for an empty
    // row it points at most one past the end of the targets array).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// The original hash-map cascade implementation, kept as a correctness
/// and performance *reference* for the dense engine.
///
/// Used by the proptest equivalence suite in this module and by
/// `benches/engine.rs`; it is not part of the supported simulation API.
#[doc(hidden)]
pub mod reference {
    use super::*;
    use uic_util::FxHashMap;

    /// A faithful port of the pre-engine `UicSimulator`: per-cascade
    /// `FxHashMap`s for node state and edge coins, with the same reused
    /// scratch the original owned (visit tags for step dedup, frontier
    /// double-buffer). Consumes the RNG stream in exactly the same order
    /// as [`CascadeState::run_lazy`](super::CascadeState::run_lazy), so
    /// the two are comparable per seed — and benchmarkable head-to-head
    /// without handicapping the hash-map side.
    pub struct ReferenceSimulator {
        touched_tags: VisitTags,
        touched: Vec<NodeId>,
        frontier: Vec<NodeId>,
        next_frontier: Vec<NodeId>,
    }

    impl ReferenceSimulator {
        /// Scratch sized for graph `g`.
        pub fn new(g: &Graph) -> ReferenceSimulator {
            ReferenceSimulator {
                touched_tags: VisitTags::new(g.num_nodes() as usize),
                touched: Vec::new(),
                frontier: Vec::new(),
                next_frontier: Vec::new(),
            }
        }

        /// One UIC cascade with lazy edge sampling, hash-map state.
        pub fn run(
            &mut self,
            g: &Graph,
            allocation: &Allocation,
            table: &UtilityTable,
            rng: &mut UicRng,
        ) -> UicOutcome {
            let mut oracle = AdoptionOracle::new(table);
            let mut state: FxHashMap<NodeId, (ItemSet, ItemSet)> = FxHashMap::default();
            let mut edge_cache: FxHashMap<usize, bool> = FxHashMap::default();
            self.frontier.clear();
            self.next_frontier.clear();

            let mut seeds: Vec<(NodeId, ItemSet)> = allocation
                .seeds()
                .filter(|(_, items)| !items.is_empty())
                .collect();
            seeds.sort_unstable_by_key(|&(v, _)| v);
            for &(v, items) in &seeds {
                let adopted = oracle.adopt(items, ItemSet::EMPTY);
                state.insert(v, (items, adopted));
                if !adopted.is_empty() {
                    self.frontier.push(v);
                }
            }

            let mut steps = 0u32;
            while !self.frontier.is_empty() {
                steps += 1;
                self.touched.clear();
                self.touched_tags.reset();
                for fi in 0..self.frontier.len() {
                    let u = self.frontier[fi];
                    let a_u = state.get(&u).map(|&(_, a)| a).unwrap_or(ItemSet::EMPTY);
                    let nbrs = g.out_neighbors(u);
                    let probs = g.out_arc_probs(u);
                    for (i, &v) in nbrs.iter().enumerate() {
                        let id = g.out_edge_id(u, i);
                        let live = match edge_cache.get(&id) {
                            Some(&status) => status,
                            None => {
                                let status = rng.coin(probs.get(i) as f64);
                                edge_cache.insert(id, status);
                                status
                            }
                        };
                        if !live {
                            continue;
                        }
                        let entry = state.entry(v).or_insert((ItemSet::EMPTY, ItemSet::EMPTY));
                        let grown = a_u.minus(entry.0);
                        if !grown.is_empty() {
                            entry.0 = entry.0.union(a_u);
                            if self.touched_tags.mark(v as usize) {
                                self.touched.push(v);
                            }
                        }
                    }
                }
                self.next_frontier.clear();
                for ti in 0..self.touched.len() {
                    let v = self.touched[ti];
                    let (desire, adopted) = *state.get(&v).expect("touched node must have state");
                    let new_adopted = oracle.adopt(desire, adopted);
                    if new_adopted != adopted {
                        state.get_mut(&v).unwrap().1 = new_adopted;
                        self.next_frontier.push(v);
                    }
                }
                std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            }

            let mut desires: Vec<(NodeId, ItemSet)> = Vec::with_capacity(state.len());
            let mut adoptions: Vec<(NodeId, ItemSet)> = Vec::new();
            for (&v, &(desire, adopted)) in &state {
                desires.push((v, desire));
                if !adopted.is_empty() {
                    adoptions.push((v, adopted));
                }
            }
            desires.sort_unstable_by_key(|&(v, _)| v);
            adoptions.sort_unstable_by_key(|&(v, _)| v);
            UicOutcome {
                adoptions,
                desires,
                steps,
            }
        }
    }

    /// One-shot convenience wrapper around [`ReferenceSimulator`].
    pub fn simulate(
        g: &Graph,
        allocation: &Allocation,
        table: &UtilityTable,
        rng: &mut UicRng,
    ) -> UicOutcome {
        ReferenceSimulator::new(g).run(g, allocation, table, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uic_graph::WeightSpec;
    use uic_util::split_seed;

    /// Builds a graph from proptest-drawn raw parts: `n` nodes, edges as
    /// `(src_raw, dst_raw, p)` reduced modulo `n`, under weight
    /// representation `rep`: `0` keeps the per-edge `p`s, `1` is weighted
    /// cascade (`1/d_in`, the `p`s ignored), `2` shares the first edge's
    /// `p` as one constant.
    fn build_graph(n: u32, raw_edges: &[(u32, u32, f32)], rep: u8) -> Graph {
        let arcs: Vec<(NodeId, NodeId)> =
            raw_edges.iter().map(|&(u, v, _)| (u % n, v % n)).collect();
        let probs: Vec<f32> = raw_edges.iter().map(|&(_, _, p)| p).collect();
        let spec = match rep {
            0 => WeightSpec::PerEdge(&probs),
            1 => WeightSpec::InDegree,
            _ => WeightSpec::Constant(probs.first().copied().unwrap_or(0.5)),
        };
        Graph::try_from_arcs(n, &arcs, spec).expect("proptest graph is valid")
    }

    /// Builds an allocation from raw `(node_raw, item_raw)` pairs.
    fn build_allocation(n: u32, num_items: u32, raw: &[(u32, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for &(v, i) in raw {
            a.assign(v % n, i % num_items);
        }
        a
    }

    /// Builds a utility table over `num_items` items from raw values in
    /// `[-1, 2]`; `U(∅)` forced to 0 as the model requires.
    fn build_table(num_items: u32, raw: &[f64]) -> UtilityTable {
        let size = 1usize << num_items;
        let mut values: Vec<f64> = (0..size).map(|s| raw[s % raw.len()]).collect();
        values[0] = 0.0;
        UtilityTable::from_values(num_items, values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The dense engine and the hash-map reference produce identical
        /// adoptions, desires, steps, and welfare on every random
        /// instance, seed and weight representation.
        #[test]
        fn dense_engine_matches_reference(
            n in 1u32..12,
            raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..24),
            num_items in 1u32..4,
            raw_pairs in proptest::collection::vec((0u32..64, 0u32..8), 0..8),
            raw_values in proptest::collection::vec(-1.0f64..2.0, 1..16),
            seed in 0u64..1_000_000,
            rep in 0u8..3,
        ) {
            let g = build_graph(n, &raw_edges, rep);
            let alloc = build_allocation(n, num_items, &raw_pairs);
            let table = build_table(num_items, &raw_values);

            let mut dense_rng = UicRng::new(seed);
            let mut sim = CascadeState::new(&g);
            let dense = sim.run_lazy(&g, &alloc, &table, &mut dense_rng);

            let mut ref_rng = UicRng::new(seed);
            let reference = reference::simulate(&g, &alloc, &table, &mut ref_rng);

            prop_assert_eq!(&dense.adoptions, &reference.adoptions);
            prop_assert_eq!(&dense.desires, &reference.desires);
            prop_assert_eq!(dense.steps, reference.steps);
            let dw = dense.welfare(&table);
            let rw = reference.welfare(&table);
            prop_assert!(
                (dw - rw).abs() < 1e-12,
                "welfare {} vs {}", dw, rw
            );
        }

        /// Back-to-back cascades on one `CascadeState` match the reference
        /// run for run, and leave both RNGs at the same position: the coin
        /// memo replays bits on re-expansion (≥ 2 items, so nodes expand
        /// more than once), never leaks cascade 1's bits into cascade 2,
        /// and consumes exactly one draw per tested edge, under every
        /// weight representation.
        #[test]
        fn back_to_back_cascades_match_reference_and_rng_position(
            n in 1u32..12,
            raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..32),
            num_items in 2u32..5,
            raw_first in proptest::collection::vec((0u32..64, 0u32..8), 0..8),
            raw_second in proptest::collection::vec((0u32..64, 0u32..8), 0..8),
            raw_values in proptest::collection::vec(-1.0f64..2.0, 1..16),
            seed in 0u64..1_000_000,
            rep in 0u8..3,
        ) {
            let g = build_graph(n, &raw_edges, rep);
            let table = build_table(num_items, &raw_values);
            let mut sim = CascadeState::new(&g);
            let mut reference = reference::ReferenceSimulator::new(&g);
            let mut dense_rng = UicRng::new(seed);
            let mut ref_rng = UicRng::new(seed);
            for raw in [&raw_first, &raw_second] {
                let alloc = build_allocation(n, num_items, raw);
                let dense = sim.run_lazy(&g, &alloc, &table, &mut dense_rng);
                let expect = reference.run(&g, &alloc, &table, &mut ref_rng);
                prop_assert_eq!(&dense.adoptions, &expect.adoptions);
                prop_assert_eq!(&dense.desires, &expect.desires);
                prop_assert_eq!(dense.steps, expect.steps);
                prop_assert_eq!(dense_rng.next_raw(), ref_rng.next_raw());
            }
        }

        /// Reusing one `CascadeState` across cascades never leaks state
        /// between runs: every cascade matches a fresh-state run.
        #[test]
        fn state_reuse_is_stateless(
            n in 1u32..10,
            raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..16),
            raw_pairs in proptest::collection::vec((0u32..64, 0u32..4), 0..6),
            raw_values in proptest::collection::vec(-1.0f64..2.0, 1..8),
            seed in 0u64..1_000_000,
            rep in 0u8..3,
        ) {
            let g = build_graph(n, &raw_edges, rep);
            let alloc = build_allocation(n, 2, &raw_pairs);
            let table = build_table(2, &raw_values);
            let mut reused = CascadeState::new(&g);
            for round in 0..4u64 {
                let s = split_seed(seed, round);
                let a = reused.run_lazy(&g, &alloc, &table, &mut UicRng::new(s));
                let b = CascadeState::new(&g).run_lazy(&g, &alloc, &table, &mut UicRng::new(s));
                prop_assert_eq!(&a.adoptions, &b.adoptions);
                prop_assert_eq!(&a.desires, &b.desires);
                prop_assert_eq!(a.steps, b.steps);
            }
        }
    }

    #[test]
    fn world_and_lazy_agree_on_certain_edges() {
        // With all probabilities at 1.0 there is a single possible world;
        // lazy sampling and world replay must coincide exactly.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let table = UtilityTable::from_values(1, vec![0.0, 0.5]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        let mut sim = CascadeState::new(&g);
        let lazy = sim.run_lazy(&g, &alloc, &table, &mut UicRng::new(3));
        let world = LiveEdgeWorld::sample(&g, &mut UicRng::new(9));
        let replay = sim.run_world(&g, &alloc, &table, &world);
        assert_eq!(lazy.adoptions, replay.adoptions);
        assert_eq!(lazy.desires, replay.desires);
        assert_eq!(lazy.steps, replay.steps);
    }

    #[test]
    fn re_expansion_replays_first_expansion_coins() {
        // Seeds 0 (item 0) and 1 (item 1). Node 2 hears item 0 from 0 at
        // step 1 and item 1 via 1 → 3 → 2 at step 2, so it expands twice:
        // first with {0}, then with {0, 1}. Its 16 leaf edges are coins;
        // the second expansion must replay the first one's outcomes, so
        // every leaf desires either nothing or both items.
        let mut edges = vec![(0, 2, 1.0), (1, 3, 1.0), (3, 2, 1.0)];
        edges.extend((4..20).map(|leaf| (2, leaf, 0.5)));
        let g = Graph::from_edges(20, &edges);
        let table = UtilityTable::from_values(2, vec![0.0, 1.0, 1.0, 2.0]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        alloc.assign(1, 1);
        let mut sim = CascadeState::new(&g);
        let mut reference = reference::ReferenceSimulator::new(&g);
        let mut live_leaves = 0;
        for seed in 0..32 {
            let out = sim.run_lazy(&g, &alloc, &table, &mut UicRng::new(seed));
            let expect = reference.run(&g, &alloc, &table, &mut UicRng::new(seed));
            assert_eq!(out.desires, expect.desires);
            assert_eq!(out.adoptions, expect.adoptions);
            for &(v, desire) in out.desires.iter().filter(|&&(v, _)| v >= 4) {
                assert_eq!(desire, ItemSet(0b11), "leaf {v} saw only one expansion");
                live_leaves += 1;
            }
        }
        assert!(live_leaves > 0 && live_leaves < 32 * 16, "coins must vary");
    }

    #[test]
    #[should_panic(expected = "CascadeState built for a graph of shape")]
    fn running_on_a_graph_of_another_shape_panics() {
        // Same nodes and arcs, different weight class: a state built for
        // the per-edge graph holds no probability table for the other.
        let per_edge = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]);
        let wc = Graph::try_from_arcs(3, &[(0, 1), (1, 2)], WeightSpec::InDegree).unwrap();
        let table = UtilityTable::from_values(1, vec![0.0, 1.0]);
        let mut alloc = Allocation::new();
        alloc.assign(0, 0);
        let mut sim = CascadeState::new(&per_edge);
        sim.run_lazy(&wc, &alloc, &table, &mut UicRng::new(1));
    }

    #[test]
    fn outcome_vectors_are_sorted_by_node() {
        let g = Graph::from_edges(5, &[(4, 2, 1.0), (2, 0, 1.0), (0, 3, 1.0)]);
        let table = UtilityTable::from_values(1, vec![0.0, 1.0]);
        let mut alloc = Allocation::new();
        alloc.assign(4, 0);
        let out = CascadeState::new(&g).run_lazy(&g, &alloc, &table, &mut UicRng::new(1));
        let nodes: Vec<NodeId> = out.adoptions.iter().map(|&(v, _)| v).collect();
        assert_eq!(nodes, vec![0, 2, 3, 4]);
        assert!(out.desires.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

//! Bit-identity pins for the default (utilitarian) objective.
//!
//! The pluggable-objective refactor must not move a single bit of any
//! default-path output: the constants below were captured on the
//! pre-refactor tree (commit `de38407` lineage) by running the
//! `print_pins` generator, and every release since must reproduce them
//! exactly — estimator statistics, RR-set greedy selection, and the
//! allocation + scored welfare of every registry solver (solvers added
//! since the capture, e.g. `warm-grd`, are pinned at their own first
//! release instead).
//!
//! If a change legitimately needs to move these numbers, it is by
//! definition not "the utilitarian default is untouched" and needs its
//! own review; regenerate with
//! `cargo test -p uic-core --test pinned_defaults -- --ignored --nocapture`.

use std::sync::Arc;
use uic_core::{registry, SolveCtx, WelMax};
use uic_datasets::{preferential_attachment, PaOptions, TwoItemConfig};
use uic_diffusion::WelfareEstimator;
use uic_graph::{Graph, GraphBuilder, WeightClass, Weighting};
use uic_im::{node_selection, DiffusionModel, RrCollection};
use uic_items::{NoiseModel, Price, TableValuation, UtilityModel};

fn two_item_model() -> UtilityModel {
    UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 9.0])),
        Price::additive(vec![3.5, 4.5]),
        NoiseModel::iid_gaussian_var(2, 1.0),
    )
}

fn hub_graph() -> Graph {
    let mut b = GraphBuilder::new(30);
    for leaf in 2..20u32 {
        b.add_edge(0, leaf, 0.6);
    }
    for leaf in 20..28u32 {
        b.add_edge(1, leaf, 0.6);
    }
    b.add_edge(28, 29, 0.5);
    b.build(Weighting::AsGiven, 0)
}

fn ring_graph() -> Graph {
    Graph::from_edges(
        8,
        &[
            (0, 1, 0.7),
            (1, 2, 0.7),
            (2, 3, 0.7),
            (3, 4, 0.7),
            (4, 5, 0.7),
            (5, 6, 0.7),
            (6, 7, 0.7),
            (7, 0, 0.7),
            (0, 4, 0.4),
            (2, 6, 0.4),
        ],
    )
}

fn estimator_pin() -> (u64, f64, f64) {
    let g = hub_graph();
    let model = two_item_model();
    let mut alloc = uic_diffusion::Allocation::new();
    alloc.assign(0, 0);
    alloc.assign(1, 1);
    alloc.assign(28, 0);
    let stats = WelfareEstimator::new(&g, &model, 500, 29).estimate_stats(&alloc);
    (stats.count(), stats.mean(), stats.ci95_halfwidth())
}

/// Welfare on a weighted-cascade graph (`1/d_in` probabilities derived
/// from structure, zero weight bytes) under the Config-1 model: the
/// cascade kernel's compact-weight arm, which the `AsGiven` pins above
/// never reach.
fn weighted_cascade_pin() -> (u64, f64, f64) {
    let g = preferential_attachment(
        PaOptions {
            n: 400,
            edges_per_node: 4,
            undirected: true,
            ..PaOptions::default()
        },
        11,
    );
    assert_eq!(g.weight_class(), WeightClass::InDegree);
    let model = TwoItemConfig::new(1).model();
    let mut alloc = uic_diffusion::Allocation::new();
    for v in 0..6 {
        alloc.assign(v, 0);
    }
    for v in 3..9 {
        alloc.assign(v, 1);
    }
    let stats = WelfareEstimator::new(&g, &model, 400, 31).estimate_stats(&alloc);
    (stats.count(), stats.mean(), stats.ci95_halfwidth())
}

fn selection_pin() -> (Vec<u32>, Vec<u64>, usize) {
    let g = ring_graph();
    let mut coll = RrCollection::new(&g, DiffusionModel::IC, 77);
    coll.extend_to(&g, 2_000);
    let sel = node_selection(&mut coll, 4);
    (sel.seeds, sel.covered, sel.num_sets)
}

/// One solver's pinned output: registry name, `(node, item)` assignment
/// pairs in item-major order, and the scored welfare mean.
type SolverPin<Pairs> = (&'static str, Pairs, f64);

fn solver_pins() -> Vec<SolverPin<Vec<(u32, u32)>>> {
    let g = hub_graph();
    let inst = WelMax::on(&g)
        .model(two_item_model())
        .budgets([3u32, 2])
        .build()
        .unwrap();
    let ctx = SolveCtx::new(7).with_sims(40);
    registry()
        .iter()
        .map(|entry| {
            let report = entry.default_allocator().solve(&inst, &ctx);
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for item in 0..2u32 {
                for v in report.allocation.seeds_of_item(item) {
                    pairs.push((v, item));
                }
            }
            (entry.name, pairs, report.welfare_mean())
        })
        .collect()
}

/// Regenerates the pinned constants (run with `--ignored --nocapture`).
#[test]
#[ignore]
fn print_pins() {
    let (count, mean, ci) = estimator_pin();
    println!("ESTIMATOR: ({count}, {mean:?}, {ci:?})");
    let (count, mean, ci) = weighted_cascade_pin();
    println!("WEIGHTED CASCADE: ({count}, {mean:?}, {ci:?})");
    let (seeds, covered, num_sets) = selection_pin();
    println!("SELECTION: ({seeds:?}, {covered:?}, {num_sets})");
    for (name, pairs, welfare) in solver_pins() {
        println!("SOLVER {name}: {pairs:?} welfare {welfare:?}");
    }
}

#[test]
fn estimator_default_objective_is_bit_identical_to_pre_refactor() {
    let (count, mean, ci) = estimator_pin();
    assert_eq!(count, 500);
    assert_eq!(mean, PIN_ESTIMATOR_MEAN);
    assert_eq!(ci, PIN_ESTIMATOR_CI95);
}

#[test]
fn weighted_cascade_welfare_is_bit_identical_to_its_pin() {
    let (count, mean, ci) = weighted_cascade_pin();
    assert_eq!(count, 400);
    assert_eq!(mean, PIN_WEIGHTED_CASCADE_MEAN);
    assert_eq!(ci, PIN_WEIGHTED_CASCADE_CI95);
}

#[test]
fn node_selection_is_bit_identical_to_pre_refactor() {
    let (seeds, covered, num_sets) = selection_pin();
    assert_eq!(seeds, PIN_SELECTION_SEEDS);
    assert_eq!(covered, PIN_SELECTION_COVERED);
    assert_eq!(num_sets, PIN_SELECTION_NUM_SETS);
}

#[test]
fn all_registered_solvers_are_bit_identical_to_their_pins() {
    let got = solver_pins();
    assert_eq!(got.len(), PIN_SOLVERS.len(), "registry size changed");
    for ((name, pairs, welfare), (pin_name, pin_pairs, pin_welfare)) in
        got.iter().zip(PIN_SOLVERS.iter())
    {
        assert_eq!(name, pin_name);
        assert_eq!(pairs.as_slice(), *pin_pairs, "{name} allocation moved");
        assert_eq!(*welfare, *pin_welfare, "{name} welfare moved");
    }
}

// ---------------------------------------------------------------------
// Pinned constants (pre-refactor capture; see module docs).
// ---------------------------------------------------------------------

const PIN_ESTIMATOR_MEAN: f64 = 3.2928313834483762;
const PIN_ESTIMATOR_CI95: f64 = 0.45766831301240324;
// Captured before the cascade kernel's per-target probability table.
const PIN_WEIGHTED_CASCADE_MEAN: f64 = 117.71305699613531;
const PIN_WEIGHTED_CASCADE_CI95: f64 = 11.155529901694983;
const PIN_SELECTION_SEEDS: &[u32] = &[0, 2, 5, 7];
const PIN_SELECTION_COVERED: &[u64] = &[1033, 1405, 1629, 1737];
const PIN_SELECTION_NUM_SETS: usize = 2000;
#[allow(clippy::approx_constant)]
const PIN_SOLVERS: &[SolverPin<&[(u32, u32)]>] = &[
    (
        "bundle-grd",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "item-disj",
        &[(0, 0), (1, 0), (28, 0), (2, 1), (3, 1)],
        4.538221933961779,
    ),
    (
        "bundle-disj",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "rr-sim+",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "rr-cim",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "bdhs",
        &[(2, 0), (3, 0), (4, 0), (2, 1), (3, 1)],
        3.2341582306074117,
    ),
    (
        "mc-greedy",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "degree-top",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "pagerank-top",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
    (
        "warm-grd",
        &[(0, 0), (1, 0), (28, 0), (0, 1), (1, 1)],
        27.68184749127691,
    ),
];

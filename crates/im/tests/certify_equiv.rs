//! Cold vs warm certification: one sampling/certification contract.
//!
//! `prima` (cold: a fresh collection, then the Chen 2018 regeneration
//! before the final selection) and `warm_prima_on` (warm: an extend-only
//! arena, final selection on the certified prefix) run the same
//! certification loop on the same RR stream, so on a fresh arena they
//! must agree on everything the loop decides:
//!
//! * the final sample size `rr_sets_final` and `budgets_certified`;
//! * the sample count — cold generates the loop's sets plus a
//!   regenerated final collection, warm only tops the loop's prefix up
//!   to the final size, so
//!   `warm.rr_sets_total == max(cold.rr_sets_total − cold.rr_sets_final,
//!   warm.rr_sets_final)`;
//! * `imm(k)` is `prima(&[k])` (the |b̄| = 1 union-bound term is 0).
//!
//! Cases include runs where only some budgets certify inside the loop
//! (the rest fall back to `LB = 1`). A golden pin of `prima`'s output on
//! a fixed matrix guards the cold path's bits; regenerate it with
//! `cargo test -p uic-im --test certify_equiv -- --ignored --nocapture`.

use proptest::prelude::*;
use uic_graph::{Graph, GraphBuilder, Weighting};
use uic_im::{
    imm, prima, warm_prima_on, DiffusionModel, ExclusiveArena, PrimaResult, RrCollection,
};
use uic_util::UicRng;

fn random_graph(n: u32, density: f64, p: f32, seed: u64) -> Graph {
    let mut rng = UicRng::new(seed);
    let mut b = GraphBuilder::new(n).dedup(true);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.coin(density) {
                b.add_edge(u, v, p);
            }
        }
    }
    b.build(Weighting::AsGiven, 0)
}

fn warm_on_fresh(
    g: &Graph,
    budgets: &[u32],
    eps: f64,
    model: DiffusionModel,
    seed: u64,
) -> PrimaResult {
    let mut coll = RrCollection::new(g, model, seed);
    match warm_prima_on(g, &ExclusiveArena::new(&mut coll), budgets, eps, 1.0) {
        Ok(r) => r,
        Err(never) => match never {},
    }
}

/// Checks the cold/warm contract for one run; returns how many budgets
/// certified inside the loop.
fn check_cold_warm(
    g: &Graph,
    budgets: &[u32],
    eps: f64,
    model: DiffusionModel,
    seed: u64,
) -> Result<usize, TestCaseError> {
    let cold = prima(g, budgets, eps, 1.0, model, seed);
    let warm = warm_on_fresh(g, budgets, eps, model, seed);
    prop_assert_eq!(cold.rr_sets_final, warm.rr_sets_final);
    prop_assert_eq!(cold.budgets_certified, warm.budgets_certified);
    let loop_sets = cold.rr_sets_total - cold.rr_sets_final as u64;
    prop_assert_eq!(warm.rr_sets_total, loop_sets.max(warm.rr_sets_final as u64));
    let k = budgets[0];
    let single = prima(g, &[k], eps, 1.0, model, seed);
    let i = imm(g, k, eps, 1.0, model, seed);
    prop_assert_eq!(&i.seeds, &single.order);
    prop_assert_eq!(i.rr_sets_final, single.rr_sets_final);
    prop_assert_eq!(i.rr_sets_total, single.rr_sets_total);
    Ok(cold.budgets_certified)
}

/// Non-increasing budgets from raw draws, each in `1..=n`.
fn budget_vector(raw: &[u32], n: u32) -> Vec<u32> {
    let mut b: Vec<u32> = raw.iter().map(|&x| 1 + x % n).collect();
    b.sort_unstable_by(|a, b| b.cmp(a));
    b
}

const EPS: [f64; 3] = [0.2, 0.35, 0.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small graphs under IC and LT, several ε, seeds and budget
    /// vectors: cold and warm certification agree.
    #[test]
    fn cold_and_warm_certification_agree(
        n in 2u32..14,
        density in 0.05f64..0.6,
        p in 0.05f32..0.9,
        graph_seed in 0u64..1000,
        lt in 0u32..2,
        eps_at in 0usize..3,
        seed in 0u64..1000,
        raw in proptest::collection::vec(0u32..64, 1..5),
    ) {
        let g = random_graph(n, density, p, graph_seed);
        let model = if lt == 1 { DiffusionModel::LT } else { DiffusionModel::IC };
        let budgets = budget_vector(&raw, n);
        check_cold_warm(&g, &budgets, EPS[eps_at], model, seed)?;
    }
}

/// A fixed matrix that covers all three certification outcomes — every
/// budget certified, some, and none (the `LB = 1` fallback for all) —
/// so the contract is exercised on each branch regardless of what the
/// random cases draw.
#[test]
fn the_contract_holds_when_only_some_budgets_certify() {
    let mut outcomes = [false; 3]; // none, some, all
    for (n, density, p) in [(12u32, 0.1, 0.1f32), (12, 0.3, 0.5), (30, 0.08, 0.6)] {
        for graph_seed in 0..3u64 {
            let g = random_graph(n, density, p, graph_seed);
            for model in [DiffusionModel::IC, DiffusionModel::LT] {
                for (eps, budgets) in EPS
                    .into_iter()
                    .flat_map(|e| [(e, vec![n / 2, n / 3, 1]), (e, vec![2, 1])])
                {
                    let certified = check_cold_warm(&g, &budgets, eps, model, graph_seed + 5)
                        .unwrap_or_else(|e| {
                            panic!("n={n} seed={graph_seed} eps={eps} {budgets:?}: {e:?}")
                        });
                    let slot = match certified {
                        0 => 0,
                        c if c < budgets.len() => 1,
                        _ => 2,
                    };
                    outcomes[slot] = true;
                }
            }
        }
    }
    assert_eq!(
        outcomes, [true; 3],
        "matrix must hit none/some/all certified"
    );
}

/// One pinned `prima` run: graph id, model, budgets, ε, seed.
type PinCase = (usize, DiffusionModel, &'static [u32], f64, u64);

const PIN_CASES: [PinCase; 6] = [
    (0, DiffusionModel::IC, &[5, 3, 1], 0.4, 3),
    (0, DiffusionModel::LT, &[4, 4, 2], 0.3, 11),
    (1, DiffusionModel::IC, &[6, 2], 0.5, 7),
    (1, DiffusionModel::LT, &[3], 0.35, 19),
    (2, DiffusionModel::IC, &[6, 3, 1], 0.2, 5),
    (2, DiffusionModel::LT, &[5, 2], 0.5, 23),
];

fn pin_graph(id: usize) -> Graph {
    match id {
        0 => {
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
        1 => random_graph(24, 0.15, 0.4, 17),
        _ => random_graph(12, 0.1, 0.1, 1),
    }
}

/// `(order, coverage, rr_sets_final, rr_sets_total, budgets_certified)`.
type PrimaPin = (&'static [u32], &'static [u64], usize, u64, usize);

fn pin_of(r: &PrimaResult) -> (Vec<u32>, Vec<u64>, usize, u64, usize) {
    (
        r.order.clone(),
        r.coverage.clone(),
        r.rr_sets_final,
        r.rr_sets_total,
        r.budgets_certified,
    )
}

fn run_pin_case(&(graph, model, budgets, eps, seed): &PinCase) -> PrimaResult {
    prima(&pin_graph(graph), budgets, eps, 1.0, model, seed)
}

/// Regenerates [`PRIMA_PINS`] (run with `--ignored --nocapture`).
#[test]
#[ignore]
fn print_prima_pins() {
    for case in &PIN_CASES {
        let (order, coverage, fin, total, certified) = pin_of(&run_pin_case(case));
        println!("    (&{order:?}, &{coverage:?}, {fin}, {total}, {certified}),");
    }
}

const PRIMA_PINS: &[PrimaPin] = &[
    (
        &[0, 30, 38, 26, 39],
        &[359, 460, 481, 490, 497],
        613,
        1226,
        3,
    ),
    (&[0, 30, 38, 39], &[550, 704, 745, 759], 925, 1850, 3),
    (
        &[23, 11, 20, 0, 2, 15],
        &[209, 244, 268, 287, 304, 316],
        363,
        726,
        2,
    ),
    (&[20, 23, 0], &[222, 344, 394], 516, 1011, 1),
    (
        &[4, 9, 1, 3, 7, 8],
        &[959, 1888, 2738, 3546, 4351, 5145],
        9451,
        11376,
        1,
    ),
    (&[1, 5, 0, 7, 10], &[157, 285, 411, 523, 634], 1317, 1754, 1),
];

#[test]
fn prima_outputs_are_pinned() {
    assert_eq!(PRIMA_PINS.len(), PIN_CASES.len());
    for (case, &(order, coverage, fin, total, certified)) in PIN_CASES.iter().zip(PRIMA_PINS) {
        let got = pin_of(&run_pin_case(case));
        let want = (order.to_vec(), coverage.to_vec(), fin, total, certified);
        assert_eq!(got, want, "case {case:?}");
    }
}

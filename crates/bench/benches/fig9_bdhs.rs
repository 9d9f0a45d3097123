//! Fig. 9(a–c) bench: the BDHS externality benchmarks vs a propagated
//! bundleGRD welfare evaluation.

// These benches time the raw engine functions below the registry facade:
// bundleGRD is `prima` plus the prefix assignment.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_baselines::{bdhs_concave_welfare, bdhs_step_welfare_exact};
use uic_bench::bench_opts;
use uic_datasets::{named_network, real_param_model, NamedNetwork};
use uic_diffusion::{Allocation, WelfareEstimator};
use uic_graph::Weighting;
use uic_im::{prima, DiffusionModel};

fn bench(c: &mut Criterion) {
    let opts = bench_opts();
    let g = named_network(NamedNetwork::Orkut, 0.002, opts.seed);
    let model = real_param_model();
    let mut group = c.benchmark_group("fig9_bdhs");
    group.sample_size(10);
    group.bench_function("bdhs_step_exact", |b| {
        b.iter(|| bdhs_step_welfare_exact(&g, &model))
    });
    let g_uniform = g.reweighted_as(Weighting::Constant(0.01), 0);
    group.bench_function("bdhs_concave", |b| {
        b.iter(|| bdhs_concave_welfare(&g_uniform, &model, 0.01))
    });
    let n = g.num_nodes();
    let budgets = vec![(n / 10).max(1); 5];
    group.bench_function("bundlegrd_10pct+score", |b| {
        b.iter(|| {
            let r = prima(&g, &budgets, opts.eps, opts.ell, DiffusionModel::IC, 42);
            let allocation = Allocation::from_prefixes(&r.order, &budgets);
            WelfareEstimator::new(&g, &model, opts.sims, opts.seed).estimate(&allocation)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! B3 — "efficiently select a minimal sufficient illustration": the
//! exact minimum cover over signature classes vs greedy set cover vs the
//! take-everything baseline.
//!
//! Expected shape: the minimal selection scans the population once to
//! group it and then solves a cover whose size depends on the target
//! arity, not the population, so it is cheaper than greedy, which
//! rescans every example per pick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clio_bench::{chain, example_population, star};
use clio_core::illustration::{select_greedy, Illustration, SufficiencyScope};

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("illustration_select");
    for (name, w) in [("chain4", chain(4, 200)), ("star5", star(5, 200))] {
        let pop = example_population(&w);
        let arity = w.mapping.target.arity();
        let scope = SufficiencyScope::mapping();
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{name}/{}", pop.len())),
            &pop,
            |b, pop| {
                b.iter(|| black_box(select_greedy(pop, arity, scope).len()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("minimal", format!("{name}/{}", pop.len())),
            &pop,
            |b, pop| {
                b.iter(|| black_box(Illustration::minimal_sufficient(pop, arity).len()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("take_all", format!("{name}/{}", pop.len())),
            &pop,
            |b, pop| {
                b.iter(|| black_box(pop.to_vec().len()));
            },
        );
    }
    group.finish();
}

fn bench_population_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("illustration_population");
    for rows in [100usize, 400, 1600] {
        let w = chain(3, rows);
        let pop = example_population(&w);
        let arity = w.mapping.target.arity();
        group.bench_with_input(BenchmarkId::new("minimal", pop.len()), &pop, |b, pop| {
            b.iter(|| black_box(Illustration::minimal_sufficient(pop, arity).len()));
        });
        group.bench_with_input(BenchmarkId::new("greedy", pop.len()), &pop, |b, pop| {
            b.iter(|| black_box(select_greedy(pop, arity, SufficiencyScope::mapping()).len()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_selection, bench_population_scaling
}
criterion_main!(benches);

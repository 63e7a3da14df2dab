//! B1 — "efficiently compute D(G)": definitional (subgraph enumeration +
//! n-ary minimum union) vs the outer-join plan, over chain and star
//! graphs of growing node count.
//!
//! Expected shape: the outer-join plan wins everywhere and its advantage
//! grows with node count (the naive algorithm evaluates one inner join
//! per induced connected subgraph — Θ(n²) subgraphs for chains, Θ(2ⁿ) for
//! stars — and pays a subsumption pass on the union).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clio_bench::{chain, cycle, star};
use clio_core::full_disjunction::FdAlgo;

fn bench_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_chain");
    for n in [2usize, 4, 6, 8] {
        let w = chain(n, 100);
        group.bench_with_input(BenchmarkId::new("naive", n), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd_naive(w)));
        });
        group.bench_with_input(BenchmarkId::new("outer_join", n), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd(w, FdAlgo::OuterJoin)));
        });
    }
    group.finish();
}

fn bench_stars(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_star");
    for n in [3usize, 5, 7] {
        let w = star(n, 100);
        group.bench_with_input(BenchmarkId::new("naive", n), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd_naive(w)));
        });
        group.bench_with_input(BenchmarkId::new("outer_join", n), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd(w, FdAlgo::OuterJoin)));
        });
    }
    group.finish();
}

fn bench_rows_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_rows");
    for rows in [100usize, 400, 1600] {
        let w = chain(4, rows);
        group.bench_with_input(BenchmarkId::new("naive", rows), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd_naive(w)));
        });
        group.bench_with_input(BenchmarkId::new("outer_join", rows), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd(w, FdAlgo::OuterJoin)));
        });
    }
    group.finish();
}

fn bench_cycles(c: &mut Criterion) {
    // the definitional oracle on cycles, where the outer-join plan does
    // not apply; `experiments b1` times it beside the executed lattice
    let mut group = c.benchmark_group("fd_cycle_naive");
    for n in [3usize, 4, 5] {
        let w = cycle(n, 100);
        group.bench_with_input(BenchmarkId::from_parameter(n), &w, |b, w| {
            b.iter(|| black_box(clio_bench::fd_naive(w)));
        });
    }
    group.finish();
}

fn bench_cycle_threads(c: &mut Criterion) {
    // parallel scaling of the naive algorithm: the per-subgraph F(J)
    // evaluations fan out on the exec worker pool; output is
    // byte-identical at every thread count (pinned by a property test)
    let mut group = c.benchmark_group("fd_cycle_threads");
    let w = cycle(5, 200);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &w, |b, w| {
            b.iter(|| {
                clio_relational::exec::with_threads(threads, || black_box(clio_bench::fd_naive(w)))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chains, bench_stars, bench_rows_scaling, bench_cycles, bench_cycle_threads
}
criterion_main!(benches);

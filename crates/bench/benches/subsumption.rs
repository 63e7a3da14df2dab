//! B2 — minimum-union inner loop: the definitional O(n²) subsumption
//! removal vs the engine's null-mask-partitioned pass.
//!
//! Expected shape: the partitioned algorithm wins increasingly with row
//! count; at high null rates (many distinct masks) its advantage narrows
//! but never inverts at realistic sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clio_bench::nullable_table;
use clio_relational::ops::{remove_subsumed_naive, remove_subsumed_partitioned};

fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsumption_rows");
    for rows in [500usize, 2000, 8000] {
        let t = nullable_table(rows, 6, 0.4, 0xBEEF);
        group.bench_with_input(BenchmarkId::new("naive", rows), &t, |b, t| {
            b.iter(|| {
                let mut t = t.clone();
                remove_subsumed_naive(&mut t);
                black_box(t.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("partitioned", rows), &t, |b, t| {
            b.iter(|| {
                let mut t = t.clone();
                remove_subsumed_partitioned(&mut t);
                black_box(t.len())
            });
        });
    }
    group.finish();
}

fn bench_null_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsumption_null_rate");
    for pct in [10u32, 40, 70] {
        let t = nullable_table(2000, 6, f64::from(pct) / 100.0, 0xBEEF);
        group.bench_with_input(BenchmarkId::new("naive", pct), &t, |b, t| {
            b.iter(|| {
                let mut t = t.clone();
                remove_subsumed_naive(&mut t);
                black_box(t.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("partitioned", pct), &t, |b, t| {
            b.iter(|| {
                let mut t = t.clone();
                remove_subsumed_partitioned(&mut t);
                black_box(t.len())
            });
        });
    }
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    // parallel scaling of the partitioned algorithm: the per-row
    // mask-probe step fans out on the exec worker pool above the
    // PARTITIONED_PARALLEL_MIN_ROWS threshold
    let mut group = c.benchmark_group("subsumption_threads");
    let t = nullable_table(8000, 6, 0.4, 0xBEEF);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &t, |b, t| {
            b.iter(|| {
                clio_relational::exec::with_threads(threads, || {
                    let mut t = t.clone();
                    remove_subsumed_partitioned(&mut t);
                    black_box(t.len())
                })
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rows, bench_null_rate, bench_threads
}
criterion_main!(benches);

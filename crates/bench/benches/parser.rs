//! B8 — expression pipeline microbenchmarks: parsing, binding, and the
//! bound-vs-unbound evaluation ablation.
//!
//! Binding resolves column names to row indexes once; the mapping
//! evaluator binds every correspondence and filter up front. This bench
//! quantifies what that buys per row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clio_relational::funcs::FuncRegistry;
use clio_relational::parser::parse_expr;
use clio_relational::relation::RelationBuilder;
use clio_relational::schema::Scheme;
use clio_relational::table::Table;
use clio_relational::value::DataType;

const EXPRS: &[(&str, &str)] = &[
    ("join_pred", "C.mid = P.ID"),
    ("filter", "C.age < 7 AND C.name IS NOT NULL"),
    ("correspondence", "concat(Ph.type, ',', Ph.number)"),
    (
        "complex",
        "CASE WHEN C.age BETWEEN 0 AND 4 THEN 'small' \
              WHEN C.ID IN ('001', '002') THEN 'known' \
              ELSE upper(C.name) || '!' END",
    ),
];

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr_parse");
    for (name, text) in EXPRS {
        group.bench_with_input(BenchmarkId::from_parameter(name), text, |b, text| {
            b.iter(|| black_box(parse_expr(text).expect("valid")));
        });
    }
    group.finish();
}

fn table() -> Table {
    let mut b = RelationBuilder::new("W")
        .attr("w0", DataType::Str)
        .attr("w1", DataType::Str)
        .attr("w2", DataType::Int)
        .attr("w3", DataType::Str)
        .attr("w4", DataType::Str)
        .attr("w5", DataType::Str);
    for k in 0..1000i64 {
        b = b.row(vec![
            format!("id{k}").into(),
            format!("id{}", k % 97).into(),
            (k % 13).into(),
            format!("name{k}").into(),
            "home".into(),
            format!("555-{k:04}").into(),
        ]);
    }
    b.build().expect("valid").to_table("W")
}

/// One evaluation-compatible expression over the synthetic wide table.
fn eval_expr() -> clio_relational::expr::Expr {
    parse_expr(
        "CASE WHEN W.w2 BETWEEN 0 AND 4 THEN 'small' \
              WHEN W.w0 IN ('id1', 'id2') THEN 'known' \
              ELSE upper(W.w3) || '!' END",
    )
    .expect("valid")
}

fn bench_bound_vs_unbound(c: &mut Criterion) {
    let mut group = c.benchmark_group("expr_eval");
    let t = table();
    let funcs = FuncRegistry::with_builtins();
    let e = eval_expr();
    group.bench_function("bind_once_eval_all", |b| {
        b.iter(|| {
            let bound = e.bind(t.scheme()).expect("binds");
            let mut n = 0usize;
            for row in t.rows() {
                if !bound.eval(row.as_slice(), &funcs).expect("evals").is_null() {
                    n += 1;
                }
            }
            black_box(n)
        });
    });
    group.bench_function("rebind_per_row", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for row in t.rows() {
                if !e.eval(t.scheme(), row, &funcs).expect("evals").is_null() {
                    n += 1;
                }
            }
            black_box(n)
        });
    });
    group.finish();
}

fn bench_bind(c: &mut Criterion) {
    let t = table();
    let e = eval_expr();
    c.bench_function("expr_bind", |b| {
        let scheme: &Scheme = t.scheme();
        b.iter(|| black_box(e.bind(scheme).expect("binds")));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parse, bench_bound_vs_unbound, bench_bind
}
criterion_main!(benches);

//! Run the parameter sweeps behind EXPERIMENTS.md and print one markdown
//! table per experiment (B1–B17; B13 was dropped). Wall-clock medians over a few
//! repetitions — the Criterion benches give rigorous statistics; this
//! binary gives the compact tables the docs quote.
//!
//! ```sh
//! cargo run --release -p clio-bench --bin experiments
//! ```

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use clio_obs::metrics::MetricsSnapshot;

use clio_bench::{
    chain, chain_prefix_mapping, cycle, example_population, nullable_table, service_workload, star,
};
use clio_core::evolution::evolve_illustration;
use clio_core::full_disjunction::{full_disjunction_naive, FdAlgo};
use clio_core::illustration::{select_greedy, Illustration, SufficiencyScope};
use clio_core::mapping::Mapping;
use clio_core::operators::chase::data_chase;
use clio_core::operators::walk::data_walk;
use clio_datagen::synthetic::random_knowledge;
use clio_incr::EvalCache;
use clio_relational::database::Database;
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::index::{scan_occurrences, ValueIndex};
use clio_relational::ops::{
    join, remove_subsumed_among, remove_subsumed_naive, remove_subsumed_partitioned, JoinKind,
};
use clio_relational::parser::parse_expr;
use clio_relational::relation::{Relation, RelationBuilder};
use clio_relational::table::Table;
use clio_relational::value::{DataType, Value};

const REPS: usize = 5;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn time(mut f: impl FnMut()) -> Duration {
    let samples: Vec<Duration> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    median(samples)
}

/// The median of [`REPS`] timed runs of `f`, each over a clone of
/// `pristine` made outside the clock. A stored relation keeps the join
/// indexes and the near-duplicate flag a run computes, and a clone
/// copies them, so `pristine` must be a database no evaluation has run
/// over: then every run starts cold, as a first evaluation does.
fn time_cold(pristine: &Database, mut f: impl FnMut(&Database)) -> Duration {
    let samples: Vec<Duration> = (0..REPS)
        .map(|_| {
            let db = pristine.clone();
            let t = Instant::now();
            f(&db);
            t.elapsed()
        })
        .collect();
    median(samples)
}

fn fmt(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_micros() >= 1000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}us", d.as_secs_f64() * 1e6)
    }
}

fn ratio(a: Duration, b: Duration) -> String {
    format!("{:.1}x", a.as_secs_f64() / b.as_secs_f64())
}

/// Work counters for one un-timed run of `f` (timed reps stay
/// uninstrumented so counting overhead never pollutes the medians).
fn counted(f: impl FnOnce()) -> MetricsSnapshot {
    clio_obs::set_metrics_enabled(true);
    let base = clio_obs::snapshot();
    f();
    let delta = clio_obs::snapshot().since(&base);
    clio_obs::set_metrics_enabled(false);
    delta
}

fn b1_full_disjunction() {
    println!("\n## B1 — full disjunction: naive vs outer-join plan\n");
    println!(
        "| topology | nodes | rows/rel | naive | outer-join | speedup | |D(G)| \
         | subgraphs | join probes |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (name, ns, rows) in [
        ("chain", vec![2usize, 4, 6, 8], 100),
        ("star", vec![3, 5, 7], 100),
    ] {
        for n in ns {
            let w = if name == "chain" {
                chain(n, rows)
            } else {
                star(n, rows)
            };
            let mut count = 0;
            let naive = time(|| count = clio_bench::fd_naive(&w));
            let outer = time(|| count = clio_bench::fd(&w, FdAlgo::OuterJoin));
            let work = counted(|| {
                let _ = clio_bench::fd_naive(&w);
                let _ = clio_bench::fd(&w, FdAlgo::OuterJoin);
            });
            println!(
                "| {name} | {n} | {rows} | {} | {} | {} | {count} | {} | {} |",
                fmt(naive),
                fmt(outer),
                ratio(naive, outer),
                work.get(clio_obs::Counter::SubgraphsEnumerated),
                work.get(clio_obs::Counter::JoinProbes)
            );
        }
    }
    // rows scaling at fixed shape
    for rows in [100usize, 400, 1600] {
        let w = chain(4, rows);
        let mut count = 0;
        let naive = time(|| count = clio_bench::fd_naive(&w));
        let outer = time(|| count = clio_bench::fd(&w, FdAlgo::OuterJoin));
        let work = counted(|| {
            let _ = clio_bench::fd_naive(&w);
            let _ = clio_bench::fd(&w, FdAlgo::OuterJoin);
        });
        println!(
            "| chain | 4 | {rows} | {} | {} | {} | {count} | {} | {} |",
            fmt(naive),
            fmt(outer),
            ratio(naive, outer),
            work.get(clio_obs::Counter::SubgraphsEnumerated),
            work.get(clio_obs::Counter::JoinProbes)
        );
    }
    // cyclic: the naive oracle (a join chain per subgraph, one minimum
    // union) beside the executed lattice union (one join per subgraph,
    // subsumption by non-extension); work counters as naive / executed
    println!("\ncyclic graphs (naive oracle vs executed lattice D(G)):\n");
    println!(
        "| nodes | rows/rel | naive | executed | speedup | |D(G)| | subgraphs \
         | join probes | subsumption comparisons |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (n, rows) in [(3usize, 100usize), (4, 100), (5, 100), (3, 1000), (5, 1000)] {
        let w = cycle(n, rows);
        let mut count = 0;
        let naive = time(|| count = clio_bench::fd_naive(&w));
        let executed = time(|| count = clio_bench::fd(&w, FdAlgo::Auto));
        let naive_work = counted(|| {
            let _ = clio_bench::fd_naive(&w);
        });
        let work = counted(|| {
            let _ = clio_bench::fd(&w, FdAlgo::Auto);
        });
        let pair = |c| format!("{} / {}", naive_work.get(c), work.get(c));
        println!(
            "| {n} | {rows} | {} | {} | {} | {count} | {} | {} | {} |",
            fmt(naive),
            fmt(executed),
            ratio(naive, executed),
            pair(clio_obs::Counter::SubgraphsEnumerated),
            pair(clio_obs::Counter::JoinProbes),
            pair(clio_obs::Counter::SubsumptionComparisons)
        );
    }
    // parallel naive: the per-subgraph F(J) evaluations fan out on the
    // exec worker pool; output is byte-identical at every thread count
    on_allowed_cpus(|cpus| {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        println!("\nparallel naive on cycles ({cpus}, {hw} hardware thread(s) available):\n");
        println!("| nodes | rows/rel | threads=1 | threads=2 | threads=4 | speedup 1->4 |");
        println!("|---|---|---|---|---|---|");
        for (n, rows) in [(4usize, 200usize), (5, 200)] {
            let w = cycle(n, rows);
            let timed = |threads: usize| {
                time(|| {
                    clio_relational::exec::with_threads(threads, || {
                        std::hint::black_box(clio_bench::fd_naive(&w));
                    });
                })
            };
            let (t1, t2, t4) = (timed(1), timed(2), timed(4));
            println!(
                "| {n} | {rows} | {} | {} | {} | {} |",
                fmt(t1),
                fmt(t2),
                fmt(t4),
                ratio(t1, t4)
            );
        }
    });
}

fn b2_subsumption() {
    println!("\n## B2 — subsumption removal: naive O(n^2) vs partitioned\n");
    println!(
        "| rows | null rate | naive | partitioned | speedup | survivors \
         | naive cmps | part cmps |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (rows, null_rate) in [
        (500usize, 0.4),
        (2000, 0.4),
        (8000, 0.4),
        (2000, 0.1),
        (2000, 0.7),
    ] {
        let t0 = nullable_table(rows, 6, null_rate, 0xBEEF);
        let removed = |remove: fn(&mut Table)| {
            let mut t = t0.clone();
            remove(&mut t);
            t.into_rows()
        };
        let (mut by_naive, mut by_partitioned) = (Vec::new(), Vec::new());
        let naive_work = counted(|| by_naive = removed(remove_subsumed_naive));
        let part_work = counted(|| by_partitioned = removed(remove_subsumed_partitioned));
        let by_among = removed(|t| remove_subsumed_among(t, &vec![true; t.len()]));
        // three ways to one answer: the same rows, in the same order
        assert_eq!(
            by_naive, by_partitioned,
            "B2: naive and partitioned removal disagree at {rows} rows, null rate {null_rate}"
        );
        assert_eq!(
            by_partitioned, by_among,
            "B2: partitioned removal and the restricted pass with every row flagged \
             disagree at {rows} rows, null rate {null_rate}"
        );
        let survivors = by_naive.len();
        let naive = time(|| {
            std::hint::black_box(removed(remove_subsumed_naive));
        });
        let part = time(|| {
            std::hint::black_box(removed(remove_subsumed_partitioned));
        });
        println!(
            "| {rows} | {null_rate} | {} | {} | {} | {survivors} | {} | {} |",
            fmt(naive),
            fmt(part),
            ratio(naive, part),
            naive_work.get(clio_obs::Counter::SubsumptionComparisons),
            part_work.get(clio_obs::Counter::SubsumptionComparisons)
        );
    }
}

fn b3_illustration() {
    println!("\n## B3 — minimal sufficient illustration selection\n");
    println!(
        "| workload | examples | minimal | greedy | minimal size | greedy size \
         | cover nodes | req checks (minimal) | req checks (greedy) |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let paper = {
        let db = clio_datagen::paper::paper_database();
        let m = clio_datagen::paper::example_3_15_mapping();
        let funcs = FuncRegistry::with_builtins();
        (m.examples(&db, &funcs).expect("valid"), m.target.arity())
    };
    let synthetic = [
        ("chain4 x200", chain(4, 200)),
        ("star5 x200", star(5, 200)),
        ("chain3 x1600", chain(3, 1600)),
        ("cycle5 x100", cycle(5, 100)),
    ]
    .map(|(name, w)| (name, (example_population(&w), w.mapping.target.arity())));
    for (name, (pop, arity)) in std::iter::once(("paper (Ex 3.15)", paper)).chain(synthetic) {
        let scope = SufficiencyScope::mapping();
        let mut msize = 0;
        let minimal = time(|| msize = Illustration::minimal_sufficient(&pop, arity).len());
        let mut gsize = 0;
        let greedy = time(|| gsize = select_greedy(&pop, arity, scope).len());
        let minimal_work = counted(|| {
            let _ = Illustration::minimal_sufficient(&pop, arity);
        });
        let greedy_work = counted(|| {
            let _ = select_greedy(&pop, arity, scope);
        });
        println!(
            "| {name} | {} | {} | {} | {msize} | {gsize} | {} | {} | {} |",
            pop.len(),
            fmt(minimal),
            fmt(greedy),
            minimal_work.get(clio_obs::Counter::CoverNodes),
            minimal_work.get(clio_obs::Counter::RequirementsChecked),
            greedy_work.get(clio_obs::Counter::RequirementsChecked)
        );
    }
}

fn b4_walk() {
    println!("\n## B4 — data-walk path inference vs schema size\n");
    println!("| relations | extra specs | paths (cap 5) | time |");
    println!("|---|---|---|---|");
    for n in [10usize, 50, 100, 200] {
        let k = random_knowledge(n, n / 2, 0x5EED);
        let target = format!("R{}", n - 1);
        let mut count = 0;
        let t = time(|| count = k.paths("R0", &target, 5).len());
        println!("| {n} | {} | {count} | {} |", n / 2, fmt(t));
    }
    println!("\nfull walk operator on chains (prefix mapping of 2 nodes):\n");
    println!("| chain length | alternatives | time | generated | pruned |");
    println!("|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for n in [4usize, 6, 8] {
        let w = chain(n, 30);
        let m = chain_prefix_mapping(&w, 2);
        let target = format!("R{}", n - 1);
        let mut count = 0;
        let t = time(|| {
            count = data_walk(&m, &w.db, &w.knowledge, "R0", &target, n, &funcs)
                .expect("valid")
                .len();
        });
        let work = counted(|| {
            data_walk(&m, &w.db, &w.knowledge, "R0", &target, n, &funcs).expect("valid");
        });
        println!(
            "| {n} | {count} | {} | {} | {} |",
            fmt(t),
            work.get(clio_obs::Counter::WalkAlternativesGenerated),
            work.get(clio_obs::Counter::WalkAlternativesPruned)
        );
    }
}

fn b5_chase() {
    println!("\n## B5 — data chase: inverted index vs full scan\n");
    println!("| total rows | index probe | full scan | scan/probe | index build |");
    println!("|---|---|---|---|---|");
    for rows in [1000usize, 10_000, 100_000] {
        let w = chain(3, rows / 3);
        let index = ValueIndex::build(&w.db);
        let probe = Value::str("r0-7");
        let p = time(|| {
            std::hint::black_box(index.occurrences(&probe).len());
        });
        let s = time(|| {
            std::hint::black_box(scan_occurrences(&w.db, &probe).len());
        });
        let b = time(|| {
            std::hint::black_box(ValueIndex::build(&w.db).distinct_values());
        });
        println!(
            "| {rows} | {} | {} | {} | {} |",
            fmt(p),
            fmt(s),
            ratio(s, p),
            fmt(b)
        );
    }
    println!("\nchase operator end to end:\n");
    println!("| total rows | scenarios | pruned sites | time |");
    println!("|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for rows in [1000usize, 10_000] {
        let w = chain(4, rows / 4);
        let m = chain_prefix_mapping(&w, 1);
        let index = ValueIndex::build(&w.db);
        let probe = Value::str("r0-3");
        let mut count = 0;
        let t = time(|| {
            count = data_chase(&m, &w.db, &index, "R0", "id", &probe, &funcs)
                .expect("valid")
                .len();
        });
        let work = counted(|| {
            data_chase(&m, &w.db, &index, "R0", "id", &probe, &funcs).expect("valid");
        });
        println!(
            "| {rows} | {count} | {} | {} |",
            work.get(clio_obs::Counter::ChaseAlternativesPruned),
            fmt(t)
        );
    }
}

/// The near-duplicate flag pass over every relation of `db`, once per
/// relation version: the median of [`REPS`] timed passes, each over
/// fresh copies built outside the clock (a relation keeps its flag).
fn flag_pass(db: &Database) -> Duration {
    let samples: Vec<Duration> = (0..REPS)
        .map(|_| {
            let fresh: Vec<Relation> = db
                .relations()
                .map(|r| Relation::with_rows(r.schema().clone(), r.rows().to_vec()).expect("valid"))
                .collect();
            let t = Instant::now();
            for r in &fresh {
                std::hint::black_box(r.has_near_duplicates());
            }
            t.elapsed()
        })
        .collect();
    median(samples)
}

fn b6_mapping_eval() {
    println!("\n## B6 — end-to-end mapping evaluation (WYSIWYG refresh)\n");
    println!(
        "| workload | rows/rel | target tuples | time | flag pass | tuples scanned | join probes |"
    );
    println!("|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for (name, w) in [
        ("chain4", chain(4, 100)),
        ("chain4", chain(4, 1000)),
        ("chain4", chain(4, 10_000)),
        ("chain4", chain(4, 100_000)),
        ("chain6", chain(6, 1000)),
        ("star5", star(5, 1000)),
    ] {
        let rows = w.db.relation("R0").unwrap().len();
        let mut count = 0;
        let t = time_cold(&w.db, |db| {
            count = w.mapping.evaluate(db, &funcs).expect("valid").len();
        });
        let work = counted(|| {
            w.mapping.evaluate(&w.db.clone(), &funcs).expect("valid");
        });
        println!(
            "| {name} | {rows} | {count} | {} | {} | {} | {} |",
            fmt(t),
            fmt(flag_pass(&w.db)),
            work.get(clio_obs::Counter::TuplesScanned),
            work.get(clio_obs::Counter::JoinProbes)
        );
    }
}

fn b7_evolution() {
    println!("\n## B7 — illustration evolution vs recompute\n");
    println!(
        "| rows/rel | evolve | recompute | evolve size | extended | repaired \
         | req checks (evolve) | req checks (recompute) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for rows in [100usize, 400, 1600] {
        let w = chain(4, rows);
        let old_m = chain_prefix_mapping(&w, 3);
        let old_pop = old_m.examples(&w.db, &funcs).expect("valid");
        let old_ill = Illustration::minimal_sufficient(&old_pop, old_m.target.arity());
        let mut evo_size = 0;
        let mut extended = 0;
        let mut repaired = 0;
        let evolve = time(|| {
            let evo =
                evolve_illustration(&old_ill, &old_m, &w.mapping, &w.db, &funcs).expect("valid");
            evo_size = evo.illustration.len();
            extended = evo.extended_count;
            repaired = evo.repair_count;
        });
        let recompute = time(|| {
            let pop = w.mapping.examples(&w.db, &funcs).expect("valid");
            std::hint::black_box(
                Illustration::minimal_sufficient(&pop, w.mapping.target.arity()).len(),
            );
        });
        let evolve_work = counted(|| {
            evolve_illustration(&old_ill, &old_m, &w.mapping, &w.db, &funcs).expect("valid");
        });
        let recompute_work = counted(|| {
            let pop = w.mapping.examples(&w.db, &funcs).expect("valid");
            std::hint::black_box(
                Illustration::minimal_sufficient(&pop, w.mapping.target.arity()).len(),
            );
        });
        println!(
            "| {rows} | {} | {} | {evo_size} | {extended} | {repaired} | {} | {} |",
            fmt(evolve),
            fmt(recompute),
            evolve_work.get(clio_obs::Counter::RequirementsChecked),
            recompute_work.get(clio_obs::Counter::RequirementsChecked)
        );
    }
}

/// The B8 wide table: six columns, string/int mixed, `rows` rows.
fn wide_table(rows: i64) -> Table {
    let mut b = RelationBuilder::new("W")
        .attr("w0", DataType::Str)
        .attr("w1", DataType::Str)
        .attr("w2", DataType::Int)
        .attr("w3", DataType::Str);
    for k in 0..rows {
        b = b.row(vec![
            format!("id{k}").into(),
            format!("id{}", k % 97).into(),
            (k % 13).into(),
            format!("name{k}").into(),
        ]);
    }
    b.build().expect("valid").to_table("W")
}

fn b8_expressions() {
    println!("\n## B8 — expression pipeline: bind-once vs rebind-per-row\n");
    println!("| rows | bind-once eval | rebind per row | ratio | select scan.tuples |");
    println!("|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    let e = parse_expr(
        "CASE WHEN W.w2 BETWEEN 0 AND 4 THEN 'small' \
              WHEN W.w0 IN ('id1', 'id2') THEN 'known' \
              ELSE upper(W.w3) || '!' END",
    )
    .expect("valid");
    let pred = parse_expr("W.w2 < 5 AND W.w3 IS NOT NULL").expect("valid");
    for rows in [1000i64, 4000] {
        let t = wide_table(rows);
        let bound_once = time(|| {
            let bound = e.bind(t.scheme()).expect("binds");
            let mut n = 0usize;
            for row in t.rows() {
                if !bound.eval(row.as_slice(), &funcs).expect("evals").is_null() {
                    n += 1;
                }
            }
            std::hint::black_box(n);
        });
        let rebind = time(|| {
            let mut n = 0usize;
            for row in t.rows() {
                if !e.eval(t.scheme(), row, &funcs).expect("evals").is_null() {
                    n += 1;
                }
            }
            std::hint::black_box(n);
        });
        let work = counted(|| {
            std::hint::black_box(
                clio_relational::ops::select(&t, &pred, &funcs)
                    .expect("valid")
                    .len(),
            );
        });
        println!(
            "| {rows} | {} | {} | {} | {} |",
            fmt(bound_once),
            fmt(rebind),
            ratio(rebind, bound_once),
            work.get(clio_obs::Counter::TuplesScanned)
        );
    }
}

/// The B9 join inputs: `A(id, link)` and `B(id, payload)` with a ~2:1
/// fan-in of `A.link` onto `B.id`, keyed by strings (`"b17"`) or by
/// integers (`17`).
fn join_tables(rows: usize, string_keys: bool) -> (Table, Table) {
    let key_type = if string_keys {
        DataType::Str
    } else {
        DataType::Int
    };
    let key = |k: usize| -> Value {
        if string_keys {
            format!("b{k}").into()
        } else {
            Value::Int(k as i64)
        }
    };
    let mut a = RelationBuilder::new("A")
        .attr("id", DataType::Str)
        .attr("link", key_type);
    let mut b = RelationBuilder::new("B")
        .attr("id", key_type)
        .attr("payload", DataType::Str);
    for k in 0..rows {
        a = a.row(vec![format!("a{k}").into(), key(k % (rows / 2 + 1))]);
        b = b.row(vec![key(k), format!("p{k}").into()]);
    }
    (
        a.build().expect("valid").to_table("A"),
        b.build().expect("valid").to_table("B"),
    )
}

fn b9_join_ablation() {
    println!("\n## B9 — join ablation: hash-equijoin fast path vs nested loop\n");
    println!(
        "| key | rows/side | hash | nested loop | ratio | hash join.probes \
         | nested join.probes | scan.tuples |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    // the same predicate, phrased to take each path: `=` hashes,
    // `>= AND <=` defeats equi-extraction and falls back to nested loop
    let hash_pred = parse_expr("A.link = B.id").expect("valid");
    let nested_pred = parse_expr("A.link >= B.id AND A.link <= B.id").expect("valid");
    for (string_keys, rows) in [
        (true, 200usize),
        (true, 1000),
        (true, 10_000),
        (false, 1000),
        (false, 10_000),
    ] {
        let (a, b) = join_tables(rows, string_keys);
        let inner = |pred: &Expr| join(&a, &b, pred, JoinKind::Inner, &funcs).expect("joins");
        let (mut hashed, mut nested) = (None, None);
        let hash_work = counted(|| hashed = Some(inner(&hash_pred)));
        let nested_work = counted(|| nested = Some(inner(&nested_pred)));
        // an ablation compares two ways to one answer: the same rows, in
        // the same order
        assert_eq!(
            hashed.map(Table::into_rows),
            nested.map(Table::into_rows),
            "B9: the hash and nested-loop joins disagree at {rows} rows/side"
        );
        let hash = time(|| {
            std::hint::black_box(inner(&hash_pred).len());
        });
        // the nested loop is quadratic: one timed run past 1 000 rows/side
        let nested = if rows > 1000 {
            let t = Instant::now();
            std::hint::black_box(inner(&nested_pred).len());
            t.elapsed()
        } else {
            time(|| {
                std::hint::black_box(inner(&nested_pred).len());
            })
        };
        // nested-loop pair tests count as probes too, so the fallback
        // shows up as quadratic (rows^2) vs linear probes — the
        // tell-tale the golden counter gate in scripts/verify.sh
        // watches for
        println!(
            "| {} | {rows} | {} | {} | {} | {} | {} | {} |",
            if string_keys { "str" } else { "int" },
            fmt(hash),
            fmt(nested),
            ratio(nested, hash),
            hash_work.get(clio_obs::Counter::JoinProbes),
            nested_work.get(clio_obs::Counter::JoinProbes),
            hash_work.get(clio_obs::Counter::TuplesScanned)
        );
    }
}

fn b10_warm_path() {
    println!("\n## B10 — operator-sequence warm path: the memoizing evaluation cache\n");
    println!(
        "| workload | cold | post-edit | warm | cold/warm | cache.hits \
         | cache.misses |"
    );
    println!("|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for (name, w) in [
        ("chain4 x100", chain(4, 100)),
        ("chain4 x1000", chain(4, 1000)),
        ("star5 x1000", star(5, 1000)),
        ("cycle4 x100", cycle(4, 100)),
        ("cycle5 x100", cycle(5, 100)),
    ] {
        let cache = EvalCache::new();
        let eval = || {
            w.mapping
                .evaluate_cached(&w.db, &funcs, Some(&cache))
                .expect("valid")
                .len()
        };
        let cold = time(|| {
            cache.bump_epoch();
            std::hint::black_box(eval());
        });
        eval();
        let post_edit = time(|| {
            // a content edit on one base relation: only entries that
            // depend on R0 are invalidated, the rest are reused
            cache.bump_version("R0");
            std::hint::black_box(eval());
        });
        eval();
        let warm = time(|| {
            std::hint::black_box(eval());
        });
        // one counted edit → preview → preview round for the hit/miss mix
        let work = counted(|| {
            cache.bump_version("R0");
            eval();
            eval();
        });
        println!(
            "| {name} | {} | {} | {} | {} | {} | {} |",
            fmt(cold),
            fmt(post_edit),
            fmt(warm),
            ratio(cold, warm),
            work.get(clio_obs::Counter::CacheHits),
            work.get(clio_obs::Counter::CacheMisses)
        );
    }
}

fn b14_policy_budget_sweep() {
    println!("\n## B14 — cost-aware eviction under budget pressure\n");
    println!(
        "| workload | budget | edits | post-edit replay | hits | misses | hit rate | evictions |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    // Cyclic workloads memoize one table per subgraph F(J); an edit
    // invalidates only the entries depending on the edited relation, so
    // a post-edit replay's hits depend on the other entries staying
    // resident under the byte budget (a percentage of the working set).
    // Each budget runs once per edit pattern: every edit on R0, or the
    // edited relation rotating R0..Rn-1 (the perfbench cycle-edit
    // pattern). Rounds are steady-state: after the cold fill, un-counted
    // edit-replay rounds let eviction settle on a resident set (it
    // learns which F(J) tables recur through ghost-frequency history,
    // which takes a few rejection rounds to compound), then several
    // counted rounds report the aggregate hit/miss/eviction mix —
    // aggregating smooths the round-to-round churn a tight budget
    // induces — plus a timed replay. A rotating run settles for two
    // rotations and counts two.
    let funcs = FuncRegistry::with_builtins();
    for (name, n, w) in [
        ("cycle4 x100", 4, cycle(4, 100)),
        ("cycle5 x100", 5, cycle(5, 100)),
    ] {
        let eval = |cache: &EvalCache| {
            w.mapping
                .evaluate_cached(&w.db, &funcs, Some(cache))
                .expect("valid")
                .len()
        };
        let probe = EvalCache::new();
        eval(&probe);
        let working = probe.stats().bytes.max(1);
        for pct in [100usize, 50, 25, 10] {
            for rotating in [false, true] {
                let (edits, settle, count) = if rotating {
                    (format!("R0..R{}", n - 1), 2 * n, 2 * n)
                } else {
                    ("R0".to_string(), 8, 4)
                };
                let cache = EvalCache::with_capacity((working * pct / 100).max(1));
                let mut next = 0usize;
                let mut round = || {
                    let edited = if rotating { next % n } else { 0 };
                    next += 1;
                    cache.bump_version(&format!("R{edited}"));
                    eval(&cache)
                };
                eval(&cache); // cold fill under the budget
                for _ in 0..settle {
                    round();
                }
                let post_edit = time(|| {
                    std::hint::black_box(round());
                });
                let before = cache.stats();
                for _ in 0..count {
                    round();
                }
                let s = cache.stats();
                let (hits, misses) = (s.hits - before.hits, s.misses - before.misses);
                println!(
                    "| {name} | {pct}% | {edits} | {} | {hits} | {misses} | {:.0}% | {} |",
                    fmt(post_edit),
                    100.0 * hits as f64 / (hits + misses).max(1) as f64,
                    s.evictions - before.evictions,
                );
            }
        }
    }
}

fn b12_persistence() {
    use clio_incr::CacheStore;

    println!("\n## B12 — persistent cache: cold vs disk-warm vs memory-warm\n");
    println!(
        "| workload | cold | disk-warm | mem-warm | cold/disk-warm | disk hits/replay \
         | disk bytes |"
    );
    println!("|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for (name, w) in [
        ("chain4 x100", chain(4, 100)),
        ("chain4 x1000", chain(4, 1000)),
        ("star5 x1000", star(5, 1000)),
        ("cycle4 x100", cycle(4, 100)),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "clio-bench-b12-{}-{}",
            std::process::id(),
            name.replace(' ', "-")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store: std::sync::Arc<dyn CacheStore> = std::sync::Arc::new(
            clio_incr::DiskStore::open(&dir, clio_incr::database_digest(&w.db)),
        );
        let eval = |cache: &EvalCache| {
            w.mapping
                .evaluate_cached(&w.db, &funcs, Some(cache))
                .expect("valid")
                .len()
        };
        // cold: a fresh cache with no store, every rep recomputes
        let cold = time(|| {
            let c = EvalCache::new();
            std::hint::black_box(eval(&c));
        });
        // populate the store once (insert-time spills)
        let spiller = EvalCache::new();
        spiller.set_store(Some(std::sync::Arc::clone(&store)));
        eval(&spiller);
        // disk-warm: memory tier dropped before each rep — the restart
        // path, where every lookup is decoded from the store's files
        let cache = EvalCache::new();
        cache.set_store(Some(std::sync::Arc::clone(&store)));
        let disk_warm = time(|| {
            cache.clear();
            std::hint::black_box(eval(&cache));
        });
        let before = store.stats().hits;
        cache.clear();
        eval(&cache);
        let hits_per_replay = store.stats().hits - before;
        // mem-warm: entries resident, the store is never consulted
        eval(&cache);
        let mem_warm = time(|| {
            std::hint::black_box(eval(&cache));
        });
        println!(
            "| {name} | {} | {} | {} | {} | {hits_per_replay} | {} |",
            fmt(cold),
            fmt(disk_warm),
            fmt(mem_warm),
            ratio(cold, disk_warm),
            store.stats().bytes,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn b11_concurrent_sessions(cpus: &str) {
    use clio_core::session::Session;
    use clio_core::session_pool::SessionPool;

    println!(
        "\n## B11 — concurrent session service: shared snapshot vs per-session copies ({cpus})\n"
    );
    println!(
        "| sessions | per-session copy (serial) | pooled width 1 | pooled width N \
         | copy/pooled-N | sessions/s (pooled N) |"
    );
    println!("|---|---|---|---|---|---|");
    // a big shared source for many small sessions: per-session setup
    // (deep copy + index rebuild) dominates, which is what Arc sharing
    // removes
    let w = service_workload(6, 12_000);
    let mapping = w.mapping.clone();
    let run_one = |mut s: Session| {
        s.adopt_mapping(mapping.clone(), "b11 session")
            .expect("valid");
        std::hint::black_box(s.target_preview().expect("valid").len());
    };
    for sessions in [1usize, 2, 4, 8] {
        let copies = time(|| {
            for _ in 0..sessions {
                run_one(Session::new(w.db.clone(), w.target.clone()));
            }
        });
        let pool = SessionPool::new(w.db.clone(), w.target.clone());
        let pooled_serial = time(|| {
            pool.clone().with_width(1).run(sessions, |_, s| run_one(s));
        });
        let pooled_wide = time(|| {
            pool.clone()
                .with_width(sessions)
                .run(sessions, |_, s| run_one(s));
        });
        let throughput = sessions as f64 / pooled_wide.as_secs_f64();
        println!(
            "| {sessions} | {} | {} | {} | {} | {throughput:.1} |",
            fmt(copies),
            fmt(pooled_serial),
            fmt(pooled_wide),
            ratio(copies, pooled_wide),
        );
    }
}

fn b15_networked_clients(cpus: &str) {
    use std::sync::Arc;

    use clio_cli::engine::Shell;
    use clio_cli::serve::ShellHandler;
    use clio_core::session_pool::SessionPool;
    use clio_datagen::paper::{kids_target, paper_database};
    use clio_incr::{CacheStore, MemStore};
    use clio_net::{Client, Handler, Server, ServerConfig};

    // The demo session's command body (examples/scripts/demo.clio minus
    // comments and `quit`): every client replays the full
    // refine-and-accept loop over its own connection.
    const SCRIPT: [&str; 16] = [
        "corr Children.ID -> ID",
        "accept",
        "corr Children.name -> name",
        "corr Parents.affiliation -> affiliation",
        "confirm 1",
        "target",
        "illustration",
        "chase Children.ID 002",
        "confirm 3",
        "corr SBPS.time -> BusSchedule",
        "require BusSchedule",
        "mapping",
        "sql",
        "accept",
        "target",
        "contributions",
    ];

    println!("\n## B15 — networked service: concurrent clients over loopback TCP ({cpus})\n");
    println!(
        "| clients | cold shared store | warm shared store | cold/warm \
         | commands/s (warm) | store loads/client (warm) |"
    );
    println!("|---|---|---|---|---|---|");

    // One timed drive: start an in-process server over a pool sharing
    // `store`, run `clients` concurrent connections each replaying the
    // script, and return the wall-clock from first connect to last
    // response. Server startup and teardown stay outside the clock.
    let drive = |clients: usize, store: &Arc<dyn CacheStore>| -> Duration {
        let mut pool =
            SessionPool::new(paper_database(), kids_target()).with_store(Arc::clone(store));
        pool.set_cache_enabled(true);
        let config = ServerConfig {
            max_conns: clients,
            ..ServerConfig::default()
        };
        let server = Server::bind(("127.0.0.1", 0), config).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let server_thread = s.spawn(|| {
                server.run(|_conn| {
                    Box::new(ShellHandler::new(Shell::new(pool.session()))) as Box<dyn Handler>
                })
            });
            let t = Instant::now();
            std::thread::scope(|cs| {
                for _ in 0..clients {
                    cs.spawn(|| {
                        let mut client = Client::connect(addr).expect("connect");
                        for line in SCRIPT {
                            let response = client.request(line).expect("request");
                            std::hint::black_box(response.expect("connection open").len());
                        }
                    });
                }
            });
            let elapsed = t.elapsed();
            handle.shutdown();
            server_thread
                .join()
                .expect("server thread")
                .expect("server run");
            elapsed
        })
    };

    for clients in [1usize, 2, 4, 8] {
        // cold: the shared store starts empty each rep, so the first
        // connection computes and spills while later ones warm mid-rep
        let cold = median(
            (0..REPS)
                .map(|_| {
                    let store: Arc<dyn CacheStore> = Arc::new(MemStore::new());
                    drive(clients, &store)
                })
                .collect(),
        );
        // warm: one un-timed client populates the store; every timed
        // connection then answers its evaluations from shared entries
        let store: Arc<dyn CacheStore> = Arc::new(MemStore::new());
        drive(1, &store);
        let warm = median((0..REPS).map(|_| drive(clients, &store)).collect());
        let work = counted(|| {
            drive(clients, &store);
        });
        let loads_per_client = work.get(clio_obs::Counter::CacheDiskHits) as f64 / clients as f64;
        let commands_per_sec = (clients * SCRIPT.len()) as f64 / warm.as_secs_f64();
        println!(
            "| {clients} | {} | {} | {} | {commands_per_sec:.0} | {loads_per_client:.1} |",
            fmt(cold),
            fmt(warm),
            ratio(cold, warm),
        );
    }
}

fn b16_paged_backend() {
    use clio_relational::storage::{open_paged, save_database};

    println!("\n## B16 — paged backend: buffer-pool size vs working set\n");
    println!(
        "| pool pages | heap pages | open+scan | pager hits | misses | evictions | hit rate |"
    );
    println!("|---|---|---|---|---|---|---|");
    let w = chain(4, 2000);
    let dir = std::env::temp_dir().join(format!("clio-bench-b16-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 1 KiB pages keep the heap files many pages long, so small pools
    // genuinely thrash and large ones genuinely fit the working set.
    const PAGE_SIZE: u64 = 1024;
    save_database(&w.db, &dir, PAGE_SIZE as usize).expect("save");
    // data pages across the heap files (page 0 of each file is its header)
    let heap_pages: u64 = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(std::result::Result::ok)
        .filter(|e| {
            let path = e.path();
            path.extension().is_some_and(|x| x == "clh")
                && !path
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with('_'))
        })
        .map(|e| e.metadata().expect("metadata").len() / PAGE_SIZE - 1)
        .sum();
    for pool in [4usize, 16, 64, 256, 512, 1024] {
        // open (one eager integrity scan of every heap file through the
        // pool) plus a full materializing scan of every relation — the
        // paged path a session start performs
        let open_and_scan = || {
            let db = open_paged(&dir, pool).expect("open");
            let rows: usize = db
                .relations()
                .map(clio_relational::relation::Relation::len)
                .sum();
            std::hint::black_box(rows);
        };
        let t = time(open_and_scan);
        let work = counted(open_and_scan);
        let hits = work.get(clio_obs::Counter::PagerHits);
        let misses = work.get(clio_obs::Counter::PagerMisses);
        let evictions = work.get(clio_obs::Counter::PagerEvictions);
        println!(
            "| {pool} | {heap_pages} | {} | {hits} | {misses} | {evictions} | {:.0}% |",
            fmt(t),
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Q(M)` with no pushdown and no lattice: the definitional `D(G)`
/// (`full_disjunction_naive`, the minimum union of every connected
/// subgraph's `F(J)`) and one `MappingEvaluator` pass over it — the
/// oracle the plan is checked and timed against.
fn reference_evaluate(m: &Mapping, db: &Database, funcs: &FuncRegistry) -> Table {
    let assocs = full_disjunction_naive(db, &m.graph, funcs).expect("D(G)");
    let eval = m.evaluator(db, funcs).expect("evaluator");
    let mut out = Table::empty(m.target_scheme());
    for i in 0..assocs.len() {
        if let Some(row) = eval
            .target_row_if_passing(assocs.row(i), funcs)
            .expect("row")
        {
            out.push_distinct(row);
        }
    }
    out
}

fn b17_planned_evaluation() {
    println!("\n## B17 — plan (filter pushdown) vs no-pushdown reference on cyclic workloads\n");
    println!(
        "| nodes | rows/rel | source filter | reference | evaluate (plan) | speedup \
         | pushed | pruned subgraphs | rows out |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let funcs = FuncRegistry::with_builtins();
    for (n, rows) in [(3usize, 100usize), (4, 60), (5, 30)] {
        let w = cycle(n, rows);
        // both sides are timed over clones of this one, taken before any
        // evaluation warms `w.db`
        let pristine = w.db.clone();
        for filter in ["(none)", "R0.id LIKE 'r0-1%'", "R0.p0 IS NOT NULL"] {
            let mut m = w.mapping.clone();
            if filter != "(none)" {
                m.source_filters.push(parse_expr(filter).expect("filter"));
            }
            let reference = reference_evaluate(&m, &w.db, &funcs);
            let planned = m.evaluate(&w.db, &funcs).expect("evaluate");
            assert_eq!(
                reference.rows(),
                planned.rows(),
                "plan must be byte-identical"
            );
            let out = planned.len();
            let ref_t = time_cold(&pristine, |db| {
                std::hint::black_box(reference_evaluate(&m, db, &funcs).len());
            });
            let plan_t = time_cold(&pristine, |db| {
                std::hint::black_box(m.evaluate(db, &funcs).expect("evaluate").len());
            });
            let work = counted(|| {
                let _ = m.evaluate(&pristine.clone(), &funcs);
            });
            println!(
                "| {n} | {rows} | {filter} | {} | {} | {} | {} | {} | {out} |",
                fmt(ref_t),
                fmt(plan_t),
                ratio(ref_t, plan_t),
                work.get(clio_obs::Counter::PlanPushedFilters),
                work.get(clio_obs::Counter::PlanPrunedSubgraphs),
            );
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the process may run on, as `sched_getaffinity` returned
/// them at start-up (`None` if the call failed).
static ALLOWED: OnceLock<Option<CpuSet>> = OnceLock::new();

fn allowed_cpus() -> Option<CpuSet> {
    *ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of the size passed; pid 0
        // names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        (ok == 0).then_some(set)
    })
}

/// Restrict the calling thread (and the threads it starts later) to
/// `set`.
fn set_cpus(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of the size passed; pid 0 names
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

fn cpus_in(set: &CpuSet) -> impl Iterator<Item = usize> + '_ {
    (0..set.len() * 64).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
}

/// Pin the main thread to the highest-numbered allowed CPU; call it
/// before any thread starts (threads inherit the mask). Unpinned, paired
/// runs of unchanged code disagreed on a shared 2-core VM: ten
/// alternating `experiments b7` pairs of two commits read evolve
/// 1.04–1.16× apart on a path neither changed, and under `taskset` the
/// same pairs agreed to within 1%. Returns the CPU, or `None` if the
/// affinity calls fail (the sweeps then run unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    let cpu = cpus_in(&allowed_cpus()?).last()?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_cpus(&one).then_some(cpu)
}

/// Run a sweep that measures concurrency (B1's parallel naive, B11,
/// B15) on every allowed CPU: the main thread gets the start-up set
/// back before `sweep` starts its workers, and is pinned to one CPU
/// again afterwards. `sweep` is handed the set for its header
/// (`CPUs 0,1`, or `unpinned` if the affinity calls fail).
fn on_allowed_cpus<R>(sweep: impl FnOnce(&str) -> R) -> R {
    let cpus = match allowed_cpus() {
        Some(set) if set_cpus(&set) => {
            let list: Vec<String> = cpus_in(&set).map(|c| c.to_string()).collect();
            format!("CPUs {}", list.join(","))
        }
        _ => "unpinned".to_owned(),
    };
    let out = sweep(&cpus);
    pin_to_one_cpu();
    out
}

fn main() {
    let cpu = pin_to_one_cpu().map_or_else(|| "unpinned".to_owned(), |c| format!("CPU {c}"));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |key: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(key));
    println!("# Clio reproduction — experiment sweeps (median of {REPS} runs, {cpu})");
    if run("b1") {
        b1_full_disjunction();
    }
    if run("b2") {
        b2_subsumption();
    }
    if run("b3") {
        b3_illustration();
    }
    if run("b4") {
        b4_walk();
    }
    if run("b5") {
        b5_chase();
    }
    if run("b6") {
        b6_mapping_eval();
    }
    if run("b7") {
        b7_evolution();
    }
    if run("b8") {
        b8_expressions();
    }
    if run("b9") {
        b9_join_ablation();
    }
    if run("b10") {
        b10_warm_path();
    }
    if run("b11") {
        on_allowed_cpus(b11_concurrent_sessions);
    }
    if run("b12") {
        b12_persistence();
    }
    if run("b14") {
        b14_policy_budget_sweep();
    }
    if run("b15") {
        on_allowed_cpus(b15_networked_clients);
    }
    if run("b16") {
        b16_paged_backend();
    }
    if run("b17") {
        b17_planned_evaluation();
    }
}

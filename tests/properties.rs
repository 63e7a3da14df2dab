//! Property-based tests over the core invariants:
//!
//! * the optimized outer-join full disjunction agrees with the
//!   definitional algorithm on random tree workloads, and its tuple-id
//!   rows equal the value outer-join chain, `Q(M)` included;
//! * partitioned subsumption removal agrees with the naive definition;
//! * minimum union is commutative and idempotent;
//! * the minimal illustration (plain, focused or evolved) is sufficient,
//!   no larger than greedy's, and a brute-force minimum;
//! * illustration evolution preserves continuity and sufficiency;
//! * expression display/parse round-trips;
//! * wire frames decode to what was written, however the stream splits
//!   them, and bad bytes are an error, never a panic;
//! * so do the persisted-file decoders: heap records, index entries and
//!   cache files of both payload kinds.

use clio::core::evolution::extends;
use clio::core::illustration::satisfies;
use clio::core::plan::chain_ir;
use clio::datagen::synthetic::Synthetic;
use clio::prelude::*;
use proptest::prelude::*;

fn funcs() -> FuncRegistry {
    FuncRegistry::with_builtins()
}

fn spec_strategy(topologies: &'static [Topology]) -> impl Strategy<Value = SyntheticSpec> {
    (
        0..topologies.len(),
        2usize..5,
        5usize..25,
        0.0f64..1.0,
        proptest::num::u64::ANY,
    )
        .prop_map(
            move |(t, relations, rows, match_rate, seed)| SyntheticSpec {
                topology: topologies[t],
                relations,
                rows,
                match_rate,
                payload_attrs: 1,
                seed,
            },
        )
}

/// Picks for [`with_near_duplicates`]: `(relation, row, cell)` seeds.
fn near_duplicate_picks() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..16, 0usize..32, 0usize..8), 0..4)
}

/// `w` with near-duplicates injected: for each pick, a copy of one tuple
/// with one nullable cell (any but `id`) set to null. The copy is
/// subsumed by its original without being extended by any join — the
/// one way a row leaves a minimum union unextended, and one the
/// generator's unique ids never produce. A copy that equals its
/// original (the cell was null already) is a duplicate and ignored.
fn with_near_duplicates(mut w: Synthetic, picks: &[(usize, usize, usize)]) -> Synthetic {
    for &(r, k, c) in picks {
        let name = format!("R{}", r % w.graph.node_count());
        let mut rel = w.db.relation(&name).unwrap().clone();
        let mut row = rel.rows()[k % rel.len()].clone();
        let cell = 1 + c % (row.len() - 1);
        row[cell] = Value::Null;
        rel.insert(row).unwrap();
        w.db.replace_relation(rel).unwrap();
    }
    w
}

/// A chain's rows by hand, outside the plan interpreter: a left-deep
/// chain of value `ops::join`s of each step's kind in the chain's order.
fn value_join_chain(db: &Database, chain: &RelExpr, funcs: &FuncRegistry) -> Table {
    match chain {
        RelExpr::Scan { alias, relation } => db.relation(relation).unwrap().to_table(alias),
        RelExpr::Join {
            left,
            right,
            predicate,
            kind,
        } => {
            let (left, right) = (
                value_join_chain(db, left, funcs),
                value_join_chain(db, right, funcs),
            );
            join(&left, &right, predicate, *kind, funcs).unwrap()
        }
        other => panic!("not a join chain: {other:?}"),
    }
}

/// A tree's `D(G)` by hand: the value outer-join chain in [`chain_ir`]'s
/// join order ([`value_join_chain`]), padded to the graph scheme, then
/// the rows another row strictly subsumes removed by the pairwise
/// definition — the joined copies of near-duplicates, which the chain
/// alone keeps.
fn value_outer_join_chain(db: &Database, g: &QueryGraph, funcs: &FuncRegistry) -> Table {
    let chain = value_join_chain(db, &chain_ir(g, g.node_mask(), JoinKind::FullOuter), funcs);
    let mut padded = clio::relational::ops::pad_to(&chain, &g.scheme(db).unwrap()).unwrap();
    clio::relational::ops::remove_subsumed_naive(&mut padded);
    padded
}

/// The definitional minimum union: the tables' outer union, reduced by
/// the pairwise definition of subsumption.
fn minimum_union_by_definition(tables: &[&Table]) -> Table {
    let mut union = clio::relational::ops::outer_union_all(tables).unwrap();
    clio::relational::ops::remove_subsumed_naive(&mut union);
    union
}

/// The naive oracle's own padded union — each connected subgraph's
/// `F(J)`, in the oracle's order — reduced by the pairwise definition
/// instead of the engine's pass.
fn naive_fd_by_definition(db: &Database, g: &QueryGraph, funcs: &FuncRegistry) -> AssociationSet {
    let scheme = g.scheme(db).unwrap();
    let padded: Vec<Table> = connected_subsets(g)
        .into_iter()
        .map(|m| {
            let f = full_associations(db, g, m, funcs).unwrap();
            clio::relational::ops::pad_to(&f, &scheme).unwrap()
        })
        .collect();
    let refs: Vec<&Table> = padded.iter().collect();
    AssociationSet::from_table(g, minimum_union_by_definition(&refs))
}

/// `Q(M)` over a value `D(G)` by the relational operators: σ over the
/// source filters, π over the correspondences (an unmapped attribute is
/// null), duplicates dropped, then σ over the target filters.
fn project_by_operators(m: &Mapping, d: &Table, funcs: &FuncRegistry) -> Table {
    let filtered = m
        .source_filters
        .iter()
        .fold(d.clone(), |t, f| select(&t, f, funcs).unwrap());
    let outputs: Vec<(Expr, Column)> = m
        .target
        .attrs()
        .iter()
        .map(|a| {
            let expr = m
                .correspondence_for(&a.name)
                .map_or(Expr::Literal(Value::Null), |v| v.expr.clone());
            (expr, Column::new(m.target.name(), a.name.clone(), a.ty))
        })
        .collect();
    let mut projected = clio::relational::ops::project(&filtered, &outputs, funcs).unwrap();
    projected.dedup();
    m.target_filters
        .iter()
        .fold(projected, |t, f| select(&t, f, funcs).unwrap())
}

/// The requirements of Defs 4.2–4.5 read straight off the population:
/// categories by `(size, mask)`, then coverage, polarity (positive first)
/// and attribute values (non-null first), each kept if some example
/// satisfies it.
fn requirements_by_scan(population: &[Example], arity: usize) -> Vec<Requirement> {
    let mut coverages: Vec<u64> = population.iter().map(|e| e.coverage).collect();
    coverages.sort_by_key(|&c| (c.count_ones(), c));
    coverages.dedup();
    coverages
        .into_iter()
        .flat_map(|coverage| {
            let polarity =
                [true, false].map(|positive| Requirement::Polarity { coverage, positive });
            let attrs = (0..arity).flat_map(move |attr| {
                [true, false].map(|non_null| Requirement::AttrValue {
                    coverage,
                    attr,
                    non_null,
                })
            });
            std::iter::once(Requirement::Coverage(coverage))
                .chain(polarity)
                .chain(attrs)
        })
        .filter(|r| population.iter().any(|e| satisfies(&e.signature(), r)))
        .collect()
}

/// The fewest examples of `population` that make `fixed` plus them a
/// sufficient illustration (Def 4.6), by brute force: per coverage
/// category (no example satisfies requirements of two), the smallest set
/// of signature classes — one per distinct (polarity, target null-mask) —
/// that satisfies the category's requirements `fixed` leaves open.
fn minimum_completion_size(population: &[Example], arity: usize, fixed: &[Example]) -> usize {
    let coverage_of = |r: &Requirement| match *r {
        Requirement::Coverage(c) => c,
        Requirement::Polarity { coverage, .. } | Requirement::AttrValue { coverage, .. } => {
            coverage
        }
    };
    let signature = |e: &Example| {
        let nulls: Vec<bool> = e.target.iter().map(Value::is_null).collect();
        (e.coverage, e.positive, e.positive.then_some(nulls))
    };
    let mut classes: Vec<&Example> = Vec::new();
    for e in population {
        if !classes.iter().any(|c| signature(c) == signature(e)) {
            classes.push(e);
        }
    }
    let open: Vec<Requirement> = requirements_by_scan(population, arity)
        .into_iter()
        .filter(|r| !fixed.iter().any(|e| satisfies(&e.signature(), r)))
        .collect();
    let mut coverages: Vec<u64> = open.iter().map(coverage_of).collect();
    coverages.dedup();
    let mut total = 0;
    for coverage in coverages {
        let reqs: Vec<&Requirement> = open.iter().filter(|r| coverage_of(r) == coverage).collect();
        assert!(reqs.len() <= 64);
        let sets: Vec<u64> = classes
            .iter()
            .map(|e| {
                reqs.iter()
                    .enumerate()
                    .filter(|(_, r)| satisfies(&e.signature(), r))
                    .fold(0, |acc, (q, _)| acc | 1 << q)
            })
            .collect();
        let full = u64::MAX >> (64 - reqs.len());
        fn covers(size: usize, from: usize, have: u64, full: u64, sets: &[u64]) -> bool {
            have == full
                || size > 0
                    && (from..sets.len())
                        .any(|j| covers(size - 1, j + 1, have | sets[j], full, sets))
        }
        total += (1..=sets.len())
            .find(|&size| covers(size, 0, 0, full, &sets))
            .expect("the whole population is sufficient");
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On trees, the naive oracle equals, row for row, its own padded
    /// union reduced by the pairwise definition, and FD(outer-join)
    /// equals it up to row order.
    #[test]
    fn fd_algorithms_agree_on_trees(
        spec in spec_strategy(&[Topology::Chain, Topology::Star, Topology::RandomTree])
    ) {
        let w = generate(&spec);
        let funcs = funcs();
        let mut naive = full_disjunction_naive(&w.db, &w.graph, &funcs).unwrap();
        prop_assert_eq!(&naive, &naive_fd_by_definition(&w.db, &w.graph, &funcs));
        let mut outer = full_disjunction(&w.db, &w.graph, FdAlgo::OuterJoin, &funcs).unwrap();
        naive.sort_canonical(&w.graph);
        outer.sort_canonical(&w.graph);
        prop_assert_eq!(naive.table().rows(), outer.table().rows());
    }

    /// The tree `D(G)` runs on tuple ids. On trees with null and dangling
    /// links and near-duplicates injected, it equals — row for row,
    /// unsorted, coverages included — a left-deep chain of value
    /// `ops::join(.., FullOuter)`s in `chain_ir`'s order, padded, less the
    /// rows the pairwise minimum union removes. `Q(M)`,
    /// which reads the values it projects through the ids, equals the
    /// relational operators' projection of that reference, with and
    /// without source filters.
    #[test]
    fn tree_fd_on_tuple_ids_equals_the_value_outer_join_chain(
        spec in spec_strategy(&[Topology::Chain, Topology::Star, Topology::RandomTree]),
        picks in near_duplicate_picks(),
    ) {
        let w = with_near_duplicates(generate(&spec), &picks);
        let funcs = funcs();
        let reference = value_outer_join_chain(&w.db, &w.graph, &funcs);
        let fd = full_disjunction(&w.db, &w.graph, FdAlgo::Auto, &funcs).unwrap();
        prop_assert_eq!(&fd, &AssociationSet::from_table(&w.graph, reference.clone()));
        let last = w.graph.node_count() - 1;
        for filter in [
            None,
            Some("R0.p0 IS NOT NULL".to_owned()),
            Some(format!("R{last}.p0 <> R0.p0")),
            // a column no correspondence reads
            Some(format!("R{last}.id IS NOT NULL")),
        ] {
            let mut m = w.mapping.clone();
            m.source_filters.extend(filter.as_deref().map(|f| parse_expr(f).unwrap()));
            let q = m.evaluate(&w.db, &funcs).unwrap();
            let expected = project_by_operators(&m, &reference, &funcs);
            prop_assert_eq!(q.scheme(), expected.scheme(), "{:?}", filter);
            prop_assert_eq!(q.rows(), expected.rows(), "{:?}", filter);
        }
    }

    /// On cyclic graphs, near-duplicate tuples included, the naive
    /// oracle equals its own padded union reduced by the pairwise
    /// definition, and the executed `D(G)` (`FdAlgo::Auto`: the lattice
    /// union) equals the oracle — both row for row, unsorted; every
    /// association's coverage is an induced-connected subgraph.
    #[test]
    fn fd_on_cycles_is_consistent(
        spec in spec_strategy(&[Topology::Cycle]),
        picks in near_duplicate_picks(),
    ) {
        let w = with_near_duplicates(generate(&spec), &picks);
        let funcs = funcs();
        let a = full_disjunction_naive(&w.db, &w.graph, &funcs).unwrap();
        prop_assert_eq!(&a, &naive_fd_by_definition(&w.db, &w.graph, &funcs));
        if !w.graph.is_tree() {
            // (two relations make a one-edge "cycle": the tree plan runs)
            let auto = full_disjunction(&w.db, &w.graph, FdAlgo::Auto, &funcs).unwrap();
            prop_assert_eq!(auto.table().scheme(), a.table().scheme());
            prop_assert_eq!(auto.table().rows(), a.table().rows());
        }
        for i in 0..a.len() {
            prop_assert!(w.graph.is_subset_connected(a.coverage(i)));
        }
    }

    /// The lattice `D(G)` runs on tuple ids, its residual pass gated by
    /// the near-duplicate flag. On chains, stars and cycles with
    /// near-duplicates injected, a `Union` of every connected subgraph's
    /// chain, each under the source filters that bind it — all branches
    /// kept (every branch closed), or only those sharing an alias with
    /// the filter (as the pushdown prunes; parents left open) — equals,
    /// row order included, the definitional minimum union of the same
    /// filtered, padded `F(J)`s: without a cache, and cold and warm over
    /// one.
    #[test]
    fn lattice_fd_on_tuple_ids_equals_the_minimum_union_of_filtered_branches(
        spec in spec_strategy(&[Topology::Chain, Topology::Star, Topology::Cycle]),
        picks in near_duplicate_picks(),
    ) {
        use clio::core::plan::{Exec, FilterScope};
        let w = with_near_duplicates(generate(&spec), &picks);
        let (g, funcs) = (&w.graph, funcs());
        let pad = g.scheme(&w.db).unwrap();
        let last = g.node_count() - 1;
        let alias_mask = |e: &Expr| {
            e.qualifiers().into_iter().fold(0u64, |mask, q| {
                mask | 1 << g.nodes().iter().position(|n| n.alias == q).unwrap()
            })
        };
        for filter in [
            None,
            Some("R0.p0 IS NOT NULL".to_owned()),
            Some("R0.id = R1.id".to_owned()),
            Some("R0.p0 <> R1.p0".to_owned()),
            Some(format!("R{last}.p0 IS NOT NULL")),
        ] {
            let filter = filter.map(|f| parse_expr(&f).unwrap());
            let amask = filter.as_ref().map_or(0, alias_mask);
            for prune in [false, true] {
                let masks: Vec<u64> = connected_subsets(g)
                    .into_iter()
                    .filter(|&m| !prune || amask == 0 || m & amask != 0)
                    .collect();
                let mut inputs = Vec::new();
                let mut padded = Vec::new();
                for &m in &masks {
                    let mut input = chain_ir(g, m, JoinKind::Inner);
                    let mut f = value_join_chain(&w.db, &input, &funcs);
                    if let Some(e) = filter.as_ref().filter(|_| amask & !m == 0) {
                        input = input.filtered(e, FilterScope::Source, true);
                        f = select(&f, e, &funcs).unwrap();
                    }
                    inputs.push(input);
                    padded.push(clio::relational::ops::pad_to(&f, &pad).unwrap());
                }
                let refs: Vec<&Table> = padded.iter().collect();
                let expected = minimum_union_by_definition(&refs);
                let union = RelExpr::Union { inputs, masks, pad: pad.clone() };
                let cache = EvalCache::new();
                for (run, cache) in [None, Some(&cache), Some(&cache)].into_iter().enumerate() {
                    let ex = Exec { db: &w.db, funcs: &funcs, graph: g, cache };
                    let got = union.run(&ex).unwrap();
                    let at = format!("{filter:?}, prune {prune}, run {run}");
                    prop_assert_eq!(got.scheme(), expected.scheme(), "{}", at);
                    prop_assert_eq!(got.rows(), expected.rows(), "{}", at);
                }
            }
        }
    }

    /// Parallel naive FD is **byte-identical** to serial — same rows in
    /// the same order, no canonical sort — on random tree and cyclic
    /// workloads. This is the determinism contract of the exec layer:
    /// per-subgraph results are merged in canonical subgraph order no
    /// matter which worker computed them.
    #[test]
    fn parallel_fd_naive_is_byte_identical_to_serial(
        spec in spec_strategy(&[
            Topology::Chain, Topology::Star, Topology::RandomTree, Topology::Cycle,
        ])
    ) {
        let w = generate(&spec);
        let funcs = funcs();
        let serial = clio::relational::exec::with_threads(1, || {
            full_disjunction_naive(&w.db, &w.graph, &funcs).unwrap()
        });
        let parallel = clio::relational::exec::with_threads(4, || {
            full_disjunction_naive(&w.db, &w.graph, &funcs).unwrap()
        });
        // deliberately NO sort_canonical: row order is part of the claim
        prop_assert_eq!(serial.table().rows(), parallel.table().rows());
    }

    /// Subsumption removal: the engine's pass and the definition return
    /// the same rows in the same order on random nullable tables, and
    /// the result contains no strictly-subsumed pair.
    #[test]
    fn subsumption_algorithms_agree(
        rows in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u8..4), 4),
            0..40,
        )
    ) {
        let scheme = Scheme::new(
            (0..4).map(|i| Column::new("R", format!("a{i}"), DataType::Int)).collect(),
        );
        let to_table = || Table::new(
            scheme.clone(),
            rows.iter()
                .map(|r| r.iter().map(|c| match c {
                    None => Value::Null,
                    Some(v) => Value::Int(i64::from(*v)),
                }).collect())
                .collect(),
        );
        let mut a = to_table();
        let mut b = to_table();
        clio::relational::ops::remove_subsumed_naive(&mut a);
        clio::relational::ops::remove_subsumed_partitioned(&mut b);
        prop_assert_eq!(a.rows(), b.rows());
        for (i, x) in a.rows().iter().enumerate() {
            for (j, y) in a.rows().iter().enumerate() {
                if i != j {
                    prop_assert!(!clio::relational::ops::strictly_subsumes(x, y));
                }
            }
        }
    }

    /// Minimum union is commutative, and self-union removes exactly the
    /// subsumed tuples.
    #[test]
    fn minimum_union_properties(
        rows in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(0u8..3), 3),
            0..25,
        ),
        split in 0usize..25,
    ) {
        let scheme = Scheme::new(
            (0..3).map(|i| Column::new("R", format!("a{i}"), DataType::Int)).collect(),
        );
        let all: Vec<Vec<Value>> = rows.iter()
            .map(|r| r.iter().map(|c| match c {
                None => Value::Null,
                Some(v) => Value::Int(i64::from(*v)),
            }).collect())
            .collect();
        let k = split.min(all.len());
        let t1 = Table::new(scheme.clone(), all[..k].to_vec());
        let t2 = Table::new(scheme.clone(), all[k..].to_vec());

        let mut ab = minimum_union(&t1, &t2).unwrap();
        let mut ba = minimum_union(&t2, &t1).unwrap();
        ab.sort_canonical();
        ba.sort_canonical();
        prop_assert_eq!(ab.rows(), ba.rows());

        let mut self_union = minimum_union(&t1, &t1).unwrap();
        let mut t1d = t1.clone();
        clio::relational::ops::remove_subsumed_naive(&mut t1d);
        self_union.sort_canonical();
        t1d.sort_canonical();
        prop_assert_eq!(self_union.rows(), t1d.rows());
    }

    /// Over a mapping's population with some target values nulled,
    /// `requirements` lists what a scan finds; the minimal illustration is
    /// sufficient, no larger than greedy's, and
    /// exactly as large as a brute-force minimum over signature classes;
    /// a focused one keeps its required examples first and adds a minimum
    /// number of examples.
    #[test]
    fn illustration_selection_invariants(
        spec in spec_strategy(&[
            Topology::Chain,
            Topology::Star,
            Topology::Cycle,
            Topology::RandomTree,
        ]),
        focus in (0usize..4, 1usize..6),
        nulls in proptest::collection::vec((0usize..64, 0usize..8), 0..24),
    ) {
        let w = generate(&spec);
        let funcs = funcs();
        let mut population = w.mapping.examples(&w.db, &funcs).unwrap();
        let arity = w.mapping.target.arity();
        // Null some target values so categories hold many null-masks (the
        // generator's rows rarely do); selection reads only the population.
        for &(k, a) in &nulls {
            let k = k % population.len();
            population[k].target[a % arity] = Value::Null;
        }
        let scope = SufficiencyScope::mapping();

        prop_assert_eq!(
            requirements(&population, arity, scope),
            requirements_by_scan(&population, arity)
        );
        let greedy = select_greedy(&population, arity, scope);
        let g_ill: Vec<Example> = greedy.iter().map(|&i| population[i].clone()).collect();
        prop_assert!(is_sufficient(&g_ill, &population, arity, scope));

        let ill = Illustration::minimal_sufficient(&population, arity);
        prop_assert!(is_sufficient(&ill.examples, &population, arity, scope));
        prop_assert!(ill.len() <= greedy.len());
        prop_assert_eq!(ill.len(), minimum_completion_size(&population, arity, &[]));

        let (skip, step) = focus;
        let required: Vec<Example> =
            population.iter().skip(skip).step_by(step).cloned().collect();
        let focused = Illustration::minimal_sufficient_focused(&population, arity, &required);
        prop_assert_eq!(&focused.examples[..required.len()], &required[..]);
        prop_assert!(is_sufficient(&focused.examples, &population, arity, scope));
        prop_assert_eq!(
            focused.len() - required.len(),
            minimum_completion_size(&population, arity, &required)
        );
    }

    /// Evolving an illustration across a graph extension preserves
    /// continuity and restores sufficiency.
    #[test]
    fn evolution_invariants(
        rows in 5usize..20,
        match_rate in 0.0f64..1.0,
        seed in proptest::num::u64::ANY,
    ) {
        let spec = SyntheticSpec {
            topology: Topology::Chain,
            relations: 3,
            rows,
            match_rate,
            payload_attrs: 1,
            seed,
        };
        let w = generate(&spec);
        let funcs = funcs();

        // old mapping: first two relations of the chain
        let mut old_graph = QueryGraph::new();
        old_graph.add_node(Node::new("R0")).unwrap();
        old_graph.add_node(Node::new("R1")).unwrap();
        old_graph
            .add_edge(0, 1, parse_expr("R1.l0 = R0.id").unwrap())
            .unwrap();
        let mut old_m = w.mapping.clone();
        old_m.graph = old_graph;
        old_m.correspondences.retain(|c| {
            c.source_qualifiers().iter().all(|q| *q == "R0" || *q == "R1")
        });

        let old_pop = old_m.examples(&w.db, &funcs).unwrap();
        let old_ill = Illustration::minimal_sufficient(&old_pop, old_m.target.arity());

        let evo = evolve_illustration(&old_ill, &old_m, &w.mapping, &w.db, &funcs).unwrap();
        let old_scheme = old_m.graph.scheme(&w.db).unwrap();
        let new_scheme = w.mapping.graph.scheme(&w.db).unwrap();
        prop_assert!(continuity_holds(
            &old_ill, &evo.illustration, &old_scheme, &new_scheme).unwrap());

        let new_pop = w.mapping.examples(&w.db, &funcs).unwrap();
        let arity = w.mapping.target.arity();
        prop_assert!(is_sufficient(
            &evo.illustration.examples,
            &new_pop,
            arity,
            SufficiencyScope::mapping(),
        ));
        // the extensions come first, then the fewest repairs
        let (extensions, repairs) = evo.illustration.examples.split_at(evo.extended_count);
        prop_assert_eq!(repairs.len(), evo.repair_count);
        let positions = new_scheme.positions_of(&old_scheme).unwrap();
        for e in extensions {
            prop_assert!(old_ill.examples.iter().any(|old| {
                positions
                    .iter()
                    .zip(&old.association)
                    .all(|(&p, v)| v.is_null() || e.association[p] == *v)
            }));
        }
        prop_assert_eq!(
            evo.repair_count,
            minimum_completion_size(&new_pop, arity, extensions)
        );
    }
}

/// The numbers a [`numeric_source`] column holds: `Int(2^53)` equals
/// `Float(2^53)`, which `Int(2^53 + 1)` does not.
fn numeric_pool() -> [Value; 5] {
    let big = 1i64 << 53;
    [
        Value::Int(big),
        Value::Float(big as f64),
        Value::Int(big + 1),
        Value::Int(7),
        Value::Null,
    ]
}

/// `w` with a nullable float column `q` before every relation's `id`,
/// each cell drawn from [`numeric_pool`] by `picks`: an association's
/// first non-null column is then often a number.
fn numeric_source(w: Synthetic, picks: &[usize]) -> Synthetic {
    let pool = numeric_pool();
    let mut db = Database::new();
    for (i, node) in w.graph.nodes().iter().enumerate() {
        let rel = w.db.relation(&node.relation).unwrap();
        let mut attrs = vec![Attribute::new("q", DataType::Float)];
        attrs.extend(rel.schema().attrs().iter().cloned());
        let schema = RelSchema::new(rel.name(), attrs).unwrap();
        let rows = rel
            .rows()
            .iter()
            .enumerate()
            .map(|(k, row)| {
                let pick = picks[(i * 7 + k) % picks.len()] + k;
                std::iter::once(pool[pick % pool.len()].clone())
                    .chain(row.iter().cloned())
                    .collect()
            })
            .collect();
        db.add_relation(Relation::with_rows(schema, rows).unwrap())
            .unwrap();
    }
    Synthetic { db, ..w }
}

/// `db` with one cell of a tuple `old` holds changed: the tuple of the
/// `pick`-th node `old` covers, and its cell `column` of those other
/// than `id` (the number, a join column or the payload) set to another
/// value of its kind or to null.
fn edit_held_tuple(
    db: &Database,
    graph: &QueryGraph,
    old: &Example,
    (pick, column, value): (usize, usize, usize),
) -> Relation {
    let covered: Vec<usize> = (0..graph.node_count())
        .filter(|&v| old.coverage & 1 << v != 0)
        .collect();
    let v = covered[pick % covered.len()];
    // the graph scheme lays the nodes out in order, `id` second
    let offset: usize = graph.nodes()[..v]
        .iter()
        .map(|n| db.relation(&n.relation).unwrap().schema().arity())
        .sum();
    let rel = db.relation(&graph.nodes()[v].relation).unwrap();
    let schema = rel.schema().clone();
    let mut rows = rel.rows().to_vec();
    let id = &old.association[offset + 1];
    let row = rows.iter_mut().find(|row| row[1] == *id).unwrap();
    let others: Vec<usize> = (0..schema.arity()).filter(|&c| c != 1).collect();
    let c = others[column % others.len()];
    row[c] = if c == 0 {
        numeric_pool()[value % 5].clone()
    } else if value % 4 == 0 {
        Value::Null
    } else if let Some(a) = schema.attrs()[c].name.strip_prefix('l') {
        Value::str(format!("r{a}-{}", value % 8))
    } else {
        Value::str(format!("v0-{}", value % 3))
    };
    Relation::with_rows(schema, rows).unwrap()
}

/// Continuous evolution by definition: every old example, in order,
/// takes each population example that extends it (`extends`) and that
/// no earlier one took, scanning the whole population built by
/// `Mapping::examples`; then the cover solver adds the fewest examples
/// restoring sufficiency, over those full examples.
fn evolve_by_scan(
    old_ill: &Illustration,
    old_m: &Mapping,
    new_m: &Mapping,
    db: &Database,
) -> Evolution {
    let population = new_m.examples(db, &funcs()).unwrap();
    let old_scheme = old_m.graph.scheme(db).unwrap();
    let new_scheme = new_m.graph.scheme(db).unwrap();
    let mut taken = vec![false; population.len()];
    let mut extensions = Vec::new();
    for old in &old_ill.examples {
        for (i, e) in population.iter().enumerate() {
            if !taken[i]
                && extends(&old_scheme, &old.association, &new_scheme, &e.association).unwrap()
            {
                taken[i] = true;
                extensions.push(e.clone());
            }
        }
    }
    let illustration =
        Illustration::minimal_sufficient_focused(&population, new_m.target.arity(), &extensions);
    Evolution {
        extended_count: extensions.len(),
        repair_count: illustration.len() - extensions.len(),
        illustration,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Evolution equals its definition ([`evolve_by_scan`]) on chains and
    /// cycles with a number column (`Int(2^53)` beside `Float(2^53)`):
    /// a session's evolution across an edit of a tuple an old example
    /// holds (a number, a join column or the payload), and evolution
    /// across a walk onto the whole graph from its last two nodes, whose
    /// columns move. Both old illustrations get more old examples: one
    /// holding only numbers, whose probe finds several tuples, and an
    /// all-null one, which every row extends.
    #[test]
    fn evolution_is_the_definitional_scan(
        cycle in proptest::bool::ANY,
        rows in 4usize..10,
        match_rate in 0.3f64..1.0,
        seed in proptest::num::u64::ANY,
        picks in proptest::collection::vec(0usize..5, 1..8),
        edit in (0usize..8, 0usize..8, 0usize..8, 0usize..16),
        extra in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let spec = SyntheticSpec {
            topology: if cycle { Topology::Cycle } else { Topology::Chain },
            relations: 3,
            rows,
            match_rate,
            payload_attrs: 1,
            seed,
        };
        let w = numeric_source(generate(&spec), &picks);
        let m = w.mapping.clone();
        let arity = m.target.arity();

        // an edit, through a session
        let mut s = Session::new(w.db.clone(), w.target.clone());
        s.adopt_mapping(m.clone(), "under test").unwrap();
        let before = s.active().unwrap().illustration.clone();
        let population = m.examples(&w.db, &funcs()).unwrap();
        prop_assert_eq!(&before, &Illustration::minimal_sufficient(&population, arity));
        let (k, pick, column, value) = edit;
        let held = &before.examples[k % before.len()];
        let rel = edit_held_tuple(&w.db, &m.graph, held, (pick, column, value));
        let mut edited = w.db.clone();
        edited.replace_relation(rel.clone()).unwrap();
        s.replace_relation(rel).unwrap();
        prop_assert_eq!(
            &s.active().unwrap().illustration,
            &evolve_by_scan(&before, &m, &m, &edited).illustration
        );

        // a walk onto the whole graph, from the mapping of its last two
        // nodes, over the edited data
        let mut graph = QueryGraph::new();
        graph.add_node(Node::new("R1")).unwrap();
        graph.add_node(Node::new("R2")).unwrap();
        let edge = m.graph.edges().iter().find(|e| e.a + e.b == 3).unwrap();
        graph.add_edge(0, 1, edge.predicate.clone()).unwrap();
        let mut old_m = m.clone();
        old_m.graph = graph;
        old_m.correspondences.retain(|c| {
            c.source_qualifiers().iter().all(|q| *q == "R1" || *q == "R2")
        });
        // more old examples: one with an all-null association, and one
        // holding only numbers, which many tuples share
        let grown = |ill: &Illustration, population: &[Example], scheme: &Scheme| {
            let mut ill = ill.clone();
            ill.examples.extend(extra.iter().map(|&x| population[x % population.len()].clone()));
            let mut sparse = population[extra.len() % population.len()].clone();
            for (cell, column) in sparse.association.iter_mut().zip(scheme.columns()) {
                if column.name != "q" {
                    *cell = Value::Null;
                }
            }
            ill.examples.insert(0, sparse);
            let mut all_null = population[0].clone();
            all_null.association.fill(Value::Null);
            ill.examples.insert(1 + extra.len() % ill.len(), all_null);
            ill
        };
        let old_pop = old_m.examples(&w.db, &funcs()).unwrap();
        let old_scheme = old_m.graph.scheme(&w.db).unwrap();
        let walked = grown(&Illustration::minimal_sufficient(&old_pop, arity), &old_pop, &old_scheme);
        prop_assert_eq!(
            evolve_illustration(&walked, &old_m, &m, &edited, &funcs()).unwrap(),
            evolve_by_scan(&walked, &old_m, &m, &edited)
        );
        let edited_over = grown(&before, &population, &m.graph.scheme(&w.db).unwrap());
        prop_assert_eq!(
            evolve_illustration(&edited_over, &m, &m, &edited, &funcs()).unwrap(),
            evolve_by_scan(&edited_over, &m, &m, &edited)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every data-walk alternative is structurally sound: connected graph,
    /// original graph preserved as an induced subgraph (same nodes/edges),
    /// correspondences and filters inherited verbatim.
    #[test]
    fn walk_alternatives_are_structural_extensions(
        relations in 3usize..6,
        rows in 5usize..20,
        seed in proptest::num::u64::ANY,
    ) {
        let spec = SyntheticSpec {
            topology: Topology::RandomTree,
            relations,
            rows,
            match_rate: 0.8,
            payload_attrs: 1,
            seed,
        };
        let w = generate(&spec);
        let funcs = funcs();
        // start from R0 alone, walk to the last relation
        let mut g = QueryGraph::new();
        g.add_node(Node::new("R0")).unwrap();
        let mut m = w.mapping.clone();
        m.graph = g;
        m.correspondences.retain(|c| c.source_qualifiers() == vec!["R0"]);
        let end = format!("R{}", relations - 1);
        let alts = data_walk(&m, &w.db, &w.knowledge, "R0", &end, relations, &funcs)
            .unwrap();
        for alt in alts {
            let ag = &alt.mapping.graph;
            prop_assert!(ag.is_connected());
            prop_assert!(ag.node_by_alias("R0").is_some());
            prop_assert!(ag.node_by_alias(&end).is_some());
            prop_assert_eq!(&alt.mapping.correspondences, &m.correspondences);
            prop_assert_eq!(&alt.mapping.source_filters, &m.source_filters);
            // the original node set survives
            for n in m.graph.nodes() {
                prop_assert!(ag.node_by_alias(&n.alias).is_some());
            }
            // and the alternative validates
            alt.mapping.validate(&w.db, &funcs).unwrap();
        }
    }

    /// Every chase alternative adds exactly one node and one equijoin
    /// edge, anchored at the chased attribute.
    #[test]
    fn chase_alternatives_add_one_node_one_edge(
        rows in 5usize..25,
        seed in proptest::num::u64::ANY,
        probe_idx in 0usize..25,
    ) {
        let spec = SyntheticSpec {
            topology: Topology::Chain,
            relations: 3,
            rows,
            match_rate: 0.9,
            payload_attrs: 1,
            seed,
        };
        let w = generate(&spec);
        let funcs = funcs();
        let index = ValueIndex::build(&w.db);
        let mut g = QueryGraph::new();
        g.add_node(Node::new("R0")).unwrap();
        let m = Mapping::new(g, w.target.clone())
            .with_correspondence(ValueCorrespondence::identity("R0.id", "B0"));
        let probe = Value::str(format!("r0-{}", probe_idx % rows));
        let alts = data_chase(&m, &w.db, &index, "R0", "id", &probe, &funcs).unwrap();
        for alt in alts {
            prop_assert_eq!(alt.mapping.graph.node_count(), 2);
            prop_assert_eq!(alt.mapping.graph.edges().len(), 1);
            let edge = &alt.mapping.graph.edges()[0];
            prop_assert!(edge.predicate.to_string().starts_with("R0.id = "));
            prop_assert!(alt.occurrence_count >= 1);
        }
    }

    /// A session's merged target view over two accepted mappings is
    /// their minimum union by the definition, with the cache off, with
    /// it on (the second preview merges cached copies of each `Q(M)`,
    /// which carry no index), and in a fresh session over a disk store
    /// the first one spilled to (whose decoded tables are not flagged as
    /// sets). It never contains a subsumed pair and never loses a
    /// maximal tuple relative to the plain union of the two results.
    #[test]
    fn target_merge_invariants(
        rows in 4usize..16,
        seed in proptest::num::u64::ANY,
    ) {
        let spec = SyntheticSpec {
            topology: Topology::Chain,
            relations: 2,
            rows,
            match_rate: 0.5,
            payload_attrs: 1,
            seed,
        };
        let w = generate(&spec);
        let funcs = funcs();
        // two mappings: the full one and an R0-only partial one
        let mut partial = w.mapping.clone();
        let mut g = QueryGraph::new();
        g.add_node(Node::new("R0")).unwrap();
        partial.graph = g;
        partial.correspondences.retain(|c| c.source_qualifiers() == vec!["R0"]);

        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "clio-props-merge-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || -> std::sync::Arc<dyn clio_incr::CacheStore> {
            let namespace = clio_incr::database_digest(&w.db);
            std::sync::Arc::new(clio_incr::DiskStore::open(&dir, namespace))
        };
        let accepting = |cache: bool, store: Option<std::sync::Arc<dyn clio_incr::CacheStore>>| {
            let mut session = Session::new(w.db.clone(), w.mapping.target.clone());
            session.set_cache_enabled(cache);
            if let Some(store) = store {
                session.attach_store(store);
            }
            for m in [&w.mapping, &partial] {
                session.adopt_mapping(m.clone(), "accepted").unwrap();
                session.accept_active().unwrap();
            }
            session
        };
        let expected = format!(
            "{:?}",
            definitional_preview(&w.db, &funcs, &w.mapping.target, &[&w.mapping, &partial])
        );
        let spilling = accepting(true, Some(open()));
        let restarted_store = open();
        let sessions = [
            accepting(false, None),
            accepting(true, None),
            spilling,
            accepting(true, Some(std::sync::Arc::clone(&restarted_store))),
        ];
        for (k, session) in sessions.iter().enumerate() {
            for pass in 0..2 {
                let preview = format!("{:?}", session.target_preview());
                prop_assert_eq!(&preview, &expected, "session #{} pass {}", k, pass);
            }
        }
        prop_assert!(restarted_store.stats().hits > 0, "the restarted session read the disk");
        let _ = std::fs::remove_dir_all(&dir);

        let session = &sessions[0];
        let mut union: Vec<Vec<Value>> = Vec::new();
        for m in [&w.mapping, &partial] {
            for row in m.evaluate(&w.db, &funcs).unwrap().into_rows() {
                if !union.contains(&row) {
                    union.push(row);
                }
            }
        }
        let merged = session.target_preview().unwrap();
        prop_assert!(merged.len() <= union.len());
        // no subsumed pair survives
        for (i, a) in merged.rows().iter().enumerate() {
            for (j, b) in merged.rows().iter().enumerate() {
                if i != j {
                    prop_assert!(!clio::relational::ops::strictly_subsumes(a, b));
                }
            }
        }
        // every union tuple is subsumed by (or equal to) some merged tuple
        for u in &union {
            prop_assert!(merged
                .rows()
                .iter()
                .any(|m| clio::relational::ops::subsumes(m, u)));
        }
    }
}

// ---- incremental-cache transparency --------------------------------------

/// One session operator in a random refinement sequence. Each variant
/// carries an index into a fixed pool so shrinking stays meaningful.
#[derive(Debug, Clone, Copy)]
enum SessionOp {
    Corr(usize),
    ConfirmFirst,
    SourceFilter(usize),
    TargetFilter(usize),
    Walk(usize),
    Chase(usize),
    Require(usize),
    Preview,
    Accept,
    EditChildren,
}

const CORR_POOL: &[(&str, &str)] = &[
    ("Children.ID", "ID"),
    ("Children.name", "name"),
    ("Parents.affiliation", "affiliation"),
    ("SBPS.time", "BusSchedule"),
];
const SOURCE_FILTER_POOL: &[&str] = &["Children.age > 3", "Parents.salary > 50000"];
const TARGET_FILTER_POOL: &[&str] = &["name IS NOT NULL", "ID <> '009'"];
const WALK_POOL: &[&str] = &["Parents", "SBPS", "PhoneDir"];
const CHASE_POOL: &[(&str, &str, &str)] = &[("Children", "ID", "002"), ("Children", "mid", "201")];
const REQUIRE_POOL: &[&str] = &["BusSchedule", "affiliation"];

fn session_op_strategy() -> impl Strategy<Value = SessionOp> {
    // `Corr` and `Preview` appear several times to weight the sequence
    // toward operators that exercise (and then re-hit) the cache
    prop_oneof![
        (0..CORR_POOL.len()).prop_map(SessionOp::Corr),
        (0..CORR_POOL.len()).prop_map(SessionOp::Corr),
        (0..CORR_POOL.len()).prop_map(SessionOp::Corr),
        Just(SessionOp::ConfirmFirst),
        Just(SessionOp::ConfirmFirst),
        (0..SOURCE_FILTER_POOL.len()).prop_map(SessionOp::SourceFilter),
        (0..TARGET_FILTER_POOL.len()).prop_map(SessionOp::TargetFilter),
        (0..WALK_POOL.len()).prop_map(SessionOp::Walk),
        (0..CHASE_POOL.len()).prop_map(SessionOp::Chase),
        (0..REQUIRE_POOL.len()).prop_map(SessionOp::Require),
        Just(SessionOp::Preview),
        Just(SessionOp::Preview),
        Just(SessionOp::Preview),
        Just(SessionOp::Accept),
        Just(SessionOp::EditChildren),
    ]
}

/// Apply one operator and render everything observable about the outcome
/// into a string — success payloads, error messages, and preview tables
/// alike — so two sessions can be compared step by step.
fn apply_session_op(s: &mut Session, op: SessionOp, step: usize) -> String {
    fn fmt<T: std::fmt::Debug, E: std::fmt::Display>(r: std::result::Result<T, E>) -> String {
        match r {
            Ok(v) => format!("ok {v:?}"),
            Err(e) => format!("err {e}"),
        }
    }
    match op {
        SessionOp::Corr(i) => {
            let (expr, attr) = CORR_POOL[i % CORR_POOL.len()];
            fmt(s.add_correspondence(expr, attr))
        }
        SessionOp::ConfirmFirst => match s.workspaces().first().map(|w| w.id) {
            Some(id) => fmt(s.confirm(id)),
            None => "no workspace".to_owned(),
        },
        SessionOp::SourceFilter(i) => {
            fmt(s.add_source_filter(SOURCE_FILTER_POOL[i % SOURCE_FILTER_POOL.len()]))
        }
        SessionOp::TargetFilter(i) => {
            fmt(s.add_target_filter(TARGET_FILTER_POOL[i % TARGET_FILTER_POOL.len()]))
        }
        SessionOp::Walk(i) => fmt(s.data_walk(None, WALK_POOL[i % WALK_POOL.len()])),
        SessionOp::Chase(i) => {
            let (alias, attr, value) = CHASE_POOL[i % CHASE_POOL.len()];
            fmt(s.data_chase(alias, attr, &Value::str(value)))
        }
        SessionOp::Require(i) => {
            fmt(s.require_target_attribute(REQUIRE_POOL[i % REQUIRE_POOL.len()]))
        }
        SessionOp::Preview => fmt(s.target_preview()),
        SessionOp::Accept => fmt(s.accept_active()),
        SessionOp::EditChildren => {
            // a content-only edit: one fresh child keyed by the step number
            let mut rel = s.database().relation("Children").unwrap().clone();
            let inserted = rel.insert(vec![
                Value::str(format!("9{step:02}")),
                Value::str(format!("kid{step}")),
                Value::Int(3 + step as i64),
                Value::str("201"),
                Value::Null,
                Value::str(format!("D9{step}")),
            ]);
            format!("{inserted:?} {}", fmt(s.replace_relation(rel)))
        }
    }
}

/// Everything user-visible about a session, rendered for comparison.
fn session_digest(s: &Session) -> String {
    let mut out = String::new();
    for w in s.workspaces() {
        out.push_str(&format!(
            "workspace {}: {:?} {:?}\n",
            w.id, w.mapping, w.illustration
        ));
    }
    out.push_str(&format!("accepted: {:?}\n", s.accepted()));
    out.push_str(&format!("preview: {:?}\n", s.target_preview()));
    out
}

/// What the widened transparency tests do besides [`SessionOp`]: a
/// one-tuple data edit of any relation, a redefinition of the `tag`
/// function a correspondence may use, and an in-place change of the
/// active workspace's mapping.
#[derive(Debug, Clone, Copy)]
enum WideOp {
    Session(SessionOp),
    /// `(relation, kind, pick)`: insert a tuple mixed from existing
    /// cells, delete one, update one cell (a join column included) to
    /// another tuple's value, insert a near-duplicate (a tuple with one
    /// nullable cell nulled); or, keeping the row count, overwrite one
    /// cell with a fresh value or null, swap two rows, or overwrite a
    /// row with a copy of another row with one nullable cell nulled.
    Edit(usize, usize, usize),
    /// Redefine `tag` to prefix its argument with this number.
    Redefine(usize),
    /// Map `name` through `tag(Children.name)`.
    CorrTag,
}

fn wide_op_strategy() -> impl Strategy<Value = WideOp> {
    // session operators and edits appear several times to weight the
    // sequence toward them
    prop_oneof![
        session_op_strategy().prop_map(WideOp::Session),
        session_op_strategy().prop_map(WideOp::Session),
        session_op_strategy().prop_map(WideOp::Session),
        edit_strategy(),
        edit_strategy(),
        (0usize..3).prop_map(WideOp::Redefine),
        Just(WideOp::CorrTag),
    ]
}

fn edit_strategy() -> impl Strategy<Value = WideOp> {
    (0usize..8, 0usize..7, 0usize..64).prop_map(|(r, k, p)| WideOp::Edit(r, k, p))
}

/// `tag`, prefixing a string argument with `k` (the function a
/// correspondence runs through, redefined by [`WideOp::Redefine`]).
fn register_tag(s: &mut Session, k: usize) {
    use clio::relational::funcs::Arity;
    s.funcs_mut().register(
        "tag",
        Arity::Exact(1),
        std::sync::Arc::new(move |args: &[Value]| {
            Ok(match &args[0] {
                Value::Str(v) => Value::str(format!("{k}:{v}")),
                other => other.clone(),
            })
        }),
    );
}

/// The relation `edit` makes of relation `rel % count` of `s`'s source
/// (see [`WideOp::Edit`]), or `None` when that edit has nothing to act
/// on.
fn edited_relation(s: &Session, rel: usize, kind: usize, pick: usize) -> Option<Relation> {
    let db = s.database();
    let count = db.relations().count();
    let relation = db.relations().nth(rel % count)?;
    let schema = relation.schema().clone();
    let mut rows = relation.rows().to_vec();
    let n = rows.len();
    if n == 0 {
        return None;
    }
    let at = pick % n;
    match kind {
        0 => rows.push(
            (0..schema.arity())
                .map(|c| rows[(at + c) % n][c].clone())
                .collect(),
        ),
        1 => {
            rows.remove(at);
        }
        2 => {
            let col = (pick / n) % schema.arity();
            rows[at][col] = rows[(at + 1) % n][col].clone();
        }
        3 => rows.push(nulled_copy(&schema, &rows[at])?),
        4 => {
            let col = (pick / n) % schema.arity();
            let attr = &schema.attrs()[col];
            rows[at][col] = match attr.ty {
                _ if !attr.not_null && pick.is_multiple_of(3) => Value::Null,
                DataType::Int => Value::Int(1_000 + pick as i64),
                DataType::Float => Value::Float(0.5 + pick as f64),
                DataType::Bool => Value::Bool(!matches!(rows[at][col], Value::Bool(true))),
                DataType::Str => Value::str(format!("fresh{pick}")),
            };
        }
        5 => rows.swap(at, (at + 1 + pick / n) % n),
        _ => rows[at] = nulled_copy(&schema, &rows[(at + 1 + pick / n) % n])?,
    }
    Relation::with_rows(schema, rows).ok()
}

/// A copy of `row` with its first non-null nullable cell nulled: a
/// near-duplicate of `row`, or `None` when it has no such cell or the
/// copy would be all null.
fn nulled_copy(schema: &RelSchema, row: &[Value]) -> Option<Vec<Value>> {
    let mut copy = row.to_vec();
    let col = schema
        .attrs()
        .iter()
        .enumerate()
        .position(|(c, a)| !a.not_null && !copy[c].is_null())?;
    copy[col] = Value::Null;
    (!copy.iter().all(Value::is_null)).then_some(copy)
}

fn apply_wide_op(s: &mut Session, op: WideOp, step: usize) -> String {
    match op {
        WideOp::Session(op) => apply_session_op(s, op, step),
        WideOp::Edit(rel, kind, pick) => match edited_relation(s, rel, kind, pick) {
            Some(edited) => format!("{:?}", s.replace_relation(edited)),
            None => "no edit".to_owned(),
        },
        WideOp::Redefine(k) => {
            register_tag(s, k);
            "redefined".to_owned()
        }
        WideOp::CorrTag => format!("{:?}", s.add_correspondence("tag(Children.name)", "name")),
    }
}

/// The session's target view recomputed from scratch: every accepted
/// mapping and the active one evaluated with no cache and no compiled
/// form kept, then merged by the definition ([`definitional_preview`]).
fn fresh_preview(s: &Session) -> String {
    let mut mappings: Vec<&Mapping> = s.accepted().iter().collect();
    mappings.extend(s.active().map(|w| &w.mapping));
    let fresh = definitional_preview(s.database(), s.funcs(), s.target_schema(), &mappings);
    format!("{fresh:?}")
}

/// The minimum union of the mappings' results by its definition, with
/// none of the engine's hashed set machinery: the outer union by a
/// `Vec::contains` scan, keeping first occurrences, then the pairwise
/// subsumption pass on a table that promises nothing of its rows.
fn definitional_preview(
    db: &Database,
    funcs: &FuncRegistry,
    target: &RelSchema,
    mappings: &[&Mapping],
) -> clio::relational::error::Result<Table> {
    let mut union: Vec<Vec<Value>> = Vec::new();
    for m in mappings {
        for row in m.evaluate(db, funcs)?.into_rows() {
            if !union.contains(&row) {
                union.push(row);
            }
        }
    }
    let mut out = Table::new(Scheme::of_relation(target, target.name()), union);
    clio::relational::ops::remove_subsumed_naive(&mut out);
    Ok(out)
}

/// Replay `ops` on `cached` and `plain` (cache off), checking at every
/// step that both return the same, and that each one's target view is
/// the one recomputed from scratch.
fn replay_wide(cached: &mut Session, plain: &mut Session, ops: &[WideOp]) {
    for (step, &op) in ops.iter().enumerate() {
        let a = apply_wide_op(cached, op, step);
        let b = apply_wide_op(plain, op, step);
        prop_assert_eq!(a, b, "diverged at step {} ({:?})", step, op);
        for s in [&*cached, &*plain] {
            let preview = format!("{:?}", s.target_preview());
            prop_assert_eq!(
                preview,
                fresh_preview(s),
                "stale at step {} ({:?})",
                step,
                op
            );
        }
    }
    prop_assert_eq!(session_digest(cached), session_digest(plain));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The evaluation cache is **transparent**: an arbitrary operator
    /// sequence (correspondences, confirms, filters, walks, chases,
    /// previews, accepts, function redefinitions, and data edits —
    /// inserts, deletes, one-cell updates of join columns too, and
    /// near-duplicates, on any relation) replayed on a cache-enabled and
    /// a cache-disabled paper session produces byte-identical outcomes at
    /// every step, and byte-identical final state; and at every step each
    /// session's target view equals one recomputed from scratch, so no
    /// compiled mapping outlives the mapping, schemes or functions it was
    /// built from. The cached session's byte budget ranges from nothing
    /// resident, through budgets tight enough to force evictions, to
    /// unbounded: eviction decides only which entries stay resident (and
    /// therefore what gets recomputed), never what any operator returns.
    #[test]
    fn cache_is_transparent_to_operator_sequences(
        ops in proptest::collection::vec(wide_op_strategy(), 1..12),
        budget in prop_oneof![
            Just(0usize),
            Just(2_048usize),
            Just(8_192usize),
            Just(usize::MAX),
        ],
    ) {
        let mut cached = Session::new(paper_database(), kids_target());
        cached.cache().set_capacity(budget);
        let mut plain = Session::new(paper_database(), kids_target());
        plain.set_cache_enabled(false);
        for s in [&mut cached, &mut plain] {
            register_tag(s, 0);
        }
        replay_wide(&mut cached, &mut plain, &ops);
    }

    /// [`cache_is_transparent_to_operator_sequences`]'s edits and checks
    /// on a synthetic cycle, where `D(G)` is the lattice and the cache
    /// holds each `F(J)`: the mapping adopted, then previews, source
    /// filters, accepts and data edits of any relation.
    #[test]
    fn cache_is_transparent_to_edits_on_a_cycle(
        rows in 4usize..10,
        seed in proptest::num::u64::ANY,
        ops in proptest::collection::vec(
            prop_oneof![
                Just(WideOp::Session(SessionOp::Preview)),
                Just(WideOp::Session(SessionOp::Accept)),
                edit_strategy(),
                edit_strategy(),
                edit_strategy(),
            ],
            1..8,
        ),
        budget in prop_oneof![Just(0usize), Just(4_096usize), Just(usize::MAX)],
    ) {
        let spec = SyntheticSpec {
            topology: Topology::Cycle,
            relations: 3,
            rows,
            match_rate: 0.6,
            payload_attrs: 1,
            seed,
        };
        let build = || {
            let w = generate(&spec);
            let mut s = Session::new(w.db, w.target);
            s.adopt_mapping(w.mapping, "cycle under test").unwrap();
            s
        };
        let mut cached = build();
        cached.cache().set_capacity(budget);
        let mut plain = build();
        plain.set_cache_enabled(false);
        for s in [&mut cached, &mut plain] {
            prop_assert_eq!(format!("{:?}", s.add_source_filter("R0.id IS NOT NULL")), "Ok(())");
        }
        replay_wide(&mut cached, &mut plain, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrency and caching are **transparent to the session
    /// service**: the same per-session operator sequences replayed
    /// through a `SessionPool` serially (width 1) and concurrently
    /// (width 4), with the cache on and off, produce byte-identical
    /// per-session step outputs and final digests. `EditChildren`
    /// sequences exercise copy-on-write isolation: a session editing the
    /// shared snapshot must never perturb its siblings.
    #[test]
    fn session_pool_is_transparent_to_width_and_caching(
        per_session_ops in proptest::collection::vec(
            proptest::collection::vec(session_op_strategy(), 1..8),
            2..5,
        )
    ) {
        let replay = |width: usize, cache: bool| -> Vec<String> {
            let mut pool = SessionPool::new(paper_database(), kids_target()).with_width(width);
            pool.set_cache_enabled(cache);
            pool.run(per_session_ops.len(), |i, mut s| {
                let mut log = String::new();
                for (step, &op) in per_session_ops[i].iter().enumerate() {
                    log.push_str(&apply_session_op(&mut s, op, step));
                    log.push('\n');
                }
                log.push_str(&session_digest(&s));
                log
            })
        };
        let baseline = replay(1, true);
        for (width, cache) in [(4, true), (1, false), (4, false)] {
            let run = replay(width, cache);
            prop_assert_eq!(
                &baseline, &run,
                "diverged at width {} cache {}", width, cache
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The **persistent** cache is transparent across a restart: replay
    /// an arbitrary operator sequence in a session that spills to an
    /// on-disk store, then replay the same sequence in a *fresh* session
    /// over a *fresh* [`clio_incr::DiskStore`] on the same directory —
    /// the disk-warmed replay must match a never-persisted baseline
    /// byte for byte at every step and in the final digest.
    #[test]
    fn disk_cache_is_transparent_across_restart(
        ops in proptest::collection::vec(session_op_strategy(), 1..10)
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "clio-props-restart-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let namespace = clio_incr::database_digest(&paper_database());
        let open = || -> std::sync::Arc<dyn clio_incr::CacheStore> {
            std::sync::Arc::new(clio_incr::DiskStore::open(&dir, namespace))
        };

        // process 1: a never-persisted baseline and a spilling session
        // replay side by side; the spilling session populates the store
        let mut baseline = Session::new(paper_database(), kids_target());
        let mut first = Session::new(paper_database(), kids_target());
        first.attach_store(open());
        for (step, &op) in ops.iter().enumerate() {
            let a = apply_session_op(&mut baseline, op, step);
            let b = apply_session_op(&mut first, op, step);
            prop_assert_eq!(&a, &b, "first run diverged at step {} ({:?})", step, op);
        }
        prop_assert_eq!(session_digest(&baseline), session_digest(&first));

        // process 2: a fresh session over a fresh store instance on the
        // same directory replays the same sequence disk-warm
        let mut cold = Session::new(paper_database(), kids_target());
        let mut restarted = Session::new(paper_database(), kids_target());
        restarted.attach_store(open());
        for (step, &op) in ops.iter().enumerate() {
            let a = apply_session_op(&mut cold, op, step);
            let b = apply_session_op(&mut restarted, op, step);
            prop_assert_eq!(&a, &b, "restarted run diverged at step {} ({:?})", step, op);
        }
        prop_assert_eq!(session_digest(&cold), session_digest(&restarted));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache transparency on **cyclic** graphs, where `D(G)` takes the
    /// naive per-subgraph path and the cache memoizes individual `F(J)`
    /// tables: previews, filters, and base-relation edits replay
    /// identically with the cache on and off.
    #[test]
    fn cache_is_transparent_on_cyclic_workloads(
        rows in 4usize..10,
        seed in proptest::num::u64::ANY,
        ops in proptest::collection::vec(0usize..4, 1..6),
    ) {
        let spec = SyntheticSpec {
            topology: Topology::Cycle,
            relations: 3,
            rows,
            match_rate: 0.6,
            payload_attrs: 1,
            seed,
        };
        let build = || {
            let w = generate(&spec);
            let mut s = Session::new(w.db, w.target);
            s.adopt_mapping(w.mapping, "cycle under test").unwrap();
            s
        };
        let mut cached = build();
        let mut plain = build();
        plain.set_cache_enabled(false);
        let apply = |s: &mut Session, op: usize, step: usize| match op {
            0 | 3 => format!("{:?}", s.target_preview()),
            1 => {
                // content edit on R0: synthesize a row from its schema
                let mut rel = s.database().relation("R0").unwrap().clone();
                let row: Vec<Value> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .enumerate()
                    .map(|(i, a)| match a.ty {
                        DataType::Int => Value::Int(900 + (step * 10 + i) as i64),
                        _ => Value::str(format!("z{step}-{i}")),
                    })
                    .collect();
                let inserted = rel.insert(row);
                format!("{inserted:?} {:?}", s.replace_relation(rel))
            }
            _ => format!("{:?}", s.add_source_filter("R0.id IS NOT NULL")),
        };
        for (step, &op) in ops.iter().enumerate() {
            let a = apply(&mut cached, op, step);
            let b = apply(&mut plain, op, step);
            prop_assert_eq!(a, b, "diverged at step {} (op {})", step, op);
        }
        prop_assert_eq!(session_digest(&cached), session_digest(&plain));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Collapsing the byte budget to zero at an arbitrary step empties
    /// the cache immediately, changes no answer afterwards, and leaves
    /// nothing resident through the end of the run.
    #[test]
    fn zero_capacity_empties_the_cache_without_changing_answers(
        ops in proptest::collection::vec(session_op_strategy(), 2..10),
        cut in 0usize..10,
    ) {
        let mut plain = Session::new(paper_database(), kids_target());
        plain.set_cache_enabled(false);
        let mut squeezed = Session::new(paper_database(), kids_target());
        let cut = cut % ops.len();
        for (step, &op) in ops.iter().enumerate() {
            if step == cut {
                squeezed.cache().set_capacity(0);
                let stats = squeezed.cache().stats();
                prop_assert_eq!(stats.entries, 0, "zero budget left entries resident");
                prop_assert_eq!(stats.bytes, 0, "zero budget left bytes accounted");
            }
            let a = apply_session_op(&mut plain, op, step);
            let b = apply_session_op(&mut squeezed, op, step);
            prop_assert_eq!(a, b, "diverged at step {} ({:?})", step, op);
        }
        let stats = squeezed.cache().stats();
        prop_assert_eq!(stats.entries, 0, "entries survived a zero budget");
        prop_assert_eq!(stats.bytes, 0);
        prop_assert_eq!(session_digest(&plain), session_digest(&squeezed));
    }
}

// ---- expression round-trip ----------------------------------------------

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..3usize, 0..3usize).prop_map(|(q, a)| Expr::col(&format!("Q{q}.a{a}"))),
        // non-negative only: `-1` displays as `-1`, which reparses as
        // Neg(1) — semantically equal but structurally different
        (0i64..50).prop_map(Expr::lit),
        "[a-z]{0,6}".prop_map(Expr::lit),
        Just(Expr::Literal(Value::Null)),
        Just(Expr::lit(true)),
        Just(Expr::lit(false)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Concat),
                ]
            )
                .prop_map(|(l, r, op)| Expr::binary(op, l, r)),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), proptest::bool::ANY).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(|args| Expr::Func {
                name: "concat".into(),
                args,
            }),
            (
                proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                proptest::option::of(inner.clone()),
            )
                .prop_map(|(branches, otherwise)| Expr::Case {
                    branches,
                    otherwise: otherwise.map(Box::new),
                }),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 1..3),
                proptest::bool::ANY
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), inner.clone(), inner, proptest::bool::ANY).prop_map(
                |(e, low, high, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                },
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV round-trips arbitrary relations, including empty strings,
    /// quotes, commas, newline-free junk, and nulls.
    #[test]
    fn csv_round_trip(
        rows in proptest::collection::vec(
            (
                proptest::num::i64::ANY,
                proptest::option::of("[ -~]{0,12}"), // printable ASCII incl. , and "
                proptest::option::of(proptest::num::i32::ANY),
            ),
            0..30,
        )
    ) {
        use clio::relational::csv::{relation_from_csv, relation_to_csv};
        use clio::relational::relation::Relation;
        use clio::relational::schema::RelSchema;

        let schema = RelSchema::new(
            "R",
            vec![
                Attribute::not_null("id", DataType::Int),
                Attribute::new("text", DataType::Str),
                Attribute::new("num", DataType::Int),
            ],
        )
        .unwrap();
        let mut rel = Relation::empty(schema);
        for (id, text, num) in rows {
            let row = vec![
                Value::Int(id),
                text.map(Value::str).unwrap_or(Value::Null),
                num.map(|n| Value::Int(i64::from(n))).unwrap_or(Value::Null),
            ];
            // relations reject all-null rows; id is always non-null here
            rel.insert(row).unwrap();
        }
        let csv = relation_to_csv(&rel);
        let back = relation_from_csv(rel.schema().clone(), &csv)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{csv}"));
        prop_assert_eq!(back.rows(), rel.rows());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary input — it returns a located
    /// error instead.
    #[test]
    fn parser_is_total_on_arbitrary_strings(s in "\\PC{0,60}") {
        let _ = parse_expr(&s); // must not panic
    }

    /// The parser never panics on expression-shaped token soup either.
    #[test]
    fn parser_is_total_on_token_soup(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("("), Just(")"), Just(","), Just("."),
                Just("AND"), Just("OR"), Just("NOT"), Just("IS"), Just("NULL"),
                Just("CASE"), Just("WHEN"), Just("THEN"), Just("END"),
                Just("BETWEEN"), Just("IN"), Just("||"), Just("="), Just("<"),
                Just("a"), Just("Q.a"), Just("'s'"), Just("1"), Just("1.5"),
            ],
            0..14,
        )
    ) {
        let text = tokens.join(" ");
        let _ = parse_expr(&text); // must not panic
    }

    /// `parse(display(e)) == e` for arbitrary expressions.
    #[test]
    fn expression_display_parse_round_trip(e in expr_strategy()) {
        let text = e.to_string();
        let reparsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("failed to reparse `{text}`: {err}"));
        prop_assert_eq!(reparsed, e);
    }

    /// `simplify(e)` evaluates identically to `e` on random rows, and is
    /// idempotent.
    #[test]
    fn simplify_preserves_semantics(
        e in expr_strategy(),
        row in proptest::collection::vec(
            proptest::option::of(-5i64..5), 9,
        )
    ) {
        use clio::relational::simplify::simplify;
        let scheme = Scheme::new(
            (0..3)
                .flat_map(|q| (0..3).map(move |a| Column::new(format!("Q{q}"), format!("a{a}"), DataType::Int)))
                .collect(),
        );
        let row: Vec<Value> = row
            .into_iter()
            .map(|v| v.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        let funcs = funcs();
        let simplified = simplify(&e);
        prop_assert_eq!(simplify(&simplified).to_string(), simplified.to_string());
        let a = e.eval(&scheme, &row, &funcs);
        let b = simplified.eval(&scheme, &row, &funcs);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), _) | (_, Err(_)) => {
                // pruning can remove erroring subexpressions (CASE branch
                // elimination), so only require: if the simplified form
                // errors, the original must too
            }
        }
    }
}

// ---- planner byte-identity and the MAP language --------------------------

/// Identifier pool for the language round-trip: plain names, language
/// and expression keywords, whitespace- and quote-bearing names —
/// everything the printers must quote for a reparse to survive.
fn odd_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[A-Za-z][A-Za-z0-9_]{0,6}".prop_map(|s: String| s),
        Just("from".to_owned()),
        Just("SELECT".to_owned()),
        Just("not null".to_owned()),
        Just("weird rel".to_owned()),
        Just("qu\"ote".to_owned()),
    ]
}

/// `Q(M)` with no pushdown: the definitional `D(G)` — the naive minimum
/// union on cyclic graphs, the outer-join chain on trees — and one
/// `MappingEvaluator` pass over it.
fn reference_evaluate(m: &Mapping, db: &Database, funcs: &FuncRegistry) -> Table {
    let assocs = if m.graph.is_tree() {
        full_disjunction(db, &m.graph, FdAlgo::OuterJoin, funcs).unwrap()
    } else {
        full_disjunction_naive(db, &m.graph, funcs).unwrap()
    };
    let eval = m.evaluator(db, funcs).unwrap();
    let mut out = Table::empty(m.target_scheme());
    for i in 0..assocs.len() {
        if let Some(row) = eval.target_row_if_passing(assocs.row(i), funcs).unwrap() {
            out.push_distinct(row);
        }
    }
    out
}

/// The subgraph of `g` induced by `mask`, nodes and edges in `g`'s order.
fn induced(g: &QueryGraph, mask: u64) -> QueryGraph {
    let mut sub = QueryGraph::new();
    let mut ids = vec![None; g.node_count()];
    for (i, n) in g.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            ids[i] = Some(sub.add_node(n.clone()).unwrap());
        }
    }
    for e in g.induced_edges(mask) {
        sub.add_edge(ids[e.a].unwrap(), ids[e.b].unwrap(), e.predicate.clone())
            .unwrap();
    }
    sub
}

/// `D(G)` by definition, canonically sorted: per induced connected
/// subgraph, Def 3.5's σ over × ([`full_associations_definitional`]),
/// padded, then the naive minimum union.
fn definitional_fd(db: &Database, g: &QueryGraph, funcs: &FuncRegistry) -> Table {
    let scheme = g.scheme(db).unwrap();
    let padded: Vec<Table> = connected_subsets(g)
        .into_iter()
        .map(|mask| {
            let sub = induced(g, mask);
            let f = clio::core::full_disjunction::full_associations_definitional(db, &sub, funcs)
                .unwrap();
            clio::relational::ops::pad_to(&f, &scheme).unwrap()
        })
        .collect();
    let refs: Vec<&Table> = padded.iter().collect();
    let mut fd = minimum_union_by_definition(&refs);
    fd.sort_canonical();
    fd
}

/// The matrix's cache configurations: off, on and unbounded, and on at
/// `tight` bytes.
fn matrix_caches(tight: usize) -> Vec<Option<EvalCache>> {
    vec![
        None,
        Some(EvalCache::new()),
        Some(EvalCache::with_capacity(tight)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential matrix. A tiny random mapping (trees and cycles,
    /// at most 4 relations × 6 rows, base-data nulls, near-duplicates)
    /// is evaluated — `Q(M)`, then the executed `D(G)`, cold and then
    /// again over the same cache — under every combination of cache
    /// (off, unbounded, or bounded at half the unbounded demand),
    /// worker threads (1, 4), backend (memory, paged with a 2-page pool)
    /// and source filter (none; `R0.p0 IS NOT NULL`; the two-alias
    /// `R0.id = R1.id` and `R0.p0 <> R1.p0`, pushed onto the branches
    /// binding both aliases only; and a filter on the last relation,
    /// whose pushdown prunes the parents the lattice joins extend).
    /// Every result is byte-identical to the cache-off, serial, memory
    /// run; that run's `Q(M)` is the no-pushdown reference's, and its
    /// `D(G)` sort-equals the definitional one.
    #[test]
    fn differential_matrix(
        spec in (
            prop_oneof![
                Just(Topology::Chain),
                Just(Topology::Star),
                Just(Topology::Cycle),
                Just(Topology::RandomTree),
            ],
            2usize..5,
            1usize..7,
            0.0f64..1.0,
            proptest::num::u64::ANY,
        )
            .prop_map(|(topology, relations, rows, match_rate, seed)| SyntheticSpec {
                topology,
                relations,
                rows,
                match_rate,
                payload_attrs: 1,
                seed,
            }),
        picks in near_duplicate_picks(),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let w = with_near_duplicates(generate(&spec), &picks);
        let funcs = funcs();
        let dir = std::env::temp_dir().join(format!(
            "clio-props-matrix-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        clio::relational::storage::save_database(&w.db, &dir, 64).unwrap();
        let paged = clio::relational::storage::open_paged(&dir, 2).unwrap();
        let definitional = definitional_fd(&w.db, &w.graph, &funcs);
        let last = w.graph.node_count() - 1;
        let filters = [
            None,
            Some("R0.p0 IS NOT NULL".to_owned()),
            Some("R0.id = R1.id".to_owned()),
            Some("R0.p0 <> R1.p0".to_owned()),
            Some(format!("R{last}.p0 IS NOT NULL")),
        ];
        for filter in filters {
            let mut m = w.mapping.clone();
            m.source_filters.extend(filter.as_deref().map(|f| parse_expr(f).unwrap()));
            let run = |db: &Database, cache: Option<&EvalCache>| {
                let q = m.evaluate_cached(db, &funcs, cache).unwrap();
                let d = full_disjunction_cached(db, &w.graph, FdAlgo::Auto, &funcs, cache)
                    .unwrap();
                (q, d.table().clone())
            };
            let baseline = clio::relational::exec::with_threads(1, || run(&w.db, None));
            let reference = reference_evaluate(&m, &w.db, &funcs);
            prop_assert_eq!(baseline.0.scheme(), reference.scheme());
            prop_assert_eq!(baseline.0.rows(), reference.rows());
            let mut fd = baseline.1.clone();
            fd.sort_canonical();
            prop_assert_eq!(fd.scheme(), definitional.scheme());
            prop_assert_eq!(fd.rows(), definitional.rows());

            let probe = EvalCache::new();
            run(&w.db, Some(&probe));
            let tight = (probe.stats().bytes / 2).max(1);
            for threads in [1, 4] {
                for (backend, db) in [("memory", &w.db), ("paged", &paged)] {
                    for (c, cache) in matrix_caches(tight).iter().enumerate() {
                        for pass in ["cold", "warm"] {
                            let got = clio::relational::exec::with_threads(threads, || {
                                run(db, cache.as_ref())
                            });
                            let at = format!(
                                "filter {filter:?}, {threads} threads, {backend}, cache {c}, {pass}"
                            );
                            prop_assert_eq!(got.0.scheme(), baseline.0.scheme(), "{}", at);
                            prop_assert_eq!(got.0.rows(), baseline.0.rows(), "{}", at);
                            prop_assert_eq!(got.1.scheme(), baseline.1.scheme(), "{}", at);
                            prop_assert_eq!(got.1.rows(), baseline.1.rows(), "{}", at);
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mapping evaluation — the plan, with its filter pushdown and its
    /// pulled-back target filters — is byte-identical to the
    /// no-pushdown reference over random topologies and a mix of
    /// pushable filters (strong single-alias, and the two-alias
    /// `R0.id = R1.id`, which branches such as `{R0}` and `{R0, R2}`
    /// bind only partially, so they stay unfiltered), non-pushable
    /// filters (`IS NULL`), and target filters, one of them over two
    /// attributes and one not strong (`B1 IS NULL`, which must not make
    /// `R1` required). `B0` is drawn from `R0.p0`, from two nodes
    /// (`coalesce(R0.p0, R1.p0)`) or through a non-strict function
    /// (`coalesce(R0.p0, 'x')`): the last two must not make `R0`
    /// required. A covered `R0` tuple may hold a null `p0`, so the
    /// authoritative target filter rejects rows the pullback keeps.
    #[test]
    fn planned_evaluation_is_byte_identical(
        spec in spec_strategy(&[Topology::Chain, Topology::Star, Topology::Cycle, Topology::RandomTree]),
        filters in proptest::collection::vec(0usize..8, 0..3),
        b0 in 0usize..3,
        null_p0 in proptest::option::of(0usize..32),
    ) {
        let mut w = generate(&spec);
        if let Some(k) = null_p0 {
            let r0 = w.db.relation("R0").unwrap();
            let mut rows = r0.rows().to_vec();
            let k = k % rows.len();
            *rows[k].last_mut().unwrap() = Value::Null;
            let r0 = Relation::with_rows(r0.schema().clone(), rows).unwrap();
            w.db.replace_relation(r0).unwrap();
        }
        let funcs = funcs();
        let mut m = w.mapping.clone();
        match b0 {
            1 => m.set_correspondence(ValueCorrespondence::parse("coalesce(R0.p0, R1.p0)", "B0").unwrap()),
            2 => m.set_correspondence(ValueCorrespondence::parse("coalesce(R0.p0, 'x')", "B0").unwrap()),
            _ => {}
        }
        for f in filters {
            match f {
                0 => m.source_filters.push(parse_expr("R0.id <> 'no-such'").unwrap()),
                1 => m.source_filters.push(parse_expr("R0.p0 IS NOT NULL").unwrap()),
                2 => m.source_filters.push(parse_expr("R0.p0 IS NULL").unwrap()),
                3 => m.source_filters.push(parse_expr("R0.id = R1.id").unwrap()),
                4 => m.target_filters.push(parse_expr("B0 IS NOT NULL OR B1 IS NOT NULL").unwrap()),
                5 => m.target_filters.push(parse_expr("B1 IS NOT NULL").unwrap()),
                6 => m.target_filters.push(parse_expr("B1 IS NULL").unwrap()),
                _ => m.target_filters.push(parse_expr("B0 IS NOT NULL").unwrap()),
            }
        }
        if b0 != 0 {
            let plan = clio::core::plan::Plan::new(&m, &w.db, &funcs, None).unwrap();
            prop_assert_eq!(plan.required_nodes() & 1, 0, "R0 required through {}", b0);
        }
        let reference = reference_evaluate(&m, &w.db, &funcs);
        let planned = m.evaluate(&w.db, &funcs).unwrap();
        prop_assert_eq!(reference.scheme(), planned.scheme());
        prop_assert_eq!(reference.rows(), planned.rows());
        // through a fresh cache, and through one whose `F(J)` entries the
        // filter-free twin warmed (pushed filters over cached chains)
        let fresh = EvalCache::new();
        let warmed = EvalCache::new();
        m.without_filters().evaluate_cached(&w.db, &funcs, Some(&warmed)).unwrap();
        for cache in [&fresh, &warmed] {
            let cached = m.evaluate_cached(&w.db, &funcs, Some(cache)).unwrap();
            prop_assert_eq!(reference.scheme(), cached.scheme());
            prop_assert_eq!(reference.rows(), cached.rows());
        }
    }

    /// `parse_map(print_mapping(m)) == m` for synthetic mappings across
    /// every topology the generator produces.
    #[test]
    fn lang_print_parse_round_trip(
        spec in spec_strategy(&[Topology::Chain, Topology::Star, Topology::Cycle, Topology::RandomTree]),
    ) {
        let printed = clio_lang::print_mapping(&w_mapping(&spec));
        let reparsed = clio_lang::parse_map(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse printed mapping: {e}\n{printed}"));
        prop_assert_eq!(reparsed, w_mapping(&spec));
    }

    /// The language round-trip also holds for hand-built mappings whose
    /// identifiers are keywords, carry whitespace, or embed quotes.
    #[test]
    fn lang_round_trip_survives_hostile_identifiers(
        t in odd_name(), ta in odd_name(),
        r1 in odd_name(), r2 in odd_name(), alias in odd_name(),
        code in proptest::option::of(odd_name()),
    ) {
        prop_assume!(r1 != r2 && alias != r1 && !t.is_empty());
        let target = RelSchema::new(&t, vec![Attribute::new(&ta, DataType::Str)]).unwrap();
        let mut g = QueryGraph::new();
        let a = g.add_node(Node::new(&r1)).unwrap();
        let mut n2 = Node::copy_of(&alias, &r2);
        if let Some(c) = &code {
            n2 = n2.with_code(c);
        }
        let b = g.add_node(n2).unwrap();
        g.add_edge(a, b, Expr::binary(
            BinOp::Eq,
            Expr::Column(ColumnRef::qualified(&r1, "x")),
            Expr::Column(ColumnRef::qualified(&alias, "y")),
        )).unwrap();
        let m = Mapping::new(g, target).with_correspondence(ValueCorrespondence::new(
            Expr::Column(ColumnRef::qualified(&r1, "x")),
            &ta,
        ));
        let printed = clio_lang::print_mapping(&m);
        let reparsed = clio_lang::parse_map(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse printed mapping: {e}\n{printed}"));
        prop_assert_eq!(reparsed, m.clone());
        // the target schema printed alone (`--target`, `_target.txt`)
        // reparses to itself
        let header = clio_lang::print_target_schema(&m.target);
        let reparsed = clio_lang::parse_target_schema(&header)
            .unwrap_or_else(|e| panic!("failed to reparse printed target: {e}\n{header}"));
        prop_assert_eq!(reparsed, m.target);
    }
}

/// Fragments the hostile-input soup is built from: the language's
/// keywords, its punctuation, unbalanced quotes, newlines, multibyte
/// characters, and the characters and numbers the lexer rejects or
/// reads specially.
const SOUP: &[&str] = &[
    "MAP",
    "FROM",
    "JOIN",
    "ON",
    "WHERE",
    "SOURCE",
    "TARGET",
    "SELECT",
    "AS",
    "CODE",
    "not",
    "null",
    "int",
    "str",
    "(",
    ")",
    ",",
    "\"",
    "'",
    "\"\"",
    "\n",
    " ",
    "é",
    "日本",
    "R",
    "R.x",
    ".",
    "=",
    "--",
    "1",
    "\u{1F600}",
    "T (",
    "a int",
    ";",
    "@",
    "!",
    "|",
    "||",
    "<>",
    "1.5",
    "9999999999999999999",
    "1R",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The mapping parsers read untrusted text (`load`, `--mapping`,
    /// `--target`, `_target.txt`): any soup of fragments yields `Ok` or
    /// `Err`, never a panic.
    #[test]
    fn mapping_parsers_never_panic_on_hostile_input(
        pieces in proptest::collection::vec(0..SOUP.len(), 0..40),
        map_prefix in proptest::bool::ANY,
    ) {
        let mut text: String = pieces.iter().map(|&i| SOUP[i]).collect();
        let _ = clio_lang::parse_target_schema(&text);
        if map_prefix {
            text.insert_str(0, "MAP ");
        }
        let _ = clio_lang::parse_map(&text);
    }
}

/// Does every `'...'` and `"..."` opened in `text` close? A doubled
/// quote inside one is an escape, which closes and reopens it.
fn quotes_close(text: &str) -> bool {
    let mut open = None;
    for c in text.chars() {
        match open {
            None if c == '\'' || c == '"' => open = Some(c),
            Some(q) if c == q => open = None,
            _ => {}
        }
    }
    open.is_none()
}

/// Fragments for the expression parser's hostile-input soup: its
/// keywords, operators, unbalanced quotes, numbers, newlines and
/// multibyte characters, glued together without separators.
const EXPR_SOUP: &[&str] = &[
    "AND",
    "OR",
    "NOT",
    "IS",
    "NULL",
    "LIKE",
    "IN",
    "BETWEEN",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "TRUE",
    "(",
    ")",
    ",",
    ".",
    "=",
    "<>",
    "<=",
    "||",
    "+",
    "-",
    "*",
    "/",
    "'",
    "\"",
    "''",
    "\n",
    " ",
    "é",
    "日本",
    "\u{1F600}",
    "R",
    "R.x",
    "f(",
    "1",
    "1.5",
    "1e",
    "9999999999999999999",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The expression parser reads untrusted text (`where`, MAP clauses):
    /// any soup of fragments yields `Ok` or `Err`, never a panic.
    #[test]
    fn expression_parser_never_panics_on_hostile_input(
        pieces in proptest::collection::vec(0..EXPR_SOUP.len(), 0..40),
    ) {
        let text: String = pieces.iter().map(|&i| EXPR_SOUP[i]).collect();
        let _ = parse_expr(&text);
    }

    /// An expression inside a MAP statement parses exactly as it does on
    /// its own: the same filter, or the same error message and token at
    /// the line and column shifted by the statement text before it.
    /// Fragments that leave a quote open are left to the hostile-input
    /// proptests: they swallow the rest of the statement.
    #[test]
    fn embedded_expression_errors_match_standalone(
        pieces in proptest::collection::vec(0..EXPR_SOUP.len(), 1..24),
    ) {
        let text: String = pieces.iter().map(|&i| EXPR_SOUP[i]).collect();
        let frag = text.trim();
        prop_assume!(!frag.is_empty() && quotes_close(frag));
        let prefix = "MAP T (a int)\nFROM R\nWHERE SOURCE ";
        let embedded = clio_lang::parse_map(&format!("{prefix}{frag}"));
        match parse_expr(frag) {
            Ok(filter) => {
                let m = embedded.unwrap_or_else(|e| panic!("{frag:?} fails embedded: {e}"));
                prop_assert_eq!(m.source_filters, vec![filter]);
            }
            Err(Error::Parse { line, column, token, message, .. }) => {
                let shifted = if line == 1 { (3, column + 13) } else { (line + 2, column) };
                match embedded {
                    Err(Error::Parse { line: l, column: c, token: t, message: msg, .. }) => {
                        prop_assert_eq!((l, c), shifted, "{:?}", frag);
                        prop_assert_eq!(t, token);
                        prop_assert_eq!(msg, message);
                    }
                    other => prop_assert!(false, "{:?}: embedded gave {:?}", frag, other),
                }
            }
            Err(other) => prop_assert!(false, "{:?}: not a parse error: {}", frag, other),
        }
    }

    /// The frame decoder reads bytes from any peer: a frame cut short
    /// anywhere after its first byte, or declaring more than the limit,
    /// is an `Err`; arbitrary bytes never panic it.
    #[test]
    fn frame_reader_rejects_truncated_and_oversized_frames(
        pieces in proptest::collection::vec(0..EXPR_SOUP.len(), 0..12),
        cut in 0usize..1000,
        noise in proptest::collection::vec(proptest::num::u8::ANY, 0..48),
    ) {
        use clio_net::frame::{read_frame, write_frame, MAX_FRAME_BYTES, PROTOCOL_VERSION};
        let payload: String = pieces.iter().map(|&i| EXPR_SOUP[i]).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut whole = wire.as_slice();
        prop_assert_eq!(read_frame(&mut whole, MAX_FRAME_BYTES).unwrap(), Some(payload.clone()));

        let cut = 1 + cut % (wire.len() - 1);
        let mut truncated = &wire[..cut];
        prop_assert!(read_frame(&mut truncated, MAX_FRAME_BYTES).is_err());

        if !payload.is_empty() {
            let mut oversized = wire.as_slice();
            prop_assert!(read_frame(&mut oversized, payload.len() - 1).is_err());
        }

        // Noise behind a valid version byte reaches the length and
        // payload checks; a small limit keeps the allocation bounded.
        let mut noisy = vec![PROTOCOL_VERSION];
        noisy.extend_from_slice(&noise);
        for bytes in [noise.as_slice(), noisy.as_slice()] {
            let mut bytes = bytes;
            while let Ok(Some(_)) = read_frame(&mut bytes, 64) {}
        }
    }

    /// Frames sent back to back decode to the same payloads, in order,
    /// however the stream splits them: read straight from a reader that
    /// returns chunks of random size, and through a buffered reader over
    /// it, as both ends of a connection read.
    #[test]
    fn concatenated_frames_decode_in_order_through_chunked_reads(
        frames in proptest::collection::vec(
            proptest::collection::vec(0..EXPR_SOUP.len(), 0..8),
            1..6,
        ),
        sizes in proptest::collection::vec(1usize..16, 1..32),
        capacity in 1usize..64,
    ) {
        use std::io::{BufReader, Read};

        use clio_net::frame::{read_frame, write_frame, MAX_FRAME_BYTES};

        /// Hands out `bytes` in reads of the next of `sizes`, cycling.
        struct Chunked<'a> {
            bytes: &'a [u8],
            sizes: &'a [usize],
            next: usize,
        }
        impl Read for Chunked<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let size = self.sizes[self.next % self.sizes.len()];
                self.next += 1;
                let n = size.min(buf.len()).min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes = &self.bytes[n..];
                Ok(n)
            }
        }

        let payloads: Vec<String> = frames
            .iter()
            .map(|pieces| pieces.iter().map(|&i| EXPR_SOUP[i]).collect())
            .collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        fn decode_all(mut reader: impl Read) -> Vec<String> {
            let mut got = Vec::new();
            while let Some(payload) = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
                got.push(payload);
            }
            got
        }
        let chunked = || Chunked { bytes: &wire, sizes: &sizes, next: 0 };
        prop_assert_eq!(&decode_all(chunked()), &payloads);
        prop_assert_eq!(
            &decode_all(BufReader::with_capacity(capacity, chunked())),
            &payloads
        );
    }
}

/// A cache entry of `cols` columns (some names empty) and `rows` rows of
/// mixed values, for the disk-decoder proptest. Stored tables are sets,
/// so a zero-column one keeps at most one (empty) row.
fn cache_entry(deps: usize, cols: usize, rows: usize, seed: usize) -> clio_incr::StoredEntry {
    let rows = if cols == 0 { rows.min(1) } else { rows };
    let types = [
        DataType::Int,
        DataType::Str,
        DataType::Float,
        DataType::Bool,
    ];
    let scheme = Scheme::new(
        (0..cols)
            .map(|c| Column::new(if c == 0 { "" } else { "T" }, format!("c{c}"), types[c % 4]))
            .collect(),
    );
    let value = |r: usize, c: usize| match (r + c + seed) % 5 {
        0 => Value::Null,
        1 => Value::Int((r * 31 + seed) as i64),
        2 => Value::str("x".repeat((r + seed) % 4)),
        3 => Value::Float(r as f64 / 3.0),
        _ => Value::Bool(r.is_multiple_of(2)),
    };
    clio_incr::StoredEntry {
        deps: (0..deps).map(|d| format!("R{d}")).collect(),
        payload: clio_incr::Payload::Table(Table::new(
            scheme,
            (0..rows)
                .map(|r| (0..cols).map(|c| value(r, c)).collect())
                .collect(),
        )),
        cost_ns: seed as u64,
    }
}

/// Offsets and widths of every length field in `entry`'s encoding (a
/// table entry), counted back from the end of the body:
/// `(distance, width)`.
fn length_fields(entry: &clio_incr::StoredEntry) -> (Vec<(usize, usize)>, usize) {
    let clio_incr::Payload::Table(table) = &entry.payload else {
        panic!("a table entry");
    };
    let mut fields = vec![(0, 4)];
    let mut at = 4;
    for d in &entry.deps {
        fields.push((at, 4));
        at += 4 + d.len();
    }
    at += 1; // the entry kind
    fields.push((at, 4));
    at += 4;
    for c in table.scheme().columns() {
        fields.push((at, 4));
        at += 4 + c.qualifier.len();
        fields.push((at, 4));
        at += 4 + c.name.len() + 1;
    }
    fields.push((at, 8));
    at += 8;
    for v in table.rows().iter().flatten() {
        at += 1;
        match v {
            Value::Null => {}
            Value::Bool(_) => at += 1,
            Value::Int(_) | Value::Float(_) => at += 8,
            Value::Str(s) => {
                fields.push((at, 4));
                at += 4 + s.len();
            }
        }
    }
    (fields, at)
}

/// `body` followed by its FNV-1a checksum, as the disk format ends.
fn checksummed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(
        &clio_relational::fnv1a(clio_relational::FNV_OFFSET_BASIS, body).to_le_bytes(),
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cache-file decoder reads bytes a hostile or broken disk may
    /// hold. Noise, every truncation of a valid encoding (as cut, and
    /// re-checksummed), and a re-checksummed entry whose length field
    /// claims more than the body holds — or, on a zero-column table, more
    /// than one row — all decode to `Err`, never a panic or an abort.
    #[test]
    fn disk_decoder_rejects_noise_truncation_and_forged_lengths(
        deps in 0usize..3,
        cols in 0usize..4,
        rows in 0usize..4,
        seed in 0usize..100,
        field in 0usize..64,
        forged in proptest::num::u64::ANY,
        noise in proptest::collection::vec(proptest::num::u8::ANY, 0..96),
    ) {
        use clio_incr::disk::{decode, encode};
        let fp = Fingerprint(7);
        let entry = cache_entry(deps, cols, rows, seed);
        let good = encode(3, fp, &entry);
        prop_assert_eq!(decode(&good, 3, fp).unwrap(), entry.clone());

        prop_assert!(decode(&noise, 3, fp).is_err());
        prop_assert!(decode(&checksummed(&noise), 3, fp).is_err());

        let body = &good[..good.len() - 8];
        for n in 0..good.len() {
            prop_assert!(decode(&good[..n], 3, fp).is_err(), "cut at {}", n);
            if n < body.len() {
                prop_assert!(decode(&checksummed(&body[..n]), 3, fp).is_err(), "re-summed cut at {}", n);
            }
        }

        let (fields, rest) = length_fields(&entry);
        let (distance, width) = fields[field % fields.len()];
        let at = body.len() - rest + distance;
        let row_count = width == 8;
        // more than the body holds; a row count on a zero-column table
        // only needs to exceed one
        let floor = if row_count && cols == 0 { 2 } else { body.len() as u64 + 1 };
        let limit = if width == 4 { u64::from(u32::MAX) } else { u64::MAX };
        let claim = floor + forged % (limit - floor + 1).max(1);
        let mut forged_body = body.to_vec();
        forged_body[at..at + width].copy_from_slice(&claim.to_le_bytes()[..width]);
        prop_assert!(decode(&checksummed(&forged_body), 3, fp).is_err(), "field at {} = {}", at, claim);
    }
}

/// Page size of the hostile page-decode heaps: the minimum, so records
/// of a few dozen bytes already fragment across pages.
const HOSTILE_PAGE: usize = clio_pager::MIN_PAGE_SIZE;

/// A heap read: its records, or the first error.
type HeapRead = std::result::Result<Vec<Vec<u8>>, String>;

/// Open the heap file `bytes` through a 2-page pool and read every
/// record: `Err` on the first failure, with how many cursor steps ran.
fn read_heap(path: &std::path::Path, bytes: &[u8]) -> (HeapRead, usize) {
    std::fs::write(path, bytes).unwrap();
    let pager = clio_pager::Pager::new(2);
    let file = match pager.open(path) {
        Ok(file) => file,
        Err(e) => return (Err(e.to_string()), 0),
    };
    let mut records = Vec::new();
    let mut steps = 0;
    for rec in pager.cursor(file) {
        steps += 1;
        match rec {
            Ok(rec) => records.push(rec),
            Err(e) => return (Err(e.to_string()), steps),
        }
    }
    (Ok(records), steps)
}

/// Recompute the checksum of the page starting at byte `at`.
fn resum_page(bytes: &mut [u8], at: usize) {
    let end = at + HOSTILE_PAGE - 8;
    let sum = clio_pager::fnv1a(clio_pager::FNV_OFFSET_BASIS, &bytes[at..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Byte offsets of every fragment header (flag byte, then `u32` length)
/// in the data page starting at byte `at`, as the writer laid them out.
fn fragment_headers(bytes: &[u8], at: usize) -> Vec<usize> {
    let used = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().unwrap()) as usize;
    let (mut out, mut off) = (Vec::new(), 0);
    while off + 5 <= used {
        out.push(at + 20 + off);
        let len = u32::from_le_bytes(bytes[at + 21 + off..at + 25 + off].try_into().unwrap());
        off += 5 + len as usize;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pager's page decode never trusts the file. A multi-page heap
    /// of fragmented records is read back through `Pager::open` and a
    /// cursor after: random noise; a cut at every page boundary; and,
    /// re-checksummed so only the structure checks can catch it, a
    /// forged page-header `used`, fragment `len` or fragment flag. Each
    /// read returns `Err` or records, in at most one cursor step per
    /// byte, and never panics; un-resummed damage is always an `Err`.
    #[test]
    fn pager_page_decode_rejects_noise_truncation_and_forged_fields(
        lens in proptest::collection::vec(0usize..160, 1..8),
        noise in proptest::collection::vec(proptest::num::u8::ANY, 0..320),
        page in 0usize..64,
        fragment in 0usize..64,
        field in 0usize..3,
        forged in proptest::num::u32::ANY,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "clio-props-pages-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|b| (i * 31 + b) as u8).collect())
            .collect();
        let heap = dir.join("r.clh");
        let mut w = clio_pager::HeapWriter::create(&heap, HOSTILE_PAGE).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
        let good = std::fs::read(&heap).unwrap();
        let probe = dir.join("probe.clh");
        let bounded = |(read, steps): (HeapRead, usize), bytes: usize| {
            prop_assert!(steps <= bytes + 1, "{} cursor steps over {} bytes", steps, bytes);
            read
        };
        prop_assert_eq!(bounded(read_heap(&probe, &good), good.len()), Ok(records.clone()));

        prop_assert!(bounded(read_heap(&probe, &noise), noise.len()).is_err());
        let mut noisy = good.clone();
        for (i, &b) in noise.iter().enumerate() {
            let at = (i * 7 + usize::from(b)) % noisy.len();
            noisy[at] ^= b | 1;
        }
        let read = bounded(read_heap(&probe, &noisy), noisy.len());
        prop_assert!(read.is_err() || noisy == good, "damaged bytes decoded");

        for cut in (0..good.len()).step_by(HOSTILE_PAGE) {
            prop_assert!(bounded(read_heap(&probe, &good[..cut]), cut).is_err(), "cut at {}", cut);
        }

        let pages = good.len() / HOSTILE_PAGE - 1;
        let at = (1 + page % pages) * HOSTILE_PAGE;
        let mut forged_bytes = good.clone();
        let frags = fragment_headers(&good, at);
        match (field, frags.get(fragment % frags.len().max(1))) {
            (1, Some(&f)) => forged_bytes[f + 1..f + 5].copy_from_slice(&forged.to_le_bytes()),
            (2, Some(&f)) => forged_bytes[f] = forged as u8,
            _ => forged_bytes[at + 16..at + 20].copy_from_slice(&forged.to_le_bytes()),
        }
        let raw = bounded(read_heap(&probe, &forged_bytes), forged_bytes.len());
        prop_assert!(raw.is_err() || forged_bytes == good, "an un-resummed forgery decoded");
        resum_page(&mut forged_bytes, at);
        // records or an error are both answers here; a panic is not
        let _ = bounded(read_heap(&probe, &forged_bytes), forged_bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A numeric cell from a pool where `==` is subtle: equal Int/Float
/// pairs (`3` / `3.0`), `0.0` / `-0.0`, NaN, and integers past 2^53
/// where `Int(2^53) == Float(2^53) == Int(2^53 + 1)` but the two Ints
/// differ.
fn tricky_number(i: usize) -> Value {
    const BIG: i64 = 1 << 53;
    match i {
        0 => Value::Null,
        1 => Value::Int(3),
        2 => Value::Float(3.0),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Int(0),
        6 => Value::Float(f64::NAN),
        7 => Value::Int(BIG),
        8 => Value::Int(BIG + 1),
        9 => Value::Float(BIG as f64),
        10 => Value::Int(i64::MAX),
        _ => Value::Float(i64::MAX as f64),
    }
}

fn tricky_text(i: usize) -> Value {
    match i {
        0 => Value::Null,
        1 => Value::str(""),
        2 => Value::str("a"),
        _ => Value::str("3"),
    }
}

/// Three-column rows `(number, text, number)` of the tricky values.
fn tricky_wide_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec((0usize..12, 0usize..4, 0usize..12), 0..40).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(n, t, m)| vec![tricky_number(n), tricky_text(t), tricky_number(m)])
            .collect()
    })
}

fn tricky_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec((0usize..12, 0usize..4), 0..40).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(n, t)| vec![tricky_number(n), tricky_text(t)])
            .collect()
    })
}

/// The definition the hashed set primitives must match: a linear
/// `contains` scan that keeps first occurrences.
fn first_occurrences(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for row in rows {
        if !out.contains(row) {
            out.push(row.clone());
        }
    }
    out
}

/// Rows rendered with their exact variants and bits (`Int(3)` vs
/// `Float(3.0)`, `-0.0` vs `0.0`), since `==` cannot tell them apart.
fn exact(rows: &[Vec<Value>]) -> String {
    format!("{rows:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `push_distinct` (interleaved with plain pushes, which drop its
    /// index), `Table::dedup` and `Relation::with_rows` keep exactly the
    /// rows — variants and bits included — that a linear first-occurrence
    /// scan keeps. The hash join's keys follow SQL `=` (`-0.0 = 0.0`,
    /// `NaN = NaN` is not true, Int/Float compare numerically): inner, left
    /// and full outer hash joins return, row for row and in order, what the
    /// nested-loop phrasing `a >= b AND a <= b` returns, and the inner join
    /// equals a selection over the cartesian product. A plan `Join` over
    /// two scans, which reads the stored relations in place, returns what
    /// `join` over their `to_table` copies returns, inner and full outer.
    /// Subsumption removal's hashed passes match their pairwise
    /// definitions on three-column rows of the same values: the
    /// partitioned pass equals the naive one, and the restricted pass
    /// drops exactly the flagged rows some row strictly subsumes and then
    /// the duplicates.
    #[test]
    fn hashed_set_primitives_match_a_linear_scan(
        rows in tricky_rows(),
        plain in proptest::collection::vec(proptest::bool::ANY, 40),
        right in tricky_rows(),
        wide in tricky_wide_rows(),
        flags in proptest::collection::vec(proptest::bool::ANY, 40),
    ) {
        let scheme = Scheme::new(vec![
            Column::new("R", "n", DataType::Float),
            Column::new("R", "t", DataType::Str),
        ]);

        let mut table = Table::empty(scheme.clone());
        let mut reference: Vec<Vec<Value>> = Vec::new();
        for (row, &plain) in rows.iter().zip(&plain) {
            if plain {
                table.push(row.clone());
                reference.push(row.clone());
            } else {
                table.push_distinct(row.clone());
                if !reference.contains(row) {
                    reference.push(row.clone());
                }
            }
        }
        prop_assert_eq!(exact(table.rows()), exact(&reference));

        let expected = first_occurrences(&rows);
        let mut table = Table::new(scheme, rows.clone());
        table.dedup();
        prop_assert_eq!(exact(table.rows()), exact(&expected));

        let stored: Vec<Vec<Value>> =
            rows.iter().filter(|r| !r.iter().all(Value::is_null)).cloned().collect();
        let schema = RelSchema::new(
            "R",
            vec![Attribute::new("n", DataType::Float), Attribute::new("t", DataType::Str)],
        )
        .unwrap();
        let rel = Relation::with_rows(schema, stored.clone()).unwrap();
        prop_assert_eq!(exact(rel.rows()), exact(&first_occurrences(&stored)));

        let side = |q: &str, rows: &[Vec<Value>]| {
            let scheme = Scheme::new(vec![
                Column::new(q, "n", DataType::Float),
                Column::new(q, "t", DataType::Str),
            ]);
            Table::new(scheme, rows.to_vec())
        };
        let (l, r) = (side("L", &rows), side("R", &right));
        let keyed = [
            ("L.n = R.n", "L.n >= R.n AND L.n <= R.n"),
            (
                "L.n = R.n AND R.t = L.t",
                "L.n >= R.n AND L.n <= R.n AND L.t >= R.t AND L.t <= R.t",
            ),
        ];
        for (hashed, nested) in keyed {
            let (hashed, nested) = (parse_expr(hashed).unwrap(), parse_expr(nested).unwrap());
            for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
                let h = join(&l, &r, &hashed, kind, &funcs()).unwrap();
                let n = join(&l, &r, &nested, kind, &funcs()).unwrap();
                prop_assert_eq!(exact(h.rows()), exact(n.rows()), "{:?} on {}", kind, hashed);
            }
            let inner = join(&l, &r, &hashed, JoinKind::Inner, &funcs()).unwrap();
            let product = clio::relational::ops::cartesian_product(&l, &r).unwrap();
            let selected = select(&product, &hashed, &funcs()).unwrap();
            prop_assert_eq!(exact(inner.rows()), exact(selected.rows()));
        }

        // joins reading stored relations in place
        let mut db = Database::new();
        for (name, rows) in [("L", &rows), ("R", &right)] {
            let schema = RelSchema::new(
                name,
                vec![Attribute::new("n", DataType::Float), Attribute::new("t", DataType::Str)],
            )
            .unwrap();
            let stored: Vec<Vec<Value>> =
                rows.iter().filter(|r| !r.iter().all(Value::is_null)).cloned().collect();
            db.add_relation(Relation::with_rows(schema, stored).unwrap()).unwrap();
        }
        let mut graph = QueryGraph::new();
        for node in [Node::new("L"), Node::new("R")] {
            graph.add_node(node).unwrap();
        }
        let ex = clio::core::plan::Exec { db: &db, funcs: &funcs(), graph: &graph, cache: None };
        let scan = |alias: &str| clio::core::plan::RelExpr::Scan {
            alias: alias.to_owned(),
            relation: alias.to_owned(),
        };
        let table = |name: &str| db.relation(name).unwrap().to_table(name);
        for predicate in ["L.n = R.n", "L.n = R.n AND R.t = L.t", "L.n >= R.n AND L.t <= R.t"] {
            let predicate = parse_expr(predicate).unwrap();
            for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
                let plan = clio::core::plan::RelExpr::Join {
                    left: Box::new(scan("L")),
                    right: Box::new(scan("R")),
                    predicate: predicate.clone(),
                    kind,
                };
                let in_place = plan.run(&ex).unwrap();
                let copied = join(&table("L"), &table("R"), &predicate, kind, &funcs()).unwrap();
                prop_assert_eq!(in_place.scheme(), copied.scheme());
                prop_assert_eq!(exact(in_place.rows()), exact(copied.rows()), "{:?} on {}", kind, predicate);
            }
        }

        // subsumption removal against its pairwise definitions
        let wide_scheme = |q: &str| Scheme::new(vec![
            Column::new(q, "n", DataType::Float),
            Column::new(q, "t", DataType::Str),
            Column::new(q, "m", DataType::Float),
        ]);
        let base = Table::new(wide_scheme("W"), wide.clone());
        let mut naive = base.clone();
        clio::relational::ops::remove_subsumed_naive(&mut naive);
        let mut partitioned = base.clone();
        clio::relational::ops::remove_subsumed_partitioned(&mut partitioned);
        prop_assert_eq!(exact(partitioned.rows()), exact(naive.rows()));

        let flags = &flags[..wide.len()];
        let strictly_subsumed =
            |r: &Vec<Value>| wide.iter().any(|o| clio::relational::ops::strictly_subsumes(o, r));
        let survivors: Vec<Vec<Value>> = wide
            .iter()
            .zip(flags)
            .filter(|&(r, &flagged)| !(flagged && strictly_subsumed(r)))
            .map(|(r, _)| r.clone())
            .collect();
        let mut among = base.clone();
        clio::relational::ops::remove_subsumed_among(&mut among, flags);
        prop_assert_eq!(exact(among.rows()), exact(&first_occurrences(&survivors)));

    }
}

/// The synthetic mapping for a spec (helper so the round-trip test can
/// compare against a second, independently generated copy).
fn w_mapping(spec: &SyntheticSpec) -> Mapping {
    generate(spec).mapping
}

/// Any value, floats by bit pattern (NaNs and signed zeros included).
fn value_strategy() -> impl Strategy<Value = Value> {
    (
        0u8..5,
        proptest::num::u64::ANY,
        "\\PC{0,8}",
        proptest::bool::ANY,
    )
        .prop_map(|(tag, bits, s, b)| match tag {
            0 => Value::Null,
            1 => Value::Int(bits as i64),
            2 => Value::Float(f64::from_bits(bits)),
            3 => Value::str(s),
            _ => Value::Bool(b),
        })
}

/// `decode` on each strict prefix of the valid encoding `bytes` (all
/// must fail), on `bytes` with the byte at `at` (modulo its length)
/// XORed with `to`, and on arbitrary `noise`: none may panic.
fn assert_decoder_total<T>(
    decode: impl Fn(&[u8]) -> std::result::Result<T, String>,
    bytes: &[u8],
    at: usize,
    to: u8,
    noise: &[u8],
) {
    for n in 0..bytes.len() {
        assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes");
    }
    let mut changed = bytes.to_vec();
    let at = at % changed.len();
    changed[at] ^= to;
    let _ = decode(&changed);
    let _ = decode(noise);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every decoder of a persisted file returns what its encoder wrote,
    /// rejects every strict prefix of a valid encoding, and returns an
    /// error, never a panic, on a changed byte or arbitrary bytes. The
    /// cache decoder also meets changed bytes and noise behind a valid
    /// header under a recomputed checksum, which reach its body.
    #[test]
    fn persisted_file_decoders_round_trip_and_never_panic(
        row in proptest::collection::vec(value_strategy(), 1..6),
        occs in proptest::collection::vec(("\\PC{0,6}", "\\PC{0,6}", proptest::num::u32::ANY), 0..4),
        ids in (1usize..4, proptest::collection::vec(proptest::num::u32::ANY, 0..12)),
        cost_ns in proptest::num::u64::ANY,
        change in (proptest::num::usize::ANY, 1u8..255),
        noise in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        use clio_incr::disk::{decode, encode};
        use clio_incr::{Fingerprint, IdRows, Payload, StoredEntry};
        use clio_relational::index::Occurrence;
        use clio_relational::storage::{
            decode_index_entry, decode_row, encode_index_entry, encode_row,
        };
        let (at, to) = change;

        // a heap record
        let schema = RelSchema::new(
            "R",
            (0..row.len())
                .map(|i| Attribute::new(format!("a{i}"), DataType::Int))
                .collect(),
        )
        .unwrap();
        let record = encode_row(&row);
        prop_assert_eq!(decode_row(&record, &schema).unwrap(), row.clone());
        assert_decoder_total(|b| decode_row(b, &schema), &record, at, to, &noise);

        // an index entry
        let occs: Vec<Occurrence> = occs
            .into_iter()
            .map(|(relation, attribute, row)| Occurrence {
                relation,
                attribute,
                row: row as usize,
            })
            .collect();
        let entry = encode_index_entry(&row[0], &occs);
        prop_assert_eq!(decode_index_entry(&entry).unwrap(), (row[0].clone(), occs));
        assert_decoder_total(decode_index_entry, &entry, at, to, &noise);

        // a cache file of each payload kind
        let scheme = Scheme::new(
            (0..row.len())
                .map(|i| Column::new("T", format!("c{i}"), DataType::Str))
                .collect(),
        );
        let (width, mut id_list) = ids;
        id_list.truncate(id_list.len() / width * width);
        let payloads = [
            Payload::Table(Table::new(scheme, vec![row.clone()])),
            Payload::Ids(IdRows { width, ids: id_list }),
        ];
        for payload in payloads {
            let stored = StoredEntry {
                deps: vec!["R".into()],
                payload,
                cost_ns,
            };
            let fp = Fingerprint(42);
            let file = encode(7, fp, &stored);
            prop_assert_eq!(decode(&file, 7, fp).unwrap(), stored);
            assert_decoder_total(|b| decode(b, 7, fp), &file, at, to, &noise);
            // past the checksum: the changed file, and noise behind the
            // header (magic, version, namespace, fingerprint)
            let mut noisy = file[..24].to_vec();
            noisy.extend_from_slice(&noise);
            noisy.extend_from_slice(&[0; 8]);
            let mut changed = file.clone();
            changed[at % (file.len() - 8)] ^= to;
            for mut bytes in [changed, noisy] {
                let body = bytes.len() - 8;
                let sum = clio_relational::fnv1a(clio_relational::FNV_OFFSET_BASIS, &bytes[..body]);
                bytes[body..].copy_from_slice(&sum.to_le_bytes());
                let _ = decode(&bytes, 7, fp);
            }
        }
    }
}

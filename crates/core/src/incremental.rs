//! Incremental evaluation: structural fingerprints for query graphs and
//! mappings, and cache-routed full disjunction.
//!
//! The paper's interactive loop (Sec 5.3, Sec 6) refines one mapping
//! state into the next — each operator changes a single edge, filter, or
//! correspondence, so most per-subgraph full data associations `F(J)`
//! and most mapping-query results survive the step unchanged. This
//! module keys those results by **structural fingerprints** and stores
//! them in a [`clio_incr::EvalCache`]:
//!
//! * `F(J)` — one entry per induced connected subgraph, keyed by the
//!   subgraph's node aliases/relations, its induced edge predicates, and
//!   a content version per base relation. Cached *unpadded*, so growing
//!   the graph reuses every old subgraph and computes only the ones
//!   touching new nodes or edges.
//! * `D(G)` — the assembled full disjunction per graph and algorithm.
//! * `Q(M)` — the evaluated mapping query per full mapping state
//!   (graph + correspondences + source filters + target filters).
//!
//! Every cached path is byte-identical to the uncached one: lookups are
//! keyed by exactly the ingredients the computation reads, assembly
//! happens in the same canonical order, and a property test in
//! `tests/properties.rs` replays random operator sequences cache-on vs.
//! cache-off. See `docs/incremental.md` for the full scheme.

use clio_incr::{EvalCache, Fingerprint, FingerprintBuilder, LookupTier};
use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;
use clio_relational::table::Table;

use crate::association::AssociationSet;
use crate::full_disjunction::FdAlgo;
use crate::mapping::Mapping;
use crate::plan::{disjunction, Exec};
use crate::query_graph::QueryGraph;

/// Mix a graph's full structure into a fingerprint: every node (alias,
/// stored relation, content version) in id order, every edge (endpoint
/// ids, predicate text) in insertion order, plus the cache epoch. Node
/// and edge *order* are deliberately part of the digest — join order,
/// and therefore output column and row order, depend on them.
fn hash_graph(fp: &mut FingerprintBuilder, graph: &QueryGraph, cache: &EvalCache) {
    fp.number(cache.epoch());
    for n in graph.nodes() {
        fp.text(&n.alias)
            .text(&n.relation)
            .number(cache.version(&n.relation));
    }
    for e in graph.edges() {
        fp.number(e.a as u64)
            .number(e.b as u64)
            .text(&e.predicate.to_string());
    }
}

/// Fingerprint of the full data associations `F(J)` of the induced
/// subgraph `mask`: the member nodes (with ids, so the join order is
/// captured), the induced edges, and the content versions involved.
#[must_use]
pub fn subgraph_fingerprint(graph: &QueryGraph, mask: u64, cache: &EvalCache) -> Fingerprint {
    let mut fp = FingerprintBuilder::new("F(J)");
    fp.number(cache.epoch());
    for (i, n) in graph.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            fp.number(i as u64)
                .text(&n.alias)
                .text(&n.relation)
                .number(cache.version(&n.relation));
        }
    }
    for e in graph.edges() {
        if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
            fp.number(e.a as u64)
                .number(e.b as u64)
                .text(&e.predicate.to_string());
        }
    }
    fp.finish()
}

/// Fingerprint of the assembled `D(G)` under a given algorithm tag
/// (`"D(G).tree"` / `"D(G).lattice"` — the two plans emit different row
/// orders, so they must not share entries).
#[must_use]
pub fn graph_fingerprint(graph: &QueryGraph, cache: &EvalCache, tag: &str) -> Fingerprint {
    let mut fp = FingerprintBuilder::new(tag);
    hash_graph(&mut fp, graph, cache);
    fp.finish()
}

/// Fingerprint of a full mapping query `Q(M)`: the graph plus the
/// correspondences, source filters, target filters, and target schema.
#[must_use]
pub fn mapping_fingerprint(mapping: &Mapping, cache: &EvalCache) -> Fingerprint {
    let mut fp = FingerprintBuilder::new("Q(M)");
    hash_graph(&mut fp, &mapping.graph, cache);
    for v in &mapping.correspondences {
        fp.text(&v.expr.to_string()).text(&v.target_attr);
    }
    for e in &mapping.source_filters {
        fp.text(&e.to_string());
    }
    for e in &mapping.target_filters {
        fp.text(&e.to_string());
    }
    fp.text(&mapping.target.to_string());
    fp.finish()
}

/// The base relations a graph's evaluation reads (sorted, deduplicated)
/// — the dependency set declared on cache entries.
#[must_use]
pub fn relation_deps(graph: &QueryGraph) -> Vec<String> {
    mask_deps(graph, graph.node_mask())
}

pub(crate) fn mask_deps(graph: &QueryGraph, mask: u64) -> Vec<String> {
    let mut deps: Vec<String> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| n.relation.clone())
        .collect();
    deps.sort_unstable();
    deps.dedup();
    deps
}

/// Row-count fallback when no sibling cost history exists: the product
/// of the member relations' sizes (saturating), a proxy for the join
/// work `full_associations` will do on the subgraph.
fn heuristic_cost(db: &Database, graph: &QueryGraph, mask: u64) -> u64 {
    let mut est: u64 = 1;
    for (i, n) in graph.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            let rows = db.relation(&n.relation).map_or(1, |r| r.len() as u64);
            est = est.saturating_mul(rows.max(1));
        }
    }
    est
}

/// Scheduling annotation for one subgraph branch of the lattice `D(G)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// The branch's node mask.
    pub mask: u64,
    /// Estimated recompute cost (`0` for expected-warm branches).
    pub estimate: u64,
    /// Whether the cache held the branch's `F(J)` when it was annotated.
    pub warm: bool,
}

/// The warmth pass over subgraph branches: a non-promoting
/// [`EvalCache::peek`] marks expected-warm branches, and each cold one
/// is priced from sibling cost history ([`EvalCache::estimate_cost`]),
/// falling back to a row-count heuristic. Peeking counts nothing and
/// perturbs no recency or priority, so the pass cannot change what
/// eviction keeps; estimates are pinned here, before any counted
/// lookup warms the memory tier and shifts the sibling history. Without
/// a live cache every branch is cold.
pub(crate) fn annotate_branches(
    db: &Database,
    graph: &QueryGraph,
    masks: &[u64],
    cache: Option<&EvalCache>,
) -> Vec<BranchInfo> {
    let live = cache.filter(|c| c.enabled());
    masks
        .iter()
        .map(|&mask| match live {
            Some(c) if c.peek(subgraph_fingerprint(graph, mask, c)) => BranchInfo {
                mask,
                estimate: 0,
                warm: true,
            },
            _ => BranchInfo {
                mask,
                estimate: live
                    .and_then(|c| c.estimate_cost(&mask_deps(graph, mask)))
                    .unwrap_or_else(|| heuristic_cost(db, graph, mask)),
                warm: false,
            },
        })
        .collect()
}

pub(crate) fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The graph-level `D(G)` memo around `compute`, which returns the
/// table with the compute time already charged to child entries. With a
/// live cache the result is looked up under `tag` (`"D(G).tree"` /
/// `"D(G).lattice"`: the two algorithms emit different row orders) and,
/// on a miss, computed and inserted charged only its *exclusive* cost.
/// Returns the table with the time charged to this entry and its
/// children (0 on a hit); without a live cache it just runs `compute`.
pub(crate) fn memoized_disjunction(
    graph: &QueryGraph,
    cache: Option<&EvalCache>,
    tag: &str,
    compute: impl FnOnce() -> Result<(Table, u64)>,
) -> Result<(Table, u64)> {
    let Some(cache) = cache.filter(|c| c.enabled()) else {
        return compute();
    };
    let _span = clio_obs::span("incr.fd");
    let fp = graph_fingerprint(graph, cache, tag);
    // Cache-tier timing: while tracing is on, the whole lookup — and,
    // on a miss, the recompute + insert — lands in a per-tier latency
    // histogram, the cost data the recompute-cost eviction model wants.
    let timer = clio_obs::hist::start();
    let (cached, tier) = cache.get_tiered(fp);
    if let Some(table) = cached {
        clio_obs::hist::finish(
            match tier {
                LookupTier::Memory => "incr.fd.memory_hit",
                _ => "incr.fd.disk_hit",
            },
            timer,
        );
        return Ok((table, 0));
    }
    let t0 = std::time::Instant::now();
    let (table, children_ns) = compute()?;
    let total = elapsed_ns(t0);
    let cost_ns = total.saturating_sub(children_ns);
    cache.insert_costed(fp, relation_deps(graph), &table, cost_ns);
    clio_obs::hist::finish("incr.fd.cold", timer);
    Ok((table, total))
}

/// Compute `D(G)` by running the un-pushed `D(G)` subtree
/// [`Plan::new`](crate::plan::Plan::new) starts from.
/// With a live cache the result is memoized per graph+algorithm, and the
/// lattice also memoizes per-subgraph `F(J)`s, so an edit to one
/// relation recomputes only the subgraphs touching it.
pub fn full_disjunction_cached(
    db: &Database,
    graph: &QueryGraph,
    algo: FdAlgo,
    funcs: &FuncRegistry,
    cache: Option<&EvalCache>,
) -> Result<AssociationSet> {
    let table = disjunction(db, graph, algo, cache)?.run(&Exec {
        db,
        funcs,
        graph,
        cache,
    })?;
    Ok(AssociationSet::from_table(graph, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_disjunction::{engine_subsumption, full_disjunction, full_disjunction_naive};
    use crate::plan::ir::schedule;
    use crate::plan::RelExpr;
    use crate::query_graph::Node;
    use crate::subgraph::connected_subsets;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "201".into()])
                .row(vec!["002".into(), "202".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .attr("affiliation", DataType::Str)
                .row(vec!["201".into(), "IBM".into()])
                .row(vec!["202".into(), "UofT".into()])
                .row(vec!["205".into(), "MIT".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("PhoneDir")
                .attr_not_null("ID", DataType::Str)
                .attr("number", DataType::Str)
                .row(vec!["201".into(), "555-0101".into()])
                .row(vec!["202".into(), "555-0102".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn tree_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g
    }

    fn cyclic_graph() -> QueryGraph {
        let mut g = tree_graph();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(1, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(0, ph, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        g
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn cached_fd_is_byte_identical_on_trees_and_cycles() {
        for g in [tree_graph(), cyclic_graph()] {
            let cache = EvalCache::new();
            let plain = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
            for _ in 0..2 {
                let cached =
                    full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache))
                        .unwrap();
                assert_eq!(plain.table().scheme(), cached.table().scheme());
                assert_eq!(plain.table().rows(), cached.table().rows());
            }
            assert!(cache.stats().hits >= 1, "second run must hit");
        }
    }

    #[test]
    fn version_bump_recomputes_only_affected_subgraphs() {
        let g = cyclic_graph();
        let cache = EvalCache::new();
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        let cold_misses = cache.stats().misses;
        // a PhoneDir edit keeps every Children/Parents-only subgraph
        cache.bump_version("PhoneDir");
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        let warm = cache.stats();
        let warm_misses = warm.misses - cold_misses;
        assert!(
            warm_misses < cold_misses,
            "post-edit run should reuse untouched subgraphs \
             (cold {cold_misses} vs warm {warm_misses})"
        );
        assert!(warm.hits >= 1, "untouched subgraphs must be served");
        assert!(warm.invalidations >= 1);
        // and the recomputed result is still correct
        let plain = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
        let cached =
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        assert_eq!(plain.table().rows(), cached.table().rows());
    }

    #[test]
    fn cache_tiers_record_distinct_histogram_keys() {
        let _guard = crate::obs_testutil::lock();
        clio_obs::set_trace_enabled(true);
        clio_obs::clear_histograms();
        let g = tree_graph();
        let cache = EvalCache::new();
        let store = std::sync::Arc::new(clio_incr::MemStore::new());
        cache.set_store(Some(store));
        // cold: computes and spills
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        // disk hit: memory dropped, the store answers
        cache.clear();
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        // memory hit: the disk load warmed the memory tier
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        clio_obs::set_trace_enabled(false);
        let _ = clio_obs::take_spans();
        clio_obs::clear_events();
        let hists = clio_obs::snapshot_histograms();
        clio_obs::clear_histograms();
        for key in ["incr.fd.cold", "incr.fd.disk_hit", "incr.fd.memory_hit"] {
            let (_, h) = hists
                .iter()
                .find(|(n, _)| *n == key)
                .unwrap_or_else(|| panic!("missing histogram key {key}"));
            assert!(h.count >= 1, "{key} recorded nothing");
        }
        let s = cache.stats();
        assert!(s.hits >= 1, "memory tier never hit: {s:?}");
    }

    /// One union run over every connected subgraph of `g`.
    fn schedule_all(g: &QueryGraph, cache: &EvalCache) -> (Vec<BranchInfo>, Vec<(u64, u64)>) {
        let (db, funcs) = (db(), funcs());
        let RelExpr::Union {
            inputs,
            branches,
            pad,
        } = disjunction(&db, g, FdAlgo::Lattice, Some(cache)).unwrap()
        else {
            panic!("lattice D(G) is a union");
        };
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: g,
            cache: Some(cache),
        };
        let (table, dispatched) = schedule(&ex, &inputs, &branches, &pad).unwrap();
        let plain = full_disjunction_naive(&db, g, &funcs, engine_subsumption()).unwrap();
        assert_eq!(plain.table().rows(), table.rows());
        (branches, dispatched)
    }

    #[test]
    fn cold_runs_dispatch_every_subgraph_and_record_entry_costs() {
        let g = cyclic_graph();
        let cache = EvalCache::new();
        let (branches, dispatched) = schedule_all(&g, &cache);
        let n_subgraphs = connected_subsets(&g).len();
        assert!(branches.iter().all(|b| !b.warm && b.estimate > 0));
        assert_eq!(
            dispatched.len(),
            n_subgraphs,
            "one cost per computed subgraph"
        );
        let masks: Vec<u64> = dispatched.iter().map(|&(mask, _)| mask).collect();
        assert_eq!(masks, connected_subsets(&g), "branch order");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, n_subgraphs as u64));
        assert_eq!(s.entries, n_subgraphs);
        // the measured costs seeded the cache's cost model
        assert!(
            cache.estimate_cost(&relation_deps(&g)).is_some(),
            "subgraph entries must carry measured costs"
        );
    }

    #[test]
    fn warm_subgraphs_are_never_dispatched() {
        let g = cyclic_graph();
        let cache = EvalCache::new();
        full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        // a PhoneDir edit leaves the Children/Parents subgraphs warm:
        // exactly the PhoneDir-touching ones are scheduled
        cache.bump_version("PhoneDir");
        let before = cache.stats();
        let (branches, dispatched) = schedule_all(&g, &cache);
        let phone = 1u64 << 2;
        let touching: Vec<u64> = connected_subsets(&g)
            .into_iter()
            .filter(|m| m & phone != 0)
            .collect();
        let masks: Vec<u64> = dispatched.iter().map(|&(mask, _)| mask).collect();
        assert_eq!(masks, touching);
        for b in &branches {
            assert_eq!(b.warm, b.mask & phone == 0, "{b:?}");
        }
        let s = cache.stats();
        let warm = (branches.len() - touching.len()) as u64;
        assert_eq!(s.hits - before.hits, warm);
        assert_eq!(s.misses - before.misses, touching.len() as u64);
    }

    #[test]
    fn none_and_disabled_caches_bypass_entirely() {
        let g = tree_graph();
        let plain = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
        let none = full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), None).unwrap();
        assert_eq!(plain.table().rows(), none.table().rows());
        let cache = EvalCache::new();
        cache.set_enabled(false);
        let off = full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        assert_eq!(plain.table().rows(), off.table().rows());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn fingerprints_separate_structure_versions_and_algorithms() {
        let cache = EvalCache::new();
        let tree = tree_graph();
        let cyc = cyclic_graph();
        assert_ne!(
            graph_fingerprint(&tree, &cache, "D(G).tree"),
            graph_fingerprint(&cyc, &cache, "D(G).tree")
        );
        assert_ne!(
            graph_fingerprint(&tree, &cache, "D(G).tree"),
            graph_fingerprint(&tree, &cache, "D(G).lattice")
        );
        let before = graph_fingerprint(&tree, &cache, "D(G).tree");
        cache.bump_version("Parents");
        assert_ne!(before, graph_fingerprint(&tree, &cache, "D(G).tree"));
        // subgraphs not touching Parents keep their fingerprint
        let mask_children = 0b001;
        let a = subgraph_fingerprint(&cyc, mask_children, &cache);
        cache.bump_version("Parents");
        assert_eq!(a, subgraph_fingerprint(&cyc, mask_children, &cache));
        cache.bump_version("Children");
        assert_ne!(a, subgraph_fingerprint(&cyc, mask_children, &cache));
    }

    #[test]
    fn mapping_fingerprint_tracks_every_component() {
        use crate::correspondence::ValueCorrespondence;
        use clio_relational::schema::{Attribute, RelSchema};
        let cache = EvalCache::new();
        let target = RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap();
        let base = Mapping::new(tree_graph(), target)
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
        let fp = mapping_fingerprint(&base, &cache);
        let with_corr = base
            .clone()
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ));
        assert_ne!(fp, mapping_fingerprint(&with_corr, &cache));
        let with_source = base
            .clone()
            .with_source_filter(parse_expr("Children.mid IS NOT NULL").unwrap());
        assert_ne!(fp, mapping_fingerprint(&with_source, &cache));
        let with_target = base
            .clone()
            .with_target_filter(parse_expr("Kids.ID IS NOT NULL").unwrap());
        assert_ne!(fp, mapping_fingerprint(&with_target, &cache));
        assert_ne!(
            mapping_fingerprint(&with_source, &cache),
            mapping_fingerprint(&with_target, &cache)
        );
    }

    #[test]
    fn epoch_bump_changes_all_fingerprints() {
        let cache = EvalCache::new();
        let g = tree_graph();
        let a = graph_fingerprint(&g, &cache, "D(G).tree");
        let s = subgraph_fingerprint(&g, 0b11, &cache);
        cache.bump_epoch();
        assert_ne!(a, graph_fingerprint(&g, &cache, "D(G).tree"));
        assert_ne!(s, subgraph_fingerprint(&g, 0b11, &cache));
    }
}

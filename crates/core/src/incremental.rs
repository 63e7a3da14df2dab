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
//!   a content version per base relation (domain tag `"F(J).ids"`).
//!   Cached as tuple ids, `|J|` per row, so growing the graph reuses
//!   every old subgraph and computes only the ones touching new nodes
//!   or edges.
//! * `D(G)` — the assembled full disjunction per graph and algorithm,
//!   cached as tuple ids too, `|G|` per row (domain tags
//!   `"D(G).tree.ids"` / `"D(G).lattice.ids"`).
//! * `Q(M)` — the evaluated mapping query per full mapping state
//!   (graph + correspondences + source filters + target filters).
//!
//! Every cached path is byte-identical to the uncached one: lookups are
//! keyed by exactly the ingredients the computation reads, assembly
//! happens in the same canonical order, and a property test in
//! `tests/properties.rs` replays random operator sequences cache-on vs.
//! cache-off. See `docs/incremental.md` for the full scheme.

use clio_incr::{EvalCache, Fingerprint, FingerprintBuilder};
use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;

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
/// captured), the induced edges, and the content versions involved. The
/// entry holds tuple ids, `|J|` per row in node order (domain tag
/// `"F(J).ids"`: entries written as values under the older `"F(J)"` tag
/// are never asked for).
#[must_use]
pub fn subgraph_fingerprint(graph: &QueryGraph, mask: u64, cache: &EvalCache) -> Fingerprint {
    let mut fp = FingerprintBuilder::new("F(J).ids");
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

/// What the fingerprints of a graph's subgraphs mix in, read once for a
/// pass of lookups: the cache epoch, every node's content version (read
/// under one lock) and every edge's predicate text (formatted once).
/// [`SubgraphKeys::fingerprint`] equals [`subgraph_fingerprint`] for
/// every mask, so the entries a pass looks up are the ones it inserted.
pub(crate) struct SubgraphKeys<'g> {
    graph: &'g QueryGraph,
    epoch: u64,
    versions: Vec<u64>,
    predicates: Vec<String>,
}

impl<'g> SubgraphKeys<'g> {
    pub(crate) fn new(graph: &'g QueryGraph, cache: &EvalCache) -> SubgraphKeys<'g> {
        let (epoch, versions) =
            cache.epoch_and_versions(graph.nodes().iter().map(|n| n.relation.as_str()));
        SubgraphKeys {
            graph,
            epoch,
            versions,
            predicates: graph
                .edges()
                .iter()
                .map(|e| e.predicate.to_string())
                .collect(),
        }
    }

    /// The fingerprint of the `F(J)` of the induced subgraph `mask`.
    pub(crate) fn fingerprint(&self, mask: u64) -> Fingerprint {
        let mut fp = FingerprintBuilder::new("F(J).ids");
        fp.number(self.epoch);
        for (i, n) in self.graph.nodes().iter().enumerate() {
            if mask & (1 << i) != 0 {
                fp.number(i as u64)
                    .text(&n.alias)
                    .text(&n.relation)
                    .number(self.versions[i]);
            }
        }
        for (e, predicate) in self.graph.edges().iter().zip(&self.predicates) {
            if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
                fp.number(e.a as u64).number(e.b as u64).text(predicate);
            }
        }
        fp.finish()
    }
}

/// Fingerprint of the assembled `D(G)` under a given algorithm tag
/// (`"D(G).tree.ids"` / `"D(G).lattice.ids"` — the two plans emit
/// different row orders, so they must not share entries; entries
/// written as values under the older `"D(G).tree"` / `"D(G).lattice"`
/// tags are never asked for).
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
    let live = cache
        .filter(|c| c.enabled())
        .map(|c| (c, SubgraphKeys::new(graph, c)));
    masks
        .iter()
        .map(|&mask| match &live {
            Some((c, keys)) if c.peek(keys.fingerprint(mask)) => BranchInfo {
                mask,
                estimate: 0,
                warm: true,
            },
            _ => BranchInfo {
                mask,
                estimate: live
                    .as_ref()
                    .and_then(|(c, _)| c.estimate_cost(&mask_deps(graph, mask)))
                    .unwrap_or_else(|| heuristic_cost(db, graph, mask)),
                warm: false,
            },
        })
        .collect()
}

pub(crate) fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    let (associations, _) = disjunction(db, graph, algo, cache)?.associations(&Exec {
        db,
        funcs,
        graph,
        cache,
    })?;
    Ok(associations.into_association_set(graph))
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
        let g = tree_graph();
        let cache = EvalCache::new();
        let store = std::sync::Arc::new(clio_incr::MemStore::new());
        cache.set_store(Some(store));
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            // cold: computes and spills
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
            // disk hit: memory dropped, the store answers
            cache.clear();
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
            // memory hit: the disk load warmed the memory tier
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        });
        let hists = rec.histograms();
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
        let (ids, dispatched) = schedule(&ex, &inputs, &branches, &pad).unwrap();
        let plain = full_disjunction_naive(&db, g, &funcs, engine_subsumption()).unwrap();
        assert_eq!(plain.table().rows(), ids.materialize().rows());
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

    /// Cached tuple ids are untrusted: an id past its relation's end,
    /// the uncovered sentinel, or a row width other than `|J|` makes the
    /// entry a cold miss — counted as a load error when the store held
    /// it, and replaced by the recomputed entry — never a panic or a
    /// wrong answer.
    #[test]
    fn forged_id_entries_are_cold_misses() {
        use clio_incr::{CacheStore, DiskStore, IdRows, Payload, StoredEntry};
        let g = cyclic_graph();
        let plain = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
        // Children holds 2 tuples; {Children, Parents} has 2 ids a row
        let forged = [
            (0b001, vec![0, 99], 1),
            (0b011, vec![0], 1),
            (0b110, vec![0, u32::MAX], 2),
        ];
        let dir = std::env::temp_dir().join(format!("clio-forged-fj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(DiskStore::open(&dir, 7));
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        for (mask, ids, width) in &forged {
            let entry = StoredEntry {
                deps: mask_deps(&g, *mask),
                payload: Payload::Ids(IdRows {
                    width: *width,
                    ids: ids.clone(),
                }),
                cost_ns: 0,
            };
            assert!(store.spill(subgraph_fingerprint(&g, *mask, &cache), &entry));
        }
        let run = |cache: &EvalCache| {
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(cache)).unwrap()
        };
        assert_eq!(run(&cache).table().rows(), plain.table().rows());
        let s = store.stats();
        assert_eq!((s.hits, s.load_errors), (0, 3));
        // the recomputed entries took the forged ones' place on disk
        for (mask, ids, _) in &forged {
            let fp = subgraph_fingerprint(&g, *mask, &cache);
            let Some(Payload::Ids(rows)) = store.load(fp).map(|e| e.payload) else {
                panic!("F(J) of {mask:#b} was not respilled");
            };
            assert_ne!(&rows.ids, ids);
            assert_eq!(rows.width, mask.count_ones() as usize);
        }

        // the memory tier checks its entries the same way
        let cache = EvalCache::new();
        for (mask, ids, width) in &forged {
            let rows = IdRows {
                width: *width,
                ids: ids.clone(),
            };
            let fp = subgraph_fingerprint(&g, *mask, &cache);
            cache.insert_ids(fp, mask_deps(&g, *mask), &rows, 0);
        }
        assert_eq!(run(&cache).table().rows(), plain.table().rows());
        assert_eq!(cache.stats().hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `D(G)` memo's tuple ids are checked like `F(J)`'s: an id past
    /// its relation's end, a row width other than the graph's node count,
    /// or a row covering no node makes the entry a cold miss, whether
    /// the store or the memory tier held it. A store entry counts one
    /// load error and is replaced by the recomputed entry.
    #[test]
    fn forged_disjunction_entries_are_cold_misses() {
        use clio_incr::{CacheStore, DiskStore, IdRows, Payload, StoredEntry};
        const U: u32 = u32::MAX;
        for (g, tag) in [
            (tree_graph(), "D(G).tree.ids"),
            (cyclic_graph(), "D(G).lattice.ids"),
        ] {
            let plain = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
            let n = g.node_count();
            // each forgery opens with a valid row: only its flaw rejects it
            let valid: Vec<u32> = (0..n as u32).map(|v| if v == 0 { 0 } else { U }).collect();
            let with_row = |row: Vec<u32>| IdRows {
                width: n,
                ids: valid.iter().copied().chain(row).collect(),
            };
            let forged = [
                with_row((0..n).map(|v| if v == 0 { 99 } else { U }).collect()),
                IdRows {
                    width: n - 1,
                    ids: vec![0; n - 1],
                },
                with_row(vec![U; n]),
            ];
            let run = |cache: &EvalCache| {
                full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(cache)).unwrap()
            };
            for (k, rows) in forged.iter().enumerate() {
                let dir = std::env::temp_dir()
                    .join(format!("clio-forged-dg-{}-{tag}-{k}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let store = std::sync::Arc::new(DiskStore::open(&dir, 7));
                let cache = EvalCache::new();
                cache.set_store(Some(store.clone()));
                let fp = graph_fingerprint(&g, &cache, tag);
                let entry = StoredEntry {
                    deps: relation_deps(&g),
                    payload: Payload::Ids(rows.clone()),
                    cost_ns: 0,
                };
                assert!(store.spill(fp, &entry));
                assert_eq!(
                    run(&cache).table().rows(),
                    plain.table().rows(),
                    "{tag} {k}"
                );
                let s = store.stats();
                assert_eq!((s.hits, s.load_errors), (0, 1), "{tag} {k}");
                let Some(Payload::Ids(respilled)) = store.load(fp).map(|e| e.payload) else {
                    panic!("{tag} was not respilled");
                };
                assert_eq!(respilled.width, n);
                assert_eq!(respilled.len(), plain.len());
                let _ = std::fs::remove_dir_all(&dir);

                // the memory tier drops the forged entry the same way
                let cache = EvalCache::new();
                cache.insert_ids(fp, relation_deps(&g), rows, 0);
                assert_eq!(
                    run(&cache).table().rows(),
                    plain.table().rows(),
                    "{tag} {k}"
                );
                assert_eq!(cache.stats().hits, 0, "{tag} {k}");
                // and the recomputed entry took its place
                assert_eq!(run(&cache).table().rows(), plain.table().rows());
                assert_eq!(cache.stats().hits, 1, "{tag} {k}: the memo serves");
            }
        }
    }

    /// Format version 2 kept the tree `D(G)`'s rows that a near-duplicate
    /// subsumes, as a value table under `"D(G).tree"`. Such a stale file
    /// never serves its answer: the memo now asks for `"D(G).tree.ids"`,
    /// so a file under the old tag is never read, and a version-2 file
    /// under the new tag is a load error and a cold recompute, which
    /// rewrites it as tuple ids in the current format.
    #[test]
    fn version_two_tree_disjunctions_are_recomputed() {
        use clio_incr::disk::encode;
        use clio_incr::{CacheStore, DiskStore, Payload, StoredEntry};
        use clio_relational::{fnv1a, value::Value, FNV_OFFSET_BASIS};
        let mut db = db();
        db.relation_mut("Parents")
            .unwrap()
            .insert(vec!["201".into(), Value::Null])
            .unwrap();
        let g = tree_graph();
        let plain = full_disjunction(&db, &g, FdAlgo::Auto, &funcs()).unwrap();
        // the old answer: plus Children 001 joined with the nulled copy
        let mut stale = plain.table().clone();
        let mut subsumed = stale.rows()[0].clone();
        assert_eq!(subsumed[3], Value::str("IBM"));
        subsumed[3] = Value::Null;
        stale.push(subsumed);
        let deps = relation_deps(&g);
        let entry = StoredEntry {
            deps: deps.clone(),
            payload: Payload::Table(stale),
            cost_ns: 0,
        };
        // a version-2 file is the version-3 table encoding without the
        // kind byte (after the header and the deps), re-checksummed
        let version_two = |fp| {
            let mut v2 = encode(7, fp, &entry);
            let kind_at = 36 + deps.iter().map(|d| 4 + d.len()).sum::<usize>();
            assert_eq!(v2.remove(kind_at), 0);
            v2[4] = 2;
            v2.truncate(v2.len() - 8);
            let sum = fnv1a(FNV_OFFSET_BASIS, &v2);
            v2.extend_from_slice(&sum.to_le_bytes());
            v2
        };

        let dir = std::env::temp_dir().join(format!("clio-v2-tree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |fp: Fingerprint| dir.join(format!("{:016x}-{:016x}.clc", 7, fp.0));
        let old = graph_fingerprint(&g, &EvalCache::new(), "D(G).tree");
        let fp = graph_fingerprint(&g, &EvalCache::new(), "D(G).tree.ids");
        for fp in [old, fp] {
            std::fs::write(path(fp), version_two(fp)).unwrap();
        }
        let store = std::sync::Arc::new(DiskStore::open(&dir, 7));
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        let warm = full_disjunction_cached(&db, &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        assert_eq!(warm.table().rows(), plain.table().rows());
        let s = store.stats();
        assert_eq!((s.hits, s.load_errors), (0, 1));
        assert!(path(old).exists(), "the old tag is never asked for");
        let Some(Payload::Ids(rewritten)) = store.load(fp).map(|e| e.payload) else {
            panic!("D(G).tree.ids was not respilled");
        };
        assert_eq!((rewritten.width, rewritten.len()), (2, plain.len()));
        // a fresh process is served the rewritten entry
        let cache = EvalCache::new();
        cache.set_store(Some(store.clone()));
        let hits = store.stats().hits;
        let served =
            full_disjunction_cached(&db, &g, FdAlgo::Auto, &funcs(), Some(&cache)).unwrap();
        assert_eq!(served.table().rows(), plain.table().rows());
        assert_eq!(store.stats().hits, hits + 1);
        let _ = std::fs::remove_dir_all(&dir);
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
            graph_fingerprint(&tree, &cache, "D(G).tree.ids"),
            graph_fingerprint(&cyc, &cache, "D(G).tree.ids")
        );
        assert_ne!(
            graph_fingerprint(&tree, &cache, "D(G).tree.ids"),
            graph_fingerprint(&tree, &cache, "D(G).lattice.ids")
        );
        let before = graph_fingerprint(&tree, &cache, "D(G).tree.ids");
        cache.bump_version("Parents");
        assert_ne!(before, graph_fingerprint(&tree, &cache, "D(G).tree.ids"));
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

    /// One key table per pass hashes every connected subgraph to the
    /// same bytes as `subgraph_fingerprint`, so no cached entry, memory or
    /// disk, goes cold: on a 5-cycle and a 5-star, at fresh and at bumped
    /// versions and epochs.
    #[test]
    fn key_table_fingerprints_equal_subgraph_fingerprints() {
        let nodes = |g: &mut QueryGraph| {
            for i in 0..5 {
                g.add_node(Node::new(format!("R{i}"))).unwrap();
            }
        };
        let edge = |g: &mut QueryGraph, a: usize, b: usize| {
            let p = parse_expr(&format!("R{a}.k = R{b}.k")).unwrap();
            g.add_edge(a, b, p).unwrap();
        };
        let mut cycle = QueryGraph::new();
        nodes(&mut cycle);
        for i in 0..5 {
            edge(&mut cycle, i, (i + 1) % 5);
        }
        let mut star = QueryGraph::new();
        nodes(&mut star);
        for i in 1..5 {
            edge(&mut star, 0, i);
        }
        let cache = EvalCache::new();
        for g in [&cycle, &star] {
            let masks = connected_subsets(g);
            assert!(masks.len() >= 5 + 4, "every node and edge");
            for bump in ["", "R2", "R0", "epoch"] {
                match bump {
                    "" => {}
                    "epoch" => cache.bump_epoch(),
                    rel => cache.bump_version(rel),
                }
                let keys = SubgraphKeys::new(g, &cache);
                for &mask in &masks {
                    assert_eq!(
                        keys.fingerprint(mask),
                        subgraph_fingerprint(g, mask, &cache),
                        "mask {mask:#b} after {bump:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_bump_changes_all_fingerprints() {
        let cache = EvalCache::new();
        let g = tree_graph();
        let a = graph_fingerprint(&g, &cache, "D(G).tree.ids");
        let s = subgraph_fingerprint(&g, 0b11, &cache);
        cache.bump_epoch();
        assert_ne!(a, graph_fingerprint(&g, &cache, "D(G).tree.ids"));
        assert_ne!(s, subgraph_fingerprint(&g, 0b11, &cache));
    }
}

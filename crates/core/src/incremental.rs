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
use crate::plan::ir::Pass;
use crate::plan::{disjunction, Exec};
use crate::query_graph::QueryGraph;

/// What a pass's keys mix into their structure hashes, read under one
/// lock: the cache epoch and every graph node's content version.
pub(crate) struct Versions {
    epoch: u64,
    versions: Vec<u64>,
}

impl Versions {
    pub(crate) fn read(graph: &QueryGraph, cache: &EvalCache) -> Versions {
        let (epoch, versions) =
            cache.epoch_and_versions(graph.nodes().iter().map(|n| n.relation.as_str()));
        Versions { epoch, versions }
    }

    /// The cache key of a computation whose version-free `structure`
    /// hash covers the nodes in `mask`: that hash, the epoch, and the
    /// content version of each node in `mask`, in node order.
    pub(crate) fn key(&self, structure: u64, mask: u64) -> Fingerprint {
        let mut fp = FingerprintBuilder::new("versions");
        fp.number(structure).number(self.epoch);
        for (i, &version) in self.versions.iter().enumerate() {
            if mask & (1 << i) != 0 {
                fp.number(version);
            }
        }
        fp.finish()
    }
}

/// The version-free part of the key of the full data associations
/// `F(J)` of the induced subgraph `mask`: the member nodes (with ids, so
/// the join order is captured) and the induced edges. The entry holds
/// tuple ids, `|J|` per row in node order (domain tag `"F(J).ids"`:
/// entries written as values under the older `"F(J)"` tag are never
/// asked for).
pub(crate) fn subgraph_structure(graph: &QueryGraph, mask: u64) -> u64 {
    let mut fp = FingerprintBuilder::new("F(J).ids");
    for (i, n) in graph.nodes().iter().enumerate() {
        if mask & (1 << i) != 0 {
            fp.number(i as u64).text(&n.alias).text(&n.relation);
        }
    }
    for e in graph.edges() {
        if mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0 {
            fp.number(e.a as u64)
                .number(e.b as u64)
                .text(&e.predicate.to_string());
        }
    }
    fp.finish().0
}

/// The graph's full structure, mixed under `tag`: every node (alias,
/// stored relation) in id order, every edge (endpoint ids, predicate
/// text) in insertion order. Node and edge *order* are deliberately part
/// of the digest — join order, and therefore output column and row
/// order, depend on them.
fn whole_graph(graph: &QueryGraph, tag: &str) -> FingerprintBuilder {
    let mut fp = FingerprintBuilder::new(tag);
    for n in graph.nodes() {
        fp.text(&n.alias).text(&n.relation);
    }
    for e in graph.edges() {
        fp.number(e.a as u64)
            .number(e.b as u64)
            .text(&e.predicate.to_string());
    }
    fp
}

/// The version-free part of the key of the assembled `D(G)` under a
/// given algorithm tag (`"D(G).tree.ids"` / `"D(G).lattice.ids"` — the
/// two plans emit different row orders, so they must not share entries;
/// entries written as values under the older `"D(G).tree"` /
/// `"D(G).lattice"` tags are never asked for).
pub(crate) fn disjunction_structure(graph: &QueryGraph, tag: &str) -> u64 {
    whole_graph(graph, tag).finish().0
}

/// The version-free part of the key of a full mapping query `Q(M)`: the
/// graph plus the correspondences, source filters, target filters, and
/// target schema.
pub(crate) fn mapping_structure(mapping: &Mapping) -> u64 {
    let mut fp = whole_graph(&mapping.graph, "Q(M)");
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
    fp.finish().0
}

/// Fingerprint of the assembled `D(G)` under a given algorithm tag: its
/// structure hash (`disjunction_structure`) with the cache epoch and
/// every node's content version mixed in.
#[must_use]
pub fn graph_fingerprint(graph: &QueryGraph, cache: &EvalCache, tag: &str) -> Fingerprint {
    Versions::read(graph, cache).key(disjunction_structure(graph, tag), graph.node_mask())
}

/// Fingerprint of a full mapping query `Q(M)`: its structure hash (the
/// graph plus the correspondences, source filters, target filters, and
/// target schema) with the cache epoch and every node's content version
/// mixed in — the key a compiled mapping's run looks `Q(M)` up under.
#[must_use]
pub fn mapping_fingerprint(mapping: &Mapping, cache: &EvalCache) -> Fingerprint {
    Versions::read(&mapping.graph, cache).key(mapping_structure(mapping), mapping.graph.node_mask())
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

pub(crate) fn elapsed_ns(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Compute `D(G)` by running the un-pushed `D(G)` subtree
/// [`Plan::new`](crate::plan::Plan::new) starts from, with the graph's
/// `GraphForm` built for the run.
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
    let (subtree, form) = disjunction(db, graph, algo)?;
    let ex = Exec {
        db,
        funcs,
        graph,
        cache,
    };
    let pass = Pass::new(&ex, &form)?;
    let (ids, _) = subtree.disjunction_ids(&pass)?;
    Ok(ids.into_association_set())
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

    /// The key of the `F(J)` of the subgraph `mask` at the cache's
    /// current versions.
    fn fj_fingerprint(g: &QueryGraph, cache: &EvalCache, mask: u64) -> Fingerprint {
        Versions::read(g, cache).key(subgraph_structure(g, mask), mask)
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

    /// One union run over every connected subgraph of `g`: the branch
    /// masks and the computed `(mask, cost_ns)` pairs.
    fn schedule_all(g: &QueryGraph, cache: &EvalCache) -> (Vec<u64>, Vec<(u64, u64)>) {
        let (db, funcs) = (db(), funcs());
        let (RelExpr::Union { inputs, masks, pad }, form) =
            disjunction(&db, g, FdAlgo::Lattice).unwrap()
        else {
            panic!("lattice D(G) is a union");
        };
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: g,
            cache: Some(cache),
        };
        let pass = Pass::new(&ex, &form).unwrap();
        let (ids, dispatched) = schedule(&pass, &inputs, &masks, &pad).unwrap();
        let plain = full_disjunction_naive(&db, g, &funcs, engine_subsumption()).unwrap();
        assert_eq!(plain.table().rows(), ids.materialize().rows());
        (masks, dispatched)
    }

    #[test]
    fn cold_runs_dispatch_every_subgraph_and_record_entry_costs() {
        let g = cyclic_graph();
        let cache = EvalCache::new();
        let (branches, dispatched) = schedule_all(&g, &cache);
        let n_subgraphs = connected_subsets(&g).len();
        assert_eq!(branches, connected_subsets(&g));
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
        // the entries carry their measured costs, which eviction reads
        assert!(
            cache
                .debug_entries()
                .iter()
                .any(|&(_, _, cost_ns, _, _)| cost_ns > 0),
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
        let phone = 1u64 << 2;
        for mask in connected_subsets(&g) {
            let warm = cache.peek(fj_fingerprint(&g, &cache, mask));
            assert_eq!(warm, mask & phone == 0, "{mask:#b}");
        }
        let before = cache.stats();
        let (branches, dispatched) = schedule_all(&g, &cache);
        let touching: Vec<u64> = connected_subsets(&g)
            .into_iter()
            .filter(|m| m & phone != 0)
            .collect();
        let masks: Vec<u64> = dispatched.iter().map(|&(mask, _)| mask).collect();
        assert_eq!(masks, touching);
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
            assert!(store.spill(fj_fingerprint(&g, &cache, *mask), &entry));
        }
        let run = |cache: &EvalCache| {
            full_disjunction_cached(&db(), &g, FdAlgo::Auto, &funcs(), Some(cache)).unwrap()
        };
        assert_eq!(run(&cache).table().rows(), plain.table().rows());
        let s = store.stats();
        assert_eq!((s.hits, s.load_errors), (0, 3));
        // the recomputed entries took the forged ones' place on disk
        for (mask, ids, _) in &forged {
            let fp = fj_fingerprint(&g, &cache, *mask);
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
            let fp = fj_fingerprint(&g, &cache, *mask);
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
        let a = fj_fingerprint(&cyc, &cache, mask_children);
        cache.bump_version("Parents");
        assert_eq!(a, fj_fingerprint(&cyc, &cache, mask_children));
        cache.bump_version("Children");
        assert_ne!(a, fj_fingerprint(&cyc, &cache, mask_children));
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
        let a = graph_fingerprint(&g, &cache, "D(G).tree.ids");
        let s = fj_fingerprint(&g, &cache, 0b11);
        cache.bump_epoch();
        assert_ne!(a, graph_fingerprint(&g, &cache, "D(G).tree.ids"));
        assert_ne!(s, fj_fingerprint(&g, &cache, 0b11));
    }
}

//! The mapping query's executable plan: a typed relational-algebra IR
//! over `Q(M)`, one rewrite, and the one interpreter every evaluation
//! runs.
//!
//! [`Plan::new`] lowers a [`Mapping`] into a [`RelExpr`] tree — the
//! per-subgraph `F(J)` join chains (or the left-deep outer-join chain on
//! trees), the minimum union, source/target filters, and the projection
//! onto the target schema — starting from the un-pushed `D(G)` subtree
//! that [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)
//! runs. [`Mapping::evaluate_cached`] runs the tree with [`RelExpr::run`]
//! on every `Q(M)` cache miss; there is no other evaluator. One rewrite
//! is always on, **filter pushdown**: a source filter that is *strong*
//! (not true on an all-null row, [`Expr::is_strong`]) and
//! *extension-stable* (once true, still true on any row refining its
//! nulls, [`is_extension_stable`]) commutes with the subsumption pass of
//! the minimum union: a row's subsumers are exactly its extensions, and
//! exact duplicates filter identically. Such a filter is pushed into
//! every union branch that binds all of its aliases, and any branch
//! sharing *no* alias with it is **pruned** — after padding its rows are
//! all-null on the filter's columns, which a strong filter rejects. The
//! authoritative top-level filters run regardless, so the rewrite only
//! shrinks intermediate results.
//!
//! A union carries each branch's subgraph node mask beside its chain;
//! the misses run level by level in popcount order, then mask order,
//! and assemble in canonical order. `explain` marks a branch `[warm]`
//! when the cache holds its `F(J)` at render time, `[cold]` otherwise.
//!
//! `F(J)` entries hold *unfiltered* tables, so pushed and un-pushed
//! plans share them. Property tests in `tests/properties.rs` replay
//! random graphs × random filters against a no-pushdown reference and
//! assert byte equality. See `docs/planner.md`.

pub mod explain;
pub mod ir;

pub use ir::{chain_ir, is_extension_stable, Exec, FilterScope, RelExpr};

use clio_incr::EvalCache;
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;

use crate::full_disjunction::FdAlgo;
use crate::mapping::Mapping;
use crate::query_graph::QueryGraph;
use crate::subgraph::connected_subsets;

/// An executable plan for one mapping query: built by [`Plan::new`],
/// run by [`RelExpr::run`] on its [`root`](Plan::root), rendered with
/// [`Plan::explain`].
#[derive(Debug, Clone)]
pub struct Plan<'m> {
    mapping: &'m Mapping,
    cache: Option<&'m EvalCache>,
    root: RelExpr,
    pruned: usize,
    pushed: Vec<Expr>,
}

/// The un-pushed `D(G)` subtree for `algo` (resolved against `graph`):
/// the outer-join chain over every node, or the minimum union of every
/// connected subgraph's `F(J)` chain, each beside its node mask.
pub(crate) fn disjunction(db: &Database, graph: &QueryGraph, algo: FdAlgo) -> Result<RelExpr> {
    match algo.resolve(graph) {
        FdAlgo::OuterJoin if !graph.is_tree() => Err(Error::Invalid(
            "outer-join full disjunction requires a tree query graph".into(),
        )),
        FdAlgo::OuterJoin => Ok(chain_ir(graph, graph.node_mask(), true)),
        _ => {
            let masks = connected_subsets(graph);
            Ok(RelExpr::Union {
                inputs: masks.iter().map(|&m| chain_ir(graph, m, false)).collect(),
                masks,
                pad: graph.scheme(db)?,
            })
        }
    }
}

impl<'m> Plan<'m> {
    /// Build and rewrite the plan for `mapping`. The cache, when given,
    /// is only what [`Plan::explain`] peeks to mark each branch warm or
    /// cold — plan *structure* is a pure function of the mapping and
    /// database, so the same mapping always produces the same algebra.
    pub fn new(
        mapping: &'m Mapping,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&'m EvalCache>,
    ) -> Result<Plan<'m>> {
        let _span = clio_obs::span("plan.build");
        let graph = &mapping.graph;
        let mut root = disjunction(db, graph, FdAlgo::Auto)?;
        let mut pushed: Vec<Expr> = Vec::new();
        let mut pruned = 0usize;
        if let RelExpr::Union { inputs, masks, pad } = &mut root {
            let mut pushed_masks: Vec<u64> = Vec::new();
            for f in &mapping.source_filters {
                let Some(amask) = alias_mask(graph, f) else {
                    continue; // bare or foreign qualifiers: not pushable
                };
                if amask != 0 && is_extension_stable(f) && f.is_strong(pad, funcs)? {
                    pushed.push(f.clone());
                    pushed_masks.push(amask);
                }
            }
            let before = masks.len();
            // a branch sharing no alias with some pushed (strong) filter
            // is all-null on that filter's columns: drop it; the others
            // get a copy of every pushed filter they bind completely
            let survivors: Vec<(RelExpr, u64)> = std::mem::take(inputs)
                .into_iter()
                .zip(std::mem::take(masks))
                .filter(|&(_, mask)| pushed_masks.iter().all(|&pm| pm & mask != 0))
                .map(|(mut branch, mask)| {
                    for (f, &pm) in pushed.iter().zip(&pushed_masks) {
                        if pm & mask == pm {
                            branch = branch.filtered(f, FilterScope::Source, true);
                        }
                    }
                    (branch, mask)
                })
                .collect();
            pruned = before - survivors.len();
            (*inputs, *masks) = survivors.into_iter().unzip();
        }
        for f in &mapping.source_filters {
            root = root.filtered(f, FilterScope::Source, false);
        }
        root = RelExpr::Project {
            input: Box::new(root),
            correspondences: mapping.correspondences.clone(),
            target: mapping.target.clone(),
        };
        for f in &mapping.target_filters {
            root = root.filtered(f, FilterScope::Target, false);
        }
        root.check()?;

        metrics::incr(Counter::PlanBuilt);
        metrics::add(Counter::PlanPushedFilters, pushed.len() as u64);
        metrics::add(Counter::PlanPrunedSubgraphs, pruned as u64);
        Ok(Plan {
            mapping,
            cache,
            root,
            pruned,
            pushed,
        })
    }

    /// The rewritten algebra tree.
    #[must_use]
    pub fn root(&self) -> &RelExpr {
        &self.root
    }

    /// The `D(G)` stage: the node beneath the projection and filters —
    /// a `Union` on cyclic graphs, the outer-join chain on trees.
    fn disjunction(&self) -> &RelExpr {
        let mut e = &self.root;
        while let RelExpr::Project { input, .. } | RelExpr::Filter { input, .. } = e {
            e = input;
        }
        e
    }

    /// The source filters pushed below the minimum union.
    #[must_use]
    pub fn pushed_filters(&self) -> &[Expr] {
        &self.pushed
    }

    /// How many subgraph branches the pushdown rewrite pruned.
    #[must_use]
    pub fn pruned_subgraphs(&self) -> usize {
        self.pruned
    }

    /// Render the plan as an indented tree (the `explain` output).
    #[must_use]
    pub fn explain(&self) -> String {
        explain::render(self)
    }
}

/// The qualifier bitmask of an expression over graph aliases, or `None`
/// if any column is bare or references a non-graph qualifier.
pub(crate) fn alias_mask(graph: &QueryGraph, e: &Expr) -> Option<u64> {
    let mut mask = 0u64;
    for c in e.columns() {
        let q = c.qualifier.as_deref()?;
        let (i, _) = graph
            .nodes()
            .iter()
            .enumerate()
            .find(|(_, n)| n.alias == q)?;
        mask |= 1 << i;
    }
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::query_graph::Node;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::table::Table;
    use clio_relational::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("age", DataType::Int)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), 6i64.into(), "201".into()])
                .row(vec!["002".into(), 9i64.into(), "202".into()])
                .row(vec!["003".into(), 4i64.into(), Value::Null])
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

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
                Attribute::new("number", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn tree_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    fn cyclic_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(p, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(c, ph, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_correspondence(ValueCorrespondence::identity(
                "Parents.affiliation",
                "affiliation",
            ))
            .with_correspondence(ValueCorrespondence::identity("PhoneDir.number", "number"))
            .with_source_filter(parse_expr("Children.age < 7").unwrap())
            .with_target_not_null_filters()
    }

    /// `Q(M)` without the plan: the reference `D(G)` (the definitional
    /// oracle on cyclic graphs, no pushdown) and the evaluator loop.
    fn reference(m: &Mapping) -> Table {
        use crate::full_disjunction::{engine_subsumption, full_disjunction_naive};
        let (db, funcs) = (db(), funcs());
        let assocs = if m.graph.is_tree() {
            crate::full_disjunction::full_disjunction(&db, &m.graph, FdAlgo::OuterJoin, &funcs)
        } else {
            full_disjunction_naive(&db, &m.graph, &funcs, engine_subsumption())
        }
        .unwrap();
        let eval = m.evaluator(&db, &funcs).unwrap();
        let mut out = Table::empty(m.target_scheme());
        for i in 0..assocs.len() {
            if let Some(row) = eval.target_row_if_passing(assocs.row(i), &funcs).unwrap() {
                out.push_distinct(row);
            }
        }
        out
    }

    fn assert_same(m: &Mapping, cache: Option<&EvalCache>) {
        let expected = reference(m);
        let planned = m.evaluate_cached(&db(), &funcs(), cache).unwrap();
        assert_eq!(expected.scheme(), planned.scheme());
        assert_eq!(expected.rows(), planned.rows());
    }

    #[test]
    fn plans_are_well_formed_and_typed() {
        for m in [tree_mapping(), cyclic_mapping()] {
            let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
            plan.root().check().unwrap();
            let scheme = plan.root().scheme(&db()).unwrap();
            assert_eq!(scheme, m.target_scheme());
        }
    }

    #[test]
    fn tree_mappings_take_the_outer_join_plan_unchanged() {
        let m = tree_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert!(matches!(
            plan.disjunction(),
            RelExpr::Join { outer: true, .. }
        ));
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, None);
    }

    #[test]
    fn cyclic_mappings_push_strong_filters_and_prune() {
        let m = cyclic_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert!(matches!(plan.disjunction(), RelExpr::Union { .. }));
        assert_eq!(plan.pushed_filters().len(), 1);
        // subgraphs not containing Children ({P}, {Ph}, {P,Ph}) are
        // pruned by the strong Children.age filter
        assert_eq!(plan.pruned_subgraphs(), 3);
        assert_same(&m, None);
    }

    #[test]
    fn non_pushable_filters_leave_the_plan_definitional() {
        // coalesce is non-strict: true on a null-filled row can decay
        let mut m = cyclic_mapping();
        m.source_filters = vec![parse_expr("coalesce(Children.age, 99) < 7").unwrap()];
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, None);
    }

    #[test]
    fn partially_bound_filters_prune_only_disjoint_branches() {
        // references Children and PhoneDir: {Parents} alone is disjoint
        // with neither... it shares no alias with the filter, so it is
        // pruned; {Children,Parents} binds the filter only partially and
        // must stay unfiltered
        let mut m = cyclic_mapping();
        m.source_filters =
            vec![parse_expr("Children.age < 7 AND PhoneDir.number LIKE '555%'").unwrap()];
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.pushed_filters().len(), 1);
        assert!(plan.pruned_subgraphs() >= 1);
        assert_same(&m, None);
    }

    #[test]
    fn disjunctive_filters_across_aliases_stay_identical() {
        let mut m = cyclic_mapping();
        m.source_filters =
            vec![parse_expr("Children.age < 7 OR PhoneDir.number = '555-0102'").unwrap()];
        assert_same(&m, None);
    }

    #[test]
    fn planned_evaluation_is_cached_and_identical_under_a_cache() {
        let m = cyclic_mapping();
        let cache = EvalCache::new();
        assert_same(&m, Some(&cache));
        // the result lives under the one Q(M) entry
        let fp = crate::incremental::mapping_fingerprint(&m, &cache);
        assert!(cache.peek(fp));
        let hits_before = cache.stats().hits;
        let again = m.evaluate_cached(&db(), &funcs(), Some(&cache)).unwrap();
        assert_eq!(again.rows(), reference(&m).rows());
        assert_eq!(cache.stats().hits, hits_before + 1, "repeat must hit Q(M)");
        // warm branches are marked as such by a rebuilt plan's explain
        let rebuilt = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        let text = rebuilt.explain();
        assert!(text.contains("[warm]"), "{text}");
    }

    #[test]
    fn pushed_plans_serve_unfiltered_subgraph_entries() {
        let m = cyclic_mapping();
        let cache = EvalCache::new();
        assert_same(&m, Some(&cache));
        let plan = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        let text = plan.explain();
        assert!(!text.contains("[cold]"), "{text}");
        // the triangle has 7 connected subgraphs
        let warm = text.matches("[warm]").count();
        assert_eq!(warm, 7 - plan.pruned_subgraphs(), "{text}");
        // a different target filter is a new Q(M): every surviving F(J)
        // is served from the entries the first run stored
        let m2 = m
            .clone()
            .with_target_filter(parse_expr("Kids.number IS NOT NULL").unwrap());
        let before = cache.stats();
        assert_same(&m2, Some(&cache));
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1, "only the new Q(M) misses");
        assert_eq!(after.hits - before.hits, warm as u64);
    }
}

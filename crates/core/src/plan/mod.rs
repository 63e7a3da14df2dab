//! The mapping query's executable plan: a typed relational-algebra IR
//! over `Q(M)`, two rewrites, and the executor every evaluation runs.
//!
//! [`Plan::new`] lowers a [`Mapping`] into a [`RelExpr`] tree — the
//! per-subgraph `F(J)` join chains (or the left-deep outer-join chain on
//! trees), the minimum union, source/target filters, and the projection
//! onto the target schema. [`Mapping::evaluate_cached`] builds a plan on
//! every `Q(M)` cache miss and runs it; there is no other evaluator. Two
//! rewrites are always on:
//!
//! 1. **Filter pushdown.** A source filter that is *strong* (not true on
//!    an all-null row, [`Expr::is_strong`]) and *extension-stable* (once
//!    true, still true on any row refining its nulls,
//!    [`is_extension_stable`]) commutes with the subsumption pass of the
//!    minimum union: a row's subsumers are exactly its extensions, so
//!    the filter can never keep a row while dropping the subsumer that
//!    would have replaced it, and exact duplicates filter identically.
//!    Such a filter is therefore pushed below the union into every
//!    subgraph branch that binds all of its aliases, and any branch
//!    sharing *no* alias with it is **pruned** outright — every row the
//!    branch contributes is all-null on the filter's columns after
//!    padding, so a strong filter rejects them all. Branches binding
//!    only some aliases stay unfiltered; the authoritative top-level
//!    filters run regardless, so the rewrite only shrinks intermediate
//!    results and can never change the answer.
//! 2. **Warmth-guided subgraph ordering.** Each surviving subgraph is
//!    classified warm/cold via a non-promoting [`EvalCache::peek`] and
//!    priced via [`EvalCache::estimate_cost`] (sibling cost history,
//!    falling back to a row-count heuristic). The scheduler dispatches
//!    cold subgraphs longest-estimated-first so a straggler cannot
//!    serialize the tail; assembly stays in canonical subgraph order,
//!    keeping the output byte-identical.
//!
//! The full-disjunction stage runs through the incremental layer's one
//! scheduler and shares its per-subgraph `F(J)` entries — entries hold
//! *unfiltered* tables, pushed filters are applied after retrieval — and
//! its graph-level `D(G)` memo whenever nothing was pushed. Property
//! tests in `tests/properties.rs` replay random graphs × random filters
//! against a no-pushdown reference and assert byte equality. See
//! `docs/planner.md`.

pub mod explain;
pub mod ir;

pub use ir::{chain_ir, is_extension_stable, FilterScope, RelExpr};

pub use crate::incremental::BranchInfo;

use clio_incr::EvalCache;
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;

use crate::association::AssociationSet;
use crate::full_disjunction::FdAlgo;
use crate::incremental::{
    annotate_branches, full_disjunction_cached, full_disjunction_scheduled, memoized_disjunction,
    total_ns,
};
use crate::mapping::Mapping;
use crate::query_graph::QueryGraph;
use crate::subgraph::connected_subsets;

/// The full-disjunction strategy a plan commits to — the resolution of
/// [`FdAlgo::Auto`] made explicit at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAlgo {
    /// Tree graph: left-deep full outer joins, no subgraph enumeration.
    OuterJoin,
    /// Cyclic graph: minimum union over all induced connected subgraphs.
    Naive,
}

/// An executable plan for one mapping query.
///
/// Built by [`Plan::new`]; its full-disjunction stage runs with
/// [`Plan::associations`] (the rest of `Q(M)` is the
/// [`MappingEvaluator`](crate::mapping::MappingEvaluator) pass of
/// [`Mapping::evaluate_cached`]); rendered with [`Plan::explain`].
#[derive(Debug, Clone)]
pub struct Plan<'m> {
    mapping: &'m Mapping,
    root: RelExpr,
    algo: PlanAlgo,
    /// Scheduling annotations for the surviving subgraph branches in
    /// canonical order (empty on trees), parallel to the `Union` node's
    /// branches.
    branches: Vec<BranchInfo>,
    pruned: usize,
    pushed: Vec<Expr>,
    /// Alias masks parallel to `pushed`.
    pushed_masks: Vec<u64>,
}

impl<'m> Plan<'m> {
    /// Build and rewrite the plan for `mapping`. The cache, when given,
    /// only informs the scheduling annotations — plan *structure* is a
    /// pure function of the mapping and database, so the same mapping
    /// always produces the same algebra.
    pub fn new(
        mapping: &'m Mapping,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<Plan<'m>> {
        let _span = clio_obs::span("plan.build");
        let graph = &mapping.graph;
        let scheme = graph.scheme(db)?;
        let algo = match FdAlgo::Auto.resolve(graph) {
            FdAlgo::OuterJoin => PlanAlgo::OuterJoin,
            _ => PlanAlgo::Naive,
        };

        let mut masks: Vec<u64> = Vec::new();
        let mut pushed: Vec<Expr> = Vec::new();
        let mut pushed_masks: Vec<u64> = Vec::new();
        let mut pruned = 0usize;
        if algo == PlanAlgo::Naive {
            masks = connected_subsets(graph);
            for f in &mapping.source_filters {
                let Some(amask) = alias_mask(graph, f) else {
                    continue; // bare or foreign qualifiers: not pushable
                };
                if amask != 0 && is_extension_stable(f) && f.is_strong(&scheme, funcs)? {
                    pushed.push(f.clone());
                    pushed_masks.push(amask);
                }
            }
            if !pushed.is_empty() {
                let before = masks.len();
                // a branch sharing no alias with some pushed (strong)
                // filter is all-null on that filter's columns: drop it
                masks.retain(|&mask| pushed_masks.iter().all(|&pm| pm & mask != 0));
                pruned = before - masks.len();
            }
        }

        let fd = match algo {
            PlanAlgo::OuterJoin => chain_ir(graph, graph.node_mask(), true),
            PlanAlgo::Naive => RelExpr::Union {
                inputs: masks
                    .iter()
                    .map(|&mask| {
                        let mut branch = chain_ir(graph, mask, false);
                        for (f, &pm) in pushed.iter().zip(&pushed_masks) {
                            if pm & mask == pm {
                                branch = RelExpr::Filter {
                                    input: Box::new(branch),
                                    predicate: f.clone(),
                                    scope: FilterScope::Source,
                                    pushed: true,
                                };
                            }
                        }
                        branch
                    })
                    .collect(),
                pad: scheme.clone(),
            },
        };
        let mut root = fd;
        for f in &mapping.source_filters {
            root = RelExpr::Filter {
                input: Box::new(root),
                predicate: f.clone(),
                scope: FilterScope::Source,
                pushed: false,
            };
        }
        root = RelExpr::Project {
            input: Box::new(root),
            correspondences: mapping.correspondences.clone(),
            target: mapping.target.clone(),
        };
        for f in &mapping.target_filters {
            root = RelExpr::Filter {
                input: Box::new(root),
                predicate: f.clone(),
                scope: FilterScope::Target,
                pushed: false,
            };
        }
        root.check()?;

        // the second rewrite: answer-invisible, so a missing or cold
        // cache only means heuristic estimates
        let branches = annotate_branches(db, graph, &masks, cache);

        metrics::incr(Counter::PlanBuilt);
        metrics::add(Counter::PlanPushedFilters, pushed.len() as u64);
        metrics::add(Counter::PlanPrunedSubgraphs, pruned as u64);
        Ok(Plan {
            mapping,
            root,
            algo,
            branches,
            pruned,
            pushed,
            pushed_masks,
        })
    }

    /// The rewritten algebra tree.
    #[must_use]
    pub fn root(&self) -> &RelExpr {
        &self.root
    }

    /// The committed full-disjunction strategy.
    #[must_use]
    pub fn algo(&self) -> PlanAlgo {
        self.algo
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

    /// Scheduling annotations for the surviving subgraph branches.
    #[must_use]
    pub fn branches(&self) -> &[BranchInfo] {
        &self.branches
    }

    /// Render the plan as an indented tree (the `explain` output).
    #[must_use]
    pub fn explain(&self) -> String {
        explain::render(self)
    }

    /// Run the plan's full-disjunction stage: the data associations the
    /// mapping's filters and projection then apply to.
    ///
    /// Trees run the outer-join chain under the `D(G).tree` memo. Cyclic
    /// graphs run the scheduler over this plan's branches, in its
    /// warmth/estimate order; with nothing pushed that is exactly
    /// `D(G)`, so the graph-level `D(G).naive` memo applies. With pushed
    /// filters the assembled set is no longer `D(G)`, so the scheduler
    /// works straight from the per-subgraph entries, filtering each
    /// retrieved `F(J)` with the pushed predicates that bind on it.
    pub fn associations(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<AssociationSet> {
        metrics::incr(Counter::PlanEvals);
        let graph = &self.mapping.graph;
        let run = || -> Result<(AssociationSet, u64)> {
            let (set, dispatched) = full_disjunction_scheduled(
                db,
                graph,
                funcs,
                cache,
                &self.branches,
                &self.pushed,
                &self.pushed_masks,
            )?;
            Ok((set, total_ns(&dispatched)))
        };
        match self.algo {
            PlanAlgo::OuterJoin => {
                full_disjunction_cached(db, graph, FdAlgo::OuterJoin, funcs, cache)
            }
            PlanAlgo::Naive if self.pushed.is_empty() => {
                memoized_disjunction(graph, cache, "D(G).naive", run)
            }
            PlanAlgo::Naive => run().map(|(set, _)| set),
        }
    }
}

/// The qualifier bitmask of an expression over graph aliases, or `None`
/// if any column is bare or references a non-graph qualifier.
fn alias_mask(graph: &QueryGraph, e: &Expr) -> Option<u64> {
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

    /// `Q(M)` without the plan: the definitional `D(G)` (naive minimum
    /// union on cyclic graphs, no pushdown) and the evaluator loop.
    fn reference(m: &Mapping) -> Table {
        let (db, funcs) = (db(), funcs());
        let assocs = m.associations(&db, FdAlgo::Auto, &funcs).unwrap();
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
        assert_eq!(plan.algo(), PlanAlgo::OuterJoin);
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, None);
    }

    #[test]
    fn cyclic_mappings_push_strong_filters_and_prune() {
        let m = cyclic_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.algo(), PlanAlgo::Naive);
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
        // warm branches are annotated as such on a rebuild
        let rebuilt = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        assert!(rebuilt.branches().iter().any(|b| b.warm));
    }

    #[test]
    fn pushed_plans_serve_unfiltered_subgraph_entries() {
        let m = cyclic_mapping();
        let cache = EvalCache::new();
        assert_same(&m, Some(&cache));
        let plan = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        assert!(plan.branches().iter().all(|b| b.warm));
        // a different target filter is a new Q(M): every surviving F(J)
        // is served from the entries the first run stored
        let m2 = m
            .clone()
            .with_target_filter(parse_expr("Kids.number IS NOT NULL").unwrap());
        let before = cache.stats();
        assert_same(&m2, Some(&cache));
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1, "only the new Q(M) misses");
        assert_eq!(after.hits - before.hits, plan.branches().len() as u64);
    }
}

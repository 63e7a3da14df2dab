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

use std::sync::{Arc, OnceLock};

use clio_incr::EvalCache;
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::Scheme;
use clio_relational::table::Table;

use crate::example::Example;
use crate::full_disjunction::FdAlgo;
use crate::incremental::{elapsed_ns, mapping_structure, relation_deps};
use crate::mapping::Mapping;
use crate::query_graph::QueryGraph;
use crate::subgraph::connected_subsets;
use ir::{Frame, GraphForm, Pass, Projection};

/// An executable plan for one mapping query: built by [`Plan::new`],
/// run by [`RelExpr::run`] on its [`root`](Plan::root), rendered with
/// [`Plan::explain`].
#[derive(Debug, Clone)]
pub struct Plan<'m> {
    compiled: Arc<CompiledMapping>,
    cache: Option<&'m EvalCache>,
}

/// The un-pushed `D(G)` subtree for `algo` (resolved against `graph`) —
/// the outer-join chain over every node, or the minimum union of every
/// connected subgraph's `F(J)` chain, each beside its node mask — and
/// the graph's [`GraphForm`] for the subgraphs its runs read.
pub(crate) fn disjunction(
    db: &Database,
    graph: &QueryGraph,
    algo: FdAlgo,
) -> Result<(RelExpr, GraphForm)> {
    let all = graph.node_mask();
    match algo.resolve(graph) {
        FdAlgo::OuterJoin if !graph.is_tree() => Err(Error::Invalid(
            "outer-join full disjunction requires a tree query graph".into(),
        )),
        FdAlgo::OuterJoin => {
            // the tree plan looks no `F(J)` up: frames only
            let scans = (0..graph.node_count()).map(|v| 1 << v);
            let form = GraphForm::new(graph, db, scans.chain([all]), &[], "D(G).tree.ids")?;
            Ok((chain_ir(graph, all, true), form))
        }
        _ => {
            let masks = connected_subsets(graph);
            let frames = masks.iter().copied().chain([all]);
            let form = GraphForm::new(graph, db, frames, &masks, "D(G).lattice.ids")?;
            let pad = form
                .built(all)
                .map(|frame| frame.scheme().clone())
                .ok_or_else(|| Error::Invalid("a graph's form lays out every node".into()))?;
            let union = RelExpr::Union {
                inputs: masks.iter().map(|&m| chain_ir(graph, m, false)).collect(),
                masks,
                pad,
            };
            Ok((union, form))
        }
    }
}

/// A mapping compiled once: everything its runs need that depends on
/// the mapping, the relation schemes and the function registry, but not
/// on the data. It holds the un-pushed `D(G)` subtree the examples run,
/// the union with the pushed filters when the pushdown rewrote it (else
/// the plan runs the same subtree), the graph's [`GraphForm`] (each
/// subgraph's frame and key structure hash), and the [`Projection`]
/// bound over the graph scheme, which both the preview and the examples
/// evaluate. The whole plan tree (what [`Plan::root`] and `explain`
/// show) and the version-free structure hash of the `Q(M)` key are built
/// on first use. A run borrows each relation once and mixes the current
/// content versions into the precomputed hashes (`ir::Pass`); it builds
/// no plan, chain, frame or key text.
///
/// A compiled form describes the mapping it was built from over the
/// relation schemes and function epoch it was built against:
/// [`CompiledMapping::is_current`] is what a holder checks before each
/// reuse.
#[derive(Debug)]
pub(crate) struct CompiledMapping {
    mapping: Mapping,
    epoch: u64,
    form: GraphForm,
    /// The frame over every node: the graph scheme.
    all: Arc<Frame>,
    disjunction: RelExpr,
    /// The `D(G)` stage when filters were pushed into it.
    pushed_union: Option<RelExpr>,
    pushed: Vec<Expr>,
    pruned: usize,
    root: OnceLock<RelExpr>,
    /// The version-free structure hash of the `Q(M)` key.
    qm: OnceLock<u64>,
    projection: Projection,
    /// The graph scheme's positions in itself: what evolving an
    /// illustration of this mapping onto this mapping reads.
    positions: Vec<usize>,
}

impl CompiledMapping {
    /// Compile `mapping` against `db`'s relation schemes and `funcs`
    /// (span `plan.build`, counting `plan.built`); `epoch` is the
    /// function epoch the caller checks reuse against. The plan starts
    /// from the un-pushed `D(G)` subtree and applies the one rewrite,
    /// filter pushdown (see the module docs).
    pub(crate) fn new(
        mapping: &Mapping,
        db: &Database,
        funcs: &FuncRegistry,
        epoch: u64,
    ) -> Result<CompiledMapping> {
        let _span = clio_obs::span("plan.build");
        let graph = &mapping.graph;
        let (disjunction, form) = disjunction(db, graph, FdAlgo::Auto)?;
        let all = form
            .built(graph.node_mask())
            .ok_or_else(|| Error::Invalid("a graph's form lays out every node".into()))?;
        let mut pushed: Vec<Expr> = Vec::new();
        let mut pruned = 0usize;
        let mut pushed_union = None;
        if let RelExpr::Union { inputs, masks, pad } = &disjunction {
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
            if !pushed.is_empty() {
                // a branch sharing no alias with some pushed (strong)
                // filter is all-null on that filter's columns: drop it;
                // the others get a copy of every pushed filter they bind
                // completely
                let (inputs, kept): (Vec<RelExpr>, Vec<u64>) = inputs
                    .iter()
                    .zip(masks)
                    .filter(|&(_, &mask)| pushed_masks.iter().all(|&pm| pm & mask != 0))
                    .map(|(branch, &mask)| {
                        let mut branch = branch.clone();
                        for (f, &pm) in pushed.iter().zip(&pushed_masks) {
                            if pm & mask == pm {
                                branch = branch.filtered(f, FilterScope::Source, true);
                            }
                        }
                        (branch, mask)
                    })
                    .unzip();
                pruned = masks.len() - kept.len();
                pushed_union = Some(RelExpr::Union {
                    inputs,
                    masks: kept,
                    pad: pad.clone(),
                });
            }
        }
        let projection = Projection::bind(
            &mapping.correspondences,
            &mapping.target,
            all.scheme(),
            &mapping.source_filters.iter().collect::<Vec<_>>(),
            &mapping.target_filters.iter().collect::<Vec<_>>(),
        )?;

        metrics::incr(Counter::PlanBuilt);
        metrics::add(Counter::PlanPushedFilters, pushed.len() as u64);
        metrics::add(Counter::PlanPrunedSubgraphs, pruned as u64);
        Ok(CompiledMapping {
            mapping: mapping.clone(),
            epoch,
            form,
            positions: (0..all.scheme().arity()).collect(),
            all,
            disjunction,
            pushed_union,
            pushed,
            pruned,
            root: OnceLock::new(),
            qm: OnceLock::new(),
            projection,
        })
    }

    /// The whole plan: the `D(G)` stage under the source filters, the
    /// projection, and the target filters on top.
    fn root(&self) -> &RelExpr {
        self.root.get_or_init(|| {
            let m = &self.mapping;
            let mut root = self.plan_disjunction().clone();
            for f in &m.source_filters {
                root = root.filtered(f, FilterScope::Source, false);
            }
            root = RelExpr::Project {
                input: Box::new(root),
                correspondences: m.correspondences.clone(),
                target: m.target.clone(),
            };
            for f in &m.target_filters {
                root = root.filtered(f, FilterScope::Target, false);
            }
            root
        })
    }

    /// Does this form describe `mapping` over `db`'s relation schemes at
    /// function epoch `epoch`? Only then may it run in its place. The
    /// schemes are compared attribute by attribute with the graph
    /// scheme the form was built over, which copies nothing.
    pub(crate) fn is_current(&self, mapping: &Mapping, db: &Database, epoch: u64) -> bool {
        let mut columns = self.all.scheme().columns().iter();
        self.epoch == epoch
            && self.mapping == *mapping
            && self.mapping.graph.nodes().iter().all(|n| {
                db.relation(&n.relation).is_ok_and(|r| {
                    r.schema().attrs().iter().all(|a| {
                        columns
                            .next()
                            .is_some_and(|c| c.name == a.name && c.ty == a.ty)
                    })
                })
            })
            && columns.next().is_none()
    }

    /// The mapping this form was compiled from.
    pub(crate) fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The graph scheme the examples' associations are rows over.
    pub(crate) fn scheme(&self) -> &Scheme {
        self.all.scheme()
    }

    /// The positions of the graph scheme in itself (evolving onto the
    /// same mapping).
    pub(crate) fn own_positions(&self) -> &[usize] {
        &self.positions
    }

    /// A run's pass over `db`: each relation borrowed once, and with a
    /// live cache the versions its keys mix in read once.
    fn pass<'p>(
        &'p self,
        db: &'p Database,
        funcs: &'p FuncRegistry,
        cache: Option<&'p EvalCache>,
    ) -> Result<Pass<'p>> {
        let ex = Exec {
            db,
            funcs,
            graph: &self.mapping.graph,
            cache,
        };
        Pass::new(&ex, &self.form)
    }

    /// The mapping query's result (span `mapping.evaluate`), memoized
    /// with a live cache under its `"Q(M)"` key: the compiled structure
    /// hash with the pass's versions mixed in. On a miss the plan runs.
    pub(crate) fn evaluate(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<Table> {
        let _span = clio_obs::span("mapping.evaluate");
        let pass = self.pass(db, funcs, cache)?;
        let qm = *self.qm.get_or_init(|| mapping_structure(&self.mapping));
        let keyed = pass.keyed(qm, self.mapping.graph.node_mask());
        if let Some(table) = keyed.and_then(|(c, fp)| c.get(fp)) {
            return Ok(table);
        }
        self.run_plan(&pass, keyed)
    }

    /// Run the plan: the `D(G)` beneath the projection (memoized as the
    /// pass allows), projected, and inserted under `keyed` when given.
    fn run_plan(
        &self,
        pass: &Pass,
        keyed: Option<(&EvalCache, clio_incr::Fingerprint)>,
    ) -> Result<Table> {
        let t0 = std::time::Instant::now();
        metrics::incr(Counter::PlanEvals);
        let (ids, charged) = self.plan_disjunction().disjunction_ids(pass)?;
        let out = self.projection.run(&ids, pass.funcs)?;
        if let Some((c, fp)) = keyed {
            // Exclusive cost: charging the time already charged to the
            // `D(G)` / `F(J)` entries again would hand this low-reuse
            // aggregate an inflated eviction priority.
            let cost_ns = elapsed_ns(t0).saturating_sub(charged);
            c.insert_costed(fp, relation_deps(&self.mapping.graph), &out, cost_ns);
        }
        Ok(out)
    }

    /// The mapping's examples (span `mapping.examples`; paper Def 4.1):
    /// one per association of the un-pushed `D(G)`, which the preview
    /// shares through the `D(G)` memo when it pushes no filter.
    pub(crate) fn examples(
        &self,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&EvalCache>,
    ) -> Result<Vec<Example>> {
        let _span = clio_obs::span("mapping.examples");
        let pass = self.pass(db, funcs, cache)?;
        let (ids, _) = self.disjunction.disjunction_ids(&pass)?;
        self.projection.examples(&ids, funcs)
    }

    /// The `D(G)` stage of the plan, beneath the projection and filters
    /// — a `Union` on cyclic graphs, the outer-join chain on trees: the
    /// un-pushed subtree unless filters were pushed into it.
    fn plan_disjunction(&self) -> &RelExpr {
        self.pushed_union.as_ref().unwrap_or(&self.disjunction)
    }
}

impl<'m> Plan<'m> {
    /// Compile the plan for `mapping` ([`Plan::new`] counts `plan.built`).
    /// The cache, when given, is only what [`Plan::explain`] peeks to
    /// mark each branch warm or cold — plan *structure* is a pure
    /// function of the mapping and the schemes, so the same mapping
    /// always produces the same algebra.
    pub fn new(
        mapping: &'m Mapping,
        db: &Database,
        funcs: &FuncRegistry,
        cache: Option<&'m EvalCache>,
    ) -> Result<Plan<'m>> {
        let compiled = CompiledMapping::new(mapping, db, funcs, 0)?;
        compiled.root().check()?;
        Ok(Plan::compiled(Arc::new(compiled), cache))
    }

    /// The plan of an already compiled mapping.
    pub(crate) fn compiled(
        compiled: Arc<CompiledMapping>,
        cache: Option<&'m EvalCache>,
    ) -> Plan<'m> {
        Plan { compiled, cache }
    }

    /// The rewritten algebra tree.
    #[must_use]
    pub fn root(&self) -> &RelExpr {
        self.compiled.root()
    }

    /// The `D(G)` stage: the node beneath the projection and filters —
    /// a `Union` on cyclic graphs, the outer-join chain on trees.
    fn disjunction(&self) -> &RelExpr {
        self.compiled.plan_disjunction()
    }

    /// The source filters pushed below the minimum union.
    #[must_use]
    pub fn pushed_filters(&self) -> &[Expr] {
        &self.compiled.pushed
    }

    /// How many subgraph branches the pushdown rewrite pruned.
    #[must_use]
    pub fn pruned_subgraphs(&self) -> usize {
        self.compiled.pruned
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

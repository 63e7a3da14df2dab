//! The mapping query's executable plan: a typed relational-algebra IR
//! over `Q(M)`, two rewrites, and the one interpreter every evaluation
//! runs.
//!
//! [`Plan::new`] lowers a [`Mapping`] into a [`RelExpr`] tree — the
//! per-subgraph `F(J)` join chains (or the left-deep outer-join chain on
//! trees), the minimum union, source/target filters, and the projection
//! onto the target schema — starting from the un-pushed `D(G)` subtree
//! that [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)
//! runs. [`Mapping::evaluate_cached`] runs the tree with [`RelExpr::run`]
//! on every `Q(M)` cache miss; there is no other evaluator. Two rewrites
//! are always on. The first is **filter pushdown**: a source filter
//! that is *strong* (not true on an all-null row, [`Expr::is_strong`]) and
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
//! The second **pulls target filters back** to the source. A target
//! filter *requires* node `v` when, substituted through the
//! correspondences, it reads columns of `v` only and is not true on the
//! target row of an association null on all of them (evaluated once, as
//! [`Expr::is_strong`] does): it rejects every association missing `v`.
//! Such rows may be skipped unread only if evaluating them could raise
//! no error, so the mask is empty unless every correspondence is a bare
//! column or a literal and every source filter, and every target filter
//! before the requiring one, cannot fail (`cannot_fail`). `B0 IS NOT NULL`
//! with `B0 ← R0.p0` requires `R0`; a filter over two nodes, or one
//! through `coalesce`, requires none. The mask is used twice:
//!
//! * the projection skips a `D(G)` row whose ids miss a required node,
//!   before it reads a cell — also on rows served by the `D(G)` memo;
//! * on a tree run without a live cache, when the chain's first node is
//!   required and no edge predicate can fail, the chain runs as left
//!   outer joins from it ([`RelExpr::Rooted`]): a null-rejecting
//!   predicate above a full outer join turns it into a left outer join
//!   (Galindo-Legaria and Rosenthal, TODS 1997), as Section 2 of the
//!   paper writes the Kids view. Its rows are the full chain's rows that cover the root, in
//!   the same order, so the projection sees the same rows it would keep.
//!   It is not `D(G)`, so it is never memoized; with a live cache the
//!   full chain runs, whose `D(G)` the examples memoize and the preview
//!   shares. The rooted chain never joins the rows that miss the root
//!   onward, so a later step's edge predicate never runs on them: were
//!   one able to fail there (`R2.x / R1.y > 0` on an `R1` row with
//!   `y = 0` that joins no root row), the full chain would raise an
//!   error the rooted one hides.
//!
//! The authoritative target filters still run on every projected row.
//!
//! A union carries each branch's subgraph node mask beside its chain;
//! the misses run level by level in popcount order, then mask order,
//! and assemble in canonical order. `explain` marks a branch `[warm]`
//! when the cache holds its `F(J)` at render time, `[cold]` otherwise.
//!
//! `F(J)` entries hold *unfiltered* tables, so pushed and un-pushed
//! plans share them. Property tests in `tests/properties.rs` replay
//! random graphs × random filters and correspondences against a
//! no-rewrite reference and assert byte equality. See
//! `docs/planner.md`.

pub mod explain;
pub mod ir;

pub use ir::{chain_ir, is_extension_stable, Exec, FilterScope, RelExpr};

use std::sync::{Arc, OnceLock};

use clio_incr::EvalCache;
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::{BinOp, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::JoinKind;
use clio_relational::schema::Scheme;
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::example::Example;
use crate::full_disjunction::FdAlgo;
use crate::incremental::{elapsed_ns, mapping_structure, relation_deps};
use crate::mapping::Mapping;
use crate::query_graph::{NodeId, QueryGraph};
use crate::subgraph::connected_subsets;
use ir::{chain_prefixes, Frame, GraphForm, Pass, Projection};

/// An executable plan for one mapping query: built by [`Plan::new`],
/// run by [`RelExpr::run`] on its [`root`](Plan::root), rendered with
/// [`Plan::explain`].
#[derive(Debug, Clone)]
pub struct Plan<'m> {
    compiled: Arc<CompiledMapping>,
    cache: Option<&'m EvalCache>,
    pullback: Pullback,
}

/// What pulling the target filters back derives for a compiled mapping
/// (module docs): the nodes the target filters require, and on a tree
/// whose chain starts at a required node and whose edge predicates
/// cannot fail, the position of the target filter that requires it,
/// where a run without a live cache roots the chain.
#[derive(Debug, Clone, Copy)]
struct Pullback {
    required: u64,
    root_filter: Option<usize>,
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
            // the tree plan looks no `F(J)` up: frames only, of each
            // scan and of the nodes each step of its chain has joined
            let scans = (0..graph.node_count()).map(|v| 1 << v);
            let form = GraphForm::new(
                graph,
                db,
                scans.chain(chain_prefixes(graph, all)),
                &[],
                "D(G).tree.ids",
            )?;
            Ok((chain_ir(graph, all, JoinKind::FullOuter), form))
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
                inputs: masks
                    .iter()
                    .map(|&m| chain_ir(graph, m, JoinKind::Inner))
                    .collect(),
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
/// the union with the pushed filters when the pushdown rewrote it, or
/// on a tree the chain rooted at a required node (else the plan runs
/// the same subtree), the graph's [`GraphForm`] (each subgraph's frame
/// and key structure hash), and the
/// [`Projection`] bound over the graph scheme, which both the preview
/// and the examples evaluate. The required nodes and the rooted chain
/// are derived on first use. The whole plan tree
/// (what [`Plan::root`] and `explain` show), one with a live cache and
/// one without, and the version-free structure hash of the `Q(M)` key
/// are built on first use. A run borrows each relation once and mixes
/// the current content versions into the precomputed hashes
/// (`ir::Pass`); it builds no plan, chain, frame or key text.
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
    /// The pulled-back target filters, derived on first use.
    pullback: OnceLock<Pullback>,
    /// The chain rooted where `pullback` says, built on first use.
    rooted: OnceLock<RelExpr>,
    /// The whole plan without and with a live cache.
    roots: [OnceLock<RelExpr>; 2],
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
    /// from the un-pushed `D(G)` subtree and applies the two rewrites,
    /// filter pushdown and the pulled-back target filters (see the
    /// module docs).
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
            pullback: OnceLock::new(),
            rooted: OnceLock::new(),
            roots: [OnceLock::new(), OnceLock::new()],
            qm: OnceLock::new(),
            projection,
        })
    }

    /// The whole plan a run with (`live`) or without a live cache runs,
    /// given the form's `pullback`: the `D(G)` stage under the source
    /// filters, the projection, and the target filters on top.
    fn root(&self, live: bool, pullback: Pullback) -> &RelExpr {
        self.roots[usize::from(live)].get_or_init(|| {
            let m = &self.mapping;
            let mut root = self.plan_disjunction(live, pullback).clone();
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
        let pullback = self.pullback(pass.funcs);
        let live = pass.live();
        let (ids, charged) = self
            .plan_disjunction(live, pullback)
            .disjunction_ids(pass)?;
        let out = self.projection.run(&ids, pullback.required, pass.funcs)?;
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

    /// The target filters pulled back (module docs), derived on the
    /// form's first run or plan with `funcs`, the registry it was
    /// compiled against: a compile pays nothing for them, and a form a
    /// cache answers never derives them.
    fn pullback(&self, funcs: &FuncRegistry) -> Pullback {
        *self.pullback.get_or_init(|| {
            let requiring = required_nodes(&self.mapping, self.projection.target(), funcs);
            Pullback {
                required: requiring.iter().fold(0, |mask, &(v, _)| mask | 1 << v),
                // the tree chain starts at node 0: root it there when
                // required, and when no edge predicate can fail on the
                // rows the rooted chain never joins on
                root_filter: match &self.disjunction {
                    RelExpr::Union { .. } => None,
                    _ if !self
                        .mapping
                        .graph
                        .edges()
                        .iter()
                        .all(|e| cannot_fail(&e.predicate)) =>
                    {
                        None
                    }
                    _ => requiring.iter().find(|&&(v, _)| v == 0).map(|&(_, f)| f),
                },
            }
        })
    }

    /// The `D(G)` stage of the plan a run with (`live`) or without a
    /// live cache runs, beneath the projection and filters — a `Union`
    /// on cyclic graphs, the outer-join chain on trees: the un-pushed
    /// subtree unless filters were pushed into it, or, without a live
    /// cache, the tree chain is rooted as `pullback` says. With one, the
    /// tree chain stays `D(G)`, which the examples memoize and the
    /// preview shares.
    fn plan_disjunction(&self, live: bool, pullback: Pullback) -> &RelExpr {
        match (&self.pushed_union, pullback.root_filter) {
            (Some(union), _) => union,
            (None, Some(f)) if !live => self.rooted.get_or_init(|| {
                let graph = &self.mapping.graph;
                RelExpr::Rooted {
                    input: Box::new(chain_ir(graph, graph.node_mask(), JoinKind::LeftOuter)),
                    root: graph.nodes()[0].alias.clone(),
                    filter: self.mapping.target_filters[f].clone(),
                }
            }),
            _ => &self.disjunction,
        }
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
        let plan = Plan::compiled(Arc::new(compiled), funcs, cache);
        plan.root().check()?;
        Ok(plan)
    }

    /// The plan of an already compiled mapping; `funcs` is the registry
    /// it was compiled against.
    pub(crate) fn compiled(
        compiled: Arc<CompiledMapping>,
        funcs: &FuncRegistry,
        cache: Option<&'m EvalCache>,
    ) -> Plan<'m> {
        let pullback = compiled.pullback(funcs);
        Plan {
            compiled,
            cache,
            pullback,
        }
    }

    /// Does the plan's cache memoize runs?
    fn live(&self) -> bool {
        self.cache.is_some_and(EvalCache::enabled)
    }

    /// The rewritten algebra tree a run with the plan's cache runs.
    #[must_use]
    pub fn root(&self) -> &RelExpr {
        self.compiled.root(self.live(), self.pullback)
    }

    /// The `D(G)` stage: the node beneath the projection and filters —
    /// a `Union` on cyclic graphs, the outer-join chain on trees, or
    /// the rooted chain.
    fn disjunction(&self) -> &RelExpr {
        self.compiled.plan_disjunction(self.live(), self.pullback)
    }

    /// The nodes the target filters require, as a node mask: a row of
    /// `D(G)` missing one is skipped before the projection reads it.
    #[must_use]
    pub fn required_nodes(&self) -> u64 {
        self.pullback.required
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

/// The target filters that require a node, each as the node beside the
/// filter's position, in filter order (see the module docs): none unless
/// every correspondence is a bare column or a literal and every source
/// filter cannot fail ([`cannot_fail`]). A filter requires node `v` when,
/// substituted through the correspondences, it reads columns of `v`
/// only, and it is not true on the target row of an association null on
/// all of them. The filters run in order, each only on the rows every
/// earlier one accepted, so the scan stops after the first filter that
/// can fail. `target` is the target relation's scheme.
fn required_nodes(
    mapping: &Mapping,
    target: &Scheme,
    funcs: &FuncRegistry,
) -> Vec<(NodeId, usize)> {
    if !mapping.correspondences.iter().all(|v| is_bare(&v.expr))
        || !mapping.source_filters.iter().all(cannot_fail)
    {
        return Vec::new();
    }
    // each target attribute's correspondence, as the evaluator binds it
    let slots: Vec<Option<&Expr>> = mapping
        .target
        .attrs()
        .iter()
        .map(|a| {
            let v = mapping
                .correspondences
                .iter()
                .find(|v| v.target_attr == a.name);
            v.map(|v| &v.expr)
        })
        .collect();
    // the target row of an association null on every column
    let null_row: Vec<Value> = slots
        .iter()
        .map(|slot| match slot {
            Some(Expr::Literal(v)) => v.clone(),
            _ => Value::Null,
        })
        .collect();
    let mut requiring = Vec::new();
    for (at, f) in mapping.target_filters.iter().enumerate() {
        let nodes = f.columns().into_iter().try_fold(0u64, |mask, c| {
            let slot = slots[target.resolve(c).ok()?];
            Some(mask | slot.map_or(Some(0), |e| alias_mask(&mapping.graph, e))?)
        });
        if let Some(mask) = nodes.filter(|mask| mask.count_ones() == 1) {
            let strong = f
                .eval_truth(target, &null_row, funcs)
                .is_ok_and(|t| !t.passes());
            if strong {
                requiring.push((mask.trailing_zeros() as NodeId, at));
            }
        }
        if !cannot_fail(f) {
            break;
        }
    }
    requiring
}

/// Can `e`, run as a filter, raise no error on any row? Comparisons
/// other than `LIKE`, `IS [NOT] NULL`, `IN` and `BETWEEN` over bare
/// columns and literals cannot, nor can a boolean or null literal, nor
/// `AND`, `OR` and `NOT` over such predicates. Anything else may:
/// `LIKE` on a non-string, arithmetic on a type mismatch, an overflow
/// or a zero divisor, a function or `CASE` by its own rules, a bare
/// column on a non-boolean value.
fn cannot_fail(e: &Expr) -> bool {
    match e {
        Expr::Literal(v) => matches!(v, Value::Bool(_) | Value::Null),
        Expr::Not(x) => cannot_fail(x),
        Expr::IsNull { expr, .. } => is_bare(expr),
        Expr::InList { expr, list, .. } => is_bare(expr) && list.iter().all(is_bare),
        Expr::Between {
            expr, low, high, ..
        } => is_bare(expr) && is_bare(low) && is_bare(high),
        Expr::Binary {
            op: BinOp::And | BinOp::Or,
            left,
            right,
        } => cannot_fail(left) && cannot_fail(right),
        Expr::Binary { op, left, right } => {
            op.is_comparison() && *op != BinOp::Like && is_bare(left) && is_bare(right)
        }
        _ => false,
    }
}

/// A bare column or a literal: a value whose evaluation cannot fail.
fn is_bare(e: &Expr) -> bool {
    matches!(e, Expr::Column(_) | Expr::Literal(_))
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
        use crate::full_disjunction::full_disjunction_naive;
        let (db, funcs) = (db(), funcs());
        let assocs = if m.graph.is_tree() {
            crate::full_disjunction::full_disjunction(&db, &m.graph, FdAlgo::OuterJoin, &funcs)
        } else {
            full_disjunction_naive(&db, &m.graph, &funcs)
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
            let (db, funcs) = (db(), funcs());
            let ex = Exec {
                db: &db,
                funcs: &funcs,
                graph: &m.graph,
                cache: None,
            };
            let scheme = plan.root().scheme(&ex).unwrap();
            assert_eq!(scheme, m.target_scheme());
        }
    }

    #[test]
    fn tree_mappings_take_the_outer_join_plan_unchanged() {
        // with a live cache the tree chain stays the memoized `D(G)`
        let m = tree_mapping();
        let cache = EvalCache::new();
        let plan = Plan::new(&m, &db(), &funcs(), Some(&cache)).unwrap();
        assert!(matches!(
            plan.disjunction(),
            RelExpr::Join {
                kind: JoinKind::FullOuter,
                ..
            }
        ));
        assert!(plan.pushed_filters().is_empty());
        assert_eq!(plan.pruned_subgraphs(), 0);
        assert_same(&m, Some(&cache));
    }

    #[test]
    fn a_required_first_node_roots_the_tree_chain_without_a_cache() {
        // `Kids.ID IS NOT NULL` with `ID <- Children.ID`: Children is
        // required, and the chain starts there
        let m = tree_mapping();
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.required_nodes(), 0b1);
        let RelExpr::Rooted {
            input,
            root,
            filter,
        } = plan.disjunction()
        else {
            panic!("expected a rooted chain: {:?}", plan.disjunction());
        };
        assert_eq!(root, "Children");
        assert_eq!(filter.to_string(), "Kids.ID IS NOT NULL");
        assert_eq!(
            **input,
            chain_ir(&m.graph, m.graph.node_mask(), JoinKind::LeftOuter)
        );
        plan.root().check().unwrap();
        assert_same(&m, None);
        // a disabled cache runs without one
        let off = EvalCache::new();
        off.set_enabled(false);
        let plan = Plan::new(&m, &db(), &funcs(), Some(&off)).unwrap();
        assert!(matches!(plan.disjunction(), RelExpr::Rooted { .. }));
        // a required node the chain does not start at is only skipped
        let mut m = tree_mapping()
            .with_correspondence(ValueCorrespondence::identity("Parents.ID", "number"));
        m.target_filters = vec![parse_expr("Kids.number IS NOT NULL").unwrap()];
        let plan = Plan::new(&m, &db(), &funcs(), None).unwrap();
        assert_eq!(plan.required_nodes(), 0b10);
        assert!(matches!(
            plan.disjunction(),
            RelExpr::Join {
                kind: JoinKind::FullOuter,
                ..
            }
        ));
        assert_same(&m, None);
    }

    #[test]
    fn only_single_node_strong_filters_over_safe_mappings_require_a_node() {
        let required = |m: &Mapping| {
            Plan::new(m, &db(), &funcs(), None)
                .unwrap()
                .required_nodes()
        };
        let with_filters = |filters: &[&str]| {
            let mut m = cyclic_mapping();
            m.target_filters = filters.iter().map(|f| parse_expr(f).unwrap()).collect();
            m
        };
        assert_eq!(required(&cyclic_mapping()), 0b1);
        assert_eq!(
            required(&with_filters(&[
                "Kids.number IS NOT NULL",
                "Kids.ID IS NOT NULL"
            ])),
            0b101
        );
        // two nodes, not strong, or after a filter that can fail
        for filters in [
            &["Kids.ID IS NOT NULL OR Kids.number IS NOT NULL"][..],
            &["Kids.ID IS NULL"],
            &["coalesce(Kids.ID, 'x') = 'x'"],
        ] {
            assert_eq!(required(&with_filters(filters)), 0, "{filters:?}");
        }
        // a filter that can fail still requires its own node, but no
        // later filter does
        assert_eq!(
            required(&with_filters(&[
                "Kids.number LIKE '555%'",
                "Kids.ID IS NOT NULL"
            ])),
            0b100
        );
        // a correspondence or source filter that can fail voids the mask
        let mut m = cyclic_mapping();
        m.correspondences[1] =
            ValueCorrespondence::parse("concat(Parents.affiliation, '!')", "affiliation").unwrap();
        assert_eq!(required(&m), 0);
        let mut m = cyclic_mapping();
        m.source_filters = vec![parse_expr("Children.age / 2 < 7").unwrap()];
        assert_eq!(required(&m), 0);
        // a non-strict correspondence: the filter is true on the null row
        let mut m = cyclic_mapping();
        m.correspondences[0] = ValueCorrespondence::parse("'x'", "ID").unwrap();
        assert_eq!(required(&m), 0);
    }

    /// A correspondence that can raise an error keeps every row: the
    /// error of a row missing the required node still surfaces.
    #[test]
    fn an_error_on_a_row_missing_the_required_node_still_surfaces() {
        let mut db = Database::new();
        for (name, rows) in [
            ("R0", [vec!["a".into(), "1".into()]]),
            ("R1", [vec!["2".into(), "b".into()]]),
        ] {
            db.add_relation(
                RelationBuilder::new(name)
                    .attr("id", DataType::Str)
                    .attr("p0", DataType::Str)
                    .row(rows[0].clone())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        let mut g = QueryGraph::new();
        let r0 = g.add_node(Node::new("R0")).unwrap();
        let r1 = g.add_node(Node::new("R1")).unwrap();
        g.add_edge(r0, r1, parse_expr("R0.p0 = R1.id").unwrap())
            .unwrap();
        let target = RelSchema::new(
            "T",
            vec![
                Attribute::not_null("B0", DataType::Str),
                Attribute::new("B1", DataType::Str),
            ],
        )
        .unwrap();
        // `R1.p0 + 1` fails on R1's one tuple, which no R0 tuple joins
        let m = Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("R0.id", "B0"))
            .with_correspondence(ValueCorrespondence::parse("R1.p0 + 1", "B1").unwrap())
            .with_target_not_null_filters();
        let plan = Plan::new(&m, &db, &funcs(), None).unwrap();
        assert_eq!(plan.required_nodes(), 0);
        assert!(matches!(plan.disjunction(), RelExpr::Join { .. }));
        let eval = m.evaluator(&db, &funcs()).unwrap();
        let assocs =
            crate::full_disjunction::full_disjunction(&db, &m.graph, FdAlgo::OuterJoin, &funcs())
                .unwrap();
        let expected = (0..assocs.len())
            .map(|i| eval.target_row_if_passing(assocs.row(i), &funcs()))
            .collect::<Result<Vec<_>>>()
            .unwrap_err();
        let cache = EvalCache::new();
        for cache in [None, Some(&cache)] {
            let got = m.evaluate_cached(&db, &funcs(), cache).unwrap_err();
            assert_eq!(got.to_string(), expected.to_string());
        }
    }

    /// An edge predicate that can fail keeps the full chain: its later
    /// steps join the rows that miss the root too, and the error one of
    /// them raises surfaces with and without a cache.
    #[test]
    fn an_edge_predicate_that_can_fail_keeps_the_chain_unrooted() {
        let mut db = Database::new();
        for (name, attrs, row) in [
            ("R0", ["id", "p0"], vec![1i64.into(), "a".into()]),
            ("R1", ["id", "y"], vec![2i64.into(), 0i64.into()]),
            ("R2", ["id", "x"], vec![2i64.into(), 5i64.into()]),
        ] {
            let p0 = if name == "R0" {
                DataType::Str
            } else {
                DataType::Int
            };
            db.add_relation(
                RelationBuilder::new(name)
                    .attr("id", DataType::Int)
                    .attr(attrs[1], p0)
                    .row(row)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        let mut g = QueryGraph::new();
        let [r0, r1, r2] = ["R0", "R1", "R2"].map(|n| g.add_node(Node::new(n)).unwrap());
        g.add_edge(r0, r1, parse_expr("R0.id = R1.id").unwrap())
            .unwrap();
        // `R2.x / R1.y` divides by zero on R1's one tuple, which joins
        // R2's but no R0 tuple
        let on = parse_expr("R1.id = R2.id AND R2.x / R1.y > 0").unwrap();
        g.add_edge(r1, r2, on).unwrap();
        let target = RelSchema::new(
            "T",
            vec![
                Attribute::not_null("B0", DataType::Str),
                Attribute::new("B1", DataType::Int),
            ],
        )
        .unwrap();
        let m = Mapping::new(g, target)
            .with_correspondence(ValueCorrespondence::identity("R0.p0", "B0"))
            .with_correspondence(ValueCorrespondence::identity("R2.x", "B1"))
            .with_target_not_null_filters();
        let plan = Plan::new(&m, &db, &funcs(), None).unwrap();
        assert_eq!(plan.required_nodes(), 0b1);
        assert!(matches!(
            plan.disjunction(),
            RelExpr::Join {
                kind: JoinKind::FullOuter,
                ..
            }
        ));
        let expected =
            crate::full_disjunction::full_disjunction(&db, &m.graph, FdAlgo::OuterJoin, &funcs())
                .unwrap_err();
        let cache = EvalCache::new();
        for cache in [None, Some(&cache)] {
            let got = m.evaluate_cached(&db, &funcs(), cache).unwrap_err();
            assert_eq!(got.to_string(), expected.to_string());
        }
        // the rooted chain never runs the predicate on that tuple
        let ex = Exec {
            db: &db,
            funcs: &funcs(),
            graph: &m.graph,
            cache: None,
        };
        let all = m.graph.node_mask();
        assert!(chain_ir(&m.graph, all, JoinKind::LeftOuter)
            .run(&ex)
            .is_ok());
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

//! The planner's relational-algebra IR and its interpreter.
//!
//! A [`RelExpr`] tree describes a mapping query `Q(M)` as algebra over
//! the source relations: scans joined into per-subgraph `F(J)` chains
//! (or a left-deep outer-join chain on trees), a minimum union, filters,
//! and a final projection onto the target schema. The tree is *typed*:
//! [`RelExpr::scheme`] infers each node's output scheme from the
//! database, [`RelExpr::bound_vars`] / [`RelExpr::free_vars`] track
//! which relation aliases a subtree binds versus references, and
//! [`RelExpr::check`] rejects trees that reference an alias below the
//! point where it is bound — the invariant the filter-pushdown rewrite
//! must preserve.
//!
//! The tree is also the executed form: [`RelExpr::run`] interprets it
//! against an [`Exec`], one arm per node kind. `F(J)`
//! ([`full_associations`](crate::full_disjunction::full_associations)),
//! `D(G)` ([`full_disjunction_cached`](crate::incremental::full_disjunction_cached))
//! and every `Q(M)` ([`Mapping::evaluate_cached`](crate::mapping::Mapping::evaluate_cached))
//! are computed that way, so the tree `explain` prints is the code that
//! runs — which subgraphs, which filters where, in which join order.
//!
//! Scans that feed a join are read in place: the join ([`join_rows`],
//! or [`join_with`] on tuple ids) borrows the stored relation's rows
//! under the scan alias's scheme.
//!
//! Both `D(G)` plans copy no value at all: the tree plan's outer-join
//! chain over every node (or a lone scan on a one-node graph), and the
//! lattice union. They run on tuple ids: per row, one `u32` per graph
//! node, in node order, with `u32::MAX` for a node the row does not
//! cover. Each step is the join kernel every join runs ([`join_with`]),
//! reading key cells through the ids. The cache holds them the same
//! way: each `F(J)` as `|J|` ids per row, and the `D(G)` memo
//! (`"D(G).tree.ids"` / `"D(G).lattice.ids"`) as `|G|` ids per row. A
//! `Project` over a `D(G)` reads through the ids too, filling one
//! scratch row with only the columns the correspondences and source
//! filters reference. Value rows are built in two places only (span
//! `fd.materialize`): [`RelExpr::run`]'s table and
//! [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)'s
//! association set.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};

use clio_incr::{EvalCache, Fingerprint, IdRows, LookupTier};
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::{BoundExpr, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{join_rows, join_with, subsumed_among, JoinInput, JoinKind, Joined};
use clio_relational::schema::{RelSchema, Scheme};
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::association::AssociationSet;
use crate::correspondence::ValueCorrespondence;
use crate::incremental::{
    elapsed_ns, graph_fingerprint, mask_deps, relation_deps, BranchInfo, SubgraphKeys,
};
use crate::mapping::MappingEvaluator;
use crate::query_graph::{NodeId, QueryGraph};
use crate::subgraph::neighbourhood;

use super::alias_mask;

/// Which predicate class a [`RelExpr::Filter`] node carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterScope {
    /// A source filter `C_S`, evaluated over data associations.
    Source,
    /// A target filter `C_T`, evaluated over produced target tuples.
    Target,
}

/// A node of the planner's algebra.
///
/// Every variant is an operation [`RelExpr::run`] executes, so a plan is
/// an honest description of the work: the join chains, the union, the
/// filters and the projection run in the order the tree gives.
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// A base-relation scan, qualified by its node alias.
    Scan {
        /// Alias binding the scan (the query-graph node alias).
        alias: String,
        /// The stored relation scanned.
        relation: String,
    },
    /// A join of two subtrees under a predicate.
    Join {
        /// Left input.
        left: Box<RelExpr>,
        /// Right input.
        right: Box<RelExpr>,
        /// Join predicate (conjunction of the query-graph edges closed
        /// by this step).
        predicate: Expr,
        /// `true` for the tree plan's full outer joins, `false` for the
        /// inner joins inside an `F(J)`.
        outer: bool,
    },
    /// A predicate filter over its input's rows.
    Filter {
        /// Input.
        input: Box<RelExpr>,
        /// The predicate.
        predicate: Expr,
        /// Source- or target-side predicate.
        scope: FilterScope,
        /// `true` when this node is a pushed-down copy inside a union
        /// branch (the authoritative top-level filter remains in place;
        /// pushed copies are semantically redundant but shrink the
        /// intermediate results).
        pushed: bool,
    },
    /// Minimum (subsuming) union: inputs are padded to `pad` and unioned,
    /// then subsumed and duplicate rows are removed, keeping first
    /// occurrences — Def 3.11's `F(J₁) ⊕ … ⊕ F(Jₖ)`, computed over the
    /// subgraph lattice (`schedule`).
    Union {
        /// One branch per induced connected subgraph, canonical order:
        /// its `F(J)` chain, under any filters pushed onto it.
        inputs: Vec<RelExpr>,
        /// Scheduling annotations parallel to `inputs`: each branch's
        /// node mask, warmth and estimated recompute cost.
        branches: Vec<BranchInfo>,
        /// The full graph scheme every branch is padded to.
        pad: Scheme,
    },
    /// Projection onto the target schema through value correspondences;
    /// unmapped target attributes become null. Output rows are distinct.
    Project {
        /// Input.
        input: Box<RelExpr>,
        /// The value correspondences `V`.
        correspondences: Vec<ValueCorrespondence>,
        /// The target relation schema.
        target: RelSchema,
    },
}

/// What a plan runs against: the source database and scalar functions,
/// the query graph the [`RelExpr::Union`] branch masks index, and the
/// cache that memoizes `F(J)` and `D(G)` (`None` or disabled: nothing is
/// memoized).
pub struct Exec<'a> {
    /// The source database.
    pub db: &'a Database,
    /// Scalar functions for predicates and correspondences.
    pub funcs: &'a FuncRegistry,
    /// The query graph the plan was built from.
    pub graph: &'a QueryGraph,
    /// The incremental cache, if any.
    pub cache: Option<&'a EvalCache>,
}

impl RelExpr {
    /// This node under a [`RelExpr::Filter`].
    #[must_use]
    pub fn filtered(self, predicate: &Expr, scope: FilterScope, pushed: bool) -> RelExpr {
        RelExpr::Filter {
            input: Box::new(self),
            predicate: predicate.clone(),
            scope,
            pushed,
        }
    }

    /// The aliases whose columns this node's *output* provides — the
    /// variables a parent's predicate may reference.
    ///
    /// A [`RelExpr::Union`] binds every qualifier of its pad scheme
    /// (branches missing an alias contribute nulls after padding), and a
    /// [`RelExpr::Project`] rebinds everything to the target relation's
    /// name.
    #[must_use]
    pub fn bound_vars(&self) -> BTreeSet<String> {
        match self {
            RelExpr::Scan { alias, .. } => std::iter::once(alias.clone()).collect(),
            RelExpr::Join { left, right, .. } => {
                let mut s = left.bound_vars();
                s.extend(right.bound_vars());
                s
            }
            RelExpr::Filter { input, .. } => input.bound_vars(),
            RelExpr::Union { pad, .. } => pad.qualifiers().into_iter().map(str::to_owned).collect(),
            RelExpr::Project { target, .. } => std::iter::once(target.name().to_owned()).collect(),
        }
    }

    /// The aliases referenced by predicates or correspondences in this
    /// subtree that the referencing node's inputs do **not** bind. A
    /// well-formed plan has no free variables; the pushdown rewrite may
    /// only move a filter to a place where its references stay bound.
    #[must_use]
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut free = BTreeSet::new();
        self.collect_free(&mut free);
        free
    }

    fn collect_free(&self, free: &mut BTreeSet<String>) {
        let (inputs, refs): (Vec<&RelExpr>, Vec<&Expr>) = match self {
            RelExpr::Scan { .. } => (Vec::new(), Vec::new()),
            RelExpr::Join {
                left,
                right,
                predicate,
                ..
            } => (vec![left, right], vec![predicate]),
            RelExpr::Filter {
                input, predicate, ..
            } => (vec![input], vec![predicate]),
            RelExpr::Union { inputs, .. } => (inputs.iter().collect(), Vec::new()),
            RelExpr::Project {
                input,
                correspondences,
                ..
            } => (
                vec![input],
                correspondences.iter().map(|v| &v.expr).collect(),
            ),
        };
        let mut bound = BTreeSet::new();
        for input in inputs {
            input.collect_free(free);
            bound.extend(input.bound_vars());
        }
        for q in refs.iter().flat_map(|e| e.qualifiers()) {
            if !bound.contains(q) {
                free.insert(q.to_owned());
            }
        }
    }

    /// Validate the tree's variable discipline: every predicate and
    /// correspondence must reference only aliases bound by its inputs.
    pub fn check(&self) -> Result<()> {
        let free = self.free_vars();
        match free.into_iter().next() {
            None => Ok(()),
            Some(a) => Err(Error::Invalid(format!(
                "plan references unbound alias `{a}`"
            ))),
        }
    }

    /// Infer this node's output scheme against a database (a tree's
    /// `D(G)` chain runs with its columns in graph-scheme order).
    pub fn scheme(&self, db: &Database) -> Result<Scheme> {
        match self {
            RelExpr::Scan { alias, relation } => {
                Ok(Scheme::of_relation(db.relation(relation)?.schema(), alias))
            }
            RelExpr::Join { left, right, .. } => left.scheme(db)?.concat(&right.scheme(db)?),
            RelExpr::Filter { input, .. } => input.scheme(db),
            RelExpr::Union { pad, .. } => Ok(pad.clone()),
            RelExpr::Project { target, .. } => Ok(Scheme::of_relation(target, target.name())),
        }
    }

    /// Execute the tree. The un-pushed `D(G)` node — a [`RelExpr::Union`]
    /// with no filter on any branch, or an outer-join chain over every
    /// node of `ex.graph` (a lone `Scan` on a one-node graph) — is
    /// memoized under `"D(G).lattice.ids"` / `"D(G).tree.ids"` when
    /// `ex.cache` is live; every other node is computed on each run.
    pub fn run(&self, ex: &Exec) -> Result<Table> {
        self.run_costed(ex).map(|(table, _)| table)
    }

    /// [`RelExpr::run`], also returning the compute time (ns) charged to
    /// the cache entries this run inserted — what a parent entry must not
    /// charge again.
    pub(crate) fn run_costed(&self, ex: &Exec) -> Result<(Table, u64)> {
        if self.is_tree_disjunction(ex) {
            let (associations, charged) = self.associations(ex)?;
            return Ok((associations.into_table(), charged));
        }
        self.eval(ex)
    }

    /// This node's rows as data associations, with the compute time
    /// charged as [`RelExpr::run_costed`] charges it. A `D(G)` — the tree
    /// plan's outer-join chain or a lattice `Union` — yields its tuple
    /// ids, memoized as ids with a live cache ([`memoized_ids`], under
    /// `"D(G).tree.ids"` / `"D(G).lattice.ids"`). A `Union` with pushed
    /// filters is never memoized. Any other node yields its table.
    pub(crate) fn associations<'t>(&self, ex: &Exec<'t>) -> Result<(Associations<'t>, u64)> {
        match self {
            _ if self.is_tree_disjunction(ex) => {
                let (ids, charged) =
                    memoized_ids(ex, "D(G).tree.ids", || Ok((self.tree_ids(ex)?, 0)))?;
                Ok((Associations::Ids(ids), charged))
            }
            RelExpr::Union {
                inputs,
                branches,
                pad,
            } => {
                let lattice = || -> Result<(TupleIds<'t>, u64)> {
                    let (ids, dispatched) = schedule(ex, inputs, branches, pad)?;
                    Ok((ids, dispatched.iter().map(|&(_, ns)| ns).sum()))
                };
                let (ids, charged) = if inputs.iter().any(|b| matches!(b, RelExpr::Filter { .. })) {
                    lattice()?
                } else {
                    memoized_ids(ex, "D(G).lattice.ids", lattice)?
                };
                Ok((Associations::Ids(ids), charged))
            }
            _ => {
                let (table, charged) = self.eval(ex)?;
                Ok((Associations::Values(table), charged))
            }
        }
    }

    /// Is this node the tree plan's `D(G)`: an outer-join chain over
    /// every node of `ex.graph`, or a lone `Scan` on a one-node graph?
    fn is_tree_disjunction(&self, ex: &Exec) -> bool {
        matches!(
            self,
            RelExpr::Scan { .. } | RelExpr::Join { outer: true, .. }
        ) && self.bound_vars().len() == ex.graph.node_count()
    }

    /// The tree `D(G)` on tuple ids, in node order (span
    /// `fd.outer_join`). The outer-join chain keeps every row Def 3.11
    /// keeps, and more only when a relation of the graph holds a
    /// near-duplicate ([`Relation::has_near_duplicates`]): the joined
    /// copy of a tuple with a cell nulled is strictly subsumed by the
    /// joined original. So when a relation is flagged, a residual pass
    /// (span `fd.outer_join.residual`) tests the rows holding one of
    /// its tuples. A row holding no flagged tuple is never strictly
    /// subsumed: a subsumer would hold the same tuple at each of the
    /// row's nodes and more, and on a tree the chain emits no row whose
    /// tuples another row holds too. With no relation flagged there is
    /// no residual pass.
    ///
    /// [`Relation::has_near_duplicates`]: clio_relational::relation::Relation::has_near_duplicates
    fn tree_ids<'t>(&self, ex: &Exec<'t>) -> Result<TupleIds<'t>> {
        let _span = clio_obs::span("fd.outer_join");
        let mut ids = self.tuple_ids(ex)?.in_node_order();
        let flagged = flagged_nodes(ex)?;
        if flagged != 0 {
            let _span = clio_obs::span("fd.outer_join.residual");
            let candidates: Vec<bool> = (0..ids.row_count())
                .map(|i| ids.coverage(i) & flagged != 0)
                .collect();
            ids.remove_subsumed_among(&candidates);
        }
        Ok(ids)
    }

    /// The tuple ids of a chain of scans and joins (full outer when
    /// `outer`, counting `fd.outer_join_steps`): each join runs the
    /// relational join kernel over id rows and the stored rows of the
    /// scan it joins, reading key cells through the ids.
    fn tuple_ids<'t>(&self, ex: &Exec<'t>) -> Result<TupleIds<'t>> {
        match self {
            RelExpr::Scan { .. } => TupleIds::scan(ex, node_bit(ex.graph, self)?),
            RelExpr::Join {
                left,
                right,
                predicate,
                outer,
            } => {
                let kind = if *outer {
                    JoinKind::FullOuter
                } else {
                    JoinKind::Inner
                };
                let out = left.tuple_ids(ex)?.join_scan(ex, right, predicate, kind)?;
                if *outer {
                    metrics::incr(Counter::OuterJoinSteps);
                }
                Ok(out)
            }
            _ => Err(Error::Invalid(
                "the tree D(G) is a chain of scans and joins".into(),
            )),
        }
    }

    /// One arm per node kind: a `Scan` reads its relation qualified by
    /// its alias; a `Join` joins its inputs, reading a `Scan` input in
    /// place ([`RelExpr::input`]; full outer when `outer`, counting
    /// `fd.outer_join_steps`); a `Union` schedules its branches
    /// ([`schedule`], through [`RelExpr::associations`]); a stack of
    /// `Filter`s keeps the rows of the node beneath passing every
    /// predicate — over a `Project`, as the projection builds its
    /// distinct target rows ([`project`]).
    fn eval(&self, ex: &Exec) -> Result<(Table, u64)> {
        match self {
            RelExpr::Scan { alias, relation } => Ok((ex.db.relation(relation)?.to_table(alias), 0)),
            RelExpr::Join {
                left,
                right,
                predicate,
                outer,
            } => {
                let (left, l_ns) = left.input(ex)?;
                let (right, r_ns) = right.input(ex)?;
                let kind = if *outer {
                    JoinKind::FullOuter
                } else {
                    JoinKind::Inner
                };
                let out = join_rows(left.rows(), right.rows(), predicate, kind, ex.funcs)?;
                if *outer {
                    metrics::incr(Counter::OuterJoinSteps);
                }
                Ok((out, l_ns.saturating_add(r_ns)))
            }
            RelExpr::Filter { .. } | RelExpr::Project { .. } => match self.filters() {
                (
                    RelExpr::Project {
                        input,
                        correspondences,
                        target,
                    },
                    filters,
                ) => project(ex, input, correspondences, target, &filters),
                (base, filters) => {
                    let (table, charged) = base.run_costed(ex)?;
                    Ok((keep(table, &filters, ex.funcs)?, charged))
                }
            },
            RelExpr::Union { .. } => {
                let (associations, charged) = self.associations(ex)?;
                Ok((associations.into_table(), charged))
            }
        }
    }

    /// This node as a join input, with the compute time charged to the
    /// cache entries its run inserted. A `Scan` is read in place: its
    /// relation's rows under its alias's scheme, never copied (a scan
    /// under a join never spans the graph, so it is never the memoized
    /// `D(G)`). Any other node runs ([`RelExpr::run_costed`]).
    fn input<'t>(&self, ex: &Exec<'t>) -> Result<(Input<'t>, u64)> {
        match self {
            RelExpr::Scan { alias, relation } => {
                let rel = ex.db.relation(relation)?;
                let scheme = Scheme::of_relation(rel.schema(), alias);
                Ok((Input::Scan(scheme, rel.rows()), 0))
            }
            _ => {
                let (table, charged) = self.run_costed(ex)?;
                Ok((Input::Table(table), charged))
            }
        }
    }

    /// The node beneath a stack of `Filter`s, and their predicates,
    /// innermost first (`self` and none when it is not a filter).
    fn filters(&self) -> (&RelExpr, Vec<&Expr>) {
        match self {
            RelExpr::Filter {
                input, predicate, ..
            } => {
                let (base, mut filters) = input.filters();
                filters.push(predicate);
                (base, filters)
            }
            base => (base, Vec::new()),
        }
    }
}

/// A `D(G)` as tuple ids, memoized under `tag` when the cache is live
/// (span `incr.fd`): `compute` returns the ids and the time charged to
/// child entries. A hit returns the memoized ids once
/// [`TupleIds::expand`] has checked them. A miss computes them and
/// inserts them as `|G|` ids per row, charged only their *exclusive*
/// cost, the total minus what the `F(J)` entries were charged, and
/// returns the total. Without a live cache, `compute`'s answer. While
/// tracing is on, the lookup, and on a miss the recompute and insert,
/// land in a per-tier latency histogram: `incr.fd.memory_hit`,
/// `incr.fd.disk_hit` or `incr.fd.cold`.
fn memoized_ids<'t>(
    ex: &Exec<'t>,
    tag: &str,
    compute: impl FnOnce() -> Result<(TupleIds<'t>, u64)>,
) -> Result<(TupleIds<'t>, u64)> {
    let Some(cache) = ex.cache.filter(|c| c.enabled()) else {
        return compute();
    };
    let _span = clio_obs::span("incr.fd");
    let fp = graph_fingerprint(ex.graph, cache, tag);
    let timer = clio_obs::hist::start();
    let all = ex.graph.node_mask();
    let frame = TupleIds::over(ex, all)?;
    if let (Some(ids), tier) = cache.get_ids(fp, |cached| frame.expand(all, cached, true)) {
        let hist = match tier {
            LookupTier::Memory => "incr.fd.memory_hit",
            _ => "incr.fd.disk_hit",
        };
        clio_obs::hist::finish(hist, timer);
        return Ok((TupleIds { ids, ..frame }, 0));
    }
    let t0 = std::time::Instant::now();
    let (ids, children_ns) = compute()?;
    let total = elapsed_ns(t0);
    let cost_ns = total.saturating_sub(children_ns);
    cache.insert_ids(fp, relation_deps(ex.graph), &ids.compact(all), cost_ns);
    clio_obs::hist::finish("incr.fd.cold", timer);
    Ok((ids, total))
}

/// The graph nodes whose relation holds a near-duplicate
/// ([`Relation::has_near_duplicates`], computed on its first read).
///
/// [`Relation::has_near_duplicates`]: clio_relational::relation::Relation::has_near_duplicates
fn flagged_nodes(ex: &Exec) -> Result<u64> {
    let mut flagged = 0;
    for (v, node) in ex.graph.nodes().iter().enumerate() {
        if ex.db.relation(&node.relation)?.has_near_duplicates() {
            flagged |= 1 << v;
        }
    }
    Ok(flagged)
}

/// A join input: a scanned relation's rows, borrowed in place, or an
/// evaluated node's table.
enum Input<'t> {
    Scan(Scheme, &'t [Vec<Value>]),
    Table(Table),
}

impl Input<'_> {
    /// The input's scheme and rows, as [`join_rows`] reads them.
    fn rows(&self) -> (&Scheme, &[Vec<Value>]) {
        match self {
            Input::Scan(scheme, rows) => (scheme, rows),
            Input::Table(table) => (table.scheme(), table.rows()),
        }
    }
}

/// The positions in `scheme` of the columns `exprs` reference, sorted
/// and distinct: the cells a row read through tuple ids must fill.
fn columns_read<'e>(
    scheme: &Scheme,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Result<Vec<usize>> {
    let mut reads: Vec<usize> = exprs
        .into_iter()
        .flat_map(Expr::columns)
        .map(|c| scheme.resolve(c))
        .collect::<Result<_>>()?;
    reads.sort_unstable();
    reads.dedup();
    Ok(reads)
}

/// Run a `Project` together with the target `filters` stacked on it and
/// the source filters stacked beneath it, over the associations of the
/// node under those ([`RelExpr::associations`]). Everything is bound
/// once. One loop reads each association — a value row in place, or, on
/// a `D(G)`'s tuple ids, one reused scratch row filled with only the
/// columns the correspondences and source filters reference — and
/// offers its target row to the distinct output only when the source
/// filters accept the association and the target filters the row
/// ([`MappingEvaluator::target_row_if_passing`]): rows the filters
/// reject are never hashed, and a correspondence never runs on an
/// association the source filters reject.
fn project(
    ex: &Exec,
    input: &RelExpr,
    correspondences: &[ValueCorrespondence],
    target: &RelSchema,
    filters: &[&Expr],
) -> Result<(Table, u64)> {
    let (base, source_filters) = input.filters();
    let (associations, charged) = base.associations(ex)?;
    let scheme = associations.scheme();
    let eval = MappingEvaluator::bind(
        correspondences,
        target,
        scheme,
        source_filters.iter().copied(),
        filters.iter().copied(),
    )?;
    // Only tuple ids need the columns read listed, and a row to fill.
    let (reads, mut scratch) = match &associations {
        Associations::Ids(_) => (
            columns_read(
                scheme,
                correspondences
                    .iter()
                    .map(|v| &v.expr)
                    .chain(source_filters.iter().copied()),
            )?,
            vec![Value::Null; scheme.arity()],
        ),
        Associations::Values(_) => (Vec::new(), Vec::new()),
    };
    let mut out = Table::empty(Scheme::of_relation(target, target.name()));
    for i in 0..associations.len() {
        let row = associations.row(i, &reads, &mut scratch);
        if let Some(projected) = eval.target_row_if_passing(row, ex.funcs)? {
            out.push_distinct(projected);
        }
    }
    Ok((out, charged))
}

/// Does `row` pass every bound filter? Stops at the first that rejects.
fn passes(filters: &[BoundExpr], row: &[Value], funcs: &FuncRegistry) -> Result<bool> {
    filters
        .iter()
        .try_fold(true, |ok, f| Ok(ok && f.eval_truth(row, funcs)?.passes()))
}

/// Keep the rows of `table` passing every filter, in order.
fn keep(mut table: Table, filters: &[&Expr], funcs: &FuncRegistry) -> Result<Table> {
    if filters.is_empty() {
        return Ok(table);
    }
    let filters: Vec<BoundExpr> = filters
        .iter()
        .map(|f| f.bind(table.scheme()))
        .collect::<Result<_>>()?;
    let pass: Vec<bool> = table
        .rows()
        .iter()
        .map(|row| passes(&filters, row, funcs))
        .collect::<Result<_>>()?;
    let mut pass = pass.into_iter();
    table.rows_mut().retain(|_| pass.next() == Some(true));
    Ok(table)
}

/// The id of a graph node a tuple-id row does not cover.
const UNCOVERED: u32 = u32::MAX;

/// Rows of tuple ids: a `D(G)`, an `F(J)`, and each step of their joins.
///
/// A row holds one id per graph node, in node order: the position of
/// the node's tuple in its relation, or [`UNCOVERED`]. A join step sets
/// the joined node's id in a copy of the row, and a row needs no
/// padding. `scheme` lists the covered nodes' columns — in join order
/// along a chain, in node order once [`TupleIds::in_node_order`] (for
/// every node, the graph scheme) — and `columns` maps each to its node
/// and attribute, so a cell is read through the row's id into the stored
/// relation ([`JoinInput::cell`]).
pub(crate) struct TupleIds<'t> {
    /// Each covered node's stored rows (empty for the others).
    relations: Vec<&'t [Vec<Value>]>,
    scheme: Scheme,
    /// Per scheme column: its node and attribute position.
    columns: Vec<(usize, usize)>,
    /// The rows, one after the other, `relations.len()` ids each.
    ids: Vec<u32>,
}

impl<'t> TupleIds<'t> {
    /// No rows, over the nodes in `mask`, columns in node order. A
    /// relation with more tuples than a `u32` id can number is
    /// rejected, never wrapped.
    fn over(ex: &Exec<'t>, mask: u64) -> Result<Self> {
        let mut relations: Vec<&[Vec<Value>]> = vec![&[]; ex.graph.node_count()];
        let mut scheme = Vec::new();
        let mut columns = Vec::new();
        for v in bits(mask) {
            let node = &ex.graph.nodes()[v];
            let relation = ex.db.relation(&node.relation)?;
            u32::try_from(relation.len()).map_err(|_| {
                Error::Invalid(format!(
                    "relation `{}` holds {} tuples, more than a tuple id can number",
                    relation.name(),
                    relation.len()
                ))
            })?;
            relations[v] = relation.rows();
            let cols = Scheme::of_relation(relation.schema(), &node.alias);
            columns.extend((0..cols.arity()).map(|a| (v, a)));
            scheme.extend_from_slice(cols.columns());
        }
        Ok(TupleIds {
            relations,
            scheme: Scheme::new(scheme),
            columns,
            ids: Vec::new(),
        })
    }

    /// One row per tuple of node `v`'s relation, in order.
    fn scan(ex: &Exec<'t>, bit: u64) -> Result<Self> {
        let mut out = TupleIds::over(ex, bit)?;
        let (width, v) = (out.width(), bit.trailing_zeros() as usize);
        out.ids = vec![UNCOVERED; width * out.relations[v].len()];
        for (row, id) in out.ids.chunks_exact_mut(width).zip(0..) {
            row[v] = id;
        }
        Ok(out)
    }

    /// Ids per row: the graph's node count.
    fn width(&self) -> usize {
        self.relations.len()
    }

    /// Row `i`'s ids.
    fn row(&self, i: usize) -> &[u32] {
        let width = self.width();
        &self.ids[i * width..(i + 1) * width]
    }

    /// `self ⋈ scan` under `predicate` and `kind`, by the relational join
    /// kernel, reading the scanned relation's rows in place: a pair's
    /// row is `self`'s row with the scanned node's id set; an unmatched
    /// row of either side covers only its own nodes.
    fn join_scan(
        &self,
        ex: &Exec<'t>,
        scan: &RelExpr,
        predicate: &Expr,
        kind: JoinKind,
    ) -> Result<TupleIds<'t>> {
        let bit = node_bit(ex.graph, scan)?;
        let TupleIds {
            mut relations,
            scheme,
            mut columns,
            ..
        } = TupleIds::over(ex, bit)?;
        let (v, width) = (bit.trailing_zeros() as usize, self.width());
        let rows = relations[v];
        let mut ids = Vec::with_capacity(self.ids.len().max(rows.len() * width));
        let scheme = join_with(
            self,
            &(&scheme, rows),
            predicate,
            kind,
            ex.funcs,
            |pair| match pair {
                Joined::Pair(l, r) => {
                    ids.extend_from_slice(self.row(l));
                    let at = ids.len() - width + v;
                    ids[at] = r as u32;
                }
                Joined::Left(l) => ids.extend_from_slice(self.row(l)),
                Joined::Right(r) => {
                    ids.resize(ids.len() + width, UNCOVERED);
                    let at = ids.len() - width + v;
                    ids[at] = r as u32;
                }
            },
        )?;
        relations.clone_from(&self.relations);
        relations[v] = rows;
        columns.splice(0..0, self.columns.iter().copied());
        Ok(TupleIds {
            relations,
            scheme,
            columns,
            ids,
        })
    }

    /// The same rows with the columns in node order: over every node,
    /// the graph scheme.
    fn in_node_order(self) -> Self {
        let mut order: Vec<usize> = (0..self.columns.len()).collect();
        order.sort_unstable_by_key(|&c| self.columns[c]);
        let cols = self.scheme.columns();
        TupleIds {
            scheme: Scheme::new(order.iter().map(|&c| cols[c].clone()).collect()),
            columns: order.iter().map(|&c| self.columns[c]).collect(),
            ..self
        }
    }

    /// Keep the rows whose flag is set, in order.
    fn retain(&mut self, keep: &[bool]) {
        let width = self.width();
        let mut at = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            self.ids.copy_within(i * width..(i + 1) * width, at);
            at += width;
        }
        self.ids.truncate(at);
    }

    /// Keep the rows passing every filter, in order, each read through
    /// its ids into one scratch row holding only the columns the
    /// filters reference.
    fn keep(mut self, filters: &[&Expr], funcs: &FuncRegistry) -> Result<Self> {
        if filters.is_empty() {
            return Ok(self);
        }
        let bound: Vec<BoundExpr> = filters
            .iter()
            .map(|f| f.bind(&self.scheme))
            .collect::<Result<_>>()?;
        let reads = columns_read(&self.scheme, filters.iter().copied())?;
        let mut scratch = vec![Value::Null; self.scheme.arity()];
        let pass: Vec<bool> = (0..self.row_count())
            .map(|i| {
                self.fill(i, &reads, &mut scratch);
                passes(&bound, &scratch, funcs)
            })
            .collect::<Result<_>>()?;
        self.retain(&pass);
        Ok(self)
    }

    /// Fill the `reads` columns of `scratch` with row `i`'s cells (its
    /// other columns are left as they were).
    fn fill(&self, i: usize, reads: &[usize], scratch: &mut [Value]) {
        for &c in reads {
            scratch[c].clone_from(self.cell(i, c));
        }
    }

    /// Drop the rows `candidates` marks that another row strictly
    /// subsumes, values read through the ids ([`subsumed_among`]).
    fn remove_subsumed_among(&mut self, candidates: &[bool]) {
        if candidates.contains(&true) {
            let keep = subsumed_among(&*self, candidates);
            self.retain(&keep);
        }
    }

    /// The coverage of row `i`: its covered nodes.
    fn coverage(&self, i: usize) -> u64 {
        self.row(i)
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != UNCOVERED)
            .fold(0, |mask, (node, _)| mask | 1 << node)
    }

    /// The rows as a cache entry of the subgraph `mask` they cover: only
    /// the `|J|` ids of `mask`'s nodes per row, in node order.
    fn compact(&self, mask: u64) -> IdRows {
        let nodes: Vec<usize> = bits(mask).collect();
        let ids = (0..self.row_count())
            .flat_map(|i| {
                let row = self.row(i);
                nodes.iter().map(move |&v| row[v])
            })
            .collect();
        IdRows {
            width: nodes.len(),
            ids,
        }
    }

    /// The id rows of a cache entry of [`TupleIds::compact`]'s form, laid
    /// out for this (row-less) frame over `mask`: an `F(J)` over `mask`,
    /// or, when `padded`, a `D(G)` over every node, whose rows may leave
    /// nodes [`UNCOVERED`]. The entry is untrusted: it is rejected
    /// (`None`) unless it holds `|mask|` ids per row, every id names a
    /// tuple of its node's relation (or, when `padded`, is
    /// [`UNCOVERED`]), and every row covers a node.
    fn expand(&self, mask: u64, cached: &IdRows, padded: bool) -> Option<Vec<u32>> {
        let nodes: Vec<usize> = bits(mask).collect();
        if nodes.is_empty()
            || cached.width != nodes.len()
            || !cached.ids.len().is_multiple_of(nodes.len())
        {
            return None;
        }
        let width = self.width();
        let mut ids = vec![UNCOVERED; cached.len() * width];
        for (row, entry) in ids
            .chunks_exact_mut(width)
            .zip(cached.ids.chunks_exact(nodes.len()))
        {
            for (&v, &id) in nodes.iter().zip(entry) {
                if padded && id == UNCOVERED {
                    continue;
                }
                if id as usize >= self.relations[v].len() {
                    return None;
                }
                row[v] = id;
            }
            if row.iter().all(|&id| id == UNCOVERED) {
                return None;
            }
        }
        Some(ids)
    }

    /// The value rows (span `fd.materialize`).
    pub(crate) fn materialize(&self) -> Table {
        let _span = clio_obs::span("fd.materialize");
        let rows = (0..self.row_count())
            .map(|i| {
                (0..self.columns.len())
                    .map(|c| self.cell(i, c).clone())
                    .collect()
            })
            .collect();
        Table::new(self.scheme.clone(), rows)
    }
}

impl JoinInput for TupleIds<'_> {
    fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    fn row_count(&self) -> usize {
        self.ids.len() / self.relations.len()
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        static NULL: Value = Value::Null;
        let (node, attr) = self.columns[col];
        match self.ids[row * self.relations.len() + node] {
            UNCOVERED => &NULL,
            id => &self.relations[node][id as usize][attr],
        }
    }
}

/// A `D(G)` as [`project`] and
/// [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)
/// read it: tuple ids (the tree chain or the lattice union, computed or
/// memoized), or a value table (any other node's rows).
pub(crate) enum Associations<'t> {
    /// Tuple ids over the graph scheme.
    Ids(TupleIds<'t>),
    /// Value rows.
    Values(Table),
}

impl Associations<'_> {
    fn scheme(&self) -> &Scheme {
        match self {
            Associations::Ids(ids) => &ids.scheme,
            Associations::Values(table) => table.scheme(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Associations::Ids(ids) => ids.row_count(),
            Associations::Values(table) => table.len(),
        }
    }

    /// Association `i` as far as the `reads` columns go: a value row in
    /// place, or `scratch` with those columns filled through the ids
    /// (its other columns are left as they were).
    fn row<'s>(&'s self, i: usize, reads: &[usize], scratch: &'s mut [Value]) -> &'s [Value] {
        match self {
            Associations::Values(table) => &table.rows()[i],
            Associations::Ids(ids) => {
                ids.fill(i, reads, scratch);
                scratch
            }
        }
    }

    /// The value table.
    pub(crate) fn into_table(self) -> Table {
        match self {
            Associations::Ids(ids) => ids.materialize(),
            Associations::Values(table) => table,
        }
    }

    /// The association set: from ids, each coverage is the row's
    /// covered nodes, read without a scan of the values.
    pub(crate) fn into_association_set(self, graph: &QueryGraph) -> AssociationSet {
        match self {
            Associations::Ids(ids) => {
                let coverages = (0..ids.row_count()).map(|i| ids.coverage(i)).collect();
                AssociationSet::with_coverages(ids.materialize(), coverages)
            }
            Associations::Values(table) => AssociationSet::from_table(graph, table),
        }
    }
}

/// One `F(J)` a [`RelExpr::Union`] computes: its subgraph, its chain,
/// and — for a chain longer than one scan — the parent subgraph whose
/// rows the chain's last join extends, with that join's right-hand scan
/// and predicate.
struct Job<'e> {
    mask: u64,
    chain: &'e RelExpr,
    step: Option<(u64, &'e RelExpr, &'e Expr)>,
    estimate: u64,
}

/// Which rows of `table`, the rows of a branch `J`, a row of some child
/// branch `J ∪ {v}` extends: holds the same tuple at every node of `J`.
/// `children` pairs each child's rows with its `v`. Padded, such a child
/// row strictly subsumes the `table` row — it adds `v`'s tuple, which is
/// not all null — so a row marked here is never maximal. One hashed
/// semi-join on the `|J|` ids of each row: the rows of `table` are
/// indexed once, and each child row probes with its ids, `v`'s left out.
/// Index insertions plus probes count in `subsumption.comparisons`.
fn extended_rows(table: &TupleIds, children: &[(&TupleIds, usize)]) -> Vec<bool> {
    let n = table.row_count();
    let mut extended = vec![false; n];
    if n == 0 || children.iter().all(|(child, _)| child.row_count() == 0) {
        return extended;
    }
    let index: HashMap<&[u32], usize> = (0..n).map(|i| (table.row(i), i)).collect();
    let mut key = vec![UNCOVERED; table.width()];
    let mut comparisons = n as u64;
    for &(child, v) in children {
        for r in 0..child.row_count() {
            key.copy_from_slice(child.row(r));
            key[v] = UNCOVERED;
            if let Some(&i) = index.get(key.as_slice()) {
                extended[i] = true;
            }
        }
        comparisons += child.row_count() as u64;
    }
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    extended
}

/// The minimum union of a [`RelExpr::Union`]'s branches, in their
/// (canonical) order, computed over the subgraph lattice on tuple ids.
///
/// **Joins.** With a live cache each branch's *unfiltered* `F(J)` is
/// looked up under its
/// [`subgraph_fingerprint`](crate::incremental::subgraph_fingerprint)
/// (counted, in branch order; span `fd.lattice.lookup`), hashed from one
/// [`SubgraphKeys`] table per pass; an insert reuses its lookup's. A
/// miss is one join: `chain_ir(J)` is `Join { chain_ir(J \ {v}), Scan v }`
/// for `J`'s last BFS node `v`, so `F(J)` joins the parent subgraph's id
/// rows with `R_v`'s rows, read in place, by the join kernel
/// ([`join_with`], as the tree plan's steps). The parent is a branch, a
/// cache hit, or — when the pushdown pruned it — looked up and computed
/// once for sharing. The misses run
/// level by level in popcount order, each level on the worker pool
/// longest-estimated-first, and are inserted unfiltered as `|J|` ids per
/// row, each charged only its own join (span `fd.lattice.insert`);
/// `fd.subgraphs` counts them. A cached entry is checked before use:
/// an id past its relation's end makes it a miss.
///
/// **Subsumption by non-extension.** Each branch's pushed filters then
/// apply, read through the ids (span `fd.lattice.keep`). A row of branch
/// `J` is dropped when a row of some branch `J ∪ {v}` holds the same
/// tuple at every node of `J` ([`extended_rows`], span
/// `fd.lattice.extend`): padded, that row strictly subsumes it, so the
/// dropped row is never maximal. The rest keep branch order (span
/// `fd.lattice.collect`); the id rows need no padding.
///
/// **Residual pass.** A branch is *closed* when every `J ∪ {v}` is a
/// branch and the filters sit where [`canonical_pushdown`] expects them.
/// A residual pass ([`subsumed_among`], values read through the ids;
/// span `fd.lattice.residual`) tests as the subsumed side only the rows
/// of branches that are not closed or that hold a tuple of a relation
/// with near-duplicates ([`Relation::has_near_duplicates`]). Every other
/// row is maximal. Proof: let `r ∈ F(J)` be such a row, strictly
/// subsumed by a row `s` of some filtered branch `F(J')`. At each node
/// `u ∈ J`, `r`'s tuple `t` has a non-null cell (relations hold no
/// all-null tuple), so `s` covers `u`, and `s`'s tuple there agrees with
/// `t` on `t`'s non-null cells; `u`'s relation has no near-duplicate, so
/// it is `t` itself. So `J' ⊋ J`, and for a `v` of `J' \ J` adjacent to
/// `J`, `s` restricted to `J ∪ {v}` is a row of that branch (it
/// satisfies every edge of `J'`), passes its filters (they bind only
/// `J ∪ {v}` and also sit on `J'`), and holds `r`'s tuples:
/// non-extension dropped `r`. With no relation of `G` flagged and every
/// branch closed — what `Plan::new` builds — there is no residual pass
/// at all. There is no duplicate pass either: rows of one branch are
/// distinct id combinations of sets, rows of two branches differ in
/// coverage, and two distinct tuples of one relation are never equal.
/// Only strictly subsumed rows are dropped, so every maximal row
/// survives, and the result is
/// [`minimum_union_all`](clio_relational::ops::minimum_union_all)
/// over the filtered, padded branches, row order included, whatever was
/// warm and however the misses ran.
///
/// Returns the ids, over the graph scheme in node order (`pad`), with
/// the computed `(mask, cost_ns)` pairs in dispatch order (popcount,
/// then mask).
///
/// [`Relation::has_near_duplicates`]: clio_relational::relation::Relation::has_near_duplicates
pub(crate) fn schedule<'t>(
    ex: &Exec<'t>,
    inputs: &[RelExpr],
    branches: &[BranchInfo],
    pad: &Scheme,
) -> Result<(TupleIds<'t>, Vec<(u64, u64)>)> {
    let _span = clio_obs::span("fd.lattice");
    let cache = ex
        .cache
        .filter(|c| c.enabled())
        .map(|c| (c, SubgraphKeys::new(ex.graph, c)));
    // each looked-up mask's fingerprint, for its insert after a miss
    let mut fps: HashMap<u64, Fingerprint> = HashMap::new();
    let mut lookup = |mask: u64| -> Result<Option<TupleIds<'t>>> {
        let Some((cache, keys)) = &cache else {
            return Ok(None);
        };
        let _span = clio_obs::span("fd.lattice.lookup");
        let fp = *fps.entry(mask).or_insert_with(|| keys.fingerprint(mask));
        let frame = TupleIds::over(ex, mask)?;
        let ids = cache
            .get_ids(fp, |cached| frame.expand(mask, cached, false))
            .0;
        Ok(ids.map(|ids| TupleIds { ids, ..frame }))
    };
    let branch_masks: HashMap<u64, usize> = branches
        .iter()
        .enumerate()
        .map(|(i, b)| (b.mask, i))
        .collect();
    let mut known: HashMap<u64, TupleIds<'t>> = HashMap::new();
    for b in branches {
        if let Some(ids) = lookup(b.mask)? {
            known.insert(b.mask, ids);
        }
    }
    // the misses, each followed up its chain to a known or queued parent
    let mut jobs: Vec<Job> = Vec::new();
    let mut queued: HashSet<u64> = HashSet::new();
    for (input, b) in inputs.iter().zip(branches) {
        let (mut mask, mut chain, mut estimate) = (b.mask, input.filters().0, b.estimate);
        while !known.contains_key(&mask) && queued.insert(mask) {
            let step = match chain {
                RelExpr::Join {
                    left,
                    right,
                    predicate,
                    outer: false,
                } => Some((
                    mask & !node_bit(ex.graph, right)?,
                    &**left,
                    &**right,
                    predicate,
                )),
                _ => None,
            };
            jobs.push(Job {
                mask,
                chain,
                step: step.map(|(parent, _, right, predicate)| (parent, right, predicate)),
                estimate,
            });
            let Some((parent, left, _, _)) = step else {
                break;
            };
            (mask, chain, estimate) = (parent, left, 0);
            if branch_masks.contains_key(&mask) {
                break; // its own lookup ran; its own entry queues it
            }
            if !known.contains_key(&mask) && !queued.contains(&mask) {
                if let Some(ids) = lookup(mask)? {
                    known.insert(mask, ids);
                }
            }
        }
    }
    jobs.sort_by_key(|j| (j.mask.count_ones(), j.mask));
    let mut dispatched: Vec<(u64, u64)> = Vec::with_capacity(jobs.len());
    for level in jobs.chunk_by(|a, b| a.mask.count_ones() == b.mask.count_ones()) {
        // Longest-estimated-first dispatch; results return in level
        // order, so scheduling is answer-invisible.
        let mut order: Vec<usize> = (0..level.len()).collect();
        order.sort_by_key(|&p| (Reverse(level[p].estimate), p));
        let fresh: Vec<(TupleIds<'t>, u64)> = clio_relational::exec::map_slice_prioritized(
            level,
            &order,
            "fd.lattice.worker",
            |_, job| -> Result<(TupleIds<'t>, u64)> {
                // Unconditional timing (unlike hist::start, which is
                // trace-gated): the cost model needs real measurements
                // even when tracing is off.
                let t0 = std::time::Instant::now();
                let ids = match job.step {
                    Some((parent, scan, predicate)) => known[&parent]
                        .join_scan(ex, scan, predicate, JoinKind::Inner)?
                        .in_node_order(),
                    None => TupleIds::scan(ex, node_bit(ex.graph, job.chain)?)?,
                };
                Ok((ids, elapsed_ns(t0)))
            },
        )
        .into_iter()
        .collect::<Result<_>>()?;
        let _span = cache.as_ref().map(|_| clio_obs::span("fd.lattice.insert"));
        for (job, (ids, cost_ns)) in level.iter().zip(fresh) {
            if let Some((c, keys)) = &cache {
                let fp = fps
                    .get(&job.mask)
                    .copied()
                    .unwrap_or_else(|| keys.fingerprint(job.mask));
                let deps = mask_deps(ex.graph, job.mask);
                c.insert_ids(fp, deps, &ids.compact(job.mask), cost_ns);
            }
            dispatched.push((job.mask, cost_ns));
            known.insert(job.mask, ids);
        }
    }
    metrics::add(Counter::SubgraphsEnumerated, dispatched.len() as u64);
    if cache.is_some() && clio_obs::trace::trace_enabled() {
        for &(_, cost_ns) in &dispatched {
            clio_obs::hist::record("incr.fd.scheduled", cost_ns);
        }
    }

    let tables: Vec<TupleIds<'t>> = {
        let _span = clio_obs::span("fd.lattice.keep");
        inputs
            .iter()
            .zip(branches)
            .map(|(input, b)| {
                let ids = known.remove(&b.mask).ok_or_else(|| {
                    Error::Invalid("union branches must be distinct subgraphs".into())
                })?;
                ids.keep(&input.filters().1, ex.funcs)
            })
            .collect::<Result<_>>()?
    };
    // Per branch: is it closed, and which of its rows a child extends.
    let extended: Vec<(bool, Vec<bool>)> = {
        let _span = clio_obs::span("fd.lattice.extend");
        // A branch is closed when every subgraph one node larger is a
        // branch too and the pushed filters sit exactly where they bind,
        // as `Plan::new` places them.
        let canonical = canonical_pushdown(ex.graph, inputs, branches);
        tables
            .iter()
            .zip(branches)
            .map(|(table, b)| {
                let mut closed = canonical;
                let mut children: Vec<(&TupleIds, usize)> = Vec::new();
                for v in bits(neighbourhood(ex.graph, b.mask)) {
                    match branch_masks.get(&(b.mask | 1 << v)) {
                        Some(&k) => children.push((&tables[k], v)),
                        None => closed = false,
                    }
                }
                (closed, extended_rows(table, &children))
            })
            .collect()
    };
    // The unextended rows in branch order, each marked as a residual
    // candidate when its branch is open or holds a flagged tuple.
    let (mut out, candidates) = {
        let _span = clio_obs::span("fd.lattice.collect");
        let flagged = flagged_nodes(ex)?;
        let mut out = TupleIds::over(ex, ex.graph.node_mask())?;
        if out.scheme != *pad {
            return Err(Error::Invalid(
                "a union is padded to its graph's scheme".into(),
            ));
        }
        let mut candidates: Vec<bool> = Vec::new();
        let mut dropped = 0;
        for ((table, b), (closed, extended)) in tables.into_iter().zip(branches).zip(extended) {
            let candidate = !closed || flagged & b.mask != 0;
            for (i, _) in extended.iter().enumerate().filter(|(_, &x)| !x) {
                out.ids.extend_from_slice(table.row(i));
                candidates.push(candidate);
            }
            dropped += extended.iter().filter(|&&x| x).count() as u64;
        }
        metrics::add(Counter::TuplesSubsumed, dropped);
        (out, candidates)
    };
    if candidates.contains(&true) {
        let _span = clio_obs::span("fd.lattice.residual");
        out.remove_subsumed_among(&candidates);
    }
    Ok((out, dispatched))
}

/// Are the union's pushed filters exactly where `Plan::new` puts them:
/// each on every branch that binds all of its aliases, and on no other?
fn canonical_pushdown(graph: &QueryGraph, inputs: &[RelExpr], branches: &[BranchInfo]) -> bool {
    let filters: Vec<Vec<&Expr>> = inputs.iter().map(|input| input.filters().1).collect();
    filters.iter().flatten().all(|f| {
        alias_mask(graph, f).is_some_and(|amask| {
            filters
                .iter()
                .zip(branches)
                .all(|(on, b)| on.contains(f) == (amask & !b.mask == 0))
        })
    })
}

/// The graph bit of the node a chain step scans.
fn node_bit(graph: &QueryGraph, scan: &RelExpr) -> Result<u64> {
    let RelExpr::Scan { alias, .. } = scan else {
        return Err(Error::Invalid("a chain step joins one scan".into()));
    };
    graph
        .nodes()
        .iter()
        .position(|n| &n.alias == alias)
        .map(|i| 1 << i)
        .ok_or_else(|| Error::Invalid(format!("scan alias `{alias}` is not a graph node")))
}

/// The node ids set in `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = NodeId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let v = mask.trailing_zeros() as NodeId;
            mask &= mask - 1;
            v
        })
    })
}

/// The left-deep join chain over the connected node set `mask`: nodes in
/// BFS order from the lowest member, each joined on the conjunction of
/// its edges into the nodes already joined — so cyclic subgraphs close
/// their cycles inside the join condition. With `outer` the joins are
/// full outer joins: over a whole tree graph that chain is the
/// outer-join full disjunction (exactly one edge per step). The mask
/// must be non-empty and connected.
#[must_use]
pub fn chain_ir(graph: &QueryGraph, mask: u64, outer: bool) -> RelExpr {
    let start = mask.trailing_zeros() as usize;
    let mut order: Vec<NodeId> = vec![start];
    let mut seen = 1u64 << start;
    let mut i = 0;
    while i < order.len() {
        for m in graph.neighbors(order[i]) {
            let bit = 1u64 << m;
            if mask & bit != 0 && seen & bit == 0 {
                seen |= bit;
                order.push(m);
            }
        }
        i += 1;
    }
    debug_assert_eq!(seen, mask, "chain mask must be connected");
    let scan = |n: NodeId| {
        let node = &graph.nodes()[n];
        RelExpr::Scan {
            alias: node.alias.clone(),
            relation: node.relation.clone(),
        }
    };
    let mut acc = scan(order[0]);
    let mut included = 1u64 << order[0];
    for &n in &order[1..] {
        let preds: Vec<Expr> = graph
            .edges()
            .iter()
            .filter(|e| {
                (e.a == n && included & (1 << e.b) != 0) || (e.b == n && included & (1 << e.a) != 0)
            })
            .map(|e| e.predicate.clone())
            .collect();
        debug_assert!(!preds.is_empty(), "connected order guarantees an edge");
        acc = RelExpr::Join {
            left: Box::new(acc),
            right: Box::new(scan(n)),
            predicate: Expr::conjunction(preds),
            outer,
        };
        included |= 1 << n;
    }
    acc
}

/// Is `e` *extension-stable*: once true on a row, still true on any row
/// that fills some of that row's nulls with values?
///
/// This is the semantic property that lets the planner push a source
/// filter below the minimum union: a row's subsumers are exactly its
/// extensions, so a stable-true filter can never accept a row while
/// rejecting the subsumer that would have replaced it.
///
/// The analysis is polarity-aware. A comparison over **strict** scalars
/// (null in → null out) has fixed true/false outcomes — filling nulls
/// only resolves unknowns — so it is stable in both directions.
/// `IS NOT NULL` is stable-*true* only (false on a null can flip to
/// true when the null fills), `IS NULL` stable-*false* only, and `NOT`
/// swaps the directions. Non-strict scalars — functions (`coalesce`
/// maps null to a value) and `CASE` — disqualify any atom over them.
///
/// Together with strongness ([`Expr::is_strong`]) this is the licence
/// for the pushdown rewrite — see [`Plan`](super::Plan) for the full
/// argument.
#[must_use]
pub fn is_extension_stable(e: &Expr) -> bool {
    stable(e, true)
}

/// `positive`: does a true result survive refinement? Otherwise: does a
/// false result survive refinement?
fn stable(e: &Expr, positive: bool) -> bool {
    match e {
        // boolean-typed leaves are value-strict: their outcome is fixed
        // once non-null, and null is neither true nor false
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Not(x) => stable(x, !positive),
        // a negated atom over strict scalars is itself strict, so
        // `NOT IN` / `NOT BETWEEN` need no polarity flip
        Expr::InList { expr, list, .. } => {
            is_strict_scalar(expr) && list.iter().all(is_strict_scalar)
        }
        Expr::Between {
            expr, low, high, ..
        } => is_strict_scalar(expr) && is_strict_scalar(low) && is_strict_scalar(high),
        Expr::IsNull { expr, negated } => {
            // IS NOT NULL: true is pinned to a non-null value; IS NULL:
            // false is. The opposite direction can flip as nulls fill.
            is_strict_scalar(expr) && *negated == positive
        }
        Expr::Binary { op, left, right } if op.is_comparison() => {
            is_strict_scalar(left) && is_strict_scalar(right)
        }
        Expr::Binary { op, left, right } => match op {
            clio_relational::expr::BinOp::And | clio_relational::expr::BinOp::Or => {
                stable(left, positive) && stable(right, positive)
            }
            _ => false, // arithmetic in boolean position: not a predicate
        },
        Expr::Neg(_) | Expr::Func { .. } | Expr::Case { .. } => false,
    }
}

/// Null-strict scalar: evaluates to null whenever any referenced column
/// is null, and to a value determined solely by its non-null inputs
/// otherwise. Division is excluded — it is strict, but pushing it would
/// let a by-zero error surface on rows the subsumption pass would have
/// removed before the top-level filters ran.
fn is_strict_scalar(e: &Expr) -> bool {
    match e {
        Expr::Column(_) | Expr::Literal(_) => true,
        Expr::Neg(x) => is_strict_scalar(x),
        Expr::Binary { op, left, right } => {
            !matches!(op, clio_relational::expr::BinOp::Div)
                && is_strict_scalar(left)
                && is_strict_scalar(right)
        }
        Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Func { .. }
        | Expr::Case { .. }
        | Expr::InList { .. }
        | Expr::Between { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_disjunction::engine_subsumption;
    use clio_relational::ops::{join, minimum_union_all, pad_to, project, select};
    use clio_relational::parser::parse_expr;
    use clio_relational::schema::{Attribute, Column};
    use clio_relational::value::{DataType, Value};

    fn scan(alias: &str, relation: &str) -> RelExpr {
        RelExpr::Scan {
            alias: alias.into(),
            relation: relation.into(),
        }
    }

    #[test]
    fn bound_and_free_vars_track_aliases() {
        let join = RelExpr::Join {
            left: Box::new(scan("C", "Children")),
            right: Box::new(scan("P", "Parents")),
            predicate: parse_expr("C.mid = P.ID").unwrap(),
            outer: false,
        };
        assert_eq!(
            join.bound_vars().into_iter().collect::<Vec<_>>(),
            vec!["C".to_owned(), "P".to_owned()]
        );
        assert!(join.free_vars().is_empty());
        assert!(join.check().is_ok());

        let dangling = RelExpr::Filter {
            input: Box::new(scan("C", "Children")),
            predicate: parse_expr("P.ID = 1").unwrap(),
            scope: FilterScope::Source,
            pushed: false,
        };
        assert_eq!(
            dangling.free_vars().into_iter().collect::<Vec<_>>(),
            vec!["P".to_owned()]
        );
        let err = dangling.check().unwrap_err();
        assert!(err.to_string().contains("unbound alias `P`"));
    }

    #[test]
    fn join_predicates_referencing_outside_inputs_are_free() {
        let join = RelExpr::Join {
            left: Box::new(scan("C", "Children")),
            right: Box::new(scan("P", "Parents")),
            predicate: parse_expr("C.mid = Ph.ID").unwrap(),
            outer: false,
        };
        assert!(join.free_vars().contains("Ph"));
    }

    #[test]
    fn extension_stability_excludes_non_strict_constructs() {
        for ok in [
            "C.age < 7",
            "C.a = 1 AND NOT (P.b = 2)",
            "C.a IN (1, 2) OR C.b BETWEEN 1 AND 3",
            "C.name LIKE 'A%'",
            "C.a IS NOT NULL",
            "NOT (C.a IS NULL)",
        ] {
            assert!(is_extension_stable(&parse_expr(ok).unwrap()), "{ok}");
        }
        for bad in [
            "C.a IS NULL",
            "NOT (C.a IS NOT NULL)",
            "coalesce(C.a, 'x') = 'z'",
            "C.a = 1 AND CASE WHEN C.b = 2 THEN TRUE ELSE FALSE END",
            "C.a / 2 = 1",
        ] {
            assert!(!is_extension_stable(&parse_expr(bad).unwrap()), "{bad}");
        }
    }

    /// The cycle A–B–C over `x`, with data for `A(x, y)`, `B(x, z)` and
    /// `C(x, w)`.
    fn cycle() -> (QueryGraph, Database) {
        use crate::query_graph::Node;
        use clio_relational::relation::RelationBuilder;
        let mut g = QueryGraph::new();
        for r in ["A", "B", "C"] {
            g.add_node(Node::new(r)).unwrap();
        }
        g.add_edge(0, 1, parse_expr("A.x = B.x").unwrap()).unwrap();
        g.add_edge(1, 2, parse_expr("B.x = C.x").unwrap()).unwrap();
        g.add_edge(0, 2, parse_expr("A.x = C.x").unwrap()).unwrap();
        let mut db = Database::new();
        for (name, col, rows) in [
            (
                "A",
                ("y", DataType::Int),
                vec![(1, 1.into()), (2, 5.into()), (3, 7.into())],
            ),
            (
                "B",
                ("z", DataType::Str),
                vec![(2, Value::Null), (3, "b3".into()), (4, "b4".into())],
            ),
            (
                "C",
                ("w", DataType::Str),
                vec![(3, "c3".into()), (5, "c5".into())],
            ),
        ] {
            let mut r = RelationBuilder::new(name)
                .attr("x", DataType::Int)
                .attr(col.0, col.1);
            for (x, v) in rows {
                r = r.row(vec![Value::Int(x), v]);
            }
            db.add_relation(r.build().unwrap()).unwrap();
        }
        (g, db)
    }

    #[test]
    fn chains_close_cycles_and_every_node_kind_runs() {
        let (g, db) = cycle();
        // BFS from A joins B, then C on both of its edges into {A, B}
        let RelExpr::Join {
            left,
            predicate,
            outer,
            ..
        } = chain_ir(&g, 0b111, false)
        else {
            panic!("expected a join");
        };
        assert!(!outer);
        assert_eq!(predicate.to_string(), "(B.x = C.x) AND (A.x = C.x)");
        assert!(matches!(*left, RelExpr::Join { .. }));
        // a sub-mask chain starts at its lowest member
        assert_eq!(
            chain_ir(&g, 0b110, true)
                .bound_vars()
                .into_iter()
                .collect::<Vec<_>>(),
            vec!["B".to_owned(), "C".to_owned()]
        );

        // a hand-built tree over all five node kinds: a target filter
        // over a projection over a source filter over a union of three
        // branches, the first under a pushed filter
        let src = parse_expr("A.y > 1").unwrap();
        let masks = [0b001, 0b011, 0b111];
        let pad = g.scheme(&db).unwrap();
        let union = RelExpr::Union {
            inputs: vec![
                scan("A", "A").filtered(&src, FilterScope::Source, true),
                chain_ir(&g, masks[1], false),
                chain_ir(&g, masks[2], false),
            ],
            branches: masks
                .iter()
                .map(|&mask| BranchInfo {
                    mask,
                    estimate: 1,
                    warm: false,
                })
                .collect(),
            pad: pad.clone(),
        };
        let target = RelSchema::new(
            "T",
            vec![
                Attribute::new("y", DataType::Int),
                Attribute::new("z", DataType::Str),
                Attribute::new("u", DataType::Str),
            ],
        )
        .unwrap();
        let tree = RelExpr::Project {
            input: Box::new(union.filtered(&src, FilterScope::Source, false)),
            correspondences: vec![
                ValueCorrespondence::identity("B.z", "z"),
                ValueCorrespondence::identity("A.y", "y"),
            ],
            target,
        }
        .filtered(
            &parse_expr("T.z IS NOT NULL").unwrap(),
            FilterScope::Target,
            false,
        );
        tree.check().unwrap();

        // the reference: the same algebra with the relational operators
        let funcs = FuncRegistry::with_builtins();
        let table = |r: &str| db.relation(r).unwrap().to_table(r);
        let on = |e: &str| parse_expr(e).unwrap();
        let ab = join(
            &table("A"),
            &table("B"),
            &on("A.x = B.x"),
            JoinKind::Inner,
            &funcs,
        )
        .unwrap();
        let abc = join(
            &ab,
            &table("C"),
            &on("B.x = C.x AND A.x = C.x"),
            JoinKind::Inner,
            &funcs,
        )
        .unwrap();
        let padded: Vec<Table> = [select(&table("A"), &src, &funcs).unwrap(), ab, abc]
            .iter()
            .map(|t| pad_to(t, &pad).unwrap())
            .collect();
        let refs: Vec<&Table> = padded.iter().collect();
        let unioned = minimum_union_all(&refs, engine_subsumption()).unwrap();
        let col = |name: &str, ty| Column::new("T", name, ty);
        let mut projected = project(
            &select(&unioned, &src, &funcs).unwrap(),
            &[
                (on("A.y"), col("y", DataType::Int)),
                (on("B.z"), col("z", DataType::Str)),
                (Expr::Literal(Value::Null), col("u", DataType::Str)),
            ],
            &funcs,
        )
        .unwrap();
        projected.dedup();
        let expected = select(&projected, &on("T.z IS NOT NULL"), &funcs).unwrap();
        assert_eq!(expected.len(), 1, "A2's null z is trimmed, A3–B3–C3 stays");

        let cache = EvalCache::new();
        for cache in [None, Some(&cache), Some(&cache)] {
            let ex = Exec {
                db: &db,
                funcs: &funcs,
                graph: &g,
                cache,
            };
            let got = tree.run(&ex).unwrap();
            assert_eq!(got.scheme(), expected.scheme());
            assert_eq!(got.rows(), expected.rows());
        }
        // the second cached run served every branch's F(J) from the cache
        assert_eq!(cache.stats().hits, 3);
    }

    /// `schedule` over hand-built branches (`(mask, filters)`) against
    /// `minimum_union_all` over the same filtered, padded `F(J)`s.
    fn assert_union_is_minimum(branches: &[(u64, &[&str])]) {
        let (g, db) = cycle();
        let funcs = FuncRegistry::with_builtins();
        let pad = g.scheme(&db).unwrap();
        let mut inputs = Vec::new();
        let mut padded = Vec::new();
        for &(mask, filters) in branches {
            let mut input = chain_ir(&g, mask, false);
            let mut f = crate::full_disjunction::full_associations(&db, &g, mask, &funcs).unwrap();
            for e in filters {
                let e = parse_expr(e).unwrap();
                input = input.filtered(&e, FilterScope::Source, true);
                f = select(&f, &e, &funcs).unwrap();
            }
            inputs.push(input);
            padded.push(pad_to(&f, &pad).unwrap());
        }
        let infos: Vec<BranchInfo> = branches
            .iter()
            .map(|&(mask, _)| BranchInfo {
                mask,
                estimate: 1,
                warm: false,
            })
            .collect();
        let refs: Vec<&Table> = padded.iter().collect();
        let expected = minimum_union_all(&refs, engine_subsumption()).unwrap();
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: &g,
            cache: None,
        };
        let got = schedule(&ex, &inputs, &infos, &pad)
            .unwrap()
            .0
            .materialize();
        assert_eq!(got.rows(), expected.rows(), "{branches:?}");
    }

    #[test]
    fn unions_the_pushdown_would_not_build_still_subsume_exactly() {
        // {A} has no one-node-larger branch, yet A3 is subsumed by A3B3C3
        assert_union_is_minimum(&[(0b001, &[]), (0b111, &[])]);
        // filters that are not where `Plan::new` puts them: both children
        // of {C} reject their C3 row, the unfiltered {A, B, C} keeps it
        let all = [0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111];
        let branches: Vec<(u64, &[&str])> = all
            .iter()
            .map(|&m| -> (u64, &[&str]) {
                match m {
                    0b101 => (m, &["A.y < 5"]),
                    0b110 => (m, &["B.x > 3"]),
                    _ => (m, &[]),
                }
            })
            .collect();
        assert_union_is_minimum(&branches);
    }

    #[test]
    fn pruned_parents_are_computed_once_and_the_union_is_minimum() {
        let (g, db) = cycle();
        let funcs = FuncRegistry::with_builtins();
        // a filter on C prunes {A}, {B} and {A, B}, yet {A, C}, {B, C}
        // and {A, B, C} extend exactly those
        let on_c = parse_expr("C.w IS NOT NULL").unwrap();
        let masks = [0b100, 0b101, 0b110, 0b111];
        let inputs: Vec<RelExpr> = masks
            .iter()
            .map(|&m| chain_ir(&g, m, false).filtered(&on_c, FilterScope::Source, true))
            .collect();
        let branches: Vec<BranchInfo> = masks
            .iter()
            .map(|&mask| BranchInfo {
                mask,
                estimate: 1,
                warm: false,
            })
            .collect();
        let pad = g.scheme(&db).unwrap();
        let padded: Vec<Table> = masks
            .iter()
            .map(|&m| {
                let f = crate::full_disjunction::full_associations(&db, &g, m, &funcs).unwrap();
                pad_to(&select(&f, &on_c, &funcs).unwrap(), &pad).unwrap()
            })
            .collect();
        let refs: Vec<&Table> = padded.iter().collect();
        let expected = minimum_union_all(&refs, engine_subsumption()).unwrap();

        let cache = EvalCache::new();
        for (round, cache) in [None, Some(&cache), Some(&cache)].into_iter().enumerate() {
            let ex = Exec {
                db: &db,
                funcs: &funcs,
                graph: &g,
                cache,
            };
            let (got, dispatched) = schedule(&ex, &inputs, &branches, &pad).unwrap();
            let got = got.materialize();
            assert_eq!(got.scheme(), expected.scheme());
            assert_eq!(got.rows(), expected.rows(), "round {round}");
            let computed: Vec<u64> = dispatched.iter().map(|&(m, _)| m).collect();
            let all = vec![0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111];
            // popcount order; the warm round computes nothing
            assert_eq!(computed, if round == 2 { vec![] } else { all });
        }
        // cold: 4 branch misses, then one lookup per pruned parent; warm:
        // the 4 branches hit and no parent is needed
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (7, 4, 7));
    }
}

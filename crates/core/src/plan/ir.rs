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
//! Scans that feed a join are read in place: the join ([`join_rows`])
//! borrows the stored relation's rows under the scan alias's scheme,
//! both in a `Join` node and in the lattice step that joins a parent
//! subgraph's table with one more relation. Only a scan that is itself a
//! result — a one-node branch of the union — is copied into a table.
//!
//! The tree plan's `D(G)` — the outer-join chain over every node, or a
//! lone scan on a one-node graph — copies no value at all. It runs on
//! tuple ids: per row, one `u32` per graph node, in node order, with
//! `u32::MAX` for a node the row does not cover. Each step is the join
//! kernel every join runs ([`join_with`]), reading key cells through the
//! ids. A `Project` over it reads through the ids too, filling one
//! scratch row with only the columns the correspondences and source
//! filters reference. Value rows are built in three places only (span
//! `fd.materialize`): the `"D(G).tree"` memo insert when the cache is
//! live, [`RelExpr::run`]'s table, and
//! [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)'s
//! association set.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet};

use clio_incr::EvalCache;
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::{BoundExpr, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{
    extended_rows, join_rows, join_with, remove_subsumed_among, JoinInput, JoinKind, Joined,
};
use clio_relational::relation::Relation;
use clio_relational::schema::{RelSchema, Scheme};
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::association::AssociationSet;
use crate::correspondence::ValueCorrespondence;
use crate::incremental::{
    elapsed_ns, mask_deps, memoized_disjunction, subgraph_fingerprint, BranchInfo,
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
    /// memoized under `"D(G).lattice"` / `"D(G).tree"` when `ex.cache` is
    /// live; every other node is computed on each run.
    pub fn run(&self, ex: &Exec) -> Result<Table> {
        self.run_costed(ex).map(|(table, _)| table)
    }

    /// [`RelExpr::run`], also returning the compute time (ns) charged to
    /// the cache entries this run inserted — what a parent entry must not
    /// charge again.
    pub(crate) fn run_costed(&self, ex: &Exec) -> Result<(Table, u64)> {
        match self {
            _ if self.is_tree_disjunction(ex) => {
                let (associations, charged) = self.tree_disjunction(ex)?;
                Ok((associations.into_table(), charged))
            }
            RelExpr::Union { inputs, .. }
                if !inputs.iter().any(|b| matches!(b, RelExpr::Filter { .. })) =>
            {
                memoized_disjunction(ex.graph, ex.cache, "D(G).lattice", || self.eval(ex))
            }
            _ => self.eval(ex),
        }
    }

    /// This node's rows as data associations, with the compute time
    /// charged as [`RelExpr::run_costed`] charges it: the tree `D(G)`
    /// yields its tuple ids ([`RelExpr::tree_disjunction`]), any other
    /// node its table.
    pub(crate) fn associations<'t>(&self, ex: &Exec<'t>) -> Result<(Associations<'t>, u64)> {
        if self.is_tree_disjunction(ex) {
            return self.tree_disjunction(ex);
        }
        let (table, charged) = self.run_costed(ex)?;
        Ok((Associations::Values(table), charged))
    }

    /// Is this node the tree plan's `D(G)`: an outer-join chain over
    /// every node of `ex.graph`, or a lone `Scan` on a one-node graph?
    fn is_tree_disjunction(&self, ex: &Exec) -> bool {
        matches!(
            self,
            RelExpr::Scan { .. } | RelExpr::Join { outer: true, .. }
        ) && self.bound_vars().len() == ex.graph.node_count()
    }

    /// The tree `D(G)`, computed on tuple ids (span `fd.outer_join`).
    /// With a live cache it is memoized under `"D(G).tree"` as values:
    /// a miss builds the value rows for the insert, and a hit returns
    /// them. Nothing is charged to child entries.
    fn tree_disjunction<'t>(&self, ex: &Exec<'t>) -> Result<(Associations<'t>, u64)> {
        let ids = || -> Result<TupleIds<'t>> {
            let _span = clio_obs::span("fd.outer_join");
            Ok(self.tuple_ids(ex)?.in_node_order())
        };
        if !ex.cache.is_some_and(EvalCache::enabled) {
            return Ok((Associations::Ids(ids()?), 0));
        }
        let (table, charged) = memoized_disjunction(ex.graph, ex.cache, "D(G).tree", || {
            Ok((ids()?.materialize(), 0))
        })?;
        Ok((Associations::Values(table), charged))
    }

    /// The tuple ids of a chain of scans and joins (full outer when
    /// `outer`, counting `fd.outer_join_steps`): each join runs the
    /// relational join kernel over id rows, reading key cells through
    /// the ids.
    fn tuple_ids<'t>(&self, ex: &Exec<'t>) -> Result<TupleIds<'t>> {
        match self {
            RelExpr::Scan { alias, relation } => {
                let node = node_bit(ex.graph, self)?.trailing_zeros() as usize;
                let relation = ex.db.relation(relation)?;
                TupleIds::scan(ex.graph.node_count(), node, alias, relation)
            }
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
                let out =
                    left.tuple_ids(ex)?
                        .join(&right.tuple_ids(ex)?, predicate, kind, ex.funcs)?;
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
    /// ([`schedule`]); a stack of `Filter`s keeps the rows of the node
    /// beneath passing every predicate — over a `Project`, as the
    /// projection builds its distinct target rows ([`project`]).
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
            RelExpr::Union {
                inputs,
                branches,
                pad,
            } => {
                let (table, dispatched) = schedule(ex, inputs, branches, pad)?;
                Ok((table, dispatched.iter().map(|&(_, ns)| ns).sum()))
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

/// Run a `Project` together with the target `filters` stacked on it and
/// the source filters stacked beneath it, over the associations of the
/// node under those ([`RelExpr::associations`]). Everything is bound
/// once. One loop reads each association — a value row in place, or, on
/// the tree `D(G)`'s tuple ids, one reused scratch row filled with only
/// the columns the correspondences and source filters reference — and
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
        Associations::Ids(_) => {
            let mut reads: Vec<usize> = correspondences
                .iter()
                .map(|v| &v.expr)
                .chain(source_filters.iter().copied())
                .flat_map(Expr::columns)
                .map(|c| scheme.resolve(c))
                .collect::<Result<_>>()?;
            reads.sort_unstable();
            reads.dedup();
            (reads, vec![Value::Null; scheme.arity()])
        }
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
        .map(|row| {
            filters
                .iter()
                .try_fold(true, |ok, f| Ok(ok && f.eval_truth(row, funcs)?.passes()))
        })
        .collect::<Result<_>>()?;
    let mut pass = pass.into_iter();
    table.rows_mut().retain(|_| pass.next() == Some(true));
    Ok(table)
}

/// The id of a graph node a tuple-id row does not cover.
const UNCOVERED: u32 = u32::MAX;

/// Rows of tuple ids: the tree plan's `D(G)` and each step of its chain.
///
/// A row holds one id per graph node, in node order: the position of
/// the node's tuple in its relation, or [`UNCOVERED`]. Two rows joined
/// cover disjoint nodes, so the joined row is their elementwise minimum,
/// and a row needs no padding. `scheme` lists the covered nodes' columns
/// — in join order along the chain, in node order (the graph scheme)
/// once [`TupleIds::in_node_order`] — and `columns` maps each to its
/// node and attribute, so a cell is read through the row's id into the
/// stored relation ([`JoinInput::cell`]).
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
    /// One row per tuple of `relation`, node `node` of a graph of
    /// `width` nodes, read under `alias`. A relation with more tuples
    /// than a `u32` id can number is rejected, never wrapped.
    fn scan(width: usize, node: usize, alias: &str, relation: &'t Relation) -> Result<Self> {
        let rows = relation.rows();
        let count = u32::try_from(rows.len()).map_err(|_| {
            Error::Invalid(format!(
                "relation `{}` holds {} tuples, more than a tuple id can number",
                relation.name(),
                rows.len()
            ))
        })?;
        let mut ids = vec![UNCOVERED; width * rows.len()];
        for (row, id) in ids.chunks_exact_mut(width).zip(0..count) {
            row[node] = id;
        }
        let mut relations: Vec<&[Vec<Value>]> = vec![&[]; width];
        relations[node] = rows;
        let scheme = Scheme::of_relation(relation.schema(), alias);
        let columns = (0..scheme.arity()).map(|a| (node, a)).collect();
        Ok(TupleIds {
            relations,
            scheme,
            columns,
            ids,
        })
    }

    /// Row `i`'s ids.
    fn row(&self, i: usize) -> &[u32] {
        let width = self.relations.len();
        &self.ids[i * width..(i + 1) * width]
    }

    /// `self ⋈ right` under `predicate` and `kind`, by the relational
    /// join kernel: a pair's row is the elementwise minimum of its two
    /// rows, an unmatched row is copied as it is.
    fn join(
        self,
        right: &TupleIds<'t>,
        predicate: &Expr,
        kind: JoinKind,
        funcs: &FuncRegistry,
    ) -> Result<TupleIds<'t>> {
        let mut ids = Vec::with_capacity(self.ids.len().max(right.ids.len()));
        let scheme = join_with(&self, right, predicate, kind, funcs, |pair| match pair {
            Joined::Pair(l, r) => ids.extend(
                self.row(l)
                    .iter()
                    .zip(right.row(r))
                    .map(|(&a, &b)| a.min(b)),
            ),
            Joined::Left(l) => ids.extend_from_slice(self.row(l)),
            Joined::Right(r) => ids.extend_from_slice(right.row(r)),
        })?;
        let TupleIds {
            mut relations,
            mut columns,
            ..
        } = self;
        for &(node, _) in &right.columns {
            relations[node] = right.relations[node];
        }
        columns.extend_from_slice(&right.columns);
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

    /// The coverage of row `i`: its covered nodes.
    fn coverage(&self, i: usize) -> u64 {
        self.row(i)
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != UNCOVERED)
            .fold(0, |mask, (node, _)| mask | 1 << node)
    }

    /// The value rows (span `fd.materialize`).
    fn materialize(&self) -> Table {
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
/// read it: the tree plan's tuple ids, or a value table (the lattice
/// union, a memoized `D(G)`, or any other node's rows).
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
                for &c in reads {
                    scratch[c].clone_from(ids.cell(i, c));
                }
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
/// table the chain's last join extends, with that join's right-hand scan
/// and predicate.
struct Job<'e> {
    mask: u64,
    chain: &'e RelExpr,
    step: Option<(u64, &'e RelExpr, &'e Expr)>,
    estimate: u64,
}

/// The minimum union of a [`RelExpr::Union`]'s branches, in their
/// (canonical) order, computed over the subgraph lattice.
///
/// **Joins.** With a live cache each branch's *unfiltered* `F(J)` is
/// looked up under its [`subgraph_fingerprint`] (counted, in branch
/// order). A miss is one join: `chain_ir(J)` is
/// `Join { chain_ir(J \ {v}), Scan v }` for `J`'s last BFS node `v`, so
/// `F(J)` joins the parent subgraph's table with `R_v`'s rows, read in
/// place. The parent is a branch, a cache hit, or — when the pushdown
/// pruned it — looked up and computed once for sharing. The misses run
/// level by level in popcount order, each level on the worker pool
/// longest-estimated-first, and are inserted unfiltered, each charged
/// only its own join; `fd.subgraphs` counts them.
///
/// **Subsumption by non-extension.** Each branch's pushed filters then
/// apply. A row of branch `J` is dropped when a row of some branch
/// `J ∪ {v}` extends it ([`extended_rows`]): padded, that row strictly
/// subsumes it, so the dropped row is never maximal. The rest keep
/// branch order and are padded to `pad`. A residual pass
/// ([`remove_subsumed_among`]) then removes duplicates and tests as the
/// subsumed side only the rows that can still be subsumed: those with a
/// base-data null in their own coverage, and every row of a branch that
/// is not *closed* — closed meaning every `J ∪ {v}` is a branch and the
/// filters sit where [`canonical_pushdown`] expects them. A closed
/// branch's unextended null-free row is maximal: a subsumer in `F(J')`
/// agrees with it on all of `J`, and its restriction to `J ∪ {v}`, for a
/// `v` of `J' \ J` adjacent to `J`, is a row of that branch that passes
/// its filters (they bind only `J ∪ {v}`, and also sit on `J'`) and
/// extends the row — relations hold no all-null tuple, so the
/// restriction adds a value. Only strictly subsumed rows are dropped, so
/// every maximal row and each of its occurrences survives, and the
/// result is [`minimum_union_all`](clio_relational::ops::minimum_union_all)
/// over the filtered, padded branches, row order included, whatever was
/// warm and however the misses ran. The non-extension pass, the padding
/// and the residual pass run under the spans `fd.lattice.extend`,
/// `fd.lattice.pad` and `fd.lattice.residual`.
///
/// Returns the table with the computed `(mask, cost_ns)` pairs in
/// dispatch order (popcount, then mask).
pub(crate) fn schedule(
    ex: &Exec,
    inputs: &[RelExpr],
    branches: &[BranchInfo],
    pad: &Scheme,
) -> Result<(Table, Vec<(u64, u64)>)> {
    let _span = clio_obs::span("fd.lattice");
    let cache = ex.cache.filter(|c| c.enabled());
    let keyed = |mask: u64| cache.map(|c| (c, subgraph_fingerprint(ex.graph, mask, c)));
    let lookup = |mask: u64| keyed(mask).and_then(|(c, fp)| c.get(fp));
    let branch_masks: HashMap<u64, usize> = branches
        .iter()
        .enumerate()
        .map(|(i, b)| (b.mask, i))
        .collect();
    let mut known: HashMap<u64, Table> = HashMap::new();
    for b in branches {
        if let Some(table) = lookup(b.mask) {
            known.insert(b.mask, table);
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
                if let Some(table) = lookup(mask) {
                    known.insert(mask, table);
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
        let fresh: Vec<(Table, u64)> = clio_relational::exec::map_slice_prioritized(
            level,
            &order,
            "fd.lattice.worker",
            |_, job| -> Result<(Table, u64)> {
                // Unconditional timing (unlike hist::start, which is
                // trace-gated): the cost model needs real measurements
                // even when tracing is off.
                let t0 = std::time::Instant::now();
                let table = match job.step {
                    Some((parent, right, predicate)) => {
                        let (scan, _) = right.input(ex)?;
                        let parent = &known[&parent];
                        join_rows(
                            (parent.scheme(), parent.rows()),
                            scan.rows(),
                            predicate,
                            JoinKind::Inner,
                            ex.funcs,
                        )?
                    }
                    // `eval`: a lone scan is an `F(J)`, never the memoized
                    // `D(G)`, even when it spans a one-node graph
                    None => job.chain.eval(ex)?.0,
                };
                Ok((table, elapsed_ns(t0)))
            },
        )
        .into_iter()
        .collect::<Result<_>>()?;
        for (job, (table, cost_ns)) in level.iter().zip(fresh) {
            if let Some((c, fp)) = keyed(job.mask) {
                c.insert_costed(fp, mask_deps(ex.graph, job.mask), &table, cost_ns);
            }
            dispatched.push((job.mask, cost_ns));
            known.insert(job.mask, table);
        }
    }
    metrics::add(Counter::SubgraphsEnumerated, dispatched.len() as u64);
    if cache.is_some() && clio_obs::trace::trace_enabled() {
        for &(_, cost_ns) in &dispatched {
            clio_obs::hist::record("incr.fd.scheduled", cost_ns);
        }
    }

    let tables: Vec<Table> = inputs
        .iter()
        .zip(branches)
        .map(|(input, b)| {
            let table = known.remove(&b.mask).ok_or_else(|| {
                Error::Invalid("union branches must be distinct subgraphs".into())
            })?;
            keep(table, &input.filters().1, ex.funcs)
        })
        .collect::<Result<_>>()?;
    // A branch is closed when every subgraph one node larger is a branch
    // too and the pushed filters sit exactly where they bind, as
    // `Plan::new` places them: its unextended null-free rows are maximal.
    let canonical = canonical_pushdown(ex.graph, inputs, branches);
    // Per branch: is it closed, and which of its rows a child extends.
    let extended: Vec<(bool, Vec<bool>)> = {
        let _span = clio_obs::span("fd.lattice.extend");
        tables
            .iter()
            .zip(branches)
            .map(|(table, b)| {
                let mut closed = canonical;
                let mut children: Vec<&Table> = Vec::new();
                for v in bits(neighbourhood(ex.graph, b.mask)) {
                    match branch_masks.get(&(b.mask | 1 << v)) {
                        Some(&k) => children.push(&tables[k]),
                        None => closed = false,
                    }
                }
                Ok((closed, extended_rows(table, &children)?))
            })
            .collect::<Result<_>>()?
    };
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut candidates: Vec<bool> = Vec::new();
    {
        let _span = clio_obs::span("fd.lattice.pad");
        for (table, (closed, extended)) in tables.iter().zip(&extended) {
            let positions = pad.positions_of(table.scheme())?;
            for (row, _) in table.rows().iter().zip(extended).filter(|(_, &x)| !x) {
                let mut padded = vec![Value::Null; pad.arity()];
                for (&p, v) in positions.iter().zip(row) {
                    padded[p] = v.clone();
                }
                rows.push(padded);
                candidates.push(!closed || row.iter().any(Value::is_null));
            }
        }
    }
    let dropped = extended
        .iter()
        .map(|(_, extended)| extended.iter().filter(|&&x| x).count() as u64)
        .sum();
    metrics::add(Counter::TuplesSubsumed, dropped);
    let mut table = Table::new(pad.clone(), rows);
    {
        let _span = clio_obs::span("fd.lattice.residual");
        remove_subsumed_among(&mut table, &candidates);
    }
    Ok((table, dispatched))
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
        let (got, _) = schedule(&ex, &inputs, &infos, &pad).unwrap();
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

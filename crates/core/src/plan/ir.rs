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
//! against an [`Exec`]. `F(J)`
//! ([`full_associations`](crate::full_disjunction::full_associations)),
//! `D(G)` ([`full_disjunction_cached`](crate::incremental::full_disjunction_cached))
//! and every `Q(M)` ([`Mapping::evaluate_cached`](crate::mapping::Mapping::evaluate_cached))
//! are computed that way, so the tree `explain` prints is the code that
//! runs — which subgraphs, which filters where, in which join order.
//!
//! There is one interpreter, and it runs on tuple ids: every node below
//! a `Project` yields rows of `u32` ids (`RelExpr::ids`), one per graph
//! node, in node order — the position of the node's tuple in its
//! relation, or `u32::MAX` for a node the row does not cover. A scan
//! numbers its relation's tuples; a join step is the join kernel every
//! join runs ([`join_with`]), reading key cells through the ids and the
//! scanned relation's rows in place; a filter reads the cells it tests
//! through the ids; a union is the subgraph lattice (`schedule`). The
//! cache holds ids the same way: each `F(J)` as `|J|` ids per row, and
//! the `D(G)` memo (`"D(G).tree.ids"` / `"D(G).lattice.ids"`) as `|G|`
//! ids per row.
//!
//! The `D(G)` is found by where it sits, not by its shape: it is the
//! node beneath a `Project`'s source filters, or the node
//! [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)
//! runs (`RelExpr::disjunction_ids`). Only that node is memoized, and
//! only there does the tree plan's outer-join chain get its
//! near-duplicate residual pass; a chain run any other way is exactly
//! its joins. A [`RelExpr::Rooted`] chain may stand there too: the
//! left-outer-join chain from a node the target filters require, whose
//! rows are the `D(G)` rows covering that node, in order. It gets the
//! same residual pass and is never memoized. A `Project` reads its
//! `D(G)` through the ids, skipping the rows that miss a required node,
//! and filling one scratch row with only the columns the
//! correspondences and source filters reference (span
//! `plan.project`). Value rows are built in
//! three places only: [`RelExpr::run`]'s table and
//! [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)'s
//! association set (span `fd.materialize`), and each example's
//! association, moved into its example.
//!
//! A tree runs in a `Pass`: each graph node's relation is borrowed
//! once, and with a live cache the epoch and every node's versions are
//! read under one lock. What does not depend on the data comes from a
//! `GraphForm`, built once per graph: each subgraph's column layout in
//! node order (a `Frame`, shared, laid out on first use and never
//! rebuilt per lookup or join step; every step of a chain over the same
//! nodes, full, rooted or inner, shares it) and the `KeyForm` its
//! `F(J)` key starts from — the version-free structure hash and the
//! columns the subgraph's edge predicates read. A key is that hash with
//! the pass's versions of those columns mixed in, so a run formats no
//! predicate, and an edit to other cells keeps the key.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use clio_incr::{Dep, EvalCache, Fingerprint, IdRows, LookupTier};
use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::{BoundExpr, Expr};
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{join_with, subsumed_among, JoinInput, JoinKind, Joined};
use clio_relational::relation::Relation;
use clio_relational::schema::{RelSchema, Scheme};
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::association::AssociationSet;
use crate::correspondence::ValueCorrespondence;
use crate::example::Example;
use crate::incremental::{disjunction_structure, elapsed_ns, subgraph_structure, Versions};
use crate::mapping::{all_pass, MappingEvaluator};
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
        /// `Inner` inside an `F(J)`, `FullOuter` along the tree plan's
        /// `D(G)` chain, `LeftOuter` along a [`RelExpr::Rooted`] chain.
        kind: JoinKind,
    },
    /// The tree plan's chain rooted at a node every association must
    /// cover to reach the target: `input` is the left-outer-join chain
    /// from `root`, and its rows are the rows of the full outer chain's
    /// `D(G)` that cover `root`, in the same order. `filter` is the
    /// target filter that rejects every association missing `root`
    /// (see [`Plan`](super::Plan)); it still runs above the projection.
    Rooted {
        /// The left-outer-join chain over every node, from `root`.
        input: Box<RelExpr>,
        /// The alias of the required node the chain starts at.
        root: String,
        /// The target filter that requires `root`.
        filter: Expr,
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
        /// Each branch's subgraph, as a node mask, parallel to `inputs`.
        masks: Vec<u64>,
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

/// The column layout of tuple-id rows: the scheme of the covered nodes'
/// columns, and per column its node and attribute position.
#[derive(Debug)]
pub(crate) struct Frame {
    scheme: Scheme,
    columns: Vec<(usize, usize)>,
    /// The nodes laid out.
    mask: u64,
}

impl Frame {
    /// The columns of the nodes in `mask`, in node order (for every
    /// node, the graph scheme); `relations` holds each node's relation.
    fn over(graph: &QueryGraph, relations: &[&Relation], mask: u64) -> Frame {
        let mut scheme = Vec::new();
        let mut columns = Vec::new();
        for v in bits(mask) {
            let cols = Scheme::of_relation(relations[v].schema(), &graph.nodes()[v].alias);
            columns.extend((0..cols.arity()).map(|a| (v, a)));
            scheme.extend_from_slice(cols.columns());
        }
        Frame {
            scheme: Scheme::new(scheme),
            columns,
            mask,
        }
    }

    /// The scheme of the rows this frame lays out.
    pub(crate) fn scheme(&self) -> &Scheme {
        &self.scheme
    }
}

/// Each graph node's relation in `db`, in node order.
fn node_relations<'d>(graph: &QueryGraph, db: &'d Database) -> Result<Vec<&'d Relation>> {
    graph
        .nodes()
        .iter()
        .map(|n| db.relation(&n.relation))
        .collect()
}

/// What the key of an `F(J)` or `D(G)` over the nodes of one mask is
/// built from: the version-free structure hash, and the columns the
/// computation reads — those of the mask's induced edge predicates. Its
/// key mixes each member node's row-set version and the versions of the
/// node's read columns only, so an edit to other cells keeps it; an
/// entry under it declares the same columns as its dependencies.
///
/// Those are all the cells an `F(J)` or a `D(G)` on tuple ids reads
/// while no relation holds a near-duplicate. With one, the residual
/// passes read every cell of the relations' tuples through the ids, so
/// an edit to a relation holding one before or after must bump its
/// row-set version (`Session::replace_relation` does).
#[derive(Debug, Clone)]
pub(crate) struct KeyForm {
    structure: u64,
    mask: u64,
    /// The `(node, attribute position)` pairs read, sorted, distinct.
    reads: Vec<(NodeId, usize)>,
}

impl KeyForm {
    /// The key form of `structure` over the nodes of `mask`, whose
    /// columns `frame` lays out. A predicate column that does not
    /// resolve over them (a join over it fails anyway) counts as reading
    /// every column of every member node.
    fn new(graph: &QueryGraph, frame: &Frame, mask: u64, structure: u64) -> KeyForm {
        let reads: Option<Vec<(NodeId, usize)>> = graph
            .edges()
            .iter()
            .filter(|e| mask & (1 << e.a) != 0 && mask & (1 << e.b) != 0)
            .flat_map(|e| e.predicate.columns())
            .map(|c| frame.scheme.resolve(c).ok().map(|at| frame.columns[at]))
            .collect();
        let mut reads = reads.unwrap_or_else(|| frame.columns.clone());
        reads.sort_unstable();
        reads.dedup();
        KeyForm {
            structure,
            mask,
            reads,
        }
    }

    /// [`KeyForm::new`] over `db`'s relations.
    pub(crate) fn of(
        db: &Database,
        graph: &QueryGraph,
        mask: u64,
        structure: u64,
    ) -> Result<KeyForm> {
        let frame = Frame::over(graph, &node_relations(graph, db)?, mask);
        Ok(KeyForm::new(graph, &frame, mask, structure))
    }

    /// This key's fingerprint under `versions`.
    pub(crate) fn key(&self, versions: &Versions) -> Fingerprint {
        versions.key_reading(self.structure, self.mask, &self.reads)
    }

    /// What an entry under this key depends on: per member node, its
    /// relation and the columns read of it.
    fn deps(&self, graph: &QueryGraph) -> Vec<Dep> {
        bits(self.mask)
            .map(|v| {
                let read = self.reads.iter().filter(|&&(node, _)| node == v);
                let columns = read.map(|&(_, a)| a).collect();
                Dep::columns(graph.nodes()[v].relation.clone(), columns)
            })
            .collect()
    }
}

/// What every run of one graph's plans shares, built once: per subgraph
/// mask it was built for, its [`Frame`] in node order, laid out on first
/// use (a run a cache answers lays out nothing), and for the subgraphs
/// whose `F(J)` is looked up the [`KeyForm`] its key is built from; and
/// the key form of the graph's `D(G)` memo under its tag. A mask or tag
/// it was not built for is computed when asked, so an empty form serves
/// any tree, paying per lookup what a built form pays once.
#[derive(Debug, Default)]
pub(crate) struct GraphForm {
    frames: HashMap<u64, OnceLock<Arc<Frame>>>,
    keys: HashMap<u64, KeyForm>,
    memo: Option<(&'static str, KeyForm)>,
}

impl GraphForm {
    /// The form of `graph` with the frames of `frames`, the `F(J)` key
    /// forms of `keyed`, and the `D(G)` memo under `memo`. The frames a
    /// key form reads, the one over every node included, are laid out
    /// now.
    pub(crate) fn new(
        graph: &QueryGraph,
        db: &Database,
        frames: impl IntoIterator<Item = u64>,
        keyed: &[u64],
        memo: &'static str,
    ) -> Result<GraphForm> {
        let relations = node_relations(graph, db)?;
        let mut form = GraphForm {
            frames: frames
                .into_iter()
                .map(|mask| (mask, OnceLock::new()))
                .collect(),
            ..GraphForm::default()
        };
        let key = |mask: u64, structure: u64| {
            KeyForm::new(
                graph,
                &form.laid_out(graph, &relations, mask),
                mask,
                structure,
            )
        };
        let keys = keyed
            .iter()
            .map(|&mask| (mask, key(mask, subgraph_structure(graph, mask))))
            .collect();
        let memo_key = key(graph.node_mask(), disjunction_structure(graph, memo));
        form.keys = keys;
        form.memo = Some((memo, memo_key));
        Ok(form)
    }

    /// The frame built for `mask`, if it is laid out.
    pub(crate) fn built(&self, mask: u64) -> Option<Arc<Frame>> {
        self.frames.get(&mask).and_then(OnceLock::get).cloned()
    }

    /// The frame of the nodes in `mask`, in node order.
    pub(crate) fn frame(&self, p: &Pass, mask: u64) -> Arc<Frame> {
        self.laid_out(p.graph, &p.relations, mask)
    }

    /// The frame of `mask` over `relations`, each graph node's relation:
    /// the form's own, laid out on first use, when it was built for
    /// `mask`; else a fresh one.
    fn laid_out(&self, graph: &QueryGraph, relations: &[&Relation], mask: u64) -> Arc<Frame> {
        let lay_out = || Arc::new(Frame::over(graph, relations, mask));
        match self.frames.get(&mask) {
            Some(slot) => Arc::clone(slot.get_or_init(lay_out)),
            None => lay_out(),
        }
    }

    /// The key form built for the `F(J)` of the subgraph `mask`, if any.
    pub(crate) fn built_key(&self, mask: u64) -> Option<&KeyForm> {
        self.keys.get(&mask)
    }

    /// The key form of the `F(J)` of the subgraph `mask`.
    fn key(&self, p: &Pass, mask: u64) -> Cow<'_, KeyForm> {
        match self.keys.get(&mask) {
            Some(key) => Cow::Borrowed(key),
            None => Cow::Owned(KeyForm::new(
                p.graph,
                &self.frame(p, mask),
                mask,
                subgraph_structure(p.graph, mask),
            )),
        }
    }

    /// The key form of the `D(G)` memo under `tag`.
    fn memo_key(&self, p: &Pass, tag: &'static str) -> Cow<'_, KeyForm> {
        match &self.memo {
            Some((memo, key)) if *memo == tag => Cow::Borrowed(key),
            _ => Cow::Owned(KeyForm::new(
                p.graph,
                &self.frame(p, p.graph.node_mask()),
                p.graph.node_mask(),
                disjunction_structure(p.graph, tag),
            )),
        }
    }
}

/// One run of a tree: every graph node's relation, borrowed once, the
/// graph's [`GraphForm`], and with a live cache the [`Versions`] every
/// key of the run mixes in, read once.
pub(crate) struct Pass<'p> {
    pub(crate) funcs: &'p FuncRegistry,
    pub(crate) graph: &'p QueryGraph,
    cache: Option<(&'p EvalCache, Versions)>,
    form: &'p GraphForm,
    relations: Vec<&'p Relation>,
    rows: Vec<&'p [Vec<Value>]>,
}

impl<'p> Pass<'p> {
    /// Start a run of `ex` with the form of its graph. A relation with
    /// more tuples than a `u32` id can number is rejected, never
    /// wrapped.
    pub(crate) fn new(ex: &Exec<'p>, form: &'p GraphForm) -> Result<Pass<'p>> {
        let relations = node_relations(ex.graph, ex.db)?;
        for relation in &relations {
            u32::try_from(relation.len()).map_err(|_| {
                Error::Invalid(format!(
                    "relation `{}` holds {} tuples, more than a tuple id can number",
                    relation.name(),
                    relation.len()
                ))
            })?;
        }
        Ok(Pass {
            funcs: ex.funcs,
            graph: ex.graph,
            cache: ex
                .cache
                .filter(|c| c.enabled())
                .map(|c| (c, Versions::read(ex.graph, c))),
            form,
            rows: relations.iter().map(|r| r.rows()).collect(),
            relations,
        })
    }

    /// The live cache, and the key of `structure` over every column of
    /// the nodes in `mask` with this pass's versions mixed in.
    pub(crate) fn keyed(&self, structure: u64, mask: u64) -> Option<(&'p EvalCache, Fingerprint)> {
        self.cache
            .as_ref()
            .map(|(cache, versions)| (*cache, versions.key(structure, mask)))
    }

    /// The live cache, and `key`'s fingerprint with this pass's versions
    /// mixed in.
    fn keyed_form(&self, key: &KeyForm) -> Option<(&'p EvalCache, Fingerprint)> {
        self.cache
            .as_ref()
            .map(|(cache, versions)| (*cache, key.key(versions)))
    }

    /// Does this pass run with a live cache?
    pub(crate) fn live(&self) -> bool {
        self.cache.is_some()
    }

    fn frame(&self, mask: u64) -> Arc<Frame> {
        self.form.frame(self, mask)
    }
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
            RelExpr::Filter { input, .. } | RelExpr::Rooted { input, .. } => input.bound_vars(),
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
            // the target filter is over the target, not the chain
            RelExpr::Rooted { input, .. } => (vec![input], Vec::new()),
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

    /// Infer the scheme of the table [`RelExpr::run`] returns for this
    /// node over `ex`'s database and graph. A join chain's is its scans'
    /// columns in node order, as a run lays them out.
    pub fn scheme(&self, ex: &Exec) -> Result<Scheme> {
        match self {
            RelExpr::Scan { alias, relation } => Ok(Scheme::of_relation(
                ex.db.relation(relation)?.schema(),
                alias,
            )),
            RelExpr::Join { .. } => {
                let aliases = self.bound_vars();
                let nodes: Vec<_> = ex
                    .graph
                    .nodes()
                    .iter()
                    .filter(|n| aliases.contains(&n.alias))
                    .collect();
                if nodes.len() != aliases.len() {
                    return Err(Error::Invalid("a chain joins scans of graph nodes".into()));
                }
                nodes.iter().try_fold(Scheme::empty(), |scheme, n| {
                    let rel = ex.db.relation(&n.relation)?;
                    scheme.concat(&Scheme::of_relation(rel.schema(), &n.alias))
                })
            }
            RelExpr::Filter { input, .. } | RelExpr::Rooted { input, .. } => input.scheme(ex),
            RelExpr::Union { pad, .. } => Ok(pad.clone()),
            RelExpr::Project { target, .. } => Ok(Scheme::of_relation(target, target.name())),
        }
    }

    /// Execute the tree. A `Project`, with the target filters stacked on
    /// it, projects the `D(G)` beneath its source filters; any other
    /// node returns its tuple ids materialized, its columns in node
    /// order: a chain exactly its joins, a `Filter` the rows that pass,
    /// a `Union` the minimum union of its branches.
    pub fn run(&self, ex: &Exec) -> Result<Table> {
        let form = GraphForm::default();
        self.run_costed(&Pass::new(ex, &form)?)
            .map(|(table, _)| table)
    }

    /// [`RelExpr::run`] in a pass, also returning the compute time (ns)
    /// charged to the cache entries this run inserted — what a parent
    /// entry must not charge again.
    pub(crate) fn run_costed(&self, p: &Pass) -> Result<(Table, u64)> {
        match self.filters() {
            (
                RelExpr::Project {
                    input,
                    correspondences,
                    target,
                },
                filters,
            ) => {
                let (base, source_filters) = input.filters();
                let (ids, charged) = base.disjunction_ids(p)?;
                let projection = Projection::bind(
                    correspondences,
                    target,
                    ids.scheme(),
                    &source_filters,
                    &filters,
                )?;
                Ok((projection.run(&ids, 0, p.funcs)?, charged))
            }
            _ => {
                let (ids, charged) = self.ids(p)?;
                Ok((ids.materialize(), charged))
            }
        }
    }

    /// This node's rows as tuple ids, with the compute time charged to
    /// the cache entries the run inserted. A `Scan` numbers its
    /// relation's tuples; a `Join` joins its left input's ids with the
    /// scan on its right, read in place ([`TupleIds::join_scan`], in
    /// node order; an outer kind counts `fd.outer_join_steps`); a
    /// `Filter` keeps the rows passing its
    /// predicate ([`TupleIds::keep`]); a `Union` is the minimum union of
    /// its branches ([`schedule`]); a `Rooted` chain runs its chain. No
    /// node is memoized as a `D(G)` here, and a chain gets no residual
    /// pass: both belong to the node at the `D(G)`'s position
    /// ([`RelExpr::disjunction_ids`]). A `Project` has no ids.
    pub(crate) fn ids<'t>(&self, p: &'t Pass<'t>) -> Result<(TupleIds<'t>, u64)> {
        match self {
            RelExpr::Scan { .. } => Ok((TupleIds::scan(p, node_bit(p.graph, self)?), 0)),
            RelExpr::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let (left, charged) = left.ids(p)?;
                let out = left.join_scan(p, right, predicate, *kind)?;
                if *kind != JoinKind::Inner {
                    metrics::incr(Counter::OuterJoinSteps);
                }
                Ok((out, charged))
            }
            RelExpr::Rooted { input, .. } => input.ids(p),
            RelExpr::Filter {
                input, predicate, ..
            } => {
                let (ids, charged) = input.ids(p)?;
                Ok((ids.keep(&[predicate], p.funcs)?, charged))
            }
            RelExpr::Union { inputs, masks, pad } => {
                let (ids, dispatched) = schedule(p, inputs, masks, pad)?;
                Ok((ids, dispatched.iter().map(|&(_, ns)| ns).sum()))
            }
            RelExpr::Project { .. } => Err(Error::Invalid(
                "a projection yields target rows, not tuple ids".into(),
            )),
        }
    }

    /// This node as the `D(G)` of the pass's graph: tuple ids over the
    /// graph scheme, with the compute time charged as [`RelExpr::ids`]
    /// charges it. It is called on the node at the `D(G)`'s position —
    /// beneath a `Project`'s source filters, or the subtree
    /// [`full_disjunction_cached`](crate::incremental::full_disjunction_cached)
    /// runs — and on no other. A `Union` is the lattice, memoized with a
    /// live cache under `"D(G).lattice.ids"` ([`memoized_ids`]) unless a
    /// filter is pushed onto a branch: that union is no longer `D(G)`.
    /// Otherwise it must be the tree plan's outer-join chain over every
    /// node (a lone scan on a one-node graph), memoized under
    /// `"D(G).tree.ids"` ([`RelExpr::tree_ids`]). A `Rooted` chain is the
    /// rows of that `D(G)` covering its root, which a target filter
    /// requires: it gets the same residual pass, and is never memoized,
    /// because it is not `D(G)`. Any other node there is an error, never
    /// a wrong answer or a wrong memo entry.
    pub(crate) fn disjunction_ids<'t>(&self, p: &'t Pass<'t>) -> Result<(TupleIds<'t>, u64)> {
        let all = Some(p.graph.node_mask());
        match self {
            RelExpr::Union { inputs, .. }
                if inputs.iter().any(|b| matches!(b, RelExpr::Filter { .. })) =>
            {
                self.ids(p)
            }
            RelExpr::Union { .. } => memoized_ids(p, "D(G).lattice.ids", || self.ids(p)),
            RelExpr::Scan { .. } | RelExpr::Join { .. }
                if self.scans(p.graph, JoinKind::FullOuter) == all =>
            {
                memoized_ids(p, "D(G).tree.ids", || Ok((self.tree_ids(p)?, 0)))
            }
            RelExpr::Rooted { input, root, .. }
                if input.scans(p.graph, JoinKind::LeftOuter) == all
                    && input.first_scan().is_some_and(|a| a == root) =>
            {
                Ok((input.tree_ids(p)?, 0))
            }
            _ => Err(Error::Invalid(
                "a D(G) is a union or an outer-join chain over every graph node".into(),
            )),
        }
    }

    /// The graph nodes a chain of `kind` joins scans, or `None` when it
    /// is not a chain of scans over graph nodes joined by `kind`.
    fn scans(&self, graph: &QueryGraph, kind: JoinKind) -> Option<u64> {
        match self {
            RelExpr::Scan { .. } => node_bit(graph, self).ok(),
            RelExpr::Join {
                left,
                right,
                kind: k,
                ..
            } if *k == kind => Some(left.scans(graph, kind)? | right.scans(graph, kind)?),
            _ => None,
        }
    }

    /// The alias of a left-deep chain's first scan.
    fn first_scan(&self) -> Option<&str> {
        match self {
            RelExpr::Scan { alias, .. } => Some(alias),
            RelExpr::Join { left, .. } => left.first_scan(),
            _ => None,
        }
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
    /// The same holds for a left-outer chain from a root: its rows are
    /// the full chain's rows that cover the root, in order, and a row's
    /// subsumer covers every node the row covers, the root included, so
    /// the pass removes exactly the full chain's removed rows among them.
    fn tree_ids<'t>(&self, p: &'t Pass<'t>) -> Result<TupleIds<'t>> {
        let _span = clio_obs::span("fd.outer_join");
        let mut ids = self.ids(p)?.0;
        let flagged = flagged_nodes(p);
        if flagged != 0 {
            let _span = clio_obs::span("fd.outer_join.residual");
            let candidates: Vec<bool> = (0..ids.row_count())
                .map(|i| ids.coverage(i) & flagged != 0)
                .collect();
            ids.remove_subsumed_among(&candidates);
        }
        Ok(ids)
    }

    /// The node beneath a stack of `Filter`s, and their predicates,
    /// innermost first (`self` and none when it is not a filter).
    pub(crate) fn filters(&self) -> (&RelExpr, Vec<&Expr>) {
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
    p: &'t Pass<'t>,
    tag: &'static str,
    compute: impl FnOnce() -> Result<(TupleIds<'t>, u64)>,
) -> Result<(TupleIds<'t>, u64)> {
    let all = p.graph.node_mask();
    let key = p.form.memo_key(p, tag);
    let Some((cache, fp)) = p.keyed_form(&key) else {
        return compute();
    };
    let _span = clio_obs::span("incr.fd");
    let timer = clio_obs::hist::start();
    if let (Some(ids), tier) =
        cache.get_ids(fp, |cached| TupleIds::expand(&p.rows, all, cached, true))
    {
        let hist = match tier {
            LookupTier::Memory => "incr.fd.memory_hit",
            _ => "incr.fd.disk_hit",
        };
        clio_obs::hist::finish(hist, timer);
        return Ok((TupleIds::with_ids(p, p.frame(all), ids), 0));
    }
    let t0 = std::time::Instant::now();
    let (ids, children_ns) = compute()?;
    let total = elapsed_ns(t0);
    let cost_ns = total.saturating_sub(children_ns);
    cache.insert_ids(fp, key.deps(p.graph), &ids.compact(all), cost_ns);
    clio_obs::hist::finish("incr.fd.cold", timer);
    Ok((ids, total))
}

/// The graph nodes whose relation holds a near-duplicate
/// ([`Relation::has_near_duplicates`], computed on its first read).
fn flagged_nodes(p: &Pass) -> u64 {
    p.relations
        .iter()
        .enumerate()
        .filter(|(_, r)| r.has_near_duplicates())
        .fold(0, |flagged, (v, _)| flagged | 1 << v)
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

/// A `Project`, with the source filters stacked beneath it and the
/// target filters stacked on it, bound once over its `D(G)`'s scheme:
/// the evaluator, the columns a row must fill, and the target scheme.
#[derive(Debug)]
pub(crate) struct Projection {
    eval: MappingEvaluator,
    reads: Vec<usize>,
    target: Scheme,
}

impl Projection {
    /// Bind the correspondences and `source_filters` over `scheme`, and
    /// `target_filters` over the target relation's.
    pub(crate) fn bind(
        correspondences: &[ValueCorrespondence],
        target: &RelSchema,
        scheme: &Scheme,
        source_filters: &[&Expr],
        target_filters: &[&Expr],
    ) -> Result<Projection> {
        Ok(Projection {
            eval: MappingEvaluator::bind(
                correspondences,
                target,
                scheme,
                source_filters.iter().copied(),
                target_filters.iter().copied(),
            )?,
            reads: columns_read(
                scheme,
                correspondences
                    .iter()
                    .map(|v| &v.expr)
                    .chain(source_filters.iter().copied()),
            )?,
            target: Scheme::of_relation(target, target.name()),
        })
    }

    /// Project `ids`, a `D(G)` over the bound scheme (span
    /// `plan.project`). One loop reads each association through its ids
    /// into one reused scratch row, filled with only the columns the
    /// correspondences and source filters reference, and offers its
    /// target row to the distinct output only when the source filters
    /// accept the association and the target filters the row
    /// ([`MappingEvaluator::target_row_if_passing`]): rows the filters
    /// reject are never hashed, and a correspondence never runs on an
    /// association the source filters reject. A row whose ids miss a
    /// node of `required` is skipped before it is read: the caller
    /// proves that a target filter rejects it and that nothing on its
    /// way can raise an error (`Plan`'s module docs).
    pub(crate) fn run(&self, ids: &TupleIds, required: u64, funcs: &FuncRegistry) -> Result<Table> {
        let _span = clio_obs::span("plan.project");
        let required: Vec<NodeId> = bits(required).collect();
        let mut scratch = vec![Value::Null; ids.scheme().arity()];
        let mut out = Table::empty(self.target.clone());
        for i in 0..ids.row_count() {
            let row = ids.row(i);
            if required.iter().any(|&v| row[v] == UNCOVERED) {
                continue;
            }
            ids.fill(i, &self.reads, &mut scratch);
            if let Some(projected) = self.eval.target_row_if_passing(&scratch, funcs)? {
                out.push_distinct(projected);
            }
        }
        Ok(out)
    }

    /// The target scheme.
    pub(crate) fn target(&self) -> &Scheme {
        &self.target
    }

    /// The examples of `ids`, a `D(G)` over the bound scheme, in row
    /// order (paper Def 4.1): each association's values are built once
    /// and moved into its example, beside its coverage, its target row
    /// `Q_{φ(M)}(d)` and its polarity.
    pub(crate) fn examples(&self, ids: &TupleIds, funcs: &FuncRegistry) -> Result<Vec<Example>> {
        let arity = ids.scheme().arity();
        let mut out = Vec::with_capacity(ids.row_count());
        for i in 0..ids.row_count() {
            let association: Vec<Value> = (0..arity).map(|c| ids.cell(i, c).clone()).collect();
            let target = self.eval.target_row(&association, funcs)?;
            let positive = self.eval.passes_filters(&association, &target, funcs)?;
            out.push(Example {
                coverage: ids.coverage(i),
                association,
                target,
                positive,
            });
        }
        Ok(out)
    }
}

/// The id of a graph node a tuple-id row does not cover.
const UNCOVERED: u32 = u32::MAX;

/// Rows of tuple ids: a `D(G)`, an `F(J)`, and each step of their joins.
///
/// A row holds one id per graph node, in node order: the position of
/// the node's tuple in its relation, or [`UNCOVERED`]. A join step sets
/// the joined node's id in a copy of the row, and a row needs no
/// padding. The [`Frame`] lists the covered nodes' columns in node
/// order (for every node, the graph scheme), each with its node and
/// attribute, so a cell is read through the row's id into the stored
/// relation the pass borrowed ([`JoinInput::cell`]).
pub(crate) struct TupleIds<'t> {
    /// Every graph node's stored rows.
    rows: &'t [&'t [Vec<Value>]],
    frame: Arc<Frame>,
    /// The rows, one after the other, `rows.len()` ids each.
    ids: Vec<u32>,
}

impl<'t> TupleIds<'t> {
    /// `ids` laid out by `frame`, in pass `p`.
    fn with_ids(p: &'t Pass<'t>, frame: Arc<Frame>, ids: Vec<u32>) -> Self {
        TupleIds {
            rows: &p.rows,
            frame,
            ids,
        }
    }

    /// One row per tuple of node `v`'s relation, in order.
    fn scan(p: &'t Pass<'t>, bit: u64) -> Self {
        let (width, v) = (p.rows.len(), bit.trailing_zeros() as usize);
        let mut ids = vec![UNCOVERED; width * p.rows[v].len()];
        for (row, id) in ids.chunks_exact_mut(width).zip(0..) {
            row[v] = id;
        }
        TupleIds::with_ids(p, p.frame(bit), ids)
    }

    /// The scheme of the rows' columns.
    pub(crate) fn scheme(&self) -> &Scheme {
        &self.frame.scheme
    }

    /// Ids per row: the graph's node count.
    fn width(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`'s ids.
    fn row(&self, i: usize) -> &[u32] {
        let width = self.width();
        &self.ids[i * width..(i + 1) * width]
    }

    /// `self ⋈ scan` under `predicate` and `kind`, by the relational join
    /// kernel, reading the scanned relation's rows in place: a pair's
    /// row is `self`'s row with the scanned node's id set; an unmatched
    /// row of either side covers only its own nodes. The rows are laid
    /// out in node order by the form's frame of the joined nodes: an id
    /// row does not depend on the column order, so every step of a chain
    /// over the same nodes, full, rooted or inner, shares that frame.
    fn join_scan(
        &self,
        p: &Pass,
        scan: &RelExpr,
        predicate: &Expr,
        kind: JoinKind,
    ) -> Result<TupleIds<'t>> {
        let bit = node_bit(p.graph, scan)?;
        let right = p.frame(bit);
        let (v, width) = (bit.trailing_zeros() as usize, self.width());
        let relation = p.relations[v];
        let mut ids = Vec::with_capacity(self.ids.len().max(relation.len() * width));
        // the joined scheme binds a residual or nested-loop predicate;
        // the relation keeps its key index for the next join on it
        join_with(
            self,
            &(&right.scheme, relation),
            predicate,
            kind,
            p.funcs,
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
        Ok(TupleIds {
            rows: self.rows,
            frame: p.frame(self.frame.mask | bit),
            ids,
        })
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
            .map(|f| f.bind(self.scheme()))
            .collect::<Result<_>>()?;
        let reads = columns_read(self.scheme(), filters.iter().copied())?;
        let mut scratch = vec![Value::Null; self.scheme().arity()];
        let pass: Vec<bool> = (0..self.row_count())
            .map(|i| {
                self.fill(i, &reads, &mut scratch);
                all_pass(&bound, &scratch, funcs)
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
    /// out over every node of `rows` (each node's stored rows): an
    /// `F(J)` over `mask`, or, when `padded`, a `D(G)` over every node,
    /// whose rows may leave nodes [`UNCOVERED`]. The entry is untrusted:
    /// it is rejected (`None`) unless it holds `|mask|` ids per row,
    /// every id names a tuple of its node's relation (or, when `padded`,
    /// is [`UNCOVERED`]), and every row covers a node.
    fn expand(
        rows: &[&[Vec<Value>]],
        mask: u64,
        cached: &IdRows,
        padded: bool,
    ) -> Option<Vec<u32>> {
        let nodes: Vec<usize> = bits(mask).collect();
        if nodes.is_empty()
            || cached.width != nodes.len()
            || !cached.ids.len().is_multiple_of(nodes.len())
        {
            return None;
        }
        let width = rows.len();
        let mut ids = vec![UNCOVERED; cached.len() * width];
        for (row, entry) in ids
            .chunks_exact_mut(width)
            .zip(cached.ids.chunks_exact(nodes.len()))
        {
            for (&v, &id) in nodes.iter().zip(entry) {
                if padded && id == UNCOVERED {
                    continue;
                }
                if id as usize >= rows[v].len() {
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
                (0..self.frame.columns.len())
                    .map(|c| self.cell(i, c).clone())
                    .collect()
            })
            .collect();
        Table::new(self.scheme().clone(), rows)
    }

    /// The association set: each coverage is the row's covered nodes,
    /// read without a scan of the values.
    pub(crate) fn into_association_set(self) -> AssociationSet {
        let coverages = (0..self.row_count()).map(|i| self.coverage(i)).collect();
        AssociationSet::with_coverages(self.materialize(), coverages)
    }
}

impl JoinInput for TupleIds<'_> {
    fn scheme(&self) -> &Scheme {
        &self.frame.scheme
    }

    fn row_count(&self) -> usize {
        self.ids.len() / self.rows.len()
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        static NULL: Value = Value::Null;
        let (node, attr) = self.frame.columns[col];
        match self.ids[row * self.rows.len() + node] {
            UNCOVERED => &NULL,
            id => &self.rows[node][id as usize][attr],
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
/// looked up under its key (counted, in branch order; span
/// `fd.lattice.lookup`): the [`KeyForm`] the [`GraphForm`] holds for the
/// subgraph, with the pass's versions of its columns mixed in; an insert
/// reuses its lookup's key, and a hit is laid out by the form's frame. A
/// miss is one join: `chain_ir(J)` is `Join { chain_ir(J \ {v}), Scan v }`
/// for `J`'s last BFS node `v`, so `F(J)` joins the parent subgraph's id
/// rows with `R_v`'s rows, read in place, by the join kernel
/// ([`join_with`], as the tree plan's steps). The parent is a branch, a
/// cache hit, or — when the pushdown pruned it — looked up and computed
/// once for sharing. The misses run
/// level by level in popcount order, each level on the worker pool in
/// mask order, and are inserted unfiltered as `|J|` ids per row, each
/// charged only its own join (span `fd.lattice.insert`);
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
    p: &'t Pass<'t>,
    inputs: &[RelExpr],
    masks: &[u64],
    pad: &Scheme,
) -> Result<(TupleIds<'t>, Vec<(u64, u64)>)> {
    let _span = clio_obs::span("fd.lattice");
    let live = p.cache.is_some();
    // each looked-up mask's key, for its insert after a miss
    let mut fps: HashMap<u64, (&EvalCache, Fingerprint)> = HashMap::new();
    let mut lookup = |mask: u64| -> Option<TupleIds<'t>> {
        if !live {
            return None;
        }
        let _span = clio_obs::span("fd.lattice.lookup");
        let (cache, fp) = match fps.get(&mask) {
            Some(&keyed) => keyed,
            None => {
                let keyed = p.keyed_form(&p.form.key(p, mask))?;
                *fps.entry(mask).or_insert(keyed)
            }
        };
        let ids = cache
            .get_ids(fp, |cached| TupleIds::expand(&p.rows, mask, cached, false))
            .0?;
        Some(TupleIds::with_ids(p, p.frame(mask), ids))
    };
    let branch_masks: HashMap<u64, usize> =
        masks.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    let mut known: HashMap<u64, TupleIds<'t>> = HashMap::new();
    for &mask in masks {
        if let Some(ids) = lookup(mask) {
            known.insert(mask, ids);
        }
    }
    // the misses, each followed up its chain to a known or queued parent
    let mut jobs: Vec<Job> = Vec::new();
    let mut queued: HashSet<u64> = HashSet::new();
    for (input, mut mask) in inputs.iter().zip(masks.iter().copied()) {
        let mut chain = input.filters().0;
        while !known.contains_key(&mask) && queued.insert(mask) {
            let step = match chain {
                RelExpr::Join {
                    left,
                    right,
                    predicate,
                    kind: JoinKind::Inner,
                } => Some((
                    mask & !node_bit(p.graph, right)?,
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
            });
            let Some((parent, left, _, _)) = step else {
                break;
            };
            (mask, chain) = (parent, left);
            if branch_masks.contains_key(&mask) {
                break; // its own lookup ran; its own entry queues it
            }
            if !known.contains_key(&mask) && !queued.contains(&mask) {
                if let Some(ids) = lookup(mask) {
                    known.insert(mask, ids);
                }
            }
        }
    }
    jobs.sort_by_key(|j| (j.mask.count_ones(), j.mask));
    let mut dispatched: Vec<(u64, u64)> = Vec::with_capacity(jobs.len());
    for level in jobs.chunk_by(|a, b| a.mask.count_ones() == b.mask.count_ones()) {
        let fresh: Vec<(TupleIds<'t>, u64)> = clio_relational::exec::map_slice(
            level,
            "fd.lattice.worker",
            |_, job| -> Result<(TupleIds<'t>, u64)> {
                // Unconditional timing (unlike hist::start, which is
                // trace-gated): eviction priority and exclusive-cost
                // charging need real measurements even when tracing is
                // off.
                let t0 = std::time::Instant::now();
                let ids = match job.step {
                    Some((parent, scan, predicate)) => {
                        known[&parent].join_scan(p, scan, predicate, JoinKind::Inner)?
                    }
                    None => TupleIds::scan(p, node_bit(p.graph, job.chain)?),
                };
                Ok((ids, elapsed_ns(t0)))
            },
        )
        .into_iter()
        .collect::<Result<_>>()?;
        let _span = live.then(|| clio_obs::span("fd.lattice.insert"));
        for (job, (ids, cost_ns)) in level.iter().zip(fresh) {
            if live {
                let key = p.form.key(p, job.mask);
                let keyed = fps.get(&job.mask).copied().or_else(|| p.keyed_form(&key));
                if let Some((c, fp)) = keyed {
                    c.insert_ids(fp, key.deps(p.graph), &ids.compact(job.mask), cost_ns);
                }
            }
            dispatched.push((job.mask, cost_ns));
            known.insert(job.mask, ids);
        }
    }
    metrics::add(Counter::SubgraphsEnumerated, dispatched.len() as u64);
    if live && clio_obs::trace::trace_enabled() {
        for &(_, cost_ns) in &dispatched {
            clio_obs::hist::record("incr.fd.scheduled", cost_ns);
        }
    }

    let tables: Vec<TupleIds<'t>> = {
        let _span = clio_obs::span("fd.lattice.keep");
        inputs
            .iter()
            .zip(masks)
            .map(|(input, mask)| {
                let ids = known.remove(mask).ok_or_else(|| {
                    Error::Invalid("union branches must be distinct subgraphs".into())
                })?;
                ids.keep(&input.filters().1, p.funcs)
            })
            .collect::<Result<_>>()?
    };
    // Per branch: is it closed, and which of its rows a child extends.
    let extended: Vec<(bool, Vec<bool>)> = {
        let _span = clio_obs::span("fd.lattice.extend");
        // A branch is closed when every subgraph one node larger is a
        // branch too and the pushed filters sit exactly where they bind,
        // as `Plan::new` places them.
        let canonical = canonical_pushdown(p.graph, inputs, masks);
        tables
            .iter()
            .zip(masks)
            .map(|(table, &mask)| {
                let mut closed = canonical;
                let mut children: Vec<(&TupleIds, usize)> = Vec::new();
                for v in bits(neighbourhood(p.graph, mask)) {
                    match branch_masks.get(&(mask | 1 << v)) {
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
        let flagged = flagged_nodes(p);
        let mut out = TupleIds::with_ids(p, p.frame(p.graph.node_mask()), Vec::new());
        if out.scheme() != pad {
            return Err(Error::Invalid(
                "a union is padded to its graph's scheme".into(),
            ));
        }
        let mut candidates: Vec<bool> = Vec::new();
        let mut dropped = 0;
        for ((table, mask), (closed, extended)) in tables.into_iter().zip(masks).zip(extended) {
            let candidate = !closed || flagged & mask != 0;
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
fn canonical_pushdown(graph: &QueryGraph, inputs: &[RelExpr], masks: &[u64]) -> bool {
    let filters: Vec<Vec<&Expr>> = inputs.iter().map(|input| input.filters().1).collect();
    filters.iter().flatten().all(|f| {
        alias_mask(graph, f).is_some_and(|amask| {
            filters
                .iter()
                .zip(masks)
                .all(|(on, &mask)| on.contains(f) == (amask & !mask == 0))
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
/// BFS order from the lowest member (`chain_order`), each joined on the
/// conjunction of its edges into the nodes already joined — so cyclic
/// subgraphs close their cycles inside the join condition. The joins are
/// of `kind`: inner within an `F(J)`; full outer over a whole tree graph,
/// where the chain is the outer-join full disjunction (exactly one edge
/// per step); left outer for the chain a [`RelExpr::Rooted`] runs from
/// its first node. The mask must be non-empty and connected.
#[must_use]
pub fn chain_ir(graph: &QueryGraph, mask: u64, kind: JoinKind) -> RelExpr {
    let order = chain_order(graph, mask);
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
            kind,
        };
        included |= 1 << n;
    }
    acc
}

/// The node masks the steps of [`chain_ir`] over the connected node set
/// `mask` have joined, in join order: its first node, then one more node
/// per step, the last being `mask`. The full and the rooted tree chains
/// share them, and so their frames.
pub(crate) fn chain_prefixes(graph: &QueryGraph, mask: u64) -> impl Iterator<Item = u64> {
    chain_order(graph, mask).into_iter().scan(0, |joined, v| {
        *joined |= 1 << v;
        Some(*joined)
    })
}

/// The join order of [`chain_ir`] over the connected node set `mask`:
/// BFS from its lowest member.
fn chain_order(graph: &QueryGraph, mask: u64) -> Vec<NodeId> {
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
    order
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
            kind: JoinKind::Inner,
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
            kind: JoinKind::Inner,
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
            kind,
            ..
        } = chain_ir(&g, 0b111, JoinKind::Inner)
        else {
            panic!("expected a join");
        };
        assert_eq!(kind, JoinKind::Inner);
        assert_eq!(predicate.to_string(), "(B.x = C.x) AND (A.x = C.x)");
        assert!(matches!(*left, RelExpr::Join { .. }));
        // a sub-mask chain starts at its lowest member
        assert_eq!(
            chain_ir(&g, 0b110, JoinKind::FullOuter)
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
                chain_ir(&g, masks[1], JoinKind::Inner),
                chain_ir(&g, masks[2], JoinKind::Inner),
            ],
            masks: masks.to_vec(),
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
        let unioned = minimum_union_all(&refs).unwrap();
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

    /// A chain's rows by the relational operators, outside the plan
    /// interpreter: a left-deep chain of value `ops::join`s in the
    /// chain's order.
    fn value_chain(db: &Database, chain: &RelExpr, funcs: &FuncRegistry) -> Table {
        match chain {
            RelExpr::Scan { alias, relation } => db.relation(relation).unwrap().to_table(alias),
            RelExpr::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let (left, right) = (value_chain(db, left, funcs), value_chain(db, right, funcs));
                join(&left, &right, predicate, *kind, funcs).unwrap()
            }
            other => panic!("not a join chain: {other:?}"),
        }
    }

    /// Away from the `D(G)`'s position a chain, filtered or not, runs
    /// exactly its joins: no residual pass, no memo. At that position
    /// only a union or an outer-join chain over every node is accepted.
    #[test]
    fn chains_run_their_joins_and_only_a_disjunction_is_projected() {
        let (g, db) = cycle();
        let funcs = FuncRegistry::with_builtins();
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: &g,
            cache: None,
        };
        let on = parse_expr("A.y > 1").unwrap();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let chain = chain_ir(&g, 0b111, kind);
            let expected = value_chain(&db, &chain, &funcs);
            let got = chain.run(&ex).unwrap();
            assert_eq!(got.scheme(), expected.scheme());
            assert_eq!(got.rows(), expected.rows(), "{kind:?}");
            let filtered = chain.filtered(&on, FilterScope::Source, false);
            let expected = select(&expected, &on, &funcs).unwrap();
            assert_eq!(filtered.run(&ex).unwrap().rows(), expected.rows());
        }
        let target = RelSchema::new("T", vec![Attribute::new("y", DataType::Int)]).unwrap();
        let project = |input: RelExpr| RelExpr::Project {
            input: Box::new(input),
            correspondences: vec![ValueCorrespondence::identity("A.y", "y")],
            target: target.clone(),
        };
        // an inner chain over every node is F(G), not D(G)
        assert!(project(chain_ir(&g, 0b111, JoinKind::Inner))
            .run(&ex)
            .is_err());
        // an outer chain over part of the graph is not its D(G)
        assert!(project(chain_ir(&g, 0b011, JoinKind::FullOuter))
            .run(&ex)
            .is_err());
        // nor is a left-outer chain that no required root wraps, nor one
        // whose root is not its first node
        let left = chain_ir(&g, 0b111, JoinKind::LeftOuter);
        assert!(project(left.clone()).run(&ex).is_err());
        let rooted = |root: &str| RelExpr::Rooted {
            input: Box::new(left.clone()),
            root: root.into(),
            filter: parse_expr("T.y IS NOT NULL").unwrap(),
        };
        assert!(project(rooted("B")).run(&ex).is_err());
    }

    /// On the path A–C–B the chain from A joins C before B, and still its
    /// scheme is the one a run lays out: the columns in node order.
    #[test]
    fn a_chain_joined_out_of_node_order_has_the_scheme_it_runs() {
        let (cycle, db) = cycle();
        let mut g = QueryGraph::new();
        for n in cycle.nodes() {
            g.add_node(n.clone()).unwrap();
        }
        g.add_edge(0, 2, parse_expr("A.x = C.x").unwrap()).unwrap();
        g.add_edge(2, 1, parse_expr("B.x = C.x").unwrap()).unwrap();
        let funcs = FuncRegistry::with_builtins();
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: &g,
            cache: None,
        };
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let chain = chain_ir(&g, 0b111, kind);
            let RelExpr::Join { left, .. } = &chain else {
                panic!("a chain over three nodes is a join: {chain:?}")
            };
            assert_eq!(left.bound_vars(), ["A", "C"].map(String::from).into());
            let scheme = chain.scheme(&ex).unwrap();
            assert_eq!(scheme, chain.run(&ex).unwrap().scheme().clone(), "{kind:?}");
            assert_eq!(scheme.qualifiers(), ["A", "B", "C"]);
        }
    }

    /// On random trees, near-duplicates included (the residual pass), a
    /// chain rooted at node 0 yields exactly the full outer chain's
    /// `D(G)` rows that cover node 0, in the same order, whether the
    /// steps are laid out by a built form or afresh.
    #[test]
    fn rooted_chains_keep_the_full_chains_rows_covering_the_root_in_order() {
        use crate::query_graph::Node;
        use clio_relational::relation::RelationBuilder;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let funcs = FuncRegistry::with_builtins();
        let mut flagged_runs = 0;
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..6usize);
            let mut g = QueryGraph::new();
            let mut db = Database::new();
            for v in 0..n {
                let name = format!("R{v}");
                let mut rows: Vec<Vec<Value>> = Vec::new();
                for _ in 0..rng.random_range(0..9usize) {
                    let mut cell = |nulls: f64| {
                        if rng.random_bool(nulls) {
                            Value::Null
                        } else {
                            Value::Int(rng.random_range(0..4i64))
                        }
                    };
                    let row = vec![cell(0.0), cell(0.2), cell(0.3)];
                    if !rows.contains(&row) {
                        rows.push(row);
                    }
                }
                // a near-duplicate: a copy with its non-null `p` nulled
                if let Some(row) = rows.first().filter(|r| !r[2].is_null()).cloned() {
                    let copy = vec![row[0].clone(), row[1].clone(), Value::Null];
                    if rng.random_bool(0.5) && !rows.contains(&copy) {
                        rows.push(copy);
                    }
                }
                let mut r = RelationBuilder::new(&name)
                    .attr("id", DataType::Int)
                    .attr("k", DataType::Int)
                    .attr("p", DataType::Int);
                for row in rows {
                    r = r.row(row);
                }
                db.add_relation(r.build().unwrap()).unwrap();
                g.add_node(Node::new(&name)).unwrap();
            }
            for v in 1..n {
                let parent = rng.random_range(0..v);
                let on = if rng.random_bool(0.5) {
                    format!("R{parent}.k = R{v}.k")
                } else {
                    format!("R{v}.id = R{parent}.p AND R{v}.k >= R{parent}.k")
                };
                g.add_edge(parent, v, parse_expr(&on).unwrap()).unwrap();
            }
            let all = g.node_mask();
            let ex = Exec {
                db: &db,
                funcs: &funcs,
                graph: &g,
                cache: None,
            };
            let form = if seed % 2 == 0 {
                let scans = (0..n).map(|v| 1 << v).chain(chain_prefixes(&g, all));
                GraphForm::new(&g, &db, scans, &[], "D(G).tree.ids").unwrap()
            } else {
                GraphForm::default()
            };
            let pass = Pass::new(&ex, &form).unwrap();
            flagged_runs += usize::from(flagged_nodes(&pass) != 0);
            let full = chain_ir(&g, all, JoinKind::FullOuter)
                .disjunction_ids(&pass)
                .unwrap()
                .0;
            let rooted = RelExpr::Rooted {
                input: Box::new(chain_ir(&g, all, JoinKind::LeftOuter)),
                root: "R0".into(),
                filter: parse_expr("T.B0 IS NOT NULL").unwrap(),
            }
            .disjunction_ids(&pass)
            .unwrap()
            .0;
            let expected: Vec<u32> = (0..full.row_count())
                .filter(|&i| full.coverage(i) & 1 != 0)
                .flat_map(|i| full.row(i).to_vec())
                .collect();
            assert_eq!(rooted.scheme(), full.scheme(), "seed {seed}");
            assert_eq!(rooted.ids, expected, "seed {seed}");
        }
        assert!(flagged_runs > 30, "near-duplicates in {flagged_runs} runs");
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
            let mut input = chain_ir(&g, mask, JoinKind::Inner);
            let mut f = value_chain(&db, &input, &funcs);
            for e in filters {
                let e = parse_expr(e).unwrap();
                input = input.filtered(&e, FilterScope::Source, true);
                f = select(&f, &e, &funcs).unwrap();
            }
            inputs.push(input);
            padded.push(pad_to(&f, &pad).unwrap());
        }
        let masks: Vec<u64> = branches.iter().map(|&(mask, _)| mask).collect();
        let refs: Vec<&Table> = padded.iter().collect();
        let expected = minimum_union_all(&refs).unwrap();
        let ex = Exec {
            db: &db,
            funcs: &funcs,
            graph: &g,
            cache: None,
        };
        let form = GraphForm::default();
        let got = schedule(&Pass::new(&ex, &form).unwrap(), &inputs, &masks, &pad)
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
            .map(|&m| chain_ir(&g, m, JoinKind::Inner).filtered(&on_c, FilterScope::Source, true))
            .collect();
        let pad = g.scheme(&db).unwrap();
        let padded: Vec<Table> = masks
            .iter()
            .map(|&m| {
                let f = value_chain(&db, &chain_ir(&g, m, JoinKind::Inner), &funcs);
                pad_to(&select(&f, &on_c, &funcs).unwrap(), &pad).unwrap()
            })
            .collect();
        let refs: Vec<&Table> = padded.iter().collect();
        let expected = minimum_union_all(&refs).unwrap();

        let cache = EvalCache::new();
        for (round, cache) in [None, Some(&cache), Some(&cache)].into_iter().enumerate() {
            let ex = Exec {
                db: &db,
                funcs: &funcs,
                graph: &g,
                cache,
            };
            let form = GraphForm::default();
            let pass = Pass::new(&ex, &form).unwrap();
            let (got, dispatched) = schedule(&pass, &inputs, &masks, &pad).unwrap();
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

//! Full disjunction `D(G)` — the complete set of data associations of a
//! query graph (paper Def 3.11; Galindo-Legaria \[4\]).
//!
//! `D(G) = F(J₁) ⊕ … ⊕ F(Jₖ)` over **all** induced connected subgraphs
//! `Jᵢ`. What runs ([`full_disjunction`], and every plan) is the `D(G)`
//! subtree of the plan IR ([`crate::plan::RelExpr::run`]), one of two
//! algorithms that [`FdAlgo::Auto`] picks between:
//!
//! * [`FdAlgo::OuterJoin`], on **tree** graphs: a left-deep sequence of
//!   full outer joins following a connected elimination order
//!   (Galindo-Legaria's outerjoins-as-disjunctions result), with no
//!   subgraph enumeration (span `fd.outer_join`), and no subsumption
//!   pass unless a relation holds a near-duplicate, when one runs over
//!   the rows holding its tuples.
//!   It joins **tuple ids**, not values: a row is one id per graph node,
//!   in node order — the node's tuple's position in its relation, or
//!   `u32::MAX` when the row does not cover the node — so a data
//!   association is, as in Defs 3.5–3.8, a combination of source tuples,
//!   and its coverage is the set of nodes with an id. Join keys are read
//!   through the ids, nothing is padded, and value rows are built in
//!   two places only (span `fd.materialize`):
//!   [`RelExpr::run`](crate::plan::RelExpr::run)'s table and
//!   [`full_disjunction_cached`]'s [`AssociationSet`]. A mapping's
//!   projection reads the values it needs through the ids and builds
//!   none;
//! * [`FdAlgo::Lattice`], on **cyclic** graphs: the subgraph lattice,
//!   also on tuple ids. Each `F(J)` is one join of a smaller subgraph's
//!   ids with one relation, and a row is dropped when a neighbouring
//!   subgraph's row holds its tuples, so the residual subsumption pass
//!   only sees rows that can still be subsumed — none when no relation
//!   holds a near-duplicate (span `fd.lattice`; see
//!   `plan::ir::schedule`).
//!
//! Two references stay as oracles, reached only by their own names:
//! [`full_disjunction_naive`] computes the definition directly — a join
//! chain per subgraph and one n-ary minimum union (span `fd.naive`) —
//! and [`full_associations_definitional`] is Def 3.5's σ over ×. The
//! paper claims Clio "make\[s\] use of evaluation and optimization
//! techniques for the minimal union operator to efficiently compute
//! D(G)"; benchmark **B1** (`cargo bench -p clio-bench --bench
//! full_disjunction`, and the `experiments b1` tables) measures the
//! executed plans against the naive oracle, and property tests in
//! `tests/properties.rs` check they agree.

use clio_obs::metrics::{self, Counter};
use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::expr::Expr;
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{
    minimum_union_all, pad_to, select, JoinInput, JoinKind, SubsumptionAlgo,
};
use clio_relational::table::Table;

use crate::association::AssociationSet;
use crate::incremental::full_disjunction_cached;
use crate::plan::ir::{GraphForm, Pass};
use crate::plan::{chain_ir, Exec, RelExpr};
use crate::query_graph::QueryGraph;
use crate::subgraph::connected_subsets;

/// Algorithm selector for computing `D(G)`. The definitional oracle is
/// not among them: call [`full_disjunction_naive`] by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FdAlgo {
    /// The subgraph lattice (`plan::ir::schedule`); valid on every graph.
    Lattice,
    /// Full-outer-join plan; only valid for tree graphs.
    OuterJoin,
    /// Outer-join plan when the graph is a tree, the lattice otherwise.
    #[default]
    Auto,
}

/// Compute the **full data associations** `F(J)` of the induced connected
/// subgraph given by `mask` (paper Def 3.5): the inner join of the
/// subgraph's relations under the conjunction of its edge predicates.
///
/// Runs the subgraph's join chain ([`chain_ir`]): nodes are joined in a
/// connected order, each new node on the conjunction of all its edges
/// into the already-joined set, so cyclic subgraphs are handled (the
/// cycle-closing predicates become part of the join condition); the
/// columns come in node order. The
/// chain is exactly its joins, on every graph: on a one-node graph,
/// `F({R})` is every tuple of `R`, near-duplicates included.
pub fn full_associations(
    db: &Database,
    graph: &QueryGraph,
    mask: u64,
    funcs: &FuncRegistry,
) -> Result<Table> {
    full_associations_chain(graph, mask)?.run(&Exec {
        db,
        funcs,
        graph,
        cache: None,
    })
}

/// `|F(J)|`: the rows [`full_associations`] returns, counted on their
/// tuple ids, with no value built.
pub(crate) fn full_associations_count(
    db: &Database,
    graph: &QueryGraph,
    mask: u64,
    funcs: &FuncRegistry,
) -> Result<usize> {
    let ex = Exec {
        db,
        funcs,
        graph,
        cache: None,
    };
    let form = GraphForm::default();
    let pass = Pass::new(&ex, &form)?;
    let (ids, _) = full_associations_chain(graph, mask)?.ids(&pass)?;
    Ok(ids.row_count())
}

/// The join chain of `F(J)` for the subgraph `mask`, which must be
/// non-empty and connected.
fn full_associations_chain(graph: &QueryGraph, mask: u64) -> Result<RelExpr> {
    if mask == 0 {
        return Err(Error::Invalid(
            "empty node set has no full associations".into(),
        ));
    }
    if !graph.is_subset_connected(mask) {
        return Err(Error::Invalid(
            "full associations are only defined for connected subgraphs".into(),
        ));
    }
    Ok(chain_ir(graph, mask, JoinKind::Inner))
}

/// Definitional `D(G)`: minimum union of the padded `F(J)` over every
/// induced connected subgraph `J` (paper Def 3.11 / Example 3.12).
///
/// The per-subgraph `F(J)` + padding evaluations are independent, so
/// they run on the [`clio_relational::exec`] worker pool (sized by
/// `--threads` / `CLIO_THREADS` / the hardware): each worker opens an
/// `fd.naive.worker` span, and results come back in canonical subgraph
/// order, so the minimum union — and therefore the output table, row
/// order included — is byte-identical to a serial run. A property test
/// in `tests/properties.rs` pins this.
pub fn full_disjunction_naive(
    db: &Database,
    graph: &QueryGraph,
    funcs: &FuncRegistry,
    subsumption: SubsumptionAlgo,
) -> Result<AssociationSet> {
    let _span = clio_obs::span("fd.naive");
    let scheme = graph.scheme(db)?;
    let masks = connected_subsets(graph);
    let padded: Vec<Table> =
        clio_relational::exec::map_slice(&masks, "fd.naive.worker", |_, &mask| -> Result<Table> {
            let f = full_associations(db, graph, mask, funcs)?;
            pad_to(&f, &scheme)
        })
        .into_iter()
        .collect::<Result<_>>()?;
    metrics::add(Counter::SubgraphsEnumerated, padded.len() as u64);
    let refs: Vec<&Table> = padded.iter().collect();
    let table = minimum_union_all(&refs, subsumption)?;
    Ok(AssociationSet::from_table(graph, table))
}

impl FdAlgo {
    /// Resolve `Auto` against a graph: the outer-join plan on trees, the
    /// lattice otherwise. Explicit choices are returned unchanged.
    #[must_use]
    pub fn resolve(self, graph: &QueryGraph) -> FdAlgo {
        match self {
            FdAlgo::Auto if graph.is_tree() => FdAlgo::OuterJoin,
            FdAlgo::Auto => FdAlgo::Lattice,
            chosen => chosen,
        }
    }
}

/// The subsumption algorithm the engine uses wherever a caller does not
/// choose one explicitly — the single place the default is decided.
#[must_use]
pub fn engine_subsumption() -> SubsumptionAlgo {
    SubsumptionAlgo::default() // Adaptive
}

/// Compute `D(G)` with the selected algorithm, with no cache: the
/// `D(G)` subtree a [`Plan`](crate::plan::Plan) starts from (`Auto`: the
/// outer-join chain on trees, the lattice otherwise).
pub fn full_disjunction(
    db: &Database,
    graph: &QueryGraph,
    algo: FdAlgo,
    funcs: &FuncRegistry,
) -> Result<AssociationSet> {
    full_disjunction_cached(db, graph, algo, funcs, None)
}

/// Apply the paper's Def 3.5 `σ_P(R₁ × … × Rₙ)` literally for the *whole*
/// graph — selection over a cartesian product. Exponential and only used
/// in tests as an extra cross-check of [`full_associations`].
pub fn full_associations_definitional(
    db: &Database,
    graph: &QueryGraph,
    funcs: &FuncRegistry,
) -> Result<Table> {
    let mut acc: Option<Table> = None;
    for i in 0..graph.node_count() {
        let t = graph.node_table(db, i)?;
        acc = Some(match acc {
            None => t,
            Some(a) => clio_relational::ops::cartesian_product(&a, &t)?,
        });
    }
    let acc = acc.ok_or_else(|| Error::Invalid("empty graph".into()))?;
    let pred = Expr::conjunction(graph.edges().iter().map(|e| e.predicate.clone()).collect());
    select(&acc, &pred, funcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::Node;
    use clio_relational::parser::parse_expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::value::{DataType, Value};

    /// A miniature of the paper's Figure 1: two children with mothers, one
    /// childless parent with a phone, one parent without a phone.
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
                .row(vec!["205".into(), "MIT".into()]) // childless
                .row(vec!["207".into(), "Acme".into()]) // childless, no phone
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
                .row(vec!["205".into(), "555-0105".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn path_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        let ph = g.add_node(Node::new("PhoneDir").with_code("Ph")).unwrap();
        g.add_edge(c, p, parse_expr("Children.mid = Parents.ID").unwrap())
            .unwrap();
        g.add_edge(p, ph, parse_expr("PhoneDir.ID = Parents.ID").unwrap())
            .unwrap();
        g
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn full_associations_of_edge_subgraph() {
        let g = path_graph();
        let f = full_associations(&db(), &g, 0b011, &funcs()).unwrap();
        assert_eq!(f.len(), 2); // both children have mothers
        let f = full_associations(&db(), &g, 0b110, &funcs()).unwrap();
        assert_eq!(f.len(), 3); // three parents have phones
        let f = full_associations(&db(), &g, 0b111, &funcs()).unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn full_associations_rejects_disconnected_mask() {
        let g = path_graph();
        assert!(full_associations(&db(), &g, 0b101, &funcs()).is_err());
        assert!(full_associations(&db(), &g, 0, &funcs()).is_err());
    }

    #[test]
    fn full_associations_matches_definitional() {
        let g = path_graph();
        let a = full_associations(&db(), &g, 0b111, &funcs()).unwrap();
        let mut b = full_associations_definitional(&db(), &g, &funcs()).unwrap();
        // reorder columns of a to graph scheme first
        let scheme = g.scheme(&db()).unwrap();
        let mut a = pad_to(&a, &scheme).unwrap();
        a.sort_canonical();
        b.sort_canonical();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn naive_fd_contents() {
        let g = path_graph();
        let d = full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Partitioned).unwrap();
        // expected associations:
        //  2 × CPPh (children + mother + phone)
        //  1 × PPh (205 + phone)    [201/202's PPh are subsumed]
        //  1 × P   (207, no child, no phone)
        assert_eq!(d.len(), 4);
        assert_eq!(d.categories(), vec![0b010, 0b110, 0b111]);
        assert_eq!(d.in_category(0b111).len(), 2);
        assert_eq!(d.in_category(0b110).len(), 1);
        assert_eq!(d.in_category(0b010).len(), 1);
    }

    #[test]
    fn outer_join_fd_agrees_with_naive_on_tree() {
        let g = path_graph();
        let mut a = full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Naive).unwrap();
        let mut b = full_disjunction(&db(), &g, FdAlgo::OuterJoin, &funcs()).unwrap();
        a.sort_canonical(&g);
        b.sort_canonical(&g);
        assert_eq!(a.table().rows(), b.table().rows());
    }

    #[test]
    fn outer_join_rejects_cycles() {
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.ID = PhoneDir.ID").unwrap())
            .unwrap();
        assert!(full_disjunction(&db(), &g, FdAlgo::OuterJoin, &funcs()).is_err());
        // but auto dispatch falls back to the lattice
        full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
    }

    #[test]
    fn auto_uses_outer_join_on_trees() {
        let g = path_graph();
        let mut a = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
        let mut b = full_disjunction_naive(&db(), &g, &funcs(), engine_subsumption()).unwrap();
        a.sort_canonical(&g);
        b.sort_canonical(&g);
        assert_eq!(a.table().rows(), b.table().rows());
    }

    #[test]
    fn single_node_graph_fd_is_the_relation() {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Parents")).unwrap();
        let d = full_disjunction(&db(), &g, FdAlgo::Auto, &funcs()).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.categories() == vec![0b1]);
    }

    /// `F(J)` is its joins and nothing more, on a one-node graph too: a
    /// near-duplicate tuple stays in `F({R})`, though the minimum union
    /// of `D(G)` drops it.
    #[test]
    fn one_node_full_associations_keep_near_duplicates() {
        let mut db = Database::new();
        for (name, rows) in [
            (
                "R",
                vec![vec![1.into(), Value::Null], vec![1.into(), 2.into()]],
            ),
            ("S", vec![vec![1.into(), 3.into()]]),
        ] {
            let mut r = RelationBuilder::new(name)
                .attr("a", DataType::Int)
                .attr("b", DataType::Int);
            for row in rows {
                r = r.row(row);
            }
            db.add_relation(r.build().unwrap()).unwrap();
        }
        let mut one = QueryGraph::new();
        one.add_node(Node::new("R")).unwrap();
        let mut two = one.clone();
        two.add_node(Node::new("S")).unwrap();
        two.add_edge(0, 1, parse_expr("R.a = S.a").unwrap())
            .unwrap();

        let alone = full_associations(&db, &one, 0b1, &funcs()).unwrap();
        assert_eq!(alone.len(), 2, "both tuples of R");
        let within = full_associations(&db, &two, 0b01, &funcs()).unwrap();
        assert_eq!(alone.scheme(), within.scheme());
        assert_eq!(alone.rows(), within.rows());
        assert_eq!(
            full_associations_count(&db, &one, 0b1, &funcs()).unwrap(),
            2
        );
        // D(G) of the one-node graph keeps only the maximal tuple
        let d = full_disjunction(&db, &one, FdAlgo::Auto, &funcs()).unwrap();
        assert_eq!(d.table().rows(), &alone.rows()[1..]);
    }

    #[test]
    fn cyclic_graph_naive_fd() {
        // triangle: Children-Parents (mid), Parents-PhoneDir (ID),
        // Children-PhoneDir (mid = PhoneDir.ID) — consistent cycle
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        let d = full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Partitioned).unwrap();
        // full CPPh coverage still has both children; the CP and CPh pairs
        // are subsumed; PPh for 205, P for 207 survive
        assert_eq!(d.in_category(0b111).len(), 2);
        assert!(d.categories().contains(&0b010));
    }

    #[test]
    fn parallel_naive_fd_is_byte_identical_to_serial() {
        // cyclic graph forces the naive path; compare WITHOUT sorting so
        // row order is part of the contract
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        let serial = clio_relational::exec::with_threads(1, || {
            full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Adaptive).unwrap()
        });
        let parallel = clio_relational::exec::with_threads(4, || {
            full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Adaptive).unwrap()
        });
        assert_eq!(serial.table().rows(), parallel.table().rows());
        assert_eq!(serial.table().scheme(), parallel.table().scheme());
    }

    #[test]
    fn parallel_naive_fd_emits_worker_spans() {
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            clio_relational::exec::with_threads(4, || {
                full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Adaptive).unwrap()
            })
        });
        let spans = rec.spans();
        let workers = spans.iter().filter(|s| s.name == "fd.naive.worker").count();
        // one span per worker thread that participated; the pool spawns
        // min(threads, items) workers, and a triangle has 7 connected
        // subgraphs, so at least one worker span must exist
        assert!(workers >= 1, "no fd.naive.worker spans in {spans:?}");
        assert!(spans.iter().any(|s| s.name == "fd.naive"), "{spans:?}");
    }

    #[test]
    fn fd_with_no_matching_joins_keeps_singletons() {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("A")
                .attr("x", DataType::Str)
                .row(vec!["1".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("B")
                .attr("x", DataType::Str)
                .row(vec!["2".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut g = QueryGraph::new();
        g.add_node(Node::new("A")).unwrap();
        g.add_node(Node::new("B")).unwrap();
        g.add_edge(0, 1, parse_expr("A.x = B.x").unwrap()).unwrap();
        let d = full_disjunction(&db, &g, FdAlgo::Auto, &funcs()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.categories(), vec![0b01, 0b10]);
        // every association is half-null
        assert!(d
            .table()
            .rows()
            .iter()
            .all(|r| r.iter().any(Value::is_null)));
    }
}

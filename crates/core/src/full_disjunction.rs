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
//!   subgraph enumeration and no subsumption pass (span `fd.outer_join`);
//! * [`FdAlgo::Lattice`], on **cyclic** graphs: the subgraph lattice.
//!   Each `F(J)` is one join of a smaller subgraph's table with one
//!   relation, and a row is dropped when a neighbouring subgraph's row
//!   extends it, so the residual subsumption pass only sees rows that can
//!   still be subsumed (span `fd.lattice`; see `plan::ir::schedule`).
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
use clio_relational::ops::{minimum_union_all, pad_to, select, SubsumptionAlgo};
use clio_relational::table::Table;

use crate::association::AssociationSet;
use crate::incremental::full_disjunction_cached;
use crate::plan::{chain_ir, Exec};
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
/// cycle-closing predicates become part of the join condition).
pub fn full_associations(
    db: &Database,
    graph: &QueryGraph,
    mask: u64,
    funcs: &FuncRegistry,
) -> Result<Table> {
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
    chain_ir(graph, mask, false).run(&Exec {
        db,
        funcs,
        graph,
        cache: None,
    })
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

/// Optimized `D(G)` for tree query graphs: left-deep full outer joins in a
/// connected elimination order, columns in the canonical graph scheme.
/// Errors when the graph is not a tree.
pub fn full_disjunction_outer_join(
    db: &Database,
    graph: &QueryGraph,
    funcs: &FuncRegistry,
) -> Result<AssociationSet> {
    full_disjunction_cached(db, graph, FdAlgo::OuterJoin, funcs, None)
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
        let mut b = full_disjunction_outer_join(&db(), &g, &funcs()).unwrap();
        a.sort_canonical(&g);
        b.sort_canonical(&g);
        assert_eq!(a.table().rows(), b.table().rows());
    }

    #[test]
    fn outer_join_rejects_cycles() {
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.ID = PhoneDir.ID").unwrap())
            .unwrap();
        assert!(full_disjunction_outer_join(&db(), &g, &funcs()).is_err());
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
        let _guard = crate::obs_testutil::lock();
        let mut g = path_graph();
        g.add_edge(0, 2, parse_expr("Children.mid = PhoneDir.ID").unwrap())
            .unwrap();
        clio_obs::set_trace_enabled(true);
        clio_relational::exec::with_threads(4, || {
            full_disjunction_naive(&db(), &g, &funcs(), SubsumptionAlgo::Adaptive).unwrap()
        });
        clio_obs::set_trace_enabled(false);
        let spans = clio_obs::take_spans();
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

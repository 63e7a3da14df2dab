//! Synthetic schema, data, and mapping generators for benchmarks and
//! property tests.
//!
//! Workloads are parameterized by graph **topology** (chain, star, cycle,
//! random tree), relation count, row count, and a **match rate** that
//! controls how often a link attribute references an existing tuple —
//! which in turn controls which coverage categories of the full
//! disjunction are populated (low match rates produce many partial
//! associations, stressing subsumption removal).

use clio_core::correspondence::ValueCorrespondence;
use clio_core::knowledge::{JoinSpec, Provenance, SchemaKnowledge};
use clio_core::mapping::Mapping;
use clio_core::query_graph::{Node, QueryGraph};
use clio_relational::database::Database;
use clio_relational::relation::Relation;
use clio_relational::schema::{Attribute, RelSchema};
use clio_relational::value::{DataType, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape of the synthetic query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `R0 — R1 — … — R(n-1)`.
    Chain,
    /// `R0` is the hub; every other relation links to it.
    Star,
    /// A chain with the ends joined (cyclic graph: exercises the naive
    /// full-disjunction path).
    Cycle,
    /// A uniformly random tree (each `R_i`, `i > 0`, links to a random
    /// earlier relation).
    RandomTree,
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Graph shape.
    pub topology: Topology,
    /// Number of relations (graph nodes). 2–16 is the useful range.
    pub relations: usize,
    /// Rows per relation.
    pub rows: usize,
    /// Probability that a link attribute references an existing tuple of
    /// the linked relation (the rest dangle or are null).
    pub match_rate: f64,
    /// Extra payload attributes per relation.
    pub payload_attrs: usize,
    /// RNG seed (generation is deterministic given the spec).
    pub seed: u64,
}

impl SyntheticSpec {
    /// A reasonable default for quick tests.
    #[must_use]
    pub fn small(topology: Topology) -> SyntheticSpec {
        SyntheticSpec {
            topology,
            relations: 4,
            rows: 50,
            match_rate: 0.8,
            payload_attrs: 1,
            seed: 42,
        }
    }
}

/// A generated workload: database + query graph + knowledge + mapping.
#[derive(Debug, Clone)]
pub struct Synthetic {
    /// The populated source database.
    pub db: Database,
    /// The query graph over it (one node per relation).
    pub graph: QueryGraph,
    /// Knowledge seeded with the graph's edges.
    pub knowledge: SchemaKnowledge,
    /// A target schema with one attribute per relation's payload.
    pub target: RelSchema,
    /// A complete mapping (identity correspondences, `B0` required).
    pub mapping: Mapping,
}

/// The edge list of a topology over `n` relations, as `(a, b)` pairs with
/// `a < b` (the higher-numbered relation holds the link attribute `l<a>`).
#[must_use]
pub fn edges_for(topology: Topology, n: usize, seed: u64) -> Vec<(usize, usize)> {
    match topology {
        Topology::Chain => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
        Topology::Star => (1..n).map(|i| (0, i)).collect(),
        Topology::Cycle => {
            let mut e: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
            if n > 2 {
                e.push((0, n - 1));
            }
            e
        }
        Topology::RandomTree => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7ee5);
            (1..n).map(|i| (rng.random_range(0..i), i)).collect()
        }
    }
}

/// Generate the full workload for a spec.
///
/// # Panics
/// Panics when `relations == 0` (an empty workload is meaningless).
#[must_use]
pub fn generate(spec: &SyntheticSpec) -> Synthetic {
    assert!(spec.relations > 0, "need at least one relation");
    let n = spec.relations;
    let edges = edges_for(spec.topology, n, spec.seed);
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // schema: R<i>(id, l<a>.., p0..)
    let mut schemas = Vec::with_capacity(n);
    for i in 0..n {
        let mut attrs = vec![Attribute::not_null("id", DataType::Str)];
        for &(a, bb) in &edges {
            if bb == i {
                attrs.push(Attribute::new(format!("l{a}"), DataType::Str));
            }
        }
        for p in 0..spec.payload_attrs {
            attrs.push(Attribute::new(format!("p{p}"), DataType::Str));
        }
        schemas.push(RelSchema::new(format!("R{i}"), attrs).expect("fresh synthetic schema"));
    }

    // data
    let mut db = Database::new();
    for (i, schema) in schemas.into_iter().enumerate() {
        let link_sources: Vec<usize> = edges
            .iter()
            .filter(|&&(_, bb)| bb == i)
            .map(|&(a, _)| a)
            .collect();
        let mut rows = Vec::with_capacity(spec.rows);
        for k in 0..spec.rows {
            let mut row: Vec<Value> = vec![Value::str(format!("r{i}-{k}"))];
            for &a in &link_sources {
                let roll: f64 = rng.random();
                if roll < spec.match_rate {
                    let j = rng.random_range(0..spec.rows);
                    row.push(Value::str(format!("r{a}-{j}")));
                } else if roll < spec.match_rate + (1.0 - spec.match_rate) / 2.0 {
                    row.push(Value::Null);
                } else {
                    row.push(Value::str(format!("dangling-{i}-{k}-{a}")));
                }
            }
            for p in 0..spec.payload_attrs {
                row.push(Value::str(format!("v{p}-{}", rng.random_range(0..1000))));
            }
            rows.push(row);
        }
        db.add_relation(Relation::with_rows(schema, rows).expect("valid rows"))
            .expect("unique name");
    }

    // query graph + knowledge
    let mut graph = QueryGraph::new();
    for i in 0..n {
        graph
            .add_node(Node::new(format!("R{i}")))
            .expect("fresh alias");
    }
    let mut knowledge = SchemaKnowledge::new();
    for &(a, b) in &edges {
        let pred = clio_relational::expr::Expr::col_eq(&format!("R{b}.l{a}"), &format!("R{a}.id"));
        graph.add_edge(a, b, pred).expect("valid edge");
        knowledge.add_spec(JoinSpec::simple(
            format!("R{b}"),
            format!("l{a}"),
            format!("R{a}"),
            "id",
            Provenance::ForeignKey,
        ));
    }

    // target + mapping: B<i> <- R<i>.p0 (or id when no payload)
    let mut attrs = vec![Attribute::not_null("B0", DataType::Str)];
    for i in 1..n {
        attrs.push(Attribute::new(format!("B{i}"), DataType::Str));
    }
    let target = RelSchema::new("T", attrs).expect("fresh target");
    let mut mapping = Mapping::new(graph.clone(), target.clone());
    for i in 0..n {
        let src = if spec.payload_attrs > 0 {
            format!("R{i}.p0")
        } else {
            format!("R{i}.id")
        };
        mapping.set_correspondence(ValueCorrespondence::identity(
            &src,
            if i == 0 {
                "B0".to_owned()
            } else {
                format!("B{i}")
            },
        ));
    }
    let mapping = mapping.with_target_not_null_filters();

    Synthetic {
        db,
        graph,
        knowledge,
        target,
        mapping,
    }
}

/// A knowledge graph alone (no data): `relations` nodes named `R<i>`,
/// connected as a random tree plus `extra_specs` random additional specs.
/// Used by the data-walk scaling benchmark (B4).
#[must_use]
pub fn random_knowledge(relations: usize, extra_specs: usize, seed: u64) -> SchemaKnowledge {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut k = SchemaKnowledge::new();
    for i in 1..relations {
        let parent = rng.random_range(0..i);
        k.add_spec(JoinSpec::simple(
            format!("R{i}"),
            format!("l{parent}"),
            format!("R{parent}"),
            "id",
            Provenance::ForeignKey,
        ));
    }
    let mut added = 0;
    while added < extra_specs && relations >= 2 {
        let a = rng.random_range(0..relations);
        let b = rng.random_range(0..relations);
        if a == b {
            continue;
        }
        k.add_spec(JoinSpec::simple(
            format!("R{a}"),
            format!("x{added}"),
            format!("R{b}"),
            "id",
            Provenance::Mined,
        ));
        added += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_core::full_disjunction::{full_disjunction, FdAlgo};
    use clio_relational::funcs::FuncRegistry;

    #[test]
    fn edges_match_topologies() {
        assert_eq!(
            edges_for(Topology::Chain, 4, 0),
            vec![(0, 1), (1, 2), (2, 3)]
        );
        assert_eq!(
            edges_for(Topology::Star, 4, 0),
            vec![(0, 1), (0, 2), (0, 3)]
        );
        assert_eq!(
            edges_for(Topology::Cycle, 4, 0),
            vec![(0, 1), (1, 2), (2, 3), (0, 3)]
        );
        let tree = edges_for(Topology::RandomTree, 6, 7);
        assert_eq!(tree.len(), 5);
        for (a, b) in tree {
            assert!(a < b);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::small(Topology::Chain);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.db, b.db);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn generated_workload_is_consistent() {
        for topology in [
            Topology::Chain,
            Topology::Star,
            Topology::Cycle,
            Topology::RandomTree,
        ] {
            let spec = SyntheticSpec::small(topology);
            let w = generate(&spec);
            let funcs = FuncRegistry::with_builtins();
            w.graph.validate(&w.db, &funcs).unwrap();
            w.mapping.validate(&w.db, &funcs).unwrap();
            assert_eq!(w.db.relation_count(), spec.relations);
            assert_eq!(w.db.total_rows(), spec.relations * spec.rows);
        }
    }

    #[test]
    fn tree_topologies_admit_outer_join_fd() {
        for topology in [Topology::Chain, Topology::Star, Topology::RandomTree] {
            let w = generate(&SyntheticSpec::small(topology));
            assert!(w.graph.is_tree(), "{topology:?}");
        }
        let w = generate(&SyntheticSpec::small(Topology::Cycle));
        assert!(!w.graph.is_tree());
    }

    #[test]
    fn fd_and_mapping_eval_run_end_to_end() {
        let mut spec = SyntheticSpec::small(Topology::Chain);
        spec.rows = 30;
        let w = generate(&spec);
        let funcs = FuncRegistry::with_builtins();
        let d = full_disjunction(&w.db, &w.graph, FdAlgo::Auto, &funcs).unwrap();
        assert!(!d.is_empty());
        let out = w.mapping.evaluate(&w.db, &funcs).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn low_match_rate_produces_partial_coverages() {
        let spec = SyntheticSpec {
            topology: Topology::Chain,
            relations: 3,
            rows: 40,
            match_rate: 0.2,
            payload_attrs: 1,
            seed: 7,
        };
        let w = generate(&spec);
        let funcs = FuncRegistry::with_builtins();
        let d = full_disjunction(&w.db, &w.graph, FdAlgo::Auto, &funcs).unwrap();
        assert!(
            d.categories().len() > 1,
            "expected several coverage categories"
        );
    }

    #[test]
    fn random_knowledge_is_connected_tree_plus_extras() {
        let k = random_knowledge(10, 5, 3);
        assert!(k.specs().len() >= 9);
        assert!(k.specs().len() <= 14);
        // paths exist between arbitrary pairs through the tree
        assert!(!k.paths("R0", "R9", 10).is_empty());
    }
}

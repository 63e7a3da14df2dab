//! Ranking of alternative mappings (paper Sec 6.1: "Clio tries to order
//! them from most likely to least likely, using simple heuristics related
//! to path length, least perturbation to the current active mapping,
//! etc.").
//!
//! Beyond the two structural heuristics the paper names, this module adds
//! a *data-driven* signal in the paper's spirit: **join support**, the
//! number of full data associations the extended graph produces. An
//! extension whose joins actually connect data ranks above one that is
//! structurally plausible but joins nothing (e.g. a chase edge through a
//! coincidental value).

use clio_relational::database::Database;
use clio_relational::error::Result;
use clio_relational::funcs::FuncRegistry;

use crate::full_disjunction::full_associations_count;
use crate::mapping::Mapping;
use crate::operators::walk::WalkAlternative;

/// The ranking signals for one alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct RankScore {
    /// Walk path length (shorter = more likely).
    pub path_len: usize,
    /// Number of nodes added (less perturbation = more likely).
    pub new_nodes: usize,
    /// Number of full data associations spanning *all* graph nodes
    /// (higher = the linkage is supported by actual data).
    pub join_support: usize,
}

/// Compute the join support of a mapping: `|F(N)|`, the count of full
/// associations covering every node of the graph.
pub fn join_support(mapping: &Mapping, db: &Database, funcs: &FuncRegistry) -> Result<usize> {
    let n = mapping.graph.node_count();
    if n == 0 {
        return Ok(0);
    }
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    full_associations_count(db, &mapping.graph, mask, funcs)
}

/// Rank walk alternatives: primary structural order (path length, then
/// perturbation), ties broken by descending join support. Returns the
/// alternatives paired with their scores, best first.
pub fn rank_walk_alternatives(
    alternatives: Vec<WalkAlternative>,
    db: &Database,
    funcs: &FuncRegistry,
) -> Result<Vec<(WalkAlternative, RankScore)>> {
    let mut scored: Vec<(WalkAlternative, RankScore)> = alternatives
        .into_iter()
        .map(|alt| {
            let support = join_support(&alt.mapping, db, funcs)?;
            let score = RankScore {
                path_len: alt.path_len,
                new_nodes: alt.new_nodes.len(),
                join_support: support,
            };
            Ok((alt, score))
        })
        .collect::<Result<_>>()?;
    scored.sort_by(|(_, a), (_, b)| {
        (a.path_len, a.new_nodes, std::cmp::Reverse(a.join_support)).cmp(&(
            b.path_len,
            b.new_nodes,
            std::cmp::Reverse(b.join_support),
        ))
    });
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::knowledge::{JoinSpec, Provenance, SchemaKnowledge};
    use crate::operators::walk::data_walk;
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::DataType;

    /// A source where the `good` link joins data and the `bad` link joins
    /// nothing (same path length, same perturbation).
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("A")
                .attr("id", DataType::Str)
                .attr("good", DataType::Str)
                .attr("bad", DataType::Str)
                .row(vec!["a1".into(), "b1".into(), "zzz".into()])
                .row(vec!["a2".into(), "b2".into(), "yyy".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("B")
                .attr("id", DataType::Str)
                .attr("payload", DataType::Str)
                .row(vec!["b1".into(), "x".into()])
                .row(vec!["b2".into(), "y".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn mapping() -> Mapping {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("A")).unwrap();
        let target = RelSchema::new("T", vec![Attribute::new("x", DataType::Str)]).unwrap();
        Mapping::new(g, target).with_correspondence(ValueCorrespondence::identity("A.id", "x"))
    }

    fn knowledge() -> SchemaKnowledge {
        let mut k = SchemaKnowledge::new();
        k.add_spec(JoinSpec::simple(
            "A",
            "good",
            "B",
            "id",
            Provenance::ForeignKey,
        ));
        k.add_spec(JoinSpec::simple("A", "bad", "B", "id", Provenance::Mined));
        k
    }

    #[test]
    fn join_support_counts_full_associations() {
        let funcs = FuncRegistry::with_builtins();
        let m = mapping();
        assert_eq!(join_support(&m, &db(), &funcs).unwrap(), 2); // A alone
    }

    #[test]
    fn data_support_breaks_structural_ties() {
        let funcs = FuncRegistry::with_builtins();
        let database = db();
        let alts = data_walk(&mapping(), &database, &knowledge(), "A", "B", 2, &funcs).unwrap();
        assert_eq!(alts.len(), 2); // good-link and bad-link walks
        let ranked = rank_walk_alternatives(alts, &database, &funcs).unwrap();
        // the good link joins 2 pairs; the bad link joins none
        assert_eq!(ranked[0].1.join_support, 2);
        assert_eq!(ranked[1].1.join_support, 0);
        let edge = ranked[0].0.mapping.graph.edges()[0].predicate.to_string();
        assert!(
            edge.contains("good"),
            "best alternative should use the good link: {edge}"
        );
    }

    #[test]
    fn structural_order_still_dominates() {
        // a 1-step walk beats a 2-step walk regardless of support
        let funcs = FuncRegistry::with_builtins();
        let database = db();
        let mut k = knowledge();
        // add an indirect path A -> B via C (needs relation C)
        let mut db2 = database.clone();
        db2.add_relation(
            RelationBuilder::new("C")
                .attr("id", DataType::Str)
                .attr("b", DataType::Str)
                .row(vec!["a1".into(), "b1".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        k.add_spec(JoinSpec::simple("A", "id", "C", "id", Provenance::Mined));
        k.add_spec(JoinSpec::simple("C", "b", "B", "id", Provenance::Mined));
        let alts = data_walk(&mapping(), &db2, &k, "A", "B", 3, &funcs).unwrap();
        let ranked = rank_walk_alternatives(alts, &db2, &funcs).unwrap();
        assert_eq!(ranked[0].1.path_len, 1);
        assert!(ranked.last().unwrap().1.path_len >= ranked[0].1.path_len);
    }
}

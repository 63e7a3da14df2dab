//! Continuous evolution of illustrations (paper Sec 5.3).
//!
//! As a mapping evolves (a walk or chase extends its query graph), its
//! illustration must evolve too — but "the data in the old illustration,
//! which is familiar to the user, should be retained as much as possible".
//! The **continuity requirement**: instead of selecting a completely new
//! set of examples, each old example is *extended* — the new illustration
//! contains, for every old example, the new examples whose associations
//! extend the old association (equal on all of its non-null attributes).
//! Sufficiency is then repaired by *adding* the fewest examples (the
//! solver in [`crate::illustration`]), never by mutating or dropping the
//! extended ones.

use clio_relational::database::Database;
use clio_relational::error::{Error, Result};
use clio_relational::funcs::FuncRegistry;
use clio_relational::schema::Scheme;
use clio_relational::value::Value;

use crate::example::Example;
use crate::illustration::{minimal_completion, Illustration};
use crate::mapping::Mapping;

/// The outcome of evolving an illustration across a mapping change.
#[derive(Debug, Clone, PartialEq)]
pub struct Evolution {
    /// The evolved illustration (extensions first, then repairs).
    pub illustration: Illustration,
    /// How many of the new examples extend an old one (familiar data).
    pub extended_count: usize,
    /// How many examples were added purely to restore sufficiency.
    pub repair_count: usize,
}

/// Does `new_assoc` (a row over `new_scheme`) extend `old_assoc` (a row
/// over `old_scheme`)? True when its projection onto the old scheme
/// subsumes the old association — the old data is still visible, possibly
/// with nulls filled in.
pub fn extends(
    old_scheme: &Scheme,
    old_assoc: &[Value],
    new_scheme: &Scheme,
    new_assoc: &[Value],
) -> Result<bool> {
    let positions = new_scheme.positions_of(old_scheme)?;
    Ok(extends_at(&positions, old_assoc, new_assoc))
}

/// [`extends`] with the old scheme's columns already resolved to their
/// `positions` in the new scheme: `subsumes(projection, old_assoc)`
/// without copying the projection.
fn extends_at(positions: &[usize], old_assoc: &[Value], new_assoc: &[Value]) -> bool {
    debug_assert_eq!(positions.len(), old_assoc.len());
    positions
        .iter()
        .zip(old_assoc)
        .all(|(&p, old)| old.is_null() || new_assoc[p] == *old)
}

/// Evolve `old_illustration` from `old_mapping` to `new_mapping` (whose
/// graph must extend the old graph). Returns the evolved illustration and
/// bookkeeping counts.
pub fn evolve_illustration(
    old_illustration: &Illustration,
    old_mapping: &Mapping,
    new_mapping: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
) -> Result<Evolution> {
    evolve_illustration_cached(old_illustration, old_mapping, new_mapping, db, funcs, None)
}

/// Like [`evolve_illustration`], with the new mapping's example
/// population built over cached data associations: continuity is then
/// effectively checked against the *delta* of `D(G)` — the subgraphs an
/// operator did not touch are served from the cache, only the new ones
/// are joined. `None` is exactly the uncached path.
pub fn evolve_illustration_cached(
    old_illustration: &Illustration,
    old_mapping: &Mapping,
    new_mapping: &Mapping,
    db: &Database,
    funcs: &FuncRegistry,
    cache: Option<&clio_incr::EvalCache>,
) -> Result<Evolution> {
    let _span = clio_obs::span("evolution.evolve");
    let old_scheme = old_mapping.graph.scheme(db)?;
    let new_scheme = new_mapping.graph.scheme(db)?;
    if !new_scheme.contains_scheme(&old_scheme) {
        return Err(Error::Invalid(
            "continuous evolution requires the new graph to extend the old one".into(),
        ));
    }

    let positions = new_scheme.positions_of(&old_scheme)?;
    let population = new_mapping.examples_cached(db, funcs, cache)?;
    let mut chosen: Vec<usize> = Vec::new();
    let mut taken = vec![false; population.len()];

    // 1. extend every old example
    for old in &old_illustration.examples {
        for (i, candidate) in population.iter().enumerate() {
            if !taken[i] && extends_at(&positions, &old.association, &candidate.association) {
                taken[i] = true;
                chosen.push(i);
            }
        }
    }
    let extended_count = chosen.len();

    // 2. repair sufficiency by appending the fewest examples, in
    //    population order (never removing the extensions)
    let extensions: Vec<&Example> = chosen.iter().map(|&i| &population[i]).collect();
    let repairs = minimal_completion(&population, new_mapping.target.arity(), &extensions);
    let repair_count = repairs.len();
    chosen.extend(repairs);

    Ok(Evolution {
        illustration: Illustration::from_indexes(&population, &chosen),
        extended_count,
        repair_count,
    })
}

/// Check the continuity property: every old example has at least one
/// extension in the new illustration.
pub fn continuity_holds(
    old_illustration: &Illustration,
    new_illustration: &Illustration,
    old_scheme: &Scheme,
    new_scheme: &Scheme,
) -> Result<bool> {
    let positions = new_scheme.positions_of(old_scheme)?;
    Ok(old_illustration.examples.iter().all(|old| {
        new_illustration
            .examples
            .iter()
            .any(|new| extends_at(&positions, &old.association, &new.association))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::ValueCorrespondence;
    use crate::illustration::{is_sufficient, SufficiencyScope};
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::expr::Expr;
    use clio_relational::relation::RelationBuilder;
    use clio_relational::schema::{Attribute, RelSchema};
    use clio_relational::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("mid", DataType::Str)
                .row(vec!["001".into(), "201".into()])
                .row(vec!["002".into(), "202".into()])
                .row(vec!["004".into(), Value::Null])
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
        db
    }

    fn target() -> RelSchema {
        RelSchema::new(
            "Kids",
            vec![
                Attribute::not_null("ID", DataType::Str),
                Attribute::new("affiliation", DataType::Str),
            ],
        )
        .unwrap()
    }

    fn old_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("Children")).unwrap();
        Mapping::new(g, target())
            .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
            .with_target_not_null_filters()
    }

    fn new_mapping() -> Mapping {
        let mut g = QueryGraph::new();
        let c = g.add_node(Node::new("Children")).unwrap();
        let p = g.add_node(Node::new("Parents")).unwrap();
        g.add_edge(c, p, Expr::col_eq("Children.mid", "Parents.ID"))
            .unwrap();
        let mut m = old_mapping();
        m.graph = g;
        m.set_correspondence(ValueCorrespondence::identity(
            "Parents.affiliation",
            "affiliation",
        ));
        m
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn extends_checks_projection_subsumption() {
        let database = db();
        let old_scheme = old_mapping().graph.scheme(&database).unwrap();
        let new_scheme = new_mapping().graph.scheme(&database).unwrap();
        // Maya's old association: ["002", "202"]
        let old = vec![Value::str("002"), Value::str("202")];
        // extension with parent columns filled in
        let good = vec!["002".into(), "202".into(), "202".into(), "UofT".into()];
        assert!(extends(&old_scheme, &old, &new_scheme, &good).unwrap());
        // a different child's association is not an extension
        let bad = vec!["001".into(), "201".into(), "201".into(), "IBM".into()];
        assert!(!extends(&old_scheme, &old, &new_scheme, &bad).unwrap());
        // old nulls may be filled in
        let old_null = vec![Value::str("004"), Value::Null];
        let filled = vec!["004".into(), Value::Null, Value::Null, Value::Null];
        assert!(extends(&old_scheme, &old_null, &new_scheme, &filled).unwrap());
    }

    #[test]
    fn evolution_preserves_continuity() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let old_pop = old_m.examples(&database, &funcs()).unwrap();
        let old_ill = Illustration::minimal_sufficient(&old_pop, old_m.target.arity());
        assert!(!old_ill.is_empty());

        let evo = evolve_illustration(&old_ill, &old_m, &new_m, &database, &funcs()).unwrap();
        let old_scheme = old_m.graph.scheme(&database).unwrap();
        let new_scheme = new_m.graph.scheme(&database).unwrap();
        assert!(continuity_holds(&old_ill, &evo.illustration, &old_scheme, &new_scheme).unwrap());
        assert!(evo.extended_count >= old_ill.len());
    }

    #[test]
    fn evolution_result_is_sufficient() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let old_pop = old_m.examples(&database, &funcs()).unwrap();
        let old_ill = Illustration::minimal_sufficient(&old_pop, old_m.target.arity());
        let evo = evolve_illustration(&old_ill, &old_m, &new_m, &database, &funcs()).unwrap();

        let population = new_m.examples(&database, &funcs()).unwrap();
        assert!(is_sufficient(
            &evo.illustration.examples,
            &population,
            new_m.target.arity(),
            SufficiencyScope::mapping(),
        ));
        // the lone-parent (205) category only exists in the new graph, so
        // at least one repair example must have been added
        assert!(evo.repair_count >= 1);
    }

    #[test]
    fn evolution_rejects_shrinking_graphs() {
        let database = db();
        let old_m = new_mapping(); // bigger
        let new_m = old_mapping(); // smaller
        let ill = Illustration::empty();
        assert!(evolve_illustration(&ill, &old_m, &new_m, &database, &funcs()).is_err());
    }

    #[test]
    fn empty_old_illustration_still_repairs_to_sufficiency() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let evo = evolve_illustration(&Illustration::empty(), &old_m, &new_m, &database, &funcs())
            .unwrap();
        assert_eq!(evo.extended_count, 0);
        assert!(evo.repair_count > 0);
        let population = new_m.examples(&database, &funcs()).unwrap();
        assert!(is_sufficient(
            &evo.illustration.examples,
            &population,
            new_m.target.arity(),
            SufficiencyScope::mapping(),
        ));
    }

    #[test]
    fn extends_errors_when_old_scheme_is_not_contained() {
        let database = db();
        let small = old_mapping().graph.scheme(&database).unwrap();
        let big = new_mapping().graph.scheme(&database).unwrap();
        // asking whether a *small* row extends a *big* one is ill-posed:
        // the big scheme is not contained in the small one
        let old = vec![
            Value::str("002"),
            Value::str("202"),
            Value::str("202"),
            Value::str("UofT"),
        ];
        let new = vec![Value::str("002"), Value::str("202")];
        assert!(extends(&big, &old, &small, &new).is_err());
    }

    #[test]
    fn extends_on_identical_schemes_is_subsumption() {
        let database = db();
        let scheme = old_mapping().graph.scheme(&database).unwrap();
        let sparse = vec![Value::str("002"), Value::Null];
        let filled = vec![Value::str("002"), Value::str("202")];
        // same scheme: extension = the new row subsumes the old one
        assert!(extends(&scheme, &sparse, &scheme, &filled).unwrap());
        assert!(extends(&scheme, &filled, &scheme, &filled).unwrap());
        assert!(!extends(&scheme, &filled, &scheme, &sparse).unwrap());
    }

    #[test]
    fn continuity_fails_on_nonempty_illustration_missing_one_old_example() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let old_pop = old_m.examples(&database, &funcs()).unwrap();
        assert!(old_pop.len() >= 2);
        let old_ill = Illustration {
            examples: old_pop.clone(),
        };
        let new_pop = new_m.examples(&database, &funcs()).unwrap();
        let old_scheme = old_m.graph.scheme(&database).unwrap();
        let new_scheme = new_m.graph.scheme(&database).unwrap();
        // keep only the extensions of the FIRST old example: a non-empty
        // new illustration that still violates continuity, because the
        // other old examples have no extension in it
        let partial = Illustration {
            examples: new_pop
                .iter()
                .filter(|e| {
                    extends(
                        &old_scheme,
                        &old_pop[0].association,
                        &new_scheme,
                        &e.association,
                    )
                    .unwrap()
                })
                .cloned()
                .collect(),
        };
        assert!(!partial.is_empty());
        assert!(!continuity_holds(&old_ill, &partial, &old_scheme, &new_scheme).unwrap());
        // the full new population, by contrast, is continuous
        let full = Illustration { examples: new_pop };
        assert!(continuity_holds(&old_ill, &full, &old_scheme, &new_scheme).unwrap());
    }

    #[test]
    fn cached_evolution_matches_uncached() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let old_pop = old_m.examples(&database, &funcs()).unwrap();
        let old_ill = Illustration::minimal_sufficient(&old_pop, old_m.target.arity());
        let plain = evolve_illustration(&old_ill, &old_m, &new_m, &database, &funcs()).unwrap();
        let cache = clio_incr::EvalCache::new();
        for _ in 0..2 {
            let cached = evolve_illustration_cached(
                &old_ill,
                &old_m,
                &new_m,
                &database,
                &funcs(),
                Some(&cache),
            )
            .unwrap();
            assert_eq!(plain, cached);
        }
        assert!(cache.stats().hits >= 1, "second evolution must hit");
    }

    #[test]
    fn continuity_detects_dropped_examples() {
        let database = db();
        let old_m = old_mapping();
        let new_m = new_mapping();
        let old_pop = old_m.examples(&database, &funcs()).unwrap();
        let old_ill = Illustration {
            examples: old_pop.clone(),
        };
        let old_scheme = old_m.graph.scheme(&database).unwrap();
        let new_scheme = new_m.graph.scheme(&database).unwrap();
        // an empty new illustration violates continuity
        assert!(
            !continuity_holds(&old_ill, &Illustration::empty(), &old_scheme, &new_scheme).unwrap()
        );
    }
}

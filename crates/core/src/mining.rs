//! Join-path mining: discovering potential join conditions from data.
//!
//! The paper's schema knowledge is "gathered from schema and constraint
//! definitions and **from mining the source data**, views, stored queries
//! and metadata" (Sec 5.1). Declared foreign keys cover the first part;
//! this module covers the second with unary **inclusion-dependency
//! mining**: attribute pair `(R.a, S.b)` is a join candidate when a large
//! fraction of `R.a`'s values appear in `S.b`.
//!
//! Mined specs carry [`Provenance::Mined`] so the UI can present them
//! with appropriate skepticism — exactly how Figure 11's direct
//! `Children—PhoneDir` walk (`G4`) can exist without a declared key.

use std::collections::HashSet;

use clio_relational::database::Database;
use clio_relational::value::{DataType, Value};

use crate::knowledge::{JoinSpec, Provenance, SchemaKnowledge};

/// Mining configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningConfig {
    /// Minimum fraction of the referencing attribute's non-null values
    /// that must occur in the referenced attribute (1.0 = strict
    /// inclusion dependency).
    pub min_containment: f64,
    /// Minimum number of distinct shared values (filters out coincidences
    /// on tiny domains).
    pub min_shared_values: usize,
    /// Only propose pairs of the same data type.
    pub require_same_type: bool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            min_containment: 0.95,
            min_shared_values: 2,
            require_same_type: true,
        }
    }
}

/// A mined candidate with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedDependency {
    /// Referencing relation and attribute.
    pub from: (String, String),
    /// Referenced relation and attribute.
    pub to: (String, String),
    /// Fraction of `from`'s non-null distinct values found in `to`.
    pub containment: f64,
    /// Number of distinct shared values.
    pub shared_values: usize,
}

impl MinedDependency {
    /// Convert to a [`JoinSpec`] (provenance `Mined`).
    #[must_use]
    pub fn to_spec(&self) -> JoinSpec {
        JoinSpec::simple(
            self.from.0.clone(),
            self.from.1.clone(),
            self.to.0.clone(),
            self.to.1.clone(),
            Provenance::Mined,
        )
    }
}

/// Mine unary inclusion dependencies across all relation pairs. Runs in
/// one pass per attribute (distinct-value sets) plus a pairwise
/// containment check over attribute value-sets.
#[must_use]
pub fn mine_inclusion_dependencies(db: &Database, config: &MiningConfig) -> Vec<MinedDependency> {
    // distinct non-null values per (relation, attribute)
    struct Col {
        relation: String,
        attribute: String,
        ty: DataType,
        values: HashSet<Value>,
    }
    let mut cols: Vec<Col> = Vec::new();
    for rel in db.relations() {
        for (ai, attr) in rel.schema().attrs().iter().enumerate() {
            let mut values = HashSet::new();
            for row in rel.rows() {
                if !row[ai].is_null() {
                    values.insert(row[ai].clone());
                }
            }
            cols.push(Col {
                relation: rel.name().to_owned(),
                attribute: attr.name.clone(),
                ty: attr.ty,
                values,
            });
        }
    }

    let mut out = Vec::new();
    for from in &cols {
        if from.values.is_empty() {
            continue;
        }
        for to in &cols {
            if from.relation == to.relation {
                continue; // self-joins are out of scope for walks
            }
            if config.require_same_type && from.ty != to.ty {
                continue;
            }
            let shared = from.values.intersection(&to.values).count();
            let containment = shared as f64 / from.values.len() as f64;
            if containment >= config.min_containment && shared >= config.min_shared_values {
                out.push(MinedDependency {
                    from: (from.relation.clone(), from.attribute.clone()),
                    to: (to.relation.clone(), to.attribute.clone()),
                    containment,
                    shared_values: shared,
                });
            }
        }
    }
    // deterministic order: strongest evidence first
    out.sort_by(|a, b| {
        b.shared_values
            .cmp(&a.shared_values)
            .then_with(|| b.containment.total_cmp(&a.containment))
            .then_with(|| (&a.from, &a.to).cmp(&(&b.from, &b.to)))
    });
    out
}

/// Mine and fold the results into a knowledge base (skipping pairs that
/// duplicate declared foreign keys in either orientation).
pub fn enrich_knowledge(
    knowledge: &mut SchemaKnowledge,
    db: &Database,
    config: &MiningConfig,
) -> Vec<MinedDependency> {
    let mined = mine_inclusion_dependencies(db, config);
    let mut added = Vec::new();
    for dep in mined {
        let duplicate = knowledge
            .specs_between(&dep.from.0, &dep.to.0)
            .iter()
            .any(|s| {
                s.attr_pairs.len() == 1
                    && ((s.rel_a == dep.from.0
                        && s.attr_pairs[0].0 == dep.from.1
                        && s.attr_pairs[0].1 == dep.to.1)
                        || (s.rel_b == dep.from.0
                            && s.attr_pairs[0].1 == dep.from.1
                            && s.attr_pairs[0].0 == dep.to.1))
            });
        if !duplicate {
            knowledge.add_spec(dep.to_spec());
            added.push(dep);
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::constraints::ForeignKey;
    use clio_relational::relation::RelationBuilder;

    /// A miniature of the paper database: declared FKs mid/fid, plus the
    /// undeclared SBPS and bazaar links that mining should discover.
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            RelationBuilder::new("Children")
                .attr_not_null("ID", DataType::Str)
                .attr("mid", DataType::Str)
                .attr("fid", DataType::Str)
                .row(vec!["001".into(), "201".into(), "202".into()])
                .row(vec!["002".into(), "203".into(), "204".into()])
                .row(vec!["004".into(), Value::Null, "202".into()])
                .row(vec!["009".into(), "206".into(), "207".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("Parents")
                .attr_not_null("ID", DataType::Str)
                .row(vec!["201".into()])
                .row(vec!["202".into()])
                .row(vec!["203".into()])
                .row(vec!["204".into()])
                .row(vec!["205".into()])
                .row(vec!["206".into()])
                .row(vec!["207".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("SBPS")
                .attr_not_null("ID", DataType::Str)
                .attr("time", DataType::Str)
                .row(vec!["001".into(), "8:05".into()])
                .row(vec!["002".into(), "8:15".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.add_relation(
            RelationBuilder::new("XmasBazaar")
                .attr("seller", DataType::Str)
                .attr("buyer", DataType::Str)
                .row(vec!["002".into(), "001".into()])
                .row(vec!["009".into(), "002".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.constraints.foreign_keys.extend([
            ForeignKey::simple("Children", "mid", "Parents", "ID"),
            ForeignKey::simple("Children", "fid", "Parents", "ID"),
        ]);
        db
    }

    fn strict() -> MiningConfig {
        MiningConfig {
            min_containment: 1.0,
            min_shared_values: 2,
            require_same_type: true,
        }
    }

    #[test]
    fn mining_rediscovers_the_declared_foreign_keys() {
        let mined = mine_inclusion_dependencies(&db(), &strict());
        let has = |from: (&str, &str), to: (&str, &str)| {
            mined.iter().any(|d| {
                d.from == (from.0.to_owned(), from.1.to_owned())
                    && d.to == (to.0.to_owned(), to.1.to_owned())
            })
        };
        assert!(has(("Children", "mid"), ("Parents", "ID")));
        assert!(has(("Children", "fid"), ("Parents", "ID")));
    }

    #[test]
    fn mining_discovers_the_undeclared_links() {
        let mined = mine_inclusion_dependencies(&db(), &strict());
        // SBPS.ID is contained in Children.ID — the Figure-5 chase link
        assert!(mined
            .iter()
            .any(|d| d.from == ("SBPS".into(), "ID".into())
                && d.to == ("Children".into(), "ID".into())));
        assert!(mined
            .iter()
            .any(|d| d.from == ("XmasBazaar".into(), "seller".into())
                && d.to == ("Children".into(), "ID".into())));
    }

    #[test]
    fn containment_threshold_filters_weak_candidates() {
        // Children.ID only half-contained in SBPS.ID (2/4)
        let loose = MiningConfig {
            min_containment: 0.4,
            ..strict()
        };
        let mined = mine_inclusion_dependencies(&db(), &loose);
        assert!(mined
            .iter()
            .any(|d| d.from == ("Children".into(), "ID".into())
                && d.to == ("SBPS".into(), "ID".into())));
        let tight = mine_inclusion_dependencies(&db(), &strict());
        assert!(!tight
            .iter()
            .any(|d| d.from == ("Children".into(), "ID".into())
                && d.to == ("SBPS".into(), "ID".into())));
    }

    #[test]
    fn min_shared_values_filters_coincidences() {
        let config = MiningConfig {
            min_shared_values: 3,
            ..strict()
        };
        for d in mine_inclusion_dependencies(&db(), &config) {
            assert!(d.shared_values >= 3);
        }
    }

    #[test]
    fn enrich_skips_declared_foreign_keys() {
        let database = db();
        let mut knowledge = SchemaKnowledge::from_database(&database);
        let before = knowledge.specs().len();
        assert_eq!(before, 2);
        let added = enrich_knowledge(&mut knowledge, &database, &strict());
        for dep in &added {
            assert!(
                !(dep.from.0 == "Children"
                    && (dep.from.1 == "mid" || dep.from.1 == "fid")
                    && dep.to == ("Parents".into(), "ID".into())),
                "declared FK re-added: {dep:?}"
            );
        }
        assert_eq!(knowledge.specs().len(), before + added.len());
        // now a walk can reach SBPS without a chase
        assert!(!knowledge.paths("Children", "SBPS", 2).is_empty());
    }

    #[test]
    fn results_are_deterministic_and_ranked() {
        let a = mine_inclusion_dependencies(&db(), &strict());
        let b = mine_inclusion_dependencies(&db(), &strict());
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].shared_values >= w[1].shared_values);
        }
    }
}

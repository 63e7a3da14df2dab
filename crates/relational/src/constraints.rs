//! Schema constraints: keys, foreign keys, and not-null declarations.
//!
//! Clio mines and uses constraints in two ways (paper Secs 2, 5.1):
//! foreign keys seed the *schema knowledge* that powers data walks
//! (`Children.mid → Parents.ID`, `Children.fid → Parents.ID`), and target
//! not-null constraints become target filters (`Kids.ID <> null`).

use std::collections::HashSet;
use std::fmt;

use crate::database::Database;
use crate::error::{Error, Result};
use crate::value::Value;

/// A (candidate) key: the listed attributes uniquely identify tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// The constrained relation.
    pub relation: String,
    /// The key attributes.
    pub attrs: Vec<String>,
}

impl Key {
    /// Construct a key constraint.
    pub fn new(relation: impl Into<String>, attrs: Vec<&str>) -> Key {
        Key {
            relation: relation.into(),
            attrs: attrs.into_iter().map(str::to_owned).collect(),
        }
    }

    /// Check the key over a database instance. Tuples null on any key
    /// attribute are skipped (SQL unique semantics).
    pub fn check(&self, db: &Database) -> Result<()> {
        let rel = db.relation(&self.relation)?;
        let idxs: Vec<usize> = self
            .attrs
            .iter()
            .map(|a| rel.schema().index_of(a))
            .collect::<Result<_>>()?;
        let mut seen: HashSet<Vec<&Value>> = HashSet::with_capacity(rel.len());
        for row in rel.rows() {
            let key: Vec<&Value> = idxs.iter().map(|&i| &row[i]).collect();
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            if !seen.insert(key) {
                return Err(Error::KeyViolation {
                    relation: self.relation.clone(),
                    key: self.attrs.join(", "),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key {}({})", self.relation, self.attrs.join(", "))
    }
}

/// A foreign key: `from_relation.from_attrs` references
/// `to_relation.to_attrs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing relation.
    pub from_relation: String,
    /// Referencing attributes.
    pub from_attrs: Vec<String>,
    /// Referenced relation.
    pub to_relation: String,
    /// Referenced attributes (typically a key of `to_relation`).
    pub to_attrs: Vec<String>,
}

impl ForeignKey {
    /// Construct a single-attribute foreign key (the common case in the
    /// paper: `Children.mid → Parents.ID`).
    pub fn simple(
        from_relation: impl Into<String>,
        from_attr: impl Into<String>,
        to_relation: impl Into<String>,
        to_attr: impl Into<String>,
    ) -> ForeignKey {
        ForeignKey {
            from_relation: from_relation.into(),
            from_attrs: vec![from_attr.into()],
            to_relation: to_relation.into(),
            to_attrs: vec![to_attr.into()],
        }
    }

    /// Check referential integrity over a database instance. Tuples null on
    /// any referencing attribute are exempt (SQL `MATCH SIMPLE`).
    pub fn check(&self, db: &Database) -> Result<()> {
        if self.from_attrs.len() != self.to_attrs.len() {
            return Err(Error::Invalid(format!(
                "foreign key arity mismatch: {} vs {}",
                self.from_attrs.len(),
                self.to_attrs.len()
            )));
        }
        let from = db.relation(&self.from_relation)?;
        let to = db.relation(&self.to_relation)?;
        let from_idx: Vec<usize> = self
            .from_attrs
            .iter()
            .map(|a| from.schema().index_of(a))
            .collect::<Result<_>>()?;
        let to_idx: Vec<usize> = self
            .to_attrs
            .iter()
            .map(|a| to.schema().index_of(a))
            .collect::<Result<_>>()?;
        // A nested-loop scan on purpose: references match under SQL
        // `sql_eq`, which equates `0.0` with `-0.0` and never matches NaN,
        // while `Value`'s `Hash` follows the total order. A hash lookup
        // would need its own SQL-equality key.
        'outer: for row in from.rows() {
            let probe: Vec<&Value> = from_idx.iter().map(|&i| &row[i]).collect();
            if probe.iter().any(|v| v.is_null()) {
                continue;
            }
            for target in to.rows() {
                if to_idx
                    .iter()
                    .zip(&probe)
                    .all(|(&ti, pv)| target[ti].sql_eq(pv).passes())
                {
                    continue 'outer;
                }
            }
            return Err(Error::Invalid(format!(
                "foreign key violation: {}({}) value {:?} not found in {}({})",
                self.from_relation,
                self.from_attrs.join(","),
                probe.iter().map(ToString::to_string).collect::<Vec<_>>(),
                self.to_relation,
                self.to_attrs.join(","),
            )));
        }
        Ok(())
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fk {}({}) -> {}({})",
            self.from_relation,
            self.from_attrs.join(", "),
            self.to_relation,
            self.to_attrs.join(", ")
        )
    }
}

/// The constraint set attached to a database schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Constraints {
    /// Declared keys.
    pub keys: Vec<Key>,
    /// Declared foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl Constraints {
    /// No constraints.
    #[must_use]
    pub fn none() -> Constraints {
        Constraints::default()
    }

    /// Foreign keys leaving `relation`.
    #[must_use]
    pub fn fks_from(&self, relation: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.from_relation == relation)
            .collect()
    }

    /// Validate every constraint against a database instance.
    pub fn check_all(&self, db: &Database) -> Result<()> {
        for k in &self.keys {
            k.check(db)?;
        }
        for fk in &self.foreign_keys {
            fk.check(db)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn db() -> Database {
        let parents = RelationBuilder::new("Parents")
            .attr_not_null("ID", DataType::Str)
            .attr("affiliation", DataType::Str)
            .row(vec!["201".into(), "IBM".into()])
            .row(vec!["202".into(), "UofT".into()])
            .build()
            .unwrap();
        let children = RelationBuilder::new("Children")
            .attr_not_null("ID", DataType::Str)
            .attr("mid", DataType::Str)
            .row(vec!["001".into(), "201".into()])
            .row(vec!["002".into(), Value::Null])
            .build()
            .unwrap();
        let mut db = Database::new();
        db.add_relation(parents).unwrap();
        db.add_relation(children).unwrap();
        db
    }

    #[test]
    fn key_check_passes_on_unique_values() {
        Key::new("Parents", vec!["ID"]).check(&db()).unwrap();
    }

    #[test]
    fn key_check_detects_duplicates() {
        let mut database = db();
        database
            .relation_mut("Parents")
            .unwrap()
            .insert(vec!["201".into(), "MIT".into()])
            .unwrap();
        let err = Key::new("Parents", vec!["ID"])
            .check(&database)
            .unwrap_err();
        assert!(matches!(err, Error::KeyViolation { .. }));
    }

    #[test]
    fn composite_key_checked_jointly() {
        let mut database = db();
        // (ID, affiliation) pairs remain unique even if we repeat an ID
        database
            .relation_mut("Parents")
            .unwrap()
            .insert(vec!["201".into(), "MIT".into()])
            .unwrap();
        Key::new("Parents", vec!["ID", "affiliation"])
            .check(&database)
            .unwrap();
    }

    #[test]
    fn fk_check_passes_and_skips_nulls() {
        ForeignKey::simple("Children", "mid", "Parents", "ID")
            .check(&db())
            .unwrap();
    }

    #[test]
    fn fk_check_detects_dangling_reference() {
        let mut database = db();
        database
            .relation_mut("Children")
            .unwrap()
            .insert(vec!["003".into(), "999".into()])
            .unwrap();
        assert!(ForeignKey::simple("Children", "mid", "Parents", "ID")
            .check(&database)
            .is_err());
    }

    #[test]
    fn constraint_set_navigation() {
        let mut c = Constraints::none();
        c.foreign_keys
            .push(ForeignKey::simple("Children", "mid", "Parents", "ID"));
        c.foreign_keys
            .push(ForeignKey::simple("Children", "fid", "Parents", "ID"));
        c.foreign_keys
            .push(ForeignKey::simple("PhoneDir", "ID", "Parents", "ID"));
        assert_eq!(c.fks_from("Children").len(), 2);
        assert!(c.fks_from("Parents").is_empty());
    }

    #[test]
    fn check_all_aggregates() {
        let mut c = Constraints::none();
        c.keys.push(Key::new("Parents", vec!["ID"]));
        c.foreign_keys
            .push(ForeignKey::simple("Children", "mid", "Parents", "ID"));
        c.check_all(&db()).unwrap();
    }

    #[test]
    fn displays() {
        assert_eq!(Key::new("P", vec!["ID"]).to_string(), "key P(ID)");
        assert_eq!(
            ForeignKey::simple("C", "mid", "P", "ID").to_string(),
            "fk C(mid) -> P(ID)"
        );
    }
}

//! CSV import/export for databases.
//!
//! A database serializes to a directory: one `<Relation>.csv` per
//! relation plus a `_schema.txt` manifest declaring attribute types,
//! `NOT NULL` markers, keys, and foreign keys. This is how real source
//! data gets into a mapping session (`clio-shell --source <dir>`).
//!
//! CSV conventions: RFC-4180-style quoting (`"` doubled inside quoted
//! fields); an *unquoted empty* field is SQL null, a *quoted empty*
//! field (`""`) is the empty string.

use std::fmt::Write as _;
use std::path::Path;

use crate::constraints::{ForeignKey, Key};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::{Attribute, RelSchema};
use crate::value::{DataType, Value};

/// Render one CSV field.
fn write_field(out: &mut String, v: &Value) {
    match v {
        Value::Null => {}
        Value::Str(s) => {
            if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
                out.push('"');
                out.push_str(&s.replace('"', "\"\""));
                out.push('"');
            } else {
                out.push_str(s);
            }
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

/// Serialize a relation to CSV text (header row = attribute names).
#[must_use]
pub fn relation_to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    let names: Vec<&str> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for row in rel.rows() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_field(&mut out, v);
        }
        out.push('\n');
    }
    out
}

/// Split CSV text into records. Splitting must be quote-aware: the
/// writer quotes fields containing `\n`/`\r`, so a record boundary is a
/// `\n` (or `\r\n`) *outside* quotes only — a line-based split would
/// tear legally-written multi-line fields apart.
fn split_records(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                records.push(&text[start..end]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < bytes.len() {
        records.push(&text[start..]);
    }
    records
}

/// Split one CSV record into raw fields (`None` = unquoted empty = null).
fn parse_record(line: &str) -> Result<Vec<Option<String>>> {
    let mut fields: Vec<Option<String>> = Vec::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    loop {
        if i >= chars.len() {
            fields.push(None); // trailing empty field
            break;
        }
        if chars[i] == '"' {
            // quoted field
            let mut s = String::new();
            i += 1;
            loop {
                match chars.get(i) {
                    None => return Err(Error::Invalid("unterminated quoted CSV field".into())),
                    Some('"') if chars.get(i + 1) == Some(&'"') => {
                        s.push('"');
                        i += 2;
                    }
                    Some('"') => {
                        i += 1;
                        break;
                    }
                    Some(c) => {
                        s.push(*c);
                        i += 1;
                    }
                }
            }
            fields.push(Some(s));
            match chars.get(i) {
                None => break,
                Some(',') => i += 1,
                Some(c) => {
                    return Err(Error::Invalid(format!(
                        "unexpected `{c}` after quoted field"
                    )))
                }
            }
        } else {
            let start = i;
            while i < chars.len() && chars[i] != ',' {
                i += 1;
            }
            let raw: String = chars[start..i].iter().collect();
            fields.push(if raw.is_empty() { None } else { Some(raw) });
            if i < chars.len() {
                i += 1; // skip comma
            } else {
                break;
            }
        }
    }
    Ok(fields)
}

fn parse_value(raw: Option<String>, ty: DataType) -> Result<Value> {
    let Some(s) = raw else {
        return Ok(Value::Null);
    };
    Ok(match ty {
        DataType::Str => Value::str(s),
        DataType::Int => Value::Int(
            s.trim()
                .parse()
                .map_err(|_| Error::Invalid(format!("invalid int `{s}` in CSV")))?,
        ),
        DataType::Float => Value::Float(
            s.trim()
                .parse()
                .map_err(|_| Error::Invalid(format!("invalid float `{s}` in CSV")))?,
        ),
        DataType::Bool => match s.trim() {
            "true" | "TRUE" | "1" => Value::Bool(true),
            "false" | "FALSE" | "0" => Value::Bool(false),
            other => return Err(Error::Invalid(format!("invalid bool `{other}` in CSV"))),
        },
    })
}

/// Parse CSV text into a relation under the given schema. The header row
/// must match the schema's attribute names in order.
pub fn relation_from_csv(schema: RelSchema, text: &str) -> Result<Relation> {
    let mut records = split_records(text).into_iter();
    let header = records
        .next()
        .ok_or_else(|| Error::Invalid("empty CSV: missing header".into()))?;
    let expected: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_str()).collect();
    let got: Vec<&str> = header.split(',').collect();
    if got != expected {
        return Err(Error::Invalid(format!(
            "CSV header {got:?} does not match schema attributes {expected:?}"
        )));
    }
    let mut rows = Vec::new();
    for record in records {
        if record.is_empty() {
            continue;
        }
        let fields = parse_record(record)?;
        if fields.len() != schema.arity() {
            return Err(Error::ArityMismatch {
                expected: schema.arity(),
                got: fields.len(),
            });
        }
        let row: Vec<Value> = fields
            .into_iter()
            .zip(schema.attrs())
            .map(|(f, a)| parse_value(f, a.ty))
            .collect::<Result<_>>()?;
        rows.push(row);
    }
    Relation::with_rows(schema, rows)
}

/// The `_schema.txt` manifest for a database.
#[must_use]
pub fn schema_manifest(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.relations() {
        let _ = write!(out, "relation {} (", rel.name());
        for (i, a) in rel.schema().attrs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {}", a.name, a.ty);
            if a.not_null {
                out.push_str(" not null");
            }
        }
        out.push_str(")\n");
    }
    for k in &db.constraints.keys {
        let _ = writeln!(out, "key {} ({})", k.relation, k.attrs.join(", "));
    }
    for fk in &db.constraints.foreign_keys {
        let _ = writeln!(
            out,
            "fk {} ({}) -> {} ({})",
            fk.from_relation,
            fk.from_attrs.join(", "),
            fk.to_relation,
            fk.to_attrs.join(", ")
        );
    }
    out
}

fn parse_type(s: &str) -> Result<DataType> {
    match s {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "str" => Ok(DataType::Str),
        "bool" => Ok(DataType::Bool),
        other => Err(Error::Invalid(format!(
            "unknown type `{other}` in schema manifest"
        ))),
    }
}

fn parse_name_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(|x| x.trim().to_owned())
        .filter(|x| !x.is_empty())
        .collect()
}

/// Parse a `_schema.txt` manifest into schemas + constraints (relations
/// come back empty; data loads from the CSVs).
pub fn parse_manifest(text: &str) -> Result<(Vec<RelSchema>, Vec<Key>, Vec<ForeignKey>)> {
    let mut schemas = Vec::new();
    let mut keys = Vec::new();
    let mut fks = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err =
            |msg: String| Error::Invalid(format!("schema manifest line {}: {msg}", lineno + 1));
        if let Some(rest) = line.strip_prefix("relation ") {
            let (name, attrs_part) = rest
                .split_once('(')
                .ok_or_else(|| err("relation line needs `(attrs)`".into()))?;
            let attrs_part = attrs_part
                .strip_suffix(')')
                .ok_or_else(|| err("relation line missing `)`".into()))?;
            let mut attrs = Vec::new();
            for spec in attrs_part.split(',') {
                let spec = spec.trim();
                if spec.is_empty() {
                    continue;
                }
                let mut words = spec.split_whitespace();
                let aname = words
                    .next()
                    .ok_or_else(|| err("empty attribute spec".into()))?;
                let ty = parse_type(
                    words
                        .next()
                        .ok_or_else(|| err(format!("attribute `{aname}` missing type")))?,
                )?;
                let rest: Vec<&str> = words.collect();
                let not_null = rest == ["not", "null"];
                if !not_null && !rest.is_empty() {
                    return Err(err(format!("unexpected modifier `{}`", rest.join(" "))));
                }
                attrs.push(if not_null {
                    Attribute::not_null(aname, ty)
                } else {
                    Attribute::new(aname, ty)
                });
            }
            schemas.push(RelSchema::new(name.trim(), attrs)?);
        } else if let Some(rest) = line.strip_prefix("key ") {
            let (rel, attrs) = rest
                .split_once('(')
                .ok_or_else(|| err("key line needs `(attrs)`".into()))?;
            let attrs = attrs
                .strip_suffix(')')
                .ok_or_else(|| err("key line missing `)`".into()))?;
            keys.push(Key {
                relation: rel.trim().to_owned(),
                attrs: parse_name_list(attrs),
            });
        } else if let Some(rest) = line.strip_prefix("fk ") {
            let (from, to) = rest
                .split_once("->")
                .ok_or_else(|| err("fk line needs `->`".into()))?;
            let parse_side = |side: &str| -> Result<(String, Vec<String>)> {
                let (rel, attrs) = side
                    .split_once('(')
                    .ok_or_else(|| err("fk side needs `(attrs)`".into()))?;
                let attrs = attrs
                    .trim()
                    .strip_suffix(')')
                    .ok_or_else(|| err("fk side missing `)`".into()))?;
                Ok((rel.trim().to_owned(), parse_name_list(attrs)))
            };
            let (from_relation, from_attrs) = parse_side(from)?;
            let (to_relation, to_attrs) = parse_side(to)?;
            fks.push(ForeignKey {
                from_relation,
                from_attrs,
                to_relation,
                to_attrs,
            });
        } else {
            return Err(err(format!("unknown directive in `{line}`")));
        }
    }
    Ok((schemas, keys, fks))
}

/// Write a database to `dir` (created if missing): `_schema.txt` plus one
/// CSV per relation.
pub fn write_database(db: &Database, dir: &Path) -> Result<()> {
    let io_err = |e: std::io::Error| Error::Invalid(format!("csv export: {e}"));
    std::fs::create_dir_all(dir).map_err(io_err)?;
    std::fs::write(dir.join("_schema.txt"), schema_manifest(db)).map_err(io_err)?;
    for rel in db.relations() {
        std::fs::write(
            dir.join(format!("{}.csv", rel.name())),
            relation_to_csv(rel),
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Load a database from a directory written by [`write_database`] (or
/// hand-authored in the same layout).
pub fn read_database(dir: &Path) -> Result<Database> {
    let io_err = |e: std::io::Error| Error::Invalid(format!("csv import: {e}"));
    let manifest = std::fs::read_to_string(dir.join("_schema.txt")).map_err(io_err)?;
    let (schemas, keys, fks) = parse_manifest(&manifest)?;
    let mut db = Database::new();
    for schema in schemas {
        let name = schema.name().to_owned();
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).map_err(io_err)?;
        db.add_relation(relation_from_csv(schema, &csv)?)?;
    }
    db.constraints.keys = keys;
    db.constraints.foreign_keys = fks;
    db.check_constraints()?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;

    fn tricky_relation() -> Relation {
        RelationBuilder::new("Tricky")
            .attr_not_null("id", DataType::Int)
            .attr("text", DataType::Str)
            .attr("score", DataType::Float)
            .attr("flag", DataType::Bool)
            .row(vec![
                1i64.into(),
                "plain".into(),
                1.5f64.into(),
                true.into(),
            ])
            .row(vec![
                2i64.into(),
                "comma, inside".into(),
                Value::Null,
                false.into(),
            ])
            .row(vec![
                3i64.into(),
                "quote \" here".into(),
                (-0.25f64).into(),
                Value::Null,
            ])
            .row(vec![4i64.into(), "".into(), 0f64.into(), true.into()]) // empty string != null
            .row(vec![5i64.into(), Value::Null, 2f64.into(), false.into()])
            .build()
            .unwrap()
    }

    #[test]
    fn relation_round_trips_through_csv() {
        let rel = tricky_relation();
        let csv = relation_to_csv(&rel);
        let back = relation_from_csv(rel.schema().clone(), &csv).unwrap();
        assert_eq!(back.rows(), rel.rows());
    }

    #[test]
    fn embedded_newlines_round_trip() {
        let rel = RelationBuilder::new("Multi")
            .attr_not_null("id", DataType::Int)
            .attr("text", DataType::Str)
            .row(vec![1i64.into(), "line one\nline two".into()])
            .row(vec![2i64.into(), "crlf\r\nhere".into()])
            .row(vec![3i64.into(), "both \"quoted\"\nand broken".into()])
            .row(vec![4i64.into(), "ends with cr\r".into()])
            .build()
            .unwrap();
        let csv = relation_to_csv(&rel);
        let back = relation_from_csv(rel.schema().clone(), &csv).unwrap();
        assert_eq!(back.rows(), rel.rows());
    }

    #[test]
    fn crlf_record_separators_are_accepted() {
        let schema = RelSchema::new(
            "R",
            vec![
                Attribute::not_null("n", DataType::Int),
                Attribute::new("s", DataType::Str),
            ],
        )
        .unwrap();
        // Hand-written file with CRLF record separators and a quoted
        // field spanning records; `""` is a doubled quote inside it.
        let text = "n,s\r\n1,a\r\n2,\"x\r\ny \"\" z\"\r\n";
        let rel = relation_from_csv(schema, text).unwrap();
        assert_eq!(rel.rows()[0][1], Value::str("a"));
        assert_eq!(rel.rows()[1][1], Value::str("x\r\ny \" z"));
    }

    #[test]
    fn null_and_empty_string_are_distinguished() {
        let rel = tricky_relation();
        let csv = relation_to_csv(&rel);
        let back = relation_from_csv(rel.schema().clone(), &csv).unwrap();
        assert_eq!(back.rows()[3][1], Value::str(""));
        assert!(back.rows()[4][1].is_null());
    }

    #[test]
    fn header_mismatch_rejected() {
        let rel = tricky_relation();
        let schema =
            RelSchema::new("Tricky", vec![Attribute::new("wrong", DataType::Int)]).unwrap();
        assert!(relation_from_csv(schema, &relation_to_csv(&rel)).is_err());
    }

    #[test]
    fn bad_values_are_reported() {
        let schema = RelSchema::new("R", vec![Attribute::new("n", DataType::Int)]).unwrap();
        assert!(relation_from_csv(schema.clone(), "n\nxyz\n").is_err());
        assert!(relation_from_csv(schema.clone(), "n\n\"unterminated\n").is_err());
        let schema_b = RelSchema::new("R", vec![Attribute::new("b", DataType::Bool)]).unwrap();
        assert!(relation_from_csv(schema_b, "b\nmaybe\n").is_err());
        // arity mismatch
        assert!(relation_from_csv(schema, "n\n1,2\n").is_err());
    }

    #[test]
    fn manifest_round_trips() {
        let mut db = Database::new();
        db.add_relation(tricky_relation()).unwrap();
        db.constraints.keys.push(Key::new("Tricky", vec!["id"]));
        let manifest = schema_manifest(&db);
        let (schemas, keys, fks) = parse_manifest(&manifest).unwrap();
        assert_eq!(schemas.len(), 1);
        assert_eq!(schemas[0], *db.relation("Tricky").unwrap().schema());
        assert_eq!(keys.len(), 1);
        assert!(fks.is_empty());
    }

    #[test]
    fn database_round_trips_through_directory() {
        let mut db = Database::new();
        db.add_relation(tricky_relation()).unwrap();
        db.add_relation(
            RelationBuilder::new("Other")
                .attr_not_null("k", DataType::Str)
                .row(vec!["1".into()])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.constraints.keys.push(Key::new("Tricky", vec!["id"]));
        let dir = std::env::temp_dir().join(format!("clio_csv_test_{}", std::process::id()));
        write_database(&db, &dir).unwrap();
        let back = read_database(&dir).unwrap();
        assert_eq!(back, db);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constraint_violations_fail_the_load() {
        let dir = std::env::temp_dir().join(format!("clio_csv_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("_schema.txt"),
            "relation R (id int not null)\nkey R (id)\n",
        )
        .unwrap();
        std::fs::write(dir.join("R.csv"), "id\n1\n1\n").unwrap();
        // duplicate key value -> constraint check fails... but relations
        // are sets, so exact duplicates collapse; use distinct rows that
        // collide on the declared key after adding a second attribute
        std::fs::write(
            dir.join("_schema.txt"),
            "relation R (id int not null, x str)\nkey R (id)\n",
        )
        .unwrap();
        std::fs::write(dir.join("R.csv"), "id,x\n1,a\n1,b\n").unwrap();
        assert!(read_database(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_parse_errors_are_located() {
        assert!(parse_manifest("relation R id int").is_err());
        assert!(parse_manifest("relation R (id frobs)").is_err());
        assert!(parse_manifest("nonsense").is_err());
        assert!(parse_manifest("fk A (x) B (y)").is_err());
        // comments and blanks are fine
        parse_manifest("# comment\n\nrelation R (id int)\n").unwrap();
    }
}

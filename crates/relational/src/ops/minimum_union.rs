//! Outer union and minimum union (paper Def 3.9).
//!
//! The **outer union** of `R1` and `R2` is the union of `R1` padded with
//! nulls on the columns only in `R2` and vice versa. The **minimum union**
//! `R1 ⊕ R2` is the outer union with strictly subsumed tuples removed —
//! the operator at the heart of full disjunctions.
//!
//! Minimum union is commutative but (famously) **not associative** when
//! applied to arbitrary relations (paper Sec 1 discusses why this makes
//! data-merging queries hard to manage); [`minimum_union_all`] therefore
//! combines any number of tables in one step — pad everything onto the
//! unified scheme first ([`outer_union_all`]), then remove subsumed
//! tuples once. Both minimum unions remove them with the engine's pass,
//! [`remove_subsumed_partitioned`]; a caller that wants the definition
//! runs [`outer_union_all`] and then
//! [`remove_subsumed_naive`](crate::ops::remove_subsumed_naive).

use crate::error::Result;
use crate::ops::subsumption::remove_subsumed_partitioned;
use crate::schema::Scheme;
use crate::table::Table;
use crate::value::Value;

/// The unified scheme of several tables: columns of the first, then each
/// new column of subsequent tables in order.
pub fn unified_scheme(tables: &[&Table]) -> Scheme {
    let mut cols = Vec::new();
    for t in tables {
        for c in t.scheme().columns() {
            if !cols
                .iter()
                .any(|d: &crate::schema::Column| d.qualifier == c.qualifier && d.name == c.name)
            {
                cols.push(c.clone());
            }
        }
    }
    Scheme::new(cols)
}

/// Pad a table's rows onto `target` scheme (columns missing from the table
/// become null).
pub fn pad_to(table: &Table, target: &Scheme) -> Result<Table> {
    // position of each target column inside the source table, if present
    let mut out = Table::empty(target.clone());
    let mapping: Vec<Option<usize>> = target
        .columns()
        .iter()
        .map(|c| {
            table
                .scheme()
                .columns()
                .iter()
                .position(|d| d.qualifier == c.qualifier && d.name == c.name)
        })
        .collect();
    // every source column must appear in the target
    debug_assert!(table.scheme().columns().iter().all(|c| target
        .columns()
        .iter()
        .any(|d| d.qualifier == c.qualifier && d.name == c.name)));
    for row in table.rows() {
        out.push(
            mapping
                .iter()
                .map(|m| m.map_or(Value::Null, |i| row[i].clone()))
                .collect(),
        );
    }
    Ok(out)
}

/// Outer union of two tables (duplicates removed — relations are sets).
pub fn outer_union(a: &Table, b: &Table) -> Result<Table> {
    let mut out = outer_union_all(&[a, b])?;
    out.dedup();
    Ok(out)
}

/// Outer union of any number of tables as a bag: each padded onto the
/// unified scheme, their rows concatenated in input order, duplicates
/// kept (a minimum union's pass drops them).
pub fn outer_union_all(tables: &[&Table]) -> Result<Table> {
    let scheme = unified_scheme(tables);
    let mut out = Table::empty(scheme.clone());
    for t in tables {
        for row in pad_to(t, &scheme)?.into_rows() {
            out.push(row);
        }
    }
    Ok(out)
}

/// Minimum union `a ⊕ b`: outer union with strictly subsumed tuples
/// removed.
///
/// ```
/// use clio_relational::prelude::*;
///
/// let ids = Table::new(
///     Scheme::new(vec![Column::new("K", "id", DataType::Str)]),
///     vec![vec!["002".into()]],
/// );
/// let full = Table::new(
///     Scheme::new(vec![
///         Column::new("K", "id", DataType::Str),
///         Column::new("K", "phone", DataType::Str),
///     ]),
///     vec![vec!["002".into(), "555-0103".into()]],
/// );
/// // the bare id tuple is subsumed by the phone-bearing one
/// let merged = minimum_union(&ids, &full).unwrap();
/// assert_eq!(merged.len(), 1);
/// assert_eq!(merged.rows()[0][1], Value::str("555-0103"));
/// ```
pub fn minimum_union(a: &Table, b: &Table) -> Result<Table> {
    let _span = clio_obs::span("ops.minimum_union");
    let mut out = outer_union(a, b)?;
    remove_subsumed_partitioned(&mut out);
    Ok(out)
}

/// N-ary minimum union: [`outer_union_all`], then remove strictly
/// subsumed tuples **once**. Because minimum union is not associative in
/// general, this one-shot form is the correct way to combine the `F(J)`
/// tables of a full disjunction. With no input, the empty table of the
/// empty scheme.
pub fn minimum_union_all(tables: &[&Table]) -> Result<Table> {
    let _span = clio_obs::span("ops.minimum_union_all");
    let mut out = outer_union_all(tables)?;
    remove_subsumed_partitioned(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn children_parents() -> Table {
        // R1 = Children ⋈ Parents (qualified C.*, P.*)
        RelationBuilder::new("CP")
            .attr("cid", DataType::Str)
            .attr("pid", DataType::Str)
            .row(vec!["002".into(), "202".into()])
            .build()
            .unwrap()
            .to_table("CP")
    }

    fn table(qualifier: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Table {
        let mut b = RelationBuilder::new(qualifier);
        for a in attrs {
            b = b.attr(*a, DataType::Str);
        }
        for r in rows {
            b = b.row(r);
        }
        b.build().unwrap().to_table(qualifier)
    }

    #[test]
    fn unified_scheme_keeps_order_first_seen() {
        let a = table("A", &["x", "y"], vec![]);
        let b = table("B", &["z"], vec![]);
        let s = unified_scheme(&[&a, &b]);
        let names: Vec<String> = s.columns().iter().map(|c| c.qualified_name()).collect();
        assert_eq!(names, vec!["A.x", "A.y", "B.z"]);
    }

    #[test]
    fn pad_fills_missing_columns_with_null() {
        let a = table("A", &["x"], vec![vec!["1".into()]]);
        let b = table("B", &["z"], vec![]);
        let s = unified_scheme(&[&a, &b]);
        let padded = pad_to(&a, &s).unwrap();
        assert_eq!(padded.rows()[0], vec![Value::str("1"), Value::Null]);
    }

    #[test]
    fn outer_union_of_disjoint_schemes() {
        let a = table("A", &["x"], vec![vec!["1".into()]]);
        let b = table("B", &["z"], vec![vec!["2".into()]]);
        let u = outer_union(&a, &b).unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.rows()[0], vec![Value::str("1"), Value::Null]);
        assert_eq!(u.rows()[1], vec![Value::Null, Value::str("2")]);
    }

    /// The bag outer union keeps every padded row, duplicates included,
    /// in input order; the set form drops the repeat.
    #[test]
    fn outer_union_all_concatenates_padded_rows_in_order() {
        let a = table("A", &["x"], vec![vec!["1".into()], vec!["2".into()]]);
        let b = table("B", &["z"], vec![vec!["3".into()]]);
        let u = outer_union_all(&[&a, &b, &a]).unwrap();
        let x = |s: &str| vec![Value::str(s), Value::Null];
        assert_eq!(
            u.rows(),
            [
                x("1"),
                x("2"),
                vec![Value::Null, Value::str("3")],
                x("1"),
                x("2")
            ]
        );
        assert_eq!(outer_union(&a, &a).unwrap().rows(), a.rows());
    }

    #[test]
    fn outer_union_same_scheme_is_plain_union() {
        let a = table("A", &["x"], vec![vec!["1".into()], vec!["2".into()]]);
        let b = table("A", &["x"], vec![vec!["2".into()], vec!["3".into()]]);
        let u = outer_union(&a, &b).unwrap();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn minimum_union_removes_subsumed() {
        // Example 3.10 shape: R1 = C⋈P (padded), R2 = C⋈P⋈Ph; if every R1
        // tuple extends to an R2 tuple, R1 ⊕ R2 = R2.
        let r1 = children_parents();
        let r2 = table(
            "Ph",
            &["phid", "number"],
            vec![vec!["202".into(), "555-0102".into()]],
        );
        // emulate r2 as a wider table containing the same C/P columns
        let wide = {
            let s = unified_scheme(&[&r1, &r2]);
            Table::new(
                s,
                vec![vec![
                    "002".into(),
                    "202".into(),
                    "202".into(),
                    "555-0102".into(),
                ]],
            )
        };
        let m = minimum_union(&r1, &wide).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.rows()[0][3], Value::str("555-0102"));
    }

    #[test]
    fn minimum_union_keeps_unextended_tuples() {
        // a parent with no phone survives the minimum union
        let r1 = table(
            "CP2",
            &["cid", "pid"],
            vec![
                vec!["002".into(), "202".into()],
                vec!["009".into(), "205".into()],
            ],
        );
        let s = unified_scheme(&[&r1, &table("Ph", &["number"], vec![])]);
        let wide = Table::new(s, vec![vec!["002".into(), "202".into(), "555".into()]]);
        let m = minimum_union(&r1, &wide).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn nary_minimum_union_is_order_insensitive() {
        let a = table("A", &["x"], vec![vec!["1".into()]]);
        let b = table("B", &["y"], vec![vec!["2".into()]]);
        let s = unified_scheme(&[&a, &b]);
        let ab = Table::new(s, vec![vec!["1".into(), "2".into()]]);
        let m1 = minimum_union_all(&[&a, &b, &ab]).unwrap();
        let m2 = minimum_union_all(&[&ab, &b, &a]).unwrap();
        assert_eq!(m1.len(), 1);
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn empty_input_list() {
        let m = minimum_union_all(&[]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.scheme().arity(), 0);
    }
}

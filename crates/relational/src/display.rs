//! ASCII rendering of schemes and tables.
//!
//! The paper communicates everything through small data tables (Figures 1,
//! 2, 3, 4, 5, 8, 9). This module renders relations, derived tables, and
//! tagged data-association tables in that style so the `figures` binary can
//! regenerate each one.

use crate::schema::Scheme;
use crate::value::Value;

/// Render a table with qualified headers. `tags`, when non-empty, must have
/// one entry per row and is rendered as a trailing untitled column — the
/// paper uses this for coverage tags like `CPPh` and polarity marks.
#[must_use]
pub fn render_table(scheme: &Scheme, rows: &[Vec<Value>], tags: &[String]) -> String {
    let has_tags = !tags.is_empty();
    debug_assert!(!has_tags || tags.len() == rows.len());

    let mut headers: Vec<String> = scheme
        .columns()
        .iter()
        .map(|c| c.qualified_name())
        .collect();
    if has_tags {
        headers.push(String::new());
    }

    let mut grid: Vec<Vec<String>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let mut cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        if has_tags {
            cells.push(tags[i].clone());
        }
        grid.push(cells);
    }

    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &grid {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }

    let mut out = String::new();
    let rule = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };

    rule(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    rule(&mut out);
    for row in &grid {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    rule(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn table() -> (Scheme, Vec<Vec<Value>>) {
        let rel = RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .attr("age", DataType::Int)
            .row(vec!["002".into(), 4i64.into()])
            .row(vec!["009".into(), Value::Null])
            .build()
            .unwrap();
        let t = rel.to_table("C");
        (t.scheme().clone(), t.rows().to_vec())
    }

    #[test]
    fn renders_headers_rows_and_rules() {
        let (scheme, rows) = table();
        let s = render_table(&scheme, &rows, &[]);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with('+'));
        assert!(lines[1].contains("C.ID"));
        assert!(lines[1].contains("C.age"));
        assert!(lines[3].contains("002"));
        assert!(lines[4].contains('-')); // null cell
        assert_eq!(lines.len(), 6); // rule, header, rule, 2 rows, rule
    }

    #[test]
    fn tags_render_as_trailing_column() {
        let (scheme, rows) = table();
        let s = render_table(&scheme, &rows, &["CPPh +".into(), "PPh -".into()]);
        assert!(s.contains("CPPh +"));
        assert!(s.contains("PPh -"));
    }

    #[test]
    fn column_widths_accommodate_long_cells() {
        let (scheme, mut rows) = table();
        rows.push(vec!["a-very-long-identifier".into(), 1i64.into()]);
        let s = render_table(&scheme, &rows, &[]);
        for line in s.lines().filter(|l| l.starts_with('|')) {
            assert_eq!(line.len(), s.lines().next().unwrap().len());
        }
    }

    #[test]
    fn empty_table_renders_header_only() {
        let (scheme, _) = table();
        let s = render_table(&scheme, &[], &[]);
        assert!(s.contains("C.ID"));
        assert_eq!(s.lines().count(), 4);
    }
}

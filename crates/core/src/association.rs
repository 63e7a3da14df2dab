//! Data associations and their coverage (paper Defs 3.5–3.7, 3.11).
//!
//! A *data association* of a query graph `G` is a tuple over the combined
//! scheme of all of `G`'s nodes; its **coverage** is the set of nodes it
//! involves (non-null). An [`AssociationSet`] is the materialized `D(G)`:
//! a wide table plus the coverage mask of each row.

use clio_relational::error::Result;
use clio_relational::schema::Scheme;
use clio_relational::table::Table;
use clio_relational::value::Value;

use crate::query_graph::QueryGraph;

/// The coverage mask of every row of `table`, a table over `graph`'s
/// wide scheme: node `i` is covered iff any of its columns is non-null.
/// (Stored relations reject all-null tuples, so this is exact.) Each
/// node's columns are resolved once for the table, not once per row.
fn coverages(graph: &QueryGraph, table: &Table) -> Vec<u64> {
    let columns: Vec<Vec<usize>> = graph
        .nodes()
        .iter()
        .map(|node| table.scheme().indexes_of_qualifier(&node.alias))
        .collect();
    table
        .rows()
        .iter()
        .map(|row| {
            columns
                .iter()
                .enumerate()
                .filter(|(_, cols)| cols.iter().any(|&k| !row[k].is_null()))
                .fold(0, |mask, (i, _)| mask | 1 << i)
        })
        .collect()
}

/// The materialized set of data associations `D(G)` of a mapping's query
/// graph: a table over the graph's wide scheme, with per-row coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationSet {
    table: Table,
    coverages: Vec<u64>,
}

impl AssociationSet {
    /// Wrap a table of associations, computing each row's coverage.
    #[must_use]
    pub fn from_table(graph: &QueryGraph, table: Table) -> AssociationSet {
        let coverages = coverages(graph, &table);
        AssociationSet { table, coverages }
    }

    /// A table of associations with each row's coverage already known
    /// (the tree plan reads it off the tuple ids).
    pub(crate) fn with_coverages(table: Table, coverages: Vec<u64>) -> AssociationSet {
        debug_assert_eq!(table.len(), coverages.len());
        AssociationSet { table, coverages }
    }

    /// The underlying wide table.
    #[must_use]
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The scheme of the associations.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        self.table.scheme()
    }

    /// Row data of association `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.table.rows()[i]
    }

    /// Coverage mask of association `i`.
    #[must_use]
    pub fn coverage(&self, i: usize) -> u64 {
        self.coverages[i]
    }

    /// Number of associations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the set empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The distinct coverage masks present, ascending by (popcount, mask).
    /// These are the paper's non-empty *categories* of `D(G)` (Sec 4.2).
    #[must_use]
    pub fn categories(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for &c in &self.coverages {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out.sort_by_key(|&m| (m.count_ones(), m));
        out
    }

    /// Indexes of associations with the given coverage.
    #[must_use]
    pub fn in_category(&self, coverage: u64) -> Vec<usize> {
        self.coverages
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == coverage)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sort rows canonically (value order), keeping coverage tags aligned.
    /// Used for deterministic figure rendering and golden tests.
    pub fn sort_canonical(&mut self, graph: &QueryGraph) {
        let mut rows = std::mem::take(self.table.rows_mut());
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        *self.table.rows_mut() = rows;
        self.coverages = coverages(graph, &self.table);
    }

    /// Render as the paper's Figure-8 style table: rows tagged with their
    /// coverage (`CPPh`, `PPh`, …).
    #[must_use]
    pub fn render(&self, graph: &QueryGraph) -> String {
        let tags: Vec<String> = self
            .coverages
            .iter()
            .map(|&c| graph.coverage_tag(c))
            .collect();
        clio_relational::display::render_table(self.table.scheme(), self.table.rows(), &tags)
    }

    /// Pad a row over a sub-scheme into a full-width association row —
    /// Def 3.6's "padded with nulls on all attributes in `N − N_J`".
    pub fn pad_row(full: &Scheme, sub: &Scheme, row: &[Value]) -> Result<Vec<Value>> {
        let positions = full.positions_of(sub)?;
        let mut out = vec![Value::Null; full.arity()];
        for (src, &dst) in positions.iter().enumerate() {
            out[dst] = row[src].clone();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::Node;
    use clio_relational::expr::Expr;
    use clio_relational::schema::Column;
    use clio_relational::value::DataType;

    fn graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        g.add_node(Node::new("C")).unwrap();
        g.add_node(Node::new("P")).unwrap();
        g.add_edge(0, 1, Expr::col_eq("C.mid", "P.ID")).unwrap();
        g
    }

    fn scheme() -> Scheme {
        Scheme::new(vec![
            Column::new("C", "ID", DataType::Str),
            Column::new("C", "mid", DataType::Str),
            Column::new("P", "ID", DataType::Str),
        ])
    }

    #[test]
    fn coverage_from_non_null_columns() {
        let g = graph();
        let t = Table::new(
            scheme(),
            vec![
                vec!["002".into(), "202".into(), "202".into()],
                vec!["002".into(), Value::Null, Value::Null],
                vec![Value::Null, Value::Null, "205".into()],
            ],
        );
        let a = AssociationSet::from_table(&g, t);
        assert_eq!(
            (a.coverage(0), a.coverage(1), a.coverage(2)),
            (0b11, 0b01, 0b10)
        );
    }

    #[test]
    fn association_set_categories() {
        let g = graph();
        let t = Table::new(
            scheme(),
            vec![
                vec!["002".into(), "202".into(), "202".into()],
                vec!["004".into(), Value::Null, Value::Null],
                vec![Value::Null, Value::Null, "205".into()],
                vec!["001".into(), "201".into(), "201".into()],
            ],
        );
        let a = AssociationSet::from_table(&g, t);
        assert_eq!(a.len(), 4);
        assert_eq!(a.categories(), vec![0b01, 0b10, 0b11]);
        assert_eq!(a.in_category(0b11), vec![0, 3]);
        assert_eq!(a.coverage(1), 0b01);
    }

    #[test]
    fn pad_row_places_values() {
        let full = scheme();
        let sub = Scheme::new(vec![Column::new("P", "ID", DataType::Str)]);
        let padded = AssociationSet::pad_row(&full, &sub, &["205".into()]).unwrap();
        assert_eq!(padded, vec![Value::Null, Value::Null, Value::str("205")]);
    }

    #[test]
    fn render_tags_each_row() {
        let g = graph();
        let t = Table::new(
            scheme(),
            vec![vec!["002".into(), "202".into(), "202".into()]],
        );
        let a = AssociationSet::from_table(&g, t);
        let s = a.render(&g);
        assert!(s.contains("CP"));
        assert!(s.contains("002"));
    }

    #[test]
    fn sort_canonical_keeps_tags_aligned() {
        let g = graph();
        let t = Table::new(
            scheme(),
            vec![
                vec![Value::Null, Value::Null, "205".into()],
                vec!["001".into(), "201".into(), "201".into()],
            ],
        );
        let mut a = AssociationSet::from_table(&g, t);
        a.sort_canonical(&g);
        assert_eq!(a.coverage(0), 0b10); // null-first row sorts first
        assert_eq!(a.coverage(1), 0b11);
    }
}

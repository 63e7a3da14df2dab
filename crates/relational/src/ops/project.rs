//! Projection: compute output columns from expressions.

use crate::error::Result;
use crate::expr::Expr;
use crate::funcs::FuncRegistry;
use crate::schema::{Column, Scheme};
use crate::table::Table;

/// π over expressions: each `(expr, qualifier, name, ty)` becomes an output
/// column. This is how mapping queries apply value correspondences to data
/// associations (paper Def 3.14's `SELECT v_1(...) AS B_1, ...`).
pub fn project(table: &Table, outputs: &[(Expr, Column)], funcs: &FuncRegistry) -> Result<Table> {
    let bound: Vec<_> = outputs
        .iter()
        .map(|(e, _)| e.bind(table.scheme()))
        .collect::<Result<_>>()?;
    let scheme = Scheme::new(outputs.iter().map(|(_, c)| c.clone()).collect());
    let mut out = Table::empty(scheme);
    for row in table.rows() {
        let mut new_row = Vec::with_capacity(bound.len());
        for b in &bound {
            new_row.push(b.eval(row.as_slice(), funcs)?);
        }
        out.push(new_row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::relation::RelationBuilder;
    use crate::value::{DataType, Value};

    fn table() -> Table {
        RelationBuilder::new("P")
            .attr("ID", DataType::Str)
            .attr("salary", DataType::Int)
            .row(vec!["201".into(), 50i64.into()])
            .row(vec!["202".into(), Value::Null])
            .build()
            .unwrap()
            .to_table("P")
    }

    #[test]
    fn project_expressions_computes_new_values() {
        let outputs = vec![(
            parse_expr("P.salary * 2").unwrap(),
            Column::new("Kids", "FamilyIncome", DataType::Int),
        )];
        let out = project(&table(), &outputs, &FuncRegistry::with_builtins()).unwrap();
        assert_eq!(
            out.scheme().columns()[0].qualified_name(),
            "Kids.FamilyIncome"
        );
        assert_eq!(out.rows()[0][0], Value::Int(100));
        assert_eq!(out.rows()[1][0], Value::Null); // null propagates
    }

    #[test]
    fn unknown_column_errors() {
        let outputs = vec![(
            parse_expr("P.nope").unwrap(),
            Column::new("Kids", "nope", DataType::Int),
        )];
        assert!(project(&table(), &outputs, &FuncRegistry::with_builtins()).is_err());
    }
}

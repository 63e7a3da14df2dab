//! Selection: keep rows on which a predicate evaluates to `True`.

use clio_obs::metrics::{self, Counter};

use crate::error::Result;
use crate::expr::Expr;
use crate::funcs::FuncRegistry;
use crate::table::Table;

/// σ_pred(table): SQL filter semantics — `Unknown` rejects.
pub fn select(table: &Table, pred: &Expr, funcs: &FuncRegistry) -> Result<Table> {
    let bound = pred.bind(table.scheme())?;
    let mut out = Table::empty(table.scheme().clone());
    for row in table.rows() {
        if bound.eval_truth(row.as_slice(), funcs)?.passes() {
            out.push(row.clone());
        }
    }
    metrics::add(Counter::TuplesScanned, table.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::relation::RelationBuilder;
    use crate::value::{DataType, Value};

    fn table() -> Table {
        RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .attr("age", DataType::Int)
            .row(vec!["001".into(), 6i64.into()])
            .row(vec!["002".into(), 4i64.into()])
            .row(vec!["003".into(), 9i64.into()])
            .row(vec!["004".into(), Value::Null])
            .build()
            .unwrap()
            .to_table("C")
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    #[test]
    fn filters_by_predicate() {
        let out = select(&table(), &parse_expr("C.age < 7").unwrap(), &funcs()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unknown_rejects_null_age() {
        let out = select(&table(), &parse_expr("C.age < 100").unwrap(), &funcs()).unwrap();
        // row 004 has null age -> Unknown -> excluded
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn is_null_predicate_selects_null_rows() {
        let out = select(&table(), &parse_expr("C.age IS NULL").unwrap(), &funcs()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::str("004"));
    }

    #[test]
    fn unknown_column_is_an_error() {
        assert!(select(&table(), &parse_expr("C.salary = 1").unwrap(), &funcs()).is_err());
    }

    #[test]
    fn true_literal_keeps_everything() {
        let out = select(&table(), &parse_expr("TRUE").unwrap(), &funcs()).unwrap();
        assert_eq!(out.len(), 4);
    }
}

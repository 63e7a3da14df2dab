//! Joins: cartesian product, inner join, left outer join, full outer join.
//!
//! Inner joins compute the paper's *full data associations* of an edge;
//! outer joins implement the optimized full-disjunction plan for acyclic
//! query graphs and the `LEFT JOIN`s of generated mapping SQL.
//!
//! The implementation extracts equality conjuncts that span the two inputs
//! and uses a hash join on them; any residual predicate is evaluated on the
//! concatenated row. Null join-key values never match (SQL semantics — this
//! is exactly what makes join predicates *strong*).
//!
//! The hash join allocates nothing per probe. The right input's key
//! columns are hashed in place into the crate's `RowIndex`, whose chains
//! list right rows in ascending order, so output rows come out in the
//! nested loop's order. Each left row hashes its key columns in place and
//! confirms each chain candidate with SQL `=` on every key column: a hash
//! match is only a candidate, and `Value`'s container equality is not
//! SQL's (`NaN == NaN` holds there, `-0.0 == 0.0` does not). Output rows
//! are built once at their final width; copying a cell never copies a
//! string ([`Value`]).

use clio_obs::metrics::{self, Counter};

use crate::error::Result;
use crate::expr::{BinOp, Expr};
use crate::funcs::FuncRegistry;
use crate::schema::Scheme;
use crate::table::{RowIndex, Table};
use crate::truth::Truth;
use crate::value::Value;

/// Join flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only matching pairs.
    Inner,
    /// Keep all left rows; pad right side with nulls when unmatched.
    LeftOuter,
    /// Keep all rows of both sides; pad the other side when unmatched.
    FullOuter,
}

/// Cartesian product (no predicate).
pub fn cartesian_product(left: &Table, right: &Table) -> Result<Table> {
    let scheme = left.scheme().concat(right.scheme())?;
    let mut out = Table::empty(scheme);
    for l in left.rows() {
        for r in right.rows() {
            out.push(concat(l, r));
        }
    }
    metrics::add(Counter::TuplesScanned, (left.len() + right.len()) as u64);
    metrics::add(Counter::JoinOutputRows, out.len() as u64);
    Ok(out)
}

/// Join `left` and `right` on `pred` with the given flavour.
pub fn join(
    left: &Table,
    right: &Table,
    pred: &Expr,
    kind: JoinKind,
    funcs: &FuncRegistry,
) -> Result<Table> {
    let _span = clio_obs::span("ops.join");
    let scheme = left.scheme().concat(right.scheme())?;

    // Split the predicate into equi-conjuncts usable as hash keys and a
    // residual expression evaluated on the concatenated row.
    let conjuncts = flatten_conjuncts(pred);
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        match equi_key(&c, left.scheme(), right.scheme()) {
            Some((l, r)) => {
                left_keys.push(l);
                right_keys.push(r);
            }
            None => residual.push(c.clone()),
        }
    }
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjunction(residual).bind(&scheme)?)
    };

    let left_arity = left.scheme().arity();
    let right_arity = right.scheme().arity();
    let mut out = Table::empty(scheme);
    let mut right_matched = vec![false; right.len()];
    // Work counters, accumulated locally and flushed once on return.
    let mut probes: u64 = 0;

    if left_keys.is_empty() {
        // Pure nested loop.
        let bound = pred.bind(out.scheme())?;
        for l in left.rows() {
            let mut matched = false;
            probes += right.len() as u64;
            for (ri, r) in right.rows().iter().enumerate() {
                let row = concat(l, r);
                if bound.eval_truth(&row, funcs)?.passes() {
                    matched = true;
                    right_matched[ri] = true;
                    out.push(row);
                }
            }
            if !matched && kind != JoinKind::Inner {
                out.push(concat_nulls(l, right_arity));
            }
        }
    } else {
        // Hash join on the extracted keys. Linking the right rows last to
        // first leaves every chain in ascending row order.
        let mut index = RowIndex::with_capacity(right.len());
        for (ri, r) in right.rows().iter().enumerate().rev() {
            if right_keys.iter().any(|&i| r[i].is_null()) {
                continue; // null keys never match
            }
            index.link(ri, index.hash(right_keys.iter().map(|&i| sql_key(&r[i]))));
        }
        for l in left.rows() {
            let mut matched = false;
            if !left_keys.iter().any(|&i| l[i].is_null()) {
                probes += 1;
                let hash = index.hash(left_keys.iter().map(|&i| sql_key(&l[i])));
                for ri in index.candidates(hash) {
                    let r = &right.rows()[ri];
                    let keys_equal = left_keys
                        .iter()
                        .zip(&right_keys)
                        .all(|(&li, &rj)| l[li].sql_eq(&r[rj]) == Truth::True);
                    if !keys_equal {
                        continue;
                    }
                    let row = concat(l, r);
                    let ok = match &residual {
                        None => true,
                        Some(b) => b.eval_truth(&row, funcs)?.passes(),
                    };
                    if ok {
                        matched = true;
                        right_matched[ri] = true;
                        out.push(row);
                    }
                }
            }
            if !matched && kind != JoinKind::Inner {
                out.push(concat_nulls(l, right_arity));
            }
        }
    }

    if kind == JoinKind::FullOuter {
        for (ri, r) in right.rows().iter().enumerate() {
            if !right_matched[ri] {
                let mut row = Vec::with_capacity(left_arity + right_arity);
                row.resize(left_arity, Value::Null);
                row.extend_from_slice(r);
                out.push(row);
            }
        }
    }

    metrics::add(Counter::TuplesScanned, (left.len() + right.len()) as u64);
    metrics::add(Counter::JoinProbes, probes);
    metrics::add(Counter::JoinOutputRows, out.len() as u64);
    Ok(out)
}

/// A key cell as SQL `=` hashes it: `-0.0 = 0.0` holds, so both hash as
/// `0.0` (every other value SQL-equal to another already shares its hash).
fn sql_key(v: &Value) -> &Value {
    static ZERO: Value = Value::Float(0.0);
    match v {
        Value::Float(f) if *f == 0.0 => &ZERO,
        v => v,
    }
}

/// `l` followed by `r`, allocated once at the joined width.
fn concat(l: &[Value], r: &[Value]) -> Vec<Value> {
    let mut row = Vec::with_capacity(l.len() + r.len());
    row.extend_from_slice(l);
    row.extend_from_slice(r);
    row
}

/// `l` followed by `nulls` nulls, allocated once at the joined width.
fn concat_nulls(l: &[Value], nulls: usize) -> Vec<Value> {
    let mut row = Vec::with_capacity(l.len() + nulls);
    row.extend_from_slice(l);
    row.resize(l.len() + nulls, Value::Null);
    row
}

/// Flatten a conjunction tree into its conjuncts.
fn flatten_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = flatten_conjuncts(left);
            out.extend(flatten_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// If `e` is `col_a = col_b` with one column per side, return the pair of
/// column indexes `(left_idx, right_idx)`.
fn equi_key(e: &Expr, left: &Scheme, right: &Scheme) -> Option<(usize, usize)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left: a,
        right: b,
    } = e
    {
        if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
            if let (Ok(li), Ok(ri)) = (left.resolve(ca), right.resolve(cb)) {
                return Some((li, ri));
            }
            if let (Ok(li), Ok(ri)) = (left.resolve(cb), right.resolve(ca)) {
                return Some((li, ri));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::relation::RelationBuilder;
    use crate::value::DataType;

    fn children() -> Table {
        RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .attr("mid", DataType::Str)
            .row(vec!["001".into(), "201".into()])
            .row(vec!["002".into(), "202".into()])
            .row(vec!["003".into(), Value::Null]) // motherless child
            .build()
            .unwrap()
            .to_table("C")
    }

    fn parents() -> Table {
        RelationBuilder::new("Parents")
            .attr("ID", DataType::Str)
            .attr("affiliation", DataType::Str)
            .row(vec!["201".into(), "IBM".into()])
            .row(vec!["202".into(), "UofT".into()])
            .row(vec!["205".into(), "MIT".into()]) // childless parent
            .build()
            .unwrap()
            .to_table("P")
    }

    fn funcs() -> FuncRegistry {
        FuncRegistry::with_builtins()
    }

    fn pred() -> Expr {
        parse_expr("C.mid = P.ID").unwrap()
    }

    #[test]
    fn inner_join_matches_pairs() {
        let out = join(&children(), &parents(), &pred(), JoinKind::Inner, &funcs()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.scheme().arity(), 4);
    }

    #[test]
    fn null_keys_never_match() {
        // even against another null on the other side
        let mut p = parents();
        p.push(vec![Value::Null, "X".into()]);
        let out = join(&children(), &p, &pred(), JoinKind::Inner, &funcs()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn left_outer_pads_unmatched_left() {
        let out = join(
            &children(),
            &parents(),
            &pred(),
            JoinKind::LeftOuter,
            &funcs(),
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        let unmatched: Vec<_> = out.rows().iter().filter(|r| r[2].is_null()).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Value::str("003"));
    }

    #[test]
    fn full_outer_pads_both_sides() {
        let out = join(
            &children(),
            &parents(),
            &pred(),
            JoinKind::FullOuter,
            &funcs(),
        )
        .unwrap();
        // 2 matches + motherless child + childless parent
        assert_eq!(out.len(), 4);
        let right_only: Vec<_> = out.rows().iter().filter(|r| r[0].is_null()).collect();
        assert_eq!(right_only.len(), 1);
        assert_eq!(right_only[0][3], Value::str("MIT"));
    }

    #[test]
    fn nested_loop_path_agrees_with_hash_path() {
        // force nested loop with a non-equi predicate that is equivalent
        let nl = parse_expr("C.mid >= P.ID AND C.mid <= P.ID").unwrap();
        let a = join(
            &children(),
            &parents(),
            &pred(),
            JoinKind::FullOuter,
            &funcs(),
        )
        .unwrap();
        let b = join(&children(), &parents(), &nl, JoinKind::FullOuter, &funcs()).unwrap();
        let mut ra = a.rows().to_vec();
        let mut rb = b.rows().to_vec();
        ra.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        rb.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(ra, rb);
    }

    #[test]
    fn residual_conjuncts_filter_hash_matches() {
        let p = parse_expr("C.mid = P.ID AND P.affiliation = 'IBM'").unwrap();
        let out = join(&children(), &parents(), &p, JoinKind::Inner, &funcs()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::str("001"));
    }

    #[test]
    fn cartesian_product_sizes() {
        let out = cartesian_product(&children(), &parents()).unwrap();
        assert_eq!(out.len(), 9);
        assert_eq!(out.scheme().arity(), 4);
    }

    #[test]
    fn empty_right_side_outer_join() {
        let empty = Table::empty(parents().scheme().clone());
        let out = join(&children(), &empty, &pred(), JoinKind::LeftOuter, &funcs()).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.rows().iter().all(|r| r[2].is_null()));
        let inner = join(&children(), &empty, &pred(), JoinKind::Inner, &funcs()).unwrap();
        assert!(inner.is_empty());
    }

    #[test]
    fn join_rejects_clashing_schemes() {
        assert!(join(&children(), &children(), &pred(), JoinKind::Inner, &funcs()).is_err());
    }

    #[test]
    fn swapped_equi_predicate_still_hash_joins() {
        let p = parse_expr("P.ID = C.mid").unwrap();
        let out = join(&children(), &parents(), &p, JoinKind::Inner, &funcs()).unwrap();
        assert_eq!(out.len(), 2);
    }
}

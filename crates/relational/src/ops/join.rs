//! Joins: cartesian product, inner join, left outer join, full outer join.
//!
//! Inner joins compute the paper's *full data associations* of an edge;
//! outer joins implement the optimized full-disjunction plan for acyclic
//! query graphs and the `LEFT JOIN`s of generated mapping SQL.
//!
//! The implementation extracts equality conjuncts that span the two inputs
//! and uses a hash join on them; any residual predicate is evaluated over
//! a view of the pair ([`Cells`]) that reads each cell from its own side,
//! where it lies. Null join-key values never match (SQL semantics — this
//! is exactly what makes join predicates *strong*).
//!
//! The hash join allocates nothing per probe. The right input's key
//! columns are hashed in place into the crate's `RowIndex`, whose chains
//! list right rows in ascending order, so output rows come out in the
//! nested loop's order. Each left row hashes its key columns in place and
//! confirms each chain candidate with SQL `=` on every key column: a hash
//! match is only a candidate, and `Value`'s container equality is not
//! SQL's (`NaN == NaN` holds there, `-0.0 == 0.0` does not).
//!
//! **Stored build sides.** When the right input is a stored
//! [`Relation`] read in place (`(&Scheme, &Relation)`, see
//! [`JoinInput::stored`]), its index is built once per list of key
//! columns and kept on the relation until [`Relation::insert`] changes
//! its rows (span `relation.join_index`): the `D(G)` plans join the
//! same unchanged relations on the same columns on every evaluation.
//! The index is the one the join would build — the same rows, null keys
//! skipped, keys normalised by `sql_key`, chains ascending — so a kept
//! index changes no output row and no row order. Work counters do not
//! see the difference: the join counts the right rows in `scan.tuples`
//! whether it built the index or found it kept.
//!
//! One kernel, [`join_with`], runs every join. It is generic over how
//! each side reads a key cell ([`JoinInput`]) and over what it emits per
//! output row (a [`Joined`] pair of input positions), and is
//! monomorphised for each use. [`join_rows`] reads each side as a
//! borrowed scheme and row slice — the plan executor joins a stored
//! relation's rows where they lie — and builds value rows from the
//! pairs; [`join`] over two tables calls it. The `D(G)` plans in
//! `clio-core` — the tree's outer-join chain and the lattice's `F(J)`
//! steps — run the same kernel over rows of tuple ids, reading key cells
//! through the ids.

use clio_obs::metrics::{self, Counter};

use crate::error::Result;
use crate::expr::{BinOp, Cells, Expr};
use crate::funcs::FuncRegistry;
use crate::relation::Relation;
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
    join_rows(
        (left.scheme(), left.rows()),
        (right.scheme(), right.rows()),
        pred,
        kind,
        funcs,
    )
}

/// [`join`] over borrowed inputs, each a scheme and its rows: a stored
/// relation is joined where it lies, without first being copied into a
/// [`Table`]. The rows are [`join_with`]'s pairs, each built once at the
/// joined width.
pub fn join_rows(
    left: (&Scheme, &[Vec<Value>]),
    right: (&Scheme, &[Vec<Value>]),
    pred: &Expr,
    kind: JoinKind,
    funcs: &FuncRegistry,
) -> Result<Table> {
    let (left_rows, right_rows) = (left.1, right.1);
    let (left_arity, right_arity) = (left.0.arity(), right.0.arity());
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let scheme = join_with(&left, &right, pred, kind, funcs, |pair| {
        let mut row = Vec::with_capacity(left_arity + right_arity);
        match pair {
            Joined::Pair(l, r) => {
                row.extend_from_slice(&left_rows[l]);
                row.extend_from_slice(&right_rows[r]);
            }
            Joined::Left(l) => {
                row.extend_from_slice(&left_rows[l]);
                row.resize(left_arity + right_arity, Value::Null);
            }
            Joined::Right(r) => {
                row.resize(left_arity, Value::Null);
                row.extend_from_slice(&right_rows[r]);
            }
        }
        rows.push(row);
    })?;
    Ok(Table::new(scheme, rows))
}

/// One side of a join as [`join_with`] reads it: a scheme, a row count,
/// and each cell by position. A key cell is read where it lies — in a
/// value row, or through a tuple id into the relation holding it.
pub trait JoinInput {
    /// The side's columns.
    fn scheme(&self) -> &Scheme;

    /// The number of rows.
    fn row_count(&self) -> usize;

    /// The value of column `col` in row `row`.
    fn cell(&self, row: usize, col: usize) -> &Value;

    /// The stored relation whose rows this side reads, in order and at
    /// the same column positions, if it is one. A hash join with such a
    /// right side keeps its key index on the relation and reuses it.
    fn stored(&self) -> Option<&Relation> {
        None
    }
}

impl JoinInput for (&Scheme, &[Vec<Value>]) {
    fn scheme(&self) -> &Scheme {
        self.0
    }

    fn row_count(&self) -> usize {
        self.1.len()
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.1[row][col]
    }
}

/// A stored relation read in place under `scheme`, a scheme of its
/// attributes in order: as a join's right side its key index is kept on
/// the relation ([`JoinInput::stored`]).
impl JoinInput for (&Scheme, &Relation) {
    fn scheme(&self) -> &Scheme {
        debug_assert_eq!(self.0.arity(), self.1.schema().arity());
        self.0
    }

    fn row_count(&self) -> usize {
        self.1.len()
    }

    fn cell(&self, row: usize, col: usize) -> &Value {
        &self.1.rows()[row][col]
    }

    fn stored(&self) -> Option<&Relation> {
        Some(self.1)
    }
}

/// Left row `l` beside right row `r`, as a predicate over the joined
/// scheme reads them: a cell left of `split`, the left side's arity, is
/// the left row's, the rest the right row's.
struct Pair<'a, L, R> {
    left: &'a L,
    right: &'a R,
    split: usize,
    l: usize,
    r: usize,
}

impl<L: JoinInput, R: JoinInput> Cells for Pair<'_, L, R> {
    fn at(&self, i: usize) -> &Value {
        if i < self.split {
            self.left.cell(self.l, i)
        } else {
            self.right.cell(self.r, i - self.split)
        }
    }
}

/// One output row of a join, by input row positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Joined {
    /// A matching pair.
    Pair(usize, usize),
    /// A left row no right row matched (outer kinds), padded with nulls.
    Left(usize),
    /// A right row no left row matched (`FullOuter`), padded with nulls.
    Right(usize),
}

/// The join kernel: every join runs this body. It reports each output
/// row to `emit` as a [`Joined`] pair of input positions, in output
/// order, and returns the joined scheme; what a row holds — values,
/// tuple ids — is the caller's. Nothing is boxed: `emit` and the inputs'
/// cell readers are monomorphised into the loops.
///
/// Equality conjuncts with one column per side are hash keys; the rest
/// of the predicate is a residual, evaluated over the pair read in
/// place (nothing is copied). Without a key the join is a nested loop
/// over the whole predicate. Matches come out in the nested loop's order: left
/// rows in order, each with its right matches ascending, then (for
/// `FullOuter`) the unmatched right rows.
pub fn join_with<L: JoinInput, R: JoinInput>(
    left: &L,
    right: &R,
    pred: &Expr,
    kind: JoinKind,
    funcs: &FuncRegistry,
    mut emit: impl FnMut(Joined),
) -> Result<Scheme> {
    let _span = clio_obs::span("ops.join");
    let (left_scheme, right_scheme) = (left.scheme(), right.scheme());
    let scheme = left_scheme.concat(right_scheme)?;

    // Split the predicate into equi-conjuncts usable as hash keys and a
    // residual expression evaluated over the pair.
    let conjuncts = flatten_conjuncts(pred);
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        match equi_key(&c, left_scheme, right_scheme) {
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

    // The pair a residual or nested-loop predicate is evaluated over.
    let pair = |l: usize, r: usize| Pair {
        left,
        right,
        split: left_scheme.arity(),
        l,
        r,
    };
    let mut right_matched = vec![false; right.row_count()];
    // Work counters, accumulated locally and flushed once on return.
    let mut probes: u64 = 0;
    let mut emitted: u64 = 0;
    let mut emit = |pair: Joined| {
        emitted += 1;
        emit(pair);
    };

    if left_keys.is_empty() {
        // Pure nested loop.
        let bound = pred.bind(&scheme)?;
        for l in 0..left.row_count() {
            let mut matched = false;
            probes += right.row_count() as u64;
            for (r, right_matched) in right_matched.iter_mut().enumerate() {
                if bound.eval_truth(&pair(l, r), funcs)?.passes() {
                    matched = true;
                    *right_matched = true;
                    emit(Joined::Pair(l, r));
                }
            }
            if !matched && kind != JoinKind::Inner {
                emit(Joined::Left(l));
            }
        }
    } else {
        // Hash join on the extracted keys, with the right side's index
        // kept on its relation when it is a stored one.
        let kept;
        let built;
        let index: &RowIndex = match right.stored() {
            Some(relation) => {
                kept = relation.join_index(&right_keys, || key_index(right, &right_keys));
                &kept
            }
            None => {
                built = key_index(right, &right_keys);
                &built
            }
        };
        for l in 0..left.row_count() {
            let mut matched = false;
            if !left_keys.iter().any(|&k| left.cell(l, k).is_null()) {
                probes += 1;
                let hash = RowIndex::hash(left_keys.iter().map(|&k| sql_key(left.cell(l, k))));
                for r in index.candidates(hash) {
                    let keys_equal = left_keys.iter().zip(&right_keys).all(|(&lk, &rk)| {
                        left.cell(l, lk).sql_eq(right.cell(r, rk)) == Truth::True
                    });
                    if !keys_equal {
                        continue;
                    }
                    let ok = match &residual {
                        None => true,
                        Some(b) => b.eval_truth(&pair(l, r), funcs)?.passes(),
                    };
                    if ok {
                        matched = true;
                        right_matched[r] = true;
                        emit(Joined::Pair(l, r));
                    }
                }
            }
            if !matched && kind != JoinKind::Inner {
                emit(Joined::Left(l));
            }
        }
    }

    if kind == JoinKind::FullOuter {
        for (r, _) in right_matched.iter().enumerate().filter(|(_, &m)| !m) {
            emit(Joined::Right(r));
        }
    }

    metrics::add(
        Counter::TuplesScanned,
        (left.row_count() + right.row_count()) as u64,
    );
    metrics::add(Counter::JoinProbes, probes);
    metrics::add(Counter::JoinOutputRows, emitted);
    Ok(scheme)
}

/// The hash index of `right`'s rows on the columns `keys`. Linking the
/// rows last to first leaves every chain in ascending row order; a row
/// with a null key is left out, since null keys never match.
fn key_index<R: JoinInput>(right: &R, keys: &[usize]) -> RowIndex {
    let mut index = RowIndex::with_capacity(right.row_count());
    for r in (0..right.row_count()).rev() {
        if keys.iter().any(|&k| right.cell(r, k).is_null()) {
            continue;
        }
        index.link(
            r,
            RowIndex::hash(keys.iter().map(|&k| sql_key(right.cell(r, k)))),
        );
    }
    index
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
    use crate::relation::{Relation, RelationBuilder};
    use crate::value::DataType;

    fn children() -> Table {
        children_relation().to_table("C")
    }

    fn children_relation() -> Relation {
        RelationBuilder::new("Children")
            .attr("ID", DataType::Str)
            .attr("mid", DataType::Str)
            .row(vec!["001".into(), "201".into()])
            .row(vec!["002".into(), "202".into()])
            .row(vec!["003".into(), Value::Null]) // motherless child
            .build()
            .unwrap()
    }

    fn parents() -> Table {
        parents_relation().to_table("P")
    }

    fn parents_relation() -> Relation {
        RelationBuilder::new("Parents")
            .attr("ID", DataType::Str)
            .attr("affiliation", DataType::Str)
            .row(vec!["201".into(), "IBM".into()])
            .row(vec!["202".into(), "UofT".into()])
            .row(vec!["205".into(), "MIT".into()]) // childless parent
            .build()
            .unwrap()
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
    fn relations_read_in_place_join_like_their_table_copies() {
        let (c, p) = (children_relation(), parents_relation());
        let scheme = |r: &Relation, alias| Scheme::of_relation(r.schema(), alias);
        let (c_scheme, p_scheme) = (scheme(&c, "C"), scheme(&p, "P"));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            let in_place = join_rows(
                (&c_scheme, c.rows()),
                (&p_scheme, p.rows()),
                &pred(),
                kind,
                &funcs(),
            )
            .unwrap();
            let copied = join(&children(), &parents(), &pred(), kind, &funcs()).unwrap();
            assert_eq!(in_place, copied, "{kind:?}");
        }
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

    /// The relation `K(k float, s str)` and a left table `L(k, s)` whose
    /// keys hold what SQL `=` and `Value`'s `==` treat differently:
    /// nulls, `-0.0`/`0.0`, `Int(1)`/`Float(1.0)` and NaN.
    fn tricky_keys() -> (Relation, Table) {
        use DataType::{Float, Str};
        let k = |v: Value, s: &str| vec![v, Value::str(s)];
        let right = relation(
            "K",
            &[("k", Float), ("s", Str)],
            vec![
                k(Value::Float(0.0), "p"),
                k(Value::Null, "p"),
                k(Value::Int(1), "q"),
                k(Value::Float(f64::NAN), "p"),
                k(Value::Float(-0.0), "q"),
                k(Value::Float(1.0), "p"),
                k(Value::Float(2.5), "p"),
                k(Value::Float(0.0), "q"),
            ],
        );
        let left = relation(
            "L",
            &[("k", Float), ("s", Str)],
            vec![
                k(Value::Float(-0.0), "p"),
                k(Value::Float(1.0), "q"),
                k(Value::Null, "p"),
                k(Value::Float(f64::NAN), "p"),
                k(Value::Int(1), "p"),
                k(Value::Float(0.0), "q"),
                k(Value::Float(7.0), "p"),
            ],
        );
        (right, left.to_table("L"))
    }

    /// The rows of `left ⋈ right` that `join_with` emits reading the
    /// right side through `stored`, built as [`join_rows`] builds them.
    fn stored_join(
        left: &Table,
        stored: (&Scheme, &Relation),
        pred: &Expr,
        kind: JoinKind,
    ) -> Table {
        let (left_rows, right_rows) = (left.rows(), stored.1.rows());
        let mut rows = Vec::new();
        let input = (left.scheme(), left_rows);
        let scheme = join_with(&input, &stored, pred, kind, &funcs(), |pair| {
            let (l, r) = match pair {
                Joined::Pair(l, r) => (Some(l), Some(r)),
                Joined::Left(l) => (Some(l), None),
                Joined::Right(r) => (None, Some(r)),
            };
            let mut row = l.map_or(vec![Value::Null; 2], |l| left_rows[l].clone());
            row.extend(r.map_or(vec![Value::Null; 2], |r| right_rows[r].clone()));
            rows.push(row);
        })
        .unwrap();
        Table::new(scheme, rows)
    }

    /// Keys that share a hash but differ never pair: `2^53` and
    /// `2^53 + 1` hash as the same float, so one chain holds both, and
    /// each candidate on it is confirmed with SQL `=`, through a fresh
    /// index and a kept one alike.
    #[test]
    fn colliding_keys_pair_only_when_sql_equal() {
        use DataType::{Int, Str};
        let big = 1i64 << 53;
        let k = |v: i64, s: &str| vec![Value::Int(v), Value::str(s)];
        let right = relation("K", &[("k", Int), ("s", Str)], vec![k(big + 1, "r")]);
        let left = relation(
            "L",
            &[("k", Int), ("s", Str)],
            vec![k(big, "a"), k(big + 1, "b")],
        );
        let left = left.to_table("L");
        let scheme = Scheme::of_relation(right.schema(), "K");
        let pred = parse_expr("L.k = K.k").unwrap();
        let fresh = join_rows(
            (left.scheme(), left.rows()),
            (&scheme, right.rows()),
            &pred,
            JoinKind::Inner,
            &funcs(),
        )
        .unwrap();
        let pair = [k(big + 1, "b"), k(big + 1, "r")].concat();
        assert_eq!(fresh.rows(), [pair]);
        let kept = stored_join(&left, (&scheme, &right), &pred, JoinKind::Inner);
        assert_eq!(kept.rows(), fresh.rows());
    }

    fn spans_named(rec: &clio_obs::Recorder, name: &str) -> usize {
        rec.spans().iter().filter(|s| s.name == name).count()
    }

    #[test]
    fn a_kept_join_index_joins_like_a_fresh_one_row_for_row() {
        let (right, left) = tricky_keys();
        let scheme = Scheme::of_relation(right.schema(), "K");
        let rec = clio_obs::Recorder::new();
        rec.run(|| {
            for pred in [
                "L.k = K.k",
                "L.k = K.k AND L.s = K.s",
                "K.k = L.k AND K.s <> L.s",
            ] {
                let pred = parse_expr(pred).unwrap();
                for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
                    let fresh = join_rows(
                        (left.scheme(), left.rows()),
                        (&scheme, right.rows()),
                        &pred,
                        kind,
                        &funcs(),
                    )
                    .unwrap();
                    // the first join builds the index, the second reads it
                    for _ in 0..2 {
                        let kept = stored_join(&left, (&scheme, &right), &pred, kind);
                        assert_eq!(kept.rows(), fresh.rows(), "{pred} {kind:?}");
                    }
                }
            }
        });
        // one index per list of key columns: [k] and [k, s]; the third
        // predicate keys on [k] again, with a residual
        assert_eq!(spans_named(&rec, "relation.join_index"), 2);
        // the fresh and kept joins count the same right rows as input
        let snap = rec.snapshot();
        assert_eq!(
            snap.get(Counter::TuplesScanned),
            3 * 3 * 3 * (left.len() + right.len()) as u64
        );
    }

    #[test]
    fn a_join_after_insert_sees_the_new_row_and_clones_share_the_index() {
        let (mut right, left) = tricky_keys();
        let scheme = Scheme::of_relation(right.schema(), "K");
        let pred = parse_expr("L.k = K.k").unwrap();
        let rec = clio_obs::Recorder::new();
        let before = rec.run(|| stored_join(&left, (&scheme, &right), &pred, JoinKind::Inner));
        // a clone shares the kept index: joining it builds nothing
        let copy = right.clone();
        rec.run(|| stored_join(&left, (&scheme, &copy), &pred, JoinKind::Inner));
        assert_eq!(spans_named(&rec, "relation.join_index"), 1);

        right
            .insert(vec![Value::Float(7.0), Value::str("new")])
            .unwrap();
        let after = rec.run(|| stored_join(&left, (&scheme, &right), &pred, JoinKind::Inner));
        assert_eq!(
            spans_named(&rec, "relation.join_index"),
            2,
            "insert drops it"
        );
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.rows().iter().any(|r| r[3] == Value::str("new")));
        let fresh = join_rows(
            (left.scheme(), left.rows()),
            (&scheme, right.rows()),
            &pred,
            JoinKind::Inner,
            &funcs(),
        )
        .unwrap();
        assert_eq!(after.rows(), fresh.rows());
        // the copy made before the insert still joins its own rows
        let old = rec.run(|| stored_join(&left, (&scheme, &copy), &pred, JoinKind::Inner));
        assert_eq!(old.rows(), before.rows());
    }

    /// A join side of tuple ids, as the tree plan's chain keeps them: per
    /// row, one position per relation (`None` where the row does not
    /// cover it), each cell read through the row's id.
    struct Ids<'a> {
        relations: &'a [Relation],
        scheme: Scheme,
        columns: Vec<(usize, usize)>,
        rows: Vec<Vec<Option<usize>>>,
    }

    impl JoinInput for Ids<'_> {
        fn scheme(&self) -> &Scheme {
            &self.scheme
        }

        fn row_count(&self) -> usize {
            self.rows.len()
        }

        fn cell(&self, row: usize, col: usize) -> &Value {
            static NULL: Value = Value::Null;
            let (rel, attr) = self.columns[col];
            self.rows[row][rel].map_or(&NULL, |id| &self.relations[rel].rows()[id][attr])
        }
    }

    fn ids_scan(relations: &[Relation], k: usize) -> Ids<'_> {
        let rel = &relations[k];
        Ids {
            relations,
            scheme: Scheme::of_relation(rel.schema(), rel.name()),
            columns: (0..rel.schema().arity()).map(|a| (k, a)).collect(),
            rows: (0..rel.len())
                .map(|i| {
                    let mut row = vec![None; relations.len()];
                    row[k] = Some(i);
                    row
                })
                .collect(),
        }
    }

    /// `left ⟗ right` by the kernel: a pair's row merges the two id rows
    /// (their relations are disjoint).
    fn ids_outer_join<'a>(left: &Ids<'a>, right: &Ids<'a>, pred: &str) -> Ids<'a> {
        let mut rows = Vec::new();
        let pred = parse_expr(pred).unwrap();
        let scheme = join_with(left, right, &pred, JoinKind::FullOuter, &funcs(), |pair| {
            rows.push(match pair {
                Joined::Pair(l, r) => left.rows[l]
                    .iter()
                    .zip(&right.rows[r])
                    .map(|(a, b)| a.or(*b))
                    .collect(),
                Joined::Left(l) => left.rows[l].clone(),
                Joined::Right(r) => right.rows[r].clone(),
            });
        })
        .unwrap();
        let mut columns = left.columns.clone();
        columns.extend_from_slice(&right.columns);
        Ids {
            relations: left.relations,
            scheme,
            columns,
            rows,
        }
    }

    /// The outer chain `(R0 ⟗ R1) ⟗ R2` over three relations, on tuple
    /// ids and on values: the id rows, read through, must equal the value
    /// rows row for row. Returns the value chain.
    fn three_node_outer_chain(relations: &[Relation], preds: [&str; 2]) -> Table {
        let tables: Vec<Table> = relations.iter().map(|r| r.to_table(r.name())).collect();
        let on = |p: &str| parse_expr(p).unwrap();
        let ab = join(
            &tables[0],
            &tables[1],
            &on(preds[0]),
            JoinKind::FullOuter,
            &funcs(),
        )
        .unwrap();
        let values = join(
            &ab,
            &tables[2],
            &on(preds[1]),
            JoinKind::FullOuter,
            &funcs(),
        )
        .unwrap();
        let ab = ids_outer_join(&ids_scan(relations, 0), &ids_scan(relations, 1), preds[0]);
        let ids = ids_outer_join(&ab, &ids_scan(relations, 2), preds[1]);
        assert_eq!(ids.scheme(), values.scheme());
        let read: Vec<Vec<Value>> = (0..ids.row_count())
            .map(|i| {
                (0..ids.scheme.arity())
                    .map(|c| ids.cell(i, c).clone())
                    .collect()
            })
            .collect();
        assert_eq!(read, values.rows());
        values
    }

    fn relation(name: &str, attrs: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Relation {
        let mut b = RelationBuilder::new(name);
        for &(attr, ty) in attrs {
            b = b.attr(attr, ty);
        }
        rows.into_iter()
            .fold(b, RelationBuilder::row)
            .build()
            .unwrap()
    }

    fn count(t: &Table, pred: impl Fn(&[Value]) -> bool) -> usize {
        t.rows().iter().filter(|r| pred(r)).count()
    }

    #[test]
    fn kernel_outer_chain_on_a_conjunction_of_equalities() {
        use DataType::{Int, Str};
        let a = relation(
            "A",
            &[("x", Int), ("y", Str)],
            vec![
                vec![1i64.into(), "p".into()],
                vec![1i64.into(), "q".into()],
                vec![2i64.into(), "p".into()],
                vec![Value::Null, "p".into()],
            ],
        );
        let b = relation(
            "B",
            &[("x", Int), ("y", Str), ("z", Int)],
            vec![
                vec![1i64.into(), "p".into(), 10i64.into()],
                vec![1i64.into(), "q".into(), 20i64.into()],
                vec![2i64.into(), "q".into(), 10i64.into()],
                vec![1i64.into(), "p".into(), 30i64.into()],
            ],
        );
        let c = relation(
            "C",
            &[("z", Int), ("c", Str)],
            vec![
                vec![10i64.into(), "c1".into()],
                vec![20i64.into(), "c2".into()],
                vec![40i64.into(), "c3".into()],
            ],
        );
        let out = three_node_outer_chain(&[a, b, c], ["A.x = B.x AND A.y = B.y", "B.z = C.z"]);
        // A(1,p)–B(1,p,10)–C1, A(1,p)–B(1,p,30), A(1,q)–B(1,q,20)–C2,
        // A(2,p), A(-,p), B(2,q,10)–C1, and C3 alone
        assert_eq!(out.len(), 7);
        // both equalities must hold: A(1,p) never meets B(1,q,20)
        assert_eq!(count(&out, |r| !r[0].is_null() && !r[2].is_null()), 3);
        assert_eq!(count(&out, |r| r[0].is_null() && !r[2].is_null()), 1);
    }

    #[test]
    fn kernel_outer_chain_with_a_non_equi_residual() {
        use DataType::{Int, Str};
        let a = relation(
            "A",
            &[("k", Int)],
            vec![vec![1i64.into()], vec![2i64.into()]],
        );
        let b = relation(
            "B",
            &[("k", Int), ("z", Int), ("w", Int)],
            vec![
                vec![1i64.into(), 10i64.into(), 5i64.into()],
                vec![1i64.into(), 10i64.into(), 9i64.into()],
                vec![2i64.into(), 20i64.into(), 1i64.into()],
            ],
        );
        let c = relation(
            "C",
            &[("z", Int), ("w", Int), ("c", Str)],
            vec![
                vec![10i64.into(), 6i64.into(), "c1".into()],
                vec![10i64.into(), 4i64.into(), "c2".into()],
                vec![20i64.into(), Value::Null, "c3".into()],
            ],
        );
        let relations = [a, b, c];
        // hash keys plus a residual: B(1,10,5) meets C1 only, B(1,10,9)
        // and B(2,20,1) (a null `w` on C3's side) meet nothing
        let out = three_node_outer_chain(&relations, ["A.k = B.k", "B.z = C.z AND B.w < C.w"]);
        assert_eq!(out.len(), 3 + 2);
        assert_eq!(count(&out, |r| !r[1].is_null() && !r[4].is_null()), 1);
        // no equality at all: the nested loop over the whole predicate
        // (B(1,10,5) under C1; B(2,20,1) under C1 and C2)
        let out = three_node_outer_chain(&relations, ["A.k = B.k", "B.w < C.w"]);
        assert_eq!(count(&out, |r| !r[1].is_null() && !r[4].is_null()), 3);
        assert_eq!(out.len(), 3 + 2);
    }

    #[test]
    fn kernel_outer_chain_on_signed_zero_and_nan_keys() {
        use DataType::{Float, Str};
        let (zero, neg, nan) = (
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        );
        let a = relation(
            "A",
            &[("k", Float), ("a", Str)],
            vec![
                vec![zero.clone(), "a0".into()],
                vec![neg.clone(), "a-0".into()],
                vec![nan.clone(), "anan".into()],
                vec![Value::Float(1.5), "a1.5".into()],
            ],
        );
        let b = relation(
            "B",
            &[("k", Float), ("m", Float)],
            vec![
                vec![neg.clone(), Value::Float(2.0)],
                vec![nan.clone(), nan.clone()],
                vec![zero, nan.clone()],
                vec![Value::Float(7.0), Value::Float(2.0)],
            ],
        );
        let c = relation(
            "C",
            &[("m", Float), ("c", Str)],
            vec![
                vec![Value::Float(2.0), "c2".into()],
                vec![nan, "cnan".into()],
                vec![neg, "c-0".into()],
            ],
        );
        let out = three_node_outer_chain(&[a, b, c], ["A.k = B.k", "B.m = C.m"]);
        // SQL `=`: 0.0 and -0.0 meet (each A zero with each B zero), NaN
        // meets nothing, not even NaN
        assert_eq!(count(&out, |r| !r[0].is_null() && !r[2].is_null()), 4);
        assert_eq!(
            count(&out, |r| r[1] == Value::str("anan") && r[2].is_null()),
            1
        );
        assert_eq!(count(&out, |r| r[5] == Value::str("c2")), 3);
        assert_eq!(count(&out, |r| r[2].is_null() && !r[4].is_null()), 2);
        assert_eq!(out.len(), 10);
    }
}

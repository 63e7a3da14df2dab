//! Tuple subsumption and subsumption removal (paper Def 3.8).
//!
//! A tuple `t1` **subsumes** `t2` (same scheme) when `t1[A] = t2[A]` for
//! every attribute `A` on which `t2` is non-null; the subsumption is
//! **strict** when `t1 ≠ t2`. The minimum union operator removes strictly
//! subsumed tuples — they are redundant, repeating information carried by a
//! more complete tuple (paper Sec 3.2).
//!
//! Two base algorithms are provided, plus an adaptive dispatcher:
//!
//! * [`remove_subsumed_naive`] — the definitional `O(n²)` pairwise check,
//!   kept as the reference implementation;
//! * [`remove_subsumed_partitioned`] — partitions tuples by their non-null
//!   mask; `t1` can only strictly subsume `t2` when
//!   `mask(t2) ⊊ mask(t1)`, so only mask pairs in strict-subset relation
//!   are probed. For each subsumee mask, the rows of every larger mask
//!   are indexed by their projection onto the mask's positions in the
//!   crate's row index (`RowIndex`: one keyed hash per key, values
//!   hashed in place), and each tested row probes it with its own
//!   projection, confirming a candidate with `==` on those positions —
//!   no projection is copied, and no row allocates. Every indexed row
//!   stays on its chain, so a probe meets each larger row whose
//!   projection equals its own, as the pairwise check does even where
//!   `Value`'s `==` is not transitive (`Int(2^53 + 1) == Float(2^53) ==
//!   Int(2^53)`). Null masks are computed into one reused set and copied
//!   once per distinct mask. The per-mask probe passes are independent,
//!   so on large tables they run on the [`crate::exec`] worker pool
//!   (`subsumption.worker` spans);
//! * [`SubsumptionAlgo::Adaptive`] — the engine default: picks one of the
//!   two per call from the input size and the observed partition shape,
//!   recording each decision in the `subsumption.adaptive_choices`
//!   counter.
//!
//! Two building blocks serve callers that know where subsumers can be
//! — the lattice `D(G)` union: [`extended_rows`], a hashed semi-join
//! marking the rows a wider table extends, and
//! [`remove_subsumed_among`], the partitioned pass testing only the rows
//! the caller marks as possibly subsumed. [`remove_subsumed_partitioned`]
//! (which [`remove_subsumed`] runs when it does not pick naive) and
//! [`remove_subsumed_among`] share that one pass.
//!
//! Benchmark **B2** (`cargo bench -p clio-bench --bench subsumption`, and
//! `experiments b2`, which first asserts that the naive, partitioned and
//! all-flagged restricted passes return the same rows in the same order)
//! compares them; a property test pins each hashed pass to its pairwise
//! definition.

use std::collections::{HashMap, HashSet};

use clio_obs::metrics::{self, Counter};

use crate::bitset::Bitset;
use crate::error::Result;
use crate::exec;
use crate::table::{RowIndex, Table};
use crate::value::Value;

/// Algorithm selector for subsumption removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsumptionAlgo {
    /// Definitional `O(n²)` pairwise comparison.
    Naive,
    /// Null-mask partitioning + hash probing.
    Partitioned,
    /// Per-call choice between the two from input size and partition
    /// shape (default; see [`remove_subsumed`] for the heuristic).
    #[default]
    Adaptive,
}

/// Tables at or below this row count always take the naive algorithm
/// under [`SubsumptionAlgo::Adaptive`] — at ≤ 64² cheap row comparisons
/// the quadratic scan beats the partitioned pass's hashing constants.
const ADAPTIVE_NAIVE_MAX_ROWS: usize = 64;

/// How many leading rows [`SubsumptionAlgo::Adaptive`] samples to
/// estimate the partition shape (distinct null-mask density).
const ADAPTIVE_SAMPLE_ROWS: usize = 128;

/// Below this row count the partitioned algorithm stays on the calling
/// thread — fan-out overhead would exceed the probe work.
const PARTITIONED_PARALLEL_MIN_ROWS: usize = 256;

/// Does `t1` subsume `t2`? Both rows must have the same arity.
#[must_use]
pub fn subsumes(t1: &[Value], t2: &[Value]) -> bool {
    debug_assert_eq!(t1.len(), t2.len());
    t1.iter().zip(t2).all(|(a, b)| b.is_null() || a == b)
}

/// Does `t1` strictly subsume `t2`?
#[must_use]
pub fn strictly_subsumes(t1: &[Value], t2: &[Value]) -> bool {
    t1 != t2 && subsumes(t1, t2)
}

/// Remove strictly subsumed rows (and exact duplicates) from `table`,
/// preserving first-occurrence order of the survivors.
///
/// [`SubsumptionAlgo::Adaptive`] resolves to one of the two base
/// algorithms per call:
///
/// * ≤ `ADAPTIVE_NAIVE_MAX_ROWS` rows → naive (the quadratic scan's
///   constant factors beat partitioning on small inputs);
/// * a leading-row sample whose null-masks are almost all distinct →
///   naive (near-unique masks mean tiny partitions, so the partitioned
///   pass degenerates into a mask-pair scan with hashing overhead);
/// * otherwise → partitioned.
///
/// Every adaptive dispatch increments `subsumption.adaptive_choices`.
pub fn remove_subsumed(table: &mut Table, algo: SubsumptionAlgo) {
    match algo {
        SubsumptionAlgo::Naive => remove_subsumed_naive(table),
        SubsumptionAlgo::Partitioned => remove_subsumed_partitioned(table),
        SubsumptionAlgo::Adaptive => {
            metrics::incr(Counter::SubsumptionAdaptiveChoices);
            if pick_naive(table) {
                remove_subsumed_naive(table);
            } else {
                remove_subsumed_partitioned(table);
            }
        }
    }
}

/// The [`SubsumptionAlgo::Adaptive`] decision: `true` → naive.
fn pick_naive(table: &Table) -> bool {
    let n = table.len();
    if n <= ADAPTIVE_NAIVE_MAX_ROWS {
        return true;
    }
    // Partition shape from a leading sample: count distinct null-masks.
    let sample = n.min(ADAPTIVE_SAMPLE_ROWS);
    let arity = table.scheme().arity();
    let mut masks: HashSet<Bitset> = HashSet::with_capacity(sample);
    let mut mask = Bitset::new(arity);
    for row in &table.rows()[..sample] {
        fill_null_mask(&mut mask, row);
        if !masks.contains(&mask) {
            masks.insert(mask.clone());
        }
    }
    // Near-unique masks → partitions of ~1 row each; the partitioned
    // algorithm would pay a quadratic mask-pair scan plus hashing for no
    // pruning, so fall back to the straight quadratic row scan.
    masks.len() * 2 > sample
}

/// Write `row`'s non-null mask into `mask`, which has the row's arity.
fn fill_null_mask(mask: &mut Bitset, row: &[Value]) {
    for (k, v) in row.iter().enumerate() {
        if v.is_null() {
            mask.clear(k);
        } else {
            mask.set(k);
        }
    }
}

/// Reference implementation: pairwise `O(n²)` scan.
pub fn remove_subsumed_naive(table: &mut Table) {
    let _span = clio_obs::span("ops.remove_subsumed");
    table.dedup();
    let rows = table.rows();
    let n = rows.len();
    let mut keep = vec![true; n];
    let mut comparisons: u64 = 0;
    for i in 0..n {
        for j in 0..n {
            if i != j && keep[i] {
                comparisons += 1;
                if strictly_subsumes(&rows[j], &rows[i]) {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    let removed = keep.iter().filter(|k| !**k).count() as u64;
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    metrics::add(Counter::TuplesSubsumed, removed);
    retain_by_mask(table, &keep);
}

/// Optimized implementation: group rows by non-null mask; for each mask
/// `m_small`, probe a hash index of the rows of every strictly larger
/// mask, projected in place onto `m_small`'s positions.
///
/// The per-mask passes only read the shared row/group structures and
/// only ever remove rows of their own partition, so they are
/// independent; tables of at least `PARTITIONED_PARALLEL_MIN_ROWS`
/// rows run them on the [`exec`] pool (`subsumption.worker` spans). The
/// survivors — and the flushed counters, which sum the same per-mask
/// totals in any schedule — are identical to the serial pass.
pub fn remove_subsumed_partitioned(table: &mut Table) {
    let _span = clio_obs::span("ops.remove_subsumed");
    table.dedup();
    let keep = partitioned_pass(table, None);
    retain_by_mask(table, &keep);
}

/// Remove the rows marked in `candidates` that another row strictly
/// subsumes, then exact duplicates, keeping first occurrences. Unmarked
/// rows are never tested as the subsumed side — the caller knows no row
/// strictly subsumes them — though every row may subsume. With every
/// row marked this is [`remove_subsumed_partitioned`]'s answer; the work
/// (and `subsumption.comparisons`) scales with the marked rows' masks
/// only. `candidates` must have one flag per row.
pub fn remove_subsumed_among(table: &mut Table, candidates: &[bool]) {
    let _span = clio_obs::span("ops.remove_subsumed");
    assert_eq!(candidates.len(), table.len(), "one flag per row");
    let keep = partitioned_pass(table, Some(candidates));
    retain_by_mask(table, &keep);
    table.dedup();
}

/// The partitioned probe over `table` (see
/// [`remove_subsumed_partitioned`]), testing as subsumees only the rows
/// `candidates` marks (all when `None`). Returns the keep mask and
/// flushes the work and removal counters.
fn partitioned_pass(table: &Table, candidates: Option<&[bool]>) -> Vec<bool> {
    let arity = table.scheme().arity();
    let rows = table.rows();
    let n = rows.len();
    if candidates.is_some_and(|c| !c.contains(&true)) {
        return vec![true; n];
    }

    // group row indexes by non-null mask, each mask computed into one
    // scratch set and copied only when first seen
    let mut groups: HashMap<Bitset, Vec<usize>> = HashMap::new();
    let mut mask = Bitset::new(arity);
    for (i, row) in rows.iter().enumerate() {
        fill_null_mask(&mut mask, row);
        match groups.get_mut(&mask) {
            Some(members) => members.push(i),
            None => {
                groups.insert(mask.clone(), vec![i]);
            }
        }
    }

    if groups.len() <= 1 {
        // one partition ⇒ no strict mask-subset pairs ⇒ nothing beyond
        // exact duplicates can be removed
        metrics::add(Counter::TuplesSubsumed, 0);
        return vec![true; n];
    }

    let masks: Vec<&Bitset> = groups.keys().collect();
    // the subsumee side: each mask with the rows of it under test
    let tested: Vec<(&Bitset, Vec<usize>)> = masks
        .iter()
        .filter_map(|&m| {
            let members: Vec<usize> = groups[m]
                .iter()
                .copied()
                .filter(|&ri| candidates.is_none_or(|c| c[ri]))
                .collect();
            (!members.is_empty()).then_some((m, members))
        })
        .collect();

    // One pass per subsumee mask: index the projections of every
    // strictly-larger group's rows onto the mask's positions, then probe
    // it with each tested row's projection. Both sides are hashed in
    // place and a candidate is confirmed with `==` on those positions.
    // Returns this partition's doomed row indexes plus its work count
    // (index insertions + probes — the role the pairwise tests play in
    // the naive algorithm).
    let probe_mask = |_i: usize, (small, members): &(&Bitset, Vec<usize>)| -> (Vec<usize>, u64) {
        let positions: Vec<usize> = small.iter_ones().collect();
        let project = |ri: usize| positions.iter().map(move |&p| &rows[ri][p]);
        let larger: Vec<usize> = masks
            .iter()
            .filter(|big| small.is_strict_subset(big))
            .flat_map(|big| groups[*big].iter().copied())
            .collect();
        if larger.is_empty() {
            return (Vec::new(), 0);
        }
        let mut index = RowIndex::with_capacity(larger.len());
        for (k, &ri) in larger.iter().enumerate() {
            index.link(k, index.hash(project(ri)));
        }
        let doomed = members
            .iter()
            .copied()
            .filter(|&ri| {
                index
                    .candidates(index.hash(project(ri)))
                    .any(|k| project(larger[k]).eq(project(ri)))
            })
            .collect();
        (doomed, (larger.len() + members.len()) as u64)
    };

    let results: Vec<(Vec<usize>, u64)> = if n >= PARTITIONED_PARALLEL_MIN_ROWS {
        exec::map_slice(&tested, "subsumption.worker", probe_mask)
    } else {
        tested
            .iter()
            .enumerate()
            .map(|(i, m)| probe_mask(i, m))
            .collect()
    };

    let mut keep = vec![true; n];
    let mut comparisons: u64 = 0;
    let mut removed: u64 = 0;
    for (doomed, work) in results {
        comparisons += work;
        removed += doomed.len() as u64;
        for ri in doomed {
            keep[ri] = false;
        }
    }
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    metrics::add(Counter::TuplesSubsumed, removed);
    keep
}

/// Which rows of `table` some row of a `wider` table *extends*: agrees
/// with it on every column of `table` and is non-null on at least one
/// column `table` lacks. Padded onto a common scheme, such a row
/// strictly subsumes the `table` row, so a row marked here is never
/// maximal. Each `wider` scheme must contain every column of `table`'s.
///
/// One hashed semi-join per call: `table`'s rows are indexed once (the
/// crate's chained `RowIndex`, matches confirmed with `==`), and
/// each `wider` row with a non-null extra column probes it with its
/// projection onto `table`'s columns, hashed in place. Index insertions
/// plus probes count in `subsumption.comparisons`.
///
/// # Errors
///
/// [`Error::UnknownColumn`](crate::error::Error::UnknownColumn) if a
/// `wider` scheme misses a column of `table`.
pub fn extended_rows(table: &Table, wider: &[&Table]) -> Result<Vec<bool>> {
    let rows = table.rows();
    let mut extended = vec![false; rows.len()];
    if rows.is_empty() || wider.iter().all(|w| w.is_empty()) {
        return Ok(extended);
    }
    let mut index = RowIndex::with_capacity(rows.len());
    for (p, row) in rows.iter().enumerate() {
        index.link(p, index.hash(row));
    }
    let mut comparisons = rows.len() as u64;
    for w in wider {
        let positions = w.scheme().positions_of(table.scheme())?;
        let extra: Vec<usize> = (0..w.scheme().arity())
            .filter(|c| !positions.contains(c))
            .collect();
        for wrow in w.rows() {
            if extra.iter().all(|&c| wrow[c].is_null()) {
                continue;
            }
            comparisons += 1;
            for p in index.candidates(index.hash(positions.iter().map(|&c| &wrow[c]))) {
                if positions.iter().zip(&rows[p]).all(|(&c, v)| wrow[c] == *v) {
                    extended[p] = true;
                }
            }
        }
    }
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    Ok(extended)
}

fn retain_by_mask(table: &mut Table, keep: &[bool]) {
    let mut i = 0;
    table.rows_mut().retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Scheme};
    use crate::value::DataType;

    fn scheme(n: usize) -> Scheme {
        Scheme::new(
            (0..n)
                .map(|i| Column::new("R", format!("a{i}"), DataType::Str))
                .collect(),
        )
    }

    fn v(s: &str) -> Value {
        if s == "-" {
            Value::Null
        } else {
            Value::str(s)
        }
    }

    fn table(rows: &[&[&str]]) -> Table {
        let arity = rows.first().map_or(0, |r| r.len());
        Table::new(
            scheme(arity),
            rows.iter()
                .map(|r| r.iter().map(|s| v(s)).collect())
                .collect(),
        )
    }

    #[test]
    fn subsumes_basic() {
        assert!(subsumes(&[v("a"), v("b")], &[v("a"), v("-")]));
        assert!(!subsumes(&[v("a"), v("b")], &[v("x"), v("-")]));
        assert!(subsumes(&[v("a"), v("-")], &[v("a"), v("-")]));
        assert!(!strictly_subsumes(&[v("a"), v("-")], &[v("a"), v("-")]));
        assert!(strictly_subsumes(&[v("a"), v("b")], &[v("a"), v("-")]));
        // subsumption is one-directional
        assert!(!subsumes(&[v("a"), v("-")], &[v("a"), v("b")]));
    }

    #[test]
    fn paper_figure7_u_subsumed_by_v() {
        // u = Children+Parents association padded with nulls on PhoneDir,
        // v = the full association; v strictly subsumes u.
        let u = [v("002"), v("Maya"), v("202"), v("-"), v("-")];
        let w = [v("002"), v("Maya"), v("202"), v("202"), v("555")];
        assert!(strictly_subsumes(&w, &u));
    }

    #[test]
    fn removal_keeps_maximal_rows() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[
                &["a", "b", "-"],
                &["a", "b", "c"],
                &["x", "-", "-"],
                &["-", "-", "z"],
            ]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 3, "{algo:?}");
            assert!(t.rows().iter().all(|r| r[0] != v("a") || !r[2].is_null()));
        }
    }

    #[test]
    fn exact_duplicates_are_collapsed() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[&["a", "b"], &["a", "b"], &["c", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 2, "{algo:?}");
        }
    }

    #[test]
    fn incomparable_rows_all_survive() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[&["a", "-"], &["-", "b"], &["c", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 3, "{algo:?}");
        }
    }

    #[test]
    fn equal_masks_different_values_survive() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[&["a", "-"], &["b", "-"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 2, "{algo:?}");
        }
    }

    #[test]
    fn chains_of_subsumption_leave_only_top() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[&["a", "-", "-"], &["a", "b", "-"], &["a", "b", "c"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t.len(), 1, "{algo:?}");
            assert_eq!(t.rows()[0][2], v("c"));
        }
    }

    #[test]
    fn order_of_survivors_is_preserved() {
        let mut t = table(&[&["z", "-"], &["a", "b"], &["z", "y"]]);
        remove_subsumed(&mut t, SubsumptionAlgo::Partitioned);
        assert_eq!(t.rows()[0][0], v("a"));
        assert_eq!(t.rows()[1][0], v("z"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_table_is_fine() {
        for algo in [
            SubsumptionAlgo::Naive,
            SubsumptionAlgo::Partitioned,
            SubsumptionAlgo::Adaptive,
        ] {
            let mut t = table(&[]);
            remove_subsumed(&mut t, algo);
            assert!(t.is_empty());
        }
    }

    /// Deterministic pseudo-random nullable table (xorshift, no deps):
    /// small domain so subsumption pairs actually occur.
    fn random_table(rows: usize, arity: usize, seed: u64) -> Table {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| match next() % 5 {
                        0 => Value::Null,
                        v => Value::Int(v as i64),
                    })
                    .collect()
            })
            .collect();
        Table::new(scheme(arity), rows)
    }

    #[test]
    fn parallel_partitioned_is_byte_identical_to_serial() {
        // 1200 rows exceeds PARTITIONED_PARALLEL_MIN_ROWS, so the probe
        // passes fan out; survivors must match the serial pass exactly,
        // row order included.
        let base = random_table(1200, 6, 0xC110);
        let mut serial = base.clone();
        let mut parallel = base.clone();
        crate::exec::with_threads(1, || remove_subsumed_partitioned(&mut serial));
        crate::exec::with_threads(4, || remove_subsumed_partitioned(&mut parallel));
        assert!(serial.len() < base.len(), "workload must exercise removal");
        assert_eq!(serial.rows(), parallel.rows());
    }

    #[test]
    fn adaptive_picks_naive_on_small_and_partitioned_on_large() {
        // small: under the row floor
        assert!(super::pick_naive(&random_table(
            ADAPTIVE_NAIVE_MAX_ROWS,
            4,
            1
        )));
        // large with few distinct masks (arity 4, domain {null,1..4}):
        // the sample repeats masks, so partitioning pays off
        assert!(!super::pick_naive(&random_table(1000, 4, 2)));
        // large but every sampled row has a distinct mask → naive
        let wide = Table::new(
            scheme(12),
            (0..200u32)
                .map(|i| {
                    (0..12)
                        .map(|k| {
                            if (i >> k) & 1 == 0 {
                                Value::Null
                            } else {
                                Value::Int(1)
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        assert!(super::pick_naive(&wide));
    }

    #[test]
    fn adaptive_agrees_with_reference_on_random_tables() {
        for seed in [3u64, 17, 99] {
            let base = random_table(700, 5, seed);
            let mut reference = base.clone();
            let mut adaptive = base.clone();
            remove_subsumed_naive(&mut reference);
            remove_subsumed(&mut adaptive, SubsumptionAlgo::Adaptive);
            assert_eq!(reference.rows(), adaptive.rows(), "seed {seed}");
        }
    }

    #[test]
    fn extension_marks_only_rows_a_wider_row_extends() {
        // `narrow` is R.a0..a1; `wide` adds S.b, listed first
        let narrow = table(&[&["a", "b"], &["a", "-"], &["c", "d"], &["e", "f"]]);
        let s_col = Column::new("S", "b", DataType::Str);
        let mut cols = vec![s_col];
        cols.extend(narrow.scheme().columns().iter().cloned());
        let wide = Table::new(
            Scheme::new(cols),
            vec![
                vec![v("x"), v("a"), v("b")],
                // agrees with ("c", "d") but adds nothing: not an extension
                vec![v("-"), v("c"), v("d")],
                // extends neither ("a", "-") nor anything else of `narrow`
                vec![v("y"), v("a"), v("z")],
            ],
        );
        let marks = extended_rows(&narrow, &[&wide]).unwrap();
        // ("a", "-") is subsumed by ("a", "b") without being extended
        assert_eq!(marks, vec![true, false, false, false]);
        assert_eq!(
            extended_rows(&narrow, &[]).unwrap(),
            vec![false; 4],
            "no wider table extends nothing"
        );
        // a wider scheme missing a column of `narrow` is an error
        assert!(extended_rows(&wide, &[&narrow]).is_err());
    }

    #[test]
    fn restricted_removal_tests_only_the_marked_rows() {
        let rows: &[&[&str]] = &[
            &["a", "-", "-"],
            &["a", "b", "-"],
            &["a", "b", "c"],
            &["a", "b", "c"],
            &["x", "-", "-"],
        ];
        // every row marked: the partitioned answer
        let mut all = table(rows);
        remove_subsumed_among(&mut all, &[true; 5]);
        let mut reference = table(rows);
        remove_subsumed_partitioned(&mut reference);
        assert_eq!(all.rows(), reference.rows());
        // unmarked rows stay even when subsumed; duplicates still go
        let mut some = table(rows);
        remove_subsumed_among(&mut some, &[false, true, false, false, false]);
        assert_eq!(
            some.rows(),
            table(&[&["a", "-", "-"], &["a", "b", "c"], &["x", "-", "-"]]).rows()
        );
    }
}

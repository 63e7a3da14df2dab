//! Tuple subsumption and subsumption removal (paper Def 3.8).
//!
//! A tuple `t1` **subsumes** `t2` (same scheme) when `t1[A] = t2[A]` for
//! every attribute `A` on which `t2` is non-null; the subsumption is
//! **strict** when `t1 ≠ t2`. The minimum union operator removes strictly
//! subsumed tuples — they are redundant, repeating information carried by a
//! more complete tuple (paper Sec 3.2).
//!
//! Two passes remove them, with the same survivors in the same order
//! (first occurrences kept):
//!
//! * [`remove_subsumed_partitioned`] — the engine's pass, run by every
//!   minimum union and by the target preview. It partitions tuples by
//!   their non-null mask; `t1` can only strictly subsume `t2` when
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
//! * [`remove_subsumed_naive`] — the definitional `O(n²)` pairwise
//!   check, called by name where the definition is wanted: tests,
//!   benchmark B2 and the definitional references.
//!
//! Callers that know where subsumers can be run
//! [`remove_subsumed_among`], the partitioned pass testing only the rows
//! the caller marks as possibly subsumed, or [`subsumed_among`], the
//! same test over any rows a [`JoinInput`] reads — how the `D(G)` plans
//! test rows read through tuple ids. The same pass,
//! testing only the tuples that hold a null, computes a relation's
//! near-duplicate flag
//! ([`Relation::has_near_duplicates`](crate::relation::Relation::has_near_duplicates)).
//! [`remove_subsumed_partitioned`] shares that one pass too.
//!
//! Benchmark **B2** (`cargo bench -p clio-bench --bench subsumption`, and
//! `experiments b2`, which first asserts that the naive, partitioned and
//! all-flagged restricted passes return the same rows in the same order)
//! compares them; a property test pins each hashed pass to its pairwise
//! definition, row order included.

use std::collections::HashMap;

use clio_obs::metrics::{self, Counter};

use crate::bitset::Bitset;
use crate::exec;
use crate::ops::JoinInput;
use crate::table::{RowIndex, Table};
use crate::value::Value;

/// Which pass [`remove_subsumed`] runs. Only perfbench's traced replica
/// of the session and unit tests still choose: ROADMAP item 14 deletes
/// this selector, with the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsumptionAlgo {
    /// Definitional `O(n²)` pairwise comparison
    /// ([`remove_subsumed_naive`]).
    Naive,
    /// Null-mask partitioning + hash probing, the engine's pass
    /// ([`remove_subsumed_partitioned`]).
    Partitioned,
}

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

/// Remove strictly subsumed rows (and exact duplicates) from `table`
/// with the pass `algo` names, preserving first-occurrence order of the
/// survivors. Only perfbench's traced replica of the session and unit
/// tests still call it: ROADMAP item 14 deletes it, with the replica.
/// Everything else calls the pass it wants by name.
pub fn remove_subsumed(table: &mut Table, algo: SubsumptionAlgo) {
    match algo {
        SubsumptionAlgo::Naive => remove_subsumed_naive(table),
        SubsumptionAlgo::Partitioned => remove_subsumed_partitioned(table),
    }
}

/// The definition: a pairwise `O(n²)` scan.
pub fn remove_subsumed_naive(table: &mut Table) {
    let _span = clio_obs::span("ops.remove_subsumed");
    dedup_unless_set(table);
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
    table.retain(&counted((keep, comparisons)));
}

/// The engine's pass: group rows by non-null mask; for each mask
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
    dedup_unless_set(table);
    let keep = counted(partitioned_pass(&(table.scheme(), table.rows()), None));
    table.retain(&keep);
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
    let keep = subsumed_among(&(table.scheme(), table.rows()), candidates);
    table.retain(&keep);
    dedup_unless_set(table);
}

/// Drop exact duplicates, unless the table is known to be a set
/// ([`Table::is_set`]): its rows were deduplicated as they came in.
fn dedup_unless_set(table: &mut Table) {
    if !table.is_set() {
        table.dedup();
    }
}

/// [`remove_subsumed_among`]'s test over any rows a [`JoinInput`]
/// reads — value rows, or rows read through tuple ids — without its
/// duplicate pass: the keep mask, `false` for each marked row another
/// row strictly subsumes. Counts `subsumption.comparisons` and
/// `subsumption.removed` as [`remove_subsumed_among`] does.
///
/// # Panics
///
/// If `candidates` does not hold one flag per row.
pub fn subsumed_among<R: JoinInput + Sync>(rows: &R, candidates: &[bool]) -> Vec<bool> {
    assert_eq!(candidates.len(), rows.row_count(), "one flag per row");
    counted(partitioned_pass(rows, Some(candidates)))
}

/// Does another row strictly subsume some row of `rows` that holds a
/// null? On a set — no two rows equal, so a null-free row is subsumed
/// by no other — this is whether [`remove_subsumed_naive`] removes
/// anything. Counts nothing.
pub(crate) fn holds_subsumed_row<R: JoinInput + Sync>(rows: &R) -> bool {
    let arity = rows.scheme().arity();
    let nullable: Vec<bool> = (0..rows.row_count())
        .map(|i| (0..arity).any(|c| rows.cell(i, c).is_null()))
        .collect();
    nullable.contains(&true) && partitioned_pass(rows, Some(&nullable)).0.contains(&false)
}

/// Flush a pass's work and removal counts; the keep mask.
fn counted((keep, comparisons): (Vec<bool>, u64)) -> Vec<bool> {
    metrics::add(Counter::SubsumptionComparisons, comparisons);
    metrics::add(
        Counter::TuplesSubsumed,
        keep.iter().filter(|&&k| !k).count() as u64,
    );
    keep
}

/// The partitioned probe over `rows` (see
/// [`remove_subsumed_partitioned`]), testing as subsumees only the rows
/// `candidates` marks (all when `None`). Returns the keep mask and the
/// work: index insertions plus probes, the role the pairwise tests play
/// in the naive algorithm.
fn partitioned_pass<R: JoinInput + Sync>(
    rows: &R,
    candidates: Option<&[bool]>,
) -> (Vec<bool>, u64) {
    let arity = rows.scheme().arity();
    let n = rows.row_count();
    if candidates.is_some_and(|c| !c.contains(&true)) {
        return (vec![true; n], 0);
    }

    // group row indexes by non-null mask, each mask computed into one
    // scratch set and copied only when first seen
    let mut groups: HashMap<Bitset, Vec<usize>> = HashMap::new();
    let mut mask = Bitset::new(arity);
    for i in 0..n {
        for c in 0..arity {
            if rows.cell(i, c).is_null() {
                mask.clear(c);
            } else {
                mask.set(c);
            }
        }
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
        return (vec![true; n], 0);
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
    // Returns this partition's doomed row indexes plus its work count.
    let probe_mask = |_i: usize, (small, members): &(&Bitset, Vec<usize>)| -> (Vec<usize>, u64) {
        let positions: Vec<usize> = small.iter_ones().collect();
        let project = |ri: usize| positions.iter().map(move |&p| rows.cell(ri, p));
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
            index.link(k, RowIndex::hash(project(ri)));
        }
        let doomed = members
            .iter()
            .copied()
            .filter(|&ri| {
                index
                    .candidates(RowIndex::hash(project(ri)))
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
    for (doomed, work) in results {
        comparisons += work;
        for ri in doomed {
            keep[ri] = false;
        }
    }
    (keep, comparisons)
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

    /// A pass by name.
    type Pass = (&'static str, fn(&mut Table));

    /// Both passes: the definition and the engine's.
    const PASSES: [Pass; 2] = [
        ("naive", remove_subsumed_naive),
        ("partitioned", remove_subsumed_partitioned),
    ];

    /// A set skips the duplicate pass; a table a plain push gave a
    /// repeated row is a set no longer, and loses the copy. The copies
    /// are null-free, so no subsumption test could remove one.
    #[test]
    fn a_set_skips_the_duplicate_pass_and_a_pushed_copy_ends_it() {
        for (name, pass) in PASSES {
            let mut t = Table::empty(scheme(2));
            for row in [["a", "b"], ["a", "-"], ["c", "d"], ["a", "b"]] {
                t.push_distinct(row.iter().map(|s| v(s)).collect());
            }
            let rec = clio_obs::Recorder::new();
            let mut set = t.clone();
            rec.run(|| pass(&mut set));
            assert_eq!(set, table(&[&["a", "b"], &["c", "d"]]), "{name}");
            assert_eq!(rec.snapshot().get(Counter::DedupRows), 0, "{name}");

            t.push(vec![v("c"), v("d")]);
            pass(&mut t);
            assert_eq!(t, table(&[&["a", "b"], &["c", "d"]]), "{name}");
        }
    }

    #[test]
    fn removal_keeps_maximal_rows() {
        for (name, pass) in PASSES {
            let mut t = table(&[
                &["a", "b", "-"],
                &["a", "b", "c"],
                &["x", "-", "-"],
                &["-", "-", "z"],
            ]);
            pass(&mut t);
            assert_eq!(t.len(), 3, "{name}");
            assert!(t.rows().iter().all(|r| r[0] != v("a") || !r[2].is_null()));
        }
    }

    #[test]
    fn exact_duplicates_are_collapsed() {
        for (name, pass) in PASSES {
            let mut t = table(&[&["a", "b"], &["a", "b"], &["c", "-"]]);
            pass(&mut t);
            assert_eq!(t.len(), 2, "{name}");
        }
    }

    #[test]
    fn incomparable_rows_all_survive() {
        for (name, pass) in PASSES {
            let mut t = table(&[&["a", "-"], &["-", "b"], &["c", "-"]]);
            pass(&mut t);
            assert_eq!(t.len(), 3, "{name}");
        }
    }

    #[test]
    fn equal_masks_different_values_survive() {
        for (name, pass) in PASSES {
            let mut t = table(&[&["a", "-"], &["b", "-"]]);
            pass(&mut t);
            assert_eq!(t.len(), 2, "{name}");
        }
    }

    #[test]
    fn chains_of_subsumption_leave_only_top() {
        for (name, pass) in PASSES {
            let mut t = table(&[&["a", "-", "-"], &["a", "b", "-"], &["a", "b", "c"]]);
            pass(&mut t);
            assert_eq!(t.len(), 1, "{name}");
            assert_eq!(t.rows()[0][2], v("c"));
        }
    }

    /// Survivors keep their first-occurrence order, under both passes
    /// and through the selector that still names them.
    #[test]
    fn order_of_survivors_is_preserved() {
        for algo in [SubsumptionAlgo::Naive, SubsumptionAlgo::Partitioned] {
            let mut t = table(&[&["z", "-"], &["a", "b"], &["z", "y"]]);
            remove_subsumed(&mut t, algo);
            assert_eq!(t, table(&[&["a", "b"], &["z", "y"]]), "{algo:?}");
        }
    }

    #[test]
    fn empty_table_is_fine() {
        for (_, pass) in PASSES {
            let mut t = table(&[]);
            pass(&mut t);
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

    /// The engine pass equals the definition row for row, order
    /// included, at a size that fans its probes out.
    #[test]
    fn engine_pass_equals_the_reference_in_row_order() {
        for seed in [3u64, 17, 99] {
            let base = random_table(700, 5, seed);
            let mut reference = base.clone();
            let mut engine = base.clone();
            remove_subsumed_naive(&mut reference);
            remove_subsumed_partitioned(&mut engine);
            assert!(reference.len() < base.len(), "seed {seed} removes rows");
            assert_eq!(reference.rows(), engine.rows(), "seed {seed}");
        }
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

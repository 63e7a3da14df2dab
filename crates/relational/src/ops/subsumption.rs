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
//!   minimum union and by the target preview. `t1` can only strictly
//!   subsume `t2` when `mask(t2) ⊊ mask(t1)` (their non-null masks) and
//!   `t1` equals `t2` on every column `t2` fills, so on the columns
//!   *every* row fills. The pass computes each row's mask once, into one
//!   flat word array, and groups the rows by the keyed hash of their
//!   cells in those columns (`RowIndex::hash`, which agrees with `==`,
//!   `Int` and `Float` included). A row alone in its group is never read
//!   again. Inside a group, a subsumee mask with `T` tested rows and `L`
//!   rows of strictly larger masks costs `T·L` pair tests or an index of
//!   `L` insertions and `T` probes. A group whose pair tests would
//!   outnumber its index work takes the per-mask probe: the larger rows
//!   are indexed by their projection onto the mask's positions in the
//!   crate's row index (values hashed in place; the group's own columns
//!   are left out, since its rows agree there), and each tested row
//!   probes it with its own projection. Other groups test each row
//!   against each larger row. Either way a candidate is confirmed cell by
//!   cell with `==` on all the mask's positions, no projection is copied,
//!   and no row allocates. Every indexed row stays on its chain, so a
//!   probe meets each larger row whose projection equals its own, as the
//!   pairwise check does even where `Value`'s `==` is not transitive
//!   (`Int(2^53 + 1) == Float(2^53) == Int(2^53)`). With no column that
//!   every row fills, the whole table is one group. The per-mask probes
//!   of a large group are independent, so they run on the
//!   [`crate::exec`] worker pool (`subsumption.worker` spans);
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

use clio_obs::metrics::{self, Counter};

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
    /// Grouping by the filled columns + pair tests or hash probing, the
    /// engine's pass ([`remove_subsumed_partitioned`]).
    Partitioned,
}

/// Below this many rows in a group, its per-mask probes stay on the
/// calling thread — fan-out overhead would exceed the probe work.
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

/// The engine's pass (see the module docs): group the rows by their
/// cells in the columns every row fills; inside a group, test each row
/// against the rows whose non-null mask strictly contains its own, by
/// pairs or, where pairs would cost more, through a hash index per
/// subsumee mask.
///
/// The per-mask probes of a group only read the shared row and mask
/// structures and only ever remove rows of their own mask, so they are
/// independent; a group of at least `PARTITIONED_PARALLEL_MIN_ROWS` rows
/// runs them on the [`exec`] pool (`subsumption.worker` spans). The
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

/// The grouped pass over `rows` (see the module docs), testing as
/// subsumees only the rows `candidates` marks (all when `None`). Returns
/// the keep mask and the work: pair tests, plus index insertions and
/// probes.
fn partitioned_pass<R: JoinInput + Sync>(
    rows: &R,
    candidates: Option<&[bool]>,
) -> (Vec<bool>, u64) {
    let n = rows.row_count();
    let mut keep = vec![true; n];
    if candidates.is_some_and(|c| !c.contains(&true)) {
        return (keep, 0);
    }
    let masks = Masks::of(rows);
    if (1..n).all(|ri| masks.row(ri) == masks.row(0)) {
        // one mask ⇒ no strict mask-subset pairs ⇒ nothing beyond exact
        // duplicates can be removed
        return (keep, 0);
    }

    // A subsumer equals its subsumee on every column the subsumee fills,
    // so on the columns every row fills: group the rows by those cells'
    // hash. Rows are ordered by group and, within a group of several, by
    // mask and position, so a group is a run of `order` and each of its
    // masks a run within it.
    let filled: Vec<usize> = ones(&masks.filled).collect();
    let key: Vec<u64> = if filled.is_empty() {
        vec![0; n]
    } else {
        (0..n)
            .map(|ri| RowIndex::hash(filled.iter().map(|&c| rows.cell(ri, c))))
            .collect()
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&ri| (key[ri], ri));
    for group in order.chunk_by_mut(|&a, &b| key[a] == key[b]) {
        if group.len() > 1 {
            group.sort_unstable_by(|&a, &b| (masks.row(a), a).cmp(&(masks.row(b), b)));
        }
    }

    let tested = |ri: usize| candidates.is_none_or(|c| c[ri]);
    let mut comparisons: u64 = 0;
    let mut runs: Vec<&[usize]> = Vec::new();
    let mut scratch = Scratch::default();
    for group in order.chunk_by(|&a, &b| key[a] == key[b]) {
        runs.clear();
        runs.extend(group.chunk_by(|&a, &b| masks.row(a) == masks.row(b)));
        if runs.len() < 2 {
            // a lone row, or rows of one mask: none strictly subsumes another
            continue;
        }
        // Per subsumee mask with T tested rows and L rows of strictly
        // larger masks, pair tests cost T·L and the index L + T.
        let (mut pairs, mut probes) = (0, 0);
        for small in &runs {
            let members = small.iter().filter(|&&ri| tested(ri)).count();
            let larger: usize = larger_runs(&masks, &runs, small).map(|big| big.len()).sum();
            if members > 0 && larger > 0 {
                pairs += members * larger;
                probes += members + larger;
            }
        }
        let by_pairs = pairs <= probes;
        if !by_pairs && group.len() >= PARTITIONED_PARALLEL_MIN_ROWS {
            // the per-mask probes only read the shared structures, and
            // each dooms rows of its own mask only
            let results = exec::map_slice(&runs, "subsumption.worker", |_, small| {
                let mut doomed = Vec::new();
                let work = Scratch::default().test_run(
                    rows,
                    (&masks, &runs, small),
                    &tested,
                    false,
                    |ri| doomed.push(ri),
                );
                (doomed, work)
            });
            for (doomed, work) in results {
                comparisons += work;
                doomed.into_iter().for_each(|ri| keep[ri] = false);
            }
        } else {
            for small in &runs {
                comparisons +=
                    scratch.test_run(rows, (&masks, &runs, small), &tested, by_pairs, |ri| {
                        keep[ri] = false
                    });
            }
        }
    }
    (keep, comparisons)
}

/// The buffers one subsumee mask of a group is tested with, reused from
/// mask to mask.
#[derive(Default)]
struct Scratch {
    /// The positions the mask fills.
    positions: Vec<usize>,
    /// The group's rows of strictly larger masks.
    larger: Vec<usize>,
    /// `larger` by its rows' projections onto `positions`.
    index: RowIndex,
}

impl Scratch {
    /// Test the tested rows of `small`, one mask's run of a group, for a
    /// strict subsumer among the group's rows of larger masks, calling
    /// `doom` on each row that has one. By pairs, each row is compared
    /// with every larger row; otherwise the larger rows are indexed by
    /// their projections onto the mask's positions, hashed in place, and
    /// each row probes the index with its own. Either way a candidate is
    /// confirmed cell by cell with `==` on all the mask's positions.
    /// Returns the work: pair tests, or index insertions plus probes.
    fn test_run<R: JoinInput>(
        &mut self,
        rows: &R,
        (masks, runs, small): (&Masks, &[&[usize]], &[usize]),
        tested: &impl Fn(usize) -> bool,
        by_pairs: bool,
        mut doom: impl FnMut(usize),
    ) -> u64 {
        let mut members = small.iter().copied().filter(|&ri| tested(ri)).peekable();
        if members.peek().is_none() {
            return 0;
        }
        self.larger.clear();
        self.larger
            .extend(larger_runs(masks, runs, small).flat_map(|big| big.iter().copied()));
        if self.larger.is_empty() {
            return 0;
        }
        // The group's rows agree on the columns every row fills, but for
        // hash collisions: the index hashes only the mask's other
        // columns, and a confirmation reads those first.
        self.positions.clear();
        self.positions
            .extend(ones(masks.row(small[0])).filter(|&c| !masks.fills(c)));
        let hashed = self.positions.len();
        self.positions.extend(ones(&masks.filled));
        let (positions, larger) = (&self.positions, &self.larger);
        let project = |ri: usize| positions.iter().map(move |&p| rows.cell(ri, p));
        let hash =
            |ri: usize| RowIndex::hash(positions[..hashed].iter().map(|&p| rows.cell(ri, p)));
        let mut work: u64 = 0;
        if by_pairs {
            for ri in members {
                let subsumed = larger.iter().any(|&rj| {
                    work += 1;
                    project(rj).eq(project(ri))
                });
                if subsumed {
                    doom(ri);
                }
            }
        } else {
            self.index.reset(larger.len());
            for (k, &rj) in larger.iter().enumerate() {
                self.index.link(k, hash(rj));
            }
            work += larger.len() as u64;
            for ri in members {
                work += 1;
                let subsumed = self
                    .index
                    .candidates(hash(ri))
                    .any(|k| project(larger[k]).eq(project(ri)));
                if subsumed {
                    doom(ri);
                }
            }
        }
        work
    }
}

/// The runs of a group whose mask strictly contains the mask of `small`.
#[inline]
fn larger_runs<'r>(
    masks: &'r Masks,
    runs: &'r [&'r [usize]],
    small: &[usize],
) -> impl Iterator<Item = &'r [usize]> + 'r {
    let mask = masks.row(small[0]);
    runs.iter()
        .copied()
        .filter(move |big| strictly_within(mask, masks.row(big[0])))
}

/// Each row's non-null mask, `words` words per row in one flat array,
/// and the mask of the columns every row fills.
struct Masks {
    bits: Vec<u64>,
    words: usize,
    filled: Vec<u64>,
}

impl Masks {
    /// The mask of every row of `rows`, each cell read once.
    fn of<R: JoinInput>(rows: &R) -> Masks {
        let arity = rows.scheme().arity();
        let words = arity.div_ceil(64);
        let mut bits = vec![0u64; rows.row_count() * words];
        for (ri, mask) in bits.chunks_mut(words.max(1)).enumerate() {
            for c in (0..arity).filter(|&c| !rows.cell(ri, c).is_null()) {
                mask[c / 64] |= 1 << (c % 64);
            }
        }
        let mut filled = vec![u64::MAX; words];
        for mask in bits.chunks(words.max(1)) {
            filled.iter_mut().zip(mask).for_each(|(f, m)| *f &= m);
        }
        Masks {
            bits,
            words,
            filled,
        }
    }

    /// Row `ri`'s mask.
    #[inline]
    fn row(&self, ri: usize) -> &[u64] {
        &self.bits[ri * self.words..(ri + 1) * self.words]
    }

    /// Does every row fill column `c`?
    #[inline]
    fn fills(&self, c: usize) -> bool {
        self.filled[c / 64] & (1 << (c % 64)) != 0
    }
}

/// Is mask `small` a strict subset of mask `big`?
#[inline]
fn strictly_within(small: &[u64], big: &[u64]) -> bool {
    small != big && small.iter().zip(big).all(|(s, b)| s & !b == 0)
}

/// The positions of the set bits of `mask`, ascending.
#[inline]
fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&b| Some(b & b.wrapping_sub(1)))
            .take_while(|&b| b != 0)
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
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

    /// A table whose first column, and only that, every row fills, in
    /// two interleaved groups. In `g`, three rows of one mask lie under
    /// four of larger masks, and its pair tests (4 + 12 + 3) outnumber
    /// its index work (5 + 7 + 4), so it takes the per-mask probe; `s`
    /// has one subsumee and one subsumer: one pair test.
    #[test]
    fn a_large_group_probes_per_mask_and_a_small_one_tests_pairs() {
        let rows: &[&[&str]] = &[
            &["g", "1", "-", "-"],
            &["s", "x", "-", "-"],
            &["g", "2", "-", "-"],
            &["g", "1", "b", "-"],
            &["g", "-", "b", "-"],
            &["g", "3", "-", "-"],
            &["s", "x", "y", "-"],
            &["g", "2", "b", "-"],
            &["g", "9", "b", "-"],
            &["g", "1", "b", "c"],
        ];
        let mut reference = table(rows);
        remove_subsumed_naive(&mut reference);
        let mut engine = table(rows);
        let rec = clio_obs::Recorder::new();
        rec.run(|| remove_subsumed_partitioned(&mut engine));
        assert_eq!(engine.rows(), reference.rows());
        assert_eq!(
            engine,
            table(&[
                &["g", "3", "-", "-"],
                &["s", "x", "y", "-"],
                &["g", "2", "b", "-"],
                &["g", "9", "b", "-"],
                &["g", "1", "b", "c"],
            ])
        );
        assert_eq!(rec.snapshot().get(Counter::SubsumptionComparisons), 16 + 1);
        assert_eq!(rec.snapshot().get(Counter::TuplesSubsumed), 5);
    }

    /// Rows alone in their group are never tested: with a distinct key
    /// in every row the pass does no work, however the masks differ.
    #[test]
    fn rows_with_distinct_filled_keys_cost_nothing() {
        let mut t = table(&[&["1", "a", "-"], &["2", "a", "b"], &["3", "-", "-"]]);
        let rec = clio_obs::Recorder::new();
        rec.run(|| remove_subsumed_partitioned(&mut t));
        assert_eq!(t.len(), 3);
        assert_eq!(rec.snapshot().get(Counter::SubsumptionComparisons), 0);
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

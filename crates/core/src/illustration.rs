//! Sufficient illustrations (paper Sec 4.2) and minimal selection.
//!
//! An *illustration* is any set of examples of a mapping. A **sufficient**
//! illustration demonstrates all aspects of the mapping:
//!
//! * **query graph** (Def 4.2): one example per non-empty coverage
//!   category of `D(G)`;
//! * **filters** (Def 4.4): per category, a positive example if one exists
//!   and a negative example if one exists;
//! * **value correspondences** (Def 4.5): per category and target
//!   attribute, a positive example with a non-null value there if one
//!   exists, and a positive example with a null value there if one exists;
//! * **mapping** (Def 4.6): all three at once.
//!
//! The requirements form a set-cover instance over the candidate examples,
//! and its size does not depend on the population: every requirement reads
//! only an example's [`Signature`] — its coverage, its polarity and, when
//! positive, which of its target values are non-null. The solver reads
//! signatures only, so an illustration's examples need be built only for
//! the rows it keeps ([`crate::evolution`]). Examples with one
//! signature satisfy the same requirements, so a minimum cover over
//! signature classes is a minimum cover over examples. Requirements of
//! different coverage categories are never satisfied by one example, so a
//! minimum cover is a union of per-category minimum covers. Within a
//! category, a negative example satisfies only the coverage requirement,
//! which any positive one meets too, and the negative-polarity one, which
//! nothing else does. So the minimum is one negative class if that
//! requirement is open, plus the fewest positive classes — distinct
//! null-masks — covering the rest. That last step is still set cover,
//! NP-hard in the target arity: the search tries combinations smallest
//! first and stops after `COVER_NODE_LIMIT` (100 000) of them per
//! category, warning (category `illustration`) and taking the first class
//! that satisfies each remaining requirement. One solver serves the
//! minimal (Def 4.6), focused (Def 4.7) and evolved (Sec 5.3,
//! [`crate::evolution`]) illustrations; [`select_greedy`], the
//! `ln n`-approximation, stays as the reference benchmark **B3** compares
//! against. The paper: "We make use of [...]
//! techniques [...] to efficiently select a minimal sufficient
//! illustration."

use std::collections::{HashMap, HashSet};

use clio_obs::metrics::{self, Counter};

use crate::example::{Example, Signature};
use crate::query_graph::QueryGraph;

/// One atomic thing a sufficient illustration must demonstrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requirement {
    /// Def 4.2 — some example with this coverage.
    Coverage(u64),
    /// Def 4.4 — an example with this coverage and polarity.
    Polarity {
        /// Coverage category.
        coverage: u64,
        /// Required polarity.
        positive: bool,
    },
    /// Def 4.5 — a **positive** example with this coverage whose target
    /// value at `attr` is null / non-null.
    AttrValue {
        /// Coverage category.
        coverage: u64,
        /// Target attribute index.
        attr: usize,
        /// `true` = demonstrate a non-null value, `false` = a null one.
        non_null: bool,
    },
}

/// Does an example of signature `s` satisfy requirement `r`?
#[must_use]
pub fn satisfies(s: &Signature, r: &Requirement) -> bool {
    metrics::incr(Counter::RequirementsChecked);
    match *r {
        Requirement::Coverage(c) => s.coverage == c,
        Requirement::Polarity { coverage, positive } => {
            s.coverage == coverage && s.positive == positive
        }
        Requirement::AttrValue {
            coverage,
            attr,
            non_null,
        } => s.positive && s.coverage == coverage && s.nulls.get(attr) != non_null,
    }
}

/// The signature of every example, in order.
fn signatures(examples: &[Example]) -> Vec<Signature> {
    examples.iter().map(Example::signature).collect()
}

/// Which aspects of the mapping to require (Defs 4.2 / 4.4 / 4.5 / 4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SufficiencyScope {
    /// Include Def 4.2 coverage requirements.
    pub graph: bool,
    /// Include Def 4.4 polarity requirements.
    pub filters: bool,
    /// Include Def 4.5 per-attribute requirements.
    pub correspondences: bool,
}

impl SufficiencyScope {
    /// Def 4.6: everything.
    #[must_use]
    pub fn mapping() -> SufficiencyScope {
        SufficiencyScope {
            graph: true,
            filters: true,
            correspondences: true,
        }
    }

    /// Def 4.2 only.
    #[must_use]
    pub fn graph_only() -> SufficiencyScope {
        SufficiencyScope {
            graph: true,
            filters: false,
            correspondences: false,
        }
    }

    /// Def 4.4 only.
    #[must_use]
    pub fn filters_only() -> SufficiencyScope {
        SufficiencyScope {
            graph: false,
            filters: true,
            correspondences: false,
        }
    }

    /// Def 4.5 only.
    #[must_use]
    pub fn correspondences_only() -> SufficiencyScope {
        SufficiencyScope {
            graph: false,
            filters: false,
            correspondences: true,
        }
    }
}

/// Derive the requirement set from the full example population. Every
/// definition is conditional ("if there exists … then I contains …"), so a
/// requirement is emitted only when at least one candidate satisfies it.
/// Categories come in `(size, mask)` order; within one, coverage, then
/// polarity (positive first), then attribute values (non-null first).
#[must_use]
pub fn requirements(
    all: &[Example],
    target_arity: usize,
    scope: SufficiencyScope,
) -> Vec<Requirement> {
    requirements_of(&signatures(all), target_arity, scope)
}

/// [`requirements`] of the examples whose signatures are `all`.
fn requirements_of(
    all: &[Signature],
    target_arity: usize,
    scope: SufficiencyScope,
) -> Vec<Requirement> {
    categories(all)
        .into_iter()
        .flat_map(|(coverage, classes)| {
            category_requirements(all, coverage, &classes, target_arity, scope)
        })
        .collect()
}

/// `all` grouped by signature into classes, each represented by its first
/// member's index, and the classes grouped by coverage category: the
/// categories in requirement order, the classes in population order.
fn categories(all: &[Signature]) -> Vec<(u64, Vec<usize>)> {
    let mut seen = HashSet::new();
    let mut out: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, e) in all.iter().enumerate() {
        // a negative's null mask is never read
        if !seen.insert((e.coverage, e.positive, e.positive.then_some(&e.nulls))) {
            continue;
        }
        match out.iter_mut().find(|(c, _)| *c == e.coverage) {
            Some((_, classes)) => classes.push(i),
            None => out.push((e.coverage, vec![i])),
        }
    }
    out.sort_by_key(|&(c, _)| (c.count_ones(), c));
    out
}

/// The requirements of one coverage category whose classes are
/// represented by `classes` (indexes into `all`), in [`requirements`]'
/// order.
fn category_requirements(
    all: &[Signature],
    coverage: u64,
    classes: &[usize],
    target_arity: usize,
    scope: SufficiencyScope,
) -> Vec<Requirement> {
    let graph = scope.graph.then_some(Requirement::Coverage(coverage));
    let filters = [true, false]
        .into_iter()
        .filter(|_| scope.filters)
        .map(|positive| Requirement::Polarity { coverage, positive });
    let correspondences = (0..target_arity)
        .filter(|_| scope.correspondences)
        .flat_map(|attr| {
            [true, false].map(|non_null| Requirement::AttrValue {
                coverage,
                attr,
                non_null,
            })
        });
    graph
        .into_iter()
        .chain(filters)
        .chain(correspondences)
        .filter(|r| classes.iter().any(|&i| satisfies(&all[i], r)))
        .collect()
}

/// Combinations of positive classes one category's cover search tests
/// before it stops and takes the first class satisfying each remaining
/// requirement.
const COVER_NODE_LIMIT: u64 = 100_000;

/// Indexes into `all`, the signatures of a population, in population
/// order, of the fewest examples that make the examples of signatures
/// `fixed` plus them sufficient for the mapping (Def 4.6). Each is its
/// signature class's first member (module docs). No class of a fixed
/// example is ever added: it would satisfy nothing new.
pub(crate) fn minimal_completion(
    all: &[Signature],
    target_arity: usize,
    fixed: &[&Signature],
) -> Vec<usize> {
    let _span = clio_obs::span("illustration.cover");
    let mut chosen = Vec::new();
    for (coverage, classes) in categories(all) {
        let mut open = category_requirements(
            all,
            coverage,
            &classes,
            target_arity,
            SufficiencyScope::mapping(),
        );
        open.retain(|r| !fixed.iter().any(|e| satisfies(e, r)));
        let (positives, negatives): (Vec<usize>, Vec<usize>) =
            classes.into_iter().partition(|&i| all[i].positive);
        let negative = Requirement::Polarity {
            coverage,
            positive: false,
        };
        if open.contains(&negative) {
            let n = negatives[0];
            open.retain(|r| !satisfies(&all[n], r));
            chosen.push(n);
        }
        if !open.is_empty() {
            chosen.extend(minimum_cover(all, coverage, &positives, &open));
        }
    }
    chosen.sort_unstable();
    chosen
}

/// The first smallest set of `classes` (indexes into `all`, in class
/// order) that together satisfy every requirement in `open`: combinations
/// are tried smallest first, each size in lexicographic class order. Past
/// `COVER_NODE_LIMIT` combinations it warns and takes, for each
/// requirement in turn, the first class satisfying it.
fn minimum_cover(
    all: &[Signature],
    coverage: u64,
    classes: &[usize],
    open: &[Requirement],
) -> Vec<usize> {
    // sat[j][q]: class `j` satisfies `open[q]`
    let sat: Vec<Vec<bool>> = classes
        .iter()
        .map(|&i| open.iter().map(|r| satisfies(&all[i], r)).collect())
        .collect();
    let mut nodes = 0;
    'search: for size in 1..=classes.len() {
        let mut pick: Vec<usize> = (0..size).collect();
        loop {
            metrics::incr(Counter::CoverNodes);
            nodes += 1;
            if (0..open.len()).all(|q| pick.iter().any(|&j| sat[j][q])) {
                return pick.iter().map(|&j| classes[j]).collect();
            }
            if nodes == COVER_NODE_LIMIT {
                break 'search;
            }
            if !next_combination(&mut pick, classes.len()) {
                break;
            }
        }
    }
    // All classes together satisfy every open requirement, so only the
    // bound ends the search without a cover.
    clio_obs::warn_limited(
        "illustration",
        &format!(
            "illustration: minimum cover search for coverage {coverage:#b} stopped after \
             {COVER_NODE_LIMIT} combinations ({} classes, {} requirements); \
             the illustration may not be minimal",
            classes.len(),
            open.len()
        ),
    );
    let mut chosen: Vec<usize> = Vec::new();
    for r in open {
        if !chosen.iter().any(|&i| satisfies(&all[i], r)) {
            chosen.extend(classes.iter().copied().find(|&i| satisfies(&all[i], r)));
        }
    }
    chosen
}

/// Advance `pick`, a strictly increasing `k`-combination of `0..n`, to the
/// next one in lexicographic order; `false` when it was the last.
fn next_combination(pick: &mut [usize], n: usize) -> bool {
    let k = pick.len();
    let Some(i) = (0..k).rev().find(|&i| pick[i] < n - k + i) else {
        return false;
    };
    pick[i] += 1;
    for j in i + 1..k {
        pick[j] = pick[j - 1] + 1;
    }
    true
}

/// Is `illustration` sufficient for the given scope, relative to the full
/// example population `all`?
#[must_use]
pub fn is_sufficient(
    illustration: &[Example],
    all: &[Example],
    target_arity: usize,
    scope: SufficiencyScope,
) -> bool {
    let shown = signatures(illustration);
    requirements(all, target_arity, scope)
        .iter()
        .all(|r| shown.iter().any(|s| satisfies(s, r)))
}

/// Greedy set cover, the reference the exact selection is measured
/// against (B3): repeatedly take the example covering the most uncovered
/// requirements. Returns indexes into `all`, in selection order.
#[must_use]
pub fn select_greedy(all: &[Example], target_arity: usize, scope: SufficiencyScope) -> Vec<usize> {
    let all = signatures(all);
    let mut open = requirements_of(&all, target_arity, scope);
    let mut chosen = Vec::new();
    while !open.is_empty() {
        let gain = |i: &usize| open.iter().filter(|r| satisfies(&all[*i], r)).count();
        // the first example of largest gain (open requirements have witnesses)
        let best = (0..all.len()).rev().max_by_key(gain).expect("a witness");
        open.retain(|r| !satisfies(&all[best], r));
        chosen.push(best);
    }
    chosen
}

/// A selected illustration: the chosen examples plus bookkeeping for
/// display and evolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Illustration {
    /// The selected examples.
    pub examples: Vec<Example>,
}

impl Illustration {
    /// An empty illustration.
    #[must_use]
    pub fn empty() -> Illustration {
        Illustration {
            examples: Vec::new(),
        }
    }

    /// Build from chosen indexes into a population.
    #[must_use]
    pub fn from_indexes(all: &[Example], idxs: &[usize]) -> Illustration {
        Illustration {
            examples: idxs.iter().map(|&i| all[i].clone()).collect(),
        }
    }

    /// A minimal sufficient illustration of the mapping (Def 4.6), in
    /// population order.
    #[must_use]
    pub fn minimal_sufficient(all: &[Example], target_arity: usize) -> Illustration {
        let chosen = minimal_completion(&signatures(all), target_arity, &[]);
        Illustration::from_indexes(all, &chosen)
    }

    /// A minimal *sufficient and focused* illustration (Defs 4.6 + 4.7):
    /// every example in `required` (the focus closure — all examples
    /// involving the focus tuples) comes first, then the fewest examples
    /// that restore sufficiency, in population order.
    #[must_use]
    pub fn minimal_sufficient_focused(
        all: &[Example],
        target_arity: usize,
        required: &[Example],
    ) -> Illustration {
        let fixed = signatures(required);
        let added = minimal_completion(
            &signatures(all),
            target_arity,
            &fixed.iter().collect::<Vec<_>>(),
        );
        Illustration {
            examples: required
                .iter()
                .chain(added.iter().map(|&i| &all[i]))
                .cloned()
                .collect(),
        }
    }

    /// Number of examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Is the illustration empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Count per polarity: `(positives, negatives)`.
    #[must_use]
    pub fn polarity_counts(&self) -> (usize, usize) {
        let pos = self.examples.iter().filter(|e| e.positive).count();
        (pos, self.examples.len() - pos)
    }

    /// The coverage categories represented, with multiplicity.
    #[must_use]
    pub fn category_histogram(&self) -> HashMap<u64, usize> {
        let mut out = HashMap::new();
        for e in &self.examples {
            *out.entry(e.coverage).or_insert(0) += 1;
        }
        out
    }

    /// Render in the paper's Figure-9 style.
    #[must_use]
    pub fn render(&self, graph: &QueryGraph, scheme: &clio_relational::schema::Scheme) -> String {
        let refs: Vec<&Example> = self.examples.iter().collect();
        crate::example::render_examples(graph, scheme, &refs)
    }

    /// Alternative examples for slot `index`: the indexes into `all`,
    /// the signatures of the population in order, of the examples that
    /// satisfy every requirement the current example covers
    /// *exclusively* (i.e. could replace it without losing sufficiency),
    /// excluding the examples `shown` names, those already in the
    /// illustration. The paper: the user may view and manipulate
    /// illustrations, "perhaps asking for different example tuples".
    #[must_use]
    pub fn alternatives_for(
        &self,
        index: usize,
        all: &[Signature],
        target_arity: usize,
        scope: SufficiencyScope,
        shown: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        if index >= self.examples.len() {
            return Vec::new();
        }
        let signatures = signatures(&self.examples);
        // requirements only the current example covers within this
        // illustration
        let exclusive: Vec<Requirement> = requirements_of(all, target_arity, scope)
            .into_iter()
            .filter(|r| {
                satisfies(&signatures[index], r)
                    && !signatures
                        .iter()
                        .enumerate()
                        .any(|(i, s)| i != index && satisfies(s, r))
            })
            .collect();
        (0..all.len())
            .filter(|&i| !shown(i) && exclusive.iter().all(|r| satisfies(&all[i], r)))
            .collect()
    }

    /// Would replacing the example at `index` with an example of
    /// signature `replacement` keep the illustration sufficient relative
    /// to the population whose signatures are `all`? `false` when `index`
    /// is out of range.
    #[must_use]
    pub fn can_swap(
        &self,
        index: usize,
        replacement: &Signature,
        all: &[Signature],
        target_arity: usize,
        scope: SufficiencyScope,
    ) -> bool {
        if index >= self.examples.len() {
            return false;
        }
        let mut shown = signatures(&self.examples);
        shown[index] = replacement.clone();
        requirements_of(all, target_arity, scope)
            .iter()
            .all(|r| shown.iter().any(|s| satisfies(s, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_relational::value::Value;

    /// Hand-built example population over a 2-node graph (masks 0b01,
    /// 0b10, 0b11) and a 2-attribute target.
    fn population() -> Vec<Example> {
        fn ex(coverage: u64, positive: bool, t0: Option<&str>, t1: Option<&str>) -> Example {
            Example {
                association: vec![Value::Int(coverage as i64)],
                coverage,
                target: vec![
                    t0.map(Value::str).map_or(Value::Null, |v| v),
                    t1.map(Value::str).map_or(Value::Null, |v| v),
                ],
                positive,
            }
        }
        vec![
            ex(0b11, true, Some("a"), Some("x")),  // 0
            ex(0b11, true, Some("b"), None),       // 1
            ex(0b11, false, Some("c"), Some("y")), // 2
            ex(0b01, true, Some("d"), None),       // 3
            ex(0b10, false, None, Some("z")),      // 4
        ]
    }

    #[test]
    fn requirement_satisfaction() {
        let pop = signatures(&population());
        assert!(satisfies(&pop[0], &Requirement::Coverage(0b11)));
        assert!(!satisfies(&pop[3], &Requirement::Coverage(0b11)));
        assert!(satisfies(
            &pop[2],
            &Requirement::Polarity {
                coverage: 0b11,
                positive: false
            }
        ));
        assert!(satisfies(
            &pop[1],
            &Requirement::AttrValue {
                coverage: 0b11,
                attr: 1,
                non_null: false
            }
        ));
        // negative examples never satisfy AttrValue requirements
        assert!(!satisfies(
            &pop[2],
            &Requirement::AttrValue {
                coverage: 0b11,
                attr: 1,
                non_null: true
            }
        ));
    }

    #[test]
    fn requirements_are_conditional_on_existence() {
        let pop = population();
        let reqs = requirements(&pop, 2, SufficiencyScope::mapping());
        // no positive example with coverage 0b10 → no such polarity req
        assert!(!reqs.contains(&Requirement::Polarity {
            coverage: 0b10,
            positive: true
        }));
        assert!(reqs.contains(&Requirement::Polarity {
            coverage: 0b10,
            positive: false
        }));
        // coverage reqs for all three categories
        for c in [0b01u64, 0b10, 0b11] {
            assert!(reqs.contains(&Requirement::Coverage(c)));
        }
        // 0b01 positives never have attr1 non-null → only the null variant
        assert!(reqs.contains(&Requirement::AttrValue {
            coverage: 0b01,
            attr: 1,
            non_null: false
        }));
        assert!(!reqs.contains(&Requirement::AttrValue {
            coverage: 0b01,
            attr: 1,
            non_null: true
        }));
    }

    #[test]
    fn full_population_is_always_sufficient() {
        let pop = population();
        assert!(is_sufficient(&pop, &pop, 2, SufficiencyScope::mapping()));
    }

    #[test]
    fn dropping_a_category_breaks_graph_sufficiency() {
        let pop = population();
        let partial: Vec<Example> = pop.iter().filter(|e| e.coverage != 0b10).cloned().collect();
        assert!(!is_sufficient(
            &partial,
            &pop,
            2,
            SufficiencyScope::graph_only()
        ));
        // but removing one of two CPPh-full examples keeps it sufficient
        let partial: Vec<Example> = pop
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 0)
            .map(|(_, e)| e.clone())
            .collect();
        assert!(is_sufficient(
            &partial,
            &pop,
            2,
            SufficiencyScope::graph_only()
        ));
    }

    #[test]
    fn filters_sufficiency_needs_both_polarities() {
        let pop = population();
        let only_positive: Vec<Example> = pop.iter().filter(|e| e.positive).cloned().collect();
        assert!(!is_sufficient(
            &only_positive,
            &pop,
            2,
            SufficiencyScope::filters_only()
        ));
    }

    #[test]
    fn correspondence_sufficiency_needs_null_and_non_null_witnesses() {
        let pop = population();
        // drop example 1 (the only positive 0b11 with null attr1)
        let partial: Vec<Example> = pop
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, e)| e.clone())
            .collect();
        assert!(!is_sufficient(
            &partial,
            &pop,
            2,
            SufficiencyScope::correspondences_only()
        ));
    }

    #[test]
    fn greedy_selection_is_sufficient() {
        let pop = population();
        let idxs = select_greedy(&pop, 2, SufficiencyScope::mapping());
        let ill = Illustration::from_indexes(&pop, &idxs);
        assert!(is_sufficient(
            &ill.examples,
            &pop,
            2,
            SufficiencyScope::mapping()
        ));
    }

    #[test]
    fn minimal_selection_is_sufficient_and_no_larger_than_greedy() {
        let pop = population();
        let scope = SufficiencyScope::mapping();
        let ill = Illustration::minimal_sufficient(&pop, 2);
        assert!(is_sufficient(&ill.examples, &pop, 2, scope));
        assert!(ill.len() <= select_greedy(&pop, 2, scope).len());
        // every example is the only witness of some requirement here
        assert_eq!(ill.examples, pop);
    }

    /// Positive examples of one coverage over a target of `arity`
    /// attributes: `copies` copies of each non-null pattern, one pattern
    /// after another, in the order given.
    fn positives(arity: usize, patterns: &[Vec<usize>], copies: usize) -> Vec<Example> {
        let mut out = Vec::new();
        for (p, non_null) in patterns.iter().enumerate() {
            let target: Vec<Value> = (0..arity)
                .map(|a| {
                    if non_null.contains(&a) {
                        Value::Int(a as i64)
                    } else {
                        Value::Null
                    }
                })
                .collect();
            for k in 0..copies {
                out.push(Example {
                    association: vec![Value::Int((p * copies + k) as i64)],
                    coverage: 0b1,
                    target: target.clone(),
                    positive: true,
                });
            }
        }
        out
    }

    #[test]
    fn three_classes_of_many_copies_need_two_examples() {
        // non-null masks 001, 011 and 100 (attribute 0 leftmost), 500
        // copies each; greedy takes 001 first and then needs both others
        let pop = positives(3, &[vec![2], vec![1, 2], vec![0]], 500);
        let scope = SufficiencyScope::mapping();
        let ill = Illustration::minimal_sufficient(&pop, 3);
        assert!(is_sufficient(&ill.examples, &pop, 3, scope));
        assert_eq!(ill.len(), 2);
        assert_eq!(select_greedy(&pop, 3, scope).len(), 3);
        // each class is represented by its first member
        assert_eq!(ill.examples, vec![pop[500].clone(), pop[1000].clone()]);
    }

    #[test]
    fn null_masks_keep_attributes_past_the_sixty_fourth() {
        // two classes differ only at attribute 66: each is the one
        // witness of one of its requirements
        let pop = positives(70, &[vec![66], vec![]], 2);
        let ill = Illustration::minimal_sufficient(&pop, 70);
        assert_eq!(ill.examples, vec![pop[0].clone(), pop[2].clone()]);
        assert!(is_sufficient(
            &ill.examples,
            &pop,
            70,
            SufficiencyScope::mapping()
        ));
    }

    #[test]
    fn search_bound_warns_and_still_yields_a_sufficient_illustration() {
        // 40 one-hot classes: every attribute's non-null requirement has
        // one witness, so the minimum is all 40 and the smaller sizes'
        // combinations outnumber the bound
        let arity = 40;
        let one_hot: Vec<Vec<usize>> = (0..arity).map(|a| vec![a]).collect();
        let pop = positives(arity, &one_hot, 1);
        let (printed, suppressed) = clio_obs::warn_counts("illustration");
        let ill = Illustration::minimal_sufficient(&pop, arity);
        let (printed_after, suppressed_after) = clio_obs::warn_counts("illustration");
        assert!(printed_after + suppressed_after > printed + suppressed);
        assert!(is_sufficient(
            &ill.examples,
            &pop,
            arity,
            SufficiencyScope::mapping()
        ));
        assert_eq!(ill.len(), arity);
    }

    #[test]
    fn focused_selection_keeps_the_required_examples_first() {
        let pop = population();
        let scope = SufficiencyScope::mapping();
        let required = vec![pop[4].clone(), pop[0].clone()];
        let ill = Illustration::minimal_sufficient_focused(&pop, 2, &required);
        assert_eq!(ill.examples[..2], required[..]);
        assert!(is_sufficient(&ill.examples, &pop, 2, scope));
        // the repairs are the other three, in population order
        assert_eq!(
            ill.examples[2..],
            [pop[1].clone(), pop[2].clone(), pop[3].clone()]
        );
    }

    #[test]
    fn combinations_run_in_lexicographic_order() {
        let mut pick = vec![0, 1];
        let mut seen = vec![pick.clone()];
        while next_combination(&mut pick, 4) {
            seen.push(pick.clone());
        }
        let expected: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn minimal_sufficient_constructor() {
        let pop = population();
        let ill = Illustration::minimal_sufficient(&pop, 2);
        assert!(is_sufficient(
            &ill.examples,
            &pop,
            2,
            SufficiencyScope::mapping()
        ));
        let (p, n) = ill.polarity_counts();
        assert!(p >= 1 && n >= 1);
        assert_eq!(ill.category_histogram().len(), 3);
    }

    #[test]
    fn alternatives_and_swap_preserve_sufficiency() {
        let pop = population();
        let all = signatures(&pop);
        let scope = SufficiencyScope::mapping();
        let ill = Illustration::minimal_sufficient(&pop, 2);
        // pick the slot holding the 0b11 positive-with-non-null example
        let slot = ill
            .examples
            .iter()
            .position(|e| e.coverage == 0b11 && e.positive && !e.target[1].is_null())
            .expect("slot exists");
        // population example 0 and 1 both cover 0b11 positives, but only
        // example 0 has non-null attr1; no alternative can replace it
        let shown = |i: usize| ill.examples.contains(&pop[i]);
        let alts = ill.alternatives_for(slot, &all, 2, scope, shown);
        for &a in &alts {
            assert!(ill.can_swap(slot, &all[a], &all, 2, scope));
            let mut trial = ill.clone();
            trial.examples[slot] = pop[a].clone();
            assert!(is_sufficient(&trial.examples, &pop, 2, scope));
        }
        // swapping in a random unsuitable example is refused
        let unsuitable = 4; // 0b10 negative
        if !alts.contains(&unsuitable) {
            assert!(!ill.can_swap(slot, &all[unsuitable], &all, 2, scope));
        }
        // out-of-range swap is refused
        assert!(!ill.can_swap(99, &all[0], &all, 2, scope));
        assert!(ill.alternatives_for(99, &all, 2, scope, shown).is_empty());
    }

    #[test]
    fn empty_population_yields_empty_illustration() {
        let ill = Illustration::minimal_sufficient(&[], 2);
        assert!(ill.is_empty());
        assert!(is_sufficient(&[], &[], 2, SufficiencyScope::mapping()));
    }
}

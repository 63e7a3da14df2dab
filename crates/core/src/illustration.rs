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
//! The requirements form a set-cover instance over the candidate examples.
//! Selecting a *minimal* sufficient illustration is NP-hard in general, so
//! we provide a greedy `ln n`-approximation ([`select_greedy`]) and an
//! exact branch-and-bound ([`select_exact`]) for the small instances that
//! arise in practice; benchmark **B3** compares them. The paper: "We make
//! use of [...] techniques [...] to efficiently select a minimal
//! sufficient illustration."

use std::collections::{HashMap, HashSet};

use clio_obs::metrics::{self, Counter};

use crate::example::Example;
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

/// Does example `e` satisfy requirement `r`?
#[must_use]
pub fn satisfies(e: &Example, r: &Requirement) -> bool {
    metrics::incr(Counter::RequirementsChecked);
    match *r {
        Requirement::Coverage(c) => e.coverage == c,
        Requirement::Polarity { coverage, positive } => {
            e.coverage == coverage && e.positive == positive
        }
        Requirement::AttrValue {
            coverage,
            attr,
            non_null,
        } => e.positive && e.coverage == coverage && e.target[attr].is_null() != non_null,
    }
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
#[must_use]
pub fn requirements(
    all: &[Example],
    target_arity: usize,
    scope: SufficiencyScope,
) -> Vec<Requirement> {
    let mut out = Vec::new();
    let mut categories: Vec<u64> = Vec::new();
    for e in all {
        if !categories.contains(&e.coverage) {
            categories.push(e.coverage);
        }
    }
    categories.sort_by_key(|&m| (m.count_ones(), m));

    for &c in &categories {
        if scope.graph {
            out.push(Requirement::Coverage(c));
        }
        if scope.filters {
            for positive in [true, false] {
                let r = Requirement::Polarity {
                    coverage: c,
                    positive,
                };
                if all.iter().any(|e| satisfies(e, &r)) {
                    out.push(r);
                }
            }
        }
        if scope.correspondences {
            for attr in 0..target_arity {
                for non_null in [true, false] {
                    let r = Requirement::AttrValue {
                        coverage: c,
                        attr,
                        non_null,
                    };
                    if all.iter().any(|e| satisfies(e, &r)) {
                        out.push(r);
                    }
                }
            }
        }
    }
    out
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
    requirements(all, target_arity, scope)
        .iter()
        .all(|r| illustration.iter().any(|e| satisfies(e, r)))
}

/// Greedy minimal-sufficient-illustration selection: repeatedly take the
/// example covering the most uncovered requirements. Returns indexes into
/// `all`.
#[must_use]
pub fn select_greedy(all: &[Example], target_arity: usize, scope: SufficiencyScope) -> Vec<usize> {
    let _span = clio_obs::span("illustration.select_greedy");
    let reqs = requirements(all, target_arity, scope);
    let mut covered = vec![false; reqs.len()];
    let mut chosen: Vec<usize> = Vec::new();
    let mut taken = vec![false; all.len()];
    loop {
        metrics::incr(Counter::GreedyIterations);
        let mut best: Option<(usize, usize)> = None; // (example idx, gain)
        for (i, e) in all.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let gain = reqs
                .iter()
                .zip(&covered)
                .filter(|(r, &c)| !c && satisfies(e, r))
                .count();
            if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            None => break,
            Some((i, _)) => {
                for (k, r) in reqs.iter().enumerate() {
                    if satisfies(&all[i], r) {
                        covered[k] = true;
                    }
                }
                taken[i] = true;
                chosen.push(i);
            }
        }
    }
    chosen
}

/// Exact minimum sufficient illustration by branch-and-bound. Branches on
/// the uncovered requirement with the fewest candidates. `node_limit`
/// bounds the search (returns `None` when exceeded) so callers can fall
/// back to [`select_greedy`] on adversarial instances.
#[must_use]
pub fn select_exact(
    all: &[Example],
    target_arity: usize,
    scope: SufficiencyScope,
    node_limit: usize,
) -> Option<Vec<usize>> {
    let reqs = requirements(all, target_arity, scope);
    // candidates per requirement
    let cands: Vec<Vec<usize>> = reqs
        .iter()
        .map(|r| (0..all.len()).filter(|&i| satisfies(&all[i], r)).collect())
        .collect();
    let greedy = select_greedy(all, target_arity, scope);
    let mut best: Vec<usize> = greedy;
    let mut nodes = 0usize;

    fn recurse(
        all: &[Example],
        reqs: &[Requirement],
        cands: &[Vec<usize>],
        chosen: &mut Vec<usize>,
        best: &mut Vec<usize>,
        nodes: &mut usize,
        node_limit: usize,
    ) -> bool {
        *nodes += 1;
        if *nodes > node_limit {
            return false;
        }
        if chosen.len() >= best.len() {
            return true; // prune: cannot improve
        }
        // first uncovered requirement with the fewest candidates
        let mut pick: Option<usize> = None;
        for (k, r) in reqs.iter().enumerate() {
            if !chosen.iter().any(|&i| satisfies(&all[i], r))
                && pick.is_none_or(|p| cands[k].len() < cands[p].len())
            {
                pick = Some(k);
            }
        }
        let Some(k) = pick else {
            // all covered: new best
            *best = chosen.clone();
            return true;
        };
        for &i in &cands[k] {
            chosen.push(i);
            let ok = recurse(all, reqs, cands, chosen, best, nodes, node_limit);
            chosen.pop();
            if !ok {
                return false;
            }
        }
        true
    }

    let mut chosen = Vec::new();
    let completed = recurse(
        all,
        &reqs,
        &cands,
        &mut chosen,
        &mut best,
        &mut nodes,
        node_limit,
    );
    completed.then(|| {
        best.sort_unstable();
        best
    })
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

    /// A minimal sufficient illustration of the mapping (Def 4.6): exact
    /// when the search completes within budget, greedy otherwise.
    #[must_use]
    pub fn minimal_sufficient(all: &[Example], target_arity: usize) -> Illustration {
        let scope = SufficiencyScope::mapping();
        let idxs = select_exact(all, target_arity, scope, 200_000)
            .unwrap_or_else(|| select_greedy(all, target_arity, scope));
        Illustration::from_indexes(all, &idxs)
    }

    /// A minimal *sufficient and focused* illustration (Defs 4.6 + 4.7):
    /// every example in `required` (the focus closure — all examples
    /// involving the focus tuples) is included, then sufficiency is
    /// restored greedily with as few extra examples as possible.
    #[must_use]
    pub fn minimal_sufficient_focused(
        all: &[Example],
        target_arity: usize,
        required: &[Example],
    ) -> Illustration {
        let scope = SufficiencyScope::mapping();
        let reqs = requirements(all, target_arity, scope);
        let mut examples: Vec<Example> = required.to_vec();
        // The members of `examples`, borrowed from the inputs.
        let mut taken: HashSet<&Example> = required.iter().collect();
        let mut covered: Vec<bool> = reqs
            .iter()
            .map(|r| examples.iter().any(|e| satisfies(e, r)))
            .collect();
        loop {
            metrics::incr(Counter::GreedyIterations);
            let mut best: Option<(usize, usize)> = None;
            for (i, e) in all.iter().enumerate() {
                if taken.contains(e) {
                    continue;
                }
                let gain = reqs
                    .iter()
                    .zip(&covered)
                    .filter(|(r, &c)| !c && satisfies(e, r))
                    .count();
                if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            match best {
                None => break,
                Some((i, _)) => {
                    for (k, r) in reqs.iter().enumerate() {
                        if satisfies(&all[i], r) {
                            covered[k] = true;
                        }
                    }
                    taken.insert(&all[i]);
                    examples.push(all[i].clone());
                }
            }
        }
        Illustration { examples }
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

    /// Alternative examples for slot `index`: members of the population
    /// that satisfy every requirement the current example covers
    /// *exclusively* (i.e. could replace it without losing sufficiency),
    /// excluding examples already in the illustration. The paper: the
    /// user may view and manipulate illustrations, "perhaps asking for
    /// different example tuples".
    #[must_use]
    pub fn alternatives_for(
        &self,
        index: usize,
        all: &[Example],
        target_arity: usize,
        scope: SufficiencyScope,
    ) -> Vec<Example> {
        let Some(current) = self.examples.get(index) else {
            return Vec::new();
        };
        // requirements only `current` covers within this illustration
        let exclusive: Vec<Requirement> = requirements(all, target_arity, scope)
            .into_iter()
            .filter(|r| {
                satisfies(current, r)
                    && !self
                        .examples
                        .iter()
                        .enumerate()
                        .any(|(i, e)| i != index && satisfies(e, r))
            })
            .collect();
        all.iter()
            .filter(|e| {
                *e != current
                    && !self.examples.contains(e)
                    && exclusive.iter().all(|r| satisfies(e, r))
            })
            .cloned()
            .collect()
    }

    /// Replace the example at `index` with `replacement`. Returns `false`
    /// (and leaves the illustration untouched) when the swap would break
    /// sufficiency relative to `all`.
    pub fn swap(
        &mut self,
        index: usize,
        replacement: Example,
        all: &[Example],
        target_arity: usize,
        scope: SufficiencyScope,
    ) -> bool {
        if index >= self.examples.len() {
            return false;
        }
        let saved = std::mem::replace(&mut self.examples[index], replacement);
        if is_sufficient(&self.examples, all, target_arity, scope) {
            true
        } else {
            self.examples[index] = saved;
            false
        }
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
        let pop = population();
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
    fn exact_selection_is_minimal_and_sufficient() {
        let pop = population();
        let idxs = select_exact(&pop, 2, SufficiencyScope::mapping(), 100_000).unwrap();
        let ill = Illustration::from_indexes(&pop, &idxs);
        assert!(is_sufficient(
            &ill.examples,
            &pop,
            2,
            SufficiencyScope::mapping()
        ));
        // this instance needs examples 1 (null attr1), one of {0} (non-null
        // attr1 + non-null attr0), 2 (negative 0b11), 3, 4 → exactly 5? No:
        // example 0 covers several reqs; count must be ≤ greedy's
        let greedy = select_greedy(&pop, 2, SufficiencyScope::mapping());
        assert!(idxs.len() <= greedy.len());
        assert_eq!(idxs.len(), 5); // all five are needed here
    }

    #[test]
    fn exact_respects_node_limit() {
        let pop = population();
        assert!(select_exact(&pop, 2, SufficiencyScope::mapping(), 1).is_none());
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
        let scope = SufficiencyScope::mapping();
        let mut ill = Illustration::minimal_sufficient(&pop, 2);
        // pick the slot holding the 0b11 positive-with-non-null example
        let slot = ill
            .examples
            .iter()
            .position(|e| e.coverage == 0b11 && e.positive && !e.target[1].is_null())
            .expect("slot exists");
        // population example 0 and 1 both cover 0b11 positives, but only
        // example 0 has non-null attr1; no alternative can replace it
        let alts = ill.alternatives_for(slot, &pop, 2, scope);
        for a in &alts {
            let mut trial = ill.clone();
            assert!(trial.swap(slot, a.clone(), &pop, 2, scope));
            assert!(is_sufficient(&trial.examples, &pop, 2, scope));
        }
        // swapping in a random unsuitable example is refused
        let unsuitable = pop[4].clone(); // 0b10 negative
        let before = ill.clone();
        if !alts.contains(&unsuitable) {
            assert!(!ill.swap(slot, unsuitable, &pop, 2, scope));
            assert_eq!(ill, before);
        }
        // out-of-range swap is refused
        assert!(!ill.swap(99, pop[0].clone(), &pop, 2, scope));
        assert!(ill.alternatives_for(99, &pop, 2, scope).is_empty());
    }

    #[test]
    fn empty_population_yields_empty_illustration() {
        let ill = Illustration::minimal_sufficient(&[], 2);
        assert!(ill.is_empty());
        assert!(is_sufficient(&[], &[], 2, SufficiencyScope::mapping()));
    }
}

//! Enumeration of induced connected subgraphs (paper Def 3.6).
//!
//! The possible data associations of a query graph `G` are the full data
//! associations of its induced, *connected* subgraphs, padded with nulls.
//! Subsets are represented as `u64` masks over node ids.
//!
//! Two enumeration strategies:
//!
//! * [`connected_subsets_exhaustive`] — test all `2^n − 1` subsets;
//! * [`connected_subsets`] — grow connected sets from each anchor node,
//!   only ever extending by neighbours, so work is proportional to the
//!   number of connected subsets rather than `2^n` (sparse graphs have far
//!   fewer).

use crate::query_graph::QueryGraph;

/// All non-empty connected node subsets, exhaustively. Ordered by
/// ascending popcount, then ascending mask value (deterministic).
#[must_use]
pub fn connected_subsets_exhaustive(g: &QueryGraph) -> Vec<u64> {
    let n = g.node_count();
    assert!(n <= 63, "exhaustive enumeration limited to 63 nodes");
    let mut out: Vec<u64> = (1u64..(1u64 << n))
        .filter(|&mask| g.is_subset_connected(mask))
        .collect();
    sort_masks(&mut out);
    out
}

/// All non-empty connected node subsets, by anchored growth: subsets are
/// generated once each by only allowing extensions with nodes greater than
/// the anchor (smallest node of the subset), taken from the neighbourhood.
#[must_use]
pub fn connected_subsets(g: &QueryGraph) -> Vec<u64> {
    let n = g.node_count();
    let mut out = Vec::new();
    for anchor in 0..n {
        // forbidden: nodes < anchor (they would change the anchor)
        let forbidden: u64 = (1u64 << anchor) - 1;
        let start = 1u64 << anchor;
        grow(
            g,
            start,
            neighbourhood(g, start) & !forbidden & !start,
            forbidden,
            &mut out,
        );
    }
    sort_masks(&mut out);
    out
}

/// The nodes outside `mask` adjacent to some node of it.
pub(crate) fn neighbourhood(g: &QueryGraph, mask: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..g.node_count() {
        if mask & (1 << i) != 0 {
            for m in g.neighbors(i) {
                out |= 1 << m;
            }
        }
    }
    out & !mask
}

/// Recursive growth: emit `current`, then extend by each allowed frontier
/// node. The classic trick to avoid duplicates: when we branch on frontier
/// node `v`, subsequent branches at this level forbid `v` (it becomes part
/// of `forbidden`), so each subset is generated along exactly one path.
fn grow(g: &QueryGraph, current: u64, frontier: u64, forbidden: u64, out: &mut Vec<u64>) {
    out.push(current);
    let mut remaining = frontier;
    let mut newly_forbidden = forbidden;
    while remaining != 0 {
        let v = remaining.trailing_zeros() as u64;
        let vbit = 1u64 << v;
        remaining &= !vbit;
        let next = current | vbit;
        let next_frontier =
            (frontier | (neighbourhood(g, vbit) & !next)) & !vbit & !newly_forbidden;
        grow(g, next, next_frontier, newly_forbidden | vbit, out);
        newly_forbidden |= vbit;
    }
}

fn sort_masks(masks: &mut [u64]) {
    masks.sort_by_key(|&m| (m.count_ones(), m));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::{Node, QueryGraph};
    use clio_relational::expr::Expr;

    fn graph(n: usize, edges: &[(usize, usize)]) -> QueryGraph {
        let mut g = QueryGraph::new();
        for i in 0..n {
            g.add_node(Node::new(format!("R{i}"))).unwrap();
        }
        for &(a, b) in edges {
            g.add_edge(a, b, Expr::col_eq(&format!("R{a}.x"), &format!("R{b}.x")))
                .unwrap();
        }
        g
    }

    #[test]
    fn example_3_12_path_graph_subsets() {
        // Children — Parents — PhoneDir: the induced connected subgraphs
        // are {C}, {P}, {Ph}, {CP}, {PPh}, {CPPh} — six, and NOT {C,Ph}.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let subs = connected_subsets_exhaustive(&g);
        assert_eq!(subs, vec![0b001, 0b010, 0b100, 0b011, 0b110, 0b111]);
        assert!(!subs.contains(&0b101));
    }

    #[test]
    fn anchored_agrees_with_exhaustive_on_small_graphs() {
        for (n, edges) in [
            (1usize, vec![]),
            (2, vec![(0, 1)]),
            (3, vec![(0, 1), (1, 2)]),
            (4, vec![(0, 1), (0, 2), (0, 3)]),         // star
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]), // cycle
            (5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]), // path
            (5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), // lollipop
        ] {
            let g = graph(n, &edges);
            assert_eq!(
                connected_subsets(&g),
                connected_subsets_exhaustive(&g),
                "n={n} edges={edges:?}"
            );
        }
    }

    #[test]
    fn complete_graph_has_all_subsets() {
        let g = graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(connected_subsets(&g).len(), 15);
    }

    #[test]
    fn path_count_is_quadratic_not_exponential() {
        // a path of n nodes has n(n+1)/2 connected subsets
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = graph(10, &edges);
        assert_eq!(connected_subsets(&g).len(), 55);
    }

    #[test]
    fn star_counts() {
        // star with center 0 and k leaves: k singletons + 1 center-singleton
        // + every subset containing the center: 2^k; total 2^k + k
        let g = graph(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(connected_subsets(&g).len(), 16 + 4);
    }

    #[test]
    fn singletons_always_present() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let subs = connected_subsets(&g);
        for i in 0..3u64 {
            assert!(subs.contains(&(1 << i)));
        }
    }

    #[test]
    fn output_is_sorted_and_duplicate_free() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let subs = connected_subsets(&g);
        let mut sorted = subs.clone();
        sorted.sort_by_key(|&m| (m.count_ones(), m));
        sorted.dedup();
        assert_eq!(subs, sorted);
    }
}

//! Bipartiteness with two-sided certificates.
//!
//! `G ∈ G(2-col)` — the yes-instances of the paper's central language — iff
//! [`bipartition`] returns `Ok`. On failure the returned odd cycle is the
//! witness that strong soundness checkers look for in accepting subgraphs.
//! [`is_bipartite_within`] answers the same question for the subgraph a
//! node mask induces, in a few word operations per node: the strong
//! check's per-item test at k = 2.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Either a proper 2-coloring (sides `0`/`1`; isolated and unreachable
/// nodes get side `0`) or an odd cycle as a node sequence
/// `v_0, v_1, …, v_{2k}` with consecutive nodes (and last-to-first)
/// adjacent.
pub fn bipartition(g: &Graph) -> Result<Vec<u8>, Vec<usize>> {
    let n = g.node_count();
    let mut side = vec![u8::MAX; n];
    let mut parent = vec![usize::MAX; n];
    for start in g.nodes() {
        if side[start] != u8::MAX {
            continue;
        }
        side[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if side[u] == u8::MAX {
                    side[u] = side[v] ^ 1;
                    parent[u] = v;
                    queue.push_back(u);
                } else if side[u] == side[v] {
                    return Err(odd_cycle_from_conflict(&parent, v, u));
                }
            }
        }
    }
    Ok(side)
}

/// Whether the graph is bipartite.
pub fn is_bipartite(g: &Graph) -> bool {
    bipartition(g).is_ok()
}

/// Whether the subgraph of `g` induced by the nodes in `mask` (bit `v` set
/// for node `v`) is bipartite: `is_bipartite(&g.induced(..).0)` without
/// building the subgraph or allocating. A breadth-first search over the
/// mask, one layer at a time as a bitset: the graph is bipartite iff no
/// edge joins two nodes of one layer. Each node's neighbour row is read
/// once, when its layer is expanded.
///
/// # Panics
///
/// Panics if `g` has more than 64 nodes, the mask's width.
pub fn is_bipartite_within(g: &Graph, mask: u64) -> bool {
    assert!(g.node_count() <= 64, "a u64 mask covers at most 64 nodes");
    let row = |v: usize| g.neighbors(v).iter().fold(0u64, |row, &u| row | 1 << u) & mask;
    let mut unseen = mask;
    while unseen != 0 {
        let mut layer = unseen & unseen.wrapping_neg();
        unseen &= !layer;
        while layer != 0 {
            let mut next = 0u64;
            let mut rest = layer;
            while rest != 0 {
                let v = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let neighbours = row(v);
                #[cfg(conformance_mutants)]
                let neighbours = if crate::mutants::active("bipartite_within_same_layer_edge") {
                    neighbours & !layer
                } else {
                    neighbours
                };
                if neighbours & layer != 0 {
                    return false;
                }
                next |= neighbours & unseen;
            }
            unseen &= !next;
            layer = next;
        }
    }
    true
}

/// Reconstructs an odd cycle from a BFS-tree conflict edge `{v, u}` where
/// both endpoints have the same side.
fn odd_cycle_from_conflict(parent: &[usize], v: usize, u: usize) -> Vec<usize> {
    // Walk both nodes up to their lowest common ancestor.
    let path_to_root = |mut x: usize| {
        let mut path = vec![x];
        while parent[x] != usize::MAX {
            x = parent[x];
            path.push(x);
        }
        path
    };
    let pv = path_to_root(v);
    let pu = path_to_root(u);
    // Find LCA: deepest common node. Paths end at the same root.
    let mut i = pv.len();
    let mut j = pu.len();
    while i > 0 && j > 0 && pv[i - 1] == pu[j - 1] {
        i -= 1;
        j -= 1;
    }
    // Cycle: v .. lca .. u (reversed), then the edge u-v closes it.
    let mut cycle: Vec<usize> = pv[..=i].to_vec();
    cycle.extend(pu[..j].iter().rev());
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_valid_odd_cycle(g: &Graph, cycle: &[usize]) {
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.len() % 2, 1, "cycle {cycle:?} is not odd");
        for i in 0..cycle.len() {
            let a = cycle[i];
            let b = cycle[(i + 1) % cycle.len()];
            assert!(g.has_edge(a, b), "{a}-{b} missing in odd cycle {cycle:?}");
        }
        let mut dedup = cycle.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), cycle.len(), "cycle {cycle:?} repeats a node");
    }

    #[test]
    fn even_structures_are_bipartite() {
        for g in [
            generators::cycle(6),
            generators::path(7),
            generators::grid(3, 4),
            generators::complete_bipartite(3, 4),
            generators::hypercube(3),
            generators::star(5),
        ] {
            let side = bipartition(&g).expect("bipartite");
            for (u, v) in g.edges() {
                assert_ne!(side[u], side[v]);
            }
        }
    }

    #[test]
    fn odd_cycles_are_certified() {
        for g in [
            generators::cycle(3),
            generators::cycle(7),
            generators::complete(4),
            generators::petersen(),
            generators::watermelon(&[2, 3]),
        ] {
            let cycle = bipartition(&g).expect_err("non-bipartite");
            assert_valid_odd_cycle(&g, &cycle);
        }
    }

    #[test]
    fn disconnected_graphs() {
        let good = generators::path(3).disjoint_union(&generators::cycle(4));
        assert!(is_bipartite(&good));
        let bad = generators::path(3).disjoint_union(&generators::cycle(5));
        let cycle = bipartition(&bad).expect_err("odd component");
        assert_valid_odd_cycle(&bad, &cycle);
        assert!(cycle.iter().all(|&v| v >= 3), "cycle lies in C5 component");
    }

    #[test]
    fn empty_and_trivial() {
        assert!(is_bipartite(&Graph::new(0)));
        assert!(is_bipartite(&Graph::new(5)));
        assert!(is_bipartite_within(&Graph::new(0), 0));
        assert!(is_bipartite_within(&generators::complete(4), 0));
    }

    #[test]
    fn bitset_kernel_matches_the_induced_subgraph() {
        // Every connected graph on at most 6 nodes, every node subset: the
        // bitset search agrees with 2-colorability of the induced subgraph.
        for g in generators::connected_graphs_up_to(6) {
            let n = g.node_count();
            for mask in 0..1u64 << n {
                let keep: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
                let (induced, _) = g.induced(&keep);
                assert_eq!(
                    is_bipartite_within(&g, mask),
                    crate::algo::coloring::is_k_colorable(&induced, 2),
                    "edges {:?}, mask {mask:#b}",
                    g.edges().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn bitset_kernel_spans_the_whole_word() {
        let odd = generators::cycle(63);
        assert!(!is_bipartite_within(&odd, (1 << 63) - 1));
        assert!(is_bipartite_within(&odd, (1 << 62) - 1), "a path remains");
        let even = generators::cycle(64);
        assert!(is_bipartite_within(&even, u64::MAX));
    }
}

//! Proper k-colorings: validation, exact search, lexicographically-first
//! colorings and chromatic numbers.
//!
//! The extraction decoder of Lemma 3.2 colors the accepting neighborhood
//! graph with "the lexicographically first coloring … where nodes are
//! ordered as they appear in the output of A"; [`lex_first_coloring`] is
//! exactly that deterministic choice.

use crate::graph::Graph;

/// Whether `colors` is a proper coloring of `g` with palette `0..k`.
///
/// Returns `false` if `colors` has the wrong length or uses a color `≥ k`.
pub fn is_proper_coloring(g: &Graph, colors: &[usize], k: usize) -> bool {
    colors.len() == g.node_count()
        && colors.iter().all(|&c| c < k)
        && g.edges().all(|(u, v)| colors[u] != colors[v])
}

/// The lexicographically first proper k-coloring of `g` in node order, or
/// `None` if `g` is not k-colorable.
///
/// "Lexicographically first" compares the color vectors
/// `(c(0), c(1), …, c(n-1))` entrywise; the backtracking search below
/// returns exactly that minimum because it always tries smaller colors
/// first.
pub fn lex_first_coloring(g: &Graph, k: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    let mut colors = vec![usize::MAX; n];
    if color_from(g, k, 0, &mut colors) {
        Some(colors)
    } else {
        None
    }
}

fn color_from(g: &Graph, k: usize, v: usize, colors: &mut Vec<usize>) -> bool {
    if v == g.node_count() {
        return true;
    }
    'next_color: for c in 0..k {
        for &u in g.neighbors(v) {
            if u < v && colors[u] == c {
                continue 'next_color;
            }
        }
        colors[v] = c;
        if color_from(g, k, v + 1, colors) {
            return true;
        }
        colors[v] = usize::MAX;
    }
    false
}

/// Bitset adjacency: `words` 64-bit words per node row.
struct BitAdj {
    words: usize,
    rows: Vec<u64>,
}

impl BitAdj {
    fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        for (u, v) in g.edges() {
            if u != v {
                rows[u * words + v / 64] |= 1 << (v % 64);
                rows[v * words + u / 64] |= 1 << (u % 64);
            }
        }
        BitAdj { words, rows }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }
}

/// Exact k-colorability by DSATUR-ordered backtracking over bitset
/// adjacency. At every step the search branches on an *uncolored* node of
/// maximum saturation (number of distinct neighbor colors), breaking ties
/// by maximum degree then minimum index, and only ever opens one fresh
/// color beyond those already used (colorings are counted up to color
/// permutation, so trying a second fresh color is redundant).
///
/// Limited to `k ≤ 128` so a node's forbidden palette fits in a `u128`
/// saturation mask; callers with larger palettes fall back to the
/// lexicographic search (any graph needing more than 128 colors in this
/// repo would be far beyond sweep range anyway).
fn dsatur_k_colorable(g: &Graph, k: usize) -> bool {
    let n = g.node_count();
    if k >= n {
        return true;
    }
    if k == 0 {
        return n == 0;
    }
    let adj = BitAdj::new(g);
    // sat[v] = bitmask of colors used by v's colored neighbors.
    let mut sat = vec![0u128; n];
    let mut colors = vec![usize::MAX; n];
    let degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    dsatur_step(&adj, k, &degrees, &mut sat, &mut colors, 0, 0)
}

fn dsatur_step(
    adj: &BitAdj,
    k: usize,
    degrees: &[usize],
    sat: &mut [u128],
    colors: &mut [usize],
    colored: usize,
    used: usize,
) -> bool {
    let n = colors.len();
    if colored == n {
        return true;
    }
    // DSATUR pick: max saturation, then max degree, then min index.
    let mut pick = usize::MAX;
    let mut best = (0usize, 0usize);
    for v in 0..n {
        if colors[v] != usize::MAX {
            continue;
        }
        let key = (sat[v].count_ones() as usize, degrees[v]);
        if pick == usize::MAX || key > best {
            pick = v;
            best = key;
        }
    }
    // Symmetry breaking: at most one color beyond those already in use.
    let limit = k.min(used + 1);
    #[cfg(conformance_mutants)]
    let limit = if crate::mutants::active("dsatur_no_fresh_color") {
        k.min(used.max(1))
    } else {
        limit
    };
    for c in 0..limit {
        if sat[pick] & (1 << c) != 0 {
            continue;
        }
        colors[pick] = c;
        let bit = 1u128 << c;
        let mut touched = Vec::new();
        for (w, &word) in adj.row(pick).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let u = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if colors[u] == usize::MAX && sat[u] & bit == 0 {
                    sat[u] |= bit;
                    touched.push(u);
                }
            }
        }
        if dsatur_step(adj, k, degrees, sat, colors, colored + 1, used.max(c + 1)) {
            return true;
        }
        for &u in &touched {
            #[cfg(conformance_mutants)]
            if crate::mutants::active("dsatur_sat_undo_dropped") {
                break;
            }
            sat[u] &= !bit;
        }
        colors[pick] = usize::MAX;
    }
    false
}

/// Whether `g` is k-colorable, i.e. `g ∈ G(k-col)`.
///
/// Decided by DSATUR branch and bound for `k ≤ 128` (the hot path behind
/// hiding verdicts on accepting neighborhood graphs), falling back to the
/// lexicographic search beyond that.
pub fn is_k_colorable(g: &Graph, k: usize) -> bool {
    if k <= 128 {
        dsatur_k_colorable(g, k)
    } else {
        lex_first_coloring(g, k).is_some()
    }
}

/// The chromatic number of `g` (0 for the empty graph).
pub fn chromatic_number(g: &Graph) -> usize {
    if g.node_count() == 0 {
        return 0;
    }
    let ub = g.max_degree().unwrap_or(0) + 1;
    (1..=ub)
        .find(|&k| is_k_colorable(g, k))
        .expect("Δ + 1 colors always suffice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn validation() {
        let c4 = generators::cycle(4);
        assert!(is_proper_coloring(&c4, &[0, 1, 0, 1], 2));
        assert!(!is_proper_coloring(&c4, &[0, 1, 0, 0], 2));
        assert!(!is_proper_coloring(&c4, &[0, 1, 0], 2), "wrong length");
        assert!(
            !is_proper_coloring(&c4, &[0, 2, 0, 2], 2),
            "palette overflow"
        );
    }

    #[test]
    fn lex_first_is_minimal() {
        let p4 = generators::path(4);
        assert_eq!(lex_first_coloring(&p4, 2), Some(vec![0, 1, 0, 1]));
        // With 3 colors the lex-first coloring still uses the smallest.
        assert_eq!(lex_first_coloring(&p4, 3), Some(vec![0, 1, 0, 1]));
        let k3 = generators::complete(3);
        assert_eq!(lex_first_coloring(&k3, 3), Some(vec![0, 1, 2]));
    }

    #[test]
    fn colorability() {
        assert!(is_k_colorable(&generators::cycle(6), 2));
        assert!(!is_k_colorable(&generators::cycle(5), 2));
        assert!(is_k_colorable(&generators::cycle(5), 3));
        assert!(!is_k_colorable(&generators::complete(4), 3));
        assert!(is_k_colorable(&Graph::new(3), 1));
        assert!(!is_k_colorable(&generators::path(2), 1));
    }

    #[test]
    fn chromatic_numbers() {
        assert_eq!(chromatic_number(&Graph::new(0)), 0);
        assert_eq!(chromatic_number(&Graph::new(4)), 1);
        assert_eq!(chromatic_number(&generators::path(5)), 2);
        assert_eq!(chromatic_number(&generators::cycle(7)), 3);
        assert_eq!(chromatic_number(&generators::complete(5)), 5);
        assert_eq!(chromatic_number(&generators::petersen()), 3);
        assert_eq!(chromatic_number(&generators::grid(3, 3)), 2);
    }

    #[test]
    fn lex_first_fails_gracefully() {
        assert_eq!(lex_first_coloring(&generators::complete(4), 3), None);
    }

    /// All graphs on `n` nodes, as edge bitmasks over the `n(n-1)/2` pairs.
    fn all_graphs(n: usize) -> Vec<Graph> {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        (0..1u32 << pairs.len())
            .map(|mask| {
                let mut g = Graph::new(n);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        g.add_edge(u, v).unwrap();
                    }
                }
                g
            })
            .collect()
    }

    #[test]
    fn dsatur_matches_lex_oracle_exhaustively() {
        // Every graph on up to 5 nodes, every palette 0..=5: the DSATUR
        // search must agree with the lexicographic backtracking oracle.
        for n in 0..=5 {
            for g in all_graphs(n) {
                for k in 0..=5 {
                    assert_eq!(
                        dsatur_k_colorable(&g, k),
                        lex_first_coloring(&g, k).is_some(),
                        "n={n} k={k} edges={:?}",
                        g.edges().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn dsatur_handles_larger_structured_graphs() {
        assert!(dsatur_k_colorable(&generators::petersen(), 3));
        assert!(!dsatur_k_colorable(&generators::petersen(), 2));
        assert!(dsatur_k_colorable(&generators::grid(5, 7), 2));
        assert!(!dsatur_k_colorable(&generators::complete(20), 19));
        assert!(dsatur_k_colorable(&generators::complete(20), 20));
        // A graph wider than one bitset word.
        assert!(dsatur_k_colorable(&generators::cycle(130), 2));
        assert!(!dsatur_k_colorable(&generators::cycle(131), 2));
        assert!(dsatur_k_colorable(&generators::cycle(131), 3));
    }
}

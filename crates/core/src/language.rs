//! Distributed languages and promise classes (paper, Sections 2.1, 2.5).

use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::Graph;

/// The distributed language `k-col`: pairs `(G, x)` where `x` is a proper
/// k-coloring. `G(k-col)` is the set of k-colorable graphs.
///
/// # Example
///
/// ```
/// use hiding_lcp_core::language::KCol;
/// use hiding_lcp_graph::generators;
///
/// let two_col = KCol::new(2);
/// assert!(two_col.is_yes_graph(&generators::cycle(6)));
/// assert!(!two_col.is_yes_graph(&generators::cycle(5)));
/// assert!(two_col.is_witness(&generators::cycle(4), &[0, 1, 0, 1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KCol {
    k: usize,
}

impl KCol {
    /// The k-coloring language.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        KCol { k }
    }

    /// The number of colors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether `g ∈ G(k-col)`, i.e. `g` admits some witness.
    pub fn is_yes_graph(&self, g: &Graph) -> bool {
        coloring::is_k_colorable(g, self.k)
    }

    /// Whether the subgraph of `g` induced by the nodes in `mask` (bit `v`
    /// set for node `v` of `g`) lies in `G(k-col)`: `is_yes_graph(&g.induced(..).0)`
    /// without building the subgraph. At most k nodes, and k = 1 (no edge
    /// inside the mask), are answered in closed form; k = 2 runs
    /// [`bipartite::is_bipartite_within`]'s bitset search; none of these
    /// allocate. A larger k colors the induced subgraph exactly, as
    /// [`KCol::is_yes_graph`] does.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than 64 nodes, the mask's width.
    pub fn is_yes_within(&self, g: &Graph, mask: u64) -> bool {
        assert!(g.node_count() <= 64, "a u64 mask covers at most 64 nodes");
        if mask.count_ones() as usize <= self.k {
            return true;
        }
        match self.k {
            1 => (0..g.node_count())
                .filter(|&v| mask >> v & 1 == 1)
                .all(|v| g.neighbors(v).iter().all(|&u| mask >> u & 1 == 0)),
            2 => bipartite::is_bipartite_within(g, mask),
            _ => {
                let keep: Vec<usize> = (0..g.node_count())
                    .filter(|&v| mask >> v & 1 == 1)
                    .collect();
                self.is_yes_graph(&g.induced(&keep).0)
            }
        }
    }

    /// Whether `x` is a valid witness (proper k-coloring) for `g`.
    pub fn is_witness(&self, g: &Graph, x: &[usize]) -> bool {
        coloring::is_proper_coloring(g, x, self.k)
    }

    /// Whether partial node outputs form a valid witness: every node must
    /// have produced a color and the colors must be proper. This is the
    /// "fails to extract" test of the hiding definition (Section 2.4) —
    /// extraction fails as soon as a *single* node outputs no color.
    pub fn is_extracted_witness(&self, g: &Graph, outputs: &[Option<usize>]) -> bool {
        if outputs.len() != g.node_count() {
            return false;
        }
        let Some(colors) = outputs.iter().copied().collect::<Option<Vec<usize>>>() else {
            return false;
        };
        self.is_witness(g, &colors)
    }
}

/// A promise class H of graphs (paper, Section 2.5): yes-instances are
/// promised to lie in H; no-instances are the graphs outside `G(L)`;
/// anything else is unconstrained.
pub trait PromiseClass {
    /// A short human-readable name.
    fn name(&self) -> String;

    /// Whether `g ∈ H`.
    fn contains(&self, g: &Graph) -> bool;
}

/// The unrestricted promise (H = all graphs).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllGraphs;

impl PromiseClass for AllGraphs {
    fn name(&self) -> String {
        "all-graphs".into()
    }
    fn contains(&self, _g: &Graph) -> bool {
        true
    }
}

/// H₁ of Theorem 1.1: graphs with minimum degree one.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinDegreeOne;

impl PromiseClass for MinDegreeOne {
    fn name(&self) -> String {
        "min-degree-one".into()
    }
    fn contains(&self, g: &Graph) -> bool {
        hiding_lcp_graph::classes::simple::has_min_degree_one(g)
    }
}

/// H₂ of Theorem 1.1: even cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenCycles;

impl PromiseClass for EvenCycles {
    fn name(&self) -> String {
        "even-cycles".into()
    }
    fn contains(&self, g: &Graph) -> bool {
        hiding_lcp_graph::classes::simple::is_even_cycle(g)
    }
}

/// H₁ ∪ H₂ of Theorem 1.1: each component has minimum degree one or is an
/// even cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Theorem11Class;

impl PromiseClass for Theorem11Class {
    fn name(&self) -> String {
        "min-degree-one ∪ even-cycles".into()
    }
    fn contains(&self, g: &Graph) -> bool {
        hiding_lcp_graph::classes::simple::is_theorem_1_1_instance(g)
    }
}

/// Theorem 1.3's class: graphs admitting a shatter point.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShatterPointGraphs;

impl PromiseClass for ShatterPointGraphs {
    fn name(&self) -> String {
        "shatter-point".into()
    }
    fn contains(&self, g: &Graph) -> bool {
        !hiding_lcp_graph::classes::shatter::shatter_points(g).is_empty()
    }
}

/// Theorem 1.4's class: watermelon graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WatermelonGraphs;

impl PromiseClass for WatermelonGraphs {
    fn name(&self) -> String {
        "watermelon".into()
    }
    fn contains(&self, g: &Graph) -> bool {
        hiding_lcp_graph::classes::watermelon::decompose(g).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiding_lcp_graph::generators;

    #[test]
    fn kcol_basics() {
        let l = KCol::new(3);
        assert_eq!(l.k(), 3);
        assert!(l.is_yes_graph(&generators::petersen()));
        assert!(!KCol::new(2).is_yes_graph(&generators::petersen()));
        assert!(!l.is_witness(&generators::cycle(3), &[0, 1, 1]));
    }

    #[test]
    fn masked_test_matches_the_induced_subgraph() {
        // Every connected graph on at most 6 nodes, every node subset,
        // k = 1..=4: the mask test agrees with coloring the induced
        // subgraph.
        for g in generators::connected_graphs_up_to(6) {
            let n = g.node_count();
            for mask in 0..1u64 << n {
                let keep: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
                let (induced, _) = g.induced(&keep);
                for k in 1..=4 {
                    assert_eq!(
                        KCol::new(k).is_yes_within(&g, mask),
                        coloring::is_k_colorable(&induced, k),
                        "k={k}, edges {:?}, mask {mask:#b}",
                        g.edges().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_requires_every_node() {
        let l = KCol::new(2);
        let c4 = generators::cycle(4);
        assert!(l.is_extracted_witness(&c4, &[Some(0), Some(1), Some(0), Some(1)]));
        assert!(
            !l.is_extracted_witness(&c4, &[Some(0), Some(1), Some(0), None]),
            "a single missing output already fails extraction"
        );
        assert!(!l.is_extracted_witness(&c4, &[Some(0), Some(0), Some(0), Some(1)]));
        assert!(!l.is_extracted_witness(&c4, &[Some(0), Some(1), Some(0)]));
    }

    #[test]
    fn promise_classes() {
        assert!(MinDegreeOne.contains(&generators::path(4)));
        assert!(!MinDegreeOne.contains(&generators::cycle(4)));
        assert!(EvenCycles.contains(&generators::cycle(6)));
        assert!(!EvenCycles.contains(&generators::cycle(5)));
        assert!(Theorem11Class.contains(&generators::path(3).disjoint_union(&generators::cycle(4))));
        assert!(ShatterPointGraphs.contains(&generators::path(8)));
        assert!(!ShatterPointGraphs.contains(&generators::cycle(6)));
        assert!(WatermelonGraphs.contains(&generators::watermelon(&[2, 3, 4])));
        assert!(!WatermelonGraphs.contains(&generators::star(3)));
        assert!(AllGraphs.contains(&generators::complete(5)));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_colors_rejected() {
        let _ = KCol::new(0);
    }
}

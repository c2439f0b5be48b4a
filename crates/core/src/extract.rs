//! The extraction decoder `D'` of Lemma 3.2.
//!
//! Given a k-colorable accepting neighborhood graph `V(D, n)`, the
//! extractor fixes the lexicographically first proper k-coloring `c` of
//! `V(D, n)` (views ordered as the construction algorithm emitted them)
//! and has every node (1) locate its own view in `V(D, n)` and (2) output
//! `c(view)`. On any unanimously accepted labeled yes-instance this
//! recovers a proper k-coloring — which is exactly why a decoder whose
//! neighborhood graph is k-colorable is *not* hiding.

use crate::decoder::Decoder;
use crate::instance::LabeledInstance;
use crate::language::KCol;
use crate::nbhd::NbhdGraph;
use crate::verify::{Universe, VerificationReport};
use crate::view::{IdMode, View};
use hiding_lcp_graph::Graph;

/// The Lemma 3.2 extraction decoder.
#[derive(Debug, Clone)]
pub struct Extractor {
    nbhd: NbhdGraph,
    coloring: Vec<usize>,
    k: usize,
}

impl Extractor {
    /// Builds the extractor from a neighborhood graph, or `None` if
    /// `V(D, n)` is not k-colorable (in which case — by Lemma 3.2 — the
    /// decoder is hiding and no extractor exists).
    pub fn from_nbhd(nbhd: NbhdGraph, k: usize) -> Option<Self> {
        let coloring = nbhd.lex_coloring(k)?;
        Some(Extractor { nbhd, coloring, k })
    }

    /// The engine form: sweeps `universe` on the verification engine (see
    /// [`crate::verify`]), builds `V(D, ·)` with anonymous views and
    /// attempts the Lemma 3.2 coloring. A `None` verdict means `V(D, ·)`
    /// is not k-colorable — the decoder hides and no extractor exists.
    pub fn from_universe<D, F>(
        decoder: &D,
        universe: &Universe,
        k: usize,
        is_yes: F,
    ) -> VerificationReport<Option<Extractor>>
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        NbhdGraph::from_sweep(decoder, IdMode::Anonymous, universe, is_yes)
            .map(|nbhd| Extractor::from_nbhd(nbhd, k))
    }

    /// The palette size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying neighborhood graph.
    pub fn nbhd(&self) -> &NbhdGraph {
        &self.nbhd
    }

    /// One node's extraction: looks the view up in `V(D, n)` and returns
    /// its color, or `None` when the view is unknown (the instance lies
    /// outside the explored universe — with the full Lemma 3.1 universe
    /// for the right size bound this cannot happen on accepted
    /// yes-instances).
    pub fn extract(&self, view: &View) -> Option<usize> {
        self.nbhd.index_of(view).map(|i| self.coloring[i])
    }

    /// Runs the extraction at every node.
    pub fn extract_all(&self, li: &LabeledInstance) -> Vec<Option<usize>> {
        let r = self.nbhd.radius();
        let mode = self.nbhd.id_mode();
        li.graph()
            .nodes()
            .map(|v| self.extract(&li.view(v, r, mode)))
            .collect()
    }

    /// Whether extraction yields a valid witness on `li`: every node
    /// outputs a color and the colors form a proper k-coloring. The hiding
    /// definition (Section 2.4) is the negation of this succeeding on all
    /// accepted labeled yes-instances.
    pub fn extraction_succeeds(&self, li: &LabeledInstance) -> bool {
        let outputs = self.extract_all(li);
        KCol::new(self.k).is_extracted_witness(li.graph(), &outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{Decoder, Verdict};
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use crate::view::IdMode;
    use hiding_lcp_graph::algo::bipartite;
    use hiding_lcp_graph::generators;

    /// The revealing 2-coloring LCP (anonymous).
    struct LocalDiff;
    impl Decoder for LocalDiff {
        fn name(&self) -> String {
            "local-diff".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            let mine = view.center_label();
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).label != *mine),
            )
        }
    }

    fn binary_alphabet() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    fn exhaustive_extractor(max_n: usize) -> Extractor {
        let universe = Universe::lemma31(max_n, binary_alphabet()).expect("small universe fits");
        Extractor::from_universe(&LocalDiff, &universe, 2, bipartite::is_bipartite)
            .verdict
            .expect("revealing LCP is not hiding")
    }

    #[test]
    fn extraction_recovers_a_coloring_from_the_revealing_lcp() {
        let extractor = exhaustive_extractor(4);
        // An accepted yes-instance within the universe's size bound whose
        // views all appeared: 2-colored C4.
        let inst = Instance::canonical(generators::cycle(4));
        let labels = (0..4)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        let li = inst.with_labeling(labels);
        assert!(crate::decoder::accepts_all(&LocalDiff, &li));
        assert!(extractor.extraction_succeeds(&li));
        let outputs = extractor.extract_all(&li);
        assert!(outputs.iter().all(Option::is_some));
    }

    #[test]
    fn extraction_generalizes_to_unseen_instances_with_known_views() {
        // The universe only went up to n = 4, but anonymous views of a
        // 2-colored path on 6 nodes already occur in smaller instances, so
        // extraction still succeeds — the decoder genuinely leaks.
        let extractor = exhaustive_extractor(4);
        let inst = Instance::canonical(generators::path(6));
        let labels = (0..6)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        let li = inst.with_labeling(labels);
        assert!(crate::decoder::accepts_all(&LocalDiff, &li));
        assert!(extractor.extraction_succeeds(&li));
    }

    #[test]
    fn extraction_fails_on_unknown_views() {
        let extractor = exhaustive_extractor(3);
        // A star with 3 leaves has a center view (degree 3) that never
        // occurs in graphs with at most 3 nodes.
        let inst = Instance::canonical(generators::star(3));
        let labels = Labeling::new(vec![
            Certificate::from_byte(0),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
        ]);
        let li = inst.with_labeling(labels);
        let outputs = extractor.extract_all(&li);
        assert_eq!(outputs[0], None, "center view unseen at n <= 3");
        assert!(!extractor.extraction_succeeds(&li));
    }

    #[test]
    fn engine_extractor_matches_materialized_extractor() {
        let alphabet = binary_alphabet();
        let universe = crate::verify::Universe::lemma31(4, alphabet).expect("n <= 4 universe fits");
        let report = Extractor::from_universe(&LocalDiff, &universe, 2, bipartite::is_bipartite);
        let engine = report.verdict.expect("revealing LCP is not hiding");
        let manual = exhaustive_extractor(4);
        let inst = Instance::canonical(generators::cycle(4));
        let labels = (0..4)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        let li = inst.with_labeling(labels);
        assert_eq!(engine.extract_all(&li), manual.extract_all(&li));
        assert!(engine.extraction_succeeds(&li));
    }

    #[test]
    fn hiding_nbhd_yields_no_extractor() {
        struct YesMan;
        impl Decoder for YesMan {
            fn name(&self) -> String {
                "yes-man".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _view: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let li = Instance::canonical(generators::cycle(4)).with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        assert!(Extractor::from_nbhd(nbhd, 2).is_none());
    }
}

//! Quantified hiding (paper, Section 1.1 / Section 2.4 outlook).
//!
//! The paper's hiding notion is satisfied as soon as a *single* node fails
//! to output its color, and explicitly proposes the quantified variant —
//! "at least a constant fraction of nodes fail" — as future work with
//! links to distributed property testing. This module mechanizes a clean
//! lower bound on that fraction.
//!
//! Call a view *unextractable* (for palette size k) when its connected
//! component in `V(D, ·)` is not k-colorable (contains an odd closed walk
//! for k = 2, including self-loops). No decoder whatsoever can assign
//! colors to the views of such a component consistently, whereas every
//! k-colorable component admits a consistent assignment. Hence, on any
//! accepted instance, the fraction of nodes whose views are unextractable
//! lower-bounds the failure fraction of **every** extraction attempt.
//!
//! Measured on the paper's schemes (experiment E16): the even-cycle LCP
//! scores 1.0 (the coloring is hidden *everywhere*, matching the paper's
//! emphasis) while the degree-one LCP hides only near the `⊥`/`⊤` pocket.
//!
//! No check of its own: [`verify_extractability`], [`quantified_member`]
//! and the audit plan's quantified line all run the Lemma 3.1 scan
//! [`NbhdSweep`] and classify the `V(D, ·)` it builds with
//! [`ExtractabilityMap`].

use crate::decoder::Decoder;
use crate::instance::LabeledInstance;
use crate::nbhd::{NbhdGraph, NbhdSweep};
use crate::verify::{DynPropertyCheck, PropertyTag, SweepSession, Universe, VerificationReport};
use crate::view::IdMode;
use hiding_lcp_graph::algo::{bipartite, coloring, components};
use hiding_lcp_graph::Graph;

/// Classification of the views of a neighborhood graph by the
/// k-colorability of their connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractabilityMap {
    k: usize,
    /// `true` at view index `i` iff `i`'s component is NOT k-colorable.
    unextractable: Vec<bool>,
}

impl ExtractabilityMap {
    /// Classifies every view of `nbhd` for palette size `k`.
    pub fn new(nbhd: &NbhdGraph, k: usize) -> Self {
        let g = nbhd.to_graph();
        let mut unextractable = vec![false; nbhd.view_count()];
        // Self-loops poison their components for every k.
        let loops = nbhd.self_loop_views();
        for comp in components::connected_components(&g) {
            let (sub, _) = g.induced(&comp);
            let poisoned = comp.iter().any(|v| loops.binary_search(v).is_ok())
                || if k == 2 {
                    !bipartite::is_bipartite(&sub)
                } else {
                    !coloring::is_k_colorable(&sub, k)
                };
            if poisoned {
                for &v in &comp {
                    unextractable[v] = true;
                }
            }
        }
        ExtractabilityMap { k, unextractable }
    }

    /// The palette size this map was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the view at index `i` is unextractable.
    pub fn is_unextractable(&self, i: usize) -> bool {
        self.unextractable.get(i).copied().unwrap_or(false)
    }

    /// The number of unextractable views.
    pub fn unextractable_views(&self) -> usize {
        self.unextractable.iter().filter(|&&b| b).count()
    }

    /// The fraction of `li`'s nodes whose views are unextractable — a
    /// lower bound on the failure fraction of every decoder attempting to
    /// extract a k-coloring from this certificate assignment. Nodes whose
    /// views do not appear in `nbhd` at all count as unextractable too
    /// (no consistent table covers them).
    pub fn hidden_fraction(&self, nbhd: &NbhdGraph, li: &LabeledInstance) -> f64 {
        let n = li.graph().node_count();
        if n == 0 {
            return 0.0;
        }
        let hidden = li
            .graph()
            .nodes()
            .filter(|&v| {
                let view = li.view(v, nbhd.radius(), nbhd.id_mode());
                match nbhd.index_of(&view) {
                    Some(i) => self.is_unextractable(i),
                    None => true,
                }
            })
            .count();
        hidden as f64 / n as f64
    }
}

/// The quantified-hiding analysis as a panel member: the Lemma 3.1 scan
/// with anonymous extractor views, whose `V(D, ·)` (the member's verdict)
/// the summary classifies by k-colorability into the unextractable-view
/// count. Joined to `decoder`'s verdict channel, so a fused audit
/// maintains one delta-evaluated verdict vector for every member built on
/// the same decoder object. As with the scan, the member is tied to the
/// universe it was built for.
pub fn quantified_member<'a, F>(
    decoder: &'a dyn Decoder,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> DynPropertyCheck<'a>
where
    F: Fn(&Graph) -> bool,
{
    DynPropertyCheck::with_summary(
        PropertyTag::Quantified,
        "quantified",
        NbhdSweep::new(decoder, IdMode::Anonymous, universe, is_yes),
        move |nbhd: &NbhdGraph, _| quantified_line(nbhd, k),
    )
    .with_channel(decoder)
}

/// The quantified audit line of `nbhd` classified for palette size `k`:
/// informational (`passed` is `None`) with the unextractable-view count.
/// The summary of [`quantified_member`] and of the audit plan's quantified
/// line.
pub(crate) fn quantified_line(nbhd: &NbhdGraph, k: usize) -> (Option<bool>, String) {
    (
        None,
        format!(
            "{} of {} views unextractable",
            ExtractabilityMap::new(nbhd, k).unextractable_views(),
            nbhd.view_count()
        ),
    )
}

/// Builds `V(D, ·)` over `universe` on the engine (the Lemma 3.1 scan with
/// anonymous extractor views) and classifies its views by extractability,
/// returning both with the sweep's execution evidence.
pub fn verify_extractability<D, F>(
    decoder: &D,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> VerificationReport<(NbhdGraph, ExtractabilityMap)>
where
    D: Decoder + ?Sized,
    F: Fn(&Graph) -> bool,
{
    let check = NbhdSweep::new(decoder, IdMode::Anonymous, universe, is_yes);
    SweepSession::over(universe).run(&check).map(|nbhd| {
        let map = ExtractabilityMap::new(&nbhd, k);
        (nbhd, map)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{Decoder, Verdict};
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate differs from all neighbors'.
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

    fn two_colored_cycle(n: usize) -> LabeledInstance {
        let g = generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n)).unwrap();
        let labels = (0..n)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        inst.with_labeling(labels)
    }

    #[test]
    fn revealing_scheme_hides_nothing() {
        let li = two_colored_cycle(6);
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li.clone()], |g| {
            bipartite::is_bipartite(g)
        });
        let map = ExtractabilityMap::new(&nbhd, 2);
        assert_eq!(map.unextractable_views(), 0);
        assert_eq!(map.hidden_fraction(&nbhd, &li), 0.0);
    }

    #[test]
    fn self_loop_scheme_hides_everything() {
        let g = generators::cycle(4);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4)).unwrap();
        let li = inst.with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan, IdMode::Anonymous, vec![li.clone()], |g| {
            bipartite::is_bipartite(g)
        });
        let map = ExtractabilityMap::new(&nbhd, 2);
        assert_eq!(map.unextractable_views(), nbhd.view_count());
        assert_eq!(map.hidden_fraction(&nbhd, &li), 1.0);
        // ... for k = 5 just the same: self-loops poison every palette.
        let map5 = ExtractabilityMap::new(&nbhd, 5);
        assert_eq!(map5.unextractable_views(), nbhd.view_count());
    }

    #[test]
    fn engine_sweep_matches_manual_classification() {
        let li = two_colored_cycle(6);
        let universe = Universe::from_labeled(vec![li.clone()], crate::verify::Coverage::Sampled)
            .expect("one labeled instance fits");
        let (nbhd, map) =
            verify_extractability(&LocalDiff, &universe, 2, bipartite::is_bipartite).verdict;
        let manual = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li.clone()], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(nbhd.view_count(), manual.view_count());
        assert_eq!(map, ExtractabilityMap::new(&manual, 2));
        assert_eq!(map.hidden_fraction(&nbhd, &li), 0.0);
    }

    #[test]
    fn unknown_views_count_as_hidden() {
        let li6 = two_colored_cycle(6);
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li6], |g| {
            bipartite::is_bipartite(g)
        });
        let map = ExtractabilityMap::new(&nbhd, 2);
        // A 2-colored path's endpoint views never appear in the cycle
        // universe.
        let inst = Instance::canonical(generators::path(4));
        let labels = (0..4)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        let li = inst.with_labeling(labels);
        let fraction = map.hidden_fraction(&nbhd, &li);
        assert!(fraction > 0.0, "endpoint views are unknown");
    }
}

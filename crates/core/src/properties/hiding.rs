//! The hiding property, checked through the Lemma 3.2 characterization.
//!
//! `D` hides a k-coloring iff `V(D, n)` is not k-colorable for some `n`.
//! Over a *partial* instance universe the check is one-sided:
//!
//! * a non-k-colorable `V(D, ·)` (odd closed walk for k = 2) is already
//!   conclusive — the views involved exist, so no decoder can color them
//!   consistently: **hiding**;
//! * a k-colorable `V(D, ·)` is conclusive only when the universe is the
//!   full Lemma 3.1 sweep for the size bound in question: **not hiding
//!   (at this n)**, and [`crate::extract`] actually builds the extractor.

use crate::decoder::{Decoder, Verdict};
use crate::nbhd::{NbhdGraph, NbhdScan, NbhdSweep};
use crate::verify::{
    Coverage, DynPropertyCheck, ItemCtx, PropertyCheck, PropertyTag, SweepOutcome, SweepSession,
    Universe, UniverseItem, VerificationReport,
};
use crate::view::IdMode;
use hiding_lcp_graph::Graph;

/// How thoroughly the instance universe behind a neighborhood graph
/// covered the Lemma 3.1 iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniverseCoverage {
    /// Every labeled yes-instance up to the stated size bound was fed in;
    /// a colorable `V(D, n)` then genuinely refutes hiding at this `n`.
    Exhaustive,
    /// Only selected instances were fed in; colorability is inconclusive.
    Partial,
}

impl From<Coverage> for UniverseCoverage {
    /// A [`Universe`]'s typed coverage is exactly this distinction — the
    /// engine path ([`verify_hiding`]) derives it from the universe instead
    /// of trusting a caller's assertion.
    fn from(coverage: Coverage) -> UniverseCoverage {
        match coverage {
            Coverage::Exhaustive => UniverseCoverage::Exhaustive,
            Coverage::Sampled => UniverseCoverage::Partial,
        }
    }
}

/// The outcome of a hiding check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HidingVerdict {
    /// `V(D, ·)` contains an odd closed walk (length 1 = self-loop):
    /// the decoder hides a 2-coloring. Conclusive even over a partial
    /// universe.
    Hiding {
        /// The odd closed walk, as view indices into the checked
        /// [`NbhdGraph`].
        odd_walk: Vec<usize>,
    },
    /// `V(D, ·)` is k-colorable over an exhaustive universe: the decoder
    /// is **not** hiding at this size bound; the coloring is the
    /// extractor's table.
    NotHiding {
        /// The lexicographically-first proper coloring of the views.
        coloring: Vec<usize>,
    },
    /// `V(D, ·)` is k-colorable but the universe was partial: no
    /// conclusion.
    Inconclusive,
}

impl HidingVerdict {
    /// Whether hiding was certified.
    pub fn is_hiding(&self) -> bool {
        matches!(self, HidingVerdict::Hiding { .. })
    }
}

/// Applies Lemma 3.2 to a built neighborhood graph.
///
/// `k` is the number of colors of the certified language (2 throughout the
/// paper's main results).
pub fn check_hiding(nbhd: &NbhdGraph, k: usize, coverage: UniverseCoverage) -> HidingVerdict {
    #[cfg(conformance_mutants)]
    let coverage = if crate::mutants::active("hiding_partial_conclusive") {
        UniverseCoverage::Exhaustive
    } else {
        coverage
    };
    if k == 2 {
        if let Some(odd_walk) = nbhd.odd_cycle() {
            return HidingVerdict::Hiding { odd_walk };
        }
    } else if !nbhd.k_colorable(k) {
        // For k > 2 we have no compact witness object; report the whole
        // view set as the "walk".
        return HidingVerdict::Hiding {
            odd_walk: (0..nbhd.view_count()).collect(),
        };
    }
    match coverage {
        UniverseCoverage::Exhaustive => match nbhd.lex_coloring(k) {
            Some(coloring) => HidingVerdict::NotHiding { coloring },
            None => HidingVerdict::Hiding {
                odd_walk: (0..nbhd.view_count()).collect(),
            },
        },
        UniverseCoverage::Partial => HidingVerdict::Inconclusive,
    }
}

/// The hiding property as a sweepable check: the Lemma 3.1 scan feeding
/// the Lemma 3.2 colorability test, with the coverage read off the
/// universe's type, and partial whenever the sweep stopped short of it.
pub struct HidingCheck<'a, D: ?Sized> {
    sweep: NbhdSweep<'a, D>,
    k: usize,
}

impl<'a, D: Decoder + ?Sized> HidingCheck<'a, D> {
    /// Prepares a hiding check of `decoder` for `k`-colorings, over
    /// yes-instances per `is_yes`, with anonymous extractor views (the
    /// hiding definition quantifies over anonymous decoders `D'`).
    pub fn new<F>(decoder: &'a D, universe: &Universe, k: usize, is_yes: F) -> Self
    where
        F: Fn(&Graph) -> bool,
    {
        HidingCheck {
            sweep: NbhdSweep::new(decoder, IdMode::Anonymous, universe, is_yes),
            k,
        }
    }
}

impl<D: Decoder + ?Sized> PropertyCheck for HidingCheck<'_, D> {
    type Partial = NbhdScan;
    type Verdict = (NbhdGraph, HidingVerdict);

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.sweep.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<NbhdScan> {
        self.sweep.inspect(item, ctx)
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.sweep.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.sweep.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<NbhdScan> {
        self.sweep.inspect_with_verdicts(item, verdicts, ctx)
    }

    fn symmetry_class(
        &self,
        alphabet: &[crate::label::Certificate],
    ) -> Option<crate::verify::SymmetrySpec> {
        self.sweep.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<crate::verify::InternerReport> {
        self.sweep.interner_report()
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, NbhdScan)>,
        outcome: &SweepOutcome,
    ) -> (NbhdGraph, HidingVerdict) {
        let nbhd = self.sweep.reduce(universe, partials, outcome);
        let coverage = if outcome.checked < outcome.universe_size {
            UniverseCoverage::Partial
        } else {
            universe.coverage().into()
        };
        let verdict = check_hiding(&nbhd, self.k, coverage);
        (nbhd, verdict)
    }
}

/// [`HidingCheck`] as a panel member: joined to `decoder`'s verdict
/// channel, so a fused audit maintains one delta-evaluated verdict vector
/// for every member built on the same decoder object. As with the plain
/// check, the member is tied to the universe it was built for.
pub fn hiding_member<'a, F>(
    decoder: &'a dyn Decoder,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> DynPropertyCheck<'a>
where
    F: Fn(&Graph) -> bool,
{
    DynPropertyCheck::with_summary(
        PropertyTag::Hiding,
        "hiding",
        HidingCheck::new(decoder, universe, k, is_yes),
        |(_, v): &(NbhdGraph, HidingVerdict)| hiding_line(v),
    )
    .with_channel(decoder)
}

/// A hiding verdict's audit line: `passed` and its detail text. The
/// summary of [`hiding_member`] and of the audit plan's hiding line.
pub(crate) fn hiding_line(verdict: &HidingVerdict) -> (Option<bool>, String) {
    match verdict {
        HidingVerdict::Hiding { .. } => (Some(true), "V(D, .) is not k-colorable".into()),
        HidingVerdict::NotHiding { .. } => (
            Some(false),
            "V(D, .) is k-colorable over an exhaustive universe".into(),
        ),
        HidingVerdict::Inconclusive => (
            None,
            "V(D, .) k-colorable but the universe was partial".into(),
        ),
    }
}

/// Checks hiding of `decoder` on the engine: sweeps `universe`, builds
/// `V(D, ·)` and applies Lemma 3.2, with [`UniverseCoverage`] taken from
/// [`Universe::coverage`] rather than asserted by the caller. The verdict
/// comes with the neighborhood graph (for witness extraction) and the
/// sweep's execution evidence.
pub fn verify_hiding<D, F>(
    decoder: &D,
    universe: &Universe,
    k: usize,
    is_yes: F,
) -> VerificationReport<(NbhdGraph, HidingVerdict)>
where
    D: Decoder + ?Sized,
    F: Fn(&Graph) -> bool,
{
    let check = HidingCheck::new(decoder, universe, k, is_yes);
    SweepSession::over(universe).run(&check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{Decoder, Verdict};
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::algo::bipartite;
    use hiding_lcp_graph::generators;

    /// Accepts everything.
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

    #[test]
    fn yes_man_is_trivially_hiding() {
        // Accept-everything reveals nothing: its neighborhood graph over
        // unlabeled C4 has a self-loop.
        let li = Instance::canonical(generators::cycle(4)).with_labeling(Labeling::empty(4));
        let nbhd = crate::nbhd::NbhdGraph::build(&YesMan, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        let verdict = check_hiding(&nbhd, 2, UniverseCoverage::Partial);
        assert!(verdict.is_hiding());
        assert_eq!(verdict, HidingVerdict::Hiding { odd_walk: vec![0] });
    }

    #[test]
    fn revealing_lcp_is_not_hiding_over_exhaustive_universe() {
        let alphabet = vec![Certificate::from_byte(0), Certificate::from_byte(1)];
        let universe = crate::nbhd::sources::exhaustive_universe(4, &alphabet);
        let nbhd = crate::nbhd::NbhdGraph::build(&LocalDiff, IdMode::Anonymous, universe, |g| {
            bipartite::is_bipartite(g)
        });
        let verdict = check_hiding(&nbhd, 2, UniverseCoverage::Exhaustive);
        match verdict {
            HidingVerdict::NotHiding { coloring } => {
                assert_eq!(coloring.len(), nbhd.view_count());
            }
            other => panic!("revealing LCP must not hide: {other:?}"),
        }
    }

    #[test]
    fn engine_sweep_matches_materialized_build() {
        // The engine path (typed-coverage universe, skeleton cache,
        // odometer labelings) and the materialized path must agree on the
        // graph and, thanks to the typed coverage, on the verdict.
        let alphabet = vec![Certificate::from_byte(0), Certificate::from_byte(1)];
        let universe = Universe::lemma31(3, alphabet.clone()).expect("n <= 3 universe fits");
        let report = verify_hiding(&LocalDiff, &universe, 2, bipartite::is_bipartite);
        assert_eq!(report.universe_size, 86);
        let (nbhd, verdict) = report.verdict;
        let manual = crate::nbhd::NbhdGraph::build(
            &LocalDiff,
            IdMode::Anonymous,
            crate::nbhd::sources::exhaustive_universe(3, &alphabet),
            bipartite::is_bipartite,
        );
        assert_eq!(nbhd.view_count(), manual.view_count());
        assert_eq!(nbhd.edge_count(), manual.edge_count());
        assert!(matches!(verdict, HidingVerdict::NotHiding { .. }));
    }

    #[test]
    fn partial_universe_without_odd_walk_is_inconclusive() {
        let li = {
            let inst = Instance::canonical(generators::cycle(4));
            let labels = (0..4)
                .map(|v| Certificate::from_byte((v % 2) as u8))
                .collect();
            inst.with_labeling(labels)
        };
        let nbhd = crate::nbhd::NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(
            check_hiding(&nbhd, 2, UniverseCoverage::Partial),
            HidingVerdict::Inconclusive
        );
    }
}
